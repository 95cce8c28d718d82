"""Optimal RPR2 rounding functions via discrete Fredholm equations.

For a hard distribution the rounding performance is a quadratic functional

    L(f) = lambda1 * int f^2 phi + sum_j w_j * int int f(x) f(y) phi_{rho_j}(x,y),

minimized over |f| <= 1.  Where |f| < 1 the minimizer solves a Fredholm
integral equation of the second kind; discretizing f as a step function on
N equal-Gaussian-mass cells turns it into the dense linear system
(I + lam M')f' = g over the unclamped cells, with lam = 1/lambda1, M' the
weighted kernel matrix scaled by N, and g collecting the clamped +-1
cells.  The index i_a of the last clamped cell is the smallest one whose
solved interior is consistent, bounded and monotone (consistency is
monotone in i_a for i_a >= 1, which ``TestClampSearch`` checks): from a
hint the search gallops 1, 2, 4, ... clamps away until that index is
bracketed and bisects the bracket, and without one it bisects [1, N/2].
The zero function (i_a = 0, the homogeneous solution) and the sign
function (i_a = N/2) are the other two candidates, and only i* is scored
by quadratic forms: every F_2 of the zero function is +-0, so its
soundness is closed form, and the sign function's F_2(rho) depends on N
and rho alone, so one cached value serves a whole rho-slice.  A singular
system raises LinAlgError in np.linalg.solve and counts as inconsistent.
Both grid scans, curve and approx_ratio's coarse one, walk each (rho,
variant) slice with _walk: it searches the points in alpha order, hints
each search with the i* of the one before and yields the winner's
soundness, building no GridFunction per point.  approx_ratio, which keeps
only the least ratio of its grid, has the walker pass over most points:
max(zero, sign) / completeness bounds a point's ratio from below with the
very floats the search compares, so a point whose bound exceeds the
running minimum can neither be the minimum nor tie it.  Every ratio (a
curve point's, a bound, the coarse scan's and the refinement's) is s / c
by one rule, _ratio, and infinite where the completeness c is at most
1e-12; both scans deal their slices to worker processes by one rule,
_pool_map.

Everything works on the odd-reduced half system: solutions are odd, so
cell N+1-i carries value -f_i and the linear algebra shrinks by 8x.

The reduced kernel of one correlation rho comes from Mehler's formula
phi_rho(x,y) = phi(x) phi(y) sum_k rho^k H_k(x) H_k(y): with U[i, j] the
integral of H_{2j+1} phi over left-half cell i (exact boundary terms, one
table per N, grown to the degree a call needs), R(rho) = 2N U diag(rho^k) U^T
over the odd degrees k <= K(rho) = ceil(log(1e-17) / log|rho|).  Since
sum_k U[i, k]^2 <= 1/N, the dropped tail moves no entry by more than
2|rho|^K.  Where K(rho) would exceed 1000 (|rho| above about 0.96) the
kernel falls back to the Owen's-T cell lattice of moments.rect_lattice,
which also serves build_kernel_matrix and is the test oracle.

Per-distribution kernels:

* MAX CUT, biases {rho (w.p. alpha), 1}:  lambda1 = (1-alpha)/alpha, one
  term (1, rho).
* NAE-3 'clamped', triples {(rho0,rho0,rho0) (w.p. alpha), (1,rho,rho)}:
  lambda1 = (1-alpha)/(3 alpha), terms ((2-2 alpha)/(3 alpha), rho), (1, rho0).
* NAE-3 'one' (rho0 = 1): the (1,1,1) atom only adds int f^2 mass, giving
  s3 = 3/4 - (1+2 alpha)/4 int f^2 phi - (1-alpha)/2 F2(rho), hence
  lambda1 = (1+2 alpha)/(2-2 alpha) with one term (1, rho).  (The source
  derivation displays (1-4 alpha) here, a sign slip: recomputing the
  coefficient of int f^2 gives (1-alpha)/4 + 3 alpha/4 = (1+2 alpha)/4,
  and the solver confirms the corrected constant yields uniformly better
  rounding functions.)

Degenerate corners are handled analytically: alpha = 1 (lambda1 = 0, pure
kernel) and rho = -1 (the rho-kernel collapses onto the diagonal) both
make the box-constrained quadratic concave along every Hermite direction,
so the optimum is a vertex or the zero function; the candidates {sign, 0}
are compared by true soundness.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from types import SimpleNamespace

import numpy as np

from .core import GridFunction, HardDistribution, checked_int, equal_mass_edges, golden_section_min
from .errors import DomainError
from . import hermite, moments

DEFAULT_N = 600
CURVE_N = 100

_TINY_LAMBDA1 = 1e-12


@dataclass(frozen=True)
class KernelSpec:
    """Weighted sum of Gaussian-pair kernels plus the diagonal weight lambda1."""

    lambda1: float
    terms: tuple[tuple[float, float], ...]  # (weight, correlation)

    def __post_init__(self):
        for w, r in self.terms:
            if not -1.0 < r < 1.0:
                raise DomainError(f"kernel correlation must satisfy |rho| < 1, got {r}")
            if not math.isfinite(w):
                raise DomainError("kernel weights must be finite")


@dataclass(frozen=True)
class FredholmSolution:
    f: GridFunction
    clamp_index: int          # cells 1..i_a (and mirrors) are forced to -+1
    residual: float           # l2 norm of the interior stationarity residual
    soundness: float
    completeness: float


# ---------------------------------------------------------------------------
# kernels per distribution

_ALPHA_ONE_CAP = 1.0 - 1e-6  # the rho0=1 variant is rank-degenerate at alpha=1


def kernel_spec(dist: HardDistribution) -> KernelSpec:
    """KernelSpec of a hard distribution; requires rho > -1 and alpha < 1
    (outside that range the solver short-circuits analytically)."""
    a, r = dist.alpha, dist.rho
    if r <= -1.0:
        raise DomainError("rho = -1 collapses the kernel; handled analytically")
    if dist.problem == "maxcut":
        if a >= 1.0:
            return KernelSpec(0.0, ((1.0, r),))
        return KernelSpec((1.0 - a) / a if a > 0 else math.inf, ((1.0, r),))
    if dist.rho0_variant == "one":
        a = min(a, _ALPHA_ONE_CAP)
        return KernelSpec((1.0 + 2.0 * a) / (2.0 - 2.0 * a), ((1.0, r),))
    if a == 0.0:
        # pure (1, rho, rho): s3 = 3/4 - int f^2/4 - F2(rho)/2
        return KernelSpec(0.5, ((1.0, r),))
    if a >= 1.0:
        return KernelSpec(0.0, ((1.0, dist.rho0),))
    w = (2.0 - 2.0 * a) / (3.0 * a)
    return KernelSpec((1.0 - a) / (3.0 * a), ((w, r), (1.0, dist.rho0)))


def completeness(dist: HardDistribution) -> float:
    """SDP value of the hard distribution; linear in the pairwise biases."""
    a, r = dist.alpha, dist.rho
    if dist.problem == "maxcut":
        return a * (1.0 - r) / 2.0
    if dist.rho0_variant == "one":
        return (1.0 - a) * (2.0 - 2.0 * r) / 4.0
    return a * (3.0 - 3.0 * dist.rho0) / 4.0 + (1.0 - a) * (2.0 - 2.0 * r) / 4.0


# ---------------------------------------------------------------------------
# kernel matrices on the equal-mass grid


def _odd_reduced(m: np.ndarray) -> np.ndarray:
    """R[i,l] = N (Mhat[i,l] - Mhat[i, N-1-l]) for i, l < N/2 (0-based).

    For odd f, sum_l N Mhat[i,l] f_l = sum_{l<N/2} R[i,l] f_l, and
    F_2[f](rho) = (2/N) f_half^T R f_half: one matrix serves both the
    linear system and the exact discrete noise stability.  Only the first
    N/2 rows of Mhat are read, so m may hold just those.
    """
    n = m.shape[1]
    half = n // 2
    return n * (m[:half, :half] - m[:half, ::-1][:, :half])


# K(rho) is the smallest K with |rho|^K <= _MEHLER_TAIL
_MEHLER_TAIL = 1e-17
_MEHLER_MAX_DEGREE = 1000  # K -> inf as |rho| -> 1; past it (|rho| > ~0.96) Owen's T serves

# n -> U with U[i, j] = int_{cell i} H_{2j+1} phi over the left-half cells,
# grown to more columns when a call needs them
_CELL_COEFFS: dict[int, np.ndarray] = {}


def _cell_coeffs(n: int, terms: int) -> np.ndarray:
    """The first ``terms`` odd-degree columns of the cell table of n cells."""
    u = _CELL_COEFFS.get(n)
    if u is None or u.shape[1] < terms:
        diff = hermite.cell_boundary_terms(equal_mass_edges(n)[: n // 2 + 1], 2 * terms - 1)
        u = diff[:, 0::2] / np.sqrt(np.arange(1, 2 * terms, 2))
        _CELL_COEFFS[n] = u
    return u[:, :terms]


# a solve reads at most two kernels (rho, rho0) and scans move from one rho to
# the next, so 8 entries keep every reuse (96 held 30 MB at N=400)
@lru_cache(maxsize=8)
def _reduced_kernel(n: int, rho_key: float) -> np.ndarray:
    """_odd_reduced of the cell-pair masses at correlation rho_key: the
    Mehler series R = 2N U diag(rho^k) U^T truncated at K(rho) (module
    docstring), or the Owen's-T lattice past _MEHLER_MAX_DEGREE."""
    degree = math.ceil(math.log(_MEHLER_TAIL) / math.log(abs(rho_key))) if rho_key else 0
    if rho_key == 0.0:
        out = np.zeros((n // 2, n // 2))
    elif degree > _MEHLER_MAX_DEGREE:
        e = equal_mass_edges(n)
        out = _odd_reduced(moments.rect_lattice(e[: n // 2 + 1], e, rho_key))
    else:
        u = _cell_coeffs(n, (degree + 1) // 2)
        k = np.arange(1, 2 * u.shape[1], 2)
        out = (2.0 * n * rho_key ** k * u) @ u.T
    out.setflags(write=False)  # the cache hands out this very array
    return out


def build_kernel_matrix(spec: KernelSpec, n: int) -> np.ndarray:
    """Full N x N matrix of weighted cell-pair masses sum_j w_j Mhat(rho_j)."""
    e = equal_mass_edges(n)
    out = np.zeros((n, n))
    for w, r in spec.terms:
        out += w * moments.rect_lattice(e, e, r)
    return out


def _combined_reduced(spec: KernelSpec, n: int) -> np.ndarray:
    """sum_j w_j R(rho_j); one term of weight 1 is the cached block itself."""
    (w, r), *rest = spec.terms
    out = _reduced_kernel(n, round(float(r), 14))
    if rest or w != 1.0:
        out = w * out
    for w, r in rest:
        out = out + w * _reduced_kernel(n, round(float(r), 14))
    return out


def _solve_half(R: np.ndarray, lam: float, i_a: int, n: int) -> np.ndarray:
    """Solve the odd-reduced clamped system; returns the full odd f (len n)."""
    half = n // 2
    f = np.empty(n)
    f[:i_a] = -1.0
    if i_a < half:
        sys = lam * R[i_a:half, i_a:half]
        sys.flat[:: half - i_a + 1] += 1.0
        g = lam * R[i_a:half, :i_a].sum(axis=1)
        f[i_a:half] = np.linalg.solve(sys, g)
    f[half:] = -f[:half][::-1]
    return f


# ---------------------------------------------------------------------------
# soundness


def _soundness_from(f2, dist: HardDistribution) -> float:
    """s_2 or s_3 on the hard distribution of a function with noise
    stability f2(rho); f2(1) = int f^2 phi is taken first."""
    a = dist.alpha
    f2_one = f2(1.0)
    f2_rho = f2(dist.rho)
    if dist.problem == "maxcut":
        return a * (1.0 - f2_rho) / 2.0 + (1.0 - a) * (1.0 - f2_one) / 2.0
    f2_rho0 = f2_one if dist.rho0_variant == "one" else f2(dist.rho0)
    return a * (3.0 - 3.0 * f2_rho0) / 4.0 + (1.0 - a) * (3.0 - f2_one - 2.0 * f2_rho) / 4.0


def _f2(fh: np.ndarray, f2_one: float, n: int, rho: float) -> float:
    """F_2(rho) of the odd f of n cells with left half fh and F_2(1) = f2_one."""
    if rho >= 1.0:
        return f2_one
    if rho <= -1.0:
        return -f2_one
    R = _reduced_kernel(n, round(float(rho), 14))
    return float(2.0 / n * (fh @ R @ fh))


def _soundness_values(f: np.ndarray, dist: HardDistribution, n: int) -> float:
    fh = f[: n // 2]
    f2_one = float(np.dot(f, f) / n)
    return _soundness_from(lambda rho: _f2(fh, f2_one, n, rho), dist)


def _zero_f2(rho: float) -> float:
    return 0.0  # every F_2 of f = 0 is +-0, which gives the same soundness bits


# a scan slice reads at most two correlations (rho, rho0), so 8 entries keep every reuse
@lru_cache(maxsize=8)
def _sign_f2(n: int, rho: float) -> float:
    """F_2 of the sign function of n cells; it depends on n and rho alone,
    so one value serves a whole rho-slice."""
    return _f2(_sign_values(n)[: n // 2], 1.0, n, rho)


def soundness(f, dist: HardDistribution) -> float:
    """Expected rounded value s_2 or s_3 of f on the hard distribution.

    GridFunctions are evaluated exactly in the discrete space (the same
    quadratic forms the solver optimizes); StepFunctions go through the
    analytic F_2 of the moments module.
    """
    if isinstance(f, GridFunction):
        return _soundness_values(np.asarray(f.values), dist, f.cells)
    return _soundness_from(lambda rho: moments.f2(f, rho), dist)


# ---------------------------------------------------------------------------
# the clamp search


def _sign_values(n: int) -> np.ndarray:
    f = np.ones(n)
    f[: n // 2] = -1.0
    return f


def _consistent_half(fh: np.ndarray, i_a: int) -> bool:
    """Whether the odd f with left half fh is consistent: its interior lies
    inside (-1, 1) and f is non-decreasing.  Each step of the right half
    equals a left-half step bit for bit and the middle step is -2 fh[-1],
    so the mirror adds nothing to check.  NaN fails every comparison."""
    vals = fh.tolist()
    for v in vals[i_a:]:
        if not -1.0 < v < 1.0:
            return False
    prev = vals[0]
    for v in vals:
        if not v - prev >= -1e-12:
            return False
        prev = v
    return -2.0 * prev >= -1e-12


def _interior_residual(f: np.ndarray, dist: HardDistribution, i_a: int, n: int) -> float:
    half = n // 2
    if not 0 < i_a < half:
        return 0.0  # the zero and sign functions, the only winners at the degenerate corners
    spec = kernel_spec(dist)
    r = f[:half] + 1.0 / spec.lambda1 * (_combined_reduced(spec, n) @ f[:half])
    return float(np.linalg.norm(r[i_a:half]))


def _best(cands, found: dict, n: int) -> tuple[int, np.ndarray, float]:
    """(i_a, f, soundness) of the highest-scoring (soundness, i_a) candidate,
    the first on ties; f is found[i_a], or built for i_a = 0 and N/2."""
    s, i_a = max(cands, key=lambda t: t[0])
    f = found.get(i_a)
    if f is None:
        f = np.zeros(n) if i_a == 0 else _sign_values(n)
    return i_a, f, float(s)


def _smallest_consistent_clamp(ok, half: int, hint: int | None) -> int:
    """Smallest i_a in [1, half] with ok(i_a).

    Too few clamps give unbounded or oscillating solutions, and ok(half)
    (the sign function) always holds; the search trusts ok to stay true
    once it holds (``TestClampSearch``).  From a hint in [1, half] it
    gallops, stepping 1, 2, 4, ... clamps away from the hint until the
    boundary is bracketed, then bisects the bracket: a hint d clamps off
    costs at most 2 ceil(log2(d + 1)) + 2 calls, the right one two.
    Without a hint it tries 1, then bisects [1, half].
    """
    if hint is not None and 1 <= hint <= half:
        step = 1
        if ok(hint):
            lo, hi = hint - 1, hint
            while lo >= 1 and ok(lo):
                hi, step = lo, 2 * step
                lo = hi - step
            lo = max(lo, 0)  # 0 stands for "not ok": the boundary is >= 1
        else:
            lo, hi = hint, hint + 1
            while hi < half and not ok(hi):
                lo, step = hi, 2 * step
                hi = lo + step
            hi = min(hi, half)
    elif ok(1):
        return 1
    else:
        lo, hi = 1, half
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _check_cells(n) -> None:
    if checked_int("the cell count", n, 2) % 2:
        raise DomainError(f"the solver needs an even cell count of at least 2, got {n!r}")


def _zero_and_sign(dist, n: int):
    """(soundness, i_a) of the zero and the sign function, the candidates
    _search scores in closed form.  ``dist`` may hold an array of alphas
    (_slice_bounds), each of which then gets the bits of its own point."""
    return ((_soundness_from(_zero_f2, dist), 0),
            (_soundness_from(lambda rho: _sign_f2(n, rho), dist), n // 2))


def _search(dist: HardDistribution, n: int, hint: int | None = None):
    """The clamp search of optimal_step_function, without the result object.

    Returns (i_a, f, soundness, i*): the winning clamp index, its full odd
    f, its soundness, and the smallest consistent clamp i*, which does not
    depend on the hint and is the hint for the next search (None at the
    degenerate corners).
    """
    half = n // 2
    zero, sign = _zero_and_sign(dist, n)
    spec = None
    if dist.rho > -1.0 and not (dist.problem == "maxcut" and dist.alpha == 0.0):
        spec = kernel_spec(dist)
    if spec is None or spec.lambda1 <= _TINY_LAMBDA1:
        # the degenerate corners: best of {sign, 0} by true soundness
        return _best([sign, zero], {}, n) + (None,)

    lam = 1.0 / spec.lambda1
    R = _combined_reduced(spec, n)
    # i_a -> its solution if consistent, else None; i_a = N/2 solves
    # nothing and gives the sign function, which is consistent
    found: dict[int, np.ndarray | None] = {}

    def ok(i_a: int) -> bool:
        if i_a not in found:
            try:
                f = _solve_half(R, lam, i_a, n)
                found[i_a] = f if _consistent_half(f[:half], i_a) else None
            except np.linalg.LinAlgError:
                found[i_a] = None
        return found[i_a] is not None

    i_star = _smallest_consistent_clamp(ok, half, hint)
    cands = [zero, sign]
    if i_star < half:
        cands.insert(1, (_soundness_values(found[i_star], dist, n), i_star))
    return _best(cands, found, n) + (i_star,)


def optimal_step_function(dist: HardDistribution, n: int = DEFAULT_N) -> FredholmSolution:
    """Best discrete rounding function for one hard distribution.

    The search locates the smallest clamp i* >= 1 whose solved interior is
    consistent (inside (-1, 1) and monotone): it tries i_a = 1 and bisects
    [1, N/2].  The candidates are the zero function (i_a = 0), i* and the
    fully clamped sign function, which is always consistent, and the
    highest-soundness one wins.  The consistent clamps between i* and N/2
    are left out: none scores above i* (``TestClampSearch``).
    """
    _check_cells(n)
    i_a, f, s, _ = _search(dist, n)
    return FredholmSolution(GridFunction(tuple(np.clip(f, -1.0, 1.0))), i_a,
                            _interior_residual(f, dist, i_a, n), s, completeness(dist))


# ---------------------------------------------------------------------------
# curve and ratio search


@dataclass(frozen=True)
class CurvePoint:
    problem: str
    alpha: float
    rho: float
    rho0_variant: str
    completeness: float
    soundness: float
    consistent: bool

    @property
    def ratio(self) -> float:
        return _ratio(self.soundness, self.completeness)


def _ratio(s, c):
    """The ratio s / c of soundness to completeness, infinite where c <= 1e-12;
    elementwise where c is an array."""
    if isinstance(c, np.ndarray):
        return np.divide(s, c, out=np.full(c.shape, math.inf), where=c > 1e-12)
    return s / c if c > 1e-12 else math.inf


def _variants(problem: str):
    return ("clamped", "one") if problem == "nae3" else ("clamped",)


def _walk(problem: str, alphas, rho: float, variant: str, n: int, skip=None):
    """(alpha index, distribution, soundness) of each point of the (rho,
    variant) slice in alpha order, each search hinted by the i* of the one
    before.  A point is passed over if skip(its index) holds as it comes up."""
    hint = None
    for i, alpha in enumerate(alphas):
        if skip is None or not skip(i):
            dist = HardDistribution(problem, alpha, rho, variant)
            _, _, s, hint = _search(dist, n, hint)
            yield i, dist, s


def _pool_map(fn, count: int, threads: int, tasks):
    """Yields fn(t) for t in tasks(w) in order, w = min(threads, count slices, CPUs):
    from w worker processes, about four chunks of tasks each, or here when w is 1."""
    workers = max(1, min(threads, count, os.cpu_count() or 1))
    todo = tasks(workers)
    if workers == 1:
        yield from map(fn, todo)
        return
    with ProcessPoolExecutor(max_workers=workers) as ex:
        yield from ex.map(fn, todo, chunksize=max(1, len(todo) // (4 * workers)))


def _scan_rho(args) -> list[CurvePoint]:
    problem, rho, alphas, n = args
    return [CurvePoint(problem, float(dist.alpha), rho, variant, completeness(dist), s, True)
            for variant in _variants(problem)
            for _, dist, s in _walk(problem, alphas, rho, variant, n)]


def curve(problem: str, alpha_grid, rho_grid, n: int = CURVE_N,
          threads: int = 1) -> list[CurvePoint]:
    """Solve every (alpha, rho, variant) grid point; raw tradeoff points.

    rho slices are independent and run in up to ``threads`` worker
    processes, at most one per slice and per CPU; results are merged in
    grid order either way.
    """
    alphas = np.asarray(alpha_grid, dtype=float)
    rhos = np.asarray(rho_grid, dtype=float)
    if not alphas.size or not rhos.size:
        raise DomainError("grids must be non-empty")
    _check_cells(n)
    checked_int("threads", threads, 1)
    tasks = [(problem, float(r), alphas, n) for r in rhos]
    return [p for pts in _pool_map(_scan_rho, len(tasks), threads, lambda w: tasks) for p in pts]


def lower_envelope(points) -> list[tuple[float, float]]:
    """Minimum soundness per completeness bucket of width 1/200, cleaned so
    soundness is non-decreasing in completeness (a valid integrality-curve shape)."""
    best: dict[int, tuple[float, float]] = {}
    for p in points:
        b = int(round(p.completeness * 200))
        if b not in best or p.soundness < best[b][1]:
            best[b] = (p.completeness, p.soundness)
    env = sorted(best.values())
    for i in range(len(env) - 2, -1, -1):
        if env[i][1] > env[i + 1][1]:
            env[i] = (env[i][0], env[i + 1][1])
    return env


@dataclass(frozen=True)
class RatioResult:
    problem: str
    ratio: float
    alpha: float
    rho: float
    rho0_variant: str
    n: int


def _slice_bounds(problem: str, alphas: np.ndarray, rhos: np.ndarray, n: int) -> np.ndarray:
    """max(zero, sign) / completeness, a lower bound on the ratio, at every
    grid point: one row per (rho, variant) slice in curve's order, one
    column per alpha."""
    variants = _variants(problem)
    out = np.empty((len(rhos) * len(variants), len(alphas)))
    for k, (rho, variant) in enumerate((float(r), v) for r in rhos for v in variants):
        d = HardDistribution(problem, 0.0, rho, variant)
        view = SimpleNamespace(problem=problem, alpha=alphas, rho=rho, rho0_variant=variant,
                               rho0=d.rho0 if problem == "nae3" else None)
        (zero, _), (sign, _) = _zero_and_sign(view, n)
        out[k] = _ratio(np.maximum(zero, sign), completeness(view))
    return out


def _pruned_scan(args):
    """The least (ratio, slice, alpha index) of ``best`` and of the given
    (slice, bounds row) pairs, searched in order.  A point whose bound
    exceeds the running minimum is skipped, and so is every slice from the
    first whose smallest bound does; a bound equal to it may tie."""
    problem, alphas, rhos, n, slices, best = args
    variants = _variants(problem)
    for k, bounds in slices:
        if bounds.min() > best[0]:
            break
        rho, variant = float(rhos[k // len(variants)]), variants[k % len(variants)]
        for i, dist, s in _walk(problem, alphas, rho, variant, n, lambda i: bounds[i] > best[0]):
            best = min(best, (_ratio(s, completeness(dist)), k, i))
    return best


def _coarse_minimum(problem: str, alphas: np.ndarray, rhos: np.ndarray, n: int,
                    threads: int) -> tuple[float, int, int]:
    """(ratio, slice, alpha index) of min(curve(...), key=ratio), the first
    in curve's order on ties, visiting slices in ascending order of their
    smallest bound.  The first slice is scanned here and the slices its
    minimum leaves are dealt to up to ``threads`` worker processes, at most
    one per slice and per CPU, each with its own running minimum."""
    bounds = _slice_bounds(problem, alphas, rhos, n)
    slices = [(int(k), bounds[k]) for k in np.argsort(bounds.min(axis=1), kind="stable")]
    best = _pruned_scan((problem, alphas, rhos, n, slices[:1], (math.inf, math.inf, math.inf)))
    rest = [sl for sl in slices[1:] if sl[1].min() <= best[0]]
    return min(_pool_map(_pruned_scan, len(rest), threads, lambda w: [
        (problem, alphas, rhos, n, rest[i::w], best) for i in range(w)]))


def approx_ratio(problem: str, grid: int = 500, rounds: int = 3,
                 n: int = DEFAULT_N, coarse_n: int = CURVE_N,
                 threads: int = 1) -> RatioResult:
    """Worst-case soundness/completeness over the hard distributions.

    Phase 1 finds the point of least ratio on a grid x grid lattice of
    (alpha, rho) for every variant at the coarse cell count, the first in
    curve's order on ties, searching only the points whose bound
    max(zero, sign) / completeness does not exceed the running minimum
    (_coarse_minimum).  It keeps curve's bits: a skipped point's ratio is
    at least its bound, so it can neither be the minimum nor tie it, and a
    searched point gets the same i* whatever its hint, because consistency
    is monotone in i_a (``TestClampSearch``).  Phase 2 runs ``rounds``
    alternating golden-section passes per axis at the full cell count
    around the coarse minimizer, each search hinted by the one before.
    """
    checked_int("grid (points per axis)", grid, 2)
    checked_int("rounds", rounds, 0)
    _check_cells(n)
    _check_cells(coarse_n)
    checked_int("threads", threads, 1)
    alphas = np.linspace(0.0, 1.0, grid)
    rhos = np.linspace(-1.0, 0.0, grid)
    _, k, i = _coarse_minimum(problem, alphas, rhos, coarse_n, threads)
    variants = _variants(problem)
    a_star, r_star = float(alphas[i]), float(rhos[k // len(variants)])
    variant = variants[k % len(variants)]
    hint = None

    def ratio_at(a, r):
        """The ratio at (a, r), clamped into the domain."""
        nonlocal hint
        dist = HardDistribution(problem, min(max(a, 0.0), 1.0), min(max(r, -1.0), 0.0), variant)
        _, _, s, hint = _search(dist, n, hint)
        return _ratio(s, completeness(dist))

    ha = hr = max(0.01, 2.0 / (grid - 1))
    for _ in range(rounds):
        a_star = golden_section_min(lambda a: ratio_at(a, r_star),
                                    max(0.0, a_star - ha), min(1.0, a_star + ha), 18)
        r_star = golden_section_min(lambda r: ratio_at(a_star, r),
                                    max(-1.0, r_star - hr), min(0.0, r_star + hr), 18)
        ha /= 3.0
        hr /= 3.0
    ratio = ratio_at(a_star, r_star)
    return RatioResult(problem, float(ratio), float(a_star), float(r_star), variant, n)


# ---------------------------------------------------------------------------
# diagnostics


@dataclass(frozen=True)
class SLinearFit:
    slope: float
    max_deviation: float
    rms_deviation: float
    interior_cells: int


def slinear_fit(f: GridFunction) -> SLinearFit:
    """Least-squares slope of the interior against cell Gaussian centroids.

    The interior is the set of cells with |f_i| < 1.  Reports the sup and
    rms of f - clamp(s x) over those cells; raises if every cell is
    clamped (slope undefined).
    """
    v = np.asarray(f.values)
    interior = np.abs(v) < 1.0
    if not np.any(interior):
        raise DomainError("no interior cells: slope undefined")
    x, y = f.centroids()[interior], v[interior]
    slope = float(np.dot(x, y) / np.dot(x, x))
    dev = y - np.clip(slope * x, -1.0, 1.0)
    return SLinearFit(slope, float(np.max(np.abs(dev))),
                      float(np.sqrt(np.mean(dev * dev))), int(interior.sum()))
