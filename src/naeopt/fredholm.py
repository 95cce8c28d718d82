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
function (i_a = N/2) are the other two candidates.  Grid scans take the
winner's index, soundness and completeness straight from the search and
build no GridFunction per point.

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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import GridFunction, HardDistribution, equal_mass_edges, golden_section_min
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
    if rho_key == 0.0:
        return np.zeros((n // 2, n // 2))
    degree = math.ceil(math.log(_MEHLER_TAIL) / math.log(abs(rho_key)))
    if degree > _MEHLER_MAX_DEGREE:
        e = equal_mass_edges(n)
        return _odd_reduced(moments.rect_lattice(e[: n // 2 + 1], e, rho_key))
    u = _cell_coeffs(n, (degree + 1) // 2)
    k = np.arange(1, 2 * u.shape[1], 2)
    return (2.0 * n * rho_key ** k * u) @ u.T


def build_kernel_matrix(spec: KernelSpec, n: int) -> np.ndarray:
    """Full N x N matrix of weighted cell-pair masses sum_j w_j Mhat(rho_j)."""
    e = equal_mass_edges(n)
    out = np.zeros((n, n))
    for w, r in spec.terms:
        out += w * moments.rect_lattice(e, e, r)
    return out


def _combined_reduced(spec: KernelSpec, n: int) -> np.ndarray:
    out = None
    for w, r in spec.terms:
        block = _reduced_kernel(n, round(float(r), 14))
        out = w * block if out is None else out + w * block
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


def _soundness_values(f: np.ndarray, dist: HardDistribution, n: int) -> float:
    fh = f[: n // 2]
    f2_one = float(np.dot(f, f) / n)

    def f2(rho: float) -> float:
        if rho >= 1.0:
            return f2_one
        if rho <= -1.0:
            return -f2_one
        R = _reduced_kernel(n, round(float(rho), 14))
        return float(2.0 / n * (fh @ R @ fh))

    return _soundness_from(f2, dist)


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
    so the mirror adds nothing to check."""
    interior = fh[i_a:]
    if interior.size and not float(np.max(np.abs(interior))) < 1.0:
        return False
    return -2.0 * fh[-1] >= -1e-12 and bool(np.all(np.diff(fh) >= -1e-12))


def _interior_residual(f: np.ndarray, R: np.ndarray, lam: float, i_a: int, n: int) -> float:
    half = n // 2
    if i_a >= half or not np.isfinite(lam):
        return 0.0
    r = f[:half] + lam * (R @ f[:half])
    return float(np.linalg.norm(r[i_a:half]))


def _best(cands, dist: HardDistribution, n: int) -> tuple[int, np.ndarray, float]:
    """(i_a, f, soundness) of the highest-soundness candidate; the first on ties."""
    s, i_a, f = max(((_soundness_values(f, dist, n), i_a, f) for i_a, f in cands),
                    key=lambda t: t[0])
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


def _search(dist: HardDistribution, n: int, hint: int | None = None):
    """The clamp search of optimal_step_function, without the result object.

    Returns (i_a, f, soundness, R, lam): the winning clamp index, its full
    odd f, its soundness, and the reduced kernel and lam of the system it
    solves (None and inf at the degenerate corners).
    """
    if n % 2:
        raise DomainError("the solver needs an even cell count")
    half = n // 2
    spec = None
    if dist.rho > -1.0 and not (dist.problem == "maxcut" and dist.alpha == 0.0):
        spec = kernel_spec(dist)
    if spec is None or spec.lambda1 <= _TINY_LAMBDA1:
        # the degenerate corners: best of {sign, 0} by true soundness
        return _best([(half, _sign_values(n)), (0, np.zeros(n))], dist, n) + (None, math.inf)

    lam = 1.0 / spec.lambda1
    R = _combined_reduced(spec, n)
    # i_a -> its solution if consistent, else None
    found: dict[int, np.ndarray | None] = {half: _sign_values(n)}

    def ok(i_a: int) -> bool:
        if i_a not in found:
            try:
                f = _solve_half(R, lam, i_a, n)
                found[i_a] = f if _consistent_half(f[:half], i_a) else None
            except np.linalg.LinAlgError:
                found[i_a] = None
        return found[i_a] is not None

    i_star = _smallest_consistent_clamp(ok, half, hint)
    cands = [(0, np.zeros(n))] + [(i_a, found[i_a]) for i_a in sorted({i_star, half})]
    return _best(cands, dist, n) + (R, lam)


def optimal_step_function(dist: HardDistribution, n: int = DEFAULT_N,
                          hint: int | None = None) -> FredholmSolution:
    """Best discrete rounding function for one hard distribution.

    The search locates the smallest clamp i* >= 1 whose solved interior is
    consistent (inside (-1, 1) and monotone): from ``hint``, a guess such
    as the clamp of a neighbouring grid point, it gallops 1, 2, 4, ...
    clamps away until i* is bracketed and bisects the bracket; without one
    it tries i_a = 1 and bisects [1, N/2].  The candidates are the zero
    function (i_a = 0), i* and the fully clamped sign function, which is
    always consistent, and the highest-soundness one wins.  The consistent
    clamps between i* and N/2 are left out: none scores above i*
    (``TestClampSearch``).
    """
    i_a, f, s, R, lam = _search(dist, n, hint)
    return FredholmSolution(GridFunction(tuple(np.clip(f, -1.0, 1.0))), i_a,
                            _interior_residual(f, R, lam, i_a, n), s, completeness(dist))


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
        return self.soundness / self.completeness if self.completeness > 1e-12 else math.inf


def _variants(problem: str):
    return ("clamped", "one") if problem == "nae3" else ("clamped",)


def _scan_rho(args) -> list[CurvePoint]:
    problem, rho, alphas, n = args
    pts = []
    for variant in _variants(problem):
        hint = None
        for alpha in alphas:
            dist = HardDistribution(problem, alpha, rho, variant)
            i_a, _, s, _, _ = _search(dist, n, hint)
            hint = i_a if 1 <= i_a < n // 2 else None
            pts.append(CurvePoint(problem, float(alpha), float(rho), variant,
                                  completeness(dist), s, True))
    return pts


def curve(problem: str, alpha_grid, rho_grid, n: int = CURVE_N,
          threads: int = 1) -> list[CurvePoint]:
    """Solve every (alpha, rho, variant) grid point; raw tradeoff points.

    rho slices are independent and can run in parallel worker processes;
    results are merged in grid order either way.
    """
    alphas = np.asarray(alpha_grid, dtype=float)
    rhos = np.asarray(rho_grid, dtype=float)
    if not alphas.size or not rhos.size:
        raise DomainError("grids must be non-empty")
    tasks = [(problem, float(r), alphas, n) for r in rhos]
    pts: list[CurvePoint] = []
    if threads > 1:
        with ProcessPoolExecutor(max_workers=threads) as ex:
            for chunk in ex.map(_scan_rho, tasks,
                                chunksize=max(1, len(tasks) // (4 * threads))):
                pts.extend(chunk)
    else:
        for t in tasks:
            pts.extend(_scan_rho(t))
    return pts


def lower_envelope(points, buckets: int = 200) -> list[tuple[float, float]]:
    """Minimum soundness per completeness bucket, cleaned so soundness is
    non-decreasing in completeness (a valid integrality-curve shape)."""
    best: dict[int, tuple[float, float]] = {}
    for p in points:
        b = int(round(p.completeness * buckets))
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


def _ratio_at(problem: str, alpha: float, rho: float, variant: str, n: int) -> float:
    alpha = min(max(alpha, 0.0), 1.0)
    rho = min(max(rho, -1.0), 0.0)
    sol = optimal_step_function(HardDistribution(problem, alpha, rho, variant), n)
    if sol.completeness <= 1e-9:
        return math.inf
    return sol.soundness / sol.completeness


def approx_ratio(problem: str, grid: int = 500, rounds: int = 3,
                 n: int = DEFAULT_N, coarse_n: int = CURVE_N,
                 threads: int = 1) -> RatioResult:
    """Worst-case soundness/completeness over the hard distributions.

    Phase 1 scans a grid x grid lattice of (alpha, rho) for every variant
    at the coarse cell count; phase 2 runs ``rounds`` alternating
    golden-section passes per axis at the full cell count around the
    coarse minimizer.
    """
    if grid < 2:
        raise DomainError("the coarse grid needs at least 2 points per axis")
    alphas = np.linspace(0.0, 1.0, grid)
    rhos = np.linspace(-1.0, 0.0, grid)
    pts = curve(problem, alphas, rhos, coarse_n, threads=threads)
    best = min(pts, key=lambda p: p.ratio)
    a_star, r_star, variant = best.alpha, best.rho, best.rho0_variant

    ha = hr = max(0.01, 2.0 / (grid - 1))
    for _ in range(rounds):
        a_star = golden_section_min(lambda a: _ratio_at(problem, a, r_star, variant, n),
                                    max(0.0, a_star - ha), min(1.0, a_star + ha), 18)
        r_star = golden_section_min(lambda r: _ratio_at(problem, a_star, r, variant, n),
                                    max(-1.0, r_star - hr), min(0.0, r_star + hr), 18)
        ha /= 3.0
        hr /= 3.0
    ratio = _ratio_at(problem, a_star, r_star, variant, n)
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
