"""Moment functions of RPR2 rounding rules.

For a rounding function f and unit vectors v_1..v_k with pairwise inner
products b_ij, the k-wise moment F_k[f](b_12, ...) is E[X_1 ... X_k] where
X_i are the +-1 outputs of the randomized rounding.  The workhorse facts:

* F_2[f](rho) is the Gaussian noise stability of f at correlation rho;
  for odd f it is odd, non-decreasing, and convex on [0, 1].
* When all pairwise biases equal rho >= 0, the 2l-wise moment collapses to
  a one-dimensional integral  F_2l(rho) = int (U_sqrt(rho) f)^(2l) phi,
  where U_eta is the Ornstein-Uhlenbeck noise operator.
* The satisfaction probability of an NAE_k clause on a symmetric
  configuration is p_f(k, rho) = (2^(k-1) - 1 - sum_{i even} C(k,i) F_i(rho)) / 2^(k-1).

Exact bivariate rectangle probabilities are computed from Owen's T
function, which keeps absolute error near machine precision uniformly in
rho; Monte Carlo estimators serve as the oracle for moments with no
analytic route (general Gram matrices, 4-wise and higher).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import ndtr, owens_t

from .core import (GramConfig, StepFunction, checked_seed, gaussian_pdf, step_cells,
                   validate_gram)
from .errors import DomainError

_TAIL = 10.0  # Gaussian mass beyond |x| = 10 is < 1.6e-23, below every tolerance

# |rho| up to this is a correlation, past 1 only by rounding: np.arange(-1, 1
# + 1e-12, 0.02) ends at 1 + 1.8e-15; such a rho is taken as +-1
_RHO_BOUND = 1.0 + 1e-12

# Monte Carlo draws are made _MOMENT_CHUNK rows at a time, which bounds the
# working memory of one call and changes no bit: Generator normals fill in
# sequence, so the chunks read the stream of one whole draw.  The summation
# batch is what fixes moment_mc's bits: _mc_estimate adds up the float values
# one batch at a time, so another batch size rounds differently.  The witness
# sums +-1 values exactly, so its batch changes no bit either and is one chunk
_MOMENT_CHUNK = 1 << 16
_MOMENT_MC_BATCH = 10**6
_WITNESS_BATCH = _MOMENT_CHUNK


@dataclass(frozen=True)
class MomentEstimate:
    """A moment value with its Monte Carlo standard error (0 when exact) and
    how many of its samples were determined (drawn rather than counted 0)."""

    value: float
    std_error: float
    samples: int
    determined: int = 0

    def __post_init__(self):
        if self.std_error < 0:
            raise DomainError("std_error must be nonnegative")


# ---------------------------------------------------------------------------
# bivariate normal rectangles


def _finite_span(e: np.ndarray):
    """Bounds of the finite entries of ascending edges e, and the slice of
    the zeros among them; for a stack of edge rows, those of the first row."""
    e = e[(0,) * (e.ndim - 1)]
    lo, zeros_end = np.searchsorted(e, (-np.inf, 0.0), "right")
    zeros_start, hi = np.searchsorted(e, (0.0, np.inf))
    return lo, hi, slice(zeros_start - lo, zeros_end - lo)


def binormal_rect(rho: float, x_lo, x_hi, y_lo, y_hi) -> float:
    """P[(X, Y) in [x_lo,x_hi] x [y_lo,y_hi]] at correlation rho.

    Bounds may be +-inf.  |rho| = 1 collapses to one dimension and is
    evaluated exactly.
    """
    if not abs(rho) <= _RHO_BOUND:
        raise DomainError("rho must lie in [-1, 1]")
    if not (x_lo <= x_hi and y_lo <= y_hi):  # NaN bounds fail too
        raise DomainError("need x_lo <= x_hi and y_lo <= y_hi")
    if abs(rho) >= 1.0:  # Y = X or Y = -X
        y_lo, y_hi = (y_lo, y_hi) if rho > 0 else (-y_hi, -y_lo)
        return float(max(0.0, ndtr(min(x_hi, y_hi)) - ndtr(max(x_lo, y_lo))))
    return float(rect_lattice(np.array([x_lo, x_hi]), np.array([y_lo, y_hi]), rho)[0, 0])


def rect_lattice(edges_x: np.ndarray, edges_y: np.ndarray, rho: float) -> np.ndarray:
    """Matrix of cell-pair probabilities for the partitions given by edges.

    Entry (i, j) is P[(X,Y) in cell_i x cell_j], the second difference of
    the CDF lattice Phi2(h, k) = P(X <= h, Y <= k) at the ascending edges
    h, k (repeats and +-inf allowed), so an (n x m) table costs (n+1)(m+1)
    CDF values.  On the finite block, Owen (1956):
    Phi2(h,k) = (Phi(h)+Phi(k))/2 - T(h,a_h) - T(k,a_k) - delta with
    a_h = (k - rho h)/(h sqrt(1-rho^2)) and delta = 1/2 iff hk < 0; the rows
    and columns at 0 take the closed form
    Phi2(0,k) = Phi(k)/2 - T(k, -rho/sqrt(1-rho^2)); those at -inf are 0 and
    those at +inf are Phi of the other edge.  When edges_x is edges_y,
    a_k[i,j] is the expression a_h[j,i], so one T matrix serves both terms.
    The absolute error grows as rho -> 1, to 9.5e-10 at rho = 1 - 1e-15;
    f2l_symmetric is the accurate route there.  Below |rho| = 1 this is
    _lattice's edge setup followed by its per-rho evaluation; f2 keeps the
    setup of each step function and runs only the evaluation.
    """
    if not abs(rho) <= _RHO_BOUND:
        raise DomainError("rho must lie in [-1, 1]")
    if abs(rho) >= 1.0:  # degenerate: Y = rho*X exactly
        return np.array([[binormal_rect(rho, x_lo, x_hi, y_lo, y_hi)
                          for y_lo, y_hi in zip(edges_y[:-1], edges_y[1:])]
                         for x_lo, x_hi in zip(edges_x[:-1], edges_x[1:])])
    return _lattice(edges_x, edges_y)(rho)


def _lattice(edges_x: np.ndarray, edges_y: np.ndarray):
    """rect_lattice in two parts.  This call does what depends on the edges
    alone: where the finite block and its zeros lie, Phi of the
    edges, (Phi(h)+Phi(k))/2, 1/2 [hk < 0], and the CDF table's rows and
    columns at +-inf.  The function it returns does the rest for one
    |rho| < 1: the Owen's-T matrix, the rows and columns at 0 (one T call
    when edges_x is edges_y), the clip, the second difference and the clamp
    at 0.

    The edges may carry leading stack axes, (..., n) and (..., m), with
    their infinities and zeros in the same places in every row, as the cells
    of step functions with one breakpoint count have; the masses are then
    (..., n-1, m-1), one lattice per row, from one T call over the whole
    stack.  Each entry is the same operation on the same operands as in a
    lattice of its row alone, so every row keeps its bits."""
    same = edges_x is edges_y
    xlo, xhi, xzero = _finite_span(edges_x)
    ylo, yhi, yzero = (xlo, xhi, xzero) if same else _finite_span(edges_y)
    h, k = edges_x[..., xlo:xhi], edges_y[..., ylo:yhi]
    nh = ndtr(h)
    nk = nh if same else ndtr(k)
    H, K = h[..., :, None], k[..., None, :]
    half_sum = 0.5 * (nh[..., :, None] + nk[..., None, :])
    half_neg = 0.5 * (H * K < 0.0)
    half_nh = 0.5 * nh
    half_nk = half_nh if same else 0.5 * nk
    # Phi in [0, 1] needs no clip
    table = np.zeros(edges_x.shape + edges_y.shape[-1:])
    table[..., xhi:, ylo:yhi] = nk[..., None, :]
    table[..., xlo:xhi, yhi:] = nh[..., :, None]
    table[..., xhi:, yhi:] = 1.0

    def masses(rho: float) -> np.ndarray:
        # math.sqrt rounds as np.sqrt does, without a ufunc call on a scalar
        root = math.sqrt((1.0 - rho) * (1.0 + rho))
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            th = owens_t(H, (K - rho * H) / (H * root))
            tk = th.swapaxes(-1, -2) if same else owens_t(K, (H - rho * K) / (K * root))
            fin = half_sum - th - tk - half_neg
        a0 = -rho / root
        col = half_nh - owens_t(h, a0)
        fin[..., xzero, :] = (col if same else half_nk - owens_t(k, a0))[..., None, :]
        fin[..., :, yzero] = col[..., :, None]
        F = table.copy()
        np.clip(fin, 0.0, 1.0, out=F[..., xlo:xhi, ylo:yhi])
        M = F[..., 1:, 1:] - F[..., :-1, 1:] - F[..., 1:, :-1] + F[..., :-1, :-1]
        np.maximum(M, 0.0, out=M)
        return M

    return masses


# ---------------------------------------------------------------------------
# noise operator and exact F_2


def noise_operator(f: StepFunction, eta: float, x):
    """(U_eta f)(x) = E[f(eta x + sqrt(1-eta^2) Z)], closed form for steps.

    Each step contributes b_i times a difference of four normal CDFs; the
    result is bounded by max |b_i| and reduces to f itself at eta = 1 and
    to the mean (0 for odd f) at eta = 0.
    """
    if not 0.0 <= eta <= 1.0:
        raise DomainError("eta must lie in [0, 1]")
    x = np.asarray(x, dtype=float)
    if eta == 1.0:
        out = np.asarray(f(x))
    else:
        out = _noise_sum(*f.arrays(), eta, np.sqrt((1.0 - eta) * (1.0 + eta)), x)
    return float(out) if out.ndim == 0 else out


def _noise_sum(a: np.ndarray, b: np.ndarray, eta: float, s: float, x: np.ndarray) -> np.ndarray:
    """U_eta f at x given s = sqrt(1 - eta^2), for 0 <= eta < 1, for every
    step function f of a stack: breakpoints a (..., l) and values b
    (..., l+1).  The result has the stack's leading axes followed by those
    of x, and takes one ndtr call per edge term for the whole stack.

    A term whose value is 0 in every row is skipped.  In a stack, a row's
    zero value still adds its term, which is +-0: the total starts at +0.0
    and so is never -0.0, and adding +-0 to it changes no bit."""
    # breakpoint or value i of every row, as a column against x
    lift = (...,) + (None,) * x.ndim
    at, bt = np.moveaxis(a, -1, 0)[lift], np.moveaxis(b, -1, 0)[lift]
    ex = eta * x
    # Phi((t - eta x)/s) at t = a_i and t = -a_i, with a_0 = 0 and the last
    # a = inf, once per distinct edge
    up = [ndtr((t - ex) / s) for t in (0.0, *at)] + [1.0]
    down = up[:1] + [ndtr((-t - ex) / s) for t in at] + [0.0]
    tot = np.zeros(a.shape[:-1] + x.shape)
    for i, bi in enumerate(bt):
        if not bi.any():
            continue
        tot += bi * (up[i + 1] - up[i] - down[i] + down[i + 1])
    return tot


def f2(f: StepFunction, rho: float) -> float:
    """Noise stability E[f(X) f(Y)] for rho-correlated standard Gaussians.

    Computed as a signed double sum of exact rectangle probabilities over
    the step cells; rho = +-1 short-circuits to +-int f^2 phi.  The
    lattice's edge setup is cached per breakpoint tuple (_step_lattice), so
    a function read at many rho pays it once, with the bits of rect_lattice.
    """
    if not abs(rho) < 1.0:  # +-1, or outside [-1, 1], which _f2_stack rejects
        return float(_f2_stack(*f.arrays(), rho))
    M = _step_lattice(f.breakpoints)(rho)
    vals = f.cells()[1]
    return float(vals @ M @ vals)


def _f2_stack(a: np.ndarray, b: np.ndarray, rho: float) -> np.ndarray:
    """F_2 at rho of every step function of a stack (breakpoints a (..., l),
    values b (..., l+1)): one _lattice for the whole stack, then each row's
    vals @ M @ vals on its own, which keeps f2's bits."""
    if not abs(rho) <= _RHO_BOUND:
        raise DomainError("rho must lie in [-1, 1]")
    if abs(rho) >= 1.0:
        total = _symmetric_integral(a, b, 1.0, np.square)
        return total if rho > 0 else -total
    edges, vals = step_cells(a, b)
    M = _lattice(edges, edges)(rho)
    out = np.empty(a.shape[:-1])
    for i in np.ndindex(out.shape):
        out[i] = vals[i] @ M[i] @ vals[i]
    return out


# property checks and F_2 curves read one function at many rho in a row, and a
# step search reads each new function at a few; a setup is a few small arrays
@lru_cache(maxsize=256)
def _step_lattice(breakpoints: tuple[float, ...]):
    """The rho -> cell-pair masses function of _lattice for the cells of every
    step function with these breakpoints.  The key is the breakpoints, not
    the function: step functions whose values differ only in the sign of a
    zero are equal, and f2 reads each function's own values."""
    a = np.array(breakpoints, dtype=float)
    edges = step_cells(a, np.zeros(len(a) + 1))[0]
    return _lattice(edges, edges)


# ---------------------------------------------------------------------------
# Gauss-Legendre panels (deterministic, vectorizable quadrature)

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(40)


def _panel_grid(edges: np.ndarray):
    """Nodes and weights of a 40-point Gauss-Legendre rule on each panel."""
    mid = (edges[:-1] + edges[1:]) / 2.0
    half = (edges[1:] - edges[:-1]) / 2.0
    xs = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
    ws = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()
    return xs, ws


_QEDGES = np.linspace(-_TAIL, _TAIL, 25)
_QX, _QW = _panel_grid(_QEDGES)
_QPHI = gaussian_pdf(_QX)

# U_eta f passes from one step value to the next over a width
# sqrt(1-eta^2)/eta around 0 and each +-a_i/eta.  The fixed panels integrate
# that to ~1e-15 while it is at least a tenth of a panel (rho below ~0.993);
# narrower, the panels are split at these multiples of the width around
# every transition.
_RESOLVED_WIDTH = (_QEDGES[1] - _QEDGES[0]) / 10.0
_TRANSITION_OFFSETS = np.array([-8.0, -4.0, -2.0, -1.0, 0.0, 1.0, 2.0, 4.0, 8.0])


def _symmetric_integral(a: np.ndarray, b: np.ndarray, rho: float, g) -> np.ndarray:
    """int g(U_sqrt(rho) f) phi dx for 0 < rho <= 1 and an even function g,
    for every step function f of a stack: breakpoints a (..., l) and values
    b (..., l+1), one result per row.

    At rho = 1, U_1 f = f is piecewise constant and the integral is the
    exact cell-mass sum.  Below rho ~ 0.993 the fixed panels _QX serve:
    the stack is one (..., 960) noise sum, and each row's weighted sum
    reduces its own 960 contiguous values, with the bits of a stack of one.
    Closer to 1 the panels are split at the transitions of U f, which
    differ by function, so that branch runs row by row.  Measured for
    g(u) = u^2 on random step functions, the result is within 1e-15 of
    adaptive quadrature at every rho tried from 0.99 to 1 - 1e-15, and
    within 2e-14 of the Owen's-T route f2 at rho = 0.995, 0.999, 0.9999.
    """
    if not 0.0 < rho <= 1.0:
        raise DomainError("rho must lie in (0, 1]")
    out = np.empty(a.shape[:-1])
    if rho == 1.0:
        edges, vals = step_cells(a, b)
        mass, gv = np.diff(ndtr(edges), axis=-1), g(vals)
        for i in np.ndindex(out.shape):
            out[i] = np.dot(mass[i], gv[i])
        return out
    eta = float(np.sqrt(rho))
    s = float(np.sqrt(1.0 - rho))
    if s / eta >= _RESOLVED_WIDTH:
        # noise_operator's s, which the fixed panels have always used
        u = _noise_sum(a, b, eta, np.sqrt((1.0 - eta) * (1.0 + eta)), _QX)
        return np.sum(_QW * _QPHI * g(u), axis=-1)
    for i in np.ndindex(out.shape):
        # U f steps at 0 (f is odd) and at every +-a_i.  s comes from 1 - rho,
        # which is exact; 1 - eta^2 is off by up to 10% at rho = 1 - 1e-15
        centers = np.concatenate([[0.0], a[i]]) / eta
        splits = (centers[:, None] + (s / eta) * _TRANSITION_OFFSETS[None, :]).ravel()
        edges = np.unique(np.concatenate([_QEDGES, splits, -splits]))
        xs, ws = _panel_grid(edges[np.abs(edges) <= _TAIL])
        u = _noise_sum(a[i], b[i], eta, s, xs)
        out[i] = np.sum(ws * gaussian_pdf(xs) * g(u))
    return out


def f2l_symmetric(f: StepFunction, rho: float, ell: int) -> float:
    """F_2l(rho, ..., rho) = int (U_sqrt(rho) f)^(2l) phi dx for 0 <= rho <= 1.

    The common-component decomposition behind this identity requires a
    nonnegative correlation; negative-rho moments beyond F_2 have no
    one-dimensional form and belong to moment_mc.  Exact at rho = 1 (the
    cell-mass sum of f^(2l)); below 1, accurate to ~1e-15 for every rho,
    1 - 1e-15 included (see _symmetric_integral).
    """
    if rho < 0.0:
        raise DomainError("f2l_symmetric needs rho >= 0; use moment_mc for rho < 0")
    if ell < 1:
        raise DomainError("ell must be a positive integer")
    if rho == 0.0:
        return 0.0
    return float(_symmetric_integral(*f.arrays(), rho, lambda u: u ** (2 * ell)))


def sat_prob_symmetric(f: StepFunction, k: int, rho: float) -> float:
    """P[NAE_k satisfied] on the symmetric configuration with all biases rho.

    For k <= 3 only F_2 enters, and the exact two-dimensional route serves
    every rho in [-1, 1].  For 4 <= k < 1024 and rho > 0 evaluates
    1 - 2^-k int ((1+u)^k + (1-u)^k) phi with u = U_sqrt(rho) f: exactly at
    rho = 1 (a cell-mass sum) and to ~1e-15 below (see _symmetric_integral).
    """
    return float(_sat_probs(*f.arrays(), k, rho))


def sat_probs_symmetric(fs, k: int, rho: float) -> np.ndarray:
    """sat_prob_symmetric(f, k, rho) for every f of the nonempty sequence
    ``fs``, whose functions share one breakpoint count.  The F_2 lattice
    (k <= 3) or the fixed-panel quadrature runs once for the whole stack,
    and each entry has the bits of the single call."""
    counts = {len(f.breakpoints) for f in fs}
    if len(counts) != 1:
        raise DomainError("need a nonempty stack of step functions with one breakpoint count")
    return _sat_probs(np.array([f.breakpoints for f in fs], dtype=float),
                      np.array([f.values for f in fs], dtype=float), k, rho)


def _sat_probs(a: np.ndarray, b: np.ndarray, k: int, rho: float) -> np.ndarray:
    """sat_prob_symmetric of every step function of a stack (breakpoints a
    (..., l), values b (..., l+1))."""
    if not isinstance(k, numbers.Integral) or k < 2:
        raise DomainError(f"NAE clauses need an integer k >= 2, got {k!r}")
    if rho == 0.0:
        # independent projections: every F_i (i >= 1) of an odd f vanishes
        return np.full(a.shape[:-1], 1.0 - 2.0 ** (1 - k))
    if k == 2:
        return (1.0 - _f2_stack(a, b, rho)) / 2.0
    if k == 3:
        return (3.0 - 3.0 * _f2_stack(a, b, rho)) / 4.0
    if rho < 0.0:
        raise DomainError("rho < 0 with k >= 4 has no 1-d form; use moment_mc")
    if k >= 1024:
        raise DomainError(f"k = {k} >= 1024 overflows the symmetric integrand")
    integral = _symmetric_integral(a, b, rho, lambda u: (1.0 + u) ** k + (1.0 - u) ** k)
    return 1.0 - 2.0 ** (-k) * integral


# ---------------------------------------------------------------------------
# Monte Carlo moments


def _mc_estimate(draw, samples: int, batch: int) -> MomentEstimate:
    """Mean and standard error of ``samples`` draws taken ``batch`` at a time;
    ``draw(m)`` makes m draws and returns their values, where a draw it
    leaves out counts as 0."""
    if samples < 2:
        raise DomainError("a moment estimate and its standard error need at least 2 samples")
    total = 0.0
    total_sq = 0.0
    done = determined = 0
    while done < samples:
        m = min(batch, samples - done)
        x = draw(m)
        total += float(x.sum())
        # einsum, not np.dot: BLAS splits a long dot across its threads, which
        # rounds differently with their count, and x * x would copy the batch
        total_sq += float(np.einsum("i,i->", x, x))
        done += m
        determined += x.size
    mean = total / samples
    var = max(0.0, total_sq / samples - mean * mean)
    return MomentEstimate(mean, float(np.sqrt(var / samples)), samples, determined)


def _factor_psd(m: np.ndarray, tol: float) -> np.ndarray:
    try:
        return np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        w, v = np.linalg.eigh((m + m.T) / 2)
        if w.min() < -tol:
            raise DomainError(f"matrix is indefinite (min eigenvalue {w.min():.3e})")
        return v * np.sqrt(np.clip(w, 0.0, None))


def moment_mc(f: StepFunction, gram: GramConfig, samples: int = 10**6,
              seed: int = 0) -> MomentEstimate:
    """Monte Carlo estimate of F_k[f] at the pairwise biases in ``gram``.

    Factors B = L L^T, draws z ~ N(0, I), projects t = L z and averages
    prod_i f(t_i); the rounding coins integrate out exactly because the
    X_i are conditionally independent with mean f(t_i).
    """
    diag = validate_gram(gram)
    if not diag.accepted:
        raise DomainError(f"invalid Gram matrix: {diag}")
    L = _factor_psd(gram.matrix, 1e-9)
    k = gram.order
    rng = np.random.default_rng(checked_seed(seed))

    def draw(m: int) -> np.ndarray:
        out = np.empty(m)
        for lo in range(0, m, _MOMENT_CHUNK):
            c = min(_MOMENT_CHUNK, m - lo)
            vals = f(rng.standard_normal((c, k)) @ L.T)
            prod = out[lo:lo + c]
            prod[:] = vals[:, 0]
            for j in range(1, k):  # left to right, as np.prod multiplies
                prod *= vals[:, j]
            del vals  # freed before the next chunk is drawn
        return out

    return _mc_estimate(draw, samples, _MOMENT_MC_BATCH)


# ---------------------------------------------------------------------------
# the F_4 < 0 witness


def f4_witness_vectors(delta: float) -> np.ndarray:
    """Four unit vectors with all pairwise biases positive but F_4 < 0.

    v_2 + v_3 + v_4 = (2-delta) v_1; biases are (2-delta)/3 against v_1 and
    (1 - 4 delta + delta^2)/6 among v_2, v_3, v_4, all positive for
    delta in (0, 2 - sqrt(3)).
    """
    if not 0.0 < delta < 2.0 - np.sqrt(3.0):
        raise DomainError("delta must lie in (0, 2 - sqrt(3))")
    c = (2.0 - delta) / 3.0
    r = np.sqrt(5.0 + 4.0 * delta - delta * delta) / 3.0
    return np.array([
        [1.0, 0.0, 0.0],
        [c, r, 0.0],
        [c, -r / 2.0, r * np.sqrt(3.0) / 2.0],
        [c, -r / 2.0, -r * np.sqrt(3.0) / 2.0],
    ])


def f4_negative_witness(delta: float, eps: float, samples: int = 10**8,
                        seed: int = 0) -> MomentEstimate:
    """Estimate E[x1 x2 x3 x4] under the interval rounding scheme.

    Rounding: draw u ~ N(0, I3); x_i = sign(v_i . u) when |v_i . u| lands in
    [eps, 1.5 eps), otherwise an independent fair coin.  Coins are averaged
    out analytically: a sample contributes the sign product when all four
    are determined and 0 otherwise, which leaves the estimator unbiased
    with far smaller variance.  For small eps the estimate is negative even
    though every pairwise bias is positive.
    """
    if not 0.0 < eps < np.inf:
        raise DomainError("eps must be positive and finite")
    v = f4_witness_vectors(delta)
    rng = np.random.default_rng(checked_seed(seed))

    def draw(m: int) -> np.ndarray:
        # v_1 = e_1, so v_1 . u is z[:, 0] exactly, and only the draws with
        # it in the window can be determined
        z = rng.standard_normal((m, 3))
        first = np.abs(z[:, 0])
        t = z[(first >= eps) & (first < 1.5 * eps)] @ v.T
        a = np.abs(t)
        inside = (a >= eps) & (a < 1.5 * eps)
        sgn = np.sign(t[inside[:, 0] & inside[:, 1] & inside[:, 2] & inside[:, 3]])
        return sgn[:, 0] * sgn[:, 1] * sgn[:, 2] * sgn[:, 3]

    return _mc_estimate(draw, samples, _WITNESS_BATCH)
