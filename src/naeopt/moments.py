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

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, owens_t

from .core import GramConfig, StepFunction, gaussian_pdf, validate_gram
from .errors import DomainError

_TAIL = 10.0  # Gaussian mass beyond |x| = 10 is < 1.6e-23, below every tolerance

# |rho| up to this is a correlation, past 1 only by rounding: np.arange(-1, 1
# + 1e-12, 0.02) ends at 1 + 1.8e-15; such a rho is taken as +-1
_RHO_BOUND = 1.0 + 1e-12

# Monte Carlo samples drawn per batch, bounding the memory of one call
_MOMENT_MC_BATCH = 10**6
_WITNESS_BATCH = 5 * 10**6


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
    the zeros among them."""
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
    f2l_symmetric is the accurate route there.
    """
    if not abs(rho) <= _RHO_BOUND:
        raise DomainError("rho must lie in [-1, 1]")
    if abs(rho) >= 1.0:  # degenerate: Y = rho*X exactly
        return np.array([[binormal_rect(rho, x_lo, x_hi, y_lo, y_hi)
                          for y_lo, y_hi in zip(edges_y[:-1], edges_y[1:])]
                         for x_lo, x_hi in zip(edges_x[:-1], edges_x[1:])])
    same = edges_x is edges_y
    root = np.sqrt((1.0 - rho) * (1.0 + rho))
    xlo, xhi, xzero = _finite_span(edges_x)
    ylo, yhi, yzero = (xlo, xhi, xzero) if same else _finite_span(edges_y)
    h, k = edges_x[xlo:xhi], edges_y[ylo:yhi]
    nh = ndtr(h)
    nk = nh if same else ndtr(k)
    H, K = h[:, None], k[None, :]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        th = owens_t(H, (K - rho * H) / (H * root))
        tk = th.T if same else owens_t(K, (H - rho * K) / (K * root))
        fin = 0.5 * (nh[:, None] + nk) - th - tk - 0.5 * (H * K < 0.0)
    fin[xzero] = 0.5 * nk - owens_t(k, -rho / root)
    fin[:, yzero] = (0.5 * nh - owens_t(h, -rho / root))[:, None]
    F = np.zeros((len(edges_x), len(edges_y)))
    F[xlo:xhi, ylo:yhi] = fin
    F[xhi:, ylo:yhi] = nk
    F[xlo:xhi, yhi:] = nh[:, None]
    F[xhi:, yhi:] = 1.0
    np.clip(F, 0.0, 1.0, out=F)
    M = F[1:, 1:] - F[:-1, 1:] - F[1:, :-1] + F[:-1, :-1]
    np.maximum(M, 0.0, out=M)
    return M


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
        out = _noise_sum(f, eta, np.sqrt((1.0 - eta) * (1.0 + eta)), x)
    return float(out) if out.ndim == 0 else out


def _noise_sum(f: StepFunction, eta: float, s: float, x: np.ndarray) -> np.ndarray:
    """U_eta f at x given s = sqrt(1 - eta^2), for 0 <= eta < 1."""
    ex = eta * x
    # Phi((t - eta x)/s) at t = a_i and t = -a_i, with a_0 = 0 and the last
    # a = inf, once per distinct edge
    up = [ndtr((t - ex) / s) for t in (0.0, *f.breakpoints)] + [1.0]
    down = up[:1] + [ndtr((-t - ex) / s) for t in f.breakpoints] + [0.0]
    tot = np.zeros(x.shape)
    for i, b in enumerate(f.values):
        if b == 0.0:
            continue
        tot += b * (up[i + 1] - up[i] - down[i] + down[i + 1])
    return tot


def f2(f: StepFunction, rho: float) -> float:
    """Noise stability E[f(X) f(Y)] for rho-correlated standard Gaussians.

    Computed as a signed double sum of exact rectangle probabilities over
    the step cells; rho = +-1 short-circuits to +-int f^2 phi.
    """
    if not abs(rho) <= _RHO_BOUND:
        raise DomainError("rho must lie in [-1, 1]")
    if abs(rho) >= 1.0:
        total = _symmetric_integral(f, 1.0, np.square)
        return total if rho > 0 else -total
    edges, vals = f.cells()
    M = rect_lattice(edges, edges, rho)
    return float(vals @ M @ vals)


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


def _symmetric_integral(f: StepFunction, rho: float, g) -> float:
    """int g(U_sqrt(rho) f) phi dx for 0 < rho <= 1 and an even function g.

    At rho = 1, U_1 f = f is piecewise constant and the integral is the
    exact cell-mass sum.  Below rho ~ 0.993 the fixed panels _QX serve;
    closer to 1 the panels are split at the transitions of U f.  Measured
    for g(u) = u^2 on random step functions, the result is within 1e-15 of
    adaptive quadrature at every rho tried from 0.99 to 1 - 1e-15, and
    within 2e-14 of the Owen's-T route f2 at rho = 0.995, 0.999, 0.9999.
    """
    if not 0.0 < rho <= 1.0:
        raise DomainError("rho must lie in (0, 1]")
    if rho == 1.0:
        edges, vals = f.cells()
        return float(np.dot(np.diff(ndtr(edges)), g(vals)))
    eta = float(np.sqrt(rho))
    s = float(np.sqrt(1.0 - rho))
    if s / eta >= _RESOLVED_WIDTH:
        u = noise_operator(f, eta, _QX)
        return float(np.sum(_QW * _QPHI * g(u)))
    # U f steps at 0 (f is odd) and at every +-a_i.  s comes from 1 - rho,
    # which is exact; 1 - eta^2 is off by up to 10% at rho = 1 - 1e-15
    centers = np.concatenate([[0.0], f.breakpoints]) / eta
    splits = (centers[:, None] + (s / eta) * _TRANSITION_OFFSETS[None, :]).ravel()
    edges = np.unique(np.concatenate([_QEDGES, splits, -splits]))
    xs, ws = _panel_grid(edges[np.abs(edges) <= _TAIL])
    u = _noise_sum(f, eta, s, xs)
    return float(np.sum(ws * gaussian_pdf(xs) * g(u)))


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
    return _symmetric_integral(f, rho, lambda u: u ** (2 * ell))


def sat_prob_symmetric(f: StepFunction, k: int, rho: float) -> float:
    """P[NAE_k satisfied] on the symmetric configuration with all biases rho.

    For k <= 3 only F_2 enters, and the exact two-dimensional route serves
    every rho in [-1, 1].  For k >= 4 and rho > 0 evaluates
    1 - 2^-k int ((1+u)^k + (1-u)^k) phi with u = U_sqrt(rho) f: exactly at
    rho = 1 (a cell-mass sum) and to ~1e-15 below (see _symmetric_integral).
    """
    if k < 2:
        raise DomainError("NAE clauses need k >= 2")
    if rho == 0.0:
        # independent projections: every F_i (i >= 1) of an odd f vanishes
        return 1.0 - 2.0 ** (1 - k)
    if k == 2:
        return (1.0 - f2(f, rho)) / 2.0
    if k == 3:
        return (3.0 - 3.0 * f2(f, rho)) / 4.0
    if rho < 0.0:
        raise DomainError("rho < 0 with k >= 4 has no 1-d form; use moment_mc")
    integral = _symmetric_integral(f, rho, lambda u: (1.0 + u) ** k + (1.0 - u) ** k)
    return float(1.0 - 2.0 ** (-k) * integral)


# ---------------------------------------------------------------------------
# Monte Carlo moments


def _mc_estimate(draw, samples: int, batch: int) -> MomentEstimate:
    """Mean and standard error of ``samples`` draws taken ``batch`` at a time;
    ``draw(m)`` makes m draws and returns their values, where a draw it
    leaves out counts as 0."""
    if samples < 1:
        raise DomainError("need at least one sample")
    total = 0.0
    total_sq = 0.0
    done = determined = 0
    while done < samples:
        m = min(batch, samples - done)
        x = draw(m)
        total += float(x.sum())
        total_sq += float(np.dot(x, x))
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
    rng = np.random.default_rng(seed)

    def draw(m: int) -> np.ndarray:
        return np.prod(f(rng.standard_normal((m, k)) @ L.T), axis=1)

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
    rng = np.random.default_rng(seed)

    def draw(m: int) -> np.ndarray:
        # v_1 = e_1, so v_1 . u is z[:, 0] exactly, and only the draws with
        # it in the window can be determined
        z = rng.standard_normal((m, 3))
        first = np.abs(z[:, 0])
        t = z[(first >= eps) & (first < 1.5 * eps)] @ v.T
        a = np.abs(t)
        det = ((a >= eps) & (a < 1.5 * eps)).all(axis=1)
        return np.prod(np.sign(t[det]), axis=1)

    return _mc_estimate(draw, samples, _WITNESS_BATCH)
