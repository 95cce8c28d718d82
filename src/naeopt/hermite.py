"""Normalized Hermite polynomials and coefficient geometry of rounding functions.

H_n(x) = (1/sqrt(n!)) sum_l (-1)^l m_l(K_n) x^(n-2l), where m_l(K_n) is the
number of l-matchings of the complete graph on n vertices; these are
orthonormal for the standard Gaussian measure.  Step functions have exact
Hermite coefficients: since (He_{n-1} phi)' = -He_n phi,

    int_a^b H_n phi = (H_{n-1}(a) phi(a) - H_{n-1}(b) phi(b)) / sqrt(n),

so c_n = <f, H_n> is a finite sum of boundary terms over the step cells.

P_k is the convex body of attainable odd-coefficient tuples
(c_1, c_3, ..., c_{2k-1}); its extreme points are sign functions of odd
Hermite combinations, hence +-1 step functions with at most k positive
breakpoints.  The noise operator acts diagonally: U_eta f has coefficients
c_i eta^i.
"""

from __future__ import annotations

import math

import numpy as np

from .core import StepFunction, gaussian_pdf
from .errors import DomainError, NaeoptError


def matchings_count(l: int, n: int) -> int:
    """m_l(K_n) = n! / (l! 2^l (n-2l)!), the number of l-matchings; 0 if 2l > n."""
    if l < 0 or n < 0:
        raise DomainError("matchings_count needs nonnegative arguments")
    if 2 * l > n:
        return 0
    return math.factorial(n) // (math.factorial(l) * 2**l * math.factorial(n - 2 * l))


def monomial_coefficients(n: int) -> np.ndarray:
    """H_n in ascending powers x^0 ... x^n: (-1)^l m_l(K_n) / sqrt(n!) at x^(n-2l)."""
    if n < 0:
        raise DomainError("degree must be nonnegative")
    norm = math.sqrt(math.factorial(n))
    c = np.zeros(n + 1)
    for l in range(n // 2 + 1):
        c[n - 2 * l] = (-1) ** l * matchings_count(l, n) / norm
    return c


def hermite_values(x, max_degree: int) -> np.ndarray:
    """Table of H_0(x) ... H_max(x) via the stable normalized recurrence
    H_k = (x H_{k-1} - sqrt(k-1) H_{k-2}) / sqrt(k); shape x.shape + (max+1,)."""
    x = np.asarray(x, dtype=float)
    out = np.empty(x.shape + (max_degree + 1,))
    out[..., 0] = 1.0
    if max_degree >= 1:
        out[..., 1] = x
    for k in range(2, max_degree + 1):
        out[..., k] = (x * out[..., k - 1] - math.sqrt(k - 1) * out[..., k - 2]) / math.sqrt(k)
    return out


def cell_boundary_terms(edges: np.ndarray, max_degree: int) -> np.ndarray:
    """Unnormalized Hermite integrals of the cells between consecutive edges.

    Entry (i, n-1) is B_{n-1}(edges[i]) - B_{n-1}(edges[i+1]) with
    B_m = H_m phi, which equals sqrt(n) int_{cell i} H_n phi, for
    n = 1..max_degree.  Edges may be +-inf, where B vanishes.
    """
    finite = np.isfinite(edges)
    b = np.zeros((edges.size, max_degree))  # rows: edges, cols: H_0..H_{max-1}
    b[finite] = hermite_values(edges[finite], max_degree - 1)
    b *= gaussian_pdf(edges)[:, None]  # in place: B_m; 0 at +-inf, where H is 0 too
    return b[:-1] - b[1:]


def hermite_coeffs(f: StepFunction, max_degree: int = 41) -> np.ndarray:
    """Odd-degree coefficients (c_1, c_3, ...) up to max_degree, exact
    boundary-term sums.  Even coefficients vanish for odd f and are
    asserted to below 1e-10 before being dropped."""
    edges, vals = f.cells()
    # c_n = sum_cells v * (B[lo, n-1] - B[hi, n-1]) / sqrt(n)
    diff = cell_boundary_terms(edges, max_degree)
    weighted = vals @ diff  # entry n-1 holds the unnormalized c_n
    c = weighted / np.sqrt(np.arange(1, max_degree + 1))
    even = c[1::2]
    if even.size and np.max(np.abs(even)) > 1e-10:
        raise NaeoptError(f"even Hermite coefficients should vanish, got {np.max(np.abs(even)):.2e}")
    return c[0::2]


def reconstruct_odd(coeffs: np.ndarray, x) -> np.ndarray:
    """sum_j coeffs[j] H_{2j+1}(x) for an odd-degree coefficient vector."""
    coeffs = np.asarray(coeffs, dtype=float)
    table = hermite_values(x, 2 * coeffs.size - 1)
    return table[..., 1::2] @ coeffs


def damped_coeffs(coeffs, eta: float) -> np.ndarray:
    """Noise-operator action on odd coefficients: c_{2j+1} -> c_{2j+1} eta^(2j+1)."""
    if not 0.0 <= eta <= 1.0:
        raise DomainError("eta must lie in [0, 1]")
    coeffs = np.asarray(coeffs, dtype=float)
    degrees = 2 * np.arange(coeffs.size) + 1
    return coeffs * eta ** degrees


# ---------------------------------------------------------------------------
# extreme points of P_k


def _positive_sign_change_roots(poly: np.polynomial.Polynomial) -> list[float]:
    roots = poly.roots()
    real = sorted(float(r.real) for r in roots
                  if abs(r.imag) < 1e-9 and r.real > 1e-12)
    deriv = poly.deriv()
    out = []
    for r in real:
        for _ in range(3):  # Newton polish
            d = deriv(r)
            if d == 0.0:
                break
            step = poly(r) / d
            if not np.isfinite(step):
                break
            r -= step
        if r <= 1e-12:
            continue
        # keep only sign-changing (odd multiplicity) roots
        lo = r * (1 - 1e-7) - 1e-12
        hi = r * (1 + 1e-7) + 1e-12
        if poly(lo) * poly(hi) < 0:
            if not out or r - out[-1] > 1e-9 * max(1.0, r):
                out.append(r)
    return out


def extreme_point(direction) -> tuple[StepFunction, np.ndarray]:
    """Boundary point of P_k maximizing sum_i direction[i] c_{2i-1}.

    The maximizer is f = sign(sum_i direction[i] H_{2i-1}); its positive
    sign-change roots become the breakpoints.  Returns the step function
    together with its odd coefficient vector (same length as direction).
    """
    alpha = np.asarray(direction, dtype=float)
    if alpha.size == 0 or not np.any(alpha):
        raise DomainError("direction must have a nonzero component")
    k = alpha.size
    mono = np.zeros(2 * k)
    for i, a in enumerate(alpha):
        if a != 0.0:
            mono[: 2 * i + 2] += a * monomial_coefficients(2 * i + 1)
    poly = np.polynomial.Polynomial(mono)
    roots = _positive_sign_change_roots(poly)
    if len(roots) > k:
        raise NaeoptError(f"root isolation produced {len(roots)} sign changes: {poly}")
    edges = [0.0] + roots
    probes = [(edges[i] + edges[i + 1]) / 2.0 for i in range(len(roots))]
    probes.append(edges[-1] + 1.0)
    values = np.sign(poly(np.asarray(probes)))
    if np.any(values == 0.0):
        raise NaeoptError("sign probe hit a root; polynomial degenerate")
    f = StepFunction(tuple(roots), tuple(values))
    return f, hermite_coeffs(f, 2 * k - 1 + 1)[:k]


def boundary_sweep(k: int, angles: int) -> list[tuple[float, np.ndarray]]:
    """P_k boundary for k = 2 style plots: directions on the unit circle.

    For k = 2 returns (theta, (c1, c3)) pairs; for larger k the direction
    sweeps the first two coordinates with the rest zero.
    """
    if k < 2:
        raise DomainError("the sweep needs k >= 2")
    out = []
    for theta in np.linspace(0.0, 2.0 * np.pi, angles, endpoint=False):
        d = np.zeros(k)
        d[0], d[1] = np.cos(theta), np.sin(theta)
        _, c = extreme_point(d)
        out.append((float(theta), c))
    return out
