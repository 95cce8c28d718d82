"""Shared domain types and numerics.

Conventions used throughout the package:

* A rounding function f : R -> [-1, 1] is odd and represented by its
  restriction to [0, inf) as a step function: breakpoints
  0 < a_1 < ... < a_l and values b_0, ..., b_l with f(x) = b_i on
  [a_i, a_{i+1}) (a_0 = 0, a_{l+1} = inf) and f(-x) = -f(x).
* Pairwise biases b_ij are inner products of unit SDP vectors.
* Hard distributions are the two-atom bias families that are worst case
  for every rounding function at fixed completeness: MAX CUT pairs
  supported on {rho, 1} with rho <= 0, and NAE-3 triples supported on
  {(rho0, rho0, rho0), (1, rho, rho)} with rho0 = max(rho, -1/3) or
  rho0 = 1.

All types are immutable and all operations are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.special import ndtri

from .errors import DomainError, StructuralError

PSD_TOL = 1e-9


# ---------------------------------------------------------------------------
# shared numerics


def gaussian_pdf(x):
    """Standard normal density; 0 at +-inf."""
    return np.exp(-x * x / 2.0) / np.sqrt(2.0 * np.pi)


def equal_mass_edges(n: int) -> np.ndarray:
    """Edges -inf = a_0 < a_1 < ... < a_n = inf of the n cells of Gaussian
    mass 1/n each."""
    if n < 2:
        raise DomainError("need at least 2 cells")
    e = np.empty(n + 1)
    e[0], e[n] = -np.inf, np.inf
    e[1:n] = ndtri(np.arange(1, n) / n)
    return e


def golden_section_min(fn, lo: float, hi: float, iters: int) -> float:
    """Midpoint of the bracket left by ``iters`` golden-section steps
    minimizing the unimodal ``fn`` on [lo, hi]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(iters):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fn(d)
    return (a + b) / 2.0


# ---------------------------------------------------------------------------
# rounding functions


@dataclass(frozen=True)
class StepFunction:
    """Odd step rounding function given by its positive-axis representation.

    ``breakpoints`` are strictly increasing positive reals a_1 < ... < a_l,
    ``values`` are b_0, ..., b_l in [-1, 1].  Evaluation uses the
    right-closed-left convention f(a_i) = b_i, and f(0) = b_0 (the value at
    a single point never matters under Gaussian integrals).
    """

    breakpoints: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        a = np.asarray(self.breakpoints, dtype=float)
        b = np.asarray(self.values, dtype=float)
        if b.size != a.size + 1:
            raise StructuralError(
                f"need len(values) == len(breakpoints)+1, got {b.size} vs {a.size}"
            )
        if not np.all(np.isfinite(a)):
            raise StructuralError("breakpoints must be finite")
        if a.size and (np.any(a <= 0) or np.any(np.diff(a) <= 0)):
            raise StructuralError("breakpoints must be strictly increasing and positive")
        if np.any(np.isnan(b)) or np.any(np.abs(b) > 1 + 1e-15):
            raise StructuralError("step values must lie in [-1, 1]")
        object.__setattr__(self, "breakpoints", tuple(float(x) for x in a))
        object.__setattr__(self, "values", tuple(float(x) for x in b))

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        idx = np.searchsorted(self.breakpoints, np.abs(x), side="right")
        sgn = np.where(x < 0, -1.0, 1.0)
        out = sgn * np.asarray(self.values)[idx]
        return float(out) if out.ndim == 0 else out

    def cells(self):
        """Full-line partition: edges (len 2l+3, with +-inf) and cell values."""
        a = np.asarray(self.breakpoints)
        b = np.asarray(self.values)
        edges = np.concatenate([[-np.inf], -a[::-1], [0.0], a, [np.inf]])
        vals = np.concatenate([-b[::-1], b])
        return edges, vals


SIGN = StepFunction((), (1.0,))


@dataclass(frozen=True)
class GridFunction:
    """Piecewise-constant function on the N-cell equal-Gaussian-mass partition.

    Cell i (1-based) carries Gaussian mass 1/N; the Fredholm solver produces
    odd monotone instances of this type.  N must be even so that the cell
    layout is symmetric about 0.
    """

    values: tuple[float, ...]

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.size < 2 or v.size % 2:
            raise StructuralError("GridFunction needs an even number of cells >= 2")
        if np.any(np.isnan(v)) or np.any(np.abs(v) > 1 + 1e-12):
            raise StructuralError("grid values must lie in [-1, 1]")
        object.__setattr__(self, "values", tuple(float(x) for x in v))

    @property
    def cells(self) -> int:
        return len(self.values)

    def edges(self) -> np.ndarray:
        """Breakpoints -inf = a_0 < a_1 < ... < a_N = inf of the partition."""
        return equal_mass_edges(self.cells)

    def centroids(self) -> np.ndarray:
        """Gaussian centroid E[X | X in cell i] = N (phi(a_{i-1}) - phi(a_i))
        of every cell."""
        dens = gaussian_pdf(self.edges())
        return self.cells * (dens[:-1] - dens[1:])

    def oddness_defect(self) -> float:
        v = np.asarray(self.values)
        return float(np.max(np.abs(v + v[::-1])))

    def to_step_function(self) -> StepFunction:
        """Exact positive-axis step representation (requires oddness)."""
        if self.oddness_defect() > 1e-9:
            raise StructuralError("only odd grid functions convert to StepFunction")
        n = self.cells
        e = self.edges()
        return StepFunction(tuple(e[n // 2 + 1 : n]), tuple(self.values[n // 2 :]))


# ---------------------------------------------------------------------------
# Gram configurations


@dataclass(frozen=True)
class GramConfig:
    """Symmetric unit-diagonal PSD matrix of pairwise biases for k vectors."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise StructuralError("Gram matrix must be square")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def order(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class GramDiagnostics:
    symmetry_error: float
    diagonal_error: float
    min_eigenvalue: float
    accepted: bool


def validate_gram(config: GramConfig, tol: float = PSD_TOL) -> GramDiagnostics:
    """Check symmetry, unit diagonal and PSD-ness (min eigenvalue >= -tol)."""
    m = config.matrix
    sym = float(np.max(np.abs(m - m.T))) if m.size else 0.0
    diag = float(np.max(np.abs(np.diag(m) - 1.0))) if m.size else 0.0
    lo = float(np.linalg.eigvalsh((m + m.T) / 2).min()) if m.size else 0.0
    ok = sym <= tol and diag <= tol and lo >= -tol
    return GramDiagnostics(sym, diag, lo, ok)


# ---------------------------------------------------------------------------
# hard distributions


@dataclass(frozen=True)
class HardDistribution:
    """Worst-case two-atom bias distribution for MAX CUT or MAX NAE-{3}-SAT.

    ``problem`` is 'maxcut' or 'nae3'.  alpha in [0,1] is the weight of the
    first atom; rho in [-1,0] is the correlated bias.  MAX CUT pairs are
    {rho (weight alpha), 1 (weight 1-alpha)}.  NAE-3 triples are
    {(rho0,rho0,rho0) (weight alpha), (1,rho,rho) (weight 1-alpha)} where
    rho0 = max(rho, -1/3) for the 'clamped' variant and 1 for the 'one'
    variant.
    """

    problem: str
    alpha: float
    rho: float
    rho0_variant: str = "clamped"

    def __post_init__(self):
        if self.problem not in ("maxcut", "nae3"):
            raise DomainError(f"unknown problem {self.problem!r}")
        if not 0.0 <= self.alpha <= 1.0:
            raise DomainError("alpha must lie in [0, 1]")
        if not -1.0 <= self.rho <= 0.0:
            raise DomainError("rho must lie in [-1, 0]")
        if self.problem == "nae3" and self.rho0_variant not in ("clamped", "one"):
            raise DomainError(f"unknown rho0 variant {self.rho0_variant!r}")

    @property
    def rho0(self) -> float:
        if self.problem != "nae3":
            raise DomainError("rho0 is defined for nae3 distributions only")
        return max(self.rho, -1.0 / 3.0) if self.rho0_variant == "clamped" else 1.0


# ---------------------------------------------------------------------------
# instances and assignments


@dataclass(frozen=True)
class Clause:
    weight: float
    literals: tuple[int, ...]  # signed 1-based variable indices

    def __post_init__(self):
        if not 0.0 < self.weight < math.inf:
            raise StructuralError("clause weights must be positive and finite")
        try:
            lits = tuple(map(int, self.literals))
        except (TypeError, ValueError, OverflowError) as err:
            raise StructuralError(f"literals must be integers: {err}") from err
        if lits != tuple(self.literals):
            raise StructuralError("literals must be integers")
        if len(lits) < 2:
            raise StructuralError("clauses need at least 2 literals")
        vars_ = set(map(abs, lits))
        if 0 in vars_:
            raise StructuralError("literal 0 is not a variable")
        if len(vars_) != len(lits):
            raise StructuralError("variables within a clause must be distinct")
        object.__setattr__(self, "literals", lits)
        object.__setattr__(self, "weight", float(self.weight))


@dataclass(frozen=True)
class NAEInstance:
    """Weighted NAE clauses over signed literals of n variables."""

    num_vars: int
    clauses: tuple[Clause, ...]

    def __post_init__(self):
        n = self.num_vars
        for c in self.clauses:
            if max(map(abs, c.literals)) > n:
                bad = next(l for l in c.literals if abs(l) > n)
                raise StructuralError(f"literal {bad} out of range for {n} variables")
        object.__setattr__(self, "clauses", tuple(self.clauses))

    @cached_property
    def total_weight(self) -> float:
        return sum(c.weight for c in self.clauses)

    @cached_property
    def clause_groups(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Read-only (literals (m, k), weights (m,)) per clause size k, in order of first use."""
        by_size: dict[int, list[Clause]] = {}
        for cl in self.clauses:
            by_size.setdefault(len(cl.literals), []).append(cl)
        groups = tuple((np.array([c.literals for c in cls]), np.array([c.weight for c in cls]))
                       for cls in by_size.values())
        for lits, weights in groups:
            lits.setflags(write=False)
            weights.setflags(write=False)
        return groups


@dataclass(frozen=True)
class VectorAssignment:
    """Unit vector per variable, stored as an (n, d) array (row i = var i+1)."""

    vectors: np.ndarray

    def __post_init__(self):
        v = np.array(self.vectors, dtype=float)
        if v.ndim != 2:
            raise StructuralError("vectors must form an (n, d) array")
        norms = np.linalg.norm(v, axis=1)
        if not np.all(np.abs(norms - 1.0) <= 1e-6):  # NaN coordinates fail too
            raise StructuralError("all vectors must have unit norm")
        # renormalize the residual 1e-7-ish file roundoff away
        v /= norms[:, None]
        v.setflags(write=False)
        object.__setattr__(self, "vectors", v)

    @property
    def num_vars(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]
