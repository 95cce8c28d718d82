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
import numbers
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


def checked_seed(seed) -> int:
    """``seed`` as an int, if it is an integer in [0, 2**64): the seeds that
    every generator here takes."""
    if not isinstance(seed, numbers.Integral) or not 0 <= int(seed) < 2**64:
        raise DomainError(f"seed must be an integer in [0, 2**64), got {seed!r}")
    return int(seed)


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
        a = tuple(map(float, self.breakpoints))
        b = tuple(map(float, self.values))
        if len(b) != len(a) + 1:
            raise StructuralError(
                f"need len(values) == len(breakpoints)+1, got {len(b)} vs {len(a)}"
            )
        if not all(map(math.isfinite, a)):
            raise StructuralError("breakpoints must be finite")
        if a and (a[0] <= 0 or any(x >= y for x, y in zip(a, a[1:]))):
            raise StructuralError("breakpoints must be strictly increasing and positive")
        if not all(abs(x) <= 1 + 1e-15 for x in b):  # NaN fails too
            raise StructuralError("step values must lie in [-1, 1]")
        object.__setattr__(self, "breakpoints", a)
        object.__setattr__(self, "values", b)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        a, b = self.arrays()
        idx = np.searchsorted(a, np.abs(x), side="right")
        sgn = np.where(x < 0, -1.0, 1.0)
        out = sgn * b[idx]
        return float(out) if out.ndim == 0 else out

    def arrays(self):
        """Breakpoints and values as arrays, read-only and built on first use."""
        return self._arrays

    def cells(self):
        """Full-line partition: edges (len 2l+3, with +-inf) and cell values,
        read-only and built on first use."""
        return self._cells

    @cached_property
    def _arrays(self):
        return _read_only(np.array(self.breakpoints, dtype=float),
                          np.array(self.values, dtype=float))

    @cached_property
    def _cells(self):
        return _read_only(*step_cells(*self.arrays()))


def step_cells(a: np.ndarray, b: np.ndarray):
    """Full-line edges (..., 2l+3) and cell values (..., 2l+2) of the step
    functions with breakpoints a (..., l) and values b (..., l+1), one
    function per index of the leading axes."""
    l = a.shape[-1]
    edges = np.empty(a.shape[:-1] + (2 * l + 3,))
    edges[..., 0], edges[..., l + 1], edges[..., -1] = -np.inf, 0.0, np.inf
    edges[..., 1:l + 1] = -a[..., ::-1]
    edges[..., l + 2:-1] = a
    return edges, np.concatenate([-b[..., ::-1], b], axis=-1)


def _read_only(*arrays):
    for x in arrays:
        x.setflags(write=False)
    return arrays


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


def _out_of_range(literals, n: int) -> StructuralError:
    bad = next(l for l in literals if abs(l) > n)
    return StructuralError(f"literal {bad} out of range for {n} variables")


@dataclass(frozen=True, eq=False, init=False, repr=False)
class NAEInstance:
    """Weighted NAE clauses over signed literals of n variables, stored by size.

    ``clause_groups`` holds one read-only (literals (m, k), weights (m,))
    pair per clause size k, in order of first use, and clause i is row
    ``clause_row[i]`` of group ``clause_group[i]``.  ``NAEInstance(n,
    clauses)`` takes Clause objects; ``from_groups`` takes the arrays.
    """

    num_vars: int
    clause_groups: tuple[tuple[np.ndarray, np.ndarray], ...]
    clause_group: np.ndarray
    clause_row: np.ndarray

    def __init__(self, num_vars: int, clauses):
        clauses = tuple(clauses)
        sizes: dict[int, int] = {}
        group = [sizes.setdefault(len(c.literals), len(sizes)) for c in clauses]
        try:
            groups = [(np.array([c.literals for c in clauses if len(c.literals) == k], np.int64),
                       np.array([c.weight for c in clauses if len(c.literals) == k]))
                      for k in sizes]
        except OverflowError as err:
            bad = next((c.literals for c in clauses if max(map(abs, c.literals)) > num_vars),
                       None)
            if bad is not None:
                raise _out_of_range(bad, num_vars) from err
            raise StructuralError(f"literals must fit in 64 bits: {err}") from err
        self._store(num_vars, groups, np.array(group, dtype=np.intp))
        self._check_range()
        self.__dict__["clauses"] = clauses

    @classmethod
    def from_groups(cls, num_vars: int, groups, clause_group) -> "NAEInstance":
        """The instance whose clause i is the next unused row of group
        ``clause_group[i]``; ``groups`` as in ``clause_groups``.  Runs the
        checks of Clause and of the constructor on the arrays: the first
        offending clause raises the message it raises there."""
        groups = [(np.asarray(lits), np.array(w, dtype=float)) for lits, w in groups]
        if any(lits.dtype.kind not in "iu" for lits, _ in groups):
            raise StructuralError("literals must be integers")
        inst = cls.__new__(cls)
        inst._store(num_vars, [(lits.astype(np.int64), w) for lits, w in groups],
                    np.array(clause_group, dtype=np.intp))
        bad = inst._first_clause([~((w > 0.0) & (w < math.inf)) | _malformed_rows(lits)
                                  for lits, w in inst.clause_groups])
        if bad is not None:  # Clause raises the message
            Clause(*inst._clause_at(bad))
        inst._check_range()
        return inst

    def _check_range(self) -> None:
        n = self.num_vars  # not np.abs: it keeps the int64 minimum negative
        bad = self._first_clause([((lits > n) | (lits < -n)).any(axis=1)
                                  for lits, _ in self.clause_groups])
        if bad is not None:
            raise _out_of_range(self._clause_at(bad)[1], self.num_vars)

    def _store(self, num_vars, groups, clause_group) -> None:
        row = np.empty_like(clause_group)
        for g, (lits, w) in enumerate(groups):
            mine = clause_group == g
            if lits.ndim != 2 or len(lits) != len(w) or np.count_nonzero(mine) != len(w):
                raise StructuralError("every group needs one (literals, weight) row per clause")
            row[mine] = np.arange(len(w))
        for a in (clause_group, row, *(a for pair in groups for a in pair)):
            a.setflags(write=False)
        object.__setattr__(self, "num_vars", num_vars)
        object.__setattr__(self, "clause_groups", tuple(map(tuple, groups)))
        object.__setattr__(self, "clause_group", clause_group)
        object.__setattr__(self, "clause_row", row)

    @cached_property
    def _clause_index(self) -> np.ndarray:
        """Each clause's row in the groups stacked in order."""
        starts = np.cumsum([0] + [len(w) for _, w in self.clause_groups])
        return starts[self.clause_group] + self.clause_row

    def in_clause_order(self, per_group) -> np.ndarray:
        """Stack one array per group (rows in group order) into clause order."""
        return np.concatenate(per_group)[self._clause_index] if per_group else np.empty(0)

    def _first_clause(self, flags_per_group) -> int | None:
        flags = self.in_clause_order(flags_per_group)
        return int(np.argmax(flags)) if flags.any() else None

    def _clause_at(self, i: int) -> tuple[float, list[int]]:
        """(weight, literals) of clause i."""
        lits, w = self.clause_groups[self.clause_group[i]]
        return float(w[self.clause_row[i]]), lits[self.clause_row[i]].tolist()

    @cached_property
    def clauses(self) -> tuple[Clause, ...]:
        """The clauses as Clause objects, built on first use."""
        return tuple(self.in_clause_order([np.fromiter(map(Clause, w.tolist(), lits.tolist()),
                                                       object, len(w))
                                           for lits, w in self.clause_groups]).tolist())

    @cached_property
    def clause_weights(self) -> np.ndarray:
        """Read-only weight of every clause, in clause order."""
        w = self.in_clause_order([w for _, w in self.clause_groups])
        w.setflags(write=False)
        return w

    @cached_property
    def total_weight(self) -> float:
        return sum(self.clause_weights.tolist())  # in clause order, as the Clause objects summed

    def __eq__(self, other):
        if not isinstance(other, NAEInstance):
            return NotImplemented
        return (self.num_vars == other.num_vars
                and np.array_equal(self.clause_group, other.clause_group)
                and all(np.array_equal(a, b) for mine, theirs in zip(self.clause_groups,
                                                                     other.clause_groups)
                        for a, b in zip(mine, theirs)))

    def __hash__(self):
        return hash((self.num_vars, self.clause_group.size))

    def __repr__(self):
        return f"NAEInstance(num_vars={self.num_vars!r}, clauses={self.clauses!r})"


def _malformed_rows(lits: np.ndarray) -> np.ndarray:
    """Rows with fewer than 2 literals, a literal 0 or a repeated variable."""
    mag = np.sort(np.abs(lits), axis=1)
    return ((mag[:, :1] == 0).any(axis=1) | (mag[:, 1:] == mag[:, :-1]).any(axis=1)
            | (mag.shape[1] < 2))


_NORM_BLOCK = 1 << 16  # elements squared at a time by _unit_norms


def _unit_norms(v: np.ndarray) -> np.ndarray:
    """The row norms of ``v`` as np.linalg.norm(v, axis=1) computes them,
    sqrt(add.reduce(v * v)), squaring about 2^16 elements at a time; a
    StructuralError unless every one is within 1e-6 of 1."""
    rows = max(1, _NORM_BLOCK // max(1, v.shape[1]))
    norms = np.empty(len(v))
    for lo in range(0, len(v), rows):
        c = v[lo:lo + rows]
        np.sqrt(np.add.reduce(c * c, axis=1), out=norms[lo:lo + rows])
    if not np.all(np.abs(norms - 1.0) <= 1e-6):  # NaN coordinates fail too
        raise StructuralError("all vectors must have unit norm")
    return norms


@dataclass(frozen=True)
class VectorAssignment:
    """Unit vector per variable, stored as an (n, d) array (row i = var i+1).

    The stored array is a new read-only one: the rows divided by their
    norms, which takes the residual 1e-7-ish file roundoff away.  The
    caller's array is neither written nor frozen."""

    vectors: np.ndarray

    def __post_init__(self):
        try:
            raw = np.asarray(self.vectors, dtype=float)
        except (TypeError, ValueError) as err:
            raise StructuralError(f"vectors must form an (n, d) array of reals: {err}") from err
        if raw.ndim != 2:
            raise StructuralError("vectors must form an (n, d) array")
        v = raw / _unit_norms(raw)[:, None]
        v.setflags(write=False)
        object.__setattr__(self, "vectors", v)

    @classmethod
    def _from_sparse_rows(cls, shape: tuple[int, int], rows: np.ndarray, indices: np.ndarray,
                          signs: np.ndarray, dense=()) -> "VectorAssignment":
        """The assignment of ``shape`` whose row ``rows[i]`` is ``signs[i] /
        sqrt(3)`` at the three ``indices[i]`` and 0 elsewhere, and row r
        ``values`` for every (r, values) in ``dense``; rows are checked and
        divided by their norms as the constructor does, in the one array."""
        try:
            v = np.zeros(shape)
        except ValueError as err:  # numpy's bound on a dimension or on the size
            raise StructuralError(f"{shape[0]} vectors of dimension {shape[1]}: {err}") from err
        v[rows[:, None], indices] = signs / math.sqrt(3.0)
        for r, values in dense:
            v[r] = values
        v /= _unit_norms(v)[:, None]
        v.setflags(write=False)
        va = cls.__new__(cls)
        object.__setattr__(va, "vectors", v)
        return va

    @property
    def num_vars(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]
