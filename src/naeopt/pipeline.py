"""End-to-end RPR2 rounding of NAE instances with explicit vector solutions.

The rounding procedure: draw a shared direction r ~ N(0, I_d), project
t_i = r . v_i, then independently set x_i = 1 with probability
(1 + f(t_i))/2.  Rounds use a counter-based Philox stream keyed by
(seed, round) so parallel rounds reproduce bit-for-bit regardless of
scheduling.

File formats
------------
Instance (line oriented, comments start with 'c'):

    p nae <num_vars> <num_clauses>
    <weight> <k> <lit_1> ... <lit_k>        one line per clause

with lit = +-(1-based variable index).  Vector file:

    v <num_vars> <dim>
    <id> <x_1> ... <x_dim>                  dense row, or
    <id> s <i>:<s> <j>:<s> <k>:<s>          sparse row, coordinate value s/sqrt(3)

Sparse rows carry exactly three distinct signed coordinates (the
gap-instance format); indices are 1-based in files.  Every id from 1 to
num_vars has exactly one row.
"""

from __future__ import annotations

import math

import numpy as np

from .core import Clause, NAEInstance, StepFunction, VectorAssignment
from .errors import DomainError, StructuralError


# ---------------------------------------------------------------------------
# instance parsing


def _convert(kind, tokens: list[str], lineno: int, what: str) -> list:
    """``kind`` applied to every token; a malformed token is a StructuralError."""
    try:
        return [kind(t) for t in tokens]
    except ValueError as err:
        raise StructuralError(f"line {lineno}: malformed {what}: {err}") from err


def parse_instance(text: str) -> NAEInstance:
    num_vars = None
    declared = None
    clauses = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts or parts[0].startswith("c"):
            continue
        if parts[0] == "p":
            if num_vars is not None:
                raise StructuralError(f"line {lineno}: duplicate header")
            if len(parts) != 4 or parts[1] != "nae":
                raise StructuralError(f"line {lineno}: expected 'p nae <vars> <clauses>'")
            num_vars, declared = _convert(int, parts[2:], lineno, "header")
            if min(num_vars, declared) < 0:
                raise StructuralError(f"line {lineno}: header counts must be nonnegative")
            continue
        if num_vars is None:
            raise StructuralError(f"line {lineno}: clause before header")
        try:
            weight = float(parts[0])
            k = int(parts[1])
            lits = [int(t) for t in parts[2:]]
        except (ValueError, IndexError) as err:
            raise StructuralError(f"line {lineno}: malformed clause: {err}") from err
        if len(lits) != k:
            raise StructuralError(f"line {lineno}: clause declares {k} literals, has {len(lits)}")
        try:
            clauses.append(Clause(weight, tuple(lits)))
        except StructuralError as err:
            raise StructuralError(f"line {lineno}: {err}") from err
    if num_vars is None:
        raise StructuralError("missing 'p nae' header")
    if declared != len(clauses):
        raise StructuralError(f"header declares {declared} clauses, found {len(clauses)}")
    return NAEInstance(num_vars, tuple(clauses))


def format_instance(inst: NAEInstance, comment: str | None = None) -> str:
    lines = []
    if comment:
        lines += [f"c {c}" for c in comment.splitlines()]
    lines.append(f"p nae {inst.num_vars} {len(inst.clauses)}")
    for cl in inst.clauses:
        lines.append(f"{cl.weight!r} {len(cl.literals)} " + " ".join(map(str, cl.literals)))
    return "\n".join(lines) + "\n"


_SQRT3 = math.sqrt(3.0)


def read_vector_rows(text: str) -> tuple[int, int, tuple, dict]:
    """(num_vars, dim, (ids, indices, signs), dense) of a vector file: the sparse
    rows as int arrays in file order, (m,), (m, 3) 0-based and (m, 3), and
    ``dense[id]``, a dense row's float array."""
    header = None
    seen: set[int] = set()
    ids: list[int] = []
    flat: list[int] = []  # i, j, k, s, t, u per sparse row
    dense: dict[int, np.ndarray] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts or parts[0].startswith("c"):
            continue
        if parts[0] == "v":
            if header is not None:
                raise StructuralError(f"line {lineno}: duplicate header")
            if len(parts) != 3:
                raise StructuralError(f"line {lineno}: expected 'v <vars> <dim>'")
            header = _convert(int, parts[1:], lineno, "header")
            if min(header) < 1:
                raise StructuralError(f"line {lineno}: header counts must be positive")
            continue
        if header is None:
            raise StructuralError(f"line {lineno}: vector row before header")
        n, dim = header
        sparse = len(parts) > 1 and parts[1] == "s"
        try:  # spelled out for speed: gap-instance files have ~10^5 rows
            vid = int(parts[0])
            if sparse:
                a, b, c = parts[2:]
                (i, s), (j, t), (k, u) = a.split(":"), b.split(":"), c.split(":")
                i, s, j, t, k, u = int(i) - 1, int(s), int(j) - 1, int(t), int(k) - 1, int(u)
            else:
                row = np.array([float(x) for x in parts[1:]])
        except ValueError as err:
            raise StructuralError(f"line {lineno}: malformed row: {err}") from err
        if not 1 <= vid <= n:
            raise StructuralError(f"line {lineno}: variable id {vid} out of range")
        if vid in seen:
            raise StructuralError(f"line {lineno}: duplicate variable id {vid}")
        seen.add(vid)
        if sparse:
            if not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim and i != j != k != i
                    and s in (-1, 1) and t in (-1, 1) and u in (-1, 1)):
                raise StructuralError(f"line {lineno}: a sparse row needs 3 distinct "
                                      f"coordinates <i>:<+-1> with i in 1..{dim}")
            ids.append(vid)
            flat += (i, j, k, s, t, u)
        elif row.size != dim:
            raise StructuralError(f"line {lineno}: expected {dim} coordinates")
        else:
            dense[vid] = row
    if header is None:
        raise StructuralError("missing 'v' header")
    n, dim = header
    if len(seen) != n:
        raise StructuralError(f"header declares {n} vectors, found {len(seen)}")
    pairs = np.array(flat, dtype=np.int64).reshape(-1, 2, 3)
    return n, dim, (np.array(ids, dtype=np.int64), pairs[:, 0], pairs[:, 1]), dense


def parse_vectors(text: str) -> VectorAssignment:
    n, dim, (ids, indices, signs), dense = read_vector_rows(text)
    vectors = np.zeros((n, dim))
    vectors[(ids - 1)[:, None], indices] = signs / _SQRT3
    for vid, row in dense.items():
        vectors[vid - 1] = row
    return VectorAssignment(vectors)


def format_vectors(va: VectorAssignment, sparse_signs: dict[int, tuple] | None = None) -> str:
    """Dense rows by default; ``sparse_signs[vid] = ((i, s), (j, s), (k, s))``
    (0-based indices) switches a row to the exact sparse form."""
    lines = [f"v {va.num_vars} {va.dim}"]
    for vid in range(1, va.num_vars + 1):
        if sparse_signs and vid in sparse_signs:
            (i, s), (j, t), (k, u) = sparse_signs[vid]
            lines.append(f"{vid} s {i + 1}:{s:+d} {j + 1}:{t:+d} {k + 1}:{u:+d}")
        else:
            lines.append(f"{vid} " + " ".join(repr(float(x)) for x in va.vectors[vid - 1]))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# rounding


def _round_rng(seed: int, round_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.Philox(key=(seed, round_index)))


def rpr2_round(vectors: VectorAssignment, f: StepFunction, seed: int,
               round_index: int = 0) -> np.ndarray:
    """One RPR2 sample: +-1 per variable (entry i is variable i+1)."""
    rng = _round_rng(seed, round_index)
    r = rng.standard_normal(vectors.dim)
    t = vectors.vectors @ r
    p_one = (1.0 + np.asarray(f(t))) / 2.0
    u = rng.random(vectors.num_vars)
    return np.where(u < p_one, 1, -1).astype(np.int8)


def evaluate(inst: NAEInstance, assignment: np.ndarray) -> float:
    """Weighted fraction of clauses with literal values not all equal."""
    assignment = np.asarray(assignment)
    if assignment.shape != (inst.num_vars,) or np.any(np.abs(assignment) != 1):
        raise StructuralError("assignment must map every variable to +-1")
    a = assignment.tolist()
    sat = 0.0
    for cl in inst.clauses:
        if len({a[l - 1] if l > 0 else -a[-l - 1] for l in cl.literals}) > 1:
            sat += cl.weight
    return sat / inst.total_weight


def evaluate_many(inst: NAEInstance, assignments: np.ndarray) -> np.ndarray:
    """Vectorized evaluate over rows of assignments, grouped by clause size."""
    assignments = np.atleast_2d(np.asarray(assignments))
    sat = np.zeros(assignments.shape[0])
    for lits, w in inst.clause_groups:
        vals = assignments[:, np.abs(lits) - 1] * np.sign(lits)  # (rows, m, k)
        ok = vals.max(axis=2) != vals.min(axis=2)
        sat += ok @ w
    return sat / inst.total_weight


def random_baseline(inst: NAEInstance) -> float:
    """Expected value of a uniform assignment: sum w (1 - 2^(1-k)) / sum w."""
    tot = sum(c.weight * (1.0 - 2.0 ** (1 - len(c.literals))) for c in inst.clauses)
    return tot / inst.total_weight


def best_of_rounds(inst: NAEInstance, vectors: VectorAssignment, f: StepFunction,
                   rounds: int, seed: int) -> tuple[np.ndarray, float]:
    if rounds < 1:
        raise DomainError("need at least one round")
    best_val = -1.0
    best = None
    for r in range(rounds):
        a = rpr2_round(vectors, f, seed, r)
        v = evaluate(inst, a)
        if v > best_val:
            best_val, best = v, a
    return best, best_val


def noise_assignment(assignment: np.ndarray, delta: float, seed: int) -> np.ndarray:
    """Independently reset each variable: +1 w.p. delta, -1 w.p. delta,
    else keep.  The noisy value differs from the original w.p. exactly delta."""
    if not 0.0 <= delta <= 0.5:
        raise DomainError("delta must lie in [0, 1/2]")
    assignment = np.asarray(assignment)
    rng = np.random.default_rng(np.random.Philox(key=(seed, 0)))
    u = rng.random(assignment.shape)
    forced = np.where(u < delta, 1, -1)
    return np.where(u < 2 * delta, forced, assignment).astype(np.int8)


def pq_values(k: int, delta: float) -> tuple[float, float]:
    """P_k(delta) = 1 - 2(1-delta)^k + (1-2 delta)^k and Q_k(delta) = (1-2 delta)^k.

    P_k is the probability the noise alone satisfies a length-k clause;
    Q_k is the probability the clause is untouched.
    """
    if k < 1:
        raise DomainError("k must be positive")
    if not 0.0 <= delta <= 0.5:
        raise DomainError("delta must lie in [0, 1/2]")
    p = 1.0 - 2.0 * (1.0 - delta) ** k + (1.0 - 2.0 * delta) ** k
    q = (1.0 - 2.0 * delta) ** k
    return p, q
