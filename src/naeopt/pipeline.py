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

The readers take a file in one vectorized pass when it has the shape the
writers give it: ASCII, 'c' comments only before the header, header
counts below 2^53, single spaces, and one clause or sparse row per line.
An instance body holds only digits, '-' and '+', and '.', 'e' and 'E' only
in a clause's weight; numpy's text reader must read every token whole,
which it does only for tokens it then reads as float() and int() do.  A
sparse row's fields are plain digits, its signs '+' or '-'.  Any other
file (dense vector files among them), and any file that fails a check,
goes to the line-by-line parsers, which read it as before and raise every
line-numbered StructuralError.
"""

from __future__ import annotations

import numpy as np

from .core import Clause, NAEInstance, StepFunction, VectorAssignment, checked_seed
from .errors import DomainError, StructuralError


# ---------------------------------------------------------------------------
# instance parsing


def _convert(kind, tokens: list[str], lineno: int, what: str) -> list:
    """``kind`` applied to every token; a malformed token is a StructuralError."""
    try:
        return [kind(t) for t in tokens]
    except ValueError as err:
        raise StructuralError(f"line {lineno}: malformed {what}: {err}") from err


# the bytes a bulk body may hold, and those of them only a weight may hold
_BULK = np.zeros(256, bool)
_BULK[list(b"0123456789 \n-+.eE")] = True
_WEIGHT_ONLY = np.zeros(256, bool)
_WEIGHT_ONLY[list(b".eE")] = True


def _bulk_split(text: str, head: list[str]) -> tuple[list[int], str] | None:
    """(header counts, body ending in a newline) for the bulk readers, or None:
    the text must be ASCII, with only printable 'c' comment lines before a
    header of ``head`` and two digit strings, single-space separated.  Counts
    from 2^53 on return None: tokens up to them would not read exactly as floats."""
    if not text.isascii():
        return None
    start = 0
    while text.startswith("c", start):
        end = text.find("\n", start)
        if end < 0 or not text[start:end].isprintable():
            return None
        start = end + 1
    end = text.find("\n", start)
    end = len(text) if end < 0 else end
    fields = text[start:end].split(" ")
    if fields[:-2] != head or not all(f.isdigit() for f in fields[-2:]):
        return None
    counts = [int(f) for f in fields[-2:]]
    if max(counts) >= 2**53:
        return None
    body = text[end + 1:]
    if not body:
        return None
    return counts, body if body.endswith("\n") else body + "\n"


def _scan(body: str):
    """(values, first token of each line, tokens per line) of a body of
    tokens that numpy reads whole, each line's separated by single spaces,
    with '.', 'e' and 'E' only in a line's first token; else None."""
    b = np.frombuffer(body.encode(), np.uint8)
    if not _BULK[b].all():
        return None
    try:  # numpy 2 raises on a token it cannot read whole; numpy 1 warns
        values = np.fromstring(body, sep=" ")
    except (ValueError, DeprecationWarning):
        return None
    sep = np.flatnonzero((b == ord(" ")) | (b == ord("\n")))
    if values.size != sep.size:  # an empty token, or a numpy 1 partial read
        return None
    newline = b[sep] == ord("\n")
    # the separator before each '.eE' byte ends a line (the body's last one stands in before b[0])
    if not newline[np.searchsorted(sep, np.flatnonzero(_WEIGHT_ONLY[b])) - 1].all():
        return None
    last = np.flatnonzero(newline)
    count = np.diff(last, prepend=-1)
    return values, last - count + 1, count


def _parse_instance_bulk(text: str) -> NAEInstance | None:
    split = _bulk_split(text, ["p", "nae"])
    if split is None:
        return None
    (num_vars, declared), body = split
    scan = _scan(body)
    if scan is None:
        return None
    values, first, count = scan
    k = count - 2
    if len(first) != declared or k.min() < 0:
        return None
    if not np.array_equal(values[first + 1], k):
        return None
    _, first_use, size = np.unique(k, return_index=True, return_inverse=True)
    clause_group = np.argsort(np.argsort(first_use))[size]
    groups = []
    for rows in np.split(np.argsort(clause_group, kind="stable"),
                         np.cumsum(np.bincount(clause_group))[:-1]):
        lits = values[first[rows, None] + 2 + np.arange(k[rows[0]])]
        if not (np.abs(lits) <= num_vars).all():  # before the cast: huge tokens read as inf
            return None
        groups.append((lits.astype(np.int64), values[first[rows]]))
    try:
        return NAEInstance.from_groups(num_vars, groups, clause_group)
    except StructuralError:
        return None


def parse_instance(text: str) -> NAEInstance:
    inst = _parse_instance_bulk(text)
    return _parse_instance_lines(text) if inst is None else inst


def _parse_instance_lines(text: str) -> NAEInstance:
    """The line-by-line parser: the source of every line-numbered error."""
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
    lines = [f"c {c}" for c in comment.splitlines()] if comment else []
    lines.append(f"p nae {inst.num_vars} {inst.clause_group.size}")
    groups = []
    for lits, w in inst.clause_groups:
        m, k = lits.shape
        weights, which = np.unique(w, return_inverse=True)  # repr each distinct weight once
        text = list(map(repr, weights.tolist()))
        fields = [None] * (m * (k + 1))
        fields[::k + 1] = [text[i] for i in which.tolist()]
        for j in range(k):
            fields[j + 1::k + 1] = lits[:, j].tolist()
        groups.append(np.array(((f"%s {k}" + " %d" * k + "\n") * m % tuple(fields)).splitlines(),
                               object))
    return "\n".join(lines + inst.in_clause_order(groups).tolist()) + "\n"


# the non-digit bytes of a sparse row "<id> s <i>:<+-s> <j>:<+-t> <k>:<+-u>", and
# which of them follow digits (the id, the indices, the signs' digits)
_SPARSE_ROW = np.frombuffer(b" s :+ :+ :+\n", np.uint8)
_SPARSE_DIGITS = np.array([1, 0, 0, 1, 0, 1, 1, 0, 1, 1, 0, 1], bool)
_SIGNS = [4, 7, 10]


def _sparse_rows_bulk(body: str, n: int) -> np.ndarray | None:
    """(n, 7) int64 rows (id, i, s, j, t, k, u) of a body of n sparse rows, or None."""
    b = np.frombuffer(body.encode(), np.uint8)
    at = np.flatnonzero((b < ord("0")) | (b > ord("9")))
    if at.size != 12 * n:
        return None
    at = at.reshape(n, 12)
    digits = np.diff(at, axis=1, prepend=np.r_[-1, at[:-1, -1]][:, None]) - 1
    found = b[at]
    found[:, _SIGNS] = np.where(found[:, _SIGNS] == ord("-"), ord("+"), found[:, _SIGNS])
    if not (np.all(found == _SPARSE_ROW) and np.all((digits > 0) == _SPARSE_DIGITS)
            and digits.max() <= 18):  # up to 18 digits read exactly as an int64
        return None
    text = body.replace(" s ", " ").replace(":", " ")
    return np.fromstring(text, dtype=np.int64, sep=" ").reshape(n, 7)


def _read_vector_rows_bulk(text: str) -> tuple | None:
    split = _bulk_split(text, ["v"])
    if split is None or min(split[0]) < 1:
        return None
    (n, dim), body = split
    rows = _sparse_rows_bulk(body, n)
    if rows is None:
        return None
    ids, indices, signs = rows[:, 0], rows[:, 1::2], rows[:, 2::2]
    if not (np.all((ids >= 1) & (ids <= n)) and np.all((indices >= 1) & (indices <= dim))
            and np.all(np.abs(signs) == 1)):
        return None
    if np.bincount(ids).max() > 1 or np.any(indices == np.roll(indices, 1, axis=1)):
        return None
    return n, dim, (ids, indices - 1, signs), {}


def read_vector_rows(text: str) -> tuple[int, int, tuple, dict]:
    """(num_vars, dim, (ids, indices, signs), dense) of a vector file: the sparse
    rows as int arrays in file order, (m,), (m, 3) 0-based and (m, 3), and
    ``dense[id]``, a dense row's float array."""
    rows = _read_vector_rows_bulk(text)
    return _read_vector_rows_lines(text) if rows is None else rows


def _read_vector_rows_lines(text: str) -> tuple[int, int, tuple, dict]:
    """read_vector_rows line by line: the source of every line-numbered error."""
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
            index_end = min(header[1], 2**63)  # 0-based indices are kept as int64
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
            if not (0 <= i < index_end and 0 <= j < index_end and 0 <= k < index_end
                    and i != j != k != i and s in (-1, 1) and t in (-1, 1) and u in (-1, 1)):
                raise StructuralError(f"line {lineno}: a sparse row needs 3 distinct "
                                      f"coordinates <i>:<+-1> with i in 1..{index_end}")
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
    return VectorAssignment._from_sparse_rows((n, dim), ids - 1, indices, signs,
                                              ((vid - 1, row) for vid, row in dense.items()))


def format_vectors(va: VectorAssignment, sparse_signs: tuple | None = None) -> str:
    """Dense rows by default; ``sparse_signs = (indices, signs)``, (num_vars, 3)
    int arrays with 0-based indices, writes every row in the exact sparse form."""
    if sparse_signs is None:
        lines = [f"v {va.num_vars} {va.dim}"]
        for vid in range(1, va.num_vars + 1):
            lines.append(f"{vid} " + " ".join(repr(float(x)) for x in va.vectors[vid - 1]))
        return "\n".join(lines) + "\n"
    indices, signs = sparse_signs
    if indices.shape != (va.num_vars, 3) or signs.shape != indices.shape:
        raise StructuralError("sparse rows need 3 indices and 3 signs per vector")
    rows = np.empty((va.num_vars, 7), np.int64)
    rows[:, 0] = np.arange(1, va.num_vars + 1)
    rows[:, 1::2] = indices + 1
    rows[:, 2::2] = signs
    header = f"v {va.num_vars} {va.dim}\n"
    return header + "%d s %d:%+d %d:%+d %d:%+d\n" * va.num_vars % tuple(rows.ravel().tolist())


# ---------------------------------------------------------------------------
# rounding


def _round_rng(seed: int, round_index: int) -> np.random.Generator:
    # a uint64 key: a tuple key passes through int64 or float64 and loses seeds >= 2**63
    key = np.array([checked_seed(seed), round_index], np.uint64)
    return np.random.default_rng(np.random.Philox(key=key))


def rpr2_round(vectors: VectorAssignment, f: StepFunction, seed: int,
               round_index: int = 0) -> np.ndarray:
    """One RPR2 sample: +-1 per variable (entry i is variable i+1)."""
    rng = _round_rng(seed, round_index)
    r = rng.standard_normal(vectors.dim)
    t = vectors.vectors @ r
    p_one = (1.0 + np.asarray(f(t))) / 2.0
    u = rng.random(vectors.num_vars)
    return np.where(u < p_one, 1, -1).astype(np.int8)


def _not_all_equal(assignments: np.ndarray, lits: np.ndarray) -> np.ndarray:
    """NAE of each clause row of ``lits`` under each +-1 assignment (leading axes)."""
    true = ((assignments > 0)[..., np.abs(lits) - 1] != (lits < 0)).sum(axis=-1)
    return (true > 0) & (true < lits.shape[1])


def _total_weight(inst: NAEInstance) -> float:
    if not inst.clause_group.size:
        raise DomainError("an instance with no clauses has no satisfied fraction")
    return inst.total_weight


def evaluate(inst: NAEInstance, assignment: np.ndarray) -> float:
    """Weighted fraction of clauses with literal values not all equal."""
    assignment = np.asarray(assignment)
    if assignment.shape != (inst.num_vars,) or np.any(np.abs(assignment) != 1):
        raise StructuralError("assignment must map every variable to +-1")
    sat = inst.in_clause_order([_not_all_equal(assignment, lits) for lits, _ in inst.clause_groups])
    weights = inst.clause_weights[sat.astype(bool)]
    # the satisfied weights added one at a time in clause order, as a loop would
    return (float(np.cumsum(weights)[-1]) if weights.size else 0.0) / _total_weight(inst)


def evaluate_many(inst: NAEInstance, assignments: np.ndarray) -> np.ndarray:
    """Vectorized evaluate over rows of assignments, grouped by clause size."""
    assignments = np.atleast_2d(np.asarray(assignments))
    sat = np.zeros(assignments.shape[0])
    for lits, w in inst.clause_groups:
        # einsum, not @: a BLAS product rounds differently with its thread count
        sat += np.einsum("ij,j->i", _not_all_equal(assignments, lits), w)
    return sat / _total_weight(inst)


def random_baseline(inst: NAEInstance) -> float:
    """Expected value of a uniform assignment: sum w (1 - 2^(1-k)) / sum w."""
    terms = [w * (1.0 - 2.0 ** (1 - lits.shape[1])) for lits, w in inst.clause_groups]
    return sum(inst.in_clause_order(terms).tolist()) / _total_weight(inst)


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
    rng = _round_rng(seed, 0)
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
