"""Explicit MAX NAE-{3,5} integrality-gap instances.

Variables are indexed by vectors with exactly three nonzero coordinates
of value +-1/sqrt(3), identified under negation (x_{-v} = -x_v).  Sampled
3-clauses have pairwise biases exactly (-1/3,-1/3,-1/3) and 5-clauses
(1/3 on the six pairs among the first four, 0 against the fifth), so a
clause-local distribution over satisfying assignments matches the biases
and the SDP completeness is 1 clause by clause.  Class weights split
1 - 3/sqrt(21) on 3-clauses and 3/sqrt(21) on 5-clauses.

Sunflower tuples (k vectors sharing one signed coordinate, fresh petal
pairs otherwise) drive the moment estimates: under the two-probability
rounding rule every variable in a tuple is independent given the shared
sign, with conditional mean m = (p1 + p2 - 1)/2, so F2 = m^2 and F4 = m^4
exactly.  (The source text prints the mean as (p1 - p2 - 1)/2; the stated
rule gives P[X=1 | shared +] = p1/4 + p2/2 + (1-p2)/4 = (p1+p2+1)/4, and
the two agree on the p2 = 0 rules used everywhere.)  Setting p1 - 1 =
-2 sqrt(2 sqrt(21) - 9), p2 = 0 meets the worst-case moments of the
hardness bound, which the generated instances then achieve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Clause, NAEInstance, VectorAssignment
from .errors import DomainError, StructuralError
from .hardness import BOUND, F2_STAR, P_STAR, mixture_value
from .moments import MomentEstimate
from . import pipeline

SQRT3 = math.sqrt(3.0)
WEIGHT_5 = P_STAR          # total weight on the 5-clause class
WEIGHT_3 = 1.0 - P_STAR

# p1 - p2 - 1 = -2 sqrt(F2*) with p2 = 0 hits F2 = 2 sqrt(21) - 9
P1_STAR = 1.0 - 2.0 * math.sqrt(F2_STAR)


@dataclass(frozen=True)
class SparseVec:
    """A vector with support {i, j, k} and coordinates signs/sqrt(3)."""

    indices: tuple[int, int, int]   # 0-based, strictly increasing
    signs: tuple[int, int, int]

    def __post_init__(self):
        i, j, k = self.indices
        if not 0 <= i < j < k:
            raise StructuralError("indices must be distinct and increasing")
        if any(s not in (-1, 1) for s in self.signs):
            raise StructuralError("signs must be +-1")

    @property
    def positives(self) -> int:
        return sum(1 for s in self.signs if s > 0)

    def negate(self) -> "SparseVec":
        return SparseVec(self.indices, tuple(-s for s in self.signs))

    def canonical(self) -> tuple["SparseVec", int]:
        """Representative with >= 2 positive signs, plus orientation +-1."""
        return (self, 1) if self.positives >= 2 else (self.negate(), -1)

    def dot_numerator(self, other: "SparseVec") -> int:
        """3 * (self . other), an exact integer."""
        mine = dict(zip(self.indices, self.signs))
        return sum(s * mine[i] for i, s in zip(other.indices, other.signs) if i in mine)

    def dense(self, n: int) -> np.ndarray:
        v = np.zeros(n)
        for i, s in zip(self.indices, self.signs):
            v[i] = s / SQRT3
        return v


def _vec(pairs) -> SparseVec:
    pairs = sorted(pairs)
    return SparseVec(tuple(p[0] for p in pairs), tuple(p[1] for p in pairs))


def _sample_tuples(rng: np.random.Generator, m: int, n: int, width: int):
    idx = np.argsort(rng.random((m, n)), axis=1)[:, :width]
    signs = rng.integers(0, 2, size=(m, width)) * 2 - 1
    return idx, signs


def clause3_vectors(idx, s) -> tuple[SparseVec, SparseVec, SparseVec]:
    """The 3-clause pattern: cyclic shared indices with opposite signs."""
    i1, i2, i3, i4, i5, i6 = (int(x) for x in idx)
    s1, s2, s3, s4, s5, s6 = (int(x) for x in s)
    return (_vec([(i1, s1), (i2, -s2), (i4, s4)]),
            _vec([(i2, s2), (i3, -s3), (i5, s5)]),
            _vec([(i3, s3), (i1, -s1), (i6, s6)]))


def _petals(idx, s, k: int) -> tuple[SparseVec, ...]:
    """k vectors sharing the signed coordinate (idx[0], s[0]); vector j
    adds coordinates 2j+1 and 2j+2."""
    idx = [int(x) for x in idx]
    s = [int(x) for x in s]
    return tuple(_vec([(idx[0], s[0]), (idx[2 * j + 1], s[2 * j + 1]),
                       (idx[2 * j + 2], s[2 * j + 2])]) for j in range(k))


def clause5_vectors(idx, s) -> tuple[SparseVec, ...]:
    """Four petals sharing a signed coordinate plus one disjoint vector."""
    return _petals(idx, s, 4) + (_vec(zip(map(int, idx[9:12]), map(int, s[9:12]))),)


def sunflower_sample(n: int, k: int, seed: int) -> tuple[SparseVec, ...]:
    """One draw of the k-vector sunflower distribution D_k."""
    if 2 * k + 1 > n:
        raise DomainError(f"D_{k} needs at least {2 * k + 1} coordinates, have {n}")
    rng = np.random.default_rng(seed)
    idx, s = _sample_tuples(rng, 1, n, 2 * k + 1)
    return _petals(idx[0], s[0], k)


@dataclass(frozen=True)
class GapInstance:
    n: int
    num_3clauses: int
    num_5clauses: int
    variables: tuple[SparseVec, ...]    # canonical representative per variable id
    instance: NAEInstance
    clause_vectors: tuple[tuple[SparseVec, ...], ...] = ()  # absent when loaded from files

    def vector_assignment(self) -> VectorAssignment:
        return VectorAssignment(np.vstack([v.dense(self.n) for v in self.variables]))

    def sparse_rows(self) -> dict[int, tuple]:
        return {vid: tuple(zip(v.indices, v.signs))
                for vid, v in enumerate(self.variables, start=1)}


def gen_gap_instance(n: int, m3: int, m5: int, seed: int) -> GapInstance:
    """Sample m3 members of the 3-clause class and m5 of the 5-clause class.

    Clause classes are astronomically large, so clauses are drawn i.i.d.
    uniformly and weights spread evenly inside each class; every bias
    identity holds exactly per sampled clause, which is all the analysis
    uses.
    """
    if n < 12:
        raise DomainError("a 5-clause needs 12 distinct coordinates")
    if m3 < 1 or m5 < 1:
        raise DomainError("need at least one clause of each size")
    rng = np.random.default_rng(seed)
    idx3, s3 = _sample_tuples(rng, m3, n, 6)
    idx5, s5 = _sample_tuples(rng, m5, n, 12)

    registry: dict[tuple, int] = {}
    variables: list[SparseVec] = []

    def var_literal(v: SparseVec) -> int:
        rep, orient = v.canonical()
        key = (rep.indices, rep.signs)
        vid = registry.get(key)
        if vid is None:
            variables.append(rep)
            vid = len(variables)
            registry[key] = vid
        return orient * vid

    clause_vectors = []
    clauses = []
    w3 = WEIGHT_3 / m3
    w5 = WEIGHT_5 / m5
    for row in range(m3):
        vecs = clause3_vectors(idx3[row], s3[row])
        clause_vectors.append(vecs)
        clauses.append((w3, tuple(var_literal(v) for v in vecs)))
    for row in range(m5):
        vecs = clause5_vectors(idx5[row], s5[row])
        clause_vectors.append(vecs)
        clauses.append((w5, tuple(var_literal(v) for v in vecs)))
    inst = NAEInstance(len(variables),
                       tuple(Clause(w, lits) for w, lits in clauses))
    return GapInstance(n, m3, m5, tuple(variables), inst, tuple(clause_vectors))


def load_gap(instance_text: str, vector_text: str) -> GapInstance:
    """Rebuild a GapInstance from its serialized instance + vector files.

    Vector rows must be in the sparse form (canonical representatives);
    the per-clause vector tuples are not reconstructed, only what
    evaluation needs.
    """
    inst = pipeline.parse_instance(instance_text)
    num_vars, n, rows = pipeline.read_vector_rows(vector_text)
    if num_vars != inst.num_vars or not all(isinstance(r, tuple) for r in rows.values()):
        raise StructuralError("gap vectors must be sparse rows, one per instance variable")
    variables = tuple(_vec(rows[vid]) for vid in range(1, num_vars + 1))
    m3 = sum(1 for c in inst.clauses if len(c.literals) == 3)
    m5 = sum(1 for c in inst.clauses if len(c.literals) == 5)
    return GapInstance(n, m3, m5, variables, inst)


# ---------------------------------------------------------------------------
# completeness witnesses


def completeness_witness(clause_kind: int) -> tuple[tuple[float, tuple[int, ...]], ...]:
    """Clause-local distribution over satisfying assignments matching the biases."""
    if clause_kind == 3:
        third = 1.0 / 3.0
        return ((third, (1, 1, -1)), (third, (1, -1, 1)), (third, (-1, 1, 1)))
    if clause_kind == 5:
        sixth = 1.0 / 6.0
        return ((sixth, (-1, 1, 1, 1, 1)), (sixth, (1, -1, 1, 1, 1)),
                (sixth, (1, 1, -1, 1, 1)), (sixth, (1, 1, 1, -1, 1)),
                (1.0 / 3.0, (1, 1, 1, 1, -1)))
    raise DomainError("witnesses exist for clause sizes 3 and 5")


def witness_pair_expectations(clause_kind: int) -> np.ndarray:
    """E[X_a X_b] under the witness for every pair a < b."""
    rows = completeness_witness(clause_kind)
    k = len(rows[0][1])
    out = []
    for a in range(k):
        for b in range(a + 1, k):
            out.append(sum(p * x[a] * x[b] for p, x in rows))
    return np.array(out)


# ---------------------------------------------------------------------------
# rounding rules and moments


def _apply_rule_positives(positives: np.ndarray, orient: np.ndarray,
                          p1: float, p2: float, rng: np.random.Generator) -> np.ndarray:
    """Vectorized rule on canonical-representative positive counts (2 or 3)."""
    p_sel = np.where(positives == 3, p1, p2)
    coins = np.where(rng.random(positives.shape) < p_sel, 1, -1)
    return orient * coins


def _tuple_positives(signs: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-vector positive count and canonical orientation for sunflower draws.

    ``signs`` has 2k+1 sign columns per sample; vector j uses columns
    (0, 2j+1, 2j+2).
    """
    m = signs.shape[0]
    pos = np.empty((m, k), dtype=np.int8)
    for j in range(k):
        cols = signs[:, [0, 2 * j + 1, 2 * j + 2]]
        pos[:, j] = (cols > 0).sum(axis=1)
    orient = np.where(pos >= 2, 1, -1)
    rep_pos = np.where(pos >= 2, pos, 3 - pos)
    return rep_pos, orient


def assignment_moments(rule, n: int, samples: int = 10**6,
                       seed: int = 0) -> tuple[MomentEstimate, MomentEstimate]:
    """(F2, F4) under sunflower sampling for a rounding rule.

    ``rule`` is a (p1, p2) pair (vectorized fast path) or a callable
    mapping a canonical SparseVec to +-1 (an explicit assignment; slower,
    sampled at min(samples, 20000) tuples).
    """
    if callable(rule):
        return _assignment_moments_callable(rule, n, min(samples, 20000), seed)
    p1, p2 = rule
    if not (0.0 <= p1 <= 1.0 and 0.0 <= p2 <= 1.0):
        raise DomainError("rule probabilities must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    out = []
    for k in (2, 4):
        if 2 * k + 1 > n:
            raise DomainError(f"D_{k} needs n >= {2 * k + 1}")
        # petal indices never collide inside one tuple, so only the sign
        # pattern matters for the rounding outcome; index sampling is
        # unnecessary for the moment statistics
        signs = rng.integers(0, 2, size=(samples, 2 * k + 1)) * 2 - 1
        rep_pos, orient = _tuple_positives(signs, k)
        x = _apply_rule_positives(rep_pos, orient, p1, p2, rng)
        out.append(_estimate(np.prod(x, axis=1).astype(float)))
    return out[0], out[1]


def _estimate(prods: np.ndarray) -> MomentEstimate:
    """Sample mean with its ddof=1 standard error."""
    return MomentEstimate(float(prods.mean()),
                          float(prods.std(ddof=1) / math.sqrt(prods.size)), prods.size,
                          prods.size)


def _assignment_moments_callable(rule, n: int, samples: int, seed: int):
    rng = np.random.default_rng(seed)
    out = []
    for k in (2, 4):
        prods = np.empty(samples)
        for t in range(samples):
            vecs = sunflower_sample(n, k, int(rng.integers(0, 2**63)))
            total = 1
            for v in vecs:
                rep, orient = v.canonical()
                total *= orient * int(rule(rep))
            prods[t] = total
        out.append(_estimate(prods))
    return out[0], out[1]


# ---------------------------------------------------------------------------
# end-to-end evaluation


@dataclass(frozen=True)
class GapEvaluation:
    fraction: float
    std_error: float
    trials: int
    expected_fraction: float       # exact per-instance expectation of the rule
    clause_sampling_sigma: float   # std of expected_fraction over instance draws
    analytic_prediction: float     # class-level (1-p)(3+3F2)/4 + p(15-6F2-F4)/16
    f2: MomentEstimate
    f4: MomentEstimate


def expected_fraction(gap: GapInstance, rule: tuple[float, float]) -> tuple[float, float]:
    """Exact expected satisfied weight of the rule on this instance.

    Variable values are independent with means determined by the
    representative's positive count, so per clause
    E[NAE] = 1 - prod (1+mu_i)/2 - prod (1-mu_i)/2 exactly.  Also returns
    the clause-sampling standard deviation of that expectation (how much
    the number moves across instance draws), from the per-clause spread.
    """
    p1, p2 = rule
    mu_var = np.where(np.array([v.positives for v in gap.variables]) == 3,
                      2.0 * p1 - 1.0, 2.0 * p2 - 1.0)
    total = 0.0
    var_acc = 0.0
    for lits, w in pipeline.clause_arrays(gap.instance):
        mu = mu_var[np.abs(lits) - 1] * np.sign(lits)
        e_sat = 1.0 - np.prod((1.0 + mu) / 2.0, axis=1) - np.prod((1.0 - mu) / 2.0, axis=1)
        total += float(np.dot(w, e_sat))
        var_acc += float(np.sum(w * w * np.var(e_sat)))
    return total / gap.instance.total_weight, math.sqrt(var_acc) / gap.instance.total_weight


def evaluate_gap(gap: GapInstance, rule: tuple[float, float], trials: int = 20,
                 seed: int = 0, moment_samples: int = 10**6) -> GapEvaluation:
    """Monte Carlo satisfied-weight fraction of the rule on the instance.

    Reports three comparable numbers: the measured fraction (mean over
    trials of fresh rounding coins), the exact per-instance expectation,
    and the class-level moment prediction
    (1-p)(3+3 F2)/4 + p(15-6 F2-F4)/16 from independently measured
    moments.  Measured vs expected agree within the trial standard error;
    expected vs class prediction differ by the clause-sampling noise,
    whose scale is reported alongside.
    """
    p1, p2 = rule
    rng = np.random.default_rng(seed)
    rep_pos = np.array([v.positives for v in gap.variables], dtype=np.int8)
    assignments = np.empty((trials, len(gap.variables)), dtype=np.int8)
    for t in range(trials):
        assignments[t] = _apply_rule_positives(
            rep_pos, np.ones_like(rep_pos), p1, p2, rng)
    fracs = pipeline.evaluate_many(gap.instance, assignments)
    mean = float(fracs.mean())
    se = float(fracs.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    exp_frac, sigma_inst = expected_fraction(gap, rule)
    f2_est, f4_est = assignment_moments(rule, gap.n, moment_samples,
                                        seed + 7919)
    pred = mixture_value(WEIGHT_5, f2_est.value, f4_est.value)
    return GapEvaluation(mean, se, trials, float(exp_frac), float(sigma_inst),
                         float(pred), f2_est, f4_est)


def soundness_upper_estimate(f2: float, f4: float, p: float = P_STAR,
                             slack: float = 0.0) -> float:
    """Upper bound on any assignment's value from measured moments."""
    return mixture_value(p, f2, max(f4, f2 * f2 - slack))
