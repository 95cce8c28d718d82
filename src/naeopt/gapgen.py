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

Every vector takes three columns c of one sampled tuple (distinct
coordinates idx[c], uniform signs s[c]) with a sign flip per column.
The 3-clause vectors take columns (0,1,3), (1,2,4), (2,0,5) with flips
(+,-,+), so each pair shares one coordinate with opposite signs (dot
-1/3).  Petal j of k takes (0, 2j+1, 2j+2) unflipped, so petals share
the signed column 0 (dot 1/3).  A 5-clause is petals 0..3 of 4 plus
columns (9, 10, 11), which meet no petal (dot 0).  A vector with >= 2
positive signs is its own canonical representative, any other the
negation of one (a negative literal); ids follow first occurrence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import Clause, NAEInstance, VectorAssignment
from .errors import DomainError, StructuralError
from .hardness import F2_STAR, P_STAR, mixture_value
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


def _petal_cols(k: int) -> list[tuple[int, int, int]]:
    return [(0, 2 * j + 1, 2 * j + 2) for j in range(k)]


_CLAUSE3 = ([(0, 1, 3), (1, 2, 4), (2, 0, 5)], (1, -1, 1))
_CLAUSE5 = (_petal_cols(4) + [(9, 10, 11)], 1)


def _sample_tuples(rng: np.random.Generator, m: int, n: int, width: int):
    idx = np.argsort(rng.random((m, n)), axis=1)[:, :width]
    signs = rng.integers(0, 2, size=(m, width)) * 2 - 1
    return idx, signs


def _vector_rows(idx, signs, cols, flips=1) -> tuple[np.ndarray, np.ndarray]:
    """Index-sorted (indices, signs) rows of the vectors taking columns
    ``cols`` of each tuple, signs times ``flips``; tuple-major order."""
    ind = idx[:, cols].reshape(-1, 3)
    sg = (signs[:, cols] * flips).reshape(-1, 3)
    order = np.argsort(ind, axis=1)
    return np.take_along_axis(ind, order, 1), np.take_along_axis(sg, order, 1)


def _sparse_vecs(ind: np.ndarray, sg: np.ndarray) -> tuple[SparseVec, ...]:
    return tuple(SparseVec(tuple(i), tuple(s)) for i, s in zip(ind.tolist(), sg.tolist()))


def _orientation(positives: np.ndarray) -> np.ndarray:
    """+1 where a vector with this many positive signs is canonical, else -1."""
    return np.where(positives >= 2, 1, -1)


def sunflower_sample(n: int, k: int, seed: int) -> tuple[SparseVec, ...]:
    """One draw of the k-vector sunflower distribution D_k."""
    if 2 * k + 1 > n:
        raise DomainError(f"D_{k} needs at least {2 * k + 1} coordinates, have {n}")
    rng = np.random.default_rng(seed)
    idx, s = _sample_tuples(rng, 1, n, 2 * k + 1)
    return _sparse_vecs(*_vector_rows(idx, s, _petal_cols(k)))


@dataclass(frozen=True, eq=False)
class GapInstance:
    n: int
    num_3clauses: int
    num_5clauses: int
    indices: np.ndarray     # (V, 3) read-only; row v-1 is variable v's increasing indices
    signs: np.ndarray       # (V, 3) read-only +-1, >= 2 positive: canonical representatives
    instance: NAEInstance

    def __post_init__(self):
        self.indices.setflags(write=False)
        self.signs.setflags(write=False)

    @cached_property
    def variables(self) -> tuple[SparseVec, ...]:
        """The rows as SparseVec objects, built on first use."""
        return _sparse_vecs(self.indices, self.signs)

    @cached_property
    def clause_vectors(self) -> tuple[tuple[SparseVec, ...], ...]:
        """Each clause's vectors; a negative literal is the negated variable."""
        neg = [v.negate() for v in self.variables]
        return tuple(tuple(self.variables[l - 1] if l > 0 else neg[-l - 1] for l in c.literals)
                     for c in self.instance.clauses)

    @property
    def positives(self) -> np.ndarray:
        """Positive-sign count (2 or 3) of each variable's representative."""
        return (self.signs > 0).sum(axis=1)

    def vector_assignment(self) -> VectorAssignment:
        vectors = np.zeros((len(self.indices), self.n))
        np.put_along_axis(vectors, self.indices, self.signs / SQRT3, axis=1)
        return VectorAssignment(vectors)

    def sparse_rows(self) -> dict[int, tuple]:
        rows = map(tuple, map(zip, self.indices.tolist(), self.signs.tolist()))
        return dict(zip(range(1, len(self.indices) + 1), rows))


def gen_gap_instance(n: int, m3: int, m5: int, seed: int) -> GapInstance:
    """Sample m3 members of the 3-clause class and m5 of the 5-clause class.

    Clause classes are astronomically large, so clauses are drawn i.i.d.
    uniformly and weights spread evenly inside each class; every bias
    identity holds exactly per sampled clause, which is all the analysis
    uses.
    """
    if not 12 <= n <= 2**20:  # the variable key below must fit in an int64
        raise DomainError(f"n={n} outside [12, 2^20]: a 5-clause needs 12 coordinates")
    if m3 < 1 or m5 < 1:
        raise DomainError("need at least one clause of each size")
    rng = np.random.default_rng(seed)
    idx3, s3 = _sample_tuples(rng, m3, n, 6)
    idx5, s5 = _sample_tuples(rng, m5, n, 12)
    ind, sg = (np.concatenate(a) for a in zip(_vector_rows(idx3, s3, *_CLAUSE3),
                                             _vector_rows(idx5, s5, *_CLAUSE5)))
    orient = _orientation((sg > 0).sum(axis=1))
    sg = sg * orient[:, None]
    # one integer per (indices, representative signs)
    key = ((ind[:, 0] * n + ind[:, 1]) * n + ind[:, 2]) * 8 + (sg > 0) @ [4, 2, 1]
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    rank = np.argsort(np.argsort(first))  # variable ids in order of first occurrence
    lits = (rank[inverse] + 1) * orient
    w3, w5 = WEIGHT_3 / m3, WEIGHT_5 / m5
    clauses = [Clause(w3, tuple(c)) for c in lits[:3 * m3].reshape(m3, 3).tolist()]
    clauses += [Clause(w5, tuple(c)) for c in lits[3 * m3:].reshape(m5, 5).tolist()]
    rep = np.sort(first)
    return GapInstance(n, m3, m5, ind[rep], sg[rep], NAEInstance(first.size, tuple(clauses)))


def load_gap(instance_text: str, vector_text: str) -> GapInstance:
    """Rebuild a GapInstance from its serialized instance + vector files.

    Vector rows must be in the sparse form (canonical representatives).
    """
    inst = pipeline.parse_instance(instance_text)
    num_vars, n, (ids, ind, sg), dense = pipeline.read_vector_rows(vector_text)
    if num_vars != inst.num_vars or dense:
        raise StructuralError("gap vectors must be sparse rows, one per instance variable")
    order = np.argsort(ids)
    indices, signs = _vector_rows(ind[order], sg[order], [(0, 1, 2)])
    if np.any((signs > 0).sum(axis=1) < 2):
        raise StructuralError("gap vector rows must be canonical: at least 2 positive signs")
    sizes = {lits.shape[1]: len(lits) for lits, _ in inst.clause_groups}
    return GapInstance(n, sizes.get(3, 0), sizes.get(5, 0), indices, signs, inst)


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


# ---------------------------------------------------------------------------
# rounding rules and moments


def _checked_rule(rule) -> tuple[float, float]:
    """The (p1, p2) of a two-probability rule; each must lie in [0, 1]."""
    p1, p2 = rule
    if not (0.0 <= p1 <= 1.0 and 0.0 <= p2 <= 1.0):  # NaN fails too
        raise DomainError("rule probabilities must lie in [0, 1]")
    return p1, p2


def _rule_coins(rep_positives: np.ndarray, p1: float, p2: float,
                rng: np.random.Generator) -> np.ndarray:
    """The two-probability rule on representatives: +1 with probability p1
    where all three signs are positive, p2 where two are; else -1."""
    p_sel = np.where(rep_positives == 3, p1, p2)
    return np.where(rng.random(rep_positives.shape) < p_sel, 1, -1)


def assignment_moments(rule, n: int, samples: int = 10**6,
                       seed: int = 0) -> tuple[MomentEstimate, MomentEstimate]:
    """(F2, F4) under sunflower sampling for a rounding rule.

    ``rule`` is a (p1, p2) pair (vectorized fast path) or a callable
    mapping a canonical SparseVec to +-1 (an explicit assignment; slower,
    sampled at min(samples, 20000) tuples).
    """
    if samples < 2:
        raise DomainError("a moment estimate and its standard error need at least 2 samples")
    if callable(rule):
        return _assignment_moments_callable(rule, n, min(samples, 20000), seed)
    p1, p2 = _checked_rule(rule)
    rng = np.random.default_rng(seed)
    out = []
    for k in (2, 4):
        if 2 * k + 1 > n:
            raise DomainError(f"D_{k} needs n >= {2 * k + 1}")
        # petal indices never collide inside one tuple, so only the sign
        # pattern matters for the rounding outcome; index sampling is
        # unnecessary for the moment statistics
        positive = rng.integers(0, 2, size=(samples, 2 * k + 1)) > 0
        pos = positive[:, _petal_cols(k)].sum(axis=2, dtype=np.int8)
        x = _orientation(pos) * _rule_coins(np.maximum(pos, 3 - pos), p1, p2, rng)
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
    p1, p2 = _checked_rule(rule)
    mu_var = np.where(gap.positives == 3, 2.0 * p1 - 1.0, 2.0 * p2 - 1.0)
    total = 0.0
    var_acc = 0.0
    for lits, w in gap.instance.clause_groups:
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
    p1, p2 = _checked_rule(rule)
    if trials < 1:
        raise DomainError("need at least one trial")
    rng = np.random.default_rng(seed)
    rep_pos = np.broadcast_to(gap.positives, (trials, len(gap.indices)))
    assignments = _rule_coins(rep_pos, p1, p2, rng).astype(np.int8)
    fracs = pipeline.evaluate_many(gap.instance, assignments)
    mean = float(fracs.mean())
    se = float(fracs.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    exp_frac, sigma_inst = expected_fraction(gap, rule)
    f2_est, f4_est = assignment_moments(rule, gap.n, moment_samples,
                                        seed + 7919)
    pred = mixture_value(WEIGHT_5, f2_est.value, f4_est.value)
    return GapEvaluation(mean, se, trials, float(exp_frac), float(sigma_inst),
                         float(pred), f2_est, f4_est)
