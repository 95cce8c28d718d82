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
import numbers
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .core import NAEInstance, VectorAssignment, checked_seed
from .errors import DomainError, StructuralError
from .hardness import F2_STAR, P_STAR, mixture_value
from .moments import _MOMENT_CHUNK, MomentEstimate
from . import pipeline

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

    def negate(self) -> "SparseVec":
        return SparseVec(self.indices, tuple(-s for s in self.signs))

    def dot_numerator(self, other: "SparseVec") -> int:
        """3 * (self . other), an exact integer."""
        mine = dict(zip(self.indices, self.signs))
        return sum(s * mine[i] for i, s in zip(other.indices, other.signs) if i in mine)


def _petal_cols(k: int) -> list[tuple[int, int, int]]:
    return [(0, 2 * j + 1, 2 * j + 2) for j in range(k)]


_CLAUSE3 = ([(0, 1, 3), (1, 2, 4), (2, 0, 5)], (1, -1, 1))
_CLAUSE5 = (_petal_cols(4) + [(9, 10, 11)], 1)


_TUPLE_BLOCK = 1 << 16  # uniforms drawn and sorted at a time by _sample_tuples


def _sample_tuples(rng: np.random.Generator, m: int, n: int, width: int):
    """m rows of ``width`` distinct coordinates of n (the head of a uniform
    permutation, from the argsort of n uniforms) with uniform signs.  The
    uniforms are drawn and sorted about 2^16 at a time: rows sort on their
    own and the generator fills them in sequence, so the blocks give the
    rows of one (m, n) draw."""
    idx = np.empty((m, width), np.intp)
    rows = max(1, _TUPLE_BLOCK // n)
    for lo in range(0, m, rows):
        block = idx[lo:lo + rows]
        block[:] = np.argsort(rng.random((len(block), n)), axis=1)[:, :width]
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


def _sunflower_rows(rng: np.random.Generator, m: int, n: int, k: int):
    """(indices, signs) rows of m draws of D_k, the k petals of a draw together."""
    if 2 * k + 1 > n:
        raise DomainError(f"D_{k} needs at least {2 * k + 1} coordinates, have {n}")
    return _vector_rows(*_sample_tuples(rng, m, n, 2 * k + 1), _petal_cols(k))


def sunflower_sample(n: int, k: int, seed: int) -> tuple[SparseVec, ...]:
    """One draw of the k-vector sunflower distribution D_k."""
    return _sparse_vecs(*_sunflower_rows(np.random.default_rng(checked_seed(seed)), 1, n, k))


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
        signed = self.variables + tuple(v.negate() for v in self.variables)
        rows = [np.fromiter((tuple(map(signed.__getitem__, r)) for r in
                             np.where(lits > 0, lits - 1, len(self.variables) - lits - 1).tolist()),
                            object, len(lits))
                for lits, _ in self.instance.clause_groups]
        return tuple(self.instance.in_clause_order(rows).tolist())

    def pair_numerators(self) -> tuple[np.ndarray, ...]:
        """3 * the dot product of the vectors of every literal pair of every
        clause, exact integers: one (m, k(k-1)/2) array per clause group of
        ``instance.clause_groups``, pairs (a, b) in np.triu_indices(k, 1)
        order.  A negative literal is the negated variable."""
        out = []
        for lits, _ in self.instance.clause_groups:
            var = np.abs(lits) - 1
            ind = self.indices[var]                                    # (m, k, 3)
            sg = self.signs[var] * np.sign(lits)[..., None]
            a, b = np.triu_indices(lits.shape[1], 1)
            num = np.zeros((len(lits), len(a)), np.int64)
            for i in range(3):  # coordinates are distinct within a vector: one match at most
                for j in range(3):
                    num += np.where(ind[:, a, i] == ind[:, b, j], sg[:, a, i] * sg[:, b, j], 0)
            out.append(num)
        return tuple(out)

    @property
    def positives(self) -> np.ndarray:
        """Positive-sign count (2 or 3) of each variable's representative."""
        return (self.signs > 0).sum(axis=1)

    def vector_assignment(self) -> VectorAssignment:
        return VectorAssignment._from_sparse_rows((len(self.indices), self.n),
                                                  np.arange(len(self.indices)),
                                                  self.indices, self.signs)

    def sparse_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """(indices, signs) of every variable, as ``pipeline.format_vectors`` takes them."""
        return self.indices, self.signs


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
    rng = np.random.default_rng(checked_seed(seed))
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
    groups = [(lits[:3 * m3].reshape(m3, 3), np.full(m3, WEIGHT_3 / m3)),
              (lits[3 * m3:].reshape(m5, 5), np.full(m5, WEIGHT_5 / m5))]
    inst = NAEInstance.from_groups(first.size, groups, np.repeat([0, 1], [m3, m5]))
    rep = np.sort(first)
    return GapInstance(n, m3, m5, ind[rep], sg[rep], inst)


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
    if sizes.keys() - {3, 5}:
        raise StructuralError("gap instance clauses have 3 or 5 literals, "
                              f"not {sorted(sizes.keys() - {3, 5})}")
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
    """The (p1, p2) of a two-probability rule: a pair of reals in [0, 1]."""
    try:
        p1, p2 = rule
    except (TypeError, ValueError):
        raise DomainError(f"a rule is a pair (p1, p2), got {rule!r}") from None
    if not all(isinstance(p, numbers.Real) and 0.0 <= p <= 1.0  # NaN fails too
               for p in (p1, p2)):
        raise DomainError("rule probabilities must be real numbers in [0, 1]")
    return p1, p2


def _rule_coins(rep_positives: np.ndarray, p1: float, p2: float, trials: int,
                rng: np.random.Generator) -> np.ndarray:
    """``trials`` int8 rows of the two-probability rule on representatives:
    +1 with probability p1 where all three signs are positive, p2 where two
    are; else -1.  A row of uniforms at a time reads the stream of one
    (trials, V) draw."""
    p = np.where(rep_positives == 3, p1, p2)
    coins = np.empty((trials, p.size), np.int8)
    for row in coins:
        row[:] = rng.random(p.size) < p
    coins *= 2
    coins -= 1
    return coins


def assignment_moments(rule, n: int, samples: int = 10**6,
                       seed: int = 0) -> tuple[MomentEstimate, MomentEstimate]:
    """(F2, F4) under sunflower sampling for a rounding rule.

    ``rule`` is a (p1, p2) pair or a callable taking the (m, 3) indices
    and signs of m canonical representatives to one +-1 per row (an
    explicit assignment, sampled at min(samples, 20000) tuples).
    """
    if samples < 2:
        raise DomainError("a moment estimate and its standard error need at least 2 samples")
    rng = np.random.default_rng(checked_seed(seed))
    if callable(rule):
        samples = min(samples, 20000)
        products = partial(_rule_products, rule, n)
    else:
        products = partial(_sunflower_products, *_checked_rule(rule))
    if n < 9:
        raise DomainError(f"D_4 needs at least 9 coordinates, have {n}")
    f2, f4 = (_estimate(products(k, samples, rng)) for k in (2, 4))
    return f2, f4


def _sunflower_products(p1: float, p2: float, k: int, samples: int,
                        rng: np.random.Generator) -> np.ndarray:
    """The int8 +-1 product of the k petal values of each of ``samples`` draws.

    Petal indices never collide inside one tuple, so only the sign
    pattern matters for the rounding outcome: no index is sampled.  Each
    draw takes 2k+1 sign coins, then (after every draw's coins) k rule
    uniforms.  A uint32 coin is one next_uint32 of the bit generator, as
    an int64 one is, so the chunks give the stream of one whole-run draw.
    """
    pos = np.empty((samples, k), np.uint8)  # positive signs per petal
    for lo in range(0, samples, _MOMENT_CHUNK):
        c = rng.integers(0, 2, size=(min(_MOMENT_CHUNK, samples - lo), 2 * k + 1),
                         dtype=np.uint32).astype(np.uint8)
        chunk = pos[lo:lo + len(c)]
        np.add(c[:, 1::2], c[:, 2::2], out=chunk)
        chunk += c[:, :1]
    # a petal is -1 when its representative is the negation (< 2 positive
    # signs) or its coin is -1 (u >= p), not both; p is p1 on the sign
    # patterns with 0 or 3 positive signs, else p2
    p = np.where([True, False, False, True], p1, p2)
    prods = np.empty(samples, np.int8)
    for lo in range(0, samples, _MOMENT_CHUNK):
        chunk = pos[lo:lo + _MOMENT_CHUNK]
        neg = (chunk < 2) == (rng.random(chunk.shape) < p.take(chunk))
        bits = neg.view(f"u{k}")[:, 0]  # a draw's k bools as one integer, k = 2 or 4
        for shift in (16, 8) if k == 4 else (8,):
            bits ^= bits >> shift  # fold: the low bit becomes the parity of the k bools
        prods[lo:lo + len(chunk)] = bits & 1  # 1 where the product is -1
    prods *= -2
    prods += 1
    return prods


def _estimate(prods: np.ndarray) -> MomentEstimate:
    """Sample mean with its ddof=1 standard error.  Integer products give
    the bits float ones do: their float64 sum is exact either way, and the
    deviations from the mean are the same float64 values."""
    return MomentEstimate(float(prods.mean()),
                          float(prods.std(ddof=1) / math.sqrt(prods.size)), prods.size,
                          prods.size)


def _rule_products(rule, n: int, k: int, samples: int, rng: np.random.Generator) -> np.ndarray:
    """The +-1 product of the k petal values of each of ``samples`` draws of
    D_k under an explicit rule, called once on the canonical rows of all petals."""
    ind, sg = _sunflower_rows(rng, samples, n, k)
    orient = _orientation((sg > 0).sum(axis=1))
    values = np.asarray(rule(ind, sg * orient[:, None]))
    if values.shape != orient.shape or not np.all((values == 1) | (values == -1)):
        raise DomainError("a callable rule must return one +-1 per row")
    return np.where(values == 1, orient, -orient).reshape(samples, k).prod(axis=1)


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
        total += float(np.einsum("i,i->", w, e_sat))  # BLAS dot rounds by thread count
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
    rng = np.random.default_rng(checked_seed(seed))
    fracs = pipeline.evaluate_many(gap.instance, _rule_coins(gap.positives, p1, p2, trials, rng))
    mean = float(fracs.mean())
    se = float(fracs.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    exp_frac, sigma_inst = expected_fraction(gap, rule)
    f2_est, f4_est = assignment_moments(rule, gap.n, moment_samples,
                                        (seed + 7919) % 2**64)  # a seed, so in [0, 2**64)
    pred = mixture_value(WEIGHT_5, f2_est.value, f4_est.value)
    return GapEvaluation(mean, se, trials, float(exp_frac), float(sigma_inst),
                         float(pred), f2_est, f4_est)
