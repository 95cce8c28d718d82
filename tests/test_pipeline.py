import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from naeopt.core import SIGN, Clause, NAEInstance, StepFunction, VectorAssignment
from naeopt.errors import DomainError, StructuralError
from naeopt import gapgen as G, moments as M
from naeopt import pipeline as P

from conftest import array_loop_evaluate

SPEC_TEXT = "c example\np nae 3 2\n1.0 3 1 -2 3\n2.0 2 2 -3\n"


class TestParseInstance:
    def test_example(self):
        inst = P.parse_instance(SPEC_TEXT)
        assert inst.num_vars == 3
        assert len(inst.clauses) == 2
        assert inst.clauses[0].literals == (1, -2, 3)
        assert inst.clauses[1].weight == 2.0

    def test_duplicate_variable_rejected(self):
        with pytest.raises(StructuralError):
            P.parse_instance("p nae 2 1\n1.0 3 1 1 2\n")

    def test_zero_weight_rejected(self):
        with pytest.raises(StructuralError):
            P.parse_instance("p nae 2 1\n0 2 1 2\n")

    def test_malformed_line_reports_number(self):
        with pytest.raises(StructuralError, match="line 3"):
            P.parse_instance("c x\np nae 2 1\n1.0 2 1 x\n")

    def test_header_required(self):
        with pytest.raises(StructuralError):
            P.parse_instance("1.0 2 1 -2\n")

    def test_clause_count_checked(self):
        with pytest.raises(StructuralError):
            P.parse_instance("p nae 2 2\n1.0 2 1 -2\n")

    def test_literal_range_checked(self):
        with pytest.raises(StructuralError):
            P.parse_instance("p nae 2 1\n1.0 2 1 -5\n")

    @pytest.mark.parametrize("text,line", [
        ("p nae x 1\n1.0 2 1 2\n", 1),        # non-numeric header
        ("p nae 2 1.5\n1.0 2 1 2\n", 1),
        ("p nae -1 0\n", 1),                   # negative counts
        ("c\np nae 2 -1\n", 2),
        ("p nae 2 1\nw 2 1 2\n", 2),          # non-numeric weight
        ("p nae 2 1\n1.0 k 1 2\n", 2),
        ("p nae 2 1\n1.0\n", 2),              # weight only
        ("p nae 2 1\nnan 2 1 2\n", 2),        # non-finite weight
        ("p nae 2 1\ninf 2 1 2\n", 2),
    ])
    def test_malformed_tokens_are_structural(self, text, line):
        with pytest.raises(StructuralError, match=f"line {line}"):
            P.parse_instance(text)

    @given(st.lists(st.tuples(st.floats(0.1, 9, allow_nan=False),
                              st.permutations(range(1, 6))),
                    min_size=1, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, raw):
        clauses = tuple(
            Clause(w, tuple(v if i % 2 else -v for i, v in enumerate(perm[:3])))
            for w, perm in raw)
        inst = NAEInstance(5, clauses)
        assert P.parse_instance(P.format_instance(inst)) == inst


class TestVectorFiles:
    def test_dense_round_trip(self, rng):
        v = rng.normal(size=(4, 3))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        va = VectorAssignment(v)
        back = P.parse_vectors(P.format_vectors(va))
        assert np.allclose(back.vectors, va.vectors, atol=1e-15)

    def test_sparse_rows(self):
        text = "v 2 6\n1 s 1:+1 3:-1 5:+1\n2 s 2:-1 4:-1 6:-1\n"
        va = P.parse_vectors(text)
        s3 = 1 / math.sqrt(3)
        assert np.allclose(va.vectors[0], [s3, 0, -s3, 0, s3, 0])
        assert np.allclose(va.vectors[1], [0, -s3, 0, -s3, 0, -s3])

    def test_header_and_coverage_errors(self):
        with pytest.raises(StructuralError):
            P.parse_vectors("1 0.6 0.8\n")
        with pytest.raises(StructuralError):
            P.parse_vectors("v 2 2\n1 1.0 0.0\n")
        with pytest.raises(StructuralError):
            P.parse_vectors("v 1 2\n1 0.5 0.5 0.5\n")

    @pytest.mark.parametrize("indices, signs", [
        (np.array([[0, 1, 2]]), np.array([[1, 1, 1]])),            # one row for two vectors
        (np.array([[0, 1], [2, 3]]), np.array([[1, 1], [1, 1]])),  # two indices per row
        (np.array([[0, 1, 2], [3, 4, 5]]), np.array([[1, 1, 1]])),
    ])
    def test_sparse_rows_of_the_wrong_shape_rejected(self, indices, signs):
        va = P.parse_vectors("v 2 6\n1 s 1:+1 3:-1 5:+1\n2 s 2:-1 4:-1 6:-1\n")
        with pytest.raises(StructuralError, match="3 indices and 3 signs"):
            P.format_vectors(va, (indices, signs))

    def test_duplicate_ids_rejected(self):
        with pytest.raises(StructuralError, match="line 4: duplicate variable id 2"):
            P.parse_vectors("v 2 1\n1 1.0\n2 1.0\n2 -1.0\n")

    @pytest.mark.parametrize("text,line", [
        ("v x 2\n1 1.0 0.0\n", 1),            # non-numeric header
        ("v 1 -2\n", 1),                       # negative count
        ("v 1 2\nv 1 2\n1 1.0 0.0\n", 2),    # second header
        ("v 1 2\none 1.0 0.0\n", 2),          # non-numeric id
        ("v 1 2\n1 1.0 zero\n", 2),           # non-numeric coordinate
        ("v 1 3\n1 s 1\n", 2),                # sparse token without a sign
        ("v 1 3\n1 s 1:x 2:1 3:1\n", 2),
        ("v 1 3\n1 s 1:1 2:1 4:1\n", 2),      # index beyond dim
        ("v 1 3\n1 s 1:1 2:1\n", 2),          # two coordinates
        ("v 1 4\n1 s 1:1 2:1 3:1 4:1\n", 2),  # four coordinates
        ("v 1 3\n1 s 1:1 2:2 3:1\n", 2),      # sign not +-1
        ("v 1 3\n1 s 1:1 1:-1 2:1\n", 2),     # repeated coordinate
    ])
    def test_malformed_tokens_are_structural(self, text, line):
        with pytest.raises(StructuralError, match=f"line {line}"):
            P.parse_vectors(text)

    @pytest.mark.parametrize("index", ["10000000000000000000", "9223372036854775809"])
    def test_sparse_index_beyond_int64_is_structural(self, index):
        text = f"v 1 99999999999999999999\n1 s 1:+1 2:+1 {index}:+1\n"
        with pytest.raises(StructuralError, match="line 2: .* i in 1..9223372036854775808"):
            P.read_vector_rows(text)

    def test_largest_int64_sparse_index_is_read(self):
        text = "v 1 99999999999999999999\n1 s 1:+1 2:+1 9223372036854775808:+1\n"
        _, _, (_, indices, _), _ = P.read_vector_rows(text)
        assert indices.tolist() == [[0, 1, 2**63 - 1]]

    @pytest.mark.parametrize("text", ["v 0 2\n", "v 1 2\n1 nan 0.0\n",
                                      "", "c no header\n"])  # the last two: missing 'v' header
    def test_degenerate_files_are_structural(self, text):
        with pytest.raises(StructuralError):
            P.parse_vectors(text)

    def test_mixed_dense_and_sparse(self):
        text = "v 3 4\n2 0.0 1.0 0.0 0.0\n3 s 1:-1 2:+1 4:+1\n1 s 2:+1 3:+1 4:-1\n"
        s3 = 1 / math.sqrt(3)
        want = np.array([[0, s3, s3, -s3], [0, 1, 0, 0], [-s3, s3, 0, s3]])
        assert np.array_equal(P.parse_vectors(text).vectors,
                              VectorAssignment(want).vectors)
        n, dim, (ids, indices, signs), dense = P.read_vector_rows(text)
        assert (n, dim) == (3, 4)
        assert ids.tolist() == [3, 1]
        assert indices.tolist() == [[0, 1, 3], [1, 2, 3]]
        assert signs.tolist() == [[-1, 1, 1], [1, 1, -1]]
        assert list(dense) == [2] and dense[2].tolist() == [0.0, 1.0, 0.0, 0.0]


def _symmetric_vectors(k: int, rho: float) -> VectorAssignment:
    if rho < 0:
        assert k == 3 and abs(rho + 1 / 3) < 1e-12
        v = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1]]) / math.sqrt(3)
        return VectorAssignment(v)
    v = np.zeros((k, k + 1))
    v[:, 0] = math.sqrt(rho)
    for i in range(k):
        v[i, i + 1] = math.sqrt(1 - rho)
    return VectorAssignment(v)


class TestRounding:
    def test_sign_is_hyperplane(self):
        va = _symmetric_vectors(3, -1 / 3)
        a = P.rpr2_round(va, SIGN, seed=5)
        rng = P._round_rng(5, 0)
        r = rng.standard_normal(va.dim)
        assert np.array_equal(a, np.where(va.vectors @ r >= 0, 1, -1))

    def test_identical_vectors_agree(self):
        va = VectorAssignment(np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
        for seed in range(10):
            a = P.rpr2_round(va, SIGN, seed)
            assert a[0] == a[1]

    def test_deterministic(self):
        va = _symmetric_vectors(5, 0.2)
        a1 = P.rpr2_round(va, StepFunction((1.0,), (-0.5, 1.0)), seed=7, round_index=3)
        a2 = P.rpr2_round(va, StepFunction((1.0,), (-0.5, 1.0)), seed=7, round_index=3)
        assert np.array_equal(a1, a2)

    @pytest.mark.parametrize("seed", [0, 5, 2**63 - 1, 2**63, 2**63 + 5, 2**64 - 1])
    def test_round_key_is_seed_and_round(self, seed):
        key = P._round_rng(seed, 3).bit_generator.state["state"]["key"]
        assert key.tolist() == [seed, 3]
        if seed < 2**63:  # the key a (seed, round) tuple gives, so no earlier stream moves
            old = np.random.Philox(key=(seed, 3)).state["state"]["key"]
            assert np.array_equal(key, old)

    @pytest.mark.parametrize("seed", [-1, 2**64, 2.0])
    def test_seed_domain(self, seed):
        va = _symmetric_vectors(3, -1 / 3)
        inst = NAEInstance(3, (Clause(1.0, (1, 2, 3)),))
        calls = (lambda: P.rpr2_round(va, SIGN, seed),
                 lambda: P.best_of_rounds(inst, va, SIGN, 2, seed),
                 lambda: P.noise_assignment(np.ones(3, np.int8), 0.1, seed))
        for call in calls:
            with pytest.raises(DomainError, match="seed"):
                call()

    def test_zero_function_uniform(self):
        va = _symmetric_vectors(4, 0.5)
        zero = StepFunction((), (0.0,))
        draws = np.array([P.rpr2_round(va, zero, s) for s in range(4000)])
        assert abs(draws.mean()) < 3 / math.sqrt(draws.size)


class TestEvaluate:
    def test_spec_examples(self):
        inst = NAEInstance(2, (Clause(1.0, (1, -2)),))
        assert P.evaluate(inst, np.array([1, 1])) == 1.0
        inst2 = NAEInstance(2, (Clause(1.0, (1, 2)),))
        assert P.evaluate(inst2, np.array([1, 1])) == 0.0

    def test_weighted_fraction(self):
        inst = NAEInstance(2, (Clause(3.0, (1, -2)), Clause(1.0, (1, 2))))
        assert P.evaluate(inst, np.array([1, 1])) == 0.75

    def test_bad_assignment(self):
        inst = NAEInstance(2, (Clause(1.0, (1, 2)),))
        with pytest.raises(StructuralError):
            P.evaluate(inst, np.array([1, 0]))

    def test_bit_identical_to_the_array_loop(self, rng):
        for _ in range(20):
            n = int(rng.integers(5, 12))
            clauses = []
            for _ in range(int(rng.integers(1, 60))):
                k = int(rng.integers(2, 6))
                lits = rng.choice(np.arange(1, n + 1), size=k, replace=False)
                clauses.append(Clause(float(rng.uniform(0.01, 3)),
                                      tuple(int(l) * int(rng.choice([-1, 1])) for l in lits)))
            inst = NAEInstance(n, tuple(clauses))
            for row in rng.choice([-1, 1], size=(4, n)).astype(np.int8):
                assert P.evaluate(inst, row) == array_loop_evaluate(inst, row)

    def test_no_clauses_is_a_domain_error(self):
        inst = P.parse_instance("p nae 1 0\n")
        for call in (lambda: P.evaluate(inst, np.array([1])),
                     lambda: P.evaluate_many(inst, np.array([[1], [-1]])),
                     lambda: P.random_baseline(inst)):
            with pytest.raises(DomainError, match="no clauses"):
                call()

    def test_vectorized_matches_scalar(self, rng):
        clauses = []
        for _ in range(30):
            k = int(rng.integers(2, 6))
            lits = rng.choice(np.arange(1, 9), size=k, replace=False)
            clauses.append(Clause(float(rng.uniform(0.1, 2)),
                                  tuple(int(l) * int(rng.choice([-1, 1])) for l in lits)))
        inst = NAEInstance(8, tuple(clauses))
        rows = rng.choice([-1, 1], size=(6, 8))
        many = P.evaluate_many(inst, rows)
        singles = [P.evaluate(inst, r) for r in rows]
        assert np.allclose(many, singles, atol=1e-15)


class TestBaselinesAndRounds:
    def test_random_baseline(self):
        inst = NAEInstance(4, (Clause(1.0, (1, 2)),))
        assert P.random_baseline(inst) == 0.5
        inst4 = NAEInstance(4, (Clause(1.0, (1, 2, 3, 4)),))
        assert P.random_baseline(inst4) == 7 / 8
        p = 3 / math.sqrt(21)
        mixed = NAEInstance(5, (Clause(1 - p, (1, 2, 3)), Clause(p, (1, 2, 3, 4, 5))))
        assert abs(P.random_baseline(mixed) - ((1 - p) * 0.75 + p * 15 / 16)) < 1e-12

    def test_best_of_rounds_prefix_monotone(self):
        va = _symmetric_vectors(3, -1 / 3)
        inst = NAEInstance(3, (Clause(1.0, (1, 2, 3)),))
        vals = [P.best_of_rounds(inst, va, SIGN, r, seed=3)[1] for r in (1, 2, 5, 9)]
        assert all(vals[i] <= vals[i + 1] for i in range(len(vals) - 1))

    @pytest.mark.parametrize("rounds", [0, -1])
    def test_needs_a_round(self, rounds):
        va = _symmetric_vectors(3, -1 / 3)
        inst = NAEInstance(3, (Clause(1.0, (1, 2, 3)),))
        with pytest.raises(DomainError, match="round"):
            P.best_of_rounds(inst, va, SIGN, rounds, seed=0)

    def test_single_round_reduction(self):
        va = _symmetric_vectors(3, -1 / 3)
        inst = NAEInstance(3, (Clause(1.0, (1, 2, 3)),))
        best, val = P.best_of_rounds(inst, va, SIGN, 1, seed=12)
        assert val == P.evaluate(inst, P.rpr2_round(va, SIGN, 12, 0))


class TestNoise:
    def test_zero_delta_identity(self, rng):
        x = rng.choice([-1, 1], size=100).astype(np.int8)
        assert np.array_equal(P.noise_assignment(x, 0.0, seed=1), x)

    def test_flip_rate(self, rng):
        x = rng.choice([-1, 1], size=10**6).astype(np.int8)
        delta = 0.13
        y = P.noise_assignment(x, delta, seed=2)
        rate = np.mean(y != x)
        assert abs(rate - delta) < 3 * math.sqrt(delta * (1 - delta) / x.size)

    def test_untouched_lower_bound(self):
        # satisfied clauses stay satisfied at least as often as they are
        # untouched: empirical rate >= Q_k(delta) - 3 sigma
        k, delta, m = 4, 0.08, 20000
        rng = np.random.default_rng(7)
        x = np.ones(k * m, dtype=np.int8)
        x[::k] = -1  # every clause (groups of k) satisfied
        lits = np.arange(1, k * m + 1).reshape(m, k)
        inst_vals_before = True
        y = P.noise_assignment(x, delta, seed=8)
        groups = y.reshape(m, k)
        still = np.mean(groups.max(axis=1) != groups.min(axis=1))
        q = P.pq_values(k, delta)[1]
        assert inst_vals_before and still >= q - 3 * math.sqrt(q * (1 - q) / m)

    def test_domain(self):
        with pytest.raises(DomainError):
            P.noise_assignment(np.array([1, -1]), 0.7, seed=0)


class TestPQ:
    def test_closed_forms(self):
        assert P.pq_values(3, 0.0) == (0.0, 1.0)
        p2, _ = P.pq_values(2, 0.5)
        assert abs(p2 - 0.5) < 1e-15
        assert abs(P.pq_values(3, 0.1)[1] - 0.512) < 1e-15

    @pytest.mark.parametrize("k, delta", [(0, 0.1), (-2, 0.1), (3, -0.1), (3, 0.6),
                                          (3, math.nan)])
    def test_domain(self, k, delta):
        with pytest.raises(DomainError):
            P.pq_values(k, delta)

    @given(st.integers(1, 30), st.floats(0.0, 0.5))
    @settings(max_examples=100)
    def test_ranges(self, k, delta):
        p, q = P.pq_values(k, delta)
        assert -1e-12 <= p <= 1.0 and 0.0 <= q <= 1.0  # raw closed form, fp noise


class TestPipelineAgainstMoments:
    @pytest.mark.parametrize("k", [3, 5, 7])
    def test_symmetric_clause_matches_sat_prob(self, k):
        rho = 1 - 4 / k
        f = StepFunction((2.275193649,), (-1.0, 1.0))
        va = _symmetric_vectors(k, rho) if k > 3 else _symmetric_vectors(3, -1 / 3)
        inst = NAEInstance(k, (Clause(1.0, tuple(range(1, k + 1))),))
        rounds = 40000
        hits = sum(P.evaluate(inst, P.rpr2_round(va, f, seed=s)) for s in range(rounds))
        got = hits / rounds
        want = M.sat_prob_symmetric(f, k, rho)
        assert abs(got - want) < 3 * math.sqrt(want * (1 - want) / rounds)

    def test_zero_function_matches_baseline(self):
        va = _symmetric_vectors(4, 0.5)
        inst = NAEInstance(4, (Clause(1.0, (1, 2, 3, 4)),))
        zero = StepFunction((), (0.0,))
        rounds = 40000
        hits = sum(P.evaluate(inst, P.rpr2_round(va, zero, seed=s)) for s in range(rounds))
        want = P.random_baseline(inst)
        assert abs(hits / rounds - want) < 3 * math.sqrt(want * (1 - want) / rounds)


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


class TestBitPins:
    """Digests of the vector arrays and of the rounding draws, taken before
    VectorAssignment and the gap readers stopped copying their arrays and
    before the rounding generator is reworked; neither is to move a bit."""

    SEEDS = (0, 5, 2**63 + 5, 2**64 - 1)

    @pytest.mark.parametrize("args, digest", [
        ((48, 400, 400, 13), "b97a2029cb781202a8c64ac5896ce86e28d4b351a51774a93f4c6c201eff1e5b"),
        ((12, 300, 200, 9), "5750e48ed8d9c65d784b70c640ed1c1df3538a01b2127e1edde07372961b67df"),
    ])
    def test_gap_vectors(self, args, digest):
        gap = G.gen_gap_instance(*args)
        va = gap.vector_assignment()
        assert _digest([va.vectors]) == digest
        assert _digest([P.parse_vectors(P.format_vectors(va, gap.sparse_rows())).vectors]) \
            == digest

    @pytest.mark.parametrize("d, digest", [
        (1, "89b92adf650ae91c32b3cdc9fb51291f1184775854b750397ccb9377288e11b2"),
        (3, "d5021003304efe9dfa6dfcba96a85fccb875c5d2f29cdce2a884aeb9c1262833"),
        (48, "820682e0f5c66f9238c05fc4baf4f526d60c6cc4428e1e22728857652b9453fd"),
        (200, "829bd8636303798b2a5d70336d6ff3b823e738e4d36c10d4f5317614030cad9a"),
    ])
    def test_dense_rows_renormalized(self, d, digest):
        # rows enough for three 2^16-element blocks; norms off 1 by up to 1e-7
        rng = np.random.default_rng(d)
        v = rng.normal(size=(3 * 2**16 // d + 7, d))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        v *= 1.0 + rng.uniform(-1e-7, 1e-7, size=(len(v), 1))
        # a Fortran-ordered array sums each row in another order: its bits are pinned too
        got = [VectorAssignment(v).vectors, VectorAssignment(np.asfortranarray(v)).vectors]
        assert _digest(got) == digest

    def test_rounding_draws(self):
        rng = np.random.default_rng(77)
        v = rng.normal(size=(300, 7))
        va = VectorAssignment(v / np.linalg.norm(v, axis=1, keepdims=True))
        f = StepFunction((0.3, 1.1), (0.25, -0.4, 0.9))  # off +-1: every coin counts
        got = []
        for seed in self.SEEDS:
            for r in (0, 3):
                a = P.rpr2_round(va, f, seed, r)
                got += [a, P.noise_assignment(a, 0.2, seed)]
        assert _digest(got) == "35f71a7f3f9d766bdffc0429d7564f4c85b4b7b693a24ceb1b41b2529ca4841e"
