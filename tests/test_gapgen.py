import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from naeopt.core import NAEInstance, StepFunction, VectorAssignment
from naeopt.errors import DomainError, StructuralError
from naeopt import gapgen as G
from naeopt import hardness as H
from naeopt import pipeline as P

from conftest import array_loop_evaluate, peak_traced_mb

SMALL = dict(n=48, m3=400, m5=400, seed=13)


def _files(gap):
    return (P.format_instance(gap.instance),
            P.format_vectors(gap.vector_assignment(), gap.sparse_rows()))


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture(scope="module")
def small_gap():
    return G.gen_gap_instance(**SMALL)


@pytest.fixture(scope="module")
def loaded_gap(small_gap):
    return G.load_gap(*_files(small_gap))


@pytest.fixture(params=["generated", "loaded"])
def gap(request, small_gap, loaded_gap):
    return small_gap if request.param == "generated" else loaded_gap


class TestSparseVec:
    def test_validation(self):
        with pytest.raises(StructuralError):
            G.SparseVec((2, 1, 3), (1, 1, 1))
        with pytest.raises(StructuralError):
            G.SparseVec((0, 1, 2), (1, 2, 1))

    def test_unit_norm_and_dot(self):
        v = G.SparseVec((0, 3, 7), (1, -1, 1))
        w = G.SparseVec((0, 3, 9), (1, 1, 1))
        assert v.dot_numerator(w) == 0       # +1 - 1 on shared coords
        gap = G.GapInstance(10, 0, 0, np.array([v.indices, w.indices]),
                            np.array([v.signs, w.signs]), NAEInstance(2, ()))
        dv, dw = gap.vector_assignment().vectors
        assert abs(np.linalg.norm(dv) - 1.0) < 1e-15
        assert abs(dv @ dw) < 1e-15


# 3 * the pair biases of a clause, pairs in np.triu_indices(k, 1) order: -1
# in a 3-clause; 1 among a 5-clause's four petals, 0 against its fifth vector
EXACT_NUMERATORS = {3: -1, 5: np.where(np.triu_indices(5, 1)[1] < 4, 1, 0)}


def _object_numerators(gap):
    """pair_numerators through SparseVec.dot_numerator, one clause at a time."""
    per_clause = [[vecs[a].dot_numerator(vecs[b]) for a, b in zip(*np.triu_indices(len(vecs), 1))]
                  for vecs in gap.clause_vectors]
    return tuple(np.array([per_clause[i] for i in np.flatnonzero(gap.instance.clause_group == g)])
                 for g in range(len(gap.instance.clause_groups)))


class TestGeneration:
    def test_exact_bias_patterns(self, gap):
        groups = gap.instance.clause_groups
        assert [lits.shape[1] for lits, _ in groups] == [3, 5]
        for (lits, _), nums in zip(groups, gap.pair_numerators()):
            assert np.all(nums == EXACT_NUMERATORS[lits.shape[1]])

    def test_weights(self, small_gap):
        inst = small_gap.instance
        assert abs(inst.total_weight - 1.0) < 1e-12
        w3 = sum(c.weight for c in inst.clauses if len(c.literals) == 3)
        assert abs(w3 - (1 - 3 / math.sqrt(21))) < 1e-12

    def test_variables_are_canonical(self, small_gap):
        for v in small_gap.variables:
            assert sum(s > 0 for s in v.signs) >= 2

    def test_small_n_rejected(self):
        with pytest.raises(DomainError):
            G.gen_gap_instance(11, 10, 10, seed=0)

    @pytest.mark.parametrize("m3, m5", [(0, 5), (5, 0), (-1, 5)])
    def test_needs_a_clause_of_each_size(self, m3, m5):
        with pytest.raises(DomainError, match="one clause of each size"):
            G.gen_gap_instance(12, m3, m5, seed=0)

    def test_n_beyond_the_variable_key_rejected(self):
        with pytest.raises(DomainError):
            G.gen_gap_instance(2**20 + 1, 1, 1, seed=0)

    def test_deterministic(self):
        a = G.gen_gap_instance(24, 50, 50, seed=3)
        b = G.gen_gap_instance(24, 50, 50, seed=3)
        assert a.instance == b.instance and a.variables == b.variables

    def test_file_round_trip(self, small_gap, loaded_gap):
        assert loaded_gap.variables == small_gap.variables
        assert loaded_gap.instance == small_gap.instance
        assert loaded_gap.num_3clauses == small_gap.num_3clauses
        assert loaded_gap.num_5clauses == small_gap.num_5clauses
        assert loaded_gap.clause_vectors == small_gap.clause_vectors
        assert len(loaded_gap.clause_vectors) == SMALL["m3"] + SMALL["m5"]

    @pytest.mark.parametrize("vectors", [
        "v 3 6\n1 s 1:+1 2:+1 3:+1\n2 s 1:+1 2:+1 4:-1\n",     # too few variables
        "v 3 6\n1 s 1:+1 2:+1 3:+1\n2 s 1:+1 2:+1 4:-1\n3 1 0 0 0 0 0\n",  # dense row
        "v 3 6\n1 s 1:+1 2:+1 3:+1\n2 s 1:+1 2:+1 4:-1\n3 s 1:+1 2:-1 5:-1\n",  # not canonical
    ])
    def test_load_rejects_mismatched_vectors(self, vectors):
        with pytest.raises(StructuralError):
            G.load_gap("p nae 3 1\n1.0 3 1 2 3\n", vectors)

    @pytest.mark.parametrize("clauses", ["1.0 2 1 2\n1.0 4 1 2 3 4\n", "1.0 3 1 2 3\n1.0 4 1 2 3 4\n"])
    def test_load_rejects_other_clause_sizes(self, small_gap, clauses):
        vectors = _files(small_gap)[1]
        with pytest.raises(StructuralError, match="3 or 5 literals"):
            G.load_gap(f"p nae {small_gap.instance.num_vars} 2\n{clauses}", vectors)

    def test_load_rejects_a_sparse_index_beyond_int64(self, small_gap):
        inst_text = _files(small_gap)[0]
        # every variable has a row, so only the index can be at fault
        num_vars = small_gap.instance.num_vars
        vectors = (f"v {num_vars} 99999999999999999999\n1 s 1:+1 2:+1 10000000000000000000:+1\n"
                   + "".join(f"{v} s 1:+1 2:+1 3:+1\n" for v in range(2, num_vars + 1)))
        with pytest.raises(StructuralError, match="line 2"):
            G.load_gap(inst_text, vectors)

    def test_arrays_match_the_objects(self, gap):
        variables = gap.variables
        assert gap.positives.tolist() == [sum(s > 0 for s in v.signs) for v in variables]
        dense = np.zeros((len(variables), gap.n))
        for row, v in zip(dense, variables):
            for i, s in zip(v.indices, v.signs):
                row[i] = s / math.sqrt(3)
        got = gap.vector_assignment().vectors.tobytes()
        assert got == VectorAssignment(dense).vectors.tobytes()
        assert got == P.parse_vectors(_files(gap)[1]).vectors.tobytes()
        indices, signs = gap.sparse_rows()
        assert indices.tolist() == [list(v.indices) for v in variables]
        assert signs.tolist() == [list(v.signs) for v in variables]
        for arr in (gap.indices, gap.signs):
            with pytest.raises(ValueError):
                arr[0, 0] = 0

    def test_shuffled_vector_file_loads_the_same_rows(self, small_gap):
        inst_text, vec_text = _files(small_gap)
        header, *rows = vec_text.splitlines()
        order = np.random.default_rng(4).permutation(len(rows))
        shuffled = [header, "c shuffled rows", ""]
        for pos, r in enumerate(order):
            shuffled.append(rows[r])
            if pos % 97 == 0:
                shuffled += ["", "c a comment"]
        back = G.load_gap(inst_text, "\n".join(shuffled) + "\n")
        assert np.array_equal(back.indices, small_gap.indices)
        assert np.array_equal(back.signs, small_gap.signs)
        assert back.instance == small_gap.instance

    def test_evaluate_bits_match_the_array_loop(self, gap):
        va = gap.vector_assignment()
        f = StepFunction((2.275193649,), (-1.0, 1.0))
        for r in range(4):
            a = P.rpr2_round(va, f, seed=11, round_index=r)
            assert P.evaluate(gap.instance, a) == array_loop_evaluate(gap.instance, a)

    def test_gram_of_vectors_is_valid(self, small_gap):
        from naeopt.core import GramConfig, validate_gram
        v = small_gap.vector_assignment().vectors[:50]
        assert validate_gram(GramConfig(v @ v.T)).accepted


class TestPairNumerators:
    def test_matches_the_objects(self, gap):
        got, want = gap.pair_numerators(), _object_numerators(gap)
        assert len(got) == len(want) == 2
        assert all(np.array_equal(a, b) and a.dtype.kind == "i" for a, b in zip(got, want))

    @pytest.mark.parametrize("n, seed", [(12, 1), (14, 2), (48, 3)])
    def test_matches_the_objects_on_mutated_vectors(self, n, seed):
        # fresh index rows and flipped signs: every numerator from -3 to 3 can occur
        base = G.gen_gap_instance(n, 60, 60, seed)
        rng = np.random.default_rng(seed)
        indices = np.sort(np.argsort(rng.random((len(base.indices), n)), axis=1)[:, :3], axis=1)
        keep = rng.random(len(indices)) < 0.5
        indices[keep] = base.indices[keep]
        signs = base.signs * rng.choice([-1, 1], size=base.signs.shape)
        gap = G.GapInstance(n, base.num_3clauses, base.num_5clauses, indices, signs,
                            base.instance)
        got, want = gap.pair_numerators(), _object_numerators(gap)
        assert len(got) == len(want) == 2
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
        assert not np.all(got[0] == -1)


class TestPinnedOutputs:
    """Digests of the generated files, an evaluation, moment estimates and
    sunflower draws, computed before generation was vectorized: the array
    path must reproduce every one bit for bit."""

    @pytest.mark.parametrize("args, digest", [
        ((48, 400, 400, 13),
         "497c5fcc92f30b23958c4530295b9eaf28b46a5142b1d15aa66f67ce4843adb0"),
        ((12, 300, 200, 9),
         "c31bf22b27f35fc348046b5082f33c99f6e8b4b4052f7b652ed861f5596b434f"),
    ])
    def test_instance_and_vector_files(self, args, digest):
        assert _sha("".join(_files(G.gen_gap_instance(*args)))) == digest

    def test_evaluation(self, loaded_gap):
        res = G.evaluate_gap(loaded_gap, (G.P1_STAR, 0.0), trials=20, seed=13,
                             moment_samples=10**5)
        assert _sha(repr(res)) == \
            "ebd8383231c3b9934b91ac4ea2aa046fd384fd05699f0356509df05ae885f989"

    def test_estimates_do_not_depend_on_blas_threads(self):
        # OpenBLAS splits a long dot product or matrix-vector product across
        # its threads, and the split rounds differently: through np.dot, a
        # 10^6-sample standard error and expected_fraction at 2*10^4 + 2*10^4
        # clauses did, and through @, the measured fraction at 10^5 + 10^5
        code = "\n".join([
            "from naeopt import gapgen as G, moments as M",
            "from naeopt.core import GramConfig, StepFunction",
            "f = StepFunction((0.4, 1.3), (0.2, 0.7, 1.0))",
            "gram = GramConfig([[1.0, 0.3], [0.3, 1.0]])",
            "print(repr(M.moment_mc(f, gram, samples=10**6 + 5, seed=3)))",
            "for m in (2 * 10**4, 10**5):",
            "    gap = G.gen_gap_instance(48, m, m, 0)",
            "    print(repr(G.evaluate_gap(gap, (G.P1_STAR, 0.0), trials=20, seed=0,",
            "                              moment_samples=10**5)))"])
        src = Path(__file__).resolve().parent.parent / "src"
        outs = [subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                               check=True, env={**os.environ, "PYTHONPATH": str(src),
                                                "OPENBLAS_NUM_THREADS": threads}).stdout
                for threads in ("1", "2")]
        assert outs[0].count("MomentEstimate(") == 5
        assert outs[0] == outs[1]

    def test_assignment_moments(self):
        got = [G.assignment_moments(rule, 48, samples=10**5, seed=6)
               for rule in ((0.3, 0.1), (G.P1_STAR, 0.0))]
        assert _sha(repr(got)) == \
            "af2517be4c8ab37113e35fca50b7a517b68af4d6496af31a9efb5b30febc1939"

    def test_sunflower_samples(self):
        got = [G.sunflower_sample(30, k, s) for k in (1, 2, 4, 5) for s in range(5)]
        assert _sha(repr(got)) == \
            "b6042b872bfce5945aca610b92fedd30a10f0c780c9a3ea9c8881e8e9f254ff3"


class TestWitnesses:
    def test_rows_satisfy_nae(self):
        for kind in (3, 5):
            for prob, row in G.completeness_witness(kind):
                assert prob > 0
                assert max(row) != min(row)

    def test_probabilities_sum_to_one(self):
        for kind in (3, 5):
            assert abs(sum(p for p, _ in G.completeness_witness(kind)) - 1.0) < 1e-15

    def test_pair_expectations_match_biases(self):
        def pair_expectations(kind):
            probs, rows = zip(*G.completeness_witness(kind))
            x = np.array(rows)
            a, b = np.triu_indices(kind, 1)
            return np.array(probs) @ (x[:, a] * x[:, b])

        assert np.allclose(pair_expectations(3), -1 / 3, atol=1e-15)
        # order: (1,2),(1,3),(1,4),(1,5),(2,3),(2,4),(2,5),(3,4),(3,5),(4,5)
        want = [1 / 3, 1 / 3, 1 / 3, 0, 1 / 3, 1 / 3, 0, 1 / 3, 0, 0]
        assert np.allclose(pair_expectations(5), want, atol=1e-15)

    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            G.completeness_witness(4)


class TestSunflower:
    def test_pairwise_dot_third(self):
        for seed in range(5):
            vecs = G.sunflower_sample(30, 5, seed)
            for a in range(5):
                for b in range(a + 1, 5):
                    assert vecs[a].dot_numerator(vecs[b]) == 1

    def test_single_vector(self):
        (v,) = G.sunflower_sample(10, 1, 0)
        assert isinstance(v, G.SparseVec)

    def test_dimension_requirement(self):
        with pytest.raises(DomainError):
            G.sunflower_sample(10, 5, 0)

    @pytest.mark.parametrize("seed", [-1, 2**64, 1.0])
    def test_seed_domain(self, small_gap, seed):
        calls = (lambda: G.sunflower_sample(30, 5, seed),
                 lambda: G.gen_gap_instance(12, 5, 5, seed),
                 lambda: G.assignment_moments((G.P1_STAR, 0), 48, 10, seed),
                 lambda: G.assignment_moments(lambda i, s: np.ones(len(i)), 48, 10, seed),
                 lambda: G.evaluate_gap(small_gap, (G.P1_STAR, 0), 2, seed, 10))
        for call in calls:
            with pytest.raises(DomainError, match="seed"):
                call()


class TestAssignmentMoments:
    def test_tuned_rule_hits_targets(self):
        f2, f4 = G.assignment_moments((G.P1_STAR, 0.0), 48, samples=4 * 10**5, seed=2)
        assert abs(f2.value - G.F2_STAR) < 3 * f2.std_error
        assert abs(f4.value - G.F2_STAR**2) < 3 * f4.std_error

    def test_deterministic_rule_f2_zero(self):
        f2, f4 = G.assignment_moments((1.0, 0.0), 48, samples=10**5, seed=4)
        assert abs(f2.value) < 3 * max(f2.std_error, 1e-4)

    def test_random_rule_f2_zero(self):
        f2, _ = G.assignment_moments((0.5, 0.5), 48, samples=10**5, seed=5)
        assert abs(f2.value) < 3 * f2.std_error

    def test_f2_is_a_square(self):
        for p1, p2 in ((0.3, 0.1), (0.9, 0.4), (0.0, 0.0)):
            f2, _ = G.assignment_moments((p1, p2), 48, samples=10**5, seed=6)
            m = (p1 + p2 - 1.0) / 2.0
            assert abs(f2.value - m * m) < 3 * max(f2.std_error, 1e-12)
            assert f2.value > -3 * f2.std_error

    def test_callable_rule_f4_dominates(self):
        def parity(indices, signs):
            return signs.prod(axis=1)

        for n in (24, 48, 96):
            f2, f4 = G.assignment_moments(parity, n, samples=4000, seed=8)
            slack = 3 * (f2.std_error + f4.std_error) + 10.0 / n
            assert f4.value >= f2.value**2 - slack

    @pytest.mark.parametrize("value", [2, 0.5, 0, -1.5, math.nan, "1", None])
    def test_callable_rule_must_return_a_sign(self, value):
        # the first representative drawn rounds to value, the rest to +1
        def rule(indices, signs):
            values = np.ones(len(indices), object)
            values[0] = value
            return values

        with pytest.raises(DomainError):
            G.assignment_moments(rule, 24, samples=50)

    @pytest.mark.parametrize("rule", [lambda i, s: 1, lambda i, s: s, lambda i, s: s[1:, 0]],
                             ids=["scalar", "three per row", "one row short"])
    def test_callable_rule_must_return_one_value_per_row(self, rule):
        with pytest.raises(DomainError):
            G.assignment_moments(rule, 24, samples=50)

    def test_callable_rule_accepts_any_exact_sign(self):
        def parity(indices, signs):
            return signs.prod(axis=1)

        want = G.assignment_moments(parity, 24, samples=200, seed=3)
        for dtype in (float, np.int8, np.float32, object):
            assert G.assignment_moments(lambda i, s: parity(i, s).astype(dtype), 24,
                                        samples=200, seed=3) == want

    def test_callable_rule_matches_a_loop_over_draws(self):
        # the one call per k against a per-draw, per-petal loop on the same
        # draws: canonicalize each petal, round it, undo the orientation
        calls = []

        def rule(indices, signs):
            calls.append(signs)
            return signs.prod(axis=1) * np.where(indices[:, 0] % 2, 1, -1)

        got = G.assignment_moments(rule, 30, samples=300, seed=4)
        assert len(calls) == 2 and all(np.all((s > 0).sum(axis=1) >= 2) for s in calls)
        rng = np.random.default_rng(4)
        want = []
        for k in (2, 4):
            ind, sg = G._sunflower_rows(rng, 300, 30, k)
            prods = []
            for t in range(300):
                total = 1
                for i, s in zip(ind[t * k:(t + 1) * k].tolist(), sg[t * k:(t + 1) * k].tolist()):
                    orient = 1 if sum(x > 0 for x in s) >= 2 else -1
                    total *= orient * int(rule(np.array([i]), np.array([[orient * x for x in s]]))[0])
                prods.append(total)
            want.append(G._estimate(np.array(prods, float)))
        assert got == tuple(want)

    @pytest.mark.parametrize("n", [4, 8])
    def test_too_few_coordinates_rejected(self, n):
        with pytest.raises(DomainError, match="D_4"):
            G.assignment_moments((0.3, 0.1), n, samples=10)
        with pytest.raises(DomainError, match="D_4"):
            G.assignment_moments(lambda i, s: np.ones(len(i)), n, samples=10)

    @pytest.mark.parametrize("samples", [-1, 0, 1])
    def test_too_few_samples_rejected(self, samples):
        with pytest.raises(DomainError):
            G.assignment_moments((0.3, 0.1), 48, samples=samples)
        with pytest.raises(DomainError):
            G.assignment_moments(lambda i, s: np.ones(len(i)), 48, samples=samples)


def _int64_assignment_moments(rule, n, samples, seed):
    """The pair-rule path of ``assignment_moments`` before it was chunked:
    every coin an int64 of one whole-run draw, then every uniform."""
    p1, p2 = rule
    rng = np.random.default_rng(seed)
    out = []
    for k in (2, 4):
        positive = rng.integers(0, 2, size=(samples, 2 * k + 1)) > 0
        pos = positive[:, G._petal_cols(k)].sum(axis=2, dtype=np.int8)
        p = np.where(np.maximum(pos, 3 - pos) == 3, p1, p2)
        x = G._orientation(pos) * np.where(rng.random(pos.shape) < p, 1, -1)
        out.append(G._estimate(np.prod(x, axis=1).astype(float)))
    return out[0], out[1]


class TestChunkedMoments:
    """The chunked pair-rule path against the whole-run int64 draw it replaced."""

    @pytest.mark.parametrize("chunk", [G._MOMENT_CHUNK, 1, 7, 999])
    @pytest.mark.parametrize("rule", [(0, 0), (1, 1), (0, 1), (G.P1_STAR, 0), (0.3, 0.1)])
    def test_bits_match_the_whole_run_draw(self, monkeypatch, rule, chunk):
        # an odd chunk of an odd row width ends on half of a buffered uint32
        monkeypatch.setattr(G, "_MOMENT_CHUNK", chunk)
        for samples in sorted({2, 3, 101, chunk + 1, 3 * chunk + 1} | {chunk - 1} - {0, 1}):
            want = _int64_assignment_moments(rule, 48, samples, seed=samples)
            assert repr(G.assignment_moments(rule, 48, samples, seed=samples)) == repr(want)

    @pytest.mark.parametrize("size", [1, 5, 9, 11, 65536 * 9 + 3])
    def test_uint32_coins_are_the_int64_stream(self, size):
        # the chunked path rests on this: a numpy release that draws uint32
        # and int64 coins differently fails here by name
        a, b = np.random.default_rng(size), np.random.default_rng(size)
        for _ in range(3):
            assert np.array_equal(a.integers(0, 2, size=size),
                                  b.integers(0, 2, size=size, dtype=np.uint32))
            assert a.bit_generator.state == b.bit_generator.state

    def test_peak_memory(self):
        # the whole-run int64 draw peaked above 120 MB
        assert peak_traced_mb(lambda: G.assignment_moments((G.P1_STAR, 0), 48, 10**6)) < 40


class TestEvaluateGap:
    def test_tuned_rule_three_way_agreement(self, small_gap):
        res = G.evaluate_gap(small_gap, (G.P1_STAR, 0.0), trials=24, seed=9,
                             moment_samples=2 * 10**5)
        assert abs(res.fraction - res.expected_fraction) < 3 * res.std_error
        assert abs(res.expected_fraction - res.analytic_prediction) \
            < 3 * math.hypot(res.clause_sampling_sigma, 3 * res.f2.std_error)
        assert abs(res.analytic_prediction - H.BOUND) < 0.01

    def test_random_rule(self, small_gap):
        res = G.evaluate_gap(small_gap, (0.5, 0.5), trials=24, seed=10,
                             moment_samples=10**5)
        want = G.WEIGHT_3 * 0.75 + G.WEIGHT_5 * 15 / 16
        assert abs(res.expected_fraction - want) < 1e-12
        assert abs(res.fraction - want) < 3 * max(res.std_error, 1e-4)

    def test_all_ones_rule_consistency(self, small_gap):
        # p1 = p2 = 1: every representative rounds to +1 deterministically
        res = G.evaluate_gap(small_gap, (1.0, 1.0), trials=2, seed=11,
                             moment_samples=10**4)
        assert res.std_error == 0.0
        assert abs(res.fraction - res.expected_fraction) < 1e-12

    @pytest.mark.parametrize("rule", [(1.5, 0.0), (math.nan, 0.0), (0.5, -0.1), (0.5, math.nan)])
    def test_rule_outside_unit_interval_rejected(self, small_gap, rule, monkeypatch):
        self._assert_rejected(small_gap, rule, monkeypatch)

    @pytest.mark.parametrize("rule", [(0.5,), (0.5, 0.5, 0.5), (), 0.5, None, "ab", ("0.5", 0.0),
                                      (None, 0.0), (0.5, 1j), ([0.5], 0.0)])
    def test_malformed_rule_rejected(self, small_gap, rule, monkeypatch):
        self._assert_rejected(small_gap, rule, monkeypatch)

    @staticmethod
    def _assert_rejected(small_gap, rule, monkeypatch):
        with pytest.raises(DomainError):
            G.expected_fraction(small_gap, rule)
        with pytest.raises(DomainError):
            G.assignment_moments(rule, 48, samples=10)
        monkeypatch.setattr(G, "_rule_coins", None)  # rejected before any trial is rounded
        with pytest.raises(DomainError):
            G.evaluate_gap(small_gap, rule, trials=2, moment_samples=10)

    @pytest.mark.parametrize("trials", [-1, 0])
    def test_no_trials_rejected(self, small_gap, trials):
        with pytest.raises(DomainError):
            G.evaluate_gap(small_gap, (G.P1_STAR, 0.0), trials=trials, moment_samples=10)


class TestPeakMemory:
    """tracemalloc peaks (MB of 10^6 bytes) of the gap path at the benchmark's
    size: each step allocates its output once."""

    @pytest.fixture(scope="class")
    def bench_gap(self):
        return G.gen_gap_instance(48, 5000, 5000, seed=7)

    def test_vector_assignment(self, bench_gap):
        # the zeros, a defensive copy and np.linalg.norm's temporaries made 3x
        nbytes = bench_gap.vector_assignment().vectors.nbytes
        assert peak_traced_mb(bench_gap.vector_assignment) <= 1.3 * nbytes / 1e6

    def test_parse_instance(self, bench_gap):
        text = _files(bench_gap)[0]
        assert peak_traced_mb(lambda: P.parse_instance(text)) <= 3.5  # was 4.08

    def test_parse_vectors(self, bench_gap):
        text = _files(bench_gap)[1]
        assert peak_traced_mb(lambda: P.parse_vectors(text)) <= 18  # was 37.9

    def test_evaluate_gap(self, bench_gap):
        # int8 trial coins and moment products; float64/int64 ones made 19.9
        assert peak_traced_mb(lambda: G.evaluate_gap(bench_gap, (G.P1_STAR, 0.0), trials=20,
                                                     seed=3, moment_samples=10**6)) <= 15

    def test_generation(self):
        # tuples drawn and sorted in blocks; one whole argsort made 38.9
        assert peak_traced_mb(lambda: G.gen_gap_instance(48, 2 * 10**4, 2 * 10**4, seed=5)) <= 30
