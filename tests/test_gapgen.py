import hashlib
import math

import numpy as np
import pytest

from naeopt.core import NAEInstance, StepFunction, VectorAssignment
from naeopt.errors import DomainError, StructuralError
from naeopt import gapgen as G
from naeopt import hardness as H
from naeopt import pipeline as P

from conftest import array_loop_evaluate

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

    def test_canonicalization(self):
        v = G.SparseVec((0, 1, 2), (-1, -1, 1))
        rep, orient = v.canonical()
        assert orient == -1 and rep.signs == (1, 1, -1)
        rep2, orient2 = rep.canonical()
        assert rep2 == rep and orient2 == 1

    def test_unit_norm_and_dot(self):
        v = G.SparseVec((0, 3, 7), (1, -1, 1))
        w = G.SparseVec((0, 3, 9), (1, 1, 1))
        assert v.dot_numerator(w) == 0       # +1 - 1 on shared coords
        gap = G.GapInstance(10, 0, 0, np.array([v.indices, w.indices]),
                            np.array([v.signs, w.signs]), NAEInstance(2, ()))
        dv, dw = gap.vector_assignment().vectors
        assert abs(np.linalg.norm(dv) - 1.0) < 1e-15
        assert abs(dv @ dw) < 1e-15


class TestGeneration:
    def test_exact_bias_patterns(self, gap):
        for vecs in gap.clause_vectors[: gap.num_3clauses]:
            for a in range(3):
                for b in range(a + 1, 3):
                    assert vecs[a].dot_numerator(vecs[b]) == -1
        for vecs in gap.clause_vectors[gap.num_3clauses:]:
            for a in range(4):
                for b in range(a + 1, 4):
                    assert vecs[a].dot_numerator(vecs[b]) == 1
                assert vecs[a].dot_numerator(vecs[4]) == 0

    def test_weights(self, small_gap):
        inst = small_gap.instance
        assert abs(inst.total_weight - 1.0) < 1e-12
        w3 = sum(c.weight for c in inst.clauses if len(c.literals) == 3)
        assert abs(w3 - (1 - 3 / math.sqrt(21))) < 1e-12

    def test_variables_are_canonical(self, small_gap):
        for v in small_gap.variables:
            assert v.positives >= 2

    def test_small_n_rejected(self):
        with pytest.raises(DomainError):
            G.gen_gap_instance(11, 10, 10, seed=0)

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

    def test_arrays_match_the_objects(self, gap):
        variables = gap.variables
        assert gap.positives.tolist() == [v.positives for v in variables]
        dense = np.zeros((len(variables), gap.n))
        for row, v in zip(dense, variables):
            for i, s in zip(v.indices, v.signs):
                row[i] = s / math.sqrt(3)
        got = gap.vector_assignment().vectors.tobytes()
        assert got == VectorAssignment(dense).vectors.tobytes()
        assert got == P.parse_vectors(_files(gap)[1]).vectors.tobytes()
        assert gap.sparse_rows() == {vid: tuple(zip(v.indices, v.signs))
                                     for vid, v in enumerate(variables, start=1)}
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
            "3adf1707edea5e0fd44f319f0267b572f2f893723af9a3739c5965fae0c6191a"

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
        def parity(rep: G.SparseVec) -> int:
            return rep.signs[0] * rep.signs[1] * rep.signs[2]

        for n in (24, 48, 96):
            f2, f4 = G.assignment_moments(parity, n, samples=4000, seed=8)
            slack = 3 * (f2.std_error + f4.std_error) + 10.0 / n
            assert f4.value >= f2.value**2 - slack

    @pytest.mark.parametrize("samples", [-1, 0, 1])
    def test_too_few_samples_rejected(self, samples):
        with pytest.raises(DomainError):
            G.assignment_moments((0.3, 0.1), 48, samples=samples)
        with pytest.raises(DomainError):
            G.assignment_moments(lambda rep: 1, 48, samples=samples)


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
