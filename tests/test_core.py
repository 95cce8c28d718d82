import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from naeopt.core import (
    Clause,
    GramConfig,
    GridFunction,
    HardDistribution,
    NAEInstance,
    StepFunction,
    VectorAssignment,
    checked_seed,
    validate_gram,
)
from naeopt.errors import DomainError, StructuralError

from conftest import random_step_function


# ---------------------------------------------------------------------------
# StepFunction


class TestStepFunction:
    def test_validation(self):
        with pytest.raises(StructuralError):
            StepFunction((1.0, 0.5), (1, -1, 1))      # not increasing
        with pytest.raises(StructuralError):
            StepFunction((-1.0,), (1, -1))            # not positive
        with pytest.raises(StructuralError):
            StepFunction((1.0,), (1.5, -1))           # out of range
        with pytest.raises(StructuralError):
            StepFunction((1.0,), (1.0,))              # length mismatch
        for a in (math.nan, math.inf):
            with pytest.raises(StructuralError):
                StepFunction((0.5, a), (1, -1, 1))    # non-finite breakpoint
        with pytest.raises(StructuralError):
            StepFunction((1.0,), (math.nan, 1))       # NaN value

    def test_right_closed_convention(self):
        f = StepFunction((1.0, 2.0), (0.25, -0.5, 1.0))
        assert f(1.0) == -0.5
        assert f(0.999999) == 0.25
        assert f(2.0) == 1.0
        assert f(0.0) == 0.25

    def test_odd_evaluation(self, rng):
        for _ in range(25):
            f = random_step_function(rng)
            xs = rng.normal(0, 2, size=40)
            xs = xs[xs != 0]
            assert np.allclose(f(-xs), -np.asarray(f(xs)), atol=0)

    @given(st.floats(-50, 50))
    def test_bounded(self, x):
        f = StepFunction((0.5, 1.5), (0.2, -1.0, 0.7))
        assert abs(f(x)) <= 1.0

    def test_cells_partition(self):
        f = StepFunction((1.0,), (-1.0, 1.0))
        edges, vals = f.cells()
        assert np.array_equal(vals, [-1.0, 1.0, -1.0, 1.0])
        assert edges[0] == -np.inf and edges[-1] == np.inf
        assert list(edges[1:-1]) == [-1.0, 0.0, 1.0]

    def test_cells_are_built_once_and_read_only(self):
        f = StepFunction((0.5, 2.0), (0.25, -0.5, 1.0))
        edges, vals = f.cells()
        again = f.cells()
        assert again[0] is edges and again[1] is vals
        assert not edges.flags.writeable and not vals.flags.writeable
        assert f == StepFunction((0.5, 2.0), (0.25, -0.5, 1.0))

    def test_normalizes_to_float_tuples(self):
        f = StepFunction(np.array([0.5, 2]), [np.float32(0.25), -1, 1])
        assert f.breakpoints == (0.5, 2.0) and f.values == (0.25, -1.0, 1.0)
        assert all(type(x) is float for x in f.breakpoints + f.values)

    @pytest.mark.parametrize("args,message", [
        (((1.0,), (1.0,)), "need len(values) == len(breakpoints)+1, got 1 vs 1"),
        (((0.5, math.inf), (1, -1, 1)), "breakpoints must be finite"),
        (((0.0,), (1, -1)), "breakpoints must be strictly increasing and positive"),
        (((1.0, 1.0), (1, -1, 1)), "breakpoints must be strictly increasing and positive"),
        (((1.0,), (1 + 1e-14, 1)), "step values must lie in [-1, 1]"),
    ])
    def test_validation_messages(self, args, message):
        with pytest.raises(StructuralError) as err:
            StepFunction(*args)
        assert str(err.value) == message


class TestGridFunction:
    def test_validation(self):
        with pytest.raises(StructuralError):
            GridFunction((0.1, 0.2, 0.3))   # odd cell count
        with pytest.raises(StructuralError):
            GridFunction((1.5, -1.5))       # out of range
        with pytest.raises(StructuralError):
            GridFunction((math.nan, 0.5))   # NaN value

    def test_edges_antisymmetric(self):
        g = GridFunction((-1.0, -0.5, 0.5, 1.0))
        e = g.edges()
        assert np.allclose(e[1:-1], -e[1:-1][::-1])
        assert e[len(e) // 2] == 0.0

    def test_to_step_function(self):
        g = GridFunction((-1.0, -0.25, 0.25, 1.0))
        f = g.to_step_function()
        assert f.values == (0.25, 1.0)
        # the step function reproduces the grid values cell by cell
        mids = (g.edges()[:-1] + g.edges()[1:]) / 2
        mids[0], mids[-1] = -10.0, 10.0
        assert np.allclose(f(mids), g.values)

    def test_to_step_function_requires_odd(self):
        with pytest.raises(StructuralError):
            GridFunction((0.5, 0.6)).to_step_function()

    def test_centroids_are_conditional_means(self):
        from scipy.integrate import quad
        from scipy.stats import norm
        g = GridFunction((0.0,) * 6)
        e = g.edges()
        want = [6 * quad(lambda x: x * norm.pdf(x), lo, hi)[0] for lo, hi in zip(e[:-1], e[1:])]
        got = g.centroids()
        assert np.allclose(got, want, atol=1e-10)
        assert np.all((got > e[:-1]) & (got < e[1:]))
        assert np.allclose(got, -got[::-1], atol=1e-12)


class TestClause:
    @pytest.mark.parametrize("weight", [0.0, -1.0, float("nan"), float("inf"), -float("inf")])
    def test_weight_must_be_positive_and_finite(self, weight):
        with pytest.raises(StructuralError):
            Clause(weight, (1, 2))

    @pytest.mark.parametrize("literals", [(0.5, 2), (1, 1.5), (1, float("nan")), (1, "2")])
    def test_non_integral_literals_rejected(self, literals):
        with pytest.raises(StructuralError):
            Clause(1.0, literals)

    def test_integral_floats_and_numpy_ints_convert(self):
        cl = Clause(1.0, (1.0, np.int64(-2), np.int8(3)))
        assert cl.literals == (1, -2, 3)
        assert all(type(l) is int for l in cl.literals)

    @pytest.mark.parametrize("literals, message", [
        ((1,), "at least 2"), ((0, 1), "literal 0"), ((2, -2), "distinct"),
    ])
    def test_structure_checks(self, literals, message):
        with pytest.raises(StructuralError, match=message):
            Clause(1.0, literals)


class TestNAEInstance:
    def test_out_of_range_names_the_first_offending_literal(self):
        clauses = (Clause(1.0, (1, 2)), Clause(1.0, (3, -7, 9)), Clause(1.0, (-8, 1)))
        with pytest.raises(StructuralError, match="literal -7 out of range for 4 variables"):
            NAEInstance(4, clauses)

    def test_int64_minimum_is_out_of_range(self):
        with pytest.raises(StructuralError, match=f"literal {-2**63} out of range for 3 variables"):
            NAEInstance(3, (Clause(1.0, (1, 2)), Clause(1.0, (1, -2**63))))
        with pytest.raises(StructuralError, match=f"literal {-2**63} out of range for 3 variables"):
            NAEInstance.from_groups(3, [(np.array([[1, 2], [1, -2**63]]), np.ones(2))], [0, 0])

    @pytest.mark.parametrize("groups, clause_group, message", [
        ([(np.array([[1.0, 2.0]]), [1.0])], [0], "literals must be integers"),
        ([(np.array([[1, 2]]), [1.0, 1.0])], [0, 0], r"one \(literals, weight\) row per clause"),
    ], ids=["float-literals", "more-weights-than-rows"])
    def test_from_groups_rejects_malformed_arrays(self, groups, clause_group, message):
        with pytest.raises(StructuralError, match=message):
            NAEInstance.from_groups(3, groups, clause_group)

    def test_equality_hash_and_repr(self):
        inst = NAEInstance(3, (Clause(1.0, (1, -2, 3)), Clause(2.0, (2, 3))))
        same = NAEInstance.from_groups(3, [(np.array([[1, -2, 3]]), [1.0]),
                                           (np.array([[2, 3]]), [2.0])], [0, 1])
        assert inst == same and hash(inst) == hash(same)
        assert inst.__eq__(3) is NotImplemented and (inst == 3) is False
        assert repr(inst) == ("NAEInstance(num_vars=3, clauses=(Clause(weight=1.0, "
                              "literals=(1, -2, 3)), Clause(weight=2.0, literals=(2, 3))))")

    def test_total_weight_is_cached(self):
        inst = NAEInstance(3, (Clause(0.1, (1, 2)), Clause(0.2, (2, 3)), Clause(0.7, (1, 3))))
        first = inst.total_weight
        assert inst.total_weight is first
        assert first == sum(c.weight for c in inst.clauses)

    def test_clause_groups_by_size_in_order_of_first_appearance(self):
        inst = NAEInstance(5, (Clause(1.0, (1, -2, 3)), Clause(2.0, (4, 5)),
                               Clause(3.0, (-3, 4, 5)), Clause(4.0, (2, -1))))
        (l3, w3), (l2, w2) = inst.clause_groups
        assert l3.tolist() == [[1, -2, 3], [-3, 4, 5]] and w3.tolist() == [1.0, 3.0]
        assert l2.tolist() == [[4, 5], [2, -1]] and w2.tolist() == [2.0, 4.0]
        assert inst.clause_groups is inst.clause_groups
        for arr in (l3, w3, l2, w2):
            assert not arr.flags.writeable
        assert NAEInstance(2, ()).clause_groups == ()


class TestHardDistribution:
    @pytest.mark.parametrize("args", [
        ("max2sat", 0.5, -0.5),
        ("nae3", 1.5, -0.5),
        ("maxcut", math.nan, -0.5),
        ("nae3", 0.5, 0.1),
        ("maxcut", 0.5, -1.5),
        ("nae3", 0.5, -0.5, "unclamped"),
    ])
    def test_domain(self, args):
        with pytest.raises(DomainError):
            HardDistribution(*args)

    def test_rho0_is_nae3_only(self):
        assert HardDistribution("nae3", 0.5, -0.9).rho0 == -1.0 / 3.0
        assert HardDistribution("nae3", 0.5, -0.9, "one").rho0 == 1.0
        with pytest.raises(DomainError, match="nae3"):
            HardDistribution("maxcut", 0.5, -0.9).rho0


# ---------------------------------------------------------------------------
# vector assignments


class TestVectorAssignment:
    @pytest.mark.parametrize("raw", [[[1.0], [1.0, 0.0]], [["a"]], "x", [[{}]], [[None, 1.0]]])
    def test_malformed_input_is_structural(self, raw):
        with pytest.raises(StructuralError):
            VectorAssignment(raw)

    @pytest.mark.parametrize("raw", [[1.0, 0.0], [[[1.0]]], [[1.0, 1.0]], [[math.nan]],
                                     np.zeros((2, 0))])
    def test_not_unit_rows_are_structural(self, raw):
        with pytest.raises(StructuralError):
            VectorAssignment(raw)

    @pytest.mark.parametrize("raw", [np.array([[1.0, 0.0], [0.6, 0.8]]),
                                     np.array([[1.0, 0.0], [0.6, 0.8]], np.float32),
                                     np.array([[1, 0], [0, -1]])])
    def test_callers_array_is_neither_written_nor_frozen(self, raw):
        before = raw.copy()
        va = VectorAssignment(raw)
        assert raw.flags.writeable and np.array_equal(raw, before)
        assert not np.shares_memory(va.vectors, raw) and not va.vectors.flags.writeable
        raw[0, 0] = 5
        assert va.vectors[0, 0] == 1.0


# ---------------------------------------------------------------------------
# seeds


class TestCheckedSeed:
    @pytest.mark.parametrize("seed", [0, 5, 2**63, 2**64 - 1, np.uint64(2**64 - 1), np.int8(3)])
    def test_accepts_the_uint64_range(self, seed):
        assert checked_seed(seed) == int(seed) and type(checked_seed(seed)) is int

    @pytest.mark.parametrize("seed", [-1, 2**64, np.int64(-2), 1.0, "3", None])
    def test_rejects_the_rest(self, seed):
        with pytest.raises(DomainError, match=r"seed must be an integer in \[0, 2\*\*64\)"):
            checked_seed(seed)


# ---------------------------------------------------------------------------
# Gram validation


class TestValidateGram:
    def test_identity_accepts(self):
        assert validate_gram(GramConfig(np.eye(3)), 1e-9).accepted

    def test_uniform_negative_third(self):
        b = -1.0 / 3.0
        m = np.array([[1, b, b], [b, 1, b], [b, b, 1]])
        diag = validate_gram(GramConfig(m), 1e-9)
        assert diag.accepted
        # eigenvalues are {4/3, 4/3, 1/3}
        assert np.allclose(sorted(np.linalg.eigvalsh(m)), [1 / 3, 4 / 3, 4 / 3])

    def test_rejects_non_psd(self):
        m = np.array([[1.0, 1.5], [1.5, 1.0]])
        diag = validate_gram(GramConfig(m), 1e-9)
        assert not diag.accepted
        assert diag.min_eigenvalue < -1e-9

    def test_non_square_rejected(self):
        with pytest.raises(StructuralError):
            GramConfig(np.ones((2, 3)))

    def test_accepts_every_explicit_vector_gram(self, rng):
        for _ in range(20):
            k, d = rng.integers(2, 7), rng.integers(2, 9)
            v = rng.normal(size=(k, d))
            v /= np.linalg.norm(v, axis=1, keepdims=True)
            assert validate_gram(GramConfig(v @ v.T)).accepted
