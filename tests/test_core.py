import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from naeopt.core import (
    Clause,
    GramConfig,
    GridFunction,
    NAEInstance,
    StepFunction,
    validate_gram,
)
from naeopt.errors import StructuralError

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
