import hashlib
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ndtr

from naeopt.core import SIGN, GramConfig, StepFunction, equal_mass_edges, gaussian_pdf
from naeopt.errors import DomainError
from naeopt import fredholm, moments as M

from conftest import peak_traced_mb, random_step_function

# frozen oracle values, computed with mpmath (dps=30) by one-dimensional
# quadrature of phi(x) ncdf((k - rho x)/sqrt(1-rho^2)) split at the
# transition point; see the bivariate-normal identity P(X<=h, Y<=k)
BVN_CDF_ORACLE = [
    (0.5, -1.2, 0.3, 0.098060031111840623),
    (1.0, 1.0, 0.9, 0.7981798295654442),
    (-0.7, 2.1, -0.85, 0.22423269259041265),
    (0.0, 0.6, -0.4, 0.30875778395736108),
    (2.0, -2.0, 0.99, 0.022750131948179207),
    (0.3, 0.3, -0.999, 0.23582284437790527),
    (1.7, 0.2, 0.6, 0.57486078565424292),
    (-1.1, -0.4, 0.15, 0.059174533605805834),
]

# int (U_{sqrt(1/3)} sign)^4 phi dx, mpmath dps=30
F4_THIRD_SIGN = 0.097721071042237989

F2_SIGN_THIRD = 2.0 * math.asin(1.0 / 3.0) / math.pi


class TestEqualProbGrid:
    def test_small_cases(self):
        assert np.array_equal(equal_mass_edges(2), [-np.inf, 0.0, np.inf])
        assert np.allclose(equal_mass_edges(4)[1:-1], [-0.6744897502, 0, 0.6744897502],
                           atol=1e-9)
        assert np.allclose(equal_mass_edges(3)[1:-1], [-0.4307272993, 0.4307272993],
                           atol=1e-9)

    def test_structure(self):
        g = equal_mass_edges(17)[1:-1]
        assert np.all(np.diff(g) > 0)
        assert np.allclose(g, -g[::-1], atol=1e-12)

    def test_needs_two_cells(self):
        with pytest.raises(DomainError):
            equal_mass_edges(1)


class TestBinormalRect:
    @pytest.mark.parametrize("h,k,rho,want", BVN_CDF_ORACLE)
    def test_cdf_oracle(self, h, k, rho, want):
        got = M.binormal_rect(rho, -np.inf, h, -np.inf, k)
        assert abs(got - want) < 1e-10

    def test_independent_quadrant(self):
        assert abs(M.binormal_rect(0.0, 0, np.inf, 0, np.inf) - 0.25) < 1e-14

    def test_degenerate_rho(self):
        assert M.binormal_rect(1.0, 0, np.inf, -np.inf, 0) == 0.0
        assert abs(M.binormal_rect(-1.0, 0, np.inf, -np.inf, 0) - 0.5) < 1e-14

    def test_orthant_identity(self):
        want = 0.25 + math.asin(0.5) / (2 * math.pi)
        assert abs(M.binormal_rect(0.5, 0, np.inf, 0, np.inf) - want) < 1e-12

    def test_monte_carlo_cross_check(self, rng):
        rho = 0.5
        L = np.linalg.cholesky([[1, rho], [rho, 1]])
        z = rng.standard_normal((10**6, 2)) @ L.T
        inside = np.mean((z[:, 0] > 0.2) & (z[:, 0] < 1.4) & (z[:, 1] > -0.3))
        got = M.binormal_rect(rho, 0.2, 1.4, -0.3, np.inf)
        assert abs(got - inside) < 3 * math.sqrt(inside * (1 - inside) / 10**6)

    def test_bad_interval(self):
        with pytest.raises(DomainError):
            M.binormal_rect(0.0, 1.0, 0.0, 0.0, 1.0)

    @pytest.mark.parametrize("bounds", [(math.nan, 1.0, 0.0, 1.0), (0.0, 1.0, 0.0, math.nan)])
    def test_nan_bounds_rejected(self, bounds):
        with pytest.raises(DomainError):
            M.binormal_rect(0.3, *bounds)

    def test_lattice_row_sums(self):
        edges = equal_mass_edges(8)
        for rho in (-1.0, -0.9, -0.3, 0.0, 0.7, 1.0):
            m = M.rect_lattice(edges, edges, rho)
            assert np.allclose(m.sum(axis=1), 1 / 8, atol=1e-12)
            assert np.allclose(m, m.T, atol=1e-13)
            assert abs(m.sum() - 1.0) < 1e-11

    @pytest.mark.parametrize("rho", [-0.9, 0.0, 0.5, 0.99])
    def test_empty_intervals_at_repeated_edges(self, rho):
        for lo_hi in ((np.inf, np.inf), (-np.inf, -np.inf), (0.0, 0.0)):
            assert M.binormal_rect(rho, *lo_hi, -np.inf, np.inf) == 0.0
            assert M.binormal_rect(rho, -np.inf, np.inf, *lo_hi) == 0.0
        # a full line on one axis leaves the other axis's normal mass
        assert M.binormal_rect(rho, -np.inf, np.inf, -np.inf, 0.7) == pytest.approx(
            ndtr(0.7), abs=1e-15)

    @pytest.mark.parametrize("rho", [-0.99, -0.5, 0.0, 0.3, 0.9])
    def test_zero_edges_on_both_axes(self, rho):
        q = 0.25 + math.asin(rho) / (2 * math.pi)
        assert abs(M.binormal_rect(rho, -np.inf, 0.0, -np.inf, 0.0) - q) < 1e-15
        assert abs(M.binormal_rect(rho, 0.0, np.inf, 0.0, np.inf) - q) < 1e-15
        e = np.array([-np.inf, 0.0, np.inf])
        assert np.allclose(M.rect_lattice(e, e, rho), [[q, 0.5 - q], [0.5 - q, q]],
                           rtol=0, atol=1e-15)

    @pytest.mark.parametrize("h,k,rho,want", [o for o in BVN_CDF_ORACLE if o[0] > 0])
    def test_zero_edge_on_one_axis(self, h, k, rho, want):
        # cells (-inf, 0] and (0, h] in x against (-inf, k] in y: their sum
        # is the oracle's Phi2(h, k), and the first is a quadrature in x
        m = M.rect_lattice(np.array([-np.inf, 0.0, h, np.inf]), np.array([-np.inf, k, np.inf]),
                           rho)
        assert abs(m[0, 0] + m[1, 0] - want) < 1e-10
        s = math.sqrt(1 - rho * rho)
        below, _ = quad(lambda x: gaussian_pdf(x) * ndtr((k - rho * x) / s), -12.0, 0.0,
                        epsabs=1e-14, epsrel=1e-13)
        assert abs(m[0, 0] - below) < 1e-12
        assert abs(M.binormal_rect(rho, -np.inf, 0.0, -np.inf, k) - below) < 1e-12

    @pytest.mark.parametrize("n", [8, 40, 101])
    @pytest.mark.parametrize("rho", [-0.99, -0.3, 0.6])
    def test_half_lattice_as_fredholm_takes_it(self, n, rho):
        # e[:n//2+1] x e ends at an edge, 0 for even n, with no +inf row;
        # it is the square lattice's first rows, and for even n its mass
        # is the orthant P(X <= 0) = 1/2
        e = equal_mass_edges(n)
        half = M.rect_lattice(e[: n // 2 + 1], e, rho)
        assert np.array_equal(half, M.rect_lattice(e, e, rho)[: n // 2])
        assert np.allclose(half.sum(axis=1), 1 / n, rtol=0, atol=1e-12)
        if n % 2 == 0:
            assert abs(half.sum() - 0.5) < 1e-12

    @pytest.mark.parametrize("rho", [math.nan, 2.0, -1.5, math.inf, 1.0 + 1e-9])
    def test_rho_outside_the_range_rejected(self, rho):
        e = equal_mass_edges(4)
        with pytest.raises(DomainError):
            M.binormal_rect(rho, 0.0, 1.0, 0.0, 1.0)
        with pytest.raises(DomainError):
            M.rect_lattice(e, e, rho)
        with pytest.raises(DomainError):
            M.f2(SIGN, rho)

    def test_rho_past_one_by_rounding_is_one(self):
        # np.arange grids, as in the moment property suite, end at 1 + 1.8e-15
        top = np.arange(-1.0, 1.0 + 1e-12, 0.02)[-1]
        assert top > 1.0
        f = StepFunction((0.8,), (0.3, 1.0))
        assert M.f2(f, top) == M.f2(f, 1.0) and M.f2(f, -top) == M.f2(f, -1.0)
        e = equal_mass_edges(4)
        assert np.array_equal(M.rect_lattice(e, e, top), M.rect_lattice(e, e, 1.0))


class TestNoiseOperator:
    def test_eta_one_is_identity(self, rng):
        f = random_step_function(rng)
        xs = rng.normal(0, 2, 9)
        assert np.allclose(M.noise_operator(f, 1.0, xs), f(xs))

    def test_eta_zero_kills_odd(self, rng):
        f = random_step_function(rng)
        assert np.allclose(M.noise_operator(f, 0.0, rng.normal(0, 2, 9)), 0.0)

    def test_sign_closed_form(self):
        from scipy.special import ndtr
        for eta, x in [(0.5, 1.0), (0.3, -0.7), (0.9, 2.0)]:
            want = 1 - 2 * ndtr(-eta * x / math.sqrt(1 - eta * eta))
            assert abs(M.noise_operator(SIGN, eta, x) - want) < 1e-14

    def test_contraction(self, rng):
        for _ in range(10):
            f = random_step_function(rng)
            xs = rng.normal(0, 3, 25)
            u = M.noise_operator(f, rng.uniform(0, 1), xs)
            assert np.max(np.abs(u)) <= np.max(np.abs(f.values)) + 1e-12

    def test_monotone_for_monotone_f(self, rng):
        f = random_step_function(rng, monotone=True)
        xs = np.linspace(-4, 4, 41)
        u = M.noise_operator(f, 0.6, xs)
        assert np.all(np.diff(u) >= -1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            M.noise_operator(SIGN, 1.5, 0.0)


class TestF2:
    def test_odd_f_at_zero(self, rng):
        for _ in range(5):
            assert abs(M.f2(random_step_function(rng), 0.0)) < 1e-12

    def test_sign_values(self):
        assert M.f2(SIGN, 1.0) == 1.0
        assert abs(M.f2(SIGN, 1 / 3) - F2_SIGN_THIRD) < 1e-12
        # arcsine law across the range
        for rho in (-0.9, -0.4, 0.2, 0.8):
            assert abs(M.f2(SIGN, rho) - 2 * math.asin(rho) / math.pi) < 1e-12

    def test_oddness_property(self, rng):
        for _ in range(15):
            f = random_step_function(rng)
            for rho in np.linspace(-1, 1, 11):
                assert abs(M.f2(f, rho) + M.f2(f, -rho)) < 1e-9

    def test_bounded_by_self_energy(self, rng):
        for _ in range(10):
            f = random_step_function(rng)
            e = M.f2(f, 1.0)
            for rho in np.linspace(-1, 1, 9):
                assert abs(M.f2(f, rho)) <= e + 1e-10

    def test_monotone_and_convex(self, rng):
        grid = np.arange(-1.0, 1.0 + 1e-12, 0.04)
        for _ in range(8):
            f = random_step_function(rng)
            vals = np.array([M.f2(f, r) for r in grid])
            assert np.all(np.diff(vals) >= -1e-7)
            pos = vals[grid >= -1e-12]
            assert np.all(np.diff(pos, 2) >= -1e-7)

    @pytest.mark.parametrize("rho", [0.0, 0.5, -0.5, 1.0 - 1e-7, -(1.0 - 1e-7)])
    def test_cached_setup_matches_rect_lattice(self, rng, rho):
        # f2 keeps rect_lattice's edge setup per breakpoint tuple; the whole
        # lattice is the route it replaced.  The last two functions are equal
        # as StepFunctions but differ in the sign of a zero: they share a
        # setup, and each must give the bits of its own route
        fs = [random_step_function(rng, max_breaks=5) for _ in range(60)]
        fs += [StepFunction((0.7, 1.9), (0.0, 0.5, -1.0)),
               StepFunction((0.7, 1.9), (-0.0, 0.5, -1.0))]
        assert fs[-2] == fs[-1]
        M._step_lattice.cache_clear()
        for f in fs:
            edges, vals = f.cells()
            want = np.float64(vals @ M.rect_lattice(edges, edges, rho) @ vals).tobytes()
            for _ in range(2):  # the first call fills the cache, the second reads it
                assert np.float64(M.f2(f, rho)).tobytes() == want


class TestF2lSymmetric:
    def test_matches_f2(self, rng):
        for rho in (0.0, 0.2, 1 / 3, 0.9):
            assert abs(M.f2l_symmetric(SIGN, rho, 1) - M.f2(SIGN, rho)) < 1e-8
        for _ in range(5):
            f = random_step_function(rng)
            for rho in (0.2, 0.7):
                assert abs(M.f2l_symmetric(f, rho, 1) - M.f2(f, rho)) < 1e-8

    def test_sign_fourth_moment_oracle(self):
        got = M.f2l_symmetric(SIGN, 1 / 3, 2)
        assert abs(got - F4_THIRD_SIGN) < 1e-9
        assert got >= M.f2(SIGN, 1 / 3) ** 2

    def test_zero_correlation(self):
        assert M.f2l_symmetric(SIGN, 0.0, 3) == 0.0

    def test_f4_dominates_f2_squared(self, rng):
        for _ in range(6):
            f = random_step_function(rng)
            for rho in np.linspace(0, 1, 6):
                assert M.f2l_symmetric(f, rho, 2) >= M.f2(f, rho) ** 2 - 1e-7

    def test_negative_rho_rejected(self):
        with pytest.raises(DomainError, match="moment_mc"):
            M.f2l_symmetric(SIGN, -0.2, 2)

    def test_exact_at_rho_one(self, rng):
        # U_1 f = f is a step function: F_2l(1) is the cell-mass sum of
        # f^(2l), so the routes agree to rounding and Jensen gives F4 >= F2^2
        for _ in range(200):
            f = random_step_function(rng)
            f2_one = M.f2(f, 1.0)
            assert abs(M.f2l_symmetric(f, 1.0, 1) - f2_one) < 1e-12
            assert M.f2l_symmetric(f, 1.0, 2) >= f2_one ** 2 - 1e-12

    def test_matches_f2_near_rho_one(self, rng):
        # U f steps over a width sqrt(1 - rho), far below one fixed panel
        for _ in range(40):
            f = random_step_function(rng)
            for rho in (0.999, 0.9999):
                assert abs(M.f2l_symmetric(f, rho, 1) - M.f2(f, rho)) < 1e-7

    def test_rho_above_one_rejected(self):
        with pytest.raises(DomainError):
            M.f2l_symmetric(SIGN, 1.5, 2)

    @pytest.mark.parametrize("ell", [0, -1])
    def test_ell_below_one_rejected(self, ell):
        with pytest.raises(DomainError, match="ell"):
            M.f2l_symmetric(SIGN, 0.5, ell)


class TestSatProbSymmetric:
    def test_random_assignment(self, rng):
        zero = StepFunction((), (0.0,))
        for k in (2, 3, 4, 5, 7):
            for rho in (-1 / 3 if k <= 3 else 0.1, 0.5):
                want = 1 - 2.0 ** (1 - k)
                assert abs(M.sat_prob_symmetric(zero, k, rho) - want) < 1e-12

    def test_sign_nae3(self):
        want = (3 + 3 * F2_SIGN_THIRD) / 4
        assert abs(M.sat_prob_symmetric(SIGN, 3, -1 / 3) - want) < 1e-12

    def test_table_row_35(self):
        f = StepFunction((2.275193649,), (-1.0, 1.0))
        got = min(M.sat_prob_symmetric(f, k, 1 - 4 / k) for k in (3, 5))
        assert abs(got - 0.872886331) < 1e-6

    def test_k4_is_random_baseline(self, rng):
        f = random_step_function(rng)
        assert M.sat_prob_symmetric(f, 4, 0.0) == 7 / 8

    def test_exact_at_rho_one(self, rng):
        # all vectors coincide: P[NAE_k] = 1 - E[p^k + (1-p)^k], p = (1+f)/2
        for _ in range(50):
            f = random_step_function(rng)
            a = np.concatenate([[0.0], f.breakpoints, [np.inf]])
            mass = 2.0 * np.diff(ndtr(a))
            b = np.asarray(f.values)
            for k in (4, 5, 7):
                want = 1.0 - np.dot(mass, ((1 + b) / 2) ** k + ((1 - b) / 2) ** k)
                assert abs(M.sat_prob_symmetric(f, k, 1.0) - want) < 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            M.sat_prob_symmetric(SIGN, 1, 0.5)
        with pytest.raises(DomainError, match="moment_mc"):
            M.sat_prob_symmetric(SIGN, 5, -0.2)

    @pytest.mark.parametrize("k", [5.7, 5.0, 3.0, math.nan, "5"])
    def test_clause_size_must_be_an_integer(self, k):
        # 5.7 was evaluated as a clause of 5.7 literals
        with pytest.raises(DomainError, match="integer"):
            M.sat_prob_symmetric(SIGN, k, 0.2)
        with pytest.raises(DomainError, match="integer"):
            M.sat_probs_symmetric([SIGN], k, 0.2)

    @pytest.mark.parametrize("f", [SIGN, StepFunction((2.275193649,), (-1.0, 1.0))])
    def test_largest_k_is_finite(self, f):
        # (1 + u)^1023 <= 2^1023 stays finite with no overflow warning
        # (warnings are errors here); from k = 1024 the integrand overflows
        for rho in (1.0 - 4.0 / 1023, 1.0):
            assert math.isfinite(M.sat_prob_symmetric(f, 1023, rho))
        for k in (1024, 2000, 99999999999):
            with pytest.raises(DomainError, match="1024"):
                M.sat_prob_symmetric(f, k, 1.0 - 4.0 / k)


def _stack(rng, l: int, size: int) -> list[StepFunction]:
    """``size`` random step functions with l breakpoints each; about a
    quarter of the values are zeros of either sign."""
    fs = []
    for _ in range(size):
        a = np.cumsum(rng.uniform(0.05, 1.2, size=l))
        b = rng.uniform(-1.0, 1.0, size=l + 1)
        zero = rng.random(l + 1) < 0.25
        b[zero] = np.where(rng.random(l + 1) < 0.5, 0.0, -0.0)[zero]
        fs.append(StepFunction(tuple(a), tuple(b)))
    return fs


def _bits(x) -> bytes:
    return np.asarray(x, dtype=np.float64).tobytes()


class TestStacks:
    """The stacked F_2 lattice and noise sum give every function the bits
    of its own call."""

    @pytest.mark.parametrize("size", [1, 3, 16])
    @pytest.mark.parametrize("l", [0, 1, 2, 3, 4])
    def test_f2_stack_matches_f2(self, rng, l, size):
        fs = _stack(rng, l, size)
        a = np.array([f.breakpoints for f in fs]).reshape(size, l)
        b = np.array([f.values for f in fs])
        for rho in (0.0, 0.5, -0.5, -1 / 3, 1.0 - 1e-7, -(1.0 - 1e-7), 1.0, -1.0):
            got = M._f2_stack(a, b, rho)
            assert got.shape == (size,)
            assert _bits(got) == _bits([M.f2(f, rho) for f in fs])

    @pytest.mark.parametrize("size", [1, 3, 16])
    @pytest.mark.parametrize("l", [0, 1, 2, 3, 4])
    def test_sat_probs_match_single_calls(self, rng, l, size):
        fs = _stack(rng, l, size)
        for k in range(2, 11):
            rhos = [0.0, 1.0 - 4.0 / k, 0.5, 1.0 - 1e-7, 1.0 - 1e-12, 1.0]
            if k <= 3:
                rhos += [-0.5, -(1.0 - 1e-7), -1.0]
            for rho in rhos:
                got = M.sat_probs_symmetric(fs, k, rho)
                assert _bits(got) == _bits([M.sat_prob_symmetric(f, k, rho) for f in fs])
                if k <= 3 and rho != 0.0:  # the route through f2's cached lattice
                    c = 2.0 ** (k - 1)
                    want = [((c - 1.0) - (c - 1.0) * M.f2(f, rho)) / c for f in fs]
                    assert _bits(got) == _bits(want)

    def test_split_panels(self, rng):
        # rho = 1 - 4/k is past ~0.993 from k ~ 570: the panels split per function
        k = 1000
        fs = _stack(rng, 2, 5)
        eta, s = np.sqrt(1.0 - 4.0 / k), np.sqrt(4.0 / k)
        assert s / eta < M._RESOLVED_WIDTH
        got = M.sat_probs_symmetric(fs, k, 1.0 - 4.0 / k)
        assert _bits(got) == _bits([M.sat_prob_symmetric(f, k, 1.0 - 4.0 / k) for f in fs])

    def test_needs_one_breakpoint_count(self):
        with pytest.raises(DomainError, match="one breakpoint count"):
            M.sat_probs_symmetric([SIGN, StepFunction((1.0,), (0.5, 1.0))], 5, 0.5)
        with pytest.raises(DomainError, match="one breakpoint count"):
            M.sat_probs_symmetric([], 5, 0.5)


class TestMomentMC:
    def test_pair_matches_analytic(self):
        est = M.moment_mc(SIGN, GramConfig([[1, 1 / 3], [1 / 3, 1]]),
                          samples=10**6, seed=11)
        assert est.samples == est.determined == 10**6
        assert abs(est.value - F2_SIGN_THIRD) < 3 * est.std_error

    def test_odd_moment_vanishes(self):
        b = np.array([[1.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 1.0]])
        est = M.moment_mc(SIGN, GramConfig(b), samples=10**6, seed=3)
        assert abs(est.value) < 3 * est.std_error

    def test_symmetric_fourth_moment(self):
        b = np.full((4, 4), 1 / 3) + np.eye(4) * (2 / 3)
        est = M.moment_mc(SIGN, GramConfig(b), samples=10**6, seed=5)
        assert abs(est.value - F4_THIRD_SIGN) < 3 * est.std_error

    def test_semidefinite_factorization(self):
        # rank-deficient Gram (three copies of one vector)
        est = M.moment_mc(SIGN, GramConfig(np.ones((2, 2))), samples=10**4, seed=1)
        assert est.value == 1.0

    def test_indefinite_rejected(self):
        with pytest.raises(DomainError):
            M.moment_mc(SIGN, GramConfig([[1, 1, -1], [1, 1, 1], [-1, 1, 1]]),
                        samples=100, seed=0)

    @pytest.mark.parametrize("samples", [0, -5, 1])
    def test_needs_a_sample(self, samples):
        with pytest.raises(DomainError):
            M.moment_mc(SIGN, GramConfig(np.eye(2)), samples=samples)

    def test_batches_pool_into_one_estimate(self):
        # 7 draws in batches of 3; the draws not returned contribute 0
        batches = iter([np.array([1.0, -1.0, 1.0]), np.array([1.0]), np.array([])])
        est = M._mc_estimate(lambda m: next(batches), 7, 3)
        assert est.samples == 7 and est.determined == 4
        assert est.value == pytest.approx(2 / 7, rel=1e-15)
        assert est.std_error == pytest.approx(math.sqrt((4 / 7 - (2 / 7) ** 2) / 7), rel=1e-15)

    def test_chunk_size_changes_no_bit(self, monkeypatch):
        # the chunks fill one summation batch from the normal stream in order
        f = StepFunction((0.4, 1.3), (0.2, 0.7, 1.0))
        g = GramConfig([[1.0, 0.5, -0.2], [0.5, 1.0, 0.1], [-0.2, 0.1, 1.0]])
        got = set()
        for chunk in (M._MOMENT_CHUNK, 20_003, 999, 7, 1):
            monkeypatch.setattr(M, "_MOMENT_CHUNK", chunk)
            got.add(repr(M.moment_mc(f, g, samples=20_003, seed=8)))
        assert len(got) == 1

    @pytest.mark.parametrize("k,bound_mb", [(2, 16), (4, 24)])
    def test_peak_memory(self, k, bound_mb):
        # a whole 10^6-row batch drawn at once peaked at 64 MB (k = 2) and
        # 128 MB (k = 4); the 8 MB vector of products is all that must stay
        g = GramConfig(np.full((k, k), 0.2) + 0.8 * np.eye(k))
        f = StepFunction((0.4, 1.3), (0.2, 0.7, 1.0))
        assert peak_traced_mb(lambda: M.moment_mc(f, g, samples=10**6)) <= bound_mb

    @pytest.mark.parametrize("seed", [-1, 2**64, 0.5, "3"])
    def test_seed_domain(self, seed):
        with pytest.raises(DomainError, match="seed"):
            M.moment_mc(SIGN, GramConfig(np.eye(2)), samples=10, seed=seed)
        with pytest.raises(DomainError, match="seed"):
            M.f4_negative_witness(0.1, 0.2, samples=10, seed=seed)


class TestF4NegativeWitness:
    def test_bias_closed_forms(self):
        for delta in (0.05, 0.1, 0.2):
            v = M.f4_witness_vectors(delta)
            g = v @ v.T
            assert np.allclose(np.diag(g), 1.0, atol=1e-15)
            want_first = (2 - delta) / 3
            want_petal = (1 - 4 * delta + delta**2) / 6
            assert np.allclose(g[0, 1:], want_first, atol=1e-14)
            for i in (1, 2, 3):
                for j in (1, 2, 3):
                    if i != j:
                        assert abs(g[i, j] - want_petal) < 1e-14
            assert want_first > 0 and want_petal > 0

    def test_delta_domain(self):
        for bad in (0.0, 2 - math.sqrt(3), 0.5):
            with pytest.raises(DomainError):
                M.f4_witness_vectors(bad)

    def test_determined_samples_multiply_to_minus_one(self):
        est = M.f4_negative_witness(0.1, 0.2, samples=4 * 10**6, seed=2)
        # every all-determined draw contributes -1, so the mean is -P[hit]
        assert est.value <= 0.0
        assert est.samples == 4 * 10**6
        assert est.determined > 0 and est.value == -est.determined / est.samples

    def test_zero_hits_are_reported(self):
        # at eps = 0.001 fewer than one draw in 10^10 is determined
        est = M.f4_negative_witness(0.1, 0.001, samples=1000, seed=0)
        assert (est.value, est.std_error, est.samples, est.determined) == (0.0, 0.0, 1000, 0)

    @pytest.mark.parametrize("samples", [0, -5, 1])
    def test_needs_a_sample(self, samples):
        with pytest.raises(DomainError):
            M.f4_negative_witness(0.1, 0.2, samples=samples)

    @pytest.mark.parametrize("eps", [0.0, -0.2, math.nan, math.inf])
    def test_eps_domain(self, eps):
        with pytest.raises(DomainError):
            M.f4_negative_witness(0.1, eps, samples=10)

    @pytest.mark.parametrize("eps,seed", [(0.5, 0), (0.5, 7), (0.2, 3), (0.05, 1)])
    def test_prefilter_matches_the_full_product(self, monkeypatch, eps, seed):
        # batches of 3e5 over 10^6 samples: three full batches and a short one
        monkeypatch.setattr(M, "_WITNESS_BATCH", 300_000)
        v = M.f4_witness_vectors(0.1)
        rng = np.random.default_rng(seed)

        def draw(m):
            t = rng.standard_normal((m, 3)) @ v.T
            a = np.abs(t)
            det = ((a >= eps) & (a < 1.5 * eps)).all(axis=1)
            return np.prod(np.sign(t[det]), axis=1)

        want = M._mc_estimate(draw, 10**6, 300_000)
        assert M.f4_negative_witness(0.1, eps, samples=10**6, seed=seed) == want
        # few draws are determined, so check the projections row by row too
        z = np.random.default_rng(seed).standard_normal((10**6, 3))
        first = np.abs(z[:, 0])
        keep = (first >= eps) & (first < 1.5 * eps)
        assert keep.sum() > 10**4
        assert np.array_equal(z[keep] @ v.T, (z @ v.T)[keep])

    def test_batch_size_changes_no_bit(self, monkeypatch):
        # +-1 sums are exact and the normals fill in order, so batches of one
        # whole run, of the default and of an odd size give one result
        got = set()
        for batch in (5 * 10**6, 1 << 18, 1 << 16, 12_345):
            monkeypatch.setattr(M, "_WITNESS_BATCH", batch)
            got.add(repr(M.f4_negative_witness(0.1, 0.5, samples=5 * 10**6, seed=4)))
        assert len(got) == 1

    def test_peak_memory(self):
        # one 5e6-row batch's normals alone are 120 MB, one 2^18-row batch
        # peaked at 11.7 MB
        assert peak_traced_mb(lambda: M.f4_negative_witness(0.1, 0.5, samples=5 * 10**6)) <= 4


class TestMomentEstimate:
    def test_exact_has_zero_error(self):
        e = M.MomentEstimate(0.5, 0.0, 0)
        assert e.std_error == 0.0 and e.samples == 0

    def test_negative_error_rejected(self):
        with pytest.raises(DomainError):
            M.MomentEstimate(0.0, -1.0, 10)


def _digest(values) -> str:
    return hashlib.sha256(np.asarray(values, dtype="<f8").tobytes()).hexdigest()


def _criterion_8_suite():
    rng = np.random.default_rng(511)
    return [random_step_function(rng) for _ in range(200)]


# 0 .. 1 in steps of 0.05, then 1 - 10^-3 .. 1 - 10^-15
_NEAR_ONE = np.concatenate([np.linspace(0.0, 1.0, 21), 1.0 - np.logspace(-3, -15, 13)])


class TestBitPins:
    """Digests of moment values from the kernels as they were before the
    lattice, the noise sum and the witness were reworked, which was to
    change no bit of them."""

    def test_f2_on_the_criterion_8_grids(self):
        grids = (np.linspace(-1, 1, 21), np.linspace(0, 1, 21),
                 np.arange(-1.0, 1.0 + 1e-12, 0.02))
        vals = [M.f2(f, r) for f in _criterion_8_suite() for g in grids for r in g]
        assert _digest(vals) == "50d837b9f847bee6675d114830d5e2beb566ae6188dfe27d989abf505e250c4b"

    def test_symmetric_moments_up_to_one(self):
        suite = _criterion_8_suite()[:20]
        vals = [(M.sat_prob_symmetric(f, 5, r), M.f2l_symmetric(f, r, 2))
                for f in suite for r in _NEAR_ONE]
        assert _digest(vals) == "20b998cafcb5d92a3ccdcf14512cdc0736514565c7f8d7752c723f50ffd6a8d5"

    def test_owens_t_fallback_kernel(self):
        assert _digest(fredholm._reduced_kernel(100, -0.99)) == "bd5004ac31f9fbe3795617484ca6b24277956d08b369e5c50c4694bb608d86c3"

    def test_witness_estimates(self):
        got = [tuple(vars(M.f4_negative_witness(0.1, 0.5, samples=4 * 10**6, seed=s)).values())
               for s in (11, 12)]
        assert got == [(-4.5e-06, 1.0606577852917498e-06, 4000000, 18),
                       (-3e-06, 8.660241047453587e-07, 4000000, 12)]

    def test_moment_mc_estimates(self):
        # the fewest samples an estimate takes, and counts on both sides of
        # the 2^16-row chunk and of the 10^6 summation batch; step values
        # off +-1 make the float sums inexact
        f = StepFunction((0.4, 1.3), (0.2, 0.7, 1.0))
        grams = ([[1.0, 0.3], [0.3, 1.0]],
                 [[1.0, 0.5, -0.2], [0.5, 1.0, 0.1], [-0.2, 0.1, 1.0]],
                 [[1.0, 0.4, 0.3, -0.1], [0.4, 1.0, 0.2, 0.25],
                  [0.3, 0.2, 1.0, 0.35], [-0.1, 0.25, 0.35, 1.0]])
        counts = (2, (1 << 16) - 1, (1 << 16) + 1, 10**6, 10**6 + (1 << 16) + 3)
        vals = [tuple(vars(M.moment_mc(f, GramConfig(g), samples=n, seed=seed)).values())
                for seed, g in enumerate(grams, 21) for n in counts]
        vals.append(tuple(vars(M.f4_negative_witness(0.1, 0.5, samples=3 * 10**6 + 7,
                                                     seed=9)).values()))
        assert _digest(vals) == "56412f6cdf41cc9c0fc3bccddf7513c6e5ca824260ae35e4b031fdd0ada5f814"
