import math

import numpy as np
import pytest

from naeopt.core import SIGN, StepFunction
from naeopt.errors import DomainError
from naeopt import hermite as H
from naeopt import moments as M

from conftest import random_step_function


class TestMatchings:
    def test_base_cases(self):
        for n in range(8):
            assert H.matchings_count(0, n) == 1
        assert H.matchings_count(1, 3) == 3     # triangle edges
        assert H.matchings_count(2, 4) == 3     # perfect matchings of K4
        assert H.matchings_count(1, 2) == 1
        assert H.matchings_count(3, 6) == 15

    def test_out_of_range(self):
        assert H.matchings_count(2, 3) == 0
        with pytest.raises(DomainError):
            H.matchings_count(-1, 3)

    def test_recurrence(self):
        # m_l(K_n) = m_l(K_{n-1}) + (n-1) m_{l-1}(K_{n-2})
        for n in range(2, 12):
            for l in range(1, n // 2 + 1):
                assert H.matchings_count(l, n) == (
                    H.matchings_count(l, n - 1)
                    + (n - 1) * H.matchings_count(l - 1, n - 2))


class TestHermitePoly:
    def test_low_degrees(self):
        assert np.allclose(H.monomial_coefficients(1), [0, 1])
        assert np.allclose(H.monomial_coefficients(2),
                           [-1 / math.sqrt(2), 0, 1 / math.sqrt(2)])
        assert np.allclose(H.monomial_coefficients(3),
                           [0, -3 / math.sqrt(6), 0, 1 / math.sqrt(6)])
        assert abs(H.hermite_values(1.0, 3)[3] - (-2 / math.sqrt(6))) < 1e-14
        with pytest.raises(DomainError):
            H.monomial_coefficients(-1)

    def test_monomials_match_recurrence(self):
        xs = np.linspace(-3.0, 3.0, 13)
        table = H.hermite_values(xs, 12)
        for n in range(13):
            poly = np.polynomial.Polynomial(H.monomial_coefficients(n))
            assert np.allclose(poly(xs), table[:, n], rtol=1e-12, atol=1e-12)

    def test_orthonormality(self):
        xs, ws = M._QX, M._QW
        phi = M._QPHI
        table = H.hermite_values(xs, 9)
        gram = (table * (ws * phi)[:, None]).T @ table
        assert np.max(np.abs(gram - np.eye(10))) < 1e-8

    def test_parity(self):
        xs = np.linspace(0.1, 3.0, 7)
        pos, neg = H.hermite_values(xs, 7), H.hermite_values(-xs, 7)
        for n in range(8):
            assert np.allclose(neg[:, n], (-1) ** n * pos[:, n], atol=1e-12)


class TestHermiteCoeffs:
    def test_sign_first_coefficient(self):
        c = H.hermite_coeffs(SIGN, 9)
        assert abs(c[0] - math.sqrt(2 / math.pi)) < 1e-14

    def test_arithmetic_unchanged(self):
        # the boundary-term sum written out as hermite_coeffs computed it
        # before cell_boundary_terms was split out: equal bit for bit
        f = StepFunction((0.4, 1.1, 2.3), (0.2, -0.7, 0.9, 1.0))
        edges, vals = f.cells()
        finite = np.isfinite(edges)
        h = np.zeros((edges.size, 41))
        h[finite] = H.hermite_values(edges[finite], 40)
        boundary = h * (np.exp(-edges * edges / 2.0) / np.sqrt(2.0 * np.pi))[:, None]
        c = (vals @ (boundary[:-1] - boundary[1:])) / np.sqrt(np.arange(1, 42))
        assert np.array_equal(H.hermite_coeffs(f, 41), c[0::2])

    def test_against_quadrature(self, rng):
        # adaptive quadrature with panels aligned to the jump points
        from scipy.integrate import quad

        def phi(x):
            return math.exp(-x * x / 2) / math.sqrt(2 * math.pi)

        for _ in range(5):
            f = random_step_function(rng)
            c = H.hermite_coeffs(f, 7)
            jumps = sorted({-b for b in f.breakpoints} | {0.0} | set(f.breakpoints))
            for j, deg in enumerate((1, 3, 5, 7)):
                val, _ = quad(lambda x: float(f(x)) * H.hermite_values(x, deg)[deg] * phi(x),
                              -12, 12, points=jumps, limit=200)
                assert abs(c[j] - val) < 1e-9

    def test_slinear_closed_form(self):
        # c1 of clamp(s x) = 2 s (Phi(1/s) - 1/2 - phi(1/s)/s) + 2 phi(1/s)
        from scipy.special import ndtr
        s = 1.0
        m = 4000
        edges = np.linspace(0, 1 / s, m + 1)
        f = StepFunction(tuple(edges[1:]),
                         tuple(np.clip(s * (edges[:-1] + edges[1:]) / 2, -1, 1)) + (1.0,))
        phi_a = math.exp(-1 / (2 * s * s)) / math.sqrt(2 * math.pi)
        want = 2 * s * (ndtr(1 / s) - 0.5 - phi_a / s) + 2 * phi_a
        got = H.hermite_coeffs(f, 1)[0]
        assert abs(got - want) < 1e-6  # discretization limited

    def test_parseval_inequality_and_tail(self, rng):
        # discontinuities force c_i ~ i^(-3/4), so the degree-41 energy gap
        # sits near 0.08 for unit jumps and shrinks with the jump sizes;
        # near-equality at this truncation is impossible for +-1 steps
        for _ in range(8):
            f = random_step_function(rng)
            c = H.hermite_coeffs(f, 41)
            energy = M.f2(f, 1.0)
            gap = energy - np.sum(c * c)
            assert gap >= -1e-12
            c_more = H.hermite_coeffs(f, 161)
            assert energy - np.sum(c_more * c_more) <= gap * 0.9 + 1e-12
        c_sign = H.hermite_coeffs(SIGN, 41)
        gap41 = 1.0 - np.sum(c_sign * c_sign)
        assert 0.07 < gap41 < 0.09
        c_more = H.hermite_coeffs(SIGN, 161)
        gap161 = 1.0 - np.sum(c_more * c_more)
        assert gap161 < gap41 / 1.9  # tail halves when the degree quadruples
        scaled = StepFunction((), (0.2,))
        c_scaled = H.hermite_coeffs(scaled, 41)
        assert M.f2(scaled, 1.0) - np.sum(c_scaled * c_scaled) < 0.04 * gap41 * 1.01


class TestExtremePoints:
    def test_pure_first_direction_is_sign(self):
        f, c = H.extreme_point([1.0, 0.0])
        assert f.breakpoints == () and f.values == (1.0,)
        assert abs(c[0] - math.sqrt(2 / math.pi)) < 1e-14
        assert abs(c[1] - H.hermite_coeffs(SIGN, 3)[1]) < 1e-14

    def test_pure_third_direction(self):
        f, _ = H.extreme_point([0.0, 1.0])
        assert len(f.breakpoints) == 1
        assert abs(f.breakpoints[0] - math.sqrt(3.0)) < 1e-9
        assert f.values == (-1.0, 1.0)

    def test_step_count_bound(self, rng):
        for _ in range(30):
            k = int(rng.integers(2, 5))
            d = rng.normal(size=k)
            f, _ = H.extreme_point(d)
            assert len(f.breakpoints) <= k  # <= 2k steps on the whole line
            assert all(abs(v) == 1.0 for v in f.values)

    def test_maximizes_direction(self, rng):
        for _ in range(10):
            d = rng.normal(size=2)
            f, c = H.extreme_point(d)
            target = float(d @ c)
            for _ in range(20):
                g = random_step_function(rng)
                cg = H.hermite_coeffs(g, 3)[:2]
                assert d @ cg <= target + 1e-9

    def test_zero_direction_rejected(self):
        with pytest.raises(DomainError):
            H.extreme_point([0.0, 0.0])


class TestDampedCoeffs:
    def test_eta_one_identity(self, rng):
        c = H.hermite_coeffs(random_step_function(rng), 9)
        assert np.allclose(H.damped_coeffs(c, 1.0), c)

    def test_eta_zero_kills(self, rng):
        c = H.hermite_coeffs(random_step_function(rng), 9)
        assert np.allclose(H.damped_coeffs(c, 0.0), 0.0)

    def test_reconstructs_noise_operator(self, rng):
        xs = np.linspace(-3, 3, 20)
        for f in [SIGN, random_step_function(rng), random_step_function(rng)]:
            c = H.hermite_coeffs(f, 41)
            for eta in (0.3, 0.5, 0.8):
                rec = H.reconstruct_odd(H.damped_coeffs(c, eta), xs)
                assert np.max(np.abs(rec - M.noise_operator(f, eta, xs))) < 1e-4

    def test_sign_at_one(self):
        c = H.hermite_coeffs(SIGN, 41)
        rec = H.reconstruct_odd(H.damped_coeffs(c, 0.5), np.array([1.0]))[0]
        assert abs(rec - M.noise_operator(SIGN, 0.5, 1.0)) < 1e-4

    def test_domain(self):
        with pytest.raises(DomainError):
            H.damped_coeffs(np.array([0.5]), 1.5)


class TestBoundarySweep:
    def test_sweep_shape(self):
        pts = H.boundary_sweep(2, 32)
        assert len(pts) == 32
        for theta, c in pts:
            assert c.shape == (2,)
            assert abs(c[0]) <= math.sqrt(2 / math.pi) + 1e-12

    def test_contains_conjectured_optimum_direction(self):
        # the double-step {3,5} optimum is an extreme point of P_2
        fstar = StepFunction((2.27519364977,), (-1.0, 1.0))
        cstar = H.hermite_coeffs(fstar, 3)
        pts = H.boundary_sweep(2, 512)
        best = min(np.hypot(c[0] - cstar[0], c[1] - cstar[1]) for _, c in pts)
        assert best < 5e-3

    def test_needs_k_at_least_two(self):
        with pytest.raises(DomainError):
            H.boundary_sweep(1, 8)
