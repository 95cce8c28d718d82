import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import peak_traced_mb
from naeopt.core import GridFunction, HardDistribution, StepFunction, equal_mass_edges
from naeopt.errors import DomainError
from naeopt import fredholm as F
from naeopt import moments as M

F2_SIGN_THIRD = 2.0 * math.asin(1.0 / 3.0) / math.pi
HARD_NAE3 = HardDistribution("nae3", 0.7381, -0.7420, "clamped")


@pytest.fixture(scope="module")
def hard_solution():
    return F.optimal_step_function(HARD_NAE3, 600)


class TestKernelSpec:
    def test_maxcut(self):
        spec = F.kernel_spec(HardDistribution("maxcut", 0.8, -0.5))
        assert spec.terms == ((1.0, -0.5),)
        assert abs(spec.lambda1 - 0.25) < 1e-15

    def test_nae3_clamped(self):
        spec = F.kernel_spec(HardDistribution("nae3", 0.5, -0.7, "clamped"))
        assert abs(spec.lambda1 - (0.5 / 1.5)) < 1e-15
        (w, r), (w0, r0) = spec.terms
        assert (w, r) == (1.0 / 1.5, -0.7)
        assert (w0, r0) == (1.0, -1 / 3)

    def test_nae3_one_variant_diagonal(self):
        # the (1,1,1) atom folds into int f^2: coefficient (1+2a)/(2-2a)
        spec = F.kernel_spec(HardDistribution("nae3", 0.25, -0.7, "one"))
        assert abs(spec.lambda1 - 1.5 / 1.5) < 1e-12
        assert spec.terms == ((1.0, -0.7),)

    def test_rho_minus_one_rejected(self):
        with pytest.raises(DomainError):
            F.kernel_spec(HardDistribution("maxcut", 0.5, -1.0))

    def test_invalid_correlation(self):
        with pytest.raises(DomainError):
            F.KernelSpec(1.0, ((1.0, 1.0),))

    @pytest.mark.parametrize("weight", [math.inf, -math.inf, math.nan])
    def test_weights_must_be_finite(self, weight):
        with pytest.raises(DomainError, match="finite"):
            F.KernelSpec(1.0, ((weight, -0.5),))


class TestCompleteness:
    def test_examples(self):
        assert F.completeness(HardDistribution("nae3", 1.0, -0.5, "clamped")) == 1.0
        assert F.completeness(HardDistribution("maxcut", 1.0, -1.0)) == 1.0
        assert F.completeness(HardDistribution("nae3", 0.0, 0.0, "clamped")) == 0.5

    def test_one_variant(self):
        d = HardDistribution("nae3", 0.25, -0.6, "one")
        assert abs(F.completeness(d) - 0.75 * 3.2 / 4) < 1e-15


class TestKernelMatrix:
    def test_independent_term(self):
        m = F.build_kernel_matrix(F.KernelSpec(1.0, ((1.0, 0.0),)), 6)
        assert np.allclose(m, 1 / 36, atol=1e-14)

    def test_two_cells_orthant(self):
        for rho in (-0.6, 0.3, 0.9):
            m = F.build_kernel_matrix(F.KernelSpec(1.0, ((1.0, rho),)), 2)
            want = 0.25 + math.asin(rho) / (2 * math.pi)
            assert abs(m[0, 0] - want) < 1e-12
            assert abs(m[1, 1] - want) < 1e-12

    def test_row_sums(self):
        m = F.build_kernel_matrix(F.KernelSpec(1.0, ((1.0, -0.7),)), 10)
        assert np.allclose(m.sum(axis=1), 0.1, atol=1e-12)

    def test_weighted_combination(self):
        spec = F.KernelSpec(1.0, ((0.5, -0.4), (2.0, 0.2)))
        m = F.build_kernel_matrix(spec, 4)
        assert abs(m.sum() - 2.5) < 1e-10


def _owens_t_reduced(n, rho):
    return F._odd_reduced(F.build_kernel_matrix(F.KernelSpec(1.0, ((1.0, rho),)), n))


class TestReducedKernel:
    """The Mehler-series kernel against the Owen's-T lattice it replaced."""

    @pytest.mark.parametrize("n", [8, 100, 400])
    @pytest.mark.parametrize("rho", [-0.95, -0.742, -1.0 / 3.0, -1e-6, 0.0, 0.5])
    def test_matches_owens_t(self, n, rho):
        R = F._reduced_kernel(n, rho)
        assert R.shape == (n // 2, n // 2)
        assert np.max(np.abs(R - _owens_t_reduced(n, rho))) <= 1e-12

    @pytest.mark.parametrize("rho", [-0.97, -0.999, 0.99])
    def test_owens_t_beyond_the_cap(self, rho):
        degree = math.ceil(math.log(F._MEHLER_TAIL) / math.log(abs(rho)))
        assert degree > F._MEHLER_MAX_DEGREE
        assert np.array_equal(F._reduced_kernel(100, rho), _owens_t_reduced(100, rho))

    def test_entries_against_quadrature(self):
        mp = pytest.importorskip("mpmath")
        n, rho = 600, -0.742
        e = equal_mass_edges(n)
        R = F._reduced_kernel(n, rho)
        with mp.workdps(30):
            r = mp.mpf(rho)
            s = mp.sqrt(1 - r * r)

            def mass(i, l):  # P(X in cell i, Y in cell l), inner integral in closed form
                a, b, c, d = (mp.mpf(float(v)) for v in (e[i], e[i + 1], e[l], e[l + 1]))
                return mp.quad(lambda x: mp.npdf(x) * (mp.ncdf((d - r * x) / s)
                                                       - mp.ncdf((c - r * x) / s)), [a, b])

            for i, l in ((10, 250), (150, 200), (299, 299)):
                want = n * (mass(i, l) - mass(i, n - 1 - l))
                assert abs(R[i, l] - float(want)) <= 1e-15

    def test_table_grows_on_demand(self):
        n = 14  # a cell count no other test uses
        F._reduced_kernel(n, -0.1)   # K = 18: odd degrees 1..17
        small = F._CELL_COEFFS[n]
        assert small.shape == (n // 2, 9)
        F._reduced_kernel(n, -0.9)   # K = 372: odd degrees 1..371
        assert F._CELL_COEFFS[n].shape == (n // 2, 186)
        # growing leaves the columns already there bit-identical, so a
        # kernel does not depend on which correlations came before it
        assert np.array_equal(F._CELL_COEFFS[n][:, :9], small)


class TestSolveDiscreteFredholm:
    # the clamped solve on the odd-reduced form of a full kernel matrix
    def test_lambda_zero_gives_g(self):
        kernel = F.build_kernel_matrix(F.KernelSpec(1.0, ((1.0, -0.5),)), 8)
        v = F._solve_half(F._odd_reduced(kernel), 0.0, 2, 8)
        assert np.allclose(v[:2], -1) and np.allclose(v[-2:], 1)
        assert np.allclose(v[2:6], 0.0)  # g vanishes at lam = 0

    def test_fully_clamped_is_sign(self):
        kernel = F.build_kernel_matrix(F.KernelSpec(1.0, ((1.0, -0.5),)), 8)
        v = F._solve_half(F._odd_reduced(kernel), 1.0, 4, 8)
        assert np.array_equal(v, [-1] * 4 + [1] * 4)

    def test_arithmetic_unchanged(self):
        # the system built with np.ix_ and np.eye, as _solve_half did before
        # it sliced contiguously: equal bit for bit
        n, half = 100, 50
        spec = F.kernel_spec(HARD_NAE3)
        R = F._combined_reduced(spec, n)
        lam = 1.0 / spec.lambda1
        for i_a in (0, 1, 17, 49):
            idx = np.arange(i_a, half)
            sys = np.eye(half - i_a) + lam * R[np.ix_(idx, idx)]
            g = lam * R[idx, :i_a].sum(axis=1)
            want = np.concatenate([-np.ones(i_a), np.linalg.solve(sys, g)])
            f = F._solve_half(R, lam, i_a, n)
            assert np.array_equal(f[:half], want)
            assert np.array_equal(f[half:], -want[::-1])


class TestOptimalStepFunction:
    def test_maxcut_perfect_completeness(self):
        sol = F.optimal_step_function(HardDistribution("maxcut", 1.0, -1.0), 40)
        assert sol.soundness == 1.0 and sol.completeness == 1.0
        assert np.allclose(sol.f.values, [-1] * 20 + [1] * 20)

    def test_nae3_perfect_completeness(self):
        sol = F.optimal_step_function(HardDistribution("nae3", 1.0, -0.5, "clamped"), 200)
        want = (3 + 3 * F2_SIGN_THIRD) / 4
        # sign is optimal; the discrete F2 differs from the analytic one
        # only through the N-cell discretization of sign (which is exact)
        assert abs(sol.soundness - want) < 1e-10
        assert sol.completeness == 1.0

    def test_hard_point_ratio(self, hard_solution):
        sol = hard_solution
        ratio = sol.soundness / sol.completeness
        assert abs(ratio - 0.9089169) < 2e-6
        assert abs(sol.completeness - 0.9662149) < 1e-12

    def test_solution_odd_monotone_residual(self, hard_solution):
        sol = hard_solution
        v = np.asarray(sol.f.values)
        assert sol.f.oddness_defect() < 1e-9
        assert np.all(np.diff(v) >= -1e-12)
        assert sol.residual <= 1e-8 * sol.f.cells
        i = sol.clamp_index
        assert np.all(v[:i] == -1) and np.all(v[-i:] == 1)
        assert np.all(np.abs(v[i:-i]) < 1)

    def test_local_optimality_against_families(self, hard_solution):
        sol = hard_solution
        s_sign = F.soundness(GridFunction((-1.0,) * 300 + (1.0,) * 300), HARD_NAE3)
        assert sol.soundness >= s_sign - 1e-12
        e = sol.f.edges()
        dens = np.exp(-np.square(np.where(np.isfinite(e), e, 0.0)) / 2) / np.sqrt(2 * np.pi)
        dens[~np.isfinite(e)] = 0.0
        centroid = 600 * (dens[:-1] - dens[1:])
        for s in np.linspace(0.5, 25, 50):
            g = GridFunction(tuple(np.clip(s * centroid, -1, 1)))
            assert sol.soundness >= F.soundness(g, HARD_NAE3) - 1e-12

    def test_two_route_soundness_agreement(self, hard_solution):
        sol = hard_solution
        via_grid = F.soundness(sol.f, HARD_NAE3)
        via_step = F.soundness(sol.f.to_step_function(), HARD_NAE3)
        assert abs(via_grid - via_step) < 1e-9

    def test_affine_in_alpha_at_fixed_f(self, hard_solution):
        f = hard_solution.f
        alphas = (0.3, 0.55, 0.8)
        svals, cvals = [], []
        for a in alphas:
            d = HardDistribution("nae3", a, -0.742, "clamped")
            svals.append(F.soundness(f, d))
            cvals.append(F.completeness(d))
        for vals in (svals, cvals):
            interp = vals[0] + (vals[2] - vals[0]) * 0.5
            assert abs(vals[1] - interp) < 1e-12

    def test_zero_function_cases(self):
        sol = F.optimal_step_function(HardDistribution("maxcut", 0.0, -0.5), 40)
        assert sol.soundness == 0.5 and np.allclose(sol.f.values, 0.0)

    def test_rho_minus_one_vertex(self):
        sol = F.optimal_step_function(HardDistribution("nae3", 0.5, -1.0, "clamped"), 40)
        assert np.allclose(np.abs(sol.f.values), 1.0)  # sign wins at rho = -1
        sol2 = F.optimal_step_function(HardDistribution("maxcut", 0.3, -1.0), 40)
        assert np.allclose(sol2.f.values, 0.0)  # low alpha prefers coin flips

    def test_odd_cell_count_rejected(self):
        with pytest.raises(DomainError):
            F.optimal_step_function(HARD_NAE3, 101)

    @pytest.mark.parametrize("n", [0, -2, -4, 4.0])
    def test_cell_count_below_two_rejected(self, n):
        with pytest.raises(DomainError, match="at least 2"):
            F.optimal_step_function(HARD_NAE3, n)

    @pytest.mark.parametrize("dist", [
        HARD_NAE3,
        HardDistribution("maxcut", 0.8446, -0.6892),
        HardDistribution("nae3", 0.1, -0.8, "one"),
        HardDistribution("nae3", 0.5, -0.3, "clamped"),
        HardDistribution("nae3", 0.9, -0.95, "clamped"),
        HardDistribution("maxcut", 0.5, -0.9),  # the zero function wins
    ])
    def test_beats_random_odd_monotone(self, dist, rng):
        # random odd monotone f on the same cells, and the optimum's left
        # half perturbed, re-sorted and clipped to [-1, 0], score no higher
        n = 100
        sol = F.optimal_step_function(dist, n)
        opt_half = np.asarray(sol.f.values[: n // 2])
        for _ in range(200):
            raw = np.sort(-rng.random(n // 2) ** rng.uniform(0.2, 5.0))
            noisy = np.clip(np.sort(opt_half + rng.normal(0.0, 10 ** rng.uniform(-4, -1), n // 2)),
                            -1.0, 0.0)
            for half in (raw, noisy):
                f = GridFunction(tuple(np.concatenate([half, -half[::-1]])))
                assert F.soundness(f, dist) <= sol.soundness + 1e-12


CASES = [("maxcut", "clamped"), ("nae3", "clamped"), ("nae3", "one")]


def _consistent_full(f, i_a, n):
    """Consistency read off the full odd f: interior inside (-1, 1), f monotone."""
    interior = f[i_a : n - i_a]
    bounded = not interior.size or float(np.max(np.abs(interior))) < 1.0
    return bounded and bool(np.all(np.diff(f) >= -1e-12))


def _system(dist, n):
    spec = F.kernel_spec(dist)
    return F._combined_reduced(spec, n), 1.0 / spec.lambda1


def _consistent_clamps(dist, n):
    """Every i_a in [1, N/2] whose solve is consistent, by exhaustive scan."""
    R, lam = _system(dist, n)
    out = []
    for i_a in range(1, n // 2 + 1):
        try:
            f = F._solve_half(R, lam, i_a, n)
        except np.linalg.LinAlgError:
            continue
        if _consistent_full(f, i_a, n):
            out.append(i_a)
    return out


class TestClampSearch:
    @given(st.sampled_from(CASES), st.floats(0.01, 0.99), st.floats(-0.99, 0.0))
    @settings(max_examples=60, deadline=None)
    def test_bisection_finds_smallest_consistent_clamp(self, case, alpha, rho):
        problem, variant = case
        n, half = 100, 50
        consistent = _consistent_clamps(HardDistribution(problem, alpha, rho, variant), n)
        # the search's trusted assumption: the consistent clamps are a suffix
        i_star = consistent[0]
        assert consistent == list(range(i_star, half + 1))
        ok = set(consistent).__contains__
        assert F._smallest_consistent_clamp(ok, half, None) == i_star
        for hint in range(1, half + 1):
            assert F._smallest_consistent_clamp(ok, half, hint) == i_star

    @given(st.sampled_from(CASES), st.floats(0.01, 0.99), st.floats(-0.99, 0.0))
    @settings(max_examples=60, deadline=None)
    def test_smallest_consistent_clamp_beats_larger_ones(self, case, alpha, rho):
        # why optimal_step_function drops the consistent clamps between i* and half
        problem, variant = case
        n, half = 100, 50
        dist = HardDistribution(problem, alpha, rho, variant)
        R, lam = _system(dist, n)
        sounds = [F._soundness_values(F._solve_half(R, lam, i_a, n), dist, n)
                  for i_a in _consistent_clamps(dist, n) if i_a < half]
        assert all(s <= sounds[0] for s in sounds)

    @pytest.mark.parametrize("problem, variant", CASES)
    def test_solves_per_point(self, monkeypatch, problem, variant):
        n, half = 100, 50
        dist = HardDistribution(problem, 0.7381, -0.742, variant)
        i_star = _consistent_clamps(dist, n)[0]
        cold = F.optimal_step_function(dist, n)
        sizes = []
        solve = np.linalg.solve

        def counted(a, b):
            sizes.append(a.shape[0])
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", counted)
        assert F.optimal_step_function(dist, n) == cold
        # the system of clamp i_a has half - i_a unknowns: none for 0 or half
        assert sizes and all(0 < m < half for m in sizes)
        sizes.clear()
        assert F.optimal_step_function(dist, n, hint=i_star) == cold
        assert len(sizes) <= 2 and all(0 < m < half for m in sizes)
        # a wrong hint costs the gallop and a bisection of its bracket
        for hint in range(1, half + 1):
            sizes.clear()
            assert F.optimal_step_function(dist, n, hint=hint) == cold
            d = abs(hint - i_star)
            assert len(sizes) <= 2 * math.ceil(math.log2(d + 1)) + 2, hint

    @pytest.mark.parametrize("problem, variant", CASES)
    def test_consistency_from_the_left_half(self, problem, variant):
        n, half = 100, 50
        for alpha, rho in ((0.05, -0.2), (0.7381, -0.742), (0.95, -0.97)):
            R, lam = _system(HardDistribution(problem, alpha, rho, variant), n)
            for i_a in range(half + 1):
                f = F._solve_half(R, lam, i_a, n)
                assert F._consistent_half(f[:half], i_a) == _consistent_full(f, i_a, n)

    def test_consistency_steps_down(self):
        n, half = 100, 50

        def odd(fh):
            return np.concatenate([fh, -fh[::-1]])

        fh = np.linspace(-0.5, -0.01, half)
        assert F._consistent_half(fh, 0) and _consistent_full(odd(fh), 0, n)
        fh[10] = fh[9] - 1e-9  # inside each half
        assert not F._consistent_half(fh, 0) and not _consistent_full(odd(fh), 0, n)
        fh = np.full(half, 0.25)  # across the middle
        assert not F._consistent_half(fh, 0) and not _consistent_full(odd(fh), 0, n)


def _scan_digest(problem, grid, n):
    """sha256 of the clamp index and soundness bits of every point of the
    grid x grid scan, built point by point from optimal_step_function with
    the hints the scan passes."""
    clamps, sounds = [], []
    alphas = np.linspace(0.0, 1.0, grid)
    for rho in np.linspace(-1.0, 0.0, grid):
        for variant in F._variants(problem):
            hint = None
            for alpha in alphas:
                sol = F.optimal_step_function(HardDistribution(problem, alpha, rho, variant), n,
                                              hint=hint)
                hint = sol.clamp_index if 1 <= sol.clamp_index < n // 2 else None
                clamps.append(sol.clamp_index)
                sounds.append(sol.soundness)
    return hashlib.sha256(np.array(clamps, dtype="<i8").tobytes()
                          + np.array(sounds, dtype="<f8").tobytes()).hexdigest()


class TestLeanScan:
    @pytest.mark.parametrize("problem", ["maxcut", "nae3"])
    def test_scan_matches_public_path(self, problem):
        n = 60
        alphas = np.linspace(0.0, 1.0, 9)
        for rho in np.linspace(-1.0, 0.0, 7):
            pts = F._scan_rho((problem, float(rho), alphas, n))
            want = [F.optimal_step_function(HardDistribution(problem, a, rho, v), n)
                    for v in F._variants(problem) for a in alphas]
            assert len(pts) == len(want)
            for p, sol in zip(pts, want):
                assert np.float64(p.soundness).view(np.uint64) \
                    == np.float64(sol.soundness).view(np.uint64)
                assert p.completeness == sol.completeness and p.consistent

    def test_curve_scan_grid_pinned(self):
        # the 40 x 40 nae3 grid at N=100 of the curve-scan benchmark; the
        # reference is the clamp search as it was before it galloped
        assert _scan_digest("nae3", 40, 100) == \
            "4b2d3451dd7bc5aba265e2177f73efada1082334d3213b12975df87a10772bc4"

    def test_maxcut_scan_grid_pinned(self):
        # the same grid for maxcut, whose optimum is the sign function; the
        # reference is the search before its candidates were scored in
        # closed form
        assert _scan_digest("maxcut", 40, 100) == \
            "bc8e886752eb8d47cdb89131b0c89186d0a970bb2265303c0cbe67d2e3a0c872"


def _bits(x):
    return np.float64(x).view(np.uint64)


class TestSearchCandidates:
    @pytest.mark.parametrize("problem, variant", CASES)
    @pytest.mark.parametrize("n", [60, 100, 400])
    def test_zero_and_sign_soundness_match_the_quadratic_forms(self, problem, variant, n):
        # -0.97 and -0.99 take the Owen's-T kernel; rho = -1, alpha = 0 and
        # alpha = 1 are the degenerate corners
        for rho in (-1.0, -0.99, -0.97, -0.742, -1.0 / 3.0, -0.2, 0.0):
            for alpha in (0.0, 0.05, 0.5, 0.7381, 1.0):
                dist = HardDistribution(problem, alpha, rho, variant)
                zero = F._soundness_from(F._zero_f2, dist)
                sign = F._soundness_from(lambda r: F._sign_f2(n, r), dist)
                assert _bits(zero) == _bits(F._soundness_values(np.zeros(n), dist, n))
                assert _bits(sign) == _bits(F._soundness_values(F._sign_values(n), dist, n))

    @pytest.mark.parametrize("problem, variant", CASES)
    def test_singular_systems_are_inconsistent(self, monkeypatch, problem, variant):
        # lam * R = -I makes every clamped system I + lam * R the zero matrix
        n, half = 100, 50
        monkeypatch.setattr(F, "_combined_reduced",
                            lambda spec, n: -spec.lambda1 * np.eye(n // 2))
        for alpha, rho in ((0.5, -0.5), (0.25, -0.9), (0.75, -0.2)):
            dist = HardDistribution(problem, alpha, rho, variant)
            lambda1 = F.kernel_spec(dist).lambda1
            assert 1.0 + 1.0 / lambda1 * -lambda1 == 0.0
            for hint in (None, 1, 10, half):
                i_a, f, s, *_ = F._search(dist, n, hint)  # warnings are errors here
                assert i_a in (0, half)
                assert np.array_equal(f, F._sign_values(n) if i_a else np.zeros(n))
                assert s == F._soundness_values(f, dist, n)


class TestSoundness:
    def test_zero_function(self):
        z3 = GridFunction((0.0, 0.0))
        assert F.soundness(z3, HardDistribution("nae3", 0.5, -0.5, "clamped")) == 0.75
        assert F.soundness(z3, HardDistribution("maxcut", 0.5, -0.5)) == 0.5
        zstep = StepFunction((), (0.0,))
        assert F.soundness(zstep, HardDistribution("nae3", 0.5, -0.5, "clamped")) == 0.75

    def test_sign_step_function(self):
        d = HardDistribution("nae3", 1.0, -0.5, "clamped")
        wanted = (3 + 3 * F2_SIGN_THIRD) / 4
        assert abs(F.soundness(StepFunction((), (1.0,)), d) - wanted) < 1e-12


class TestCurveAndRatio:
    def test_completeness_one_bucket(self):
        pts = F.curve("nae3", np.linspace(0, 1, 5), np.linspace(-1, 0, 5), 50)
        c1 = [p for p in pts if abs(p.completeness - 1.0) < 1e-12]
        assert c1
        want = (3 + 3 * F2_SIGN_THIRD) / 4
        assert min(abs(p.soundness - want) for p in c1) < 1e-10

    def test_lower_envelope_monotone(self):
        pts = F.curve("nae3", np.linspace(0, 1, 7), np.linspace(-1, 0, 7), 50)
        env = F.lower_envelope(pts)
        cs = [c for c, _ in env]
        ss = [s for _, s in env]
        assert cs == sorted(cs)
        assert all(ss[i] <= ss[i + 1] + 1e-12 for i in range(len(ss) - 1))

    def test_parallel_scan_matches_serial(self):
        a = np.linspace(0.2, 0.9, 4)
        r = np.linspace(-0.9, -0.2, 3)
        serial = F.curve("nae3", a, r, 50, threads=1)
        parallel = F.curve("nae3", a, r, 50, threads=2)
        assert serial == parallel

    @pytest.mark.parametrize("threads, slices, cpus", [
        (8, 5, 3), (8, 2, 16), (2, 5, 16),
        (4, 1, 16), (8, 5, 1), (8, 5, None),  # serial: no pool
    ])
    def test_pool_has_at_most_one_worker_per_slice_and_cpu(self, monkeypatch, threads,
                                                           slices, cpus):
        started = []

        class SerialPool:  # records its size and maps in this process
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize=1):
                return map(fn, tasks)

        a, r = np.linspace(0.2, 0.9, 3), np.linspace(-0.9, -0.2, slices)
        serial = F.curve("nae3", a, r, 20)
        monkeypatch.setattr(F, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(F.os, "cpu_count", lambda: cpus)
        assert F.curve("nae3", a, r, 20, threads=threads) == serial
        workers = min(threads, slices, cpus or 1)
        assert started == ([workers] if workers > 1 else [])

    @pytest.mark.parametrize("problem, grid, rest, threads, cpus", [
        ("nae3", 12, 8, 8, 3), ("nae3", 12, 8, 2, 16), ("nae3", 12, 8, 16, 16),
        ("nae3", 12, 8, 4, 1), ("nae3", 12, 8, 8, None), ("nae3", 12, 8, 1, 16),  # no pool
        ("maxcut", 9, 0, 8, 16),  # the first slice's minimum rules out every other slice
    ])
    def test_pruned_scan_pool_matches_serial(self, monkeypatch, problem, grid, rest,
                                             threads, cpus):
        # ``rest`` is the number of slices left after the first one is scanned
        started, handed = [], []

        class SerialPool:  # records its size and the slices of each task, maps in this process
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize=1):
                tasks = list(tasks)
                handed.extend(len(t[4]) for t in tasks)
                return map(fn, tasks)

        a, r = np.linspace(0.0, 1.0, grid), np.linspace(-1.0, 0.0, grid)
        serial = F._coarse_minimum(problem, a, r, 20, 1)
        monkeypatch.setattr(F, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(F.os, "cpu_count", lambda: cpus)
        assert F._coarse_minimum(problem, a, r, 20, threads) == serial
        workers = min(threads, rest, cpus or 1)
        assert started == ([workers] if workers > 1 else [])
        if workers > 1:
            assert len(handed) == workers and min(handed) >= 1 and sum(handed) == rest

    def test_parallel_ratio_matches_serial(self):
        kw = dict(grid=12, rounds=1, n=40, coarse_n=20)
        assert F.approx_ratio("nae3", threads=2, **kw) == F.approx_ratio("nae3", **kw)

    @pytest.mark.parametrize("threads", [0, -1, 1.5])
    def test_bad_thread_count_rejected(self, threads):
        with pytest.raises(DomainError, match="threads"):
            F.curve("nae3", [0.5], [-0.5], 50, threads=threads)
        with pytest.raises(DomainError, match="threads"):
            F.approx_ratio("nae3", grid=2, threads=threads)

    @pytest.mark.parametrize("alphas, rhos", [([], [-0.5]), ([0.5], [])])
    def test_empty_grid_rejected(self, alphas, rhos):
        with pytest.raises(DomainError, match="non-empty"):
            F.curve("nae3", alphas, rhos, 50)

    @pytest.mark.parametrize("n", [0, -2, 5, 6.0])
    def test_curve_rejects_a_bad_cell_count(self, n):
        with pytest.raises(DomainError, match="at least 2"):
            F.curve("nae3", [0.5], [-0.5], n)

    def test_negative_rounds_rejected(self, monkeypatch):
        monkeypatch.setattr(F, "_coarse_minimum", None)  # rejected before the coarse scan
        monkeypatch.setattr(F, "_search", None)
        with pytest.raises(DomainError, match="rounds"):
            F.approx_ratio("nae3", grid=2, rounds=-1)

    @pytest.mark.parametrize("kwargs, match", [({"grid": 2.5}, "grid"),
                                               ({"grid": 2, "rounds": 0.5}, "rounds")],
                             ids=["grid", "rounds"])
    def test_non_integer_grid_or_rounds_rejected(self, monkeypatch, kwargs, match):
        monkeypatch.setattr(F, "_coarse_minimum", None)
        monkeypatch.setattr(F, "_search", None)
        with pytest.raises(DomainError, match=match):
            F.approx_ratio("maxcut", n=4, coarse_n=4, **kwargs)

    @pytest.mark.parametrize("cells", [{"n": -4}, {"n": 7}, {"n": 600.0},
                                       {"coarse_n": 0}, {"coarse_n": 99}, {"coarse_n": 100.0}],
                             ids=lambda c: "=".join(map(str, *c.items())))
    def test_bad_cell_count_rejected_before_the_scan(self, monkeypatch, cells):
        monkeypatch.setattr(F, "_coarse_minimum", None)
        monkeypatch.setattr(F, "_search", None)
        with pytest.raises(DomainError, match="at least 2"):
            F.approx_ratio("nae3", grid=2, **cells)

    def test_ratio_at_zero_completeness_is_infinite(self):
        assert F._ratio_at("maxcut", 0.0, -0.5, "clamped", 20)[0] == math.inf

    @pytest.mark.parametrize("problem, variant", CASES)
    def test_ratio_at_ignores_its_hint(self, problem, variant):
        cold = F._ratio_at(problem, 0.7381, -0.742, variant, 100)
        for hint in range(1, 51):
            assert F._ratio_at(problem, 0.7381, -0.742, variant, 100, hint) == cold

    @pytest.mark.parametrize("problem", ["maxcut", "nae3"])
    @pytest.mark.parametrize("grid", [21, 60, 97])
    def test_pruned_minimum_matches_curve(self, problem, grid):
        a, r = np.linspace(0.0, 1.0, grid), np.linspace(-1.0, 0.0, grid)
        pts = F.curve(problem, a, r, 100)
        want = min(pts, key=lambda p: p.ratio)
        ratio, k, i = F._coarse_minimum(problem, a, r, 100, 1)
        # the same point, the first of its ratio in curve's order, with the same bits
        assert pts.index(want) == k * grid + i
        assert _bits(ratio) == _bits(want.ratio)
        # every bound lies at or below its point's ratio
        ratios = np.array([p.ratio for p in pts]).reshape(-1, grid)
        assert np.all(F._slice_bounds(problem, a, r, 100) <= ratios)

    def test_first_slice_visited_need_not_hold_the_minimum(self):
        a, r = np.linspace(0.0, 1.0, 40), np.linspace(-1.0, 0.0, 40)
        first = int(np.argmin(F._slice_bounds("nae3", a, r, 40).min(axis=1)))
        ratio, k, i = F._coarse_minimum("nae3", a, r, 40, 1)
        assert first != k
        pts = F.curve("nae3", a, r, 40)
        want = min(pts, key=lambda p: p.ratio)
        assert pts.index(want) == k * 40 + i and _bits(ratio) == _bits(want.ratio)

    @pytest.mark.parametrize("problem, grid, rounds, n, want", [
        ("maxcut", 41, 2, 200, (0.8785672057848545, 0.9997709447468656, -0.6891578131139885)),
        ("nae3", 21, 1, 400, (0.9089168523311153, 0.735071631265247, -0.742511897909317)),
    ])
    def test_ratio_pinned(self, problem, grid, rounds, n, want):
        # the floats of the full coarse scan over curve with unhinted refinement searches
        res = F.approx_ratio(problem, grid=grid, rounds=rounds, n=n, coarse_n=100)
        assert (res.ratio, res.alpha, res.rho, res.rho0_variant) == want + ("clamped",)

    @pytest.mark.parametrize("problem, solves, want", [
        ("maxcut", 120, (0.8785672058196663, 0.9999460361010359, -0.6891476369741747)),
        ("nae3", 667, (0.9089168523311153, 0.735071631265247, -0.742511897909317)),
    ])
    def test_ratio_solve_count(self, monkeypatch, problem, solves, want):
        # every search is hinted by the i* of the one before; when the hint
        # was the winner's clamp, maxcut's refinement (won by the sign
        # function) bisected from cold and took 387 solves in all
        calls = []
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: calls.append(1) or solve(a, b))
        res = F.approx_ratio(problem, grid=21, rounds=1, n=400)
        assert (res.ratio, res.alpha, res.rho, res.rho0_variant) == want + ("clamped",)
        assert len(calls) == solves

    def test_ratio_scan_memory(self):
        # the scan keeps one float per point: a CurvePoint per point peaked at 6.68 MB here
        assert peak_traced_mb(lambda: F.approx_ratio("nae3", grid=120, rounds=0, n=100,
                                                     coarse_n=100)) <= 2.5

    def test_small_ratio_search_maxcut(self):
        res = F.approx_ratio("maxcut", grid=41, rounds=2, n=200, coarse_n=100)
        assert abs(res.ratio - 0.878567) < 1e-3

    def test_discretization_convergence(self):
        r300 = F.optimal_step_function(HARD_NAE3, 300)
        r600 = F.optimal_step_function(HARD_NAE3, 600)
        assert abs(r300.soundness / r300.completeness
                   - r600.soundness / r600.completeness) < 2e-4


class TestSLinearFit:
    def test_exact_slinear_recovered(self):
        n = 200
        g0 = GridFunction((0.0,) * n)
        e = g0.edges()
        dens = np.exp(-np.square(np.where(np.isfinite(e), e, 0.0)) / 2) / np.sqrt(2 * np.pi)
        dens[~np.isfinite(e)] = 0.0
        centroid = n * (dens[:-1] - dens[1:])
        g = GridFunction(tuple(np.clip(4.0 * centroid, -1, 1)))
        fit = F.slinear_fit(g)
        assert abs(fit.slope - 4.0) < 1e-12
        assert fit.max_deviation < 1e-14

    def test_hard_point_slope(self, hard_solution):
        fit = F.slinear_fit(hard_solution.f)
        assert abs(fit.slope - 4.072132) < 0.01
        assert fit.interior_cells == 600 - 2 * hard_solution.clamp_index

    def test_all_clamped_rejected(self):
        with pytest.raises(DomainError):
            F.slinear_fit(GridFunction((-1.0, -1.0, 1.0, 1.0)))
