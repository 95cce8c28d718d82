import math

import numpy as np
import pytest

from naeopt.core import SIGN, StepFunction
from naeopt.errors import DomainError
from naeopt import stepopt as S
from naeopt.moments import f2, sat_prob_symmetric

from conftest import peak_traced_mb

TABLE_35 = StepFunction((2.275193649,), (-1.0, 1.0))


class TestObjective:
    def test_zero_function(self):
        z = StepFunction((), (0.0,))
        assert S.objective_alphaK(z, (3, 5)) == 0.75

    def test_sign_three(self):
        import math
        want = (3 + 3 * 2 * math.asin(1 / 3) / math.pi) / 4
        assert abs(S.objective_alphaK(SIGN, (3,)) - want) < 1e-12

    def test_table_35(self):
        assert abs(S.objective_alphaK(TABLE_35, (3, 5)) - 0.872886331) < 1e-6

    def test_smaller_over_larger_sets(self, rng):
        from conftest import random_step_function
        for _ in range(5):
            f = random_step_function(rng)
            base = S.objective_alphaK(f, (3, 5))
            assert S.objective_alphaK(f, (3, 5, 7)) <= base + 1e-15

    def test_clause_size_domain(self):
        with pytest.raises(DomainError):
            S.objective_alphaK(SIGN, (2, 5))
        with pytest.raises(DomainError):
            S.StepSearchConfig((2, 4))

    @pytest.mark.parametrize("sizes", [(3, 5.7), (3, 5.0), (3.0,), (3, "5"), (3, math.nan)])
    def test_clause_sizes_must_be_integers(self, sizes):
        # 5.7 was read as 5 by the search and as k = 5.7 by the objective
        with pytest.raises(DomainError, match="integer"):
            S.StepSearchConfig(sizes)
        with pytest.raises(DomainError, match="integer"):
            S.objective_alphaK(SIGN, sizes)
        with pytest.raises(DomainError, match="integer"):
            S.per_size_probs(SIGN, sizes)

    def test_numpy_integer_sizes_are_integers(self):
        cfg = S.StepSearchConfig((np.int64(5), 3, np.int32(5)))
        assert cfg.clause_sizes == (3, 5) and all(type(k) is int for k in cfg.clause_sizes)
        want = S.objective_alphaK(TABLE_35, (3, 5))
        assert S.objective_alphaK(TABLE_35, (3, np.int64(5))) == want


class TestOptimizeStep:
    def test_recovers_35_breakpoint(self):
        cfg = S.StepSearchConfig((3, 5), steps=2, pm_one=True, restarts=16, seed=7)
        res = S.optimize_step(cfg)
        assert abs(res.f.breakpoints[0] - 2.275193649) < 1e-3
        assert abs(res.objective - 0.872886331) < 1e-5
        assert res.f.values == (-1.0, 1.0)

    def test_single_free_value_36(self):
        cfg = S.StepSearchConfig((3, 6), steps=1, pm_one=False, restarts=12, seed=3)
        res = S.optimize_step(cfg)
        assert abs(abs(res.f.values[0]) - 0.856454637) < 1e-4
        assert abs(res.objective - 0.869020196) < 1e-5

    def test_deterministic(self):
        cfg = S.StepSearchConfig((3, 5), steps=2, pm_one=True, restarts=4, seed=11)
        r1 = S.optimize_step(cfg)
        r2 = S.optimize_step(cfg)
        assert r1.f == r2.f and r1.objective == r2.objective

    @pytest.mark.parametrize("steps", [0, -1])
    def test_needs_a_step(self, steps):
        with pytest.raises(DomainError, match="step"):
            S.StepSearchConfig((3, 5), steps=steps)

    @pytest.mark.parametrize("restarts", [0, -1])
    def test_needs_a_restart(self, restarts):
        with pytest.raises(DomainError):
            S.StepSearchConfig((3, 5), restarts=restarts)

    @pytest.mark.parametrize("field,value", [("steps", 2.0), ("steps", 1.5), ("steps", math.nan),
                                             ("restarts", 2.5), ("restarts", math.nan),
                                             ("restarts", 2.0), ("restarts", "4")])
    def test_counts_must_be_integers(self, field, value):
        # these were accepted here and failed later, inside optimize_step
        with pytest.raises(DomainError, match="integer"):
            S.StepSearchConfig((3, 5), **{field: value})

    @pytest.mark.parametrize("seed", [-1, 2**64, 0.5])
    def test_seed_domain(self, seed):
        with pytest.raises(DomainError, match="seed"):
            S.optimize_step(S.StepSearchConfig((3, 5), restarts=1, seed=seed))

    def test_pm_one_single_step_is_sign(self):
        res = S.optimize_step(S.StepSearchConfig((3, 5), steps=1, pm_one=True))
        assert res.f.breakpoints == () and res.f.values == (1.0,)

    def test_decode_drops_only_invalid_step_functions(self, monkeypatch):
        cfg = S.StepSearchConfig((3, 5), steps=2, pm_one=False)
        assert S._decode(np.array([0.0, 0.5, np.nan]), cfg) is None

        def defect(*args):
            raise RuntimeError("defect")

        monkeypatch.setattr(S, "StepFunction", defect)
        with pytest.raises(RuntimeError):
            S._decode(np.array([0.0, 0.5, 0.5]), cfg)

    def test_result_is_valid_step_function(self):
        cfg = S.StepSearchConfig((3, 7), steps=2, pm_one=False, restarts=6, seed=1)
        res = S.optimize_step(cfg)
        assert len(res.f.values) == 2
        assert all(abs(v) <= 1 for v in res.f.values)
        assert res.conjectured


class TestBreakpointSweep:
    def test_far_position_matches_base(self):
        base = S.objective_alphaK(TABLE_35, (3, 5))
        rows = S.breakpoint_sweep(TABLE_35, [12.0], (3, 5))
        assert abs(min(rows[0][3], rows[0][5]) - base) < 1e-9

    def test_overlap_rejected(self):
        with pytest.raises(DomainError):
            S.breakpoint_sweep(TABLE_35, [2.0, 8.0], (3, 5))

    def test_crossing_near_seven(self):
        f = StepFunction((2.275193649773,), (-1.0, 1.0))
        pos = np.arange(6.0, 8.6, 0.1)
        rows = S.breakpoint_sweep(f, pos, (3, 5))
        diff = np.array([r[3] - r[5] for r in rows])
        flips = np.nonzero(np.sign(diff[:-1]) != np.sign(diff[1:]))[0]
        assert flips.size >= 1
        at = flips[0]
        assert 6.2 <= pos[at] <= 8.2
        # both curves increase through the crossing
        p3 = np.array([r[3] for r in rows])
        p5 = np.array([r[5] for r in rows])
        assert p3[at + 1] >= p3[at - 1]
        assert p5[at + 1] >= p5[at - 1]

    def test_fifth_step_gain_is_tiny_378(self):
        base4 = StepFunction((1.914115410, 2.216234256, 5.228184560),
                             (-1.0, 1.0, -1.0, 1.0))
        base_obj = S.objective_alphaK(base4, (3, 7, 8))
        rows = S.breakpoint_sweep(base4, np.arange(8.8, 9.8, 0.1), (3, 7, 8))
        for r in rows:
            delta = min(r[k] for k in (3, 7, 8)) - base_obj
            assert abs(delta) < 1e-6


def _scipy_nelder_mead(loss, x0):
    from scipy.optimize import minimize
    return minimize(loss, x0, method="Nelder-Mead",
                    options={"xatol": S._XATOL, "fatol": S._FATOL,
                             "maxiter": S._MAX_ITER, "maxfev": S._MAX_ITER})


def _same_bits(a, b) -> bool:
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


def _alone(loss, x0):
    """The search from ``x0`` alone, with ``loss`` scoring one point per call."""
    [result] = S._lockstep(lambda points: [loss(x) for x in points],
                           [np.asarray(x0, dtype=float)])
    return result


class TestNelderMead:
    """``_nelder_mead``, driven by ``_lockstep``, against scipy's Nelder-Mead
    with the same options: the same bits of x and of the loss, and the same
    converged flag."""

    @pytest.mark.parametrize("clause_sizes,steps,pm_one,seed", [
        ((3, 5), 2, True, 0),    # criterion 5's search: one breakpoint
        ((3, 6), 1, False, 0),   # one free value
        ((3, 7), 2, False, 2),   # three parameters; its third start hits the cap
    ])
    def test_matches_scipy_on_optimize_step_starts(self, monkeypatch, clause_sizes, steps,
                                                   pm_one, seed):
        runs = []
        real = S._lockstep

        def spy(loss, starts):
            starts = [x0.copy() for x0 in starts]
            results = real(loss, starts)
            runs.extend((loss, x0, r) for x0, r in zip(starts, results))
            return results

        monkeypatch.setattr(S, "_lockstep", spy)
        S.optimize_step(S.StepSearchConfig(clause_sizes, steps=steps, pm_one=pm_one,
                                           restarts=4, seed=seed))
        assert len(runs) == 4
        for loss, x0, (x, fun, converged) in runs:
            ref = _scipy_nelder_mead(lambda p: loss(p[None])[0], x0)
            assert _same_bits(x, ref.x) and _same_bits(fun, ref.fun)
            assert converged == ref.success
        if clause_sizes == (3, 7):
            assert [r[2][2] for r in runs] == [True, True, False, True]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_scipy_through_shrinks_to_the_cap(self, n):
        # Each call returns its own number, more than every earlier one, so
        # every step is a reflection, a failed inside contraction and a
        # shrink, and the search never converges.  For n = 4 and 5 the cap
        # fires inside a shrink: 5 + 6 * 332 = 1997 and 6 + 7 * 284 = 1994
        # evaluations come before the last step.
        def rising():
            calls = []

            def loss(x):
                calls.append(x.copy())
                return float(len(calls))

            return loss, calls

        loss, calls = rising()
        x0 = np.linspace(-1.0, 1.5, n)
        x, fun, converged = _alone(loss, x0)
        ref_loss, ref_calls = rising()
        ref = _scipy_nelder_mead(ref_loss, x0)
        assert len(calls) == len(ref_calls) == ref.nfev == S._MAX_ITER
        assert _same_bits(calls, ref_calls)  # the same points, in the same order
        assert _same_bits(x, ref.x) and _same_bits(fun, ref.fun)
        assert not converged and not ref.success

    @pytest.mark.parametrize("q,x0", [(4.0, [-2.9, 0.0]), (10.0, [2.7, 1.8, 1.0]),
                                      (4.0, [1.5, -1.0, 2.5]), (4.0, [3.0, 0.0, -1.0, 2.0])])
    def test_matches_scipy_on_a_staircase(self, q, x0):
        # a piecewise-constant loss ties vertices with trial points, which
        # pins every strict and non-strict comparison of the search
        def loss(x):
            return float(np.floor(q * np.sum(np.abs(x - 0.3))))

        x, fun, converged = _alone(loss, x0)
        ref = _scipy_nelder_mead(loss, np.array(x0))
        assert _same_bits(x, ref.x) and _same_bits(fun, ref.fun)
        assert converged == ref.success

    @pytest.mark.parametrize("x0", [[0.0, 0.5], [1.0, -2.0, 0.0]])
    def test_matches_scipy_with_a_zero_start_coordinate(self, x0):
        # a zero coordinate takes the 0.00025 step of the first simplex
        def loss(x):
            return float(np.sum((x - 0.3) ** 2) + np.abs(x[0]))

        x, fun, converged = _alone(loss, x0)
        ref = _scipy_nelder_mead(loss, np.array(x0))
        assert _same_bits(x, ref.x) and _same_bits(fun, ref.fun)
        assert converged and ref.success


class TestLockstep:
    """Every start run at once gives what each start gives searched alone."""

    @pytest.mark.parametrize("clause_sizes,steps,pm_one,restarts,seed", [
        ((3, 5), 2, True, 16, 5),      # the benchmark's search
        ((3, 5), 2, True, 1, 0),
        ((3, 6), 2, False, 3, 1),      # free values: three parameters
        ((3, 6), 3, False, 1, 2),      # five parameters
        ((3, 7, 8), 3, True, 3, 3),
        ((3, 7, 8), 4, True, 1, 4),
    ])
    def test_optimize_step_matches_each_start_alone(self, monkeypatch, clause_sizes, steps,
                                                    pm_one, restarts, seed):
        cfg = S.StepSearchConfig(clause_sizes, steps=steps, pm_one=pm_one,
                                 restarts=restarts, seed=seed)
        together = repr(S.optimize_step(cfg))

        def loss(x):  # one point, scored with the one-function objective
            f = S._decode(x, cfg)
            return 2.0 if f is None else -S.objective_alphaK(f, cfg.clause_sizes)

        rounds = []
        real = S._lockstep

        def one_at_a_time(batched_loss, starts):
            rounds.append(len(starts))
            return [real(lambda points: [loss(x) for x in points], [x0])[0] for x0 in starts]

        monkeypatch.setattr(S, "_lockstep", one_at_a_time)
        assert repr(S.optimize_step(cfg)) == together
        assert rounds == [restarts]

    def test_cap_fires_inside_a_shrink_while_others_run(self):
        # The loss depends on where a start searches.  Near 100 and near 200
        # each call returns a number above every earlier one of its own start,
        # so both run to the cap, which for n = 4 fires inside a shrink (see
        # test_matches_scipy_through_shrinks_to_the_cap); the start near 0
        # converges on a staircase well before that
        def staged():
            counts = {}

            def loss(x):
                if x[0] < 50.0:
                    return float(np.floor(4.0 * np.sum(np.abs(x - 0.3))))
                counts[x[0] > 150.0] = counts.get(x[0] > 150.0, 0) + 1
                return float(counts[x[0] > 150.0])

            return loss

        starts = [np.linspace(99.0, 101.5, 4), np.array([1.5, -1.0, 2.5, 0.5]),
                  np.linspace(199.0, 201.5, 4)]
        loss = staged()
        seen = []

        def batched(points):
            seen.append(len(points))
            return [loss(x) for x in points]

        together = S._lockstep(batched, starts)
        assert seen[0] == 3 and seen[-1] == 2 and len(seen) == S._MAX_ITER
        assert [converged for _, _, converged in together] == [False, True, False]
        for x0, (x, fun, converged) in zip(starts, together):
            alone = _alone(staged(), x0)
            ref = _scipy_nelder_mead(staged(), x0)
            assert _same_bits(x, alone[0]) and _same_bits(fun, alone[1])
            assert _same_bits(x, ref.x) and _same_bits(fun, ref.fun)
            assert converged == alone[2] == ref.success

    def test_peak_memory(self):
        # 192 restarts run 64 at a time: 2.7 MB traced, as 64 restarts alone
        # take; all 192 in flight at once peaked at 8.2 MB
        cfg = S.StepSearchConfig((3, 5), restarts=192, seed=1)
        assert peak_traced_mb(lambda: S.optimize_step(cfg)) <= 4


def _nae3_prob(f, r12, r13, r23):
    """P(NAE_3) = (3 - F2(r12) - F2(r13) - F2(r23)) / 4 for odd f."""
    return (3.0 - f2(f, r12) - f2(f, r13) - f2(f, r23)) / 4.0


def _feasible(a, b):
    """(a, b, -1 - a - b) are the pairwise biases of three unit vectors
    with |v1 + v2 + v3| = 1: all in [-1, 1] and a PSD Gram matrix."""
    c = -1.0 - a - b
    det = 1.0 + 2.0 * a * b * c - a * a - b * b - c * c
    return (np.abs(a) <= 1) & (np.abs(b) <= 1) & (np.abs(c) <= 1) & (det >= 0)


class TestSymmetricConfigurationIsHardest:
    """The k = 3 half of "the hardest stepopt configuration is symmetric".

    The satisfiable 3-clause's vectors have |v1 + v2 + v3|^2 = (k - 2)^2 = 1,
    so the biases sum to -1.  For odd f, F2 is nondecreasing in rho (only
    odd Hermite degrees, sum c_j^2 rho^j), so the ball |sum v|^2 <= 1 has
    its minimum on this sphere and needs no separate search.
    """

    @pytest.mark.parametrize("f", [TABLE_35, SIGN], ids=["double-step", "sign"])
    def test_no_feasible_configuration_beats_the_symmetric_one(self, f):
        from scipy.optimize import minimize
        sym = _nae3_prob(f, -1 / 3, -1 / 3, -1 / 3)
        assert abs(sym - sat_prob_symmetric(f, 3, -1 / 3)) < 1e-12

        def loss(p):
            a, b = p
            if not _feasible(a, b):
                return sym + 1.0
            return _nae3_prob(f, a, b, -1.0 - a - b)

        grid = np.linspace(-1.0, 1.0, 41)
        a, b = (g.ravel() for g in np.meshgrid(grid, grid))
        keep = _feasible(a, b)
        assert keep.sum() > 100
        worst = min(loss(p) for p in zip(a[keep], b[keep]))
        starts = [(-0.9, 0.2), (0.0, -0.5), (-0.6, -0.1), (0.3, -0.7), (-1 / 3, -1 / 3)]
        for x0 in starts:
            res = minimize(loss, x0, method="Nelder-Mead",
                           options={"xatol": 1e-9, "fatol": 1e-13})
            worst = min(worst, res.fun)
            assert np.allclose(res.x, -1 / 3, atol=1e-4)  # every start finds the symmetric point
        assert worst >= sym - 1e-9
