import numpy as np
import pytest

from naeopt.core import SIGN, StepFunction
from naeopt.errors import DomainError
from naeopt import stepopt as S
from naeopt.moments import sat_prob_symmetric

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

    @pytest.mark.parametrize("restarts", [0, -1])
    def test_needs_a_restart(self, restarts):
        with pytest.raises(DomainError):
            S.StepSearchConfig((3, 5), restarts=restarts)

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
