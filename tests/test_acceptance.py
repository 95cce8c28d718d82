"""Acceptance gate: one test per release criterion, at the stated tolerance.

Each test prints a single PASS/FAIL line (visible with -s or -rA) before
asserting, so a full run doubles as the acceptance report.  The heavy
searches (the two approximation-ratio computations) are module-scoped
fixtures shared across criteria.
"""

import math
import time

import numpy as np
import pytest

from naeopt.core import (SIGN, Clause, GramConfig, HardDistribution,
                         NAEInstance, StepFunction, VectorAssignment)
from naeopt import fredholm, gapgen, hardness, hermite, pipeline, stepopt
from naeopt import moments as M

from conftest import random_step_function

SQRT21 = math.sqrt(21.0)


def report(num: int, name: str, ok: bool, detail: str) -> bool:
    print(f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return ok


# ---------------------------------------------------------------------------
# shared heavy computations


@pytest.fixture(scope="module")
def nae3_ratio():
    return fredholm.approx_ratio("nae3", grid=500, rounds=3, n=600, coarse_n=100)


@pytest.fixture(scope="module")
def nae3_solution(nae3_ratio):
    d = HardDistribution("nae3", nae3_ratio.alpha, nae3_ratio.rho,
                         nae3_ratio.rho0_variant)
    return fredholm.optimal_step_function(d, 600)


@pytest.fixture(scope="module")
def step_suite(rng_module):
    return [random_step_function(rng_module) for _ in range(200)]


@pytest.fixture(scope="module")
def rng_module():
    return np.random.default_rng(511)


# ---------------------------------------------------------------------------


def test_criterion_1_hardness_bound():
    t0 = time.time()
    b = hardness.nae35_bound()
    dt = time.time() - t0
    ok = (abs(b.bound - 3 * (SQRT21 - 4) / 2) < 1e-12
          and abs(b.bound - 0.873863542) < 5e-10
          and b.residual < 1e-9
          and dt < 1.0)
    assert report(1, "bound nae35", ok,
                  f"bound={b.bound:.9f} residual={b.residual:.2e} runtime={dt:.2f}s")


def test_criterion_2_nae3_ratio(nae3_ratio):
    r = nae3_ratio
    ok = (abs(r.ratio - 0.9089) < 5e-4
          and abs(r.alpha - 0.738) < 0.01
          and abs(r.rho + 0.742) < 0.01
          and r.rho0_variant == "clamped")
    assert report(2, "nae3 optimal ratio", ok,
                  f"ratio={r.ratio:.7f} alpha={r.alpha:.4f} rho={r.rho:.4f} "
                  f"variant={r.rho0_variant}")


def test_criterion_3_maxcut_sanity():
    r = fredholm.approx_ratio("maxcut", grid=500, rounds=3, n=600, coarse_n=100)
    ok = abs(r.ratio - 0.8786) < 1e-3
    assert report(3, "maxcut ratio", ok,
                  f"ratio={r.ratio:.7f} alpha={r.alpha:.4f} rho={r.rho:.4f}")


def test_criterion_4_slinear_structure(nae3_solution):
    fit = fredholm.slinear_fit(nae3_solution.f)
    ok_slope = abs(fit.slope - 4.072) < 0.01
    ok_dev = fit.max_deviation < 1e-3
    assert report(4, "s-linear fit", ok_slope and ok_dev,
                  f"slope={fit.slope:.6f} max_dev={fit.max_deviation:.2e} "
                  f"rms_dev={fit.rms_deviation:.2e} cells={fit.interior_cells}")


TABLE2 = [
    ((3, 5), (), (0.863471455,), 0.870978418),
    ((3, 5), (2.275193649,), (-1, 1), 0.872886331),
    ((3, 6), (), (0.856454637,), 0.869020196),
    ((3, 6), (2.251163925,), (-1, 1), 0.870806446),
    ((3, 6), (2.251064988, 4.502131583), (-1, 1, -1), 0.870806482),
    ((3, 7), (), (0.853973417,), 0.868331573),
    ((3, 7), (1.617354199,), (-1, -0.443504607), 0.86967887),
    ((3, 7), (1.955864822, 2.288418785), (-1, 1, -1), 0.869818822),
    ((3, 7), (1.955862161, 2.288413620, 5.658697297), (-1, 1, -1, 1), 0.869818822),
    ((3, 8), (), (0.854163133,), 0.868384155),
    ((3, 8), (1.342323152,), (-1, -0.637982114), 0.869708575),
    ((3, 8), (1.783234209, 2.015766438), (-1, 1, -1), 0.869954386),
    ((3, 8), (1.782430334, 2.014523521, 4.492762885), (-1, 1, -1, 1), 0.869954931),
    ((3, 7, 8), (), (0.853973417,), 0.868331573),
    ((3, 7, 8), (1.486111761,), (-1, -0.550842608), 0.869649096),
    ((3, 7, 8), (1.914108264, 2.216226101), (-1, 1, -1), 0.869809386),
    ((3, 7, 8), (1.914115410, 2.216234256, 5.228184560), (-1, 1, -1, 1), 0.869809394),
]


def test_criterion_5_step_table():
    worst = 0.0
    for sizes, a, b, want in TABLE2:
        f = StepFunction(a, tuple(float(x) for x in b))
        got = stepopt.objective_alphaK(f, sizes)
        worst = max(worst, abs(got - want))
    rows_ok = worst < 1e-6
    res = stepopt.optimize_step(
        stepopt.StepSearchConfig((3, 5), steps=2, pm_one=True, restarts=64, seed=0))
    opt_ok = abs(res.f.breakpoints[0] - 2.27519) < 1e-3
    assert report(5, "step table reproduction", rows_ok and opt_ok,
                  f"worst row error={worst:.2e} "
                  f"optimizer breakpoint={res.f.breakpoints[0]:.6f}")


def test_criterion_6_ordering_claims():
    best = {}
    for sizes, a, b, _ in TABLE2:
        f = StepFunction(a, tuple(float(x) for x in b))
        v = stepopt.objective_alphaK(f, sizes)
        best[sizes] = max(best.get(sizes, 0.0), v)
    a34 = stepopt.objective_alphaK(SIGN, (3, 4))
    ok = (a34 == 7 / 8
          and 7 / 8 > best[(3, 5)] > best[(3, 6)] > best[(3, 7)] < best[(3, 8)]
          and best[(3, 7, 8)] < best[(3, 7)])
    assert report(6, "alpha_K orderings", ok,
                  "a34=%.6f a35=%.6f a36=%.6f a37=%.6f a38=%.6f a378=%.6f"
                  % (a34, best[(3, 5)], best[(3, 6)], best[(3, 7)],
                     best[(3, 8)], best[(3, 7, 8)]))


def test_criterion_7_gap_instance():
    gap = gapgen.gen_gap_instance(48, 10**5, 10**5, seed=2024)
    # 3 * each pair bias, pairs (x, y) in triu order: -1 in a 3-clause; in a
    # 5-clause 1 among the four petals, 0 against the fifth vector
    want = {3: -1, 5: np.where(np.triu_indices(5, 1)[1] < 4, 1, 0)}
    groups = gap.instance.clause_groups
    exact = [lits.shape[1] for lits, _ in groups] == [3, 5] and all(
        np.all(nums == want[lits.shape[1]])
        for (lits, _), nums in zip(groups, gap.pair_numerators()))
    res = gapgen.evaluate_gap(gap, (gapgen.P1_STAR, 0.0), trials=20, seed=31,
                              moment_samples=10**6)
    frac_ok = abs(res.fraction - 0.8739) < 0.003
    f2_ok = abs(res.f2.value - gapgen.F2_STAR) < 3 * res.f2.std_error
    f4_ok = abs(res.f4.value - gapgen.F2_STAR**2) < 3 * res.f4.std_error
    ok = exact and frac_ok and f2_ok and f4_ok
    assert report(7, "gap instance", ok,
                  f"biases_exact={exact} fraction={res.fraction:.5f} "
                  f"F2={res.f2.value:.5f} F4={res.f4.value:.5f}")


def test_criterion_8_moment_properties(step_suite, rng_module):
    rho_grid = np.linspace(-1, 1, 21)
    pos_grid = np.linspace(0, 1, 21)
    conv_grid = np.arange(-1.0, 1.0 + 1e-12, 0.02)
    odd_worst = mono_worst = conv_worst = f4_worst = agree_worst = 0.0
    range_ok = True
    for f in step_suite:
        # compared by index: linspace(-1, 1, 21) is sign-symmetric only to
        # rounding, so its float values cannot serve as lookup keys for -r
        vals = np.array([M.f2(f, r) for r in rho_grid])
        odd_worst = max(odd_worst, float(np.max(np.abs(vals + vals[::-1]))))
        cv = np.array([M.f2(f, r) for r in conv_grid])
        mono_worst = max(mono_worst, float(np.max(-np.diff(cv), initial=0.0)))
        pos = cv[conv_grid >= -1e-12]
        conv_worst = max(conv_worst, float(np.max(-np.diff(pos, 2), initial=0.0)))
        for r in pos_grid:
            f4_worst = max(f4_worst,
                           M.f2(f, r) ** 2 - M.f2l_symmetric(f, r, 2))
        for r in (0.0, 0.3, 0.8):
            agree_worst = max(agree_worst,
                              abs(M.f2l_symmetric(f, r, 1) - M.f2(f, r)))
        v13 = M.f2(f, 1 / 3)
        range_ok = range_ok and (0.0 - 1e-9 <= v13 <= 1 / 3 + 1e-9)
    mc_ok = True
    for f in step_suite[:6]:
        rho = float(rng_module.uniform(-0.9, 0.9))
        gram = GramConfig([[1.0, rho], [rho, 1.0]])
        est = M.moment_mc(f, gram, samples=10**6, seed=77)
        mc_ok = mc_ok and abs(est.value - M.f2(f, rho)) < 3 * max(est.std_error, 1e-9)
    ok = (odd_worst < 1e-9 and mono_worst < 1e-7 and conv_worst < 1e-7
          and f4_worst < 1e-7 and agree_worst < 1e-8 and mc_ok and range_ok)
    assert report(8, "moment property suite (200 functions)", ok,
                  f"odd={odd_worst:.1e} mono={mono_worst:.1e} conv={conv_worst:.1e} "
                  f"f4gap={f4_worst:.1e} routes={agree_worst:.1e} mc={mc_ok} "
                  f"range13={range_ok}")


def test_criterion_9_f4_negativity_witness():
    z99 = 2.3263478740408408
    v = M.f4_witness_vectors(0.1)
    g = v @ v.T
    biases_pos = bool(np.all(g[np.triu_indices(4, 1)] > 0))
    significant = []
    details = []
    for i, eps in enumerate((0.2, 0.1, 0.05, 0.02)):
        est = M.f4_negative_witness(0.1, eps, samples=10**8, seed=90 + i)
        ucb = est.value + z99 * est.std_error
        significant.append(ucb < 0.0)
        details.append(f"eps={eps}: est={est.value:.2e} ucb={ucb:.2e}")
    ok = biases_pos and any(significant)
    assert report(9, "F4 negativity witness", ok,
                  f"biases_positive={biases_pos}; " + "; ".join(details))


def test_criterion_10_hermite_suite(rng_module):
    xs, ws = M._QX, M._QW
    table = hermite.hermite_values(xs, 9)
    gram = (table * (ws * M._QPHI)[:, None]).T @ table
    ortho = float(np.max(np.abs(gram - np.eye(10))))

    fstar = StepFunction((2.27519364977,), (-1.0, 1.0))
    cstar = hermite.hermite_coeffs(fstar, 3)
    pts = hermite.boundary_sweep(2, 8192)
    dist = min(math.hypot(c[0] - cstar[0], c[1] - cstar[1]) for _, c in pts)

    recon_worst = 0.0
    sample_x = np.linspace(-3, 3, 20)
    for f in [SIGN, fstar, random_step_function(rng_module)]:
        c = hermite.hermite_coeffs(f, 41)
        for eta in (0.3, 0.5, 0.8):
            rec = hermite.reconstruct_odd(hermite.damped_coeffs(c, eta), sample_x)
            recon_worst = max(recon_worst, float(np.max(np.abs(
                rec - M.noise_operator(f, eta, sample_x)))))
    ok = ortho < 1e-8 and dist < 1e-3 and recon_worst < 1e-4
    assert report(10, "hermite suite", ok,
                  f"orthonormality={ortho:.1e} boundary_dist={dist:.1e} "
                  f"reconstruction={recon_worst:.1e}")


def test_criterion_11_pipeline_consistency():
    results = []

    def symmetric_vectors(k, rho):
        if rho < 0:
            v = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1]]) / math.sqrt(3)
            return VectorAssignment(v)
        v = np.zeros((k, k + 1))
        v[:, 0] = math.sqrt(rho)
        for i in range(k):
            v[i, i + 1] = math.sqrt(1 - rho)
        return VectorAssignment(v)

    f = StepFunction((2.275193649,), (-1.0, 1.0))
    rounds = 60000
    for k in (3, 5):
        rho = 1 - 4 / k
        va = symmetric_vectors(k, rho)
        inst = NAEInstance(k, (Clause(1.0, tuple(range(1, k + 1))),))
        hits = sum(pipeline.evaluate(inst, pipeline.rpr2_round(va, f, seed=s))
                   for s in range(rounds))
        want = M.sat_prob_symmetric(f, k, rho)
        sigma = math.sqrt(want * (1 - want) / rounds)
        results.append(abs(hits / rounds - want) < 3 * sigma)

    zero = StepFunction((), (0.0,))
    va = symmetric_vectors(4, 0.5)
    inst = NAEInstance(4, (Clause(1.0, (1, 2, 3, 4)),))
    hits = sum(pipeline.evaluate(inst, pipeline.rpr2_round(va, zero, seed=s))
               for s in range(rounds))
    base = pipeline.random_baseline(inst)
    results.append(abs(hits / rounds - base) < 3 * math.sqrt(base * (1 - base) / rounds))

    k, delta, m = 5, 0.06, 40000
    x = np.ones(k * m, dtype=np.int8)
    x[::k] = -1
    y = pipeline.noise_assignment(x, delta, seed=9)
    groups = y.reshape(m, k)
    still = float(np.mean(groups.max(axis=1) != groups.min(axis=1)))
    q = pipeline.pq_values(k, delta)[1]
    results.append(still >= q - 3 * math.sqrt(q * (1 - q) / m))

    ok = all(results)
    assert report(11, "pipeline consistency", ok,
                  f"symmetric_3={results[0]} symmetric_5={results[1]} "
                  f"baseline={results[2]} noising={results[3]}")
