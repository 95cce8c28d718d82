"""The four benchmark workloads: the calls into naeopt and the checks on them.

Each workload has three parts:

* ``prepare(inputs)`` turns the generated JSON inputs into library objects
  (part of set-up time);
* ``run(state)`` makes the timed calls and returns their results;
* ``checks(state, out)`` lists named checks, each a function returning
  ``(ok, detail)``; they run after the clock stops.

Library functions are always called through their module attribute
(``fredholm.approx_ratio``), so the wrappers of a traced run see them.
Tolerances are those of the acceptance gate (tests/test_acceptance.py);
statistical checks use 4 standard errors.
"""

from __future__ import annotations

import math

import numpy as np

from naeopt import fredholm, gapgen, hardness, hermite, moments, pipeline, stepopt
from naeopt.core import GramConfig, StepFunction

Z99 = 2.3263478740408408  # one-sided 99% normal quantile, as in criterion 9

# ---------------------------------------------------------------------------
# ratio-refine: fredholm.approx_ratio for nae3 and maxcut


def prepare_ratio(inp):
    return inp


def run_ratio(inp):
    return {p: fredholm.approx_ratio(p, grid=inp["grid"], rounds=inp["rounds"],
                                     n=inp["n"], coarse_n=inp["coarse_n"])
            for p in inp["problems"]}


def checks_ratio(inp, out):
    def criterion_2():
        r = out["nae3"]
        ok = (abs(r.ratio - 0.9089) < 5e-4 and abs(r.alpha - 0.738) < 0.01
              and abs(r.rho + 0.742) < 0.01 and r.rho0_variant == "clamped")
        return ok, (f"ratio={r.ratio:.7f} alpha={r.alpha:.4f} rho={r.rho:.4f} "
                    f"variant={r.rho0_variant}")

    def criterion_3():
        r = out["maxcut"]
        return abs(r.ratio - 0.8786) < 1e-3, f"ratio={r.ratio:.7f}"

    return [("criterion 2: nae3 ratio", criterion_2),
            ("criterion 3: maxcut ratio", criterion_3)]


# ---------------------------------------------------------------------------
# curve-scan: fredholm.curve, the `naeopt curve` computation

# (grid, N) -> (min ratio, alpha, rho, variant) printed by the library at
# commit 4de97cf for the nae3 curve on linspace(0,1,grid) x linspace(-1,0,grid)
CURVE_REFERENCE = {
    (40, 100): (0.90890731348376, 0.7435897435897436, -0.7435897435897436, "clamped"),
    (12, 40): (0.9088788610543407, 0.7272727272727273, -0.7272727272727273, "clamped"),
}


def prepare_curve(inp):
    return {"problem": inp["problem"], "alphas": np.linspace(0.0, 1.0, inp["grid"]),
            "rhos": np.asarray(inp["rhos"]), "n": inp["n"], "grid": inp["grid"]}


def run_curve(st):
    return fredholm.curve(st["problem"], st["alphas"], st["rhos"], st["n"])


def checks_curve(st, pts):
    def minimum():
        want = CURVE_REFERENCE[(st["grid"], st["n"])]
        finite = [p for p in pts if math.isfinite(p.ratio)]
        w = min(finite, key=lambda p: (p.ratio, p.alpha, p.rho))
        ok = (abs(w.ratio - want[0]) < 1e-9 and w.alpha == want[1]
              and w.rho == want[2] and w.rho0_variant == want[3])
        return ok, (f"min ratio={w.ratio:.9f} alpha={w.alpha:.4f} rho={w.rho:.4f} "
                    f"variant={w.rho0_variant}")

    def consistent():
        want = st["grid"] ** 2 * 2  # nae3 has two rho0 variants
        got = sum(p.consistent for p in pts)
        return got == want == len(pts), f"consistent {got} of {len(pts)}, want {want}"

    return [("minimum ratio and location", minimum),
            ("every point consistent", consistent)]


# ---------------------------------------------------------------------------
# gap-roundtrip: generate, write, read back, evaluate, round

ROUNDING_F = StepFunction((2.275193649,), (-1.0, 1.0))  # the {3,5} double step


def prepare_gap(inp):
    return inp


def run_gap(inp):
    gap = gapgen.gen_gap_instance(inp["n"], inp["m3"], inp["m5"], inp["gen_seed"])
    inst_text = pipeline.format_instance(gap.instance)
    vec_text = pipeline.format_vectors(gap.vector_assignment(), gap.sparse_rows())
    loaded = gapgen.load_gap(inst_text, vec_text)
    parsed = pipeline.parse_instance(inst_text)
    vectors = pipeline.parse_vectors(vec_text)
    ev = gapgen.evaluate_gap(loaded, (gapgen.P1_STAR, 0.0), trials=inp["trials"],
                             seed=inp["eval_seed"], moment_samples=inp["moment_samples"])
    best, best_val = pipeline.best_of_rounds(parsed, vectors, ROUNDING_F,
                                             inp["rounds"], inp["round_seed"])
    return {"gap": gap, "loaded": loaded, "parsed": parsed, "vectors": vectors,
            "eval": ev, "best": best, "best_val": best_val}


def checks_gap(inp, out):
    gap, ev = out["gap"], out["eval"]

    def biases_exact():
        m3 = gap.num_3clauses
        bad = sum(vecs[x].dot_numerator(vecs[y]) != -1
                  for vecs in gap.clause_vectors[:m3]
                  for x in range(3) for y in range(x + 1, 3))
        bad += sum(vecs[x].dot_numerator(vecs[y]) != (1 if y < 4 else 0)
                   for vecs in gap.clause_vectors[m3:]
                   for x in range(4) for y in range(x + 1, 5))
        return bad == 0, f"{bad} inexact pair biases in {len(gap.clause_vectors)} clauses"

    def roundtrip():
        same = (out["loaded"].instance == gap.instance
                and out["loaded"].variables == gap.variables
                and out["parsed"] == gap.instance
                and np.array_equal(out["vectors"].vectors, gap.vector_assignment().vectors))
        return same, f"{gap.instance.num_vars} variables, {len(gap.instance.clauses)} clauses"

    def fraction_vs_expected():
        d = abs(ev.fraction - ev.expected_fraction)
        return d < 4 * ev.std_error, (f"fraction={ev.fraction:.5f} "
                                      f"expected={ev.expected_fraction:.5f} se={ev.std_error:.2e}")

    def moments_vs_targets():
        ok = (abs(ev.f2.value - gapgen.F2_STAR) < 4 * ev.f2.std_error
              and abs(ev.f4.value - gapgen.F2_STAR ** 2) < 4 * ev.f4.std_error)
        return ok, f"F2={ev.f2.value:.5f} F4={ev.f4.value:.5f}"

    def fraction_vs_bound():
        d = abs(ev.fraction - hardness.BOUND)
        return d < 4 * ev.clause_sampling_sigma, (
            f"fraction={ev.fraction:.5f} bound={hardness.BOUND:.5f} "
            f"sigma={ev.clause_sampling_sigma:.5f}")

    def evaluators_agree():
        many = float(pipeline.evaluate_many(out["parsed"], out["best"])[0])
        return abs(many - out["best_val"]) < 1e-12, f"best of rounds={out['best_val']:.6f}"

    return [("biases exact", biases_exact), ("parsed equals generated", roundtrip),
            ("fraction within 4 SE of expected", fraction_vs_expected),
            ("F2, F4 within 4 SE of targets", moments_vs_targets),
            ("fraction within 4 sigma of bound", fraction_vs_bound),
            ("evaluate agrees with evaluate_many", evaluators_agree)]


# ---------------------------------------------------------------------------
# tables: bound, step table, step search, moment suite, Hermite sweep, MC

# published step-function table: (sizes, breakpoints, values, alpha_K)
STEP_TABLE = [
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

RHO_GRID = np.linspace(-1.0, 1.0, 21)              # oddness, compared by index
CONV_GRID = np.arange(-1.0, 1.0 + 1e-12, 0.02)     # monotone; convex on [0, 1]
POS_GRID = np.linspace(0.0, 1.0, 21)               # F4 >= F2^2, gated below rho = 1
ROUTE_RHOS = (0.0, 0.3, 0.8)                       # f2 vs f2l_symmetric(ell=1)

# the F4 < 0 witness at delta = 0.1: eps = 0.5 determines ~4 samples per
# million, each with a negative sign product, so 5*10^6 samples put the
# one-sided 99% bound below 0 unless fewer than 6 are determined (p ~ 3e-5);
# at eps = 0.2 about one in two million is determined, and a seed with none
# gives the vacuous est = 0, se = 0
WITNESS_DELTA = 0.1
WITNESS_EPS = 0.5


def _step(pair) -> StepFunction:
    breaks, values = pair
    return StepFunction(tuple(breaks), tuple(float(v) for v in values))


def prepare_tables(inp):
    return {
        "cfg": stepopt.StepSearchConfig((3, 5), steps=2, pm_one=True,
                                        restarts=inp["restarts"], seed=inp["stepopt_seed"]),
        "table": [(sizes, _step((a, b)), want) for sizes, a, b, want in STEP_TABLE],
        "suite": [_step(p) for p in inp["suite"]],
        "angles": inp["sweep_angles"],
        "mc_f": _step(inp["mc_function"]),
        "mc_gram": GramConfig([[1.0, inp["mc_rho"]], [inp["mc_rho"], 1.0]]),
        "mc_rho": inp["mc_rho"], "mc_samples": inp["mc_samples"], "mc_seed": inp["mc_seed"],
        "witness_samples": inp["witness_samples"], "witness_seed": inp["witness_seed"],
    }


def _moment_suite(f: StepFunction) -> dict:
    return {
        "sym": np.array([moments.f2(f, r) for r in RHO_GRID]),
        "conv": np.array([moments.f2(f, r) for r in CONV_GRID]),
        "f4": np.array([(moments.f2(f, r), moments.f2l_symmetric(f, r, 2)) for r in POS_GRID]),
        "routes": np.array([(moments.f2l_symmetric(f, r, 1), moments.f2(f, r))
                            for r in ROUTE_RHOS]),
        "v13": moments.f2(f, 1.0 / 3.0),
    }


def run_tables(st):
    out = {"bound": hardness.nae35_bound(),
           "opt": stepopt.optimize_step(st["cfg"]),
           "table": [stepopt.objective_alphaK(f, sizes) for sizes, f, _ in st["table"]],
           "suite": [_moment_suite(f) for f in st["suite"]],
           "sweep": hermite.boundary_sweep(2, st["angles"])}
    out["mc"] = moments.moment_mc(st["mc_f"], st["mc_gram"], samples=st["mc_samples"],
                                  seed=st["mc_seed"])
    out["mc_exact"] = moments.f2(st["mc_f"], st["mc_rho"])
    out["witness"] = moments.f4_negative_witness(WITNESS_DELTA, WITNESS_EPS,
                                                 samples=st["witness_samples"],
                                                 seed=st["witness_seed"])
    return out


def checks_tables(st, out):
    def criterion_1():
        b = out["bound"]
        ok = (abs(b.bound - 3 * (math.sqrt(21.0) - 4) / 2) < 1e-12
              and abs(b.bound - 0.873863542) < 5e-10 and b.residual < 1e-9)
        return ok, f"bound={b.bound:.9f} residual={b.residual:.2e}"

    def table_rows():
        worst = max(abs(got - want) for got, (_, _, want) in zip(out["table"], st["table"]))
        return worst < 1e-6, f"worst row error={worst:.2e}"

    def step_search():
        a = out["opt"].f.breakpoints[0]
        return abs(a - 2.27519) < 1e-3, f"breakpoint={a:.6f}"

    def moment_properties():
        # At rho = 1, f2l_symmetric integrates the discontinuous f itself on
        # fixed Gauss-Legendre panels, with errors up to ~1e-5 (about 0.5% of
        # random step functions exceed 1e-7).  The gap there is computed and
        # printed in the detail on every run but not gated: it is a library
        # defect that a benchmark run cannot fix (see README.md).
        odd = mono = conv = f4gap = rho1_gap = routes = 0.0
        in_range = True
        pos = CONV_GRID >= -1e-12
        below_one = POS_GRID < 1.0
        for s in out["suite"]:
            odd = max(odd, float(np.max(np.abs(s["sym"] + s["sym"][::-1]))))
            mono = max(mono, float(np.max(-np.diff(s["conv"]), initial=0.0)))
            conv = max(conv, float(np.max(-np.diff(s["conv"][pos], 2), initial=0.0)))
            gap = s["f4"][:, 0] ** 2 - s["f4"][:, 1]
            f4gap = max(f4gap, float(np.max(gap[below_one])))
            rho1_gap = max(rho1_gap, float(np.max(gap[~below_one])))
            routes = max(routes, float(np.max(np.abs(s["routes"][:, 0] - s["routes"][:, 1]))))
            in_range = in_range and -1e-9 <= s["v13"] <= 1 / 3 + 1e-9
        ok = (odd < 1e-9 and mono < 1e-7 and conv < 1e-7 and f4gap < 1e-7
              and routes < 1e-8 and in_range)
        return ok, (f"{len(out['suite'])} functions: odd={odd:.1e} mono={mono:.1e} "
                    f"conv={conv:.1e} f4gap={f4gap:.1e} routes={routes:.1e} "
                    f"range13={in_range} rho1_f4gap={rho1_gap:.1e} (not gated)")

    def sweep_bessel():
        norms = [float(np.linalg.norm(c)) for _, c in out["sweep"]]
        ok = len(norms) == st["angles"] and max(norms) <= 1.0 + 1e-9
        return ok, f"{len(norms)} boundary points, max |c|={max(norms):.6f}"

    def moment_mc():
        est, exact = out["mc"], out["mc_exact"]
        return abs(est.value - exact) < 4 * est.std_error, (
            f"mc={est.value:.5f} exact={exact:.5f} se={est.std_error:.1e}")

    def witness():
        est = out["witness"]
        ucb = est.value + Z99 * est.std_error
        return est.std_error > 0.0 and ucb < 0.0, (
            f"est={est.value:.2e} se={est.std_error:.1e} ucb99={ucb:.2e}")

    return [("criterion 1: nae35 bound", criterion_1), ("step table rows", table_rows),
            ("optimize_step breakpoint", step_search),
            ("f2 property suite", moment_properties),
            ("boundary sweep inside the unit ball", sweep_bessel),
            ("moment_mc within 4 SE of f2", moment_mc),
            ("F4 witness significantly negative", witness)]


WORKLOADS = {
    "ratio-refine": (prepare_ratio, run_ratio, checks_ratio),
    "curve-scan": (prepare_curve, run_curve, checks_curve),
    "gap-roundtrip": (prepare_gap, run_gap, checks_gap),
    "tables": (prepare_tables, run_tables, checks_tables),
}
