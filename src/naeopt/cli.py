"""Command-line entry points.

Every subcommand writes its result files under an --out prefix together
with a manifest (<prefix>.manifest.json) recording the full parameter
set, seeds, tool version, output paths and wall-clock time, so a run can
be reproduced bit-for-bit (deterministic paths) or within the reported
standard errors (Monte Carlo paths).

Exit codes: 0 ok, 1 usage error, 2 numeric/domain failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__, fredholm, gapgen, hardness, hermite, moments, pipeline, stepopt
from .core import SIGN, HardDistribution, StepFunction
from .errors import DomainError, NaeoptError, StructuralError


def _sig9(x):
    """Clip floats to 9 significant digits (matching table precision)."""
    if isinstance(x, float):
        return float(f"{x:.9g}")
    if isinstance(x, dict):
        return {k: _sig9(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_sig9(v) for v in x]
    return x


@dataclass
class RunManifest:
    subcommand: str
    parameters: dict
    seed: int | None
    version: str
    outputs: list[str]
    wall_clock_s: float


class _Runner:
    def __init__(self, args: argparse.Namespace, default_prefix: str):
        self.args = args
        self.prefix = args.out or default_prefix
        self.outputs: list[str] = []
        self.t0 = time.time()

    def path(self, suffix: str) -> str:
        p = f"{self.prefix}{suffix}"
        self.outputs.append(p)
        return p

    def write_json(self, suffix: str, payload: dict) -> None:
        payload = _sig9(payload)
        with open(self.path(suffix), "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        json.dump(payload, sys.stdout, indent=2)
        print()

    def write_csv(self, suffix: str, header: list[str], rows) -> None:
        with open(self.path(suffix), "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            for row in rows:
                w.writerow([f"{x:.9g}" if isinstance(x, float) else x for x in row])

    def write_text(self, suffix: str, text: str) -> None:
        with open(self.path(suffix), "w") as fh:
            fh.write(text)

    def finish(self, sub: str) -> None:
        params = {k: v for k, v in vars(self.args).items() if k not in ("func", "out")}
        manifest = RunManifest(sub, _sig9(params), getattr(self.args, "seed", None),
                               __version__, list(self.outputs), time.time() - self.t0)
        with open(f"{self.prefix}.manifest.json", "w") as fh:
            json.dump(asdict(manifest), fh, indent=2)
            fh.write("\n")


# ---------------------------------------------------------------------------
# rounding-function specs


def parse_f_spec(spec: str) -> StepFunction:
    """Inline JSON {"a": [...], "b": [...]}, a path to such JSON, the word
    'sign', or 'slin:<s>' (an s-linear ramp discretized to 400 steps)."""
    if spec == "sign":
        return SIGN
    if spec.startswith("slin:"):
        try:
            s = float(spec.split(":", 1)[1])
        except ValueError:
            s = math.nan
        if not (math.isfinite(s) and s > 0):
            raise DomainError(f"s-linear slope must be a positive finite number, got {spec!r}")
        m = 400
        edges = np.linspace(0.0, 1.0 / s, m + 1)
        values = np.clip(s * (edges[:-1] + edges[1:]) / 2.0, -1.0, 1.0)
        return StepFunction(tuple(edges[1:]), tuple(values) + (1.0,))
    try:
        if spec.lstrip().startswith("{"):
            payload = json.loads(spec)
        else:
            with open(spec) as fh:
                payload = json.load(fh)
        a, b = payload["a"], payload["b"]
        if not all(type(v) is list and all(type(x) in (int, float) for x in v) for v in (a, b)):
            raise StructuralError("f spec needs 'a' and 'b' as JSON lists of numbers")
        return StepFunction(tuple(a), tuple(b))
    except OSError as err:
        raise StructuralError(f"f spec is neither JSON nor a readable file: {err}") from None
    except (KeyError, TypeError, ValueError, OverflowError) as err:
        raise StructuralError(f"f spec needs numeric lists 'a' and 'b': {err!r}") from None


def _f_spec_dict(f: StepFunction) -> dict:
    return {"a": list(f.breakpoints), "b": list(f.values)}


# ---------------------------------------------------------------------------
# subcommands


def cmd_ratio(args) -> None:
    run = _Runner(args, f"naeopt_ratio_{args.problem}")
    res = fredholm.approx_ratio(args.problem, grid=args.grid, rounds=args.rounds,
                                n=args.N, coarse_n=args.coarse_N, threads=args.threads)
    sol = fredholm.optimal_step_function(
        HardDistribution(args.problem, res.alpha, res.rho, res.rho0_variant), args.N)
    run.write_csv("_function.csv", ["cell_midpoint", "value"],
                  zip(sol.f.centroids().tolist(), list(sol.f.values)))
    payload = {
        "problem": res.problem, "ratio": res.ratio, "alpha": res.alpha,
        "rho": res.rho, "rho0_variant": res.rho0_variant, "N": res.n,
        "soundness": sol.soundness, "completeness": sol.completeness,
        "clamp_index": sol.clamp_index,
    }
    run.write_json("_ratio.json", payload)
    run.finish("ratio")


def cmd_curve(args) -> None:
    run = _Runner(args, f"naeopt_curve_{args.problem}")
    alphas = np.linspace(0.0, 1.0, args.grid)
    rhos = np.linspace(-1.0, 0.0, args.grid)
    pts = fredholm.curve(args.problem, alphas, rhos, args.N, threads=args.threads)
    run.write_csv("_points.csv",
                  ["problem", "alpha", "rho", "rho0_variant", "completeness",
                   "soundness", "ratio"],
                  [(p.problem, p.alpha, p.rho, p.rho0_variant, p.completeness,
                    p.soundness, p.ratio if np.isfinite(p.ratio) else "inf")
                   for p in pts])
    env = fredholm.lower_envelope(pts)
    run.write_csv("_envelope.csv", ["completeness", "soundness"], env)
    finite = [p for p in pts if np.isfinite(p.ratio)]
    worst = min(finite, key=lambda p: p.ratio)
    run.write_json("_summary.json",
                   {"problem": args.problem, "grid": args.grid, "N": args.N,
                    "min_ratio": worst.ratio, "alpha": worst.alpha,
                    "rho": worst.rho, "rho0_variant": worst.rho0_variant})
    run.finish("curve")


def cmd_bound(args) -> None:
    run = _Runner(args, "naeopt_bound_nae35")
    b = hardness.nae35_bound()
    run.write_json("_bound.json", {
        "bound": b.bound, "p_star": b.p_star, "f2_star": b.f2_star,
        "verification_residual": b.residual, "below_seven_eighths": b.bound < 7 / 8,
    })
    run.finish("bound")


def cmd_gap_gen(args) -> None:
    run = _Runner(args, f"naeopt_gap_n{args.n}")
    gap = gapgen.gen_gap_instance(args.n, args.m3, args.m5, args.seed)
    run.write_text("_instance.nae", pipeline.format_instance(
        gap.instance, comment=f"gap instance n={args.n} m3={args.m3} m5={args.m5} seed={args.seed}"))
    run.write_text("_vectors.txt", pipeline.format_vectors(
        gap.vector_assignment(), sparse_signs=gap.sparse_rows()))
    run.write_json("_gen.json", {
        "n": args.n, "m3": args.m3, "m5": args.m5, "seed": args.seed,
        "variables": gap.instance.num_vars, "total_weight": gap.instance.total_weight,
    })
    run.finish("gap gen")


def cmd_gap_eval(args) -> None:
    run = _Runner(args, "naeopt_gap_eval")
    with open(args.instance) as fh:
        inst_text = fh.read()
    with open(args.vectors) as fh:
        vec_text = fh.read()
    gap = gapgen.load_gap(inst_text, vec_text)
    p1 = gapgen.P1_STAR if args.p1 is None else args.p1
    res = gapgen.evaluate_gap(gap, (p1, args.p2), trials=args.trials, seed=args.seed)
    run.write_json("_eval.json", {
        "p1": p1, "p2": args.p2, "trials": args.trials, "seed": args.seed,
        "fraction": res.fraction, "std_error": res.std_error,
        "expected_fraction": res.expected_fraction,
        "clause_sampling_sigma": res.clause_sampling_sigma,
        "analytic_prediction": res.analytic_prediction,
        "f2": res.f2.value, "f2_std_error": res.f2.std_error,
        "f4": res.f4.value, "f4_std_error": res.f4.std_error,
        "target_bound": hardness.BOUND,
    })
    run.finish("gap eval")


def cmd_stepopt(args) -> None:
    run = _Runner(args, "naeopt_stepopt")
    sizes = _clause_sizes(args.K)
    cfg = stepopt.StepSearchConfig(sizes, steps=args.steps, pm_one=args.pm1,
                                   restarts=args.restarts, seed=args.seed)
    res = stepopt.optimize_step(cfg)
    a, b = res.f.breakpoints, res.f.values
    header = (["objective"] + [f"a{i+1}" for i in range(len(a))]
              + [f"b{i}" for i in range(len(b))])
    run.write_csv("_table.csv", header, [tuple([res.objective, *a, *b])])
    run.write_json("_result.json", {
        "K": list(sizes), "objective": res.objective,
        "per_size": {str(k): v for k, v in res.per_size.items()},
        "f": _f_spec_dict(res.f), "restarts": res.restarts_used,
        "converged": res.converged,
        "note": "ratio is conjectured; hardest configuration assumed symmetric",
    })
    run.finish("stepopt")


def cmd_sweep(args) -> None:
    run = _Runner(args, "naeopt_sweep")
    base = parse_f_spec(args.base)
    sizes = _clause_sizes(args.K)
    lo, hi, step = _sweep_range(args.range)
    positions = np.arange(lo, hi + step / 2, step)
    rows = stepopt.breakpoint_sweep(base, positions, sizes)
    header = ["position"] + [f"p{k}" for k in sizes]
    run.write_csv("_sweep.csv", header,
                  [tuple([r["position"], *(r[k] for k in sizes)]) for r in rows])
    run.finish("sweep")


def cmd_hermite_boundary(args) -> None:
    run = _Runner(args, "naeopt_hermite_p2")
    pts = hermite.boundary_sweep(args.k, args.angles)
    header = ["angle"] + [f"c{2*i+1}" for i in range(args.k)]
    run.write_csv("_boundary.csv", header,
                  [tuple([theta, *c.tolist()]) for theta, c in pts])
    run.finish("hermite boundary")


def cmd_round(args) -> None:
    run = _Runner(args, "naeopt_round")
    with open(args.instance) as fh:
        inst = pipeline.parse_instance(fh.read())
    with open(args.vectors) as fh:
        vectors = pipeline.parse_vectors(fh.read())
    f = parse_f_spec(args.f)
    best, frac = pipeline.best_of_rounds(inst, vectors, f, args.rounds, args.seed)
    run.write_json("_round.json", {
        "fraction": frac, "baseline": pipeline.random_baseline(inst),
        "rounds": args.rounds, "seed": args.seed, "f_spec": _f_spec_dict(f),
    })
    run.finish("round")


def cmd_witness(args) -> None:
    run = _Runner(args, "naeopt_witness_f4neg")
    v = moments.f4_witness_vectors(args.delta)
    gram = v @ v.T
    est = moments.f4_negative_witness(args.delta, args.eps, samples=args.samples, seed=args.seed)
    z99 = 2.3263478740408408  # one-sided 99% normal quantile
    run.write_json("_witness.json", {
        "delta": args.delta, "eps": args.eps, "samples": args.samples,
        "determined": est.determined, "seed": args.seed,
        "estimate": est.value, "std_error": est.std_error,
        "upper_conf_99": est.value + z99 * est.std_error,
        "bias_first_row": gram[0, 1], "bias_petals": gram[1, 2],
        "negative_at_99": est.value + z99 * est.std_error < 0,
    })
    run.finish("witness f4neg")


# ---------------------------------------------------------------------------
# parser


def _clause_sizes(text: str) -> tuple[int, ...]:
    return tuple(int(k) for k in text.split(","))


def _sweep_range(text: str) -> tuple[float, float, float]:
    lo, hi, step = (float(t) for t in text.split(":"))
    if not (math.isfinite(lo + hi) and 0.0 < step < math.inf):
        raise ValueError(text)
    return lo, hi, step


def _checked(parse):
    """argparse type that rejects what ``parse`` cannot read (a usage
    error, naming the type) but keeps the text, so the manifest records
    the flag as given."""
    def check(text: str) -> str:
        parse(text)
        return text
    check.__name__ = parse.__name__.strip("_").replace("_", " ")
    return check


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _build_parser() -> _Parser:
    p = _Parser(prog="naeopt", description=__doc__)
    p.add_argument("--threads", type=int,
                   default=int(os.environ.get("NAEOPT_THREADS", "1")),
                   help="worker processes for grid scans")
    sub = p.add_subparsers(dest="sub", required=True)

    sp = sub.add_parser("ratio", help="worst-case approximation ratio")
    sp.add_argument("--problem", choices=("maxcut", "nae3"), required=True)
    sp.add_argument("--N", type=int, default=fredholm.DEFAULT_N)
    sp.add_argument("--grid", type=int, default=500)
    sp.add_argument("--rounds", type=int, default=3)
    sp.add_argument("--coarse-N", type=int, default=fredholm.CURVE_N)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_ratio)

    sp = sub.add_parser("curve", help="completeness/soundness tradeoff curve")
    sp.add_argument("--problem", choices=("maxcut", "nae3"), required=True)
    sp.add_argument("--N", type=int, default=fredholm.CURVE_N)
    sp.add_argument("--grid", type=int, default=120)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_curve)

    sp = sub.add_parser("bound", help="closed-form hardness bounds")
    sp.add_argument("target", choices=("nae35",))
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_bound)

    sp = sub.add_parser("gap", help="integrality-gap instances")
    gsub = sp.add_subparsers(dest="gap_sub", required=True)
    g = gsub.add_parser("gen")
    g.add_argument("--n", type=int, default=48)
    g.add_argument("--m3", type=int, default=10**5)
    g.add_argument("--m5", type=int, default=10**5)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out")
    g.set_defaults(func=cmd_gap_gen)
    g = gsub.add_parser("eval")
    g.add_argument("--instance", required=True)
    g.add_argument("--vectors", required=True)
    g.add_argument("--p1", type=float, default=None,
                   help="default: the tuned value 1 - 2 sqrt(2 sqrt(21) - 9)")
    g.add_argument("--p2", type=float, default=0.0)
    g.add_argument("--trials", type=int, default=20)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out")
    g.set_defaults(func=cmd_gap_eval)

    sp = sub.add_parser("stepopt", help="optimize step rounding functions")
    sp.add_argument("--K", required=True, type=_checked(_clause_sizes),
                    help="comma-separated clause sizes, e.g. 3,5")
    sp.add_argument("--steps", type=int, default=2)
    sp.add_argument("--pm1", action="store_true")
    sp.add_argument("--restarts", type=int, default=64)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_stepopt)

    sp = sub.add_parser("sweep", help="marginal value of an extra breakpoint")
    sp.add_argument("--base", required=True, help="rounding-function spec")
    sp.add_argument("--K", required=True, type=_checked(_clause_sizes))
    sp.add_argument("--range", required=True, type=_checked(_sweep_range), help="lo:hi:step")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("hermite", help="Hermite coefficient geometry")
    hsub = sp.add_subparsers(dest="hermite_sub", required=True)
    h = hsub.add_parser("boundary")
    h.add_argument("--k", type=int, default=2)
    h.add_argument("--angles", type=int, default=720)
    h.add_argument("--out")
    h.set_defaults(func=cmd_hermite_boundary)

    sp = sub.add_parser("round", help="RPR2-round an instance with vectors")
    sp.add_argument("--instance", required=True)
    sp.add_argument("--vectors", required=True)
    sp.add_argument("--f", required=True, help="rounding-function spec")
    sp.add_argument("--rounds", type=int, default=100)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_round)

    sp = sub.add_parser("witness", help="moment counterexamples")
    sp.add_argument("target", choices=("f4neg",))
    sp.add_argument("--delta", type=float, default=0.1)
    sp.add_argument("--eps", type=float, default=0.05)
    sp.add_argument("--samples", type=int, default=10**8)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_witness)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        args.func(args)
    except (NaeoptError, OSError) as err:
        print(f"naeopt: {err}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
