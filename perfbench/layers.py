"""Layer boundaries of naeopt for a traced run, and the per-layer metrics.

The layers are the package modules moments, fredholm, stepopt, hermite,
hardness, gapgen and pipeline.  ``install`` wraps, at the attribute each
caller looks up, the public functions the workloads reach, plus
``numpy.linalg.solve`` (recorded as ``fredholm.solve``; the clamp search is
its only caller).  Only public names are wrapped.

``metrics`` reduces one traced repetition's spans to the figures named in
PER_LAYER; a figure whose layer the workload does not reach reads 0.
"""

from __future__ import annotations

import inspect

import numpy as np

from spans import Tracer, self_times

MODULES = ("moments", "fredholm", "stepopt", "hermite", "hardness", "gapgen", "pipeline")

# (name, unit, better); the order is the order of BENCHMARK.json's per_layer
PER_LAYER = [
    ("moments.rect_lattice.calls", "count", "lower"),
    ("moments.rect_lattice.self_s", "s", "lower"),
    ("moments.rect_lattice.self_share", "frac", "lower"),
    ("moments.rect_lattice.n400.ms_p50", "ms", "lower"),
    ("moments.rect_lattice.n100.ms_p50", "ms", "lower"),
    ("moments.rect_lattice.cdf_evals", "count", "lower"),
    ("moments.f2.calls", "count", "lower"),
    ("moments.f2.us_p50", "us", "lower"),
    ("moments.f2.us_p99", "us", "lower"),
    ("moments.sat_prob_symmetric.calls", "count", "lower"),
    ("moments.sat_prob_symmetric.us_p50", "us", "lower"),
    ("moments.moment_mc.samples_per_s", "1/s", "higher"),
    ("moments.f4_negative_witness.samples_per_s", "1/s", "higher"),
    ("fredholm.optimal_step_function.calls", "count", "lower"),
    ("fredholm.optimal_step_function.ms_p50", "ms", "lower"),
    ("fredholm.optimal_step_function.ms_p99", "ms", "lower"),
    ("fredholm.solves", "count", "lower"),
    ("fredholm.solves_per_point", "count", "lower"),
    ("fredholm.solve.self_s", "s", "lower"),
    ("fredholm.search_overhead_s", "s", "lower"),
    ("fredholm.curve.s", "s", "lower"),
    ("fredholm.refine_s", "s", "lower"),
    ("stepopt.optimize_step.s", "s", "lower"),
    ("stepopt.objective_evals", "count", "lower"),
    ("hermite.boundary_sweep.s", "s", "lower"),
    ("hermite.extreme_point.us_p50", "us", "lower"),
    ("hardness.nae35_bound.ms", "ms", "lower"),
    ("gapgen.gen_gap_instance.s", "s", "lower"),
    ("gapgen.gen_gap_instance.clauses_per_s", "1/s", "higher"),
    ("gapgen.load_gap.s", "s", "lower"),
    ("gapgen.evaluate_gap.s", "s", "lower"),
    ("gapgen.assignment_moments.samples_per_s", "1/s", "higher"),
    ("pipeline.format.s", "s", "lower"),
    ("pipeline.bytes_written", "bytes", "lower"),
    ("pipeline.parse_instance.mb_per_s", "MB/s", "higher"),
    ("pipeline.parse_vectors.s", "s", "lower"),
    ("pipeline.evaluate.ms_p50", "ms", "lower"),
    ("pipeline.evaluate_many.s", "s", "lower"),
    ("pipeline.rpr2_round.ms_p50", "ms", "lower"),
] + [(f"{m}.self_s", "s", "lower") for m in MODULES] + [
    ("run.outside_layers_s", "s", "lower"),
    ("run.cpu_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


def _arg(fn, name: str):
    """Size function reading argument ``name`` of ``fn``, defaults included."""
    sig = inspect.signature(fn)

    def size(args, kwargs, result):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments[name]

    return size


def _length_of_result(args, kwargs, result):
    return len(result)


def _length_of_text(args, kwargs, result):
    return len(args[0] if args else kwargs["text"])


def _cdf_evals(args, kwargs, result):
    return len(args[0]) * len(args[1])


def install(tracer: Tracer) -> None:
    from naeopt import fredholm, gapgen, hardness, hermite, moments, pipeline, stepopt

    def clauses(args, kwargs, result):
        return result.num_3clauses + result.num_5clauses

    points = [
        (moments, "rect_lattice", _cdf_evals),
        (moments, "f2", None),
        (moments, "f2l_symmetric", None),
        (moments, "sat_prob_symmetric", None),
        (moments, "moment_mc", _arg(moments.moment_mc, "samples")),
        (moments, "f4_negative_witness", _arg(moments.f4_negative_witness, "samples")),
        (fredholm, "approx_ratio", None),
        (fredholm, "curve", None),
        (fredholm, "optimal_step_function", None),
        (stepopt, "optimize_step", None),
        (stepopt, "objective_alphaK", None),
        (hermite, "boundary_sweep", None),
        (hermite, "extreme_point", None),
        (hardness, "nae35_bound", None),
        (gapgen, "gen_gap_instance", clauses),
        (gapgen, "load_gap", None),
        (gapgen, "evaluate_gap", None),
        (gapgen, "expected_fraction", None),
        (gapgen, "assignment_moments", _arg(gapgen.assignment_moments, "samples")),
        (pipeline, "format_instance", _length_of_result),
        (pipeline, "format_vectors", _length_of_result),
        (pipeline, "parse_instance", _length_of_text),
        (pipeline, "parse_vectors", _length_of_text),
        (pipeline, "evaluate", None),
        (pipeline, "evaluate_many", None),
        (pipeline, "rpr2_round", None),
        (pipeline, "best_of_rounds", None),
    ]
    for module, attr, size in points:
        tracer.wrap(module, attr, f"{module.__name__.rsplit('.', 1)[1]}.{attr}", size)
    # imported by name into stepopt, so its callers there need their own wrapper
    tracer.wrap(stepopt, "sat_prob_symmetric", "moments.sat_prob_symmetric")
    tracer.wrap(np.linalg, "solve", "fredholm.solve")


def _pct(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def metrics(spans, wall_s: float, cpu_s: float) -> dict[str, float]:
    """Per-layer figures of one traced repetition.

    ``wall_s`` is the traced repetition's timed region, which the workload
    runs inside one top-level span named ``run``.
    """
    selfs = self_times(spans)
    dur: dict[str, list[float]] = {}
    size: dict[str, float] = {}
    own: dict[str, float] = {}
    for s, t in zip(spans, selfs):
        dur.setdefault(s.name, []).append(s.duration)
        size[s.name] = size.get(s.name, 0.0) + s.size
        own[s.name] = own.get(s.name, 0.0) + t

    def calls(name):
        return float(len(dur.get(name, ())))

    def total(name):
        return float(sum(dur.get(name, ())))

    def rate(name, scale=1.0):
        t = total(name)
        return size.get(name, 0.0) / t / scale if t > 0 else 0.0

    lattice = [s for s in spans if s.name == "moments.rect_lattice"]

    def lattice_ms_p50(cells):
        return 1e3 * _pct([s.duration for s in lattice if s.size == (cells + 1) ** 2], 50)

    points = calls("fredholm.optimal_step_function")
    curve_in_ratio = sum(s.duration for s in spans if s.name == "fredholm.curve"
                         and s.parent >= 0 and spans[s.parent].name == "fredholm.approx_ratio")
    out = {
        "moments.rect_lattice.calls": calls("moments.rect_lattice"),
        "moments.rect_lattice.self_s": own.get("moments.rect_lattice", 0.0),
        "moments.rect_lattice.self_share": own.get("moments.rect_lattice", 0.0) / wall_s,
        "moments.rect_lattice.n400.ms_p50": lattice_ms_p50(400),
        "moments.rect_lattice.n100.ms_p50": lattice_ms_p50(100),
        "moments.rect_lattice.cdf_evals": size.get("moments.rect_lattice", 0.0),
        "moments.f2.calls": calls("moments.f2"),
        "moments.f2.us_p50": 1e6 * _pct(dur.get("moments.f2", []), 50),
        "moments.f2.us_p99": 1e6 * _pct(dur.get("moments.f2", []), 99),
        "moments.sat_prob_symmetric.calls": calls("moments.sat_prob_symmetric"),
        "moments.sat_prob_symmetric.us_p50":
            1e6 * _pct(dur.get("moments.sat_prob_symmetric", []), 50),
        "moments.moment_mc.samples_per_s": rate("moments.moment_mc"),
        "moments.f4_negative_witness.samples_per_s": rate("moments.f4_negative_witness"),
        "fredholm.optimal_step_function.calls": points,
        "fredholm.optimal_step_function.ms_p50":
            1e3 * _pct(dur.get("fredholm.optimal_step_function", []), 50),
        "fredholm.optimal_step_function.ms_p99":
            1e3 * _pct(dur.get("fredholm.optimal_step_function", []), 99),
        "fredholm.solves": calls("fredholm.solve"),
        "fredholm.solves_per_point": calls("fredholm.solve") / points if points else 0.0,
        "fredholm.solve.self_s": own.get("fredholm.solve", 0.0),
        "fredholm.search_overhead_s": own.get("fredholm.optimal_step_function", 0.0),
        "fredholm.curve.s": total("fredholm.curve"),
        "fredholm.refine_s": total("fredholm.approx_ratio") - curve_in_ratio,
        "stepopt.optimize_step.s": total("stepopt.optimize_step"),
        "stepopt.objective_evals": calls("stepopt.objective_alphaK"),
        "hermite.boundary_sweep.s": total("hermite.boundary_sweep"),
        "hermite.extreme_point.us_p50": 1e6 * _pct(dur.get("hermite.extreme_point", []), 50),
        "hardness.nae35_bound.ms": 1e3 * total("hardness.nae35_bound"),
        "gapgen.gen_gap_instance.s": total("gapgen.gen_gap_instance"),
        "gapgen.gen_gap_instance.clauses_per_s": rate("gapgen.gen_gap_instance"),
        "gapgen.load_gap.s": total("gapgen.load_gap"),
        "gapgen.evaluate_gap.s": total("gapgen.evaluate_gap"),
        "gapgen.assignment_moments.samples_per_s": rate("gapgen.assignment_moments"),
        "pipeline.format.s": total("pipeline.format_instance") + total("pipeline.format_vectors"),
        "pipeline.bytes_written":
            size.get("pipeline.format_instance", 0.0) + size.get("pipeline.format_vectors", 0.0),
        "pipeline.parse_instance.mb_per_s": rate("pipeline.parse_instance", 1e6),
        "pipeline.parse_vectors.s": total("pipeline.parse_vectors"),
        "pipeline.evaluate.ms_p50": 1e3 * _pct(dur.get("pipeline.evaluate", []), 50),
        "pipeline.evaluate_many.s": total("pipeline.evaluate_many"),
        "pipeline.rpr2_round.ms_p50": 1e3 * _pct(dur.get("pipeline.rpr2_round", []), 50),
    }
    for m in MODULES:
        out[f"{m}.self_s"] = sum(t for name, t in own.items() if name.startswith(m + "."))
    out["run.outside_layers_s"] = own.get("run", 0.0)
    out["run.cpu_s"] = cpu_s
    out["trace.wall_s"] = wall_s
    return out
