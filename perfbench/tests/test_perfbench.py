"""Tests of the benchmark itself: run with `python3 -m pytest perfbench/tests`."""

import json
import os
import shutil
import subprocess
import sys
import types

import numpy as np
import pytest

from conftest import BENCH, ROOT
import inputs
import layers
from spans import Span, Tracer, self_times


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=170)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# smoke runs


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_tiny_traced_run_passes_every_check(workload):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", "1", "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 4  # one untraced and one traced repetition
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert list(m) == [name for name, _, _ in layers.PER_LAYER]
    # each layer shows up on the workloads that call it and nowhere else
    assert (m["stepopt.optimize_step.s"] > 0) == (workload == "tables")
    assert (m["gapgen.self_s"] > 0) == (workload == "gap-roundtrip")
    assert (m["fredholm.solves"] > 0) == (workload in ("ratio-refine", "curve-scan"))
    assert (m["fredholm.refine_s"] > 0) == (workload == "ratio-refine")


def test_untraced_run_reports_the_end_to_end_metrics():
    proc = run_bench("--workload", "curve-scan", "--seed", "5", "--seconds", "0",
                     "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    detail, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert list(result["metrics"]) == [m["name"] for m in spec()["end_to_end"]]
    assert all(v["value"] > 0 for v in result["metrics"].values())
    env = detail["env"]
    assert env["source_lines"]["src"] > 0 and env["nproc"] >= 1
    assert {"python", "numpy", "scipy", "blas"} <= set(env)
    # the workers run one BLAS thread, whatever the caller's environment says
    assert env["blas"]["OPENBLAS_NUM_THREADS"] == "1"
    assert set(env["blas"]["threads"].values()) <= {1}


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench("--workload", "tables", "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# ---------------------------------------------------------------------------
# spans and wrappers


def test_self_time_of_nested_spans():
    spans = [Span("root", 0.0, 10.0),
             Span("a", 1.0, 4.0, parent=0),
             Span("a.inner", 2.0, 3.0, parent=1),
             Span("b", 5.0, 9.0, parent=0)]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_self_time_counts_overlapping_children_once():
    spans = [Span("root", 0.0, 10.0),
             Span("x", 1.0, 4.0, parent=0),
             Span("y", 3.0, 6.0, parent=0),
             Span("late", 8.0, 12.0, parent=0)]  # clipped to the parent
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 2.0)


def test_tracer_records_parents_and_sizes():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    mod = types.SimpleNamespace()
    mod.leaf = lambda n: list(range(n))
    mod.outer = lambda: mod.leaf(3) + mod.leaf(2)
    tracer.wrap(mod, "leaf", "m.leaf", size=lambda a, k, r: len(r))
    tracer.wrap(mod, "outer", "m.outer")
    with tracer.span("run"):
        mod.outer()
    names = [(s.name, s.parent, s.size) for s in tracer.spans]
    assert names == [("run", -1, 0.0), ("m.outer", 0, 0.0),
                     ("m.leaf", 1, 3.0), ("m.leaf", 1, 2.0)]
    assert all(s.end > s.start for s in tracer.spans)


def test_tracer_records_span_when_call_raises():
    tracer = Tracer()
    mod = types.SimpleNamespace(boom=lambda: 1 / 0)
    tracer.wrap(mod, "boom", "m.boom")
    with pytest.raises(ZeroDivisionError):
        mod.boom()
    assert len(tracer.spans) == 1 and tracer.spans[0].end >= tracer.spans[0].start
    assert tracer._stack == []


def test_install_and_restore_leave_modules_unchanged():
    from naeopt import fredholm, gapgen, hardness, hermite, moments, pipeline, stepopt
    modules = (fredholm, gapgen, hardness, hermite, moments, pipeline, stepopt)
    before = [dict(vars(m)) for m in modules]
    solve = np.linalg.solve
    tracer = Tracer()
    layers.install(tracer)
    assert moments.rect_lattice is not before[4]["rect_lattice"]
    assert np.linalg.solve is not solve
    tracer.restore()
    assert np.linalg.solve is solve
    for m, saved in zip(modules, before):
        assert all(vars(m)[k] is v for k, v in saved.items()), m.__name__


def test_metrics_of_synthetic_fredholm_spans():
    spans = [Span("run", 0.0, 10.0),
             Span("fredholm.optimal_step_function", 1.0, 3.0, parent=0),
             Span("fredholm.solve", 1.5, 2.0, parent=1),
             Span("fredholm.solve", 2.0, 2.5, parent=1),
             Span("moments.rect_lattice", 4.0, 8.0, parent=0, size=101.0 ** 2)]
    m = layers.metrics(spans, wall_s=10.0, cpu_s=12.0)
    assert m["fredholm.solves"] == 2 and m["fredholm.solves_per_point"] == 2
    assert m["fredholm.search_overhead_s"] == pytest.approx(1.0)
    assert m["moments.rect_lattice.n100.ms_p50"] == pytest.approx(4000.0)
    assert m["moments.rect_lattice.self_share"] == pytest.approx(0.4)
    assert m["run.outside_layers_s"] == pytest.approx(4.0)
    assert m["fredholm.self_s"] == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# inputs and the benchmark record


def test_inputs_depend_only_on_the_seed():
    for w in inputs.WORKLOADS:
        assert inputs.make_inputs(w, 7) == inputs.make_inputs(w, 7)
    assert inputs.make_inputs("tables", 7) != inputs.make_inputs("tables", 8)
    assert inputs.make_inputs("gap-roundtrip", 7) != inputs.make_inputs("gap-roundtrip", 8)


def test_benchmark_json_matches_the_code():
    s = spec()
    assert [w["name"] for w in s["workloads"]] == list(inputs.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in s["per_layer"]] == layers.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in s["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
