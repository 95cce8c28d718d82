"""naeopt benchmark: closed loop, one caller, one fresh process per repetition.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload ratio-refine --seed 1 --seconds 20 --trace 0

Repetitions run back to back (at least one); a new one starts only if it
should end within ``--seconds``, judging by the longest one so far.  Each
starts a new interpreter on perfbench/worker.py with ``src`` on PYTHONPATH,
so imports and the library's caches are cold in every one, as for a CLI
user.  The environment is passed through, except that BLAS runs one thread
(``BLAS_THREADS``); the worker records the setting as loaded.

``--trace 0`` reports the end-to-end metrics: medians over repetitions of
wall time, set-up time and peak RSS, and the fraction of checks passed.
``--trace 1`` alternates an untraced and a traced repetition and reports the
per-layer metrics of the traced ones (medians) with the tracing overhead.

Standard output ends with two JSON lines: a detail record (environment,
per-repetition figures, checks) and the result
``{"correct", "attempted", "failed", "metrics"}``.  The detail record is
also written to .bench_build/perfbench/.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from inputs import WORKLOADS, make_inputs  # noqa: E402
from layers import PER_LAYER  # noqa: E402

HARD_LIMIT_S = 160  # a run, hung repetitions included, ends within this
# On a few shared cores a multi-threaded BLAS call waits for its slowest
# thread: with another busy process on the second core, `ratio-refine` took
# 6.9 s with OpenBLAS's default two threads and 4.3 s with one, the same as
# on an idle host.  One thread measures the library, not the scheduler.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def source_lines() -> dict[str, int]:
    """Line count of the library and scripts (ROADMAP's design-quality count)."""
    out = {}
    for sub in ("src", "scripts"):
        total = 0
        for dirpath, _, files in os.walk(os.path.join(ROOT, sub)):
            for name in files:
                if name.endswith(".py"):
                    with open(os.path.join(dirpath, name), "rb") as fh:
                        total += fh.read().count(b"\n")
        out[sub] = total
    return out


def git_sha() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=5)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() or None


def repetition(workload: str, inputs: dict, trace: bool, spans_path: str | None,
               timeout: float) -> dict:
    """Run one repetition in a fresh interpreter; returns the worker's record."""
    env = dict(os.environ, **BLAS_THREADS)
    env["PYTHONPATH"] = os.path.join(ROOT, "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    spec = json.dumps({"workload": workload, "inputs": inputs, "trace": trace,
                       "spans_path": spans_path})
    spawned = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py")], input=spec,
                              capture_output=True, text=True, cwd=ROOT, env=env,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"repetition killed after {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    rec = json.loads(lines[-1])
    rec["setup_s"] = rec.pop("first_call") - spawned
    return rec


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: same calls at test size (the benchmark's own tests)")
    args = ap.parse_args(argv)
    # on SIGTERM, unwind through subprocess.run, which kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(ROOT, "src", "naeopt", "__init__.py")):
        print(f"error: no naeopt sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    inputs = make_inputs(args.workload, args.seed, args.size)
    out_dir = os.path.join(ROOT, ".bench_build", "perfbench")
    os.makedirs(out_dir, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans_path = os.path.join(out_dir, f"spans-{tag}.json") if args.trace else None

    reps = []
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    longest = 0.0  # the longest round (repetition, or untraced + traced pair) so far
    while not reps or time.monotonic() - start + longest <= args.seconds:
        began = time.monotonic()
        for traced in (False, True) if args.trace else (False,):
            reps.append(repetition(args.workload, inputs, traced, spans_path if traced else None,
                                   max(1.0, deadline - time.monotonic())))
        longest = max(longest, time.monotonic() - began)
        if time.monotonic() >= deadline:
            break
    measured = time.monotonic() - start

    attempted = failed = 0
    for rec in reps:
        if "error" in rec:
            attempted += 1
            failed += 1
            print(f"repetition failed: {rec['error']}", file=sys.stderr)
            continue
        attempted += len(rec["checks"])
        for name, ok, detail in rec["checks"]:
            if not ok:
                failed += 1
                print(f"check failed: {name}: {detail}", file=sys.stderr)
    good = [r for r in reps if "error" not in r]
    plain = [r for r in good if "layers" not in r]
    traced = [r for r in good if "layers" in r]

    def med(values):
        values = list(values)
        return statistics.median(values) if values else None

    if args.trace:
        metrics = {}
        untraced = med(r["wall_s"] for r in plain)
        for name, unit, _ in PER_LAYER:
            if name == "trace.untraced_wall_s":
                value = untraced
            elif name == "trace.overhead_s":
                # each traced repetition against the untraced one just before it,
                # so that the host speeding up or slowing down over the run cancels
                value = med(t["wall_s"] - u["wall_s"] for u, t in zip(reps[0::2], reps[1::2])
                            if "error" not in u and "error" not in t)
            else:
                value = med(r["layers"][name] for r in traced)
            metrics[name] = {"value": value, "unit": unit}
    else:
        metrics = {
            "wall_s": {"value": med(r["wall_s"] for r in plain), "unit": "s"},
            "setup_s": {"value": med(r["setup_s"] for r in plain), "unit": "s"},
            "peak_rss_mb": {"value": med(r["peak_rss_mb"] for r in plain), "unit": "MB"},
            "pass_frac": {"value": (attempted - failed) / attempted, "unit": "frac"},
        }

    walls = [r["wall_s"] for r in plain]
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "size": args.size, "seconds": args.seconds, "measured_s": measured,
        "loop": "closed, 1 caller, fresh process per repetition",
        "wall_s_quartiles": quartiles(walls) if walls else None,
        "repetitions": [{k: r.get(k) for k in ("wall_s", "setup_s", "peak_rss_mb", "cpu_s",
                                               "error")} | {"traced": "layers" in r}
                        for r in reps],
        "checks": good[-1]["checks"] if good else [],
        "env": {"git_sha": git_sha(), "nproc": os.cpu_count(),
                "affinity_cpus": len(os.sched_getaffinity(0)),
                "source_lines": source_lines(), **(good[0]["env"] if good else {})},
        "inputs": {k: v for k, v in inputs.items() if not isinstance(v, list)},
    }
    with open(os.path.join(out_dir, f"result-{tag}.json"), "w") as fh:
        json.dump({"detail": detail, "metrics": metrics}, fh, indent=1)
    print(json.dumps(detail))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
