"""One benchmark repetition, run in a fresh interpreter by run.py.

Reads ``{"workload", "inputs", "trace", "spans_path"}`` as JSON on stdin and
prints one JSON line: the monotonic time of the first timed call (run.py
subtracts its own spawn time to get set-up time), the timed wall and CPU
time, peak RSS, the checks, the environment, and with tracing on the
per-layer metrics.  Set-up covers the imports, building the inputs and, in a
traced repetition, installing the wrappers; the checks run after the clock
stops and after the wrappers are removed.
"""

from __future__ import annotations

import ctypes
import json
import os
import platform
import resource
import sys
import time
import traceback


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _blas() -> dict:
    """BLAS library and its thread count as loaded in this process."""
    import numpy as np
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    out = {"name": info.get("name"), "version": info.get("version"), "threads": {}}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        out[var] = os.environ.get(var)
    with open("/proc/self/maps") as maps:
        libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out["threads"][os.path.basename(path)] = fn()
                break
    return out


def _environment() -> dict:
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": _blas()}


def main() -> None:
    spec = json.load(sys.stdin)
    import layers
    import workloads
    from spans import Tracer

    prepare, run, checks = workloads.WORKLOADS[spec["workload"]]
    state = prepare(spec["inputs"])
    tracer = None
    if spec["trace"]:
        tracer = Tracer()
        layers.install(tracer)

    result = {"first_call": time.monotonic()}
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    try:
        if tracer:
            with tracer.span("run"):
                out = run(state)
        else:
            out = run(state)
        error = None
    except Exception:
        error = traceback.format_exc()
    wall = time.perf_counter() - t0
    cpu = _cpu_s() - cpu0
    result.update(wall_s=wall, cpu_s=cpu,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    if tracer:
        tracer.restore()
        result["layers"] = layers.metrics(tracer.spans, wall, cpu)
        if spec.get("spans_path"):
            with open(spec["spans_path"], "w") as fh:
                json.dump([[s.name, s.start, s.end, s.parent, s.size]
                           for s in tracer.spans], fh)

    if error is not None:
        result["checks"] = [["workload raised", False, error]]
    else:
        result["checks"] = []
        for name, fn in checks(state, out):
            try:
                ok, detail = fn()
            except Exception:
                ok, detail = False, traceback.format_exc()
            result["checks"].append([name, bool(ok), detail])
    result["env"] = _environment()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
