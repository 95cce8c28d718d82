"""Workload inputs, generated from the benchmark seed.

``make_inputs`` returns plain JSON data: sizes, sub-seeds for the library's
own random streams, and seeded random step functions.  The same seed always
gives the same inputs.  The two Fredholm workloads have no random inputs;
there the seed only fixes the order of the work (problem order, rho-slice
order), which leaves every result unchanged.

``full`` is the size the benchmark measures; ``tiny`` keeps the same calls at
a size small enough for the benchmark's own tests.
"""

from __future__ import annotations

import numpy as np

SIZES = {
    "full": {
        "ratio-refine": {"grid": 21, "rounds": 1, "n": 400, "coarse_n": 100},
        "curve-scan": {"grid": 40, "n": 100},
        "gap-roundtrip": {"n": 48, "m3": 5000, "m5": 5000, "trials": 20,
                          "moment_samples": 10**6, "rounds": 3},
        "tables": {"restarts": 16, "suite_functions": 40, "sweep_angles": 1024,
                   "mc_samples": 10**6, "witness_samples": 5 * 10**6},
    },
    "tiny": {
        "ratio-refine": {"grid": 17, "rounds": 1, "n": 80, "coarse_n": 40},
        "curve-scan": {"grid": 12, "n": 40},
        "gap-roundtrip": {"n": 48, "m3": 400, "m5": 400, "trials": 10,
                          "moment_samples": 10**5, "rounds": 2},
        "tables": {"restarts": 4, "suite_functions": 3, "sweep_angles": 64,
                   "mc_samples": 10**5, "witness_samples": 5 * 10**6},
    },
}

WORKLOADS = tuple(SIZES["full"])


def _subseed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


def random_step_function(rng: np.random.Generator, l: int):
    """Odd step function as (breakpoints, values): l sorted |N(0, 1.5)|
    breakpoints with values uniform in [-1, 1]."""
    breaks = np.sort(np.abs(rng.normal(0.0, 1.5, size=l)))
    while l and (np.any(np.diff(breaks) <= 1e-9) or breaks[0] <= 1e-9):
        breaks = np.sort(np.abs(rng.normal(0.0, 1.5, size=l)))
    values = rng.uniform(-1.0, 1.0, size=l + 1)
    return [float(b) for b in breaks], [float(v) for v in values]


def make_inputs(workload: str, seed: int, size: str = "full") -> dict:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    inp = dict(SIZES[size][workload])
    rng = np.random.default_rng(seed)
    if workload == "ratio-refine":
        inp["problems"] = [str(p) for p in rng.permutation(["nae3", "maxcut"])]
    elif workload == "curve-scan":
        rhos = np.linspace(-1.0, 0.0, inp["grid"])
        inp["problem"] = "nae3"
        inp["rhos"] = [float(r) for r in rng.permutation(rhos)]
    elif workload == "gap-roundtrip":
        inp["gen_seed"] = _subseed(rng)
        inp["eval_seed"] = _subseed(rng)
        inp["round_seed"] = _subseed(rng)
    else:
        inp["stepopt_seed"] = _subseed(rng)
        # 0..4 breakpoints in turn: the suite's cost then does not vary with the seed
        inp["suite"] = [random_step_function(rng, i % 5)
                        for i in range(inp.pop("suite_functions"))]
        inp["mc_function"] = random_step_function(rng, 2)
        inp["mc_rho"] = float(rng.uniform(-0.9, 0.9))
        inp["mc_seed"] = _subseed(rng)
        inp["witness_seed"] = _subseed(rng)
    return inp
