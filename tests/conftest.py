import tracemalloc

import numpy as np
import pytest

from naeopt.core import NAEInstance, StepFunction


def random_step_function(rng: np.random.Generator, max_breaks: int = 4,
                         monotone: bool = False) -> StepFunction:
    """Random odd step function; oddness is structural in the representation."""
    l = int(rng.integers(0, max_breaks + 1))
    breaks = np.sort(np.abs(rng.normal(0.0, 1.5, size=l)))
    while l and np.any(np.diff(breaks) <= 1e-9) or (l and breaks[0] <= 1e-9):
        breaks = np.sort(np.abs(rng.normal(0.0, 1.5, size=l)))
    values = rng.uniform(-1.0, 1.0, size=l + 1)
    if monotone:
        values = np.sort(np.abs(values))
    return StepFunction(tuple(breaks), tuple(values))


def peak_traced_mb(fn) -> float:
    """Peak of the memory that tracemalloc traces while ``fn()`` runs, in MB
    (10^6 bytes)."""
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def array_loop_evaluate(inst: NAEInstance, assignment: np.ndarray) -> float:
    """The per-clause NumPy loop that ``pipeline.evaluate`` replaced: an
    oracle for its exact bits."""
    sat = 0.0
    for cl in inst.clauses:
        lits = np.asarray(cl.literals)
        vals = assignment[np.abs(lits) - 1] * np.sign(lits)
        if vals.max() != vals.min():
            sat += cl.weight
    return sat / sum(c.weight for c in inst.clauses)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
