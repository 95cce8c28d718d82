"""Step-function search for satisfiable MAX NAE-K-SAT.

Under the symmetric-configuration assumption the hardest satisfiable
k-clause has all pairwise biases 1 - 4/k, so the objective for a clause
size set K is

    alpha_K(f) = min_{k in K} p_f(k, 1 - 4/k),

evaluated through the one-dimensional noise-operator integrals of the
moments module.  The ratios this produces are conjectured, not proven;
callers surface that caveat in their outputs.

The optimizer is multi-start Nelder-Mead over an unconstrained
parameterization: a_1 = exp(u_1) and gaps a_{i+1} - a_i = exp(u_{i+1})
keep breakpoints ordered, and free step values are clipped into [-1, 1].
With the +-1 flag only breakpoints move and values alternate
(-1)^(i+1), the shape every best known multi-size optimum takes.

The search is scipy 1.17's Nelder-Mead reproduced bit for bit, so that no
import loads scipy's optimize package: coefficients 1, 2, 0.5, 0.5 (reflection,
expansion, contraction, shrink), first simplex steps x1.05 or 0.00025.

The starts run in lockstep, _IN_FLIGHT of them at a time, which bounds the
memory of a search whatever its restart count.  Each start is a generator
that yields its next trial point; a round stacks the pending point of every
start still running, scores the whole stack with one call of
moments.sat_probs_symmetric per clause size (one Owen's-T lattice for k <= 3,
one fixed-panel quadrature for k >= 5), and sends each start its own loss.
The stacked kernels do the same floating-point operations on the same
operands as a call for one function, so every start sees the points and
losses it would see searched alone, and the result keeps every bit.  The
starts are drawn in restart order before a block runs (the search itself
draws no random numbers), and the best start is taken in restart order.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .core import SIGN, StepFunction, checked_seed
from .errors import DomainError, StructuralError
from .moments import sat_prob_symmetric, sat_probs_symmetric

# Nelder-Mead tolerances, and the cap on both evaluations and iterations of every start
_XATOL = 1e-10
_FATOL = 1e-12
_MAX_ITER = 2000

# starts searched in lockstep at once; a round's stack of points has at most
# this many rows, whatever the restart count
_IN_FLIGHT = 64


@dataclass(frozen=True)
class StepSearchConfig:
    clause_sizes: tuple[int, ...]
    steps: int = 2                 # l + 1 values on the positive axis
    pm_one: bool = True
    restarts: int = 64
    seed: int = 0

    def __post_init__(self):
        ks = tuple(sorted(set(_checked_sizes(self.clause_sizes))))
        if not isinstance(self.steps, numbers.Integral) or self.steps < 1:
            raise DomainError(f"need an integer number of steps, at least one, got {self.steps!r}")
        if not isinstance(self.restarts, numbers.Integral) or self.restarts < 1:
            raise DomainError(f"need an integer number of restarts, at least one, "
                              f"got {self.restarts!r}")
        object.__setattr__(self, "clause_sizes", ks)
        object.__setattr__(self, "seed", checked_seed(self.seed))


def _checked_sizes(clause_sizes) -> tuple[int, ...]:
    ks = tuple(clause_sizes)
    if not all(isinstance(k, numbers.Integral) for k in ks):
        raise DomainError(f"clause sizes must be integers, got {ks!r}")
    if not ks or min(ks) < 3:
        raise DomainError("clause sizes must all be >= 3")
    return tuple(int(k) for k in ks)


def objective_alphaK(f: StepFunction, clause_sizes) -> float:
    """min over k in K of the symmetric-configuration satisfaction probability."""
    return min(per_size_probs(f, clause_sizes).values())


def per_size_probs(f: StepFunction, clause_sizes) -> dict[int, float]:
    """p_f(k, 1 - 4/k) for every clause size k."""
    return {k: sat_prob_symmetric(f, k, 1.0 - 4.0 / k) for k in _checked_sizes(clause_sizes)}


# ---------------------------------------------------------------------------
# optimization


def _decode(params: np.ndarray, cfg: StepSearchConfig) -> StepFunction | None:
    l = cfg.steps - 1
    with np.errstate(over="ignore"):
        gaps = np.exp(params[:l])
    if not np.all(np.isfinite(gaps)):
        return None
    a = np.cumsum(gaps)
    if l and (a[-1] > 50.0 or np.any(np.diff(a) <= 0)):
        return None
    if cfg.pm_one:
        b = tuple(float((-1) ** (i + 1)) for i in range(l + 1))
    else:
        b = tuple(np.clip(params[l:], -1.0, 1.0))
    try:
        return StepFunction(tuple(a), b)
    except StructuralError:
        return None


def _nelder_mead(x0: np.ndarray):
    """Nelder-Mead from ``x0`` as a generator: it yields each trial point, is
    sent the loss there, and returns (x, loss at x, converged), each bit as
    scipy's Nelder-Mead gives with xatol=_XATOL, fatol=_FATOL,
    maxiter=maxfev=_MAX_ITER.  It counts its evaluations itself: once the
    cap is reached, the rest of the step is dropped, which can leave a
    shrink half done, and the simplex is sorted once more and returned."""
    n = len(x0)
    moved = np.where(x0 != 0, 1.05 * x0, 0.00025)  # vertex k + 1 moves coordinate k
    sim = np.vstack([x0, np.where(np.eye(n, dtype=bool), moved, x0)])
    fsim = np.empty(n + 1)
    for j in range(n + 1):
        fsim[j] = yield sim[j]
    calls = n + 1
    for _ in range(2):  # scipy sorts the first simplex twice
        order = np.argsort(fsim)
        sim, fsim = sim[order], fsim[order]
    iterations = 1
    while calls < _MAX_ITER and iterations < _MAX_ITER:
        if (np.max(np.abs(sim[1:] - sim[0])) <= _XATOL
                and np.max(np.abs(fsim[0] - fsim[1:])) <= _FATOL):
            return sim[0], np.min(fsim), True
        xbar = np.add.reduce(sim[:-1], 0) / n
        xr = 2 * xbar - sim[-1]
        fxr = yield xr
        calls += 1
        if fxr < fsim[0]:
            if calls < _MAX_ITER:
                xe = 3 * xbar - 2 * sim[-1]
                fxe = yield xe
                calls += 1
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        elif calls < _MAX_ITER:
            # contract outside if the reflection beat the worst vertex, else inside
            outside = fxr < fsim[-1]
            xc = 1.5 * xbar - 0.5 * sim[-1] if outside else 0.5 * xbar + 0.5 * sim[-1]
            fxc = yield xc
            calls += 1
            if fxc <= fxr if outside else fxc < fsim[-1]:
                sim[-1], fsim[-1] = xc, fxc
            else:  # shrink towards the best vertex
                for j in range(1, n + 1):
                    sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                    if calls == _MAX_ITER:
                        break
                    fsim[j] = yield sim[j]
                    calls += 1
        iterations += 1
        order = np.argsort(fsim)
        sim, fsim = sim[order], fsim[order]
    return sim[0], np.min(fsim), False


def _lockstep(loss, starts) -> list[tuple[np.ndarray, float, bool]]:
    """_nelder_mead's (x, loss at x, converged) from every start, in order.
    All starts run at once: each round stacks the pending point of every
    start still running into one array, one row per start, scores the stack
    with one call of ``loss`` and sends each start its own loss."""
    runs = [_nelder_mead(x0) for x0 in starts]
    pending = {i: next(run) for i, run in enumerate(runs)}
    results = [None] * len(runs)
    while pending:
        losses = loss(np.array(list(pending.values())))
        for i, fx in zip(list(pending), losses):
            try:
                pending[i] = runs[i].send(fx)
            except StopIteration as done:
                results[i] = done.value
                del pending[i]
    return results


@dataclass(frozen=True)
class StepSearchResult:
    f: StepFunction
    objective: float
    per_size: dict[int, float]
    restarts_used: int
    converged: bool
    conjectured: bool = True  # ratios assume the symmetric hardest configuration


def optimize_step(cfg: StepSearchConfig) -> StepSearchResult:
    """Multi-start Nelder-Mead maximization of alpha_K; deterministic per seed.

    The objective is a min of smooth curves, so the optimum usually sits
    on a kink; Nelder-Mead handles that where gradient methods stall.
    Non-convergence of individual starts is not fatal, the best point
    found is returned with ``converged`` reporting whether any start met
    the tolerances.
    """
    l = cfg.steps - 1
    nparam = l + (0 if cfg.pm_one else l + 1)
    rng = np.random.default_rng(cfg.seed)

    def loss(points: np.ndarray) -> np.ndarray:
        fs = [_decode(p, cfg) for p in points]
        out = np.full(len(fs), 2.0)
        rows = [i for i, f in enumerate(fs) if f is not None]
        if rows:
            fs = [fs[i] for i in rows]
            out[rows] = -np.min([sat_probs_symmetric(fs, k, 1.0 - 4.0 / k)
                                 for k in cfg.clause_sizes], axis=0)
        return out

    def start() -> np.ndarray:
        x0 = np.empty(nparam)
        # log-spaced first breakpoint around [0.6, 3.3]; modest gaps after
        x0[:l] = np.concatenate([
            rng.uniform(-0.5, 1.2, size=min(1, l)),
            rng.uniform(-2.0, 0.7, size=max(0, l - 1)),
        ])
        if not cfg.pm_one:
            x0[l:] = rng.uniform(-1.0, 1.0, size=l + 1)
        return x0

    if nparam == 0:  # single +-1 step: f = sign, nothing to optimize
        return StepSearchResult(SIGN, objective_alphaK(SIGN, cfg.clause_sizes),
                                per_size_probs(SIGN, cfg.clause_sizes), 0, True)

    best_val, best_params, any_converged = np.inf, None, False
    for done in range(0, cfg.restarts, _IN_FLIGHT):
        starts = [start() for _ in range(min(_IN_FLIGHT, cfg.restarts - done))]
        for x, fun, converged in _lockstep(loss, starts):
            any_converged = any_converged or converged
            if fun < best_val:
                best_val = fun
                best_params = x
    f = _decode(best_params, cfg)
    if f is None:
        raise DomainError("optimizer failed to produce a valid step function")
    return StepSearchResult(f, -best_val, per_size_probs(f, cfg.clause_sizes),
                            cfg.restarts, any_converged)


# ---------------------------------------------------------------------------
# breakpoint sweeps (marginal value of an extra step)


def breakpoint_sweep(f: StepFunction, positions, clause_sizes) -> list[dict]:
    """Per-size satisfaction probabilities after appending one breakpoint.

    Each candidate position a > max(existing breakpoints) appends a step
    with the terminal sign flipped; positions inside the existing
    breakpoint range are a domain error.
    """
    ks = _checked_sizes(clause_sizes)
    last = f.breakpoints[-1] if f.breakpoints else 0.0
    pos = np.asarray(positions, dtype=float)
    if np.any(pos <= last):
        raise DomainError(f"sweep positions must exceed the last breakpoint {last}")
    rows = []
    for a_new in pos:
        g = StepFunction(f.breakpoints + (float(a_new),), f.values + (-f.values[-1],))
        rows.append({"position": float(a_new), **per_size_probs(g, ks)})
    return rows
