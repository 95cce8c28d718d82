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
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass

import numpy as np

from .core import SIGN, StepFunction, checked_seed
from .errors import DomainError, StructuralError
from .moments import sat_prob_symmetric

# Nelder-Mead tolerances, and the cap on both evaluations and iterations of every start
_XATOL = 1e-10
_FATOL = 1e-12
_MAX_ITER = 2000


@dataclass(frozen=True)
class StepSearchConfig:
    clause_sizes: tuple[int, ...]
    steps: int = 2                 # l + 1 values on the positive axis
    pm_one: bool = True
    restarts: int = 64
    seed: int = 0

    def __post_init__(self):
        ks = _checked_sizes(sorted(set(int(k) for k in self.clause_sizes)))
        if self.steps < 1:
            raise DomainError("need at least one step")
        if self.restarts < 1:
            raise DomainError("need at least one restart")
        object.__setattr__(self, "clause_sizes", ks)
        object.__setattr__(self, "seed", checked_seed(self.seed))


def _checked_sizes(clause_sizes) -> tuple[int, ...]:
    ks = tuple(clause_sizes)
    if not ks or min(ks) < 3:
        raise DomainError("clause sizes must all be >= 3")
    return ks


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


class _Capped(Exception):
    """The evaluation cap fired; the simplex stays as it stands."""


def _nelder_mead(loss, x0: np.ndarray) -> tuple[np.ndarray, float, bool]:
    """(x, loss at x, converged) from ``x0``, each bit as scipy's Nelder-Mead gives with
    xatol=_XATOL, fatol=_FATOL, maxiter=maxfev=_MAX_ITER; the cap can fire inside a shrink."""
    n = len(x0)
    moved = np.where(x0 != 0, 1.05 * x0, 0.00025)  # vertex k + 1 moves coordinate k
    sim = np.vstack([x0, np.where(np.eye(n, dtype=bool), moved, x0)])
    calls = 0

    def f(x):
        nonlocal calls
        if calls >= _MAX_ITER:
            raise _Capped
        calls += 1
        return loss(x)

    fsim = np.array([f(x) for x in sim], dtype=float)
    for _ in range(2):  # scipy sorts the first simplex twice
        order = np.argsort(fsim)
        sim, fsim = sim[order], fsim[order]
    iterations = 1
    while calls < _MAX_ITER and iterations < _MAX_ITER:
        with suppress(_Capped):
            if (np.max(np.abs(sim[1:] - sim[0])) <= _XATOL
                    and np.max(np.abs(fsim[0] - fsim[1:])) <= _FATOL):
                return sim[0], np.min(fsim), True
            xbar = np.add.reduce(sim[:-1], 0) / n
            xr = 2 * xbar - sim[-1]
            fxr = f(xr)
            if fxr < fsim[0]:
                xe = 3 * xbar - 2 * sim[-1]
                fxe = f(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:  # contract outside if the reflection beat the worst vertex, else inside
                outside = fxr < fsim[-1]
                xc = 1.5 * xbar - 0.5 * sim[-1] if outside else 0.5 * xbar + 0.5 * sim[-1]
                fxc = f(xc)
                if fxc <= fxr if outside else fxc < fsim[-1]:
                    sim[-1], fsim[-1] = xc, fxc
                else:  # shrink towards the best vertex
                    for j in range(1, n + 1):
                        sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                        fsim[j] = f(sim[j])
            iterations += 1
        order = np.argsort(fsim)
        sim, fsim = sim[order], fsim[order]
    return sim[0], np.min(fsim), False


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

    def loss(params: np.ndarray) -> float:
        f = _decode(params, cfg)
        return 2.0 if f is None else -objective_alphaK(f, cfg.clause_sizes)

    if nparam == 0:  # single +-1 step: f = sign, nothing to optimize
        return StepSearchResult(SIGN, objective_alphaK(SIGN, cfg.clause_sizes),
                                per_size_probs(SIGN, cfg.clause_sizes), 0, True)

    best_val, best_params, any_converged = np.inf, None, False
    for _ in range(cfg.restarts):
        start = np.empty(nparam)
        # log-spaced first breakpoint around [0.6, 3.3]; modest gaps after
        start[:l] = np.concatenate([
            rng.uniform(-0.5, 1.2, size=min(1, l)),
            rng.uniform(-2.0, 0.7, size=max(0, l - 1)),
        ])
        if not cfg.pm_one:
            start[l:] = rng.uniform(-1.0, 1.0, size=l + 1)
        x, fun, converged = _nelder_mead(loss, start)
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
