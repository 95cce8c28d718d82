"""The MAX NAE-{3,5} hardness bound 3(sqrt(21)-4)/2.

A mixture that picks a hard 5-clause with probability p and a hard
3-clause with probability 1-p is rounded, by any scheme, to value

    (1-p)(3+3F2)/4 + p(15-6F2-F4)/16,

where F2 = F2(1/3) in [0, 1/3] and F4 >= F2^2.  Substituting F4 = F2^2
and completing the square gives the envelope (84 p + 36/p)/16 - 6, whose
minimum over p sits at p* = 3/sqrt(21) with worst-case F2* = 2 sqrt(21)-9.
The resulting bound 3(sqrt(21)-4)/2 ~ 0.87386 is below 7/8.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import golden_section_min
from .errors import DomainError

P_STAR = 3.0 / np.sqrt(21.0)
F2_STAR = 2.0 * np.sqrt(21.0) - 9.0
BOUND = 3.0 * (np.sqrt(21.0) - 4.0) / 2.0


@dataclass(frozen=True)
class MixtureBound:
    p_star: float
    f2_star: float
    bound: float
    residual: float  # |closed form - numeric minimax|


def mixture_value(p: float, f2: float, f4: float) -> float:
    """(1-p)(3+3 F2)/4 + p(15 - 6 F2 - F4)/16, the mixture's rounded value."""
    return (1.0 - p) * (3.0 + 3.0 * f2) / 4.0 + p * (15.0 - 6.0 * f2 - f4) / 16.0


def inner_max(p: float) -> tuple[float, float]:
    """max over F2 in [0, 1/3] of mixture_value(p, F2, F2^2).

    With F4 = F2^2 the value is (12 + 3p + (12-18p) F2 - p F2^2)/16, a
    concave parabola in F2 with vertex (6-9p)/p; the vertex clamps to the
    interval.  Returns (argmax F2, max value).
    """
    if not 0.0 <= p <= 1.0:
        raise DomainError("p must lie in [0, 1]")
    if p == 0.0:
        return 1.0 / 3.0, 1.0
    vertex = (6.0 - 9.0 * p) / p
    f2 = min(max(vertex, 0.0), 1.0 / 3.0)
    return f2, mixture_value(p, f2, f2 * f2)


def nae35_bound() -> MixtureBound:
    """Closed-form bound plus an independent numeric minimax check.

    The check runs a 2001-point grid over p followed by golden-section
    refinement of p -> inner_max(p), entirely separate from the algebra
    that produced the closed form.
    """
    ps = np.linspace(1e-6, 1.0, 2001)
    vals = [inner_max(p)[1] for p in ps]
    i = int(np.argmin(vals))
    lo = ps[max(0, i - 1)]
    hi = ps[min(len(ps) - 1, i + 1)]
    p_num = golden_section_min(lambda p: inner_max(p)[1], lo, hi, 200)
    numeric = inner_max(p_num)[1]
    residual = abs(numeric - BOUND)
    if residual > 1e-9:
        raise AssertionError(
            f"numeric minimax {numeric!r} disagrees with closed form {BOUND!r}"
        )
    return MixtureBound(float(P_STAR), float(F2_STAR), float(BOUND), float(residual))
