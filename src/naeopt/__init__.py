"""naeopt: numerical toolkit for RPR2 rounding of MAX NAE-SAT.

Core pieces: exact moment functions of step rounding functions, the
Fredholm-equation characterization of optimal MAX CUT / MAX NAE-{3}-SAT
rounding, the 3(sqrt(21)-4)/2 hardness bound for MAX NAE-{3,5}-SAT,
explicit integrality-gap instances, Hermite coefficient geometry, and
step-function optimization for mixed clause sizes.
"""

__version__ = "0.1.0"

from .core import (
    Clause,
    GramConfig,
    GridFunction,
    HardDistribution,
    NAEInstance,
    StepFunction,
    VectorAssignment,
    validate_gram,
)
from .errors import DomainError, NaeoptError, StructuralError

__all__ = [
    "Clause",
    "DomainError",
    "GramConfig",
    "GridFunction",
    "HardDistribution",
    "NAEInstance",
    "NaeoptError",
    "StepFunction",
    "StructuralError",
    "VectorAssignment",
    "validate_gram",
    "__version__",
]
