"""Shared tolerance record.

All numerical cutoffs in the package default to the value below:
``classification`` for deciding discrete class membership (parabolic vs
hyperbolic, cusp vs cone point).  Relative scaling against the magnitude of
the operands is applied at the point of use.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    classification: float = 1e-9


DEFAULT_TOLERANCES = Tolerances()
