"""Exception hierarchy for domain errors.

Every error carries a short machine-readable ``code`` used by the CLI when
emitting structured error objects.
"""


class ConesphereError(Exception):
    """Base class for all domain errors raised by this package."""

    code = "error"

    def __init__(self, message: str, **details):
        super().__init__(message)
        self.details = details


class AmbiguousClass(ConesphereError):
    """Trace too close to the parabolic boundary to classify at the given tolerance."""

    code = "ambiguous_class"


class NotElliptic(ConesphereError):
    code = "not_elliptic"


class ZeroDenominator(ConesphereError):
    code = "zero_denominator"


class OnHyperbola(ConesphereError):
    """The pair (x, y) lies on the hyperbola xy - x - y = 0."""

    code = "on_hyperbola"


class Indeterminate(ConesphereError):
    """Both numerator and denominator of the level formula vanish (singular point)."""

    code = "indeterminate"


class SingularPoint(ConesphereError):
    """The unique singular point (2,2,2) of the level set kappa = -2."""

    code = "singular_point"


class NotHyperbolic(ConesphereError):
    code = "not_hyperbolic"


class OutOfRange(ConesphereError):
    """Level value or point outside the admissible range; ``details['reason']`` refines it."""

    code = "out_of_range"


class NotGeometric(ConesphereError):
    """Triple does not lie on the geometric component."""

    code = "not_geometric"


class DegenerateMinusIdentity(ConesphereError):
    """The boundary holonomy is -I, as at the singular triple (2,2,2)."""

    code = "degenerate_minus_identity"


class NotConeCase(ConesphereError):
    code = "not_cone_case"


class CertificateFailed(ConesphereError):
    """Polygon construction could not be completed; ``details['check']`` names the step."""

    code = "certificate_failed"


class PivotAtOne(ConesphereError):
    """An involution was applied at its pole (pivot coordinate equal to 1)."""

    code = "pivot_at_one"


class MaxStepsExceeded(ConesphereError):
    code = "max_steps_exceeded"


class WordNotReduced(ConesphereError):
    code = "word_not_reduced"


class UnsupportedAutomorphism(ConesphereError):
    """Automorphism images are not conjugates of generators or their inverses."""

    code = "unsupported_automorphism"


class NonParabolicImage(ConesphereError):
    code = "non_parabolic_image"


class CoincidentFixedPoints(ConesphereError):
    code = "coincident_fixed_points"


class DegenerateAxis(ConesphereError):
    code = "degenerate_axis"


class QuadratureNotConverged(ConesphereError):
    code = "quadrature_not_converged"
