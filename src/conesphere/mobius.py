"""Real 2x2 unit-determinant matrices acting on the upper half-plane.

A matrix M = [[m11, m12], [m21, m22]] with det M = 1 acts on H and its
boundary R u {inf} by z -> (m11*z + m12) / (m21*z + m22).  The module
provides the action, the elliptic/parabolic/hyperbolic classification by
trace, fixed-point extraction, and the sign of the real part of an elliptic
fixed point.

Fixed points are the roots of m21*z^2 + (m22 - m11)*z - m12 = 0, i.e.

    z_pm = ((m11 - m22) +- sqrt(tr^2 - 4)) / (2*m21)      (m21 != 0).

The point at infinity is represented by ``INF`` (= math.inf); the sign of an
infinite float is ignored, both ends denote the single boundary point of the
projective line.  Residual checks on the boundary use the chordal metric so
that points near infinity are handled uniformly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .config import DEFAULT_TOLERANCES
from .errors import AmbiguousClass, NotElliptic, ZeroDenominator

INF = math.inf

# Band, relative to the entry scale, inside which a trace counts as exactly
# +-2.  Products of parabolic generators land here after rounding.
_EXACT_BAND = 1e-13


def is_infinite(z) -> bool:
    if isinstance(z, complex):
        return math.isinf(z.real) or math.isinf(z.imag)
    return math.isinf(z)


def chordal(x, y) -> float:
    """Chordal distance between two points of R u {inf} (stereographic chord)."""
    xi, yi = is_infinite(x), is_infinite(y)
    if xi and yi:
        return 0.0
    if xi:
        return 1.0 / math.hypot(1.0, y)
    if yi:
        return 1.0 / math.hypot(1.0, x)
    return abs(x - y) / (math.hypot(1.0, x) * math.hypot(1.0, y))


@dataclass(frozen=True)
class UnimodularMatrix:
    """2x2 real matrix with determinant 1."""

    m11: float
    m12: float
    m21: float
    m22: float

    def __post_init__(self):
        scale = max(1.0, abs(self.m11 * self.m22) + abs(self.m12 * self.m21))
        det = self.m11 * self.m22 - self.m12 * self.m21
        if abs(det - 1.0) > 1e-12 * scale:
            raise ValueError(f"matrix is not unimodular: det = {det!r}")

    @classmethod
    def identity(cls) -> "UnimodularMatrix":
        return cls(1.0, 0.0, 0.0, 1.0)

    @property
    def trace(self) -> float:
        return self.m11 + self.m22

    def __matmul__(self, other: "UnimodularMatrix") -> "UnimodularMatrix":
        return UnimodularMatrix(
            self.m11 * other.m11 + self.m12 * other.m21,
            self.m11 * other.m12 + self.m12 * other.m22,
            self.m21 * other.m11 + self.m22 * other.m21,
            self.m21 * other.m12 + self.m22 * other.m22,
        )

    def __neg__(self) -> "UnimodularMatrix":
        return UnimodularMatrix(-self.m11, -self.m12, -self.m21, -self.m22)

    def inverse(self) -> "UnimodularMatrix":
        return UnimodularMatrix(self.m22, -self.m12, -self.m21, self.m11)

    def entries(self) -> tuple:
        return (self.m11, self.m12, self.m21, self.m22)

    def entry_scale(self) -> float:
        return max(1.0, *(abs(e) for e in self.entries()))

    def is_plus_minus_identity(self, tol: float) -> bool:
        for sign in (1.0, -1.0):
            if (abs(self.m11 - sign) <= tol and abs(self.m22 - sign) <= tol
                    and abs(self.m12) <= tol and abs(self.m21) <= tol):
                return True
        return False


class IsometryType(Enum):
    IDENTITY = "Identity"
    ELLIPTIC = "Elliptic"
    PARABOLIC = "Parabolic"
    HYPERBOLIC = "Hyperbolic"


@dataclass(frozen=True)
class IsometryClass:
    """Classification tag plus rotation angle (elliptic) or translation length (hyperbolic)."""

    tag: IsometryType
    magnitude: float


class FixedPointKind(Enum):
    ONE_POINT_BOUNDARY = "OnePointBoundary"
    TWO_POINTS_BOUNDARY = "TwoPointsBoundary"
    ONE_INTERIOR_POINT = "OneInteriorPoint"
    ALL_POINTS = "AllPoints"


@dataclass(frozen=True)
class FixedPointSet:
    kind: FixedPointKind
    points: tuple


def apply_mobius(M: UnimodularMatrix, z):
    """Apply the Moebius action of M to z (real, complex, or INF).

    Total on the extended domain: INF maps to m11/m21 and the pole of the
    denominator maps to INF.
    """
    if is_infinite(z):
        if M.m21 == 0.0:
            return INF
        return M.m11 / M.m21
    den = M.m21 * z + M.m22
    if den == 0:
        return INF
    return (M.m11 * z + M.m12) / den


def classify(M: UnimodularMatrix, tol: float = DEFAULT_TOLERANCES.classification) -> IsometryClass:
    """Classify M by its trace.

    Identity covers +-I (trivial action on H).  A trace within machine
    precision of +-2 is parabolic; a trace inside the tolerance band but not
    at the boundary raises AmbiguousClass, the caller must decide.
    Magnitudes: hyperbolic translation length 2*acosh(|tr|/2), elliptic
    rotation angle theta with |tr| = 2*cos(theta/2).
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if M.is_plus_minus_identity(tol):
        return IsometryClass(IsometryType.IDENTITY, 0.0)
    t = abs(M.trace)
    gap = t - 2.0
    if abs(gap) <= _EXACT_BAND * M.entry_scale():
        return IsometryClass(IsometryType.PARABOLIC, 0.0)
    if abs(gap) < tol:
        raise AmbiguousClass(
            f"|tr| - 2 = {gap!r} lies inside the classification band",
            trace=M.trace, tol=tol,
        )
    if gap > 0:
        return IsometryClass(IsometryType.HYPERBOLIC, 2.0 * math.acosh(t / 2.0))
    return IsometryClass(IsometryType.ELLIPTIC, 2.0 * math.acos(t / 2.0))


def fixed_points(M: UnimodularMatrix, tol: float = DEFAULT_TOLERANCES.classification) -> FixedPointSet:
    """Fixed points of the Moebius action of M.

    Boundary roots for |tr| >= 2, the interior root with positive imaginary
    part for elliptic M, and the AllPoints tag for +-I.
    """
    if M.is_plus_minus_identity(tol):
        return FixedPointSet(FixedPointKind.ALL_POINTS, ())
    if M.m21 == 0.0:
        # upper triangular: eigenvalues are real, infinity is always fixed
        if abs(M.m11 - M.m22) <= _EXACT_BAND * M.entry_scale():
            return FixedPointSet(FixedPointKind.ONE_POINT_BOUNDARY, (INF,))
        return FixedPointSet(
            FixedPointKind.TWO_POINTS_BOUNDARY,
            (INF, M.m12 / (M.m22 - M.m11)),
        )
    tr = M.trace
    disc = tr * tr - 4.0
    mid = (M.m11 - M.m22) / (2.0 * M.m21)
    if abs(disc) <= _EXACT_BAND * M.entry_scale() ** 2:
        return FixedPointSet(FixedPointKind.ONE_POINT_BOUNDARY, (mid,))
    if disc > 0:
        root = math.sqrt(disc) / (2.0 * M.m21)
        return FixedPointSet(FixedPointKind.TWO_POINTS_BOUNDARY, (mid + root, mid - root))
    im = abs(math.sqrt(-disc) / (2.0 * M.m21))
    return FixedPointSet(FixedPointKind.ONE_INTERIOR_POINT, (complex(mid, im),))


def elliptic_real_part_sign(M: UnimodularMatrix) -> int:
    """Sign of (tr M - 2*m22) / m21, the sign of Re of the interior fixed point.

    The expression is twice the actual real part; only the sign is consumed.
    """
    if abs(M.trace) >= 2.0:
        raise NotElliptic(f"|tr| = {abs(M.trace)!r} >= 2")
    if M.m21 == 0.0:
        raise ZeroDenominator("m21 = 0")
    value = (M.trace - 2.0 * M.m22) / M.m21
    if value > 0:
        return 1
    if value < 0:
        return -1
    return 0


def fixed_point_residual(M: UnimodularMatrix, p) -> float:
    """Distance between p and M(p): chordal on the boundary, euclidean inside H."""
    q = apply_mobius(M, p)
    if isinstance(p, complex) and p.imag > 0:
        return abs(q - p)
    return chordal(p, q)
