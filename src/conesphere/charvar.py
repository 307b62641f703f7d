"""The (a,b,c) parametrization of the relative character variety.

Three parabolic generators fixing 0, 1 and infinity,

    A = [[1, 0], [a, 1]],   B = [[1+b, -b], [b, 1-b]],   C = [[1, -c], [0, 1]],

give a representation of the free group on three peripheral loops.  The
boundary holonomy C*B*A has trace

    kappa(a,b,c) = 2 + abc - ab - bc - ac,

and the level sets of kappa are the relative character varieties.  The
geometric component is the branch a, b, c > 1 with kappa > -2; there all
three pair products satisfy ab, bc, ca > 4 and the simple loops are
hyperbolic with lengths 2*acosh((product - 2)/2).

Boundary dictionary: kappa = 2*cos(theta/2) encodes a cone point of angle
theta, kappa = 2 a cusp, kappa = 2*cosh(l/2) a geodesic boundary of
length l.

The module also houses the inequality certificates (the collar bound
(ab-4)(bc-4) >= 4*(kappa+2) and its sinh/cos form) and the hyperbolization
certificate: the interior fixed point of CBA and the fundamental hexagon
with vertices 0, A(z), 1, C^-1(z), inf, z whose side pairings are A, B, C.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from enum import Enum

from .config import DEFAULT_TOLERANCES
from .errors import (
    CertificateFailed,
    DegenerateMinusIdentity,
    Indeterminate,
    NotConeCase,
    NotGeometric,
    NotHyperbolic,
    OnHyperbola,
    OutOfRange,
)
from .mobius import (
    INF,
    FixedPointKind,
    FixedPointSet,
    UnimodularMatrix,
    apply_mobius,
    fixed_points,
    is_infinite,
)


def kappa_of(a: float, b: float, c: float) -> float:
    """Trace of the boundary holonomy CBA: 2 + abc - ab - bc - ac, exact on Fractions."""
    return 2 + a * b * c - a * b - b * c - a * c


@dataclass(frozen=True)
class ParamTriple:
    """Coordinates (a, b, c) with the cached level value kappa."""

    a: float
    b: float
    c: float
    kappa: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "kappa", kappa_of(self.a, self.b, self.c))

    def as_tuple(self) -> tuple:
        return (self.a, self.b, self.c)


class GeometricPoint:
    """A triple on the geometric component: a, b, c > 1, kappa > -2, all pair products > 4.

    The product condition is a consequence of membership in the component
    lying over the branch ab - a - b > 0, but it is load-bearing as a check:
    triples such as (1.5, 1.5, 2) satisfy a, b, c > 1 and kappa > -2 while
    sitting over the wrong branch, and are rejected here.
    """

    __slots__ = ("triple",)

    def __init__(self, triple: ParamTriple):
        a, b, c = triple.as_tuple()
        if not (a > 1.0 and b > 1.0 and c > 1.0):
            raise NotGeometric(f"coordinates must exceed 1, got {triple.as_tuple()}")
        if not triple.kappa > -2.0:
            raise NotGeometric(f"kappa = {triple.kappa!r} <= -2")
        if not (a * b > 4.0 and b * c > 4.0 and c * a > 4.0):
            raise NotGeometric(
                f"pair products must exceed 4, got {(a * b, b * c, c * a)}"
            )
        self.triple = triple

    @classmethod
    def from_coords(cls, a: float, b: float, c: float) -> "GeometricPoint":
        return cls(ParamTriple(a, b, c))

    @property
    def a(self) -> float:
        return self.triple.a

    @property
    def b(self) -> float:
        return self.triple.b

    @property
    def c(self) -> float:
        return self.triple.c

    @property
    def kappa(self) -> float:
        return self.triple.kappa

    def as_tuple(self) -> tuple:
        return self.triple.as_tuple()

    def __repr__(self):
        return f"GeometricPoint(a={self.a!r}, b={self.b!r}, c={self.c!r})"


@dataclass(frozen=True)
class RepresentationMatrices:
    A: UnimodularMatrix
    B: UnimodularMatrix
    C: UnimodularMatrix
    BA: UnimodularMatrix
    CBA: UnimodularMatrix


def matrices_from_triple(p: ParamTriple) -> RepresentationMatrices:
    """The normalized parabolic generators and the products BA, CBA."""
    a, b, c = p.as_tuple()
    A = UnimodularMatrix(1.0, 0.0, a, 1.0)
    B = UnimodularMatrix(1.0 + b, -b, b, 1.0 - b)
    C = UnimodularMatrix(1.0, -c, 0.0, 1.0)
    BA = B @ A
    return RepresentationMatrices(A, B, C, BA, C @ BA)


def c_from_level(a: float, b: float, kappa: float) -> float:
    """Solve kappa(a, b, c) = kappa for c: (kappa - 2 + ab) / (ab - a - b).

    Raises OnHyperbola on the locus ab - a - b = 0 and Indeterminate at its
    intersection with a vanishing numerator (the singular point (2,2,2) of
    the level kappa = -2).
    """
    den = a * b - a - b
    num = kappa - 2.0 + a * b
    if abs(den) <= DEFAULT_TOLERANCES.classification:
        if abs(num) <= DEFAULT_TOLERANCES.classification:
            raise Indeterminate(
                f"numerator and denominator both vanish at (a, b) = {(a, b)}",
                a=a, b=b, kappa=kappa,
            )
        raise OnHyperbola(f"(a, b) = {(a, b)} lies on ab - a - b = 0", a=a, b=b)
    return num / den


class Component(Enum):
    POS_BRANCH_GT1 = "PosBranchGT1"
    NEG = "Neg"
    POS_BRANCH_LTM1 = "PosBranchLTm1"


def component_of(a: float, b: float, tol: float = DEFAULT_TOLERANCES.classification) -> Component:
    """Which component of {ab - a - b != 0} the pair (a, b) lies in.

    The hyperbola ab - a - b = 0 has asymptotes a = 1 and b = 1; its
    complement is the branch above it (a, b > 1), the region between the
    branches, and the branch below it.
    """
    den = a * b - a - b
    if abs(den) <= tol:
        raise OnHyperbola(f"(a, b) = {(a, b)} lies on ab - a - b = 0", a=a, b=b)
    if den < 0:
        return Component.NEG
    return Component.POS_BRANCH_GT1 if a > 1.0 else Component.POS_BRANCH_LTM1


def simple_length(product: float) -> float:
    """Geodesic length of a simple loop with trace 2 - product.

    From 2 - product = -2*cosh(l/2): l = 2*acosh((product - 2)/2), defined
    for product > 4.
    """
    if product <= 4.0:
        raise NotHyperbolic(f"pair product {product!r} <= 4")
    return 2.0 * math.acosh((product - 2.0) / 2.0)


class BoundaryKind(Enum):
    CONE_POINT = "ConePoint"
    CUSP = "Cusp"
    GEODESIC_BOUNDARY = "GeodesicBoundary"


@dataclass(frozen=True)
class BoundaryData:
    kind: BoundaryKind
    angle: float = None   # type: ignore[assignment]  # cone angle theta, ConePoint only
    length: float = None  # type: ignore[assignment]  # boundary length, GeodesicBoundary only


def boundary_data(kappa: float, tol: float = DEFAULT_TOLERANCES.classification) -> BoundaryData:
    """Boundary type encoded by the level value: 2*cos(theta/2) = kappa.

    kappa = -2 is the degenerate theta = 2*pi limit and is reported as
    OutOfRange with reason 'degenerate_two_pi' rather than as a cone point.
    """
    if abs(kappa - 2.0) <= tol:
        return BoundaryData(BoundaryKind.CUSP, angle=0.0)
    if kappa > 2.0:
        return BoundaryData(BoundaryKind.GEODESIC_BOUNDARY, length=2.0 * math.acosh(kappa / 2.0))
    if kappa > -2.0:
        return BoundaryData(BoundaryKind.CONE_POINT, angle=2.0 * math.acos(kappa / 2.0))
    reason = "degenerate_two_pi" if abs(kappa + 2.0) <= tol else "below_range"
    raise OutOfRange(f"kappa = {kappa!r} <= -2", reason=reason, kappa=kappa)


@dataclass(frozen=True)
class InequalityReport:
    products: tuple
    collar_lhs: float
    collar_rhs: float
    conecollar_lhs: float
    conecollar_rhs: float
    all_pass: bool


def inequality_report(p: GeometricPoint) -> InequalityReport:
    """Collar-type certificates at a geometric point.

    collar: (ab - 4)(bc - 4) >= 4*(kappa + 2), with equality on the slice
    b = 2.  conecollar: sinh(l_ab/4)*sinh(l_bc/4) >= cos(theta/4), the
    square root of the collar certificate divided by 4, since
    sinh^2(l_ab/4) = (ab - 4)/4 and cos^2(theta/4) = (kappa + 2)/4.  For
    kappa >= 2 the right side is cosh(l_delta/4) (value 1 at the cusp).
    """
    a, b, c = p.as_tuple()
    products = (a * b, b * c, c * a)
    collar_lhs = (products[0] - 4.0) * (products[1] - 4.0)
    collar_rhs = 4.0 * (p.kappa + 2.0)
    conecollar_lhs = math.sqrt(collar_lhs) / 4.0
    conecollar_rhs = math.sqrt(collar_rhs) / 4.0
    all_pass = (
        collar_lhs >= collar_rhs - 1e-12
        and conecollar_lhs >= conecollar_rhs - 1e-12
        and min(products) > 4.0
    )
    return InequalityReport(products, collar_lhs, collar_rhs,
                            conecollar_lhs, conecollar_rhs, all_pass)


@dataclass(frozen=True)
class CbaFixedPoint:
    matrix: UnimodularMatrix
    point: FixedPointSet
    real_part_negative: bool | None  # set iff a+b-ab < 0, b > 2, |kappa| < 2


def cba_fixed_point(p: ParamTriple) -> CbaFixedPoint:
    """Fixed point data of the boundary holonomy CBA.

    When a + b - ab < 0, b > 2 and -2 < kappa < 2 the sign flag is set from
    sign((kappa - 2 + 2b) / (a + b - ab)), the sign of the real part of the
    interior fixed point.
    """
    mats = matrices_from_triple(p)
    cba = mats.CBA
    if cba.is_plus_minus_identity(DEFAULT_TOLERANCES.classification):
        raise DegenerateMinusIdentity(
            f"CBA is +-identity at {p.as_tuple()}", triple=p.as_tuple()
        )
    point = fixed_points(cba)
    a, b = p.a, p.b
    flag = None
    if a + b - a * b < 0 and b > 2.0 and -2.0 < p.kappa < 2.0:
        flag = (p.kappa - 2.0 + 2.0 * b) / (a + b - a * b) < 0
    return CbaFixedPoint(cba, point, flag)


# about 100x the worst angle_sum_gap, 1.3e-15, over 25,000 sampled cone points
ANGLE_SUM_TOL = 1e-13


def angle_sum_gap(p: GeometricPoint, angle_sum: float) -> float:
    """|2 cos(angle_sum/2) - kappa| / abc: the gap to theta read in kappa, which is
    known to the rounding of abc, as theta is ill-conditioned near 0 and 2 pi."""
    return abs(2.0 * math.cos(angle_sum / 2.0) - p.kappa) / (p.a * p.b * p.c)


@dataclass(frozen=True)
class PolygonCertificate:
    vertices: tuple       # 0, A(z), 1, C^-1(z), inf, z in cyclic order
    convex: bool
    side_pairings_ok: bool
    angle_sum: float


def _geodesic_through(u, v):
    """Complete geodesic through two points of H u boundary.

    Returns ('vertical', x) or ('circle', center, radius).
    """
    def coords(z):
        if is_infinite(z):
            return None
        if isinstance(z, complex):
            return (z.real, z.imag)
        return (float(z), 0.0)

    cu, cv = coords(u), coords(v)
    if cu is None and cv is None:
        raise CertificateFailed("degenerate side with both endpoints at infinity",
                                check="side_geodesic")
    if cu is None or cv is None:
        x = cv[0] if cu is None else cu[0]
        return ("vertical", x)
    (ux, uy), (vx, vy) = cu, cv
    if abs(ux - vx) <= 1e-13 * max(1.0, abs(ux), abs(vx)):
        return ("vertical", 0.5 * (ux + vx))
    center = (ux * ux + uy * uy - vx * vx - vy * vy) / (2.0 * (ux - vx))
    return ("circle", center, math.hypot(ux - center, uy))


def _side_of(geo, z) -> float:
    """Signed position of z relative to a complete geodesic (0 means on it)."""
    if geo[0] == "vertical":
        if is_infinite(z):
            return 0.0
        x = z.real if isinstance(z, complex) else z
        return x - geo[1]
    _, center, radius = geo
    if is_infinite(z):
        return 1.0
    if isinstance(z, complex):
        return math.hypot(z.real - center, z.imag) - radius
    return abs(z - center) - radius


def _tangent_toward(v: complex, u):
    """Unit tangent at the interior point v of the geodesic toward u."""
    if is_infinite(u):
        return complex(0.0, 1.0)
    ux, uy = (u.real, u.imag) if isinstance(u, complex) else (float(u), 0.0)
    if abs(ux - v.real) <= 1e-13 * max(1.0, abs(ux), abs(v.real)):
        return complex(0.0, 1.0) if uy > v.imag else complex(0.0, -1.0)
    center = (abs(v) ** 2 - (ux * ux + uy * uy)) / (2.0 * (v.real - ux))
    t = 1j * (v - center)
    if (ux - v.real) * t.real < 0:
        t = -t
    return t / abs(t)


def polygon_certificate(p: GeometricPoint,
                        tol: float = DEFAULT_TOLERANCES.classification) -> PolygonCertificate:
    """Fundamental hexagon certificate for the cone case kappa in (-2, 2).

    Vertices in cyclic order: 0, A(z), 1, C^-1(z), inf, z, where z is the
    interior fixed point of CBA.  The pairing combinatorics is forced: A
    pairs the two sides at 0, B the two at 1, C the two at inf, and the
    conjugation identities C^-1(CBA)C = BAC and A(CBA)A^-1 = ACB identify
    the finite vertices as the fixed points of BAC and ACB.  Convexity is
    certified by checking, for each side, that the remaining vertices lie
    weakly on one side of its complete geodesic.  The angle sum over the
    three finite vertices is computed from signed turning, so it equals the
    cone angle even when a corner is reflex.
    """
    kappa = p.kappa
    if not -2.0 < kappa < 2.0:
        raise NotConeCase(f"kappa = {kappa!r} outside (-2, 2)", kappa=kappa)
    mats = matrices_from_triple(p.triple)
    fp = fixed_points(mats.CBA, tol)
    if fp.kind is not FixedPointKind.ONE_INTERIOR_POINT:
        raise CertificateFailed("CBA has no interior fixed point", check="interior_fixed_point")
    z = fp.points[0]
    a_z = apply_mobius(mats.A, z)
    ci_z = apply_mobius(mats.C.inverse(), z)
    vertices = (0.0, a_z, 1.0, ci_z, INF, z)

    convex = True
    n = len(vertices)
    for i in range(n):
        geo = _geodesic_through(vertices[i], vertices[(i + 1) % n])
        sides = [_side_of(geo, vertices[j]) for j in range(n)
                 if j != i and j != (i + 1) % n]
        if max(sides) > tol and min(sides) < -tol:
            convex = False

    # interior angles at the finite vertices via signed turns
    turns = {}
    for i in (1, 3, 5):
        v = vertices[i]
        t_in = -_tangent_toward(v, vertices[i - 1])
        t_out = _tangent_toward(v, vertices[(i + 1) % n])
        turns[i] = cmath.phase(t_out / t_in)
    orient = 1.0 if sum(turns.values()) < 0 else -1.0
    angle_sum = sum(math.pi + orient * turns[i] for i in (1, 3, 5))

    bac = mats.C.inverse() @ mats.CBA @ mats.C
    acb = mats.A @ mats.CBA @ mats.A.inverse()
    pairings = (
        abs(apply_mobius(mats.B, a_z) - ci_z),        # B maps the side at 1 across
        abs(apply_mobius(mats.CBA, z) - z),
        abs(apply_mobius(bac, ci_z) - ci_z),
        abs(apply_mobius(acb, a_z) - a_z),
        abs(apply_mobius(mats.A, 0.0) - 0.0),
        abs(apply_mobius(mats.B, 1.0) - 1.0),
    )
    side_pairings_ok = max(pairings) <= tol and is_infinite(apply_mobius(mats.C, INF))

    return PolygonCertificate(vertices, convex, side_pairings_ok, angle_sum)
