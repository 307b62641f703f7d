import math
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

from conesphere.charvar import (
    ANGLE_SUM_TOL,
    BoundaryKind,
    Component,
    GeometricPoint,
    ParamTriple,
    angle_sum_gap,
    boundary_data,
    c_from_level,
    cba_fixed_point,
    component_of,
    inequality_report,
    kappa_of,
    matrices_from_triple,
    polygon_certificate,
    simple_length,
)
from conesphere.errors import (
    DegenerateMinusIdentity,
    Indeterminate,
    NotConeCase,
    NotGeometric,
    NotHyperbolic,
    OnHyperbola,
    OutOfRange,
)
from conesphere.mobius import FixedPointKind, apply_mobius, fixed_point_residual

ROOT3 = 1.0 + math.sqrt(3.0)  # the symmetric triple on the kappa = 0 level


# --- kappa and the explicit matrices ---------------------------------------

def test_kappa_anchor_values():
    assert kappa_of(3.0, 3.0, 3.0) == 2.0
    assert kappa_of(2.0, 2.0, 2.0) == -2.0
    assert kappa_of(6.0, 1.5, 6.0) == 2.0


def test_explicit_matrices_at_333():
    mats = matrices_from_triple(ParamTriple(3, 3, 3))
    assert mats.A.entries() == (1.0, 0.0, 3.0, 1.0)
    assert mats.B.entries() == (4.0, -3.0, 3.0, -2.0)
    assert mats.C.entries() == (1.0, -3.0, 0.0, 1.0)
    assert mats.CBA.entries() == (4.0, 3.0, -3.0, -2.0)
    assert mats.CBA.trace == 2.0


def test_generators_fix_their_cusps():
    mats = matrices_from_triple(ParamTriple(2.3, 4.1, 1.7))
    assert apply_mobius(mats.A, 0.0) == 0.0
    assert apply_mobius(mats.B, 1.0) == pytest.approx(1.0)
    assert apply_mobius(mats.C, math.inf) == math.inf


def test_trace_of_cba_matches_kappa(rng):
    for _ in range(2000):
        a, b, c = (rng.uniform(-4, 4) for _ in range(3))
        mats = matrices_from_triple(ParamTriple(a, b, c))
        level = kappa_of(a, b, c)
        assert abs(mats.CBA.trace - level) <= 1e-12 * max(1.0, abs(level))
        assert abs(mats.BA.trace - (2.0 - a * b)) <= 1e-12 * max(1.0, abs(a * b))


def test_minus_identity_at_222():
    mats = matrices_from_triple(ParamTriple(2, 2, 2))
    assert mats.CBA.entries() == (-1.0, 0.0, 0.0, -1.0)


# --- level solver and components --------------------------------------------

def test_c_from_level_example():
    assert c_from_level(3.0, 3.0, 2.0) == pytest.approx(3.0)


def test_c_from_level_singular_point():
    with pytest.raises(Indeterminate):
        c_from_level(2.0, 2.0, -2.0)


def test_c_from_level_on_hyperbola():
    with pytest.raises(OnHyperbola):
        c_from_level(4.0, 4.0 / 3.0, 1.0)


def test_c_from_level_round_trip(geometric_points):
    for point in geometric_points(200):
        c = c_from_level(point.a, point.b, point.kappa)
        assert abs(kappa_of(point.a, point.b, c) - point.kappa) \
            <= 1e-10 * max(1.0, abs(point.kappa))


def test_component_tags():
    assert component_of(3.0, 3.0) is Component.POS_BRANCH_GT1
    assert component_of(0.5, 0.5) is Component.NEG
    assert component_of(-2.0, -2.0) is Component.POS_BRANCH_LTM1
    with pytest.raises(OnHyperbola):
        component_of(4.0, 4.0 / 3.0)


# --- lengths and boundary dictionary ----------------------------------------

def test_simple_length_log_form():
    expected = 2.0 * math.log(3.5 + math.sqrt(3.5 ** 2 - 1.0))
    assert simple_length(9.0) == pytest.approx(expected, rel=1e-14)


def test_simple_length_boundary_and_inverse():
    with pytest.raises(NotHyperbolic):
        simple_length(4.0)
    assert simple_length(2.0 + 2.0 * math.cosh(1.0)) == pytest.approx(2.0)


def test_boundary_data_cases():
    assert boundary_data(2.0).kind is BoundaryKind.CUSP
    cone = boundary_data(0.0)
    assert cone.kind is BoundaryKind.CONE_POINT
    assert cone.angle == pytest.approx(math.pi)
    geo = boundary_data(3.0)
    assert geo.kind is BoundaryKind.GEODESIC_BOUNDARY
    assert geo.length == pytest.approx(2.0 * math.acosh(1.5))


def test_boundary_data_degenerate_limit():
    with pytest.raises(OutOfRange) as info:
        boundary_data(-2.0)
    assert info.value.details["reason"] == "degenerate_two_pi"
    with pytest.raises(OutOfRange) as info:
        boundary_data(-3.0)
    assert info.value.details["reason"] == "below_range"
    # just inside the range the cone angle approaches 2*pi continuously
    nearly = boundary_data(-2.0 + 1e-6)
    assert nearly.kind is BoundaryKind.CONE_POINT
    assert nearly.angle == pytest.approx(2.0 * math.pi, abs=1e-2)


# --- geometric component membership ------------------------------------------

def test_geometric_point_rejects_wrong_branch():
    # a, b, c > 1 and kappa > -2, but the pair products are below 4:
    # the triple sits over the wrong component and must be rejected
    assert kappa_of(1.5, 1.5, 2.0) > -2.0
    with pytest.raises(NotGeometric):
        GeometricPoint.from_coords(1.5, 1.5, 2.0)


def test_geometric_point_rejects_small_coordinates():
    with pytest.raises(NotGeometric):
        GeometricPoint.from_coords(0.5, 3.0, 3.0)
    with pytest.raises(NotGeometric):
        GeometricPoint.from_coords(2.0, 2.0, 2.0)


def test_geometric_samples_satisfy_products(geometric_points):
    for point in geometric_points(1000):
        a, b, c = point.as_tuple()
        assert min(a * b, b * c, c * a) > 4.0


def test_product_bound_identity(rng):
    # on the constraint curve b = a/(a-1): ab - 4 = (a-2)^2/(a-1) exactly
    for _ in range(100):
        a = 1.0 + 10.0 ** rng.uniform(-3, 3)
        b = a / (a - 1.0)
        assert a * b - 4.0 == pytest.approx((a - 2.0) ** 2 / (a - 1.0), abs=1e-9)


# --- inequality certificates ---------------------------------------------------

def test_inequality_report_regular_point():
    report = inequality_report(GeometricPoint.from_coords(3, 3, 3))
    assert report.collar_lhs == pytest.approx(25.0)
    assert report.collar_rhs == pytest.approx(16.0)
    assert report.conecollar_lhs == 1.25  # sqrt(25) / 4
    assert report.conecollar_rhs == 1.0  # cusp value at kappa = 2
    assert report.all_pass


def test_conecollar_rhs_is_exact_across_levels():
    # cos(theta/4) = sqrt(K)/2 with K = kappa + 2, from K = 1e-12 (theta near
    # 2*pi) through the cusp to long geodesic boundaries
    for exponent in range(-12, 7):
        point = GeometricPoint.from_coords(3.0, 3.0, (10.0 ** exponent + 5.0) / 3.0)
        with localcontext() as ctx:
            ctx.prec = 50
            level = Fraction(point.kappa) + 2
            exact = (Decimal(level.numerator) / Decimal(level.denominator)).sqrt() / 2
        got = inequality_report(point).conecollar_rhs
        assert abs(Decimal(got) - exact) <= 2 * Decimal(math.ulp(float(exact)))


def test_inequality_equality_on_b2_slice():
    point = GeometricPoint.from_coords(ROOT3, 2.0, ROOT3)
    report = inequality_report(point)
    assert abs(report.collar_lhs - report.collar_rhs) <= 1e-12
    assert abs(report.conecollar_lhs - report.conecollar_rhs) <= 1e-12
    assert report.conecollar_lhs == pytest.approx((math.sqrt(3.0) - 1.0) / 2.0)


def test_inequalities_hold_on_samples(geometric_points):
    for point in geometric_points(1000):
        report = inequality_report(point)
        assert report.all_pass


# --- boundary holonomy fixed point ---------------------------------------------

def test_cba_fixed_point_parabolic_case():
    result = cba_fixed_point(ParamTriple(3, 3, 3))
    assert result.point.kind is FixedPointKind.ONE_POINT_BOUNDARY
    assert result.point.points[0] == pytest.approx(-1.0)
    assert result.real_part_negative is None  # kappa = 2 outside the lemma range


def test_cba_fixed_point_symmetric_elliptic():
    p = ParamTriple(ROOT3, ROOT3, ROOT3)
    result = cba_fixed_point(p)
    assert result.point.kind is FixedPointKind.ONE_INTERIOR_POINT
    z = result.point.points[0]
    assert z.real == pytest.approx(-math.sqrt(3.0) / 2.0)
    assert result.real_part_negative is True
    # the sign expression itself evaluates to -sqrt(3)
    expression = (p.kappa - 2.0 + 2.0 * p.b) / (p.a + p.b - p.a * p.b)
    assert expression == pytest.approx(-math.sqrt(3.0))
    assert fixed_point_residual(result.matrix, z) <= 1e-10


def test_cba_fixed_point_degenerate():
    with pytest.raises(DegenerateMinusIdentity):
        cba_fixed_point(ParamTriple(2, 2, 2))


def test_cba_sign_lemma_on_samples(geometric_points):
    for point in geometric_points(300, kappa_high=1.99):
        result = cba_fixed_point(point.triple)
        if result.real_part_negative is None:
            continue
        assert result.real_part_negative
        assert result.point.points[0].real < 0


# --- hyperbolization certificate -------------------------------------------------

def test_polygon_certificate_symmetric():
    cert = polygon_certificate(GeometricPoint.from_coords(ROOT3, ROOT3, ROOT3))
    assert cert.convex
    assert cert.side_pairings_ok
    assert cert.angle_sum == pytest.approx(math.pi, abs=1e-9)
    assert cert.vertices[0] == 0.0 and cert.vertices[2] == 1.0


def test_polygon_certificate_matches_cone_angle():
    point = GeometricPoint.from_coords(2.5, 2.5, 2.5)
    cert = polygon_certificate(point)
    theta = boundary_data(point.kappa).angle
    assert cert.convex and cert.side_pairings_ok
    assert cert.angle_sum == pytest.approx(theta, abs=1e-9)


def test_polygon_certificate_requires_cone_case():
    with pytest.raises(NotConeCase):
        polygon_certificate(GeometricPoint.from_coords(3, 3, 3))  # kappa = 2


def test_polygon_angle_sum_equals_theta_off_domain():
    # the hexagon exists for any cone-case geometric point; convexity can
    # fail far from the fundamental domain, the angle sum stays theta
    point = GeometricPoint.from_coords(1.2069655484453876, 6.673799813156598,
                                       31.661901692111222)
    cert = polygon_certificate(point)
    theta = boundary_data(point.kappa).angle
    assert cert.side_pairings_ok
    assert cert.angle_sum == pytest.approx(theta, abs=1e-9)
    assert not cert.convex


@pytest.mark.parametrize("coords", [(2.999999, 3.0, 3.0), (2.9999999995, 3.0, 3.0),
                                    (2.0000001, 2.0000001, 2.0000001)])
def test_angle_sum_matches_near_both_ends_of_the_cone_range(coords):
    # near kappa = 2 and -2, theta = 2 acos(kappa/2) carries the rounding of kappa
    # over sin(theta/2), and the angle sum misses it by more than 1e-10 relative;
    # read in kappa, the gap stays at the rounding of abc
    point = GeometricPoint.from_coords(*coords)
    cert = polygon_certificate(point)
    theta = boundary_data(point.kappa).angle
    assert abs(cert.angle_sum - theta) > 1e-10 * theta
    assert angle_sum_gap(point, cert.angle_sum) <= ANGLE_SUM_TOL
