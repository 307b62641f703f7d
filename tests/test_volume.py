import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conesphere import volume
from conesphere.charvar import ParamTriple, simple_length
from conesphere.errors import (
    DegenerateAxis,
    NotHyperbolic,
    OnHyperbola,
    OutOfRange,
    QuadratureNotConverged,
)
from conesphere.volume import (
    axis_endpoints,
    darboux_check,
    domain_volume,
    fenchel_nielsen,
    moduli_volume,
    symplectic_consistency,
    volume_table,
    wp_density,
)

PI2 = math.pi ** 2
GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


# --- density and consistency ---------------------------------------------------

def test_wp_density_regular_point():
    p = ParamTriple(3, 3, 3)
    assert wp_density(p, "ab").value == pytest.approx(1.0 / 3.0)
    values = {pair: wp_density(p, pair).value for pair in ("ab", "bc", "ca")}
    assert len(set(values.values())) == 1


def test_wp_density_on_hyperbola():
    with pytest.raises(OnHyperbola):
        wp_density(ParamTriple(4.0, 4.0 / 3.0, 5.0), "ab")


def test_symplectic_consistency_regular_point():
    assert symplectic_consistency(ParamTriple(3, 3, 3), 1e-5) < 1e-6


def test_symplectic_consistency_refines_quadratically():
    discs = [symplectic_consistency(ParamTriple(3.2, 4.1, 2.7), h)
             for h in (1e-2, 5e-3, 2.5e-3)]
    assert 3.0 < discs[0] / discs[1] < 5.0
    assert 3.0 < discs[1] / discs[2] < 5.0


def test_symplectic_consistency_rejects_hyperbola():
    with pytest.raises(OnHyperbola):
        symplectic_consistency(ParamTriple(4.0, 4.0 / 3.0, 5.0), 1e-5)


# --- Fenchel-Nielsen -------------------------------------------------------------

def test_axis_endpoints_at_33():
    plus, minus = axis_endpoints(3.0, 3.0)
    assert sorted((plus, minus)) == pytest.approx([-1.2360679774997896, 3.23606797749979])


def test_fenchel_nielsen_at_33():
    fn = fenchel_nielsen(3.0, 3.0)
    assert fn.Delta == pytest.approx(math.sqrt(45.0))
    assert fn.length == pytest.approx(simple_length(9.0))
    # half of log(0.38197...) = -log(golden ratio)
    assert fn.twist == pytest.approx(-math.log(GOLDEN), rel=1e-12)


def test_fenchel_nielsen_boundary_cases():
    with pytest.raises(NotHyperbolic):
        fenchel_nielsen(2.0, 2.0)
    with pytest.raises(DegenerateAxis):
        fenchel_nielsen(4.0, 4.0 / 3.0)


def test_fn_length_consistent_with_trace():
    # the last pair sits just above ab = 4, where the length degenerates to 0
    for a, b in ((3.0, 3.0), (2.5, 4.0), (5.0, 1.2), (2.00001, 2.00001)):
        fn = fenchel_nielsen(a, b)
        assert 2.0 * math.cosh(fn.length / 2.0) == pytest.approx(a * b - 2.0)
        assert fn.Delta == pytest.approx(2.0 * math.sinh(fn.length / 2.0))


# --- the Darboux pairing ----------------------------------------------------------

def test_darboux_at_33():
    result = darboux_check(3.0, 3.0, 1e-5)
    assert result.abs_jacobian == pytest.approx(1.0 / 3.0, rel=1e-6)
    assert result.rel_err < 1e-5


def test_darboux_reference_at_42():
    assert darboux_check(4.0, 2.0, 1e-5).reference == pytest.approx(0.5)


def test_darboux_reports_coarse_steps_honestly():
    coarse = darboux_check(3.0, 3.0, 0.5)
    assert coarse.rel_err > 1e-4  # no silent clamp


def test_darboux_on_samples(geometric_points):
    worst = 0.0
    count = 0
    for point in geometric_points(300):
        if point.a * point.b <= 4.2:
            continue
        count += 1
        worst = max(worst, darboux_check(point.a, point.b, 1e-5).rel_err)
    assert count >= 100
    assert worst < 1e-5


# --- domain volume -----------------------------------------------------------------

def test_domain_volume_cusp_anchor():
    result = domain_volume(2.0)
    assert abs(result.value - PI2 / 2.0) < 1e-4
    assert result.reference == pytest.approx(PI2 / 2.0)
    assert result.reference_source == "pi^2/2"
    assert result.abs_error_estimate < 1e-6


def test_domain_volume_cone_level():
    result = domain_volume(0.0)
    assert result.reference == pytest.approx(3.0 * PI2 / 8.0)
    assert abs(result.value - result.reference) < 1e-3


def test_domain_volume_geodesic_level():
    result = domain_volume(3.0)
    length = 2.0 * math.acosh(1.5)
    assert result.reference == pytest.approx((4.0 * PI2 + length ** 2) / 8.0)
    assert abs(result.value - result.reference) < 1e-3


def test_domain_volume_vanishes_at_degenerate_limit():
    result = domain_volume(-1.999)
    assert 0.0 < result.value < 0.1
    assert abs(result.value - result.reference) < 1e-3


def test_domain_volume_out_of_range():
    with pytest.raises(OutOfRange):
        domain_volume(-2.0)


def test_domain_volume_monotone_in_kappa():
    values = [domain_volume(kappa).value for kappa in (-1.5, -0.5, 0.5, 1.5, 2.5, 3.5)]
    assert values == sorted(values)
    assert values[0] < values[-1]


@pytest.mark.parametrize("value, converged", [(2e-8, False), (0.5e-8, True)])
def test_quadrature_gate(monkeypatch, value, converged):
    # zero on the coarse (even) nodes, so the estimate |T(h) - T(2h)| is the value
    # itself; for values below 1 the gate is 100 * 1e-10 = 1e-8
    def odd_nodes_only(u, level):
        odd = np.arange(u.size) % 2 == 1
        return np.where(odd, value / (volume._STEP * odd.sum()), 0.0)

    monkeypatch.setattr(volume, "_log_v_integrand", odd_nodes_only)
    if converged:
        assert domain_volume(1.0).abs_error_estimate == pytest.approx(value, rel=1e-12)
    else:
        with pytest.raises(QuadratureNotConverged):
            domain_volume(1.0)


def test_moduli_volume_is_four_domains():
    base = domain_volume(2.0)
    quotient = moduli_volume(2.0)
    assert quotient.value == pytest.approx(4.0 * base.value, rel=1e-14)
    assert quotient.reference == pytest.approx(2.0 * PI2)
    assert abs(quotient.value - 2.0 * PI2) < 4e-4


def test_volume_table_rows():
    rows = volume_table([0.0, 3.0])
    assert rows[0]["boundary_kind"] == "theta"
    assert rows[0]["boundary_measure"] == pytest.approx(math.pi)
    assert rows[1]["boundary_kind"] == "l_delta"
    assert all(row["abs_error"] < 1e-6 for row in rows)


@pytest.mark.parametrize("kappa, kind", [
    (2.0 + 1e-10, "l_delta"), (2.0 - 1e-10, "theta"), (2.0, "theta"), (-2.0 + 1e-13, "theta"),
])
def test_volume_table_labels_follow_reference_branch(kappa, kind, volume_closed_form):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        k = mpmath.mpf(kappa)
        measure = float(2 * (mpmath.acosh(k / 2) if k > 2 else mpmath.acos(k / 2)))
    row, = volume_table([kappa])
    assert row["boundary_kind"] == kind
    assert row["boundary_measure"] == pytest.approx(measure, rel=1e-14, abs=0.0)
    formula = {"l_delta": "(4*pi^2 + l^2)/8", "theta": "(4*pi^2 - theta^2)/8"}[kind]
    assert row["reference_source"].startswith("pi^2/2" if kappa == 2.0 else formula)
    assert row["reference"] == pytest.approx(volume_closed_form(kappa), rel=1e-15)


# --- the valid range (-2, max float] ----------------------------------------------

EDGE_LEVELS = (math.nextafter(-2.0, 0.0), -2.0 + 1e-15, -2.0 + 1e-12, -1.99,
               2.0, 1e12, 1e300, sys.float_info.max)


def _assert_matches_closed_form(kappa, want):
    with np.errstate(all="raise"):
        result = domain_volume(kappa)
    assert abs(result.value - want) <= 1e-12 * want
    assert abs(result.reference - want) <= 1e-15 * want
    assert result.abs_error_estimate <= 1e-8 * want


@pytest.mark.parametrize("kappa", EDGE_LEVELS)
def test_domain_volume_at_range_edges(kappa, volume_closed_form):
    _assert_matches_closed_form(kappa, volume_closed_form(kappa))


@settings(deadline=None)
@given(st.one_of(st.floats(-15.0, 0.6).map(lambda e: -2.0 + 10.0 ** e),
                 st.floats(0.0, 308.0).map(lambda e: 10.0 ** e)))
def test_domain_volume_matches_closed_form_over_range(volume_closed_form, kappa):
    _assert_matches_closed_form(kappa, volume_closed_form(kappa))


@pytest.mark.parametrize("kappa", [math.inf, math.nan])
def test_domain_volume_rejects_nonfinite_level(kappa):
    with pytest.raises(OutOfRange) as info:
        domain_volume(kappa)
    assert info.value.details["reason"] == "not_finite"


@pytest.mark.parametrize("poison", [math.inf, math.nan])
def test_nonfinite_node_sum_raises(monkeypatch, poison):
    integrand = volume._log_v_integrand

    def poisoned(u, level):
        values = integrand(u, level)
        values[len(values) // 2] = poison
        return values

    monkeypatch.setattr(volume, "_log_v_integrand", poisoned)
    with pytest.raises(QuadratureNotConverged):
        domain_volume(3.0)


# --- dV/dK, the second sum on the volume's nodes -------------------------------------

@pytest.mark.parametrize("level", [1e-20, 1e-12, 1e-6, 0.01, 0.5, 2.0, 3.999, 4.001,
                                   7.0, 100.0, 1e6])
def test_slope_matches_closed_form(level):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        k = mpmath.mpf(level)
        if k < 4:
            # 2 cos(theta/2) = K - 2 and dV/dtheta = -theta/4, dK/dtheta = -sin(theta/2)
            theta = 2 * mpmath.acos((k - 2) / 2)
            want = float(theta / 4 / mpmath.sin(theta / 2))
        else:
            # 2 cosh(l/2) = K - 2 and dV/dl = l/4, dK/dl = sinh(l/2)
            length = 2 * mpmath.acosh((k - 2) / 2)
            want = float(length / 4 / mpmath.sinh(length / 2))
    got, _ = volume._trapezoid(volume._slope_integrand, level)
    assert abs(got - want) <= 1e-12 * want
