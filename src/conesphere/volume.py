"""Weil-Petersson geometry in the (a, b, c) coordinates.

The symplectic density is 1/(xy - x - y) in any of the coordinate pairs,

    w = da^db/(ab - a - b) = db^dc/(bc - b - c) = dc^da/(ac - a - c),

the equalities following from implicit differentiation on a kappa level
set.  Fenchel-Nielsen coordinates of the simple loop with trace 2 - ab:
length from 2*cosh(l/2) = ab - 2 and twist from the cross ratio of the
axis endpoints against the reference cusps at 0 and infinity.  The raw
log-ratio log|alpha+/alpha-| is twice the Darboux-normalized twist (the
pairing |dl ^ dtau| = |da ^ db| / |ab - a - b| pins the scale), so the
twist returned here is half the log-ratio; only |dtau| enters the volume.

The volume of the involution fundamental domain {a, b, c > 2} at level
kappa reduces, via u = a - 2, v = b - 2, to the single integral

    integral_0^inf log((v^2 + K v + K) / v^2) / (v + 1) dv,   K = kappa + 2.

In u = log v it is the integral over the real line of L(u) v/(v + 1) with
L = log((v^2 + K v + K) / v^2): a plateau of height about log K between
u = log(K)/2 and u = log K, with shoulders of width O(1) and tails that
decay like |u| e^u below min(0, log(K)/2) and like K e^-u above
max(0, log K).  The integrand is analytic in the strip |Im u| < pi/2 (the
zeros of v^2 + K v + K lie at arg v in (pi/2, pi], the pole of v/(v + 1) at
arg v = pi), so the trapezoid rule with step h on the whole line has error
O(exp(-pi^2/h)) (Trefethen and Weideman, SIAM Review 56, 2014).  The rule
here takes h = 1/4, about 7e-18 relative, on
[min(0, log(K)/2) - 40, max(0, log K) + 40]; the tails cut off beyond
the padding of 40 are below 4e-16 relative.  The error estimate is the
difference from the rule on every second node, which is O(exp(-pi^2/2h)),
about 3e-9 relative, so it overstates the error of the value returned.
L is formed from r = exp(-|u - log(K)/2|) and sqrt(K), so no exponential
overflows or underflows: the rule is valid for every kappa in
(-2, sys.float_info.max], with about 320 nodes at moderate kappa, 393 at
the first float above -2 and 3,160 at the largest float.

Its closed form is (4 pi^2 - theta^2)/8 in the cone case
(2 cos(theta/2) = kappa) and (4 pi^2 + l^2)/8 for a geodesic boundary, one
quarter of the known volume polynomial of the four-holed sphere; at
kappa = 2 it is pi^2/2 and the moduli-space volume (the quotient by the
index-4 subgroup) is 2 pi^2.

dV/dK sums v/(v^2 + K v + K) = dL/dK v/(v + 1) on the same nodes: same strip,
and e^-d decay at distance d outside [min(0, log(K)/2), max(0, log K)].  By
dK/dtheta = -sin(theta/2) and dK/dl = sinh(l/2), dV/dtheta = -theta/4, dV/dl =
l/4, and V/sqrt(K) -> pi as theta -> 2 pi, Do and Norbury's dV/dL = 2 pi i V_{0,3}
at L = 2 pi i in the quarter scale; verify.check_derivative_relation tests them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .charvar import boundary_data, c_from_level, BoundaryKind, ParamTriple
from .config import DEFAULT_TOLERANCES
from .errors import (
    DegenerateAxis,
    NotHyperbolic,
    OnHyperbola,
    OutOfRange,
    QuadratureNotConverged,
)

PAIRS = ("ab", "bc", "ca")


@dataclass(frozen=True)
class SymplecticDensity:
    pair: str
    value: float


def wp_density(p: ParamTriple, pair: str = "ab") -> SymplecticDensity:
    """Density 1/(xy - x - y) of the symplectic form in the chosen pair."""
    a, b, c = p.as_tuple()
    coords = {"ab": (a, b), "bc": (b, c), "ca": (c, a)}
    if pair not in coords:
        raise ValueError(f"pair must be one of {PAIRS}, got {pair!r}")
    x, y = coords[pair]
    den = x * y - x - y
    if abs(den) <= DEFAULT_TOLERANCES.classification:
        raise OnHyperbola(f"pair {pair} of {p.as_tuple()} lies on xy - x - y = 0", pair=pair)
    return SymplecticDensity(pair, 1.0 / den)


def symplectic_consistency(p: ParamTriple, h: float = 1e-5) -> float:
    """Max relative discrepancy between the three coordinate expressions of the form.

    On the level set, c is implicitly a function of (a, b) and the equality
    of densities reads -(dc/da) / (bc - b - c) = 1 / (ab - a - b); the
    derivative is approximated by a central difference of the level solver.
    The cyclic version with a as a function of (b, c) is checked too.
    """
    a, b, c = p.as_tuple()
    kappa = p.kappa
    for x, y in ((a, b), (b, c), (c, a)):
        if abs(x * y - x - y) <= DEFAULT_TOLERANCES.classification:
            raise OnHyperbola(f"{p.as_tuple()} lies on a coordinate hyperbola")
    dc_da = (c_from_level(a + h, b, kappa) - c_from_level(a - h, b, kappa)) / (2.0 * h)
    lhs = -dc_da / (b * c - b - c)
    rhs = 1.0 / (a * b - a - b)
    disc = abs(lhs - rhs) / abs(rhs)
    # kappa is symmetric under cyclic relabeling, so the same solver gives a(b, c)
    da_db = (c_from_level(b + h, c, kappa) - c_from_level(b - h, c, kappa)) / (2.0 * h)
    lhs2 = -da_db / (c * a - c - a)
    rhs2 = 1.0 / (b * c - b - c)
    return max(disc, abs(lhs2 - rhs2) / abs(rhs2))


@dataclass(frozen=True)
class FNCoordinates:
    length: float
    twist: float
    Delta: float  # sqrt((ab - 2)^2 - 4) = 2*sinh(length/2)


# the axis formulas square ab - 2, which overflows past about 1.3e154
_MAX_PRODUCT = 1e150


def axis_endpoints(a: float, b: float,
                   tol: float = DEFAULT_TOLERANCES.classification) -> tuple:
    """Endpoints alpha+- = (2b - ab +- Delta) / (a + b - ab) of the twisting axis.

    These are twice the fixed points of the holonomy of the loop, a common
    overall factor that drops out of the twist ratio.
    """
    product = a * b
    if product <= 4.0:
        raise NotHyperbolic(f"ab = {product!r} <= 4")
    if not product < _MAX_PRODUCT:
        raise OutOfRange(f"ab = {product!r} is not below {_MAX_PRODUCT:g}, the range of "
                         "the axis formulas", reason="above_range", product=product)
    den = a + b - product
    if abs(den) <= tol:
        raise DegenerateAxis(f"(a, b) = {(a, b)} lies on ab - a - b = 0")
    delta = math.sqrt((product - 2.0) ** 2 - 4.0)
    alpha_plus = (2.0 * b - product + delta) / den
    alpha_minus = (2.0 * b - product - delta) / den
    if alpha_plus == alpha_minus or alpha_minus == 0.0:
        raise DegenerateAxis(f"axis endpoints coincide or degenerate at {(a, b)}")
    return alpha_plus, alpha_minus


def fenchel_nielsen(a: float, b: float,
                    tol: float = DEFAULT_TOLERANCES.classification) -> FNCoordinates:
    """Length and twist of the loop with trace 2 - ab, for ab > 4.

    The twist is half of log|alpha+/alpha-| over the axis endpoints; the
    half factor makes |dl ^ dtau| equal the symplectic density (see the
    module docstring), and only |dtau| enters the volume form.
    """
    alpha_plus, alpha_minus = axis_endpoints(a, b, tol)
    product = a * b
    length = 2.0 * math.acosh((product - 2.0) / 2.0)
    twist = 0.5 * math.log(abs(alpha_plus / alpha_minus))
    return FNCoordinates(length, twist, math.sqrt((product - 2.0) ** 2 - 4.0))


@dataclass(frozen=True)
class DarbouxCheck:
    abs_jacobian: float
    reference: float
    rel_err: float


def darboux_check(a: float, b: float, h: float = 1e-5) -> DarbouxCheck:
    """|det d(length, twist)/d(a, b)| by central differences vs 1/|ab - a - b|.

    The relative error is reported as measured; a coarse step gives a coarse
    answer, nothing is clamped.
    """
    def coords(x, y):
        fn = fenchel_nielsen(x, y)
        return fn.length, fn.twist

    la_p, ta_p = coords(a + h, b)
    la_m, ta_m = coords(a - h, b)
    lb_p, tb_p = coords(a, b + h)
    lb_m, tb_m = coords(a, b - h)
    dl_da = (la_p - la_m) / (2.0 * h)
    dt_da = (ta_p - ta_m) / (2.0 * h)
    dl_db = (lb_p - lb_m) / (2.0 * h)
    dt_db = (tb_p - tb_m) / (2.0 * h)
    jac = abs(dl_da * dt_db - dl_db * dt_da)
    reference = 1.0 / abs(a * b - a - b)
    return DarbouxCheck(jac, reference, abs(jac - reference) / reference)


# trapezoid step in u = log v and the padding beyond the two shoulders of the
# integrand; the module docstring gives the error argument for both
_STEP = 0.25
_PAD = 40.0
# an error estimate above 100 max(_TOL, _TOL |value|) fails the rule
_TOL = 1e-10
# 1 + e^-u rounds to 1 from u = 37 on, so capping u there leaves v/(v + 1)
# exact and keeps e^-u from underflowing
_WEIGHT_CAP = 40.0


@dataclass(frozen=True)
class VolumeResult:
    kappa: float
    value: float
    abs_error_estimate: float
    reference: float
    reference_source: str


# levels this close to 2 are a cusp: the reference pi^2/2, theta = 0 in the table
_CUSP_TOL = 1e-12


def _reference_for(kappa: float) -> tuple:
    if abs(kappa - 2.0) <= _CUSP_TOL:
        return math.pi ** 2 / 2.0, "pi^2/2"
    if kappa > 2.0:
        length = 2.0 * math.acosh(kappa / 2.0)
        ref = (4.0 * math.pi ** 2 + length ** 2) / 8.0
        return ref, "(4*pi^2 + l^2)/8, quarter of the four-holed-sphere volume polynomial"
    # 2*pi - theta = 4*phi, so (4 pi^2 - theta^2)/8 = 2 phi (pi - phi) without
    # the cancellation of 2*pi - theta as kappa -> -2
    phi = math.asin(math.sqrt(kappa + 2.0) / 2.0)
    ref = 2.0 * phi * (math.pi - phi)
    return ref, "(4*pi^2 - theta^2)/8, quarter of the four-holed-sphere volume polynomial"


def _log_v_integrand(u, level: float):
    """L(u) v/(v + 1) at v = e^u, with L = log((v^2 + K v + K) / v^2) and K = level.

    With t = u - log(K)/2, r = e^-|t| and s = sqrt(K), L = 2 max(-t, 0) +
    log1p(r (s + r)): below the centre that is log(K/v^2) + log1p(v + v^2/K),
    above it log1p(K/v + K/v^2), and every exponent is at most 0.
    """
    import numpy as np

    t = u - 0.5 * math.log(level)
    r = np.exp(-np.abs(t))
    log_ratio = 2.0 * np.maximum(-t, 0.0) + np.log1p(r * (math.sqrt(level) + r))
    return log_ratio / (1.0 + np.exp(-np.minimum(u, _WEIGHT_CAP)))


def _slope_integrand(u, level: float):
    """v/(v^2 + K v + K) = r / (s (1 + r^2 + s r)), with the t, r, s of _log_v_integrand."""
    import numpy as np

    s = math.sqrt(level)
    r = np.exp(-np.abs(u - 0.5 * math.log(level)))
    return r / (s * (1.0 + r * (r + s)))


def _trapezoid(integrand, level: float) -> tuple:
    """Sum of integrand(u, level) at K = level, and the gap to the sum on every second node."""
    # numpy loads with the first quadrature, so requests that never integrate skip it
    import numpy as np

    log_level = math.log(level)
    nodes = np.arange(min(0.0, 0.5 * log_level) - _PAD, max(0.0, log_level) + _PAD, _STEP)
    values = integrand(nodes, level)
    value = _STEP * float(values.sum())
    return value, abs(value - 2.0 * _STEP * float(values[::2].sum()))


def domain_volume(kappa: float) -> VolumeResult:
    """Symplectic volume of the fundamental domain {a, b, c > 2} at level kappa.

    In u = a - 2, v = b - 2 the region is u, v > 0, uv < kappa + 2 and the
    inner integral closes, leaving the logarithmic integrand of the module
    docstring, summed by the trapezoid rule in log v.  Valid for kappa in
    (-2, sys.float_info.max]; a non-finite sum, or an error estimate above
    100 max(1e-10, 1e-10 |value|), raises QuadratureNotConverged.
    """
    if kappa <= -2.0:
        raise OutOfRange(f"kappa = {kappa!r} <= -2", reason="below_range", kappa=kappa)
    if not math.isfinite(kappa):
        raise OutOfRange(f"kappa = {kappa!r} is not finite", reason="not_finite", kappa=kappa)
    value, error = _trapezoid(_log_v_integrand, kappa + 2.0)
    if not (math.isfinite(value) and error <= max(_TOL, _TOL * abs(value)) * 100.0):
        raise QuadratureNotConverged(
            f"value {value!r} with error estimate {error!r} misses the tolerance",
            kappa=kappa, estimate=error,
        )
    reference, source = _reference_for(kappa)
    return VolumeResult(kappa, value, error, reference, source)


def moduli_from_domain(base: VolumeResult) -> VolumeResult:
    """Volume of the moduli space from the domain volume: four domains (index-4 subgroup)."""
    if abs(base.kappa - 2.0) <= _CUSP_TOL:
        reference, source = 2.0 * math.pi ** 2, "2*pi^2"
    else:
        reference, source = 4.0 * base.reference, base.reference_source.replace("quarter of", "full")
    return VolumeResult(base.kappa, 4.0 * base.value, 4.0 * base.abs_error_estimate,
                        reference, source)


def moduli_volume(kappa: float) -> VolumeResult:
    """Volume of the moduli space: four fundamental domains (index-4 subgroup)."""
    return moduli_from_domain(domain_volume(kappa))


def volume_table(kappas) -> list:
    """Rows (kappa, boundary measure, value, reference, abs error) for export.

    The boundary measure is theta for the cone range and the cusp, l_delta
    above them, on the same branch as the reference.
    """
    rows = []
    for kappa in kappas:
        result = domain_volume(kappa)
        data = boundary_data(kappa, _CUSP_TOL)
        measure = data.angle if data.kind is not BoundaryKind.GEODESIC_BOUNDARY else data.length
        kind = "theta" if data.kind is not BoundaryKind.GEODESIC_BOUNDARY else "l_delta"
        rows.append({
            "kappa": kappa,
            "boundary_kind": kind,
            "boundary_measure": measure,
            "value": result.value,
            "reference": result.reference,
            "abs_error": abs(result.value - result.reference),
            "error_estimate": result.abs_error_estimate,
            "reference_source": result.reference_source,
        })
    return rows
