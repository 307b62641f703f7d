"""Property suites: every acceptance criterion as a deterministic check.

Each check draws its samples from a seeded generator, so a fixed seed gives
byte-identical reports.  The CLI ``verify`` subcommand and the acceptance
test module both run these functions; a check never hides a failure, it
reports the worst observed violation.

Relative comparisons are scaled by the magnitude of the quantities entering
the computation (for kappa invariance along an involution orbit, the
largest energy E = abc seen on the path), which is the precision the
arithmetic actually supports.
"""

from __future__ import annotations

import math
import random
import sys
from dataclasses import dataclass

from . import charvar, growth, mcg, volume
from .charvar import GeometricPoint, ParamTriple, kappa_of
from .mcg import Involution
from .mobius import apply_mobius, fixed_points


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def sample_geometric(rng: random.Random, kappa_low: float = -1.99,
                     kappa_high: float = 4.0) -> GeometricPoint:
    """Random point of the geometric component over the a, b > 1 branch."""
    am1 = 10.0 ** rng.uniform(-0.7, 0.7)
    a = 1.0 + am1
    b = 1.0 + 1.0 / am1 + 10.0 ** rng.uniform(-1.0, 0.7)
    kappa = rng.uniform(kappa_low, kappa_high)
    c = charvar.c_from_level(a, b, kappa)
    return GeometricPoint.from_coords(a, b, c)


def sample_domain_point(rng: random.Random, low: float = 2.05,
                        high: float = 7.0) -> GeometricPoint:
    """Random point of the open fundamental domain (all coordinates > 2)."""
    return GeometricPoint.from_coords(
        rng.uniform(low, high), rng.uniform(low, high), rng.uniform(low, high)
    )


def _sample_domain_cone(rng: random.Random) -> GeometricPoint:
    """Fundamental-domain point with kappa in (-2, 2)."""
    while True:
        point = sample_domain_point(rng, 2.01, 4.0)
        if -2.0 < point.kappa < 2.0:
            return point


def check_kappa_anchors(rng: random.Random) -> CheckResult:
    """kappa(3,3,3) = 2 and kappa(2,2,2) = -2 exactly; tr CBA matches the polynomial."""
    if kappa_of(3.0, 3.0, 3.0) != 2.0 or kappa_of(2.0, 2.0, 2.0) != -2.0:
        return CheckResult("kappa_anchors", False, "anchor values wrong")
    worst = 0.0
    for _ in range(10_000):
        a = rng.uniform(-4.0, 4.0)
        b = rng.uniform(-4.0, 4.0)
        c = rng.uniform(-4.0, 4.0)
        trace = charvar.matrices_from_triple(ParamTriple(a, b, c)).CBA.trace
        level = kappa_of(a, b, c)
        worst = max(worst, abs(trace - level) / max(1.0, abs(level)))
    return CheckResult("kappa_anchors", worst <= 1e-12,
                       f"worst |tr CBA - kappa| relative = {worst:.3e} (tol 1e-12)")


def check_involution_corollary(rng: random.Random) -> CheckResult:
    """phi_alpha, phi_beta induce the closed forms I_a, I_b; the displayed rational agrees."""
    worst = 0.0
    for _ in range(1000):
        p = sample_geometric(rng).triple
        for automorphism, inv in ((mcg.PHI_ALPHA, Involution.IA), (mcg.PHI_BETA, Involution.IB)):
            image = mcg.induced_map(automorphism, p)
            closed = mcg.apply_involution(inv, p)
            worst = max(
                worst,
                max(abs(u - v) / max(1.0, abs(v))
                    for u, v in zip(image.as_tuple(), closed.as_tuple())),
            )
    worst_rat = 0.0
    for _ in range(100):
        p = sample_geometric(rng).triple
        a, b, c = p.as_tuple()
        mats = charvar.matrices_from_triple(p)
        gamma_image = mcg.PHI_BETA.image_gamma.matrix(mats)
        direct = apply_mobius(gamma_image, 0.0)
        rational = (-b * b * c + 2 * b * c - c) / (
            a * b * b * c - 2 * a * b * c + a * c - b * b * c + b * c - 1
        )
        worst_rat = max(worst_rat, abs(direct - rational) / max(1.0, abs(rational)))
    ok = worst <= 1e-9 and worst_rat <= 1e-9
    return CheckResult("involution_corollary", ok,
                       f"phi_alpha and phi_beta closed-form gap {worst:.3e}, "
                       f"rational gap {worst_rat:.3e} (tol 1e-9)")


def check_group_action(rng: random.Random) -> CheckResult:
    """kappa invariance for all reduced words up to length 8, I^2 = id, domain disjointness."""
    worst_kappa = 0.0
    for _ in range(3):
        root = sample_geometric(rng, -1.9, 3.0).triple
        kappa0 = root.kappa
        stack = [(root, None, 0, max(1.0, mcg.energy(root)))]
        while stack:
            triple, last, length, scale = stack.pop()
            if length >= 8:
                continue
            for inv in Involution:
                if inv is last:
                    continue
                image = mcg.apply_involution(inv, triple)
                new_scale = max(scale, abs(mcg.energy(image)))
                worst_kappa = max(worst_kappa, abs(image.kappa - kappa0) / new_scale)
                stack.append((image, inv, length + 1, new_scale))
    worst_sq = 0.0
    for _ in range(200):
        p = sample_geometric(rng).triple
        for inv in Involution:
            back = mcg.apply_involution(inv, mcg.apply_involution(inv, p))
            worst_sq = max(
                worst_sq,
                max(abs(u - v) / max(1.0, abs(v))
                    for u, v in zip(back.as_tuple(), p.as_tuple())),
            )
    disjoint = True
    for _ in range(1000):
        p = sample_domain_point(rng)
        for inv in Involution:
            image = mcg.apply_involution(inv, p.triple)
            if mcg.in_fundamental_domain(image):
                disjoint = False
            # image-vs-image disjointness: I_y(I_x(Delta)) misses Delta
            for other in Involution:
                if other is inv:
                    continue
                if mcg.in_fundamental_domain(mcg.apply_involution(other, image)):
                    disjoint = False
    ok = worst_kappa <= 1e-12 and worst_sq <= 1e-12 and disjoint
    return CheckResult(
        "group_action", ok,
        f"kappa drift {worst_kappa:.3e}, involution-squared gap {worst_sq:.3e} "
        f"(tol 1e-12), domain and involution images pairwise disjoint: {disjoint}",
    )


def check_inequalities(rng: random.Random) -> CheckResult:
    """Products > 4, both collar certificates, equality on the b = 2 slice."""
    holds = True
    for _ in range(10_000):
        point = sample_geometric(rng)
        report = charvar.inequality_report(point)
        if not report.all_pass:
            holds = False
    eq_worst = 0.0
    root3 = 1.0 + math.sqrt(3.0)
    for a, c in ((root3, root3), (2.5, 3.0), (3.5, 2.2)):
        point = GeometricPoint.from_coords(a, 2.0, c)
        report = charvar.inequality_report(point)
        eq_worst = max(eq_worst, abs(report.collar_lhs - report.collar_rhs))
        if -2.0 < point.kappa < 2.0:
            eq_worst = max(eq_worst, abs(report.conecollar_lhs - report.conecollar_rhs))
    ok = holds and eq_worst <= 1e-12
    return CheckResult("inequalities", ok,
                       f"all certificates pass: {holds}, b=2 equality gap {eq_worst:.3e} (tol 1e-12)")


def check_volume_anchor() -> CheckResult:
    """domain volume pi^2/2 and moduli volume 2*pi^2 at kappa = 2, within 1e-12 relative."""
    base = volume.domain_volume(2.0)
    quotient = volume.moduli_from_domain(base)
    gap_base = abs(base.value - math.pi ** 2 / 2.0) / (math.pi ** 2 / 2.0)
    gap_mod = abs(quotient.value - 2.0 * math.pi ** 2) / (2.0 * math.pi ** 2)
    ok = gap_base < 1e-12 and gap_mod < 1e-12
    return CheckResult("volume_anchor", ok,
                       f"|domain - pi^2/2| / (pi^2/2) = {gap_base:.3e}, "
                       f"|moduli - 2pi^2| / (2pi^2) = {gap_mod:.3e} (tol 1e-12)")


def check_volume_family() -> CheckResult:
    """Quadrature against the polynomial reference across cone and boundary levels."""
    gaps = []
    # six cone and boundary levels, then both ends of the valid range
    # (-2, max float] and one level near each end
    for kappa in (-1.5, -1.0, 0.0, 1.0, 2.5, 3.0,
                  math.nextafter(-2.0, 0.0), -2.0 + 1e-12, 1e300, sys.float_info.max):
        result = volume.domain_volume(kappa)
        gaps.append(abs(result.value - result.reference) / result.reference)
    ok = all(gap < 1e-12 for gap in gaps)
    return CheckResult("volume_family", ok,
                       f"worst |value - reference| / reference = {max(gaps):.3e} "
                       f"over {len(gaps)} levels (tol 1e-12)")


def _sample_off_hyperbolae(rng: random.Random, margin: float = 0.5) -> ParamTriple:
    # the finite-difference oracle needs the density denominators bounded away
    # from their poles, so the step h stays well inside the chart
    while True:
        p = sample_geometric(rng).triple
        a, b, c = p.as_tuple()
        dens = (a * b - a - b, b * c - b - c, c * a - c - a)
        if min(abs(d) for d in dens) >= margin:
            return p


def check_symplectic_structure(rng: random.Random) -> CheckResult:
    """Cyclic density equality by finite differences with O(h^2) refinement; Darboux pairing."""
    worst = 0.0
    for _ in range(100):
        p = _sample_off_hyperbolae(rng)
        worst = max(worst, volume.symplectic_consistency(p, 1e-5))
    probe = ParamTriple(3.2, 4.1, 2.7)
    discs = [volume.symplectic_consistency(probe, h) for h in (1e-2, 5e-3, 2.5e-3)]
    ratios = (discs[0] / discs[1], discs[1] / discs[2])
    refine_ok = all(3.0 < ratio < 5.0 for ratio in ratios)
    worst_darboux = 0.0
    count = 0
    while count < 100:
        point = sample_geometric(rng)
        a, b = point.a, point.b
        if a * b <= 4.2:
            continue
        count += 1
        worst_darboux = max(worst_darboux, volume.darboux_check(a, b, 1e-5).rel_err)
    ok = worst < 1e-6 and refine_ok and worst_darboux < 1e-5
    return CheckResult(
        "symplectic_structure", ok,
        f"consistency {worst:.3e} (tol 1e-6), refinement ratios "
        f"({ratios[0]:.2f}, {ratios[1]:.2f}) in (3, 5): {refine_ok}, "
        f"Darboux rel err {worst_darboux:.3e} (tol 1e-5)",
    )


def check_fibonacci_growth(rng: random.Random) -> CheckResult:
    """Depth-15 trees: exact transfer, defect bound log 4, normalized lower bound.

    The transfer gap is reduced over the level arrays; a vertex holding a
    non-finite f-value or defect fails the check.
    """
    import numpy as np

    roots = [GeometricPoint.from_coords(3.0, 3.0, 3.0)]
    roots.extend(sample_domain_point(rng) for _ in range(10))
    worst_transfer = 0.0
    all_bowditch = True
    all_lower = True
    checked = 0
    nonfinite = 0
    for root in roots:
        tree = growth.expand_tree(root, ("ab", "bc"), 15)
        for level in tree.levels[1:]:
            fvals = level.fvals()
            rows = np.arange(len(fvals))
            slot = level.new_slot
            f_new = fvals[rows, slot]
            gap = np.abs(fvals[rows, (slot + 1) % 3] + fvals[rows, (slot + 2) % 3]
                         - level.defect - f_new) / np.maximum(1.0, np.abs(f_new))
            finite = np.isfinite(fvals).all(axis=1) & np.isfinite(level.defect)
            checked += int(finite.sum())
            nonfinite += len(finite) - int(finite.sum())
            worst_transfer = max(worst_transfer, float(gap[finite].max(initial=0.0)))
        report = growth.bowditch_check(tree, "normalized_Fe")
        all_bowditch = all_bowditch and report.bowditch_ok
        all_lower = all_lower and report.lower_bound_ok
    ok = (worst_transfer <= 1e-12 and nonfinite == 0 and checked > 0
          and all_bowditch and all_lower)
    return CheckResult(
        "fibonacci_growth", ok,
        f"transfer identity gap {worst_transfer:.3e} (tol 1e-12) over {checked} finite "
        f"vertices, {nonfinite} non-finite, defect bound: {all_bowditch}, "
        f"normalized lower bound: {all_lower}",
    )


def _random_orbit_push(rng: random.Random, point: GeometricPoint) -> GeometricPoint:
    # walk a random reduced word away from the domain to make reduction work;
    # orbit coordinates grow doubly exponentially, so cap the energy to keep
    # kappa meaningful in double precision
    triple = point.triple
    last = None
    for _ in range(rng.randrange(1, 9)):
        choices = [inv for inv in Involution if inv is not last]
        inv = rng.choice(choices)
        pushed = mcg.apply_involution(inv, triple)
        if mcg.energy(pushed) > 1e7:
            break
        triple, last = pushed, inv
    return GeometricPoint(triple)


def check_reduction(rng: random.Random) -> CheckResult:
    """Reduction terminates under 200 steps with decreasing energy; the recorded
    word, replayed in exact rationals from the start point, reaches the endpoint."""
    from fractions import Fraction  # here, not at the top: every CLI request imports this module

    worst_steps = 0
    worst_replay = 0.0
    monotone = True
    endpoint_ok = True
    for index in range(1000):
        point = sample_geometric(rng)
        if index % 2:
            point = _random_orbit_push(rng, point)
        trace = mcg.reduce_to_domain(point, max_steps=200)
        worst_steps = max(worst_steps, len(trace.word))
        for early, late in zip(trace.energies, trace.energies[1:]):
            if not late < early:
                monotone = False
        if min(trace.end.as_tuple()) < 2.0:
            endpoint_ok = False
        replay = mcg.apply_word(trace.word, ParamTriple(*map(Fraction, trace.start.as_tuple())))
        worst_replay = max(
            worst_replay,
            max(abs(float(u) - v) / max(1.0, abs(v))
                for u, v in zip(replay.as_tuple(), trace.end.as_tuple())),
        )
    ok = monotone and endpoint_ok and worst_replay <= 1e-9
    return CheckResult(
        "reduction", ok,
        f"max word length {worst_steps} (< 200), energies decreasing: {monotone}, "
        f"endpoint in closure: {endpoint_ok}, exact replay gap {worst_replay:.3e} (tol 1e-9)",
    )


def check_hyperbolization(rng: random.Random) -> CheckResult:
    """Cone-case certificate on 20 fundamental-domain triples."""
    worst_residual = 0.0
    worst_angle = 0.0
    sign_ok = True
    convex_ok = True
    pairings_ok = True
    for _ in range(20):
        point = _sample_domain_cone(rng)
        fixed = charvar.cba_fixed_point(point.triple)
        z = fixed.point.points[0]
        worst_residual = max(worst_residual, abs(apply_mobius(fixed.matrix, z) - z))
        if fixed.real_part_negative is not None and not fixed.real_part_negative:
            sign_ok = False
        certificate = charvar.polygon_certificate(point)
        convex_ok = convex_ok and certificate.convex
        pairings_ok = pairings_ok and certificate.side_pairings_ok
        theta = charvar.boundary_data(point.kappa).angle
        worst_angle = max(worst_angle, abs(certificate.angle_sum - theta) / theta)
    ok = (worst_residual < 1e-10 and sign_ok and convex_ok and pairings_ok
          and worst_angle < 1e-10)
    return CheckResult(
        "hyperbolization", ok,
        f"fixed-point residual {worst_residual:.3e} (tol 1e-10), sign lemma: {sign_ok}, "
        f"convex: {convex_ok}, pairings: {pairings_ok}, "
        f"angle-sum gap {worst_angle:.3e} relative (tol 1e-10, derived property)",
    )


def check_derivative_relation() -> CheckResult:
    """Constant ratio pi*i of the volume-polynomial derivative at 2*pi*i."""
    result = volume.derivative_relation_check([0.0, 0.5, 1.0, 2.0, 5.0])
    expected = complex(0.0, math.pi)
    gap = abs(result.constant_value - expected)
    ok = result.constant and gap <= 1e-12
    return CheckResult(
        "derivative_relation", ok,
        f"constant: {result.constant}, value {result.constant_value:.12g} vs pi*i "
        f"(gap {gap:.3e}); half of the sometimes-quoted 2*pi*i/4, a documented discrepancy",
    )


def check_mobius_properties(rng: random.Random) -> CheckResult:
    """Trace commutativity, fixed-point residuals, classify of inverses, elliptic sign."""
    def random_matrix():
        m = charvar.matrices_from_triple(
            ParamTriple(rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-2, 2))
        )
        return m.A @ m.B @ m.C.inverse() if rng.random() < 0.5 else m.CBA

    from .mobius import classify, elliptic_real_part_sign, fixed_point_residual

    worst_comm = 0.0
    worst_res = 0.0
    inverse_ok = True
    sign_ok = True
    elliptic_seen = 0
    for _ in range(1000):
        m, n = random_matrix(), random_matrix()
        worst_comm = max(worst_comm, abs((m @ n).trace - (n @ m).trace)
                         / max(1.0, abs((m @ n).trace)))
        fp = fixed_points(m)
        for point in fp.points:
            worst_res = max(worst_res, fixed_point_residual(m, point))
        try:
            left, right = classify(m), classify(m.inverse())
        except Exception:
            continue
        if left.tag is not right.tag or abs(left.magnitude - right.magnitude) > 1e-9:
            inverse_ok = False
        if abs(m.trace) < 2 and m.m21 != 0:
            elliptic_seen += 1
            sign = elliptic_real_part_sign(m)
            direct = fixed_points(m).points[0].real
            if sign != 0 and (direct > 0) != (sign > 0):
                sign_ok = False
    ok = worst_comm <= 1e-12 and worst_res <= 1e-10 and inverse_ok and sign_ok
    return CheckResult(
        "mobius_properties", ok,
        f"trace commutativity {worst_comm:.3e} (tol 1e-12), residual {worst_res:.3e} "
        f"(tol 1e-10), inverse classification: {inverse_ok}, "
        f"elliptic sign agreement on {elliptic_seen} matrices: {sign_ok}",
    )


def check_charvar_identities(rng: random.Random) -> CheckResult:
    """Trace formulas, level-solver round trip, the exact product-bound identity."""
    worst_trace = 0.0
    for _ in range(10_000):
        a, b, c = (rng.uniform(-4, 4) for _ in range(3))
        mats = charvar.matrices_from_triple(ParamTriple(a, b, c))
        pairs = (
            (mats.BA.trace, 2.0 - a * b),
            ((mats.A @ mats.C).trace, 2.0 - a * c),
            ((mats.B @ mats.C).trace, 2.0 - b * c),
        )
        for got, want in pairs:
            worst_trace = max(worst_trace, abs(got - want) / max(1.0, abs(want)))
    worst_round = 0.0
    for _ in range(1000):
        point = sample_geometric(rng)
        c = charvar.c_from_level(point.a, point.b, point.kappa)
        worst_round = max(
            worst_round,
            abs(kappa_of(point.a, point.b, c) - point.kappa) / max(1.0, abs(point.kappa)),
        )
    worst_identity = 0.0
    for _ in range(100):
        a = 1.0 + 10.0 ** rng.uniform(-3, 3)
        b = a / (a - 1.0)
        worst_identity = max(
            worst_identity,
            abs((a * b - 4.0) - (a - 2.0) ** 2 / (a - 1.0)),
        )
    ok = worst_trace <= 1e-12 and worst_round <= 1e-10 and worst_identity <= 1e-9
    return CheckResult(
        "charvar_identities", ok,
        f"trace formulas {worst_trace:.3e} (tol 1e-12), level round trip "
        f"{worst_round:.3e} (tol 1e-10), product identity {worst_identity:.3e}",
    )


def check_census_pruning(rng: random.Random) -> CheckResult:
    """Census agrees with an exhaustive depth-12 enumeration below the bound."""
    root = GeometricPoint.from_coords(3.0, 3.0, 3.0)
    bound = math.log(2500.0)
    rows = growth.length_census(root, bound)
    exhaustive = []
    stack = [(root.triple, None, 0)]
    while stack:
        triple, excluded, level = stack.pop()
        if level == 0:
            a, b, c = triple.as_tuple()
            exhaustive.extend([a * b, b * c, c * a])
        if level >= 12:
            continue
        for inv in Involution:
            if inv is excluded:
                continue
            child = mcg.apply_involution(inv, triple)
            a, b, c = child.as_tuple()
            new_value = {"Ia": b * c, "Ib": c * a, "Ic": a * b}[inv.value]
            exhaustive.append(new_value)
            stack.append((child, inv, level + 1))
    expected = sorted(math.log(v) for v in exhaustive if math.log(v) <= bound)
    got = []
    for row in rows:
        got.extend([row.value] * row.multiplicity)
    same_count = len(got) == len(expected)
    worst = max((abs(u - v) for u, v in zip(got, expected)), default=0.0) if same_count else math.inf
    ok = same_count and worst <= 1e-9
    return CheckResult(
        "census_pruning", ok,
        f"{len(got)} census values vs {len(expected)} exhaustive, worst gap {worst:.3e}",
    )


def check_locus_disjointness() -> CheckResult:
    """Fixed-locus hyperbolae disjoint for kappa > -2; concurrent lines at -2."""
    reports = [mcg.fixed_locus_report(kappa) for kappa in (0.0, 2.0, 5.0)]
    disjoint = all(report.pairwise_disjoint for report in reports)
    singular = mcg.fixed_locus_report(-2.0)
    concurrent = (singular.kind == "concurrent_lines"
                  and singular.concurrency_point == (2.0, 2.0, 2.0))
    level_ok = True
    for report in reports:
        for curve in report.curves:
            for triple in curve.samples:
                if abs(kappa_of(*triple) - report.kappa) > 1e-9 * max(1.0, abs(report.kappa)):
                    level_ok = False
    ok = disjoint and concurrent and level_ok
    return CheckResult(
        "locus_disjointness", ok,
        f"hyperbolae disjoint: {disjoint}, concurrency at (2,2,2): {concurrent}, "
        f"samples on level: {level_ok}",
    )


ACCEPTANCE_CRITERIA = (
    ("kappa_anchors", check_kappa_anchors, True),
    ("involution_corollary", check_involution_corollary, True),
    ("group_action", check_group_action, True),
    ("inequalities", check_inequalities, True),
    ("volume_anchor", check_volume_anchor, False),
    ("volume_family", check_volume_family, False),
    ("symplectic_structure", check_symplectic_structure, True),
    ("fibonacci_growth", check_fibonacci_growth, True),
    ("reduction", check_reduction, True),
    ("hyperbolization", check_hyperbolization, True),
    ("derivative_relation", check_derivative_relation, False),
)

MODULE_SUITES = (
    ("mobius_properties", check_mobius_properties, True),
    ("charvar_identities", check_charvar_identities, True),
    ("census_pruning", check_census_pruning, True),
    ("locus_disjointness", check_locus_disjointness, False),
)

ALL_CHECKS = ACCEPTANCE_CRITERIA + MODULE_SUITES


def run_suite(names=None, seed: int = 0) -> list:
    """Run the named checks (default: all) with per-check seeded generators."""
    table = {name: (func, needs_rng) for name, func, needs_rng in ALL_CHECKS}
    if names is None or names == ["all"]:
        selected = [name for name, _, _ in ALL_CHECKS]
    else:
        unknown = [name for name in names if name not in table]
        if unknown:
            raise ValueError(f"unknown checks: {unknown}; known: {sorted(table)}")
        selected = list(names)
    results = []
    for name in selected:
        func, needs_rng = table[name]
        if needs_rng:
            results.append(func(random.Random(f"{seed}:{name}")))
        else:
            results.append(func())
    return results
