import math
from fractions import Fraction

import pytest

from conesphere.charvar import GeometricPoint, ParamTriple, kappa_of
from conesphere.errors import (
    MaxStepsExceeded,
    OutOfRange,
    PivotAtOne,
    UnsupportedAutomorphism,
    WordNotReduced,
)
from conesphere.mcg import (
    Automorphism,
    FreeWord,
    Involution,
    InvolutionWord,
    NAMED_AUTOMORPHISMS,
    PHI_ALPHA,
    PHI_BETA,
    PHI_GAMMA,
    apply_involution,
    apply_word,
    energy,
    fixed_locus_report,
    in_fundamental_domain,
    induced_map,
    reduce_to_domain,
)
from conesphere.mobius import apply_mobius
from conesphere.charvar import matrices_from_triple


def triples_close(p, q, tol=1e-12):
    return all(abs(u - v) <= tol * max(1.0, abs(v))
               for u, v in zip(p.as_tuple(), q.as_tuple()))


# --- involutions -------------------------------------------------------------

def test_ib_example():
    image = apply_involution(Involution.IB, ParamTriple(3, 3, 3))
    assert image.as_tuple() == (6.0, 1.5, 6.0)


def test_involution_is_involutive():
    p = ParamTriple(6, 1.5, 6)
    assert apply_involution(Involution.IB, p).as_tuple() == (3.0, 3.0, 3.0)


def test_ib_fixes_the_plane_b_equals_2():
    for a, c in ((3.0, 5.0), (2.5, 2.5), (10.0, 2.2)):
        p = ParamTriple(a, 2.0, c)
        assert apply_involution(Involution.IB, p).as_tuple() == p.as_tuple()


def test_involution_preserves_kappa(geometric_points):
    for point in geometric_points(300):
        for inv in Involution:
            image = apply_involution(inv, point.triple)
            scale = max(1.0, energy(point.triple), energy(image))
            assert abs(image.kappa - point.kappa) <= 1e-12 * scale


def test_pivot_at_one():
    with pytest.raises(PivotAtOne):
        apply_involution(Involution.IB, ParamTriple(3.0, 1.0 + 1e-12, 3.0))


# --- words ---------------------------------------------------------------------

def test_word_must_be_reduced():
    with pytest.raises(WordNotReduced):
        InvolutionWord((Involution.IB, Involution.IB))


def test_empty_word_is_identity():
    p = ParamTriple(3.7, 2.2, 8.0)
    assert apply_word(InvolutionWord(()), p).as_tuple() == p.as_tuple()


def test_word_applies_rightmost_first():
    word = InvolutionWord((Involution.IA, Involution.IB))
    image = apply_word(word, ParamTriple(3, 3, 3))
    assert image.as_tuple() == pytest.approx((1.2, 7.5, 30.0))
    assert image.kappa == pytest.approx(2.0)


def test_exact_word_keeps_fractions_and_kappa():
    start = ParamTriple(Fraction(5, 2), Fraction(7, 3), Fraction(13, 4))
    word = InvolutionWord((Involution.IC, Involution.IA, Involution.IB, Involution.IC))
    image = apply_word(word, start)
    assert all(type(value) is Fraction for value in (*image.as_tuple(), image.kappa))
    assert image.kappa == start.kappa  # the involutions preserve kappa exactly
    assert apply_word(InvolutionWord(tuple(reversed(word.letters))), image) == start


def test_word_pivot_failure_reports_prefix():
    # Ib sends (3,3,3) to (6,1.5,6); a second Ia there is fine, but Ib again
    # is blocked at construction, so force a failure through a pivot at 1
    word = InvolutionWord((Involution.IB, Involution.IA))
    with pytest.raises(PivotAtOne) as info:
        apply_word(word, ParamTriple(1.0 + 5e-13, 3.0, 3.0))
    assert info.value.details["applied_prefix"] == []


def test_words_up_to_length_six_distinct_at_generic_point():
    # finite certificate consistent with the free product Z/2 * Z/2 * Z/2
    start = ParamTriple(3.1, 3.7, 2.9)
    seen = [start.as_tuple()]
    frontier = [(start, None)]
    for _ in range(6):
        next_frontier = []
        for triple, last in frontier:
            for inv in Involution:
                if inv is last:
                    continue
                image = apply_involution(inv, triple)
                seen.append(image.as_tuple())
                next_frontier.append((image, inv))
        frontier = next_frontier
    for i in range(len(seen)):
        for j in range(i + 1, len(seen)):
            assert max(abs(u - v) for u, v in zip(seen[i], seen[j])) > 1e-6


# --- fundamental domain ----------------------------------------------------------

def test_in_fundamental_domain():
    assert in_fundamental_domain(ParamTriple(3, 3, 3))
    assert not in_fundamental_domain(ParamTriple(6, 1.5, 6))
    assert not in_fundamental_domain(ParamTriple(2, 3, 3))


def test_domain_disjoint_from_involution_images(domain_points):
    for point in domain_points(300):
        for inv in Involution:
            assert not in_fundamental_domain(apply_involution(inv, point.triple))


def test_reduce_single_step():
    trace = reduce_to_domain(GeometricPoint.from_coords(6, 1.5, 6))
    assert trace.word.names() == ["Ib"]
    assert trace.end.as_tuple() == (3.0, 3.0, 3.0)
    assert trace.energies == (54.0, 27.0)


def test_reduce_already_in_domain():
    trace = reduce_to_domain(GeometricPoint.from_coords(3, 3, 3))
    assert trace.word.names() == []
    assert trace.end.as_tuple() == (3.0, 3.0, 3.0)


def test_reduce_two_steps_and_replay():
    trace = reduce_to_domain(GeometricPoint.from_coords(1.2, 7.5, 30.0))
    assert trace.word.names() == ["Ib", "Ia"]
    assert trace.end.as_tuple() == pytest.approx((3.0, 3.0, 3.0))
    assert all(late < early for early, late in zip(trace.energies, trace.energies[1:]))
    replay = apply_word(trace.word, trace.start)
    assert triples_close(replay, trace.end, 1e-9)


def test_reduce_on_samples(geometric_points):
    for point in geometric_points(200):
        trace = reduce_to_domain(point, max_steps=200)
        assert min(trace.end.as_tuple()) >= 2.0
        assert all(late < early for early, late in zip(trace.energies, trace.energies[1:]))


def _raw_point(a, b, c):
    # two pivots in (1, 2) never meet on the geometric component (their
    # product would be below 4), so the choice is pinned on a raw triple
    point = object.__new__(GeometricPoint)
    point.triple = ParamTriple(a, b, c)
    return point


@pytest.mark.parametrize("start, reached", [
    ((1.5, 1.25, 9.0), (0.375, 5.0, 2.25)),  # Ib: the smaller pivot
    ((1.25, 1.5, 9.0), (5.0, 0.375, 2.25)),  # Ia: the smaller pivot
    ((1.5, 1.5, 9.0), (3.0, 0.75, 4.5)),     # equal pivots: Ia before Ib
])
def test_reduce_takes_smallest_pivot(start, reached):
    with pytest.raises(MaxStepsExceeded) as info:
        reduce_to_domain(_raw_point(*start), max_steps=1)
    assert info.value.details["reached"] == reached


def test_reduce_max_steps_guard():
    with pytest.raises(MaxStepsExceeded):
        reduce_to_domain(GeometricPoint.from_coords(1.2, 7.5, 30.0), max_steps=1)


# --- free words and automorphisms ---------------------------------------------------

def test_free_word_reduction():
    assert FreeWord("aA").letters == ""
    assert FreeWord("abBA").letters == ""


def test_free_word_conjugate_split():
    prefix, core = FreeWord("ABCba").conjugator_and_core()
    assert prefix == "AB"
    assert core == "C"
    with pytest.raises(UnsupportedAutomorphism):
        FreeWord("ab").conjugator_and_core()


def test_automorphism_rejects_non_peripheral_images():
    with pytest.raises(UnsupportedAutomorphism):
        Automorphism(FreeWord("ab"), FreeWord("b"), FreeWord("c"))


def test_named_automorphisms_registry():
    assert set(NAMED_AUTOMORPHISMS) == {"identity", "phi_alpha", "phi_beta", "phi_gamma"}


# --- induced maps ---------------------------------------------------------------------

def test_identity_automorphism_is_identity_map(geometric_points):
    for point in geometric_points(20):
        image = induced_map(NAMED_AUTOMORPHISMS["identity"], point.triple)
        assert triples_close(image, point.triple, 1e-10)


def test_phi_beta_example():
    image = induced_map(PHI_BETA, ParamTriple(3, 3, 3))
    assert image.as_tuple() == pytest.approx((6.0, 1.5, 6.0), rel=1e-12)


def test_phi_beta_equals_ib(geometric_points):
    for point in geometric_points(200):
        image = induced_map(PHI_BETA, point.triple)
        closed = apply_involution(Involution.IB, point.triple)
        assert triples_close(image, closed, 1e-9)


def test_phi_alpha_equals_ia(geometric_points):
    for point in geometric_points(200):
        image = induced_map(PHI_ALPHA, point.triple)
        closed = apply_involution(Involution.IA, point.triple)
        assert triples_close(image, closed, 1e-9)


def test_phi_gamma_equals_ic(rng):
    # phi_gamma's image fixed points collide as c grows, so sample with c bounded
    for _ in range(200):
        a = rng.uniform(1.5, 4.0)
        b = a / (a - 1.0) + rng.uniform(0.3, 3.0)
        c = rng.uniform(1.5, 6.0)
        p = ParamTriple(a, b, c)
        image = induced_map(PHI_GAMMA, p)
        closed = apply_involution(Involution.IC, p)
        assert triples_close(image, closed, 1e-9)


def test_induced_map_coincident_fixed_points():
    # b near 1 drives f(gamma)+ onto f(alpha)+ = 0
    from conesphere.errors import CoincidentFixedPoints
    with pytest.raises(CoincidentFixedPoints):
        induced_map(PHI_BETA, ParamTriple(3.0, 1.0 + 1e-12, 3.0))


def test_gamma_image_rational_expression(geometric_points):
    # the displayed rational function for f(gamma)(0) under phi_beta
    for point in geometric_points(100):
        a, b, c = point.as_tuple()
        mats = matrices_from_triple(point.triple)
        direct = apply_mobius(PHI_BETA.image_gamma.matrix(mats), 0.0)
        rational = (-b * b * c + 2 * b * c - c) / (
            a * b * b * c - 2 * a * b * c + a * c - b * b * c + b * c - 1
        )
        assert abs(direct - rational) <= 1e-9 * max(1.0, abs(rational))


# --- fixed loci --------------------------------------------------------------------------

def test_fixed_locus_hyperbola_equation():
    report = fixed_locus_report(2.0)
    assert report.kind == "hyperbolae"
    curve = next(c for c in report.curves if c.plane_axis == "c")
    for a, b, c in curve.samples:
        assert c == 2.0
        assert (a - 2.0) * (b - 2.0) == pytest.approx(4.0, rel=1e-9)
        assert kappa_of(a, b, c) == pytest.approx(2.0, rel=1e-9)
    assert report.pairwise_disjoint


def test_fixed_locus_concurrent_lines():
    report = fixed_locus_report(-2.0)
    assert report.kind == "concurrent_lines"
    assert report.concurrency_point == (2.0, 2.0, 2.0)
    for curve in report.curves:
        for triple in curve.samples:
            assert kappa_of(*triple) == pytest.approx(-2.0)


def test_fixed_locus_out_of_range():
    with pytest.raises(OutOfRange):
        fixed_locus_report(-2.5)
