import math

import pytest

from conesphere.charvar import GeometricPoint, simple_length
from conesphere.growth import (
    LOG4,
    SLOTS,
    bowditch_check,
    expand_tree,
    iter_nodes,
    length_census,
)

REGULAR = GeometricPoint.from_coords(3.0, 3.0, 3.0)


def test_tree_slots_and_first_generation():
    # blocking I_c leaves the I_a and I_b children; I_b replaces ca
    tree = expand_tree(REGULAR, ("bc", "ca"), 1)
    assert tree.values == (9.0, 9.0, 9.0)
    by_slot = {child.new_slot: child for child in tree.children}
    assert set(by_slot) == {"bc", "ca"}
    assert by_slot["ca"].values == (9.0, 9.0, 36.0)
    assert by_slot["bc"].values == (9.0, 36.0, 9.0)


def test_depth_zero_tree():
    tree = expand_tree(REGULAR, ("ab", "bc"), 0)
    assert tree.children == []
    report = bowditch_check(tree)
    assert report.nodes_checked == 0
    assert report.bowditch_ok and report.lower_bound_ok


def test_exact_transfer_identity_at_first_step():
    tree = expand_tree(REGULAR, ("bc", "ca"), 1)
    child = next(c for c in tree.children if c.new_slot == "ca")
    # log 36 = log 9 + log 9 - 2 log(3/2)
    assert child.defect == pytest.approx(2.0 * math.log(1.5), rel=1e-14)
    assert child.f_new() == pytest.approx(
        math.log(9.0) + math.log(9.0) - 2.0 * math.log(1.5), rel=1e-14
    )


def test_transfer_identity_everywhere(domain_points):
    for point in domain_points(3):
        tree = expand_tree(point, ("ab", "bc"), 8)
        for node in iter_nodes(tree):
            if node.defect is None:
                continue
            flanks = [node.fvals[SLOTS.index(s)] for s in node.flank_slots()]
            expected = flanks[0] + flanks[1] - node.defect
            assert abs(node.f_new() - expected) <= 1e-12 * max(1.0, abs(expected))


def test_bowditch_regular_tree():
    tree = expand_tree(REGULAR, ("ab", "bc"), 10)
    report = bowditch_check(tree)
    assert report.bowditch_ok
    assert report.lower_bound_ok
    assert report.defect_max == pytest.approx(2.0 * math.log(1.5), rel=1e-12)
    assert report.defect_max < LOG4
    assert report.nodes_checked == 2 ** 11 - 2


def test_bowditch_value_mode_reports_honestly():
    tree = expand_tree(REGULAR, ("ab", "bc"), 10)
    report = bowditch_check(tree, "value_Fe")
    assert report.bowditch_ok
    # the value-scale base case is dimensionally inconsistent with the bound
    assert not report.lower_bound_ok


def test_defect_hits_log4_on_fixed_locus():
    root = GeometricPoint.from_coords(3.0, 2.0, 3.5)
    tree = expand_tree(root, ("bc", "ca"), 1)  # blocks I_c, so I_b runs at b = 2
    child = next(c for c in tree.children if c.new_slot == "ca")
    assert child.defect == pytest.approx(LOG4, rel=1e-12)
    assert bowditch_check(tree).bowditch_ok


def test_bowditch_on_random_domain_roots(domain_points):
    for point in domain_points(5):
        report = bowditch_check(expand_tree(point, ("ab", "bc"), 10))
        assert report.bowditch_ok and report.lower_bound_ok
        assert report.defect_max <= LOG4 + 1e-12


# --- census -------------------------------------------------------------------

def test_census_root_only():
    rows = length_census(REGULAR, math.log(9.0) + 1e-12)
    assert len(rows) == 1
    assert rows[0].value == pytest.approx(math.log(9.0))
    assert rows[0].multiplicity == 3
    assert rows[0].depth_first_seen == 0


def test_census_first_generation():
    rows = length_census(REGULAR, math.log(36.0) + 1e-9)
    assert [row.multiplicity for row in rows] == [3, 3]
    assert rows[1].value == pytest.approx(math.log(36.0))
    assert rows[1].depth_first_seen == 1


def test_census_monotone_in_bound():
    counts = []
    for bound in (math.log(9.5), math.log(40.0), math.log(300.0), math.log(2500.0)):
        rows = length_census(REGULAR, bound)
        counts.append(sum(row.multiplicity for row in rows))
    assert counts == sorted(counts)
    assert counts[-1] > counts[0]


def test_census_orbit_invariance():
    moved = GeometricPoint.from_coords(6.0, 1.5, 6.0)
    bound = math.log(300.0)
    reference = [(row.value, row.multiplicity) for row in length_census(REGULAR, bound)]
    other = [(row.value, row.multiplicity) for row in length_census(moved, bound)]
    assert len(reference) == len(other)
    for (v1, m1), (v2, m2) in zip(reference, other):
        assert v1 == pytest.approx(v2, abs=1e-9)
        assert m1 == m2


def test_census_values_invert_to_lengths():
    for row in length_census(REGULAR, math.log(2500.0)):
        product = 2.0 + 2.0 * math.cosh(row.length / 2.0)
        assert abs(product - math.exp(row.value)) <= 1e-10 * product
        assert row.length == pytest.approx(simple_length(math.exp(row.value)), rel=1e-12)


def test_census_requires_usable_bound():
    with pytest.raises(ValueError):
        length_census(REGULAR, math.log(4.0))
