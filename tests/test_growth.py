import dataclasses
import math

import numpy as np
import pytest

from conesphere import growth
from conesphere.charvar import GeometricPoint, c_from_level, simple_length
from conesphere.errors import OutOfRange, PivotAtOne
from conesphere.growth import (
    LOG4,
    MAX_DEPTH,
    SLOTS,
    TreeLevel,
    TreeNode,
    bowditch_check,
    expand_tree,
    length_census,
)
from conesphere.mcg import PIVOT_INDEX, Involution, apply_involution, reduce_to_domain

REGULAR = GeometricPoint.from_coords(3.0, 3.0, 3.0)


def test_tree_slots_and_first_generation():
    # blocking I_c leaves the I_a and I_b children; I_b replaces ca
    tree = expand_tree(REGULAR, ("bc", "ca"), 1)
    log9, log36 = math.log(9.0), math.log(36.0)
    assert tree.fvals == pytest.approx((log9, log9, log9), rel=1e-15)
    by_slot = {child.new_slot: child for child in tree.children}
    assert set(by_slot) == {"bc", "ca"}
    assert by_slot["ca"].fvals == pytest.approx((log9, log9, log36), rel=1e-15)
    assert by_slot["bc"].fvals == pytest.approx((log9, log36, log9), rel=1e-15)


def _reference_levels(point, start_edge, depth):
    """Breadth-first vertices from apply_involution, children in the order Ia < Ib < Ic."""
    blocked = {frozenset(("ab", "bc")): Involution.IB, frozenset(("ab", "ca")): Involution.IA,
               frozenset(("bc", "ca")): Involution.IC}[frozenset(start_edge)]
    level = [(point.triple, blocked, None, (1.0, 1.0, 1.0))]
    levels = [level]
    for _ in range(depth):
        following = []
        for triple, excluded, _defect, fe in level:
            for move in Involution:
                if move is excluded:
                    continue
                pivot = triple.as_tuple()[PIVOT_INDEX[move]]
                slot = {Involution.IA: 1, Involution.IB: 2, Involution.IC: 0}[move]
                fe_child = list(fe)
                fe_child[slot] = fe[(slot + 1) % 3] + fe[(slot + 2) % 3]
                following.append((apply_involution(move, triple), move,
                                  2.0 * math.log(pivot / (pivot - 1.0)), tuple(fe_child)))
        level = following
        levels.append(level)
    return levels


def test_level_arrays_match_involution_walk(domain_points):
    # the float walk in (a, b, c) is exact enough while the values stay small
    for point in [REGULAR, *domain_points(2)]:
        tree = expand_tree(point, ("ab", "ca"), 6)
        nodes = [tree]
        for reference in _reference_levels(point, ("ab", "ca"), 6):
            assert len(nodes) == len(reference)
            for node, (triple, _move, defect, fe) in zip(nodes, reference):
                a, b, c = triple.as_tuple()
                expected = (math.log(a * b), math.log(b * c), math.log(c * a))
                assert node.fvals == pytest.approx(expected, rel=1e-13)
                assert node.fe_norm == fe
                if defect is None:
                    assert node.defect is None
                else:
                    assert node.defect == pytest.approx(defect, rel=1e-13)
            nodes = [child for node in nodes for child in node.children]


def _reference_grow(level):
    """One tree level step with the moves, the log step and the F_e sums inline."""
    excluded = (level.new_slot + 2) % 3
    moves = np.empty(2 * len(excluded), dtype=np.int8)
    moves[0::2] = np.where(excluded == 0, 1, 0)
    moves[1::2] = np.where(excluded == 2, 1, 2)
    rows = np.arange(len(moves))
    logs = np.repeat(level.logs, 2, axis=0)
    lp = logs[rows, moves]
    assert np.all(lp > growth._LOG_POLE)
    t = np.log(-np.expm1(-lp))
    logs += (lp + t)[:, None]
    logs[rows, moves] = -t
    slot = (moves + 1) % 3
    x, y = (slot + 1) % 3, (slot + 2) % 3
    fe_norm = np.repeat(level.fe_norm, 2, axis=0)
    fe_norm[rows, slot] = fe_norm[rows, x] + fe_norm[rows, y]
    fe_value = np.repeat(level.fe_value, 2, axis=0)
    fe_value[rows, slot] = fe_value[rows, x] + fe_value[rows, y]
    return TreeLevel(logs, slot, -2.0 * t, fe_norm, fe_value)


def test_tree_levels_bit_identical_to_inline_step(monkeypatch, domain_points):
    # the step shared with the census keeps the tree's arithmetic and its order
    for point, edge in [(REGULAR, ("ab", "bc")), *((p, ("bc", "ca")) for p in domain_points(2))]:
        tree = expand_tree(point, edge, 15)
        with monkeypatch.context() as patch:
            patch.setattr(growth, "_grow", _reference_grow)
            reference = expand_tree(point, edge, 15)
        for got, want in zip(tree.levels, reference.levels, strict=True):
            for field in dataclasses.fields(TreeLevel):
                a, b = getattr(got, field.name), getattr(want, field.name)
                assert a.dtype == b.dtype
                assert a.tobytes() == b.tobytes(), field.name


def test_depth_zero_tree():
    tree = expand_tree(REGULAR, ("ab", "bc"), 0)
    assert tree.children == []
    report = bowditch_check(tree)
    assert report.nodes_checked == 0
    assert report.bowditch_ok and report.lower_bound_ok


def test_exact_transfer_identity_at_first_step():
    level = expand_tree(REGULAR, ("bc", "ca"), 1).levels[1]
    ca = SLOTS.index("ca")
    child = level.new_slot.tolist().index(ca)
    # log 36 = log 9 + log 9 - 2 log(3/2)
    assert level.defect[child] == pytest.approx(2.0 * math.log(1.5), rel=1e-14)
    assert level.fvals()[child, ca] == pytest.approx(
        math.log(9.0) + math.log(9.0) - 2.0 * math.log(1.5), rel=1e-14
    )


def test_transfer_identity_everywhere(domain_points):
    for point in domain_points(3):
        tree = expand_tree(point, ("ab", "bc"), 8)
        for level in tree.levels[1:]:
            fvals, slot = level.fvals(), level.new_slot
            rows = np.arange(len(slot))
            expected = fvals[rows, (slot + 1) % 3] + fvals[rows, (slot + 2) % 3] - level.defect
            gap = np.abs(fvals[rows, slot] - expected)
            assert np.all(gap <= 1e-12 * np.maximum(1.0, np.abs(expected)))


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


def test_pivot_at_one_raises():
    # a geometric point with a within 1e-10 of the pole; I_a pivots on it at the root
    root = GeometricPoint.from_coords(1.0 + 1e-10, 3e10, 2e10)
    with pytest.raises(PivotAtOne) as info:
        expand_tree(root, ("ab", "bc"), 1)
    assert info.value.details["involution"] == "Ia"


def test_depth_past_cap_rejected_before_expanding(monkeypatch):
    def no_growth(level):
        raise AssertionError("expanded a level")
    monkeypatch.setattr(growth, "_grow", no_growth)
    with pytest.raises(ValueError, match="depth"):
        expand_tree(REGULAR, ("ab", "bc"), MAX_DEPTH + 1)
    with pytest.raises(ValueError, match="depth"):
        expand_tree(REGULAR, ("ab", "bc"), -1)


def test_depth_20_tree_is_finite():
    assert MAX_DEPTH == 20
    tree = expand_tree(REGULAR, ("ab", "bc"), MAX_DEPTH)
    for level in tree.levels:
        assert np.isfinite(level.fvals()).all()
        assert np.isfinite(level.fe_norm).all() and np.isfinite(level.fe_value).all()
    assert all(np.isfinite(level.defect).all() for level in tree.levels[1:])
    report = bowditch_check(tree)
    assert report.nodes_checked == 2 ** 21 - 2
    assert report.bowditch_ok and report.lower_bound_ok


def test_deep_path_matches_high_precision():
    mpmath = pytest.importorskip("mpmath")
    tree = expand_tree(REGULAR, ("ab", "bc"), 15)
    last = tree.levels[-1]
    index = int(np.argmax(last.fvals().max(axis=1)))
    # walk back to the root: vertex i has parent i // 2
    path = []
    for level in range(15, 0, -1):
        path.append((level, index))
        index //= 2
    path.reverse()
    with mpmath.workdps(50):
        coords = [mpmath.mpf(3), mpmath.mpf(3), mpmath.mpf(3)]
        largest = 0.0
        for level, index in path:
            move = (int(tree.levels[level].new_slot[index]) + 2) % 3
            pivot = coords[move]
            coords = [x * (pivot - 1) for x in coords]
            coords[move] = pivot / (pivot - 1)
            expected = [mpmath.log(coords[i] * coords[(i + 1) % 3]) for i in range(3)]
            node = TreeNode(tree.levels, level, index)
            for got, want in zip(node.fvals, expected):
                assert abs(got - want) <= 1e-12 * abs(want)
            largest = max(largest, float(max(expected)))
    assert largest > 709.8  # past the float range of a*b


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
    with pytest.raises(ValueError):
        length_census(REGULAR, math.nan)


def _reference_census(root, bound, merge_tol=1e-9):
    """Rows [value, multiplicity, depth_first_seen] from a breadth-first walk
    that takes every vertex one at a time in Python."""
    a, b, c = reduce_to_domain(root).end.as_tuple()
    la, lb, lc = math.log(a), math.log(b), math.log(c)
    found = [(f, 0) for f in (la + lb, lb + lc, lc + la) if f <= bound]
    frontier = [(la, lb, lc, -1)]
    level = 0
    while frontier:
        level += 1
        following = []
        for la, lb, lc, excluded in frontier:
            for move, lp, x, y in ((0, la, lb, lc), (1, lb, lc, la), (2, lc, la, lb)):
                if move == excluded:
                    continue
                t = math.log(-math.expm1(-lp))
                step = lp + t
                f_new = x + y + 2.0 * step
                if f_new > bound:
                    continue
                found.append((f_new, level))
                child = [la + step, lb + step, lc + step]
                child[move] = -t
                following.append((*child, move))
        frontier = following
    rows = []
    for value, level in sorted(found):
        if rows and value - rows[-1][0] <= merge_tol:
            rows[-1][1] += 1
            rows[-1][2] = min(rows[-1][2], level)
        else:
            rows.append([value, 1, level])
    return rows


def _assert_matches_reference(root, bound):
    rows = length_census(root, bound)
    reference = _reference_census(root, bound)
    assert len(rows) == len(reference)
    for row, (value, multiplicity, first_seen) in zip(rows, reference):
        assert (row.multiplicity, row.depth_first_seen) == (multiplicity, first_seen)
        assert abs(row.value - value) <= 1e-14 * abs(value)


@pytest.mark.parametrize("coords, bound", [
    ((3.0, 3.0, 3.0), 995.0),
    ((2.5, 3.0, 4.0), 400.0),
    ((3.0, 3.0, c_from_level(3.0, 3.0, -1.99)), 40.0),
    ((6.0, 1.5, 6.0), 720.0),      # past the float range of a pair product
])
def test_census_matches_scalar_walk(coords, bound):
    _assert_matches_reference(GeometricPoint.from_coords(*coords), bound)


# the 15 levels at bound 30 hold 3, 6, 12, 24, 48, 54, 30, 18, 6, ..., 6, 0
# vertices: the walk turns to arrays after level 1, 5 or 6, or never
@pytest.mark.parametrize("width, array_levels", [(1, 14), (48, 10), (49, 9), (55, 0)])
def test_census_switches_to_arrays_at_any_level(monkeypatch, width, array_levels):
    steps = []
    step = growth._step

    def counted(lp, moves):
        steps.append(lp.size)
        return step(lp, moves)
    monkeypatch.setattr(growth, "_step", counted)
    monkeypatch.setattr(growth, "_ARRAY_FRONTIER", width)
    _assert_matches_reference(REGULAR, 30.0)
    assert len(steps) == array_levels


def test_census_merge_as_arrays_follows_first_of_row():
    # adjacent gaps of 0.6e-9 all sit below the 1e-9 tolerance, but a row
    # ends where the span from its first value passes it: rows start at
    # every second value of the chain, and 10 + 1.8e-9 comes twice
    chain = [10.0 + k * 0.6e-9 for k in range(9)] + [10.0 + 3 * 0.6e-9, 11.0]
    levels = [4, 2, 7, 5, 3, 6, 1, 8, 9, 0, 3]

    def merged(rows):
        return [(row.value, row.multiplicity, row.depth_first_seen) for row in rows]
    rows = merged(growth._merge_columns(np.array(chain), np.array(levels)))
    assert rows == merged(growth._merge(chain, levels))
    assert rows == [(chain[0], 2, 2), (chain[2], 3, 0), (chain[4], 2, 3), (chain[6], 2, 1),
                    (chain[8], 1, 9), (11.0, 1, 3)]


def test_census_lengths_as_arrays_match_scalar():
    values = [LOG4 + 1e-6, math.nextafter(40.0, 0.0), 40.0, math.nextafter(40.0, 41.0),
              709.8, 720.0]
    values += [row.value for row in length_census(REGULAR, 300.0)]
    lengths = growth._lengths(np.array(values)).tolist()
    for value, length in zip(values, lengths, strict=True):
        want = growth._length(value)
        assert abs(length - want) <= 2.2e-16 * want, value


@pytest.mark.parametrize("width", [1, 10 ** 9])  # arrays from level 1, scalar only
def test_census_value_cap(monkeypatch, width):
    # 2,724 values at bound 100
    monkeypatch.setattr(growth, "_ARRAY_FRONTIER", width)
    monkeypatch.setattr(growth, "CENSUS_MAX_VALUES", 2724)
    assert sum(row.multiplicity for row in length_census(REGULAR, 100.0)) == 2724
    monkeypatch.setattr(growth, "CENSUS_MAX_VALUES", 2723)
    with pytest.raises(OutOfRange) as info:
        length_census(REGULAR, 100.0)
    assert info.value.details["reason"] == "census_too_large"


def test_census_past_float_range():
    mpmath = pytest.importorskip("mpmath")
    below = length_census(REGULAR, 709.0)
    rows = length_census(REGULAR, 720.0)
    assert sum(r.multiplicity for r in rows) > sum(r.multiplicity for r in below)
    assert max(row.value for row in rows) > 709.8
    assert all(math.isfinite(row.value) and math.isfinite(row.length) for row in rows)
    with mpmath.workdps(50):
        for row in rows[:: max(1, len(rows) // 40)] + rows[-3:]:
            want = 2 * mpmath.acosh((mpmath.exp(mpmath.mpf(row.value)) - 2) / 2)
            assert abs(row.length - want) <= 1e-14 * want
