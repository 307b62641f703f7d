"""Orbit tree of simple-loop values and Fibonacci growth certificates.

The three pair products (p, q, r) = (ab, bc, ca) label the complementary
regions around a vertex of the trivalent orbit tree.  Each involution keeps
two of them and replaces the third:

    I_a: bc -> bc*(a-1)^2      I_b: ca -> ca*(b-1)^2      I_c: ab -> ab*(c-1)^2

so on the log scale f = log(product) every tree edge satisfies the exact
transfer identity

    f(new) = f(x) + f(y) - 2*log(pivot / (pivot - 1)),

where x, y are the two kept values and the pivot is the coordinate of the
move at the parent.  Away from the starting edge the pivot stays >= 2, the
defect 2*log(pivot/(pivot-1)) is at most log 4, and the Bowditch condition
f(new) >= f(x) + f(y) - log 4 holds at every vertex.  The comparison value
F_e adds the two flanking values at each step and so grows like Fibonacci
numbers, which yields the lower bound f >= (m - log 4)*F_e + log 4 with m
the minimum root value; that bound prunes the breadth-first length census
exactly.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

from .charvar import GeometricPoint, ParamTriple, simple_length
from .errors import NotGeometric
from .mcg import PIVOT_INDEX, Involution, apply_involution, reduce_to_domain

LOG4 = math.log(4.0)

SLOTS = ("ab", "bc", "ca")

# the involution that replaces a slot, and vice versa
_REPLACES = {Involution.IA: "bc", Involution.IB: "ca", Involution.IC: "ab"}
_BLOCKER = {frozenset(("ab", "bc")): Involution.IB,
            frozenset(("ab", "ca")): Involution.IA,
            frozenset(("bc", "ca")): Involution.IC}


def _products(t: ParamTriple) -> tuple:
    a, b, c = t.as_tuple()
    return (a * b, b * c, c * a)


@dataclass(slots=True)
class TreeNode:
    """A vertex of the binary orbit subtree.

    ``values``, ``fvals`` and the comparison tuples follow the slot order
    (ab, bc, ca).  ``new_slot`` names the region created at this node (for
    the root, the region opposite the starting edge) and ``Fe`` is its
    normalized comparison value.  The edge defect 2*log(pivot/(pivot-1)) is
    None at the root.
    """

    triple: ParamTriple
    fvals: tuple
    new_slot: str
    defect: float | None
    fe_norm: tuple = field(repr=False)
    fe_value: tuple = field(repr=False)
    children: list = field(default_factory=list, repr=False)

    @property
    def values(self) -> tuple:
        return _products(self.triple)

    @property
    def Fe(self) -> float:
        return self.fe_norm[SLOTS.index(self.new_slot)]

    def f_new(self) -> float:
        return self.fvals[SLOTS.index(self.new_slot)]

    def flank_slots(self) -> tuple:
        return tuple(slot for slot in SLOTS if slot != self.new_slot)


def expand_tree(root: GeometricPoint, start_edge=("ab", "bc"), depth: int = 10) -> TreeNode:
    """Binary subtree of the orbit tree growing away from the starting edge.

    ``start_edge`` names the invariant pair flanking the initial edge; the
    involution preserving both is excluded at the root (crossing it would
    backtrack), and below the root each node excludes its creating move.
    Comparison values F_e start at 1 on all three root regions (log of the
    root value in the alternative base used by bowditch_check) and follow
    F_e(new) = F_e(x) + F_e(y) down the tree.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    edge = frozenset(start_edge)
    if edge not in _BLOCKER:
        raise ValueError(f"start_edge must be two distinct slots from {SLOTS}, got {start_edge!r}")
    blocked = _BLOCKER[edge]
    products = _products(root.triple)
    if min(products) <= 4.0:
        raise NotGeometric(f"pair products must exceed 4, got {dict(zip(SLOTS, products))}")
    fvals = tuple(math.log(value) for value in products)
    node = TreeNode(
        triple=root.triple,
        fvals=fvals,
        new_slot=_REPLACES[blocked],
        defect=None,
        fe_norm=(1.0, 1.0, 1.0),
        fe_value=fvals,
    )
    stack = [(node, blocked, 0)]
    while stack:
        parent, excluded, level = stack.pop()
        if level >= depth:
            continue
        for move in Involution:
            if move is excluded:
                continue
            child = _child(parent, move)
            parent.children.append(child)
            stack.append((child, move, level + 1))
    return node


def _child(parent: TreeNode, move: Involution) -> TreeNode:
    slot = _REPLACES[move]
    index = SLOTS.index(slot)
    pivot = parent.triple.as_tuple()[PIVOT_INDEX[move]]
    triple = apply_involution(move, parent.triple)
    others = [i for i in range(3) if i != index]
    fe_norm = list(parent.fe_norm)
    fe_value = list(parent.fe_value)
    fe_norm[index] = fe_norm[others[0]] + fe_norm[others[1]]
    fe_value[index] = fe_value[others[0]] + fe_value[others[1]]
    return TreeNode(
        triple=triple,
        fvals=tuple(math.log(value) for value in _products(triple)),
        new_slot=slot,
        defect=2.0 * math.log(pivot / (pivot - 1.0)),
        fe_norm=tuple(fe_norm),
        fe_value=tuple(fe_value),
    )


def iter_nodes(tree: TreeNode):
    stack = [tree]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(node.children)


@dataclass(frozen=True)
class GrowthReport:
    mode: str
    nodes_checked: int
    defect_max: float
    defect_bound: float
    bowditch_ok: bool
    lower_bound_ok: bool


def bowditch_check(tree: TreeNode, mode: str = "normalized_Fe",
                   slack: float = 1e-12) -> GrowthReport:
    """Verify the defect inequality and the Fibonacci lower bound on a tree.

    At every vertex created by a move the defect inequality
    f(new) >= f(x) + f(y) - log 4 is checked, and the lower bound
    f(new) >= (m - log 4)*F_e(new) + log 4 with m the minimum root f-value.
    ``mode`` selects the F_e base case: 'normalized_Fe' starts all three
    root regions at 1, 'value_Fe' starts them at their own log values.  The
    two scalings are not equivalent; the lower bound is expected to hold in
    normalized mode only, and the report never hides a failure.
    """
    if mode not in ("normalized_Fe", "value_Fe"):
        raise ValueError(f"unknown mode {mode!r}")
    m = min(tree.fvals)
    nodes_checked = 0
    defect_max = 0.0
    bowditch_ok = True
    lower_bound_ok = True
    for node in iter_nodes(tree):
        if node.defect is None:
            continue
        nodes_checked += 1
        defect_max = max(defect_max, node.defect)
        if node.defect > LOG4 + slack:
            bowditch_ok = False
        index = SLOTS.index(node.new_slot)
        fe = node.fe_norm[index] if mode == "normalized_Fe" else node.fe_value[index]
        if node.fvals[index] < (m - LOG4) * fe + LOG4 - slack:
            lower_bound_ok = False
    return GrowthReport(mode, nodes_checked, defect_max, LOG4, bowditch_ok, lower_bound_ok)


@dataclass(frozen=True)
class CensusRow:
    value: float            # log of the pair product
    length: float           # simple loop length 2*acosh((e^value - 2)/2)
    multiplicity: int
    depth_first_seen: int


def length_census(root: GeometricPoint, bound: float,
                  merge_tol: float = 1e-9) -> list:
    """All region values f <= bound in the orbit tree, with multiplicity.

    The region values are an orbit invariant, so the root is first moved to
    its fundamental-domain representative; from there every pivot is >= 2
    and each created value strictly exceeds both values flanking it, which
    makes pruning at the bound exact.  Breadth-first over the full trivalent
    tree (every involution allowed at the root, the creating move excluded
    below); ``depth_first_seen`` counts levels from the representative.
    Values are merged at ``merge_tol`` absolute; rows come back sorted.
    """
    if bound <= LOG4:
        raise ValueError(f"bound must exceed log 4, got {bound!r}")
    start = reduce_to_domain(root).end
    found = [(math.log(value), 0) for value in _products(start)
             if math.log(value) <= bound]
    queue = deque([(start, None, 0)])
    while queue:
        triple, excluded, level = queue.popleft()
        for move in Involution:
            if move is excluded:
                continue
            child = apply_involution(move, triple)
            f_new = math.log(_products(child)[SLOTS.index(_REPLACES[move])])
            if f_new > bound:
                continue
            found.append((f_new, level + 1))
            queue.append((child, move, level + 1))
    found.sort()
    rows = []
    for f_value, level in found:
        if rows and abs(f_value - rows[-1][0]) <= merge_tol:
            rows[-1][1] += 1
            rows[-1][2] = min(rows[-1][2], level)
        else:
            rows.append([f_value, 1, level])
    return [
        CensusRow(value, simple_length(math.exp(value)), multiplicity, first_seen)
        for value, multiplicity, first_seen in rows
    ]
