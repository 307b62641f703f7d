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

Tree and census run in the log coordinates (log a, log b, log c), where one
step with pivot p = e^lp reads

    t = log(-expm1(-lp))        so that  log(p - 1) = lp + t
    pivot coordinate  -> lp - log(p - 1) = -t
    other coordinates -> + log(p - 1)
    defect            =  -2*t

and the f-values are sums of two logs.  Coordinates grow doubly
exponentially along the tree, their logs only exponentially, so no value
overflows at any depth or census bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .charvar import GeometricPoint, simple_length
from .errors import NotGeometric, PivotAtOne
from .mcg import _POLE_TOL, Involution, reduce_to_domain

# numpy is imported inside the functions that compute with it, so importing
# this module (as every CLI request does) leaves numpy unloaded
if TYPE_CHECKING:
    import numpy as np

LOG4 = math.log(4.0)

SLOTS = ("ab", "bc", "ca")

# Involution k (Ia, Ib, Ic = 0, 1, 2) pivots on coordinate k and replaces
# slot k + 1 (mod 3); slot s is the sum of log coordinates s and s + 1.
_BLOCKER = {frozenset(("ab", "bc")): 1, frozenset(("ab", "ca")): 0, frozenset(("bc", "ca")): 2}
_MOVES = tuple(Involution)

# p - 1 <= tol  <=>  log p <= log1p(tol): a pivot at (or below) the pole
_LOG_POLE = math.log1p(_POLE_TOL)

MAX_DEPTH = 20  # 2^21 - 1 vertices at 81 B each (about 100 B while a level grows)


def _pivot_at_one(move: int, lp) -> PivotAtOne:
    name = _MOVES[move].value
    return PivotAtOne(f"{name} pivot is 1 (log pivot {float(lp)!r})", involution=name)


@dataclass(frozen=True, slots=True)
class TreeLevel:
    """The vertices of one tree level as arrays; vertex i has children 2i, 2i+1.

    ``logs`` holds (log a, log b, log c); ``fe_norm`` and ``fe_value`` the
    comparison values in slot order (ab, bc, ca); ``new_slot`` the index of
    the region created at the vertex and ``defect`` the defect of the move
    that created it (nan at the root, which no move creates).
    """

    logs: np.ndarray
    new_slot: np.ndarray
    defect: np.ndarray
    fe_norm: np.ndarray
    fe_value: np.ndarray

    def fvals(self) -> np.ndarray:
        """Region values f = log(pair product) in slot order, shape (n, 3)."""
        return self.logs + self.logs[:, [1, 2, 0]]


def _grow(level: TreeLevel) -> TreeLevel:
    """The next level: each vertex's two moves in the order Ia < Ib < Ic,
    leaving out the move that created it."""
    import numpy as np

    excluded = (level.new_slot + 2) % 3
    moves = np.empty(2 * len(excluded), dtype=np.int8)
    moves[0::2] = np.where(excluded == 0, 1, 0)
    moves[1::2] = np.where(excluded == 2, 1, 2)
    rows = np.arange(len(moves))
    logs = np.repeat(level.logs, 2, axis=0)
    lp = logs[rows, moves]
    at_pole = ~(lp > _LOG_POLE)
    if at_pole.any():
        first = int(np.argmax(at_pole))
        raise _pivot_at_one(int(moves[first]), lp[first])
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


class TreeNode:
    """View of one vertex of the binary orbit subtree built by expand_tree.

    ``fvals`` and the comparison tuples follow the slot order (ab, bc, ca).
    ``new_slot`` names the region created at this vertex (for the root, the
    region opposite the starting edge) and ``Fe`` is its normalized
    comparison value.  The edge defect 2*log(pivot/(pivot-1)) is None at
    the root.  ``levels`` holds the whole tree.
    """

    __slots__ = ("levels", "level", "index")

    def __init__(self, levels: tuple, level: int, index: int):
        self.levels = levels
        self.level = level
        self.index = index

    @property
    def children(self) -> list:
        if self.level + 1 >= len(self.levels):
            return []
        first = 2 * self.index
        return [TreeNode(self.levels, self.level + 1, first),
                TreeNode(self.levels, self.level + 1, first + 1)]

    @property
    def _slot(self) -> int:
        return int(self.levels[self.level].new_slot[self.index])

    @property
    def new_slot(self) -> str:
        return SLOTS[self._slot]

    @property
    def fvals(self) -> tuple:
        la, lb, lc = self.levels[self.level].logs[self.index].tolist()
        return (la + lb, lb + lc, lc + la)

    @property
    def defect(self) -> float | None:
        return None if self.level == 0 else float(self.levels[self.level].defect[self.index])

    @property
    def fe_norm(self) -> tuple:
        return tuple(self.levels[self.level].fe_norm[self.index].tolist())

    @property
    def Fe(self) -> float:
        return self.fe_norm[self._slot]


def expand_tree(root: GeometricPoint, start_edge=("ab", "bc"), depth: int = 10) -> TreeNode:
    """Binary subtree of the orbit tree growing away from the starting edge.

    ``start_edge`` names the invariant pair flanking the initial edge; the
    involution preserving both is excluded at the root (crossing it would
    backtrack), and below the root each node excludes its creating move.
    Comparison values F_e start at 1 on all three root regions (log of the
    root value in the alternative base used by bowditch_check) and follow
    F_e(new) = F_e(x) + F_e(y) down the tree.  ``depth`` runs from 0 to
    MAX_DEPTH; level k holds 2^k vertices.
    """
    import numpy as np

    if not 0 <= depth <= MAX_DEPTH:
        raise ValueError(f"depth must be in 0..{MAX_DEPTH}, got {depth}")
    edge = frozenset(start_edge)
    if edge not in _BLOCKER:
        raise ValueError(f"start_edge must be two distinct slots from {SLOTS}, got {start_edge!r}")
    a, b, c = root.triple.as_tuple()
    products = (a * b, b * c, c * a)
    if min(products) <= 4.0:
        raise NotGeometric(f"pair products must exceed 4, got {dict(zip(SLOTS, products))}")
    logs = np.log(np.array([[a, b, c]], dtype=float))
    level = TreeLevel(
        logs=logs,
        new_slot=np.array([(_BLOCKER[edge] + 1) % 3], dtype=np.int8),
        defect=np.array([math.nan]),
        fe_norm=np.ones((1, 3)),
        fe_value=logs + logs[:, [1, 2, 0]],
    )
    levels = [level]
    for _ in range(depth):
        level = _grow(level)
        levels.append(level)
    return TreeNode(tuple(levels), 0, 0)


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
    normalized mode only, and the report never hides a failure: a
    non-finite value fails both inequalities.  ``tree`` is the root
    returned by expand_tree.
    """
    import numpy as np

    if mode not in ("normalized_Fe", "value_Fe"):
        raise ValueError(f"unknown mode {mode!r}")
    if tree.level != 0:
        raise ValueError("bowditch_check needs the root of an expanded tree")
    m = float(tree.levels[0].fvals().min())
    nodes_checked = 0
    defect_max = 0.0
    bowditch_ok = True
    lower_bound_ok = True
    for level in tree.levels[1:]:
        rows = np.arange(len(level.defect))
        slot = level.new_slot
        f_new = level.logs[rows, slot] + level.logs[rows, (slot + 1) % 3]
        fe = (level.fe_norm if mode == "normalized_Fe" else level.fe_value)[rows, slot]
        nodes_checked += len(rows)
        defect_max = max(defect_max, float(level.defect.max()))
        bowditch_ok = bowditch_ok and bool(np.all(level.defect <= LOG4 + slack))
        lower_bound_ok = lower_bound_ok and bool(
            np.all(f_new >= (m - LOG4) * fe + LOG4 - slack))
    return GrowthReport(mode, nodes_checked, defect_max, LOG4, bowditch_ok, lower_bound_ok)


@dataclass(frozen=True)
class CensusRow:
    value: float            # log of the pair product
    length: float           # simple loop length 2*acosh((e^value - 2)/2)
    multiplicity: int
    depth_first_seen: int


def _length(value: float) -> float:
    # 2*acosh(x) = 2*log(2x) - O(x^-2) with 2x = e^f - 2; the remainder is
    # below double precision for f >= 40, where e^f would soon overflow
    if value >= 40.0:
        return 2.0 * (value + math.log1p(-2.0 * math.exp(-value)))
    return simple_length(math.exp(value))


def length_census(root: GeometricPoint, bound: float,
                  merge_tol: float = 1e-9) -> list:
    """All region values f <= bound in the orbit tree, with multiplicity.

    The region values are an orbit invariant, so the root is first moved to
    its fundamental-domain representative; from there every pivot is >= 2
    and each created value strictly exceeds both values flanking it, which
    makes pruning at the bound exact.  Breadth-first over the full trivalent
    tree (every involution allowed at the root, the creating move excluded
    below); ``depth_first_seen`` counts levels from the representative.
    Values are merged at ``merge_tol`` absolute against the first value of
    a row; rows come back sorted.  The walk runs in log coordinates, so any
    finite bound is valid.
    """
    import numpy as np

    if bound <= LOG4:
        raise ValueError(f"bound must exceed log 4, got {bound!r}")
    a, b, c = reduce_to_domain(root).end.as_tuple()
    la, lb, lc = math.log(a), math.log(b), math.log(c)
    values = [f for f in (la + lb, lb + lc, lc + la) if f <= bound]
    levels = [0] * len(values)
    log, expm1 = math.log, math.expm1
    frontier = [(la, lb, lc, -1)]
    level = 0
    while frontier:
        level += 1
        following = []
        for la, lb, lc, excluded in frontier:
            for move, lp, x, y in ((0, la, lb, lc), (1, lb, lc, la), (2, lc, la, lb)):
                if move == excluded:
                    continue
                if lp <= _LOG_POLE:
                    raise _pivot_at_one(move, lp)
                t = log(-expm1(-lp))
                step = lp + t
                # the new region pairs the two coordinates that gain log(p - 1)
                f_new = x + y + 2.0 * step
                if f_new > bound:
                    continue
                values.append(f_new)
                levels.append(level)
                if move == 0:
                    following.append((-t, lb + step, lc + step, 0))
                elif move == 1:
                    following.append((la + step, -t, lc + step, 1))
                else:
                    following.append((la + step, lb + step, -t, 2))
        frontier = following
    values = np.asarray(values)
    order = np.argsort(values)
    ordered = values[order].tolist()
    starts = []
    first = -math.inf
    for k, f_value in enumerate(ordered):
        if f_value - first > merge_tol:
            first = f_value
            starts.append(k)
    if not starts:
        return []
    multiplicity = np.diff(starts, append=len(ordered)).tolist()
    first_seen = np.minimum.reduceat(np.asarray(levels)[order], starts).tolist()
    return [
        CensusRow(ordered[k], _length(ordered[k]), count, seen)
        for k, count, seen in zip(starts, multiplicity, first_seen)
    ]
