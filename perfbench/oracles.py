"""Reference answers that do not depend on the conesphere package.

Every check here is written from the closed forms of the paper, in exact
rationals (stdlib ``fractions``) where that is cheap, in log coordinates
where values would overflow a float, and with mpmath where a closed form
needs more than double precision near its edge.  A check returns a list
of problems; an empty list means the output is correct.

A float handed to the program is taken as the exact binary rational it
denotes, so "correct" is decided for the input the program actually saw.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

import mpmath
import numpy as np

LOG4 = math.log(4.0)
# involution index (Ia, Ib, Ic) -> the slot it replaces, as index pairs into (a, b, c)
NEW_SLOT = {0: 1, 1: 2, 2: 0}          # Ia -> bc, Ib -> ca, Ic -> ab
SLOT_PAIRS = ((0, 1), (1, 2), (2, 0))  # ab, bc, ca
LETTER = {"Ia": 0, "Ib": 1, "Ic": 2}
# the move excluded at the root of expand_tree for a given starting edge
BLOCKED = {frozenset(("ab", "bc")): 1, frozenset(("ab", "ca")): 0, frozenset(("bc", "ca")): 2}


def rel_close(got, want, rel, absolute=0.0) -> bool:
    """|got - want| <= absolute + rel * max(1, |want|), and got finite."""
    try:
        got = float(got)
    except (TypeError, ValueError):
        return False
    return math.isfinite(got) and abs(got - float(want)) <= absolute + rel * max(1.0, abs(float(want)))


# ---------------------------------------------------------------------------
# exact arithmetic on (a, b, c)

def exact(values) -> list:
    return [Fraction(v) for v in values]


def kappa_exact(x) -> Fraction:
    a, b, c = x
    return 2 + a * b * c - a * b - b * c - c * a


def involution_exact(x, i: int) -> list:
    """I_a, I_b, I_c in closed form: the pivot goes to p/(p-1), the others scale by p-1."""
    m = x[i] - 1
    y = [v * m for v in x]
    y[i] = x[i] / m
    return y


def energy_exact(x) -> Fraction:
    return x[0] * x[1] * x[2]


def is_geometric_exact(x) -> bool:
    a, b, c = x
    return (a > 1 and b > 1 and c > 1 and kappa_exact(x) > -2
            and a * b > 4 and b * c > 4 and c * a > 4)


def reduce_exact(x, max_steps: int = 2000) -> list:
    """Greedy energy descent into the closure of {min > 2}; ties break Ia < Ib < Ic."""
    for _ in range(max_steps):
        if min(x) >= 2:
            return x
        best = None
        for i in range(3):
            if 1 < x[i] < 2:
                y = involution_exact(x, i)
                if best is None or energy_exact(y) < energy_exact(best):
                    best = y
        if best is None:
            raise ValueError("no pivot in (1, 2): the point is not geometric")
        x = best
    raise ValueError("reduction did not terminate")


def log_exact(q: Fraction) -> float:
    return math.log(q.numerator) - math.log(q.denominator)


# ---------------------------------------------------------------------------
# census: every region value f = log(pair product) <= bound, with multiplicity

def census_exact(rep, bound: float) -> list:
    """Breadth-first census over the full trivalent tree from a domain point, in rationals."""
    found = [log_exact(rep[i] * rep[j]) for i, j in SLOT_PAIRS]
    found = [f for f in found if f <= bound]
    frontier = [(rep, None)]
    while frontier:
        nxt = []
        for x, excluded in frontier:
            for move in range(3):
                if move == excluded:
                    continue
                y = involution_exact(x, move)
                i, j = SLOT_PAIRS[NEW_SLOT[move]]
                f = log_exact(y[i] * y[j])
                if f <= bound:
                    found.append(f)
                    nxt.append((y, move))
        frontier = nxt
    return sorted(found)


def _log_pivot_minus_one(lp):
    # log(p - 1) = lp + log(-expm1(-lp)): finite for every p > 1, never overflows
    return lp + np.log(-np.expm1(-lp))


def census_log(rep_logs, bound: float) -> np.ndarray:
    """The same census in log coordinates (log a, log b, log c), level by level."""
    logs = np.asarray([rep_logs], dtype=float)
    excluded = np.array([-1])
    found = [logs[0, i] + logs[0, j] for i, j in SLOT_PAIRS]
    found = [np.array([f for f in found if f <= bound])]
    while len(logs):
        next_logs, next_excl = [], []
        for move in range(3):
            keep = excluded != move
            parent = logs[keep]
            if not len(parent):
                continue
            step = _log_pivot_minus_one(parent[:, move])
            child = parent + step[:, None]
            child[:, move] = parent[:, move] - step
            i, j = SLOT_PAIRS[NEW_SLOT[move]]
            f = child[:, i] + child[:, j]
            inside = f <= bound
            found.append(f[inside])
            next_logs.append(child[inside])
            next_excl.append(np.full(int(inside.sum()), move))
        if not next_logs:
            break
        logs = np.concatenate(next_logs)
        excluded = np.concatenate(next_excl)
    return np.sort(np.concatenate(found))


EXACT_CENSUS_MAX = 40.0


class CensusOracle:
    """Census values of a root, exact below EXACT_CENSUS_MAX and in log coordinates above.

    Results are memoized per (root, bound): the oracle runs outside the
    timed region, and the (3,3,3) census at bound 1000 recurs every cycle.
    """

    def __init__(self):
        self._memo = {}

    def values(self, root, bound: float) -> np.ndarray:
        key = (tuple(root), bound)
        if key not in self._memo:
            rep = reduce_exact(exact(root))
            if bound <= EXACT_CENSUS_MAX:
                vals = np.array(census_exact(rep, bound))
            else:
                vals = census_log([log_exact(v) for v in rep], bound)
            if len(self._memo) >= 16:   # a cycle needs at most a few; keep memory flat
                self._memo.clear()
            self._memo[key] = vals
        return self._memo[key]


def check_census(expected: np.ndarray, rows) -> list:
    """Rows (value, multiplicity) against the oracle multiset.

    The program merges values within 1e-9 of each other, so each merged
    value may sit up to that far from the one it stands for.
    """
    got = []
    for value, multiplicity in rows:
        got.extend([value] * multiplicity)
    problems = []
    if any(not math.isfinite(v) for v in got):
        problems.append("non-finite census value")
    if len(got) != len(expected):
        problems.append(f"{len(got)} census values, oracle has {len(expected)}")
        return problems
    if len(got):
        gap = np.abs(np.sort(np.asarray(got, dtype=float)) - expected)
        tol = 2e-9 + 1e-12 * np.abs(expected)
        if not np.all(gap <= tol):
            problems.append(f"census value off by {float(gap.max()):.3e}")
    return problems


def bound_clear_of_values(values: np.ndarray, bound: float, clearance: float = 1e-6) -> float:
    """Move a bound upward until no oracle value lies within ``clearance`` of it.

    A bound that coincides with a value to rounding makes "f <= bound" an
    ill-posed question; this only moves the bound, never the point.
    """
    while len(values) and np.min(np.abs(values - bound)) < clearance:
        bound += 10 * clearance
    return bound


# ---------------------------------------------------------------------------
# orbit tree: level arrays in log coordinates in expand_tree's vertex order

class TreeOracle:
    """Per-vertex values of the depth-d tree in breadth-first order.

    Children follow the involution order Ia < Ib < Ic with the creating
    move (at the root: the move blocked by the starting edge) left out, the
    order of ``expand_tree``.  Arrays hold every non-root vertex.
    """

    def __init__(self, root, start_edge, depth: int):
        logs = np.asarray([[log_exact(v) for v in exact(root)]])
        root_f = np.array([logs[0, i] + logs[0, j] for i, j in SLOT_PAIRS])
        self.root_fvals = root_f
        fe_norm = np.ones((1, 3))
        fe_value = root_f[None, :].copy()
        excluded = np.array([BLOCKED[frozenset(start_edge)]])
        fvals, defect, new_slot, fe_n, fe_v = [], [], [], [], []
        for _ in range(depth):
            first = np.where(excluded == 0, 1, 0)
            second = np.where(excluded == 2, 1, 2)
            moves = np.stack([first, second], axis=1).reshape(-1)
            parent = np.repeat(np.arange(len(logs)), 2)
            lp = logs[parent, moves]
            step = _log_pivot_minus_one(lp)
            child = logs[parent] + step[:, None]
            child[np.arange(len(moves)), moves] = lp - step
            slot = np.array([NEW_SLOT[m] for m in range(3)])[moves]
            norm = fe_norm[parent].copy()
            value = fe_value[parent].copy()
            rows = np.arange(len(moves))
            others = np.array([[1, 2], [0, 2], [0, 1]])[slot]
            norm[rows, slot] = norm[rows, others[:, 0]] + norm[rows, others[:, 1]]
            value[rows, slot] = value[rows, others[:, 0]] + value[rows, others[:, 1]]
            f = np.stack([child[:, i] + child[:, j] for i, j in SLOT_PAIRS], axis=1)
            fvals.append(f)
            defect.append(-2.0 * np.log(-np.expm1(-lp)))
            new_slot.append(slot)
            fe_n.append(norm[rows, slot])
            fe_v.append(value[rows, slot])
            logs, excluded, fe_norm, fe_value = child, moves, norm, value
        self.fvals = np.concatenate(fvals) if fvals else np.zeros((0, 3))
        self.defect = np.concatenate(defect) if defect else np.zeros(0)
        self.new_slot = np.concatenate(new_slot) if new_slot else np.zeros(0, dtype=int)
        self.fe_norm = np.concatenate(fe_n) if fe_n else np.zeros(0)
        self.fe_value = np.concatenate(fe_v) if fe_v else np.zeros(0)
        self.vertices = len(self.defect)

    def lower_bound_margin(self, mode: str) -> float:
        f_new = self.fvals[np.arange(self.vertices), self.new_slot]
        fe = self.fe_norm if mode == "normalized_Fe" else self.fe_value
        m = float(self.root_fvals.min())
        return float(np.min(f_new - ((m - LOG4) * fe + LOG4))) if self.vertices else math.inf

    def check_report(self, mode, nodes_checked, defect_max, bowditch_ok, lower_bound_ok,
                     slack: float = 1e-12) -> list:
        problems = []
        if nodes_checked != self.vertices:
            problems.append(f"{mode}: nodes_checked {nodes_checked}, tree has {self.vertices}")
        want_max = float(self.defect.max()) if self.vertices else 0.0
        if not rel_close(defect_max, want_max, 1e-9):
            problems.append(f"{mode}: defect_max {defect_max!r}, oracle {want_max!r}")
        margin = LOG4 + slack - want_max
        if abs(margin) > 1e-9 and bool(bowditch_ok) != (margin >= 0):
            problems.append(f"{mode}: bowditch_ok {bowditch_ok}, oracle margin {margin:.3e}")
        margin = self.lower_bound_margin(mode) + slack
        if abs(margin) > 1e-9 * max(1.0, float(np.abs(self.fvals).max(initial=1.0))) \
                and bool(lower_bound_ok) != (margin >= 0):
            problems.append(f"{mode}: lower_bound_ok {lower_bound_ok}, oracle margin {margin:.3e}")
        return problems

    def check_vertices(self, fvals, defect, fe_norm) -> list:
        """Program per-vertex arrays (breadth-first, root excluded) against the oracle."""
        problems = []
        if fvals.shape != self.fvals.shape:
            return [f"tree has {len(fvals)} vertices, oracle has {self.vertices}"]
        nonfinite = int(np.count_nonzero(~np.isfinite(fvals).all(axis=1) | ~np.isfinite(defect)))
        if nonfinite:
            problems.append(f"{nonfinite} of {self.vertices} vertices hold non-finite values")
        finite = np.isfinite(fvals)
        gap = np.abs(np.where(finite, fvals, 0.0) - np.where(finite, self.fvals, 0.0))
        if np.any(gap > 1e-9 * np.maximum(1.0, np.abs(self.fvals))):
            problems.append("vertex f-values disagree with the log-coordinate oracle")
        if not np.array_equal(fe_norm, self.fe_norm):
            problems.append("normalized comparison values F_e disagree")
        return problems


# ---------------------------------------------------------------------------
# volumes: closed forms at high precision

class VolumeOracle:
    """Quarter of the four-holed-sphere volume polynomial at level kappa.

    (4 pi^2 - theta^2)/8 with 2 cos(theta/2) = kappa in the cone range,
    (4 pi^2 + l^2)/8 with 2 cosh(l/2) = kappa above it; evaluated at 40
    digits from the exact binary value of kappa, so the ends of the range
    (kappa -> -2, kappa = 1e300) are as reliable as the middle.
    """

    def __init__(self):
        self._memo = {}

    def domain(self, kappa: float) -> float:
        if kappa not in self._memo:
            with mpmath.workdps(40):
                k = mpmath.mpf(kappa)
                if k <= 2:
                    theta = 2 * mpmath.acos(k / 2)
                    value = (4 * mpmath.pi ** 2 - theta ** 2) / 8
                else:
                    length = 2 * mpmath.acosh(k / 2)
                    value = (4 * mpmath.pi ** 2 + length ** 2) / 8
                if len(self._memo) > 4096:
                    self._memo.clear()
                self._memo[kappa] = float(value)
        return self._memo[kappa]

    def moduli(self, kappa: float) -> float:
        return 4.0 * self.domain(kappa)


def check_volume(want: float, value, reference) -> list:
    problems = []
    if not rel_close(value, want, 1e-9, 1e-9):
        problems.append(f"volume {value!r}, closed form {want!r}")
    if not rel_close(reference, want, 1e-9, 1e-12):
        problems.append(f"reported reference {reference!r}, closed form {want!r}")
    return problems


# ---------------------------------------------------------------------------
# points: involution closed forms, collar certificates, Moebius data

def check_image(triple, automorphism: str, image) -> list:
    """induced_map against the closed-form involution (identity: the point itself)."""
    x = exact(triple)
    move = {"identity": None, "phi_alpha": 0, "phi_beta": 1, "phi_gamma": 2}[automorphism]
    want = x if move is None else involution_exact(x, move)
    problems = []
    for got, w in zip(image, want):
        if not rel_close(got, float(w), 1e-9):
            problems.append(f"{automorphism} image {list(image)!r}, closed form "
                            f"{[float(v) for v in want]!r}")
            break
    return problems


def kappa_scale(x) -> float:
    a, b, c = (abs(float(v)) for v in x)
    return max(1.0, a * b * c + a * b + b * c + c * a)


def check_inequalities(triple, products, collar_lhs, collar_rhs,
                       conecollar_lhs, conecollar_rhs, all_pass) -> list:
    """Collar certificates in closed form.

    sinh(l/4) = sqrt(P - 4)/2 for a loop with pair product P, and
    cos(theta/4) = cosh(l_delta/4) = sqrt(kappa + 2)/2, so both sides of
    both certificates are algebraic in (a, b, c).
    """
    x = exact(triple)
    a, b, c = x
    kappa = kappa_exact(x)
    want = {
        "products": [a * b, b * c, c * a],
        "collar_lhs": (a * b - 4) * (b * c - 4),
        "collar_rhs": 4 * (kappa + 2),
    }
    problems = []
    for got, w in zip(products, want["products"]):
        if not rel_close(got, float(w), 1e-12):
            problems.append(f"product {got!r} vs {float(w)!r}")
    scale = kappa_scale(x)
    if not rel_close(collar_lhs, float(want["collar_lhs"]), 1e-9):
        problems.append(f"collar_lhs {collar_lhs!r} vs {float(want['collar_lhs'])!r}")
    if abs(float(collar_rhs) - float(want["collar_rhs"])) > 1e-12 * scale:
        problems.append(f"collar_rhs {collar_rhs!r} vs {float(want['collar_rhs'])!r}")
    lhs = math.sqrt(float(want["collar_lhs"])) / 4.0
    rhs = math.sqrt(float(kappa + 2)) / 2.0
    if not rel_close(conecollar_lhs, lhs, 1e-9):
        problems.append(f"conecollar_lhs {conecollar_lhs!r} vs {lhs!r}")
    if not rel_close(conecollar_rhs, rhs, 1e-9, 1e-12 * scale):
        problems.append(f"conecollar_rhs {conecollar_rhs!r} vs {rhs!r}")
    if all_pass is not True:
        problems.append("collar certificates reported failing on a geometric point")
    return problems


def cba_exact(triple):
    """Entries of C*B*A for A = [[1,0],[a,1]], B = [[1+b,-b],[b,1-b]], C = [[1,-c],[0,1]]."""
    a, b, c = exact(triple)
    # B*A
    ba = (1 + b - b * a, -b, b + (1 - b) * a, 1 - b)
    # C*(B*A)
    return (ba[0] - c * ba[2], ba[1] - c * ba[3], ba[2], ba[3])


def mobius(m, z):
    m11, m12, m21, m22 = m
    if isinstance(z, str) or (not isinstance(z, complex) and math.isinf(z)):
        return math.inf if m21 == 0 else m11 / m21
    den = m21 * z + m22
    if den == 0:
        return math.inf
    return (m11 * z + m12) / den


def chordal(x: float, y: float) -> float:
    """Chordal distance on the real projective line."""
    if math.isinf(x) and math.isinf(y):
        return 0.0
    if math.isinf(x) or math.isinf(y):
        return 1.0 / math.hypot(1.0, y if math.isinf(x) else x)
    return abs(x - y) / (math.hypot(1.0, x) * math.hypot(1.0, y))


def check_cba(triple, trace, tag: str, magnitude, kind: str, points) -> list:
    """Trace, isometry class and fixed points of the boundary holonomy CBA."""
    x = exact(triple)
    kappa = kappa_exact(x)
    problems = []
    if abs(float(trace) - float(kappa)) > 1e-12 * kappa_scale(x):
        problems.append(f"tr CBA {trace!r}, kappa {float(kappa)!r}")
    t = abs(kappa)
    with mpmath.workdps(30):
        k = mpmath.mpf(kappa.numerator) / kappa.denominator
        if t < 2:
            want_tag, want_mag = "Elliptic", float(2 * mpmath.acos(abs(k) / 2))
        else:
            want_tag, want_mag = "Hyperbolic", float(2 * mpmath.acosh(abs(k) / 2))
    if tag != want_tag:
        problems.append(f"class {tag}, oracle {want_tag}")
    elif not rel_close(magnitude, want_mag, 1e-8, 1e-9):
        problems.append(f"{tag} magnitude {magnitude!r}, oracle {want_mag!r}")
    m = tuple(float(v) for v in cba_exact(triple))
    scale = max(1.0, *(abs(v) for v in m)) ** 2
    want_kind = "OneInteriorPoint" if t < 2 else "TwoPointsBoundary"
    if kind != want_kind:
        problems.append(f"fixed-point kind {kind}, oracle {want_kind}")
        return problems
    for p in points:
        if isinstance(p, complex):
            if not p.imag > 0:
                problems.append(f"interior fixed point {p!r} not in the upper half-plane")
            residual = abs(mobius(m, p) - p)
        else:
            residual = chordal(mobius(m, p), p)
        if not residual <= 1e-9 * scale:
            problems.append(f"fixed point {p!r} has residual {residual:.3e}")
    return problems


def check_darboux(a: float, b: float, abs_jacobian, reference, rel_err) -> list:
    """|d(length, twist)/d(a, b)| = 1/|ab - a - b| to the finite-difference accuracy 1e-5."""
    x, y = Fraction(a), Fraction(b)
    want = float(1 / abs(x * y - x - y))
    problems = []
    if not rel_close(reference, want, 1e-12):
        problems.append(f"Darboux reference {reference!r}, closed form {want!r}")
    if not (math.isfinite(float(abs_jacobian)) and abs(float(abs_jacobian) - want) <= 1e-5 * want):
        problems.append(f"|Jacobian| {abs_jacobian!r} vs {want!r} beyond 1e-5")
    if not (math.isfinite(float(rel_err)) and float(rel_err) <= 1e-5):
        problems.append(f"reported rel_err {rel_err!r} > 1e-5")
    return problems


def fenchel_nielsen_reference(a: float, b: float) -> tuple:
    """(length, twist, Delta) of the loop with trace 2 - ab, at 40 digits."""
    with mpmath.workdps(40):
        x, y = mpmath.mpf(a), mpmath.mpf(b)
        p = x * y
        delta = mpmath.sqrt((p - 2) ** 2 - 4)
        den = x + y - p
        plus = (2 * y - p + delta) / den
        minus = (2 * y - p - delta) / den
        return (float(2 * mpmath.acosh((p - 2) / 2)),
                float(mpmath.log(abs(plus / minus)) / 2), float(delta))


# ---------------------------------------------------------------------------
# the fundamental hexagon of the cone case

def _geodesic(u, v):
    """('vertical', x) or ('circle', center, radius) through two points of H u boundary."""
    def xy(z):
        if isinstance(z, complex):
            return z.real, z.imag
        return float(z), 0.0
    if math.isinf(abs(u)):
        return ("vertical", xy(v)[0])
    if math.isinf(abs(v)):
        return ("vertical", xy(u)[0])
    (ux, uy), (vx, vy) = xy(u), xy(v)
    if abs(ux - vx) <= 1e-13 * max(1.0, abs(ux), abs(vx)):
        return ("vertical", ux)
    center = (ux * ux + uy * uy - vx * vx - vy * vy) / (2.0 * (ux - vx))
    return ("circle", center, math.hypot(ux - center, uy))


def _signed_side(geo, z) -> float:
    if math.isinf(abs(z)):
        return 0.0 if geo[0] == "vertical" else 1.0
    if geo[0] == "vertical":
        return z.real - geo[1]
    return abs(z - geo[1]) - geo[2]


def _tangent(v: complex, u) -> complex:
    """Unit tangent at the interior point v of the geodesic from v toward u."""
    geo = _geodesic(v, u)
    if geo[0] == "vertical":
        u_imag = math.inf if math.isinf(abs(u)) else complex(u).imag
        return 1j if u_imag > v.imag else -1j
    center = geo[1]
    radial = v - center
    ccw = 1j * radial / abs(radial)
    # moving counterclockwise raises the argument of z - center
    phase_v = cmath.phase(radial)
    phase_u = cmath.phase(complex(u) - center)
    return ccw if phase_u > phase_v else -ccw


def check_polygon(triple, vertices, convex, side_pairings_ok, angle_sum) -> list:
    """The hexagon 0, A(z), 1, C^-1(z), inf, z of a cone-case point.

    Vertices against the oracle's own fixed point z of CBA; convexity by
    the side of every complete side geodesic; the pairings A(z) = v1,
    B(v1) = v3, C(v3) = z; the interior angles at the three finite vertices
    summing to theta = 2 acos(kappa/2).
    """
    a, b, c = (float(v) for v in triple)
    x = exact(triple)
    kappa = float(kappa_exact(x))
    theta = 2.0 * math.acos(kappa / 2.0)
    m = tuple(float(v) for v in cba_exact(triple))
    tr = m[0] + m[3]
    z = complex((m[0] - m[3]) / (2 * m[2]), abs(math.sqrt(4.0 - tr * tr) / (2 * m[2])))
    A = (1.0, 0.0, a, 1.0)
    B = (1.0 + b, -b, b, 1.0 - b)
    C = (1.0, -c, 0.0, 1.0)
    C_inv = (1.0, c, 0.0, 1.0)
    want = (0.0, mobius(A, z), 1.0, mobius(C_inv, z), math.inf, z)
    problems = []
    got = []
    for v in vertices:
        if isinstance(v, (list, tuple)):
            got.append(complex(v[0], v[1]))
        elif isinstance(v, str):
            got.append(math.inf)
        else:
            got.append(v)
    if len(got) != 6:
        return [f"{len(got)} vertices, a hexagon has 6"]
    scale = max(1.0, abs(z))
    for g, w in zip(got, want):
        if math.isinf(abs(w)) != math.isinf(abs(g)) or (
                not math.isinf(abs(w)) and abs(g - w) > 1e-9 * scale):
            problems.append(f"vertex {g!r}, oracle {w!r}")
            return problems
    oracle_convex = True
    for i in range(6):
        geo = _geodesic(want[i], want[(i + 1) % 6])
        sides = [_signed_side(geo, want[j]) for j in range(6) if j not in (i, (i + 1) % 6)]
        if max(sides) > 1e-9 and min(sides) < -1e-9:
            oracle_convex = False
    if bool(convex) != oracle_convex:
        problems.append(f"convex {convex}, oracle {oracle_convex}")
    pairings = max(abs(mobius(A, want[5]) - want[1]), abs(mobius(B, want[1]) - want[3]),
                   abs(mobius(C, want[3]) - want[5]))
    if bool(side_pairings_ok) != (pairings <= 1e-9 * scale):
        problems.append(f"side_pairings_ok {side_pairings_ok}, oracle residual {pairings:.3e}")
    oracle_sum = 0.0
    for i in (1, 3, 5):
        t_prev = _tangent(want[i], want[i - 1])
        t_next = _tangent(want[i], want[(i + 1) % 6])
        oracle_sum += abs(cmath.phase(t_next / t_prev))
    if oracle_convex and abs(oracle_sum - theta) > 1e-6:
        problems.append(f"oracle angle sum {oracle_sum!r} misses theta {theta!r}")
    if not rel_close(angle_sum, theta, 0.0, 1e-6):
        problems.append(f"angle sum {angle_sum!r}, theta {theta!r}")
    return problems


def self_check() -> bool:
    """The oracles agree with each other where their methods overlap.

    Exact and log-coordinate censuses of (3,3,3) at bound 30, the tree
    oracle against exact rationals at depth 4, and the volume closed form
    at its cusp anchor pi^2/2.  A benchmark whose oracles disagree cannot
    say whether the program is right, and reports ``correct: false``.
    """
    root = exact((3.0, 3.0, 3.0))
    exact_values = np.array(census_exact(root, 30.0))
    log_values = census_log([log_exact(v) for v in root], 30.0)
    if len(exact_values) != len(log_values) or np.max(np.abs(exact_values - log_values)) > 1e-9:
        return False
    oracle = TreeOracle((3.0, 3.0, 3.0), ("ab", "bc"), 4)
    level, want = [(root, BLOCKED[frozenset(("ab", "bc"))])], []
    for _ in range(4):
        nxt = []
        for x, excluded in level:
            for move in range(3):
                if move != excluded:
                    y = involution_exact(x, move)
                    want.append([log_exact(y[i] * y[j]) for i, j in SLOT_PAIRS])
                    nxt.append((y, move))
        level = nxt
    if np.max(np.abs(oracle.fvals - np.array(want))) > 1e-12:
        return False
    return abs(VolumeOracle().domain(2.0) - math.pi ** 2 / 2.0) <= 1e-15
