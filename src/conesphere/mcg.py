"""Mapping-class dynamics on the (a, b, c) coordinates.

Three involutions generate a group isomorphic to Z/2 * Z/2 * Z/2:

    I_a: (a, b, c) -> (a/(a-1), b(a-1), c(a-1))
    I_b: (a, b, c) -> (a(b-1), b/(b-1), c(b-1))
    I_c: (a, b, c) -> (a(c-1), b(c-1), c/(c-1))

Each preserves kappa and fixes the plane where its pivot coordinate equals 2.
The region Delta = {min(a,b,c) > 2} is a fundamental domain for the action
on the geometric component; the energy E = abc strictly decreases under the
involution at a pivot in (1, 2), which drives the reduction algorithm.

The involutions are induced by free-group automorphisms that invert the
peripheral generators up to conjugation.  For any such automorphism the
induced coordinate map is computed from cross ratios of parabolic fixed
points: with p_x the fixed point of the image of x and F the Moebius map
sending (p_alpha, p_beta, p_gamma) to (0, 1, inf),

    a' = 1 / F(f(alpha)(p_gamma))
    b' = 1 / (F(f(beta)(p_gamma)) - 1)
    c' = -F(f(gamma)(p_alpha)).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .charvar import GeometricPoint, ParamTriple, matrices_from_triple
from .config import DEFAULT_TOLERANCES
from .errors import (
    CoincidentFixedPoints,
    MaxStepsExceeded,
    NonParabolicImage,
    NotGeometric,
    OutOfRange,
    PivotAtOne,
    UnsupportedAutomorphism,
    WordNotReduced,
)
from .mobius import INF, UnimodularMatrix, apply_mobius, chordal, is_infinite


class Involution(Enum):
    IA = "Ia"
    IB = "Ib"
    IC = "Ic"


PIVOT_INDEX = {Involution.IA: 0, Involution.IB: 1, Involution.IC: 2}
_BY_PIVOT_INDEX = tuple(PIVOT_INDEX)  # the involution that pivots on coordinate k

_POLE_TOL = DEFAULT_TOLERANCES.classification


def apply_involution(inv: Involution, p: ParamTriple) -> ParamTriple:
    """Apply one involution, exactly on Fractions; the pivot must not be 1 (the pole)."""
    a, b, c = p.as_tuple()
    pivot = (a, b, c)[PIVOT_INDEX[inv]]
    m = pivot - 1
    if abs(m) <= _POLE_TOL:
        raise PivotAtOne(f"{inv.value} pivot is 1 at {p.as_tuple()}", involution=inv.value)
    if inv is Involution.IA:
        return ParamTriple(a / m, b * m, c * m)
    if inv is Involution.IB:
        return ParamTriple(a * m, b / m, c * m)
    return ParamTriple(a * m, b * m, c / m)


@dataclass(frozen=True)
class InvolutionWord:
    """Reduced word in the three involutions; rightmost letter acts first."""

    letters: tuple

    def __post_init__(self):
        for left, right in zip(self.letters, self.letters[1:]):
            if left is right:
                raise WordNotReduced(
                    f"consecutive letters {left.value}{right.value} cancel"
                )

    def __len__(self):
        return len(self.letters)

    def names(self) -> list:
        return [letter.value for letter in self.letters]


def apply_word(word: InvolutionWord, p: ParamTriple) -> ParamTriple:
    """Apply a reduced word, rightmost letter first.

    A pivot hitting 1 raises PivotAtOne carrying the prefix applied so far.
    """
    current = p
    applied = []
    for letter in reversed(word.letters):
        try:
            current = apply_involution(letter, current)
        except PivotAtOne as exc:
            raise PivotAtOne(
                f"pivot reached 1 while applying {letter.value}",
                involution=letter.value,
                applied_prefix=[entry.value for entry in applied],
            ) from exc
        applied.append(letter)
    return current


def in_fundamental_domain(p: ParamTriple) -> bool:
    return min(p.as_tuple()) > 2.0


@dataclass(frozen=True)
class ReductionTrace:
    start: ParamTriple
    word: InvolutionWord
    end: ParamTriple
    energies: tuple  # E = abc along the trace, start included, strictly decreasing


def energy(p: ParamTriple) -> float:
    return p.a * p.b * p.c


def reduce_to_domain(p: GeometricPoint, max_steps: int = 500) -> ReductionTrace:
    """Greedy energy descent into the closure of Delta.

    While some coordinate is below 2, apply the involution at the smallest
    pivot in (1, 2): it multiplies the energy E = abc by pivot - 1 < 1, so
    it minimizes the resulting energy; equal pivots break in the order
    Ia < Ib < Ic.  Coordinates exactly equal to 2 are terminal.  Replaying
    the recorded word on the start point reproduces the endpoint.
    """
    current = p.triple
    moves = []
    energies = [energy(current)]
    steps = 0
    while min(current.as_tuple()) < 2.0:
        if steps >= max_steps:
            raise MaxStepsExceeded(
                f"no fundamental-domain representative within {max_steps} steps",
                start=p.as_tuple(), reached=current.as_tuple(),
            )
        coords = current.as_tuple()
        pivot = min((x for x in coords if 1.0 < x < 2.0), default=None)
        if pivot is None:
            raise NotGeometric(
                f"no pivot in (1, 2) at {coords}; point left the geometric component"
            )
        inv = _BY_PIVOT_INDEX[coords.index(pivot)]
        current = apply_involution(inv, current)
        moves.append(inv)
        energies.append(energy(current))
        steps += 1
    word = InvolutionWord(tuple(reversed(moves)))
    return ReductionTrace(p.triple, word, current, tuple(energies))


_LETTERS = set("abcABC")


def _reduce_letters(letters: str) -> str:
    stack = []
    for ch in letters:
        if ch not in _LETTERS:
            raise ValueError(f"invalid letter {ch!r}")
        if stack and stack[-1] == ch.swapcase():
            stack.pop()
        else:
            stack.append(ch)
    return "".join(stack)


@dataclass(frozen=True)
class FreeWord:
    """Freely reduced word over alpha, beta, gamma; uppercase marks inverses."""

    letters: str

    def __post_init__(self):
        object.__setattr__(self, "letters", _reduce_letters(self.letters))

    def conjugator_and_core(self) -> tuple:
        """Split w g^+-1 w^-1 into (w, g^+-1); raises if not of that shape."""
        n = len(self.letters)
        if n % 2 == 0:
            raise UnsupportedAutomorphism(
                f"image {self.letters!r} is not a conjugate of a generator"
            )
        half = n // 2
        for i in range(half):
            if self.letters[i] != self.letters[n - 1 - i].swapcase():
                raise UnsupportedAutomorphism(
                    f"image {self.letters!r} is not a conjugate of a generator"
                )
        return self.letters[:half], self.letters[half]

    def matrix(self, mats) -> UnimodularMatrix:
        """Evaluate under the representation, left to right."""
        table = {
            "a": mats.A, "b": mats.B, "c": mats.C,
            "A": mats.A.inverse(), "B": mats.B.inverse(), "C": mats.C.inverse(),
        }
        result = UnimodularMatrix.identity()
        for ch in self.letters:
            result = result @ table[ch]
        return result


@dataclass(frozen=True)
class Automorphism:
    """Peripherality-preserving automorphism: each generator maps to a
    conjugate of a generator or of its inverse (so the image matrices stay
    parabolic and the cross-ratio construction applies)."""

    image_alpha: FreeWord
    image_beta: FreeWord
    image_gamma: FreeWord

    def __post_init__(self):
        for image in (self.image_alpha, self.image_beta, self.image_gamma):
            image.conjugator_and_core()

    def images(self) -> tuple:
        return (self.image_alpha, self.image_beta, self.image_gamma)


IDENTITY_AUTOMORPHISM = Automorphism(FreeWord("a"), FreeWord("b"), FreeWord("c"))

# The reflections inverting the peripheral structure at each pivot.  phi_beta
# is the defining instance; phi_alpha and phi_gamma follow by the coordinate
# role symmetry of kappa and are certified against the closed forms in tests.
PHI_BETA = Automorphism(FreeWord("A"), FreeWord("ABa"), FreeWord("ABCba"))
PHI_ALPHA = Automorphism(FreeWord("CAc"), FreeWord("CABac"), FreeWord("C"))
PHI_GAMMA = Automorphism(FreeWord("BCAcb"), FreeWord("B"), FreeWord("BCb"))

NAMED_AUTOMORPHISMS = {
    "identity": IDENTITY_AUTOMORPHISM,
    "phi_alpha": PHI_ALPHA,
    "phi_beta": PHI_BETA,
    "phi_gamma": PHI_GAMMA,
}

_BASE_FIXED_POINT = {"a": 0.0, "b": 1.0, "c": INF}


def _image_fixed_point(image: FreeWord, mats) -> float:
    # equivariance: the fixed point of w g w^-1 is w applied to the fixed
    # point of g; evaluating the conjugator directly avoids extracting a
    # nearly-parabolic fixed point from a large product matrix
    prefix, core = image.conjugator_and_core()
    base = _BASE_FIXED_POINT[core.lower()]
    if not prefix:
        return base
    return apply_mobius(FreeWord(prefix).matrix(mats), base)


def _cross_ratio_map(x, pa, pb, pc):
    """Value at x of the Moebius map sending (pa, pb, pc) to (0, 1, inf)."""
    if is_infinite(pc):
        return INF if is_infinite(x) else (x - pa) / (pb - pa)
    if is_infinite(pa):
        if is_infinite(x):
            return 0.0
        return INF if x == pc else (pb - pc) / (x - pc)
    if is_infinite(pb):
        if is_infinite(x):
            return 1.0
        return INF if x == pc else (x - pa) / (x - pc)
    if is_infinite(x):
        return (pb - pc) / (pb - pa)
    if x == pc:
        return INF
    return ((x - pa) / (x - pc)) * ((pb - pc) / (pb - pa))


def induced_map(f: Automorphism, p: ParamTriple,
                tol: float = DEFAULT_TOLERANCES.classification) -> ParamTriple:
    """Coordinates of the representation precomposed with the automorphism."""
    mats = matrices_from_triple(p)
    image_mats = [image.matrix(mats) for image in f.images()]
    for image, mat in zip(f.images(), image_mats):
        if abs(abs(mat.trace) - 2.0) > tol * mat.entry_scale():
            raise NonParabolicImage(
                f"image {image.letters!r} has trace {mat.trace!r}", trace=mat.trace
            )
    pa, pb, pc = (_image_fixed_point(image, mats) for image in f.images())
    pairs = ((pa, pb), (pb, pc), (pa, pc))
    if min(chordal(u, v) for u, v in pairs) <= tol:
        raise CoincidentFixedPoints(
            f"image fixed points {pa, pb, pc} are not pairwise distinct"
        )
    fa, fb, fc = image_mats
    value_a = _cross_ratio_map(apply_mobius(fa, pc), pa, pb, pc)
    value_b = _cross_ratio_map(apply_mobius(fb, pc), pa, pb, pc)
    value_c = _cross_ratio_map(apply_mobius(fc, pa), pa, pb, pc)
    if is_infinite(value_a) or value_a == 0.0 or is_infinite(value_b) or value_b == 1.0 \
            or is_infinite(value_c):
        raise CoincidentFixedPoints("cross-ratio values degenerate for this input")
    return ParamTriple(1.0 / value_a, 1.0 / (value_b - 1.0), -value_c)


@dataclass(frozen=True)
class FixedLocusCurve:
    plane_axis: str        # coordinate held at 2
    equation: str
    samples: tuple = field(repr=False)


@dataclass(frozen=True)
class FixedLocusReport:
    kappa: float
    planes: tuple
    kind: str                      # "hyperbolae" or "concurrent_lines"
    curves: tuple
    pairwise_disjoint: bool | None
    concurrency_point: tuple | None


def fixed_locus_report(kappa: float, samples_per_curve: int = 1000) -> FixedLocusReport:
    """Fixed loci of the involutions inside the level set of kappa.

    For kappa > -2 the plane {c = 2} meets the level set in the hyperbola
    (a - 2)(b - 2) = kappa + 2 (and cyclically); the three hyperbolae are
    pairwise disjoint because each lies in a plane that is an asymptote of
    the others.  The disjointness certificate samples points on each curve
    and checks the other two plane equations fail.  At kappa = -2 the loci
    are the lines {b = c = 2}, {a = c = 2}, {a = b = 2}, concurrent at the
    singular point (2, 2, 2).
    """
    if kappa < -2.0:
        raise OutOfRange(f"kappa = {kappa!r} < -2", reason="below_range", kappa=kappa)
    planes = ("a", "b", "c")
    if kappa == -2.0:
        lines = tuple(
            FixedLocusCurve(axis, f"{axis} free, other coordinates = 2",
                            tuple(_line_samples(axis)))
            for axis in planes
        )
        return FixedLocusReport(kappa, planes, "concurrent_lines", lines,
                                None, (2.0, 2.0, 2.0))
    level = kappa + 2.0
    curves = []
    disjoint = True
    for axis in planes:
        samples = tuple(_hyperbola_samples(axis, level, samples_per_curve))
        others = [variable for variable in planes if variable != axis]
        names = "".join(others)
        curves.append(FixedLocusCurve(
            axis, f"({names[0]} - 2)({names[1]} - 2) = {level!r} in the plane {axis} = 2",
            samples,
        ))
        index = {"a": 0, "b": 1, "c": 2}
        for triple in samples:
            for other in others:
                if abs(triple[index[other]] - 2.0) <= 1e-9:
                    disjoint = False
    return FixedLocusReport(kappa, planes, "hyperbolae", tuple(curves), disjoint, None)


def _hyperbola_samples(axis: str, level: float, count: int):
    # branch with both free coordinates above 2, parametrized by t > 0
    for i in range(count):
        t = 10.0 ** (-2.0 + 4.0 * i / max(1, count - 1))
        u, v = 2.0 + t, 2.0 + level / t
        if axis == "a":
            yield (2.0, u, v)
        elif axis == "b":
            yield (u, 2.0, v)
        else:
            yield (u, v, 2.0)


def _line_samples(axis: str, count: int = 16):
    for i in range(count):
        t = 2.0 + i * 0.5
        if axis == "a":
            yield (t, 2.0, 2.0)
        elif axis == "b":
            yield (2.0, t, 2.0)
        else:
            yield (2.0, 2.0, t)
