"""Seeded inputs for the three workloads.

A run is a sequence of cycles.  Each cycle has a fixed composition (the
same op kinds and sizes in the same order) and draws its numbers from its
own generator, seeded by (workload, seed, cycle index), so the same seed
always gives the same inputs and every cycle is reproducible on its own.
Fixed composition keeps the throughput and percentile figures comparable
between seeds; the seed moves the points, levels and bounds.

The inputs keep the edges where the program is known to be wrong: depth-15
trees and census bounds above f = 709 (float overflow), reduction energies
past 1e16 (cancellation in kappa), and kappa = -2 + 1e-12 and 1e300 in
every volume grid.  Nothing here is resized or re-drawn to avoid them.
"""

from __future__ import annotations

import random

from oracles import (
    LOG4,
    CensusOracle,
    bound_clear_of_values,
    energy_exact,
    exact,
    involution_exact,
    is_geometric_exact,
    kappa_exact,
)

WORKLOADS = ("cli_mix", "orbit_growth", "point_batch")

AUTOMORPHISMS = ("identity", "phi_alpha", "phi_beta", "phi_gamma")
# with twelve reductions, sixteen point queries (the reductions, the collar
# report, CBA, Darboux and the identity map) are cheaper than the middle group
# (three induced maps, the polygon, the census) and sixteen (the volumes) dearer,
# so op_p50_s lies in the middle of that group, not at the edge between two
# groups of different cost
ENERGY_LADDER = (1e2, 1e4, 1e6, 1e8, 1e12, 1e16, 1e20, 1e24, 1e28, 1e32, 1e40, 1e48)
KAPPA_LOW_EDGE = -2.0 + 1e-12
KAPPA_HIGH_EDGE = 1e300
TREE_DEPTH = 15
CLI_TREE_DEPTH = 10
CLI_CENSUS_VALUES = 60
POINT_CENSUS_VALUES = 9
# verify suites cheap enough for a CLI request; fibonacci_growth alone is ~12 s
VERIFY_SUITES = (
    "kappa_anchors", "involution_corollary", "group_action", "inequalities",
    "volume_anchor", "volume_family", "symplectic_structure", "reduction",
    "hyperbolization", "derivative_relation", "mobius_properties",
    "charvar_identities", "census_pruning", "locus_disjointness",
)


def tree_vertices(depth: int) -> int:
    """Vertices below the root of the binary orbit subtree: 2^(d+1) - 2."""
    return 2 ** (depth + 1) - 2


def fmt(value: float) -> str:
    """A float as a CLI token that parses back to the same double."""
    return repr(float(value))


def fmt_triple(values) -> str:
    return ",".join(fmt(v) for v in values)


# ---------------------------------------------------------------------------
# samplers

def sample_geometric(rng: random.Random, kappa_low: float = -1.99,
                     kappa_high: float = 4.0) -> tuple:
    """Point of the geometric component over the a, b > 1 branch, exact-checked."""
    while True:
        am1 = 10.0 ** rng.uniform(-0.7, 0.7)
        a = 1.0 + am1
        b = 1.0 + 1.0 / am1 + 10.0 ** rng.uniform(-1.0, 0.7)
        kappa = rng.uniform(kappa_low, kappa_high)
        c = (kappa - 2.0 + a * b) / (a * b - a - b)
        if is_geometric_exact(exact((a, b, c))):
            return (a, b, c)


def sample_domain(rng: random.Random, low: float = 2.05, high: float = 7.0) -> tuple:
    return tuple(rng.uniform(low, high) for _ in range(3))


def sample_domain_cone(rng: random.Random) -> tuple:
    """Fundamental-domain point with kappa in (-2, 2)."""
    while True:
        point = sample_domain(rng, 2.01, 4.0)
        if -2 < kappa_exact(exact(point)) < 2:
            return point


def push(rng: random.Random, start, target: float) -> tuple:
    """Walk a random reduced word away from a domain point until E = abc >= target.

    The walk is exact, so the returned floats are the rounding of a true
    orbit point; the rounded triple is the input, and the oracle judges it
    as the exact binary rational it is.  Returns (triple, word length).
    """
    x = exact(start)
    last, length = None, 0
    while energy_exact(x) < target:
        moves = [i for i in range(3) if i != last]
        rng.shuffle(moves)
        for move in moves:
            y = involution_exact(x, move)
            if energy_exact(y) > energy_exact(x):
                x, last = y, move
                length += 1
                break
        else:
            raise RuntimeError("no energy-increasing move")
    return tuple(float(v) for v in x), length


def kappa_grid(rng: random.Random) -> list:
    """Levels across the whole admissible range, both ends included."""
    return [
        KAPPA_LOW_EDGE,
        rng.uniform(-1.99, -1.0),
        rng.uniform(-1.0, 1.0),
        rng.uniform(1.0, 1.99),
        2.0,
        rng.uniform(2.01, 10.0),
        10.0 ** rng.uniform(1.0, 6.0),
        KAPPA_HIGH_EDGE,
    ]


# ---------------------------------------------------------------------------
# cycles

def _cli(command: str, argv: list, expect: int = 0, **params) -> dict:
    op = {"kind": "cli", "command": command, "argv": [command, *argv], "expect": expect,
          "vertices": 0, "census_values": 0}
    op.update(params)
    return op


def _cli_error(rng: random.Random, structured: bool) -> dict:
    """A request that must end in a structured error (exit 1) or a usage error (exit 2)."""
    if structured:
        variant = rng.randrange(4)
        if variant == 0:
            return _cli("classify", ["--triple=2,2,2"], 1, error_code="singular_point")
        if variant == 1:
            return _cli("volume", [f"--kappa={fmt(rng.uniform(-10.0, -2.5))}"], 1,
                        error_code="out_of_range")
        if variant == 2:
            triple = (rng.uniform(0.1, 0.9), rng.uniform(2.0, 5.0), rng.uniform(2.0, 5.0))
            return _cli("reduce", [f"--triple={fmt_triple(triple)}"], 1,
                        error_code="not_geometric")
        triple = sample_domain(rng, 4.5, 7.0)   # kappa > 2: no cone point
        return _cli("polygon", [f"--triple={fmt_triple(triple)}"], 1,
                    error_code="not_cone_case")
    variant = rng.randrange(4)
    if variant == 0:
        return _cli("classify", [f"--triple={fmt(rng.uniform(2, 5))},{fmt(rng.uniform(2, 5))}"], 2)
    if variant == 1:
        return _cli("tree", ["--root=3,3,3", "--depth=ten"], 2)
    if variant == 2:
        return _cli("verify", ["--suite=no_such_check"], 2)
    return _cli("volume", [], 2)


class Inputs:
    """Cycle generator for one workload and seed."""

    def __init__(self, workload: str, seed: int, census: CensusOracle):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.seed = seed
        self.census = census

    def cycle(self, index: int) -> list:
        make = getattr(self, "_" + self.workload)
        return make(random.Random(f"{self.workload}:{self.seed}:{index}"), index)

    def _first_values(self, root, count: int, search: float) -> tuple:
        """The bound that admits the first ``count`` census values of ``root``
        and how many values it admits (more than ``count`` only on ties), so a
        census keeps one size in every cycle while its root varies with the seed.
        ``search`` is a bound below which every root here has ``count`` values."""
        values = self.census.values(root, search)
        bound = bound_clear_of_values(values, float(values[count - 1]) + 1e-4)
        return bound, int((values <= bound).sum())

    def _census_op(self, root, bound: float) -> dict:
        values = self.census.values(root, bound)
        bound = bound_clear_of_values(values, bound)
        values = self.census.values(root, bound)
        return {"kind": "census", "root": tuple(root), "bound": bound,
                "census_values": len(values), "vertices": 0}

    def _cli_mix(self, rng: random.Random, index: int) -> list:
        """Eleven requests over all 8 subcommands, the last an error request (9% of the mix)."""
        if rng.random() < 0.5:
            classify_triple = sample_geometric(rng)
        else:
            classify_triple = tuple(rng.uniform(-3.0, 6.0) for _ in range(3))
        reduce_triple, reduce_len = push(rng, sample_domain(rng), 10.0 ** rng.uniform(2.0, 8.0))
        root = sample_domain(rng)
        edge = rng.choice((("ab", "bc"), ("ab", "ca"), ("bc", "ca")))
        bound, census_values = self._first_values(root, CLI_CENSUS_VALUES, 60.0)
        fn = sample_geometric(rng)
        while fn[0] * fn[1] <= 4.2:
            fn = sample_geometric(rng)
        suites = rng.sample(VERIFY_SUITES, 3)
        verify_seed = rng.randrange(10 ** 6)
        # the named automorphisms in turn, so four cycles request each of them once
        auto, image_of = AUTOMORPHISMS[index % len(AUTOMORPHISMS)], sample_geometric(rng)
        table, kappa = kappa_grid(rng), rng.uniform(-1.9, 10.0)
        # one end of the admissible range per cycle, as a single-level request
        edge_kappa = KAPPA_LOW_EDGE if index % 2 else KAPPA_HIGH_EDGE
        cone = sample_domain_cone(rng)
        return [
            _cli("classify", [f"--triple={fmt_triple(classify_triple)}"], triple=classify_triple),
            _cli("reduce", [f"--triple={fmt_triple(reduce_triple)}"], triple=reduce_triple,
                 vertices=reduce_len),
            _cli("induced", [f"--auto={auto}", f"--triple={fmt_triple(image_of)}"],
                 automorphism=auto, triple=image_of),
            _cli("tree", [f"--root={fmt_triple(root)}", f"--depth={CLI_TREE_DEPTH}",
                          f"--census={fmt(bound)}", f"--start-edge={edge[0]},{edge[1]}"],
                 root=root, edge=edge, depth=CLI_TREE_DEPTH, bound=bound,
                 vertices=tree_vertices(CLI_TREE_DEPTH),
                 census_values=census_values),
            _cli("volume", ["--table=" + ",".join(fmt(k) for k in table)], kappas=table),
            _cli("volume", [f"--kappa={fmt(kappa)}"], kappa=kappa),
            _cli("volume", [f"--kappa={fmt(edge_kappa)}"], kappa=edge_kappa),
            _cli("fncheck", [f"--point={fmt(fn[0])},{fmt(fn[1])}"], point=fn[:2]),
            _cli("polygon", [f"--triple={fmt_triple(cone)}"], triple=cone),
            _cli("verify", [f"--suite={','.join(suites)}", f"--seed={verify_seed}"],
                 suites=suites, seed=verify_seed),
            _cli_error(rng, structured=index % 2 == 0),
        ]

    def _orbit_growth(self, rng: random.Random, index: int) -> list:
        """Four depth-15 trees between three small censuses and one at bound ~1000.

        The trees take the middle of the latency distribution, so the median
        and the 75th percentile both land on tree tasks of one fixed size.
        """
        trees = [{"kind": "tree", "root": (3.0, 3.0, 3.0), "edge": ("ab", "bc"),
                  "depth": TREE_DEPTH, "vertices": tree_vertices(TREE_DEPTH), "census_values": 0}]
        for _ in range(3):
            trees.append({"kind": "tree", "root": sample_domain(rng),
                          "edge": rng.choice((("ab", "bc"), ("ab", "ca"), ("bc", "ca"))),
                          "depth": TREE_DEPTH, "vertices": tree_vertices(TREE_DEPTH),
                          "census_values": 0})
        markov = (3.0, 3.0, 3.0)
        return [
            self._census_op(sample_domain(rng), LOG4 + rng.uniform(0.05, 1.0)),
            self._census_op(markov, rng.uniform(5.0, 30.0)),
            self._census_op(markov, rng.uniform(30.0, 200.0)),
            *trees,
            self._census_op(markov, rng.uniform(990.0, 1000.0)),
        ]

    def _point_batch(self, rng: random.Random, index: int) -> list:
        """37 independent point queries; the kinds and their counts are fixed."""
        ops = []
        while True:
            cba = sample_geometric(rng)
            if abs(abs(float(kappa_exact(exact(cba)))) - 2.0) > 1e-6:
                break
        ops.append({"kind": "cba", "triple": cba})
        ops.append({"kind": "inequality", "triple": sample_geometric(rng)})
        for target in ENERGY_LADDER:
            triple, length = push(rng, sample_domain(rng), target * 10.0 ** rng.uniform(0.0, 1.0))
            ops.append({"kind": "reduce", "triple": triple, "vertices": length})
        point = sample_geometric(rng)
        for name in AUTOMORPHISMS:
            ops.append({"kind": "induced", "automorphism": name, "triple": point})
        ops.append({"kind": "polygon", "triple": sample_domain_cone(rng)})
        grid = kappa_grid(rng)
        ops.extend({"kind": "domain_volume", "kappa": k} for k in grid)
        ops.extend({"kind": "moduli_volume", "kappa": k} for k in grid)
        fn = sample_geometric(rng)
        while fn[0] * fn[1] <= 4.2:
            fn = sample_geometric(rng)
        ops.append({"kind": "darboux", "point": fn[:2]})
        root = sample_geometric(rng)
        ops.append(self._census_op(root, self._first_values(root, POINT_CENSUS_VALUES, 8.0)[0]))
        for op in ops:
            op.setdefault("vertices", 0)
            op.setdefault("census_values", 0)
        return ops

