"""Per-layer metrics of the traced run.

The traced run records spans around the workload's own calls and then
runs a short probe that calls every layer once more, so each metric below
is measured on every workload: import times in fresh interpreters, three
CLI requests, one point-query cycle, a verify suite, a depth-10 tree, a
small census, and batches of the two calls too small to time one by one.
Spans from the workload and from the probe add up under the same name.
"""

from __future__ import annotations

import random
import subprocess
import sys
import tracemalloc

import gen

IMPORT_MODULES = ("cli", "volume", "growth", "mcg", "charvar", "mobius", "verify")
SELF_LAYERS = ("mobius", "charvar", "mcg", "growth", "volume", "verify", "cli", "bench")
IMPORT_RUNS = 3
MICRO_CALLS = 20_000

# (metric, unit, better, source, how, scale); "how" reads the source totals
# [seconds, calls, work]: per_call = seconds/calls, per_work = seconds/work,
# value_per_work = recorded value/work, calls and work as counts
_TIMED = [
    ("cli.process_overhead_ms", "ms", "cli.process_overhead", 1e3),
    ("cli.run_inproc_ms", "ms", "cli.run", 1e3),
    ("cli.emit_json_us", "us", "cli.emit_json", 1e6),
    ("verify.run_suite_s", "s", "verify.run_suite", 1.0),
    ("mcg.apply_involution_ns", "ns", "mcg.apply_involution", 1e9),
    ("charvar.param_triple_ns", "ns", "charvar.ParamTriple", 1e9),
    ("mcg.reduce_to_domain_us", "us", "mcg.reduce_to_domain", 1e6),
    ("mcg.induced_map_us", "us", "mcg.induced_map", 1e6),
    ("charvar.matrices_from_triple_us", "us", "charvar.matrices_from_triple", 1e6),
    ("charvar.inequality_report_us", "us", "charvar.inequality_report", 1e6),
    ("charvar.polygon_certificate_us", "us", "charvar.polygon_certificate", 1e6),
    ("mobius.classify_us", "us", "mobius.classify", 1e6),
    ("mobius.fixed_points_us", "us", "mobius.fixed_points", 1e6),
    ("volume.domain_volume_us", "us", "volume.domain_volume", 1e6),
    ("volume.moduli_volume_us", "us", "volume.moduli_volume", 1e6),
    ("volume.darboux_check_us", "us", "volume.darboux_check", 1e6),
]


def _calls_name(metric: str) -> str:
    return metric.rsplit("_", 1)[0] + "_calls"


SPEC = (
    [(f"{m}.import_ms", "ms", "lower", f"{m}.import", "per_call", 1e3) for m in IMPORT_MODULES]
    + [(f"{m}.import_calls", "count", "higher", f"{m}.import", "calls", 1) for m in IMPORT_MODULES]
    + [spec for name, unit, source, scale in _TIMED for spec in (
        (name, unit, "lower", source, "per_call", scale),
        (_calls_name(name), "count", "higher", source, "calls", 1))]
    + [
        ("growth.expand_tree_ns_per_vertex", "ns", "lower", "growth.expand_tree", "per_work", 1e9),
        ("growth.expand_tree_calls", "count", "higher", "growth.expand_tree", "calls", 1),
        ("growth.bowditch_check_ns_per_vertex", "ns", "lower", "growth.bowditch_check",
         "per_work", 1e9),
        ("growth.bowditch_check_calls", "count", "higher", "growth.bowditch_check", "calls", 1),
        ("growth.tree_bytes_per_vertex", "B", "lower", "growth.tree_bytes", "value_per_work", 1),
        ("growth.census_us_per_value", "us", "lower", "growth.length_census", "per_work", 1e6),
        ("growth.census_calls", "count", "higher", "growth.length_census", "calls", 1),
        ("growth.census_values", "count", "higher", "growth.length_census", "work", 1),
        ("growth.census_missing_values", "count", "lower", "growth.census_missing", "work", 1),
        ("mcg.reduce_steps", "count", "lower", "mcg.reduce_to_domain", "work", 1),
        ("mcg.reduce_failed", "count", "lower", "mcg.reduce_failed", "work", 1),
        ("volume.failed", "count", "lower", "volume.failed", "work", 1),
    ]
    + [(f"{layer}.self_s", "s", "lower", layer, "self", 1) for layer in SELF_LAYERS]
    + [
        ("trace.overhead_s", "s", "lower", None, "overhead", 1),
        ("trace.overhead_pct", "%", "lower", None, "overhead_pct", 1),
        ("trace.spans", "count", "higher", None, "spans", 1),
    ]
)


def compute(tracer, overhead_s: float, overhead_pct: float) -> dict:
    """metric -> (value, unit) for every entry of SPEC."""
    totals = tracer.totals()
    own = tracer.self_seconds()
    out = {}
    for name, unit, _, source, how, scale in SPEC:
        seconds, calls, work = totals.get(source, (0.0, 0, 0))
        if how == "per_call":
            value = seconds / calls * scale
        elif how == "per_work":
            value = seconds / work * scale
        elif how == "value_per_work":
            value = seconds / work
        elif how == "calls":
            value = calls
        elif how == "work":
            value = work
        elif how == "self":
            value = own.get(source, 0.0)
        elif how == "overhead":
            value = overhead_s
        elif how == "overhead_pct":
            value = overhead_pct
        else:
            value = len(tracer.spans)
        out[name] = (value, unit)
    return out


def _import_times(runner, tracer):
    """Cumulative import time of each module in a fresh interpreter (-X importtime)."""
    wanted = {f"conesphere.{m}": m for m in IMPORT_MODULES}
    cmd = [sys.executable, "-X", "importtime", "-c", "import conesphere.cli"]
    for _ in range(IMPORT_RUNS):
        proc = subprocess.run(cmd, cwd=runner.root, env=runner.env, capture_output=True,
                              text=True, timeout=120, check=True)
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in wanted:
                cumulative_us = float(parts[1])
                tracer.record(f"{wanted[parts[2].strip()]}.import", cumulative_us * 1e-6)


def probe(runner, tracer, seed: int):
    """Call every layer once, so every per-layer metric exists on every workload."""
    _import_times(runner, tracer)
    cs = runner.cs
    census = runner.census
    cli_ops = gen.Inputs("cli_mix", seed, census).cycle(0)
    for op in cli_ops:
        if op["expect"] == 0 and (op["command"] in ("classify", "tree")
                                  or op["argv"][1].startswith("--kappa=")):
            runner.execute(op)
    for op in gen.Inputs("point_batch", seed, census).cycle(0):
        runner.execute(op)
    with tracer.span("verify.run_suite"):
        cs.verify.run_suite(list(gen.VERIFY_SUITES[:3]), seed=seed)
    runner.execute({"kind": "tree", "root": (3.0, 3.0, 3.0), "edge": ("ab", "bc"), "depth": 10,
                    "vertices": gen.tree_vertices(10), "census_values": 0})
    runner.execute({"kind": "census", "root": (3.0, 3.0, 3.0), "bound": 20.0, "vertices": 0,
                    "census_values": len(census.values((3.0, 3.0, 3.0), 20.0))})

    # bytes per vertex, from a tree built under tracemalloc and never timed
    point = cs.charvar.GeometricPoint.from_coords(3.0, 3.0, 3.0)
    tracemalloc.start()
    try:
        tree = cs.growth.expand_tree(point, ("ab", "bc"), 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    del tree
    tracer.record("growth.tree_bytes", float(peak), calls=1, work=gen.tree_vertices(12))

    rng = random.Random(f"probe:{seed}")
    coords = [gen.sample_domain(rng) for _ in range(100)]
    triples = [cs.charvar.ParamTriple(*c) for c in coords]
    moves = list(cs.mcg.Involution)
    apply_involution, param_triple = cs.mcg.apply_involution, cs.charvar.ParamTriple
    with tracer.span("mcg.apply_involution", calls=MICRO_CALLS):
        for i in range(MICRO_CALLS):
            apply_involution(moves[i % 3], triples[i % 100])
    with tracer.span("charvar.ParamTriple", calls=MICRO_CALLS):
        for i in range(MICRO_CALLS):
            param_triple(*coords[i % 100])
