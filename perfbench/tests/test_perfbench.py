"""Tests of the benchmark itself: inputs, oracles, failure counting, names.

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import re
import types
from pathlib import Path

import numpy as np
import pytest

import gen
import layers
import oracles as O
import run
from spans import Tracer
from workloads import Runner

ROOT = Path(__file__).resolve().parents[2]
MARKOV = (3.0, 3.0, 3.0)


@pytest.fixture(scope="module")
def runner():
    return Runner(ROOT, Tracer(enabled=False), O.CensusOracle())


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generator_is_deterministic_for_a_seed(workload):
    first = gen.Inputs(workload, 7, O.CensusOracle())
    again = gen.Inputs(workload, 7, O.CensusOracle())
    other = gen.Inputs(workload, 8, O.CensusOracle())
    for index in (0, 1):
        assert first.cycle(index) == again.cycle(index)
    assert first.cycle(0) != other.cycle(0)
    # cycle composition is fixed; only the numbers move with the seed
    assert [op["kind"] for op in first.cycle(0)] == [op["kind"] for op in other.cycle(0)]


def test_generator_keeps_the_known_defect_edges():
    inputs = gen.Inputs("point_batch", 3, O.CensusOracle())
    ops = inputs.cycle(0)
    kappas = {op["kappa"] for op in ops if op["kind"] == "domain_volume"}
    assert {gen.KAPPA_LOW_EDGE, gen.KAPPA_HIGH_EDGE} <= kappas
    energies = [O.energy_exact(O.exact(op["triple"])) for op in ops if op["kind"] == "reduce"]
    assert max(energies) > 1e40 and sum(e > 1e16 for e in energies) >= 5
    orbit = gen.Inputs("orbit_growth", 3, O.CensusOracle()).cycle(0)
    assert {op["depth"] for op in orbit if op["kind"] == "tree"} == {15}
    assert max(op["bound"] for op in orbit if op["kind"] == "census") > 709


@pytest.mark.parametrize("bound", [2.5, 10.0, 39.0, 45.0, 200.0, 700.0])
def test_census_oracle_matches_length_census_up_to_700(runner, bound):
    from conesphere import growth
    from conesphere.charvar import GeometricPoint

    rows = growth.length_census(GeometricPoint.from_coords(*MARKOV), bound)
    expected = runner.census.values(MARKOV, bound)
    assert len(expected) == sum(row.multiplicity for row in rows)
    assert O.check_census(expected, [(row.value, row.multiplicity) for row in rows]) == []


def test_exact_and_log_census_agree():
    assert O.self_check()


def _proc(stdout, returncode=0, stderr=""):
    return types.SimpleNamespace(returncode=returncode, stdout=stdout, stderr=stderr)


def test_corrupted_cli_document_counts_as_failed(runner):
    op = {"kind": "cli", "command": "volume", "argv": ["volume", "--kappa=1.0"], "expect": 0,
          "kappa": 1.0, "vertices": 0, "census_values": 0}
    record = runner.execute(op)
    assert record.problems == []
    _, proc, _ = runner._run_cli(op)
    document = json.loads(proc.stdout)

    assert runner._check_cli(op, _proc(proc.stdout), None) == []
    wrong = dict(document, value=document["value"] * (1 + 1e-6))
    assert runner._check_cli(op, _proc(json.dumps(wrong)), None)
    infinite = dict(document, value="inf")
    assert runner._check_cli(op, _proc(json.dumps(infinite)), None)
    not_a_number = dict(document, error_estimate=float("nan"))
    assert runner._check_cli(op, _proc(json.dumps(not_a_number)), None)
    assert runner._check_cli(op, _proc(proc.stdout, returncode=1), None)
    assert runner._check_cli(op, _proc("Traceback (most recent call last):", returncode=1), None)


def test_corrupted_values_count_as_failed(runner):
    good = types.SimpleNamespace(value=runner.volumes.domain(0.5),
                                 reference=runner.volumes.domain(0.5))
    op = {"kind": "domain_volume", "kappa": 0.5}
    assert runner._check_domain_volume(op, good, None) == []
    bad = types.SimpleNamespace(value=good.value + 1e-6, reference=good.reference)
    assert runner._check_domain_volume(op, bad, None)
    assert runner._check_domain_volume(op, None, ValueError("boom"))

    expected = runner.census.values(MARKOV, 20.0)
    rows = [(float(v), 1) for v in expected]
    assert O.check_census(expected, rows) == []
    assert O.check_census(expected, rows[:-1])
    assert O.check_census(expected, rows[:-1] + [(math.inf, 1)])

    oracle = O.TreeOracle(MARKOV, ("ab", "bc"), 6)
    fvals, defect, fe = oracle.fvals.copy(), oracle.defect.copy(), oracle.fe_norm.copy()
    assert oracle.check_vertices(fvals, defect, fe) == []
    fvals[17, 1] = math.nan
    assert oracle.check_vertices(fvals, defect, fe)
    assert oracle.check_report("normalized_Fe", oracle.vertices, float(oracle.defect.max()),
                               True, True) == []
    assert oracle.check_report("normalized_Fe", oracle.vertices - 1,
                               float(oracle.defect.max()), True, True)


def test_reduction_replay_rejects_a_wrong_endpoint():
    start = (1.5, 6.0, 6.0)
    assert run_reduction(start, ["Ia"], [3.0, 3.0, 3.0], [54.0, 27.0], 2.0) == []
    assert run_reduction(start, ["Ia"], [3.0, 3.0, 3.1], [54.0, 27.0], 2.0)
    assert run_reduction(start, ["Ib"], [3.0, 3.0, 3.0], [54.0, 27.0], 2.0)
    assert run_reduction(start, ["Ia"], [3.0, 3.0, 3.0], [54.0, 27.0], 2.5)


def run_reduction(start, word, end, energies, kappa):
    from workloads import check_reduction
    return check_reduction(start, word, end, energies, kappa, at_start=True)


# the names later changes quote their measurements by; a rename breaks that record
EXPECTED_END_TO_END = {"setup_s", "ops_per_s", "op_p50_s", "op_tail_s", "failed_ratio",
                    "peak_rss_mb", "vertices_per_s", "census_values_per_s"}
EXPECTED_PER_LAYER = {
    "cli.import_ms", "volume.import_ms", "growth.import_ms", "mcg.import_ms",
    "charvar.import_ms", "mobius.import_ms", "verify.import_ms",
    "cli.process_overhead_ms", "cli.run_inproc_ms", "cli.emit_json_us", "verify.run_suite_s",
    "growth.expand_tree_ns_per_vertex", "growth.bowditch_check_ns_per_vertex",
    "growth.tree_bytes_per_vertex", "growth.census_us_per_value", "growth.census_values",
    "growth.census_missing_values", "mcg.apply_involution_ns", "charvar.param_triple_ns",
    "mcg.reduce_to_domain_us", "mcg.reduce_steps", "mcg.reduce_failed", "mcg.induced_map_us",
    "charvar.matrices_from_triple_us", "charvar.inequality_report_us",
    "charvar.polygon_certificate_us", "mobius.classify_us", "mobius.fixed_points_us",
    "volume.domain_volume_us", "volume.moduli_volume_us", "volume.darboux_check_us",
    "volume.failed",
}


def test_metric_names_match_the_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]] + \
        [w["name"] for w in spec["workloads"]]
    assert all(name.match(n) for n in names)
    assert len(names) == len(set(names))
    assert {m["name"] for m in spec["end_to_end"]} == EXPECTED_END_TO_END
    assert {(m["name"], m["unit"]) for m in spec["end_to_end"]} == set(run.END_TO_END)
    assert [w["name"] for w in spec["workloads"]] == list(gen.WORKLOADS)
    per_layer = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert per_layer == [(n, u, b) for n, u, b, *_ in layers.SPEC]
    assert EXPECTED_PER_LAYER <= {m["name"] for m in spec["per_layer"]}
    # every timing metric has a call count next to it
    for n, unit, *_ in layers.SPEC:
        if unit in ("ns", "us", "ms", "s") and not n.endswith("self_s") and \
                not n.startswith("trace."):
            stem = n.split("_per_")[0].rsplit("_", 1)[0]
            assert stem + "_calls" in {m[0] for m in per_layer}, n


def test_attempted_and_failed_count_each_op_once_however_often_it_runs():
    from workloads import Record

    class Replay:
        def execute(self, op):
            return Record(op["kind"], 1e-6, ["wrong"] if op["bad"] else [], 0, 0)

    cycles = [[{"kind": "a", "bad": False}, {"kind": "b", "bad": True}],
              [{"kind": "a", "bad": True}]]
    once = run.run_cycles(Replay(), cycles, seconds=0.0)
    longer = run.run_cycles(Replay(), cycles, seconds=0.05)
    assert len(longer.latencies) > len(once.latencies) == 3
    for tally in (once, longer):
        assert (tally.attempted, tally.failed) == (3, 2)


def test_percentile_interpolates_like_numpy():
    values = sorted(np.random.default_rng(0).random(101).tolist())
    for p in (50, 75, 99):
        assert run.percentile(values, p) == pytest.approx(float(np.percentile(values, p)))
