"""The conesphere benchmark.

    python3 perfbench/run.py --workload cli_mix --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run from the root of a checkout.  Each workload is a closed loop with one
client: the next op starts when the previous one and its check are done.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` records spans
and prints the per-layer metrics instead, and writes the spans to
``.perfbench_out/``.  The last line of stdout is one JSON object:
``correct`` (every op was checked by its oracle and the oracles agree with
themselves), ``attempted`` and ``failed`` (ops whose output was wrong or
missing), and ``metrics``.  The lines above it are a human-readable table,
the provenance of the run and a sample of the failed ops.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

WORKLOADS = ("cli_mix", "orbit_growth", "point_batch")
# a run's inputs are this many cycles, drawn from the seed before the clock
# starts; the run executes each once and then replays them in turn until
# --seconds have passed.  attempted and failed count these distinct ops, so
# the same seed gives the same counts however fast the host is
CYCLES = {"cli_mix": 4, "orbit_growth": 5, "point_batch": 200}
# op_tail_s is this percentile of the op latencies; CYCLES keeps at least ten
# samples beyond it in every run
TAIL_PERCENTILE = {"cli_mix": 75, "orbit_growth": 75, "point_batch": 99}
# cycles run once untraced and once traced to measure the tracing overhead
OVERHEAD_CYCLES = {"cli_mix": 1, "orbit_growth": 1, "point_batch": 200}
SETUP_REPEATS = 3

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("failed_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
    ("vertices_per_s", "1/s"),
    ("census_values_per_s", "1/s"),
    ("setup_s", "s"),
)


def percentile(sorted_values, p: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    position = (len(sorted_values) - 1) * p / 100.0
    low = math.floor(position)
    high = min(low + 1, len(sorted_values) - 1)
    return sorted_values[low] + (sorted_values[high] - sorted_values[low]) * (position - low)


def provenance(workload: str, seed: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=False)
        commit = proc.stdout.strip() or commit

    def version(name):
        try:
            return metadata.version(name)
        except metadata.PackageNotFoundError:
            return "not installed"
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "loadavg_at_start": list(os.getloadavg()),
        "git_commit": commit,
    }


def measure_setup(env: dict) -> float:
    """Median wall time of a fresh interpreter importing conesphere and conesphere.cli.

    One untimed import first writes the bytecode caches, as an installed
    package would have them.
    """
    cmd = [sys.executable, "-c", "import conesphere, conesphere.cli"]
    times = []
    for attempt in range(SETUP_REPEATS + 1):
        start = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, check=True, timeout=120)
        if attempt:
            times.append(time.perf_counter() - start)
    return statistics.median(times)


class Tally:
    """What a run keeps of its ops: latencies and sums, not the ops themselves,
    so the benchmark's own memory does not grow with the number of ops.

    An op is the (cycle, position) it has in the run's inputs; it fails if
    any of its executions fails, and ``attempted`` counts each op once.
    """

    def __init__(self):
        self.latencies = array("d")
        self.passes = 0
        self.attempted = 0
        self.failed_ops = set()
        self.failed_by_kind = {}
        self.examples = {}
        self.vertices = 0
        self.census_values = 0

    @property
    def failed(self) -> int:
        return len(self.failed_ops)

    def add(self, key, record):
        self.latencies.append(record.latency)
        self.vertices += record.vertices
        self.census_values += record.census_values
        if record.problems and key not in self.failed_ops:
            self.failed_ops.add(key)
            self.failed_by_kind[record.kind] = self.failed_by_kind.get(record.kind, 0) + 1
            example = (record.kind, record.problems[0][:40])
            if len(self.examples) < 8 and example not in self.examples:
                self.examples[example] = f"{record.kind}: {'; '.join(record.problems)[:200]}"


def settle():
    """Collect, then freeze what survives out of the cyclic collector.

    The benchmark's own objects (inputs, oracle caches, the imported
    program) then stay out of every collection an op triggers, so an op's
    time does not grow with what the benchmark happens to hold.
    """
    gc.collect()
    gc.freeze()


def run_cycles(runner, cycles: list, seconds: float) -> Tally:
    """Every cycle once, then the cycles again in turn until ``seconds`` of wall time have passed."""
    tally = Tally()
    tally.attempted = sum(len(ops) for ops in cycles)
    start = time.perf_counter()
    index = 0
    while index < len(cycles) or time.perf_counter() - start < seconds:
        number = index % len(cycles)
        for position, op in enumerate(cycles[number]):
            tally.add((number, position), runner.execute(op))
        settle()
        index += 1
    tally.passes = index / len(cycles)
    return tally


def end_to_end(tally: Tally, workload: str, setup_s: float) -> dict:
    latencies = sorted(tally.latencies)
    busy = sum(latencies)
    who = resource.RUSAGE_CHILDREN if workload == "cli_mix" else resource.RUSAGE_SELF
    return {
        "ops_per_s": len(latencies) / busy,
        "op_p50_s": percentile(latencies, 50),
        "op_tail_s": percentile(latencies, TAIL_PERCENTILE[workload]),
        "failed_ratio": tally.failed / tally.attempted,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        "vertices_per_s": tally.vertices / busy,
        "census_values_per_s": tally.census_values / busy,
        "setup_s": setup_s,
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    from gen import Inputs
    from layers import compute, probe
    from oracles import CensusOracle, self_check
    from spans import Tracer
    from workloads import Runner, program_env

    env = program_env(ROOT)
    info = provenance(workload, seed)
    print("provenance " + json.dumps(info))
    setup_s = None if trace else measure_setup(env)

    tracer = Tracer(enabled=trace)
    census = CensusOracle()
    runner = Runner(ROOT, tracer, census)
    inputs = Inputs(workload, seed, census)
    cycles = [inputs.cycle(index) for index in range(CYCLES[workload])]
    if workload != "cli_mix" or trace:
        runner.cs   # import the program before the clock starts
    if workload != "cli_mix":
        # warm-up, not reported: a point-query cycle, or one tree (the first
        # depth-15 tree of a process is the slowest)
        warm_up = inputs.cycle(-1)
        if workload == "orbit_growth":
            warm_up = [op for op in warm_up if op["kind"] == "tree"][:1]
        tracer.enabled = False
        for op in warm_up:
            runner.execute(op)
        tracer.enabled = trace
    settle()

    tally = run_cycles(runner, cycles, seconds)
    ops = len(tally.latencies)
    print(f"workload {workload}: {len(cycles)} cycles of inputs, {tally.passes:.2f} passes, "
          f"{ops} executions")
    print(f"failed ops: {tally.failed} of {tally.attempted}  by kind: {tally.failed_by_kind}")
    for line in tally.examples.values():
        print("  " + line)

    if trace:
        probe(runner, tracer, seed)
        # the same cycles again, untraced then traced in turn, so drift hits both alike
        busy = {False: 0.0, True: 0.0}
        for index in range(OVERHEAD_CYCLES[workload]):
            for enabled in (False, True):
                settle()
                tracer.enabled = enabled
                busy[enabled] += sum(runner.execute(op).latency
                                     for op in cycles[index % len(cycles)])
        traced, untraced = busy[True], busy[False]
        metrics = compute(tracer, traced - untraced, 100.0 * (traced - untraced) / untraced)
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"trace-{workload}-seed{seed}.json"
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"provenance": info, "metrics": metrics, **tracer.dump()}, handle)
        print(f"spans: {len(tracer.spans)} written to {path.relative_to(ROOT)}")
    else:
        values = end_to_end(tally, workload, setup_s)
        metrics = {name: (values[name], unit) for name, unit in END_TO_END}
        p = TAIL_PERCENTILE[workload]
        beyond = sum(1 for x in tally.latencies if x > values["op_tail_s"])
        print(f"op_p50_s over {ops} samples; op_tail_s is p{p}, {beyond} samples beyond it")

    width = max(len(name) for name in metrics)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<{width}}  {value:>16.6g}  {unit}")
    return {
        "correct": self_check(),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def run_all(seed: int, seconds: float, trace: int) -> dict:
    """Every workload in its own interpreter, so each peak RSS is its own."""
    results = {}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
        lines = proc.stdout.rstrip("\n").splitlines()
        print(f"== {workload}")
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"workload {workload} exited with {proc.returncode}")
        results[workload] = json.loads(lines[-1])
    return {"workloads": results}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [p for p in ("src/conesphere/__init__.py", "src/conesphere/cli.py", "docs/schemas")
               if not (ROOT / p).exists()]
    if missing:
        sys.stderr.write(f"perfbench: {ROOT} is not a conesphere checkout "
                         f"(missing {', '.join(missing)})\n")
        return 2
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, args.trace)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
