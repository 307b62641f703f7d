"""Running and checking ops.

An op's latency covers only calls into the program: building its
arguments through the public API, the calls themselves, and for CLI
requests the whole subprocess.  Every check runs after the clock stops.
A problem list that is not empty marks the op as failed: an exception, a
wrong exit code, a non-finite number in a document, or a disagreement
with an oracle.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import time
import types
from pathlib import Path

import jsonschema
import numpy as np

import oracles as O

REQUEST_TIMEOUT_S = 60


class Record:
    __slots__ = ("kind", "latency", "problems", "vertices", "census_values")

    def __init__(self, kind, latency, problems, vertices, census_values):
        self.kind = kind
        self.latency = latency
        self.problems = problems
        self.vertices = vertices
        self.census_values = census_values


def program_env(root: Path) -> dict:
    """Environment for program subprocesses: the checkout's src/, no config file."""
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "CONESPHERE_CONFIG")}
    env["PYTHONPATH"] = str(root / "src")
    return env


def _nonfinite(document, path="$") -> list:
    """Non-finite floats anywhere, and 'nan' strings, which no schema admits as a value."""
    if isinstance(document, float):
        return [] if math.isfinite(document) else [f"non-finite number at {path}"]
    if isinstance(document, str):
        return [f"'{document}' at {path}"] if document.lower() in ("nan", "-nan") else []
    if isinstance(document, dict):
        return [p for k, v in document.items() for p in _nonfinite(v, f"{path}.{k}")]
    if isinstance(document, list):
        return [p for i, v in enumerate(document) for p in _nonfinite(v, f"{path}[{i}]")]
    return []


class Runner:
    """Executes ops against the program in the checkout at ``root``."""

    def __init__(self, root: Path, tracer, census: O.CensusOracle):
        self.root = root
        self.tracer = tracer
        self.census = census
        self.volumes = O.VolumeOracle()
        self.env = program_env(root)
        self._validators = {}
        self._cs = None

    @property
    def cs(self):
        """The program's modules, imported on first use (cli_mix runs without them)."""
        if self._cs is None:
            src = str(self.root / "src")
            if src not in sys.path:
                sys.path.insert(0, src)
            from conesphere import charvar, cli, errors, growth, mcg, mobius, verify, volume
            self._cs = types.SimpleNamespace(charvar=charvar, cli=cli, errors=errors,
                                             growth=growth, mcg=mcg, mobius=mobius,
                                             verify=verify, volume=volume)
        return self._cs

    def execute(self, op: dict) -> Record:
        handler = getattr(self, "_run_" + op["kind"])
        with self.tracer.op(op["kind"]):
            latency, outcome, error = handler(op)
        problems = getattr(self, "_check_" + op["kind"])(op, outcome, error)
        return Record(op["kind"], latency, problems, op["vertices"], op["census_values"])

    # ------------------------------------------------------------------
    # CLI requests

    def _run_cli(self, op):
        cmd = [sys.executable, "-m", "conesphere.cli", *op["argv"]]
        with self.tracer.span("cli.request"):
            start = time.perf_counter()
            try:
                proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True,
                                      text=True, timeout=REQUEST_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc = types.SimpleNamespace(returncode=None, stdout="",
                                             stderr=f"no answer within {REQUEST_TIMEOUT_S} s")
            latency = time.perf_counter() - start
        if self.tracer.enabled:
            self._trace_cli(op, proc, latency)
        return latency, proc, None

    def _trace_cli(self, op, proc, latency):
        """Traced run only: the same argv in-process, the serializer, the suite."""
        cli = self.cs.cli
        out, err = io.StringIO(), io.StringIO()
        with self.tracer.span("cli.run"):
            start = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    cli.run(op["argv"][:])
                except SystemExit:
                    pass
            inproc = time.perf_counter() - start
        self.tracer.record("cli.process_overhead", latency - inproc)
        if proc.returncode != 2 and proc.stdout.strip():
            try:
                document = json.loads(proc.stdout)
            except ValueError:
                document = None
            if document is not None:
                with self.tracer.span("cli.emit_json"):
                    cli.emit_json(document)
        if op["command"] == "verify" and op["expect"] == 0:
            with self.tracer.span("verify.run_suite"):
                self.cs.verify.run_suite(op["suites"], seed=op["seed"])

    def _validator(self, name: str):
        if name not in self._validators:
            path = self.root / "docs" / "schemas" / f"{name}.schema.json"
            schema = json.loads(path.read_text(encoding="utf-8"))
            self._validators[name] = jsonschema.Draft7Validator(schema)
        return self._validators[name]

    def _check_cli(self, op, proc, error):
        problems = []
        if proc.returncode != op["expect"]:
            problems.append(f"exit {proc.returncode}, expected {op['expect']}")
            if proc.stderr.strip():
                problems.append("stderr: " + proc.stderr.strip().splitlines()[-1][:160])
        if op["expect"] == 2:
            if proc.stdout.strip():
                problems.append("usage error printed a document")
            if "error" not in proc.stderr:
                problems.append("usage error without a message")
            return problems
        try:
            document = json.loads(proc.stdout)
        except ValueError:
            return problems + ["stdout is not one JSON document"]
        problems += _nonfinite(document)
        schema = "error" if op["expect"] == 1 else op["command"]
        errors = list(self._validator(schema).iter_errors(document))
        if errors:
            worst = jsonschema.exceptions.best_match(errors)
            problems.append(f"schema: at {worst.json_path}: {worst.message[:100]}")
        if problems:
            return problems
        if op["expect"] == 1:
            if document["error"]["code"] != op["error_code"]:
                problems.append(f"error code {document['error']['code']}, expected {op['error_code']}")
            return problems
        return problems + getattr(self, "_doc_" + op["command"])(op, document)

    def _doc_classify(self, op, doc):
        x = O.exact(op["triple"])
        a, b, c = x
        kappa = float(O.kappa_exact(x))
        problems = []
        if doc["triple"] != list(op["triple"]):
            problems.append("triple not echoed")
        if abs(doc["kappa"] - kappa) > 1e-12 * O.kappa_scale(x):
            problems.append(f"kappa {doc['kappa']!r}, exact {kappa!r}")
        boundary = doc["boundary"]
        if abs(kappa - 2.0) <= 1e-9:
            want = ("Cusp", None, None)
        elif kappa > 2.0:
            want = ("GeodesicBoundary", None, 2.0 * math.acosh(kappa / 2.0))
        elif kappa > -2.0:
            want = ("ConePoint", 2.0 * math.acos(kappa / 2.0), None)
        else:
            want = ("OutOfRange", None, None)
        if boundary["kind"] != want[0]:
            problems.append(f"boundary {boundary['kind']}, oracle {want[0]}")
        for key, value in (("angle", want[1]), ("length", want[2])):
            if value is not None and not O.rel_close(boundary.get(key), value, 1e-7):
                problems.append(f"boundary {key} {boundary.get(key)!r}, oracle {value!r}")
        den = a * b - a - b
        component = "Neg" if den < 0 else ("PosBranchGT1" if a > 1 else "PosBranchLTm1")
        if doc["component"] != component:
            problems.append(f"component {doc['component']}, oracle {component}")
        geometric = O.is_geometric_exact(x)
        if doc["geometric"] != geometric:
            problems.append(f"geometric {doc['geometric']}, oracle {geometric}")
        elif geometric:
            q = doc["inequalities"]
            problems += O.check_inequalities(op["triple"], q["products"], q["collar_lhs"],
                                             q["collar_rhs"], q["conecollar_lhs"],
                                             q["conecollar_rhs"], q["all_pass"])
        elif doc["inequalities"] is not None:
            problems.append("inequalities reported off the geometric component")
        return problems

    def _doc_reduce(self, op, doc):
        problems = [] if doc["start"] == list(op["triple"]) else ["start not echoed"]
        return problems + check_reduction(op["triple"], doc["word"], doc["end"],
                                          doc["energies"], doc["kappa"], at_start=True)

    def _doc_induced(self, op, doc):
        problems = O.check_image(op["triple"], op["automorphism"], doc["image"])
        if doc["kappa_preserved"] is not True:
            problems.append("kappa_preserved is not true")
        if op["automorphism"] == "identity":
            if doc["closed_form"] is not None or doc["matches_closed_form"] is not None:
                problems.append("identity reported a closed form")
        else:
            problems += O.check_image(op["triple"], op["automorphism"], doc["closed_form"])
            if doc["matches_closed_form"] is not True:
                problems.append("matches_closed_form is not true")
        return problems

    def _doc_tree(self, op, doc):
        oracle = O.TreeOracle(op["root"], op["edge"], op["depth"])
        problems = []
        modes = [report["mode"] for report in doc["reports"]]
        if modes != ["normalized_Fe", "value_Fe"]:
            problems.append(f"report modes {modes}")
        for report in doc["reports"]:
            problems += oracle.check_report(report["mode"], report["nodes_checked"],
                                            report["defect_max"], report["bowditch_ok"],
                                            report["lower_bound_ok"])
        expected = self.census.values(op["root"], op["bound"])
        rows = [(row["value"], row["multiplicity"]) for row in doc["census"] or []]
        return problems + O.check_census(expected, rows)

    def _doc_volume(self, op, doc):
        problems = []
        if "rows" in doc:
            if [row["kappa"] for row in doc["rows"]] != list(op["kappas"]):
                return ["table rows do not follow the requested levels"]
            for row in doc["rows"]:
                k = row["kappa"]
                problems += [f"kappa {k!r}: {p}" for p in
                             O.check_volume(self.volumes.domain(k), row["value"], row["reference"])]
                if abs(k - 2.0) <= 1e-12:
                    kind, measure = "theta", 0.0
                elif k < 2.0:
                    kind, measure = "theta", 2.0 * math.acos(k / 2.0)
                else:
                    kind, measure = "l_delta", 2.0 * math.acosh(k / 2.0)
                if row["boundary_kind"] != kind or not O.rel_close(row["boundary_measure"], measure, 1e-9):
                    problems.append(f"kappa {k!r}: boundary {row['boundary_kind']} "
                                    f"{row['boundary_measure']!r}, oracle {kind} {measure!r}")
            return problems
        k = op["kappa"]
        want = self.volumes.domain(k)
        problems += O.check_volume(want, doc["value"], doc["reference"])
        problems += O.check_volume(4.0 * want, doc["moduli_value"], doc["moduli_reference"])
        return problems

    def _doc_fncheck(self, op, doc):
        a, b = op["point"]
        length, twist, delta = O.fenchel_nielsen_reference(a, b)
        problems = []
        for key, want in (("length", length), ("twist", twist), ("Delta", delta)):
            if not O.rel_close(doc[key], want, 1e-9, 1e-9):
                problems.append(f"{key} {doc[key]!r}, closed form {want!r}")
        d = doc["darboux"]
        return problems + O.check_darboux(a, b, d["abs_jacobian"], d["reference"], d["rel_err"])

    def _doc_polygon(self, op, doc):
        kappa = float(O.kappa_exact(O.exact(op["triple"])))
        problems = O.check_polygon(op["triple"], doc["vertices"], doc["convex"],
                                   doc["side_pairings_ok"], doc["angle_sum"])
        if not O.rel_close(doc["theta"], 2.0 * math.acos(kappa / 2.0), 1e-9):
            problems.append(f"theta {doc['theta']!r}")
        if doc["angle_sum_matches_theta"] is not True:
            problems.append("angle_sum_matches_theta is not true")
        return problems

    def _doc_verify(self, op, doc):
        problems = []
        if [r["name"] for r in doc["results"]] != list(op["suites"]) or doc["seed"] != op["seed"]:
            problems.append("suites or seed not echoed")
        problems += [f"check {r['name']} failed: {r['detail'][:100]}"
                     for r in doc["results"] if r["passed"] is not True]
        if doc["all_passed"] is not True:
            problems.append("all_passed is not true")
        return problems

    # ------------------------------------------------------------------
    # in-process ops

    def _timed(self, body):
        start = time.perf_counter()
        try:
            outcome, error = body(), None
        except Exception as exc:   # an exception is the op's outcome, checked below
            outcome, error = None, exc
        return time.perf_counter() - start, outcome, error

    def _run_tree(self, op):
        cs, span, n = self.cs, self.tracer.span, op["vertices"]

        def body():
            point = cs.charvar.GeometricPoint.from_coords(*op["root"])
            with span("growth.expand_tree", work=n):
                tree = cs.growth.expand_tree(point, op["edge"], op["depth"])
            reports = []
            for mode in ("normalized_Fe", "value_Fe"):
                with span("growth.bowditch_check", work=n):
                    reports.append(cs.growth.bowditch_check(tree, mode))
            return tree, reports
        return self._timed(body)

    def _check_tree(self, op, outcome, error):
        if error is not None:
            return [f"{type(error).__name__}: {error}"]
        tree, reports = outcome
        fvals, defect, fe = [], [], []
        level = tree.children
        while level:
            for node in level:
                fvals.append(node.fvals)
                defect.append(node.defect)
                fe.append(node.Fe)
            level = [child for node in level for child in node.children]
        oracle = O.TreeOracle(op["root"], op["edge"], op["depth"])
        problems = oracle.check_vertices(np.array(fvals, dtype=float).reshape(-1, 3),
                                         np.array(defect, dtype=float), np.array(fe, dtype=float))
        for r in reports:
            problems += oracle.check_report(r.mode, r.nodes_checked, r.defect_max,
                                            r.bowditch_ok, r.lower_bound_ok)
        return problems

    def _run_census(self, op):
        cs = self.cs
        with self.tracer.span("growth.length_census") as span:
            latency, rows, error = self._timed(lambda: cs.growth.length_census(
                cs.charvar.GeometricPoint.from_coords(*op["root"]), op["bound"]))
            span.work = sum(row.multiplicity for row in rows) if rows else 0
        return latency, rows, error

    def _check_census(self, op, rows, error):
        expected = self.census.values(op["root"], op["bound"])
        returned = sum(row.multiplicity for row in rows) if rows else 0
        self.tracer.record("growth.census_missing", calls=0, work=max(0, len(expected) - returned))
        if error is not None:
            return [f"{type(error).__name__}: {error}"]
        return O.check_census(expected, [(row.value, row.multiplicity) for row in rows])

    def _run_cba(self, op):
        cs, span = self.cs, self.tracer.span

        def body():
            with span("charvar.matrices_from_triple"):
                mats = cs.charvar.matrices_from_triple(cs.charvar.ParamTriple(*op["triple"]))
            with span("mobius.classify"):
                isometry = cs.mobius.classify(mats.CBA)
            with span("mobius.fixed_points"):
                fixed = cs.mobius.fixed_points(mats.CBA)
            return mats, isometry, fixed
        return self._timed(body)

    def _check_cba(self, op, outcome, error):
        if error is not None:
            return [f"{type(error).__name__}: {error}"]
        mats, isometry, fixed = outcome
        return O.check_cba(op["triple"], mats.CBA.trace, isometry.tag.value, isometry.magnitude,
                           fixed.kind.value, fixed.points)

    def _run_inequality(self, op):
        cs = self.cs

        def body():
            point = cs.charvar.GeometricPoint.from_coords(*op["triple"])
            with self.tracer.span("charvar.inequality_report"):
                return cs.charvar.inequality_report(point)
        return self._timed(body)

    def _check_inequality(self, op, report, error):
        if error is not None:
            return [f"{type(error).__name__}: {error}"]
        return O.check_inequalities(op["triple"], report.products, report.collar_lhs,
                                    report.collar_rhs, report.conecollar_lhs,
                                    report.conecollar_rhs, report.all_pass)

    def _run_reduce(self, op):
        cs = self.cs

        def body():
            point = cs.charvar.GeometricPoint.from_coords(*op["triple"])
            with self.tracer.span("mcg.reduce_to_domain") as span:
                trace = cs.mcg.reduce_to_domain(point)
                span.work = len(trace.word)
            return trace
        return self._timed(body)

    def _check_reduce(self, op, trace, error):
        geometric = O.is_geometric_exact(O.exact(op["triple"]))
        if not geometric:
            code = getattr(error, "code", None)
            problems = [] if code == "not_geometric" else [
                f"input is not geometric; got {type(error).__name__ if error else 'a reduction'}"]
        elif error is not None:
            problems = [f"{type(error).__name__}: {error}"]
        else:
            problems = check_reduction(op["triple"], trace.word.names(), trace.end.as_tuple(),
                                       trace.energies, trace.end.kappa, at_start=False)
        if problems:
            self.tracer.record("mcg.reduce_failed", calls=0, work=1)
        return problems

    def _run_induced(self, op):
        cs = self.cs

        def body():
            with self.tracer.span("mcg.induced_map"):
                return cs.mcg.induced_map(cs.mcg.NAMED_AUTOMORPHISMS[op["automorphism"]],
                                          cs.charvar.ParamTriple(*op["triple"]))
        return self._timed(body)

    def _check_induced(self, op, image, error):
        if error is not None:
            return [f"{type(error).__name__}: {error}"]
        return O.check_image(op["triple"], op["automorphism"], image.as_tuple())

    def _run_polygon(self, op):
        cs = self.cs

        def body():
            point = cs.charvar.GeometricPoint.from_coords(*op["triple"])
            with self.tracer.span("charvar.polygon_certificate"):
                return cs.charvar.polygon_certificate(point)
        return self._timed(body)

    def _check_polygon(self, op, cert, error):
        if error is not None:
            return [f"{type(error).__name__}: {error}"]
        return O.check_polygon(op["triple"], cert.vertices, cert.convex,
                               cert.side_pairings_ok, cert.angle_sum)

    def _run_domain_volume(self, op):
        with self.tracer.span("volume.domain_volume"):
            return self._timed(lambda: self.cs.volume.domain_volume(op["kappa"]))

    def _check_domain_volume(self, op, result, error, factor=1.0):
        if error is not None:
            problems = [f"{type(error).__name__}: {error}"]
        else:
            problems = O.check_volume(factor * self.volumes.domain(op["kappa"]),
                                      result.value, result.reference)
        if problems:
            self.tracer.record("volume.failed", calls=0, work=1)
        return problems

    def _run_moduli_volume(self, op):
        with self.tracer.span("volume.moduli_volume"):
            return self._timed(lambda: self.cs.volume.moduli_volume(op["kappa"]))

    def _check_moduli_volume(self, op, result, error):
        return self._check_domain_volume(op, result, error, factor=4.0)

    def _run_darboux(self, op):
        with self.tracer.span("volume.darboux_check"):
            return self._timed(lambda: self.cs.volume.darboux_check(*op["point"]))

    def _check_darboux(self, op, result, error):
        if error is not None:
            problems = [f"{type(error).__name__}: {error}"]
        else:
            problems = O.check_darboux(*op["point"], result.abs_jacobian, result.reference,
                                       result.rel_err)
        if problems:
            self.tracer.record("volume.failed", calls=0, work=1)
        return problems


def check_reduction(triple, word, end, energies, kappa, at_start: bool) -> list:
    """Exact replay of a reduction word on the exact input.

    Every step must act at a pivot in (1, 2), the exact endpoint must lie
    in the closure of {min > 2}, the reported endpoint and energies must
    match the exact ones, and the reported kappa must be the input's exact
    level (kappa of the start or of the end, whichever the caller reports).
    """
    x = O.exact(triple)
    problems = [] if O.is_geometric_exact(x) else ["reduced a point that is not geometric"]
    exact_energies = [O.energy_exact(x)]
    for name in reversed(list(word)):
        move = O.LETTER.get(name)
        if move is None or not 1 < x[move] < 2:
            problems.append(f"step {name} does not act at a pivot in (1, 2)")
            return problems
        x = O.involution_exact(x, move)
        exact_energies.append(O.energy_exact(x))
    if not min(x) >= 2:
        problems.append(f"exact replay ends at {[float(v) for v in x]}, outside the domain")
    if any(not O.rel_close(got, float(want), 1e-9) for got, want in zip(end, x)):
        problems.append(f"endpoint {list(end)!r}, exact replay {[float(v) for v in x]!r}")
    if len(energies) != len(exact_energies) or any(
            not O.rel_close(got, float(want), 1e-9) for got, want in zip(energies, exact_energies)):
        problems.append("energies disagree with the exact replay")
    if any(not late < early for early, late in zip(energies, energies[1:])):
        problems.append("energies do not decrease")
    level = float(O.kappa_exact(O.exact(triple)))
    scale = O.kappa_scale(O.exact(triple) if at_start else x)
    if not (math.isfinite(kappa) and abs(kappa - level) <= 1e-9 * scale):
        problems.append(f"kappa {kappa!r} is not the input's level {level!r}")
    return problems
