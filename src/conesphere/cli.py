"""Command-line front end.

Deterministic runs: a fixed seed and identical arguments produce
byte-identical output.  Numbers are serialized with 17 significant digits;
the point at infinity is serialized as the string "inf" and complex numbers
as [re, im] pairs.  Domain errors surface as structured JSON error objects
on stdout with exit code 1; usage errors exit 2.

A JSON config file may supply defaults (seed, output_format, output_path,
and tolerances with its one key ``classification``, which reaches the
classify, induced, fncheck and polygon subcommands); its path comes from
--config or the CONESPHERE_CONFIG environment variable.  A config file that
cannot be read or holds an unknown key or value is a usage error.  Schemas
for every emitted document live in docs/schemas/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from dataclasses import asdict, dataclass, replace

# importing every layer here is cheap: growth, verify and volume load numpy
# only inside the functions that compute with it
from . import charvar, growth, mcg, verify, volume
from .charvar import GeometricPoint, ParamTriple
from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import ConesphereError, NotGeometric, SingularPoint
from .mobius import is_infinite

CONFIG_ENV_VAR = "CONESPHERE_CONFIG"
OUTPUT_FORMATS = ("json", "csv", "text")


@dataclass(frozen=True)
class RunConfig:
    tolerances: Tolerances = DEFAULT_TOLERANCES
    seed: int = 0
    output_format: str = "json"
    output_path: str | None = None


# ---------------------------------------------------------------------------
# serialization

def _format_float(value: float) -> str:
    if math.isinf(value):
        return '"inf"' if value > 0 else '"-inf"'
    if math.isnan(value):
        return '"nan"'
    if value == int(value) and abs(value) < 1e16:
        return repr(value)
    return format(value, ".17g")


def emit_json(document, indent: int = 0) -> str:
    """Minimal JSON emitter with fixed float formatting for byte determinism."""
    pad = "  " * indent
    child_pad = "  " * (indent + 1)
    if document is None:
        return "null"
    if document is True or document is False:
        return "true" if document else "false"
    if isinstance(document, str):
        return json.dumps(document)
    if isinstance(document, int):
        return repr(document)
    if isinstance(document, float):
        return _format_float(document)
    if isinstance(document, complex):
        return (f"{{\"re\": {_format_float(document.real)}, "
                f"\"im\": {_format_float(document.imag)}}}")
    if isinstance(document, dict):
        if not document:
            return "{}"
        parts = [f"{child_pad}{json.dumps(str(key))}: {emit_json(value, indent + 1)}"
                 for key, value in document.items()]
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    if isinstance(document, (list, tuple)):
        if not document:
            return "[]"
        parts = [f"{child_pad}{emit_json(value, indent + 1)}" for value in document]
        return "[\n" + ",\n".join(parts) + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(document)!r}")


def _csv_cell(value) -> str:
    if isinstance(value, float):
        text = _format_float(value)
        return text.strip('"')
    return str(value)


def emit_csv(rows, columns) -> str:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_csv_cell(row[column]) for column in columns))
    return "\n".join(lines) + "\n"


def _point(z):
    if is_infinite(z):
        return "inf"
    if isinstance(z, complex):
        return [z.real, z.imag]
    return float(z)


# ---------------------------------------------------------------------------
# argument parsing

_SQRT_TOKEN = re.compile(
    r"^\s*(?P<base>[+-]?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)?\s*"
    r"(?:(?P<sign>[+-])?\s*sqrt\(\s*(?P<rad>\d+(?:\.\d+)?)\s*\))?\s*$"
)


def parse_value(token: str) -> float:
    """Decimal literal or an exact expression like 1+sqrt(3)."""
    match = _SQRT_TOKEN.match(token)
    if not match or (match.group("base") is None and match.group("rad") is None):
        raise ValueError(f"cannot parse number {token!r}")
    value = float(match.group("base")) if match.group("base") is not None else 0.0
    if match.group("rad") is not None:
        sign = -1.0 if match.group("sign") == "-" else 1.0
        value += sign * math.sqrt(float(match.group("rad")))
    return value


def parse_triple(text: str) -> ParamTriple:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"expected three comma-separated values, got {text!r}")
    a, b, c = (parse_value(part) for part in parts)
    return ParamTriple(a, b, c)


def parse_pair(text: str) -> tuple:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected two comma-separated values, got {text!r}")
    return parse_value(parts[0]), parse_value(parts[1])


def load_config(path: str | None) -> RunConfig:
    """Read the JSON config file; raises ValueError when it cannot be used."""
    if path is None:
        path = os.environ.get(CONFIG_ENV_VAR)
    if path is None:
        return RunConfig()
    try:
        with open(path, encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise ValueError(f"cannot read config {path!r}: {exc.strerror}") from exc
    if not isinstance(raw, dict):
        raise ValueError(f"config {path!r} must hold a JSON object")
    tolerances = raw.get("tolerances", {})
    if not isinstance(tolerances, dict) or set(tolerances) - {"classification"}:
        raise ValueError("config tolerances must be an object whose only key is "
                         f"'classification', got {tolerances!r}")
    classification = tolerances.get("classification", DEFAULT_TOLERANCES.classification)
    if type(classification) not in (int, float) or not classification > 0:
        raise ValueError(f"config tolerances.classification must be a positive number, "
                         f"got {classification!r}")
    try:
        seed = int(raw.get("seed", 0))
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"config seed must be an integer, got {raw['seed']!r}") from exc
    output_format = raw.get("output_format", "json")
    if output_format not in OUTPUT_FORMATS:
        raise ValueError(f"config output_format must be one of {OUTPUT_FORMATS}, "
                         f"got {output_format!r}")
    output_path = raw.get("output_path")
    if output_path is not None and not isinstance(output_path, str):
        raise ValueError(f"config output_path must be a string, got {output_path!r}")
    return RunConfig(Tolerances(classification), seed, output_format, output_path)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="path to a JSON config file")
    common.add_argument("--format", choices=OUTPUT_FORMATS, dest="output_format")
    common.add_argument("--output", help="write the document to this path instead of stdout")
    common.add_argument("--seed", type=int, help="seed for sampling commands")

    parser = argparse.ArgumentParser(
        prog="conesphere",
        description="Character variety of the generalized four-holed sphere.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", parents=[common],
                       help="kappa, boundary type, component, inequality report")
    p.add_argument("--triple", required=True)

    p = sub.add_parser("reduce", parents=[common],
                       help="reduce a triple into the fundamental domain")
    p.add_argument("--triple", required=True)
    p.add_argument("--max-steps", type=int, default=500)

    p = sub.add_parser("induced", parents=[common],
                       help="apply a named automorphism via cross ratios")
    p.add_argument("--auto", required=True, choices=sorted(mcg.NAMED_AUTOMORPHISMS))
    p.add_argument("--triple", required=True)

    p = sub.add_parser("tree", parents=[common],
                       help="orbit tree growth report and optional length census")
    p.add_argument("--root", required=True)
    p.add_argument("--depth", type=int, default=10,
                   help=f"tree depth, 0 to {growth.MAX_DEPTH}")
    p.add_argument("--census", type=float, default=None,
                   help="census bound on log(pair product)")
    p.add_argument("--start-edge", default="ab,bc")

    p = sub.add_parser("volume", parents=[common],
                       help="fundamental-domain volume at one or more levels")
    p.add_argument("--kappa", default=None)
    p.add_argument("--table", default=None, help="comma-separated kappa values")

    p = sub.add_parser("fncheck", parents=[common],
                       help="Fenchel-Nielsen coordinates and the Darboux pairing")
    p.add_argument("--point", required=True, help="a,b with ab > 4")
    p.add_argument("--step", type=float, default=1e-5)

    p = sub.add_parser("polygon", parents=[common],
                       help="fundamental hexagon certificate for the cone case")
    p.add_argument("--triple", required=True)

    p = sub.add_parser("verify", parents=[common],
                       help="run property suites; exit 0 iff all pass")
    p.add_argument("--suite", default="all",
                   help="'all' or a comma-separated subset of check names")
    return parser


# ---------------------------------------------------------------------------
# subcommands

def _cmd_classify(args, config: RunConfig):
    triple = parse_triple(args.triple)
    tol = config.tolerances.classification
    if all(abs(x - 2.0) <= tol for x in triple.as_tuple()):
        raise SingularPoint(
            "(2,2,2) is the singular point of the level set kappa = -2",
            triple=list(triple.as_tuple()),
        )
    document = {"triple": list(triple.as_tuple()), "kappa": triple.kappa}
    try:
        data = charvar.boundary_data(triple.kappa, tol)
        boundary = {"kind": data.kind.value}
        if data.angle is not None:
            boundary["angle"] = data.angle
        if data.length is not None:
            boundary["length"] = data.length
        document["boundary"] = boundary
    except ConesphereError as exc:
        document["boundary"] = {"kind": "OutOfRange", "reason": exc.details.get("reason")}
    document["component"] = charvar.component_of(triple.a, triple.b, tol).value
    try:
        point = GeometricPoint(triple)
        report = charvar.inequality_report(point)
        document["geometric"] = True
        document["inequalities"] = asdict(report)
    except NotGeometric:
        document["geometric"] = False
        document["inequalities"] = None
    return document


def _cmd_reduce(args, config: RunConfig):
    triple = parse_triple(args.triple)
    trace = mcg.reduce_to_domain(GeometricPoint(triple), max_steps=args.max_steps)
    return {
        "start": list(trace.start.as_tuple()),
        "word": trace.word.names(),
        "end": list(trace.end.as_tuple()),
        "energies": list(trace.energies),
        "kappa": trace.start.kappa,
    }


def _cmd_induced(args, config: RunConfig):
    triple = parse_triple(args.triple)
    automorphism = mcg.NAMED_AUTOMORPHISMS[args.auto]
    image = mcg.induced_map(automorphism, triple, config.tolerances.classification)
    closed = {
        "phi_alpha": mcg.Involution.IA,
        "phi_beta": mcg.Involution.IB,
        "phi_gamma": mcg.Involution.IC,
    }
    document = {
        "triple": list(triple.as_tuple()),
        "automorphism": args.auto,
        "image": list(image.as_tuple()),
        "kappa_preserved": abs(image.kappa - triple.kappa)
        <= 1e-9 * max(1.0, abs(triple.kappa)),
    }
    if args.auto in closed:
        reference = mcg.apply_involution(closed[args.auto], triple)
        document["closed_form"] = list(reference.as_tuple())
        document["matches_closed_form"] = all(
            abs(u - v) <= 1e-9 * max(1.0, abs(v))
            for u, v in zip(image.as_tuple(), reference.as_tuple())
        )
    else:
        document["closed_form"] = None
        document["matches_closed_form"] = None
    return document


def _cmd_tree(args, config: RunConfig):
    triple = parse_triple(args.root)
    point = GeometricPoint(triple)
    edge = tuple(part.strip() for part in args.start_edge.split(","))
    tree = growth.expand_tree(point, edge, args.depth)
    reports = [growth.bowditch_check(tree, mode)
               for mode in ("normalized_Fe", "value_Fe")]
    census = None
    if args.census is not None:
        census = [row._asdict() for row in growth.length_census(point, args.census)]
    return {
        "root": list(triple.as_tuple()),
        "start_edge": list(edge),
        "depth": args.depth,
        "reports": [asdict(report) for report in reports],
        "census": census,
    }


def _cmd_volume(args, config: RunConfig):
    if args.table is not None:
        kappas = [parse_value(part) for part in args.table.split(",")]
        return {"rows": volume.volume_table(kappas)}
    if args.kappa is None:
        raise ValueError("volume needs --kappa or --table")
    result = volume.domain_volume(parse_value(args.kappa))
    moduli = volume.moduli_from_domain(result)
    return {
        "kappa": result.kappa,
        "value": result.value,
        "error_estimate": result.abs_error_estimate,
        "reference": result.reference,
        "source": result.reference_source,
        "moduli_value": moduli.value,
        "moduli_reference": moduli.reference,
    }


def _cmd_fncheck(args, config: RunConfig):
    a, b = parse_pair(args.point)
    coords = volume.fenchel_nielsen(a, b, config.tolerances.classification)
    darboux = volume.darboux_check(a, b, args.step)
    return {
        "point": [a, b],
        "length": coords.length,
        "twist": coords.twist,
        "Delta": coords.Delta,
        "step": args.step,
        "darboux": asdict(darboux),
    }


def _cmd_polygon(args, config: RunConfig):
    triple = parse_triple(args.triple)
    point = GeometricPoint(triple)
    certificate = charvar.polygon_certificate(point, config.tolerances.classification)
    # no cusp window: the certificate has checked -2 < kappa < 2, so theta > 0
    theta = charvar.boundary_data(triple.kappa, 0.0).angle
    return {
        "triple": list(triple.as_tuple()),
        "kappa": triple.kappa,
        "theta": theta,
        "vertices": [_point(vertex) for vertex in certificate.vertices],
        "convex": certificate.convex,
        "side_pairings_ok": certificate.side_pairings_ok,
        "angle_sum": certificate.angle_sum,
        "angle_sum_matches_theta": (charvar.angle_sum_gap(point, certificate.angle_sum)
                                    <= charvar.ANGLE_SUM_TOL),
    }


def _cmd_verify(args, config: RunConfig):
    names = None if args.suite == "all" else [part.strip() for part in args.suite.split(",")]
    results = verify.run_suite(names, seed=config.seed)
    return {
        "seed": config.seed,
        "results": [asdict(result) for result in results],
        "all_passed": all(result.passed for result in results),
    }


_COMMANDS = {
    "classify": _cmd_classify,
    "reduce": _cmd_reduce,
    "induced": _cmd_induced,
    "tree": _cmd_tree,
    "volume": _cmd_volume,
    "fncheck": _cmd_fncheck,
    "polygon": _cmd_polygon,
    "verify": _cmd_verify,
}


def _render(command: str, document: dict, output_format: str) -> str:
    if output_format == "json":
        return emit_json(document) + "\n"
    if output_format == "csv":
        if command == "tree" and document.get("census") is not None:
            return emit_csv(document["census"],
                            ("value", "length", "multiplicity", "depth_first_seen"))
        if command == "volume" and "rows" in document:
            return emit_csv(document["rows"],
                            ("kappa", "boundary_kind", "boundary_measure", "value",
                             "reference", "abs_error", "error_estimate"))
        if command == "verify":
            return emit_csv(document["results"], ("name", "passed", "detail"))
        raise ValueError(f"csv format is not defined for this {command} document")
    lines = []
    if command == "verify":
        for result in document["results"]:
            status = "PASS" if result["passed"] else "FAIL"
            lines.append(f"{status} {result['name']}: {result['detail']}")
        lines.append(f"all_passed: {document['all_passed']}")
    else:
        for key, value in document.items():
            lines.append(f"{key}: {emit_json(value)}")
    return "\n".join(lines) + "\n"


def run(argv) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        flags = {"output_format": args.output_format, "seed": args.seed,
                 "output_path": args.output}
        config = replace(load_config(args.config),
                         **{name: value for name, value in flags.items() if value is not None})
        document = _COMMANDS[args.command](args, config)
        text = _render(args.command, document, config.output_format)
    except ConesphereError as exc:
        error_doc = {"error": {"code": exc.code, "message": str(exc),
                               "details": _safe_details(exc.details)}}
        sys.stdout.write(emit_json(error_doc) + "\n")
        return 1
    except ValueError as exc:
        parser.exit(2, f"error: {exc}\n")
    if config.output_path:
        try:
            with open(config.output_path, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            parser.exit(2, f"error: cannot write {config.output_path!r}: {exc.strerror}\n")
    else:
        sys.stdout.write(text)
    if args.command == "verify":
        return 0 if document["all_passed"] else 1
    return 0


def _safe_details(details: dict) -> dict:
    safe = {}
    for key, value in details.items():
        if isinstance(value, (str, int, float, bool)) or value is None:
            safe[key] = value
        elif isinstance(value, (list, tuple)):
            safe[key] = [v if isinstance(v, (str, int, float, bool)) else str(v)
                         for v in value]
        else:
            safe[key] = str(value)
    return safe


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
