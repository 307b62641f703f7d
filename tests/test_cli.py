import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conesphere import charvar, growth, volume
from conesphere.cli import parse_triple, parse_value, run

REPO = Path(__file__).resolve().parent.parent
SCHEMA_DIR = REPO / "docs" / "schemas"


def run_json(capsys, argv):
    code = run(argv)
    output = capsys.readouterr().out
    return code, json.loads(output)


def load_schema(name):
    with open(SCHEMA_DIR / f"{name}.schema.json", encoding="utf-8") as handle:
        return json.load(handle)


def validate(name, document):
    jsonschema = pytest.importorskip("jsonschema")
    jsonschema.validate(document, load_schema(name))


# --- parsing -----------------------------------------------------------------

def test_parse_value_forms():
    assert parse_value("3") == 3.0
    assert parse_value("-2.5e-1") == -0.25
    assert parse_value("1+sqrt(3)") == pytest.approx(1.0 + math.sqrt(3.0))
    assert parse_value("2-sqrt(2)") == pytest.approx(2.0 - math.sqrt(2.0))
    assert parse_value("sqrt(5)") == pytest.approx(math.sqrt(5.0))
    with pytest.raises(ValueError):
        parse_value("two")
    with pytest.raises(ValueError):
        parse_value("")


def test_parse_triple():
    triple = parse_triple("1+sqrt(3),1+sqrt(3),1+sqrt(3)")
    assert triple.kappa == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        parse_triple("1,2")


# --- subcommands ---------------------------------------------------------------

def test_volume_kappa_two(capsys):
    code, document = run_json(capsys, ["volume", "--kappa", "2"])
    assert code == 0
    assert document["value"] == pytest.approx(4.9348022005, abs=1e-6)
    assert document["reference"] == pytest.approx(math.pi ** 2 / 2.0)
    assert document["source"] == "pi^2/2"
    validate("volume", document)


@pytest.mark.parametrize("kappa", ["1e300", "-1.9999999999999998"])
def test_volume_at_range_edges(capsys, volume_closed_form, kappa):
    code, document = run_json(capsys, ["volume", f"--kappa={kappa}"])
    assert code == 0
    want = volume_closed_form(float(kappa))
    for key in ("value", "error_estimate", "reference", "moduli_value", "moduli_reference"):
        assert math.isfinite(document[key])
    assert abs(document["value"] - want) <= 1e-12 * want
    assert abs(document["moduli_value"] - 4.0 * want) <= 4e-12 * want
    validate("volume", document)


def test_volume_integrates_once(capsys, monkeypatch):
    calls = []
    domain_volume = volume.domain_volume
    monkeypatch.setattr(volume, "domain_volume",
                        lambda *args: calls.append(args) or domain_volume(*args))
    code, document = run_json(capsys, ["volume", "--kappa", "3"])
    assert code == 0
    assert len(calls) == 1
    assert document["moduli_value"] == 4.0 * document["value"]


def test_volume_quadrature_failure_is_domain_error(capsys, monkeypatch):
    monkeypatch.setattr(volume, "_log_v_integrand", lambda u, level: np.full_like(u, math.nan))
    code, document = run_json(capsys, ["volume", "--kappa", "3"])
    assert code == 1
    assert document["error"]["code"] == "quadrature_not_converged"
    validate("error", document)


def test_volume_past_float_range_is_domain_error(capsys):
    code, document = run_json(capsys, ["volume", "--kappa", "1e309"])
    assert code == 1
    assert document["error"]["code"] == "out_of_range"
    assert document["error"]["details"]["reason"] == "not_finite"
    validate("error", document)


def test_cli_import_loads_no_scipy():
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    subprocess.run([sys.executable, "-c",
                    "import conesphere.cli, sys; assert 'scipy' not in sys.modules"],
                   env=env, check=True, timeout=120)


_NO_NUMPY_REQUESTS = """
import contextlib, io, sys
import conesphere
assert not [name for name in sys.modules if name.startswith("conesphere.")], sys.modules
from conesphere import cli
# the traced benchmark times each layer's import through `import conesphere.cli`
layers = ("charvar", "growth", "mcg", "mobius", "verify", "volume")
assert all(f"conesphere.{name}" in sys.modules for name in layers), sys.modules
requests = [
    (["classify", "--triple", "3,3,3"], 0),
    (["reduce", "--triple", "6,1.5,6"], 0),
    (["induced", "--auto", "phi_beta", "--triple", "3,3,3"], 0),
    (["polygon", "--triple", "2.5,2.5,2.5"], 0),
    (["fncheck", "--point", "3,3"], 0),
    (["classify", "--triple=2,2,2"], 1),
    (["volume", "--kappa=-5"], 1),
    (["volume"], 2),
]
for argv, expected in requests:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.run(argv)
        except SystemExit as exc:
            code = exc.code
    assert code == expected, (argv, code)
assert "numpy" not in sys.modules, "numpy loaded"
"""


def test_requests_without_quadrature_or_tree_load_no_numpy():
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    subprocess.run([sys.executable, "-c", _NO_NUMPY_REQUESTS],
                   env=env, check=True, timeout=120)


def test_volume_table(capsys):
    code, document = run_json(capsys, ["volume", "--table=-1,0,2.5"])
    assert code == 0
    assert len(document["rows"]) == 3
    validate("volume", document)


def test_reduce_example(capsys):
    code, document = run_json(capsys, ["reduce", "--triple", "6,1.5,6"])
    assert code == 0
    assert document["word"] == ["Ib"]
    assert document["end"] == [3.0, 3.0, 3.0]
    validate("reduce", document)


def test_classify_regular_point(capsys):
    code, document = run_json(capsys, ["classify", "--triple", "3,3,3"])
    assert code == 0
    assert document["kappa"] == 2.0
    assert document["boundary"]["kind"] == "Cusp"
    assert document["component"] == "PosBranchGT1"
    assert document["geometric"] is True
    assert document["inequalities"]["all_pass"] is True
    validate("classify", document)


def test_classify_singular_point_error(capsys):
    code, document = run_json(capsys, ["classify", "--triple", "2,2,2"])
    assert code == 1
    assert document["error"]["code"] == "singular_point"
    assert "singular point" in document["error"]["message"]
    validate("error", document)


def test_classify_non_geometric(capsys):
    code, document = run_json(capsys, ["classify", "--triple", "0.5,0.5,0.5"])
    assert code == 0
    assert document["geometric"] is False
    assert document["inequalities"] is None
    validate("classify", document)


def test_induced_subcommand(capsys):
    code, document = run_json(capsys, ["induced", "--auto", "phi_beta",
                                       "--triple", "3,3,3"])
    assert code == 0
    assert document["matches_closed_form"] is True
    assert document["image"] == pytest.approx([6.0, 1.5, 6.0])
    validate("induced", document)


def test_tree_subcommand_with_census(capsys):
    bound = math.log(36.0) + 1e-9
    code, document = run_json(capsys, ["tree", "--root", "3,3,3", "--depth", "6",
                                       "--census", str(bound)])
    assert code == 0
    modes = {report["mode"]: report for report in document["reports"]}
    assert modes["normalized_Fe"]["bowditch_ok"] is True
    assert modes["normalized_Fe"]["lower_bound_ok"] is True
    assert [row["multiplicity"] for row in document["census"]] == [3, 3]
    validate("tree", document)


def test_tree_census_csv(capsys):
    bound = math.log(36.0) + 1e-9
    code = run(["tree", "--root", "3,3,3", "--depth", "4",
                "--census", str(bound), "--format", "csv"])
    output = capsys.readouterr().out
    assert code == 0
    lines = output.strip().split("\n")
    assert lines[0] == "value,length,multiplicity,depth_first_seen"
    assert len(lines) == 3
    assert lines[1].split(",")[2] == "3"


def test_fncheck_subcommand(capsys):
    code, document = run_json(capsys, ["fncheck", "--point", "3,3"])
    assert code == 0
    assert document["darboux"]["rel_err"] < 1e-5
    validate("fncheck", document)


def test_polygon_subcommand(capsys):
    code, document = run_json(capsys, ["polygon", "--triple", "2.5,2.5,2.5"])
    assert code == 0
    assert document["convex"] is True
    assert document["side_pairings_ok"] is True
    assert document["angle_sum_matches_theta"] is True
    assert document["vertices"][4] == "inf"
    validate("polygon", document)


def test_polygon_angle_sum_off_theta_reports_false(capsys, monkeypatch):
    certify = charvar.polygon_certificate

    def off_theta(point, tol):
        certificate = certify(point, tol)
        return dataclasses.replace(certificate, angle_sum=certificate.angle_sum + 1e-8)
    monkeypatch.setattr(charvar, "polygon_certificate", off_theta)
    code, document = run_json(capsys, ["polygon", "--triple", "2.5,2.5,2.5"])
    assert code == 0
    assert document["angle_sum_matches_theta"] is False


def test_polygon_theta_inside_cusp_window(capsys):
    # kappa = 2 - 3e-10 lies inside classify's 1e-9 cusp window
    code, document = run_json(capsys, ["polygon", "--triple", "2.9999999999,3,3"])
    assert code == 0
    assert document["theta"] == 2.0 * math.acos(document["kappa"] / 2.0)
    assert document["theta"] == pytest.approx(3.464e-5, rel=1e-3)
    assert document["angle_sum"] == pytest.approx(document["theta"], rel=1e-4)
    assert document["angle_sum_matches_theta"] is True


def test_polygon_domain_error(capsys):
    code, document = run_json(capsys, ["polygon", "--triple", "3,3,3"])
    assert code == 1
    assert document["error"]["code"] == "not_cone_case"
    validate("error", document)


def test_verify_subset(capsys):
    code, document = run_json(capsys, ["verify", "--suite",
                                       "derivative_relation,volume_anchor"])
    assert code == 0
    assert document["all_passed"] is True
    assert [r["name"] for r in document["results"]] == ["derivative_relation",
                                                        "volume_anchor"]
    validate("verify", document)


def test_verify_text_format(capsys):
    code = run(["verify", "--suite", "derivative_relation", "--format", "text"])
    output = capsys.readouterr().out
    assert code == 0
    assert output.startswith("PASS derivative_relation:")


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        run(["classify", "--triple", "not,a,triple"])
    assert info.value.code == 2


def test_volume_requires_kappa_or_table(capsys):
    with pytest.raises(SystemExit) as info:
        run(["volume"])
    assert info.value.code == 2


def test_census_past_value_cap_is_domain_error(capsys, monkeypatch):
    monkeypatch.setattr(growth, "CENSUS_MAX_VALUES", 10_000)
    code, document = run_json(capsys, ["tree", "--root", "3,3,3", "--depth", "1",
                                       "--census", "1e6"])
    assert code == 1
    assert document["error"]["code"] == "out_of_range"
    assert document["error"]["details"]["reason"] == "census_too_large"
    assert document["error"]["details"]["limit"] == 10_000
    validate("error", document)


def test_tree_rejects_bad_start_edge(capsys):
    with pytest.raises(SystemExit) as info:
        run(["tree", "--root", "3,3,3", "--start-edge", "ab,xy"])
    assert info.value.code == 2


def test_tree_depth_past_cap_is_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        run(["tree", "--root", "3,3,3", "--depth", "21"])
    assert info.value.code == 2
    assert capsys.readouterr().err.startswith("error: depth must be in 0..20")


def test_unwritable_output_is_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    with pytest.raises(SystemExit) as info:
        run(["volume", "--kappa", "2", "--output", str(target)])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot write")
    assert not target.exists()


def test_fncheck_past_float_range_is_domain_error(capsys):
    code, document = run_json(capsys, ["fncheck", "--point", "1e80,1e80"])
    assert code == 1
    assert document["error"]["code"] == "out_of_range"
    assert document["error"]["details"]["reason"] == "above_range"
    validate("error", document)


def test_classify_geodesic_boundary_level(capsys):
    code, document = run_json(capsys, ["classify", "--triple", "4,4,4"])
    assert code == 0
    assert document["kappa"] == 18.0
    assert document["boundary"]["kind"] == "GeodesicBoundary"
    assert document["boundary"]["length"] == pytest.approx(2.0 * math.acosh(9.0))
    validate("classify", document)


def test_classify_below_range_boundary(capsys):
    # kappa < -2 on the Neg component; boundary reported out of range
    code, document = run_json(capsys, ["classify", "--triple", "5,1.01,1.01"])
    assert code == 0
    assert document["boundary"]["kind"] == "OutOfRange"
    assert document["boundary"]["reason"] == "below_range"
    assert document["geometric"] is False
    validate("classify", document)


def test_reduce_rejects_non_geometric(capsys):
    code, document = run_json(capsys, ["reduce", "--triple", "1.5,1.5,2"])
    assert code == 1
    assert document["error"]["code"] == "not_geometric"
    validate("error", document)


def test_determinism_byte_identical(capsys):
    first = run(["tree", "--root", "3,3,3", "--depth", "5",
                 "--census", "4.0"])
    out_first = capsys.readouterr().out
    second = run(["tree", "--root", "3,3,3", "--depth", "5",
                  "--census", "4.0"])
    out_second = capsys.readouterr().out
    assert first == second == 0
    assert out_first == out_second


def test_verify_seeded_determinism(capsys):
    run(["verify", "--suite", "kappa_anchors", "--seed", "7"])
    first = capsys.readouterr().out
    run(["verify", "--suite", "kappa_anchors", "--seed", "7"])
    second = capsys.readouterr().out
    assert first == second


def test_output_to_file(tmp_path, capsys):
    target = tmp_path / "volume.json"
    code = run(["volume", "--kappa", "0", "--output", str(target)])
    assert code == 0
    assert capsys.readouterr().out == ""
    document = json.loads(target.read_text())
    assert document["reference"] == pytest.approx(3.0 * math.pi ** 2 / 8.0)


def test_config_file_sets_seed(tmp_path, capsys, monkeypatch):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 11, "output_format": "json"}))
    monkeypatch.setenv("CONESPHERE_CONFIG", str(config))
    code, document = run_json(capsys, ["verify", "--suite", "derivative_relation"])
    assert code == 0
    assert document["seed"] == 11


@pytest.mark.parametrize("content", [
    '{"tolerances": {"residual": 1e-10}}',
    '{"tolerances": {"identity": 1e-12}}',
    '[1, 2]',
    None,
    '{"output_format": "xml"}',
    '{"tolerances": {"classification": "tight"}}',
    '{"seed": null}',
    '{"output_path": 5}',
], ids=["unknown_tolerance", "dropped_tolerance", "array", "missing_file", "xml_format",
        "non_numeric_tolerance", "null_seed", "non_string_output_path"])
def test_bad_config_is_usage_error(tmp_path, capsys, content):
    config = tmp_path / "config.json"
    if content is not None:
        config.write_text(content)
    with pytest.raises(SystemExit) as info:
        run(["classify", "--triple", "3,3,3", "--config", str(config)])
    captured = capsys.readouterr()
    assert info.value.code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "config" in captured.err


KEY_ORDER_CASES = [
    ("classify", ["classify", "--triple", "3,3,3"], ["inequalities"]),
    ("tree", ["tree", "--root", "3,3,3", "--depth", "3", "--census", "4"],
     ["reports", "census"]),
    ("fncheck", ["fncheck", "--point", "3,3"], ["darboux"]),
    ("verify", ["verify", "--suite", "derivative_relation"], ["results"]),
]


@pytest.mark.parametrize("name,argv,nested", KEY_ORDER_CASES,
                         ids=[case[0] for case in KEY_ORDER_CASES])
def test_document_keys_follow_schema_order(capsys, name, argv, nested):
    # json.loads keeps the emitted key order, so list(dict) is the order on stdout
    code, document = run_json(capsys, argv)
    properties = load_schema(name)["properties"]
    assert code == 0
    assert list(document) == list(properties)
    for key in nested:
        schema = properties[key]
        schema = schema["oneOf"][1] if "oneOf" in schema else schema
        schema = schema.get("items", schema)
        entries = document[key] if isinstance(document[key], list) else [document[key]]
        assert entries
        for entry in entries:
            assert list(entry) == list(schema["properties"])


def test_floats_serialized_17_digits(capsys):
    run(["volume", "--kappa", "2"])
    output = capsys.readouterr().out
    # 17 significant digits, trailing zeros stripped; parsing must round-trip
    assert '"reference": 4.934802200544679' in output
    document = json.loads(output)
    assert document["reference"] == math.pi ** 2 / 2.0
    assert document["value"] == float(format(document["value"], ".17g"))
