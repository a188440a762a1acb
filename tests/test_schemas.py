"""CLI JSON output conforms to the shipped schemas."""

import json
from pathlib import Path

import pytest

jsonschema = pytest.importorskip("jsonschema")

from burnside.cli import main

DOCS = Path(__file__).parent.parent / "docs"
DATA = Path(__file__).parent.parent / "src" / "burnside" / "data"


def schema(name):
    return json.loads((DOCS / name).read_text())


def cli_json(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == 0
    return json.loads(out)


@pytest.mark.parametrize("argv", [
    ("marks", "--group", "D4", "--json"),
    ("artin", "--group", "S3", "--n", "1", "--json"),
    ("brauer", "--group", "A4", "--json"),
    ("equalizer", "--group", "S3", "--mode", "brauer", "--json"),
    ("lie", "--file", str(DATA / "so3.json"), "--n", "2", "--json"),
    ("verify", "--group", "Q8", "--json"),
])
def test_reports_validate(capsys, argv):
    payload = cli_json(capsys, *argv)
    jsonschema.validate(payload, schema("report.schema.json"))


def test_artin_results_validate(capsys):
    payload = cli_json(capsys, "artin", "--group", "S4", "--n", "2", "--json")
    jsonschema.validate(payload["results"], schema("artin-certificate.schema.json"))


def test_artin_inf_results_validate(capsys):
    payload = cli_json(capsys, "artin", "--group", "C6", "--n", "inf", "--json")
    jsonschema.validate(payload["results"], schema("artin-certificate.schema.json"))


def test_brauer_results_validate(capsys):
    payload = cli_json(capsys, "brauer", "--group", "S4", "--json")
    jsonschema.validate(payload["results"], schema("brauer-certificate.schema.json"))


def test_marks_report_results_validate(capsys):
    payload = cli_json(capsys, "marks", "--group", "D4", "--json")
    jsonschema.validate(payload["results"], schema("marks.schema.json"))


def test_so3_fixture_validates():
    payload = json.loads((DATA / "so3.json").read_text())
    jsonschema.validate(payload, schema("phidata.schema.json"))


def _phi_file(*classes, **fields):
    return {"name": "x", "classes": list(classes), **fields}


def _phi_class(**fields):
    return {"label": "a", "weyl_order": 1, "torus_rank": 0, **fields}


# class-data files against docs/phidata.schema.json, and the texts the
# loader's error must name (the class, then the field)
BAD_PHI_DATA = {
    "maximal-torus-string": (_phi_file(_phi_class(maximal_torus=False),
                                       _phi_class(label="b", weyl_order=3, maximal_torus="false")),
                             ["class 'b'", "maximal_torus"]),
    "weyl-order-float": (_phi_file(_phi_class(weyl_order=2.5)), ["class 'a'", "weyl_order"]),
    "weyl-order-bool": (_phi_file(_phi_class(weyl_order=True)), ["class 'a'", "weyl_order"]),
    "weyl-order-zero": (_phi_file(_phi_class(weyl_order=0)), ["a", "weyl_order"]),
    "weyl-order-missing": (_phi_file({"label": "a", "torus_rank": 0}), ["class 'a'", "weyl_order"]),
    "torus-rank-string": (_phi_file(_phi_class(torus_rank="0")), ["class 'a'", "torus_rank"]),
    "invariants-not-a-list": (_phi_file(_phi_class(component_invariants=2)),
                              ["class 'a'", "component_invariants"]),
    "invariant-float": (_phi_file(_phi_class(component_invariants=[2.5])),
                        ["class 'a'", "component_invariants"]),
    "invariant-zero": (_phi_file(_phi_class(component_invariants=[0])), ["a", "invariant"]),
    "omega-closure-string": (_phi_file(_phi_class(omega_closure="a")), ["class 'a'", "omega_closure"]),
    "omega-closure-numbers": (_phi_file(_phi_class(omega_closure=[1])), ["class 'a'", "omega_closure"]),
    "label-list": (_phi_file(_phi_class(label=["a"])), ["class 0", "label"]),
    "label-missing": (_phi_file({"weyl_order": 1, "torus_rank": 0}), ["class 0", "label"]),
    "unknown-class-key": (_phi_file(_phi_class(maximal_torous=True)), ["class 'a'", "maximal_torous"]),
    "class-not-an-object": (_phi_file(1), ["class 0", "not an object"]),
    "unknown-file-key": (_phi_file(_phi_class(), extra=1), ["data file", "extra"]),
    "name-missing": ({"classes": [_phi_class()]}, ["data file", "name"]),
    "name-number": (_phi_file(_phi_class(), name=3), ["data file", "name"]),
    "classes-empty": (_phi_file(), ["data file", "classes"]),
    "classes-object": (_phi_file(classes={}), ["data file", "classes"]),
    "file-not-an-object": ([_phi_class()], ["data file", "not an object"]),
}


@pytest.mark.parametrize("document,named", BAD_PHI_DATA.values(), ids=BAD_PHI_DATA.keys())
def test_class_data_against_the_schema_is_an_input_error(capsys, tmp_path, document, named):
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(document, schema("phidata.schema.json"))
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(document))
    code = main(["lie", "--file", str(path), "--json"])
    captured = capsys.readouterr()
    assert code == 2
    assert not captured.out
    error = json.loads(captured.err)["error"]
    assert error["type"] == "LieDataError"
    for text in named:
        assert text in error["message"]
