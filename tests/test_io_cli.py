"""Fixture document round-trips, input diagnostics, CLI exit codes."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import load_script
from linfty.graded import InputError
from linfty.io import (
    FixtureWriter,
    load_document,
    parse_fixture_text,
    serialize_document,
    tensor_from_key,
    word_from_key,
    word_key,
)
from linfty import cli
from linfty.fixtures import cech_fixb_ladder, fix_b

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

MINIMAL = {
    "format_version": "1",
    "spaces": {"s": {"generators": [["x", 0, 1], ["c", 1, 2]], "order": 3}},
    "structures": {"q": {
        "space": "s",
        "components": {"0": {"": {"c": "-1"}}, "2": {"x|x": {"c": "2"}}},
    }},
    "elements": {"x": {"space": "s", "value": {"x": 1}}},
}


def doc_text(raw):
    return json.dumps(raw)


# -- parsing and round trips -------------------------------------------------


def test_round_trip_is_the_identity_on_the_shipped_corpus():
    paths = sorted(FIXTURES.glob("*.json"))
    assert len(paths) >= 6
    for path in paths:
        text = path.read_text(encoding="utf-8")
        doc = load_document(text)
        again = serialize_document(doc.raw)
        assert again == text, path.name
        assert load_document(again).raw == doc.raw


def test_shipped_fixtures_match_their_builders():
    """fixtures/*.json are exactly what scripts/build_fixtures.py writes."""
    built = load_script("build_fixtures").documents()
    assert sorted(built) == sorted(p.name for p in FIXTURES.glob("*.json"))
    for filename, text in built.items():
        assert (FIXTURES / filename).read_bytes() == text.encode("utf-8"), filename


def test_minimal_document_builds_working_objects():
    doc = load_document(doc_text(MINIMAL))
    q = doc.structures["q"]
    assert q.curvature() == {"c": -1}
    space, x = doc.elements["x"]
    assert x == {"x": 1}
    assert space is doc.spaces["s"]


def test_floats_are_rejected_everywhere():
    bad = doc_text(MINIMAL).replace('"c": "2"', '"c": 2.0')
    assert bad != doc_text(MINIMAL)
    with pytest.raises(InputError, match="exact scalars required"):
        parse_fixture_text(bad)
    with pytest.raises(InputError, match="exact scalars required"):
        parse_fixture_text('{"format_version": "1", "x": 1e3}')
    with pytest.raises(InputError, match="exact scalars required"):
        parse_fixture_text('{"format_version": "1", "x": NaN}')


def test_decimal_scalar_strings_are_rejected():
    raw = json.loads(doc_text(MINIMAL))
    raw["structures"]["q"]["components"]["2"]["x|x"]["c"] = "1.5"
    with pytest.raises(InputError):
        load_document(doc_text(raw))


def test_not_json_is_an_input_error():
    with pytest.raises(InputError, match="not valid fixture JSON"):
        parse_fixture_text("{")


def test_dangling_references_are_named():
    raw = json.loads(doc_text(MINIMAL))
    raw["structures"]["q"]["space"] = "nowhere"
    with pytest.raises(InputError, match="no space named 'nowhere'"):
        load_document(doc_text(raw))
    raw = json.loads(doc_text(MINIMAL))
    raw["morphisms"] = {"f": {"source": "q", "target": "ghost",
                              "components": {}}}
    with pytest.raises(InputError, match="no structure named 'ghost'"):
        load_document(doc_text(raw))


def test_unknown_fields_and_sections_are_rejected():
    raw = json.loads(doc_text(MINIMAL))
    raw["structures"]["q"]["extra"] = 1
    with pytest.raises(InputError, match="unknown field"):
        load_document(doc_text(raw))
    raw = json.loads(doc_text(MINIMAL))
    raw["chapters"] = {}
    with pytest.raises(InputError, match="unknown field"):
        load_document(doc_text(raw))


def test_format_version_is_checked():
    raw = json.loads(doc_text(MINIMAL))
    raw["format_version"] = "0"
    with pytest.raises(InputError, match="format_version"):
        load_document(doc_text(raw))


def test_word_and_tensor_keys():
    assert word_from_key("", "t") == ()
    assert word_from_key("x|x|c", "t") == ("x", "x", "c")
    assert word_key(()) == ""
    assert word_key(("x", "c")) == "x|c"
    assert tensor_from_key("@m", "t") == ((), "m")
    assert tensor_from_key("x|c@m", "t") == (("x", "c"), "m")
    with pytest.raises(InputError, match="word@generator"):
        tensor_from_key("x|c", "t")


def test_writer_round_trips_a_full_ladder():
    ladder = cech_fixb_ladder()
    writer = FixtureWriter()
    writer.add_ladder(ladder, "lad")
    doc = load_document(serialize_document(writer.raw))
    loaded = doc.ladders["lad"]
    assert loaded.source == ladder.source
    assert loaded.target == ladder.target
    assert loaded.augmented_map == ladder.augmented_map
    assert loaded.level_maps == ladder.level_maps


def test_writer_deduplicates_equal_spaces_and_structures():
    writer = FixtureWriter()
    a = writer.add_structure(fix_b(), "one")
    b = writer.add_structure(fix_b(), "two")
    assert a == b == "one"
    assert list(writer.raw["spaces"]) == ["one.space"]


# -- CLI ----------------------------------------------------------------------


def run_cli(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cli_mc_pass_and_fail(capsys):
    code, out, _ = run_cli(["mc", str(FIXTURES / "fix_b.json"),
                            "--element", "x"], capsys)
    assert code == 0
    assert "Maurer-Cartan" in out
    code, out, _ = run_cli(["mc", str(FIXTURES / "fix_b.json"),
                            "--element", "2x"], capsys)
    assert code == 1
    assert "NOT Maurer-Cartan" in out
    assert "residual: c: 3" in out


def test_cli_validate_flags_the_broken_bracket(capsys):
    code, out, _ = run_cli(
        ["validate", str(FIXTURES / "jacobi_violation.json")], capsys)
    assert code == 1
    assert "square to zero" in out


def test_cli_input_errors_exit_2(capsys):
    code, _, err = run_cli(["mc", str(FIXTURES / "fix_b.json"),
                            "--element", "nope"], capsys)
    assert code == 2
    assert "no element named" in err
    code, _, err = run_cli(["mc", str(FIXTURES / "missing.json"),
                            "--element", "x"], capsys)
    assert code == 2
    assert "cannot read fixture" in err


def test_cli_float_fixture_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(doc_text(MINIMAL).replace('"c": "2"', '"c": 0.5'),
                    encoding="utf-8")
    code, _, err = run_cli(["validate", str(path)], capsys)
    assert code == 2
    assert "exact scalars required" in err


def test_cli_twist_emits_a_loadable_flat_fixture(capsys):
    code, out, _ = run_cli(["twist", str(FIXTURES / "fix_b.json"),
                            "--element", "x"], capsys)
    assert code == 0
    doc = load_document(out)
    twisted = doc.structures["fix_b"]
    assert twisted.is_flat()
    assert twisted.component(1, ("x",)) == {"c": 2}


def test_cli_prop_key_accepts_the_mc_alias(capsys):
    code, out, _ = run_cli(["prop-key", str(FIXTURES / "cech_fixb_ladder.json"),
                            "--mc", "x"], capsys)
    assert code == 0
    assert "quasi-isomorphism" in out


def test_cli_adapted_mc_negative(capsys):
    code, out, _ = run_cli(["adapted-mc", str(FIXTURES / "nonadapted.json"),
                            "--element", "x"], capsys)
    assert code == 1
    assert "NOT adapted" in out


def test_cli_reports_are_byte_identical(tmp_path, capsys):
    outputs = []
    for i in (1, 2):
        report = tmp_path / f"r{i}.json"
        code, out, _ = run_cli(
            ["prop-key", str(FIXTURES / "cech_fixb_ladder.json"),
             "--mc", "x", "--report", str(report)], capsys)
        assert code == 0
        outputs.append((out, report.read_bytes()))
    assert outputs[0] == outputs[1]
    parsed = json.loads(outputs[0][1])
    assert parsed["verdict"] == "quasi-isomorphism"
    assert parsed["command"] == "prop-key"


def test_cli_twist_report_matches_stdout(tmp_path, capsys):
    report = tmp_path / "twisted.json"
    code, out, _ = run_cli(["twist", str(FIXTURES / "fix_b.json"),
                            "--element", "x", "--report", str(report)], capsys)
    assert code == 0
    assert report.read_text(encoding="utf-8") == out


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "linfty.cli", "validate",
         str(FIXTURES / "fix_a.json")],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "validate: pass" in proc.stdout
