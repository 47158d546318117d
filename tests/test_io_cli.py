"""Fixture document round-trips, input diagnostics, CLI exit codes."""

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import load_script
from linfty.graded import GradedSpace, InputError, ONE
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
from linfty.homology import Matrix
from linfty.fixtures import (
    REGISTRY,
    fix_b,
    fix_c_cover,
    fix_c_diagram,
    morphism_t,
)
from linfty.resolutions import (
    ResolutionDiagram,
    ResolutionMorphism,
    check_resolution,
)
from linfty.structures import LInftyMorphism, LInftyStructure, strict_morphism

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


@pytest.mark.parametrize("text", [
    "[" * 100000 + "]" * 100000,  # deeper than the decoder's recursion limit
    '{"format_version": ' + "1" * 5000 + "}",  # past int's digit limit
], ids=["deep", "long-int"])
def test_json_past_the_decoder_limits_is_an_input_error(text, tmp_path, capsys):
    with pytest.raises(InputError, match="not valid fixture JSON"):
        parse_fixture_text(text)
    probe = tmp_path / "probe.json"
    probe.write_text(text, encoding="utf-8")
    code, _, err = in_process(["validate", str(probe)], capsys)
    assert code == 2 and err.startswith("error: not valid fixture JSON")


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


# Reference fields of each section, and whether the field holds a list.
REFERENCES = {
    "structures": {"space": False},
    "morphisms": {"source": False, "target": False},
    "modules": {"base": False, "space": False},
    "module_morphisms": {"source": False, "target": False},
    "elements": {"space": False},
    "resolutions": {"base": False, "augmented": False, "levels": True,
                    "augmentation": False, "connecting": True},
    "ladders": {"source": False, "target": False, "augmented_map": False,
                "level_maps": True},
}


def malformed_references(raw):
    """Copies of raw with one reference, or one whole list field, swapped
    for a list and then for a number."""
    for section, fields in REFERENCES.items():
        for name, obj in raw.get(section, {}).items():
            for field, many in fields.items():
                slots = [None] + (list(range(len(obj[field]))) if many else [])
                for slot in slots:
                    for bad in (["x"], 3):
                        doc = copy.deepcopy(raw)
                        holder, key = doc[section][name], field
                        if slot is not None:
                            holder, key = holder[field], slot
                        holder[key] = bad
                        yield doc


def test_malformed_references_are_input_errors():
    probes = 0
    for path in sorted(FIXTURES.glob("*.json")):
        raw = json.loads(path.read_text(encoding="utf-8"))
        for doc in malformed_references(raw):
            probes += 1
            with pytest.raises(InputError):
                load_document(doc_text(doc))
    assert probes > 200


def test_a_malformed_reference_exits_2(tmp_path, capsys):
    raw = json.loads((FIXTURES / "fix_b_pair.json").read_text(encoding="utf-8"))
    raw["morphisms"]["t"]["source"] = ["fix_b"]
    path = tmp_path / "bad.json"
    path.write_text(doc_text(raw), encoding="utf-8")
    code, _, err = run_cli(["validate", str(path)], capsys)
    assert code == 2
    assert "morphisms.t: no structure named ['fix_b']" in err


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


SECTION_OF = {LInftyStructure: "structures", LInftyMorphism: "morphisms",
              ResolutionDiagram: "resolutions", ResolutionMorphism: "ladders"}


@pytest.mark.parametrize("name", sorted(REGISTRY) + ["t"])
def test_writer_round_trips_every_builder(name):
    obj = REGISTRY[name]() if name in REGISTRY else morphism_t()
    writer = FixtureWriter()
    assert writer.add(obj, name) == name
    doc = load_document(serialize_document(writer.raw))
    loaded = getattr(doc, SECTION_OF[type(obj)])[name]
    if isinstance(obj, ResolutionMorphism):
        assert (loaded.source, loaded.target) == (obj.source, obj.target)
        assert loaded.verticals() == obj.verticals()
    else:
        assert loaded == obj


def test_writer_names_a_resolution_once_and_rejects_unknown_objects():
    writer = FixtureWriter()
    writer.add(fix_c_diagram(), "r")
    with pytest.raises(InputError, match="resolution name 'r' already used"):
        writer.add(fix_c_diagram(), "r")
    with pytest.raises(TypeError, match="no fixture section for Matrix"):
        writer.add(Matrix(1, 1), "m")


def test_writer_deduplicates_equal_spaces_and_structures():
    writer = FixtureWriter()
    a = writer.add(fix_b(), "one")
    b = writer.add(fix_b(), "two")
    assert a == b == "one"
    assert list(writer.raw["spaces"]) == ["one.space"]


def written_cech_document():
    """A covers + cech_of document for fix_c_diagram(), and that diagram."""
    cover = fix_c_cover()
    writer = FixtureWriter()
    writer.add_cover(cover, "cov")
    expected = fix_c_diagram()
    base = writer.add(expected.base, "global")
    restrictions = {
        name: writer.add(strict_morphism(
            expected.base, cover.local_structures[(name,)], {"f": {"f": ONE}}),
            f"r.{name}")
        for name in cover.opens}
    writer.raw["resolutions"] = {"fix_c": {
        "cech_of": "cov", "global": base, "restrictions": restrictions}}
    return writer.raw, expected


def test_cech_of_resolution_loads_from_a_written_cover():
    raw, expected = written_cech_document()
    doc = load_document(serialize_document(raw))
    assert sorted(doc.covers) == ["cov"]
    loaded = doc.resolutions["fix_c"]
    assert loaded == expected
    assert check_resolution(loaded)["ok"]


def malformed_covers(raw):
    """Copies of raw with one opens or nerve entry swapped for a list, an
    object, a number and a bare string; a nerve entry's bare string runs
    its names together, which was once read as its characters."""
    for field in ("opens", "nerve"):
        for slot, entry in enumerate(raw["covers"]["cov"][field]):
            bare = "x" if field == "opens" else "".join(entry)
            for bad in (["x"], {}, 3, bare):
                doc = copy.deepcopy(raw)
                doc["covers"]["cov"][field][slot] = bad
                yield doc


def test_malformed_cover_entries_are_input_errors(tmp_path, capsys):
    raw, _ = written_cech_document()
    probes = list(malformed_covers(raw))
    assert len(probes) == 20
    path = tmp_path / "bad.json"
    for doc in probes:
        with pytest.raises(InputError):
            load_document(doc_text(doc))
        path.write_text(doc_text(doc), encoding="utf-8")
        code, out, err = run_cli(["validate", str(path)], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: ")


def test_cover_errors_name_the_cover():
    raw, _ = written_cech_document()
    doc = copy.deepcopy(raw)
    opens = doc["covers"]["cov"]["opens"]
    opens[opens.index("U")] = "W"
    with pytest.raises(InputError) as info:
        load_document(doc_text(doc))
    assert str(info.value) == (
        "covers.cov: nerve tuple ('U',) mentions an unknown open")


def test_library_errors_inside_an_object_name_it(tmp_path, capsys):
    """A text raised by a scalar parser or a constructor gains the object's
    location; a text that already starts with it is left as it is."""
    raw = json.loads((FIXTURES / "fix_b_pair.json").read_text(encoding="utf-8"))
    path = tmp_path / "bad.json"
    for slot, value, text in (
            (("morphisms", "t", "components", "1", "c", "c"), "x",
             "morphisms.t[1].c.c: bad scalar literal 'x'"),
            (("morphisms", "t", "components", "1", "c", "c"), True,
             "morphisms.t[1].c.c: scalar must be an integer or 'p/q' string"),
            (("elements", "2x", "value"), {"nosuch": 1},
             "elements.2x: unknown generator 'nosuch'")):
        doc = copy.deepcopy(raw)
        holder = doc
        for key in slot[:-1]:
            holder = holder[key]
        holder[slot[-1]] = value
        path.write_text(doc_text(doc), encoding="utf-8")
        code, out, err = run_cli(["validate", str(path)], capsys)
        assert (code, out, err) == (2, "", f"error: {text}\n")


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


def test_cli_validate_sweeps_to_the_truncation_order(tmp_path, capsys):
    # Q o Q first fails on a^5: a sweep that stops at arity 4 passes it
    space = GradedSpace([("a", 0, 1), ("b", 1, 3), ("c", 2, 5)], 7)
    writer = FixtureWriter()
    writer.add(LInftyStructure(space, {3: {("a", "a", "a"): {"b": ONE},
                                           ("a", "a", "b"): {"c": ONE}}}), "q")
    path = tmp_path / "quintic.json"
    path.write_text(serialize_document(writer.raw), encoding="utf-8")
    code, out, _ = run_cli(["validate", str(path)], capsys)
    assert code == 1
    assert "on word ('a', 'a', 'a', 'a', 'a')" in out
    assert out.endswith("validate: FAIL\n")


def test_module_consistency_input_errors(tmp_path, capsys):
    pair = str(FIXTURES / "fix_b_pair.json")
    raw = json.loads((FIXTURES / "fix_b_pair.json").read_text(encoding="utf-8"))
    raw["spaces"]["other"] = {"generators": [["y", 0, 1]], "order": 3}
    raw["elements"]["y"] = {"space": "other", "value": {}}
    other = tmp_path / "other.json"
    other.write_text(doc_text(raw), encoding="utf-8")
    cases = [
        ([str(FIXTURES / "fix_b.json")], "fixture declares no morphisms"),
        ([pair], "this command needs --element <name>"),
        ([pair, "--element", "nope"], "no element named 'nope'"),
        ([str(other), "--element", "y"],
         "element 'y' matches no morphism source in the fixture"),
    ]
    for argv, message in cases:
        code, out, err = run_cli(["module-consistency"] + argv, capsys)
        assert (code, out) == (2, "")
        assert message in err


# Per command: its fixture, the flags a run of it needs, a value for every
# other flag it reads, and the exit code of a run with any one of those.
COMMAND_RUNS = {
    "validate": ("jacobi_violation.json", {}, {"--max-arity": "3"}, 1),
    "mc": ("fix_b.json", {"--element": "x"},
           {"--structure": "fix_b", "--max-arity": "3"}, 0),
    "twist": ("fix_b.json", {"--element": "x"},
              {"--structure": "fix_b", "--max-arity": "3"}, 0),
    "cohomology": ("fix_a.json", {},
                   {"--structure": "fix_a", "--max-arity": "3"}, 0),
    "twist-identities": ("fix_b_pair.json", {
        "--structure": "fix_b", "--element": "x", "--second-element": "2x"},
        {"--max-arity": "3", "--seed": "0"}, 0),
    "module-consistency": ("fix_b_pair.json", {"--element": "x"},
                           {"--max-arity": "3", "--seed": "0"}, 0),
    "resolution-check": ("fix_c.json", {},
                         {"--resolution": "fix_c", "--max-arity": "3"}, 0),
    "adapted-mc": ("cech_fixb.json", {"--element": "x"},
                   {"--resolution": "cech_fixb"}, 0),
    "prop-key": ("cech_fixb_ladder.json", {"--mc": "x"}, {
        "--ladder": "cech_fixb_ladder", "--element": "x", "--max-arity": "3",
        "--seed": "0"}, 0),
}
READ_FLAGS = [(command, flag) for command, (_, flags) in cli._COMMANDS.items()
              for flag in (*flags, "--report")]
UNREAD_FLAGS = [(command, flag) for command in cli._COMMANDS
                for flag in dict.fromkeys(f for _, f in READ_FLAGS)
                if (command, flag) not in READ_FLAGS]


def command_argv(command, *extra):
    fixture, needed, _, _ = COMMAND_RUNS[command]
    return [command, str(FIXTURES / fixture),
            *(arg for pair in needed.items() for arg in pair), *extra]


def test_command_runs_cover_the_flags_each_command_reads():
    assert sorted(COMMAND_RUNS) == sorted(cli._COMMANDS)
    for command, (_, flags) in cli._COMMANDS.items():
        _, needed, others, _ = COMMAND_RUNS[command]
        assert sorted({**needed, **others}) == sorted(flags), command
    assert len(READ_FLAGS) == 35


@pytest.mark.parametrize("command,flag", READ_FLAGS)
def test_each_flag_a_command_reads_keeps_its_exit_code(command, flag,
                                                       tmp_path, capsys):
    _, needed, others, want = COMMAND_RUNS[command]
    report = tmp_path / "report.json"
    value = str(report) if flag == "--report" else others.get(flag)
    extra = [] if flag in needed else [flag, value]
    code, out, err = run_cli(command_argv(command, *extra), capsys)
    assert (code, err) == (want, "")
    assert out
    assert report.exists() == (flag == "--report")


@pytest.mark.parametrize("command,flag", UNREAD_FLAGS)
def test_a_flag_a_command_does_not_read_exits_2(command, flag, tmp_path,
                                                capsys):
    """The flag is named with its value after the fixture and before it."""
    report = tmp_path / "report.json"
    argv = command_argv(command, "--report", str(report))
    for at in (len(argv), 1):
        code, out, err = in_process(argv[:at] + [flag, "1"] + argv[at:],
                                    capsys)
        assert (code, out) == (2, "")
        assert not report.exists()
        usage, message = err.splitlines()[0], err.splitlines()[-1]
        assert usage.startswith(f"usage: linfty {command} [-h]")
        assert message == (f"linfty {command}: error: "
                           f"unrecognized arguments: {flag} 1")
        assert all(f in err for c, f in READ_FLAGS if c == command)


@pytest.mark.parametrize("command,flag", READ_FLAGS)
def test_a_prefix_of_a_flag_a_command_reads_exits_2(command, flag, tmp_path,
                                                    capsys):
    """Flags are taken only as --help spells them: argparse's abbreviations
    are off, so a prefix is an unknown flag, named with its value."""
    report = tmp_path / "report.json"
    prefix = flag[:-1]
    pair = [prefix, str(report) if flag == "--report" else "1"]
    extra = [] if flag == "--report" else ["--report", str(report)]
    code, out, err = in_process(
        [command, str(FIXTURES / COMMAND_RUNS[command][0]), *pair, *extra],
        capsys)
    assert (code, out) == (2, "")
    assert not report.exists()
    assert err.splitlines()[-1] == (f"linfty {command}: error: "
                                    f"unrecognized arguments: {' '.join(pair)}")


def test_the_reported_misspellings_name_their_flag_and_value(capsys):
    fix_a = str(FIXTURES / "fix_a.json")
    for argv, named in ((["validate", "--seed", "5", fix_a], "--seed 5"),
                        (["validate", fix_a, "--max", "2"], "--max 2"),
                        (["validate", fix_a, "--max=2"], "--max=2")):
        code, out, err = in_process(argv, capsys)
        assert (code, out) == (2, "")
        assert err.endswith(f"unrecognized arguments: {named}\n")


@pytest.mark.parametrize("command", [
    command for command, flag in READ_FLAGS if flag == "--max-arity"])
def test_every_command_rejects_a_negative_max_arity(command, capsys):
    # an empty sweep must not report, say, the broken bracket as a pass
    code, out, err = run_cli(command_argv(command, "--max-arity", "-1"),
                             capsys)
    assert code == 2
    assert out == ""
    assert "max_arity must be nonnegative" in err


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


@pytest.mark.parametrize("field,value,text", [
    ("generators", [["x", 0], ["c", 1, 2]],
     "generator ['x', 0] is not a (name, degree, level) triple"),
    ("generators", [["x", True, 1], ["c", 1, 2]],
     "generator x: degree must be an integer"),
    ("order", None, "nilpotency order must be a positive integer"),
    ("generators", "x", "generators must be a list, got str"),
], ids=["not-a-triple", "bool-degree", "missing-order", "not-a-list"])
def test_cli_malformed_space_exits_2_and_names_it(field, value, text,
                                                  tmp_path, capsys):
    raw = copy.deepcopy(MINIMAL)
    if value is None:
        del raw["spaces"]["s"][field]
    else:
        raw["spaces"]["s"][field] = value
    path = tmp_path / "bad.json"
    path.write_text(doc_text(raw), encoding="utf-8")
    code, out, err = run_cli(["validate", str(path)], capsys)
    assert (code, out, err) == (2, "", f"error: spaces.s: {text}\n")


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


def test_corpus_script_counts_a_crash_as_disagreement():
    agrees = load_script("verify_corpus").agrees

    def run(code):
        return subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True)

    crash = run("import no_such_module_here")
    assert crash.returncode == 1 and not agrees(crash, 1)
    # what `python -m linfty.cli` prints when linfty is not on the path
    missing = subprocess.run([sys.executable, "-m", "no_such_package.cli"],
                             capture_output=True, text=True)
    assert missing.returncode == 1 and not agrees(missing, 1)
    failed = run("import sys; sys.exit('check failed: residual')")
    assert agrees(failed, 1) and not agrees(failed, 0)


def test_corpus_script_checks_this_checkout(tmp_path):
    root = Path(__file__).resolve().parent.parent
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "verify_corpus.py")],
        capture_output=True, text=True, env=env, cwd=tmp_path)
    n = len(load_script("verify_corpus").RUNS)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.endswith(f"{n}/{n} invocations agree\n")


def test_twist_survey_script_runs():
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "twist_survey.py"),
         "--seeds", "2"], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert "all laws hold" in proc.stdout


# -- one parser per process ----------------------------------------------------

HELP = Path(__file__).resolve().parent / "data" / "help"
LADDER = str(FIXTURES / "cech_fixb_ladder.json")
FIX_B = str(FIXTURES / "fix_b.json")
JACOBI = str(FIXTURES / "jacobi_violation.json")

# Each call sets flags that the call after it leaves unset, so a value kept
# by the reused parser shows as a changed exit code, output or report.  Two
# calls end in argparse's own exit 2; "{report}" stands for a fresh path.
REUSE_SEQUENCE = [
    ["prop-key", LADDER, "--mc", "x", "--max-arity", "2",
     "--ladder", "cech_fixb_ladder", "--report", "{report}"],
    ["prop-key", LADDER],
    ["prop-key", LADDER, "--element", "x", "--seed", "0"],
    ["prop-key", LADDER, "--element", "x"],
    ["no-such-command", FIX_B],
    ["validate", JACOBI, "--max-arity", "1", "--report", "{report}"],
    ["validate", JACOBI],
    ["mc", FIX_B, "--element", "x", "--structure", "fix_b",
     "--report", "{report}"],
    ["mc"],
    ["mc", FIX_B, "--element", "2x"],
    ["prop-key", LADDER, "--mc", "x"],
]


def in_process(argv, capsys):
    try:
        code = cli.main(argv)
    except SystemExit as e:
        code = e.code
    out = capsys.readouterr()
    return code, out.out, out.err


def fresh_process(argv):
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "linfty.cli", *argv],
                          capture_output=True, text=True, env=env)
    return proc.returncode, proc.stdout, proc.stderr


def with_report(argv, path):
    return [str(path) if arg == "{report}" else arg for arg in argv]


def test_repeated_main_calls_match_fresh_processes(tmp_path, monkeypatch, capsys):
    """No flag value, report path or parse error carries into the next call."""
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage lines by it
    inside = tmp_path / "inside"
    fresh = tmp_path / "fresh"
    inside.mkdir()
    fresh.mkdir()
    runs = []
    for i, argv in enumerate(REUSE_SEQUENCE):
        report = inside / f"{i}.json"
        got = in_process(with_report(argv, report), capsys)
        runs.append((argv, got, report.read_bytes() if report.exists() else None))
    for i, (argv, got, report) in enumerate(runs):
        path = fresh / f"{i}.json"
        want = fresh_process(with_report(argv, path))
        assert got == want, argv
        assert report == (path.read_bytes() if path.exists() else None), argv
        # a later call that kept this --report path would have rewritten it
        assert (report is None) == ("{report}" not in argv)
        if report is not None:
            assert (inside / f"{i}.json").read_bytes() == report
    codes = [code for _, (code, _, _), _ in runs]
    assert codes == [0, 2, 0, 0, 2, 0, 1, 0, 2, 1, 0]
    assert "this command needs --element <name>" in runs[1][1][2]
    assert "random ladder (seed 0)" in runs[2][1][1]
    assert "random ladder" not in runs[3][1][1]
    assert sorted(p.name for p in inside.iterdir()) == ["0.json", "5.json", "7.json"]


@pytest.mark.parametrize("command", [None] + list(cli._COMMANDS))
def test_help_text_is_pinned(command, monkeypatch, capsys):
    """--help is byte-identical to the text pinned in tests/data/help.

    The pinned files are the output of `COLUMNS=80 linfty --help` and of
    `COLUMNS=80 linfty <command> --help`; each is asked for twice, so the
    second read comes from the reused parser.
    """
    monkeypatch.setenv("COLUMNS", "80")
    argv = ["--help"] if command is None else [command, "--help"]
    pinned = (HELP / f"{command or 'linfty'}.txt").read_text(encoding="utf-8")
    for _ in range(2):
        assert in_process(argv, capsys) == (0, pinned, "")


def test_every_help_text_is_pinned():
    assert sorted(p.stem for p in HELP.glob("*.txt")) == sorted(
        ["linfty", *cli._COMMANDS])
    lines = (HELP / "prop-key.txt").read_text(encoding="utf-8").splitlines()
    element = lines.index(
        "  --element ELEMENT     named element used as twist datum")
    assert lines[element + 1] == "  --mc ELEMENT          alias for --element"


# -- malformed input sweep -----------------------------------------------------

DEEP_LIST = [[[[[[[[[["x"]]]]]]]]]]
BAD_VALUES = [None, True, 1.5, -1, "", "x", [], {}, 10 ** 40,
              ["x"], {"x": 1}, DEEP_LIST]
SWEPT = {
    "fix_b_pair.json": ["validate", "--max-arity", "2"],
    "fix_c.json": ["resolution-check", "--max-arity", "2"],
    "cech_fixb_ladder.json": ["prop-key", "--mc", "x", "--max-arity", "2"],
    "minimal": ["validate", "--max-arity", "2"],
    "written covers + cech_of": ["resolution-check", "--max-arity", "2"],
}
# The decoder's texts: they concern the whole document, not one object.
DOCUMENT_TEXTS = ("not valid fixture JSON", "exact scalars required: float literal")


def swept_document(name):
    """A shipped fixture, or one of the two documents built above."""
    if name == "minimal":
        return copy.deepcopy(MINIMAL)
    if name == "written covers + cech_of":
        return written_cech_document()[0]
    return json.loads((FIXTURES / name).read_text(encoding="utf-8"))


def swept_slots(node, path=()):
    """Path of every field of every object and of every list entry."""
    if isinstance(node, dict):
        entries = node.items()
    elif isinstance(node, list):
        entries = enumerate(node)
    else:
        return
    for key, value in entries:
        yield path + (key,)
        yield from swept_slots(value, path + (key,))


def malformed_texts(raw):
    """(slot path, raw with that slot swapped for each bad value, then removed).

    Mutates raw in place and restores it after each slot; keys are sorted,
    so a removed and restored field does not change later texts.
    """
    for path in list(swept_slots(raw)):
        parent = raw
        for key in path[:-1]:
            parent = parent[key]
        key = path[-1]
        kept = parent[key]
        for value in BAD_VALUES:
            parent[key] = value
            yield path, json.dumps(raw, sort_keys=True)
        del parent[key]
        yield path, json.dumps(raw, sort_keys=True)
        if isinstance(parent, list):
            parent.insert(key, kept)
        else:
            parent[key] = kept


def test_malformed_documents_load_or_raise_input_errors(tmp_path, capsys):
    """Every probe loads or raises InputError; every 50th also runs the CLI.

    A probe inside an object raises a text that starts with the location
    of an object of the document, or one of the decoder's texts.
    """
    probe = tmp_path / "probe.json"
    outcomes = {"loaded": 0, "InputError": 0}
    cli_codes = set()
    n = 0
    for name, flags in SWEPT.items():
        raw = swept_document(name)
        before_text = serialize_document(raw)
        locations = tuple(f"{section}.{obj}{mark}"
                          for section in raw if section != "format_version"
                          for obj in raw[section] for mark in ":.[")
        slots = len(list(swept_slots(raw)))
        before = n
        for path, text in malformed_texts(raw):
            try:
                load_document(text)
                outcomes["loaded"] += 1
            except InputError as exc:
                outcomes["InputError"] += 1
                assert len(path) < 2 or str(exc).startswith(
                    locations + DOCUMENT_TEXTS), (name, path, str(exc))
            if n % 50 == 0:
                probe.write_text(text, encoding="utf-8")
                code, _, err = in_process([flags[0], str(probe), *flags[1:]],
                                          capsys)
                assert code in (0, 1, 2) and "Traceback" not in err, (name, n)
                cli_codes.add(code)
            n += 1
        assert n - before == slots * (len(BAD_VALUES) + 1), name
        assert serialize_document(raw) == before_text, name
    assert sum(outcomes.values()) == n > 4500
    assert outcomes["loaded"] and outcomes["InputError"]
    assert 2 in cli_codes
