"""The benchmark's traced counters stay defined on the current library.

perfbench/run.py --trace 1 wraps the library's public functions and reads
the per-layer metrics that BENCHMARK.json promises.  A metric reads a
function by name, and a ratio is left undefined when its denominator is 0
(a fast path that skips the work it divides by), either of which makes a
traced run malformed.  This test runs one op of each workload under the
tracer, in memory, and checks that every metric is there and defined and
that each op's output still matches perfbench/golden.json.  It runs the
three ops a second time in the same process, where a memo kept across ops
could hide the work a ratio divides by, and checks the same again.  It
reads perfbench/ and writes nothing there.
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"

# Cheap ops: a 3-generator ladder and instance, and a prop-key corpus run.
LADDER_SEED = 28
INSTANCE_SEED = 1
CLI_INDEX = 22


@pytest.fixture(scope="module")
def bench():
    """perfbench's tracing and workloads modules, imported without bytecode."""
    sys.path.insert(0, str(PERFBENCH))
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        import tracing
        import workloads
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.remove(str(PERFBENCH))
    return tracing, workloads


def traced_ops(tracing, workloads, names, report):
    """One op of each workload under a fresh tracer: (metrics, undefined,
    op results)."""
    tracer = tracing.Tracer()
    with tracing.traced(tracer, names):
        with tracer.op_span(0):
            ladder, _ = workloads.ladder_op(LADDER_SEED)
        with tracer.op_span(1):
            instance, _ = workloads.instance_op(INSTANCE_SEED)
        with tracer.op_span(2):
            cli, _ = workloads.cli_op(CLI_INDEX, report)
    metrics, undefined = tracing.layer_metrics(tracer, untraced_s=1.0,
                                               traced_s=1.0)
    return metrics, undefined, [ladder, instance, cli]


def test_one_traced_op_per_workload_defines_every_metric(bench, tmp_path,
                                                          monkeypatch):
    """Twice in one process: a memo kept across ops must not hide, on the
    second pass, the work that a traced ratio divides by."""
    tracing, workloads = bench
    monkeypatch.chdir(ROOT)  # the corpus names its fixtures from the root
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        names = [m["name"] for m in json.load(fh)["per_layer"]]
    assert workloads.CLI_RUNS[CLI_INDEX][0][0] == "prop-key"
    golden = workloads.load_golden()
    passes = [traced_ops(tracing, workloads, names,
                         str(tmp_path / f"report-{run}.json"))
              for run in range(2)]
    for metrics, undefined, ops in passes:
        assert undefined == []
        assert sorted(metrics) == sorted(names)
        assert [op.digest for op in ops] == [
            golden["ladders"][str(LADDER_SEED)]["digest"],
            golden["instances"][str(INSTANCE_SEED)]["digest"],
            golden["cli-corpus"][str(CLI_INDEX)]["digest"]]
        assert all(op.ok for op in ops)
    # the count metrics read the same work on the warm pass
    first, second = (metrics for metrics, _, _ in passes)
    counted = [name for name in names if name.endswith((".terms", ".words"))]
    assert [second[name] for name in counted] == [first[name] for name in counted]


def test_profile_ops_prints_both_tables(capsys, monkeypatch):
    """scripts/profile_ops.py profiles warm ops and prints two tables."""
    from conftest import load_script

    monkeypatch.setattr(sys, "path", list(sys.path))  # the script adds to it
    script = load_script("profile_ops")
    assert script.main(["--workload", "instances", "--ops", "3"]) == 0
    out = capsys.readouterr().out
    assert "== 3 instances ops by tottime ==" in out
    assert "== 3 instances ops by cumulative ==" in out
    assert "instance_op" in out


def test_profile_ops_profiles_the_cli_corpus(capsys, monkeypatch, tmp_path):
    """The cli-corpus profile runs from the root, writes its reports into a
    temporary directory and nothing under perfbench/, and restores the
    working directory."""
    from conftest import load_script

    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.chdir(tmp_path)
    before = sorted(PERFBENCH.rglob("*"))
    script = load_script("profile_ops")
    assert script.main(["--workload", "cli-corpus", "--ops", "4"]) == 0
    out = capsys.readouterr().out
    assert "== 4 cli-corpus ops by tottime ==" in out
    assert "cli_op" in out
    assert sorted(PERFBENCH.rglob("*")) == before
    assert Path.cwd() == tmp_path and not any(tmp_path.iterdir())
