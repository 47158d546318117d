"""Tests of the benchmark harness itself (not of linfty).

Run from the repository root:  python3 -m pytest -q perfbench
"""

import os
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402

# Cheap inputs: a 3-generator ladder and instance, and three corpus runs.
LADDER_SEED = 28
INSTANCE_SEED = 1
CLI_INDEXES = (1, 11, 23)


@pytest.fixture
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


@pytest.fixture(scope="module")
def golden():
    return workloads.load_golden()


def fake_clock(times):
    it = iter(times)
    return lambda: next(it)


def test_self_times_of_nested_spans():
    spans = [
        ("bench.op", 0, -1, 0.0, 10.0, True),
        ("structures.compose", 0, 0, 1.0, 6.0, True),
        ("structures.morphism_apply", 0, 1, 2.0, 3.0, True),
        ("structures.morphism_apply", 0, 1, 4.0, 5.5, True),
        ("homology.rank", 0, 0, 7.0, 9.0, True),
    ]
    assert tracing.self_times(spans) == [3.0, 2.5, 1.0, 1.5, 2.0]


def test_layer_metrics_from_recorded_tree():
    # op [0, 20]: compose [1, 11] holding a nested compose [2, 6] that holds
    # morphism_apply [3, 4]; then rank [12, 15]
    tracer = tracing.Tracer(clock=fake_clock([0, 1, 2, 3, 4, 6, 11, 12, 15, 20]))
    with tracer.op_span(0):
        outer = tracer.enter("structures.compose")
        t_outer = tracer.clock()
        inner = tracer.enter("structures.compose")
        t_inner = tracer.clock()
        apply_ = tracer.enter("structures.morphism_apply")
        t_apply = tracer.clock()
        tracer.leave(apply_, t_apply, tracer.clock())
        tracer.leave(inner, t_inner, tracer.clock())
        tracer.leave(outer, t_outer, tracer.clock())
        rank = tracer.enter("homology.rank")
        t_rank = tracer.clock()
        tracer.leave(rank, t_rank, tracer.clock())
    assert [s[2] for s in tracer.spans] == [-1, 0, 1, 2, 0]
    m, undefined = tracing.layer_metrics(tracer, untraced_s=4.0, traced_s=6.0)
    # compose self: outer 10 - 4 + inner 4 - 1; morphism_apply 1
    assert m["structures.self_s"] == (10.0, "s")
    assert m["structures.morphism_apply.self_s"] == (1.0, "s")
    assert m["homology.self_s"] == (3.0, "s")
    assert m["graded.self_s"] == (0.0, "s")
    assert m["trace.overhead_ratio"] == (1.5, "ratio")
    # no multi-shuffle term was visited: the ratio is left out, not 0
    assert "structures.morphism_apply.useful_ratio" not in m
    assert undefined == ["structures.morphism_apply.useful_ratio"]


def test_hook_time_is_in_no_layer_and_no_total():
    # op [0, 20]: compose [1, 11] runs a hook [2, 4] before its child
    # morphism_apply [4, 8], which itself runs a hook [5, 6]
    spans = [
        ("bench.op", 0, -1, 0.0, 20.0, True),
        ("structures.compose", 0, 0, 1.0, 11.0, True),
        ("trace.hook", 0, 1, 2.0, 4.0, True),
        ("structures.morphism_apply", 0, 1, 4.0, 8.0, True),
        ("trace.hook", 0, 3, 5.0, 6.0, True),
    ]
    assert tracing.hook_times(spans) == [3.0, 3.0, 2.0, 1.0, 1.0]
    tracer = tracing.Tracer()
    tracer.spans = spans
    m, _ = tracing.layer_metrics(tracer, untraced_s=1.0, traced_s=1.0)
    assert m["structures.self_s"] == (10.0 - 6.0 + 3.0, "s")
    assert m["structures.morphism_apply.self_s"] == (3.0, "s")


def test_hook_runs_in_its_own_span():
    tracer = tracing.Tracer(clock=fake_clock([0, 1, 2, 3]))
    with tracer.op_span(0):
        assert tracer.hook(lambda a, b: a + b, 1, 2) == 3
    assert [(s[0], s[2], s[3], s[4]) for s in tracer.spans] == [
        ("bench.op", -1, 0, 3), ("trace.hook", 0, 1, 2)]


def test_metric_reading_an_unwrapped_function_is_reported():
    wrapped = {"graded.shuffles", "structures.morphism_apply",
               "homology.ChainComplex.cohomology"}
    assert tracing.unwrapped(
        ["graded.shuffles.terms", "graded.self_s", "homology.cohomology.calls",
         "trace.overhead_ratio"], wrapped) == []
    assert tracing.unwrapped(
        ["graded.multi_shuffles.terms", "structures.morphism_apply.useful_ratio",
         "io.self_s", "fractions.new"], wrapped) == [
        "graded.multi_shuffles.terms", "structures.morphism_apply.useful_ratio",
        "io.self_s", "fractions.new"]


def test_every_benchmark_metric_is_traced():
    import json
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        names = [m["name"] for m in json.load(fh)["per_layer"]]
    tracer = tracing.Tracer()
    with tracing.traced(tracer, names) as inst:
        assert tracing.unwrapped(names, inst.wrapped) == []
    tracer.counts["structures.morphism_apply.shuffle_terms"] = 1
    m, undefined = tracing.layer_metrics(tracer, untraced_s=1.0, traced_s=1.0)
    assert sorted(m) == sorted(names) and undefined == []


def test_layer_callables_include_cached_functions(monkeypatch):
    import functools
    import linfty.graded
    cached = functools.lru_cache(maxsize=None)(linfty.graded.shuffles)
    monkeypatch.setattr(linfty.graded, "shuffles", cached)
    assert tracing._layer_functions("graded")["shuffles"] is cached
    tracer = tracing.Tracer()
    with tracing.traced(tracer, ["graded.shuffles.terms"]):
        assert linfty.graded.shuffles is not cached
        linfty.graded.shuffles(1, 1)
    assert linfty.graded.shuffles is cached
    assert tracer.counts["graded.shuffles.terms"] > 0


def test_repeat_ratio_counts_equal_arguments_within_one_op():
    tracer = tracing.Tracer()
    with tracer.op_span(0):
        tracer.note_repeat("f", ({"a": Fraction(1)},))
        tracer.note_repeat("f", ({"a": Fraction(1)},))
        tracer.note_repeat("f", ({"a": Fraction(2)},))
    with tracer.op_span(1):
        tracer.note_repeat("f", ({"a": Fraction(1)},))
    assert tracer.counts["f.repeats"] == 1


def bindings():
    """Every function binding the tracer may replace, by identity."""
    from linfty.graded import GradedSpace
    from linfty.homology import ChainComplex
    out = {}
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "linfty" or name.startswith("linfty.")):
            for attr, value in vars(module).items():
                if callable(value):
                    out[(name, attr)] = value
    for cls, attr in ((GradedSpace, "normalize_word"),
                      (GradedSpace, "enumerate_words"),
                      (ChainComplex, "cohomology"), (Fraction, "__new__")):
        out[(cls.__name__, attr)] = vars(cls)[attr]
    return out


def run_ops(report_path):
    ladder, _ = workloads.ladder_op(LADDER_SEED)
    instance, _ = workloads.instance_op(INSTANCE_SEED)
    cli = [workloads.cli_op(i, report_path)[0] for i in CLI_INDEXES]
    return [ladder, instance] + cli


def test_traced_run_restores_every_binding_and_keeps_outputs(at_root, tmp_path,
                                                             golden):
    report = str(tmp_path / "report.json")
    before = bindings()
    plain = run_ops(report)
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        import linfty.structures
        assert linfty.structures.morphism_apply is not \
            before[("linfty.structures", "morphism_apply")]
        with tracer.op_span(0):
            traced = run_ops(report)
    after = bindings()
    assert before.keys() == after.keys()
    assert all(after[k] is v for k, v in before.items())
    assert [r.digest for r in traced] == [r.digest for r in plain]
    expected = ([golden["ladders"][str(LADDER_SEED)]["digest"],
                 golden["instances"][str(INSTANCE_SEED)]["digest"]]
                + [golden["cli-corpus"][str(i)]["digest"] for i in CLI_INDEXES])
    assert [r.digest for r in plain] == expected
    assert tracer.counts["fractions.new"] > 0
    assert tracer.counts["structures.morphism_apply.calls_strict"] > 0


def test_traced_counts_repeat_exactly(at_root, tmp_path):
    report = str(tmp_path / "report.json")
    counts = []
    for _ in range(2):
        tracer = tracing.Tracer()
        with tracing.traced(tracer):
            for op, index in enumerate(CLI_INDEXES):
                with tracer.op_span(op):
                    workloads.cli_op(index, report)
        counts.append(tracer.counts)
    assert counts[0] == counts[1]
    assert counts[0]["cli.main.calls"] == len(CLI_INDEXES)


def test_wrong_expectation_counts_as_failed(at_root, tmp_path, golden):
    wl = workloads.Workload("cli-corpus", golden, str(tmp_path / "report.json"))
    perturbed = 23
    args, code = wl.cli_runs[perturbed]
    assert args[:2] == ("prop-key", "perturbed_ladder.json") and code == 1
    assert wl.run(perturbed).ok
    wl.cli_runs = (wl.cli_runs[:perturbed] + ((args, 0),)
                   + wl.cli_runs[perturbed + 1:])
    result = wl.run(perturbed)
    assert not result.ok
    assert result.error == "wrong verdict or exit code"


def test_digest_mismatch_counts_as_failed(at_root, golden):
    tampered = dict(golden)
    tampered["ladders"] = dict(golden["ladders"])
    tampered["ladders"][str(LADDER_SEED)] = {"class": "3:0,1,2", "digest": "0" * 64}
    result = workloads.Workload("ladders", tampered).run(LADDER_SEED)
    assert not result.ok
    assert result.error == "output digest differs from golden.json"


def test_digest_ignores_integer_versus_fraction():
    assert workloads.digest({"x": Fraction(2)}) == workloads.digest({"x": 2})
    assert workloads.digest({"x": Fraction(1, 2)}) != workloads.digest({"x": 2})


def test_cycles_share_one_class_mix(golden):
    import random
    wl = workloads.Workload("ladders", golden)
    classes = {int(k): e["class"] for k, e in golden["ladders"].items()}
    for seed in (1, 2):
        cycles = wl.cycles(random.Random(seed))
        mixes = [sorted(classes[s] for s in next(cycles)) for _ in range(3)]
        assert mixes[0] == mixes[1] == mixes[2]
        assert len(mixes[0]) == sum(n for _, n in workloads.LADDER_CYCLE)


def test_exception_counts_as_failed_and_keeps_its_time(golden):
    wl = workloads.Workload("instances", golden)
    wl.raw_op = lambda key: 1 / 0
    result = wl.run(INSTANCE_SEED)
    assert not result.ok
    assert result.error.startswith("ZeroDivisionError")
    assert result.seconds >= 0 and result.verdict_s == result.seconds


def test_tally_writes_ops_as_they_finish_and_keeps_cycle_figures():
    import io
    import run
    ops = io.StringIO()
    tally = run.Tally(ops)
    for cycle in range(3):
        results = [workloads.OpResult(k, 3, 0.1 * (k + 1), 0.05, "d", ok=k != 1)
                   for k in range(4)]
        tally.add_cycle(results)
        assert ops.getvalue().count("\n") == 4 * (cycle + 1)
    assert vars(tally).keys() == {"ops_file", "figures", "samples", "failed",
                                  "failures", "sizes", "seconds"}
    assert (tally.samples, tally.failed, dict(tally.sizes)) == (12, 3, {"3": 12})
    assert len(tally.figures[True]) == len(tally.figures[False]) == 3
    assert tally.figures[True][0]["p50"] == pytest.approx(0.25)
    assert tally.figures[True][0]["rate"] == pytest.approx(4 / 1.0)
