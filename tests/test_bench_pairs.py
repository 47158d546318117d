"""scripts/bench_pairs.py runs alternated pairs and writes the BENCH JSON.

The script exports its base ref with git archive, so the test skips, with
that reason, in a tree that is not a git checkout (a source tarball).
"""

import json
from pathlib import Path
import subprocess
import sys

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "bench_pairs.py"


def in_a_git_checkout():
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True).returncode == 0
    except OSError:  # no git at all
        return False


@pytest.mark.skipif(not in_a_git_checkout(), reason=(
    "not a git checkout: bench_pairs.py exports its base ref with "
    "git archive"))
def test_one_short_pair_on_the_cli_corpus_writes_the_bench_json(tmp_path):
    out = tmp_path / "BENCH_smoke.json"
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--base", "HEAD", "--out", str(out),
         "--pairs", "1", "--seconds", "1", "--workload", "cli-corpus"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(out.read_text(encoding="utf-8"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert result["pairs"] == 1 and result["seconds"] == 1
    assert result["base"]["commit"] == result["head"]["commit"]
    assert result["base"]["src_lines"] > 0 and result["head"]["src_lines"] > 0
    assert list(result["workloads"]) == ["cli-corpus"]
    workload = result["workloads"]["cli-corpus"]
    assert workload["seeds"] == [31]
    assert workload["first"] == ["base"]
    assert workload["failed"] == {"base": [0], "head": [0]}
    assert workload["attempted"]["base"][0] > 0
    assert sorted(workload["metrics"]) == sorted(
        m["name"] for m in spec["end_to_end"])
    for name, metric in workload["metrics"].items():
        for side in ("base", "head"):
            figures = metric[side]
            assert len(figures["runs"]) == 1
            assert figures["median"] == figures["min"] == figures["runs"][0] > 0
        assert metric["head_better_pairs"] in (0, 1)
        assert metric["head_over_base"] > 0
