#!/usr/bin/env python3
"""Alternated benchmark pairs: a base ref against this checkout.

    python3 scripts/bench_pairs.py --base HEAD~1 --out BENCH_<number>.json
    python3 scripts/bench_pairs.py --base HEAD --pairs 1 --seconds 1 \\
        --workload cli-corpus --out /tmp/bench.json

The base ref's committed files are exported with `git archive` into a
temporary directory.  Then, per workload, `perfbench/run.py --trace 0` runs
N times in each tree, one base run and one checkout run per pair, at seed
31 + p for pair p; the tree that goes first alternates from pair to pair,
so a slow spell of the machine does not always fall on one side.  Only the
last stdout line of each run, its JSON result, is read.

The output (--out) holds, per
workload and end-to-end metric of BENCHMARK.json, every run's value and
the median and min of each side, the ratio of the medians and the number
of pairs the checkout won; per workload also the failed and attempted op
counts of every run and the seeds; and both trees' src/linfty line counts.
A gain claim needs at least 3 pairs.  Standard library only; nothing under
perfbench/ is imported, and only run.py writes there (perfbench/out).
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIRST_SEED = 31


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def export_ref(ref, dest):
    """The committed files of ref, written under dest by git archive."""
    archive = os.path.join(dest, "base.tar")
    with open(archive, "wb") as fh:
        subprocess.run(["git", "archive", "--format=tar", ref], cwd=ROOT,
                       check=True, stdout=fh)
    tree = os.path.join(dest, "base")
    with tarfile.open(archive) as tar:
        tar.extractall(tree)
    os.remove(archive)
    return tree


def src_lines(tree):
    """Newlines in the tree's src/linfty/*.py, as the benchmark counts them."""
    pkg = os.path.join(tree, "src", "linfty")
    total = 0
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                total += fh.read().count(b"\n")
    return total


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_once(tree, workload, seed, seconds):
    """The JSON result line of one timed run of perfbench/run.py in tree."""
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    if proc.returncode or not lines:
        raise SystemExit(f"run.py failed in {tree} ({workload}, seed {seed}):\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def summary(values):
    return {"median": statistics.median(values), "min": min(values),
            "runs": values}


def compare(runs, metrics, seeds):
    """Per-metric medians, mins and pair wins of one workload's runs."""
    out = {"seeds": seeds,
           "first": ["base" if p % 2 == 0 else "head"
                     for p in range(len(seeds))],
           "failed": {side: [r["failed"] for r in runs[side]]
                      for side in runs},
           "attempted": {side: [r["attempted"] for r in runs[side]]
                         for side in runs},
           "metrics": {}}
    for metric in metrics:
        name, higher = metric["name"], metric["better"] == "higher"
        values = {side: [r["metrics"][name]["value"] for r in runs[side]]
                  for side in runs}
        wins = sum((h > b) if higher else (h < b)
                   for b, h in zip(values["base"], values["head"]))
        base, head = summary(values["base"]), summary(values["head"])
        out["metrics"][name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "base": base,
            "head": head,
            "head_over_base": (head["median"] / base["median"]
                               if base["median"] else None),
            "head_better_pairs": wins,
        }
    return out


def main(argv=None):
    spec = benchmark_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True,
                        help="git ref of the base, exported by git archive")
    parser.add_argument("--out", required=True,
                        help="path of the JSON, BENCH_<pr>.json by convention")
    parser.add_argument("--pairs", type=int, default=3)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--workload", action="append", choices=workloads,
                        help="repeatable; default: every workload")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    scratch = tempfile.mkdtemp(prefix="bench_pairs-")
    try:
        base_tree = export_ref(args.base, scratch)
        base = {"ref": args.base, "commit": git("rev-parse", args.base),
                "src_lines": src_lines(base_tree)}
        head = {"commit": git("rev-parse", "HEAD"),
                "dirty": bool(git("status", "--porcelain", "--", "src")),
                "src_lines": src_lines(ROOT)}
        trees = {"base": base_tree, "head": ROOT}
        seeds = [FIRST_SEED + p for p in range(args.pairs)]
        result = {"base": base, "head": head, "pairs": args.pairs,
                  "seconds": args.seconds,
                  "machine": {"python": platform.python_version(),
                              "nproc": os.cpu_count()},
                  "workloads": {}}
        for workload in args.workload or workloads:
            runs = {"base": [], "head": []}
            for p, seed in enumerate(seeds):
                order = ("base", "head") if p % 2 == 0 else ("head", "base")
                for side in order:
                    runs[side].append(run_once(trees[side], workload, seed,
                                               args.seconds))
                    print(f"{workload} pair {p} {side}: ops_per_s "
                          f"{runs[side][-1]['metrics']['ops_per_s']['value']:.4g}",
                          file=sys.stderr)
            result["workloads"][workload] = compare(runs, spec["end_to_end"],
                                                    seeds)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
