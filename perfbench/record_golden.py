"""Record golden.json: input class and output digest of every pool input.

Run from the repository root:  python3 perfbench/record_golden.py

Every recorded op must pass its own verdict check; the script refuses to
write a table that contains a failing op.  Re-record only when the library's
outputs are meant to change, and say so in the change that does it.
"""

import json
import os
import sys
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402


def record(name, keys, op):
    table = {}
    for key in keys:
        result, label = op(key)
        if not result.ok:
            sys.exit(f"{name} {key}: op fails its own check, not recording")
        table[str(key)] = {"class": label, "digest": result.digest}
        print(f"{name} {key} {label} {result.seconds:.3f}s", flush=True)
    return table


def main():
    os.chdir(ROOT)
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    report = os.path.join("perfbench", "out", "golden-report.json")
    golden = {
        "cli-corpus": record("cli-corpus", range(len(workloads.CLI_RUNS)),
                             lambda i: workloads.cli_op(i, report)),
        "ladders": record("ladders", workloads.LADDER_POOL, workloads.ladder_op),
        "instances": record("instances", workloads.INSTANCE_POOL,
                            workloads.instance_op),
    }
    os.remove(report)
    for name in ("ladders", "instances"):
        freq = Counter(e["class"] for e in golden[name].values())
        print(name, dict(sorted(freq.items())))
    with open(workloads.GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
