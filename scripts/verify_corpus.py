#!/usr/bin/env python3
"""Run the whole CLI surface over the shipped corpus and check exit codes.

Prints one line per invocation and exits nonzero when any run disagrees
with the expected code.  Negative fixtures are expected to exit 1; that
counts as agreement only when stderr holds no Python crash report (a
traceback, or the note that the module could not be found), since a crash
exits 1 too.  The runs import linfty from this checkout's src/ first.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
CRASH_MARKERS = ("Traceback (most recent call last)",
                 "Error while finding module specification")

RUNS = [
    (["validate", "fix_a.json"], 0),
    (["validate", "fix_b.json"], 0),
    (["validate", "fix_b2.json"], 0),
    (["validate", "fix_b_pair.json"], 0),
    (["validate", "fix_c.json"], 0),
    (["validate", "cech_fixb.json"], 0),
    (["validate", "cech_fixb_ladder.json"], 0),
    (["validate", "nonadapted.json"], 0),
    (["validate", "perturbed_ladder.json"], 0),
    (["validate", "jacobi_violation.json"], 1),
    (["mc", "fix_b.json", "--element", "x"], 0),
    (["mc", "fix_b.json", "--element", "2x"], 1),
    (["twist", "fix_b.json", "--element", "x"], 0),
    (["cohomology", "fix_a.json"], 0),
    (["twist-identities", "fix_b_pair.json", "--structure", "fix_b",
      "--element", "x", "--second-element", "2x"], 0),
    (["module-consistency", "fix_b_pair.json", "--element", "x"], 0),
    (["resolution-check", "fix_c.json"], 0),
    (["resolution-check", "cech_fixb.json"], 0),
    (["resolution-check", "nonadapted.json"], 0),
    (["adapted-mc", "fix_c.json", "--element", "zero"], 0),
    (["adapted-mc", "cech_fixb.json", "--element", "x"], 0),
    (["adapted-mc", "nonadapted.json", "--element", "x"], 1),
    (["prop-key", "cech_fixb_ladder.json", "--mc", "x"], 0),
    (["prop-key", "perturbed_ladder.json", "--element", "zero"], 1),
]


def agrees(proc, expected):
    """The expected exit code, reached without a crash."""
    return proc.returncode == expected and not any(
        marker in proc.stderr for marker in CRASH_MARKERS)


def main():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    bad = 0
    for args, expected in RUNS:
        argv = [sys.executable, "-m", "linfty.cli", args[0],
                str(FIXTURES / args[1])] + args[2:]
        proc = subprocess.run(argv, capture_output=True, text=True, env=env)
        agree = agrees(proc, expected)
        mark = "ok " if agree else "BAD"
        print(f"{mark} exit={proc.returncode} expected={expected}  "
              + " ".join(args))
        if not agree:
            bad += 1
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
    print(f"{len(RUNS) - bad}/{len(RUNS)} invocations agree")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
