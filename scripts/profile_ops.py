#!/usr/bin/env python3
"""Profile warm benchmark ops under cProfile and print the top functions.

Runs the ops of one perfbench workload (ladders, instances or cli-corpus)
in this process: first one warm-up cycle unprofiled, then N profiled ops
drawn from the same fixed class mix (for cli-corpus, the corpus runs in
shuffled cycles).  Prints the top functions by self time and by cumulative
time.  perfbench/workloads.py is imported, never changed; the library is
imported from this checkout's src/.  A cli-corpus op runs from the
checkout's root and writes its report into a temporary directory.

    python3 scripts/profile_ops.py --workload ladders --ops 50
"""

import argparse
import cProfile
import io
import os
import pstats
import random
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOP = 25  # functions per table


def load_workloads():
    """perfbench/workloads.py, with linfty from this checkout's src/.

    No bytecode is written under perfbench/.
    """
    for path in (os.path.join(ROOT, "perfbench"), os.path.join(ROOT, "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        import workloads
    finally:
        sys.dont_write_bytecode = dont_write
    return workloads


def op_keys(workload):
    """Op keys in the benchmark's cycle order, one cycle after another."""
    for cycle in workload.cycles(random.Random("profile")):
        yield from cycle


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("ladders", "instances", "cli-corpus"))
    parser.add_argument("--ops", type=int, default=50,
                        help="profiled ops after the warm-up (default 50)")
    args = parser.parse_args(argv)
    if args.ops < 1:
        parser.error("--ops must be positive")

    workloads = load_workloads()
    workload = workloads.Workload(args.workload, workloads.load_golden())
    if args.workload != "cli-corpus":
        run = (workloads.ladder_op if args.workload == "ladders"
               else workloads.instance_op)
        return run_profiled(workload, run, args)
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        report = os.path.join(scratch, "report.json")
        os.chdir(ROOT)  # the corpus names its fixtures from the root
        try:
            return run_profiled(
                workload, lambda key: workloads.cli_op(key, report), args)
        finally:
            os.chdir(cwd)


def run_profiled(workload, run, args):
    """Warm up one cycle, then profile args.ops ops and print both tables."""
    for key in next(workload.cycles(random.Random("warm"))):
        run(key)

    keys = op_keys(workload)
    chosen = [next(keys) for _ in range(args.ops)]
    profile = cProfile.Profile()
    failed = 0
    profile.enable()
    for key in chosen:
        result, _ = run(key)
        failed += not result.ok
    profile.disable()

    for order in ("tottime", "cumulative"):
        out = io.StringIO()
        stats = pstats.Stats(profile, stream=out)
        stats.strip_dirs().sort_stats(order).print_stats(TOP)
        print(f"== {args.ops} {args.workload} ops by {order} ==")
        print(out.getvalue().strip())
        print()
    if failed:
        print(f"{failed} of {args.ops} ops gave a wrong verdict", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
