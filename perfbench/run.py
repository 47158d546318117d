#!/usr/bin/env python3
"""linfty benchmark: one workload, timed (--trace 0) or traced (--trace 1).

    python3 perfbench/run.py --workload ladders --seed 1 --seconds 35 --trace 0

Run from the repository root.  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics; lines before it are a
readable table and an "info" record (input sizes, sample counts, failed
ratio, Python version, nproc, src line count).  See perfbench/README.md.
"""

import argparse
import gc
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("ladders", "instances", "cli-corpus")

# Fresh interpreters started to time set-up, spread over the run so that
# they meet the machine in more than one state; the median is reported.
SETUP_SAMPLES = 9

# The shared machine runs Python at two speeds about 1.5x apart and switches
# between them every few seconds to tens of seconds, often for a whole run.
# A fixed reference loop is timed between ops, at most every
# REFERENCE_EVERY_S; each op's times are scaled by REFERENCE_S over the mean
# of the reference times just before and just after it, so timed metrics
# read as seconds on a machine where the loop takes REFERENCE_S.  Raw values
# are reported in "info".
REFERENCE_S = 0.02
REFERENCE_EVERY_S = 0.25

# Cycles of ops in a traced run: a fixed op set, so counts repeat exactly at
# a fixed seed.  The cli-corpus cycle is short, so it runs more of them.
TRACE_CYCLES = {"ladders": 1, "instances": 2, "cli-corpus": 8}


def prepare(workload):
    """Import linfty from this checkout and load the workload's known answers."""
    sys.path.insert(0, SRC)
    import linfty
    if os.path.dirname(os.path.abspath(linfty.__file__)) != os.path.join(SRC, "linfty"):
        raise SystemExit(f"linfty imported from {linfty.__file__}, not {SRC}")
    import workloads
    os.makedirs(OUT, exist_ok=True)
    report = os.path.join("perfbench", "out", f"report-{os.getpid()}.json")
    return workloads.Workload(workload, workloads.load_golden(), report)


def plan(wl, seed):
    """The run's cycles of op keys, drawn from the benchmark seed."""
    return wl.cycles(random.Random(f"perfbench:{wl.name}:{seed}"))


class SetupProbe:
    """Times fresh interpreters that only prepare the run (--setup-only)."""

    def __init__(self, workload, seed, seconds):
        self.argv = [sys.executable, os.path.join(HERE, "run.py"),
                     "--workload", workload, "--seed", str(seed), "--setup-only"]
        self.interval = seconds / SETUP_SAMPLES
        self.start = time.perf_counter()
        self.times = []

    def sample(self, scale):
        start = time.perf_counter()
        subprocess.run(self.argv, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        self.times.append((time.perf_counter() - start, scale))

    def maybe_sample(self, scale):
        """One sample when the next one is due (called between ops)."""
        due = self.start + len(self.times) * self.interval
        if len(self.times) < SETUP_SAMPLES and time.perf_counter() >= due:
            self.sample(scale)

    def median(self, scale, scaled=True):
        while len(self.times) < SETUP_SAMPLES:
            self.sample(scale)
        return statistics.median(t * s if scaled else t for t, s in self.times)


def reference_loop():
    """Fixed pure-Python work like linfty's hot path: Fractions in dicts."""
    acc = {}
    x = Fraction(1)
    for i in range(1500):
        q = Fraction(i % 7 + 1, i % 5 + 1)
        key = tuple(sorted((i % 13, i % 11, i % 3)))
        acc[key] = acc.get(key, 0) + q * q
        x = x * Fraction(i % 9 + 2, i % 4 + 3) + Fraction(1, i % 6 + 1)
        if x.denominator > 10**12:
            x = Fraction(x.numerator % 97 + 1, x.denominator % 89 + 1)
        inner = acc.setdefault((i % 50, i % 7), {})
        inner[i % 5] = inner.get(i % 5, 0) + x
    return acc


class Reference:
    """Timings of reference_loop taken between ops."""

    def __init__(self):
        self.times = []
        self.last = float("-inf")
        self.mark = None

    def before_op(self):
        self.maybe_sample()
        self.mark = self.times[-1]

    def scale_after_op(self):
        """Scale for the op that just ended, from the samples around it."""
        self.maybe_sample()
        return 2 * REFERENCE_S / (self.mark + self.times[-1])

    def maybe_sample(self):
        if time.perf_counter() - self.last < REFERENCE_EVERY_S:
            return
        gc.disable()  # a collection here would bill linfty's heap to the loop
        try:
            start = time.perf_counter()
            reference_loop()
            self.last = time.perf_counter()
        finally:
            gc.enable()
        self.times.append(self.last - start)


class Tally:
    """What a run keeps of its ops: per-cycle figures and counts.

    Each op's record goes to the ops file as the op finishes, and only
    figures per cycle stay in memory, so the harness's own memory does not
    grow with the op count (peak_rss_mb is measured in this process).
    """

    def __init__(self, ops_file=None):
        self.ops_file = ops_file
        self.figures = {True: [], False: []}  # scaled? -> one dict per cycle
        self.samples = 0
        self.failed = 0
        self.failures = []
        self.sizes = Counter()
        self.seconds = 0.0

    def add_cycle(self, results):
        cycle = len(self.figures[True])
        for r in results:
            self.samples += 1
            self.sizes[str(r.size)] += 1
            self.seconds += r.seconds
            if not r.ok:
                self.failed += 1
                if len(self.failures) < 10:
                    self.failures.append(f"{r.key}: {r.error}")
            if self.ops_file:
                self.ops_file.write(json.dumps({
                    "cycle": cycle, "key": r.key, "size": r.size,
                    "seconds": r.seconds, "verdict_s": r.verdict_s,
                    "scale": r.scale, "ok": r.ok, "digest": r.digest}) + "\n")
        for scaled in (True, False):
            self.figures[scaled].append(cycle_figures(results, scaled))


def cycle_figures(results, scaled):
    """One cycle's median op, p90 op, median verdict and ops per second."""
    seconds = [r.seconds * (r.scale if scaled else 1) for r in results]
    return {
        "p50": statistics.median(seconds),
        "p90": percentile(seconds, 90),
        "verdict": statistics.median(
            r.verdict_s * (r.scale if scaled else 1) for r in results),
        "rate": len(results) / sum(seconds),
    }


def run_cycles(wl, cycles, tally, count=None, seconds=None, trace=None,
               between=None, scale=None):
    """Run whole cycles, a fixed count or until `seconds` have passed.

    Each finished cycle goes into `tally`.  between() runs before every op,
    outside the op's own timing; scale() gives each op's time scale.
    """
    start = time.perf_counter()
    op_id = 0
    done = 0
    while True:
        results = []
        for key in next(cycles):
            if between:
                between()
            if trace is None:
                results.append(wl.run(key))
            else:
                with trace.op_span(op_id):
                    results.append(wl.run(key))
            if scale:
                results[-1].scale = scale()
            op_id += 1
        tally.add_cycle(results)
        done += 1
        if count is not None and done >= count:
            break
        if seconds is not None and time.perf_counter() - start >= seconds:
            break


def percentile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(tally, setup_s, scaled=True):
    """End-to-end metrics from per-cycle values (see README, "How a run works").

    Every cycle has the same input mix, so its median, p90 and throughput
    estimate the same quantities; the run reports the value that a quarter
    of the cycles beat, which discounts cycles that met the shared machine
    in a slow spell.  The p90 is the exception: a cycle's p90 op is one of
    its one to three costliest inputs, which differ from cycle to cycle, so
    the quarter point of a few cycles follows the draw; their median is
    steadier.
    """
    figures = tally.figures[scaled]

    def each(key):
        return [f[key] for f in figures]

    return {
        "ops_per_s": (percentile(each("rate"), 75), "1/s"),
        "op_p50_s": (percentile(each("p50"), 25), "s"),
        "op_p90_s": (statistics.median(each("p90")), "s"),
        "verdict_p50_s": (percentile(each("verdict"), 25), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "MB"),
    }


def src_lines():
    pkg = os.path.join(SRC, "linfty")
    total = 0
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                total += fh.read().count(b"\n")
    return total


def info(workload, seed, tally):
    return {
        "workload": workload,
        "seed": seed,
        "samples": tally.samples,
        "cycles": len(tally.figures[True]),
        "input_sizes": dict(tally.sizes),
        "failed_ratio": tally.failed / tally.samples,
        "failures": tally.failures,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "src.lines": src_lines(),
    }


def timed_run(args):
    wl = prepare(args.workload)
    probe = SetupProbe(args.workload, args.seed, args.seconds)
    reference = Reference()

    def between():
        reference.before_op()
        probe.maybe_sample(REFERENCE_S / reference.mark)

    ops_path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-ops.jsonl")
    try:
        with open(ops_path, "w", encoding="utf-8") as ops_file:
            tally = Tally(ops_file)
            run_cycles(wl, plan(wl, args.seed), tally, seconds=args.seconds,
                       between=between, scale=reference.scale_after_op)
    finally:
        cleanup(wl)
    metrics = end_to_end(tally, probe.median(REFERENCE_S / reference.times[-1]))
    raw = end_to_end(tally, probe.median(1.0, scaled=False), scaled=False)
    extra = {"raw": {name: value for name, (value, unit) in raw.items()},
             "reference_s": statistics.median(reference.times)}
    return tally, metrics, extra


def traced_run(args):
    """Run the trace op set untraced, then again traced; same ops, same order."""
    import tracing
    wl = prepare(args.workload)
    count = TRACE_CYCLES[args.workload]
    tracer = tracing.Tracer()
    tally = Tally()
    try:
        run_cycles(wl, plan(wl, args.seed), tally, count=count)
        untraced_s = tally.seconds
        with tracing.traced(tracer, per_layer_names()):
            run_cycles(wl, plan(wl, args.seed), tally, count=count,
                       trace=tracer)
    finally:
        cleanup(wl)
    metrics, undefined = tracing.layer_metrics(
        tracer, untraced_s, tally.seconds - untraced_s)
    tracing.write_spans(
        os.path.join(OUT, f"{args.workload}-seed{args.seed}-spans.tsv"),
        tracer.spans)
    return tally, metrics, {"undefined": undefined}


def per_layer_names():
    """The per-layer metrics BENCHMARK.json promises."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return [metric["name"] for metric in json.load(fh)["per_layer"]]


def cleanup(wl):
    if wl.report_path and os.path.exists(wl.report_path):
        os.remove(wl.report_path)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    if args.setup_only:
        next(plan(prepare(args.workload), args.seed))
        return 0

    run = traced_run if args.trace else timed_run
    tally, metrics, extra = run(args)
    summary = info(args.workload, args.seed, tally)
    summary.update(extra)
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:>16.6g} {unit}")
    print(json.dumps({"info": summary}, sort_keys=True))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.samples,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
