"""The three benchmark workloads: what one op is and how it is checked.

Every op runs inside this one process, one at a time (closed loop, one
client).  Each op is timed around its library calls only; the correctness
check and the output digest happen after the clock stops.  An op fails on a
wrong verdict, a wrong exit code, an exception, or a digest that differs
from the one recorded for the same input in golden.json.

Library calls go through module attributes (instances.random_ladder, not a
name imported into this file), so that a traced run sees them.
"""

import contextlib
import hashlib
import io as stdio
import json
import os
import time
from fractions import Fraction

from linfty import cli, graded, instances, modules, resolutions, structures, twisting

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden.json")

# Library seeds of the generated workloads come from these pools; golden.json
# holds each pool seed's input class and output digest.  The ladder pool is
# small enough that a run deals nearly all of it, so runs at different seeds
# time nearly the same ladders (a 6-generator ladder's cost varies by 1.4x
# within its class).
LADDER_POOL = range(50)
INSTANCE_POOL = range(300)

# One cycle of each generated workload: input class -> ops per cycle.  The
# class is "<generators>:<shifted degrees>" (ladders) plus ":pi<terms>"
# (instances).  Op cost depends mostly on the class (a 6-generator ladder
# costs about 10x a 3-generator one), so a fixed class mix keeps the work per
# cycle the same at every benchmark seed; the seed only picks which pool
# seeds of each class run, and in which order.  Counts roughly follow the
# pool's class frequencies.  They are set so that the median and p90 op fall
# inside a class, not on the edge between two: an edge would make them jump
# with small timing noise.  Classes with few pool seeds are left out.
LADDER_CYCLE = (
    ("3:0,1,2", 3),
    ("3:0,0,1", 7),
    ("6:0,0,1,1,2,3", 1),
    ("6:0,0,0,1,1,2", 2),
)
INSTANCE_CYCLE = (
    ("3:0,1,2:pi0", 1),
    ("3:0,1,2:pi1", 4),
    ("3:0,0,1:pi1", 2),
    ("3:0,0,1:pi2", 7),
    ("6:0,0,1,2,2,3:pi2", 1),
    ("6:0,0,1,1,2,3:pi2", 2),
    ("6:0,0,0,1,1,2:pi3", 3),
)

# Frozen copy of the CLI corpus (scripts/verify_corpus.py at the time the
# benchmark was defined), so that later edits there do not change the
# workload.  Expected exit codes include the four negatives that exit 1.
CLI_RUNS = (
    (("validate", "fix_a.json"), 0),
    (("validate", "fix_b.json"), 0),
    (("validate", "fix_b2.json"), 0),
    (("validate", "fix_b_pair.json"), 0),
    (("validate", "fix_c.json"), 0),
    (("validate", "cech_fixb.json"), 0),
    (("validate", "cech_fixb_ladder.json"), 0),
    (("validate", "nonadapted.json"), 0),
    (("validate", "perturbed_ladder.json"), 0),
    (("validate", "jacobi_violation.json"), 1),
    (("mc", "fix_b.json", "--element", "x"), 0),
    (("mc", "fix_b.json", "--element", "2x"), 1),
    (("twist", "fix_b.json", "--element", "x"), 0),
    (("cohomology", "fix_a.json"), 0),
    (("twist-identities", "fix_b_pair.json", "--structure", "fix_b",
      "--element", "x", "--second-element", "2x"), 0),
    (("module-consistency", "fix_b_pair.json", "--element", "x"), 0),
    (("resolution-check", "fix_c.json"), 0),
    (("resolution-check", "cech_fixb.json"), 0),
    (("resolution-check", "nonadapted.json"), 0),
    (("adapted-mc", "fix_c.json", "--element", "zero"), 0),
    (("adapted-mc", "cech_fixb.json", "--element", "x"), 0),
    (("adapted-mc", "nonadapted.json", "--element", "x"), 1),
    (("prop-key", "cech_fixb_ladder.json", "--mc", "x"), 0),
    (("prop-key", "perturbed_ladder.json", "--element", "zero"), 1),
)


class OpResult:
    """Outcome of one op: timings, input size, digest and verdict."""

    __slots__ = ("key", "size", "seconds", "verdict_s", "digest", "ok", "error",
                 "scale")

    def __init__(self, key, size=0, seconds=0.0, verdict_s=None, digest=None,
                 ok=False, error=None):
        self.scale = 1.0  # raw seconds -> seconds at the reference speed
        self.key = key
        self.size = size
        self.seconds = seconds
        self.verdict_s = verdict_s
        self.digest = digest
        self.ok = ok
        self.error = error


def canonical(value):
    """JSON-ready form of a library value that depends only on its value.

    Rationals print as "p/q" whatever their Python type, so an int and the
    equal Fraction give the same digest.
    """
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, int):
        return f"{value}/1"
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, dict):
        pairs = [(json.dumps(canonical(k), sort_keys=True), canonical(v))
                 for k, v in value.items()]
        return [[k, v] for k, v in sorted(pairs, key=lambda kv: kv[0])]
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    rows = getattr(value, "rows", None)
    if rows is not None:
        return {"matrix": canonical(rows)}
    raise TypeError(f"no canonical form for {type(value).__name__}")


def digest(value):
    text = json.dumps(canonical(value), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def structure_class(space, pi=None):
    degrees = ",".join(str(space.degree(g)) for g in space.basis)
    key = f"{len(space.basis)}:{degrees}"
    return key if pi is None else f"{key}:pi{len(pi)}"


def ladder_op(seed):
    """random_ladder(seed), then the twisted criterion on it."""
    start = time.perf_counter()
    ladder, xi = instances.random_ladder(seed)
    built = time.perf_counter()
    report = resolutions.prop_key_pipeline(ladder, xi)
    end = time.perf_counter()
    space = ladder.source.base.space
    ok = (report["verdict"] == "quasi-isomorphism"
          and report["routes_agree"] is True and report["isomorphism"] is True)
    return OpResult(seed, len(space.basis), end - start, end - built,
                    digest(report), ok), structure_class(space)


def instance_op(seed):
    """random_instance(seed), then the criteria 1, 3, 4 and 5 checks."""
    start = time.perf_counter()
    inst = instances.random_instance(seed)
    built = time.perf_counter()
    base, pi, f = inst["base"], inst["pi"], inst["morphism"]
    twisted = twisting.twist_structure(base, pi)
    pushed = twisting.mc_preservation(f, pi)
    twisted_f = twisting.twist_morphism(f, pi)
    second = graded.el_scale(pi, 2)
    checks = {
        "square_zero": structures.check_square_zero(twisted),
        "flat": twisted.is_flat(),
        "mc_preservation": pushed == inst["pi_pushed"],
        "twisted_morphism": structures.check_morphism(twisted_f),
        "structure_iterated": twisting.check_structure_twist_identities(
            base, pi, second),
        "morphism_iterated": twisting.check_morphism_twist_identities(
            f, pi, second),
        "pushforward": twisting.check_pushforward_functoriality(
            structures.invert(f), f, pi),
        "module_consistency": modules.check_module_twist_consistency(f, pi),
    }
    end = time.perf_counter()
    ok = all(v is True for v in checks.values())
    out = {"twisted": twisted.components, "pushed": pushed,
           "twisted_morphism": twisted_f.components, "checks": checks}
    return OpResult(seed, len(base.space.basis), end - start, end - built,
                    digest(out), ok), structure_class(base.space, pi)


def cli_op(index, report_path, runs=CLI_RUNS):
    """One in-process linfty.cli.main call from the frozen corpus table."""
    args, expected = runs[index]
    fixture = os.path.join("fixtures", args[1])
    argv = [args[0], fixture, *args[2:], "--report", report_path]
    with contextlib.suppress(FileNotFoundError):
        os.remove(report_path)
    out, err = stdio.StringIO(), stdio.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        code = cli.main(argv)
        end = time.perf_counter()
    try:
        with open(report_path, "rb") as fh:
            report = fh.read().decode("utf-8")
    except FileNotFoundError:
        report = None
    result = OpResult(index, os.path.getsize(fixture), end - start, end - start,
                      digest([code, out.getvalue(), err.getvalue(), report]),
                      code == expected)
    return result, " ".join(args)


def load_golden():
    with open(GOLDEN, "r", encoding="utf-8") as fh:
        return json.load(fh)


class Workload:
    """Cycles of ops drawn from the benchmark seed, with their known answers.

    cycles(rng) yields lists of op keys; run(key) does the op and checks it
    against golden.json.  Every cycle has the same input-class mix.
    """

    def __init__(self, name, golden, report_path=None):
        self.name = name
        self.golden = golden[name]
        self.report_path = report_path
        self.cli_runs = CLI_RUNS
        if name == "cli-corpus":
            self.mix = None
        else:
            mix = LADDER_CYCLE if name == "ladders" else INSTANCE_CYCLE
            by_class = {}
            for key, entry in sorted(self.golden.items(), key=lambda kv: int(kv[0])):
                by_class.setdefault(entry["class"], []).append(int(key))
            self.mix = [(by_class[cls], n) for cls, n in mix]

    def cycles(self, rng):
        if self.mix is None:
            while True:
                order = list(range(len(self.cli_runs)))
                rng.shuffle(order)
                yield order
        # Each class deals from a shuffled deck and reshuffles when it runs
        # out, so a run covers as much of each class pool as it can.
        decks = [[] for _ in self.mix]
        while True:
            cycle = []
            for (pool, n), deck in zip(self.mix, decks):
                for _ in range(n):
                    if not deck:
                        deck.extend(rng.sample(pool, len(pool)))
                    cycle.append(deck.pop())
            yield cycle

    def raw_op(self, key):
        if self.name == "ladders":
            return ladder_op(key)
        if self.name == "instances":
            return instance_op(key)
        return cli_op(key, self.report_path, self.cli_runs)

    def run(self, key):
        """Do one op; failures of any kind come back as a failed result."""
        start = time.perf_counter()
        try:
            result, _ = self.raw_op(key)
        except (Exception, SystemExit) as exc:  # a failing op is an outcome
            spent = time.perf_counter() - start
            return OpResult(key, 0, spent, spent,
                            error=f"{type(exc).__name__}: {exc}")
        if result.digest != self.golden[str(key)]["digest"]:
            result.ok = False
            result.error = "output digest differs from golden.json"
        elif not result.ok:
            result.error = "wrong verdict or exit code"
        return result
