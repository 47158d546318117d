"""Per-layer tracing of linfty from outside the package.

The tracer wraps the public functions of every linfty layer module at run
time, records a span per call (name, op id, parent span, start, end) or, for
tiny hot functions, only a call count, and restores every original binding
afterwards.  Nothing under src/ changes.  Spans stay in memory until the end
of the run; per-layer self times are derived from the span tree.

A wrapper is installed in every linfty.* namespace that binds the same
function object, because modules import each other's functions by name
(structures.morphism_apply is also modules.morphism_apply, and so on).
"""

import inspect
import sys
import time
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction

LAYERS = ("graded", "structures", "twisting", "modules", "products",
          "homology", "resolutions", "instances", "io", "cli")

# Functions that run in microseconds and are called thousands of times per
# op: a span each would cost more than the call, so they are only counted
# and their time stays in the caller's self time.
COUNT_ONLY = {
    "graded": {"koszul_sign", "shuffles", "multi_shuffles", "el_canon",
               "el_add", "el_sub", "el_scale", "element_degree",
               "filtration_weight", "co_canon", "co_add", "co_scale",
               "co_from_element", "parse_scalar", "format_scalar"},
    "structures": {"spaces_equal", "co_scale_neg", "default_cap"},
    "twisting": {"validate_twist_datum"},
    "modules": {"tensor_weight", "tensor_canon", "tensor_add",
                "tensor_scale"},
    "products": {"slot_name", "split_slot", "rename_element", "rename_word",
                 "tuple_slot"},
    "homology": {"reduce_against"},
    "io": {"word_key", "word_from_key", "tensor_key", "tensor_from_key",
           "scalar_from_json", "element_from_json", "element_json", "plain"},
}

# Spans whose enumerated words / checked tensors feed the check counters.
STRUCTURE_CHECKS = {"structures.check_square_zero", "structures.check_morphism"}
MODULE_CHECKS = {"modules.check_module_square_zero",
                 "modules.check_module_morphism"}

OP_SPAN = "bench.op"
# Tracer work done around a wrapped call (argument keys for the repeat
# ratios, extra counters).  It runs in a span of its own, so it counts in no
# layer's self time and is taken out of every enclosing total_s.
HOOK_SPAN = "trace.hook"

# Wrapped functions that a metric reads, where the metric's name does not
# say them.  Otherwise "<layer>.self_s" reads the layer's spans and
# "<layer>.<function>.<figure>" reads <layer>.<function>.
SOURCES = {
    "fractions.new": {"fractions.Fraction.__new__"},
    "homology.cohomology.calls": {"homology.ChainComplex.cohomology"},
    "homology.cohomology.repeat_ratio": {"homology.ChainComplex.cohomology"},
    "structures.morphism_apply.useful_ratio": {"structures.morphism_apply",
                                               "graded.multi_shuffles"},
    "structures.check.words": {"graded.enumerate_words", *STRUCTURE_CHECKS},
    "modules.check.tensors": {"modules.tensor_weight", *MODULE_CHECKS},
    "trace.overhead_ratio": set(),
}


def freeze(value):
    """Hashable content key of a library value (labels ignored)."""
    if isinstance(value, dict):
        return frozenset((freeze(k), freeze(v)) for k, v in value.items())
    if isinstance(value, (list, tuple)):
        return tuple(freeze(v) for v in value)
    if isinstance(value, (str, int, Fraction, bool)) or value is None:
        return value
    if hasattr(value, "__dict__"):
        return (type(value).__name__, frozenset(
            (k, freeze(v)) for k, v in vars(value).items() if k != "label"))
    if hasattr(value, "__slots__"):
        return (type(value).__name__, tuple(
            freeze(getattr(value, k)) for k in value.__slots__))
    raise TypeError(f"no content key for {type(value).__name__}")


class Tracer:
    """Span and counter store for one traced run.

    spans[i] is (name, op, parent, start, end, outermost); parent is the
    index of the enclosing span or -1.  outermost is False when a span of
    the same name is already open, so inclusive totals count a recursive
    function once.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.op = None
        self._open = Counter()
        self._seen = {}

    def top(self):
        """Name of the innermost open span, or None."""
        return self.spans[self.stack[-1]][0] if self.stack else None

    def enter(self, name):
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append((name, self.op, parent, None, None,
                           self._open[name] == 0))
        self.stack.append(sid)
        self._open[name] += 1
        return sid

    def leave(self, sid, start, end):
        self.stack.pop()
        name, op, parent, _, _, outer = self.spans[sid]
        self._open[name] -= 1
        self.spans[sid] = (name, op, parent, start, end, outer)

    @contextmanager
    def op_span(self, op_id):
        """Root span of one benchmark op; repeat detection restarts here."""
        self.op = op_id
        self._seen = {}
        sid = self.enter(OP_SPAN)
        start = self.clock()
        try:
            yield
        finally:
            self.leave(sid, start, self.clock())
            self.op = None

    def hook(self, func, *args):
        """Run tracer work around a wrapped call in a HOOK_SPAN."""
        sid = self.enter(HOOK_SPAN)
        start = self.clock()
        try:
            return func(*args)
        finally:
            self.leave(sid, start, self.clock())

    def note_repeat(self, name, args):
        key = freeze(args)
        seen = self._seen.setdefault(name, set())
        if key in seen:
            self.counts[name + ".repeats"] += 1
        else:
            seen.add(key)


def _span_wrapper(tracer, name, func, before=None, after=None):
    counts = tracer.counts
    calls = name + ".calls"

    def wrapper(*args, **kwargs):
        counts[calls] += 1
        token = tracer.hook(before, args, kwargs) if before else None
        sid = tracer.enter(name)
        start = tracer.clock()
        try:
            result = func(*args, **kwargs)
        finally:
            tracer.leave(sid, start, tracer.clock())
        if after:
            tracer.hook(after, token, args, result)
        return result

    wrapper.__wrapped__ = func
    return wrapper


def _count_wrapper(tracer, name, func, after=None):
    counts = tracer.counts
    calls = name + ".calls"

    def wrapper(*args, **kwargs):
        counts[calls] += 1
        result = func(*args, **kwargs)
        if after:
            after(args, result)
        return result

    wrapper.__wrapped__ = func
    return wrapper


def _hooks(tracer):
    """Extra counters, keyed by qualified function name."""
    counts = tracer.counts
    span_hooks = {}
    count_hooks = {}

    def add(key, n):
        counts[key] += n

    def terms(key):
        return lambda args, result: add(key, len(result))

    count_hooks["graded.shuffles"] = terms("graded.shuffles.terms")
    count_hooks["graded.multi_shuffles"] = terms("graded.multi_shuffles.terms")

    def expand_before(args, kwargs):
        factors = args[1] if len(args) > 1 else kwargs["factors"]
        visited = 1
        for el in factors:
            visited *= len(el)
        add("graded.expand_factors.terms", visited)

    span_hooks["graded.expand_factors"] = (expand_before, None)

    def morphism_before(args, kwargs):
        morphism = args[0]
        add("structures.morphism_apply.calls_strict" if morphism.is_strict()
            else "structures.morphism_apply.calls_nonstrict", 1)
        return counts["graded.multi_shuffles.terms"]

    def morphism_after(visited_before, args, result):
        add("structures.morphism_apply.out_terms", len(result))
        add("structures.morphism_apply.shuffle_terms",
            counts["graded.multi_shuffles.terms"] - visited_before)

    span_hooks["structures.morphism_apply"] = (morphism_before, morphism_after)

    def repeat(name):
        return (lambda args, kwargs: tracer.note_repeat(name, args), None)

    span_hooks["twisting.twist_structure"] = repeat("twisting.twist_structure")
    span_hooks["modules.twist_module"] = repeat("modules.twist_module")

    def rref_before(args, kwargs):
        m = args[0]
        add("homology.rref.cells", m.nrows * m.ncols)

    span_hooks["homology.rref"] = (rref_before, None)

    def load_before(args, kwargs):
        add("io.load_document.bytes", len(args[0].encode("utf-8")))

    span_hooks["io.load_document"] = (load_before, None)

    def tensor_weight_after(args, weight):
        # a check loop calls tensor_weight once per candidate tensor and
        # skips those at or beyond the truncation order
        if tracer.top() in MODULE_CHECKS and weight < args[0].nilpotency_order:
            add("modules.check.tensors", 1)

    count_hooks["modules.tensor_weight"] = tensor_weight_after
    return span_hooks, count_hooks


def _layer_functions(layer):
    """Public callables defined in linfty.<layer>, by attribute name.

    Callables other than classes count when they carry the module's name,
    so a function wrapped by functools.lru_cache is traced like a plain one.
    """
    module = sys.modules[f"linfty.{layer}"]
    return {name: obj for name, obj in vars(module).items()
            if callable(obj) and not inspect.isclass(obj)
            and not name.startswith("_")
            and getattr(obj, "__module__", None) == module.__name__}


def _linfty_namespaces():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "linfty" or name.startswith("linfty."))]


class Installation:
    """Wrapped bindings of one traced run; restore() puts originals back."""

    def __init__(self):
        self.undo = []
        self.wrapped = set()  # qualified names of the wrapped functions

    def rebind(self, owner, attr, new, name):
        self.undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)
        self.wrapped.add(name)

    def restore(self):
        for owner, attr, original in reversed(self.undo):
            setattr(owner, attr, original)
        self.undo = []


def install(tracer, inst):
    """Wrap every layer's public functions and the traced class methods.

    Every replaced binding is recorded in `inst`, which restores them.
    """
    import linfty.cli  # noqa: F401  (the cli layer is wrapped like the rest)
    import linfty.instances  # noqa: F401
    from linfty.graded import GradedSpace
    from linfty.homology import ChainComplex

    span_hooks, count_hooks = _hooks(tracer)
    counts = tracer.counts
    wrappers = {}  # id(original) -> (qualified name, wrapper)
    for layer in LAYERS:
        for attr, func in _layer_functions(layer).items():
            name = f"{layer}.{attr}"
            if attr in COUNT_ONLY.get(layer, ()) \
                    or inspect.isgeneratorfunction(func):
                wrappers[id(func)] = name, _count_wrapper(
                    tracer, name, func, count_hooks.get(name))
            else:
                before, after = span_hooks.get(name, (None, None))
                wrappers[id(func)] = name, _span_wrapper(
                    tracer, name, func, before, after)
    for module in _linfty_namespaces():
        for attr, value in list(vars(module).items()):
            if id(value) in wrappers:
                name, wrapper = wrappers[id(value)]
                inst.rebind(module, attr, wrapper, name)

    normalize = vars(GradedSpace)["normalize_word"]
    inst.rebind(GradedSpace, "normalize_word",
                _count_wrapper(tracer, "graded.normalize_word", normalize),
                "graded.normalize_word")

    enumerate_words = vars(GradedSpace)["enumerate_words"]

    def counted_words(self, *args, **kwargs):
        counts["graded.enumerate_words.calls"] += 1
        for word in enumerate_words(self, *args, **kwargs):
            counts["graded.enumerate_words.words"] += 1
            if tracer.top() in STRUCTURE_CHECKS:
                counts["structures.check.words"] += 1
            yield word

    inst.rebind(GradedSpace, "enumerate_words", counted_words,
                "graded.enumerate_words")

    cohomology = vars(ChainComplex)["cohomology"]
    name = "homology.ChainComplex.cohomology"

    def cohomology_before(args, kwargs):
        complex_, k = args[0], args[1]
        tracer.note_repeat(name, (complex_.dims, complex_.differentials, k))

    inst.rebind(ChainComplex, "cohomology", _span_wrapper(
        tracer, name, cohomology, cohomology_before), name)

    fraction_new = vars(Fraction)["__new__"]
    original_new = fraction_new.__func__

    def counted_new(cls, *args, **kwargs):
        counts["fractions.new"] += 1
        return original_new(cls, *args, **kwargs)

    inst.rebind(Fraction, "__new__", staticmethod(counted_new),
                "fractions.Fraction.__new__")


def unwrapped(metrics, wrapped):
    """The metrics among `metrics` that read a function that was not wrapped."""
    missing = []
    for metric in metrics:
        layer, rest = metric.split(".", 1)
        if metric in SOURCES:
            found = SOURCES[metric] <= wrapped
        elif rest == "self_s":
            found = any(name.startswith(layer + ".") for name in wrapped)
        else:
            found = f"{layer}.{rest.split('.', 1)[0]}" in wrapped
        if not found:
            missing.append(metric)
    return missing


@contextmanager
def traced(tracer, metrics=()):
    """Install the tracer's wrappers for the body, then restore originals.

    Raises RuntimeError if one of `metrics` reads a function that could not
    be wrapped (renamed, or no longer a callable of its module), rather than
    let the metric read 0.
    """
    inst = Installation()
    try:
        install(tracer, inst)
        missing = unwrapped(metrics, inst.wrapped)
        if missing:
            raise RuntimeError("traced functions not found for: "
                               + ", ".join(missing))
        yield inst
    finally:
        inst.restore()


def self_times(spans):
    """Per-span self time: duration minus the time its child spans cover.

    Children of one span run one after another (single thread), so the time
    they cover is the sum of their durations.
    """
    covered = [0.0] * len(spans)
    for name, op, parent, start, end, outer in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - covered[i]
            for i, (name, op, parent, start, end, outer) in enumerate(spans)]


def hook_times(spans):
    """Per-span time spent in HOOK_SPANs at any depth inside it.

    A child span is recorded after its parent, so a pass from the last span
    back adds each span's hook time to its parent's after the span is done.
    """
    hooked = [0.0] * len(spans)
    for i in range(len(spans) - 1, -1, -1):
        name, op, parent, start, end, outer = spans[i]
        if name == HOOK_SPAN:
            hooked[i] = end - start
        if parent >= 0:
            hooked[parent] += hooked[i]
    return hooked


def layer_metrics(tracer, untraced_s, traced_s):
    """Per-layer metric values of a finished run.

    Returns (metrics, undefined): metrics maps name -> (value, unit), and
    undefined lists the ratios left out because their denominator is 0.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    hooked = hook_times(spans)
    self_by_layer = Counter()
    self_by_name = Counter()
    total_by_name = Counter()
    for (name, op, parent, start, end, outer), own, hook in zip(
            spans, selfs, hooked):
        if name == OP_SPAN:
            continue
        self_by_layer[name.split(".", 1)[0]] += own
        self_by_name[name] += own
        if outer:
            total_by_name[name] += end - start - hook
    c = tracer.counts

    def repeat_ratio(name):
        # no calls means no call repeated
        calls = c[name + ".calls"]
        return c[name + ".repeats"] / calls if calls else 0.0

    count = "count"
    sec = "s"
    m = {}
    for layer in LAYERS:
        if layer != "cli":
            m[f"{layer}.self_s"] = (self_by_layer[layer], sec)
    m.update({
        "graded.normalize_word.calls": (c["graded.normalize_word.calls"], count),
        "graded.enumerate_words.words": (c["graded.enumerate_words.words"], count),
        "graded.shuffles.terms": (c["graded.shuffles.terms"], count),
        "graded.multi_shuffles.terms": (c["graded.multi_shuffles.terms"], count),
        "graded.expand_factors.calls": (c["graded.expand_factors.calls"], count),
        "graded.expand_factors.terms": (c["graded.expand_factors.terms"], count),
        "graded.sym_mul.calls": (c["graded.sym_mul.calls"], count),
        "fractions.new": (c["fractions.new"], count),
        "structures.coderivation_apply.calls":
            (c["structures.coderivation_apply.calls"], count),
        "structures.coderivation_apply.self_s":
            (self_by_name["structures.coderivation_apply"], sec),
        "structures.morphism_apply.calls_strict":
            (c["structures.morphism_apply.calls_strict"], count),
        "structures.morphism_apply.calls_nonstrict":
            (c["structures.morphism_apply.calls_nonstrict"], count),
        "structures.morphism_apply.self_s":
            (self_by_name["structures.morphism_apply"], sec),
        "structures.compose.calls": (c["structures.compose.calls"], count),
        "structures.invert.calls": (c["structures.invert.calls"], count),
        "structures.conjugate.total_s":
            (total_by_name["structures.conjugate"], sec),
        "structures.check.words": (c["structures.check.words"], count),
        "twisting.twist_structure.calls":
            (c["twisting.twist_structure.calls"], count),
        "twisting.twist_structure.repeat_ratio":
            (repeat_ratio("twisting.twist_structure"), "ratio"),
        "twisting.twist_morphism.calls":
            (c["twisting.twist_morphism.calls"], count),
        "twisting.mc_check.calls": (c["twisting.mc_check.calls"], count),
        "modules.module_apply.calls": (c["modules.module_apply.calls"], count),
        "modules.module_morphism_apply.calls":
            (c["modules.module_morphism_apply.calls"], count),
        "modules.module_from_morphism.total_s":
            (total_by_name["modules.module_from_morphism"], sec),
        "modules.module_morphism_from_triangle.total_s":
            (total_by_name["modules.module_morphism_from_triangle"], sec),
        "modules.twist_module.calls": (c["modules.twist_module.calls"], count),
        "modules.twist_module.repeat_ratio":
            (repeat_ratio("modules.twist_module"), "ratio"),
        "modules.compose_module_morphisms.calls":
            (c["modules.compose_module_morphisms.calls"], count),
        "modules.check.tensors": (c["modules.check.tensors"], count),
        "products.build_cech_complex.calls":
            (c["products.build_cech_complex.calls"], count),
        "products.build_cech_complex.total_s":
            (total_by_name["products.build_cech_complex"], sec),
        "homology.rank.calls": (c["homology.rank.calls"], count),
        "homology.rref.calls": (c["homology.rref.calls"], count),
        "homology.rref.cells": (c["homology.rref.cells"], count),
        "homology.cohomology.calls":
            (c["homology.ChainComplex.cohomology.calls"], count),
        "homology.cohomology.repeat_ratio":
            (repeat_ratio("homology.ChainComplex.cohomology"), "ratio"),
        "homology.induced_map.calls": (c["homology.induced_map.calls"], count),
        "resolutions.prop_key_pipeline.total_s":
            (total_by_name["resolutions.prop_key_pipeline"], sec),
        "resolutions.check_adapted_mc.total_s":
            (total_by_name["resolutions.check_adapted_mc"], sec),
        "resolutions.twist_resolution.calls":
            (c["resolutions.twist_resolution.calls"], count),
        "instances.random_ladder.total_s":
            (total_by_name["instances.random_ladder"], sec),
        "instances.random_instance.total_s":
            (total_by_name["instances.random_instance"], sec),
        "io.load_document.calls": (c["io.load_document.calls"], count),
        "io.load_document.bytes": (c["io.load_document.bytes"], count),
        "io.canonical_dumps.total_s": (total_by_name["io.canonical_dumps"], sec),
        "cli.main.calls": (c["cli.main.calls"], count),
        "cli.main.total_s": (total_by_name["cli.main"], sec),
        "trace.overhead_ratio": (traced_s / untraced_s, "ratio"),
    })
    # output terms per multi-shuffle term visited; with none visited (a fast
    # path that skips multi_shuffles) the ratio is undefined, not 0
    undefined = []
    visited = c["structures.morphism_apply.shuffle_terms"]
    if visited:
        m["structures.morphism_apply.useful_ratio"] = (
            c["structures.morphism_apply.out_terms"] / visited, "ratio")
    else:
        undefined.append("structures.morphism_apply.useful_ratio")
    return m, undefined


def write_spans(path, spans):
    """Write the span list once, one tab-separated line per span."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("id\tname\top\tparent\tstart\tend\n")
        for i, (name, op, parent, start, end, outer) in enumerate(spans):
            fh.write(f"{i}\t{name}\t{op}\t{parent}\t{start!r}\t{end!r}\n")
