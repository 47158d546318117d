"""Modules over a structure, their morphisms, constructors and twisting.

A module is carried by S^c(L) tensor M and stored through components
phi_k: L^vk tensor M -> M of degree +1.  The full operator acts by

    phi(w tensor m) = Q(w) tensor m
        + sum over k, sigma in Sh(k, n-k) of eps'(sigma) eps(sigma)
              (left block) tensor phi_{n-k}(right block tensor m)

where eps' = (-1)^(total shifted degree of the left block) is the Koszul
cost of carrying the odd operator past that block.  Module morphisms extend
by the same shuffle sum without eps' (they are even), and their components
are recovered as the unit-word slot of the extension, read by corestriction
without building the extension.  Both go through one shuffle-split loop that
differs only in that sign policy.  Each module and module morphism applies
itself to a tensor once, keeping the image of w tensor m with coefficient 1;
a module's Q-part is the base's own kept image of w.  A strict module map
(m_F = 0: every vertical, augmentation and connecting map of a ladder) sends
w tensor m to w tensor F_0(m), and any map sends 1 tensor m to
1 tensor F_0(m); check_module_morphism and compose_module_morphisms read
such images at that unit word, without the shuffle-split apply.

Tensors are dicts (word, module generator) -> coefficient, truncated when
word weight plus generator level reaches the shared truncation order; module
and base must be declared at the same order.

Module degrees are the module's own: values of phi_k have degree
word degree + generator degree + 1, and the dg constructor below takes its
differential and action in those unshifted terms.
"""

from .graded import (
    ComponentTable,
    GradedSpace,
    InputError,
    MathCheckError,
    ONE,
    _accumulate,
    _add_scaled,
    _dict_of,
    _fraction_repr,
    _instance_of,
    el_scale,
    exact_element,
)
from .structures import (
    LInftyStructure,
    _coderivation_image,
    check_square_zero,
    morphism_apply,
    spaces_equal,
    default_cap,
)
from .twisting import (
    _twist_rows, twist_morphism, twist_structure, validate_twist_datum)


# -- tensor helpers ---------------------------------------------------------------

def tensor_weight(base_space, module_space, word, mgen):
    """Weight of word tensor mgen.

    Nothing in the package calls it; it stays because perfbench's
    modules.check.tensors metric wraps it, and perfbench/run.py --trace 1
    raises RuntimeError when a traced function is missing.
    """
    return base_space.word_weight(word) + module_space.filtration(mgen)


def tensor_canon(base_space, module_space, terms):
    cap = base_space.nilpotency_order
    weight, filtration = base_space.word_weight, module_space._filtration
    return {(w, m): q for (w, m), q in terms.items()
            if q and weight(w) + filtration[m] < cap}


def surviving_tensors(base_space, module_space, words):
    """(word, generator) pairs over words whose weight stays below the order."""
    cap, weight = base_space.nilpotency_order, base_space.word_weight
    levels = [(m, module_space._filtration[m]) for m in module_space.basis]
    for word in words:
        room = cap - weight(word)
        for mgen, level in levels:
            if level < room:
                yield word, mgen


class _TensorTable(ComponentTable):
    """Component table keyed by (word, module generator) tensors."""

    def _sweep(self, cap, bound=None, min_arity=0):
        """The surviving tensors over the words of ComponentTable._sweep."""
        return surviving_tensors(self.word_space, self.key_space,
                                 super()._sweep(cap, bound, min_arity))


class LInftyModule(_TensorTable):
    """Components phi_k of a degree +1 module operator over a base structure."""

    def __init__(self, base, space, components):
        self._wire(_instance_of(base, LInftyStructure, "module base"),
                   _instance_of(space, GradedSpace, "module space"))
        self._set_components(base.space, space, components, 1, key_space=space)

    def _wire(self, base, space):
        if space.nilpotency_order != base.space.nilpotency_order:
            raise InputError("module and base must share one truncation order")
        self.base = base
        self.space = self.key_space = space
        self.word_space = base.space

    def _ends(self):
        return (self.base, self.space.generators, self.space.nilpotency_order)


def _split_terms(table, word, mgen, odd, out):
    """Add the terms of sum eps (left block) tensor C(right block tensor mgen)
    into out.

    An odd operator also carries eps' = (-1)^(degree of the left block), the
    Koszul cost of moving it past that block; even maps carry no eps'.
    word is canonical, and so are both blocks.
    """
    n = len(word)
    components = table.components
    sizes = tuple(range(max(0, n - table.max_arity), n + 1))
    for eps, left, right, left_odd in table.word_space._split_plan(word, sizes):
        value = components.get(len(right), {}).get(
            (tuple([word[i] for i in right]), mgen))
        if not value:
            continue
        scale = -eps if odd and left_odd else eps
        lword = tuple([word[i] for i in left])
        for produced, q in value.items():
            _accumulate(out, (lword, produced), q * scale)


def _module_image(module, key):
    """phi(w tensor m): Q(w) tensor m, then the split terms."""
    word, mgen = key
    # Q-part: the base's own image of the word, generator untouched
    out = {(oword, mgen): q for oword, q
           in module.base._image(word, _coderivation_image).items()}
    _split_terms(module, word, mgen, True, out)
    return tensor_canon(module.base.space, module.space, out)


def module_apply(module, tensor_elt):
    """Apply the full module operator to a tensor element."""
    return module._apply(tensor_elt, _module_image)


def check_module_square_zero(module, max_arity=None):
    """phi o phi = 0 on surviving tensors up to the cap (default_cap).

    Over a base with Q o Q = 0, phi o phi is a comodule map, so its
    unit-word slot decides.  pr phi(phi(w tensor m)) reads phi on words of
    arity |w| - a + 1 (the Q-part) or on both blocks of a split, so the
    sweep stops at max(m_phi + m_Q - 1, 2 m_phi).  Over a base that fails
    check_square_zero up to the cap (a verdict the base keeps when it
    passes), phi o phi is no comodule map, and the check falls back to its
    full loop over the cap.
    """
    base = module.base
    cap = default_cap(base.space, max_arity=max_arity)
    try:
        squares = check_square_zero(base, max_arity=cap)
    except MathCheckError:
        squares = False
    if squares:
        m_phi = module.max_arity
        bound = max(m_phi + base.max_arity - 1, 2 * m_phi)
        keys = (key for key in module._sweep(cap, bound)
                if module._corestrict(module_apply(module, {key: ONE})))
    else:
        keys = module._sweep(cap)
    for word, mgen in keys:
        twice = module_apply(module, module_apply(module, {(word, mgen): ONE}))
        if twice:
            raise MathCheckError(
                "module operator does not square to zero: residual "
                f"{_fraction_repr(twice)} on {word} tensor {mgen}")
    return True


def from_dg_module(base, module_generators, differential, action):
    """Module of a dg module (b, rho) over a curved Lie base, unshifted input.

    module_generators list (name, degree, filtration) in the module's own
    grading.  differential: generator -> element, degree +1.  action:
    (lie generator, module generator) -> element, with the lie generator
    named in the base's shifted space and degrees adding as unshifted.

    Components: phi_0(m) = -b(m); on gamma tensor m the arity-1 part is
    -(-1)^(unshifted degree of gamma) rho(gamma)(m).  The square-zero check
    then demands b^2 = -rho(R), the curved replacement for b^2 = 0.
    """
    space = GradedSpace(module_generators, base.space.nilpotency_order)
    comp0 = {}
    for m, image in _dict_of(differential, "differential").items():
        if m not in space:
            raise InputError(f"differential on unknown module generator {m!r}")
        image = exact_element(image)
        for g in image:
            if space.degree(g) != space.degree(m) + 1:
                raise InputError(f"b({m}) is not homogeneous of degree +1")
        if image:
            comp0[((), m)] = el_scale(image, -1)

    comp1 = {}
    for (gamma, m), image in _dict_of(action, "action").items():
        if gamma not in base.space or m not in space:
            raise InputError(f"action on unknown pair ({gamma!r}, {m!r})")
        image = exact_element(image)
        unshifted = base.space.degree(gamma) + 1
        for g in image:
            if space.degree(g) != unshifted + space.degree(m):
                raise InputError(f"rho({gamma})({m}) has inconsistent degree")
        if image:
            comp1[((gamma,), m)] = el_scale(image, 1 if unshifted % 2 else -1)

    return LInftyModule(base, space, {0: comp0, 1: comp1})


def module_from_morphism(morphism, max_arity=None):
    """The target of a morphism as a module over the source.

    Components phi_k(w tensor m) = pr(Q_target(F(w) v m)), the arity-one part
    of the target coderivation applied to the image word joined with m.
    They vanish on words above m_F (m_Q' - 1), where the sweep stops.
    """
    cap = default_cap(morphism.source.space, morphism.max_arity,
                      max_arity=max_arity)
    target = morphism.target
    comps = _joined_components(morphism, cap, target)
    return LInftyModule._made(morphism.source, target.space, comps)


def _joined_components(morphism, cap, outer):
    """Components outer._corestrict(F(w) v m) on surviving tensors w tensor m.

    F is the morphism and m runs over the target's generators.  The outer
    table's keys v are indexed once by removed letter, u -> [(m, sign,
    value)] with u v m = sign v, so F(w), computed once per word, is read
    only at the (u, m) that reach a key; keys come out in sweep order, then
    basis order.  Keys weigh below the order and F(w) weighs at least w, so
    only surviving tensors reach one.  F(w) v m has arity at least
    |w| / m_F + 1 and the outer table reads arities up to m_outer, so the
    sweep stops at m_F (m_outer - 1).
    """
    space, tgt = morphism.word_space, morphism.target.space
    floor = min(tgt._filtration.values(), default=tgt.nilpotency_order)
    index = {}
    for row in outer.components.values():
        for v, value in row.items():
            for i, m in enumerate(v):
                if i and v[i - 1] == m:
                    continue
                u = v[:i] + v[i + 1:]
                index.setdefault(u, []).append(
                    (m, tgt.normalize_word(u + (m,))[1], value))
    bound = morphism.max_arity * (outer.max_arity - 1)
    comps = {}
    for word in morphism._sweep(cap, bound):
        if space.word_weight(word) + floor >= tgt.nilpotency_order:
            continue
        values = {}
        for u, r in morphism_apply(morphism, {word: ONE}).items():
            for m, sign, value in index.get(u, ()):
                _add_scaled(values.setdefault(m, {}), value, r * sign)
        for m in tgt.basis:
            if values.get(m):
                comps.setdefault(len(word), {})[(word, m)] = values[m]
    return comps


class ModuleMorphism(_TensorTable):
    """Components of a degree 0 map of modules over one base."""

    def __init__(self, source, target, components):
        self._wire(_instance_of(source, LInftyModule, "module morphism source"),
                   _instance_of(target, LInftyModule, "module morphism target"))
        self._set_components(source.base.space, target.space, components, 0,
                             key_space=source.space)

    def _wire(self, source, target):
        if source.base != target.base:
            raise InputError("module morphism endpoints must share the base")
        self.source = source
        self.target = target
        self.word_space = source.base.space
        self.key_space = source.space

    def _ends(self):
        return (self.source, self.target)


def _module_morphism_image(mm, key):
    """F(w tensor m): the split terms of an even map."""
    out = {}
    _split_terms(mm, *key, False, out)
    return tensor_canon(mm.word_space, mm.target.space, out)


def module_morphism_apply(mm, tensor_elt):
    """Extend components over shuffle splittings (even map, no eps')."""
    return mm._apply(tensor_elt, _module_morphism_image)


def _unit_word_image(mm, word, mgen):
    """w tensor F_0(m), cut at the truncation order, for a canonical word w.

    This is F(w tensor m) when F is strict (m_F = 0), and F(1 tensor m) for
    any F: the only split that reads a component is the one whose right
    block is empty, with sign +1.
    """
    value = mm.components.get(0, {}).get(((), mgen), {})
    return tensor_canon(mm.word_space, mm.target.space,
                        {(word, g): q for g, q in value.items()})


def check_module_morphism(mm, max_arity=None):
    """F phi = phi' F on surviving tensors up to the cap (default_cap).

    F phi - phi' F is a comodule map, so its unit-word slot decides.
    pr F(phi(w tensor m)) reads F on words of arity |w| - a + 1 or on the
    left block of a split, and pr phi'(F(w tensor m)) reads phi' on the left
    block of one; so the sweep stops at
    max(m_F + m_Q - 1, m_F + m_phi, m_F + m_phi').  A strict F (m_F = 0)
    sends w tensor m to w tensor F_0(m), so both sides are read at the unit
    word: the source side needs only phi_|w|(w tensor m), and the target
    side is phi' on w tensor F_0(m); one component lookup each replaces a
    full image.
    """
    source, target = mm.source, mm.target
    cap = default_cap(mm.word_space, max_arity=max_arity)
    m_f = mm.max_arity
    bound = max(m_f + source.base.max_arity - 1, m_f + source.max_arity,
                m_f + target.max_arity)
    for word, mgen in mm._sweep(cap, bound):
        start = {(word, mgen): ONE}
        if m_f == 0:
            image = {((), g): q for g, q in source._corestrict(start).items()}
            moved = _unit_word_image(mm, word, mgen)
        else:
            image = module_apply(source, start)
            moved = module_morphism_apply(mm, start)
        if mm._corestrict(image) != target._corestrict(moved):
            raise MathCheckError(
                f"module morphism does not intertwine operators "
                f"on {word} tensor {mgen}")
    return True


def compose_module_morphisms(outer, inner):
    """Composite module morphism, components from the unit-word slot.

    inner(w tensor m) puts a block of arity at most m_inner beside m, and
    outer reads the rest at arity at most m_outer, so words stop at
    m_inner + m_outer.  On an arity-0 key 1 tensor m, inner gives
    1 tensor inner_0(m), read without the full apply; two strict maps
    compose over those keys alone.
    """
    if not spaces_equal(inner.target.space, outer.source.space):
        raise InputError("module morphism composition endpoints do not match")
    comps = {}
    for word, mgen in inner._sweep(inner.max_arity + outer.max_arity):
        image = (module_morphism_apply(inner, {(word, mgen): ONE}) if word
                 else _unit_word_image(inner, word, mgen))
        value = outer._corestrict(image)
        if value:
            comps.setdefault(len(word), {})[(word, mgen)] = value
    return ModuleMorphism._made(inner.source, outer.target, comps)


def identity_module_morphism(module):
    comp0 = {((), m): {m: ONE} for m in module.space.basis}
    return ModuleMorphism(module, module, {0: comp0})


def module_morphism_from_triangle(outer, inner, source, target):
    """Module morphism induced by a factorization through a middle structure.

    inner: base -> middle and outer: middle -> end are structure morphisms.
    The caller passes their modules: source of inner, target of outer o inner
    (only bases and spaces are checked here).  The map has components

        F_k(w tensor m) = pr(outer(inner(w) v m)),

    in particular F_0(1 tensor m) is the strict part of outer on m.  They
    vanish on words above m_inner (m_outer - 1), where the sweep stops.
    """
    if not spaces_equal(inner.target.space, outer.source.space):
        raise InputError("triangle does not compose")
    if source.base != inner.source \
            or not spaces_equal(source.space, inner.target.space) \
            or not spaces_equal(target.space, outer.target.space):
        raise InputError("triangle endpoints are not the modules of its maps")
    cap = default_cap(inner.source.space, inner.max_arity, outer.max_arity)
    comps = _joined_components(inner, cap, outer)
    return ModuleMorphism._made(source, target, comps)


def twist_module(module, pi):
    """Module with components (phi^pi)_k(w tensor m), over the twisted base."""
    pi = validate_twist_datum(module.word_space, pi)
    return LInftyModule._made(twist_structure(module.base, pi), module.space,
                              _twist_rows(module, pi))


def twist_module_morphism(mm, pi):
    """Twisted module morphism between the twisted modules."""
    pi = validate_twist_datum(mm.word_space, pi)
    return ModuleMorphism._made(twist_module(mm.source, pi),
                                twist_module(mm.target, pi),
                                _twist_rows(mm, pi))


def check_module_twist_consistency(morphism, pi, max_arity=None):
    """Twisting commutes with the module-from-morphism constructor.

    Both routes from a morphism F and a twist datum pi to a module over the
    twisted source must agree: twist the module built from F, or build the
    module from F^pi.  The twisted target differs from the pi_F-twist of the
    target only through the base wiring, so components are compared on the
    shared tables and the bases through structure equality.
    """
    cap = default_cap(morphism.source.space, morphism.max_arity,
                      max_arity=max_arity)
    route_a = twist_module(module_from_morphism(morphism, max_arity=cap), pi)
    route_b = module_from_morphism(twist_morphism(morphism, pi), max_arity=cap)
    if route_a != route_b:
        raise MathCheckError(
            "twisting and the module constructor do not commute on this input")
    return True
