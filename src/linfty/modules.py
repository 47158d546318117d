"""Modules over a structure, their morphisms, constructors and twisting.

A module is carried by S^c(L) tensor M and stored through components
phi_k: L^vk tensor M -> M of degree +1.  The full operator acts by

    phi(w tensor m) = Q(w) tensor m
        + sum over k, sigma in Sh(k, n-k) of eps'(sigma) eps(sigma)
              (left block) tensor phi_{n-k}(right block tensor m)

where eps' = (-1)^(total shifted degree of the left block) is the Koszul
cost of carrying the odd operator past that block.  Module morphisms extend
by the same shuffle sum without eps' (they are even), and their components
are recovered as the unit-word slot of the extension.  Both go through one
shuffle-split loop that differs only in that sign policy.

Tensors are dicts (word, module generator) -> coefficient, truncated when
word weight plus generator level reaches the shared truncation order; module
and base must be declared at the same order.

Module degrees are the module's own: values of phi_k have degree
word degree + generator degree + 1, and the dg constructor below takes its
differential and action in those unshifted terms.
"""

from itertools import groupby
from operator import itemgetter

from .graded import (
    ComponentTable,
    InputError,
    MathCheckError,
    ONE,
    _accumulate,
    co_linear_part,
    el_scale,
    exact_element,
    shuffle_splits,
    sym_mul,
)
from .structures import (
    coderivation_apply,
    compose,
    morphism_apply,
    spaces_equal,
    default_cap,
)
from .twisting import twist_morphism, twist_structure, twist_table


# -- tensor helpers ---------------------------------------------------------------

def tensor_weight(base_space, module_space, word, mgen):
    return base_space.word_weight(word) + module_space.filtration(mgen)


def tensor_canon(base_space, module_space, terms):
    cap = base_space.nilpotency_order
    return {
        (w, m): q for (w, m), q in terms.items()
        if q and tensor_weight(base_space, module_space, w, m) < cap}


def surviving_tensors(base_space, module_space, words):
    """(word, generator) pairs over words whose weight stays below the order."""
    cap = base_space.nilpotency_order
    for word in words:
        for mgen in module_space.basis:
            if tensor_weight(base_space, module_space, word, mgen) < cap:
                yield word, mgen


class _TensorTable(ComponentTable):
    """Component table keyed by (word, module generator) tensors."""

    def keys_over(self, words):
        return surviving_tensors(self.word_space, self.key_space, words)


class LInftyModule(_TensorTable):
    """Components phi_k of a degree +1 module operator over a base structure."""

    def __init__(self, base, space, components, label=""):
        if space.nilpotency_order != base.space.nilpotency_order:
            raise InputError("module and base must share one truncation order")
        self.base = base
        self.space = space
        self.label = label
        self._set_components(base.space, space, components, 1, key_space=space)

    def _ends(self):
        return (self.base, self.space.generators, self.space.nilpotency_order)


def _split_terms(table, word, mgen, coeff, odd):
    """Terms of sum eps (left block) tensor C(right block tensor mgen).

    An odd operator also carries eps' = (-1)^(degree of the left block), the
    Koszul cost of moving it past that block; even maps carry no eps'.
    """
    space = table.word_space
    n = len(word)
    sizes = range(max(0, n - table.max_arity), n + 1)
    for eps, left, right, left_odd in shuffle_splits(space, word, sizes):
        value = table.value(right, mgen)
        if not value:
            continue
        norm = space.normalize_word(left)
        if norm is None:
            continue
        lword, lsign = norm
        scale = coeff * (-eps if odd and left_odd else eps) * lsign
        for produced, q in value.items():
            yield (lword, produced), q * scale


def module_apply(module, tensor_elt):
    """Apply the full module operator to a tensor element."""
    out = {}
    for (word, mgen), coeff in tensor_elt.items():
        if not coeff:
            continue
        # Q-part: coderivation on the word, generator untouched
        for oword, q in coderivation_apply(module.base, {word: ONE}).items():
            _accumulate(out, (oword, mgen), coeff * q)
        for key, q in _split_terms(module, word, mgen, coeff, odd=True):
            _accumulate(out, key, q)
    return tensor_canon(module.base.space, module.space, out)


def check_module_square_zero(module, max_arity=None):
    """phi o phi = 0 on surviving tensors up to the verification arity."""
    if max_arity is None:
        max_arity = default_cap(module.base.space)
    base_space = module.base.space
    for word, mgen in surviving_tensors(
            base_space, module.space, base_space.enumerate_words(max_arity)):
        once = module_apply(module, {(word, mgen): ONE})
        twice = module_apply(module, once)
        if twice:
            raise MathCheckError(
                f"module operator does not square to zero: residual {twice} "
                f"on {word} tensor {mgen}")
    return True


def from_dg_module(base, module_generators, differential, action, label=""):
    """Module of a dg module (b, rho) over a curved Lie base, unshifted input.

    module_generators list (name, degree, filtration) in the module's own
    grading.  differential: generator -> element, degree +1.  action:
    (lie generator, module generator) -> element, with the lie generator
    named in the base's shifted space and degrees adding as unshifted.

    Components: phi_0(m) = -b(m); on gamma tensor m the arity-1 part is
    -(-1)^(unshifted degree of gamma) rho(gamma)(m).  The square-zero check
    then demands b^2 = -rho(R), the curved replacement for b^2 = 0.
    """
    from .graded import GradedSpace

    space = GradedSpace(module_generators, base.space.nilpotency_order,
                        label=label)
    comp0 = {}
    for m, image in differential.items():
        if m not in space:
            raise InputError(f"differential on unknown module generator {m!r}")
        image = exact_element(image)
        for g in image:
            if space.degree(g) != space.degree(m) + 1:
                raise InputError(f"b({m}) is not homogeneous of degree +1")
        if image:
            comp0[((), m)] = el_scale(image, -1)

    comp1 = {}
    for (gamma, m), image in action.items():
        if gamma not in base.space or m not in space:
            raise InputError(f"action on unknown pair ({gamma!r}, {m!r})")
        image = exact_element(image)
        unshifted = base.space.degree(gamma) + 1
        for g in image:
            if space.degree(g) != unshifted + space.degree(m):
                raise InputError(f"rho({gamma})({m}) has inconsistent degree")
        if image:
            comp1[((gamma,), m)] = el_scale(image, -(-1) ** unshifted)

    return LInftyModule(base, space, {0: comp0, 1: comp1}, label=label)


def module_from_morphism(morphism, max_arity=None, label=""):
    """The target of a morphism as a module over the source.

    Components phi_k(w tensor m) = pr(Q_target(F(w) v m)), the arity-one part
    of the target coderivation applied to the image word joined with m.
    """
    cap = max_arity if max_arity is not None else max(
        default_cap(morphism.source.space), morphism.max_arity)
    target = morphism.target
    comps = _joined_components(
        morphism, cap, lambda joined: coderivation_apply(target, joined))
    return LInftyModule(morphism.source, target.space, comps, label=label)


def _joined_components(morphism, cap, apply):
    """Components pr(apply(F(w) v m)) on surviving tensors w tensor m.

    F is the morphism, m runs over the target's generators, and pr takes
    the arity-1 part; F(w) is computed once per word.
    """
    space = morphism.source.space
    tensors = surviving_tensors(space, morphism.target.space,
                                space.enumerate_words(cap))
    comps = {}
    for word, keys in groupby(tensors, key=itemgetter(0)):
        image = morphism_apply(morphism, {word: ONE})
        for key in keys:
            joined = sym_mul(morphism.target.space, image, {(key[1],): ONE})
            value = co_linear_part(apply(joined))
            if value:
                comps.setdefault(len(word), {})[key] = value
    return comps


class ModuleMorphism(_TensorTable):
    """Components of a degree 0 map of modules over one base."""

    def __init__(self, source, target, components, label=""):
        if source.base != target.base:
            raise InputError("module morphism endpoints must share the base")
        self.source = source
        self.target = target
        self.label = label
        self._set_components(source.base.space, target.space, components, 0,
                             key_space=source.space)

    def _ends(self):
        return (self.source, self.target)


def module_morphism_apply(mm, tensor_elt):
    """Extend components over shuffle splittings (even map, no eps')."""
    out = {}
    for (word, mgen), coeff in tensor_elt.items():
        if not coeff:
            continue
        for key, q in _split_terms(mm, word, mgen, coeff, odd=False):
            _accumulate(out, key, q)
    return tensor_canon(mm.word_space, mm.target.space, out)


def check_module_morphism(mm, max_arity=None):
    """F phi = phi F on surviving tensors up to the verification arity."""
    if max_arity is None:
        max_arity = default_cap(mm.source.base.space)
    base_space = mm.source.base.space
    for word, mgen in surviving_tensors(
            base_space, mm.source.space, base_space.enumerate_words(max_arity)):
        start = {(word, mgen): ONE}
        lhs = module_morphism_apply(mm, module_apply(mm.source, start))
        rhs = module_apply(mm.target, module_morphism_apply(mm, start))
        if lhs != rhs:
            raise MathCheckError(
                f"module morphism does not intertwine operators "
                f"on {word} tensor {mgen}")
    return True


def compose_module_morphisms(outer, inner, max_arity=None):
    """Composite module morphism, components from the unit-word slot."""
    if not spaces_equal(inner.target.space, outer.source.space):
        raise InputError("module morphism composition endpoints do not match")
    base_space = inner.source.base.space
    cap = max_arity if max_arity is not None else max(
        default_cap(base_space), inner.max_arity + outer.max_arity)
    comps = {}
    for word, mgen in surviving_tensors(
            base_space, inner.source.space, base_space.enumerate_words(cap)):
        mid = module_morphism_apply(inner, {(word, mgen): ONE})
        end = module_morphism_apply(outer, mid)
        value = {g: q for (w, g), q in end.items() if not w}
        if value:
            comps.setdefault(len(word), {})[(word, mgen)] = value
    return ModuleMorphism(inner.source, outer.target, comps)


def identity_module_morphism(module):
    comp0 = {((), m): {m: ONE} for m in module.space.basis}
    return ModuleMorphism(module, module, {0: comp0})


def module_morphism_from_triangle(outer, inner, max_arity=None, label=""):
    """Module morphism induced by a factorization through a middle structure.

    inner: base -> middle and outer: middle -> end are structure morphisms.
    The middle and the end are modules over the base through inner and
    through outer o inner; the map between them has components

        F_k(w tensor m) = pr(outer(inner(w) v m)),

    in particular F_0(1 tensor m) is the strict part of outer on m.
    """
    if not spaces_equal(inner.target.space, outer.source.space):
        raise InputError("triangle does not compose")
    cap = max_arity if max_arity is not None else max(
        default_cap(inner.source.space), inner.max_arity, outer.max_arity)
    source_module = module_from_morphism(inner, max_arity=cap)
    target_module = module_from_morphism(
        compose(outer, inner, max_arity=cap), max_arity=cap)
    comps = _joined_components(
        inner, cap, lambda joined: morphism_apply(outer, joined))
    return ModuleMorphism(source_module, target_module, comps, label=label)


def twist_module(module, pi):
    """Module with components (phi^pi)_k(w tensor m), over the twisted base."""
    return LInftyModule(twist_structure(module.base, pi), module.space,
                        twist_table(module, pi), label=module.label)


def twist_module_morphism(mm, pi):
    """Twisted module morphism between the twisted modules."""
    return ModuleMorphism(twist_module(mm.source, pi),
                          twist_module(mm.target, pi),
                          twist_table(mm, pi), label=mm.label)


def check_module_twist_consistency(morphism, pi, max_arity=None):
    """Twisting commutes with the module-from-morphism constructor.

    Both routes from a morphism F and a twist datum pi to a module over the
    twisted source must agree: twist the module built from F, or build the
    module from F^pi.  The twisted target differs from the pi_F-twist of the
    target only through the base wiring, so components are compared on the
    shared tables and the bases through structure equality.
    """
    cap = max_arity if max_arity is not None else max(
        default_cap(morphism.source.space), morphism.max_arity)
    route_a = twist_module(module_from_morphism(morphism, max_arity=cap), pi)
    route_b = module_from_morphism(twist_morphism(morphism, pi), max_arity=cap)
    if route_a != route_b:
        raise MathCheckError(
            "twisting and the module constructor do not commute on this input")
    return True
