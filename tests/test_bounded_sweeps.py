"""Checks and constructions that stop at a derived arity bound.

check_square_zero, check_morphism, check_module_square_zero and
check_module_morphism each read the arity-one part of their residual, by
corestriction, on words up to a bound derived from the tables' max_arity,
and take their witness from the first word where it is nonzero; only a
module over a base that fails its own sweep is checked by the full loop.
The oracles below are the full loops alone, kept verbatim as the
reference.  On the tables of pooled ladders and instances, intact, with one
component scaled or dropped, and with a perturbed base under intact
modules, at the default cap and at caps 1, 2 and 3, every check gives its
oracle's verdict and exact error text, and a failing check builds no sweep
past its bound.

The edge tables below put the first nonzero residual of a check, or a
nonzero component of a construction, exactly at the bound, so a bound one
lower fails.  Each bounded construction equals the same construction swept
to default_cap.
"""

from fractions import Fraction
from functools import lru_cache
import random

import pytest

from linfty.graded import GradedSpace, MathCheckError, ONE, el_scale, el_sub, sym_mul
from linfty.instances import (
    random_instance,
    random_ladder,
    random_strict_transport,
)
from linfty.modules import (
    LInftyModule,
    ModuleMorphism,
    check_module_morphism,
    check_module_square_zero,
    compose_module_morphisms,
    module_apply,
    module_from_morphism,
    module_morphism_apply,
    module_morphism_from_triangle,
    surviving_tensors,
    twist_module,
)
from linfty.resolutions import twist_resolution_morphism
from linfty.structures import (
    LInftyMorphism,
    LInftyStructure,
    check_morphism,
    check_square_zero,
    coderivation_apply,
    compose,
    conjugate,
    default_cap,
    invert,
    morphism_apply,
    strict_morphism,
)
from linfty.twisting import twist_morphism, twist_structure


# -- oracles: the full loops ------------------------------------------------------

def as_fractions(terms):
    """Residual values as Fractions, as the texts have always quoted them."""
    return {key: Fraction(q) for key, q in terms.items()}


def oracle_check_square_zero(structure, max_arity=None):
    space = structure.space
    for word in space.enumerate_words(default_cap(space, max_arity=max_arity)):
        once = coderivation_apply(structure, {word: ONE})
        twice = coderivation_apply(structure, once)
        if twice:
            raise MathCheckError(
                f"coderivation does not square to zero: residual {as_fractions(twice)} "
                f"on word {word}")
    return True


def oracle_check_morphism(morphism, max_arity=None):
    space = morphism.source.space
    for word in space.enumerate_words(default_cap(space, max_arity=max_arity)):
        lhs = morphism_apply(morphism, coderivation_apply(morphism.source, {word: ONE}))
        rhs = coderivation_apply(morphism.target, morphism_apply(morphism, {word: ONE}))
        if lhs != rhs:
            diff = el_sub(lhs, rhs)
            raise MathCheckError(
                f"morphism does not intertwine coderivations: residual {as_fractions(diff)} "
                f"on word {word}")
    return True


def oracle_check_module_square_zero(module, max_arity=None):
    base_space = module.base.space
    cap = default_cap(base_space, max_arity=max_arity)
    for word, mgen in surviving_tensors(
            base_space, module.space, base_space.enumerate_words(cap)):
        once = module_apply(module, {(word, mgen): ONE})
        twice = module_apply(module, once)
        if twice:
            raise MathCheckError(
                f"module operator does not square to zero: residual {as_fractions(twice)} "
                f"on {word} tensor {mgen}")
    return True


def oracle_check_module_morphism(mm, max_arity=None):
    base_space = mm.source.base.space
    cap = default_cap(base_space, max_arity=max_arity)
    for word, mgen in surviving_tensors(
            base_space, mm.source.space, base_space.enumerate_words(cap)):
        start = {(word, mgen): ONE}
        lhs = module_morphism_apply(mm, module_apply(mm.source, start))
        rhs = module_apply(mm.target, module_morphism_apply(mm, start))
        if lhs != rhs:
            raise MathCheckError(
                f"module morphism does not intertwine operators "
                f"on {word} tensor {mgen}")
    return True


# -- oracles: the constructions swept to default_cap --------------------------------

def oracle_compose(outer, inner):
    cap = default_cap(inner.source.space, inner.max_arity, outer.max_arity)
    comps = {}
    for word in inner.source.space.enumerate_words(cap, min_arity=1):
        value = outer._corestrict(morphism_apply(inner, {word: ONE}))
        if value:
            comps.setdefault(len(word), {})[word] = value
    return LInftyMorphism(inner.source, outer.target, comps)


def oracle_joined_components(morphism, cap, outer):
    space = morphism.source.space
    comps = {}
    for word, mgen in surviving_tensors(space, morphism.target.space,
                                        space.enumerate_words(cap)):
        joined = sym_mul(morphism.target.space,
                         morphism_apply(morphism, {word: ONE}), {(mgen,): ONE})
        value = outer._corestrict(joined)
        if value:
            comps.setdefault(len(word), {})[(word, mgen)] = value
    return comps


def oracle_module_from_morphism(morphism):
    cap = default_cap(morphism.source.space, morphism.max_arity)
    return LInftyModule(morphism.source, morphism.target.space,
                        oracle_joined_components(morphism, cap, morphism.target))


def oracle_triangle(outer, inner, source, target):
    cap = default_cap(inner.source.space, inner.max_arity, outer.max_arity)
    return ModuleMorphism(source, target,
                          oracle_joined_components(inner, cap, outer))


def oracle_compose_module_morphisms(outer, inner):
    base_space = inner.source.base.space
    cap = default_cap(base_space, inner.max_arity + outer.max_arity)
    comps = {}
    for word, mgen in surviving_tensors(
            base_space, inner.source.space, base_space.enumerate_words(cap)):
        value = outer._corestrict(
            module_morphism_apply(inner, {(word, mgen): ONE}))
        if value:
            comps.setdefault(len(word), {})[(word, mgen)] = value
    return ModuleMorphism(inner.source, outer.target, comps)


def oracle_conjugate(structure, components):
    space = structure.space
    phi = LInftyMorphism(structure, LInftyStructure(space, {}), components)
    cap = default_cap(space, phi.max_arity)
    inverse = invert(phi, max_arity=cap)
    comps = {}
    for word in space.enumerate_words(cap):
        pulled = morphism_apply(inverse, {word: ONE})
        value = phi._corestrict(coderivation_apply(structure, pulled))
        if value:
            comps.setdefault(len(word), {})[word] = value
    return LInftyStructure(space, comps)


# -- pooled tables and their perturbations ----------------------------------------

# ladder seed 0 draws a 3 x 3 matrix instance and seed 5 a 4 x 4 one; instance
# seed 0 has a strict map, seeds 5, 19 and 20 maps with an arity-2 part
LADDER_SEEDS = (0, 5)
INSTANCE_SEEDS = (0, 5, 19, 20)


@lru_cache(maxsize=None)
def pool():
    """Structures, morphisms, modules and module morphisms of ladders (plain
    and twisted) and of instances (their maps, modules and triangles)."""
    structures, morphisms, modules, maps = [], [], [], []
    for seed in LADDER_SEEDS:
        ladder, xi = random_ladder(seed)
        for lad in (ladder, twist_resolution_morphism(ladder, xi)):
            structures.append(lad.source.base)
            for diagram in (lad.source, lad.target):
                modules += diagram.modules()
                maps += diagram.maps()
            maps += lad.verticals()
        rng = random.Random(seed)
        base = ladder.source.base
        first, second = (random_strict_transport(rng, base)[1]
                         for _ in range(2))
        morphisms += [first, compose(second, invert(first))]
    for seed in INSTANCE_SEEDS:
        inst = random_instance(seed)
        f, pi = inst["morphism"], inst["pi"]
        inverse = invert(f)
        module = module_from_morphism(f)
        structures += [inst["base"], inst["transported"],
                       twist_structure(inst["base"], pi)]
        morphisms += [f, twist_morphism(f, pi)]
        modules += [module, twist_module(module, pi)]
        maps.append(module_morphism_from_triangle(
            inverse, f, module, module_from_morphism(compose(inverse, f))))
    return structures, morphisms, modules, maps


def rebuilt(table, components):
    """A table of the same kind on the same ends, with these components."""
    if isinstance(table, LInftyStructure):
        return LInftyStructure(table.space, components)
    if isinstance(table, LInftyMorphism):
        return LInftyMorphism(table.source, table.target, components)
    if isinstance(table, LInftyModule):
        return LInftyModule(table.base, table.space, components)
    return ModuleMorphism(table.source, table.target, components)


def perturbed(table):
    """Per arity: the first value scaled by 2, and the last value dropped."""
    out = []
    for arity, row in sorted(table.components.items()):
        keys = list(row)
        for key, value in ((keys[0], el_scale(row[keys[0]], 2)),
                           (keys[-1], {})):
            comps = {k: dict(r) for k, r in table.components.items()}
            comps[arity][key] = value
            out.append(rebuilt(table, comps))
    return out


def over(base, module):
    return LInftyModule(base, module.space, module.components)


def cases(kind):
    """(check, oracle, tables) for one of the four checks."""
    structures, morphisms, modules, maps = pool()
    if kind == "square_zero":
        tables = [v for s in structures for v in [s] + perturbed(s)]
        return check_square_zero, oracle_check_square_zero, tables
    if kind == "morphism":
        tables = []
        for f in morphisms:
            tables += [f] + perturbed(f)
            tables += [LInftyMorphism(s, f.target, f.components)
                       for s in perturbed(f.source)]
            tables += [LInftyMorphism(f.source, t, f.components)
                       for t in perturbed(f.target)]
        return check_morphism, oracle_check_morphism, tables
    if kind == "module_square_zero":
        tables = []
        for m in modules:
            tables += [m] + perturbed(m)
            tables += [over(b, m) for b in perturbed(m.base)]
        return check_module_square_zero, oracle_check_module_square_zero, tables
    tables = []
    for mm in maps:
        src, tgt = mm.source, mm.target
        tables += [mm] + perturbed(mm)
        tables += [ModuleMorphism(s, tgt, mm.components) for s in perturbed(src)]
        tables += [ModuleMorphism(src, t, mm.components) for t in perturbed(tgt)]
        tables += [ModuleMorphism(over(b, src), over(b, tgt), mm.components)
                   for b in perturbed(src.base)]
    return check_module_morphism, oracle_check_module_morphism, tables


def outcome(check, table, cap):
    """True, or the exact text of the MathCheckError raised."""
    try:
        return check(table, max_arity=cap)
    except MathCheckError as exc:
        return str(exc)


CHECKS = ("square_zero", "morphism", "module_square_zero", "module_morphism")


@pytest.mark.parametrize("kind", CHECKS)
def test_each_check_gives_its_full_loop_verdict_and_text(kind):
    check, oracle, tables = cases(kind)
    verdicts = set()
    for i, table in enumerate(tables):
        for cap in (None, 1, 2, 3):
            want = outcome(oracle, table, cap)
            assert outcome(check, table, cap) == want, (kind, i, cap)
            verdicts.add(want is True)
    assert verdicts == {True, False}, kind


def test_pools_reach_every_bound_term():
    """Non-strict maps, modules above arity 1 and maps above arity 0."""
    structures, morphisms, modules, maps = pool()
    assert {s.max_arity for s in structures} == {2}
    assert {f.max_arity for f in morphisms} == {1, 2}
    assert max(m.max_arity for m in modules) >= 2
    assert max(mm.max_arity for mm in maps) >= 1


# -- checks: the first nonzero residual sits at the bound --------------------------
#
# 2 m_Q - 1 for check_square_zero is met in tests/test_structures.py, where
# Q_3 alone first fails on a^5.

def space(*generators):
    """Filtration-0 generators at order 2: every word survives, cap 4."""
    return GradedSpace([(name, degree, 0) for name, degree in generators], 2)


def assert_fails_first_at(check, table, word, bound):
    """The check fails on `word` of arity `bound` and passes one below."""
    assert len(word) == bound
    with pytest.raises(MathCheckError) as err:
        check(table)
    text = str(err.value)
    assert text.endswith(f"on word {word}") or f"on {word} tensor " in text, text
    assert check(table, max_arity=bound - 1)


def test_morphism_bound_edge_through_the_source():
    """m_F + m_Q - 1 = 3: the identity from Q_3(a,a,a) = b to zero."""
    sp = space(("a", 0), ("b", 1))
    src = LInftyStructure(sp, {3: {("a", "a", "a"): {"b": ONE}}})
    f = strict_morphism(src, LInftyStructure(sp, {}),
                        {"a": {"a": ONE}, "b": {"b": ONE}})
    assert_fails_first_at(check_morphism, f, ("a", "a", "a"), 3)


def test_morphism_bound_edge_through_the_target():
    """m_Q' m_F = 4: F_2(x,x) = x into Q'_2(x,x) = z meets on x^4 first."""
    sp = space(("x", 0), ("z", 1))
    f = LInftyMorphism(LInftyStructure(sp, {}),
                       LInftyStructure(sp, {2: {("x", "x"): {"z": ONE}}}),
                       {2: {("x", "x"): {"x": ONE}}})
    assert_fails_first_at(check_morphism, f, ("x", "x", "x", "x"), 4)


def test_module_square_zero_bound_edge_through_the_base():
    """m_phi + m_Q - 1 = 3: phi_1(b tensor m) = p reads Q_3(a,a,a) = b."""
    base = LInftyStructure(space(("a", 0), ("b", 1)),
                           {3: {("a", "a", "a"): {"b": ONE}}})
    assert check_square_zero(base)
    module = LInftyModule(base, space(("m", 0), ("p", 2)),
                          {1: {(("b",), "m"): {"p": ONE}}})
    assert_fails_first_at(check_module_square_zero, module,
                          ("a", "a", "a"), 3)


def test_module_square_zero_over_a_base_that_does_not_square_to_zero():
    """phi = 0 has no unit-word slot at all, yet phi o phi = Q o Q tensor 1;
    the base's own sweep fails, so the module's runs the full loop."""
    base = LInftyStructure(space(("a", 0), ("b", 1), ("c", 2)),
                           {1: {("a",): {"b": ONE}, ("b",): {"c": ONE}}})
    module = LInftyModule(base, space(("m", 0)), {})
    with pytest.raises(MathCheckError, match=r"on \('a',\) tensor m$"):
        check_module_square_zero(module)
    assert outcome(check_module_square_zero, module, None) \
        == outcome(oracle_check_module_square_zero, module, None)


def test_module_square_zero_bound_edge_through_the_module():
    """2 m_phi = 4: phi_2 after phi_2 first lives on x^4 tensor m."""
    base = LInftyStructure(space(("x", 0)), {})
    module = LInftyModule(base, space(("m", 0), ("p", 1), ("r", 2)),
                          {2: {(("x", "x"), "m"): {"p": ONE},
                               (("x", "x"), "p"): {"r": ONE}}})
    assert_fails_first_at(check_module_square_zero, module,
                          ("x", "x", "x", "x"), 4)


def test_module_morphism_bound_edge_through_the_base():
    """m_F + m_Q - 1 = 3: F_1(b tensor m) = n reads Q_3(a,a,a) = b."""
    base = LInftyStructure(space(("a", 0), ("b", 1)),
                           {3: {("a", "a", "a"): {"b": ONE}}})
    source = LInftyModule(base, space(("m", 0)), {})
    target = LInftyModule(base, space(("n", 1)), {})
    mm = ModuleMorphism(source, target, {1: {(("b",), "m"): {"n": ONE}}})
    assert_fails_first_at(check_module_morphism, mm, ("a", "a", "a"), 3)


def test_module_morphism_bound_edge_through_the_source_module():
    """m_F + m_phi = 3: F_1(x tensor p) = n after phi_2(x,x tensor m) = p."""
    base = LInftyStructure(space(("x", 0)), {})
    source = LInftyModule(base, space(("m", 0), ("p", 1)),
                          {2: {(("x", "x"), "m"): {"p": ONE}}})
    target = LInftyModule(base, space(("n", 1)), {})
    mm = ModuleMorphism(source, target, {1: {(("x",), "p"): {"n": ONE}}})
    assert_fails_first_at(check_module_morphism, mm, ("x", "x", "x"), 3)


def test_module_morphism_bound_edge_through_the_target_module():
    """m_F + m_phi' = 3: phi'_2(x,x tensor n) = r after F_1(x tensor m) = n."""
    base = LInftyStructure(space(("x", 0)), {})
    source = LInftyModule(base, space(("m", 0)), {})
    target = LInftyModule(base, space(("n", 0), ("r", 1)),
                          {2: {(("x", "x"), "n"): {"r": ONE}}})
    mm = ModuleMorphism(source, target, {1: {(("x",), "m"): {"n": ONE}}})
    assert_fails_first_at(check_module_morphism, mm, ("x", "x", "x"), 3)


def failing_checks():
    """(check, oracle, table, base space, the sweeps the check builds), each
    check's first failing key at arity 1 or 0, far below the cap 6."""
    a_to_b = {("a",): {"b": ONE}}
    chain = space(("a", 0), ("b", 1), ("c", 2))
    square = LInftyStructure(chain, {1: {**a_to_b, ("b",): {"c": ONE}}})
    f = strict_morphism(LInftyStructure(chain, {1: a_to_b}),
                        LInftyStructure(chain, {}),
                        {g: {g: ONE} for g in chain.basis})
    pair = space(("a", 0), ("b", 1))
    base = LInftyStructure(pair, {1: a_to_b})
    module = LInftyModule(base, space(("m", 0), ("p", 1), ("r", 2)),
                          {0: {((), "m"): {"p": ONE}, ((), "p"): {"r": ONE}}})
    mm = ModuleMorphism(LInftyModule(base, space(("m", 0)), {}),
                        LInftyModule(base, space(("n", 0), ("r", 1)),
                                     {0: {((), "n"): {"r": ONE}}}),
                        {0: {((), "m"): {"n": ONE}}})
    return [
        (check_square_zero, oracle_check_square_zero, square, chain, [(1, 0)]),
        (check_morphism, oracle_check_morphism, f, chain, [(1, 0)]),
        (check_module_square_zero, oracle_check_module_square_zero, module,
         pair, [(0, 0), (1, 0)]),
        (check_module_morphism, oracle_check_module_morphism, mm, pair,
         [(0, 0)]),
    ]


def test_a_failing_check_sweeps_nothing_past_its_bound():
    """The witness comes from the bounded sweep: the space's memo of sweeps
    holds no sweep to the cap afterwards, and the text is the full loop's."""
    for check, oracle, table, sp, sweeps in failing_checks():
        sp._words.clear()
        text = outcome(check, table, 6)
        assert sorted(sp._words) == sweeps, check.__name__
        assert text is not True and text == outcome(oracle, table, 6)


# -- constructions: a nonzero component at the bound -------------------------------

def deep(*generators):
    """Filtration-0 generators at order 6: default_cap 5 reaches past the
    bounds below, so the oracles sweep an arity the constructions skip."""
    return GradedSpace([(name, degree, 0) for name, degree in generators], 6)


def line_map(sp, top, source=None, target=None):
    """Identity plus one top component x^k -> x on the space's ends."""
    ends = LInftyStructure(sp, {})
    return LInftyMorphism(source or ends, target or ends,
                          {1: {(g,): {g: ONE} for g in sp.basis},
                           len(top): {top: {"x": ONE}}})


def test_compose_bound_edge():
    """m_outer m_inner = 4: G_2(F_2(x,x) v F_2(x,x)) on x^4."""
    sp = deep(("x", 0))
    inner = line_map(sp, ("x", "x"))
    outer = line_map(sp, ("x", "x"))
    got = compose(outer, inner)
    assert max(got.components) == 4
    assert got == oracle_compose(outer, inner)


def test_module_from_morphism_bound_edge():
    """m_F (m_Q' - 1) = 4: Q'_3(F_2(x,x) v F_2(x,x) v x) on x^4 tensor x."""
    sp = deep(("x", 0), ("z", 1))
    target = LInftyStructure(sp, {3: {("x", "x", "x"): {"z": ONE}}})
    f = line_map(sp, ("x", "x"), target=target)
    got = module_from_morphism(f)
    assert max(got.components) == 4
    assert got == oracle_module_from_morphism(f)


def test_triangle_bound_edge():
    """m_inner (m_outer - 1) = 4: G_3(F_2(x,x) v F_2(x,x) v x) on x^4."""
    sp = deep(("x", 0))
    inner = line_map(sp, ("x", "x"))
    outer = line_map(sp, ("x", "x", "x"))
    source = module_from_morphism(inner)
    target = module_from_morphism(compose(outer, inner))
    got = module_morphism_from_triangle(outer, inner, source, target)
    assert max(got.components) == 4
    assert got == oracle_triangle(outer, inner, source, target)


def test_compose_module_morphisms_bound_edge():
    """m_inner + m_outer = 4: g_2(x,x tensor f_2(x,x tensor m)) on x^4."""
    module = LInftyModule(LInftyStructure(deep(("x", 0)), {}),
                          deep(("m", 0)), {})
    top = {2: {(("x", "x"), "m"): {"m": ONE}}}
    inner = ModuleMorphism(module, module, top)
    outer = ModuleMorphism(module, module, top)
    got = compose_module_morphisms(outer, inner)
    assert max(got.components) == 4
    assert got == oracle_compose_module_morphisms(outer, inner)


def test_strict_conjugate_bound_edge():
    """m_Q = 3: a strict map transports Q_3(x,x,x) = z to arity 3."""
    sp = deep(("x", 0), ("z", 1))
    q = LInftyStructure(sp, {3: {("x", "x", "x"): {"z": ONE}}})
    shape = {1: {("x",): {"x": ONE}, ("z",): {"z": 2 * ONE}}}
    got, _ = conjugate(q, shape)
    assert got.components == {3: {("x", "x", "x"): {"z": 2 * ONE}}}
    assert got == oracle_conjugate(q, shape)


def test_bounded_constructions_equal_full_sweeps_on_the_pools():
    structures, morphisms, modules, maps = pool()
    rng = random.Random(11)
    for s in structures:
        shape = random_strict_transport(rng, s)[1].components
        assert conjugate(s, shape)[0] == oracle_conjugate(s, shape)
    for seed in INSTANCE_SEEDS:
        f = random_instance(seed)["morphism"]
        inverse = invert(f)
        assert compose(inverse, f) == oracle_compose(inverse, f)
        assert compose(f, f) == oracle_compose(f, f)
        assert module_from_morphism(f) == oracle_module_from_morphism(f)
        source = module_from_morphism(f)
        target = module_from_morphism(compose(inverse, f))
        assert module_morphism_from_triangle(inverse, f, source, target) \
            == oracle_triangle(inverse, f, source, target)
    pairs = [(mm, other) for mm in maps for other in maps
             if other.target.space.generators == mm.source.space.generators
             and other.target.base == mm.source.base]
    assert pairs
    for outer, inner in pairs:
        assert compose_module_morphisms(outer, inner) \
            == oracle_compose_module_morphisms(outer, inner)


# -- the one sweep ----------------------------------------------------------------

@pytest.mark.parametrize("min_arity", [0, 1, 2])
def test_every_table_sweeps_the_words_up_to_the_clamped_bound(min_arity):
    """table._sweep(cap, bound, m) is enumerate_words(min(cap, max(0,
    bound)), m), and surviving_tensors over it for tensor tables."""
    structures, morphisms, modules, maps = pool()
    for table in structures + morphisms + modules + maps:
        space = table.word_space
        for cap in range(6):
            for bound in (*range(-1, 7), None):
                top = cap if bound is None else min(cap, max(0, bound))
                words = space.enumerate_words(top, min_arity)
                if table.key_space is not None:
                    words = surviving_tensors(space, table.key_space, words)
                assert list(table._sweep(cap, bound, min_arity)) == list(words)
