"""Module operator, constructor and twisting tests.

The eps' sign (carrying the odd operator past the untouched left block) is
pinned twice: a frozen one-letter worked example, and a comodule coaction
compatibility property recomputed independently here, which must hold for
arbitrary component tables on spaces where truncation never fires.
"""

from fractions import Fraction
import re

import pytest
from hypothesis import given, settings, strategies as st

from linfty.graded import GradedSpace, InputError, MathCheckError, ONE, koszul_sign, shuffles
from linfty.instances import matrix_structure
from linfty.structures import (
    LInftyStructure,
    check_morphism,
    coderivation_apply,
    compose,
    conjugate,
    from_curved_lie,
    invert,
    identity_morphism,
    strict_morphism,
)
from linfty.twisting import push_mc, twist_morphism, twist_structure
from linfty.modules import (
    LInftyModule,
    ModuleMorphism,
    check_module_morphism,
    check_module_square_zero,
    check_module_twist_consistency,
    compose_module_morphisms,
    from_dg_module,
    identity_module_morphism,
    module_apply,
    module_from_morphism,
    module_morphism_apply,
    module_morphism_from_triangle,
    twist_module,
    twist_module_morphism,
)


def fix_b():
    return from_curved_lie(
        [("x", 1, 1), ("c", 2, 2)], 3,
        curvature={"c": ONE}, differential={},
        bracket={("x", "x"): {"c": Fraction(2)}})


def nested_pair():
    sp = GradedSpace([("u", 0, 1), ("v", 0, 2), ("z", 1, 2)], 4)
    base = LInftyStructure(sp, {1: {("v",): {"z": ONE}}})
    transported, phi = conjugate(base, {
        1: {(g,): {g: ONE} for g in sp.basis},
        2: {("u", "u"): {"v": ONE}}})
    return base, transported, phi


def triangle(outer, inner):
    """The triangle map between its endpoint modules, each built here."""
    return module_morphism_from_triangle(
        outer, inner, module_from_morphism(inner),
        module_from_morphism(compose(outer, inner)))


# -- oracles ---------------------------------------------------------------------

def coaction(base_space, word, mgen):
    """Independent comodule coaction: dict (left, (right, mgen)) -> coeff."""
    out = {}
    degrees = [base_space.degree(g) for g in word]
    n = len(word)
    for k in range(n + 1):
        for sigma in shuffles(k, n - k):
            eps = koszul_sign(sigma, degrees)
            left = base_space.normalize_word([word[sigma[i]] for i in range(k)])
            right = base_space.normalize_word([word[sigma[i]] for i in range(k, n)])
            if left is None or right is None:
                continue
            key = (left[0], (right[0], mgen))
            out[key] = out.get(key, 0) + eps * left[1] * right[1]
    return {k: v for k, v in out.items() if v}


def coaction_of(base_space, tensor_elt):
    out = {}
    for (word, mgen), coeff in tensor_elt.items():
        for key, v in coaction(base_space, word, mgen).items():
            s = out.get(key, 0) + coeff * v
            if s:
                out[key] = s
            else:
                out.pop(key, None)
    return out


def untruncated_base():
    return GradedSpace([("a0", 0, 0), ("b1", 1, 0)], 1)


def untruncated_module_space():
    return GradedSpace([("m0", 0, 0), ("m1", 1, 0), ("m2", 2, 0)], 1)


def draw_element(data, space, degree):
    el = {}
    for g in space.basis:
        if space.degree(g) == degree:
            q = data.draw(st.integers(-2, 2))
            if q:
                el[g] = Fraction(q)
    return el


def draw_structure(data, space, max_arity=2):
    comps = {}
    for k in range(0, max_arity + 1):
        table = {}
        for word in space.enumerate_words(k, min_arity=k):
            value = draw_element(data, space, space.word_degree(word) + 1)
            if value:
                table[word] = value
        if table:
            comps[k] = table
    return LInftyStructure(space, comps)


def draw_module(data, base, mspace, max_arity=2):
    comps = {}
    for k in range(0, max_arity + 1):
        table = {}
        for word in base.space.enumerate_words(k, min_arity=k):
            for m in mspace.basis:
                value = draw_element(
                    data, mspace, base.space.word_degree(word) + mspace.degree(m) + 1)
                if value:
                    table[(word, m)] = value
        if table:
            comps[k] = table
    return LInftyModule(base, mspace, comps)


def draw_module_morphism(data, src, tgt, max_arity=2):
    base_space = src.base.space
    comps = {}
    for k in range(0, max_arity + 1):
        table = {}
        for word in base_space.enumerate_words(k, min_arity=k):
            for m in src.space.basis:
                value = draw_element(
                    data, tgt.space, base_space.word_degree(word) + src.space.degree(m))
                if value:
                    table[(word, m)] = value
        if table:
            comps[k] = table
    return ModuleMorphism(src, tgt, comps)


# -- frozen worked example ---------------------------------------------------------

def test_module_apply_one_letter_worked_example():
    """phi(g tensor m) = Q(g) tensor m + 1 tensor phi_1(g tensor m)
    + (-1)^|g| g tensor phi_0(m), with |g| the shifted degree."""
    base_space = GradedSpace([("g", 1, 0), ("h", 2, 0)], 1)
    base = LInftyStructure(base_space, {1: {("g",): {"h": ONE}}})
    mspace = GradedSpace([("m", 0, 0), ("m1", 1, 0), ("m2", 2, 0)], 1)
    module = LInftyModule(base, mspace, {
        0: {((), "m"): {"m1": ONE}},
        1: {(("g",), "m"): {"m2": ONE}},
    })
    got = module_apply(module, {(("g",), "m"): ONE})
    assert got == {
        (("h",), "m"): ONE,          # Q(g) tensor m
        ((), "m2"): ONE,             # 1 tensor phi_1(g tensor m)
        (("g",), "m1"): Fraction(-1) # odd g carries the operator past it
    }


def test_module_apply_even_letter_has_no_carry_sign():
    base_space = GradedSpace([("e", 0, 0)], 1)
    base = LInftyStructure(base_space, {})
    mspace = GradedSpace([("m", 0, 0), ("m1", 1, 0)], 1)
    module = LInftyModule(base, mspace, {0: {((), "m"): {"m1": ONE}}})
    got = module_apply(module, {(("e",), "m"): ONE})
    assert got == {(("e",), "m1"): ONE}


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_module_operator_is_a_comodule_coderivation(data):
    """coaction(phi(x)) = (Q x 1)(coaction x) + (1 x phi)(coaction x)."""
    bsp = untruncated_base()
    msp = untruncated_module_space()
    base = draw_structure(data, bsp)
    module = draw_module(data, base, msp)
    word = tuple(data.draw(st.lists(st.sampled_from(bsp.basis), max_size=3)))
    norm = bsp.normalize_word(list(word))
    if norm is None:
        return
    word = norm[0]
    mgen = data.draw(st.sampled_from(msp.basis))
    lhs = coaction_of(bsp, module_apply(module, {(word, mgen): ONE}))
    pairs = coaction(bsp, word, mgen)
    rhs = {}
    for (l, (r, m)), coeff in pairs.items():
        for lw, q in coderivation_apply(base, {l: ONE}).items():
            key = (lw, (r, m))
            s = rhs.get(key, 0) + coeff * q
            if s:
                rhs[key] = s
            else:
                rhs.pop(key, None)
        sign = -1 if bsp.word_degree(l) % 2 else 1
        for (rw, m2), q in module_apply(module, {(r, m): ONE}).items():
            key = (l, (rw, m2))
            s = rhs.get(key, 0) + coeff * q * sign
            if s:
                rhs[key] = s
            else:
                rhs.pop(key, None)
    assert lhs == rhs


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_module_morphism_extension_is_a_comodule_map(data):
    """coaction(F(x)) = (1 x F)(coaction x), without any carry sign."""
    bsp = untruncated_base()
    msp = untruncated_module_space()
    base = draw_structure(data, bsp)
    src = draw_module(data, base, msp)
    tgt = draw_module(data, base, msp)
    mm = draw_module_morphism(data, src, tgt)
    word = tuple(data.draw(st.lists(st.sampled_from(bsp.basis), max_size=3)))
    norm = bsp.normalize_word(list(word))
    if norm is None:
        return
    word = norm[0]
    mgen = data.draw(st.sampled_from(msp.basis))
    lhs = coaction_of(bsp, module_morphism_apply(mm, {(word, mgen): ONE}))
    rhs = {}
    for (l, (r, m)), coeff in coaction(bsp, word, mgen).items():
        for (rw, m2), q in module_morphism_apply(mm, {(r, m): ONE}).items():
            key = (l, (rw, m2))
            s = rhs.get(key, 0) + coeff * q
            if s:
                rhs[key] = s
            else:
                rhs.pop(key, None)
    assert lhs == rhs


# -- validation ---------------------------------------------------------------------

def test_module_requires_matching_orders():
    base = fix_b()
    mspace = GradedSpace([("m", 0, 0)], 2)
    with pytest.raises(InputError):
        LInftyModule(base, mspace, {})


def test_module_component_degree_and_weight_validation():
    base = fix_b()
    mspace = GradedSpace([("m", 0, 1), ("n", 1, 2)], 3)
    with pytest.raises(InputError):
        LInftyModule(base, mspace, {0: {((), "m"): {"m": ONE}}})  # degree 0, wants 1
    with pytest.raises(InputError):
        # value at level 1 on input weight 1 is fine, but here input is
        # (x) tensor n at weight 3, beyond truncation
        LInftyModule(base, mspace, {1: {(("x",), "n"): {"n": ONE}}})


# -- dg module constructor -------------------------------------------------------------

def test_from_dg_module_signs_and_adjoint():
    base = fix_b()
    adjoint = from_dg_module(
        base,
        [("mx", 1, 1), ("mc", 2, 2)],
        differential={},
        action={("x", "mx"): {"mc": Fraction(2)}})
    # phi_1(x tensor mx) = -(-1)^1 [x, mx] = +2 mc
    assert adjoint.component(1, ("x",), "mx") == {"mc": Fraction(2)}
    assert check_module_square_zero(adjoint)


def test_from_dg_module_differential_sign():
    base = LInftyStructure(GradedSpace([("e", 0, 1)], 2), {})
    module = from_dg_module(base, [("m", 0, 0), ("n", 1, 0)],
                            differential={"m": {"n": ONE}}, action={})
    assert module.component(0, (), "m") == {"n": Fraction(-1)}
    assert check_module_square_zero(module)


def test_from_dg_module_action_sign_of_an_even_generator():
    """The -1 side of the action sign: the standard representation
    e_ij v_j = v_i of the 3 x 3 units in unshifted degree 0, each unit of
    even unshifted degree, so each phi_1 is -rho.  It is a module; with
    rho(e13) negated it is not, and the witness names e12 e23 on v3."""
    base, _ = matrix_structure(3, [0, 0, 0])
    generators = [("v1", 0, 2), ("v2", 0, 1), ("v3", 0, 0)]
    action = {("e12", "v2"): {"v1": ONE}, ("e23", "v3"): {"v2": ONE},
              ("e13", "v3"): {"v1": ONE}}
    module = from_dg_module(base, generators, {}, action)
    assert module.component(1, ("e13",), "v3") == {"v1": -1}
    assert check_module_square_zero(module)
    negated = from_dg_module(base, generators, {},
                             {**action, ("e13", "v3"): {"v1": -1}})
    with pytest.raises(MathCheckError, match=re.escape(
            "module operator does not square to zero: residual "
            "{((), 'v1'): Fraction(-2, 1)} on ('e12', 'e23') tensor v3")):
        check_module_square_zero(negated)


def test_dg_module_square_condition_is_curved():
    """Over a curved base, b^2 must equal -rho(R); a flat-minded module fails."""
    base = fix_b()
    bad = from_dg_module(
        base, [("m", 0, 0), ("p", 2, 2)],
        differential={},
        action={("c", "m"): {"p": ONE}})
    with pytest.raises(MathCheckError, match="square to zero"):
        check_module_square_zero(bad)


# -- module from a morphism -------------------------------------------------------------

def test_module_from_identity_morphism():
    base = fix_b()
    module = module_from_morphism(identity_morphism(base))
    assert module.component(1, ("x",), "x") == {"c": Fraction(2)}
    assert module.component(0, (), "x") == {}
    assert check_module_square_zero(module)


def test_module_from_collapse_morphism():
    base = fix_b()
    target = LInftyStructure(GradedSpace([("x", 0, 1)], 3), {})
    f = strict_morphism(base, target, {"x": {"x": ONE}, "c": {}})
    module = module_from_morphism(f)
    assert check_module_square_zero(module)


def test_module_from_nonstrict_morphism():
    _, _, phi = nested_pair()
    module = module_from_morphism(phi)
    assert check_module_square_zero(module)


# -- module morphisms --------------------------------------------------------------------

def test_identity_module_morphism_checks_and_composes():
    base = fix_b()
    module = module_from_morphism(identity_morphism(base))
    ident = identity_module_morphism(module)
    assert check_module_morphism(ident)
    assert compose_module_morphisms(ident, ident) == ident


def test_module_morphism_apply_unit_slot_recovers_components():
    base = fix_b()
    module = module_from_morphism(identity_morphism(base))
    ident = identity_module_morphism(module)
    got = module_morphism_apply(ident, {(("x",), "x"): ONE})
    assert got == {(("x",), "x"): ONE}


def test_triangle_produces_a_module_morphism():
    base, transported, phi = nested_pair()
    back = invert(phi)
    assert check_morphism(back)
    mm = triangle(back, phi)
    # strict slot: F_0(1 tensor m) is the arity-1 part of the outer map
    for m in transported.space.basis:
        assert mm.component(0, (), m) == {m: ONE}
    assert check_module_morphism(mm)


def test_triangle_rejects_endpoints_that_are_not_its_modules():
    base = fix_b()
    inner = identity_morphism(base)
    small = LInftyStructure(GradedSpace([("x", 0, 1)], 3), {})
    outer = strict_morphism(base, small, {"x": {"x": ONE}, "c": {}})
    source = module_from_morphism(inner)
    target = module_from_morphism(outer)
    assert check_module_morphism(
        module_morphism_from_triangle(outer, inner, source, target))
    with pytest.raises(InputError, match="not the modules of its maps"):
        module_morphism_from_triangle(outer, inner, target, source)
    # right spaces, wrong base: the module of the identity of another structure
    foreign = module_from_morphism(identity_morphism(
        LInftyStructure(base.space, {})))
    with pytest.raises(InputError, match="not the modules of its maps"):
        module_morphism_from_triangle(outer, inner, foreign, target)


def test_nonadapted_style_module_morphism_over_curved_base():
    """Zero modules with a filtration-shifted connecting map, over curvature."""
    base = fix_b()
    m0 = LInftyModule(base, GradedSpace([("u", 0, 1)], 3), {})
    m1 = LInftyModule(base, GradedSpace([("v", 0, 2)], 3), {})
    assert check_module_square_zero(m0)
    assert check_module_square_zero(m1)
    mm = ModuleMorphism(m0, m1, {
        0: {((), "u"): {"v": ONE}},
        1: {(("x",), "u"): {"v": Fraction(-1)}},
    })
    assert check_module_morphism(mm)


# -- twisting modules --------------------------------------------------------------------

def test_twist_module_wires_twisted_base():
    base = fix_b()
    adjoint = from_dg_module(
        base, [("mx", 1, 1), ("mc", 2, 2)],
        differential={}, action={("x", "mx"): {"mc": Fraction(2)}})
    twisted = twist_module(adjoint, {"x": ONE})
    assert twisted.base == twist_structure(base, {"x": ONE})
    assert check_module_square_zero(twisted)
    # phi^pi_0(mx) = phi_0(mx) + phi_1(x tensor mx) = 2 mc
    assert twisted.component(0, (), "mx") == {"mc": Fraction(2)}


def test_module_twist_consistency_identity_and_collapse():
    base = fix_b()
    assert check_module_twist_consistency(identity_morphism(base), {"x": ONE})
    target = LInftyStructure(GradedSpace([("x", 0, 1)], 3), {})
    f = strict_morphism(base, target, {"x": {"x": ONE}, "c": {}})
    assert check_module_twist_consistency(f, {"x": ONE})


def test_module_twist_consistency_nonstrict():
    _, _, phi = nested_pair()
    assert check_module_twist_consistency(phi, {"u": ONE})
    assert check_module_twist_consistency(phi, {"u": Fraction(2), "v": Fraction(-1)})


def test_triangle_twist_consistency():
    """Twisting the triangle map = the triangle of the twisted morphisms."""
    base, transported, phi = nested_pair()
    back = invert(phi)
    pi = {"u": ONE}
    direct = twist_module_morphism(triangle(back, phi), pi)
    rebuilt = triangle(
        twist_morphism(back, push_mc(phi, pi)), twist_morphism(phi, pi))
    assert direct == rebuilt


def test_twisted_module_morphism_still_checks():
    base, transported, phi = nested_pair()
    back = invert(phi)
    mm = triangle(back, phi)
    twisted = twist_module_morphism(mm, {"u": ONE})
    assert check_module_morphism(twisted)


# -- library boundary and table identity --------------------------------------------

@pytest.mark.parametrize("part", ["differential", "action"])
def test_dg_module_constructor_rejects_floats(part):
    base = fix_b()
    data = {"differential": {}, "action": {}}
    data[part] = {"differential": {"m": {"p": 0.5}},
                  "action": {("x", "m"): {"p": 0.5}}}[part]
    with pytest.raises(InputError, match="exact scalars required"):
        from_dg_module(base, [("m", 0, 0), ("p", 2, 2)], **data)


def test_dg_module_sign_stays_exact_at_negative_degrees():
    base = from_curved_lie([("y", -1, 1), ("w", 1, 1), ("u", 0, 2)], 3,
                           curvature={}, differential={},
                           bracket={("y", "w"): {"u": ONE}})
    module = from_dg_module(base, [("m", 0, 1), ("p", -1, 2)], {},
                            {("y", "m"): {"p": ONE}})
    assert module.components == {1: {(("y",), "m"): {"p": ONE}}}


def test_module_component_values_must_be_exact():
    base = fix_b()
    mspace = GradedSpace([("m", 0, 0), ("p", 1, 0)], 3)
    with pytest.raises(InputError, match="exact scalars required"):
        LInftyModule(base, mspace, {0: {((), "m"): {"p": 0.5}}})


def test_module_tables_are_unhashable():
    base = fix_b()
    module = from_dg_module(base, [("m", 0, 0), ("n", 1, 0)],
                            differential={"m": {"n": ONE}}, action={})
    for table in (module, identity_module_morphism(module)):
        with pytest.raises(TypeError, match="unhashable type"):
            hash(table)
        assert table == table
