"""Coderivation, curved Lie constructor and morphism calculus tests.

The strongest checks here are coproduct compatibility properties: the
coderivation and morphism formulas must satisfy Delta Q = (Q x 1 + 1 x Q)
Delta and Delta F = (F x F) Delta for arbitrary component tables, with the
coproduct recomputed independently in this file.  Truncation is not a
coalgebra quotient, so these run on spaces where no word is ever truncated.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from linfty.graded import GradedSpace, InputError, MathCheckError, ONE, koszul_sign, shuffles
from linfty.structures import (
    LInftyMorphism,
    LInftyStructure,
    chain_complex,
    check_morphism,
    check_square_zero,
    coderivation_apply,
    compose,
    conjugate,
    default_cap,
    from_curved_lie,
    identity_morphism,
    invert,
    is_quasi_iso,
    morphism_apply,
    strict_morphism,
)
from linfty.fixtures import morphism_t


# -- oracles -------------------------------------------------------------------

def coproduct(space, word):
    """Independent shuffle coproduct, as dict (left word, right word) -> coeff."""
    out = {}
    degrees = [space.degree(g) for g in word]
    n = len(word)
    for k in range(n + 1):
        for sigma in shuffles(k, n - k):
            eps = koszul_sign(sigma, degrees)
            left = space.normalize_word([word[sigma[i]] for i in range(k)])
            right = space.normalize_word([word[sigma[i]] for i in range(k, n)])
            if left is None or right is None:
                continue
            key = (left[0], right[0])
            out[key] = out.get(key, 0) + eps * left[1] * right[1]
    return {k: v for k, v in out.items() if v}


def coproduct_of(space, coelt):
    out = {}
    for word, coeff in coelt.items():
        for key, v in coproduct(space, word).items():
            s = out.get(key, 0) + coeff * v
            if s:
                out[key] = s
            else:
                out.pop(key, None)
    return out


def tensor_apply_left(space, op, pairs):
    """(op x 1) on a dict of word pairs; op maps coalg elt -> coalg elt."""
    out = {}
    for (l, r), coeff in pairs.items():
        for lw, q in op({l: ONE}).items():
            key = (lw, r)
            s = out.get(key, 0) + coeff * q
            if s:
                out[key] = s
            else:
                out.pop(key, None)
    return out


def tensor_apply_right(space, op, pairs, op_degree):
    """(1 x op) with the Koszul sign passing op over the left factor."""
    out = {}
    for (l, r), coeff in pairs.items():
        sign = -1 if (space.word_degree(l) * op_degree) % 2 else 1
        for rw, q in op({r: ONE}).items():
            key = (l, rw)
            s = out.get(key, 0) + coeff * q * sign
            if s:
                out[key] = s
            else:
                out.pop(key, None)
    return out


def untruncated_space():
    # every generator at filtration 0 with order 1: nothing is ever truncated
    return GradedSpace([("a", 0, 0), ("b", 1, 0), ("c2", 2, 0)], 1)


def draw_element(data, space, degree):
    el = {}
    for g in space.basis:
        if space.degree(g) == degree:
            q = data.draw(st.integers(-3, 3))
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


def draw_morphism(data, src_structure, tgt_structure, max_arity=2):
    space = src_structure.space
    comps = {}
    for k in range(1, max_arity + 1):
        table = {}
        for word in space.enumerate_words(k, min_arity=k):
            value = draw_element(data, tgt_structure.space, space.word_degree(word))
            if value:
                table[word] = value
        if table:
            comps[k] = table
    return LInftyMorphism(src_structure, tgt_structure, comps)


# -- fixtures used repeatedly ----------------------------------------------------

def fix_a():
    """Two-generator acyclic dg space: d(a) = b in shifted degrees 0, 1."""
    space = GradedSpace([("a", 0, 1), ("b", 1, 1)], 3)
    return LInftyStructure(space, {1: {("a",): {"b": ONE}}})


def fix_b():
    """Curved Lie calibration: [x,x] = 2c, curvature c, zero differential."""
    return from_curved_lie(
        [("x", 1, 1), ("c", 2, 2)], 3,
        curvature={"c": ONE},
        differential={},
        bracket={("x", "x"): {"c": Fraction(2)}})


# -- structure construction and validation --------------------------------------

def test_structure_normalizes_keys_and_folds_signs():
    sp = GradedSpace([("p", 1, 0), ("q", 1, 0), ("r", 3, 0)], 1)
    s1 = LInftyStructure(sp, {2: {("p", "q"): {"r": ONE}}})
    s2 = LInftyStructure(sp, {2: {("q", "p"): {"r": Fraction(-1)}}})
    assert s1 == s2
    assert s1.value(("q", "p")) == {"r": Fraction(-1)}


def test_structure_rejects_bad_degree_and_weight():
    sp = GradedSpace([("x", 0, 1), ("c", 1, 2)], 3)
    with pytest.raises(InputError):
        LInftyStructure(sp, {1: {("x",): {"x": ONE}}})  # degree 0, needs 1
    with pytest.raises(InputError):
        # value at filtration 1 on a word of weight 2
        LInftyStructure(sp, {2: {("x", "x"): {"x": ONE}}})
    with pytest.raises(InputError):
        # (x, c) has weight 3 = N, so any value is inconsistent
        LInftyStructure(sp, {2: {("x", "c"): {"c": ONE}}})


def test_structure_rejects_value_on_zero_word():
    sp = GradedSpace([("p", 1, 0)], 1)
    with pytest.raises(InputError):
        LInftyStructure(sp, {2: {("p", "p"): {"p": ONE}}})


# -- coderivation --------------------------------------------------------------

def test_coderivation_frozen_two_letter_word():
    s = fix_a()
    got = coderivation_apply(s, {("a", "a"): ONE})
    assert got == {("a", "b"): Fraction(2)}
    assert coderivation_apply(s, got) == {}


def test_coderivation_curvature_enters_every_word():
    s = fix_b()
    # on the unit word only Q_0 contributes
    assert coderivation_apply(s, {(): ONE}) == {("c",): Fraction(-1)}
    # on (x): Q_0(1) v x is killed by weight truncation, Q_1 = 0
    assert coderivation_apply(s, {("x",): ONE}) == {}
    assert coderivation_apply(s, {("x", "x"): ONE}) == {("c",): Fraction(2)}


def test_square_zero_accepts_calibration_structures():
    assert check_square_zero(fix_a())
    assert check_square_zero(fix_b())


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_coderivation_is_a_coderivation(data):
    """Delta Q = (Q x 1 + 1 x Q) Delta for arbitrary component tables."""
    sp = untruncated_space()
    s = draw_structure(data, sp)
    word = tuple(data.draw(st.lists(st.sampled_from(sp.basis), max_size=3)))
    norm = sp.normalize_word(list(word))
    if norm is None:
        return
    word = norm[0]
    op = lambda coelt: coderivation_apply(s, coelt)
    lhs = coproduct_of(sp, op({word: ONE}))
    pairs = coproduct(sp, word)
    rhs = tensor_apply_left(sp, op, pairs)
    for key, v in tensor_apply_right(sp, op, pairs, op_degree=1).items():
        s2 = rhs.get(key, 0) + v
        if s2:
            rhs[key] = s2
        else:
            rhs.pop(key, None)
    assert lhs == rhs


# -- curved Lie constructor ------------------------------------------------------

def test_from_curved_lie_frozen_components():
    s = fix_b()
    assert s.curvature() == {"c": Fraction(-1)}
    assert s.component(1, ("x",)) == {}
    assert s.component(2, ("x", "x")) == {"c": Fraction(2)}
    assert not s.is_flat()


def test_from_curved_lie_differential_sign():
    s = from_curved_lie([("a", 0, 1), ("b", 1, 1)], 3,
                        curvature={}, differential={"a": {"b": ONE}}, bracket={})
    assert s.component(1, ("a",)) == {"b": Fraction(-1)}
    assert check_square_zero(s)


def test_from_curved_lie_validates_inputs():
    with pytest.raises(InputError):
        from_curved_lie([("x", 1, 1)], 2, curvature={"x": ONE},
                        differential={}, bracket={})
    with pytest.raises(InputError):
        # antisymmetry for odd-degree generators: [x,y] = [y,x]
        from_curved_lie([("x", 1, 0), ("y", 1, 0), ("z", 2, 1)], 2,
                        curvature={}, differential={},
                        bracket={("x", "y"): {"z": ONE}, ("y", "x"): {"z": Fraction(-1)}})
    with pytest.raises(InputError):
        # [g,g] = 0 is forced in even degree
        from_curved_lie([("g", 2, 0), ("h", 4, 1)], 2,
                        curvature={}, differential={},
                        bracket={("g", "g"): {"h": ONE}})


def test_jacobi_violation_is_caught_with_residual():
    s = from_curved_lie(
        [("e1", 0, 0), ("e2", 0, 0), ("e3", 0, 0)], 1,
        curvature={}, differential={},
        bracket={("e1", "e2"): {"e2": ONE}, ("e2", "e3"): {"e3": ONE}})
    once = coderivation_apply(s, {("e1", "e2", "e3"): ONE})
    assert coderivation_apply(s, once) == {("e3",): ONE}
    with pytest.raises(MathCheckError, match="square to zero"):
        check_square_zero(s, max_arity=3)
    # at arity 2 the defect is invisible
    check_square_zero(s, max_arity=2)


# -- morphisms -------------------------------------------------------------------

def abelian(space):
    return LInftyStructure(space, {})


def test_morphism_frozen_two_letter_expansion():
    src = abelian(GradedSpace([("g1", 0, 0), ("g2", 0, 0)], 1))
    tgt = abelian(GradedSpace([("t", 0, 0)], 1))
    f = LInftyMorphism(src, tgt, {
        1: {("g1",): {"t": ONE}, ("g2",): {"t": Fraction(2)}},
        2: {("g1", "g2"): {"t": ONE}},
    })
    got = morphism_apply(f, {("g1", "g2"): ONE})
    assert got == {("t",): ONE, ("t", "t"): Fraction(2)}
    assert morphism_apply(f, {(): ONE}) == {(): ONE}


def test_morphism_endpoint_orders_must_match():
    a = abelian(GradedSpace([("u", 0, 1)], 2))
    b = abelian(GradedSpace([("u", 0, 1)], 3))
    with pytest.raises(InputError):
        strict_morphism(a, b, {"u": {"u": ONE}})


def test_check_morphism_accepts_line_collapse():
    """Collapsing the calibration structure onto its x line is a morphism."""
    qb = fix_b()
    target = abelian(GradedSpace([("x", 0, 1)], 3))
    f = strict_morphism(qb, target, {"x": {"x": ONE}, "c": {}})
    assert check_morphism(f)


def test_check_morphism_rejects_c_line_collapse():
    """The c-line collapse matches the curvature but drops the bracket."""
    qb = fix_b()
    cspace = GradedSpace([("c", 1, 2)], 3)
    ctarget = LInftyStructure(cspace, {0: {(): {"c": Fraction(-1)}}})
    check_square_zero(ctarget)
    f = strict_morphism(qb, ctarget, {"x": {}, "c": {"c": ONE}})
    with pytest.raises(MathCheckError, match="intertwine"):
        check_morphism(f)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_morphism_apply_is_a_coalgebra_morphism(data):
    """Delta F = (F x F) Delta for arbitrary component tables."""
    sp = untruncated_space()
    src = draw_structure(data, sp)
    tgt = draw_structure(data, sp)
    f = draw_morphism(data, src, tgt, max_arity=3)
    word = tuple(data.draw(st.lists(st.sampled_from(sp.basis), max_size=3)))
    norm = sp.normalize_word(list(word))
    if norm is None:
        return
    word = norm[0]
    lhs = coproduct_of(sp, morphism_apply(f, {word: ONE}))
    pairs = coproduct(sp, word)
    once = tensor_apply_left(sp, lambda ce: morphism_apply(f, ce), pairs)
    rhs = tensor_apply_right(sp, lambda ce: morphism_apply(f, ce), once, op_degree=0)
    assert lhs == rhs


# -- composition, inversion, conjugation -----------------------------------------

def nested_space():
    # u carries weight 1, v weight 2 so (u,u) -> v is a legal arity-2 value
    return GradedSpace([("u", 0, 1), ("v", 0, 2), ("z", 1, 2)], 4)


def test_compose_with_identity_and_strictness():
    s = fix_a()
    ident = identity_morphism(s)
    assert compose(ident, ident) == ident
    assert ident.is_strict()


def quintic_failure():
    """Q_3(a,a,a) = b and Q_3(a,a,b) = c at order 7: Q o Q first fails on a^5."""
    space = GradedSpace([("a", 0, 1), ("b", 1, 3), ("c", 2, 5)], 7)
    return LInftyStructure(space, {3: {("a", "a", "a"): {"b": ONE},
                                       ("a", "a", "b"): {"c": ONE}}})


def test_default_cap_is_the_one_cap_rule():
    space = quintic_failure().space
    assert default_cap(space) == 6
    assert default_cap(space, 3, 8) == 8
    assert default_cap(space, 8, max_arity=2) == 2
    assert default_cap(fix_a().space) == 4


@pytest.mark.parametrize("cap", [2.5, "2", True])
def test_checks_and_constructions_reject_a_cap_that_is_not_an_int(cap):
    # a cap is compared with the derived bound before any sweep starts
    t = morphism_t()
    with pytest.raises(InputError, match="max_arity must be an integer"):
        check_square_zero(t.source, max_arity=cap)
    with pytest.raises(InputError, match="max_arity must be an integer"):
        check_morphism(t, max_arity=cap)
    with pytest.raises(InputError, match="max_arity must be an integer"):
        compose(t, identity_morphism(t.source), max_arity=cap)


def test_square_zero_sweeps_to_the_truncation_order_by_default():
    # the verification arity 4 alone would pass this structure
    q = quintic_failure()
    with pytest.raises(MathCheckError) as err:
        check_square_zero(q)
    assert str(err.value).endswith(
        "residual {('c',): Fraction(10, 1)} on word ('a', 'a', 'a', 'a', 'a')")
    assert check_square_zero(q, max_arity=4)


def test_an_explicit_zero_cap_materializes_no_components():
    # max_arity=0 is a cap, not a request for the default
    t = morphism_t()
    assert compose(t, identity_morphism(t.source), max_arity=0).components == {}
    assert invert(t, max_arity=0).components == {}
    transported, _ = conjugate(t.source, t.components, max_arity=0)
    assert set(transported.components) <= {0}


def test_invert_strict_diagonal():
    qb = fix_b()
    qb2 = LInftyStructure(qb.space, {
        0: {(): {"c": Fraction(-2)}},
        2: {("x", "x"): {"c": Fraction(4)}}})
    t = strict_morphism(qb, qb2, {"x": {"x": ONE}, "c": {"c": Fraction(2)}})
    assert check_morphism(t)
    t_inv = invert(t)
    assert t_inv.component(1, ("c",)) == {"c": Fraction(1, 2)}
    assert compose(t_inv, t) == identity_morphism(qb)
    assert compose(t, t_inv) == identity_morphism(qb2)


def test_invert_nonstrict_produces_two_sided_inverse():
    sp = nested_space()
    s = LInftyStructure(sp, {1: {("v",): {"z": ONE}}})
    placeholder = LInftyStructure(sp, {})
    phi = LInftyMorphism(s, placeholder, {
        1: {(g,): {g: ONE} for g in sp.basis},
        2: {("u", "u"): {"v": ONE}}})
    inv = invert(phi)
    assert inv.component(2, ("u", "u")) == {"v": Fraction(-1)}
    left = compose(inv, phi)
    assert left.components == {1: {(g,): {g: ONE} for g in sp.basis}}
    right = compose(phi, inv)
    assert right.components == {1: {(g,): {g: ONE} for g in sp.basis}}


def test_invert_bounds_its_neumann_series(monkeypatch):
    # an apply that doubles its input lowers no arity, so the series never
    # ends on its own; invert must stop after the word's arity and raise
    sp = nested_space()
    phi = LInftyMorphism(LInftyStructure(sp, {}), LInftyStructure(sp, {}), {
        1: {(g,): {g: ONE} for g in sp.basis},
        2: {("u", "u"): {"v": ONE}}})
    monkeypatch.setattr("linfty.structures.morphism_apply",
                        lambda morphism, coelt: {w: 2 * q for w, q in coelt.items()})
    with pytest.raises(MathCheckError,
                       match=r"Neumann series .* does not end on word \('u',\)"):
        invert(phi)


def test_invert_rejects_degenerate_strict_part():
    qb = fix_b()
    target = abelian(GradedSpace([("x", 0, 1)], 3))
    f = strict_morphism(qb, target, {"x": {"x": ONE}, "c": {}})
    with pytest.raises(MathCheckError, match="not invertible"):
        invert(f)


def test_conjugate_transports_structure():
    sp = nested_space()
    s = LInftyStructure(sp, {1: {("v",): {"z": ONE}}})
    transported, phi = conjugate(s, {
        1: {(g,): {g: ONE} for g in sp.basis},
        2: {("u", "u"): {"v": ONE}}})
    assert transported.component(1, ("v",)) == {"z": ONE}
    assert transported.component(2, ("u", "u")) == {"z": Fraction(-1)}
    assert check_square_zero(transported)
    assert check_morphism(phi)
    # conjugating by the identity is a no-op
    same, _ = conjugate(s, {1: {(g,): {g: ONE} for g in sp.basis}})
    assert same == s


# -- underlying complexes and quasi-isomorphisms -----------------------------------

def test_chain_complex_requires_flatness():
    with pytest.raises(MathCheckError, match="curvature"):
        chain_complex(fix_b())


def test_chain_complex_of_acyclic_pair():
    cx = chain_complex(fix_a())
    assert cx.betti() == {0: 0, 1: 0}


def test_quasi_iso_to_empty_and_back():
    s = fix_a()
    empty = abelian(GradedSpace([], 3))
    to_empty = strict_morphism(s, empty, {"a": {}, "b": {}})
    assert check_morphism(to_empty)
    assert is_quasi_iso(to_empty)
    line = abelian(GradedSpace([("x", 0, 1)], 3))
    from_empty = strict_morphism(empty, line, {})
    assert check_morphism(from_empty)
    assert not is_quasi_iso(from_empty)


def test_quasi_iso_identity():
    s = fix_a()
    assert is_quasi_iso(identity_morphism(s))


# -- library boundary and table identity ----------------------------------------

@pytest.mark.parametrize("scalar", [0.25, 0.0, True])
def test_component_values_must_be_exact(scalar):
    sp = GradedSpace([("x", 0, 1), ("c", 1, 2)], 3)
    with pytest.raises(InputError, match="exact scalars required"):
        LInftyStructure(sp, {1: {("x",): {"c": scalar}}})


@pytest.mark.parametrize("part", ["curvature", "differential", "bracket"])
def test_curved_lie_constructor_rejects_floats(part):
    data = {
        "curvature": {"c": ONE},
        "differential": {},
        "bracket": {("x", "x"): {"c": Fraction(2)}},
    }
    data[part] = {"curvature": {"c": 0.5},
                  "differential": {"x": {"c": 0.5}},
                  "bracket": {("x", "x"): {"c": 0.5}}}[part]
    with pytest.raises(InputError, match="exact scalars required"):
        from_curved_lie([("x", 1, 1), ("c", 2, 2)], 3, **data)


def test_curved_lie_signs_stay_exact_at_negative_degrees():
    # the antisymmetry and shift signs are parities, never negative powers
    s = from_curved_lie([("y", -1, 1), ("w", 1, 1), ("u", 0, 2)], 3,
                        curvature={}, differential={},
                        bracket={("y", "w"): {"u": ONE}})
    assert s.components == {2: {("y", "w"): {"u": ONE}}}


def test_component_tables_are_unhashable():
    s = from_curved_lie([("x", 1, 1), ("c", 2, 2)], 3, curvature={"c": ONE},
                        differential={}, bracket={})
    for table in (s, identity_morphism(s)):
        with pytest.raises(TypeError, match="unhashable type"):
            hash(table)
        assert table == table
