"""Twisting calculus tests.

The curved Lie cross-check is the main oracle: twisting the structure built
from (R, d, bracket) must equal the structure built from the twisted data
(R + d pi - [pi,pi]/2, d - [pi, .], bracket), with the bracket recomputed
independently here by bilinear expansion.  That identity holds for arbitrary
tables, so it runs under hypothesis with random data.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from linfty.graded import GradedSpace, InputError, MathCheckError, ONE, el_add, el_scale
from linfty.homology import Matrix
from linfty.structures import (
    LInftyMorphism,
    LInftyStructure,
    chain_complex,
    check_morphism,
    check_square_zero,
    compose,
    conjugate,
    from_curved_lie,
    identity_morphism,
    morphism_apply,
    strict_morphism,
)
from linfty.twisting import (
    check_morphism_twist_identities,
    check_pushforward_functoriality,
    check_structure_twist_identities,
    exp_element,
    maurer_cartan_series,
    mc_check,
    mc_preservation,
    push_mc,
    twist_morphism,
    twist_structure,
    validate_twist_datum,
)


def fix_b():
    return from_curved_lie(
        [("x", 1, 1), ("c", 2, 2)], 3,
        curvature={"c": ONE}, differential={},
        bracket={("x", "x"): {"c": Fraction(2)}})


def nested_pair():
    """A valid non-strict isomorphism between flat structures."""
    sp = GradedSpace([("u", 0, 1), ("v", 0, 2), ("z", 1, 2)], 4)
    base = LInftyStructure(sp, {1: {("v",): {"z": ONE}}})
    transported, phi = conjugate(base, {
        1: {(g,): {g: ONE} for g in sp.basis},
        2: {("u", "u"): {"v": ONE}}})
    return base, transported, phi


# -- independent curved Lie oracle ------------------------------------------------

def bracket_apply(degrees, table, el1, el2):
    """Bilinear bracket extended by antisymmetry in unshifted degrees."""
    full = dict(table)
    for (g, h), val in list(table.items()):
        flip = -(-1) ** (degrees[g] * degrees[h])
        full.setdefault((h, g), {k: flip * q for k, q in val.items()})
    out = {}
    for g, a in el1.items():
        for h, b in el2.items():
            for k, q in full.get((g, h), {}).items():
                s = out.get(k, 0) + a * b * q
                if s:
                    out[k] = s
                else:
                    out.pop(k, None)
    return out


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_twist_matches_curved_lie_twist(data):
    """twist(build(R, d, [.,.])) = build(R^pi, d^pi, [.,.]) for random data."""
    gens = [("x", 1, 1), ("y", 1, 1), ("c", 2, 2)]
    degrees = {"x": 1, "y": 1, "c": 2}
    coeff = lambda: Fraction(data.draw(st.integers(-3, 3)))
    bracket = {("x", "x"): {"c": 2 * coeff()}, ("x", "y"): {"c": coeff()},
               ("y", "y"): {"c": 2 * coeff()}}
    bracket = {k: {g: q for g, q in v.items() if q} for k, v in bracket.items()}
    differential = {"x": {"c": coeff()}, "y": {"c": coeff()}}
    differential = {k: {g: q for g, q in v.items() if q} for k, v in differential.items()}
    curvature = {g: q for g, q in {"c": coeff()}.items() if q}
    pi = {g: q for g, q in {"x": coeff(), "y": coeff()}.items() if q}

    s = from_curved_lie(gens, 3, curvature, differential, bracket)
    twisted = twist_structure(s, pi)

    d_pi = {}
    for g, q in pi.items():
        d_pi = el_add(d_pi, el_scale(differential.get(g, {}), q))
    half_sq = el_scale(bracket_apply(degrees, bracket, pi, pi), Fraction(1, 2))
    new_curvature = el_add(el_add(curvature, d_pi), el_scale(half_sq, -1))
    new_differential = {}
    for g in ("x", "y", "c"):
        base = differential.get(g, {})
        corr = bracket_apply(degrees, bracket, pi, {g: ONE})
        val = el_add(base, el_scale(corr, -1))
        if val:
            new_differential[g] = val
    rebuilt = from_curved_lie(gens, 3, new_curvature, new_differential, bracket)
    assert twisted == rebuilt


# -- twist data validation ---------------------------------------------------------

def test_twist_datum_validation():
    s = fix_b()
    with pytest.raises(InputError):
        validate_twist_datum(s.space, {"c": ONE})  # degree 1, not 0
    sp0 = GradedSpace([("a", 0, 0)], 1)
    with pytest.raises(InputError):
        validate_twist_datum(sp0, {"a": ONE})  # weight 0
    assert validate_twist_datum(s.space, {}) == {}
    assert validate_twist_datum(s.space, {"x": Fraction(0)}) == {}


# -- frozen calibration values -----------------------------------------------------

def test_exp_element_frozen():
    s = fix_b()
    assert exp_element(s.space, {"x": ONE}) == {
        (): ONE, ("x",): ONE, ("x", "x"): Fraction(1, 2)}


def test_mc_series_frozen():
    s = fix_b()
    # -c + [x,x]/2 = -c + c = 0
    assert maurer_cartan_series(s, {"x": ONE}) == {}
    assert maurer_cartan_series(s, {}) == {"c": Fraction(-1)}
    # -c + 4c/2(2) = 3c for pi = 2x
    assert maurer_cartan_series(s, {"x": Fraction(2)}) == {"c": Fraction(3)}


def test_mc_check_routes_agree():
    s = fix_b()
    # the series is quadratic in pi here, so -x is Maurer-Cartan too
    for pi, expected in [({"x": ONE}, True), ({"x": Fraction(-1)}, True),
                         ({}, False), ({"x": Fraction(2)}, False)]:
        assert mc_check(s, pi, route="both") is expected
        assert mc_check(s, pi, route="series") is expected
        assert mc_check(s, pi, route="full") is expected
    with pytest.raises(InputError):
        mc_check(s, {}, route="sideways")


def test_mc_iff_twisted_curvature_vanishes():
    s = fix_b()
    for q in range(-2, 3):
        pi = {"x": Fraction(q)} if q else {}
        assert mc_check(s, pi) == (not twist_structure(s, pi).curvature())


def test_twisted_structure_frozen_components():
    s = fix_b()
    t = twist_structure(s, {"x": ONE})
    assert t.curvature() == {}
    assert t.component(1, ("x",)) == {"c": Fraction(2)}
    assert t.component(1, ("c",)) == {}
    assert t.component(2, ("x", "x")) == {"c": Fraction(2)}
    assert check_square_zero(t)
    # the twist killed the curvature, so a complex exists and is acyclic
    assert chain_complex(t).betti() == {0: 0, 1: 0}


def test_twist_by_zero_is_identity():
    s = fix_b()
    assert twist_structure(s, {}) == s


def test_untwist_restores_structure():
    s = fix_b()
    pi = {"x": Fraction(3, 2)}
    assert twist_structure(twist_structure(s, pi), el_scale(pi, -1)) == s


# -- iterated twist identities -------------------------------------------------------

def test_structure_twist_identities_on_calibration():
    s = fix_b()
    assert check_structure_twist_identities(s, {"x": ONE}, {"x": Fraction(-2)})


def test_structure_twist_identities_two_directions():
    base, transported, _ = nested_pair()
    assert check_structure_twist_identities(base, {"u": ONE}, {"v": Fraction(2)})
    assert check_structure_twist_identities(
        transported, {"u": Fraction(-1)}, {"v": Fraction(1, 2)})


def test_morphism_twist_identities_nonstrict():
    _, _, phi = nested_pair()
    assert check_morphism_twist_identities(phi, {"u": ONE}, {"v": Fraction(-3)})
    assert check_morphism_twist_identities(phi, {"u": Fraction(2)}, {"u": ONE})


def test_pushforward_functoriality():
    base, transported, phi = nested_pair()
    back = strict_morphism(transported, base,
                           {g: {g: ONE} for g in base.space.basis})
    # phi then back is a morphism base -> base
    assert check_pushforward_functoriality(back, phi, {"u": ONE})
    assert check_pushforward_functoriality(phi, identity_morphism(base), {"v": ONE})


# -- pushforwards and morphism twisting ----------------------------------------------

def test_push_mc_frozen_nonstrict():
    _, _, phi = nested_pair()
    got = push_mc(phi, {"u": ONE})
    assert got == {"u": ONE, "v": Fraction(1, 2)}


def test_morphism_sends_exp_to_exp():
    base, _, phi = nested_pair()
    for pi in ({"u": ONE}, {"u": Fraction(2), "v": Fraction(-1)}, {}):
        lhs = morphism_apply(phi, exp_element(base.space, pi))
        rhs = exp_element(phi.target.space, push_mc(phi, pi))
        assert lhs == rhs


def test_twisted_morphism_is_a_morphism_of_twisted_structures():
    base, transported, phi = nested_pair()
    assert check_morphism(phi)
    twisted = twist_morphism(phi, {"u": ONE})
    assert twisted.source == twist_structure(base, {"u": ONE})
    assert twisted.target == twist_structure(transported, push_mc(phi, {"u": ONE}))
    assert check_morphism(twisted)


def test_mc_preservation_happy_and_precondition():
    base, transported, phi = nested_pair()
    pi_f = mc_preservation(phi, {"u": ONE})
    assert mc_check(transported, pi_f)
    with pytest.raises(MathCheckError, match="not Maurer-Cartan for the source"):
        mc_preservation(phi, {"v": ONE})  # Q_1(v) = z is nonzero


def test_mc_preservation_on_calibration_collapse():
    s = fix_b()
    target = LInftyStructure(GradedSpace([("x", 0, 1)], 3), {})
    f = strict_morphism(s, target, {"x": {"x": ONE}, "c": {}})
    assert check_morphism(f)
    assert mc_preservation(f, {"x": ONE}) == {"x": ONE}


@settings(max_examples=25, deadline=None)
@given(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3))
def test_twist_identities_random_data(a, b, c, d):
    base, _, phi = nested_pair()
    pi = {g: Fraction(q) for g, q in (("u", a), ("v", b)) if q}
    second = {g: Fraction(q) for g, q in (("u", c), ("v", d)) if q}
    assert check_structure_twist_identities(base, pi, second)
    assert check_morphism_twist_identities(phi, pi, second)


@pytest.mark.parametrize("scalar", [0.5, 1.0, True])
def test_twist_datum_must_be_exact(scalar):
    s = from_curved_lie([("x", 1, 1), ("c", 2, 2)], 3, curvature={"c": ONE},
                        differential={}, bracket={("x", "x"): {"c": Fraction(2)}})
    with pytest.raises(InputError, match="exact scalars required"):
        validate_twist_datum(s.space, {"x": scalar})
    with pytest.raises(InputError, match="exact scalars required"):
        twist_structure(s, {"x": scalar})
