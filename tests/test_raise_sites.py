"""Fault injection: the checks that compare two routes can fire.

The exact-rows route of prop_key_pipeline, the Maurer-Cartan route
agreement, mc_preservation's target clause, the iterated-twist and
pushforward identities, the module-twist consistency, the slotwise clauses
of assemble_and_twist and the Betti audit of ChainComplex each compare two
independent computations, which agree on correct code, so no valid input
can make them raise.  Each test breaks exactly one side of one comparison
with monkeypatch and asserts the documented error text: a check whose two
sides shared a code path would pass here, and the test would fail.  Where
the broken function also feeds the other side (push_mc inside
twist_morphism), only the check's own call is broken.
"""

import re
import sys

import pytest

from linfty import homology, modules, products, resolutions, twisting
from linfty.fixtures import fix_b, fix_b2
from linfty.graded import MathCheckError, ONE, el_scale
from linfty.homology import ChainComplex, Matrix
from linfty.instances import random_instance, random_ladder
from linfty.modules import check_module_twist_consistency
from linfty.products import ProductStructure, assemble_and_twist
from linfty.resolutions import prop_key_pipeline
from linfty.modules import LInftyModule
from linfty.structures import (
    LInftyMorphism, LInftyStructure, invert, strict_morphism)
from linfty.twisting import (
    check_morphism_twist_identities,
    check_pushforward_functoriality,
    check_structure_twist_identities,
    mc_check,
    mc_preservation,
)


@pytest.fixture
def ladder():
    """random_ladder(0) and its datum: the twisted augmented cohomology is
    2x2 at degree 0, so the exact-rows route has entries to break."""
    return random_ladder(0)


def test_a_non_injective_target_augmentation_is_reported(monkeypatch, ladder):
    rank = resolutions.rank
    monkeypatch.setattr(resolutions, "rank", lambda m: rank(m) - 1)
    with pytest.raises(MathCheckError, match=re.escape(
            "twisted target augmentation not injective on cohomology at "
            "degree 0 despite adaptedness")):
        prop_key_pipeline(*ladder)


def test_an_unsolvable_augmentation_square_is_reported(monkeypatch, ladder):
    monkeypatch.setattr(resolutions, "solve_matrix", lambda a, b: None)
    with pytest.raises(MathCheckError, match=re.escape(
            "exact-rows route unsolvable at degree 0: augmentation square "
            "does not close on cohomology")):
        prop_key_pipeline(*ladder)


def test_a_perturbed_exact_rows_solution_disagrees_with_the_direct_route(
        monkeypatch, ladder):
    solve = resolutions.solve_matrix

    def perturbed(a, b):
        x = solve(a, b)
        if not x.nrows or not x.ncols:
            return x
        rows = [list(row) for row in x.rows]
        rows[0][0] += 1
        return Matrix(x.nrows, x.ncols, rows)

    monkeypatch.setattr(resolutions, "solve_matrix", perturbed)
    with pytest.raises(MathCheckError, match=re.escape(
            "exact-rows and direct routes disagree with the expected "
            "conclusion (agree=False, iso=True)")):
        prop_key_pipeline(*ladder)


def test_disagreeing_maurer_cartan_routes_raise_each_time_unkept(monkeypatch):
    structure, pi = fix_b(), {"x": ONE}
    monkeypatch.setattr(twisting, "maurer_cartan_series",
                        lambda structure, pi: {"c": ONE})
    for _ in range(2):
        with pytest.raises(MathCheckError, match=re.escape(
                "Maurer-Cartan routes disagree: "
                "{'series': False, 'full': True}")):
            mc_check(structure, pi)
    monkeypatch.undo()
    assert mc_check(structure, pi) is True


# -- the twist identities and the module-twist consistency ------------------------

def bumped(components):
    """A copy of components with one coefficient changed."""
    comps = {k: {key: dict(v) for key, v in row.items()}
             for k, row in components.items()}
    row = comps[min(comps)]
    value = row[next(iter(row))]
    g = next(iter(value))
    value[g] = value[g] + 1 or 2
    return comps


def broken(module, name, check, when, change):
    """module.name with change applied to its result on the calls that
    check makes itself with arguments satisfying when."""
    func = getattr(module, name)

    def patched(*args):
        result = func(*args)
        if sys._getframe(1).f_code is check.__code__ and when(*args):
            return change(result)
        return result
    return patched


def raises(text):
    return pytest.raises(MathCheckError, match=re.escape(text))


@pytest.fixture
def instance():
    """random_instance(5): a map with an arity-2 part, its datum pi and a
    second datum b = 2 pi."""
    inst = random_instance(5)
    assert not inst["morphism"].is_strict()
    return inst["base"], inst["morphism"], inst["pi"], el_scale(inst["pi"], 2)


def bumped_structure(q):
    return LInftyStructure._made(q.space, bumped(q.components))


@pytest.mark.parametrize("which, text", [
    ("b", "(Q^pi)^b differs from Q^(pi+b)"),
    ("pi", "(Q^b)^pi differs from Q^(pi+b)")])
def test_a_broken_iterated_structure_twist_is_reported(monkeypatch, instance,
                                                       which, text):
    base, _, pi, second = instance
    datum = second if which == "b" else pi
    check = check_structure_twist_identities
    assert check(base, pi, second)
    monkeypatch.setattr(twisting, "twist_structure", broken(
        twisting, "twist_structure", check,
        lambda q, d: q is not base and d == datum, bumped_structure))
    with raises(text):
        check(base, pi, second)


@pytest.mark.parametrize("which, part, text", [
    ("b", "components", "(F^pi)^b differs from F^(pi+b)"),
    ("pi", "components", "(F^b)^pi differs from F^(pi+b)"),
    ("b", "source", "(F^pi)^b has wrong twisted endpoints"),
    ("pi", "source", "(F^b)^pi has wrong twisted endpoints")])
def test_a_broken_iterated_morphism_twist_is_reported(monkeypatch, instance,
                                                      which, part, text):
    _, f, pi, second = instance
    datum = second if which == "b" else pi

    def change(g):
        if part == "components":
            return LInftyMorphism._made(g.source, g.target,
                                        bumped(g.components))
        return LInftyMorphism._made(bumped_structure(g.source), g.target,
                                    g.components)

    check = check_morphism_twist_identities
    assert check(f, pi, second)
    monkeypatch.setattr(twisting, "twist_morphism", broken(
        twisting, "twist_morphism", check,
        lambda g, d: g is not f and d == datum, change))
    with raises(text):
        check(f, pi, second)


@pytest.mark.parametrize("which, text", [
    ("b", "pi_F + b_(F^pi) differs from (pi+b)_F"),
    ("pi", "b_F + pi_(F^b) differs from (pi+b)_F")])
def test_a_broken_pushforward_of_a_twisted_map_is_reported(monkeypatch,
                                                          instance, which,
                                                          text):
    """Only the check's own read of b_(F^pi) or pi_(F^b) is broken; the
    same pushforward inside twist_morphism is left alone."""
    _, f, pi, second = instance
    datum = second if which == "b" else pi
    check = check_morphism_twist_identities
    assert check(f, pi, second)
    monkeypatch.setattr(twisting, "push_mc", broken(
        twisting, "push_mc", check, lambda g, d: g is not f and d == datum,
        lambda value: {**value, "bump": ONE}))
    with raises(text):
        check(f, pi, second)


def test_a_broken_pushforward_along_a_composite_is_reported(monkeypatch,
                                                           instance):
    _, f, pi, _ = instance
    inverse = invert(f)
    check = check_pushforward_functoriality
    assert check(inverse, f, pi)
    monkeypatch.setattr(twisting, "push_mc", broken(
        twisting, "push_mc", check,
        lambda g, d: g is not f and g is not inverse,
        lambda value: {**value, "bump": ONE}))
    with raises("(pi_F)_G differs from pi_(G o F)"):
        check(inverse, f, pi)


def test_a_broken_twist_of_a_composite_is_reported(monkeypatch, instance):
    _, f, pi, _ = instance
    inverse = invert(f)
    check = check_pushforward_functoriality
    assert check(inverse, f, pi)
    monkeypatch.setattr(twisting, "twist_morphism", broken(
        twisting, "twist_morphism", check,
        lambda g, d: g is not f and g is not inverse,
        lambda g: LInftyMorphism._made(g.source, g.target,
                                       bumped(g.components))))
    with raises("(G o F)^pi differs from G^(pi_F) o F^pi"):
        check(inverse, f, pi)


def test_a_pushforward_that_is_not_maurer_cartan_is_reported(monkeypatch,
                                                            instance):
    """2 pi_F is a valid datum that is not Maurer-Cartan for the target."""
    _, f, pi, _ = instance
    assert mc_preservation(f, pi)
    assert not mc_check(f.target, el_scale(twisting.push_mc(f, pi), 2))
    monkeypatch.setattr(twisting, "push_mc", broken(
        twisting, "push_mc", mc_preservation, lambda g, d: True,
        lambda value: el_scale(value, 2)))
    with raises("pushforward of a Maurer-Cartan element fails for the target"):
        mc_preservation(f, pi)


def test_a_broken_twisted_module_is_reported(monkeypatch, instance):
    _, f, pi, _ = instance
    check = check_module_twist_consistency
    assert check(f, pi)
    monkeypatch.setattr(modules, "twist_module", broken(
        modules, "twist_module", check, lambda module, d: True,
        lambda m: LInftyModule._made(m.base, m.space, bumped(m.components))))
    with raises("twisting and the module constructor do not commute on this "
                "input"):
        check(f, pi)


# -- the slotwise clauses of assemble_and_twist and the Betti audit ---------------

@pytest.fixture
def slotwise_scene():
    """Two fix_b slots, the datum x on both, and the doubling map per slot."""
    product = ProductStructure({"1": fix_b(), "2": fix_b()})
    family = {i: strict_morphism(fix_b(), fix_b2(),
                                 {"x": {"x": ONE}, "c": {"c": 2}})
              for i in product.index}
    pis = {i: {"x": ONE} for i in product.index}
    assert assemble_and_twist(product, pis, family)["morphism_slotwise"]
    return product, pis, family


def test_a_joint_maurer_cartan_series_that_is_not_slotwise_is_reported(
        monkeypatch, slotwise_scene):
    product, pis, family = slotwise_scene
    monkeypatch.setattr(products, "maurer_cartan_series", broken(
        products, "maurer_cartan_series", assemble_and_twist,
        lambda q, d: q is product.assembled,
        lambda value: {**value, "1.c": ONE}))
    with raises("Maurer-Cartan series of the joint datum is not slotwise"):
        assemble_and_twist(product, pis, family)


def test_a_broken_twist_of_the_product_is_reported(monkeypatch,
                                                   slotwise_scene):
    product, pis, family = slotwise_scene
    monkeypatch.setattr(products, "twist_structure", broken(
        products, "twist_structure", assemble_and_twist,
        lambda q, d: q is product.assembled, bumped_structure))
    with raises("twist of the product differs from the product of twists"):
        assemble_and_twist(product, pis, family)


def test_a_broken_twist_of_the_slotwise_morphism_is_reported(monkeypatch,
                                                             slotwise_scene):
    product, pis, family = slotwise_scene
    monkeypatch.setattr(products, "twist_morphism", broken(
        products, "twist_morphism", assemble_and_twist,
        lambda g, d: g.source is product.assembled,
        lambda g: LInftyMorphism._made(g.source, g.target,
                                       bumped(g.components))))
    with raises("twist of the slotwise morphism differs from the slotwise "
                "twists"):
        assemble_and_twist(product, pis, family)


def test_a_betti_number_that_disagrees_with_the_representatives_is_reported(
        monkeypatch):
    """Bareiss rank against the RREF representatives: an off-by-one rank in
    the audit's own call, on C^0 -> C^1 an isomorphism of lines."""
    def line_iso():
        return ChainComplex({0: 1, 1: 1}, {0: [[1]]})

    assert line_iso().cohomology(1) == (0, [])
    check = ChainComplex._cohomology_record
    monkeypatch.setattr(homology, "rank", broken(
        homology, "rank", check, lambda m: True, lambda r: r - 1))
    with raises("cohomology audit failed at degree 1: 0 representatives vs "
                "Betti 1"):
        line_iso().cohomology(1)
