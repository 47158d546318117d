"""Product structures, their universal property, and the cover builder."""

from fractions import Fraction

import pytest

from linfty.graded import GradedSpace, InputError, MathCheckError, ONE
from linfty.structures import (
    LInftyStructure,
    check_morphism,
    check_square_zero,
    compose,
    identity_morphism,
    strict_morphism,
)
from linfty.twisting import mc_check, twist_structure
from linfty.products import (
    CoverDescription,
    ProductStructure,
    assemble_and_twist,
    assemble_twist_datum,
    build_cech_complex,
    product_morphism,
    projection,
    slotwise_morphism,
)
from linfty.modules import check_module_morphism
from linfty.resolutions import module_morphism_blocks, twist_resolution
from linfty.homology import ChainComplex, Matrix
from linfty.fixtures import (
    cech_fixb_diagram,
    fix_a,
    fix_b,
    fix_b2,
    fix_c_cover,
    fix_c_diagram,
    morphism_t,
    _constants_chart,
)


def two_lines():
    return ProductStructure({"1": fix_a(), "2": fix_a()})


def test_product_validation():
    with pytest.raises(InputError):
        ProductStructure({})
    with pytest.raises(InputError):
        ProductStructure({"a.b": fix_a()})
    other = LInftyStructure(GradedSpace([("a", 0, 0)], 1), {})
    with pytest.raises(InputError):
        ProductStructure({"1": fix_a(), "2": other})


def test_product_is_block_diagonal():
    p = two_lines()
    assert p.assembled.component(1, ("1.a",)) == {"1.b": ONE}
    assert p.assembled.component(1, ("2.a",)) == {"2.b": ONE}
    assert p.assembled.component(1, ("1.b",)) == {}
    assert check_square_zero(p.assembled)


def test_singleton_product_is_a_renamed_copy():
    p = ProductStructure({"only": fix_b()})
    assert p.assembled.component(0, ()) == {"only.c": Fraction(-1)}
    assert p.assembled.component(2, ("only.x", "only.x")) == {"only.c": Fraction(2)}
    assert check_square_zero(p.assembled)


def test_curvature_is_the_tuple_of_factor_curvatures():
    p = ProductStructure({"flat": fix_a(), "curved": fix_b()})
    assert p.assembled.curvature() == {"curved.c": Fraction(-1)}
    assert check_square_zero(p.assembled)


def test_mixed_words_map_to_zero():
    p = ProductStructure({"1": fix_b(), "2": fix_b()})
    assert p.assembled.component(2, ("1.x", "2.x")) == {}
    assert check_square_zero(p.assembled)


def test_projection_is_a_morphism_and_splits_the_universal_map():
    p = ProductStructure({"1": fix_b(), "2": fix_b()})
    base = fix_b()
    diagonal = product_morphism(p, {"1": identity_morphism(base),
                                    "2": identity_morphism(base)})
    assert check_morphism(diagonal)
    for i in ("1", "2"):
        pr = projection(p, i)
        assert check_morphism(pr)
        assert compose(pr, diagonal) == identity_morphism(base)


def test_product_morphism_components_are_slotwise():
    p = ProductStructure({"1": fix_b(), "2": fix_b2()})
    base = fix_b()
    f = product_morphism(p, {"1": identity_morphism(base), "2": morphism_t()})
    assert f.component(1, ("x",)) == {"1.x": ONE, "2.x": ONE}
    assert f.component(1, ("c",)) == {"1.c": ONE, "2.c": Fraction(2)}
    assert check_morphism(f)


def test_product_morphism_rejects_mismatched_family():
    p = ProductStructure({"1": fix_b(), "2": fix_b()})
    with pytest.raises(InputError):
        product_morphism(p, {"1": identity_morphism(fix_b())})
    with pytest.raises(InputError):
        product_morphism(p, {"1": identity_morphism(fix_b()),
                             "2": identity_morphism(fix_a())})


def test_assemble_and_twist_zero_data():
    p = two_lines()
    report = assemble_and_twist(p, {})
    assert report["mc_joint"]
    assert report["mc_by_factor"] == {"1": True, "2": True}
    assert report["mc_residual_slots"] == []


def test_assemble_and_twist_fixb_pair():
    p = ProductStructure({"1": fix_b(), "2": fix_b()})
    pis = {"1": {"x": ONE}, "2": {"x": ONE}}
    report = assemble_and_twist(p, pis)
    assert report["mc_joint"]
    assert report["twist_slotwise"] and report["series_slotwise"]
    joint = assemble_twist_datum(p, pis)
    mc_check(p.assembled, joint)
    twisted = twist_structure(p.assembled, joint)
    assert twisted.is_flat()
    assert twisted.component(1, ("1.x",)) == {"1.c": Fraction(2)}
    assert twisted.component(1, ("2.x",)) == {"2.c": Fraction(2)}


def test_assemble_and_twist_localizes_non_mc_slot():
    p = ProductStructure({"good": fix_b(), "bad": fix_b()})
    report = assemble_and_twist(p, {"good": {"x": ONE},
                                    "bad": {"x": Fraction(2)}})
    assert report["mc_by_factor"] == {"good": True, "bad": False}
    assert not report["mc_joint"]
    assert report["mc_residual_slots"] == ["bad"]


def test_assemble_and_twist_morphism_claim():
    p = ProductStructure({"1": fix_b(), "2": fix_b()})
    family = {"1": morphism_t(), "2": morphism_t()}
    report = assemble_and_twist(p, {"1": {"x": ONE}, "2": {"x": ONE}},
                                slot_morphisms=family)
    assert report["morphism_slotwise"]


def test_slotwise_morphism_needs_matching_indices():
    p = ProductStructure({"1": fix_b()})
    q = ProductStructure({"2": fix_b2()})
    with pytest.raises(InputError):
        slotwise_morphism(p, q, {"1": morphism_t()})


# -- covers ----------------------------------------------------------------------


def test_cover_validation():
    chart = _constants_chart()
    with pytest.raises(InputError):
        CoverDescription(["U"], [], {}, {})  # missing singleton
    with pytest.raises(InputError):
        CoverDescription(["U", "V"],
                         [("U",), ("V",), ("V", "U")],
                         {("U",): chart, ("V",): chart, ("V", "U"): chart},
                         {})  # not increasing


def test_cover_restrictions_must_be_functorial():
    charts = {a: _constants_chart() for a in
              [("A",), ("B",), ("C",), ("A", "B"), ("A", "C"), ("B", "C"),
               ("A", "B", "C")]}
    ident = lambda a, b, q=1: strict_morphism(
        charts[a], charts[b], {"f": {"f": Fraction(q)}})
    pairs = {}
    for a in charts:
        for b in charts:
            if len(a) < len(b) and all(x in b for x in a):
                pairs[(a, b)] = ident(a, b)
    pairs[(("A",), ("A", "B", "C"))] = ident(("A",), ("A", "B", "C"), 2)
    with pytest.raises(MathCheckError, match="functorial"):
        CoverDescription(["A", "B", "C"], list(charts), charts, pairs)


def test_cech_routes_must_agree():
    cover = fix_c_cover()
    global_structure = _constants_chart()
    restrictions = {
        "U": strict_morphism(global_structure, cover.local_structures[("U",)],
                             {"f": {"f": ONE}}),
        "V": strict_morphism(global_structure, cover.local_structures[("V",)],
                             {"f": {"f": Fraction(2)}}),
    }
    with pytest.raises(MathCheckError, match="disagree"):
        build_cech_complex(cover, global_structure, restrictions)


def test_single_chart_cover_gives_identity_augmentation():
    chart = _constants_chart()
    cover = CoverDescription(["U"], [("U",)], {("U",): chart}, {})
    global_structure = _constants_chart()
    diagram = build_cech_complex(
        cover, global_structure,
        {"U": strict_morphism(global_structure, chart, {"f": {"f": ONE}})})
    assert len(diagram.levels) == 1 and not diagram.connecting
    assert diagram.augmentation.component(0, (), "f") == {"U.f": ONE}


def test_fix_c_cech_differential_and_cohomology():
    diagram = fix_c_diagram()
    d0 = diagram.connecting[0]
    assert d0.component(0, (), "U.f") == {"U,V.f": Fraction(-1)}
    assert d0.component(0, (), "V.f") == {"U,V.f": ONE}
    blocks = module_morphism_blocks(d0)
    cc = ChainComplex({0: 2, 1: 1}, {0: blocks[-1]})
    assert cc.betti() == {0: 1, 1: 0}


def test_fixb_spread_connecting_map_is_a_module_morphism():
    diagram = cech_fixb_diagram()
    assert len(diagram.levels) == 2
    assert check_module_morphism(diagram.connecting[0])
    assert check_module_morphism(diagram.augmentation)


def test_cech_differential_survives_twisting_unchanged():
    diagram = cech_fixb_diagram()
    twisted = twist_resolution(diagram, {"x": ONE})
    for before, after in zip(diagram.connecting, twisted.connecting):
        assert before.components == after.components
    assert twisted.base.is_flat()
