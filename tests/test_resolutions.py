"""Resolution diagrams, adapted twists, ladders and the criterion pipeline."""

from fractions import Fraction

import pytest

from linfty.graded import GradedSpace, InputError, MathCheckError, ONE
from linfty.structures import LInftyStructure
from linfty.modules import (
    LInftyModule,
    ModuleMorphism,
    from_dg_module,
    identity_module_morphism,
    twist_module_morphism,
)
from linfty import resolutions
from linfty.homology import Matrix
from linfty.resolutions import (
    ResolutionDiagram,
    ResolutionMorphism,
    check_adapted_mc,
    check_resolution,
    check_resolution_morphism,
    induced_cohomology_sequence,
    module_chain_complex,
    module_morphism_blocks,
    prop_key_pipeline,
    twist_resolution,
    twist_resolution_morphism,
)
from linfty.twisting import twist_structure
from linfty.fixtures import (
    cech_fixb_diagram,
    cech_fixb_ladder,
    fix_b,
    fix_c_diagram,
    fix_c_identity_ladder,
    nonadapted_diagram,
    perturbed_ladder,
)


def flat_point():
    return LInftyStructure(GradedSpace([("e", 0, 0)], 1), {})


def line_module(base, name):
    return LInftyModule(
        base, GradedSpace([(f"{name}", 0, 0)], 1), {})


def identity_resolution():
    base = flat_point()
    m = line_module(base, "m")
    m0 = line_module(base, "n")
    aug = ModuleMorphism(m, m0, {0: {((), "m"): {"n": ONE}}})
    return ResolutionDiagram(base, m, [m0], aug, [])


def test_module_chain_complex_reads_arity_zero():
    base = flat_point()
    module = from_dg_module(base, [("m", 0, 0), ("n", 1, 0)],
                            differential={"m": {"n": ONE}}, action={})
    cc = module_chain_complex(module)
    assert cc.betti() == {0: 0, 1: 0}


def test_module_chain_complex_requires_square_zero():
    base = flat_point()
    bad = from_dg_module(base, [("m", 0, 0), ("n", 1, 0), ("p", 2, 0)],
                         differential={"m": {"n": ONE}, "n": {"p": ONE}},
                         action={})
    with pytest.raises(MathCheckError, match="square"):
        module_chain_complex(bad)


def test_diagram_shape_validation():
    base = flat_point()
    m = line_module(base, "m")
    m0 = line_module(base, "n")
    aug = ModuleMorphism(m, m0, {0: {((), "m"): {"n": ONE}}})
    with pytest.raises(InputError):
        ResolutionDiagram(base, m, [], aug, [])
    with pytest.raises(InputError):
        ResolutionDiagram(base, m, [m0], aug, [aug])
    with pytest.raises(InputError):
        ResolutionDiagram(base, m, [m], aug, [])


def test_identity_resolution_passes():
    report = check_resolution(identity_resolution())
    assert report["ok"], report["failures"]
    seq = report["sequence"]
    assert seq["betti"][0] == {0: 1}
    assert seq["betti"][1] == {0: 1}


def test_fix_c_diagram_is_a_resolution():
    report = check_resolution(fix_c_diagram())
    assert report["ok"], report["failures"]
    betti = report["sequence"]["betti"]
    assert [b[-1] for b in betti] == [1, 2, 1]


def test_fix_c_with_zero_differential_fails_with_position():
    diagram = fix_c_diagram()
    broken = ResolutionDiagram(
        diagram.base, diagram.augmented, diagram.levels,
        diagram.augmentation,
        [ModuleMorphism(diagram.levels[0], diagram.levels[1], {})])
    report = check_resolution(broken)
    assert not report["ok"]
    assert any("not exact" in f for f in report["failures"])
    assert not report["sequence"]["exact_at"][(-1, 1)]
    assert not report["sequence"]["exact_at"][(-1, 2)]


def test_untwisted_cech_fixb_is_a_resolution():
    report = check_resolution(cech_fixb_diagram())
    assert report["ok"], report["failures"]


def test_adapted_mc_requires_maurer_cartan():
    with pytest.raises(MathCheckError):
        check_adapted_mc(cech_fixb_diagram(), {"x": Fraction(2)})


def test_adapted_zero_twist_agrees_with_resolution_exactness():
    """Over a flat base pi = 0 is Maurer-Cartan and the notions coincide;
    over a curved base pi = 0 is not even Maurer-Cartan, so the gate closes
    while the ungated exactness check still runs."""
    diagram = fix_c_diagram()
    adapted, _ = check_adapted_mc(diagram, {})
    assert adapted == check_resolution(diagram)["ok"]
    for builder in (cech_fixb_diagram, nonadapted_diagram):
        diagram = builder()
        with pytest.raises(MathCheckError, match="Maurer-Cartan"):
            check_adapted_mc(diagram, {})
        assert check_resolution(diagram)["ok"]


def test_cech_fixb_adapted_at_x():
    adapted, report = check_adapted_mc(cech_fixb_diagram(), {"x": ONE})
    assert adapted
    for betti in report["betti"]:
        assert all(b == 0 for b in betti.values())


def test_nonadapted_fixture_dies_at_node_one():
    diagram = nonadapted_diagram()
    assert check_resolution(diagram)["ok"]
    adapted, report = check_adapted_mc(diagram, {"x": ONE})
    assert not adapted
    assert not report["exact_at"][(0, 1)]
    assert not report["exact_at"][(0, 2)]
    assert report["exact_at"][(0, 0)]


def test_twist_resolution_roundtrip():
    diagram = cech_fixb_diagram()
    there = twist_resolution(diagram, {"x": ONE})
    back = twist_resolution(there, {"x": Fraction(-1)})
    assert back == diagram


def test_twisted_ladder_is_wired_to_its_twisted_diagrams():
    """One twisted base for both diagrams; verticals join their modules."""
    ladder = cech_fixb_ladder()
    pi = {"x": ONE}
    twisted = twist_resolution_morphism(ladder, pi)
    assert twisted.source.base is twisted.target.base
    assert twisted.source.base == twist_structure(ladder.source.base, pi)
    for m in twisted.source.modules() + twisted.target.modules():
        assert m.base is twisted.source.base
    for u, s, t in zip(twisted.verticals(), twisted.source.modules(),
                       twisted.target.modules()):
        assert u.source is s and u.target is t
    assert twisted.source == twist_resolution(ladder.source, pi)
    assert twisted.target == twist_resolution(ladder.target, pi)
    for u, v in zip(twisted.verticals(), ladder.verticals()):
        assert u == twist_module_morphism(v, pi)


# -- ladders -------------------------------------------------------------------


def test_identity_ladder_commutes():
    report = check_resolution_morphism(fix_c_identity_ladder())
    assert report["ok"], report["failures"]


def test_perturbed_ladder_fails_square_one():
    report = check_resolution_morphism(perturbed_ladder())
    assert not report["ok"]
    assert report["squares"][0]
    assert not report["squares"][1]
    assert any("square 1" in f for f in report["failures"])


def test_cech_fixb_ladder_commutes():
    report = check_resolution_morphism(cech_fixb_ladder())
    assert report["ok"], report["failures"]


def test_ladder_shape_validation():
    ladder = fix_c_identity_ladder()
    with pytest.raises(InputError):
        ResolutionMorphism(ladder.source, ladder.target,
                           ladder.augmented_map, ladder.level_maps[:-1])


# -- the criterion pipeline -------------------------------------------------------


def test_pipeline_identity_ladder_zero_twist():
    report = prop_key_pipeline(fix_c_identity_ladder(), {})
    assert report["verdict"] == "quasi-isomorphism"
    assert report["routes_agree"] and report["isomorphism"]
    assert report["induced"][-1] == Matrix(1, 1, [[ONE]])


def test_pipeline_cech_fixb_ladder_at_x():
    report = prop_key_pipeline(cech_fixb_ladder(), {"x": ONE})
    assert report["verdict"] == "quasi-isomorphism"
    assert report["level_quasi_iso"] == {0: True, 1: True}


def test_pipeline_builds_each_twisted_module_complex_once(monkeypatch):
    built = []
    monkeypatch.setattr(resolutions, "module_chain_complex",
                        lambda m: built.append(m) or module_chain_complex(m))
    report = prop_key_pipeline(cech_fixb_ladder(), {"x": ONE})
    assert report["verdict"] == "quasi-isomorphism"
    # augmented module and two levels, in each of the two twisted diagrams
    assert len(built) == 6


def test_pipeline_rejects_broken_ladder():
    report = prop_key_pipeline(perturbed_ladder(), {})
    assert report["verdict"] == "hypotheses unmet"
    assert "ladder" in report["failing_clause"]


def test_pipeline_rejects_non_mc_twist():
    report = prop_key_pipeline(cech_fixb_ladder(), {"x": Fraction(2)})
    assert report["verdict"] == "hypotheses unmet"
    assert "Maurer-Cartan" in report["failing_clause"]


def test_pipeline_reports_nonadapted_source():
    diagram = nonadapted_diagram()
    ladder = ResolutionMorphism(
        diagram, diagram,
        identity_module_morphism(diagram.augmented),
        [identity_module_morphism(m) for m in diagram.levels])
    report = prop_key_pipeline(ladder, {"x": ONE})
    assert report["verdict"] == "hypotheses unmet"
    assert "adapted" in report["failing_clause"]


def test_pipeline_flags_non_quasi_iso_levels():
    """Levelwise maps that are valid module morphisms but kill cohomology."""
    src = fix_c_diagram()
    tgt = fix_c_diagram()
    zero_levels = [ModuleMorphism(a, b, {})
                   for a, b in zip(src.levels, tgt.levels)]
    ladder = ResolutionMorphism(
        src, tgt, ModuleMorphism(src.augmented, tgt.augmented, {}),
        zero_levels)
    assert check_resolution_morphism(ladder)["ok"]
    report = prop_key_pipeline(ladder, {})
    assert report["verdict"] == "hypotheses unmet"
    assert "quasi-isomorphism" in report["failing_clause"]
    assert report["level_quasi_iso"] == {0: False, 1: False}
