"""The Cech builder checks its inputs, not what it builds from them.

build_cech_complex checks that the global structure and every local
structure square to zero, that every restriction is a morphism and that
routes agree; it does not re-prove that its levels are modules or its
connecting maps module morphisms, which follows from those inputs.  The
guard below runs those checks over every diagram the fixtures and the
random families build, so a builder that stopped making valid levels would
still be caught here.  A base or a chart that fails to square to zero is
rejected by the first check, with its own witness; the one check kept on
the output, d o d = 0, can still fire.
"""

from pathlib import Path
import random
import re
import sys

import pytest

from linfty import fixtures, products
from linfty.fixtures import jacobi_violation
from linfty.graded import GradedSpace, MathCheckError, ONE
from linfty.instances import (
    CHARTS,
    matrix_structure,
    random_ladder,
    random_strict_transport,
    two_chart_diagram,
    two_chart_ladder,
)
from linfty.io import FixtureWriter, load_document, serialize_document
from linfty.modules import (
    ModuleMorphism,
    check_module_morphism,
    check_module_square_zero,
)
from linfty.products import CoverDescription, build_cech_complex
from linfty.resolutions import ResolutionDiagram
from linfty.structures import LInftyMorphism, LInftyStructure

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def moving_ladders():
    """The moving-transport family: 4 x 4 units whose strict transports all
    move the structure (as in test_instances)."""
    for weights in ((0, 0, 1, 1), (0, 1, 1, 2)):
        base, _ = matrix_structure(4, list(weights))
        for seed in range(4):
            rng = random.Random(seed)
            transports = {a: random_strict_transport(rng, base)[1]
                          for a in CHARTS}
            yield two_chart_ladder(base, transports)


@pytest.fixture
def built_diagrams(monkeypatch):
    """Every diagram build_cech_complex returns while the test runs."""
    built = []
    build = products.build_cech_complex

    def recording(*args, **kwargs):
        diagram = build(*args, **kwargs)
        built.append(diagram)
        return diagram

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "linfty" and \
                getattr(module, "build_cech_complex", None) is build:
            monkeypatch.setattr(module, "build_cech_complex", recording)
    return built


def test_the_dropped_level_and_connecting_checks_hold_on_every_built_diagram(
        built_diagrams):
    for builder in fixtures.REGISTRY.values():
        builder()
    for path in sorted(FIXTURES.glob("*.json")):
        try:
            load_document(path.read_text(encoding="utf-8"))
        except MathCheckError:  # a negative control, rejected by design
            pass
    from_fixtures = len(built_diagrams)
    for seed in range(25):
        random_ladder(seed)
    for _ in moving_ladders():
        pass
    assert from_fixtures >= 6
    assert len(built_diagrams) == from_fixtures + 2 * (25 + 8)
    for diagram in built_diagrams:
        for module in diagram.levels:
            assert check_module_square_zero(module)
        for d in diagram.connecting:
            assert check_module_morphism(d)


def test_a_base_that_does_not_square_to_zero_is_rejected_with_its_witness():
    with pytest.raises(MathCheckError) as excinfo:
        two_chart_diagram(jacobi_violation())
    assert str(excinfo.value) == (
        "coderivation does not square to zero: residual "
        "{('e3',): Fraction(1, 1)} on word ('e1', 'e2', 'e3')")


def non_square_zero_chart_scene():
    """One chart whose Q_1 sends a to b and b to c, so Q_1 o Q_1 != 0, under
    a zero global structure restricted to it by the zero morphism.  Every
    restriction is a morphism, yet level 0 would be the module of that
    chart's differential, which does not square to zero."""
    chart = LInftyStructure(
        GradedSpace([("a", 0, 0), ("b", 1, 0), ("c", 2, 0)], 1),
        {1: {("a",): {"b": ONE}, ("b",): {"c": ONE}}})
    base = LInftyStructure(GradedSpace([("g", 0, 0)], 1), {})
    cover = CoverDescription(["U"], [("U",)], {("U",): chart}, {})
    return cover, base, {"U": LInftyMorphism(base, chart, {})}


CHART_WITNESS = ("coderivation does not square to zero: residual "
                 "{('c',): Fraction(1, 1)} on word ('a',)")


def test_a_chart_that_does_not_square_to_zero_is_rejected_with_its_witness():
    cover, base, restrictions = non_square_zero_chart_scene()
    with pytest.raises(MathCheckError) as excinfo:
        build_cech_complex(cover, base, restrictions)
    assert str(excinfo.value) == CHART_WITNESS

    writer = FixtureWriter()
    writer.add_cover(cover, "cov")
    writer.raw["resolutions"] = {"bad": {
        "cech_of": "cov", "global": writer.add(base, "global"),
        "restrictions": {"U": writer.add(restrictions["U"], "r.U")}}}
    with pytest.raises(MathCheckError) as excinfo:
        load_document(serialize_document(writer.raw))
    assert str(excinfo.value).endswith(CHART_WITNESS)


def test_the_kept_square_zero_check_fires_on_a_flipped_connecting_sign(
        monkeypatch):
    """Flip the sign of one chart in d.0: d o augmentation no longer cancels."""

    class FlippedDiagram(ResolutionDiagram):
        def __init__(self, base, augmented, levels, augmentation, connecting):
            d = connecting[0]
            flipped = {k: {key: ({g: -q for g, q in value.items()}
                                 if key[1].startswith("V.") else value)
                           for key, value in row.items()}
                       for k, row in d.components.items()}
            connecting = [ModuleMorphism(d.source, d.target, flipped),
                          *connecting[1:]]
            super().__init__(base, augmented, levels, augmentation,
                             connecting)

    s, _ = matrix_structure(3)
    assert two_chart_diagram(s).connecting
    monkeypatch.setattr(products, "ResolutionDiagram", FlippedDiagram)
    with pytest.raises(MathCheckError, match=re.escape(
            "alternating-sum differential does not square to zero at level 0")):
        two_chart_diagram(s)
