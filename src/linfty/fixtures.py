"""Hand-built desk-scale fixtures used across the test suite and the CLI.

Each builder returns fresh objects so callers can mutate freely.  The
registry at the bottom maps fixture names to builders for scripts.

Naming scheme, kept stable because frozen test values refer to it:
  fix_a        flat two-generator line with one differential arrow
  fix_b        curved one-relation algebra whose generator is Maurer-Cartan
  fix_b2       the same shape transported through x -> x, c -> 2c
  fix_c        two-chart cover of constants with identity restrictions
  jacobi_violation  bracket table failing Jacobi first at arity three
  nonadapted   resolution that is exact untwisted but dies when twisted
  cech_fixb    two-chart spread of fix_b, identity restrictions
  cech_fixb_ladder  two_chart_ladder from cech_fixb to the fix_b2 spread,
               with the doubling morphism as the fiber on every chart
"""

from .graded import GradedSpace, ONE
from .structures import LInftyStructure, from_curved_lie, strict_morphism
from .modules import LInftyModule, ModuleMorphism, identity_module_morphism
from .products import CoverDescription
from .resolutions import ResolutionDiagram, ResolutionMorphism
from .instances import CHARTS, two_chart_diagram, two_chart_ladder


def fix_a():
    space = GradedSpace([("a", 0, 1), ("b", 1, 1)], 3)
    return LInftyStructure(space, {1: {("a",): {"b": ONE}}})


def fix_b():
    return from_curved_lie(
        [("x", 1, 1), ("c", 2, 2)], 3,
        curvature={"c": ONE},
        differential={},
        bracket={("x", "x"): {"c": 2}})


def fix_b2():
    return from_curved_lie(
        [("x", 1, 1), ("c", 2, 2)], 3,
        curvature={"c": 2},
        differential={},
        bracket={("x", "x"): {"c": 4}})


def morphism_t():
    """Strict isomorphism fix_b -> fix_b2 doubling the curvature generator."""
    return strict_morphism(fix_b(), fix_b2(),
                           {"x": {"x": ONE}, "c": {"c": 2}})


def jacobi_violation():
    """Antisymmetric bracket whose Jacobiator is e3 at (e1, e2, e3)."""
    return from_curved_lie(
        [("e1", 0, 0), ("e2", 0, 0), ("e3", 0, 0)], 1,
        curvature={},
        differential={},
        bracket={("e1", "e2"): {"e2": ONE}, ("e2", "e3"): {"e3": ONE}})


def _constants_chart():
    return LInftyStructure(GradedSpace([("f", -1, 0)], 1), {})


def fix_c_cover():
    charts = {
        ("U",): _constants_chart(),
        ("V",): _constants_chart(),
        ("U", "V"): _constants_chart(),
    }
    restrictions = {
        (("U",), ("U", "V")): strict_morphism(
            charts[("U",)], charts[("U", "V")], {"f": {"f": ONE}}),
        (("V",), ("U", "V")): strict_morphism(
            charts[("V",)], charts[("U", "V")], {"f": {"f": ONE}}),
    }
    return CoverDescription(["U", "V"], list(charts), charts, restrictions)


def fix_c_diagram():
    """Two-chart spread of the constants: the Cech diagram of fix_c_cover()."""
    return two_chart_diagram(_constants_chart())


def fix_c_identity_ladder():
    src = fix_c_diagram()
    tgt = fix_c_diagram()
    return ResolutionMorphism(
        src, tgt,
        identity_module_morphism(src.augmented),
        [identity_module_morphism(m) for m in src.levels])


def perturbed_ladder():
    """Identity ladder with the last level map doubled; square 1 breaks."""
    ladder = fix_c_identity_ladder()
    last = ladder.level_maps[-1]
    doubled = ModuleMorphism(
        last.source, last.target,
        {k: {key: {g: 2 * q for g, q in value.items()}
             for key, value in table.items()}
         for k, table in last.components.items()})
    return ResolutionMorphism(ladder.source, ladder.target,
                              ladder.augmented_map,
                              ladder.level_maps[:-1] + [doubled])


def cech_fixb_diagram():
    """fix_b spread over two charts with identity restrictions."""
    return two_chart_diagram(fix_b())


def cech_fixb_ladder():
    """Ladder from the fix_b spread to the fix_b2 spread over the same base.

    Both diagrams are modules over fix_b; the target charts carry the
    transported structure and are reached through the doubling morphism
    morphism_t(), the transport of every chart in two_chart_ladder.
    """
    return two_chart_ladder(fix_b(), {a: morphism_t() for a in CHARTS})


def nonadapted_diagram():
    """Exact at zero twist over fix_b, but the twisted connecting map dies.

    Both modules carry the zero operator (their filtration levels push every
    curvature term past the truncation), the augmented module is empty, and
    the connecting map has arity parts that cancel after twisting by x.
    """
    base = fix_b()
    empty = LInftyModule(base, GradedSpace([], 3), {})
    m0 = LInftyModule(base, GradedSpace([("u", 0, 1)], 3), {})
    m1 = LInftyModule(base, GradedSpace([("v", 0, 2)], 3), {})
    augmentation = ModuleMorphism(empty, m0, {})
    d0 = ModuleMorphism(m0, m1, {
        0: {((), "u"): {"v": ONE}},
        1: {(("x",), "u"): {"v": -1}},
    })
    return ResolutionDiagram(base, empty, [m0, m1], augmentation, [d0])


REGISTRY = {
    "fix_a": fix_a,
    "fix_b": fix_b,
    "fix_b2": fix_b2,
    "jacobi_violation": jacobi_violation,
    "fix_c": fix_c_diagram,
    "cech_fixb": cech_fixb_diagram,
    "cech_fixb_ladder": cech_fixb_ladder,
    "perturbed_ladder": perturbed_ladder,
    "nonadapted": nonadapted_diagram,
}
