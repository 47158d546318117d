"""The library boundary takes exact dicts of tuple words, as the CLI does.

The four applies coerce each coefficient through parse_scalar, so a "p/q"
string or a Fraction is read exactly and a float or a bool is an input
error, and they take a dict of terms alone.  A word given as a str is an
input error, not a word of its letters, in an apply and in a table
constructor; element data that are not dicts (a twist datum, a table's
components, one arity's table) raise InputError, not AttributeError.  A
tensor key that is not a (word, generator) pair and a word that is not
iterable are input errors too, as are malformed arguments of twist_table,
a two-chart transports dict that lacks a chart or maps one to something
other than a morphism, a weighted_powers limit that is not a nonnegative
int, and matrix_structure arguments out of range.  The resolution entry
points and the two-chart builders name the type they expect when given
another (a diagram for a ladder, an int for a structure) instead of
failing on a missing attribute.  The sign and shuffle kernels are internal
and not exported.
"""

from fractions import Fraction
import re

import pytest

import linfty
from linfty import graded
from linfty.fixtures import fix_b, morphism_t
from linfty.graded import GradedSpace, InputError, ONE, exact_element
from linfty.instances import (
    CHARTS, matrix_structure, random_ladder, two_chart_diagram, two_chart_ladder)
from linfty.modules import (
    LInftyModule,
    identity_module_morphism,
    module_apply,
    module_from_morphism,
    module_morphism_apply,
)
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
from linfty.structures import (
    LInftyStructure,
    coderivation_apply,
    morphism_apply,
)
from linfty.twisting import (
    mc_check, twist_structure, twist_table, weighted_powers)


def module_t():
    return module_from_morphism(morphism_t())


# (table, apply, a key with a nonzero image, that key with its word as a str)
APPLIES = {
    "coderivation": (fix_b, coderivation_apply, ("x", "x"), "xx"),
    "morphism": (morphism_t, morphism_apply, ("x",), "x"),
    "module": (module_t, module_apply, (("x",), "x"), ("x", "x")),
    "module_morphism": (lambda: identity_module_morphism(module_t()),
                        module_morphism_apply, (("x",), "x"), ("x", "x")),
}


@pytest.mark.parametrize("case", sorted(APPLIES))
def test_an_apply_reads_exact_coefficients_alone(case):
    make, apply, key, _ = APPLIES[case]
    table = make()
    unit = apply(table, {key: ONE})
    assert unit
    half = {k: q * Fraction(1, 2) for k, q in unit.items()}
    assert apply(table, {key: "1/2"}) == half
    assert apply(table, {key: Fraction(1, 2)}) == half
    assert apply(table, {key: Fraction(4, 2)}) == apply(table, {key: 2})
    for scalar, name in ((0.25, "float"), (True, "bool"), (None, "NoneType")):
        with pytest.raises(InputError, match=f"exact scalars required, got {name}"):
            apply(table, {key: scalar})
    for bad in ([key], None, key):
        with pytest.raises(InputError, match="apply input must be a dict"):
            apply(table, bad)


@pytest.mark.parametrize("case", sorted(APPLIES))
def test_an_apply_does_not_split_a_str_word_into_letters(case):
    make, apply, _, str_key = APPLIES[case]
    table = make()
    for _ in range(2):  # a failed lookup is never kept
        with pytest.raises(InputError, match="is a string, not a tuple"):
            apply(table, {str_key: ONE})


def test_a_constructor_does_not_split_a_str_word_into_letters():
    # "ab" is a generator too, so reading it as a v b would file a value
    space = GradedSpace([("a", 0, 1), ("b", 1, 1), ("ab", 2, 2)], 3)
    with pytest.raises(InputError, match="word 'ab' is a string"):
        LInftyStructure(space, {2: {"ab": {"ab": ONE}}})
    assert LInftyStructure(space, {2: {("a", "b"): {"ab": ONE}}}).components \
        == {2: {("a", "b"): {"ab": ONE}}}
    base = fix_b()
    with pytest.raises(InputError, match="word 'x' is a string"):
        LInftyModule(base, base.space, {1: {("x", "x"): {"c": ONE}}})


def test_non_dict_data_raise_input_errors():
    base = fix_b()
    for datum, name in ((None, "NoneType"), ("x", "str"), ([("x", 1)], "list")):
        with pytest.raises(InputError, match=f"element must be a dict, got {name}"):
            mc_check(base, datum)
        with pytest.raises(InputError, match=f"element must be a dict, got {name}"):
            twist_structure(base, datum)
    with pytest.raises(InputError, match="element must be a dict, got list"):
        exact_element([("x", 1)])
    space = GradedSpace([("a", 0, 1), ("b", 1, 1)], 3)
    with pytest.raises(InputError, match="arity-1 components must be a dict, got list"):
        LInftyStructure(space, {1: [("a",)]})
    with pytest.raises(InputError, match="components must be a dict, got list"):
        LInftyStructure(space, [(1, {})])


@pytest.mark.parametrize("case", sorted(APPLIES))
def test_an_apply_rejects_malformed_keys(case):
    make, apply, key, _ = APPLIES[case]
    table = make()
    tensor = isinstance(key[0], tuple)
    bad_keys = ((("x",), "not a (word, generator) pair"),
                (("x", "x", "x"), "not a (word, generator) pair"),
                ((5, "x"), "word 5 is not a tuple")) if tensor else \
        ((5, "word 5 is not a tuple"), (None, "word None is not a tuple"))
    for bad, text in bad_keys:
        for _ in range(2):  # a failed lookup is never kept
            with pytest.raises(InputError, match=re.escape(text)):
                apply(table, {bad: ONE})
    assert apply(table, {key: ONE})


def test_an_unknown_module_generator_raises_in_both_tensor_applies():
    """With the constructor's text, on every call, whether or not the base's
    Q-part of the word vanishes: () has Q(()) = Q_0 != 0, ("c",) has
    Q(c) = 0 in fix_b."""
    module = module_t()
    mm = identity_module_morphism(module)
    assert coderivation_apply(module.base, {("c",): ONE}) == {}
    for apply, table in ((module_apply, module), (module_morphism_apply, mm)):
        for word in ((), ("c",), ("x",)):
            for _ in range(2):
                with pytest.raises(InputError, match=re.escape(
                        "unknown module generator 'zz'")):
                    apply(table, {(word, "zz"): ONE})
        assert apply(table, {(("x",), "x"): ONE})


def test_a_constructor_rejects_malformed_keys():
    base = fix_b()
    with pytest.raises(InputError, match=re.escape(
            "tensor key ('x',) is not a (word, generator) pair")):
        LInftyModule(base, base.space, {1: {("x",): {"c": 1}}})
    with pytest.raises(InputError, match="is not a \\(word, generator\\) pair"):
        LInftyModule(base, base.space, {0: {"x": {"c": 1}}})
    with pytest.raises(InputError, match="word 5 is not a tuple"):
        LInftyModule(base, base.space, {1: {(5, "x"): {"c": 1}}})
    with pytest.raises(InputError, match="word 5 is not a tuple"):
        LInftyStructure(base.space, {1: {5: {"c": 1}}})


def test_twist_table_checks_its_arities_like_a_cap():
    base = fix_b()
    assert twist_table(base, {"x": ONE}, arities=[0]) == \
        twist_table(base, {"x": ONE}, arities=range(1))
    for arities, text in ((True, "arities must be an iterable of integers, got bool"),
                          (3, "arities must be an iterable of integers, got int"),
                          ([True], "arity must be an integer, got bool"),
                          ([1.0], "arity must be an integer, got float"),
                          ("0", "arity must be an integer, got str"),
                          ([0, -1], "arity must be nonnegative, got -1")):
        with pytest.raises(InputError, match=re.escape(text)):
            twist_table(base, {"x": ONE}, arities=arities)


@pytest.mark.parametrize("build", [two_chart_diagram, two_chart_ladder])
def test_two_chart_transports_name_a_missing_or_malformed_chart(build):
    base, t = fix_b(), morphism_t()
    for transports, text in (
            ({("U",): t}, "no transport on chart ('V',)"),
            ({("U",): t, ("V",): t}, "no transport on chart ('U', 'V')"),
            ({**dict.fromkeys(CHARTS, t), ("V",): 5},
             "transport on chart ('V',) must be a morphism, got int"),
            ({**dict.fromkeys(CHARTS, t), ("U", "V"): None},
             "no transport on chart ('U', 'V')"),
            ([t, t, t], "transports must be a dict, got list")):
        with pytest.raises(InputError, match=re.escape(text)):
            build(base, transports)
    assert build(base, dict.fromkeys(CHARTS, t))


def test_resolution_entry_points_name_the_type_they_expect():
    ladder, xi = random_ladder(0)
    diagram = ladder.source
    wants_ladder = "ladder must be of type ResolutionMorphism, got ResolutionDiagram"
    wants_diagram = "diagram must be of type ResolutionDiagram, got ResolutionMorphism"
    for call, text in (
            (lambda: prop_key_pipeline(diagram, xi), wants_ladder),
            (lambda: check_resolution_morphism(diagram), wants_ladder),
            (lambda: twist_resolution_morphism(diagram, xi), wants_ladder),
            (lambda: induced_cohomology_sequence(ladder), wants_diagram),
            (lambda: twist_resolution(ladder, xi), wants_diagram),
            (lambda: check_resolution(ladder), wants_diagram),
            (lambda: check_adapted_mc(ladder, xi), wants_diagram),
            (lambda: module_chain_complex(diagram),
             "module must be of type LInftyModule, got ResolutionDiagram"),
            (lambda: module_morphism_blocks(diagram.augmented),
             "module morphism must be of type ModuleMorphism, got LInftyModule"),
            (lambda: ResolutionMorphism(ladder, diagram, ladder.augmented_map,
                                        ladder.level_maps),
             "ladder source must be of type ResolutionDiagram, "
             "got ResolutionMorphism"),
            (lambda: ResolutionMorphism(diagram, diagram, diagram.augmented,
                                        ladder.level_maps),
             "vertical map must be of type ModuleMorphism, got LInftyModule"),
            (lambda: ResolutionDiagram(diagram.base, diagram.augmented,
                                       diagram.levels, diagram.augmented,
                                       diagram.connecting),
             "diagram map must be of type ModuleMorphism, got LInftyModule"),
            (lambda: ResolutionDiagram(5, diagram.augmented, diagram.levels,
                                       diagram.augmentation, diagram.connecting),
             "base must be of type LInftyStructure, got int")):
        with pytest.raises(InputError, match=re.escape(text)):
            call()
    assert prop_key_pipeline(ladder, xi)["verdict"] == "quasi-isomorphism"


@pytest.mark.parametrize("build", [two_chart_diagram, two_chart_ladder])
def test_two_chart_builders_name_the_structure_type(build):
    t = morphism_t()
    with pytest.raises(InputError, match=re.escape(
            "structure must be of type LInftyStructure, got int")):
        build(5, dict.fromkeys(CHARTS, t))
    with pytest.raises(InputError, match=re.escape(
            "structure must be of type LInftyStructure, got LInftyMorphism")):
        build(t, dict.fromkeys(CHARTS, t))


def test_matrix_structure_raises_input_errors():
    for args, text in (
            ((2.5,), "n must be an integer, got float"),
            ((True,), "n must be an integer, got bool"),
            ((1,), "need at least two rows, got 1"),
            ((3, [0, 1]), "one weight per row: 3 rows, 2 weights"),
            ((3, 5), "weights must be a list of integers, got 5"),
            ((3, [0, 0.5, 1]), "weights must be a list of integers"),
            ((3, None, [1]), "xi must be a dict, got list"),
            ((3, [0, 1, 3], {"e13": ONE}), "xi entry e13 has degree 3, needs 1")):
        with pytest.raises(InputError, match=re.escape(text)):
            matrix_structure(*args)


def test_weighted_powers_checks_its_limit_like_a_cap():
    base = fix_b()
    assert weighted_powers(base.space, {"x": ONE}, 0) == ()
    assert weighted_powers(base.space, {"x": ONE}, 1) == ((0, {(): ONE}),)
    for limit, text in ((1.5, "limit must be an integer, got float"),
                        (True, "limit must be an integer, got bool"),
                        ("2", "limit must be an integer, got str"),
                        (-1, "limit must be nonnegative, got -1")):
        with pytest.raises(InputError, match=re.escape(text)):
            weighted_powers(base.space, {"x": ONE}, limit)


def test_the_sign_and_shuffle_kernels_are_not_exported():
    """They are internal kernels, trusted with derived arguments."""
    for name in ("koszul_sign", "shuffles", "multi_shuffles"):
        assert name not in linfty.__all__
        assert not hasattr(linfty, name)
        assert callable(getattr(graded, name))
