"""The library boundary takes exact dicts of tuple words, as the CLI does.

The four applies coerce each coefficient through parse_scalar, so a "p/q"
string or a Fraction is read exactly and a float or a bool is an input
error, and they take a dict of terms alone.  A word given as a str is an
input error, not a word of its letters, in an apply and in a table
constructor; element data that are not dicts (a twist datum, a table's
components, one arity's table) raise InputError, not AttributeError.  A
tensor key that is not a (word, generator) pair and a word that is not
iterable are input errors too, as are malformed arguments of twist_table
and a two-chart transports dict that lacks a chart or maps one to
something other than a morphism.  The sign and shuffle kernels are internal
and not exported.
"""

from fractions import Fraction
import re

import pytest

import linfty
from linfty import graded
from linfty.fixtures import fix_b, morphism_t
from linfty.graded import GradedSpace, InputError, ONE, exact_element
from linfty.instances import CHARTS, two_chart_diagram, two_chart_ladder
from linfty.modules import (
    LInftyModule,
    identity_module_morphism,
    module_apply,
    module_from_morphism,
    module_morphism_apply,
)
from linfty.structures import (
    LInftyStructure,
    coderivation_apply,
    morphism_apply,
)
from linfty.twisting import mc_check, twist_structure, twist_table


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


def test_the_sign_and_shuffle_kernels_are_not_exported():
    """They are internal kernels, trusted with derived arguments."""
    for name in ("koszul_sign", "shuffles", "multi_shuffles"):
        assert name not in linfty.__all__
        assert not hasattr(linfty, name)
        assert callable(getattr(graded, name))
