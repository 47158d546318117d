"""Sign, shuffle and word tests for the graded substrate.

The oracles here recompute signs and shuffles by a different method than the
package (adjacent transpositions vs inversion pairs, permutation filtering vs
combination enumeration) so agreement is meaningful.  Component tables are
checked against the two-pass construction loop they replaced, kept here, and
the many-term accumulators against the per-term loop of _accumulate; a guard
keeps the zero-drop rule written out in graded.py alone.
"""

import ast
import copy
from fractions import Fraction
import itertools
from pathlib import Path
import random
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from linfty.graded import (
    _MESSAGES,
    ComponentTable,
    GradedSpace,
    InputError,
    ONE,
    _accumulate,
    _add_scaled,
    _add_word,
    co_from_element,
    el_add,
    el_scale,
    element_degree,
    exact_element,
    expand_factors,
    filtration_weight,
    format_scalar,
    koszul_sign,
    multi_shuffles,
    parse_scalar,
    shuffles,
    sym_mul,
)
from linfty.modules import LInftyModule
from linfty.structures import LInftyStructure, coderivation_apply


# -- independent oracles -----------------------------------------------------

def koszul_oracle(perm, degrees):
    """Move factors one adjacent swap at a time; each odd-odd swap flips."""
    arrangement = list(range(len(perm)))
    sign = 1
    for target_pos, orig in enumerate(perm):
        i = arrangement.index(orig)
        while i > target_pos:
            left = arrangement[i - 1]
            if degrees[left] % 2 and degrees[orig] % 2:
                sign = -sign
            arrangement[i - 1], arrangement[i] = arrangement[i], arrangement[i - 1]
            i -= 1
    return sign


def shuffle_oracle(k, l):
    """Filter the full symmetric group for block-increasing permutations."""
    out = []
    for p in itertools.permutations(range(k + l)):
        if all(p[i] < p[i + 1] for i in range(k - 1)):
            if all(p[i] < p[i + 1] for i in range(k, k + l - 1)):
                out.append(p)
    return sorted(out)


def multi_shuffle_oracle(blocks):
    out = []
    bounds = []
    start = 0
    for b in blocks:
        bounds.append((start, start + b))
        start += b
    for p in itertools.permutations(range(start)):
        if all(all(p[i] < p[i + 1] for i in range(a, b - 1)) for a, b in bounds):
            out.append(p)
    return sorted(out)


perms = st.integers(1, 5).flatmap(lambda n: st.permutations(list(range(n))))


def perm_with_degrees():
    return st.integers(1, 5).flatmap(
        lambda n: st.tuples(
            st.permutations(list(range(n))),
            st.lists(st.integers(-2, 3), min_size=n, max_size=n),
        )
    )


# -- scalars -----------------------------------------------------------------

def test_scalar_round_trip():
    for text, value in [("3", Fraction(3)), ("-7/2", Fraction(-7, 2)),
                        ("0", Fraction(0)), ("4/6", Fraction(2, 3))]:
        assert parse_scalar(text) == value
    assert format_scalar(Fraction(-7, 2)) == "-7/2"
    assert format_scalar(Fraction(4, 2)) == "2"
    assert parse_scalar(format_scalar(Fraction(22, 7))) == Fraction(22, 7)


def test_parse_scalar_gives_an_int_when_integral():
    for given, want in [(3, 3), ("-4", -4), (" 6/3 ", 2), (Fraction(10, 5), 2),
                        ("1/2", Fraction(1, 2)), (Fraction(-3, 6), Fraction(-1, 2))]:
        got = parse_scalar(given)
        assert got == want and type(got) is type(want)
    assert format_scalar(2) == format_scalar(Fraction(2)) == "2"


def test_scalar_rejects_floats_and_garbage():
    with pytest.raises(InputError):
        parse_scalar(1.5)
    with pytest.raises(InputError):
        parse_scalar("1.5")
    with pytest.raises(InputError):
        parse_scalar("1/0")
    with pytest.raises(InputError):
        parse_scalar(None)
    # writing a scalar takes the same door: a float is not rounded into p/q
    for bad in (0.5, True):
        with pytest.raises(InputError):
            format_scalar(bad)


# -- koszul sign ---------------------------------------------------------------

def test_koszul_sign_frozen_example():
    # degrees (1,1,0), word reordered to (g2, g3, g1): one odd-odd inversion.
    assert koszul_sign((1, 2, 0), (1, 1, 0)) == -1
    # swapping two odd factors flips, odd-even swap does not
    assert koszul_sign((1, 0), (1, 1)) == -1
    assert koszul_sign((1, 0), (1, 0)) == 1
    assert koszul_sign((0, 1, 2), (1, 1, 1)) == 1


def test_koszul_sign_rejects_malformed():
    with pytest.raises(InputError):
        koszul_sign((0, 0), (1, 1))
    with pytest.raises(InputError):
        koszul_sign((0, 2), (1, 1))
    with pytest.raises(InputError):
        koszul_sign((0, 1), (1,))


@given(perm_with_degrees())
def test_koszul_sign_matches_transposition_oracle(data):
    perm, degrees = data
    assert koszul_sign(tuple(perm), tuple(degrees)) == koszul_oracle(perm, degrees)


@given(perm_with_degrees(), st.randoms(use_true_random=False))
def test_koszul_sign_is_multiplicative(data, rng):
    """epsilon of a composite equals the product of the factors' signs."""
    p, degrees = data
    n = len(p)
    q = list(range(n))
    rng.shuffle(q)
    composite = tuple(p[q[i]] for i in range(n))
    degrees_after_p = [degrees[p[j]] for j in range(n)]
    assert koszul_sign(composite, tuple(degrees)) == \
        koszul_sign(tuple(p), tuple(degrees)) * koszul_sign(tuple(q), tuple(degrees_after_p))


@given(perm_with_degrees())
def test_koszul_sign_inverse(data):
    perm, degrees = data
    n = len(perm)
    inv = [0] * n
    for i, v in enumerate(perm):
        inv[v] = i
    degrees_after = [degrees[perm[j]] for j in range(n)]
    assert koszul_sign(tuple(perm), tuple(degrees)) * \
        koszul_sign(tuple(inv), tuple(degrees_after)) == 1


# -- shuffles ------------------------------------------------------------------

def test_shuffles_edge_cases():
    assert shuffles(0, 0) == [()]
    assert shuffles(2, 0) == [(0, 1)]
    assert shuffles(0, 3) == [(0, 1, 2)]
    assert shuffles(1, 1) == [(0, 1), (1, 0)]


def test_shuffles_frozen_2_1():
    assert shuffles(2, 1) == [(0, 1, 2), (0, 2, 1), (1, 2, 0)]


@given(st.integers(0, 4), st.integers(0, 4))
def test_shuffles_match_filter_oracle(k, l):
    got = shuffles(k, l)
    assert got == shuffle_oracle(k, l)
    # count is the binomial coefficient
    import math
    assert len(got) == math.comb(k + l, k)


@settings(deadline=None, max_examples=40)
@given(st.lists(st.integers(1, 3), min_size=1, max_size=3).filter(lambda b: sum(b) <= 7))
def test_multi_shuffles_match_filter_oracle(blocks):
    got = sorted(multi_shuffles(blocks))
    assert got == multi_shuffle_oracle(blocks)
    import math
    n = sum(blocks)
    expected = math.factorial(n)
    for b in blocks:
        expected //= math.factorial(b)
    assert len(got) == expected


def test_multi_shuffles_single_block_is_identity():
    assert multi_shuffles([4]) == [(0, 1, 2, 3)]


# -- spaces and words ------------------------------------------------------------

def two_gen_space():
    # one even, one odd generator in shifted degrees
    return GradedSpace([("a", 0, 1), ("b", 1, 1)], nilpotency_order=3)


def test_space_sorts_basis_and_validates():
    sp = GradedSpace([("z", 1, 0), ("a", 0, 0), ("m", 0, 0)], 2)
    assert sp.basis == ("a", "m", "z")
    assert sp.degree("z") == 1 and sp.filtration("z") == 0
    with pytest.raises(InputError):
        GradedSpace([("a", 0, 0), ("a", 1, 0)], 2)
    with pytest.raises(InputError):
        GradedSpace([("a", 0, 5)], 2)
    with pytest.raises(InputError):
        GradedSpace([("a|b", 0, 0)], 2)
    with pytest.raises(InputError):
        GradedSpace([("a", 0, 0)], 0)


@pytest.mark.parametrize("order", [2.5, "2", None, True])
def test_space_rejects_an_order_that_is_not_an_int(order):
    # a float order would truncate at a fractional weight, a bool pass as 1
    with pytest.raises(InputError, match="nilpotency order must be a positive integer"):
        GradedSpace([("a", 0, 0)], order)


def test_normalize_word_sorts_with_sign():
    sp = two_gen_space()
    assert sp.normalize_word(["a", "b"]) == (("a", "b"), 1)
    # moving odd b past even a carries no sign
    assert sp.normalize_word(["b", "a"]) == (("a", "b"), 1)
    # repeated odd generator kills the word
    assert sp.normalize_word(["b", "b"]) is None
    assert sp.normalize_word(["a", "a"]) == (("a", "a"), 1)
    assert sp.normalize_word([]) == ((), 1)


def test_normalize_word_odd_odd_swap():
    sp = GradedSpace([("p", 1, 0), ("q", 1, 0)], 2)
    assert sp.normalize_word(["q", "p"]) == (("p", "q"), -1)


@given(st.data())
def test_normalize_word_consistent_with_koszul_sign(data):
    gens = [("g0", 0, 0), ("g1", 1, 0), ("g2", 1, 0), ("g3", 2, 0), ("g4", -1, 0)]
    sp = GradedSpace(gens, 5)
    word = data.draw(st.lists(st.sampled_from(sp.basis), min_size=0, max_size=4))
    perm = data.draw(st.permutations(list(range(len(word)))))
    base = sp.normalize_word(word)
    permuted = sp.normalize_word([word[perm[i]] for i in range(len(word))])
    if base is None:
        assert permuted is None
        return
    degrees = [sp.degree(g) for g in word]
    sign = koszul_sign(tuple(perm), tuple(degrees))
    assert permuted == (base[0], base[1] * sign)


def test_word_weight_of_an_unknown_generator_is_an_input_error():
    sp = GradedSpace([("a", 0, 1), ("b", 1, 0)], 3)
    for _ in range(2):  # the failure is not memoized
        with pytest.raises(InputError, match="unknown generator 'c' in word"):
            sp.word_weight(("a", "c"))
    assert sp.word_weight(("a", "b")) == 1


def test_word_degree_of_an_unknown_generator_is_an_input_error():
    sp = GradedSpace([("a", 0, 1), ("b", 1, 0)], 3)
    for _ in range(2):
        with pytest.raises(InputError, match="unknown generator 'c' in word"):
            sp.word_degree(("a", "c"))
    assert sp.word_degree(("a", "b")) == 1


def test_enumerate_words_respects_weight_and_odd_squares():
    # x at level 1, c at level 2, truncation order 3: (x,c) and (c,c) vanish
    sp = GradedSpace([("x", 0, 1), ("c", 1, 2)], 3)
    words = list(sp.enumerate_words(3))
    assert words == [(), ("x",), ("c",), ("x", "x")]


def test_enumerate_words_orders_by_arity_then_index():
    sp = GradedSpace([("a", 0, 0), ("b", 1, 0)], 2)
    assert list(sp.enumerate_words(2)) == [
        (), ("a",), ("b",), ("a", "a"), ("a", "b")]


def test_enumerate_words_rejects_a_negative_arity_cap():
    # an empty sweep would let every check over it pass vacuously
    sp = GradedSpace([("a", 0, 0)], 2)
    with pytest.raises(InputError, match="max_arity must be nonnegative"):
        list(sp.enumerate_words(-1))


@pytest.mark.parametrize("cap", [1.5, "2", True, None])
def test_enumerate_words_rejects_a_cap_that_is_not_an_int(cap):
    # True would sweep as if the cap were 1
    sp = GradedSpace([("a", 0, 0)], 2)
    with pytest.raises(InputError, match="max_arity must be an integer"):
        list(sp.enumerate_words(cap))


@pytest.mark.parametrize("floor, message", [
    (-1, "min_arity must be nonnegative, got -1"),
    (1.5, "min_arity must be an integer, got float"),
    ("1", "min_arity must be an integer, got str"),
    (True, "min_arity must be an integer, got bool"),  # not a floor of 1
])
def test_enumerate_words_rejects_a_bad_arity_floor(floor, message):
    sp = GradedSpace([("a", 0, 0)], 2)
    with pytest.raises(InputError, match=message):
        list(sp.enumerate_words(2, min_arity=floor))


# -- element and coalgebra helpers --------------------------------------------------

def test_element_degree_and_weight():
    sp = two_gen_space()
    assert element_degree(sp, {"a": Fraction(2)}) == 0
    assert element_degree(sp, {}) is None
    with pytest.raises(InputError):
        element_degree(sp, {"a": Fraction(1), "b": Fraction(1)})
    assert filtration_weight(sp, {"a": Fraction(1)}) == 1
    assert filtration_weight(sp, {}) == 3


def test_el_add_cancels_to_empty():
    a = {"a": Fraction(1, 2)}
    assert el_add(a, el_scale(a, -1)) == {}


@pytest.mark.parametrize("scalar", [0.1, 1.0, True])
def test_el_scale_rejects_floats_and_bools(scalar):
    with pytest.raises(InputError):
        el_scale({"x": Fraction(1)}, scalar)


def test_coderivation_images_truncate_heavy_words():
    """Q(x) = Q_1(x) + Q_0 v x, and Q_0 v x has weight 3 = N: dropped."""
    sp = GradedSpace([("x", 0, 1), ("y", 1, 1), ("c", 1, 2)], 3)
    q = LInftyStructure(sp, {0: {(): {"c": 1}}, 1: {("x",): {"y": 1}}})
    assert coderivation_apply(q, {("x",): ONE}) == {("y",): 1}
    assert coderivation_apply(q, {(): ONE}) == {("c",): 1}


def test_expand_factors_bilinear_with_signs():
    sp = GradedSpace([("p", 1, 0), ("q", 1, 0)], 2)
    one_p = {"p": Fraction(1)}
    mix = {"p": Fraction(2), "q": Fraction(3)}
    # p v (2p + 3q): p v p dies, p v q keeps order
    assert expand_factors(sp, [one_p, mix]) == {("p", "q"): Fraction(3)}
    # reversed arguments pick up the odd-odd sign
    assert expand_factors(sp, [mix, one_p]) == {("p", "q"): Fraction(-3)}


def test_expand_factors_does_not_weight_truncate():
    # evaluation-side expansion keeps heavy words; components vanish there instead
    sp = GradedSpace([("x", 0, 1), ("c", 1, 2)], 3)
    got = expand_factors(sp, [{"x": Fraction(1)}, {"c": Fraction(1)}])
    assert got == {("x", "c"): Fraction(1)}


def test_sym_mul_truncates():
    sp = GradedSpace([("x", 0, 1), ("c", 1, 2)], 3)
    xw = {("x",): Fraction(1)}
    cw = {("c",): Fraction(1)}
    assert sym_mul(sp, xw, xw) == {("x", "x"): Fraction(1)}
    assert sym_mul(sp, xw, cw) == {}
    assert sym_mul(sp, {(): Fraction(2)}, cw) == {("c",): Fraction(2)}


def test_sym_power_of_odd_element_vanishes():
    """The square of an odd element is zero; the unit word is the 0th power."""
    sp = GradedSpace([("p", 1, 0)], 2)
    unit = {(): Fraction(1)}
    pw = co_from_element({"p": Fraction(1)})
    assert sym_mul(sp, sym_mul(sp, unit, pw), pw) == {}
    assert sym_mul(sp, pw, pw) == {}
    assert sym_mul(sp, unit, unit) == unit


def test_sym_power_collects_multiplicity():
    """Chained products of one even element collect into one word."""
    sp = GradedSpace([("x", 0, 1)], 4)
    xw = co_from_element({"x": Fraction(1, 2)})
    got = sym_mul(sp, sym_mul(sp, sym_mul(sp, {(): Fraction(1)}, xw), xw), xw)
    assert got == {("x", "x", "x"): Fraction(1, 8)}


# -- component tables ----------------------------------------------------------------

def oracle_set_components(word_space, value_space, components, degree,
                          key_space=None):
    """The two-pass loop that built every table before, kept as the reference:
    a fresh dict per canonical key, each value sign-folded into it."""
    tensor = key_space is not None
    bad_arity, place, lowers, vanishing = _MESSAGES[tensor]
    out = {}
    for arity, table in components.items():
        arity = int(arity)
        if arity < 0:
            raise InputError(bad_arity)
        canon = {}
        for key, element in table.items():
            word, mgen = key if tensor else (key, None)
            word = tuple(word)
            if len(word) != arity:
                raise InputError(f"word {word} filed under arity {arity}")
            if tensor and mgen not in key_space:
                raise InputError(f"unknown module generator {mgen!r}")
            norm = word_space.normalize_word(list(word))
            element = exact_element(element)
            if norm is None:
                if element:
                    raise InputError(f"nonzero value on the zero word {word}")
                continue
            cword, sign = norm
            if element:
                value = canon.setdefault((cword, mgen) if tensor else cword, {})
                for g, q in element.items():
                    _accumulate(value, g, q * sign)
        for key, value in list(canon.items()):
            if not value:
                del canon[key]
                continue
            cword, mgen = key if tensor else (key, None)
            want = word_space.word_degree(cword) + degree
            weight = word_space.word_weight(cword)
            if tensor:
                want += key_space.degree(mgen)
                weight += key_space.filtration(mgen)
            for g in value:
                if value_space.degree(g) != want:
                    where = place.format(arity=arity, word=cword, mgen=mgen)
                    raise InputError(
                        f"{where} has degree {value_space.degree(g)} at {g}, "
                        f"expected {want}")
            if filtration_weight(value_space, value) < weight:
                raise InputError(lowers.format(word=cword, mgen=mgen))
            if weight >= word_space.nilpotency_order:
                raise InputError(vanishing.format(word=cword, mgen=mgen))
        if canon:
            out[arity] = canon
    return out


class BareTable(ComponentTable):
    def __init__(self, *args, **kwargs):
        self._set_components(*args, **kwargs)

    def _ends(self):
        return ()


# three odd generators, so reordered keys carry sign -1 and odd squares vanish
TABLE_SPACE = GradedSpace([("a", 0, 1), ("b", 1, 1), ("c", -1, 0),
                           ("d", 1, 2), ("e", 0, 2), ("f", 2, 3)], 4)
TABLE_MODULE = GradedSpace([("m", 0, 0), ("n", 1, 1), ("p", -1, 1)], 4)
TABLE_KINDS = ((1, None), (0, None), (1, TABLE_MODULE), (0, TABLE_MODULE))
TABLE_COEFFS = (1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(4, 2))


def raw_components(rng, value_space, degree, key_space, seen):
    """Raw components in the fixture's shape: keys in a random order of their
    letters, some split over two orderings that cancel in full or in part,
    some on zero words, values mixing ints and Fractions."""
    space = TABLE_SPACE
    comps = {}
    for k in range(4):
        row = {}
        for word in space.enumerate_words(k, min_arity=k):
            for mgen in key_space.basis if key_space else (None,):
                want = space.word_degree(word) + degree
                weight = space.word_weight(word)
                if key_space:
                    want += key_space.degree(mgen)
                    weight += key_space.filtration(mgen)
                value = {g: rng.choice(TABLE_COEFFS) for g in value_space.basis
                         if value_space.degree(g) == want
                         and value_space.filtration(g) >= weight
                         and rng.random() < 0.7}
                if not value:
                    continue
                first, second = (tuple(rng.sample(word, k)) for _ in range(2))
                put = (lambda w: w) if key_space is None else (lambda w: (w, mgen))
                row[put(first)] = value
                sign = space.normalize_word(first)[1]
                seen["odd sign"] += sign < 0
                if second != first and rng.random() < 0.4:
                    # the second ordering cancels the first, in full or in part
                    other = space.normalize_word(second)[1]
                    row[put(second)] = {
                        g: -q * sign * other if rng.random() < 0.7 else q
                        for g, q in value.items()}
                    seen["duplicate"] += 1
        odd = [g for g in space.basis if space.degree(g) % 2]
        zero = tuple(rng.sample(odd, 1) * 2) + tuple(rng.sample(space.basis, k - 2)) \
            if k >= 2 else None
        if zero and not key_space:
            row[zero] = {} if rng.random() < 0.5 else {"a": 0}
            seen["zero word"] += 1
        if row:
            comps[k] = row
    seen["fraction"] += any(isinstance(q, Fraction) and q.denominator > 1
                            for row in comps.values() for value in row.values()
                            for q in value.values())
    return comps


def break_one(rng, comps, value_space, degree, key_space):
    """comps with one fault: a bad value, key, arity or generator."""
    comps = copy.deepcopy(comps)
    arity = rng.choice(sorted(comps))
    row = comps[arity]
    key = rng.choice(list(row))
    word, mgen = key if key_space else (key, None)
    fault = rng.randrange(8)
    if fault == 0:
        row[key] = {**row[key], "zz": 1}  # unknown value generator
    elif fault == 1:
        row[key] = {**row[key], rng.choice("abcdef"): 1}  # likely a wrong degree
    elif fault == 2:
        row[key] = {**row[key], "a": 0.5}  # a float
    elif fault == 3:
        comps[arity + 1] = {key: row.pop(key)}  # filed under the wrong arity
    elif fault == 4:
        bad = tuple(word) + ("zz",) if key_space is None else (tuple(word) + ("zz",), mgen)
        comps.setdefault(arity + 1, {})[bad] = {"a": 1}  # unknown key letter
    elif fault == 5:
        comps[-1] = {}
    elif fault == 6:  # a value of the key's degree below its weight
        for arity, row in comps.items():
            for key in row:
                word, mgen = key if key_space else (key, None)
                norm = TABLE_SPACE.normalize_word(word)
                if norm is None or len(word) != arity:
                    continue
                want = TABLE_SPACE.word_degree(word) + degree
                weight = TABLE_SPACE.word_weight(word)
                if key_space:
                    want += key_space.degree(mgen)
                    weight += key_space.filtration(mgen)
                low = [g for g in value_space.basis
                       if value_space.degree(g) == want
                       and value_space.filtration(g) < weight]
                if low:
                    row[key] = {low[0]: 1}
                    return comps
    else:
        row[(word, "zz") if key_space else ("b", "b")[:arity]] = \
            {"a": 1}  # unknown module generator, or an odd square
    return comps


def assert_builds_like_oracle(raw, value_space, degree, key_space):
    """Equal components, equal order at every level, or the same error text.

    Returns the error text, None when the table builds.
    """
    kept = copy.deepcopy(raw)
    try:
        expected = oracle_set_components(TABLE_SPACE, value_space,
                                         copy.deepcopy(raw), degree, key_space)
    except InputError as exc:
        with pytest.raises(InputError) as got:
            BareTable(TABLE_SPACE, value_space, raw, degree, key_space)
        assert str(got.value) == str(exc)
        return str(exc)
    comps = BareTable(TABLE_SPACE, value_space, raw, degree, key_space).components
    assert comps == expected
    assert list(comps) == list(expected)
    for arity, row in expected.items():
        assert list(comps[arity].items()) == list(row.items())
        for key, value in row.items():
            assert [(g, type(q)) for g, q in comps[arity][key].items()] \
                == [(g, type(q)) for g, q in value.items()]
    assert raw == kept  # the input is read, never edited
    for row in raw.values():  # and the table holds none of its dicts
        for value in row.values():
            value["zz"] = 99
    assert comps == expected
    return None


def test_set_components_equals_the_two_pass_oracle():
    """Tables built in one pass equal the two-pass oracle's, in the same
    order at both levels, and a faulty table fails with the oracle's text."""
    rng = random.Random(0)
    seen = dict.fromkeys(("odd sign", "duplicate", "zero word", "fraction"), 0)
    texts = []
    for _ in range(25):
        for degree, key_space in TABLE_KINDS:
            value_space = key_space or TABLE_SPACE
            raw = raw_components(rng, value_space, degree, key_space, seen)
            broken = break_one(rng, raw, value_space, degree, key_space) \
                if raw else None
            assert assert_builds_like_oracle(
                raw, value_space, degree, key_space) is None
            if broken:
                texts.append(assert_builds_like_oracle(
                    broken, value_space, degree, key_space))
    assert min(seen.values()) >= 10, seen
    for kind in ("unknown generator", "has degree", "lowers filtration",
                 "filed under arity", "zero word", "unknown module generator",
                 "must be nonnegative", "exact scalars"):
        assert any(kind in (text or "") for text in texts), kind


@pytest.mark.parametrize("arity", [2.7, 2.0, True, "2", None])
def test_a_component_arity_that_is_not_an_int_is_an_input_error(arity):
    """No arity is rounded or coerced: 2.7 is not silently stored at arity 2."""
    space = GradedSpace([("a", 0, 1), ("c", 1, 2)], 3)
    with pytest.raises(InputError,
                       match=re.escape(f"component arity {arity!r} is not an integer")):
        LInftyStructure(space, {arity: {("a", "a"): {"c": 1}}})
    base = LInftyStructure(space, {})
    module = GradedSpace([("m", 0, 0)], 3)
    with pytest.raises(InputError, match="is not an integer"):
        LInftyModule(base, module, {arity: {}})
    with pytest.raises(InputError, match="^component arities must be nonnegative$"):
        LInftyStructure(space, {-1: {}})
    with pytest.raises(InputError,
                       match="^module component arities must be nonnegative$"):
        LInftyModule(base, module, {-2: {}})


# -- accumulators ------------------------------------------------------------
#
# _add_scaled and _add_word inline _accumulate's rule; the per-term loop is
# the reference, in keys, values, their types and their order.  Few keys
# and small coefficients make sums cancel often.

# Fraction(1) is an integral Fraction, as a sum inside a loop may hold.
COEFFS = st.sampled_from(
    [1, -1, 2, -2, Fraction(1), Fraction(1, 2), Fraction(-1, 2)])
ACC_SPACE = GradedSpace(
    [("x", 0, 0), ("y", 0, 0), ("a", 1, 0), ("b", 1, 0)], 3)
# a vanishes in the second step and comes back in the third
VANISHING_TERMS = [({"a": 1, "b": 1}, 1), ({"a": 1}, -1), ({"a": 2}, 1)]
# a v b cancels against b v a = -(a v b), then comes back
VANISHING_WORDS = [(("a", "b"), 1), (("b", "a"), 1), (("x",), 1),
                   (("a", "b"), 2)]


def typed(out):
    return [(key, q, type(q)) for key, q in out.items()]


@settings(derandomize=True, max_examples=200)
@example(VANISHING_TERMS)
@given(st.lists(st.tuples(
    st.dictionaries(st.sampled_from("abcd"), COEFFS, max_size=4), COEFFS),
    max_size=6))
def test_add_scaled_equals_the_per_term_accumulate_loop(steps):
    got, want = {}, {}
    for terms, c in steps:
        _add_scaled(got, terms, c)
        for key, q in terms.items():
            _accumulate(want, key, c * q)
        assert typed(got) == typed(want)


@settings(derandomize=True, max_examples=200)
@example(VANISHING_WORDS)
@given(st.lists(st.tuples(
    st.lists(st.sampled_from("xyab"), max_size=3).map(tuple), COEFFS),
    max_size=12))
def test_add_word_equals_the_per_term_accumulate_loop(terms):
    got, want = {}, {}
    for factors, q in terms:
        _add_word(got, ACC_SPACE, factors, q)
        norm = ACC_SPACE.normalize_word(factors)
        if norm is not None:
            _accumulate(want, norm[0], q * norm[1])
        assert typed(got) == typed(want)


def test_a_key_that_vanishes_comes_back_last():
    out = {}
    for terms, c in VANISHING_TERMS:
        _add_scaled(out, terms, c)
    assert list(out.items()) == [("b", 1), ("a", 2)]
    out = {}
    for factors, q in VANISHING_WORDS:
        _add_word(out, ACC_SPACE, factors, q)
    assert list(out.items()) == [(("x",), 1), (("a", "b"), 2)]


def test_an_empty_value_on_a_new_key_is_skipped():
    """An empty value files nothing, and a later value on its key is the
    first one there."""
    space = GradedSpace([("a", 0, 1), ("b", 1, 0), ("c", 2, 2)], 3)
    table = LInftyStructure(space, {1: {("a",): {}}, 2: {
        ("a", "b"): {}, ("b", "a"): {"c": 1}, ("a", "a"): {}}})
    assert table.components == {2: {("a", "b"): {"c": 1}}}


SRC = Path(__file__).resolve().parent.parent / "src" / "linfty"
ZERO_DEFAULTS = {ast.dump(ast.Name("ZERO", ast.Load())),
                 ast.dump(ast.Constant(0))}
NONE_DEFAULT = {ast.dump(ast.Constant(None))}


def called_key(node, method, defaults):
    """k when node is x.method(k, d) with d in defaults, else None."""
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == method and len(node.args) == 2
            and ast.dump(node.args[1]) in defaults):
        return ast.dump(node.args[0])
    return None


def inline_accumulations(path):
    """Functions of a module that write the zero-drop rule inline: a sum
    x.get(k, ZERO) + ... and a x.pop(k, None) on the same key k."""
    found = []
    for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(fn, ast.FunctionDef):
            continue
        gets, pops = set(), set()
        for node in ast.walk(fn):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
                gets.add(called_key(node.left, "get", ZERO_DEFAULTS))
            pops.add(called_key(node, "pop", NONE_DEFAULT))
        if (gets & pops) - {None}:
            found.append(fn.name)
    return found


def test_only_graded_writes_the_zero_drop_rule_inline():
    """Every other module sums through graded's accumulators, so the rule
    (a vanishing key is removed, and a later term re-inserts it at the end)
    lives in one module."""
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) > 10
    assert {path.name: inline_accumulations(path) for path in paths
            if path.name != "graded.py" and inline_accumulations(path)} == {}
    assert inline_accumulations(SRC / "graded.py") == [
        "_accumulate", "_add_scaled", "_add_word"]
