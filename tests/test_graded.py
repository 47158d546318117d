"""Sign, shuffle and word tests for the graded substrate.

The oracles here recompute signs and shuffles by a different method than the
package (adjacent transpositions vs inversion pairs, permutation filtering vs
combination enumeration) so agreement is meaningful.
"""

from fractions import Fraction
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from linfty.graded import (
    GradedSpace,
    InputError,
    co_canon,
    co_from_element,
    el_add,
    el_scale,
    element_degree,
    expand_factors,
    filtration_weight,
    format_scalar,
    koszul_sign,
    multi_shuffles,
    parse_scalar,
    shuffles,
    sym_mul,
)


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


def test_scalar_rejects_floats_and_garbage():
    with pytest.raises(InputError):
        parse_scalar(1.5)
    with pytest.raises(InputError):
        parse_scalar("1.5")
    with pytest.raises(InputError):
        parse_scalar("1/0")
    with pytest.raises(InputError):
        parse_scalar(None)


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


def test_co_canon_truncates_heavy_words():
    sp = GradedSpace([("x", 0, 1), ("c", 1, 2)], 3)
    raw = {("x",): Fraction(1), ("x", "c"): Fraction(5), ("c",): Fraction(0)}
    assert co_canon(sp, raw) == {("x",): Fraction(1)}


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
