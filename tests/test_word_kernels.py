"""The memoized word kernels of GradedSpace against the uncached loops.

normalize_word, word_weight, enumerate_words and _split_plan keep what
they compute per space.  The oracles below are the loops they replaced,
kept as the reference: on random spaces with even and odd generators and
nonzero filtration levels, every word of arity <= 5 and every set of block
sizes must give the oracle's answer on a cold space and again on a warm
one.  Failures (unknown generators, bad arity bounds) must raise on every
call, never be remembered as an answer.
"""

import itertools
import random

import pytest

from linfty.graded import (
    GradedSpace,
    InputError,
    koszul_sign,
    shuffles,
)


# -- oracles: the uncached kernels ----------------------------------------------

def oracle_normalize_word(space, factors):
    for f in factors:
        if f not in space:
            raise InputError(f"unknown generator {f!r} in word")
    n = len(factors)
    sign = 1
    for i in range(n):
        di = space.degree(factors[i])
        for j in range(i + 1, n):
            if space.index(factors[i]) > space.index(factors[j]):
                if di % 2 and space.degree(factors[j]) % 2:
                    sign = -sign
    word = tuple(sorted(factors, key=space.index))
    for a, b in zip(word, word[1:]):
        if a == b and space.degree(a) % 2:
            return None
    return word, sign


def oracle_word_weight(space, word):
    return sum(space.filtration(f) for f in word)


def oracle_enumerate_words(space, max_arity, min_arity=0):
    for arity in range(min_arity, max_arity + 1):
        for combo in itertools.combinations_with_replacement(space.basis, arity):
            if any(a == b and space.degree(a) % 2
                   for a, b in zip(combo, combo[1:])):
                continue
            if oracle_word_weight(space, combo) >= space.nilpotency_order:
                continue
            yield combo


def oracle_shuffle_splits(space, word, sizes):
    degrees = [space.degree(g) for g in word]
    n = len(word)
    for k in sizes:
        for sigma in shuffles(k, n - k):
            left = sigma[:k]
            yield (koszul_sign(sigma, degrees),
                   [word[i] for i in left],
                   [word[i] for i in sigma[k:]],
                   sum(degrees[i] for i in left) % 2)


# -- random spaces ----------------------------------------------------------------

def random_space(seed):
    """3 or 4 generators, both parities, negative degrees and levels > 0."""
    rng = random.Random(seed)
    order = rng.randint(2, 4)
    n = rng.randint(3, 4)
    degrees = [0, 1] + [rng.randint(-1, 2) for _ in range(n - 2)]
    levels = [rng.randrange(order) for _ in range(n - 1)] + [order - 1]
    return GradedSpace([(f"g{i}", d, f) for i, (d, f)
                        in enumerate(zip(degrees, levels))], order)


def fresh(space):
    return GradedSpace(space.generators, space.nilpotency_order)


def all_words(space, max_arity):
    """Every ordered word of generator names with arity <= max_arity."""
    return [w for k in range(max_arity + 1)
            for w in itertools.product(space.basis, repeat=k)]


def all_sizes(n):
    """Every set of left-block sizes for a word of arity n, ascending."""
    return [s for r in range(n + 2)
            for s in itertools.combinations(range(n + 1), r)]


SEEDS = range(4)


def test_random_spaces_cover_both_parities_and_the_weight_cut():
    for seed in SEEDS:
        space = random_space(seed)
        assert {space.degree(g) % 2 for g in space.basis} == {0, 1}
        # some word of arity <= 5 without an odd square is cut by weight
        assert any(oracle_word_weight(space, w) >= space.nilpotency_order
                   and oracle_normalize_word(space, w) is not None
                   for w in all_words(space, 5))


# -- the kernels equal their oracles, cold and warm --------------------------------

@pytest.mark.parametrize("seed", SEEDS)
def test_normalize_word_and_word_weight_match_the_oracles(seed):
    space = random_space(seed)
    words = all_words(space, 5)
    expected = [(oracle_normalize_word(space, w), oracle_word_weight(space, w))
                for w in words]
    cold = [(fresh(space).normalize_word(w), fresh(space).word_weight(w))
            for w in words]
    assert cold == expected
    warm = fresh(space)
    for _ in range(2):
        assert [(warm.normalize_word(w), warm.word_weight(w))
                for w in words] == expected
    assert [(warm.normalize_word(list(w)), warm.word_weight(list(w)))
            for w in words] == expected
    assert [(fresh(space).normalize_word(list(w)),
             fresh(space).word_weight(list(w))) for w in words] == expected


@pytest.mark.parametrize("seed", SEEDS)
def test_enumerate_words_matches_the_oracle(seed):
    space = random_space(seed)
    bounds = [(hi, lo) for hi in range(6) for lo in range(7)]
    expected = {b: list(oracle_enumerate_words(space, *b)) for b in bounds}
    for hi, lo in bounds:
        assert list(fresh(space).enumerate_words(hi, min_arity=lo)) \
            == expected[hi, lo]
    warm = fresh(space)
    for _ in range(2):
        for hi, lo in bounds:
            words = warm.enumerate_words(hi, min_arity=lo)
            assert type(words) is tuple and list(words) == expected[hi, lo]
            assert warm.enumerate_words(hi, lo) is words  # shared, not rebuilt


def plan_splits(space, word, sizes):
    """space's split plan for word, with each index block read off the word."""
    return [(eps, [word[i] for i in left], [word[i] for i in right], odd)
            for eps, left, right, odd in space._split_plan(word, sizes)]


@pytest.mark.parametrize("seed", SEEDS)
def test_shuffle_splits_match_the_oracle(seed):
    space = random_space(seed)
    cases = [(w, sizes) for w in all_words(space, 4)
             for sizes in all_sizes(len(w))]
    cases += [(w, sizes) for w in space.enumerate_words(5, min_arity=5)
              for sizes in all_sizes(5)]
    cases += [(w, (len(w), 0)) for w in all_words(space, 3)]  # order kept
    expected = [list(oracle_shuffle_splits(space, w, s)) for w, s in cases]
    assert [plan_splits(fresh(space), w, s) for w, s in cases] == expected
    warm = fresh(space)
    for _ in range(2):
        assert [plan_splits(warm, w, s) for w, s in cases] == expected


# -- failures are raised on every call and never remembered --------------------------

def test_an_unknown_generator_raises_on_every_call():
    space = random_space(0)
    a = space.basis[0]
    for _ in range(2):
        with pytest.raises(InputError, match="unknown generator 'zz' in word"):
            space.normalize_word([a, "zz"])
        with pytest.raises(InputError, match="unknown generator 'zz' in word"):
            space.word_weight((a, "zz"))
        with pytest.raises(InputError, match="unknown generator 'zz'"):
            space._split_plan((a, "zz"), (1,))
    # the same lookups on known words still answer
    assert space.normalize_word([a]) == ((a,), 1)
    assert plan_splits(space, (a, a), (1,)) \
        == list(oracle_shuffle_splits(space, (a, a), (1,)))


@pytest.mark.parametrize("bounds", [(-1, 0), (1.5, 0), (True, 0), (None, 0),
                                    (2, -1), (2, True), (2, "1")])
def test_a_bad_arity_bound_raises_at_call_time(bounds):
    space = random_space(1)
    space.enumerate_words(1, 0)  # (True, 0) would hash like this sweep
    space.enumerate_words(2, 1)
    for _ in range(2):
        with pytest.raises(InputError):
            space.enumerate_words(*bounds)  # raised without iterating
