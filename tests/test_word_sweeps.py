"""The word layer's fast builders against the code they replaced.

GradedSpace builds each sweep of enumerate_words by extending the words of
one arity by one letter, reads the Koszul sign and the left block's parity
of every split in one pass over the left block, and counts the inversions
of a normalization among the odd letters only; multi_shuffles keeps one
process-wide table per tuple of block sizes.  The oracles are the
earlier code, kept as the reference: a combinations_with_replacement sweep
filtered by weight, plans signed by koszul_sign, and the O(n^2) loop over
all pairs with parity lookups.  They run on random spaces with odd and even
letters, letters of filtration 0, and every (max_arity, min_arity) pair up
to 6, arity 0 and min_arity > max_arity included.
"""

import itertools
import random

import pytest

from linfty.graded import GradedSpace, koszul_sign, multi_shuffles

from test_word_kernels import oracle_enumerate_words, oracle_normalize_word


# -- oracles: the replaced code ------------------------------------------------------
#
# oracle_enumerate_words (the combinations_with_replacement sweep) and
# oracle_normalize_word (the O(n^2) loop) are test_word_kernels' copies.

def oracle_plan(parities, sizes):
    """(eps, left, right, left_odd) per split, eps by koszul_sign."""
    n = len(parities)
    plan = []
    for k in sizes:
        for sigma in multi_shuffles((k, n - k)):
            left = sigma[:k]
            plan.append((koszul_sign(sigma, parities), left, sigma[k:],
                         sum(parities[i] for i in left) % 2))
    return plan


# -- random spaces ---------------------------------------------------------------------

def random_space(seed):
    """2 to 5 letters of both parities, at least one of filtration 0."""
    rng = random.Random(seed)
    order = rng.randint(1, 4)
    n = rng.randint(2, 5)
    degrees = [0, 1] + [rng.randint(-2, 2) for _ in range(n - 2)]
    levels = [0] + [rng.randrange(order) for _ in range(n - 1)]
    rng.shuffle(levels)
    return GradedSpace([(f"g{i}", d, f) for i, (d, f)
                        in enumerate(zip(degrees, levels))], order)


SEEDS = range(12)
BOUNDS = [(hi, lo) for hi in range(7) for lo in range(7)]


def test_the_random_spaces_cover_the_edge_cases():
    spaces = [random_space(seed) for seed in SEEDS]
    for space in spaces:
        assert {space.degree(g) % 2 for g in space.basis} == {0, 1}
        assert min(map(space.filtration, space.basis)) == 0
    assert any(space.nilpotency_order == 1 for space in spaces)
    # some even letter of filtration 0 makes words of every arity
    assert any(space.degree(g) % 2 == 0 and space.filtration(g) == 0
               for space in spaces for g in space.basis)


# -- sweeps ----------------------------------------------------------------------------

@pytest.mark.parametrize("seed", SEEDS)
def test_every_sweep_matches_the_combinations_sweep(seed):
    space = random_space(seed)
    expected = {b: tuple(oracle_enumerate_words(space, *b)) for b in BOUNDS}
    assert expected[0, 0] == ((),) and expected[2, 3] == ()
    for hi, lo in BOUNDS:  # each sweep on a space that built no other
        cold = GradedSpace(space.generators, space.nilpotency_order)
        assert cold.enumerate_words(hi, lo) == expected[hi, lo]
    rng = random.Random(seed)
    for order in (BOUNDS, BOUNDS[::-1], rng.sample(BOUNDS, len(BOUNDS))):
        warm = GradedSpace(space.generators, space.nilpotency_order)
        for hi, lo in order:
            assert warm.enumerate_words(hi, lo) == expected[hi, lo]
        assert sorted(warm._words) == sorted(BOUNDS)


def test_the_memo_of_sweeps_holds_only_the_sweeps_asked_for():
    space = random_space(3)
    space.enumerate_words(5, 2)
    space.enumerate_words(1, 1)
    assert sorted(space._words) == [(1, 1), (5, 2)]
    assert len(space._arities) == 6
    for arity, row in enumerate(space._arities):
        assert all(len(word) == arity for word, _, _ in row)


def test_a_sweep_past_the_last_word_stops_extending():
    """Every letter has filtration >= 1, so no word outlives arity N - 1,
    and a huge bound builds no arity past the first empty one."""
    space = GradedSpace([("a", 0, 1), ("b", 1, 1), ("c", 2, 2)], 4)
    words = space.enumerate_words(10 ** 9)
    assert words == tuple(oracle_enumerate_words(space, 4, 0))
    assert max(map(len, words)) == 3
    assert len(space._arities) == 5 and space._arities[-1] == ()
    assert space.enumerate_words(10 ** 9, 10 ** 8) == ()


# -- split plans -------------------------------------------------------------------

def all_parities(max_n):
    return [p for n in range(max_n + 1)
            for p in itertools.product((0, 1), repeat=n)]


def test_plan_signs_and_parities_match_koszul_sign():
    """Every parity pattern of arity <= 7, every left-block size at once."""
    space = GradedSpace([("e", 0, 0), ("o", 1, 0)], 1)
    for parities in all_parities(7):
        word = tuple("o" if p else "e" for p in parities)
        sizes = tuple(range(len(word) + 1))
        assert space._split_plan(word, sizes) == oracle_plan(parities, sizes)


@pytest.mark.parametrize("seed", SEEDS)
def test_plans_of_random_words_match_koszul_sign(seed):
    space = random_space(seed)
    rng = random.Random(seed)
    for _ in range(60):
        word = tuple(rng.choice(space.basis) for _ in range(rng.randint(0, 6)))
        sizes = tuple(sorted(rng.sample(range(len(word) + 1),
                                        rng.randint(1, len(word) + 1))))
        parities = tuple(space.degree(g) % 2 for g in word)
        assert space._split_plan(word, sizes) == oracle_plan(parities, sizes)


# -- normalization -----------------------------------------------------------------

@pytest.mark.parametrize("seed", SEEDS)
def test_normalize_matches_the_all_pairs_loop(seed):
    space = random_space(seed)
    rng = random.Random(seed)
    words = [w for n in range(4) for w in itertools.product(space.basis, repeat=n)]
    words += [tuple(rng.choice(space.basis) for _ in range(rng.randint(4, 8)))
              for _ in range(300)]
    for word in words:
        assert space._normalize(word) == oracle_normalize_word(space, word), word
    # a repeated odd letter is zero wherever the repeat sits
    odd = next(g for g in space.basis if space.degree(g) % 2)
    even = next(g for g in space.basis if space.degree(g) % 2 == 0)
    assert space._normalize((odd, even, odd)) is None
    assert space._normalize((even, even)) == ((even, even), 1)


# -- the process-wide shuffle table --------------------------------------------------

def test_a_mutated_shuffle_list_leaves_the_next_call_alone():
    sizes = (2, 3)
    first = multi_shuffles(sizes)
    expected = list(first)
    first.append((9, 9, 9, 9, 9))
    first[0] = None
    first.reverse()
    second = multi_shuffles(list(sizes))
    assert second == expected and second is not first
    second.clear()
    assert multi_shuffles(iter(sizes)) == expected
