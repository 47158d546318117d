"""The four applies against uncached oracles, and the memo they share.

coderivation_apply, morphism_apply, module_apply and module_morphism_apply
keep each table's image of a word (or tensor) with coefficient 1 and sum
coeff * image.  The oracles below are the uncached loops they replaced,
kept verbatim as the reference: every apply must equal its oracle on a
cold table and on a warm one, and no caller may reach the stored images.
The morphism oracle is also the ordered-composition expansion, over p!,
that the first-letter expansion replaced; the two are compared on every
word of each pooled map's default sweep and on arity-5 words.
The arity-one readouts are checked the same way: a table's _corestrict
against the arity-one part of its full apply, and the strict inverse
against the tangent + Neumann route that invert takes for non-strict maps.
The memo rests on tables being immutable after construction, as the word
kernels' memos rest on spaces being so; the last tests check both on the
ladders, instances and fixtures the suite ships.
"""

import copy
from fractions import Fraction
from functools import lru_cache
from math import factorial
import random

import pytest
from hypothesis import given, settings, strategies as st

from linfty import fixtures, instances, modules, resolutions, structures, twisting
from linfty.graded import (
    ComponentTable,
    GradedSpace,
    InputError,
    ONE,
    _accumulate,
    co_linear_part,
    el_add,
    el_scale,
    el_sub,
    expand_factors,
    koszul_sign,
    multi_shuffles,
)
from linfty.homology import is_isomorphism, linear_blocks, solve
from linfty.io import FixtureWriter, space_json
from linfty.instances import (
    _raising_linear_part,
    matrix_structure,
    random_conjugation,
    random_instance,
    random_ladder,
    random_strict_transport,
    random_weights,
)
from linfty.modules import (
    LInftyModule,
    ModuleMorphism,
    check_module_twist_consistency,
    identity_module_morphism,
    module_apply,
    module_from_morphism,
    module_morphism_apply,
    module_morphism_from_triangle,
    surviving_tensors,
    tensor_canon,
    twist_module,
    twist_module_morphism,
)
from linfty.resolutions import (
    prop_key_pipeline,
    twist_resolution,
    twist_resolution_morphism,
)
from linfty.structures import (
    LInftyMorphism,
    LInftyStructure,
    check_morphism,
    check_square_zero,
    coderivation_apply,
    compose,
    conjugate,
    identity_morphism,
    invert,
    morphism_apply,
    spaces_equal,
    strict_morphism,
)
from linfty.twisting import (
    check_morphism_twist_identities,
    check_pushforward_functoriality,
    check_structure_twist_identities,
    exp_element,
    maurer_cartan_series,
    mc_check,
    mc_preservation,
    push_mc,
    twist_morphism,
    twist_structure,
    twist_table,
    weighted_powers,
)

from test_word_kernels import oracle_shuffle_splits


# -- oracles: the uncached apply loops -----------------------------------------

def co_canon(space, terms):
    """Drop zero coefficients and words of filtration weight >= N."""
    cap = space.nilpotency_order
    return {w: q for w, q in terms.items() if q and space.word_weight(w) < cap}


def oracle_coderivation_apply(structure, coelt):
    space = structure.space
    out = {}
    for word, coeff in coelt.items():
        if not coeff:
            continue
        sizes = [k for k in range(min(len(word), structure.max_arity) + 1)
                 if k == 0 or k in structure.components]
        for eps, left, right, _ in oracle_shuffle_splits(space, word, sizes):
            for produced, q in structure.value(left).items():
                norm = space.normalize_word([produced] + right)
                if norm is not None:
                    _accumulate(out, norm[0], coeff * eps * q * norm[1])
    return co_canon(space, out)


def _compositions(n, parts):
    """Ordered compositions of n into exactly `parts` positive integers."""
    if parts == 1:
        yield (n,)
        return
    for first in range(1, n - parts + 2):
        for rest in _compositions(n - first, parts - 1):
            yield (first,) + rest


def oracle_morphism_apply(morphism, coelt):
    """Every ordered composition into p blocks along multi-shuffles, over p!."""
    src = morphism.source.space
    tgt = morphism.target.space
    out = {}
    for word, coeff in coelt.items():
        if not coeff:
            continue
        n = len(word)
        if n == 0:
            _accumulate(out, (), coeff)
            continue
        degrees = [src.degree(g) for g in word]
        for p in range(1, n + 1):
            inv_p = Fraction(1, factorial(p))
            for sizes in _compositions(n, p):
                if any(s > morphism.max_arity for s in sizes):
                    continue
                for sigma in multi_shuffles(sizes):
                    eps = koszul_sign(sigma, degrees)
                    blocks = []
                    pos = 0
                    for size in sizes:
                        value = morphism.value([word[i] for i in sigma[pos:pos + size]])
                        pos += size
                        if not value:
                            break
                        blocks.append(value)
                    else:
                        scale = coeff * eps * inv_p
                        for oword, q in expand_factors(tgt, blocks).items():
                            _accumulate(out, oword, q * scale)
    return co_canon(tgt, out)


def _oracle_split_terms(table, word, mgen, coeff, odd):
    space = table.word_space
    n = len(word)
    sizes = range(max(0, n - table.max_arity), n + 1)
    for eps, left, right, left_odd in oracle_shuffle_splits(space, word, sizes):
        value = table.value(right, mgen)
        if not value:
            continue
        norm = space.normalize_word(left)
        if norm is None:
            continue
        lword, lsign = norm
        scale = coeff * (-eps if odd and left_odd else eps) * lsign
        for produced, q in value.items():
            yield (lword, produced), q * scale


def oracle_module_apply(module, tensor_elt):
    out = {}
    for (word, mgen), coeff in tensor_elt.items():
        if not coeff:
            continue
        for oword, q in oracle_coderivation_apply(module.base, {word: ONE}).items():
            _accumulate(out, (oword, mgen), coeff * q)
        for key, q in _oracle_split_terms(module, word, mgen, coeff, odd=True):
            _accumulate(out, key, q)
    return tensor_canon(module.base.space, module.space, out)


def oracle_module_morphism_apply(mm, tensor_elt):
    out = {}
    for (word, mgen), coeff in tensor_elt.items():
        if not coeff:
            continue
        for key, q in _oracle_split_terms(mm, word, mgen, coeff, odd=False):
            _accumulate(out, key, q)
    return tensor_canon(mm.word_space, mm.target.space, out)


# -- tables under test ---------------------------------------------------------

def random_table(rng, word_space, value_space, arities, degree):
    """Admissible random values on every word of the given arities."""
    cap = word_space.nilpotency_order
    comps = {}
    for k in arities:
        row = {}
        for word in word_space.enumerate_words(k, min_arity=k):
            want = word_space.word_degree(word) + degree
            weight = word_space.word_weight(word)
            value = {g: Fraction(rng.choice((-2, -1, 1, 2)))
                     for g in value_space.basis
                     if value_space.degree(g) == want
                     and weight <= value_space.filtration(g) < cap
                     and rng.random() < 0.5}
            if value:
                row[word] = value
        if row:
            comps[k] = row
    return comps


def odd_space(seed):
    """Six generators of mixed parity, three of them odd, order 4."""
    rng = random.Random(seed)
    gens = [("a", 0, 1), ("b", 1, 1), ("c", -1, 0), ("d", 1, 2),
            ("e", 0, rng.choice((2, 3))), ("f", 2, rng.choice((2, 3)))]
    return GradedSpace(gens, 4, label=f"odd{seed}")


# seeds of matrix_structure(4) whose random_conjugation has an arity-2 part
MATRIX_SEEDS = (1, 3, 10)


@lru_cache(maxsize=None)
def matrix_case(seed):
    """A 4 x 4 matrix structure, two conjugations in a row and the maps."""
    rng = random.Random(seed)
    base, _ = matrix_structure(4, random_weights(rng, 4))
    middle, inner = random_conjugation(rng, base)
    end, outer = random_conjugation(rng, middle)
    return base, middle, end, inner, outer


@lru_cache(maxsize=None)
def odd_case(seed):
    """Random tables on odd_space(seed): two structures, a map between them
    and a conjugation of the first with parts of arity 2 and 3."""
    rng = random.Random(seed)
    space = odd_space(seed)
    src, tgt = (LInftyStructure(space, random_table(rng, space, space,
                                                    range(4), 1))
                for _ in range(2))
    shape = {1: {(g,): {g: ONE} for g in space.basis},
             **random_table(rng, space, space, (2, 3), 0)}
    return (src, tgt,
            LInftyMorphism(src, tgt,
                           random_table(rng, space, space, range(1, 4), 0)),
            conjugate(src, shape)[1])


@lru_cache(maxsize=None)
def structures_under_test():
    out = [random_instance(0)["base"]]
    for seed in MATRIX_SEEDS:
        out += matrix_case(seed)[:3]
    for seed in range(3):
        out += odd_case(seed)[:2]
    return out


@lru_cache(maxsize=None)
def morphisms_under_test():
    """random_conjugation maps, their composites, odd random maps and
    odd conjugations."""
    out = []
    for seed in MATRIX_SEEDS:
        _, _, _, inner, outer = matrix_case(seed)
        out += [inner, outer, compose(outer, inner)]
    for seed in range(3):
        out += odd_case(seed)[2:]
    return out


@lru_cache(maxsize=None)
def modules_under_test():
    return [module_from_morphism(m) for m in morphisms_under_test()[::2]]


@lru_cache(maxsize=None)
def triangles_under_test():
    out = []
    for seed in MATRIX_SEEDS:
        _, _, _, inner, outer = matrix_case(seed)
        out.append(module_morphism_from_triangle(
            outer, inner, module_from_morphism(inner),
            module_from_morphism(compose(outer, inner))))
    return out


def fresh(table):
    """An equal table, with its own memo and its base's, both empty."""
    if isinstance(table, LInftyStructure):
        return LInftyStructure(table.space, table.components)
    if isinstance(table, LInftyMorphism):
        return LInftyMorphism(table.source, table.target, table.components)
    if isinstance(table, LInftyModule):
        return LInftyModule(fresh(table.base), table.space, table.components)
    return ModuleMorphism(table.source, table.target, table.components)


def words_of(table):
    return list(table.word_space.enumerate_words(3))


def keys_of(table):
    module_space = table.space if isinstance(table, LInftyModule) \
        else table.source.space
    return list(surviving_tensors(table.word_space, module_space,
                                  words_of(table)))


COEFFS = st.sampled_from([Fraction(0), ONE, ONE, Fraction(-1), Fraction(2),
                          Fraction(-3, 2), Fraction(1, 3)])

CASES = {
    "coderivation": (structures_under_test, words_of,
                     coderivation_apply, oracle_coderivation_apply),
    "morphism": (morphisms_under_test, words_of,
                 morphism_apply, oracle_morphism_apply),
    "module": (modules_under_test, keys_of,
               module_apply, oracle_module_apply),
    "module_morphism": (triangles_under_test, keys_of,
                        module_morphism_apply, oracle_module_morphism_apply),
}


@st.composite
def table_and_element(draw, case):
    pool, keys, _, _ = CASES[case]
    table = draw(st.sampled_from(pool()))
    chosen = draw(st.lists(st.sampled_from(keys(table)), min_size=1,
                           max_size=5))
    return table, {key: draw(COEFFS) for key in chosen}


def assert_matches_oracle(case, table, elt):
    _, _, apply, oracle = CASES[case]
    expected = oracle(table, elt)
    cold = fresh(table)
    assert apply(cold, elt) == expected
    warm = apply(cold, elt)
    assert warm == expected
    # a caller that edits its result must not reach the stored images
    for key in list(warm):
        warm[key] += 1
    warm[next(iter(elt))] = Fraction(7)
    assert apply(cold, elt) == expected
    # a table warmed by other applies, one key at a time, agrees too
    for key in elt:
        apply(table, {key: ONE}).clear()
    assert apply(table, elt) == expected


@pytest.mark.parametrize("case", sorted(CASES))
def test_apply_equals_uncached_oracle(case):
    @settings(max_examples=40, deadline=None)
    @given(table_and_element(case))
    def check(drawn):
        assert_matches_oracle(case, *drawn)

    check()


@pytest.mark.parametrize("case", sorted(CASES))
def test_single_key_results_are_fresh_dicts(case):
    """The one-key apply copies its image: editing it changes nothing."""
    pool, keys, apply, oracle = CASES[case]
    for table in pool()[:2]:
        for key in keys(table):
            expected = oracle(table, {key: ONE})
            got = apply(table, {key: ONE})
            assert got == expected
            got.clear()
            got[key] = ONE
            assert apply(table, {key: ONE}) == expected


def test_pools_cover_odd_generators_and_every_arity():
    for case, (pool, _, _, _) in CASES.items():
        tables = pool()
        assert any(table.word_space.degree(g) % 2
                   for table in tables for g in table.word_space.basis), case
    assert {m.max_arity for m in morphisms_under_test()} >= {2, 3}
    assert {m.max_arity for m in modules_under_test()} >= {1, 2}
    assert all(mm.max_arity >= 1 for mm in triangles_under_test())


# -- the first-letter expansion against the ordered compositions ---------------

def assert_images_match_oracle(morphism, words):
    """Each word's image equals the oracle's, read off a cold table."""
    cold = fresh(morphism)
    for word in words:
        assert morphism_apply(cold, {word: ONE}) \
            == oracle_morphism_apply(morphism, {word: ONE}), word


def test_every_swept_word_matches_the_composition_oracle():
    """Every word a default sweep reaches, arity 4 included, on every
    pooled map."""
    arities = set()
    for m in morphisms_under_test():
        space = m.source.space
        words = list(space.enumerate_words(
            structures.default_cap(space, m.max_arity)))
        arities.update(map(len, words))
        assert_images_match_oracle(m, words)
    assert max(arities) >= 4


def deep_space():
    """Filtration-0 generators of both parities, so words of any arity
    survive order 6."""
    return GradedSpace([("a", 0, 0), ("e", 0, 0), ("c", -1, 0), ("b", 1, 0),
                        ("d", 0, 1), ("f", 1, 1)], 6, label="deep")


@pytest.mark.parametrize("seed", [0, 1])
def test_deep_words_match_the_composition_oracle(seed):
    """A non-strict map with random parts of arity 1-3 on words up to
    arity 5, where the oracle visits each partition into p blocks p! times."""
    rng = random.Random(seed)
    space = deep_space()
    ends = LInftyStructure(space, {})
    m = LInftyMorphism(ends, ends, random_table(rng, space, space,
                                                range(1, 4), 0))
    assert m.max_arity == 3 and 2 in m.components
    words = list(space.enumerate_words(5, min_arity=1))
    assert sum(len(w) == 5 and any(space.degree(g) % 2 for g in w)
               for w in words) > 0
    assert_images_match_oracle(m, words)


# -- arity-one readouts ----------------------------------------------------------

def unit_slot(tensor_elt):
    """The unit-word slot of a tensor element, as an element of the module."""
    return {g: q for (w, g), q in tensor_elt.items() if not w}


def arity_one_part(case, table, elt):
    _, _, apply, _ = CASES[case]
    image = apply(table, elt)
    return unit_slot(image) if table.key_space is not None \
        else co_linear_part(image)


@pytest.mark.parametrize("case", sorted(CASES))
def test_corestriction_equals_the_arity_one_part_of_the_apply(case):
    """On every key over words of arity 0-3 (the unit word too), and on
    their sum with mixed coefficients."""
    pool, keys, _, _ = CASES[case]
    coeffs = [Fraction(0), ONE, Fraction(-1), Fraction(2), Fraction(-3, 2)]
    for table in pool():
        every = keys(table)
        for key in every:
            assert table._corestrict({key: ONE}) \
                == arity_one_part(case, table, {key: ONE}), key
        mixed = {key: coeffs[i % len(coeffs)] for i, key in enumerate(every)}
        assert table._corestrict(mixed) == arity_one_part(case, table, mixed)


def oracle_invert(morphism, max_arity=None):
    """invert by the tangent + Neumann route for every map, strict or not."""
    src = morphism.source
    tgt = morphism.target
    inverse_map = {}
    blocks = linear_blocks(src.space, tgt.space,
                           lambda s: morphism.component(1, (s,)))
    for block, s_names, t_names in blocks.values():
        assert len(s_names) == len(t_names) and is_isomorphism(block)
        for j, t in enumerate(t_names):
            unit = [ONE if i == j else Fraction(0) for i in range(len(t_names))]
            coords = solve(block, unit)
            inverse_map[t] = {s: coords[i] for i, s in enumerate(s_names) if coords[i]}
    strict_inverse = strict_morphism(tgt, src, inverse_map)
    cap = structures.default_cap(src.space, morphism.max_arity,
                                 max_arity=max_arity)
    tangent = compose(strict_inverse, morphism, max_arity=cap)
    comps = {}
    for word in src.space.enumerate_words(cap, min_arity=1):
        total = {}
        term = {word: ONE}
        sign = 1
        while term:
            total = el_add(total, term) if sign > 0 else el_sub(total, term)
            term = el_sub(morphism_apply(tangent, term), term)
            sign = -sign
        value = co_linear_part(total)
        if value:
            comps.setdefault(len(word), {})[word] = value
    tangent_inverse = LInftyMorphism(src, src, comps)
    return compose(tangent_inverse, strict_inverse, max_arity=cap)


@lru_cache(maxsize=None)
def strict_maps():
    """A random_strict_transport out of every structure under test."""
    rng = random.Random(5)
    return [random_strict_transport(rng, s)[1] for s in structures_under_test()]


def nonstrict_maps():
    """The random_conjugation maps and odd conjugations, arities 2 and 3."""
    return ([m for seed in MATRIX_SEEDS for m in matrix_case(seed)[3:]]
            + [odd_case(seed)[3] for seed in range(3)])


def test_strict_inverse_equals_the_neumann_route():
    maps = strict_maps()
    assert any(m.components[1] != identity_morphism(m.source).components[1]
               for m in maps)
    for m in maps:
        assert m.is_strict()
        got = invert(m)
        assert got.is_strict() and got.source is m.target and got.target is m.source
        assert got == oracle_invert(m)
        assert invert(m, max_arity=2) == oracle_invert(m, max_arity=2)


def test_invert_is_two_sided_on_strict_and_conjugation_maps():
    maps = nonstrict_maps()
    assert {m.max_arity for m in maps} == {2, 3}
    for m in strict_maps() + maps:
        inverse = invert(m)
        assert compose(inverse, m) == identity_morphism(m.source)
        assert compose(m, inverse) == identity_morphism(m.target)


def test_nonstrict_invert_still_equals_the_neumann_route():
    for m in nonstrict_maps():
        assert invert(m) == oracle_invert(m)


def oracle_conjugate_components(structure, components, max_arity=None):
    """conjugate's general route for every map, strict or not: the arity-one
    part of Phi(Q(Phi^-1 w)) through the full coderivation image of Q."""
    space = structure.space
    phi = LInftyMorphism(structure, LInftyStructure(space, {}), components)
    cap = structures.default_cap(space, phi.max_arity, max_arity=max_arity)
    inverse = invert(phi, max_arity=cap)
    bound = structure.max_arity if phi.is_strict() else cap
    comps = {}
    for word in space.enumerate_words(min(cap, max(0, bound))):
        pulled = morphism_apply(inverse, {word: ONE})
        value = phi._corestrict(coderivation_apply(structure, pulled))
        if value:
            comps.setdefault(len(word), {})[word] = value
    return comps


def test_strict_conjugate_equals_the_general_route(monkeypatch):
    """The transports of random_ladder(0..19), strict maps on the odd
    spaces, and the same at cap 2: Phi_1 of the corestriction of Q gives
    the general route's components, in the same order."""
    pooled = structures_under_test()  # built before conjugate is recorded
    calls = []

    def recording(structure, components, max_arity=None):
        calls.append((structure, components, max_arity))
        return conjugate(structure, components, max_arity=max_arity)

    monkeypatch.setattr(instances, "conjugate", recording)
    monkeypatch.setattr(instances, "two_chart_ladder", lambda *args, **kw: None)
    for seed in range(20):
        instances.random_ladder(seed)
    assert len(calls) == 60  # one transport per chart
    rng = random.Random(7)
    calls += [(s, {1: _raising_linear_part(rng, s.space)}, cap)
              for s in pooled for cap in (None, 2)]
    moved = 0
    for structure, components, cap in calls:
        transported, phi = conjugate(structure, components, max_arity=cap)
        assert phi.is_strict()
        expected = oracle_conjugate_components(structure, components, cap)
        assert [list(row.items()) for row in transported.components.values()] \
            == [list(row.items()) for row in expected.values()]
        assert list(transported.components) == list(expected)
        moved += transported.components != structure.components
    assert moved >= 5


# -- words that are not canonical ---------------------------------------------------

@pytest.mark.parametrize("case", sorted(CASES))
def test_a_reordered_or_zero_word_is_served_from_its_canonical_image(case):
    """Every apply of a reordered word is its sign times the canonical
    word's image, and of a word with a repeated odd letter is empty: on a
    cold table and a warm one, and equal to the uncached oracle."""
    pool, keys, apply, oracle = CASES[case]
    tensor = case.startswith("module")
    seen = {-1: 0, 1: 0, None: 0}
    coeff = Fraction(-3, 2)
    tables = pool()
    if case == "module_morphism":  # the triangles' words carry no odd pair
        tables = tables + [identity_module_morphism(m)
                           for m in modules_under_test()]
    for table in tables:
        space = table.word_space
        odd = next(g for g in space.basis if space.degree(g) % 2)
        for key in keys(table):
            word, mgen = key if tensor else (key, None)
            for probe in (word[::-1], (odd, *word, odd), word[1:] + word[:1]):
                pkey = (probe, mgen) if tensor else probe
                norm = space.normalize_word(probe)
                if norm is None:
                    expected = {}
                else:
                    canonical = (norm[0], mgen) if tensor else norm[0]
                    expected = el_scale(apply(fresh(table), {canonical: ONE}),
                                        coeff * norm[1])
                cold = fresh(table)
                assert apply(cold, {pkey: coeff}) == expected, pkey
                assert apply(cold, {pkey: coeff}) == expected, pkey
                assert oracle(table, {pkey: coeff}) == expected, pkey
                seen[norm and norm[1]] += 1
    assert min(seen.values()) > 0, seen


# -- values are fresh dicts ---------------------------------------------------------

def test_mutating_a_value_leaves_the_table_unchanged():
    """value() returns a fresh dict under either Koszul sign."""
    seen = set()
    for table in structures_under_test():
        space = table.word_space
        for arity, row in table.components.items():
            for word in row:
                odd = [g for g in word if space.degree(g) % 2]
                if len(set(odd)) < 2:
                    continue
                a, b = word.index(odd[0]), word.index(odd[-1])
                swapped = list(word)
                swapped[a], swapped[b] = swapped[b], swapped[a]
                for factors, sign in ((list(word), 1), (swapped, -1)):
                    assert space.normalize_word(factors) == (word, sign)
                    before = copy.deepcopy(table.components)
                    expected = el_scale(table.component(arity, word), sign)
                    got = table.value(factors)
                    assert got == expected
                    # an int when integral, else a Fraction with denominator > 1
                    assert all(type(q) is int or (type(q) is Fraction
                                                  and q.denominator > 1)
                               for q in got.values())
                    for g in list(got):
                        got[g] += 1
                    got["extra"] = ONE
                    assert table.components == before
                    assert table.value(factors) == expected
                    seen.add(sign)
    assert seen == {1, -1}


# -- the memo is not part of the value ------------------------------------------

def memo_slots(cls):
    """Every memo a class keeps: its slots other than __dict__."""
    return tuple(name for name in cls.__slots__ if name != "__dict__")


TABLE_MEMOS = memo_slots(ComponentTable)
SPACE_MEMOS = memo_slots(GradedSpace)


def dict_attributes(table):
    return {name: copy.deepcopy(value) for name, value in vars(table).items()
            if isinstance(value, dict)}


def a_datum(space):
    """{g: 1} for the first generator a twist can use: degree 0, level >= 1."""
    return {next(g for g, degree, level in space.generators
                 if degree == 0 and level >= 1): ONE}


def test_memo_stays_out_of_vars_and_equality():
    """Applies and twists leave vars(table) as it was; a warm and a cold
    table are equal and are written as the same fixture."""
    for case, (pool, keys, apply, _) in sorted(CASES.items()):
        table = fresh(pool()[0])
        names, dicts = set(vars(table)), dict_attributes(table)
        for key in keys(table):
            apply(table, {key: ONE})
        twist_table(table, a_datum(table.word_space))
        assert all(getattr(table, memo) for memo in TABLE_MEMOS), case
        assert set(vars(table)) == names, case
        assert names.isdisjoint(TABLE_MEMOS), case
        assert dict_attributes(table) == dicts, case
        cold = fresh(table)
        assert cold == table and table == cold
        warm_writer, cold_writer = FixtureWriter(), FixtureWriter()
        assert warm_writer.add(table, case) == cold_writer.add(cold, case)
        assert warm_writer.raw == cold_writer.raw, case


def test_each_table_applies_itself_to_a_key_once(monkeypatch):
    calls = []
    image = structures._coderivation_image

    def counting(table, word):
        calls.append(word)
        return image(table, word)

    monkeypatch.setattr(structures, "_coderivation_image", counting)
    table = fresh(structures_under_test()[1])
    words = words_of(table)
    for _ in range(3):
        coderivation_apply(table, {word: ONE for word in words})
    assert sorted(calls) == sorted(words)


def test_space_memos_stay_out_of_vars_equality_and_fixtures():
    """A space warmed by a ladder check keeps vars(space) as it was built;
    it equals a cold copy and the fixture writer stores the two once."""
    ladder, xi = random_ladder(0)
    space = ladder.source.base.space
    cold = GradedSpace(space.generators, space.nilpotency_order, space.label)
    before = copy.deepcopy(vars(space))
    assert prop_key_pipeline(ladder, xi)["verdict"] == "quasi-isomorphism"
    assert all(getattr(space, memo) for memo in SPACE_MEMOS)
    assert vars(space) == before == vars(cold)
    assert set(vars(space)).isdisjoint(SPACE_MEMOS)
    assert spaces_equal(space, cold) and spaces_equal(cold, space)
    writer = FixtureWriter()
    assert writer.add(space, "warm") == writer.add(cold, "cold") == "warm"
    assert writer.raw["spaces"] == {"warm": space_json(cold)}


# -- the twist memo: fresh answers, no invalid data, each row once ---------------

def vandalize(terms):
    """Change every value of a nested dict of scalars and add a key."""
    for key, value in list(terms.items()):
        if isinstance(value, dict):
            vandalize(value)
        else:
            terms[key] = value + 1
    terms["extra"] = ONE


def test_twists_hand_out_fresh_dicts():
    inst = random_instance(0)
    base, pi, f = fresh(inst["base"]), inst["pi"], fresh(inst["morphism"])
    second = el_scale(pi, 2)

    def answers():
        return (twist_table(base, pi), twist_table(f, second),
                push_mc(f, pi), maurer_cartan_series(base, second))

    expected = copy.deepcopy(answers())
    assert all(expected)
    for _ in range(2):
        for got in answers():
            vandalize(got)
        assert answers() == expected
        assert twist_structure(base, pi).components == expected[0]


INVALID_DATA = (({"w": ONE}, "unknown generator 'w'"),
                ({"c": ONE}, "shifted degree 0"),
                ({"z": ONE}, "positive filtration"),
                ({"x": 0.5}, "exact scalars required, got float"),
                ({"x": True}, "exact scalars required, got bool"))


@pytest.mark.parametrize("pi, message", INVALID_DATA)
def test_an_invalid_datum_raises_each_time_and_is_never_kept(pi, message):
    space = GradedSpace([("x", 0, 1), ("z", 0, 0), ("c", 1, 2)], 3)
    structure = LInftyStructure(space, {2: {("x", "x"): {"c": ONE}}})
    morphism = identity_morphism(structure)
    calls = (lambda: twist_table(structure, pi),
             lambda: twist_structure(structure, pi),
             lambda: maurer_cartan_series(structure, pi),
             lambda: mc_check(structure, pi),
             lambda: push_mc(morphism, pi),
             lambda: twist_morphism(morphism, pi),
             lambda: exp_element(space, pi),
             lambda: weighted_powers(space, pi))
    for call in calls:
        for _ in range(2):
            with pytest.raises(InputError, match=message):
                call()
    assert structure._twists == morphism._twists == space._powers == {}


def datum_checks(monkeypatch):
    """The data validate_twist_datum checks, wherever it is bound: those it
    is given and reads the degree of, rather than taking back as checked."""
    checked, degrees = [], []
    validate, degree = twisting.validate_twist_datum, twisting.element_degree

    def reading(space, pi):
        degrees.append(pi)
        return degree(space, pi)

    def counting(space, pi):
        before = len(degrees)
        out = validate(space, pi)
        if len(degrees) > before:
            checked.append(pi)
        return out

    monkeypatch.setattr(twisting, "element_degree", reading)
    for module in (twisting, modules, resolutions):
        monkeypatch.setattr(module, "validate_twist_datum", counting)
    return checked


def instance_calls():
    """Public twisting calls on one instance's fresh tables, with the data
    each is given."""
    inst = random_instance(1)
    base, pi, f = fresh(inst["base"]), inst["pi"], fresh(inst["morphism"])
    space, second = base.space, el_scale(pi, 2)
    module = module_from_morphism(f)
    return [
        (lambda: twist_table(base, pi), (pi,)),
        (lambda: twist_structure(base, pi), (pi,)),
        (lambda: maurer_cartan_series(base, pi), (pi,)),
        (lambda: mc_check(base, pi, "series"), (pi,)),
        (lambda: mc_check(base, pi, "full"), (pi,)),
        (lambda: mc_check(base, pi), (pi,)),
        (lambda: push_mc(f, pi), (pi,)),
        (lambda: twist_morphism(f, pi), (pi,)),
        (lambda: mc_preservation(f, pi), (pi,)),
        (lambda: weighted_powers(space, pi), (pi,)),
        (lambda: exp_element(space, pi), (pi,)),
        (lambda: twist_module(module, pi), (pi,)),
        (lambda: twist_module_morphism(identity_module_morphism(module), pi),
         (pi,)),
        (lambda: check_pushforward_functoriality(invert(f), f, pi), (pi,)),
        (lambda: check_structure_twist_identities(base, pi, second),
         (pi, second)),
        (lambda: check_morphism_twist_identities(f, pi, second),
         (pi, second)),
    ]


def ladder_calls():
    ladder, xi = random_ladder(28)
    return [(lambda: twist_resolution(ladder.source, xi), (xi,)),
            (lambda: twist_resolution_morphism(ladder, xi), (xi,))]


@pytest.mark.parametrize("calls", [instance_calls, ladder_calls])
def test_each_public_twisting_call_validates_each_datum_once(monkeypatch,
                                                             calls):
    """Nested twists, rows, powers and pushforwards take the checked datum:
    a public call checks each datum it is given once, cold and warm, and
    each datum it derives (a pushforward, a sum) at most once."""
    checked = datum_checks(monkeypatch)
    for index in range(len(calls())):
        call, given = calls()[index]  # fresh tables: the first call is cold
        for _ in ("cold", "warm"):
            checked.clear()
            call()
            ids = [id(pi) for pi in checked]  # checked keeps them alive
            assert len(set(ids)) == len(ids), index
            assert [ids.count(id(pi)) for pi in given] == [1] * len(given)


def test_a_validated_datum_is_read_only_and_marked_with_its_space():
    inst = random_instance(1)
    space, pi = inst["base"].space, inst["pi"]
    checked = twisting.validate_twist_datum(space, pi)
    assert checked == pi and checked is not pi
    assert twisting.validate_twist_datum(space, checked) is checked
    other = GradedSpace([(g, space.degree(g), space.filtration(g))
                         for g in space.basis], space.nilpotency_order)
    assert twisting.validate_twist_datum(other, checked) is not checked
    key = next(iter(checked))
    for mutate in (lambda d: d.__setitem__(key, 5),
                   lambda d: d.__delitem__(key), lambda d: d.__ior__({}),
                   lambda d: d.update({}), lambda d: d.pop(key),
                   lambda d: d.popitem(), lambda d: d.clear(),
                   lambda d: d.setdefault(key, 1)):
        with pytest.raises(TypeError, match="read-only"):
            mutate(checked)
    assert checked == pi
    for copied in (copy.copy(checked), copy.deepcopy(checked)):
        assert type(copied) is dict and copied == pi


def kept_rows(table):
    """The twisted rows a table keeps, by (datum, arity)."""
    return {key: row for key, row in table._twists.items()
            if not isinstance(key, frozenset)}


def dict_ids(terms):
    """ids of a nested dict and of every dict inside it."""
    ids, stack = set(), [terms]
    while stack:
        d = stack.pop()
        if isinstance(d, dict):
            ids.add(id(d))
            stack.extend(d.values())
    return ids


def test_twisted_objects_read_the_kept_rows_and_leave_them_alone():
    """Twisted tables are built from the kept rows without a copy: the rows
    stay as they were, and no twisted component is one of their dicts."""
    pairs = []  # (table, its twist) for every table twisted below
    for seed in range(3):
        inst = random_instance(seed)
        base, pi, f = fresh(inst["base"]), inst["pi"], fresh(inst["morphism"])
        module = module_from_morphism(f)
        tables = (base, f, module)
        for table in tables:
            twist_table(table, pi)  # keep every row before the build
        before = [copy.deepcopy(kept_rows(t)) for t in tables]
        f_pi = twist_morphism(f, pi)
        builds = [(base, twist_structure(base, pi)), (f, f_pi),
                  (base, f_pi.source), (module, twist_module(module, pi))]
        for table, rows in zip(tables, before):
            assert rows and kept_rows(table) == rows
        pairs += builds
    for seed in range(2):
        ladder, xi = random_ladder(seed)
        tables = [*ladder.verticals()]
        for diagram in (ladder.source, ladder.target):
            tables += [*diagram.modules(), *diagram.maps()]
        for table in tables:
            twist_table(table, xi)
        before = [copy.deepcopy(kept_rows(t)) for t in tables]
        twisted = twist_resolution_morphism(ladder, xi)
        twisted_tables = [*twisted.verticals()]
        for diagram in (twisted.source, twisted.target):
            twisted_tables += [*diagram.modules(), *diagram.maps()]
        for table, rows in zip(tables, before):
            assert kept_rows(table) == rows
        pairs += zip(tables, twisted_tables)
    for table, twist in pairs:
        assert twist.components
        assert not dict_ids(twist.components) & dict_ids(kept_rows(table))


def test_each_table_computes_each_twisted_row_once(monkeypatch):
    """Across the instance checks, a table twists a row by a datum once."""
    rows = []
    twisted_row = twisting._twisted_row

    def counting(table, pi, k):
        rows.append((table, frozenset(pi.items()), k))
        return twisted_row(table, pi, k)

    monkeypatch.setattr(twisting, "_twisted_row", counting)
    for seed in range(3):
        inst = random_instance(seed)
        base, pi, f = inst["base"], inst["pi"], inst["morphism"]
        twisted = twist_structure(base, pi)
        assert mc_preservation(f, pi) == inst["pi_pushed"]
        assert check_square_zero(twisted) and twisted.is_flat()
        assert check_morphism(twist_morphism(f, pi))
        second = el_scale(pi, 2)
        assert check_structure_twist_identities(base, pi, second)
        assert check_morphism_twist_identities(f, pi, second)
        assert check_pushforward_functoriality(invert(f), f, pi)
        assert check_module_twist_consistency(f, pi)
    computed = [(id(table), datum, k) for table, datum, k in rows]
    assert computed and len(computed) == len(set(computed))


# -- immutability: nothing changes after construction ---------------------------

def attributes(obj):
    """Every attribute binding of obj: vars(obj) and its slots."""
    slots = [name for cls in type(obj).__mro__
             for name in getattr(cls, "__slots__", ()) if name != "__dict__"]
    return {**vars(obj), **{name: getattr(obj, name) for name in slots}}


def content(obj):
    """What a table or space is: its components, or a space's attributes."""
    return obj.components if isinstance(obj, ComponentTable) else vars(obj)


@pytest.fixture
def built_tables(monkeypatch):
    """Every table and space built in the test, with a snapshot taken at
    construction."""
    built = []

    def recording(build):
        def record(self, *args, **kwargs):
            build(self, *args, **kwargs)
            built.append((self, attributes(self), copy.deepcopy(content(self))))
        return record

    monkeypatch.setattr(ComponentTable, "_set_components",
                        recording(ComponentTable._set_components))
    monkeypatch.setattr(GradedSpace, "__init__",
                        recording(GradedSpace.__init__))
    return built


def assert_unchanged(built):
    # both spaces and tables were built
    assert {type(obj) is GradedSpace for obj, _, _ in built} == {True, False}
    for obj, attrs, snapshot in built:
        assert content(obj) == snapshot
        now = attributes(obj)
        assert now.keys() == attrs.keys()
        assert all(now[name] is value for name, value in attrs.items())


def test_ladders_leave_every_table_unchanged(built_tables):
    for seed in range(3):
        ladder, xi = random_ladder(seed)
        assert prop_key_pipeline(ladder, xi)["verdict"] == "quasi-isomorphism"
    assert_unchanged(built_tables)


def test_instances_leave_every_table_unchanged(built_tables):
    for seed in range(6):
        inst = random_instance(seed)
        base, pi, f = inst["base"], inst["pi"], inst["morphism"]
        assert check_square_zero(twist_structure(base, pi))
        assert mc_preservation(f, pi) == inst["pi_pushed"]
        assert check_morphism(twist_morphism(f, pi))
        second = el_scale(pi, 2)
        assert check_structure_twist_identities(base, pi, second)
        assert check_morphism_twist_identities(f, pi, second)
        assert check_pushforward_functoriality(invert(f), f, pi)
        assert check_module_twist_consistency(f, pi)
    assert_unchanged(built_tables)


def test_fixture_builders_leave_every_table_unchanged(built_tables):
    for build in fixtures.REGISTRY.values():
        build()
    assert_unchanged(built_tables)
