"""The lean word kernels against the full-image routes they replaced.

Four reads build less than they used to, and each must give what the full
route gives, key order, scalar types and error texts included:

* module_from_morphism and the triangle read the outer table through an
  index of its keys by removed letter, where the full route took
  sym_mul(F(w), m) for every surviving tensor and corestricted it;
* the square-zero sweep builds only the splits of Q(w) that land at arity
  <= m_Q, where the full route built and kept Q(w);
* a strict check_morphism reads pr1 Q(w) as the component Q_|w|(w), where
  the full route built Q(w);
* a morphism image reads the space's split plan of the word's tail, where
  the full route ran multi_shuffles and koszul_sign on every miss.

The oracles below are those full routes, kept verbatim with their own
sym_mul and corestriction.  Every call the library makes into the first
three while building the pools is recorded and replayed against them: 25
random ladders, 40 random instances with their twist checks, the fixture
registry, ladders and instances on a fractional coefficient pool, and
random tables on spaces with odd generators, passing and failing.
"""

import contextlib
from fractions import Fraction
from functools import lru_cache
from itertools import groupby
from operator import itemgetter
import random

import pytest

from linfty import fixtures, instances, modules, structures
from linfty.graded import (
    MathCheckError,
    ONE,
    _accumulate,
    co_from_element,
    el_sub,
    koszul_sign,
    multi_shuffles,
    sym_mul,
)
from linfty.instances import random_instance, random_ladder, random_strict_transport
from linfty.modules import module_from_morphism, surviving_tensors, tensor_weight
from linfty.structures import (
    LInftyMorphism,
    LInftyStructure,
    check_morphism,
    check_square_zero,
    coderivation_apply,
    conjugate,
    default_cap,
    identity_morphism,
    morphism_apply,
)

from test_apply_memo import (
    odd_case,
    oracle_coderivation_apply,
    oracle_morphism_apply,
    random_table,
)
from test_bounded_sweeps import (
    as_fractions,
    oracle_check_square_zero,
    outcome,
    perturbed,
)
from test_scalar_types import FRACTIONAL_POOL, fractional_ladder, instance_checks


# -- oracles: the full-image routes --------------------------------------------

def oracle_sym_mul(space, a, b):
    cap = space.nilpotency_order
    out = {}
    for wa, qa in a.items():
        weight_a = space.word_weight(wa)
        for wb, qb in b.items():
            if weight_a + space.word_weight(wb) >= cap:
                continue
            norm = space.normalize_word(list(wa) + list(wb))
            if norm is not None:
                _accumulate(out, norm[0], qa * qb * norm[1])
    return out


def oracle_corestrict(table, elt):
    tensor = table.key_space is not None
    out = {}
    for key, coeff in elt.items():
        arity = len(key[0] if tensor else key)
        for g, q in table.components.get(arity, {}).get(key, {}).items():
            _accumulate(out, g, coeff * q)
    return out


def oracle_joined_components(morphism, cap, outer):
    bound = morphism.max_arity * (outer.max_arity - 1)
    tensors = surviving_tensors(morphism.word_space, morphism.target.space,
                                morphism._sweep(cap, bound))
    comps = {}
    for word, keys in groupby(tensors, key=itemgetter(0)):
        image = morphism_apply(morphism, {word: ONE})
        for key in keys:
            joined = oracle_sym_mul(morphism.target.space, image,
                                    {(key[1],): ONE})
            value = oracle_corestrict(outer, joined)
            if value:
                comps.setdefault(len(word), {})[key] = value
    return comps


def oracle_square_zero_failure(structure, cap):
    return next(
        (word for word in structure._sweep(cap, 2 * structure.max_arity - 1)
         if oracle_corestrict(structure, oracle_coderivation_apply(
             structure, {word: ONE}))),
        None)


def full_route_check_morphism(morphism, cap):
    source, target = morphism.source, morphism.target
    m_f = morphism.max_arity
    bound = max(m_f + source.max_arity - 1, target.max_arity * m_f)
    for word in morphism._sweep(cap, bound):
        image = coderivation_apply(source, {word: ONE})
        pushed = morphism_apply(morphism, {word: ONE})
        if oracle_corestrict(morphism, image) \
                != oracle_corestrict(target, pushed):
            diff = el_sub(morphism_apply(morphism, image),
                          coderivation_apply(target, pushed))
            return ("morphism does not intertwine coderivations: residual "
                    f"{as_fractions(diff)} on word {word}")
    return True


def old_morphism_image(morphism, word):
    """The multi_shuffles and koszul_sign loop, uncached."""
    src = morphism.source.space
    tgt = morphism.target.space
    n = len(word)
    if n == 0:
        return {(): ONE}
    out = {}
    degrees = [src.degree(g) for g in word]
    for k in range(1, min(n, morphism.max_arity) + 1):
        for tail in multi_shuffles((k - 1, n - k)):
            sigma = (0, *(i + 1 for i in tail))
            value = morphism.component(k, [word[i] for i in sigma[:k]])
            if not value:
                continue
            rest = old_morphism_image(morphism,
                                      tuple(word[i] for i in sigma[k:]))
            eps = koszul_sign(sigma, degrees)
            for oword, q in oracle_sym_mul(tgt, co_from_element(value),
                                           rest).items():
                _accumulate(out, oword, eps * q)
    return out


def exact(value):
    """repr of a nested dict: key order and scalar types both show."""
    return repr(value)


# -- the recorded pools ----------------------------------------------------------

def strict_cases(rng, structure):
    """Strict maps out of structure: an identity, a transport (both
    passing), and the transport with a component scaled or dropped."""
    transport = random_strict_transport(rng, structure)[1]
    return [identity_morphism(structure), transport, *perturbed(transport)]


def odd_strict_cases(seed):
    """Strict maps on a space with odd generators: a strict conjugation by
    the identity plus filtration-raising terms, its perturbations, and a
    random strict map between two structures."""
    rng = random.Random(100 + seed)
    src, tgt, _, _ = odd_case(seed)
    space = src.space
    shape = {(g,): {g: ONE, **{h: rng.choice((-1, 2)) for h in space.basis
                               if space.degree(h) == space.degree(g)
                               and space.filtration(h) > space.filtration(g)}}
             for g in space.basis}
    _, conj = conjugate(src, {1: shape})
    return [conj, identity_morphism(src), *perturbed(conj),
            LInftyMorphism(src, tgt, random_table(rng, space, space, (1,), 0))]


def build_pool():
    """Everything the spies record: ladders, instances, fixtures, the
    fractional pool and the odd-generator cases."""
    suppress = contextlib.suppress(MathCheckError)
    for seed in range(25):
        ladder, _ = random_ladder(seed)
        base = ladder.source.base
        for f in strict_cases(random.Random(seed), base):
            with suppress:
                check_morphism(f)
        for structure in perturbed(base)[:2]:
            with suppress:
                check_square_zero(structure)
    for seed in range(40):
        instance_checks(random_instance(seed))
    for build in fixtures.REGISTRY.values():
        with suppress:
            build()
    with suppress:
        check_square_zero(fixtures.jacobi_violation())
    module_from_morphism(fixtures.morphism_t())
    check_morphism(fixtures.morphism_t())
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(instances, "LINEAR_POOL", FRACTIONAL_POOL)
        mp.setattr(instances, "QUADRATIC_POOL", FRACTIONAL_POOL)
        for seed in range(4):
            random_ladder(seed)
            inst = random_instance(seed)
            instance_checks(inst)
    fractional_ladder()
    for seed in range(3):
        src, tgt, f, conj = odd_case(seed)
        for structure in (src, tgt, conj.target):
            with suppress:
                check_square_zero(structure)
        for m in (f, conj, *odd_strict_cases(seed)):
            with suppress:
                check_morphism(m)
            module_from_morphism(m)


@lru_cache(maxsize=None)
def records():
    """(joined, square_zero, morphism) calls made while building the pool."""
    joined, square, checked = [], [], []
    real_joined = modules._joined_components
    real_failure = structures._square_zero_failure
    real_check = structures._check_morphism

    def spy_joined(morphism, cap, outer):
        comps = real_joined(morphism, cap, outer)
        joined.append((morphism, cap, outer, comps))
        return comps

    def spy_failure(structure, cap):
        word = real_failure(structure, cap)
        square.append((structure, cap, word))
        return word

    def spy_check(morphism, cap):
        try:
            result = real_check(morphism, cap)
        except MathCheckError as exc:
            checked.append((morphism, cap, str(exc)))
            raise
        checked.append((morphism, cap, result))
        return result

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(modules, "_joined_components", spy_joined)
        mp.setattr(structures, "_square_zero_failure", spy_failure)
        mp.setattr(structures, "_check_morphism", spy_check)
        build_pool()
    return joined, square, checked


def odd_pool(space):
    """A space of odd_case: random tables over three odd generators."""
    return space.label.startswith("odd")


def has_fraction(comps):
    return any(type(q) is Fraction for row in comps.values()
               for value in row.values() for q in value.values())


# -- the indexed read of module_from_morphism and the triangle ---------------------

def test_indexed_joined_components_equal_sym_mul_and_corestriction():
    joined, _, _ = records()
    for morphism, cap, outer, comps in joined:
        assert exact(comps) == exact(
            oracle_joined_components(morphism, cap, outer))
    assert any(isinstance(outer, LInftyMorphism) for _, _, outer, _ in joined)
    assert any(isinstance(outer, LInftyStructure) for _, _, outer, _ in joined)
    assert any(odd_pool(m.word_space) and c for m, _, _, c in joined)
    assert any(has_fraction(c) for _, _, _, c in joined)
    assert any(not m.is_strict() for m, _, _, _ in joined)


def test_surviving_tensors_are_the_tensors_below_the_order():
    joined, _, _ = records()
    dropped = 0
    for morphism, cap, _, _ in joined[::5]:
        base, module = morphism.word_space, morphism.target.space
        words = base.enumerate_words(cap)
        pairs = [(w, m) for w in words for m in module.basis]
        want = [(w, m) for w, m in pairs if tensor_weight(base, module, w, m)
                < base.nilpotency_order]
        assert list(surviving_tensors(base, module, words)) == want
        dropped += len(pairs) - len(want)
    assert dropped


def test_the_lean_sym_mul_equals_the_old_loop():
    joined, _, _ = records()
    for morphism, _, _, _ in joined[::7]:
        tgt = morphism.target.space
        for word in morphism.word_space.enumerate_words(2):
            image = morphism_apply(morphism, {word: ONE})
            for other in (image, co_from_element({g: ONE for g in tgt.basis})):
                assert exact(sym_mul(tgt, image, other)) \
                    == exact(oracle_sym_mul(tgt, image, other))


# -- the truncated square-zero sweep -------------------------------------------------

def test_the_truncated_square_zero_sweep_finds_the_full_image_witness():
    _, square, _ = records()
    for structure, cap, word in square:
        assert word == oracle_square_zero_failure(structure, cap)
    assert any(word is None for _, _, word in square)
    assert any(word is not None and odd_pool(s.space) for s, _, word in square)
    assert any(word is not None and not odd_pool(s.space)
               for s, _, word in square)


def test_square_zero_verdicts_and_texts_equal_the_full_loop():
    _, square, _ = records()
    tables = list({id(s): s for s, _, _ in square}.values())
    tables.append(fixtures.jacobi_violation())
    verdicts = set()
    for structure in tables[::3] + tables[-1:]:
        for cap in (None, 1, 2, 3):
            fresh = LInftyStructure(structure.space, structure.components)
            want = outcome(oracle_check_square_zero, structure, cap)
            assert outcome(check_square_zero, fresh, cap) == want
            verdicts.add(want is True)
    assert verdicts == {True, False}


def test_a_passing_square_zero_sweep_keeps_no_image():
    for build in (fixtures.fix_b, lambda: random_ladder(3)[0].source.base):
        structure = build()
        fresh = LInftyStructure(structure.space, structure.components)
        assert check_square_zero(fresh) is True
        assert fresh._images == {}


# -- the strict check_morphism ---------------------------------------------------------

def test_strict_check_morphism_gives_the_full_route_verdict_and_text():
    _, _, checked = records()
    strict = [(m, cap, got) for m, cap, got in checked if m.is_strict()]
    for morphism, cap, got in strict + [
            c for c in checked if not c[0].is_strict()]:
        assert got == full_route_check_morphism(morphism, cap)
    assert any(got is True and odd_pool(m.word_space) for m, _, got in strict)
    assert any(got is not True and odd_pool(m.word_space)
               for m, _, got in strict)
    assert any(got is not True and not odd_pool(m.word_space)
               for m, _, got in strict)


# -- the plan-read morphism image ----------------------------------------------------

def test_plan_read_morphism_images_equal_the_old_loop_and_the_oracle():
    joined, _, checked = records()
    morphisms = {id(m): m for m, _, _, _ in joined}
    morphisms.update((id(m), m) for m, _, _ in checked)
    arities = set()
    for m in list(morphisms.values())[::2]:
        cold = LInftyMorphism(m.source, m.target, m.components)
        space = m.source.space
        cap = min(3, default_cap(space, m.max_arity))
        for word in space.enumerate_words(cap):
            image = structures._morphism_image(cold, word)
            assert exact(image) == exact(old_morphism_image(m, word)), word
            assert image == oracle_morphism_apply(m, {word: ONE}), word
            arities.add(len(word))
    assert arities == {0, 1, 2, 3}
    assert any(not m.is_strict() and odd_pool(m.word_space)
               for m in list(morphisms.values())[::2])
