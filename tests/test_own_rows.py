"""Own-row twists and unit-word reads of module maps against the general paths.

Row k of a twist is sum (1/l!) C_{k+l}(pi^l v w), and its l = 0 term is
the table's own row k: twisting.twist_table starts from a copy of it and
sweeps keys only for l >= 1, and a row no such power reaches (k >=
max_arity) is the copy alone.  A strict module map sends w tensor m to
w tensor F_0(m), and any module map sends 1 tensor m to 1 tensor F_0(m):
check_module_morphism and compose_module_morphisms read those images
without the shuffle-split apply.  The oracles below are the general paths,
kept as the reference: module_morphism_apply on every tensor, the check
with full applies on both sides, the composite of full applies, and
test_twist_memo's uncached twist loop.  The inputs are every module map of
the fixture ladders and diagrams (untwisted and twisted by each
Maurer-Cartan element of their documents), of random_ladder(0..24), of the
moving-transport ladders and of the fractional ladder, untwisted and
twisted by their data, plus the non-strict triangle maps of the random
instances.
"""

from functools import lru_cache

import pytest

from linfty import modules
from linfty.fixtures import cech_fixb_ladder, perturbed_ladder
from linfty.graded import MathCheckError, ONE
from linfty.instances import random_instance, random_ladder
from linfty.modules import (
    ModuleMorphism,
    _unit_word_image,
    check_module_morphism,
    compose_module_morphisms,
    identity_module_morphism,
    module_apply,
    module_from_morphism,
    module_morphism_apply,
    module_morphism_from_triangle,
)
from linfty.resolutions import (
    ResolutionMorphism, check_resolution_morphism, twist_resolution_morphism)
from linfty.structures import (
    LInftyStructure, compose, default_cap, identity_morphism, invert)
from linfty.twisting import _kept_row, twist_table, validate_twist_datum

from test_cech_builder import moving_ladders
from test_scalar_types import fractional_ladder
from test_twist_memo import assert_twists_match, curved_square, oracle_twist_table
from test_zero_blocks import corpus_diagrams_and_ladders, typed


# -- the oracles: the general paths ------------------------------------------------

def general_check(mm, max_arity=None):
    """check_module_morphism with full applies on both sides, for any F."""
    source, target = mm.source, mm.target
    cap = default_cap(mm.word_space, max_arity=max_arity)
    m_f = mm.max_arity
    bound = max(m_f + source.base.max_arity - 1, m_f + source.max_arity,
                m_f + target.max_arity)
    for word, mgen in mm._sweep(cap, bound):
        start = {(word, mgen): ONE}
        if mm._corestrict(module_apply(source, start)) \
                != target._corestrict(module_morphism_apply(mm, start)):
            raise MathCheckError(
                f"module morphism does not intertwine operators "
                f"on {word} tensor {mgen}")
    return True


def full_apply_composite(outer, inner):
    """compose_module_morphisms with the full apply on every key."""
    comps = {}
    for word, mgen in inner._sweep(inner.max_arity + outer.max_arity):
        value = outer._corestrict(
            module_morphism_apply(inner, {(word, mgen): ONE}))
        if value:
            comps.setdefault(len(word), {})[(word, mgen)] = value
    return ModuleMorphism._made(inner.source, outer.target, comps)


def outcome(check, mm):
    """True, or the text of the MathCheckError the check raises."""
    try:
        return check(mm)
    except MathCheckError as e:
        return str(e)


def scalar_types(comps):
    """Components with each scalar paired with its type; key order aside."""
    return {k: {key: {g: (type(q), q) for g, q in value.items()}
                for key, value in row.items()}
            for k, row in comps.items()}


# -- the inputs --------------------------------------------------------------------

def superdiagonal_datum(base):
    """matrix_structure's default datum: each superdiagonal unit of shifted
    degree 0 with coefficient 1."""
    space = base.space
    return {g: ONE for g in space.basis
            if int(g[2]) == int(g[1]) + 1 and space.degree(g) == 0}


@lru_cache(maxsize=None)
def family_ladders():
    """(ladder, datum): random_ladder(0..24), the moving-transport ladders
    and the fractional ladder."""
    out = [random_ladder(seed) for seed in range(25)]
    out += [(ladder, superdiagonal_datum(ladder.source.base))
            for ladder in moving_ladders()]
    out.append(fractional_ladder())
    return tuple(out)


def ladder_maps(ladder):
    return [*ladder.verticals(), *ladder.source.maps(), *ladder.target.maps()]


@lru_cache(maxsize=None)
def ladders_under_test():
    """Every family ladder, untwisted and twisted by its datum, and every
    fixture ladder, untwisted and twisted by each Maurer-Cartan element of
    its document."""
    out = []
    for ladder, xi in family_ladders():
        out += [ladder, twist_resolution_morphism(ladder, xi)]
    return tuple(out + corpus_diagrams_and_ladders()[1])


@lru_cache(maxsize=None)
def triangle_maps():
    """Non-strict module maps: the triangles of F^-1 o F over the random
    instances (seeds 5, 19, 20, 24 and 26 of the first 30)."""
    out = []
    for seed in range(30):
        f = random_instance(seed)["morphism"]
        inverse = invert(f)
        mm = module_morphism_from_triangle(
            inverse, f, module_from_morphism(f),
            module_from_morphism(compose(inverse, f)))
        if mm.max_arity:
            out.append(mm)
    return tuple(out)


@lru_cache(maxsize=None)
def maps_under_test():
    maps = [mm for ladder in ladders_under_test() for mm in ladder_maps(ladder)]
    for diagram in corpus_diagrams_and_ladders()[0]:
        maps += diagram.maps()
    return tuple(maps) + triangle_maps()


def strict_maps():
    return [mm for mm in maps_under_test() if mm.max_arity == 0]


def test_the_inputs_hold_strict_and_non_strict_maps():
    strict = strict_maps()
    assert len(strict) > 400
    assert any(mm.components for mm in strict)
    assert len(triangle_maps()) == 5


# -- unit-word reads -----------------------------------------------------------------

def test_a_strict_map_is_read_at_the_unit_word_on_every_tensor():
    seen = 0
    for mm in strict_maps():
        for word, mgen in mm._sweep(default_cap(mm.word_space)):
            assert typed(_unit_word_image(mm, word, mgen)) == typed(
                module_morphism_apply(mm, {(word, mgen): ONE}))
            seen += 1
    assert seen > 10000


def test_any_map_is_read_at_the_unit_word_on_arity_zero_keys():
    for mm in maps_under_test():
        for word, mgen in mm._sweep(0):
            assert typed(_unit_word_image(mm, word, mgen)) == typed(
                module_morphism_apply(mm, {(word, mgen): ONE}))


def test_the_strict_check_is_the_general_check():
    for mm in strict_maps():
        assert outcome(check_module_morphism, mm) == outcome(general_check, mm)


def test_strict_checks_and_composites_make_no_full_apply(monkeypatch):
    ladders = ladders_under_test()[:10]

    def no_apply(*args):
        raise AssertionError("a strict map was read through a full apply")

    monkeypatch.setattr(modules, "module_apply", no_apply)
    monkeypatch.setattr(modules, "module_morphism_apply", no_apply)
    for ladder in ladders:
        for u in ladder.verticals():
            assert check_module_morphism(u)
        for outer, inner in ladder_composites(ladder):
            compose_module_morphisms(outer, inner)


def negated_entries(mm):
    """mm with one entry of F_0 negated, for each entry in turn."""
    for key, value in mm.components.get(0, {}).items():
        for g in value:
            comps = {k: {kk: dict(v) for kk, v in row.items()}
                     for k, row in mm.components.items()}
            comps[0][key][g] = -value[g]
            yield ModuleMorphism(mm.source, mm.target, comps)


def test_a_negated_level_map_entry_fails_with_the_general_witness():
    failed = 0
    for ladder, _ in family_ladders()[:5]:
        for u in ladder.level_maps:
            for broken in negated_entries(u):
                got = outcome(check_module_morphism, broken)
                assert got == outcome(general_check, broken)
                failed += got is not True
    assert failed > 20


def test_the_fixture_ladder_witness_text_is_unchanged():
    level = cech_fixb_ladder().level_maps[0]
    broken = next(negated_entries(level))
    with pytest.raises(MathCheckError) as info:
        check_module_morphism(broken)
    assert str(info.value) == \
        "module morphism does not intertwine operators on ('x',) tensor U.x"
    assert str(info.value) == outcome(general_check, broken)


# -- composites ----------------------------------------------------------------------

def ladder_composites(ladder):
    """(outer, inner): each square's two paths and each pair of connecting
    maps of both diagrams."""
    verticals = ladder.verticals()
    pairs = []
    for p, (f, g) in enumerate(zip(ladder.source.maps(), ladder.target.maps())):
        pairs += [(verticals[p + 1], f), (g, verticals[p])]
    for diagram in (ladder.source, ladder.target):
        maps = diagram.maps()
        pairs += [(maps[p + 1], maps[p]) for p in range(len(maps) - 1)]
    return pairs


def test_each_composite_is_the_composite_of_full_applies():
    pairs = [pair for ladder in ladders_under_test()
             for pair in ladder_composites(ladder)]
    for mm in triangle_maps():
        pairs += [(identity_module_morphism(mm.target), mm),
                  (mm, identity_module_morphism(mm.source))]
    for outer, inner in pairs:
        got = compose_module_morphisms(outer, inner)
        want = full_apply_composite(outer, inner)
        assert got == want
        assert typed(got.components) == typed(want.components)


def general_ladder_report(ladder):
    """check_resolution_morphism on the general check and composite."""
    failures = []
    verticals = ladder.verticals()
    for p, u in enumerate(verticals):
        got = outcome(general_check, u)
        if got is not True:
            failures.append(f"vertical map at node {p}: {got}")
    squares = {}
    for p, (f, g) in enumerate(zip(ladder.source.maps(), ladder.target.maps())):
        squares[p] = full_apply_composite(verticals[p + 1], f) \
            == full_apply_composite(g, verticals[p])
        if not squares[p]:
            failures.append(f"square {p} does not commute")
    return {"ok": not failures, "failures": failures, "squares": squares}


def test_each_ladder_report_is_the_general_report():
    """check_resolution_morphism reads through both new paths; the
    perturbed ladder still fails at square one and nowhere else."""
    perturbed = perturbed_ladder()
    assert check_resolution_morphism(perturbed) == {
        "ok": False, "failures": ["square 1 does not commute"],
        "squares": {0: True, 1: False}}
    broken = []
    for ladder, _ in family_ladders()[:3]:
        level = next(negated_entries(ladder.level_maps[0]))
        broken.append(ResolutionMorphism(
            ladder.source, ladder.target, ladder.augmented_map,
            [level, *ladder.level_maps[1:]]))
    for ladder in (perturbed, *broken, *ladders_under_test()):
        assert check_resolution_morphism(ladder) == general_ladder_report(ladder)
    assert all(not check_resolution_morphism(ladder)["ok"] for ladder in broken)


# -- own-row twists ------------------------------------------------------------------

def twist_cases():
    """(table, datum) of all four kinds: structures, morphisms, modules and
    module maps, over odd generators and with fractional data."""
    cases = []
    for ladder, xi in family_ladders()[::4] + family_ladders()[25:]:
        cases.append((ladder.source.base, xi))
        cases += [(table, xi) for diagram in (ladder.source, ladder.target)
                  for table in diagram.modules()]
        cases += [(mm, xi) for mm in ladder_maps(ladder)]
    for seed in range(4):
        inst = random_instance(seed)
        cases += [(inst["morphism"], inst["pi"]), (inst["base"], inst["pi"])]
    square = curved_square()
    module = module_from_morphism(identity_morphism(square))
    for pi in ({"x": ONE}, {"x": ONE, "y": "-1/2"}):
        cases += [(square, pi), (identity_morphism(square), pi),
                  (module, pi), (identity_module_morphism(module), pi)]
    return cases


def test_twist_table_is_the_uncached_twist_loop():
    kinds = set()
    for table, pi in twist_cases():
        assert_twists_match(table, pi)
        assert scalar_types(twist_table(table, pi)) == scalar_types(
            oracle_twist_table(table, pi))
        kinds.add(type(table).__name__)
    assert kinds == {"LInftyStructure", "LInftyMorphism", "LInftyModule",
                     "ModuleMorphism"}


def test_kept_rows_never_hand_out_the_tables_own_dicts():
    for table, pi in twist_cases():
        pi = validate_twist_datum(table.word_space, pi)
        before = typed(table.components)
        for k, own in table.components.items():
            row = _kept_row(table, pi, k)
            assert not any(row.get(key) is value for key, value in own.items())
            for value in twist_table(table, pi, (k,)).get(k, {}).values():
                value.clear()
            assert _kept_row(table, pi, k) is row
        assert typed(table.components) == before
        assert twist_table(table, pi) == oracle_twist_table(table, pi)


def test_a_row_no_higher_power_reaches_is_the_own_row_without_a_sweep(
        monkeypatch):
    """Rows k >= max_arity, every row of a strict map among them, are
    copies of the own rows: the sweep is never entered."""
    ladder, xi = random_ladder(3)
    strict = [mm for mm in ladder_maps(ladder) if mm.max_arity == 0]
    base = LInftyStructure(ladder.source.base.space,
                           ladder.source.base.components)
    assert strict and base.max_arity == 2

    def no_sweep(self, *args, **kwargs):
        raise AssertionError("a row with no l >= 1 term swept its keys")

    for cls in {type(mm) for mm in strict} | {LInftyStructure}:
        monkeypatch.setattr(cls, "_sweep", no_sweep)
    for mm in strict:
        assert twist_table(mm, xi) == mm.components
    assert twist_table(base, xi, (2, 3)) == {2: base.components[2]}
