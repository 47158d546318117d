"""Tables the library derives are made unchecked, and equal validated ones.

ComponentTable._made builds a table on trusted components: the library's
composites, inverses, conjugates, twists, products, modules of morphisms
and Cech connecting maps, all derived from tables that were valid already.
Each such table must equal its validated rebuild, type(t)(*ends,
t.components), in keys, values and entry types: a stored value is an int
when integral, else a Fraction.  The rebuild normalizes keys and folds
scalars, so a non-canonical key or an integral Fraction left in a trusted
table shows up as a difference.
"""

from fractions import Fraction

import pytest

from linfty import fixtures, instances
from linfty.graded import ComponentTable, el_add, el_scale
from linfty.instances import random_instance, random_ladder
from linfty.modules import check_module_twist_consistency
from linfty.resolutions import prop_key_pipeline
from linfty.structures import invert
from linfty.twisting import (
    check_morphism_twist_identities,
    check_pushforward_functoriality,
    check_structure_twist_identities,
    mc_check,
    mc_preservation,
    push_mc,
    twist_morphism,
    twist_structure,
)

FRACTIONAL_POOL = (Fraction(-1, 2), -1, Fraction(2, 3), 2)


@pytest.fixture
def made_tables(monkeypatch):
    """Every table ComponentTable._made returns, each compared with its
    validated rebuild as it is made, before anything reads it."""
    made = []
    make = ComponentTable._made.__func__

    def checked(cls, *args):
        table = make(cls, *args)
        assert_equals_validated_rebuild(table, args[:-1])
        made.append(table)
        return table

    monkeypatch.setattr(ComponentTable, "_made", classmethod(checked))
    return made


def assert_equals_validated_rebuild(table, ends):
    rebuilt = type(table)(*ends, table.components)
    assert table.components == rebuilt.components
    for arity, row in rebuilt.components.items():
        assert list(table.components[arity]) == list(row)
        for key, value in row.items():
            stored = table.components[arity][key]
            assert [(g, type(q)) for g, q in stored.items()] \
                == [(g, type(q)) for g, q in value.items()]
            for q in stored.values():
                assert type(q) is int or (type(q) is Fraction
                                          and q.denominator > 1), q


def instance_checks(inst):
    """Twists, pushforward and inverse of a random instance, checked."""
    base, pi, f = inst["base"], inst["pi"], inst["morphism"]
    twist_structure(base, pi)
    twist_morphism(f, pi)
    assert mc_preservation(f, pi) == inst["pi_pushed"]
    second = el_scale(pi, 2)
    assert check_structure_twist_identities(base, pi, second)
    assert check_morphism_twist_identities(f, pi, second)
    assert check_pushforward_functoriality(invert(f), f, pi)
    assert check_module_twist_consistency(f, pi)


def test_every_trusted_table_equals_its_validated_rebuild(made_tables):
    for seed in range(25):
        ladder, xi = random_ladder(seed)
        assert prop_key_pipeline(ladder, xi)["verdict"] == "quasi-isomorphism"
    for seed in range(40):
        instance_checks(random_instance(seed))
    for builder in fixtures.REGISTRY.values():
        builder()
    kinds = {type(table).__name__ for table in made_tables}
    assert kinds == {"LInftyStructure", "LInftyMorphism", "LInftyModule",
                     "ModuleMorphism"}


def test_trusted_tables_on_a_fractional_pool_store_fractions_exactly(
        monkeypatch, made_tables):
    """The fractional-pool family: the derived tables hold Fractions, and
    integral ones are stored as ints, as the rebuild stores them."""
    monkeypatch.setattr(instances, "LINEAR_POOL", FRACTIONAL_POOL)
    monkeypatch.setattr(instances, "QUADRATIC_POOL", FRACTIONAL_POOL)
    for seed in range(4):
        ladder, xi = random_ladder(seed)
        base = ladder.source.base
        unit = next(g for g in base.space.basis if base.space.degree(g) == 0)
        pi = el_add(xi, {unit: FRACTIONAL_POOL[seed]})
        assert mc_check(base, pi)
        assert prop_key_pipeline(ladder, pi)["verdict"] == "quasi-isomorphism"
        inst = random_instance(seed)
        instance_checks(inst)
        push_mc(inst["morphism"], inst["pi"])
    fractions = sum(type(q) is Fraction for table in made_tables
                    for row in table.components.values()
                    for value in row.values() for q in value.values())
    assert fractions
