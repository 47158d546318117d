"""Strict Cech level maps: one builder for ladder level maps and connecting maps.

products.strict_level_map sends slot a's generator g to sign r_1(g) in
slot b, piece by piece.  build_cech_complex's connecting maps and
two_chart_ladder's level maps both come from it.  The oracles below are
the constructions they replace, kept verbatim: the fiberwise triangle
(two products, a slotwise morphism of the transports, a product morphism
of identities, module_morphism_from_triangle) for the level maps, and the
inline alternating-sum loop for the connecting maps.  Every map must equal
its oracle, scalar types included, on the random ladders, the moving
ladders, the fix_b ladder, the fractional ladder and a three-open cover.
"""

import random
import sys

import pytest

from linfty import instances, modules, products, structures
from linfty.fixtures import cech_fixb_ladder, fix_b
from linfty.graded import InputError, el_add
from linfty.instances import (
    CHARTS,
    random_instance,
    random_ladder,
    random_strict_transport,
    two_chart_ladder,
)
from linfty.modules import ModuleMorphism, module_morphism_from_triangle
from linfty.products import (
    CoverDescription,
    ProductStructure,
    _is_subtuple,
    build_cech_complex,
    product_morphism,
    slot_name,
    slotwise_morphism,
    tuple_slot,
)
from linfty.structures import identity_morphism

from test_cech_builder import moving_ladders
from test_scalar_types import fractional_ladder


def triangle_level_maps(structure, transports, src, tgt):
    """The level maps of the fiberwise triangle construction."""
    verticals = []
    for k in range(2):
        level = [a for a in CHARTS if len(a) == k + 1]
        src_product = ProductStructure(
            {tuple_slot(a): structure for a in level})
        tgt_product = ProductStructure(
            {tuple_slot(a): transports[a].target for a in level})
        fiber = slotwise_morphism(src_product, tgt_product,
                                  {tuple_slot(a): transports[a] for a in level})
        inner = product_morphism(src_product, {
            tuple_slot(a): identity_morphism(structure) for a in level})
        verticals.append(module_morphism_from_triangle(
            fiber, inner, src.levels[k], tgt.levels[k]))
    return verticals


def alternating_sum_maps(cover, levels):
    """The connecting maps of the inline alternating-sum loop."""
    connecting = []
    for k in range(cover.depth() - 1):
        table = {}
        for a in cover.level(k):
            src_sp = cover.local_structures[a].space
            for b in cover.level(k + 1):
                extras = [j for j in range(len(b)) if b[j] not in a]
                if len(extras) != 1 or not _is_subtuple(a, b):
                    continue
                j = extras[0]
                sign = -1 if j % 2 else 1
                r = cover.restrictions[(a, b)]
                for g in src_sp.basis:
                    image = r.component(1, (g,))
                    if not image:
                        continue
                    key = ((), slot_name(tuple_slot(a), g))
                    value = {slot_name(tuple_slot(b), t): q * sign
                             for t, q in image.items()}
                    table[key] = el_add(table.get(key, {}), value)
        connecting.append(ModuleMorphism._made(levels[k], levels[k + 1],
                                               {0: table}, label=f"d.{k}"))
    return connecting


def typed(table):
    """A table's components with each scalar paired with its type."""
    return {k: {key: {g: (type(q), q) for g, q in value.items()}
                for key, value in row.items()}
            for k, row in table.components.items()}


def assert_same_map(built, oracle):
    assert built == oracle
    assert typed(built) == typed(oracle)


def recorder(monkeypatch, module, name):
    """Replace module.name wherever the package or a test module holds it
    by a wrapper that records (args, result) of each call."""
    calls = []
    original = getattr(module, name)

    def recording(*args, **kwargs):
        result = original(*args, **kwargs)
        calls.append((args, result))
        return result

    for held, mod in list(sys.modules.items()):
        if held.split(".")[0] == "linfty" or held.startswith("test_"):
            if getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, recording)
    return calls


def every_ladder():
    ladders = [random_ladder(seed)[0] for seed in range(25)]
    ladders += list(moving_ladders())
    ladders.append(cech_fixb_ladder())
    ladders.append(fractional_ladder()[0])
    return ladders


def test_level_and_connecting_maps_equal_their_oracles(monkeypatch):
    ladder_calls = recorder(monkeypatch, instances, "two_chart_ladder")
    cech_calls = recorder(monkeypatch, products, "build_cech_complex")
    ladders = every_ladder()
    assert len(ladder_calls) == len(ladders) == 25 + 8 + 1 + 1
    assert len(cech_calls) == 2 * len(ladders)
    for (args, ladder), built in zip(ladder_calls, ladders):
        assert ladder is built
        structure, transports = args[:2]
        oracle = triangle_level_maps(structure, transports,
                                     ladder.source, ladder.target)
        for level_map, expected in zip(ladder.level_maps, oracle, strict=True):
            assert_same_map(level_map, expected)
    for (args, diagram) in cech_calls:
        oracle = alternating_sum_maps(args[0], diagram.levels)
        for d, expected in zip(diagram.connecting, oracle, strict=True):
            assert_same_map(d, expected)


def three_open_cover():
    """fix_b on every tuple over U, V, W, identity restrictions: levels
    0 -> 1 -> 2, with faces of both signs at each step."""
    base = fix_b()
    identity = identity_morphism(base)
    opens = ["U", "V", "W"]
    nerve = [("U",), ("V",), ("W",), ("U", "V"), ("U", "W"), ("V", "W"),
             ("U", "V", "W")]
    restrictions = {(a, b): identity for a in nerve for b in nerve
                    if len(a) < len(b) and _is_subtuple(a, b)}
    cover = CoverDescription(opens, nerve, dict.fromkeys(nerve, base),
                             restrictions)
    return build_cech_complex(cover, base, dict.fromkeys(opens, identity)), \
        cover


def test_connecting_maps_of_a_three_open_cover_equal_the_oracle():
    diagram, cover = three_open_cover()
    oracle = alternating_sum_maps(cover, diagram.levels)
    assert len(diagram.connecting) == 2
    for d, expected in zip(diagram.connecting, oracle, strict=True):
        assert_same_map(d, expected)
    # the face of (U, V, W) missing V, its open at position 1, sends
    # (U, W)'s x with sign -1
    assert diagram.connecting[1].component(0, (), "U,W.x") == {"U,V,W.x": -1}


@pytest.fixture
def counts(monkeypatch):
    """Calls of ProductStructure, identity_morphism and
    module_morphism_from_triangle while the test runs."""
    tally = {"ProductStructure": 0}
    init = ProductStructure.__init__

    def counting_init(self, *args, **kwargs):
        tally["ProductStructure"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(ProductStructure, "__init__", counting_init)
    for module, name in ((structures, "identity_morphism"),
                         (modules, "module_morphism_from_triangle")):
        calls = recorder(monkeypatch, module, name)
        tally[name] = calls
    return tally


@pytest.mark.parametrize("seed", [0, 7, 13])
def test_a_random_ladder_builds_four_products_three_identities_two_triangles(
        counts, seed):
    random_ladder(seed)
    assert counts["ProductStructure"] == 4
    assert len(counts["identity_morphism"]) == 3
    triangles = counts["module_morphism_from_triangle"]
    assert len(triangles) == 2  # the augmentations of the two diagrams


def test_a_non_strict_transport_raises_naming_its_chart_before_building(
        counts, monkeypatch):
    inst = random_instance(5)  # a transport with an arity-2 part
    base, bent = inst["base"], inst["morphism"]
    assert not bent.is_strict()
    rng = random.Random(0)
    transports = {a: random_strict_transport(rng, base)[1] for a in CHARTS}
    transports[("U", "V")] = bent
    built = recorder(monkeypatch, instances, "two_chart_diagram")
    with pytest.raises(InputError, match=r"^transport on chart \('U', 'V'\) "
                                         r"must be strict$"):
        two_chart_ladder(base, transports)
    assert built == []
    assert counts["ProductStructure"] == 0
    assert counts["identity_morphism"] == []
