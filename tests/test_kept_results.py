"""Results a table keeps: its inverse, its passing verdicts, and their lifetime.

A table keeps its inverse per cap, and conjugate seeds the returned map's
inverse with the one it solved against a placeholder target.  Every kept
inverse must equal invert of the validated rebuild of its table, which
keeps nothing.  The identity spread uses one identity for every transport
and restriction, which must equal the composite it replaces.  A failing
check keeps nothing, so it fails with the same text every time.  Nothing
kept refers back to its table: once an op's objects are dropped, reference
counting alone frees them, with the garbage collector switched off.
"""

import gc
import weakref

import pytest

from linfty import fixtures, instances, modules, structures
from linfty.fixtures import jacobi_violation
from linfty.graded import ComponentTable, MathCheckError, el_scale
from linfty.instances import random_instance, random_ladder
from linfty.modules import check_module_twist_consistency
from linfty.resolutions import prop_key_pipeline
from linfty.structures import (
    LInftyMorphism,
    check_square_zero,
    compose,
    identity_morphism,
    invert,
)
from linfty.twisting import (
    check_morphism_twist_identities,
    check_pushforward_functoriality,
    check_structure_twist_identities,
    mc_preservation,
    twist_morphism,
    twist_structure,
)


@pytest.fixture
def kept_inverses(monkeypatch):
    """id(inverse) -> (table, cap, inverse) for every inverse a table keeps."""
    kept = {}
    keep = ComponentTable._kept

    def recording(self, key, build):
        value = keep(self, key, build)
        if type(key) is tuple and key[0] == "inverse":
            kept[id(value)] = (self, key[1], value)
        return value

    monkeypatch.setattr(ComponentTable, "_kept", recording)
    return kept


def assert_inverses_match_the_oracle(kept):
    assert kept
    for table, cap, inverse in list(kept.values()):
        rebuilt = LInftyMorphism(table.source, table.target, table.components)
        assert inverse == invert(rebuilt, max_arity=cap)
        assert inverse.source is table.target
        assert inverse.target is table.source


def instance_op(inst):
    """The instance checks of the benchmark's instance op."""
    base, pi, f = inst["base"], inst["pi"], inst["morphism"]
    assert check_square_zero(twist_structure(base, pi))
    assert mc_preservation(f, pi) == inst["pi_pushed"]
    assert structures.check_morphism(twist_morphism(f, pi))
    second = el_scale(pi, 2)
    assert check_structure_twist_identities(base, pi, second)
    assert check_morphism_twist_identities(f, pi, second)
    assert check_pushforward_functoriality(invert(f), f, pi)
    assert check_module_twist_consistency(f, pi)


def test_instance_inverses_are_seeded_and_match_the_oracle(monkeypatch,
                                                           kept_inverses):
    solved = []
    solve = structures._invert
    monkeypatch.setattr(structures, "_invert",
                        lambda morphism, cap: solved.append(cap)
                        or solve(morphism, cap))
    for seed in range(40):
        inst = random_instance(seed)
        f = inst["morphism"]
        solved.clear()
        assert invert(f) is invert(f)  # conjugate kept it: nothing solved
        assert solved == []
        instance_op(inst)
    assert_inverses_match_the_oracle(kept_inverses)


def test_ladder_transport_inverses_match_the_oracle(monkeypatch,
                                                    kept_inverses):
    transports = []
    draw = instances.random_strict_transport

    def recording(rng, structure):
        out = draw(rng, structure)
        transports.append(out[1])
        return out

    monkeypatch.setattr(instances, "random_strict_transport", recording)
    for seed in range(25):
        random_ladder(seed)
    kept = {id(table) for table, _, _ in kept_inverses.values()}
    assert len(transports) == 75 and kept >= {id(t) for t in transports}
    assert_inverses_match_the_oracle(kept_inverses)


def test_fixture_inverses_match_the_oracle(kept_inverses):
    for build in fixtures.REGISTRY.values():
        build()
    invert(fixtures.morphism_t())
    assert_inverses_match_the_oracle(kept_inverses)


def test_the_identity_spread_restricts_by_its_one_identity(monkeypatch):
    covers = []
    build = instances.build_cech_complex

    def recording(cover, structure, restrictions):
        covers.append((cover, structure, restrictions))
        return build(cover, structure, restrictions)

    monkeypatch.setattr(instances, "build_cech_complex", recording)
    fixtures.fix_c_diagram()
    fixtures.cech_fixb_diagram()
    for seed in range(5):
        random_ladder(seed)  # its source is an identity spread
    spreads = [c for c in covers if c[1] is c[2]["U"].target]
    assert len(spreads) == 7
    for cover, structure, restrictions in spreads:
        identity = restrictions["U"]
        composite = compose(identity_morphism(structure),
                            invert(identity_morphism(structure)))
        assert restrictions["V"] is identity
        for r in cover.restrictions.values():
            assert r is identity and r == composite
            assert r.source is r.target is structure


def test_a_failing_check_raises_the_same_text_each_time():
    structure = jacobi_violation()
    texts = []
    for _ in range(2):
        with pytest.raises(MathCheckError) as caught:
            check_square_zero(structure)
        texts.append(str(caught.value))
    assert texts[0] == texts[1]
    assert texts[0].startswith("coderivation does not square to zero")
    assert structure._twists == {}  # the failure kept nothing


def test_an_op_frees_its_tables_without_the_collector(monkeypatch):
    refs = []
    draw = instances.random_strict_transport

    def recording(rng, structure):
        out = draw(rng, structure)
        refs.append(weakref.ref(out[1]))
        return out

    monkeypatch.setattr(instances, "random_strict_transport", recording)
    gc.collect()
    gc.disable()
    try:
        ladder, xi = random_ladder(3)
        report = prop_key_pipeline(ladder, xi)
        assert report["verdict"] == "quasi-isomorphism"
        refs.append(weakref.ref(ladder.source.base))
        del ladder, xi, report
        inst = random_instance(3)
        instance_op(inst)
        refs += [weakref.ref(inst[name])
                 for name in ("base", "morphism", "transported")]
        del inst
        assert len(refs) == 7
        assert [ref() for ref in refs] == [None] * len(refs)
    finally:
        gc.enable()


def test_module_checks_read_the_base_verdict_kept_on_it(monkeypatch, tmp_path,
                                                        capsys):
    """resolution-check of cech_fixb sweeps its one base once, where each
    of its three module checks used to sweep it again."""
    from pathlib import Path

    from linfty.cli import main

    fixture = Path(__file__).resolve().parent.parent / "fixtures" / "cech_fixb.json"
    sweeps = []
    real = structures._square_zero_failure
    for module in (structures, modules):  # wherever the sweep is bound
        if hasattr(module, "_square_zero_failure"):
            monkeypatch.setattr(module, "_square_zero_failure",
                                lambda s, cap: sweeps.append(s) or real(s, cap))
    assert main(["resolution-check", str(fixture),
                 "--report", str(tmp_path / "report.json")]) == 0
    assert len(sweeps) == 1
