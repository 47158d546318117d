"""Matrix-unit instance generators: frozen small cases and seeded sweeps."""

from fractions import Fraction
import random
import sys

import pytest

from linfty import modules, structures
from linfty.fixtures import cech_fixb_ladder
from linfty.graded import InputError, ONE
from linfty.structures import (
    check_morphism,
    check_square_zero,
    compose,
    identity_morphism,
    invert,
)
from linfty.twisting import mc_check, twist_structure
from linfty.resolutions import check_resolution, prop_key_pipeline
from linfty.instances import (
    CHARTS,
    matrix_structure,
    random_instance,
    random_ladder,
    random_strict_transport,
    two_chart_diagram,
    two_chart_ladder,
)


def test_upper3_frozen_shape():
    s, xi = matrix_structure(3)
    assert s.space.basis == ("e12", "e23", "e13")
    # shifted degrees: units e12, e23 sit in 0, the corner in 1
    assert [s.space.degree(g) for g in s.space.basis] == [0, 0, 1]
    assert [s.space.filtration(g) for g in s.space.basis] == [1, 1, 2]
    assert xi == {"e12": ONE, "e23": ONE}
    # R = -1/2 [xi, xi] = -e13, stored as Q_0(1) = -R
    assert s.curvature() == {"e13": ONE}
    assert s.component(2, ("e12", "e23")) == {"e13": ONE}
    assert check_square_zero(s)


def test_upper3_canonical_datum_flattens():
    s, xi = matrix_structure(3)
    assert mc_check(s, xi)
    twisted = twist_structure(s, xi)
    assert twisted.is_flat()
    assert check_square_zero(twisted)


def test_weights_change_degrees():
    s, xi = matrix_structure(3, weights=[0, 1, 3])
    degs = {g: s.space.degree(g) for g in s.space.basis}
    assert degs == {"e12": 0, "e23": 1, "e13": 2}
    # only e12 has unshifted degree 1 now, so xi is that single unit
    assert xi == {"e12": ONE}
    assert s.curvature() == {}  # single units square to zero
    assert check_square_zero(s)


def test_xi_entry_degree_is_validated():
    with pytest.raises(InputError, match="degree"):
        matrix_structure(3, weights=[0, 1, 3], xi={"e13": ONE})


def test_random_instances_are_valid():
    for seed in range(30):
        inst = random_instance(seed)
        assert check_square_zero(inst["base"])
        assert check_morphism(inst["morphism"])
        assert check_square_zero(inst["transported"])
        assert mc_check(inst["base"], inst["pi"])
        assert mc_check(inst["transported"], inst["pi_pushed"])
        twisted = twist_structure(inst["transported"], inst["pi_pushed"])
        assert twisted.is_flat()


def test_random_instances_reproducible():
    a = random_instance(42)
    b = random_instance(42)
    assert a["base"] == b["base"]
    assert a["pi"] == b["pi"]
    assert a["morphism"] == b["morphism"]


def test_conjugation_is_invertible():
    inst = random_instance(5)
    f = inst["morphism"]
    round_trip = compose(invert(f), f)
    for k, table in round_trip.components.items():
        for word, value in table.items():
            if k == 1:
                assert value == {word[0]: ONE}
            else:
                assert not value


def test_two_chart_diagram_is_a_resolution():
    s, _ = matrix_structure(3)
    report = check_resolution(two_chart_diagram(s))
    assert report["ok"], report["failures"]


def test_random_ladders_satisfy_the_criterion():
    for seed in range(5):
        ladder, pi = random_ladder(seed)
        report = prop_key_pipeline(ladder, pi)
        assert report["verdict"] == "quasi-isomorphism"
        assert report["routes_agree"] and report["isomorphism"]


@pytest.mark.parametrize("weights", [(0, 0, 1, 1), (0, 1, 1, 2)])
def test_ladders_with_moving_transports_meet_the_criterion(weights):
    """On 4 x 4 units with same-degree generators of different filtration,
    every random_strict_transport moves the structure, so each target
    diagram differs from its identity source, and the criterion holds."""
    base, xi = matrix_structure(4, list(weights))
    for seed in range(4):
        rng = random.Random(seed)
        transports = {a: random_strict_transport(rng, base)[1] for a in CHARTS}
        for transport in transports.values():
            assert transport != identity_morphism(base)
            assert transport.target != base
        ladder = two_chart_ladder(base, transports)
        assert prop_key_pipeline(ladder, xi)["verdict"] == "quasi-isomorphism"


# -- each module of a ladder is built once ----------------------------------------

def test_ladder_verticals_are_the_diagrams_own_levels():
    for ladder in (cech_fixb_ladder(), random_ladder(0)[0]):
        for k, u in enumerate(ladder.level_maps):
            assert u.source is ladder.source.levels[k]
            assert u.target is ladder.target.levels[k]


def count_calls(monkeypatch, function):
    """Calls of a function, counted through every linfty module binding it."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return function(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "linfty" and \
                getattr(module, function.__name__, None) is function:
            monkeypatch.setattr(module, function.__name__, counted)
    return calls


def test_a_ladder_builds_each_module_once(monkeypatch):
    made = count_calls(monkeypatch, modules.module_from_morphism)
    composed = count_calls(monkeypatch, structures.compose)
    cech_fixb_ladder()
    # the augmented module and two levels per diagram, nothing rebuilt
    assert len(made) == 6
    # a strict map inverts by its strict part, with no compose of its own,
    # and the identity spread restricts by its identity, with no composite:
    # two routes per diagram and the target's two cover restrictions
    assert len(composed) == 6
