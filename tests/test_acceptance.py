"""Acceptance gate: nine criteria, exact arithmetic, one verdict line each.

Each test covers one numbered criterion and records its outcome through the
conftest reporter, which prints a pass/fail line per criterion at the end of
the run.  Randomized sweeps use fixed seed ranges so reruns are identical.
"""

import json
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import criterion, load_script

from linfty.graded import MathCheckError, ONE, el_scale
from linfty.structures import (
    check_morphism,
    check_square_zero,
    identity_morphism,
    invert,
    morphism_apply,
    strict_morphism,
)
from linfty.twisting import (
    check_morphism_twist_identities,
    check_pushforward_functoriality,
    check_structure_twist_identities,
    exp_element,
    mc_check,
    mc_preservation,
    push_mc,
    twist_morphism,
    twist_structure,
)
from linfty.modules import (
    check_module_square_zero,
    check_module_twist_consistency,
    from_dg_module,
    module_from_morphism,
    twist_module_morphism,
)
from linfty.products import ProductStructure, assemble_and_twist
from linfty.resolutions import (
    check_adapted_mc,
    check_resolution_morphism,
    module_morphism_blocks,
    prop_key_pipeline,
)
from linfty.homology import ChainComplex
from linfty.instances import random_instance, random_ladder
from linfty.fixtures import (
    cech_fixb_diagram,
    cech_fixb_ladder,
    fix_b,
    fix_b2,
    fix_c_diagram,
    fix_c_identity_ladder,
    jacobi_violation,
    morphism_t,
    nonadapted_diagram,
    perturbed_ladder,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def test_criterion_1_random_twists_square_to_zero():
    with criterion(1, "100 random curved instances twist to square-zero "
                      "structures in under a minute"):
        started = time.monotonic()
        for seed in range(100):
            inst = random_instance(seed)
            twisted = twist_structure(inst["base"], inst["pi"])
            assert check_square_zero(twisted)
            assert twisted.is_flat()
        assert time.monotonic() - started < 60


def test_criterion_2_maurer_cartan_routes_agree():
    with criterion(2, "series and full-coderivation Maurer-Cartan routes "
                      "agree on every probe"):
        for seed in range(40):
            inst = random_instance(seed)
            base, pi = inst["base"], inst["pi"]
            for probe in (pi, el_scale(pi, 2), el_scale(pi, -1)):
                series = mc_check(base, probe, route="series")
                full = mc_check(base, probe, route="full")
                assert series == full
                assert mc_check(base, probe, route="both") == series
                # Maurer-Cartan exactly when the twisted curvature vanishes
                assert series == (not twist_structure(base, probe).curvature())
            assert mc_check(base, pi, route="both") is True
        b = fix_b()
        assert mc_check(b, {"x": ONE}, route="both") is True
        assert mc_check(b, {"x": Fraction(2)}, route="series") is False
        assert mc_check(b, {"x": Fraction(2)}, route="full") is False


def test_criterion_3_pushforward_suite():
    with criterion(3, "pushforwards: F(exp pi) = exp(pi_F), Maurer-Cartan "
                      "preserved, twisted morphisms intertwine, untwisting "
                      "restores the structure"):
        for seed in range(100):
            inst = random_instance(seed)
            base, pi, f = inst["base"], inst["pi"], inst["morphism"]
            pushed = push_mc(f, pi)
            lhs = morphism_apply(f, exp_element(base.space, pi))
            rhs = exp_element(f.target.space, pushed)
            assert lhs == rhs
            assert mc_preservation(f, pi) == pushed
            assert check_morphism(twist_morphism(f, pi))
            roundtrip = twist_structure(twist_structure(base, pi),
                                        el_scale(pi, -1))
            assert roundtrip == base


def test_criterion_4_iterated_twist_identities():
    with criterion(4, "iterated-twist and pushforward identities hold on the "
                      "curved pair and 100 random instances"):
        b, t = fix_b(), morphism_t()
        x = {"x": ONE}
        second = {"x": Fraction(2)}
        assert check_structure_twist_identities(b, x, second)
        assert check_morphism_twist_identities(t, x, second)
        assert check_pushforward_functoriality(invert(t), t, x)
        for seed in range(100):
            inst = random_instance(seed)
            pi = inst["pi"]
            second = el_scale(pi, 2)
            assert check_structure_twist_identities(inst["base"], pi, second)
            assert check_morphism_twist_identities(inst["morphism"], pi, second)
            assert check_pushforward_functoriality(
                invert(inst["morphism"]), inst["morphism"], pi)


def test_criterion_5_module_constructors_and_consistency():
    with criterion(5, "module constructors square to zero and twisting "
                      "commutes with the module-from-morphism constructor "
                      "on 100 random instances"):
        base = fix_b()
        adjoint = from_dg_module(
            base, [("mx", 1, 1), ("mc", 2, 2)],
            differential={}, action={("x", "mx"): {"mc": Fraction(2)}})
        assert check_module_square_zero(adjoint)
        assert check_module_square_zero(module_from_morphism(morphism_t()))
        assert check_module_square_zero(
            module_from_morphism(identity_morphism(base)))
        for seed in range(100):
            inst = random_instance(seed)
            assert check_module_square_zero(
                module_from_morphism(inst["morphism"]))
            assert check_module_twist_consistency(inst["morphism"], inst["pi"])


def test_criterion_6_products_and_cech_skeleton():
    with criterion(6, "products act slotwise under twisting, the two-chart "
                      "cover has Betti numbers (1, 0), and the alternating-sum "
                      "differential is unchanged by twisting"):
        product = ProductStructure({"1": fix_b(), "2": fix_b()})
        # curvature splits as the tuple of factor curvatures
        assert product.assembled.curvature() == {"1.c": -1, "2.c": -1}
        # mixed words across slots die
        assert product.assembled.value(["1.x", "2.x"]) == {}
        doubling = {"x": {"x": ONE}, "c": {"c": Fraction(2)}}
        family = {"1": strict_morphism(fix_b(), fix_b2(), doubling),
                  "2": strict_morphism(fix_b(), fix_b2(), doubling)}
        report = assemble_and_twist(product, {"1": {"x": ONE}, "2": {"x": ONE}},
                                    slot_morphisms=family)
        assert report["mc_joint"] is True
        assert report["mc_by_factor"] == {"1": True, "2": True}
        assert report["mc_residual_slots"] == []
        assert report["series_slotwise"] is True
        assert report["twist_slotwise"] is True
        assert report["morphism_slotwise"] is True

        d0 = fix_c_diagram().connecting[0]
        blocks = module_morphism_blocks(d0)
        cc = ChainComplex({0: 2, 1: 1}, {0: blocks[-1]})
        assert cc.betti() == {0: 1, 1: 0}

        diagram = cech_fixb_diagram()
        for d in diagram.connecting:
            twisted = twist_module_morphism(d, {"x": ONE})
            assert twisted.components == d.components


def test_criterion_7_quasi_isomorphism_criterion():
    with criterion(7, "the twisted criterion delivers matching verdicts by "
                      "both routes on every shipped ladder and 25 random "
                      "ladders"):
        report = prop_key_pipeline(fix_c_identity_ladder(), {})
        assert report["verdict"] == "quasi-isomorphism"
        assert report["routes_agree"] is True

        report = prop_key_pipeline(cech_fixb_ladder(), {"x": ONE})
        assert report["verdict"] == "quasi-isomorphism"
        assert report["routes_agree"] is True
        assert report["isomorphism"] is True

        for seed in range(25):
            ladder, xi = random_ladder(seed)
            report = prop_key_pipeline(ladder, xi)
            assert report["verdict"] == "quasi-isomorphism"
            assert report["routes_agree"] is True


def test_criterion_8_negative_controls_fail_where_expected():
    with criterion(8, "negative controls break at the documented positions: "
                      "Jacobi at arity three, adaptedness at node one, the "
                      "perturbed ladder at square one"):
        with pytest.raises(MathCheckError) as excinfo:
            check_square_zero(jacobi_violation())
        assert "('e1', 'e2', 'e3')" in str(excinfo.value)
        assert "('e3',)" in str(excinfo.value)

        adapted, sequence = check_adapted_mc(nonadapted_diagram(), {"x": ONE})
        assert adapted is False
        assert sequence["exact_at"][(0, 0)] is True
        assert sequence["exact_at"][(0, 1)] is False

        report = check_resolution_morphism(perturbed_ladder())
        assert report["ok"] is False
        assert report["squares"][0] is True
        assert report["squares"][1] is False


# the corpus table of scripts/verify_corpus.py, so the two cannot drift apart
CLI_RUNS = load_script("verify_corpus").RUNS


def _run_cli(args, report_path):
    argv = [sys.executable, "-m", "linfty.cli", args[0],
            str(FIXTURES / args[1])] + args[2:] + ["--report", str(report_path)]
    proc = subprocess.run(argv, capture_output=True, text=True)
    return proc.returncode, proc.stdout, report_path.read_bytes()


def test_criterion_9_cli_is_deterministic(tmp_path):
    with criterion(9, "repeated CLI runs over the corpus exit identically "
                      "and produce byte-identical reports"):
        assert CLI_RUNS, "the corpus table is empty"
        for i, (args, expected) in enumerate(CLI_RUNS):
            first = _run_cli(args, tmp_path / f"a{i}.json")
            second = _run_cli(args, tmp_path / f"b{i}.json")
            assert first[0] == expected, (args, first)
            assert first == second, args
            json.loads(first[2])
