"""Fault injection: the exact-rows and Maurer-Cartan route checks can fire.

Each of these checks compares two independent computations, which agree on
correct code, so no valid input can make it raise.  Each test breaks
exactly one side of one comparison with monkeypatch and asserts the
documented error text: a check whose two sides shared a code path would
pass here, and the test would fail.
"""

import re

import pytest

from linfty import resolutions, twisting
from linfty.fixtures import fix_b
from linfty.graded import MathCheckError, ONE
from linfty.homology import Matrix
from linfty.instances import random_ladder
from linfty.resolutions import prop_key_pipeline
from linfty.twisting import mc_check


@pytest.fixture
def ladder():
    """random_ladder(0) and its datum: the twisted augmented cohomology is
    2x2 at degree 0, so the exact-rows route has entries to break."""
    return random_ladder(0)


def test_a_non_injective_target_augmentation_is_reported(monkeypatch, ladder):
    rank = resolutions.rank
    monkeypatch.setattr(resolutions, "rank", lambda m: rank(m) - 1)
    with pytest.raises(MathCheckError, match=re.escape(
            "twisted target augmentation not injective on cohomology at "
            "degree 0 despite adaptedness")):
        prop_key_pipeline(*ladder)


def test_an_unsolvable_augmentation_square_is_reported(monkeypatch, ladder):
    monkeypatch.setattr(resolutions, "solve_matrix", lambda a, b: None)
    with pytest.raises(MathCheckError, match=re.escape(
            "exact-rows route unsolvable at degree 0: augmentation square "
            "does not close on cohomology")):
        prop_key_pipeline(*ladder)


def test_a_perturbed_exact_rows_solution_disagrees_with_the_direct_route(
        monkeypatch, ladder):
    solve = resolutions.solve_matrix

    def perturbed(a, b):
        x = solve(a, b)
        if not x.nrows or not x.ncols:
            return x
        rows = [list(row) for row in x.rows]
        rows[0][0] += 1
        return Matrix(x.nrows, x.ncols, rows)

    monkeypatch.setattr(resolutions, "solve_matrix", perturbed)
    with pytest.raises(MathCheckError, match=re.escape(
            "exact-rows and direct routes disagree with the expected "
            "conclusion (agree=False, iso=True)")):
        prop_key_pipeline(*ladder)


def test_disagreeing_maurer_cartan_routes_raise_each_time_unkept(monkeypatch):
    structure, pi = fix_b(), {"x": ONE}
    monkeypatch.setattr(twisting, "maurer_cartan_series",
                        lambda structure, pi: {"c": ONE})
    for _ in range(2):
        with pytest.raises(MathCheckError, match=re.escape(
                "Maurer-Cartan routes disagree: "
                "{'series': False, 'full': True}")):
            mc_check(structure, pi)
    monkeypatch.undo()
    assert mc_check(structure, pi) is True
