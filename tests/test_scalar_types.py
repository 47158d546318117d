"""Scalars are ints when integral, else Fractions; never floats.

Integral arithmetic stays in machine ints, and a Fraction is built only where
a division happens.  The first tests walk what the package stores and
returns: the component tables of pooled random ladders and instances and of
the shipped fixtures, and every matrix, cohomology answer and induced map
that exact homology returns on them.  One lints the package source: an
a / b on two ints would silently make a float.  The last two compare every
matrix homology makes without validation with the validated one, and run
the random families on a fractional coefficient pool, which must store
Fractions and divide by a pivot other than +-1.
"""

import ast
from fractions import Fraction
from pathlib import Path
import random

import pytest

from linfty import homology, instances, resolutions
from linfty.cli import main
from linfty.graded import ComponentTable, el_add, el_scale
from linfty.homology import ChainComplex, Matrix, nullspace, rref
from linfty.instances import (
    CHARTS,
    matrix_structure,
    random_instance,
    random_ladder,
    random_strict_transport,
    two_chart_ladder,
)
from linfty.io import load_document
from linfty.resolutions import prop_key_pipeline
from linfty.modules import check_module_twist_consistency
from linfty.structures import (
    chain_complex,
    check_morphism,
    check_square_zero,
    invert,
)
from linfty.twisting import (
    check_morphism_twist_identities,
    check_pushforward_functoriality,
    check_structure_twist_identities,
    mc_check,
    mc_preservation,
    twist_morphism,
    twist_structure,
)

from conftest import load_script

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
PACKAGE = ROOT / "src" / "linfty"


def is_exact_scalar(q):
    """An int (not a bool), or a Fraction that is not an integer."""
    return type(q) is int or (type(q) is Fraction and q.denominator > 1)


def reachable(root):
    """Component tables, matrices and leaves reachable from root.

    Follows dict keys and values, list, tuple and set items, and instance
    attributes; a table's memo sits in a slot and is not followed.
    """
    tables, matrices, leaves = [], [], []
    seen = set()
    stack = [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, Matrix):
            matrices.append(obj)
        elif isinstance(obj, dict):
            stack.extend(obj)
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        elif isinstance(obj, (bool, int, float, Fraction, str)) or obj is None:
            leaves.append(obj)
        else:
            if isinstance(obj, ComponentTable):
                tables.append(obj)
            stack.extend(vars(obj).values())
    return tables, matrices, leaves


def assert_exact(root):
    """Every table value and matrix entry is an exact scalar; no float anywhere.

    Returns the numbers of tables, of matrices and of Fractions seen.
    """
    tables, matrices, leaves = reachable(root)
    scalars = [q for table in tables for row in table.components.values()
               for value in row.values() for q in value.values()]
    scalars += [q for m in matrices for r in m.rows for q in r]
    assert all(is_exact_scalar(q) for q in scalars)
    for leaf in leaves:
        assert not isinstance(leaf, float), leaf
        assert not (isinstance(leaf, Fraction) and leaf.denominator == 1), leaf
    fractions = sum(isinstance(q, Fraction) for q in [*scalars, *leaves])
    return len(tables), len(matrices), fractions


@pytest.fixture
def homology_answers(monkeypatch):
    """Record every answer of rref, cohomology and induced_map while in use."""
    answers = []

    def recording(fn):
        def wrapper(*args):
            out = fn(*args)
            answers.append(out)
            return out
        return wrapper

    induced_map = recording(homology.induced_map)
    monkeypatch.setattr(homology, "rref", recording(homology.rref))
    monkeypatch.setattr(homology, "induced_map", induced_map)
    monkeypatch.setattr(resolutions, "induced_map", induced_map)
    monkeypatch.setattr(ChainComplex, "cohomology",
                        recording(ChainComplex.cohomology))
    return answers


@pytest.fixture
def trusted_matrices(monkeypatch):
    """Check every matrix made without validation against Matrix(...).

    Each one must equal, in shape, values and the type of every entry, the
    matrix the validating constructor builds from the same rows; so no
    trusted row holds an integral Fraction.  Returns the list of them.
    """
    made = []
    unchecked = Matrix._made

    def checked(nrows, ncols, rows):
        m = unchecked(nrows, ncols, rows)
        validated = Matrix(nrows, ncols, rows)
        assert (m.nrows, m.ncols, m.rows) == (
            validated.nrows, validated.ncols, validated.rows)
        assert [[type(q) for q in r] for r in m.rows] == \
            [[type(q) for q in r] for r in validated.rows]
        made.append(m)
        return m

    monkeypatch.setattr(Matrix, "_made", staticmethod(checked))
    return made


@pytest.fixture
def non_unit_pivots(monkeypatch):
    """Count rref's pivot reciprocals: it builds Fraction(1) for a pivot
    other than +-1 only."""
    pivots = []

    def counting(*args):
        pivots.append(args)
        return Fraction(*args)

    monkeypatch.setattr(homology, "Fraction", counting)
    return pivots


def instance_checks(inst):
    """The twist identity checks of criteria 1 and 3 to 5 on one instance."""
    base, pi, f = inst["base"], inst["pi"], inst["morphism"]
    twisted = twist_structure(base, pi)
    second = el_scale(pi, 2)
    assert check_square_zero(twisted) and twisted.is_flat()
    assert mc_preservation(f, pi) == inst["pi_pushed"]
    assert check_morphism(twist_morphism(f, pi))
    assert check_structure_twist_identities(base, pi, second)
    assert check_morphism_twist_identities(f, pi, second)
    assert check_pushforward_functoriality(invert(f), f, pi)
    assert check_module_twist_consistency(f, pi)
    cc = chain_complex(twisted)
    return inst, twisted, [cc.cohomology(k) for k in cc.degrees()]


def fractional_ladder():
    """A two-chart ladder over a matrix instance whose datum is not integral."""
    base, xi = matrix_structure(
        4, xi={"e12": Fraction(1, 2), "e23": Fraction(-2, 3), "e34": 3})
    rng = random.Random(1)
    transports = {a: random_strict_transport(rng, base)[1] for a in CHARTS}
    return two_chart_ladder(base, transports, label="fractional"), xi


def test_random_ladders_store_and_return_exact_scalars(homology_answers):
    fractions = 0
    for ladder, xi in [random_ladder(seed) for seed in (0, 1, 2, 5)] \
            + [fractional_ladder()]:
        report = prop_key_pipeline(ladder, xi)
        assert report["verdict"] == "quasi-isomorphism"
        tables, matrices, seen = assert_exact((ladder, xi, report))
        assert tables and matrices
        fractions += seen
    assert fractions  # the Fraction branch of the rule was exercised
    assert homology_answers
    assert assert_exact(homology_answers)[1]


def test_a_fraction_appears_only_where_a_division_leaves_one():
    m = Matrix(1, 2, [[2, 1]])
    red, pivots = rref(m)
    assert red.rows == ((1, Fraction(1, 2)),) and pivots == (0,)
    assert [type(q) for q in red.rows[0]] == [int, Fraction]
    assert nullspace(m) == [(Fraction(-1, 2), 1)]
    assert [type(q) for q in nullspace(m)[0]] == [Fraction, int]
    # a +-1 pivot is its own inverse: the rows stay ints
    red, _ = rref(Matrix(2, 2, [[-1, 2], [1, 3]]))
    assert all(type(q) is int for r in red.rows for q in r)


def test_random_instances_store_and_return_exact_scalars(homology_answers):
    for seed in (0, 3, 4, 7):
        inst = random_instance(seed)
        twisted = twist_structure(inst["base"], inst["pi"])
        assert check_square_zero(twisted)
        tables, _, _ = assert_exact((
            inst, twisted, twist_morphism(inst["morphism"], inst["pi"]),
            invert(inst["morphism"])))
        assert tables
        cc = chain_complex(twisted)
        assert_exact([cc.cohomology(k) for k in cc.degrees()])
    assert_exact(homology_answers)


def test_shipped_fixtures_and_their_cli_runs_are_exact(homology_answers, capsys,
                                                       tmp_path):
    for path in sorted(FIXTURES.glob("*.json")):
        tables, _, _ = assert_exact(
            load_document(path.read_text(encoding="utf-8")))
        assert tables, path.name
    # the commands of the corpus exercise the fixtures' homology
    for args, expected in load_script("verify_corpus").RUNS:
        argv = [args[0], str(FIXTURES / args[1]), *args[2:],
                "--report", str(tmp_path / "report.json")]
        assert main(argv) == expected, args
    capsys.readouterr()
    assert homology_answers
    assert assert_exact(homology_answers)[1]


def test_the_only_division_is_the_rref_pivot_reciprocal():
    divisions, float_calls = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) \
                    and isinstance(node.op, ast.Div):
                divisions.append((path.name, ast.unparse(node)))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                    and node.func.id == "float":
                float_calls.append((path.name, node.lineno))
    assert divisions == [("homology.py", "Fraction(1) / p")]
    assert float_calls == []


def test_trusted_matrices_equal_validated_ones(trusted_matrices):
    """Every matrix homology makes without validation on the pooled ladders
    and instances and the fractional ladder is the validated one."""
    for seed in range(10):
        ladder, xi = random_ladder(seed)
        assert prop_key_pipeline(ladder, xi)["verdict"] == "quasi-isomorphism"
        instance_checks(random_instance(seed))
    ladder, xi = fractional_ladder()
    assert prop_key_pipeline(ladder, xi)["verdict"] == "quasi-isomorphism"
    assert len(trusted_matrices) > 1000


FRACTIONAL_POOL = (Fraction(-1, 2), -1, Fraction(2, 3), 2)


def richer_datum(ladder, xi, c):
    """xi plus c times the first unit of shifted degree 0.

    Twisting a matrix instance by its own xi cancels the node differentials,
    so its homology sees only +-1 pivots; a single unit squares to zero, so
    the sum is again Maurer-Cartan and its twist keeps them.
    """
    base = ladder.source.base
    unit = next(g for g in base.space.basis if base.space.degree(g) == 0)
    pi = el_add(xi, {unit: c})
    assert mc_check(base, pi)
    return pi


def test_fractional_families_take_the_fraction_path(monkeypatch,
                                                    trusted_matrices,
                                                    non_unit_pivots,
                                                    homology_answers):
    """With a fractional coefficient pool the random families store
    Fractions, and their homology divides by pivots other than +-1."""
    monkeypatch.setattr(instances, "LINEAR_POOL", FRACTIONAL_POOL)
    monkeypatch.setattr(instances, "QUADRATIC_POOL", FRACTIONAL_POOL)
    fractions = 0
    for seed in range(4):
        ladder, xi = random_ladder(seed)
        pi = richer_datum(ladder, xi, FRACTIONAL_POOL[seed])
        report = prop_key_pipeline(ladder, pi)
        assert report["verdict"] == "quasi-isomorphism"
        assert report["routes_agree"] is True
        fractions += assert_exact((ladder, pi, report))[2]
        inst = random_instance(seed)
        fractions += assert_exact(instance_checks(inst))[2]
    assert fractions
    assert non_unit_pivots
    assert trusted_matrices
    assert assert_exact(homology_answers)[1]
