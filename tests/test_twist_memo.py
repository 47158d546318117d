"""The kept twists against the uncached twist loop they replaced.

twist_table keeps each row of a table's twist under (datum, k),
twist_structure and twist_morphism keep the twisted object under the
datum, and a space keeps the weighted powers pi^l / l! of each datum,
built only as far as some caller has read them.  The oracle below is the
uncached loop, kept verbatim as the reference: every row must equal it on
a cold table and on a warm one, for the random instances and ladders and
for a hand-built datum whose powers carry non-integral coefficients.
Equal data spelled differently share one memo entry, and a twist builds
only the powers its rows read.
"""

from fractions import Fraction
from itertools import islice

import pytest

from linfty.graded import (
    GradedSpace,
    ONE,
    _accumulate,
    co_from_element,
    el_scale,
    sym_mul,
)
from linfty.instances import matrix_structure, random_instance, random_ladder
from linfty.modules import surviving_tensors
from linfty.structures import LInftyMorphism, LInftyStructure, identity_morphism
from linfty.twisting import (
    exp_element,
    maurer_cartan_series,
    push_mc,
    twist_morphism,
    twist_structure,
    twist_table,
    validate_twist_datum,
    weighted_powers,
)


# -- oracle: the uncached twist loop -------------------------------------------

def oracle_weighted_powers(space, pi):
    power = {(): ONE}
    ell = 0
    while power:
        yield ell, power
        ell += 1
        power = sym_mul(space, power, co_from_element(pi))
        power = el_scale(power, Fraction(1, ell))


def oracle_twist_table(table, pi, arities=None):
    space = table.word_space
    pi = validate_twist_datum(space, pi)
    powers = list(islice(oracle_weighted_powers(space, pi), table.max_arity + 1))
    if arities is None:
        arities = range(table.max_arity + 1)
    comps = {}
    for k in arities:
        row = {}
        words = space.enumerate_words(k, min_arity=k)
        keys = (((word, None) for word in words) if table.key_space is None
                else surviving_tensors(space, table.key_space, words))
        for word, mgen in keys:
            total = {}
            for ell, power in powers:
                if k + ell > table.max_arity:
                    break
                for pword, pcoeff in power.items():
                    for g, q in table.value(pword + word, mgen).items():
                        _accumulate(total, g, q * pcoeff)
            if total:
                row[word if mgen is None else (word, mgen)] = total
        if row:
            comps[k] = row
    return comps


def assert_twists_match(table, pi):
    """Every row, and the unit value, cold then warm, equals the oracle."""
    expected = oracle_twist_table(table, pi)
    unit = expected.get(0, {}).get((), {})
    for _ in range(2):
        assert twist_table(table, pi) == expected
        for k in range(table.max_arity + 2):
            assert twist_table(table, pi, (k,)) == (
                {k: expected[k]} if k in expected else {})
        assert twist_table(table, pi, (0,)).get(0, {}).get((), {}) == unit


def fresh(table):
    """An equal structure or morphism with an empty memo."""
    if isinstance(table, LInftyStructure):
        return LInftyStructure(table.space, table.components)
    return LInftyMorphism(table.source, table.target, table.components)


# -- the random families ---------------------------------------------------------

@pytest.mark.parametrize("seed", range(40))
def test_instance_twists_match_the_oracle(seed):
    inst = random_instance(seed)
    base, pi, f = fresh(inst["base"]), inst["pi"], fresh(inst["morphism"])
    second = el_scale(pi, 2)
    # each table is checked before anything twists it
    for table in (base, f):
        for datum in (pi, second):
            assert_twists_match(table, datum)
    f_pi = twist_morphism(f, pi)
    for table in (f_pi, twist_morphism(f_pi, second)):
        for datum in (pi, second):
            assert_twists_match(table, datum)
    assert push_mc(f, pi) == oracle_twist_table(f, pi, (0,)).get(0, {}).get((), {})
    assert maurer_cartan_series(base, pi) == {}
    assert f_pi.components == oracle_twist_table(f, pi, range(1, f.max_arity + 1))
    assert twist_structure(base, pi).components == oracle_twist_table(base, pi)


@pytest.mark.parametrize("seed", range(10))
def test_ladder_twists_match_the_oracle(seed):
    ladder, xi = random_ladder(seed)
    tables = [*ladder.verticals()]
    for diagram in (ladder.source, ladder.target):
        tables += [*diagram.modules(), *diagram.maps()]
    for table in tables:
        assert_twists_match(table, xi)


# -- a datum with non-integral powers --------------------------------------------

def curved_square():
    """Q_0 = c, Q_2(x, x) = c and Q_2(x, y) = 3c; x and y sit in shifted
    degree 0 at level 1, so pi^2 / 2 keeps the 1/2."""
    space = GradedSpace([("x", 0, 1), ("y", 0, 1), ("c", 1, 2)], 3)
    return LInftyStructure(space, {0: {(): {"c": ONE}},
                                   2: {("x", "x"): {"c": ONE},
                                       ("x", "y"): {"c": 3}}})


@pytest.mark.parametrize("pi", [{"x": ONE}, {"x": Fraction(1, 3)},
                                {"x": ONE, "y": Fraction(-1, 2)}])
def test_fraction_powers_match_the_oracle(pi):
    structure = curved_square()
    powers = weighted_powers(structure.space, pi)
    assert powers == tuple(oracle_weighted_powers(structure.space, pi))
    assert any(type(q) is Fraction for _, power in powers for q in power.values())
    assert_twists_match(structure, pi)
    assert_twists_match(identity_morphism(structure), pi)


def test_half_square_keeps_its_fraction():
    structure = curved_square()
    assert maurer_cartan_series(structure, {"x": ONE}) == {"c": Fraction(3, 2)}
    assert exp_element(structure.space, {"x": ONE}) == {
        (): ONE, ("x",): ONE, ("x", "x"): Fraction(1, 2)}


# -- one datum, one memo entry ---------------------------------------------------

def data_kept(table):
    """The data a table keeps twists under: rows (datum, k) and objects."""
    return {key if isinstance(key, frozenset) else key[0] for key in table._twists}


def test_spellings_of_one_datum_share_one_entry():
    structure = curved_square()
    twisted = [twist_structure(structure, {"x": q})
               for q in (2, Fraction(2), "2", "4/2")]
    assert all(t is twisted[0] for t in twisted)
    for q in (2, Fraction(2), "2", "4/2"):
        assert twist_table(structure, {"x": q}) == twist_table(structure, {"x": 2})
        weighted_powers(structure.space, {"x": q})
    assert data_kept(structure) == {frozenset({("x", 2)})}
    assert list(structure.space._powers) == [frozenset({("x", 2)})]


def test_a_zero_coefficient_is_no_term():
    structure = curved_square()
    with_zero = twist_structure(structure, {"x": ONE, "y": 0})
    assert with_zero is twist_structure(structure, {"x": ONE})
    assert twist_table(structure, {"x": ONE, "y": Fraction(0)}) == \
        oracle_twist_table(structure, {"x": ONE})
    assert data_kept(structure) == {frozenset({("x", ONE)})}


# -- powers built on demand ------------------------------------------------------

def powers_built(space, pi):
    """How many powers pi^l / l! the space keeps for the datum."""
    kept = space._powers[frozenset(validate_twist_datum(space, pi).items())]
    return sum(entry is not None for entry in kept)


def test_a_twist_builds_only_the_powers_it_reads():
    # xi^l / l! dies only at l = 8, but a twist row reads l <= max_arity
    structure, xi = matrix_structure(8)
    twisted = twist_structure(structure, xi)
    assert maurer_cartan_series(structure, xi) == {}
    assert powers_built(structure.space, xi) <= structure.max_arity + 1
    assert twisted.components == oracle_twist_table(structure, xi)


@pytest.mark.parametrize("limits", [(None,), (2, 0, 1, 5, None, 3, 100),
                                    (100, 1), (1, 2, 3, 4, 5, 6, 7)])
def test_powers_extend_on_demand_to_the_oracle(limits):
    cases = [(curved_square(), {"x": ONE, "y": Fraction(-1, 2)}),
             matrix_structure(4)]
    for structure, pi in cases:
        space = GradedSpace(structure.space.generators,
                            structure.space.nilpotency_order)
        expected = tuple(oracle_weighted_powers(space, pi))
        built = 1  # pi^0 is kept on the first read
        for limit in limits:
            assert weighted_powers(space, pi, limit) == expected[:limit]
            built = max(built, len(expected[:limit]))
            assert powers_built(space, pi) == built
        assert weighted_powers(space, pi) == expected
        assert powers_built(space, pi) == len(expected)
