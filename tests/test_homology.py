"""Exact linear algebra and cohomology tests.

The rank oracle here is a plain Gaussian elimination over Fraction written
independently of the package's Bareiss routine, so the two can disagree only
if one of them is wrong.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from linfty import homology
from linfty.graded import GradedSpace, InputError, MathCheckError
from linfty.homology import (
    ChainComplex,
    Matrix,
    check_chain_map,
    induced_map,
    induced_maps,
    is_isomorphism,
    nullspace,
    operator_complex,
    rank,
    rref,
    solve,
    solve_columns,
    solve_matrix,
)


def rank_oracle(rows, ncols):
    """Independent rank: naive Gaussian elimination over Fraction."""
    rows = [[Fraction(x) for x in r] for r in rows]
    rk = 0
    for col in range(ncols):
        piv = next((i for i in range(rk, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[rk], rows[piv] = rows[piv], rows[rk]
        inv = Fraction(1) / rows[rk][col]
        rows[rk] = [x * inv for x in rows[rk]]
        for i in range(len(rows)):
            if i != rk and rows[i][col] != 0:
                c = rows[i][col]
                rows[i] = [a - c * b for a, b in zip(rows[i], rows[rk])]
        rk += 1
    return rk


small_fraction = st.fractions(min_value=-4, max_value=4, max_denominator=4)


def matrices(max_dim=4):
    return st.integers(0, max_dim).flatmap(
        lambda n: st.integers(0, max_dim).flatmap(
            lambda m: st.lists(
                st.lists(small_fraction, min_size=m, max_size=m),
                min_size=n, max_size=n,
            ).map(lambda rows: Matrix(n, m, rows))))


# -- matrix basics -------------------------------------------------------------

def test_matrix_shape_checks():
    with pytest.raises(InputError):
        Matrix(2, 2, [[1, 2]])
    with pytest.raises(InputError):
        Matrix.from_rows([], )
    assert Matrix.from_rows([], ncols=3).ncols == 3
    a = Matrix(0, 2)
    b = Matrix(2, 3)
    assert (a * b).ncols == 3 and (a * b).nrows == 0


@pytest.mark.parametrize("shape", [(True, 1), (1, False), (2.0, 2), ("a", 1),
                                   (1, None), (-1, 0), (0, -2)])
def test_matrix_rejects_a_shape_that_is_not_a_count(shape):
    """A shape follows the arity rule: an int, not a bool, and >= 0."""
    with pytest.raises(InputError):
        Matrix(*shape)


def test_matrix_identity_and_apply():
    i3 = Matrix.identity(3)
    assert i3.apply((Fraction(1), Fraction(2), Fraction(3))) == \
        (Fraction(1), Fraction(2), Fraction(3))
    m = Matrix(2, 2, [[0, 1], [1, 0]])
    assert m * m == Matrix.identity(2)


@settings(max_examples=50, deadline=None)
@given(matrices())
def test_rank_matches_gaussian_oracle(m):
    assert rank(m) == rank_oracle([list(r) for r in m.rows], m.ncols)


@settings(max_examples=50, deadline=None)
@given(matrices())
def test_rank_transpose_invariant(m):
    assert rank(m) == rank(m.transpose())


@settings(max_examples=50, deadline=None)
@given(matrices())
def test_rank_nullity(m):
    assert rank(m) + len(nullspace(m)) == m.ncols


@settings(max_examples=50, deadline=None)
@given(matrices())
def test_nullspace_vectors_are_killed(m):
    for v in nullspace(m):
        assert all(x == 0 for x in m.apply(v))


@settings(max_examples=50, deadline=None)
@given(matrices(), st.data())
def test_solve_recovers_consistent_systems(m, data):
    x = tuple(data.draw(small_fraction) for _ in range(m.ncols))
    b = m.apply(x)
    s = solve(m, b)
    assert s is not None
    assert m.apply(s) == b


def test_solve_detects_inconsistency():
    m = Matrix(2, 1, [[1], [1]])
    assert solve(m, (Fraction(1), Fraction(2))) is None


def oracle_solve(m, b):
    """The one-column elimination that solve_columns replaced, kept as the
    reference: rref of [m | b], inconsistent when b holds a pivot."""
    if len(b) != m.nrows:
        raise InputError("right-hand side length does not match matrix rows")
    aug = Matrix(m.nrows, m.ncols + 1,
                 [list(r) + [bi] for r, bi in zip(m.rows, b)])
    red, pivots = rref(aug)
    if m.ncols in pivots:
        return None
    x = [0] * m.ncols
    for r, p in enumerate(pivots):
        x[p] = red.rows[r][m.ncols]
    return tuple(x)


@st.composite
def systems(draw):
    """A matrix and up to four right-hand sides, each m x or a free vector."""
    m = draw(matrices())
    columns = []
    for _ in range(draw(st.integers(0, 4))):
        size = m.ncols if draw(st.booleans()) else m.nrows
        v = tuple(draw(st.lists(small_fraction, min_size=size, max_size=size)))
        columns.append(m.apply(v) if size == m.ncols else v)
    return m, columns


def solve_columns_counting(m, columns):
    """solve_columns(m, columns) and the number of rref calls it made."""
    calls = []
    real = homology.rref
    homology.rref = lambda mat: calls.append(mat) or real(mat)
    try:
        return solve_columns(m, columns), len(calls)
    finally:
        homology.rref = real


@settings(max_examples=100, deadline=None)
@given(systems())
def test_solve_columns_equals_per_column_solves(system):
    """One elimination gives each column's solution, int or Fraction alike,
    and None exactly when some column is inconsistent."""
    m, columns = system
    got, eliminations = solve_columns_counting(m, columns)
    assert eliminations == (1 if columns else 0)
    expected = [oracle_solve(m, b) for b in columns]
    if None in expected:
        assert got is None
        return
    assert got == expected
    assert [[type(q) for q in x] for x in got] \
        == [[type(q) for q in x] for x in expected]
    assert [m.apply(x) for x in got] == [tuple(b) for b in columns]


@pytest.mark.parametrize("m, columns, expected", [
    (Matrix(0, 3), [(), ()], [(0, 0, 0), (0, 0, 0)]),
    (Matrix(2, 0), [(0, 0)], [()]),
    (Matrix(2, 0), [(0, 0), (0, 1)], None),
    (Matrix(0, 0), [()], [()]),
    (Matrix(2, 2, [[2, 0], [0, 3]]), [], []),
    (Matrix(2, 2, [[2, 0], [0, 3]]), [(1, 0), (0, 1)],
     [(Fraction(1, 2), 0), (0, Fraction(1, 3))]),
    (Matrix(2, 1, [[2], [4]]), [(1, 2), (1, 1)], None),
])
def test_solve_columns_on_edge_shapes(m, columns, expected):
    assert solve_columns(m, columns) == expected
    assert solve_columns(m, columns) == (
        None if None in [oracle_solve(m, b) for b in columns]
        else [oracle_solve(m, b) for b in columns])


def test_solve_columns_rejects_a_column_of_the_wrong_length():
    with pytest.raises(InputError, match="does not match matrix rows"):
        solve_columns(Matrix(2, 2), [(0, 0), (0,)])


def test_solve_matrix_round_trip():
    a = Matrix(2, 2, [[1, 1], [0, 1]])
    b = Matrix(2, 2, [[3, 0], [1, 1]])
    x = solve_matrix(a, b)
    assert a * x == b


def test_rref_is_idempotent_and_pivots_sorted():
    m = Matrix(3, 3, [[2, 4, 0], [1, 2, 1], [0, 0, 3]])
    red, pivots = rref(m)
    red2, pivots2 = rref(red)
    assert red == red2 and pivots == pivots2
    assert list(pivots) == sorted(pivots)


# -- complexes -----------------------------------------------------------------

def test_zero_differential_betti_equals_dims():
    c = ChainComplex({0: 2, 1: 3}, {})
    assert c.betti() == {0: 2, 1: 3}


def test_two_term_acyclic_complex():
    # one generator in each of two adjacent degrees, d an isomorphism
    c = ChainComplex({0: 1, 1: 1}, {0: [[1]]})
    assert c.betti() == {0: 0, 1: 0}
    assert c.is_exact()


def test_two_chart_difference_complex():
    # constants on a two-chart cover: 0 -> k^2 -> k -> 0, d = difference
    c = ChainComplex({0: 2, 1: 1}, {0: [[1, -1]]})
    assert c.betti() == {0: 1, 1: 0}
    betti0, reps = c.cohomology(0)
    assert betti0 == 1
    assert reps == [(Fraction(1), Fraction(1))]


def test_complex_rejects_nonsquare_zero():
    with pytest.raises(MathCheckError):
        ChainComplex({0: 1, 1: 1, 2: 1}, {0: [[1]], 1: [[1]]})


def test_complex_shape_validation():
    with pytest.raises(InputError):
        ChainComplex({0: 2, 1: 1}, {0: [[1]]})


def test_zero_dimensional_degrees_are_fine():
    c = ChainComplex({0: 0, 1: 2}, {})
    assert c.betti() == {0: 0, 1: 2}
    assert c.dim(5) == 0


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3), st.data())
def test_three_term_complex_betti(n0, n1, n2, data):
    """Build d1 from the left kernel of d0 so d1 d0 = 0 by construction."""
    d0 = Matrix(n1, n0, [[data.draw(small_fraction) for _ in range(n0)]
                         for _ in range(n1)])
    left_kernel = nullspace(d0.transpose())
    d1_rows = []
    for _ in range(n2):
        coeffs = [data.draw(small_fraction) for _ in left_kernel]
        row = [Fraction(0)] * n1
        for c, v in zip(coeffs, left_kernel):
            row = [a + c * b for a, b in zip(row, v)]
        d1_rows.append(row)
    d1 = Matrix(n2, n1, d1_rows)
    c = ChainComplex({0: n0, 1: n1, 2: n2}, {0: d0, 1: d1})
    assert c.cohomology(0)[0] == len(nullspace(d0))
    assert c.cohomology(1)[0] == len(nullspace(d1)) - rank(d0)
    assert c.cohomology(2)[0] == n2 - rank(d1)


def test_representatives_are_cycles_off_boundaries():
    # d0 has image spanned by (1,1,0); cycles of d1 are everything
    c = ChainComplex({0: 1, 1: 3}, {0: [[1], [1], [0]]})
    betti, reps = c.cohomology(1)
    assert betti == 2
    red, pivots = rref(Matrix.from_rows([(1, 1, 0)], ncols=3))
    for rep in reps:
        # reduced against the boundary span: pivot coordinate vanishes
        assert rep[pivots[0]] == 0


# -- chain maps ----------------------------------------------------------------

def test_check_chain_map_accepts_identity_rejects_noncommuting():
    c = ChainComplex({0: 1, 1: 1}, {0: [[1]]})
    check_chain_map(c, c, {0: Matrix.identity(1), 1: Matrix.identity(1)})
    d = ChainComplex({0: 1, 1: 1}, {})
    with pytest.raises(MathCheckError):
        check_chain_map(c, d, {0: Matrix.identity(1), 1: Matrix.identity(1)})


def test_induced_identity_is_identity():
    c = ChainComplex({0: 2, 1: 1}, {0: [[1, -1]]})
    maps = {0: Matrix.identity(2), 1: Matrix.identity(1)}
    check_chain_map(c, c, maps)
    m0 = induced_map(c, c, maps, 0)
    assert m0 == Matrix.identity(1)
    assert is_isomorphism(m0)
    m1 = induced_map(c, c, maps, 1)
    assert m1 == Matrix(0, 0)
    assert is_isomorphism(m1)


def test_induced_map_from_acyclic_source_is_empty():
    # the acyclic two-term complex has no degree-1 classes to map
    src = ChainComplex({0: 1, 1: 1}, {0: [[1]]})
    dst = ChainComplex({0: 1, 1: 1}, {})
    maps = {0: Matrix.identity(1), 1: Matrix(1, 1, [[0]])}
    check_chain_map(src, dst, maps)
    m1 = induced_map(src, dst, maps, 1)
    assert m1 == Matrix(1, 0)


def test_induced_map_into_a_target_without_cycles_is_empty():
    """A target degree with generators but no cycles has no classes: the
    induced map has no rows, whatever the source's classes."""
    src = ChainComplex({0: 1}, {})
    dst = ChainComplex({0: 1, 1: 1}, {0: [[1]]})
    assert induced_map(src, dst, {0: Matrix(1, 1)}, 0) == Matrix(0, 1)
    with pytest.raises(MathCheckError, match="not a chain map"):
        induced_map(src, dst, {0: Matrix.identity(1)}, 0)


def test_induced_map_scaling():
    c = ChainComplex({0: 2, 1: 1}, {0: [[1, -1]]})
    maps = {0: Matrix.identity(2).scale(3), 1: Matrix.identity(1).scale(3)}
    check_chain_map(c, c, maps)
    assert induced_map(c, c, maps, 0) == Matrix(1, 1, [[3]])


def test_induced_map_composes():
    c = ChainComplex({0: 2, 1: 1}, {0: [[1, -1]]})
    # d f0 = [3-1, -1-1] = [2, -2] = f1 d, so this commutes
    f = {0: Matrix(2, 2, [[3, -1], [1, 1]]), 1: Matrix(1, 1, [[2]])}
    check_chain_map(c, c, f)
    ff = {k: f[k] * f[k] for k in f}
    check_chain_map(c, c, ff)
    assert induced_map(c, c, ff, 0) == \
        induced_map(c, c, f, 0) * induced_map(c, c, f, 0)


def test_is_isomorphism_rejects_nonsquare_and_singular():
    assert not is_isomorphism(Matrix(1, 2, [[1, 0]]))
    assert not is_isomorphism(Matrix(2, 2, [[1, 1], [1, 1]]))
    assert is_isomorphism(Matrix(2, 2, [[1, 1], [0, 1]]))
    assert is_isomorphism(Matrix(0, 0))


# -- exact boundary ------------------------------------------------------------

@pytest.mark.parametrize("entry", [0.5, 1.0, True])
def test_matrix_rejects_float_and_bool_entries(entry):
    with pytest.raises(InputError):
        Matrix(1, 1, [[entry]])


@pytest.mark.parametrize("scalar", [0.5, True])
def test_matrix_scale_rejects_float_and_bool(scalar):
    with pytest.raises(InputError):
        Matrix.identity(2).scale(scalar)


@pytest.mark.parametrize("vec", [(1.5, 2), (1, 2.0), (True, 1), (1, False)])
def test_matrix_apply_rejects_float_and_bool_entries(vec):
    m = Matrix(2, 2, [[1, 2], [3, 4]])
    with pytest.raises(InputError, match="exact scalars required"):
        m.apply(vec)


def test_matrix_apply_takes_exact_scalars():
    m = Matrix(2, 2, [[1, 2], [3, 4]])
    assert m.apply((Fraction(1, 2), 2)) == (Fraction(9, 2), Fraction(19, 2))
    assert m.apply(("1/2", 2)) == m.apply((Fraction(1, 2), 2))
    half = Fraction(1, 2)
    image = Matrix(2, 2, [[1, 1], [1, 2]]).apply((half, half))
    assert image == (1, Fraction(3, 2))
    assert [type(q) for q in image] == [int, Fraction]
    with pytest.raises(InputError, match="vector length"):
        m.apply((1.5,))


@pytest.mark.parametrize("other", [5, Fraction(1, 2), "m", None, [[1, 0], [0, 1]]])
def test_matrix_arithmetic_with_a_non_matrix_is_a_type_error(other):
    """+, - and * return NotImplemented, so Python raises TypeError."""
    m = Matrix.identity(2)
    for op in (lambda: m + other, lambda: other + m, lambda: m - other,
               lambda: other - m, lambda: m * other):
        with pytest.raises(TypeError):
            op()


@pytest.mark.parametrize("dims, differentials", [
    ({0: 2.7}, {}),
    ({0: True}, {}),
    ({0.0: 1}, {}),
    ({0: 1, 1: 1}, {False: [[1]]}),
])
def test_complex_requires_int_dimensions_and_degrees(dims, differentials):
    with pytest.raises(InputError, match="must be ints"):
        ChainComplex(dims, differentials)


# -- cohomology kept per degree, induced maps per complex pair ----------------

def test_cohomology_is_computed_once_per_degree(monkeypatch):
    calls = []
    monkeypatch.setattr(homology, "rref",
                        lambda m: calls.append(m) or rref(m))
    c = ChainComplex({0: 1, 1: 3}, {0: [[1], [1], [0]]})
    betti, reps = c.cohomology(1)
    first = len(calls)
    assert first > 0
    reps.clear()  # the caller gets a copy of the kept representatives
    again, kept = c.cohomology(1)
    assert again == betti == len(kept) == 2
    induced_map(c, c, {0: Matrix.identity(1), 1: Matrix.identity(3)}, 1)
    # the induced map reuses the kept boundary rows and solves for both
    # representatives in one elimination
    assert len(calls) == first + 1


def test_induced_maps_checks_then_covers_every_degree():
    c = ChainComplex({0: 2, 1: 1}, {0: [[1, -1]]})
    maps = {0: Matrix.identity(2).scale(3), 1: Matrix.identity(1).scale(3)}
    assert induced_maps(c, c, maps) == {
        0: Matrix(1, 1, [[3]]), 1: Matrix(0, 0)}
    d = ChainComplex({0: 2, 1: 1}, {})
    with pytest.raises(MathCheckError):
        induced_maps(c, d, {0: Matrix.identity(2), 1: Matrix.identity(1)})


def test_operator_complex_reads_a_degree_one_operator():
    space = GradedSpace([("a", 0, 0), ("b", 1, 0)], 1)
    cc = operator_complex(space, lambda s: {"b": Fraction(2)} if s == "a" else {})
    assert cc.dims == {0: 1, 1: 1}
    assert cc.d(0) == Matrix(1, 1, [[2]])
    assert cc.betti() == {0: 0, 1: 0}
