"""Exact linear algebra over the rationals and cohomology of finite complexes.

Two independent elimination routines are kept on purpose: ranks come from
fraction-free Bareiss elimination on integer-scaled rows, while reduced row
echelon form over the rationals supplies deterministic kernel bases,
solutions and cohomology representatives; its pivot reciprocals are the only
divisions in the package.  cohomology() audits the two against each other
through rank-nullity, so a bug in either one surfaces as a hard error rather
than a silent wrong Betti number.  Each linear system takes one elimination:
solve_columns reduces [m | B] once for all its right-hand sides.

No elimination runs where its answer is fixed in advance.  A product with a
zero factor is the zero matrix.  At a degree whose two differentials are both
zero, every vector is a cycle and none is a boundary, so the cohomology is
the whole space with the unit basis as its representatives, and a map
induced into such a degree has the images of the source representatives as
its columns: exactly what the general path returns there.  Exactness of a
sequence of maps between cohomologies is read from ranks, with no complex
built per degree: node p is exact when its dimension is the sum of the ranks
of the maps into and out of it.  Each nonzero map of such a sequence is
ranked by Bareiss and by RREF, and a disagreement, like a nonzero composite,
marks every node of the sequence not exact.

Complexes are cochain complexes: d(k) maps degree k to degree k + 1.
Zero-dimensional degrees are fully supported (shape-checked empty matrices);
resolution diagrams rely on that for their virtual zero ends.

Inputs are validated where they enter: Matrix(...), Matrix.from_rows, a
ChainComplex or chain map given lists, the right-hand sides of
solve_columns, Matrix.apply's vector and the images linear_blocks reads
from a caller's callback.  A matrix the package builds itself from matrices
it already holds (an rref, a product, a sum, a transpose, a gather of
solution columns) is made by Matrix._made without re-validation: its
entries are ints, Fractions, or sums and products of them, so they are
exact by construction, and the arithmetic results are folded back to an int
wherever they are integral, so every stored row keeps the int-when-integral
form that validation would give.
"""

from fractions import Fraction
from math import gcd

from .graded import (
    InputError, MathCheckError, ZERO, ONE, _check_arity, parse_scalar)


def _fold(row):
    """A row of exact scalars as a tuple, each integral Fraction as its int."""
    return tuple([x if type(x) is int or x.denominator != 1 else x.numerator
                  for x in row])


class Matrix:
    """Immutable exact matrix with explicit shape (0-row/0-col safe).

    The public constructors check the shape and coerce every entry through
    parse_scalar.  Matrices derived inside this module from matrices that
    passed them are made by _made, unchecked (see the module docstring).
    """

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, nrows, ncols, rows=None):
        _check_arity(nrows, "nrows")
        _check_arity(ncols, "ncols")
        if rows is None:
            rows = [[ZERO] * ncols for _ in range(nrows)]
        if len(rows) != nrows or any(len(r) != ncols for r in rows):
            raise InputError(f"matrix rows do not match shape {nrows}x{ncols}")
        self.nrows = nrows
        self.ncols = ncols
        self.rows = tuple([tuple([x if type(x) is int else parse_scalar(x)
                                  for x in r]) for r in rows])

    @classmethod
    def from_rows(cls, rows, ncols=None):
        rows = list(rows)
        if not rows:
            if ncols is None:
                raise InputError("empty matrix needs an explicit column count")
            return cls(0, ncols)
        width = len(rows[0])
        if ncols is not None and ncols != width:
            raise InputError("declared column count disagrees with rows")
        return cls(len(rows), width, rows)

    @classmethod
    def _made(cls, nrows, ncols, rows):
        """A matrix of trusted rows: a tuple of nrows tuples of ncols exact
        scalars, each an int when integral.  Nothing is checked."""
        m = object.__new__(cls)
        m.nrows = nrows
        m.ncols = ncols
        m.rows = rows
        return m

    @classmethod
    def _zero(cls, nrows, ncols):
        return cls._made(nrows, ncols, ((ZERO,) * ncols,) * nrows)

    @classmethod
    def identity(cls, n):
        _check_arity(n, "nrows")
        return cls._made(n, n, tuple([tuple([ONE if i == j else ZERO
                                             for j in range(n)])
                                      for i in range(n)]))

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.nrows == other.nrows
                and self.ncols == other.ncols and self.rows == other.rows)

    def __hash__(self):
        return hash((self.nrows, self.ncols, self.rows))

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols}, {[list(r) for r in self.rows]})"

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise InputError(
                f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}")
        if self.is_zero() or other.is_zero():
            return Matrix._zero(self.nrows, other.ncols)
        cols = other.transpose().rows
        return Matrix._made(self.nrows, other.ncols, tuple([
            _fold([sum([a * b for a, b in zip(row, col)], ZERO) for col in cols])
            for row in self.rows]))

    def __add__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise InputError("matrix shape mismatch in addition")
        return Matrix._made(self.nrows, self.ncols, tuple([
            _fold([a + b for a, b in zip(ra, rb)])
            for ra, rb in zip(self.rows, other.rows)]))

    def __sub__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self + other.scale(-1)

    def scale(self, q):
        q = parse_scalar(q)
        return Matrix._made(self.nrows, self.ncols,
                            tuple([_fold([q * x for x in r]) for r in self.rows]))

    def transpose(self):
        rows = tuple(zip(*self.rows)) if self.nrows else ((),) * self.ncols
        return Matrix._made(self.ncols, self.nrows, rows)

    def apply(self, vec):
        """The image of vec, whose entries must be exact scalars."""
        if len(vec) == self.ncols:
            vec = [x if type(x) is int else parse_scalar(x) for x in vec]
        return self._apply(vec)

    def _apply(self, vec):
        """apply on a vector of exact scalars; its entries are not checked."""
        if len(vec) != self.ncols:
            raise InputError("vector length does not match matrix columns")
        return _fold([sum([a * b for a, b in zip(row, vec)], ZERO)
                      for row in self.rows])

    def column(self, j):
        return tuple(self.rows[i][j] for i in range(self.nrows))

    def is_zero(self):
        return not any(map(any, self.rows))


def rank(m):
    """Rank by fraction-free Bareiss elimination on integer-scaled rows."""
    rows = []
    for r in m.rows:
        scale = 1
        for q in r:
            scale = scale * q.denominator // gcd(scale, q.denominator)
        rows.append([int(q * scale) for q in r])
    prev = 1
    rk = 0
    row = 0
    for col in range(m.ncols):
        if row >= len(rows):
            break
        piv = next((i for i in range(row, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[row], rows[piv] = rows[piv], rows[row]
        p = rows[row][col]
        for i in range(row + 1, len(rows)):
            head = rows[i][col]
            for j in range(col + 1, m.ncols):
                rows[i][j] = (rows[i][j] * p - head * rows[row][j]) // prev
            rows[i][col] = 0
        prev = p
        row += 1
        rk += 1
    return rk


def rref(m):
    """Reduced row echelon form.  Returns (Matrix, pivot column tuple)."""
    rows = [list(r) for r in m.rows]
    pivots = []
    row = 0
    for col in range(m.ncols):
        if row >= len(rows):
            break
        piv = next((i for i in range(row, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[row], rows[piv] = rows[piv], rows[row]
        p = rows[row][col]
        inv = p if p in (1, -1) else Fraction(1) / p  # +-1 is its own inverse
        rows[row] = [x * inv for x in rows[row]]
        for i in range(len(rows)):
            if i != row and rows[i][col] != 0:
                c = rows[i][col]
                rows[i] = [a - c * b for a, b in zip(rows[i], rows[row])]
        pivots.append(col)
        row += 1
    return Matrix._made(m.nrows, m.ncols, tuple(map(_fold, rows))), tuple(pivots)


def nullspace(m):
    """Deterministic kernel basis: one vector per free column of the RREF."""
    red, pivots = rref(m)
    pivot_set = set(pivots)
    basis = []
    for free in range(m.ncols):
        if free in pivot_set:
            continue
        v = [ZERO] * m.ncols
        v[free] = ONE
        for r, p in enumerate(pivots):
            v[p] = -red.rows[r][free]
        basis.append(tuple(v))
    return basis


def solve_columns(m, columns):
    """Exact solutions of m x = b, one per column b, from one rref of [m | B].

    None when any column is inconsistent: then a pivot lands past m.ncols.
    The entries of each b must be exact scalars; m's are trusted.
    """
    if any(len(b) != m.nrows for b in columns):
        raise InputError("right-hand side length does not match matrix rows")
    if not columns:
        return []
    red, pivots = rref(Matrix._made(m.nrows, m.ncols + len(columns), tuple([
        r + tuple([x if type(x) is int else parse_scalar(x) for x in b])
        for r, b in zip(m.rows, zip(*columns))])))
    if pivots and pivots[-1] >= m.ncols:
        return None
    at = dict(zip(pivots, red.rows))
    return [tuple(at[i][j] if i in at else ZERO for i in range(m.ncols))
            for j in range(m.ncols, m.ncols + len(columns))]


def solve(m, b):
    """One exact solution of m x = b, or None when inconsistent."""
    xs = solve_columns(m, [b])
    return None if xs is None else xs[0]


def solve_matrix(a, b):
    """X with a * X = b, columnwise; None when any column is inconsistent."""
    if a.nrows != b.nrows:
        raise InputError("row counts disagree in matrix solve")
    cols = solve_columns(a, [b.column(j) for j in range(b.ncols)])
    if cols is None:
        return None
    return _from_columns(a.ncols, cols)


def _from_columns(nrows, columns):
    """The matrix whose columns are the given trusted vectors of length nrows."""
    rows = tuple(zip(*columns)) if columns else ((),) * nrows
    return Matrix._made(nrows, len(columns), rows)


def reduce_against(vec, basis_rows, pivots):
    """Subtract row-space multiples so vec vanishes on all pivot columns."""
    v = list(vec)
    for r, p in enumerate(pivots):
        if v[p] != 0:
            c = v[p]
            v = [a - c * b for a, b in zip(v, basis_rows[r])]
    return tuple(v)


class ChainComplex:
    """Finite cochain complex of rational spaces with exact cohomology.

    dims maps degree -> dimension; differentials maps degree k to the matrix
    of d: C^k -> C^{k+1} (shape dims[k+1] x dims[k]).  Missing entries are
    zero.  A complex is not changed after construction, so the cohomology
    of each degree is computed once and kept.
    """

    def __init__(self, dims, differentials):
        for n in [*dims, *dims.values(), *differentials]:
            if not isinstance(n, int) or isinstance(n, bool):
                raise InputError(
                    f"degrees and dimensions must be ints, got {n!r}")
        if any(v < 0 for v in dims.values()):
            raise InputError("dimensions must be nonnegative")
        self.dims = dict(dims)
        self.differentials = {}
        for k, m in differentials.items():
            if not isinstance(m, Matrix):
                m = Matrix.from_rows(m, ncols=self.dim(k))
            if m.nrows != self.dim(k + 1) or m.ncols != self.dim(k):
                raise InputError(
                    f"differential at degree {k} has shape {m.nrows}x{m.ncols}, "
                    f"expected {self.dim(k + 1)}x{self.dim(k)}")
            if not m.is_zero():
                self.differentials[k] = m
        self._homology = {}  # degree -> (betti, reps, boundary basis rows)
        self._zeros = {}  # degree -> zero matrix, for degrees without d
        self.check_complex()

    def dim(self, k):
        return self.dims.get(k, 0)

    def degrees(self):
        support = set(self.dims)
        for k in self.differentials:
            support.update((k, k + 1))
        return sorted(support)

    def d(self, k):
        m = self.differentials.get(k) or self._zeros.get(k)
        if m is None:
            m = self._zeros[k] = Matrix._zero(self.dim(k + 1), self.dim(k))
        return m

    def check_complex(self):
        for k in list(self.differentials):
            comp = self.d(k + 1) * self.d(k)
            if not comp.is_zero():
                raise MathCheckError(f"d o d is nonzero from degree {k}")

    def cycle_basis(self, k):
        return nullspace(self.d(k))

    def _flat_at(self, k):
        """True when both differentials at degree k are zero."""
        return k - 1 not in self.differentials and k not in self.differentials

    def _cohomology_record(self, k):
        """(Betti number, representatives, boundary basis rows) at degree k.

        Representatives are cycle vectors reduced against the RREF of the
        boundary space and re-reduced among themselves; they are unique for a
        given basis ordering.  Rank-nullity audit: representative count must
        equal dim ker - rank(previous d).  Where both differentials are zero
        the record is the whole space, its unit basis and no boundaries, with
        nothing to eliminate.  Computed once per degree.
        """
        if k not in self._homology:
            if self._flat_at(k):
                n = self.dim(k)
                self._homology[k] = (n, Matrix.identity(n).rows, ())
                return self._homology[k]
            cycles = self.cycle_basis(k)
            bred, bpivots = rref(self.d(k - 1).transpose())
            boundary = bred.rows[:len(bpivots)]
            reduced = [reduce_against(v, boundary, bpivots) for v in cycles]
            if reduced:
                rep_matrix, rep_pivots = rref(Matrix._made(
                    len(reduced), self.dim(k), tuple(map(_fold, reduced))))
                reps = rep_matrix.rows[:len(rep_pivots)]
            else:
                reps = ()
            betti = len(cycles) - rank(self.d(k - 1))
            if len(reps) != betti:
                raise MathCheckError(
                    f"cohomology audit failed at degree {k}: "
                    f"{len(reps)} representatives vs Betti {betti}")
            self._homology[k] = (betti, reps, boundary)
        return self._homology[k]

    def cohomology(self, k):
        """(Betti number, deterministic representative vectors) at degree k."""
        betti, reps, _ = self._cohomology_record(k)
        return betti, list(reps)

    def boundary_basis(self, k):
        """RREF basis rows of the boundaries at degree k."""
        return self._cohomology_record(k)[2]

    def betti(self):
        return {k: self.cohomology(k)[0] for k in self.degrees()}

    def is_exact_at(self, k):
        return self.cohomology(k)[0] == 0

    def is_exact(self):
        """Exact at every degree, including the virtual zero ends."""
        return all(self.is_exact_at(k) for k in self.degrees())


def check_chain_map(src, dst, maps):
    """Verify f d = d f degreewise; maps: degree -> Matrix (missing = zero)."""
    degrees = set(src.degrees()) | set(dst.degrees()) | set(maps)
    mats = {}
    for k in sorted(degrees):
        m = maps.get(k)
        if m is None:
            m = Matrix._zero(dst.dim(k), src.dim(k))
        elif not isinstance(m, Matrix):
            m = Matrix.from_rows(m, ncols=src.dim(k))
        if m.nrows != dst.dim(k) or m.ncols != src.dim(k):
            raise InputError(f"chain map at degree {k} has wrong shape")
        mats[k] = m
    for k in sorted(degrees):
        f_next = mats.get(k + 1) or Matrix._zero(dst.dim(k + 1), src.dim(k + 1))
        lhs = f_next * src.d(k)
        rhs = dst.d(k) * mats[k]
        if lhs != rhs:
            raise MathCheckError(f"chain map does not commute with d at degree {k}")
    return mats


def induced_map(src, dst, maps, k):
    """Matrix of the map on degree-k cohomology induced by a chain map.

    Solves for coordinates of each mapped representative in the basis
    [target representatives | target boundaries]; solvability is exactly the
    cycle condition, so a non chain map fails loudly here.  Where both
    target differentials are zero that basis is the unit basis and every
    vector is a cycle, so the images are the coordinates.
    """
    _, src_reps = src.cohomology(k)
    f = maps[k] if k in maps else Matrix._zero(dst.dim(k), src.dim(k))
    if not isinstance(f, Matrix):
        f = Matrix.from_rows(f, ncols=src.dim(k))
    images = [f._apply(rep) for rep in src_reps]
    if dst._flat_at(k):
        return _from_columns(dst.dim(k), images)
    betti_dst, dst_reps = dst.cohomology(k)
    basis = _from_columns(dst.dim(k), dst_reps + list(dst.boundary_basis(k)))
    cols = solve_columns(basis, images)
    if cols is None:
        raise MathCheckError(
            f"image of a cycle is not a cycle at degree {k}; not a chain map")
    return _from_columns(betti_dst, [c[:betti_dst] for c in cols])


def induced_maps(src, dst, blocks):
    """Check a chain map, then return degree -> its induced cohomology matrix.

    The degrees are those of either complex.
    """
    check_chain_map(src, dst, blocks)
    degrees = sorted(set(src.degrees()) | set(dst.degrees()))
    return {d: induced_map(src, dst, blocks, d) for d in degrees}


def _exact_at_nodes(dims, maps):
    """Exactness at each node of a sequence of maps, read from ranks.

    dims[p] is the dimension of node p and maps[p] the matrix from node p
    to node p + 1.  Node p is exact when dims[p] - rank maps[p] - rank
    maps[p - 1] is 0, a missing map having rank 0.  Every node is reported
    not exact when a composite maps[p + 1] maps[p] is nonzero, or when the
    Bareiss and RREF ranks of a nonzero map disagree.
    """
    if any(not (b * a).is_zero() for a, b in zip(maps, maps[1:])):
        return [False] * len(dims)
    ranks = []
    for m in maps:
        r = 0
        if not m.is_zero():
            r = rank(m)
            if r != len(rref(m)[1]):
                return [False] * len(dims)
        ranks.append(r)
    ranks = [0, *ranks, 0]
    return [n == ranks[p] + ranks[p + 1] for p, n in enumerate(dims)]


def linear_blocks(source, target, image, shift=0):
    """Per-degree matrices of a linear map between two graded bases.

    image(s) is the image element of source generator s.  The block at
    degree d has a column per degree-d generator of source and a row per
    generator of target in degree d + shift.  Returns degree -> (matrix,
    source names, target names) for every degree where either side has
    generators.
    """
    src = source.degrees_by_degree()
    tgt = target.degrees_by_degree()
    blocks = {}
    for deg in set(src) | {d - shift for d in tgt}:
        s_names = src.get(deg, ())
        t_names = tgt.get(deg + shift, ())
        images = [image(s) for s in s_names]
        rows = [[im.get(t, ZERO) for im in images] for t in t_names]
        blocks[deg] = (Matrix(len(t_names), len(s_names), rows),
                       s_names, t_names)
    return blocks


def operator_complex(space, image):
    """Complex of a degree +1 operator; image(s) is the image of generator s."""
    by_deg = space.degrees_by_degree()
    blocks = linear_blocks(space, space, image, shift=1)
    return ChainComplex({d: len(names) for d, names in by_deg.items()},
                        {d: blocks[d][0] for d in by_deg})


def is_isomorphism(m):
    return m.nrows == m.ncols and rank(m) == m.nrows
