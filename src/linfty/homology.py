"""Exact linear algebra over the rationals and cohomology of finite complexes.

Two independent elimination routines are kept on purpose: ranks come from
fraction-free Bareiss elimination on integer-scaled rows, while reduced row
echelon form over Fraction supplies deterministic kernel bases, solutions and
cohomology representatives.  cohomology() audits the two against each other
through rank-nullity, so a bug in either one surfaces as a hard error rather
than a silent wrong Betti number.

Complexes are cochain complexes: d(k) maps degree k to degree k + 1.
Zero-dimensional degrees are fully supported (shape-checked empty matrices);
resolution diagrams rely on that for their virtual zero ends.
"""

from math import gcd

from .graded import InputError, MathCheckError, ZERO, ONE, parse_scalar


class Matrix:
    """Immutable exact matrix with explicit shape (0-row/0-col safe)."""

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, nrows, ncols, rows=None):
        if nrows < 0 or ncols < 0:
            raise InputError("matrix shape must be nonnegative")
        if rows is None:
            rows = [[ZERO] * ncols for _ in range(nrows)]
        if len(rows) != nrows or any(len(r) != ncols for r in rows):
            raise InputError(f"matrix rows do not match shape {nrows}x{ncols}")
        self.nrows = nrows
        self.ncols = ncols
        self.rows = tuple(tuple(parse_scalar(x) for x in r) for r in rows)

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
    def identity(cls, n):
        return cls(n, n, [[ONE if i == j else ZERO for j in range(n)]
                          for i in range(n)])

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
        rows = [[sum((self.rows[i][k] * other.rows[k][j]
                      for k in range(self.ncols)), ZERO)
                 for j in range(other.ncols)] for i in range(self.nrows)]
        return Matrix(self.nrows, other.ncols, rows)

    def __add__(self, other):
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise InputError("matrix shape mismatch in addition")
        return Matrix(self.nrows, self.ncols,
                      [[a + b for a, b in zip(ra, rb)]
                       for ra, rb in zip(self.rows, other.rows)])

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, q):
        q = parse_scalar(q)
        return Matrix(self.nrows, self.ncols,
                      [[q * x for x in r] for r in self.rows])

    def transpose(self):
        return Matrix(self.ncols, self.nrows,
                      [[self.rows[i][j] for i in range(self.nrows)]
                       for j in range(self.ncols)])

    def apply(self, vec):
        if len(vec) != self.ncols:
            raise InputError("vector length does not match matrix columns")
        return tuple(sum((row[j] * vec[j] for j in range(self.ncols)), ZERO)
                     for row in self.rows)

    def column(self, j):
        return tuple(self.rows[i][j] for i in range(self.nrows))

    def is_zero(self):
        return all(x == 0 for r in self.rows for x in r)


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
        inv = ONE / rows[row][col]
        rows[row] = [x * inv for x in rows[row]]
        for i in range(len(rows)):
            if i != row and rows[i][col] != 0:
                c = rows[i][col]
                rows[i] = [a - c * b for a, b in zip(rows[i], rows[row])]
        pivots.append(col)
        row += 1
    return Matrix(m.nrows, m.ncols, rows), tuple(pivots)


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


def solve(m, b):
    """One exact solution of m x = b, or None when inconsistent."""
    if len(b) != m.nrows:
        raise InputError("right-hand side length does not match matrix rows")
    aug = Matrix(m.nrows, m.ncols + 1,
                 [list(r) + [bi] for r, bi in zip(m.rows, b)])
    red, pivots = rref(aug)
    if m.ncols in pivots:
        return None
    x = [ZERO] * m.ncols
    for r, p in enumerate(pivots):
        x[p] = red.rows[r][m.ncols]
    return tuple(x)


def solve_matrix(a, b):
    """X with a * X = b, columnwise; None when any column is inconsistent."""
    if a.nrows != b.nrows:
        raise InputError("row counts disagree in matrix solve")
    cols = []
    for j in range(b.ncols):
        x = solve(a, b.column(j))
        if x is None:
            return None
        cols.append(x)
    return Matrix(a.ncols, b.ncols,
                  [[cols[j][i] for j in range(b.ncols)] for i in range(a.ncols)])


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
        self.check_complex()

    def dim(self, k):
        return self.dims.get(k, 0)

    def degrees(self):
        support = set(self.dims)
        for k in self.differentials:
            support.update((k, k + 1))
        return sorted(support)

    def d(self, k):
        if k in self.differentials:
            return self.differentials[k]
        return Matrix(self.dim(k + 1), self.dim(k))

    def check_complex(self):
        for k in list(self.differentials):
            comp = self.d(k + 1) * self.d(k)
            if not comp.is_zero():
                raise MathCheckError(f"d o d is nonzero from degree {k}")

    def cycle_basis(self, k):
        return nullspace(self.d(k))

    def _cohomology_record(self, k):
        """(Betti number, representatives, boundary basis rows) at degree k.

        Representatives are cycle vectors reduced against the RREF of the
        boundary space and re-reduced among themselves; they are unique for a
        given basis ordering.  Rank-nullity audit: representative count must
        equal dim ker - rank(previous d).  Computed once per degree.
        """
        if k not in self._homology:
            cycles = self.cycle_basis(k)
            bred, bpivots = rref(Matrix.from_rows(
                [self.d(k - 1).column(j) for j in range(self.dim(k - 1))],
                ncols=self.dim(k)))
            boundary = bred.rows[:len(bpivots)]
            reduced = [reduce_against(v, boundary, bpivots) for v in cycles]
            if reduced:
                rep_matrix, rep_pivots = rref(
                    Matrix.from_rows(reduced, ncols=self.dim(k)))
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
            m = Matrix(dst.dim(k), src.dim(k))
        elif not isinstance(m, Matrix):
            m = Matrix.from_rows(m, ncols=src.dim(k))
        if m.nrows != dst.dim(k) or m.ncols != src.dim(k):
            raise InputError(f"chain map at degree {k} has wrong shape")
        mats[k] = m
    for k in sorted(degrees):
        f_next = mats.get(k + 1, Matrix(dst.dim(k + 1), src.dim(k + 1)))
        lhs = f_next * src.d(k)
        rhs = dst.d(k) * mats[k]
        if lhs != rhs:
            raise MathCheckError(f"chain map does not commute with d at degree {k}")
    return mats


def induced_map(src, dst, maps, k):
    """Matrix of the map on degree-k cohomology induced by a chain map.

    Solves for coordinates of each mapped representative in the basis
    [target representatives | target boundaries]; solvability is exactly the
    cycle condition, so a non chain map fails loudly here.
    """
    _, src_reps = src.cohomology(k)
    betti_dst, dst_reps = dst.cohomology(k)
    f = maps.get(k, Matrix(dst.dim(k), src.dim(k)))
    if not isinstance(f, Matrix):
        f = Matrix.from_rows(f, ncols=src.dim(k))
    basis_cols = dst_reps + list(dst.boundary_basis(k))
    basis = Matrix.from_rows(
        [[basis_cols[j][i] for j in range(len(basis_cols))]
         for i in range(dst.dim(k))] if basis_cols else [],
        ncols=len(basis_cols)) if dst.dim(k) else Matrix(0, len(basis_cols))
    cols = []
    for rep in src_reps:
        image = f.apply(rep)
        coords = solve(basis, image)
        if coords is None:
            raise MathCheckError(
                f"image of a cycle is not a cycle at degree {k}; not a chain map")
        cols.append(coords[:betti_dst])
    return Matrix(betti_dst, len(src_reps),
                  [[cols[j][i] for j in range(len(src_reps))]
                   for i in range(betti_dst)])


def induced_maps(src, dst, blocks):
    """Check a chain map, then return degree -> its induced cohomology matrix.

    The degrees are those of either complex.
    """
    check_chain_map(src, dst, blocks)
    degrees = sorted(set(src.degrees()) | set(dst.degrees()))
    return {d: induced_map(src, dst, blocks, d) for d in degrees}


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
