"""Exact dense linear algebra over Z and Q, plus chain complexes built on it.

Everything downstream (cubical complexes, twisted complexes, sheaf towers)
reduces to the primitives in this module: integer Smith normal form with a
pinned pivot rule, saturated kernels, exact solving, homology with torsion,
Hom-complexes and mapping cones.  No floats anywhere: an entry that is not
an exact integer (over Z) or rational (over Q) is refused.  Matrices are
dense tuples of tuples (soft practical limit around 512x512).

Entries are coerced only at the public boundary (`Matrix(...)`,
`Matrix.column`, `to_q`/`to_z` and the factor of `scale`): the Matrix
operations, the eliminations and the complex builders whose entries
already have the ring's type (int over Z, Fraction over Q) store them
through the unchecked `Matrix._trusted`.  Law checks of
the form "composition applied to a tensor of maps" use `mul_kron`, which
computes M * (A (x) B) without forming the Kronecker product; the tensor
and Hom complexes add their Kronecker blocks into rows with `add_kron`.

Subcomplexes, direct sums and double-complex totals come from four
constructors: `restrict` (with `restrict_vector`) reads maps in the
coordinates of a basis, `subcomplex` cuts a complex down to one basis per
degree, `direct_sum` stacks complexes block-diagonally, and `totalize`
stacks the columns of a double complex, signing their differential (-1)^p.
"""

import numbers
from dataclasses import dataclass
from fractions import Fraction
from operator import add as _add, neg as _neg


RING_Z = "Z"
RING_Q = "Q"

# The zero and the one of each ring, in the ring's entry type.
_UNITS = {RING_Z: (0, 1), RING_Q: (Fraction(0), Fraction(1))}


def _units(ring):
    try:
        return _UNITS[ring]
    except KeyError:
        raise ValueError("unknown ring %r" % (ring,)) from None


def _coerce(ring, value):
    """The entry as an int (Z) or a Fraction (Q); inexact values are refused."""
    if ring == RING_Z:
        if type(value) is int:
            return value
        if isinstance(value, numbers.Integral) or (
            isinstance(value, Fraction) and value.denominator == 1
        ):
            return int(value)
        raise ValueError("entry of a Z matrix must be an integer: %r" % (value,))
    if type(value) is Fraction:
        return value
    if isinstance(value, numbers.Rational):
        return Fraction(value)
    raise ValueError("entry of a Q matrix must be rational: %r" % (value,))


def _exact_vector(ring, values):
    """The values as a tuple of exact ring elements: ints are kept as they
    are (over Q too), anything else goes through `_coerce`."""
    return tuple(v if type(v) is int else _coerce(ring, v) for v in values)


class Matrix:
    """Immutable dense matrix over Z (python ints) or Q (Fractions)."""

    __slots__ = ("ring", "nrows", "ncols", "rows")

    def __init__(self, ring, rows, nrows=None, ncols=None):
        if ring not in (RING_Z, RING_Q):
            raise ValueError("unknown ring %r" % (ring,))
        rows = tuple(tuple(_coerce(ring, v) for v in row) for row in rows)
        if rows:
            width = len(rows[0])
            for row in rows:
                if len(row) != width:
                    raise ValueError("ragged rows")
        else:
            width = 0 if ncols is None else ncols
            if nrows and width:
                raise ValueError("nrows mismatch")
            if nrows:
                rows = tuple(() for _ in range(nrows))
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "nrows", len(rows) if nrows is None else nrows)
        object.__setattr__(self, "ncols", width)
        if nrows is not None and nrows != len(rows) and rows:
            raise ValueError("nrows mismatch")
        if ncols is not None and ncols != width:
            raise ValueError("ncols mismatch")

    @staticmethod
    def _trusted(ring, rows, ncols):
        """The matrix on `rows`, a tuple of tuples of length ncols whose
        entries already have the ring's type; nothing is coerced or checked."""
        m = object.__new__(Matrix)
        object.__setattr__(m, "ring", ring)
        object.__setattr__(m, "rows", rows)
        object.__setattr__(m, "nrows", len(rows))
        object.__setattr__(m, "ncols", ncols)
        return m

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @staticmethod
    def zero(ring, nrows, ncols):
        zero, _ = _units(ring)
        return Matrix._trusted(ring, ((zero,) * ncols,) * nrows, ncols)

    @staticmethod
    def identity(ring, n):
        zero, one = _units(ring)
        row = (zero,) * n
        return Matrix._trusted(ring, tuple(row[:i] + (one,) + row[i + 1:] for i in range(n)), n)

    @staticmethod
    def column(ring, entries):
        return Matrix(ring, [[v] for v in entries], ncols=1)

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.ring == other.ring
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.ring, self.nrows, self.ncols, self.rows))

    def __repr__(self):
        return "Matrix(%s, %d x %d)" % (self.ring, self.nrows, self.ncols)

    def is_zero(self):
        return all(v == 0 for row in self.rows for v in row)

    def __add__(self, other):
        self._check_same_shape(other)
        return Matrix._trusted(
            self.ring,
            tuple(tuple(map(_add, r1, r2)) for r1, r2 in zip(self.rows, other.rows)),
            self.ncols,
        )

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Matrix._trusted(
            self.ring, tuple(tuple(map(_neg, row)) for row in self.rows), self.ncols
        )

    def scale(self, c):
        c = _coerce(self.ring, c)
        return Matrix._trusted(
            self.ring, tuple(tuple(c * v for v in row) for row in self.rows), self.ncols
        )

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.ring != other.ring:
            raise ValueError("ring mismatch in product")
        if self.ncols != other.nrows:
            raise ValueError(
                "shape mismatch: %dx%d times %dx%d"
                % (self.nrows, self.ncols, other.nrows, other.ncols)
            )
        if self.ncols == 0 or other.ncols == 0:
            return Matrix.zero(self.ring, self.nrows, other.ncols)
        zero = _units(self.ring)[0]
        out = []
        for row in self.rows:
            acc = [zero] * other.ncols
            for k, a in enumerate(row):
                if a:
                    orow = other.rows[k]
                    for j, b in enumerate(orow):
                        if b:
                            acc[j] += a * b
            out.append(tuple(acc))
        return Matrix._trusted(self.ring, tuple(out), other.ncols)

    def kron(self, other):
        """Kronecker product; row/column index order is (i_self, i_other) row-major."""
        if self.ring != other.ring:
            raise ValueError("ring mismatch in kron")
        zero = _units(self.ring)[0]
        blank = [zero] * other.ncols
        out = []
        for r1 in self.rows:
            for r2 in other.rows:
                row = []
                for a in r1:
                    row.extend([a * b for b in r2] if a else blank)
                out.append(tuple(row))
        return Matrix._trusted(self.ring, tuple(out), self.ncols * other.ncols)

    def hstack(self, other):
        if self.nrows != other.nrows or self.ring != other.ring:
            raise ValueError("hstack mismatch")
        return Matrix._trusted(
            self.ring,
            tuple(r1 + r2 for r1, r2 in zip(self.rows, other.rows)),
            self.ncols + other.ncols,
        )

    def vstack(self, other):
        if self.ncols != other.ncols or self.ring != other.ring:
            raise ValueError("vstack mismatch")
        return Matrix._trusted(self.ring, self.rows + other.rows, self.ncols)

    def submatrix(self, row_idx, col_idx):
        rows = self.rows
        return Matrix._trusted(
            self.ring,
            tuple(tuple(rows[i][j] for j in col_idx) for i in row_idx),
            len(col_idx),
        )

    def col(self, j):
        return [row[j] for row in self.rows]

    def transpose(self):
        rows = tuple(zip(*self.rows)) if self.rows else ((),) * self.ncols
        return Matrix._trusted(self.ring, rows, self.nrows)

    def to_q(self):
        if self.ring == RING_Q:
            return self
        return Matrix(RING_Q, self.rows, nrows=self.nrows, ncols=self.ncols)

    def to_z(self):
        if self.ring == RING_Z:
            return self
        return Matrix(RING_Z, self.rows, nrows=self.nrows, ncols=self.ncols)

    def _check_same_shape(self, other):
        if (
            self.ring != other.ring
            or self.nrows != other.nrows
            or self.ncols != other.ncols
        ):
            raise ValueError("shape/ring mismatch")


def block_matrix(ring, blocks):
    """Assemble from a 2d list of Matrix/None; None blocks need inferable shapes.

    `blocks[i][j]` sits at block-row i, block-column j.  Every block row must
    contain at least one real matrix fixing the row count, ditto columns.
    """
    zero = _units(ring)[0]
    nbr = len(blocks)
    nbc = len(blocks[0]) if nbr else 0
    row_h = [None] * nbr
    col_w = [None] * nbc
    for i in range(nbr):
        for j in range(nbc):
            b = blocks[i][j]
            if b is not None:
                if b.ring != ring:
                    raise ValueError("ring mismatch in block_matrix")
                if row_h[i] is None:
                    row_h[i] = b.nrows
                elif row_h[i] != b.nrows:
                    raise ValueError("inconsistent block heights")
                if col_w[j] is None:
                    col_w[j] = b.ncols
                elif col_w[j] != b.ncols:
                    raise ValueError("inconsistent block widths")
    if any(h is None for h in row_h) or any(w is None for w in col_w):
        raise ValueError("cannot infer shapes of empty block rows/columns")
    rows = []
    for i in range(nbr):
        for r in range(row_h[i]):
            row = ()
            for j in range(nbc):
                b = blocks[i][j]
                row += (zero,) * col_w[j] if b is None else b.rows[r]
            rows.append(row)
    return Matrix._trusted(ring, tuple(rows), sum(col_w))


def block_diagonal(ring, blocks):
    """The blocks along the diagonal, zero elsewhere; no blocks give 0 x 0."""
    zero = _units(ring)[0]
    if any(b.ring != ring for b in blocks):
        raise ValueError("ring mismatch in block_diagonal")
    width = sum(b.ncols for b in blocks)
    rows = []
    left = 0
    for b in blocks:
        pad_left = (zero,) * left
        pad_right = (zero,) * (width - left - b.ncols)
        for row in b.rows:
            rows.append(pad_left + row + pad_right)
        left += b.ncols
    return Matrix._trusted(ring, tuple(rows), width)


def add_block(entries, block, roff, coff, scalar=1):
    """Add scalar * block into the list-of-lists `entries` at (roff, coff)."""
    for r, row in enumerate(block.rows):
        out = entries[roff + r]
        for c, v in enumerate(row):
            if v:
                out[coff + c] += scalar * v


def add_kron(entries, A, B, roff, coff, scalar=1):
    """Add scalar * (A (x) B), in the order of `kron`, into the list of rows
    `entries` at (roff, coff), visiting only pairs of nonzero entries."""
    bn, bm = B.nrows, B.ncols
    brows = [[(l, b) for l, b in enumerate(brow) if b] for brow in B.rows]
    for i, arow in enumerate(A.rows):
        for j, a in enumerate(arow):
            if a:
                a *= scalar
                col = coff + j * bm
                for t, brow in enumerate(brows, roff + i * bn):
                    out = entries[t]
                    for l, b in brow:
                        out[col + l] += a * b


def mul_kron(M, A, B):
    """M * (A (x) B), in the column order of `kron`, without forming A (x) B.

    An int n in place of A or B stands for the n x n identity.  Read a row
    of M as the matrix R with R[i][t] = row[i * B.nrows + t]; its image is
    A^T R B flattened row-major (Van Loan 2000), computed as R -> A^T R
    (columns of M times A (x) I) and then -> (A^T R) B (times I (x) B).
    """
    ring = M.ring
    ar, ac = _factor_shape(ring, A)
    br, bc = _factor_shape(ring, B)
    if M.ncols != ar * br:
        raise ValueError(
            "shape mismatch: %dx%d times (%dx%d kron %dx%d)"
            % (M.nrows, M.ncols, ar, ac, br, bc)
        )
    zero = _units(ring)[0]
    rows = M.rows
    if type(A) is not int:
        arows = [[(j, a) for j, a in enumerate(arow) if a] for arow in A.rows]
        out = []
        for row in rows:
            acc = [zero] * (ac * br)
            for k, v in enumerate(row):
                if v:
                    i, t = divmod(k, br)
                    for j, a in arows[i]:
                        acc[j * br + t] += a * v
            out.append(tuple(acc))
        rows = tuple(out)
    if type(B) is not int:
        brows = [[(l, b) for l, b in enumerate(brow) if b] for brow in B.rows]
        out = []
        for row in rows:
            acc = [zero] * (ac * bc)
            for k, v in enumerate(row):
                if v:
                    j, t = divmod(k, br)
                    base = j * bc
                    for l, b in brows[t]:
                        acc[base + l] += v * b
            out.append(tuple(acc))
        rows = tuple(out)
    return Matrix._trusted(ring, rows, ac * bc)


def _factor_shape(ring, X):
    """(nrows, ncols) of a `mul_kron` factor; an int n is the n x n identity."""
    if type(X) is int:
        return X, X
    if X.ring != ring:
        raise ValueError("ring mismatch in mul_kron")
    return X.nrows, X.ncols


def _apply(mat, vec):
    """mat * vec for a coordinate tuple, as a tuple."""
    return tuple((mat * Matrix.column(mat.ring, list(vec))).col(0))


def _columns_to_matrix(ring, nrows, cols):
    """The nrows x len(cols) matrix with these columns.  Entries of the
    ring's type are kept, each distinct int is converted once (ints stay
    ints over Z), and anything else goes through `_coerce`."""
    if any(len(col) != nrows for col in cols):
        raise ValueError("column length mismatch")
    zero, one = _units(ring)
    kind = type(zero)
    known = {0: zero, 1: one}

    def entry(v):
        t = type(v)
        if t is kind:
            return v
        if t is int:
            q = known.get(v)
            if q is None:
                q = known[v] = kind(v)
            return q
        return _coerce(ring, v)

    rows = tuple(tuple(entry(col[r]) for col in cols) for r in range(nrows))
    return Matrix._trusted(ring, rows, len(cols))


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SmithDecomposition:
    """U * A * V = D with U, V unimodular and D diagonal, d1 | d2 | ... , di >= 0."""

    U: Matrix
    D: Matrix
    V: Matrix

    def diagonal(self):
        return [
            self.D.rows[i][i]
            for i in range(min(self.D.nrows, self.D.ncols))
            if self.D.rows[i][i] != 0
        ]

    @property
    def rank(self):
        return len(self.diagonal())


def _find_pivot(a, t, m, n):
    """Smallest nonzero |entry| in the trailing submatrix, ties row-major."""
    best = None
    for i in range(t, m):
        row = a[i]
        for j in range(t, n):
            v = row[j]
            if v:
                av = -v if v < 0 else v
                if best is None or av < best[0]:
                    best = (av, i, j)
                    if av == 1:
                        return best
    return best


def smith_normal_form(A):
    """Deterministic SNF over Z.

    Pivot rule: at each stage pick the nonzero entry of smallest absolute
    value in the remaining submatrix, ties broken row-major.  Row operations
    are mirrored into U, column operations into V, so U A V = D exactly.
    """
    if A.ring != RING_Z:
        raise ValueError("smith_normal_form needs a Z matrix")
    m, n = A.nrows, A.ncols
    a = [list(row) for row in A.rows]
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def swap_rows(i, k):
        a[i], a[k] = a[k], a[i]
        u[i], u[k] = u[k], u[i]

    def swap_cols(j, k):
        for row in a:
            row[j], row[k] = row[k], row[j]
        for row in v:
            row[j], row[k] = row[k], row[j]

    def addmul_row(dst, src, c):
        arow, srow = a[dst], a[src]
        for j in range(n):
            arow[j] += c * srow[j]
        urow, usrc = u[dst], u[src]
        for j in range(m):
            urow[j] += c * usrc[j]

    def addmul_col(dst, src, c):
        for row in a:
            row[dst] += c * row[src]
        for row in v:
            row[dst] += c * row[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    bound = min(m, n)
    while t < bound:
        piv = _find_pivot(a, t, m, n)
        if piv is None:
            break
        _, pi, pj = piv
        if pi != t:
            swap_rows(pi, t)
        if pj != t:
            swap_cols(pj, t)
        if a[t][t] < 0:
            negate_row(t)
        while True:
            # clear column t below/above the pivot, re-pivoting on remainders
            dirty = False
            for i in range(m):
                if i != t and a[i][t]:
                    q = a[i][t] // a[t][t]
                    addmul_row(i, t, -q)
                    if a[i][t]:
                        swap_rows(i, t)
                        if a[t][t] < 0:
                            negate_row(t)
                        dirty = True
            for j in range(n):
                if j != t and a[t][j]:
                    q = a[t][j] // a[t][t]
                    addmul_col(j, t, -q)
                    if a[t][j]:
                        swap_cols(j, t)
                        dirty = True
            if dirty:
                continue
            # enforce divisibility of everything left by the pivot
            offender = None
            d = a[t][t]
            for i in range(t + 1, m):
                row = a[i]
                for j in range(t + 1, n):
                    if row[j] % d:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            addmul_row(t, offender, 1)
        t += 1

    return SmithDecomposition(
        U=Matrix._trusted(RING_Z, tuple(map(tuple, u)), m),
        D=Matrix._trusted(RING_Z, tuple(map(tuple, a)), n),
        V=Matrix._trusted(RING_Z, tuple(map(tuple, v)), n),
    )


def det_z(A):
    """Integer determinant by Bareiss fraction-free elimination."""
    if A.nrows != A.ncols:
        raise ValueError("det of non-square matrix")
    n = A.nrows
    if n == 0:
        return 1
    a = [list(row) for row in A.rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def z_kernel(A):
    """Columns form a saturated basis of ker(A) over Z (a direct summand)."""
    snf = smith_normal_form(A)
    r = snf.rank
    cols = list(range(r, A.ncols))
    return snf.V.submatrix(range(A.ncols), cols)


def z_solve(A, B):
    """Solve A X = B over Z exactly; returns X or None when unsolvable."""
    snf = smith_normal_form(A)
    ub = snf.U * B
    m, n = A.nrows, A.ncols
    diag = [snf.D.rows[i][i] for i in range(min(m, n))]
    r = sum(1 for d in diag if d)
    y_rows = []
    for i in range(n):
        row = []
        for j in range(B.ncols):
            if i < r:
                num = ub.rows[i][j]
                if num % diag[i]:
                    return None
                row.append(num // diag[i])
            else:
                row.append(0)
        y_rows.append(row)
    for i in range(r, m):
        if any(ub.rows[i][j] != 0 for j in range(B.ncols)):
            return None
    Y = Matrix._trusted(RING_Z, tuple(map(tuple, y_rows)), B.ncols)
    return snf.V * Y


# ---------------------------------------------------------------------------
# Rational elimination (the independent route for ranks/kernels)
# ---------------------------------------------------------------------------


def q_rref(A):
    """Reduced row echelon form over Q; returns (R, pivot_columns)."""
    a = [[Fraction(v) for v in row] for row in A.rows]
    m, n = A.nrows, A.ncols
    pivots = []
    r = 0
    for j in range(n):
        sel = next((i for i in range(r, m) if a[i][j] != 0), None)
        if sel is None:
            continue
        a[r], a[sel] = a[sel], a[r]
        inv = 1 / a[r][j]
        a[r] = [v * inv for v in a[r]]
        for i in range(m):
            if i != r and a[i][j] != 0:
                c = a[i][j]
                a[i] = [x - c * y for x, y in zip(a[i], a[r])]
        pivots.append(j)
        r += 1
        if r == m:
            break
    return Matrix._trusted(RING_Q, tuple(map(tuple, a)), n), pivots


def q_rank(A):
    return len(q_rref(A.to_q())[1])


def q_kernel(A):
    """Columns form a basis of ker(A) over Q."""
    A = A.to_q()
    R, pivots = q_rref(A)
    n = A.ncols
    free = [j for j in range(n) if j not in pivots]
    cols = []
    for f in free:
        vec = [Fraction(0)] * n
        vec[f] = Fraction(1)
        for r, p in enumerate(pivots):
            vec[p] = -R.rows[r][f]
        cols.append(vec)
    return Matrix._trusted(RING_Q, tuple(zip(*cols)) if cols else ((),) * n, len(cols))


def q_solve(A, B):
    """Solve A X = B over Q; returns one solution or None."""
    A = A.to_q()
    B = B.to_q()
    aug = A.hstack(B)
    R, pivots = q_rref(aug)
    n = A.ncols
    if any(p >= n for p in pivots):
        return None
    x_rows = [[Fraction(0)] * B.ncols for _ in range(n)]
    for r, p in enumerate(pivots):
        for j in range(B.ncols):
            x_rows[p][j] = R.rows[r][n + j]
    return Matrix._trusted(RING_Q, tuple(map(tuple, x_rows)), B.ncols)


def kernel(A):
    return z_kernel(A) if A.ring == RING_Z else q_kernel(A)


def solve(A, B):
    return z_solve(A, B) if A.ring == RING_Z else q_solve(A, B)


def solve_vector(A, vec):
    """One solution x of A x = vec as a coordinate tuple, or None."""
    x = solve(A, Matrix.column(A.ring, list(vec)))
    return None if x is None else tuple(x.col(0))


def restrict(basis, mat, what):
    """The columns of mat in the coordinates of the columns of basis; a
    ValueError naming `what` when a column of mat leaves their span."""
    out = solve(basis, mat)
    if out is None:
        raise ValueError("%s leaves the span of the basis" % what)
    return out


def restrict_vector(basis, vec, what):
    """`restrict` for one coordinate tuple, returned as a tuple."""
    return tuple(restrict(basis, Matrix.column(basis.ring, list(vec)), what).col(0))


def rank(A):
    """Rank via SNF for Z, elimination for Q (two genuinely distinct routes)."""
    if A.ring == RING_Z:
        return smith_normal_form(A).rank
    return q_rank(A)


# ---------------------------------------------------------------------------
# Chain complexes (cohomological grading: d raises degree by 1)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HomologyGroup:
    """Finitely generated abelian group: Z^free_rank + sum Z/t, t in torsion."""

    free_rank: int
    torsion: tuple

    def __post_init__(self):
        if self.free_rank < 0:
            raise ValueError("free rank must be >= 0")
        if any(t < 2 for t in self.torsion):
            raise ValueError("torsion coefficients must be >= 2")
        for i in range(len(self.torsion) - 1):
            if self.torsion[i + 1] % self.torsion[i]:
                raise ValueError("torsion coefficients must form a divisibility chain")

    def is_zero(self):
        return self.free_rank == 0 and not self.torsion

    def describe(self):
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank:
            parts.append("Z^%d" % self.free_rank)
        parts.extend("Z/%d" % t for t in self.torsion)
        return " + ".join(parts) if parts else "0"


class ChainComplex:
    """Bounded complex of free modules in a degree window [lo, hi].

    `d(n)` maps degree n to degree n+1; differentials whose source or target
    falls outside the window are zero by convention, so homology at the window
    boundary assumes the complex continues by zero.  Only `make_complex`
    checks d^2 = 0; `complex_homology` checks it in the degree it reads.
    """

    __slots__ = ("ring", "lo", "hi", "ranks", "diffs")

    def __init__(self, ring, lo, ranks, diffs):
        # ranks: tuple indexed by deg-lo; diffs: tuple of len(ranks)-1 matrices
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "ranks", tuple(ranks))
        object.__setattr__(self, "hi", lo + len(self.ranks) - 1)
        object.__setattr__(self, "diffs", tuple(diffs))

    def __setattr__(self, name, value):
        raise AttributeError("ChainComplex is immutable")

    def rank(self, n):
        if self.lo <= n <= self.hi:
            return self.ranks[n - self.lo]
        return 0

    def d(self, n):
        if self.lo <= n < self.hi:
            return self.diffs[n - self.lo]
        return Matrix.zero(self.ring, self.rank(n + 1), self.rank(n))

    def degrees(self):
        return range(self.lo, self.hi + 1)

    def total_rank(self):
        return sum(self.ranks)

    def __eq__(self, other):
        return (
            isinstance(other, ChainComplex)
            and self.ring == other.ring
            and self.lo == other.lo
            and self.ranks == other.ranks
            and self.diffs == other.diffs
        )

    def __hash__(self):
        return hash((self.ring, self.lo, self.ranks, self.diffs))

    def __repr__(self):
        return "ChainComplex(%s, [%d..%d], ranks=%s)" % (
            self.ring,
            self.lo,
            self.hi,
            list(self.ranks),
        )


def make_complex(ring, lo, ranks, diffs=None, check=True):
    """Build a ChainComplex from ranks (list from degree lo up) and diffs.

    diffs may be a dict {deg: Matrix} or a list aligned with ranks[:-1].
    """
    ranks = list(ranks)
    if not ranks:
        ranks = [0]
    n = len(ranks)
    if isinstance(diffs, dict):
        stray = [deg for deg in diffs if not lo <= deg < lo + n - 1]
        if stray:
            raise ValueError("differentials at degrees %r leave the window %d..%d"
                             % (stray, lo, lo + n - 1))
        dl = []
        for k in range(n - 1):
            deg = lo + k
            dl.append(diffs.get(deg, Matrix.zero(ring, ranks[k + 1], ranks[k])))
    elif diffs is None:
        dl = [Matrix.zero(ring, ranks[k + 1], ranks[k]) for k in range(n - 1)]
    else:
        dl = list(diffs)
    if check:
        if len(dl) != n - 1:
            raise ValueError("differential count mismatch")
        for k, mat in enumerate(dl):
            if mat.ring != ring:
                raise ValueError("differential ring mismatch at degree %d" % (lo + k))
            if mat.nrows != ranks[k + 1] or mat.ncols != ranks[k]:
                raise ValueError(
                    "differential shape mismatch at degree %d: %dx%d vs %dx%d"
                    % (lo + k, mat.nrows, mat.ncols, ranks[k + 1], ranks[k])
                )
        for k in range(n - 2):
            if not (dl[k + 1] * dl[k]).is_zero():
                raise ValueError("d^2 != 0 between degrees %d and %d" % (lo + k, lo + k + 2))
    return ChainComplex(ring, lo, ranks, dl)


def zero_complex(ring, lo=0, hi=0):
    return make_complex(ring, lo, [0] * (hi - lo + 1))


def single_complex(ring, deg, rank_):
    return make_complex(ring, deg, [rank_])


def two_term_complex(ring, lo_deg, matrix):
    """The complex (matrix: C^lo -> C^(lo+1)) concentrated in two degrees."""
    return make_complex(ring, lo_deg, [matrix.ncols, matrix.nrows], [matrix])


def shift_complex(C, k):
    """C[k]^n = C^(n+k) with differential scaled by (-1)^k."""
    sgn = -1 if k % 2 else 1
    return ChainComplex(
        C.ring,
        C.lo - k,
        C.ranks,
        tuple(m.scale(sgn) for m in C.diffs),
    )


def subcomplex(C, bases):
    """The subcomplex spanned by the columns of bases[n] in C^n, for n from
    min(bases) to max(bases), with d restricted by `restrict`."""
    lo, hi = min(bases), max(bases)
    diffs = [
        restrict(bases[n + 1], C.d(n) * bases[n], "the differential at degree %d" % n)
        for n in range(lo, hi)
    ]
    return make_complex(C.ring, lo, [bases[n].ncols for n in range(lo, hi + 1)], diffs)


def direct_sum(ring, lo, hi, complexes):
    """The direct sum of `complexes`, in order, on the window lo..hi."""
    if any(C.ring != ring for C in complexes):
        raise ValueError("ring mismatch")
    ranks = [sum(C.rank(n) for C in complexes) for n in range(lo, hi + 1)]
    diffs = [block_diagonal(ring, [C.d(n) for C in complexes]) for n in range(lo, hi)]
    return make_complex(ring, lo, ranks, diffs, check=False)


def totalize(ring, lo, hi, columns, across):
    """Total complex on the window lo..hi of the double complex with column
    p the complex columns[p]: degree n stacks columns[p]^(n-p) by ascending
    p, and d is (-1)^p times the column differential plus across(p, q), the
    map columns[p]^q -> columns[p+1]^q, asked for where columns[p]^q != 0."""
    ps = sorted(columns)
    start, ranks = _block_starts(lo, hi, ps, lambda n, p: columns[p].rank(n - p))
    zero = _units(ring)[0]
    diffs = []
    for n in range(lo, hi):
        entries = [[zero] * ranks[n - lo] for _ in range(ranks[n + 1 - lo])]
        for p in ps:
            q = n - p
            if columns[p].rank(q):
                sgn = -1 if p % 2 else 1
                add_block(entries, columns[p].d(q), start[n + 1, p], start[n, p], sgn)
                if p + 1 in columns:
                    add_block(entries, across(p, q), start[n + 1, p + 1], start[n, p])
        diffs.append(Matrix._trusted(ring, tuple(map(tuple, entries)), ranks[n - lo]))
    return make_complex(ring, lo, ranks, diffs)


def _block_starts(lo, hi, ps, size):
    """(start, ranks) of a degreewise stack of blocks by ascending p:
    start[n, p] is the first coordinate of block p in degree n, whose rank
    is size(n, p), and ranks[n - lo] is the rank of degree n."""
    start = {}
    ranks = []
    for n in range(lo, hi + 1):
        off = 0
        for p in ps:
            start[n, p] = off
            off += size(n, p)
        ranks.append(off)
    return start, ranks


def tensor_basis(C, D, n):
    """Ordered basis of (C (x) D)^n: triples (p, i, j) for C^p_i (x) D^(n-p)_j."""
    out = []
    for p in range(C.lo, C.hi + 1):
        q = n - p
        if C.rank(p) and D.rank(q):
            for i in range(C.rank(p)):
                for j in range(D.rank(q)):
                    out.append((p, i, j))
    return out


def tensor_complex(C, D):
    """(C (x) D)^n = sum_p C^p (x) D^(n-p); d(x(x)y) = dx(x)y + (-1)^p x(x)dy.

    Blocks by ascending p, as in `tensor_basis`: d_C (x) 1 maps block p to
    block p+1, and (-1)^p 1 (x) d_D maps it to itself."""
    if C.ring != D.ring:
        raise ValueError("ring mismatch")
    ring = C.ring
    lo = C.lo + D.lo
    hi = C.hi + D.hi
    ps = C.degrees()
    start, ranks = _block_starts(lo, hi, ps, lambda n, p: C.rank(p) * D.rank(n - p))
    zero = _units(ring)[0]
    diffs = []
    for n in range(lo, hi):
        rows = [[zero] * ranks[n - lo] for _ in range(ranks[n + 1 - lo])]
        for p in ps:
            rc, rd = C.rank(p), D.rank(n - p)
            if rc and rd:
                if C.rank(p + 1):
                    add_kron(rows, C.d(p), Matrix.identity(ring, rd),
                             start[n + 1, p + 1], start[n, p])
                add_kron(rows, Matrix.identity(ring, rc), D.d(n - p),
                         start[n + 1, p], start[n, p], -1 if p % 2 else 1)
        diffs.append(Matrix._trusted(ring, tuple(map(tuple, rows)), ranks[n - lo]))
    return make_complex(ring, lo, ranks, diffs, check=False)


def hom_basis(C, D, n):
    """Ordered basis of Hom(C, D)^n: triples (p, i, j) = matrix unit E_ij in
    Hom(C^p, D^(p+n)), blocks by ascending p, entries row-major."""
    out = []
    for p in range(C.lo, C.hi + 1):
        if C.rank(p) and D.rank(p + n):
            for i in range(D.rank(p + n)):
                for j in range(C.rank(p)):
                    out.append((p, i, j))
    return out


def hom_element_matrices(C, D, n, vec):
    """Unflatten a Hom(C,D)^n coordinate vector into per-degree matrices;
    a ValueError when its length is not the rank of Hom(C,D)^n (a short
    vector leaves a row of some block short)."""
    mats = {}
    idx = 0
    for p in range(C.lo, C.hi + 1):
        rc, rd = C.rank(p), D.rank(p + n)
        if rc and rd:
            rows = []
            for i in range(rd):
                rows.append(list(vec[idx + i * rc : idx + (i + 1) * rc]))
            idx += rd * rc
            mats[p] = Matrix(C.ring, rows, nrows=rd, ncols=rc)
    if idx != len(vec):
        raise ValueError("a Hom^%d vector needs %d coordinates, got %d" % (n, idx, len(vec)))
    return mats


def hom_element_vector(C, D, n, mats):
    """Flatten per-degree matrices back to Hom(C,D)^n coordinates."""
    vec = []
    for p in range(C.lo, C.hi + 1):
        rc, rd = C.rank(p), D.rank(p + n)
        if rc and rd:
            m = mats.get(p)
            if m is None:
                vec.extend([0] * (rc * rd))
            else:
                if m.nrows != rd or m.ncols != rc:
                    raise ValueError("component shape mismatch at degree %d" % p)
                for row in m.rows:
                    vec.extend(row)
    return tuple(vec)


def hom_complex(C, D):
    """Hom(C, D)^n = prod_p Hom(C^p, D^(p+n)), d f = d_D f - (-1)^n f d_C.

    f_p is stored row-major, as in `hom_basis`, so d_D f_p = (d_D (x) 1) f_p
    and f_p d_C^(p-1) = (1 (x) (d_C^(p-1))^T) f_p (Van Loan 2000)."""
    if C.ring != D.ring:
        raise ValueError("ring mismatch")
    ring = C.ring
    lo = D.lo - C.hi
    hi = D.hi - C.lo
    ps = C.degrees()
    start, ranks = _block_starts(lo, hi, ps, lambda n, p: D.rank(p + n) * C.rank(p))
    zero = _units(ring)[0]
    diffs = []
    for n in range(lo, hi):
        rows = [[zero] * ranks[n - lo] for _ in range(ranks[n + 1 - lo])]
        sgn = 1 if n % 2 else -1
        for p in ps:
            rd, rc = D.rank(p + n), C.rank(p)
            if rd and rc:
                add_kron(rows, D.d(p + n), Matrix.identity(ring, rc),
                         start[n + 1, p], start[n, p])
                if C.rank(p - 1):
                    add_kron(rows, Matrix.identity(ring, rd), C.d(p - 1).transpose(),
                             start[n + 1, p - 1], start[n, p], sgn)
        diffs.append(Matrix._trusted(ring, tuple(map(tuple, rows)), ranks[n - lo]))
    return make_complex(ring, lo, ranks, diffs, check=False)


def hom_compose_vec(C, D, E, n_g, vec_g, n_f, vec_f):
    """Compose Hom(D,E)^n_g with Hom(C,D)^n_f into Hom(C,E)^(n_g+n_f).

    Plain componentwise composition (g . f)_p = g_(p+n_f) . f_p, no signs:
    the Koszul signs of the graded Hom live in the differential, not here.
    """
    g = hom_element_matrices(D, E, n_g, vec_g)
    f = hom_element_matrices(C, D, n_f, vec_f)
    out = {}
    for p, fp in f.items():
        gp = g.get(p + n_f)
        if gp is not None:
            out[p] = gp * fp
    return hom_element_vector(C, E, n_g + n_f, out)


def identity_hom_vector(C):
    mats = {p: Matrix.identity(C.ring, C.rank(p)) for p in C.degrees() if C.rank(p)}
    return hom_element_vector(C, C, 0, mats)


class ChainMap:
    """Degree-0 chain map; components indexed by source degree."""

    __slots__ = ("source", "target", "comps")

    def __init__(self, source, target, comps):
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "comps", dict(comps))

    def __setattr__(self, name, value):
        raise AttributeError("ChainMap is immutable")

    def comp(self, n):
        m = self.comps.get(n)
        if m is None:
            return Matrix.zero(self.source.ring, self.target.rank(n), self.source.rank(n))
        return m

    def __eq__(self, other):
        if not isinstance(other, ChainMap):
            return False
        if self.source != other.source or self.target != other.target:
            return False
        degs = set(self.comps) | set(other.comps)
        return all(self.comp(n) == other.comp(n) for n in degs)

    def __hash__(self):
        return hash((self.source, self.target))


def make_chain_map(source, target, comps, check=True):
    f = ChainMap(source, target, comps)
    if check:
        for n, m in f.comps.items():
            if m.nrows != target.rank(n) or m.ncols != source.rank(n):
                raise ValueError("chain map component shape mismatch at degree %d" % n)
        lo = min(source.lo, target.lo)
        hi = max(source.hi, target.hi)
        for n in range(lo, hi):
            if target.d(n) * f.comp(n) != f.comp(n + 1) * source.d(n):
                raise ValueError("chain map fails to commute with d at degree %d" % n)
    return f


def identity_chain_map(C):
    return ChainMap(C, C, {n: Matrix.identity(C.ring, C.rank(n)) for n in C.degrees()})


def compose_chain_maps(g, f):
    if f.target != g.source:
        raise ValueError("chain maps not composable")
    degs = set(f.comps) | set(g.comps)
    return ChainMap(f.source, g.target, {n: g.comp(n) * f.comp(n) for n in degs})


def tensor_chain_map(f, g, source=None, target=None):
    """f (x) g on tensor complexes of degree-0 chain maps (no Koszul signs):
    in degree n, the blocks f_p (x) g_(n-p) along the diagonal."""
    if source is None:
        source = tensor_complex(f.source, g.source)
    if target is None:
        target = tensor_complex(f.target, g.target)
    # p runs over both windows, so zero-size blocks keep the layouts aligned
    ps = range(min(f.source.lo, f.target.lo), max(f.source.hi, f.target.hi) + 1)
    comps = {
        n: block_diagonal(source.ring, [f.comp(p).kron(g.comp(n - p)) for p in ps])
        for n in source.degrees()
    }
    return ChainMap(source, target, comps)


def cone_of_map(f):
    """Cone(f)^n = D^n + C^(n+1), d = [[d_D, f],[0, -d_C]]; returns
    (cone, inclusion D -> cone, projection cone -> C[1])."""
    C, D = f.source, f.target
    ring = C.ring
    lo = min(D.lo, C.lo - 1)
    hi = max(D.hi, C.hi - 1)
    ranks = [D.rank(n) + C.rank(n + 1) for n in range(lo, hi + 1)]
    diffs = []
    for n in range(lo, hi):
        diffs.append(
            block_matrix(
                ring,
                [
                    [D.d(n), f.comp(n + 1)],
                    [Matrix.zero(ring, C.rank(n + 2), D.rank(n)), -C.d(n + 1)],
                ],
            )
        )
    cone = make_complex(ring, lo, ranks, diffs, check=False)
    incl = ChainMap(
        D,
        cone,
        {
            n: Matrix.identity(ring, D.rank(n)).vstack(
                Matrix.zero(ring, C.rank(n + 1), D.rank(n))
            )
            for n in range(lo, hi + 1)
        },
    )
    shifted = shift_complex(C, 1)
    proj = ChainMap(
        cone,
        shifted,
        {
            n: Matrix.zero(ring, C.rank(n + 1), D.rank(n)).hstack(
                Matrix.identity(ring, C.rank(n + 1))
            )
            for n in range(lo, hi + 1)
        },
    )
    return cone, incl, proj


def complex_homology(C, n):
    """H^n = ker d^n / im d^(n-1) as a HomologyGroup (exact, with torsion).

    ker d^n is a direct summand of C^n, so the torsion is the invariant
    factors of d^(n-1) above 1 and the free rank is rank C^n - rank d^n -
    rank d^(n-1) (Dumas, Heckenbach, Saunders and Welker 2003): no kernel
    basis, no solve.  Raises AssertionError when d^n d^(n-1) != 0.
    """
    dn, dprev = C.d(n), C.d(n - 1)
    if not (dn * dprev).is_zero():
        raise AssertionError("image not contained in kernel: complex is broken")
    # over Q every nonzero invariant factor is a unit
    inv = smith_normal_form(dprev).diagonal() if C.ring == RING_Z else [1] * q_rank(dprev)
    return HomologyGroup(C.rank(n) - rank(dn) - len(inv), tuple(d for d in inv if d > 1))


@dataclass(frozen=True)
class QuasiIsoReport:
    ok: bool
    window: tuple
    failing: tuple  # (degree, description) pairs

    def __bool__(self):
        return self.ok


def is_quasi_iso(f, window=None):
    """True when the mapping cone of f is acyclic on the (interior of the) window.

    The cone's homology at its own boundary degrees is an artifact of
    truncation, so those degrees are never consulted unless the caller's
    window forces them.  An explicit window (lo, hi) must have lo <= hi.
    """
    if window is not None and window[0] > window[1]:
        raise ValueError("empty window %r: no degree would be checked" % (window,))
    cone, _, _ = cone_of_map(f)
    lo, hi = (cone.lo + 1, cone.hi - 1) if window is None else window
    failing = []
    for n in range(lo, hi + 1):
        h = complex_homology(cone, n)
        if not h.is_zero():
            failing.append((n, h.describe()))
    return QuasiIsoReport(not failing, (lo, hi), tuple(failing))
