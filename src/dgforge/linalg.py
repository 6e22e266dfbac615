"""Exact linear algebra over Z and Q, plus chain complexes built on it.

Everything downstream (cubical complexes, twisted complexes, sheaf towers)
reduces to the primitives in this module: integer Smith normal form with a
pinned pivot rule, saturated kernels, exact solving, homology with torsion,
Hom-complexes and mapping cones.  No floats anywhere: an entry that is not
an exact integer (over Z) or rational (over Q) is refused.

How a matrix is stored is this module's decision alone.  Each row holds
its nonzero entries only, so the kernels (products, `mul_kron`, `assemble`,
sums, stacking, transposes) and both eliminations (Smith over Z, `q_rref`
over Q) visit nothing else; the one dense form is `Matrix.rows`, built on
demand for readers outside the library.  Other modules read entries
through `m[i, j]`, `m.nonzero_rows()` and `differing_entries` (the
entries where two matrices differ), and fill matrices with `assemble`, a
sum of signed Kronecker blocks scalar * (A (x) B) (Van Loan 2000), as the
tensor, Hom, cone and total complexes and the composition matrix of
mapping complexes (`hom_composition_matrix`) here do, or with
`assemble_strided`, which moves blocks into place among the columns of a
Kronecker product of totals.  Entries are coerced by `_coerce` only at
the public boundary (`Matrix(...)`, `Matrix.column`, the factor of
`scale`, the rows of `q_rref`) and in `canonical`, the sealing pass for a
product that may hold integral Fractions: over Q as over Z an integral
entry is an int, and a Fraction holds only a non-integer.  Everything
else stores entries unchecked: int * int stays int, and a Fraction
arises only where a Fraction went in.  Law checks
of the form "composition applied to a tensor of maps" use `mul_kron`,
which computes M * (A (x) B) without forming the Kronecker product, as
the Leibniz check on `flat_total`s, `leibniz_mismatches`, does.

Subcomplexes come from `restrict` (with `restrict_vector`), which reads
maps in the coordinates of a basis, and `subcomplex`, which cuts a complex
down to one basis per degree.  Every complex stacked from degree blocks is
a `block_complex`, one `assemble` per differential at the block starts of
`block_offsets`: `direct_sum` (block-diagonal), `totalize` (the columns of
a double complex, signed (-1)^p), the tensor and Hom complexes, and the
twisted Hom complexes of `pretr`.
"""

import heapq
import itertools
import numbers
from dataclasses import dataclass
from fractions import Fraction


RING_Z = "Z"
RING_Q = "Q"

# The zero and the one of each ring: ints over Q too.
_UNITS = {RING_Z: (0, 1), RING_Q: (0, 1)}


def _units(ring):
    try:
        return _UNITS[ring]
    except KeyError:
        raise ValueError("unknown ring %r" % (ring,)) from None


def _integer(value, what):
    """The value as an int: an int, another `numbers.Integral` or a Fraction
    of denominator 1.  Anything else is refused with a ValueError that
    names `what`, so no float or string is ever truncated."""
    if type(value) is int:
        return value
    if isinstance(value, numbers.Integral) or (
        isinstance(value, Fraction) and value.denominator == 1
    ):
        return int(value)
    raise ValueError("%s must be an integer: %r" % (what, value))


def _coerce(ring, value):
    """The entry as an int over Z; over Q an int when it is integral and a
    Fraction otherwise.  Inexact values are refused."""
    if ring == RING_Z:
        return _integer(value, "entry of a Z matrix")
    if type(value) is int:
        return value
    if type(value) is not Fraction:
        if not isinstance(value, numbers.Rational):
            raise ValueError("entry of a Q matrix must be rational: %r" % (value,))
        value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


def _exact_vector(ring, values):
    """The values as a tuple of exact ring elements by the rule of
    `_coerce`: ints are kept as they are, over Q too."""
    return tuple(v if type(v) is int else _coerce(ring, v) for v in values)


class Matrix:
    """Immutable matrix over Z or Q, its entries as `_coerce` makes them,
    stored as sparse rows: row i is a dict {column: entry} of its nonzero
    entries.
    No zero is ever stored, so equal matrices have equal rows, and a row
    dict is never changed once sealed, so matrices share rows freely.
    Indices are checked: `m[i, j]` and `submatrix` raise IndexError for a
    row or a column outside the matrix, negative ones included.

    Two results are kept on the matrix once computed, like any function of
    its entries, and `==` and `hash` never read them: the dense view
    `rows`, the one dense form of a matrix, which no function of this
    module reads, and the result of its Smith elimination (`_smith`).
    That is the invariant factors alone (`rank`, `complex_homology`; over
    Q the rank, as that many ones), or the full decomposition once
    `smith_normal_form` is asked for, which then stays."""

    __slots__ = ("ring", "nrows", "ncols", "_rows", "_dense", "_smith")

    def __init__(self, ring, rows, nrows=None, ncols=None):
        _units(ring)
        rows = [[_coerce(ring, v) for v in row] for row in rows] or [()] * (nrows or 0)
        width = len(rows[0]) if rows else ncols or 0
        if any(len(row) != width for row in rows):
            raise ValueError("ragged rows")
        if nrows is not None and nrows != len(rows):
            raise ValueError("nrows mismatch")
        if ncols is not None and ncols != width:
            raise ValueError("ncols mismatch")
        _seal(self, ring, tuple({j: v for j, v in enumerate(row) if v} for row in rows), width)

    @staticmethod
    def _trusted(ring, rows, ncols):
        """The matrix on `rows`, a tuple of dicts {column: entry} that hold
        only nonzero entries of the ring's type; nothing is coerced or
        checked."""
        return _seal(object.__new__(Matrix), ring, rows, ncols)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @property
    def rows(self):
        """The dense rows, a tuple of tuples with int zeros, for readers
        outside the library; built on first use and kept.  It is the only
        dense form of a matrix that this module builds."""
        try:
            return self._dense
        except AttributeError:
            zero, cols = itertools.repeat(_units(self.ring)[0]), range(self.ncols)
            _set_dense(self, tuple(tuple(map(row.get, cols, zero)) for row in self._rows))
            return self._dense

    @staticmethod
    def zero(ring, nrows, ncols):
        _units(ring)
        return Matrix._trusted(ring, ({},) * nrows, ncols)

    @staticmethod
    def identity(ring, n):
        one = _units(ring)[1]
        return Matrix._trusted(ring, tuple({i: one} for i in range(n)), n)

    @staticmethod
    def column(ring, entries):
        return Matrix(ring, [[v] for v in entries], ncols=1)

    def __getitem__(self, ij):
        i, j = ij
        return self._rows[_index(i, self.nrows, "row")].get(
            _index(j, self.ncols, "column"), _UNITS[self.ring][0])

    def __eq__(self, other):
        return isinstance(other, Matrix) and (self.ring, self.nrows, self.ncols, self._rows) == (
            other.ring, other.nrows, other.ncols, other._rows)

    def __hash__(self):
        rows = tuple(frozenset(row.items()) for row in self._rows)
        return hash((self.ring, self.nrows, self.ncols, rows))

    def __repr__(self):
        return "Matrix(%s, %d x %d)" % (self.ring, self.nrows, self.ncols)

    def is_zero(self):
        return not any(self._rows)

    def __add__(self, other):
        self._check_same_shape(other)
        out = []
        for r1, r2 in zip(self._rows, other._rows):
            row = r1 or r2
            if r1 and r2:
                row = dict(r1)
                for j, v in r2.items():
                    _add_entry(row, j, v)
            out.append(row)
        return Matrix._trusted(self.ring, tuple(out), self.ncols)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c):
        c = _coerce(self.ring, c)
        if not c:
            return Matrix.zero(self.ring, self.nrows, self.ncols)
        return Matrix._trusted(
            self.ring, tuple({j: c * v for j, v in row.items()} for row in self._rows), self.ncols
        )

    def __mul__(self, other):
        """Row by row (Gustavson 1978): row i of the product is the sum of
        a * (row k of other) over the entries a at (i, k)."""
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.ring != other.ring:
            raise ValueError("ring mismatch in product")
        if self.ncols != other.nrows:
            raise ValueError(
                "shape mismatch: %dx%d times %dx%d"
                % (self.nrows, self.ncols, other.nrows, other.ncols)
            )
        brows, out = other._rows, []
        for arow in self._rows:
            if len(arow) == 1:  # a multiple of one row of other: nothing cancels
                ((k, a),) = arow.items()
                out.append(brows[k] if a == 1 else {j: a * b for j, b in brows[k].items()})
                continue
            acc = {}
            for k, a in arow.items():
                for j, b in brows[k].items():
                    _add_entry(acc, j, a * b)
            out.append(acc)
        return Matrix._trusted(self.ring, tuple(out), other.ncols)

    def kron(self, other):
        """Kronecker product; row/column index order is (i_self, i_other) row-major."""
        nrows, ncols = self.nrows * other.nrows, self.ncols * other.ncols
        return assemble(self.ring, nrows, ncols, [(0, 0, self, other, 1)])

    def hstack(self, other):
        if self.nrows != other.nrows or self.ring != other.ring:
            raise ValueError("hstack mismatch")
        terms = [(0, 0, self, 1, 1), (0, self.ncols, other, 1, 1)]
        return assemble(self.ring, self.nrows, self.ncols + other.ncols, terms)

    def submatrix(self, row_idx, col_idx):
        """The rows row_idx and columns col_idx, each a range or a sequence;
        an IndexError names the first index outside the matrix (a range of
        rows is checked by its two ends)."""
        rows, n, c = self._rows, self.nrows, col_idx
        if row_idx != range(n):  # every row: the stored tuple itself
            ends = (row_idx[0], row_idx[-1]) if type(row_idx) is range and row_idx else row_idx
            if ends and not (0 <= min(ends) and max(ends) < n):
                for i in row_idx:
                    _index(i, n, "row")
            rows = tuple(map(rows.__getitem__, row_idx))
        if c == range(self.ncols):  # every column: the rows themselves
            picked = rows
        elif type(c) is range and c.step == 1 and 0 <= c.start <= c.stop <= self.ncols:
            lo, hi = c.start, c.stop  # a run of columns: the entries inside it, shifted
            picked = tuple({j - lo: v for j, v in row.items() if lo <= j < hi} for row in rows)
        else:
            where = {}  # old column -> its new columns (a column may be picked twice)
            for new, j in enumerate(c):
                where.setdefault(_index(j, self.ncols, "column"), []).append(new)
            picked = tuple({new: v for j, v in row.items() if j in where for new in where[j]}
                           for row in rows)
        return Matrix._trusted(self.ring, picked, len(c))

    def col(self, j):
        j, zero = _index(j, self.ncols, "column"), _units(self.ring)[0]
        return [row.get(j, zero) for row in self._rows]

    def nonzero_rows(self):
        """For each row, the (column, value) pairs of its nonzero entries."""
        return [row.items() for row in self._rows]

    def transpose(self):
        out = tuple({} for _ in range(self.ncols))
        for i, row in enumerate(self._rows):
            for j, v in row.items():
                out[j][i] = v
        return Matrix._trusted(self.ring, out, self.nrows)

    def to_q(self):
        """This matrix over Q: a Z matrix's rows, shared, are Q rows."""
        return self if self.ring == RING_Q else Matrix._trusted(RING_Q, self._rows, self.ncols)

    def _check_same_shape(self, other):
        if (self.ring, self.nrows, self.ncols) != (other.ring, other.nrows, other.ncols):
            raise ValueError("shape/ring mismatch")


# The slots' own setters: `Matrix.__setattr__` refuses every assignment.
_set_ring, _set_rows, _set_nrows, _set_ncols, _set_dense, _set_smith = (
    Matrix.__dict__[name].__set__
    for name in ("ring", "_rows", "nrows", "ncols", "_dense", "_smith")
)


def _seal(m, ring, rows, ncols):
    _set_ring(m, ring)
    _set_rows(m, rows)
    _set_nrows(m, len(rows))
    _set_ncols(m, ncols)
    return m


def _index(k, n, what):
    """k, or an IndexError when it is not one of n row or column indices."""
    if not 0 <= k < n:
        raise IndexError("%s %r of a matrix with %d %ss" % (what, k, n, what))
    return k


def _add_entry(row, k, v):
    """row[k] += v in a sparse row, removing the entry when it cancels."""
    if k in row:
        v += row[k]
        if not v:
            del row[k]
            return
    row[k] = v


def block_matrix(ring, blocks):
    """Assemble from a 2d list of Matrix/None; None blocks need inferable shapes.

    `blocks[i][j]` sits at block-row i, block-column j.  Every block row must
    contain at least one real matrix fixing the row count, ditto columns.
    """
    cells = [(i, j, b) for i, bs in enumerate(blocks) for j, b in enumerate(bs) if b is not None]
    heights, widths = {}, {}
    for i, j, b in cells:
        if b.ring != ring:
            raise ValueError("ring mismatch in block_matrix")
        if heights.setdefault(i, b.nrows) != b.nrows:
            raise ValueError("inconsistent block heights")
        if widths.setdefault(j, b.ncols) != b.ncols:
            raise ValueError("inconsistent block widths")
    nbc = len(blocks[0]) if blocks else 0
    if len(heights) < len(blocks) or len(widths) < nbc:
        raise ValueError("cannot infer shapes of empty block rows/columns")
    roff, nrows = block_offsets(range(len(blocks)), heights.get)
    coff, ncols = block_offsets(range(nbc), widths.get)
    return assemble(ring, nrows, ncols, [(roff[i], coff[j], b, 1, 1) for i, j, b in cells])


def assemble(ring, nrows, ncols, terms):
    """The nrows x ncols matrix that is the sum, over the terms
    (roff, coff, A, B, scalar), of scalar * (A (x) B) in the order of
    `Matrix.kron` with its top-left entry at (roff, coff).

    An int n in place of A or B stands for I_n, as in `mul_kron`:
    (r, c, X, 1, s) is a block, (r, c, n, 1, s) an identity block and
    (r, c, 1, 1, v) a single entry.  Only pairs of nonzero entries are
    visited.  A, B and the scalar hold ring elements or ints, which are not
    coerced, except that a scalar written alone (A and B both ints) goes
    through `_coerce`; a term that leaves the frame raises ValueError.  An
    entry that the terms cancel is removed."""
    _units(ring)  # an unknown ring is refused
    out = [{} for _ in range(nrows)]
    for roff, coff, A, B, scalar in terms:
        # (most terms have an int factor, read here without a call)
        ar, ac = (A, A) if type(A) is int else _factor_shape(ring, A)
        br, bc = (B, B) if type(B) is int else _factor_shape(ring, B)
        if roff < 0 or coff < 0 or roff + ar * br > nrows or coff + ac * bc > ncols:
            raise ValueError(
                "a %dx%d term at (%d, %d) leaves the %dx%d frame"
                % (ar * br, ac * bc, roff, coff, nrows, ncols)
            )
        if not scalar:
            continue
        if type(A) is int and type(B) is int:
            # I_A (x) I_B = I_(AB): a single entry or one diagonal
            if type(scalar) is not int:
                scalar = _coerce(ring, scalar)
            for t in range(A * B):
                _add_entry(out[roff + t], coff + t, scalar)
        elif type(B) is int:
            # A (x) I_B: row t of block row i holds scalar * a at column
            # j * B + t for each nonzero a at (i, j) (for B = 1, row i of A)
            for i, arow in enumerate(A._rows):
                arow = arow.items() if scalar == 1 else [(j, a * scalar) for j, a in arow.items()]
                for t in range(B):
                    row, c = out[roff + i * B + t], coff + t
                    if not row:  # nothing to add to: the entries go in as they are
                        row.update((c + j * B, a) for j, a in arow)
                        continue
                    for j, a in arow:
                        _add_entry(row, c + j * B, a)
        else:
            # a copy of B per nonzero entry of A, or per diagonal entry of I_A
            if type(A) is int:
                copies = [(roff + i * br, coff + i * bc, scalar) for i in range(A)]
            else:
                copies = [
                    (roff + i * br, coff + j * bc, a * scalar)
                    for i, arow in enumerate(A._rows)
                    for j, a in arow.items()
                ]
            brows = B._rows
            for r, c, s in copies:
                for t, brow in enumerate(brows, r):
                    row = out[t]
                    for l, b in brow.items():
                        _add_entry(row, c + l, b if s == 1 else s * b)
    return Matrix._trusted(ring, tuple(out), ncols)


def assemble_strided(ring, nrows, ncols, terms):
    """The nrows x ncols matrix that holds, for each term
    (roff, coff, M, run, stride), entry (i, j) of M at row roff + i and
    column coff + (j // run) * stride + j % run: the columns of M laid down
    in runs of `run`, one run every `stride` columns.

    That is where a block on U^p (x) V^q sits among the columns of the
    Kronecker product of two totals U (x) V, in the order of `Matrix.kron`:
    coff = start(U^p) * rank(V) + start(V^q), run = rank(V^q) and
    stride = rank(V).  Entries are moved as they are, with no arithmetic,
    so the blocks must not overlap; a term that leaves the frame raises
    ValueError."""
    out = [{} for _ in range(nrows)]
    for roff, coff, M, run, stride in terms:
        if M.ring != ring:
            raise ValueError("ring mismatch in assemble_strided")
        last = M.ncols - 1
        if roff < 0 or coff < 0 or roff + M.nrows > nrows or not 0 < run <= stride or (
                M.ncols and coff + last // run * stride + last % run >= ncols):
            raise ValueError(
                "a %dx%d block at (%d, %d) in runs of %d every %d leaves the %dx%d frame"
                % (M.nrows, M.ncols, roff, coff, run, stride, nrows, ncols))
        for i, mrow in enumerate(M._rows, roff):
            if mrow:
                out[i].update((coff + j // run * stride + j % run, v) for j, v in mrow.items())
    return Matrix._trusted(ring, tuple(out), ncols)


def differing_entries(A, B):
    """(i, j, A[i, j], B[i, j]) for each entry where A and B differ, in
    row-major order, read from the stored rows: a row that is the same on
    both sides is passed over whole."""
    A._check_same_shape(B)
    zero = _units(A.ring)[0]
    for i, (ra, rb) in enumerate(zip(A._rows, B._rows)):
        if ra != rb:
            for j in sorted(ra.keys() | rb.keys()):
                a, b = ra.get(j, zero), rb.get(j, zero)
                if a != b:
                    yield i, j, a, b


def mul_kron(M, A, B):
    """M * (A (x) B), in the column order of `kron`, without forming A (x) B.

    An int n in place of A or B stands for the n x n identity.  Read a row
    of M as the matrix R with R[i][t] = row[i * B.nrows + t]; its image is
    A^T R B flattened row-major (Van Loan 2000), computed as R -> A^T R
    (columns of M times A (x) I) and then -> (A^T R) B (times I (x) B),
    each on the nonzero entries alone.
    """
    ring = M.ring
    ar, ac = _factor_shape(ring, A)
    br, bc = _factor_shape(ring, B)
    if M.ncols != ar * br:
        raise ValueError(
            "shape mismatch: %dx%d times (%dx%d kron %dx%d)"
            % (M.nrows, M.ncols, ar, ac, br, bc)
        )
    rows = M._rows
    if type(A) is not int:
        arows, out = A._rows, []
        for row in rows:
            acc = {}
            for k, v in row.items():
                i, t = divmod(k, br)
                for j, a in arows[i].items():
                    _add_entry(acc, j * br + t, a * v)
            out.append(acc)
        rows = out
    if type(B) is not int:
        brows, out = B._rows, []
        for row in rows:
            acc = {}
            for k, v in row.items():
                j, t = divmod(k, br)
                for l, b in brows[t].items():
                    _add_entry(acc, j * bc + l, v * b)
            out.append(acc)
        rows = out
    return Matrix._trusted(ring, tuple(rows), ac * bc)


def _factor_shape(ring, X):
    """(nrows, ncols) of a `mul_kron` or `assemble` factor; an int n is the
    n x n identity."""
    if type(X) is int:
        return X, X
    if X.ring != ring:
        raise ValueError("ring mismatch in a Kronecker factor")
    return X.nrows, X.ncols


def _apply(mat, vec):
    """mat * vec for a coordinate tuple, as a tuple."""
    if len(vec) != mat.ncols:
        raise ValueError("shape mismatch: %dx%d times a vector of length %d"
                         % (mat.nrows, mat.ncols, len(vec)))
    vec, zero = _exact_vector(mat.ring, vec), _units(mat.ring)[0]
    return tuple(sum([v * vec[j] for j, v in row.items()]) if row else zero for row in mat._rows)


def blocks_as_columns(M, n):
    """The (m * n) x k matrix whose column j is block j of M, its columns
    j * n up to (j + 1) * n, read row-major; M is m x (k * n), n >= 1, and
    its entries are moved as they are.  On the transpose it is the inverse:
    blocks_as_columns(X.transpose(), n).transpose() reads each column of X
    row-major as an n-column block, side by side."""
    k, rest = divmod(M.ncols, n) if n >= 1 else (0, 1)
    if rest:
        raise ValueError("%d columns are not blocks of %d" % (M.ncols, n))
    out = tuple({} for _ in range(M.nrows * n))
    for a, row in enumerate(M._rows):
        for c, v in row.items():
            j, s = divmod(c, n)
            out[a * n + s][j] = v
    return Matrix._trusted(M.ring, out, k)


def canonical(M):
    """M with each entry by the rule of `_coerce`, so the integral Fractions
    that a product of Q matrices may hold become ints."""
    rows = tuple({j: v if type(v) is int else _coerce(M.ring, v) for j, v in row.items()}
                 for row in M._rows)
    return Matrix._trusted(M.ring, rows, M.ncols)


def _columns_to_matrix(ring, nrows, cols):
    """The nrows x len(cols) matrix with these columns, its entries by the
    rule of `_coerce`."""
    if any(len(col) != nrows for col in cols):
        raise ValueError("column length mismatch")
    out = tuple({} for _ in range(nrows))
    for c, col in enumerate(cols):
        for r, v in enumerate(col):
            if type(v) is not int:
                v = _coerce(ring, v)
            if v:
                out[r][c] = v
    return Matrix._trusted(ring, out, len(cols))


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SmithDecomposition:
    """U * A * V = D with U, V unimodular and D diagonal, d1 | d2 | ... , di >= 0;
    `smith_normal_form` keeps it on A."""

    U: Matrix
    D: Matrix
    V: Matrix

    def diagonal(self):
        rows = self.D._rows
        return [rows[i][i] for i in range(min(self.D.nrows, self.D.ncols)) if i in rows[i]]

    @property
    def rank(self):
        return len(self.diagonal())


def _find_pivot(a, t):
    """Smallest nonzero |entry| in the rows from t on, ties row-major (those
    rows hold no entry left of column t)."""
    best = None
    for i in range(t, len(a)):
        row = a[i]
        if row:
            av, j = min((-v if v < 0 else v, j) for j, v in row.items())
            if best is None or av < best[0]:
                best = (av, i, j)
                if av == 1:
                    return best
    return best


def _smith_reduce(a, ncols, u, v):
    """Reduce `a`, the sparse working rows of a Z matrix with `ncols`
    columns, to its Smith form in place; return the invariant factors
    d1 | d2 | ... , as a tuple.

    Pivot rule: at each stage pick the nonzero entry of smallest absolute
    value in the remaining submatrix, ties broken row-major.  Its row and
    column are reduced by nearest-integer quotients, and the smallest
    remainder among them becomes the pivot until none is left (Kannan and
    Bachem 1979), which keeps the working entries from growing.  Row
    operations are mirrored into the rows of u and column operations into
    those of v, so U A V = D exactly.

    With u and v None no transform is built, and unit pivots come first,
    by row operations alone: a +-1 entry clears its column, and its row
    then leaves with one invariant factor 1, since the column operations
    that would clear it change that row only.  The unit is taken in a
    shortest row, ties broken by row order and then column order, to keep
    fill-in small (Kaczynski, Mrozek and Slusarek 1998).  The pivot loop
    then runs on the residual: the rows left over, less those that
    cancelled to nothing.  So `a` is left holding the residual's Smith
    form, and the result is one 1 per unit pivot followed by its factors.
    """
    units = 0
    if u is None and v is None:
        rows = [row for row in a if row]
        while True:
            best, size = None, ncols + 1
            for i, row in enumerate(rows):
                if len(row) < size and (1 in row.values() or -1 in row.values()):
                    best, size = i, len(row)
                    if size == 1:
                        break
            if best is None:
                break
            prow = rows.pop(best)
            j = min(j for j, x in prow.items() if x == 1 or x == -1)
            p = prow[j]
            for row in rows:
                x = row.get(j)
                if x:
                    c = -x * p  # p is its own inverse
                    for k, y in prow.items():
                        _add_entry(row, k, c * y)
            units += 1
        a[:] = [row for row in rows if row]
    rowwise = (a,) if u is None else (a, u)
    colwise = (a,) if v is None else (a, v)

    def swap_rows(i, k):
        for s in rowwise:
            s[i], s[k] = s[k], s[i]

    def swap_cols(j, k):
        for s in colwise:
            for row in s:
                x, y = row.pop(j, 0), row.pop(k, 0)
                if x:
                    row[k] = x
                if y:
                    row[j] = y

    def addmul_row(dst, src, c):
        for s in rowwise:
            row = s[dst]
            for j, x in s[src].items():
                _add_entry(row, j, c * x)

    def addmul_col(dst, src, c):
        for s in colwise:
            for row in s:
                x = row.get(src)
                if x:
                    _add_entry(row, dst, c * x)

    def negate_row(i):
        for s in rowwise:
            s[i] = {j: -x for j, x in s[i].items()}

    m, t = len(a), 0
    while t < min(m, ncols):
        piv = _find_pivot(a, t)
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
            # reduce column t and row t by nearest-integer quotients, then
            # pivot again on the smallest remainder among them
            # (a zero quotient changes nothing and must not store a zero)
            d = a[t][t]
            rest = []
            for i in range(m):
                x = a[i].get(t)
                if x and i != t:
                    c = (2 * x + d) // (2 * d)
                    if c:
                        addmul_row(i, t, -c)
                        x = a[i].get(t)
                    if x:
                        rest.append((abs(x), i, t))
            for j, x in [(j, x) for j, x in a[t].items() if j != t]:
                c = (2 * x + d) // (2 * d)
                if c:
                    addmul_col(j, t, -c)
                    x = a[t].get(j)
                if x:
                    rest.append((abs(x), t, j))
            if rest:
                _, pi, pj = min(rest)
                if pi != t:
                    swap_rows(pi, t)
                else:
                    swap_cols(pj, t)
                if a[t][t] < 0:
                    negate_row(t)
                continue
            # enforce divisibility of everything left by the pivot (1
            # divides everything)
            if d == 1:
                break
            offender = next((i for i in range(t + 1, m) if any(x % d for x in a[i].values())),
                            None)
            if offender is None:
                break
            addmul_row(t, offender, 1)
        t += 1
    return (1,) * units + tuple(a[i][i] for i in range(t))


def smith_normal_form(A):
    """Deterministic SNF over Z, by `_smith_reduce` with U and V built,
    kept on A: a second call returns the same decomposition.
    """
    if A.ring != RING_Z:
        raise ValueError("smith_normal_form needs a Z matrix")
    kept = getattr(A, "_smith", None)
    if isinstance(kept, SmithDecomposition):
        return kept
    m, n = A.nrows, A.ncols
    a, u, v = [dict(row) for row in A._rows], [{i: 1} for i in range(m)], [{j: 1} for j in range(n)]
    _smith_reduce(a, n, u, v)
    snf = SmithDecomposition(*(Matrix._trusted(RING_Z, tuple(rows), k)
                               for rows, k in ((u, m), (a, n), (v, n))))
    _set_smith(A, snf)
    return snf


def _invariant_factors(A):
    """The nonzero invariant factors d1 | d2 | ... of A, as a tuple, kept on
    A.  Over Z they come from `_smith_reduce` without U and V, or from the
    diagonal of A's kept decomposition; over Q they are rank-many ones
    (`q_rank`).  A matrix with no stored entries has none."""
    kept = getattr(A, "_smith", None)
    if kept is None:
        if A.is_zero():
            return ()
        if A.ring == RING_Z:
            kept = _smith_reduce([dict(row) for row in A._rows], A.ncols, None, None)
        else:
            kept = (1,) * q_rank(A)
        _set_smith(A, kept)
    return kept if type(kept) is tuple else tuple(kept.diagonal())


def z_kernel(A):
    """Columns form a saturated basis of ker(A) over Z (a direct summand)."""
    snf = smith_normal_form(A)
    return snf.V.submatrix(range(A.ncols), range(snf.rank, A.ncols))


def z_solve(A, B):
    """Solve A X = B over Z exactly; returns X or None when unsolvable."""
    snf = smith_normal_form(A)
    diag = snf.diagonal()
    ub = (snf.U * B)._rows
    # U A V = D: row i of U B is d_i times row i of V^-1 X, and 0 beyond the rank
    if any(ub[len(diag) :]) or any(v % d for row, d in zip(ub, diag) for v in row.values()):
        return None
    Y = tuple({j: v // d for j, v in row.items()} for row, d in zip(ub, diag))
    return snf.V.submatrix(range(A.ncols), range(len(diag))) * Matrix._trusted(RING_Z, Y, B.ncols)


# ---------------------------------------------------------------------------
# Rational elimination (the independent route for ranks/kernels)
# ---------------------------------------------------------------------------


def q_rref(A):
    """Reduced row echelon form over Q; returns (R, pivot_columns).

    Gauss-Jordan elimination on the sparse rows (a Z matrix's rows are Q
    rows): it makes a Fraction only of stored entries, by exact division,
    and seals R by `_coerce`.  Each step pivots on the least (leading
    column, row index) of a heap, scales that row to a leading 1 and clears
    its column from the done rows and from the remaining rows that lead
    with it, the only ones that hold it; they go back on the heap unless
    emptied.  The reduced form is unique, so R is the one that dense
    elimination gives."""
    rest = [dict(row) for row in A._rows if row]
    heap, done, pivots = [(min(r), k) for k, r in enumerate(rest)], [], []
    heapq.heapify(heap)
    while heap:
        p, k = heapq.heappop(heap)
        row = rest[k]
        if row[p] != 1:
            inv = Fraction(1) / row[p]
            row = {j: v * inv for j, v in row.items()}
        for other in done:
            c = other.get(p)
            if c:
                for j, v in row.items():
                    _add_entry(other, j, -c * v)
        while heap and heap[0][0] == p:
            i = heapq.heappop(heap)[1]
            other, c = rest[i], rest[i][p]
            for j, v in row.items():
                _add_entry(other, j, -c * v)
            if other:
                heapq.heappush(heap, (min(other), i))
        done.append(row)
        pivots.append(p)
    done = tuple({j: _coerce(RING_Q, v) for j, v in row.items()} for row in done)
    return Matrix._trusted(RING_Q, done + ({},) * (A.nrows - len(done)), A.ncols), pivots


def q_rank(A):
    return len(q_rref(A)[1])


def q_kernel(A):
    """Columns form a basis of ker(A) over Q."""
    R, pivots = q_rref(A)
    free = [j for j in range(A.ncols) if j not in pivots]
    # free column f gives the vector e_f - sum over the pivots p (row r) of R[r, f] e_p
    terms = [(f, c, 1, 1, 1) for c, f in enumerate(free)]
    terms += [(p, c, 1, 1, -R[r, f]) for c, f in enumerate(free) for r, p in enumerate(pivots)]
    return assemble(RING_Q, A.ncols, len(free), terms)


def q_solve(A, B):
    """Solve A X = B over Q; returns one solution or None."""
    aug = A.to_q().hstack(B.to_q())
    R, pivots = q_rref(aug)
    n = A.ncols
    if any(p >= n for p in pivots):
        return None
    # pivot variable p takes the right-hand side of its row, the free ones 0
    rhs = [(p, 0, R.submatrix([r], range(n, R.ncols)), 1, 1) for r, p in enumerate(pivots)]
    return assemble(RING_Q, n, B.ncols, rhs)


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
    """The number of invariant factors: over Z from the Smith elimination
    without transforms, over Q from `q_rref` (two genuinely distinct
    routes); kept on A either way."""
    return len(_invariant_factors(A))


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
    falls outside the window are zero by convention.  Up to degree a and
    from degree b on, `cut = (a, b)`, the complex no longer equals the object
    it truncates (None: a real bound).  `cut_complex` sets it, `subcomplex`
    and `shift_complex` keep it, the cone and `pretr`'s twisted Hom take the
    `meet_cuts` of their pieces.  Direct sums, tensor and Hom complexes and
    totals carry none: a total would be exact nowhere, its columns' cuts
    moved up by their index.  Only `make_complex` checks d^2 = 0;
    `complex_homology` checks it in the degree it reads.
    """

    __slots__ = ("ring", "lo", "hi", "ranks", "diffs", "cut")

    def __init__(self, ring, lo, ranks, diffs, cut=(None, None)):
        # ranks: tuple indexed by deg-lo; diffs: tuple of len(ranks)-1 matrices
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "ranks", tuple(ranks))
        object.__setattr__(self, "hi", lo + len(self.ranks) - 1)
        object.__setattr__(self, "diffs", tuple(diffs))
        object.__setattr__(self, "cut", cut)

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

    def exact(self, n):
        """True when the homology of degree n is that of the truncated object."""
        a, b = self.cut
        return (a is None or n > a) and (b is None or n < b)

    def total_rank(self):
        return sum(self.ranks)

    def __eq__(self, other):
        return isinstance(other, ChainComplex) and (
            self.ring, self.lo, self.ranks, self.diffs, self.cut) == (
            other.ring, other.lo, other.ranks, other.diffs, other.cut)

    def __hash__(self):
        return hash((self.ring, self.lo, self.ranks, self.diffs, self.cut))

    def __repr__(self):
        return "ChainComplex(%s, [%d..%d], ranks=%s%s)" % (
            self.ring,
            self.lo,
            self.hi,
            list(self.ranks),
            "" if self.cut == (None, None) else ", cut=%r" % (self.cut,),
        )


def make_complex(ring, lo, ranks, diffs=None, check=True):
    """Build a ChainComplex from ranks (list from degree lo up) and diffs.

    diffs may be a dict {deg: Matrix} or a list aligned with ranks[:-1].
    """
    ranks = list(ranks) or [0]
    n = len(ranks)
    if isinstance(diffs, dict):
        stray = [deg for deg in diffs if not lo <= deg < lo + n - 1]
        if stray:
            raise ValueError("differentials at degrees %r leave the window %d..%d"
                             % (stray, lo, lo + n - 1))
        dl = [diffs.get(lo + k, Matrix.zero(ring, ranks[k + 1], ranks[k])) for k in range(n - 1)]
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


def zero_complex(ring, lo, hi):
    return make_complex(ring, lo, [0] * (hi - lo + 1))


def single_complex(ring, deg, rank_):
    return make_complex(ring, deg, [rank_])


def two_term_complex(ring, lo_deg, matrix):
    """The complex (matrix: C^lo -> C^(lo+1)) concentrated in two degrees."""
    return make_complex(ring, lo_deg, [matrix.ncols, matrix.nrows], [matrix])


def cut_complex(C, lo=None, hi=None):
    """C with the cut (lo, hi): see `ChainComplex`."""
    return ChainComplex(C.ring, C.lo, C.ranks, C.diffs, (lo, hi))


def meet_cuts(cuts, shifts):
    """The cut of a complex built from pieces cut at `cuts`, piece k moved
    up by shifts[k]: the largest low end and the smallest high end."""
    lows = [a + k for (a, _), k in zip(cuts, shifts) if a is not None]
    highs = [b + k for (_, b), k in zip(cuts, shifts) if b is not None]
    return max(lows, default=None), min(highs, default=None)


def shift_complex(C, k):
    """C[k]^n = C^(n+k) with differential scaled by (-1)^k, the cut moved along."""
    sgn = -1 if k % 2 else 1
    return ChainComplex(
        C.ring,
        C.lo - k,
        C.ranks,
        tuple(m.scale(sgn) for m in C.diffs),
        tuple(None if end is None else end - k for end in C.cut),
    )


def subcomplex(C, bases):
    """The subcomplex spanned by the columns of bases[n] in C^n, for n from
    min(bases) to max(bases), with d restricted by `restrict` and C's cut."""
    lo, hi = min(bases), max(bases)
    diffs = [
        restrict(bases[n + 1], C.d(n) * bases[n], "the differential at degree %d" % n)
        for n in range(lo, hi)
    ]
    sub = make_complex(C.ring, lo, [bases[n].ncols for n in range(lo, hi + 1)], diffs)
    return ChainComplex(C.ring, lo, sub.ranks, sub.diffs, C.cut)


def block_complex(ring, blocks, terms, check):
    """The complex whose degree n is a stack of blocks: blocks is
    {degree: {key: rank}}, its degrees ascending and contiguous, each block
    list in stacking order, and d^n is the `assemble` of terms(n, src, tgt),
    src and tgt the block starts {key: first coordinate} of degrees n and
    n+1.  `check` is passed on to `make_complex`."""
    degs = list(blocks)
    start, ranks = zip(*(block_offsets(blocks[n], blocks[n].get) for n in degs))
    diffs = [assemble(ring, ranks[k + 1], ranks[k], terms(n, start[k], start[k + 1]))
             for k, n in enumerate(degs[:-1])]
    return make_complex(ring, degs[0], ranks, diffs, check=check)


def direct_sum(ring, lo, hi, complexes):
    """The direct sum of `complexes`, in order, on the window lo..hi."""
    if any(C.ring != ring for C in complexes):
        raise ValueError("ring mismatch")
    if any(C.rank(n) for C in complexes for n in C.degrees() if not lo <= n <= hi):
        raise ValueError("a summand leaves the window %d..%d" % (lo, hi))
    blocks = {n: {k: C.rank(n) for k, C in enumerate(complexes)} for n in range(lo, hi + 1)}
    return block_complex(ring, blocks, lambda n, src, tgt: [
        (tgt[k], src[k], C.d(n), 1, 1) for k, C in enumerate(complexes) if C.rank(n)], False)


def totalize(ring, lo, hi, columns, across):
    """Total complex on the window lo..hi of the double complex with column
    p the complex columns[p]: degree n stacks columns[p]^(n-p) by ascending
    p, and d is (-1)^p times the column differential plus across(p, q), the
    map columns[p]^q -> columns[p+1]^q, asked for where columns[p]^q != 0."""
    ps = sorted(columns)
    if any(C.rank(q) for p, C in columns.items() for q in C.degrees() if not lo <= p + q <= hi):
        raise ValueError("a column leaves the window %d..%d" % (lo, hi))

    def terms(n, src, tgt):
        for p in ps:
            q = n - p
            if columns[p].rank(q):
                yield tgt[p], src[p], columns[p].d(q), 1, -1 if p % 2 else 1
                if p + 1 in columns:
                    yield tgt[p + 1], src[p], across(p, q), 1, 1

    blocks = {n: {p: columns[p].rank(n - p) for p in ps} for n in range(lo, hi + 1)}
    return block_complex(ring, blocks, terms, True)


def block_offsets(keys, size):
    """(start, total) of a stack of blocks in key order, the block at a key
    having size(key) coordinates: start[key] is the first coordinate of
    that block and total the size of the stack."""
    start, total = {}, 0
    for key in keys:
        start[key] = total
        total += size(key)
    return start, total


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
    ps = C.degrees()

    def terms(n, src, tgt):
        for p in ps:
            rc, rd = C.rank(p), D.rank(n - p)
            if rc and rd:
                if C.rank(p + 1):
                    yield tgt[p + 1], src[p], C.d(p), rd, 1
                yield tgt[p], src[p], rc, D.d(n - p), -1 if p % 2 else 1

    blocks = {n: {p: C.rank(p) * D.rank(n - p) for p in ps}
              for n in range(C.lo + D.lo, C.hi + D.hi + 1)}
    return block_complex(C.ring, blocks, terms, False)


@dataclass(frozen=True, eq=False)
class FlatTotal:
    """A complex as one free module, its degrees in ascending order:
    degree n starts at coordinate start[n], coords[k] is the (degree, index)
    of coordinate k, d is the total differential and sign is diag((-1)^n)."""

    cx: object
    start: dict
    rank: int
    coords: list
    d: Matrix
    sign: Matrix


def flat_total(cx):
    start, n = block_offsets(cx.degrees(), cx.rank)
    d = assemble(cx.ring, n, n,
                 [(start[k + 1], start[k], cx.d(k), 1, 1) for k in range(cx.lo, cx.hi)])
    sign = assemble(cx.ring, n, n, [(start[k], start[k], cx.rank(k), 1, -1 if k % 2 else 1)
                                    for k in cx.degrees()])
    coords = [(k, i) for k in cx.degrees() for i in range(cx.rank(k))]
    return FlatTotal(cx, start, n, coords, d, sign)


def leibniz_mismatches(P, L, R, M):
    """The entries (i, j, lhs, rhs) where d_P M != M (d_L (x) 1 + sign_L (x)
    d_R), in row-major order, for M from the flat totals L (x) R, its columns
    in the order of `kron`, to the flat total P: none when M is a chain map
    from the tensor complex of L and R.  One `mul_kron` per term."""
    rhs = mul_kron(M, L.d, R.rank) + mul_kron(M, L.sign, R.d)
    return differing_entries(P.d * M, rhs)


def hom_complex(C, D):
    """Hom(C, D)^n = prod_p Hom(C^p, D^(p+n)), d f = d_D f - (-1)^n f d_C.

    f_p is stored row-major, blocks by ascending p, so d_D f_p = (d_D (x) 1) f_p
    and f_p d_C^(p-1) = (1 (x) (d_C^(p-1))^T) f_p (Van Loan 2000)."""
    if C.ring != D.ring:
        raise ValueError("ring mismatch")
    ps = C.degrees()

    def terms(n, src, tgt):
        for p in ps:
            rd, rc = D.rank(p + n), C.rank(p)
            if rd and rc:
                yield tgt[p], src[p], D.d(p + n), rc, 1
                if C.rank(p - 1):
                    yield tgt[p - 1], src[p], rd, C.d(p - 1).transpose(), 1 if n % 2 else -1

    blocks = {n: {p: D.rank(p + n) * C.rank(p) for p in ps}
              for n in range(D.lo - C.hi, D.hi - C.lo + 1)}
    return block_complex(C.ring, blocks, terms, False)


def hom_composition_matrix(C, D, E, p, q):
    """The matrix of Hom(D,E)^p (x) Hom(C,D)^q -> Hom(C,E)^(p+q), g outer
    as in `kron`: plain componentwise composition (g f)_r = g_(r+q) f_r,
    no signs (the Koszul signs of the graded Hom live in its differential).

    With the blocks row-major, as in `hom_complex`, entry (a, k) of
    g_(r+q) f_r is the sum over i of g[a, i] f[i, k], so the map is one
    identity block I_c per (a, i), c = rank C^r (Van Loan 2000)."""
    if not C.ring == D.ring == E.ring:
        raise ValueError("ring mismatch")

    (g, rg), (f, rf), (h, rh) = (block_offsets(X.degrees(), lambda r: Y.rank(r + n) * X.rank(r))
                                 for X, Y, n in ((D, E, p), (C, D, q), (C, E, p + q)))
    terms = []
    for r in C.degrees():
        c, d, e = C.rank(r), D.rank(r + q), E.rank(r + p + q)
        terms += [(h[r] + a * c, (g[r + q] + a * d) * rf + f[r] + i * (rf + c), c, 1, 1)
                  for a in range(e) for i in range(d) if c]
    return assemble(C.ring, rh, rg * rf, terms)


def identity_hom_vector(C):
    """The identity of C in Hom(C, C)^0: the row-major I_(rank C^p) for each p."""
    zero, one = _units(C.ring)
    return tuple(one if k % (C.rank(p) + 1) == 0 else zero
                 for p in C.degrees() for k in range(C.rank(p) ** 2))


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
    comps = {}
    for n in source.degrees():
        terms, r, c = [], 0, 0
        for fp, gq in ((f.comp(p), g.comp(n - p)) for p in ps):
            terms.append((r, c, fp, gq, 1))
            r, c = r + fp.nrows * gq.nrows, c + fp.ncols * gq.ncols
        comps[n] = assemble(source.ring, r, c, terms)
    return ChainMap(source, target, comps)


def _cone_complex(f):
    """Cone(f)^n = D^n + C^(n+1), d = [[d_D, f],[0, -d_C]], cut wherever D
    or C[1] is: the larger low end and the smaller high end."""
    C, D = f.source, f.target
    lo, hi = min(D.lo, C.lo - 1), max(D.hi, C.hi - 1)
    ranks = [D.rank(n) + C.rank(n + 1) for n in range(lo, hi + 1)]
    diffs = []
    for n in range(lo, hi):
        rd, rd1 = D.rank(n), D.rank(n + 1)
        terms = [(0, 0, D.d(n), 1, 1), (0, rd, f.comp(n + 1), 1, 1), (rd1, rd, C.d(n + 1), 1, -1)]
        diffs.append(assemble(C.ring, ranks[n + 1 - lo], ranks[n - lo], terms))
    return ChainComplex(C.ring, lo, ranks, diffs, meet_cuts((D.cut, C.cut), (0, -1)))


def cone_of_map(f):
    """`_cone_complex(f)`, the inclusion D -> cone and the projection cone -> C[1]."""
    C, D, cone = f.source, f.target, _cone_complex(f)
    degs = cone.degrees()
    incl = {n: assemble(C.ring, cone.rank(n), D.rank(n), [(0, 0, D.rank(n), 1, 1)]) for n in degs}
    proj = {n: assemble(C.ring, C.rank(n + 1), cone.rank(n), [(0, D.rank(n), C.rank(n + 1), 1, 1)])
            for n in degs}
    return cone, ChainMap(D, cone, incl), ChainMap(cone, shift_complex(C, 1), proj)


def complex_homology(C, n):
    """H^n = ker d^n / im d^(n-1) as a HomologyGroup (exact, with torsion).

    ker d^n is a direct summand of C^n, so the torsion is the invariant
    factors of d^(n-1) above 1 and the free rank is rank C^n - rank d^n -
    rank d^(n-1) (Dumas, Heckenbach, Saunders and Welker 2003): no kernel
    basis, no solve, no U or V.  That elimination takes the +-1 pivots
    first by row operations alone, each worth one factor 1, and runs the
    pivot loop only on the residual (`_smith_reduce`).  The invariant
    factors are kept on each differential, so a sweep over the degrees
    eliminates each once.
    Raises AssertionError when d^n d^(n-1) != 0.
    """
    dn, dprev = C.d(n), C.d(n - 1)
    if not (dn * dprev).is_zero():
        raise AssertionError("image not contained in kernel: complex is broken")
    inv = _invariant_factors(dprev)
    return HomologyGroup(C.rank(n) - rank(dn) - len(inv), tuple(d for d in inv if d > 1))


@dataclass(frozen=True)
class QuasiIsoReport:
    ok: bool
    window: tuple
    failing: tuple  # (degree, description) pairs

    def __bool__(self):
        return self.ok


def is_quasi_iso(f, window=None):
    """True when the mapping cone of f (`_cone_complex`) is acyclic on the window.

    The default window is the cone's degrees that its cut leaves exact
    (`ChainComplex.exact`); when there is none, the report is not ok.  An
    explicit window (lo, hi) must have lo <= hi.
    """
    if window is not None and window[0] > window[1]:
        raise ValueError("empty window %r: no degree would be checked" % (window,))
    cone = _cone_complex(f)
    exact = [n for n in cone.degrees() if cone.exact(n)]
    lo, hi = window or (min(exact, default=cone.lo), max(exact, default=cone.lo - 1))
    failing = []
    for n in range(lo, hi + 1):
        h = complex_homology(cone, n)
        if not h.is_zero():
            failing.append((n, h.describe()))
    return QuasiIsoReport(lo <= hi and not failing, (lo, hi), tuple(failing))
