"""Exact linear algebra kernel: oracle-backed frozen values + invariants."""

import contextlib
import itertools
import math
import random
import signal
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from dgforge import linalg
from dgforge.linalg import (
    ChainComplex,
    ChainMap,
    HomologyGroup,
    Matrix,
    RING_Q,
    RING_Z,
    _apply,
    _columns_to_matrix,
    _invariant_factors,
    assemble,
    assemble_strided,
    block_matrix,
    blocks_as_columns,
    canonical,
    complex_homology,
    compose_chain_maps,
    cone_of_map,
    differing_entries,
    direct_sum,
    flat_total,
    hom_complex,
    hom_composition_matrix,
    identity_chain_map,
    identity_hom_vector,
    is_quasi_iso,
    kernel,
    leibniz_mismatches,
    make_chain_map,
    make_complex,
    mul_kron,
    q_kernel,
    q_rank,
    q_rref,
    q_solve,
    rank,
    shift_complex,
    single_complex,
    smith_normal_form,
    subcomplex,
    tensor_basis,
    tensor_chain_map,
    tensor_complex,
    totalize,
    two_term_complex,
    z_kernel,
    z_solve,
    zero_complex,
)
from dgforge.dgcat import HomElement, _row_major_product, complexes_category
from dgforge.sheaf import constant_presheaf, godement_tower, pseudo_circle_site
from hom_oracle import (
    hom_basis,
    hom_compose_vec,
    hom_element_matrices,
    hom_element_vector,
    per_basis_pair_composition,
)
from util_gen import (
    canonical_entry,
    conjugate_complex,
    exact_entry,
    random_complex,
    random_hom_vector,
    random_z_matrix,
)


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


def reduction_search_2x2(mat, depth=5, coeff_bound=3):
    """Exhaustive elementary row/column reduction search on a 2x2 matrix.

    Returns the set of diagonal forms diag(d1, d2) with 0 <= d1, d1 | d2
    reachable via elementary operations within the depth bound.  The Smith
    form is the unique such normal form, so the result set must be a
    singleton for the search to count as an oracle hit.
    """

    def ops(state):
        (a, b), (c, d) = state
        yield ((c, d), (a, b))
        yield ((b, a), (d, c))
        yield ((-a, -b), (c, d))
        yield ((a, -b), (c, -d))
        for k in range(-coeff_bound, coeff_bound + 1):
            if k:
                yield ((a + k * c, b + k * d), (c, d))
                yield ((a, b), (c + k * a, d + k * b))
                yield ((a + k * b, b), (c + k * d, d))
                yield ((a, b + k * a), (c, d + k * c))

    start = ((mat[0, 0], mat[0, 1]), (mat[1, 0], mat[1, 1]))
    frontier = {start}
    seen = {start}
    found = set()
    for _ in range(depth):
        nxt = set()
        for s in frontier:
            for s2 in ops(s):
                if s2 not in seen:
                    seen.add(s2)
                    nxt.add(s2)
        frontier = nxt
        for (a, b), (c, d) in seen:
            if b == 0 and c == 0 and a >= 0 and d >= 0:
                if (a == 0 and d == 0) or (a != 0 and d % a == 0):
                    found.add((a, d))
    return found


def hom_differential_componentwise(C, D, n, vec):
    """(df)_p = d_D f_p - (-1)^n f_(p+1) d_C, component by component, as a
    Hom(C, D)^(n+1) vector: the route of `hom_complex` without Kronecker
    blocks."""
    f = hom_element_matrices(C, D, n, vec)
    sgn = -1 if n % 2 else 1
    out = {}
    for p in C.degrees():
        rc, rd = C.rank(p), D.rank(p + n + 1)
        if rc and rd:
            acc = Matrix.zero(C.ring, rd, rc)
            if p in f:
                acc = acc + D.d(p + n) * f[p]
            if p + 1 in f:
                acc = acc - (f[p + 1] * C.d(p)).scale(sgn)
            out[p] = acc
    return hom_element_vector(C, D, n + 1, out)


def tensor_chain_map_elementwise(f, g, source):
    """Components of f (x) g entry by entry, placed by `tensor_basis`
    positions: the route of `tensor_chain_map` without Kronecker blocks."""
    comps = {}
    for n in source.degrees():
        src = tensor_basis(f.source, g.source, n)
        dst = tensor_basis(f.target, g.target, n)
        pos = {key: idx for idx, key in enumerate(dst)}
        rows = [[0] * len(src) for _ in dst]
        for col, (p, i, j) in enumerate(src):
            fp, gq = f.comp(p), g.comp(n - p)
            for i2 in range(fp.nrows):
                for j2 in range(gq.nrows):
                    rows[pos[(p, i2, j2)]][col] += fp.rows[i2][i] * gq.rows[j2][j]
        comps[n] = Matrix(source.ring, rows, nrows=len(dst), ncols=len(src))
    return comps


def det_z(A):
    """Integer determinant by Bareiss fraction-free elimination."""
    if A.nrows != A.ncols:
        raise ValueError("det of non-square matrix")
    n = A.nrows
    if n == 0:
        return 1
    a = [list(row) for row in A.rows]
    sign = prev = 1
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


def dense_q_rref(A):
    """Reduced row echelon form over Q by Gauss-Jordan elimination on dense
    rows of Fractions, column by column, pivoting on the first nonzero
    entry: the route of `q_rref` without sparse rows."""
    a = [[Fraction(v) for v in row] for row in A.rows]
    m, n = A.nrows, A.ncols
    pivots, r = [], 0
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
    return Matrix(RING_Q, a, nrows=m, ncols=n), pivots


def cokernel_enumeration(k):
    """Order and structure of Z / kZ by explicit residue enumeration."""
    if k == 0:
        return None  # infinite
    k = abs(k)
    residues = set(range(k))
    # closure under addition of the generator, sanity only
    assert all((r + 1) % k in residues for r in residues)
    return len(residues)


# ---------------------------------------------------------------------------
# Entries
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "ring, value",
    [(RING_Z, 2.5), (RING_Z, 2.0), (RING_Z, "7"), (RING_Z, Fraction(1, 2)),
     (RING_Q, 0.1), (RING_Q, "1/3")],
)
def test_inexact_entries_are_refused(ring, value):
    with pytest.raises(ValueError):
        Matrix(ring, [[value]])


def test_scaling_by_an_inexact_factor_is_refused():
    with pytest.raises(ValueError):
        Matrix(RING_Z, [[3]]).scale(0.5)


def test_exact_entries_keep_their_value():
    z = Matrix(RING_Z, [[Fraction(4, 2), True, 5]])
    assert z.rows == ((2, 1, 5),) and all(type(v) is int for v in z.rows[0])
    q = Matrix(RING_Q, [[3, Fraction(1, 3)]])
    assert q.rows == ((Fraction(3), Fraction(1, 3)),)
    assert [type(v) for v in q.rows[0]] == [int, Fraction]


def test_columns_become_a_matrix_of_the_ring_type():
    q = _columns_to_matrix(RING_Q, 2, [(1, Fraction(1, 2)), (0, -3)])
    assert q == Matrix(RING_Q, [[1, 0], [Fraction(1, 2), -3]])
    assert [[type(v) for v in row] for row in q.rows] == [[int, int], [Fraction, int]]
    z = _columns_to_matrix(RING_Z, 2, [(1, Fraction(4, 2)), (True, -3)])
    assert z.rows == ((1, 1), (2, -3)) and all(type(v) is int for row in z.rows for v in row)
    assert _columns_to_matrix(RING_Q, 3, []) == Matrix.zero(RING_Q, 3, 0)
    for ring, col in ((RING_Q, (1, 0.5)), (RING_Z, (1, Fraction(1, 2))), (RING_Q, (1.0, 0))):
        with pytest.raises(ValueError):
            _columns_to_matrix(ring, 2, [col])
    for cols in ([(1, 2), (3,)], [(1, 2, 3)]):
        with pytest.raises(ValueError, match="column length mismatch"):
            _columns_to_matrix(RING_Z, 2, cols)


def test_row_indices_are_checked_like_column_indices():
    m = Matrix(RING_Z, [[1, 2], [3, 4]])
    for i, j in ((-1, 0), (2, 0), (0, -1), (0, 2)):
        with pytest.raises(IndexError, match="of a matrix with 2"):
            m[i, j]
    for rows in ([-1], [0, 2], range(-1, 1), range(3), range(2, -1, -1)):
        with pytest.raises(IndexError, match="row -?[0-9]+ of a matrix with 2 rows"):
            m.submatrix(rows, range(2))
    assert m.submatrix(range(1, -1, -1), range(2)) == Matrix(RING_Z, [[3, 4], [1, 2]])
    assert m.submatrix(range(2, 2), [1, 0]) == Matrix.zero(RING_Z, 0, 2)
    assert m.submatrix([1, 1], range(1, 2)) == Matrix(RING_Z, [[4], [4]])


def test_declared_shape_must_match_the_rows():
    with pytest.raises(ValueError, match="ncols"):
        Matrix(RING_Z, [[1, 2]], nrows=1, ncols=3)
    with pytest.raises(ValueError, match="nrows"):
        Matrix(RING_Z, [[1, 2]], nrows=2, ncols=2)
    assert Matrix(RING_Z, [[1, 2]], nrows=1, ncols=2).ncols == 2
    assert Matrix(RING_Z, [], nrows=0, ncols=3).ncols == 3


def _sample_matrix(rng, ring, nrows, ncols):
    if ring == RING_Z:
        values = (0, 0, 1, -1, 2, -3)
    else:
        values = (0, 0, 1, -1, Fraction(1, 2), Fraction(-2, 3))
    rows = [[rng.choice(values) for _ in range(ncols)] for _ in range(nrows)]
    return Matrix(ring, rows, nrows=nrows, ncols=ncols)


def _kron_factor(rng, ring):
    """A `mul_kron` factor and its dense matrix: an int n stands for I_n."""
    n = rng.randint(0, 3)
    if rng.random() < 0.3:
        return n, Matrix.identity(ring, n)
    m = _sample_matrix(rng, ring, n, rng.randint(0, 3))
    return m, m


@given(st.data())
def test_mul_kron_matches_the_kronecker_product(data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    for ring in (RING_Z, RING_Q):
        for _ in range(5):
            A, dense_a = _kron_factor(rng, ring)
            B, dense_b = _kron_factor(rng, ring)
            M = _sample_matrix(rng, ring, rng.randint(0, 3), dense_a.nrows * dense_b.nrows)
            out = mul_kron(M, A, B)
            expected = M * dense_a.kron(dense_b)
            assert (out.nrows, out.ncols) == (expected.nrows, expected.ncols)
            assert out == expected


def test_mul_kron_refuses_mismatched_factors():
    M = Matrix.identity(RING_Z, 4)
    with pytest.raises(ValueError, match="shape"):
        mul_kron(M, 2, 3)
    with pytest.raises(ValueError, match="ring"):
        mul_kron(M, Matrix.identity(RING_Q, 2), 2)


@given(st.data())
def test_assemble_adds_the_scaled_kronecker_products(data):
    # oracle: each term's dense `kron`, scaled and added entry by entry
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    for ring in (RING_Z, RING_Q):
        scalars = [-2, -1, 1, 3] + ([Fraction(1, 2), Fraction(-2, 3)] if ring == RING_Q else [])
        for _ in range(5):
            nrows, ncols = rng.randint(0, 7), rng.randint(0, 7)
            expected = [[0] * ncols for _ in range(nrows)]
            terms = []
            for _ in range(rng.randint(0, 5)):
                if rng.random() < 0.25:  # a single entry
                    (A, dense_a), (B, dense_b) = [(1, Matrix.identity(ring, 1))] * 2
                else:
                    A, dense_a = _kron_factor(rng, ring)
                    B, dense_b = _kron_factor(rng, ring)
                K = dense_a.kron(dense_b)
                if K.nrows > nrows or K.ncols > ncols:
                    continue
                # small frames make the terms overlap
                roff, coff = rng.randint(0, nrows - K.nrows), rng.randint(0, ncols - K.ncols)
                scalar = rng.choice(scalars)
                terms.append((roff, coff, A, B, scalar))
                for i in range(K.nrows):
                    for j in range(K.ncols):
                        expected[roff + i][coff + j] += scalar * K[i, j]
            out = assemble(ring, nrows, ncols, terms)
            assert out == Matrix(ring, expected, nrows=nrows, ncols=ncols)
            assert all(exact_entry(ring, v) for row in out.rows for v in row)


def test_assemble_refuses_a_term_outside_the_frame():
    X = Matrix(RING_Z, [[1, 2], [3, 4]])
    assert assemble(RING_Z, 3, 3, [(1, 1, X, 1, 1), (0, 0, 1, 1, 5)])[2, 2] == 4
    for term in (
        (-1, 0, X, 1, 1),  # a negative offset once wrapped around the rows
        (0, -1, 1, 1, 5),
        (2, 0, X, 1, 1),
        (0, 1, 2, X, 1),
        (3, 0, 1, 1, 1),
        (0, 2, X, 1, 0),
    ):
        with pytest.raises(ValueError, match="leaves the 3x3 frame"):
            assemble(RING_Z, 3, 3, [term])
    with pytest.raises(ValueError, match="ring"):
        assemble(RING_Q, 3, 3, [(0, 0, X, 1, 1)])


@given(st.data())
def test_assemble_strided_puts_each_block_on_its_kronecker_columns(data):
    # oracle: U (x) V for graded totals U and V (ranks u[p], v[q]); column
    # (a, b) of the block on U^p (x) V^q is written by hand at the column
    # of (start(U^p) + a, start(V^q) + b) in the order of `kron`
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    for ring in (RING_Z, RING_Q):
        u = [rng.randint(0, 2) for _ in range(rng.randint(1, 3))]
        v = [rng.randint(0, 2) for _ in range(rng.randint(1, 3))]
        ustart = [sum(u[:p]) for p in range(len(u))]
        vstart = [sum(v[:q]) for q in range(len(v))]
        nrows, nv = rng.randint(0, 4), sum(v)
        expected = [[0] * (sum(u) * nv) for _ in range(nrows)]
        terms = []
        for p in range(len(u)):
            for q in range(len(v)):
                if not u[p] * v[q] or rng.random() < 0.3:
                    continue
                h = rng.randint(0, nrows)
                roff, M = rng.randint(0, nrows - h), _sample_matrix(rng, ring, h, u[p] * v[q])
                terms.append((roff, ustart[p] * nv + vstart[q], M, v[q], nv))
                for i in range(h):
                    for j in range(M.ncols):
                        a, b = divmod(j, v[q])
                        expected[roff + i][(ustart[p] + a) * nv + vstart[q] + b] = M[i, j]
        out = assemble_strided(ring, nrows, sum(u) * nv, terms)
        assert out == Matrix(ring, expected, nrows=nrows, ncols=sum(u) * nv)
        # the entries are moved, not recomputed
        moved = {id(e) for _, _, M, _, _ in terms for row in M.nonzero_rows() for _, e in row}
        assert all(id(e) in moved for row in out.nonzero_rows() for _, e in row)


def test_assemble_strided_refuses_a_block_outside_the_frame():
    X = Matrix(RING_Z, [[1, 2], [3, 4]])
    got = assemble_strided(RING_Z, 2, 6, [(0, 1, X, 1, 3)])
    assert got == Matrix(RING_Z, [[0, 1, 0, 0, 2, 0], [0, 3, 0, 0, 4, 0]])
    for term in ((1, 0, X, 1, 3), (-1, 0, X, 1, 3), (0, -1, X, 1, 3), (0, 3, X, 1, 3),
                 (0, 0, X, 2, 1), (0, 0, X, 0, 1)):
        with pytest.raises(ValueError, match="leaves the 2x6 frame"):
            assemble_strided(RING_Z, 2, 6, [term])
    with pytest.raises(ValueError, match="ring"):
        assemble_strided(RING_Q, 2, 6, [(0, 0, X, 1, 3)])


@given(st.data())
def test_differing_entries_are_the_dense_differences_in_row_major_order(data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    for ring in (RING_Z, RING_Q):
        m, n = rng.randint(0, 4), rng.randint(0, 4)
        a = _sample_matrix(rng, ring, m, n)
        b = a if rng.random() < 0.3 else _sample_matrix(rng, ring, m, n)
        expected = [(i, j, a[i, j], b[i, j]) for i in range(m) for j in range(n)
                    if a[i, j] != b[i, j]]
        assert list(differing_entries(a, b)) == expected
    with pytest.raises(ValueError, match="mismatch"):
        list(differing_entries(Matrix.zero(RING_Z, 1, 2), Matrix.zero(RING_Z, 2, 1)))


# -- the sparse storage against the dense kernels it replaced ----------------

def dense_mul(ring, a, b, ncols):
    """The dense `Matrix.__mul__`: rows of a times the rows of b."""
    out = []
    for row in a:
        acc = [0] * ncols
        for k, x in enumerate(row):
            if x:
                for j, y in enumerate(b[k]):
                    if y:
                        acc[j] += x * y
        out.append(tuple(acc))
    return tuple(out)


def _dense_nonzero(rows):
    return [[(j, v) for j, v in enumerate(row) if v] for row in rows]


def _dims(X):
    """(nrows, ncols) of a Kronecker factor; an int n is I_n."""
    return (X, X) if type(X) is int else (X.nrows, X.ncols)


def dense_mul_kron(M, A, B):
    """The dense `mul_kron`: each row of M as R with R[i][t] at i * B.nrows + t,
    then R -> A^T R -> (A^T R) B, on dense rows."""
    ring, zero = M.ring, 0
    (ar, ac), (br, bc) = _dims(A), _dims(B)
    rows = M.rows
    if type(A) is not int:
        arows, out = _dense_nonzero(A.rows), []
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
        brows, out = _dense_nonzero(B.rows), []
        for row in rows:
            acc = [zero] * (ac * bc)
            for k, v in enumerate(row):
                if v:
                    j, t = divmod(k, br)
                    for l, b in brows[t]:
                        acc[j * bc + l] += v * b
            out.append(tuple(acc))
        rows = tuple(out)
    return tuple(rows)


def dense_assemble(ring, nrows, ncols, terms):
    """The dense `assemble`: every term's Kronecker block, formed in full
    (an int n as I_n), scaled and added into rows filled with the ring's zero."""
    out = [[0] * ncols for _ in range(nrows)]
    for roff, coff, A, B, scalar in terms:
        A, B = [Matrix.identity(ring, X) if type(X) is int else X for X in (A, B)]
        block = A.kron(B).rows
        for i, brow in enumerate(block):
            for j, v in enumerate(brow):
                out[roff + i][coff + j] += scalar * v
    return tuple(map(tuple, out))


def assert_stored(m, rows, ncols, entry=exact_entry):
    """m has these dense rows, each entry allowed by the rule `entry` (that
    of the kernels unless a producer made m), and stores no zero."""
    assert (m.nrows, m.ncols) == (len(rows), ncols)
    assert m.rows == tuple(map(tuple, rows))
    assert all(entry(m.ring, v) for row in m.rows for v in row)
    assert all(v != 0 for row in m.nonzero_rows() for _, v in row)


def dense_blocks_as_columns(rows, n):
    """Column j is block j (columns j * n up to (j + 1) * n) of the dense
    rows, read row-major."""
    k = len(rows[0]) // n if rows else 0
    return [[row[j * n + s] for j in range(k)] for row in rows for s in range(n)]


def _sparse_sample(rng, ring, nrows, ncols):
    """A matrix with zero rows, zero columns and, over Q, non-integer
    Fractions."""
    values = (0, 0, 0, 1, -2, 3) + ((Fraction(1, 2), Fraction(-5, 3)) if ring == RING_Q else ())
    dead = {j for j in range(ncols) if rng.random() < 0.3}
    rows = [[0 if j in dead or i % 3 == 2 else rng.choice(values) for j in range(ncols)]
            for i in range(nrows)]
    return Matrix(ring, rows, nrows=nrows, ncols=ncols)


def test_blocks_become_columns_as_the_dense_oracle_reads_them():
    # every shape 0..4 x 0..4 and every block width that divides it:
    # zero blocks, empty stacks (no blocks) and matrices with no rows
    rng = random.Random(5)
    for ring in (RING_Z, RING_Q):
        for m, ncols in itertools.product(range(5), repeat=2):
            for n in (n for n in range(1, 5) if ncols % n == 0):
                for _ in range(3):
                    M = _sparse_sample(rng, ring, m, ncols)
                    got = blocks_as_columns(M, n)
                    assert_stored(got, dense_blocks_as_columns(M.rows, n), ncols // n,
                                  canonical_entry)
                    # on the transpose it is the inverse: each column read
                    # row-major as an n-column block, side by side
                    assert blocks_as_columns(got.transpose(), n).transpose() == M
    for bad in (0, 3):
        with pytest.raises(ValueError, match="not blocks of"):
            blocks_as_columns(Matrix.zero(RING_Z, 2, 4), bad)


def _diagonal(ring, factors):
    k = len(factors)
    return Matrix(ring, [[f if i == j else 0 for j in range(k)] for i, f in enumerate(factors)],
                  k, k)


def test_canonical_makes_the_integral_fractions_of_a_product_ints():
    # columns cleared of their denominators hold Fractions of denominator 1
    # until sealed; scaled back they give the sample again
    rng = random.Random(6)
    unsealed = 0
    for m, k in itertools.product(range(5), repeat=2):
        M = _sparse_sample(rng, RING_Q, m, k)
        dens = [math.lcm(*(M[i, j].denominator for i in range(m))) for j in range(k)]
        product = M * _diagonal(RING_Q, dens)
        unsealed += sum(type(v) is Fraction for row in product.rows for v in row)
        ints = canonical(product)
        assert_stored(ints, [[M[i, j] * dens[j] for j in range(k)] for i in range(m)], k,
                      canonical_entry)
        back = canonical(ints * _diagonal(RING_Q, [Fraction(1, d) for d in dens]))
        assert back == M
        assert_stored(back, M.rows, k, canonical_entry)
        Z = _sparse_sample(rng, RING_Z, m, k)
        assert canonical(Z) == Z
        assert_stored(canonical(Z), Z.rows, k, canonical_entry)
    assert unsealed
    four_halves = Matrix(RING_Q, [[Fraction(1, 2)]]) * Matrix(RING_Q, [[4]])
    assert type(four_halves[0, 0]) is Fraction
    assert canonical(four_halves).rows == ((2,),) and type(canonical(four_halves)[0, 0]) is int


@given(st.data())
def test_sparse_kernels_match_the_dense_oracle(data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    for ring in (RING_Z, RING_Q):
        m, n, k = (rng.randint(0, 4) for _ in range(3))
        a, b = _sample_matrix(rng, ring, m, n), _sample_matrix(rng, ring, m, n)
        c = _sample_matrix(rng, ring, n, k)
        ra, rb = a.rows, b.rows
        assert_stored(a * c, dense_mul(ring, ra, c.rows, k), k)
        assert_stored(a + b, [[x + y for x, y in zip(r1, r2)] for r1, r2 in zip(ra, rb)], n)
        assert_stored(a - b, [[x - y for x, y in zip(r1, r2)] for r1, r2 in zip(ra, rb)], n)
        assert_stored(-a, [[-x for x in row] for row in ra], n)
        s = rng.choice([0, -1, 2] + ([Fraction(-1, 2)] if ring == RING_Q else []))
        assert_stored(a.scale(s), [[s * x for x in row] for row in ra], n)
        assert_stored(a.kron(c), [[x * y for x in r1 for y in r2] for r1 in ra for r2 in c.rows],
                      n * k)
        assert_stored(a.hstack(b), [r1 + r2 for r1, r2 in zip(ra, rb)], 2 * n)
        rows = [rng.randrange(m) for _ in range(rng.randint(0, 3))] if m else []
        for cols in ([rng.randrange(n) for _ in range(rng.randint(0, 4))] if n else [],
                     range(rng.randint(0, n), n)):
            assert_stored(a.submatrix(rows, cols), [[ra[i][j] for j in cols] for i in rows],
                          len(cols))
        assert_stored(a.transpose(), list(zip(*ra)) if m else [()] * n, m)
        assert a.is_zero() == all(v == 0 for row in ra for v in row)
        assert [list(row) for row in a.nonzero_rows()] == _dense_nonzero(ra)
        vec = [rng.choice((0, 1, -2)) for _ in range(n)]
        got = _apply(a, vec)
        assert got == tuple(sum(x * y for x, y in zip(row, vec)) for row in ra)
        assert all(exact_entry(ring, v) for v in got)
        cols = [[rng.choice((0, 0, 1, -3)) for _ in range(m)] for _ in range(n)]
        by_rows = [[col[r] for col in cols] for r in range(m)] if cols else [()] * m
        assert_stored(_columns_to_matrix(ring, m, cols), by_rows, n, canonical_entry)
        (A, _), (B, _) = _kron_factor(rng, ring), _kron_factor(rng, ring)
        (ar, ac), (br, bc) = _dims(A), _dims(B)
        M = _sample_matrix(rng, ring, m, ar * br)
        assert_stored(mul_kron(M, A, B), dense_mul_kron(M, A, B), ac * bc)
        terms = []
        for _ in range(rng.randint(0, 4)):
            (A, _), (B, _) = _kron_factor(rng, ring), _kron_factor(rng, ring)
            h, w = _dims(A)[0] * _dims(B)[0], _dims(A)[1] * _dims(B)[1]
            if h <= 5 and w <= 5:
                terms.append((rng.randint(0, 5 - h), rng.randint(0, 5 - w), A, B,
                              rng.choice((1, -1, 2))))
        assert_stored(assemble(ring, 5, 5, terms), dense_assemble(ring, 5, 5, terms), 5)


@pytest.mark.parametrize("ring", [RING_Z, RING_Q])
def test_cancelled_entries_are_not_stored(ring):
    A = Matrix(ring, [[1, 0, -2], [0, 0, 3]])
    zero = Matrix.zero(ring, 2, 3)
    for m in (A + (-A), A - A, A.scale(0)):
        assert m == zero and hash(m) == hash(zero)
        assert not any(m.nonzero_rows()) and m.is_zero()
    # the terms cancel entry by entry: 2 I_2 - I_2 - I_2, and X - X in a corner
    X = Matrix(ring, [[1, 2], [0, -1]])
    terms = [(0, 0, 2, 1, 2), (0, 0, 2, 1, -1), (0, 0, 1, 2, -1), (1, 1, X, 1, 1), (1, 1, 1, X, -1)]
    out = assemble(ring, 3, 3, terms)
    assert out == Matrix.zero(ring, 3, 3) and not any(out.nonzero_rows())
    # every product cancels: [1 0 1 0] (A (x) I_2) with A = [1, -1]^T, and
    # [1 1] (I_1 (x) B) with the rows of B opposite
    M = Matrix(ring, [[1, 0, 1, 0]])
    out = mul_kron(M, Matrix(ring, [[1], [-1]]), 2)
    assert out == Matrix.zero(ring, 1, 2) and not any(out.nonzero_rows())
    out = mul_kron(Matrix(ring, [[1, 1]]), 1, Matrix(ring, [[1, 2], [-1, -2]]))
    assert out == Matrix.zero(ring, 1, 2) and not any(out.nonzero_rows())
    assert Matrix(ring, [[1, 1]]) * Matrix(ring, [[3], [-3]]) == Matrix.zero(ring, 1, 1)


def test_the_dense_view_is_read_only_and_typed():
    q = Matrix(RING_Q, [[0, Fraction(1, 2)], [0, 0]])
    assert q.rows == ((0, Fraction(1, 2)), (0, 0)) and q.rows is q.rows
    assert [[type(v) for v in row] for row in q.rows] == [[int, Fraction], [int, int]]
    with pytest.raises(AttributeError):
        q.rows = ((1, 1), (1, 1))
    assert Matrix.zero(RING_Z, 2, 0).rows == ((), ())
    with pytest.raises(IndexError):
        q[0, 2]
    with pytest.raises(IndexError):
        q.submatrix([0], [2])


@pytest.mark.parametrize("ring, kind", [(RING_Z, int), (RING_Q, Fraction)])
def test_transpose_swaps_the_indices(ring, kind):
    rng = random.Random(3)
    for nrows, ncols in ((0, 0), (0, 3), (3, 0), (2, 3), (3, 1)):
        A = _sample_matrix(rng, ring, nrows, ncols)
        T = A.transpose()
        assert (T.nrows, T.ncols) == (ncols, nrows)
        assert all(T[j, i] == A[i, j] for i in range(nrows) for j in range(ncols))
        assert T.transpose() == A
        assert type(T.rows) is tuple and all(type(row) is tuple for row in T.rows)
        # the entries move as they are: ints, and over Q Fractions of the sample
        assert all(type(T[j, i]) is type(A[i, j]) for i in range(nrows) for j in range(ncols))
        assert all(type(v) in (int, kind) for row in T.rows for v in row)


@pytest.mark.parametrize("ring, kind", [(RING_Z, int), (RING_Q, Fraction)])
def test_matrix_operations_keep_the_ring_entry_type(ring, kind):
    # the operations store their entries without coercing them again: ints,
    # and over Q Fractions where the sample holds them, so int-valued Q
    # matrices give ints (int * int stays int); q_rref, q_kernel and q_solve
    # seal theirs by the rule of the producers
    def results(a, b, c):
        kernels = {
            "+": a + b,
            "-": a - b,
            "neg": -a,
            "scale": a.scale(2),
            "*": a * c,
            "* empty": a * Matrix.zero(ring, 3, 0),
            "kron": a.kron(c),
            "hstack": a.hstack(b),
            "submatrix": a.submatrix([1, 0], [2, 0]),
            "zero": Matrix.zero(ring, 2, 3),
            "identity": Matrix.identity(ring, 3),
            "mul_kron": mul_kron(a, c, 1),
            "mul_kron id": mul_kron(a, 1, c),
            "mul_kron ids": mul_kron(a, 3, 1),
            "block_matrix": block_matrix(ring, [[a, None], [None, c]]),
            "assemble": assemble(
                ring, 4, 5, [(0, 0, a, 1, 1), (1, 2, 1, 1, 3), (2, 0, 2, 1, -1), (0, 3, c, 1, 2)]
            ),
        }
        if ring == RING_Z:
            snf = smith_normal_form(a)
            sealed = dict(U=snf.U, D=snf.D, V=snf.V, z_solve=z_solve(a, a * c))
        else:
            sealed = dict(q_rref=q_rref(a)[0], q_kernel=q_kernel(a), q_solve=q_solve(a, a * c))
        return kernels, sealed

    rng = random.Random(5)
    samples = [(ring, kind)] + ([(RING_Z, int)] if ring == RING_Q else [])
    for sample_ring, sample_kind in samples:
        a, b = _sample_matrix(rng, sample_ring, 2, 3), _sample_matrix(rng, sample_ring, 2, 3)
        c = _sample_matrix(rng, sample_ring, 3, 2)
        kernels, sealed = results(*(m.to_q() if ring == RING_Q else m for m in (a, b, c)))
        for name, m in {**kernels, **sealed}.items():
            assert type(m.rows) is tuple and len(m.rows) == m.nrows, name
            for row in m.rows:
                assert type(row) is tuple and len(row) == m.ncols, name
                if name in sealed:
                    assert all(canonical_entry(ring, v) for v in row), name
                else:
                    assert all(type(v) in (int, sample_kind) for v in row), name


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------


def test_snf_frozen_example():
    A = Matrix(RING_Z, [[2, 4], [6, 8]])
    forms = reduction_search_2x2(A)
    assert forms == {(2, 4)}  # oracle: unique reachable normal form
    snf = smith_normal_form(A)
    assert snf.D == Matrix(RING_Z, [[2, 0], [0, 4]])
    assert snf.U * A * snf.V == snf.D
    assert det_z(snf.U) in (1, -1)
    assert det_z(snf.V) in (1, -1)


def test_snf_trivial_cases():
    z = Matrix.zero(RING_Z, 3, 2)
    snf = smith_normal_form(z)
    assert snf.D == z and snf.diagonal() == []
    eye = Matrix.identity(RING_Z, 4)
    snf = smith_normal_form(eye)
    assert snf.D == eye and snf.diagonal() == [1, 1, 1, 1]


def test_snf_pivot_determinism():
    # Two runs produce identical transforms, not merely identical D; the
    # second runs on an equal matrix, since A keeps its first result.
    A = Matrix(RING_Z, [[0, 5, 3], [2, -1, 4], [6, 0, -2]])
    s1 = smith_normal_form(A)
    s2 = smith_normal_form(Matrix(RING_Z, A.rows))
    assert s2 is not s1
    assert s1.U == s2.U and s1.V == s2.V and s1.D == s2.D


@given(st.data())
def test_snf_invariants(data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    m = rng.randint(1, 5)
    n = rng.randint(1, 5)
    A = random_z_matrix(rng, m, n)
    snf = smith_normal_form(A)
    assert snf.U * A * snf.V == snf.D
    assert det_z(snf.U) in (1, -1)
    assert det_z(snf.V) in (1, -1)
    diag = snf.diagonal()
    assert all(d > 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        assert b % a == 0
    for i in range(snf.D.nrows):
        for j in range(snf.D.ncols):
            if i != j:
                assert snf.D[i, j] == 0
    # dual-route rank check: SNF rank vs rational elimination rank
    assert len(diag) == q_rank(A.to_q())


def test_snf_matches_sympy_invariant_factors():
    # third route: an independent implementation of the invariant factors
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors

    for seed in range(200):
        rng = random.Random(seed)
        A = random_z_matrix(rng, rng.randint(1, 6), rng.randint(1, 6), bound=4)
        factors = invariant_factors(sympy.Matrix(A.rows), domain=sympy.ZZ)
        expected = [abs(int(d)) for d in factors if d != 0]
        assert smith_normal_form(A).diagonal() == expected, (seed, A.rows)


# entries of a few bits, and now and then of 70
_SNF_ENTRIES = st.one_of(st.integers(-4, 4), st.integers(-4, 4), st.integers(-(2**70), 2**70))


@st.composite
def _z_matrices(draw):
    m, n = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    rows = draw(st.lists(st.lists(_SNF_ENTRIES, min_size=n, max_size=n), min_size=m, max_size=m))
    return Matrix(RING_Z, rows, nrows=m, ncols=n)


@given(_z_matrices(), st.booleans())
def test_kept_invariant_factors_match_the_decomposition_and_sympy(A, invariants_first):
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    twin = Matrix(RING_Z, A.rows, nrows=A.nrows, ncols=A.ncols)
    before = hash(A)
    if invariants_first:
        inv = _invariant_factors(A)
        snf = smith_normal_form(A)
    else:
        snf = smith_normal_form(A)
        inv = _invariant_factors(A)
    assert snf.U * A * snf.V == snf.D
    assert list(inv) == snf.diagonal()
    assert all(d > 0 for d in inv) and all(b % a == 0 for a, b in zip(inv, inv[1:]))
    S = sympy_snf(sympy.Matrix(A.nrows, A.ncols, [A[i, j] for i in range(A.nrows) for j in range(A.ncols)]), domain=sympy.ZZ)
    assert list(inv) == [abs(int(S[i, i])) for i in range(min(A.nrows, A.ncols)) if S[i, i]]
    # kept: a second call returns the same results
    assert smith_normal_form(A) is snf and _invariant_factors(A) == inv and rank(A) == len(inv)
    # and invisible to == and hash, whatever either side keeps
    assert A == twin and twin == A and hash(A) == hash(twin) == before
    assert _invariant_factors(twin) == inv
    assert A == twin and hash(A) == hash(twin) == before


def _recording(monkeypatch, name, record):
    """Replace linalg.<name> by a wrapper that appends record(*args) to a
    list, before the call, and returns that list."""
    calls, real = [], getattr(linalg, name)

    def recorded(*args):
        calls.append(record(*args))
        return real(*args)

    monkeypatch.setattr(linalg, name, recorded)
    return calls


def test_a_homology_sweep_eliminates_each_differential_once_without_transforms(monkeypatch):
    K = make_complex(RING_Z, -1, [1, 2, 1], [Matrix(RING_Z, [[2], [0]]), Matrix(RING_Z, [[0, 3]])])
    site = pseudo_circle_site()
    tot = godement_tower(constant_presheaf(site, K), strict=True).total(site.space())
    nonzero = [d for d in tot.diffs if not d.is_zero()]
    assert len(nonzero) >= 3

    def entries(rows, ncols):
        return repr(([sorted(row) for row in rows], ncols))

    # each elimination: its working rows as they come in, and its transforms
    calls = _recording(monkeypatch, "_smith_reduce",
                       lambda a, ncols, u, v: (entries((r.items() for r in a), ncols), u, v))
    monkeypatch.setattr(linalg, "smith_normal_form", None)  # the sweep must not reach it
    first = [complex_homology(tot, n) for n in tot.degrees()]
    assert sorted(c[0] for c in calls) == sorted(entries(d.nonzero_rows(), d.ncols) for d in nonzero)
    assert all(u is None and v is None for _, u, v in calls)
    # a second sweep reads the kept invariant factors
    assert [complex_homology(tot, n) for n in tot.degrees()] == first
    assert len(calls) == len(nonzero)


def test_a_q_homology_sweep_runs_one_rref_per_nonzero_differential(monkeypatch):
    C = random_complex(random.Random(11))
    CQ = make_complex(RING_Q, C.lo, C.ranks, [d.to_q() for d in C.diffs])
    nonzero = [d for d in CQ.diffs if not d.is_zero()]
    assert len(nonzero) >= 2
    calls = _recording(monkeypatch, "q_rref", lambda A: A)
    groups = [complex_homology(CQ, n) for n in CQ.degrees()]
    assert sorted(map(id, calls)) == sorted(map(id, nonzero))
    assert [h.free_rank for h in groups] == [complex_homology(C, n).free_rank for n in C.degrees()]


def test_unit_pivots_agree_with_the_transforms_and_sympy():
    # the transform-free elimination takes its +-1 pivots first; the route
    # with U and V skips that pass, and sympy is a third route
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors

    unit_free = 0
    for seed in range(40):
        rng = random.Random(seed)
        m, n = (30, 30) if seed % 10 == 0 else (rng.randint(1, 30), rng.randint(1, 30))
        # mostly 0 and +-1 with some 2s; every fourth matrix holds no unit
        pool = [0] * 12 + ([1, -1] * 3 if seed % 4 != 3 else [3, -3, 4]) + [2, -2]
        rows = [[rng.choice(pool) for _ in range(n)] for _ in range(m)]
        unit_free += not any(x in (1, -1) for row in rows for x in row)
        expected = [abs(int(d)) for d in invariant_factors(sympy.Matrix(rows), domain=sympy.ZZ) if d]
        assert list(_invariant_factors(Matrix(RING_Z, rows))) == expected, seed
        assert smith_normal_form(Matrix(RING_Z, rows)).diagonal() == expected, seed
    assert unit_free >= 5


def test_unit_pivots_on_a_minus_one_and_a_row_that_cancels():
    # the shortest row with a unit holds -1: row 1 gains 3 * row 0
    a = [{0: -1, 1: 2}, {0: 3, 1: 4}]
    assert linalg._smith_reduce(a, 2, None, None) == (1, 10)
    assert a == [{0: 10}]
    # row 1 is twice row 0 and cancels to nothing; only row 2 is left
    a = [{0: 1, 1: 2}, {0: 2, 1: 4}, {1: 3}]
    assert linalg._smith_reduce(a, 2, None, None) == (1, 3)
    assert a == [{0: 3}]
    for rows, expected in (([[-1, 2], [3, 4]], [1, 10]), ([[1, 2], [2, 4], [0, 3]], [1, 3])):
        assert smith_normal_form(Matrix(RING_Z, rows)).diagonal() == expected


def test_unit_pivots_can_leave_nothing_for_the_pivot_loop(monkeypatch):
    # the incidence matrix of a 5-cycle: every pivot is -1, and the last
    # edge cancels to nothing against the other four
    rows = [[-1 if j == i else 1 if j == (i + 1) % 5 else 0 for j in range(5)] for i in range(5)]
    calls = _recording(monkeypatch, "_find_pivot", lambda a, t: t)
    assert _invariant_factors(Matrix(RING_Z, rows)) == (1, 1, 1, 1)
    assert calls == []
    assert smith_normal_form(Matrix(RING_Z, rows)).diagonal() == [1, 1, 1, 1]
    assert calls


@given(st.data())
def test_z_kernel_saturated(data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    A = random_z_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
    K = z_kernel(A)
    assert (A * K).is_zero()
    assert K.ncols == A.ncols - q_rank(A.to_q())
    if K.ncols:
        assert smith_normal_form(K).diagonal() == [1] * K.ncols


@given(st.data())
def test_z_solve_roundtrip(data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    m, n, k = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 2)
    A = random_z_matrix(rng, m, n)
    X0 = random_z_matrix(rng, n, k, bound=4)
    B = A * X0
    X = z_solve(A, B)
    assert X is not None
    assert A * X == B


def test_z_solve_unsolvable():
    A = Matrix(RING_Z, [[2]])
    assert z_solve(A, Matrix(RING_Z, [[1]])) is None


def _sparse_matrix(rng, ring, nrows, ncols):
    """A random matrix that is mostly zero, with some whole zero rows and
    columns and, over Q, entries with denominators up to 7."""
    dead_rows = set(rng.sample(range(nrows), rng.randint(0, nrows)))
    dead_cols = set(rng.sample(range(ncols), rng.randint(0, ncols)))
    density = rng.choice((0.15, 0.3, 0.6))

    def entry(i, j):
        if i in dead_rows or j in dead_cols or rng.random() > density:
            return 0
        num = rng.choice((-1, 1)) * rng.randint(1, 9)
        return num if ring == RING_Z else Fraction(num, rng.randint(1, 7))

    rows = [[entry(i, j) for j in range(ncols)] for i in range(nrows)]
    return Matrix(ring, rows, nrows=nrows, ncols=ncols)


def test_q_rref_matches_the_dense_elimination():
    rng = random.Random(2265)
    cases = [_sample_matrix(rng, RING_Q, m, n) for m in range(7) for n in range(7) for _ in range(4)]
    cases += [_sparse_matrix(rng, RING_Q, rng.randint(0, 9), rng.randint(0, 9)) for _ in range(300)]
    # a Z matrix gives its echelon form over Q
    cases += [_sample_matrix(rng, RING_Z, m, n) for m in range(7) for n in range(7)]
    cases += [_sparse_matrix(rng, RING_Z, rng.randint(0, 9), rng.randint(0, 9)) for _ in range(100)]
    cases += [Matrix.identity(RING_Q, 3), Matrix.zero(RING_Z, 2, 3),
              Matrix(RING_Q, [[0, 2, 4], [0, 1, 2], [0, 0, 0], [0, 3, 7]])]
    for A in cases:
        R, pivots = q_rref(A)
        assert (R, pivots) == dense_q_rref(A), A.rows
        assert R.ring == RING_Q and all(canonical_entry(RING_Q, v)
                                        for row in R.nonzero_rows() for _, v in row)


@given(st.data())
def test_q_kernel_and_solve(data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    A = random_z_matrix(rng, rng.randint(1, 4), rng.randint(1, 4)).to_q()
    K = q_kernel(A)
    assert (A * K).is_zero()
    assert K.ncols == A.ncols - q_rank(A)
    X0 = random_z_matrix(rng, A.ncols, 1).to_q()
    X = q_solve(A, A * X0)
    assert X is not None and A * X == A * X0


# -- the entry rule over Q: an integral rational is an int -------------------

Q_ENTRIES = st.one_of(st.integers(-3, 3),
                      st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)))


def test_q_rref_of_an_integral_row_holds_ints():
    R, pivots = q_rref(Matrix(RING_Q, [[2, 4]]))
    assert pivots == [0] and R.rows == ((1, 2),)
    assert [type(v) for v in R.rows[0]] == [int, int]


@given(st.data())
def test_q_producers_seal_integral_rationals_as_ints(data):
    # values against dense Fractions and `dense_q_rref`, entry types against
    # the rule, for int- and Fraction-valued inputs (Fraction(4, 2) included)
    m, n, k = (data.draw(st.integers(0, 6)) for _ in range(3))

    def draw_rows(nrows, ncols, entries=Q_ENTRIES):
        return [[data.draw(entries) for _ in range(ncols)] for _ in range(nrows)]

    def sealed(M, rows, ncols):
        assert_stored(M, rows, ncols, canonical_entry)

    rows, ints = draw_rows(m, n), draw_rows(m, n, st.integers(-3, 3))
    dense = [[Fraction(v) for v in row] for row in rows]
    A = Matrix(RING_Q, rows, nrows=m, ncols=n)
    sealed(A, dense, n)
    cols = [[row[j] for row in rows] for j in range(n)]
    sealed(_columns_to_matrix(RING_Q, m, cols), dense, n)
    for col in cols:
        sealed(Matrix.column(RING_Q, col), [[Fraction(v)] for v in col], 1)
    factors = [data.draw(st.sampled_from((1, -2, Fraction(1, 2), Fraction(4, 2), Fraction(-3, 2))))
               for _ in range(n)]
    sealed(canonical(A * _diagonal(RING_Q, factors)),
           [[v * f for v, f in zip(row, factors)] for row in dense], n)
    Z = Matrix(RING_Z, ints, nrows=m, ncols=n)
    sealed(Z.to_q(), ints, n)
    sealed(canonical(Z), ints, n)
    B = Matrix(RING_Q, draw_rows(m, k), nrows=m, ncols=k)
    for X in (A, Z):
        R, pivots = q_rref(X)
        want, want_pivots = dense_q_rref(X)
        assert pivots == want_pivots
        sealed(R, want.rows, n)
        # free column f spans e_f - sum over the pivots p (row r) of R[r, f] e_p
        free = [f for f in range(n) if f not in pivots]
        basis = [[int(i == f) - sum(want[r, f] for r, p in enumerate(pivots) if p == i)
                  for i in range(n)] for f in free]
        sealed(q_kernel(X), [list(row) for row in zip(*basis)] or [[]] * n, len(free))
        # pivot variable p takes the right-hand side of its row, the free ones 0
        aug, aug_pivots = dense_q_rref(Matrix(RING_Q, [list(a) + list(b) for a, b in zip(
            X.rows, B.rows)], nrows=m, ncols=n + k))
        x = q_solve(X, B)
        if any(p >= n for p in aug_pivots):
            assert x is None
            continue
        solution = [[0] * k for _ in range(n)]
        for r, p in enumerate(aug_pivots):
            solution[p] = [aug[r, n + j] for j in range(k)]
        sealed(x, solution, k)
        assert X.to_q() * x == B


# ---------------------------------------------------------------------------
# Complexes and homology
# ---------------------------------------------------------------------------


def test_homology_two_term_frozen():
    # Z --2--> Z in degrees 0, 1.
    C = two_term_complex(RING_Z, 0, Matrix(RING_Z, [[2]]))
    assert cokernel_enumeration(2) == 2  # oracle: cokernel has two elements
    assert complex_homology(C, 0) == HomologyGroup(0, ())
    assert complex_homology(C, 1) == HomologyGroup(0, (2,))


def test_homology_identity_and_zero_maps():
    C = two_term_complex(RING_Z, 0, Matrix(RING_Z, [[1]]))
    assert complex_homology(C, 0).is_zero()
    assert complex_homology(C, 1).is_zero()
    D = two_term_complex(RING_Z, 0, Matrix(RING_Z, [[0]]))
    assert complex_homology(D, 0) == HomologyGroup(1, ())
    assert complex_homology(D, 1) == HomologyGroup(1, ())


def kernel_solve_homology(C, n):
    """The kernel/solve route to Z homology, kept as an oracle: a saturated
    basis K of ker d^n, d^(n-1) solved in K, and the invariant factors of
    the solution."""
    K = z_kernel(C.d(n))
    if K.ncols == 0:
        return HomologyGroup(0, ())
    X = z_solve(K, C.d(n - 1))
    assert X is not None, "image not contained in kernel"
    inv = smith_normal_form(X).diagonal()
    return HomologyGroup(K.ncols - len(inv), tuple(d for d in inv if d > 1))


@pytest.mark.parametrize("seed, kwargs", [(41, {}), (42, {"max_pieces": 8, "lo_range": (0, 1)})])
def test_homology_matches_the_kernel_solve_oracle(seed, kwargs):
    rng = random.Random(seed)
    torsion = 0
    for _ in range(30):
        C = random_complex(rng, **kwargs)
        for n in C.degrees():
            h = complex_homology(C, n)
            assert h == kernel_solve_homology(C, n), (seed, n, C)
            torsion += len(h.torsion)
    assert torsion > 10  # the fixtures do reach the torsion branch


def test_heavily_mixed_homology_matches_the_oracle_on_the_unmixed_complex():
    # Conjugation keeps homology, so the oracle reads the lightly mixed
    # complex: on the heavily mixed 29th complex, degree 1, its solve in a
    # kernel basis with grown entries runs for more than 20 s.
    rng = random.Random(43)
    for _ in range(30):
        plain = random_complex(rng, max_pieces=8, lo_range=(0, 1))
        mixed = conjugate_complex(rng, plain, steps_per_rank=10)
        for n in plain.degrees():
            assert complex_homology(mixed, n) == kernel_solve_homology(plain, n), n


@contextlib.contextmanager
def deadline(seconds):
    """Raise TimeoutError inside the block once `seconds` of wall time have
    passed, so that a computation that hangs fails with a traceback."""

    def expire(signum, frame):
        raise TimeoutError("over the %s s deadline" % seconds)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def max_bits(A):
    return max((abs(v).bit_length() for row in A.rows for v in row), default=0)


# d^1 of the heavily mixed 29th complex of the test above (11-bit entries)
# and the 38-bit basis of its kernel that the floor-quotient SNF returned
MIXED_D1 = [
    [-85, -20, 251, 27, 26, -85, -90, 359],
    [258, 66, -789, -81, -96, 240, 267, -1056],
    [-30, -9, 99, 9, 15, -24, -30, 117],
]
GROWN_KERNEL = [
    [12785191, 9963996, 1394748, -2514816, -2607946506],
    [772084038, 601715082, 84227343, -151867054, -157491105847],
    [44572086, 34736758, 4862409, -8767221, -9091895142],
    [-219420418, -171002855, -23936771, 43159463, 44757775810],
    [223754620, 174380667, 24409593, -44011990, -45641874212],
    [-64087655, -49945999, -6991380, 12605886, 13072716393],
    [-1210, -943, -132, 238, 246818],
    [0, 0, 0, 0, 1],
]


def test_snf_keeps_the_entries_of_a_grown_kernel_basis_bounded():
    # Floor quotients that swapped each remainder in as the pivot grew the
    # working entries to millions of bits on this 8 x 5 matrix.
    d1, K = Matrix(RING_Z, MIXED_D1), Matrix(RING_Z, GROWN_KERNEL)
    with deadline(5):
        C = two_term_complex(RING_Z, 0, K)
        assert complex_homology(C, 0) == HomologyGroup(0, ())
        assert complex_homology(C, 1) == HomologyGroup(3, ())
        kd1 = z_kernel(d1)
        assert (d1 * kd1).is_zero() and kd1.ncols == 5
        # the same lattice: each basis is an integral combination of the other
        assert z_solve(K, kd1) is not None and z_solve(kd1, K) is not None
    assert max_bits(d1) == 11
    assert max_bits(kd1) <= 11


def test_kernel_solve_homology_of_the_heavily_mixed_complex_returns():
    rng = random.Random(43)
    for _ in range(29):
        plain = random_complex(rng, max_pieces=8, lo_range=(0, 1))
        mixed = conjugate_complex(rng, plain, steps_per_rank=10)
    assert mixed.d(1).rows == tuple(map(tuple, MIXED_D1))
    with deadline(5):
        for n in plain.degrees():
            assert kernel_solve_homology(mixed, n) == complex_homology(plain, n), n
        K = z_kernel(mixed.d(1))
    assert max_bits(K) <= max_bits(mixed.d(1)) == 11


def test_homology_refuses_a_broken_complex_with_a_zero_kernel():
    # d^1 d^0 = 1 while ker d^1 = 0: the kernel route never saw the fault
    Z1 = Matrix(RING_Z, [[1]])
    C = ChainComplex(RING_Z, 0, (1, 1, 1), (Z1, Z1))
    with pytest.raises(AssertionError, match="image not contained in kernel: complex is broken"):
        complex_homology(C, 1)
    for n in (0, 2):
        assert complex_homology(C, n).is_zero()
    CQ = ChainComplex(RING_Q, 0, (1, 1, 1), (Z1.to_q(), Z1.to_q()))
    with pytest.raises(AssertionError, match="complex is broken"):
        complex_homology(CQ, 1)


def test_homology_group_refuses_a_negative_free_rank():
    with pytest.raises(ValueError, match="free rank"):
        HomologyGroup(-1, ())
    assert HomologyGroup(0, ()).is_zero()


def test_homology_group_refuses_a_zero_torsion_coefficient():
    # the divisibility check once ran first and divided by the zero
    with pytest.raises(ValueError, match="must be >= 2"):
        HomologyGroup(0, (0, 2))
    with pytest.raises(ValueError, match="must be >= 2"):
        HomologyGroup(1, (1, 3))


def test_homology_rank_dual_route():
    rng = random.Random(7)
    for _ in range(20):
        C = random_complex(rng)
        for n in C.degrees():
            h = complex_homology(C, n)
            CQ = make_complex(
                RING_Q,
                C.lo,
                [C.rank(k) for k in C.degrees()],
                [C.d(k).to_q() for k in range(C.lo, C.hi)],
            )
            hq = complex_homology(CQ, n)
            assert h.free_rank == hq.free_rank


def test_shift_homology_relation():
    rng = random.Random(3)
    C = random_complex(rng)
    for k in (-2, -1, 1, 2):
        S = shift_complex(C, k)
        for n in S.degrees():
            assert complex_homology(S, n) == complex_homology(C, n + k)


def test_make_complex_rejects_bad_differential():
    with pytest.raises(ValueError):
        make_complex(
            RING_Z,
            0,
            [1, 1, 1],
            [Matrix(RING_Z, [[1]]), Matrix(RING_Z, [[1]])],
        )


def test_make_complex_rejects_dict_differentials_outside_the_window():
    # degrees 0..1 carry one differential, d^0; a key at 1 would map out of
    # the window and was once dropped without a word, leaving d^0 = 0
    with pytest.raises(ValueError, match=r"degrees \[1\] leave the window 0..1"):
        make_complex(RING_Z, 0, [1, 1], {1: Matrix(RING_Z, [[2]])})
    with pytest.raises(ValueError, match="leave the window"):
        make_complex(RING_Z, 0, [1, 1], {-1: Matrix(RING_Z, [[2]])})
    C = make_complex(RING_Z, 0, [1, 1], {0: Matrix(RING_Z, [[2]])})
    assert C.d(0) == Matrix(RING_Z, [[2]])


def test_tensor_complex_smoke():
    rng = random.Random(11)
    C = random_complex(rng)
    D = random_complex(rng)
    T = tensor_complex(C, D)
    for n in T.degrees():
        assert T.rank(n) == sum(C.rank(p) * D.rank(n - p) for p in C.degrees())
    # d^2 = 0 is implied by construction; verify explicitly once
    for n in range(T.lo, T.hi - 1):
        assert (T.d(n + 1) * T.d(n)).is_zero()


@pytest.mark.parametrize("ring, seed", [(RING_Z, 41), (RING_Q, 43)])
def test_leibniz_mismatches_reads_the_tensor_complex_differential(ring, seed):
    # the kron coordinates of the flat totals of C and D, placed at their
    # positions in tensor_complex(C, D), form a chain map: no mismatch; the
    # same map with its sign flipped in a degree where d != 0 gives some
    rng = random.Random(seed)
    flips = 0
    for _ in range(10):
        C, D = random_complex(rng, ring), random_complex(rng, ring)
        L, R, P = flat_total(C), flat_total(D), flat_total(tensor_complex(C, D))
        terms = {n: [(P.start[n] + k, (L.start[p] + i) * R.rank + R.start[n - p] + j, 1, 1, 1)
                     for k, (p, i, j) in enumerate(tensor_basis(C, D, n))]
                 for n in P.cx.degrees()}
        M = assemble(ring, P.rank, L.rank * R.rank, [t for n in terms for t in terms[n]])
        assert list(leibniz_mismatches(P, L, R, M)) == []
        for n in P.cx.degrees():
            if not P.cx.d(n).is_zero():
                flip = [(r, c, 1, 1, -2) for r, c, *_ in terms[n]]
                flipped = assemble(ring, M.nrows, M.ncols, [(0, 0, M, 1, 1)] + flip)
                assert list(leibniz_mismatches(P, L, R, flipped)) != [], n
                flips += 1
    assert flips


@pytest.mark.parametrize("ring, seed", [(RING_Z, 31), (RING_Q, 37)])
def test_totalize_reproduces_the_tensor_complex(ring, seed):
    # the hand-written tensor complex pins the block order and the (-1)^p sign
    rng = random.Random(seed)
    for _ in range(20):
        C = random_complex(rng, ring)
        D = random_complex(rng, ring)
        columns = {p: direct_sum(ring, D.lo, D.hi, [D] * C.rank(p)) for p in C.degrees()}
        T = totalize(
            ring, C.lo + D.lo, C.hi + D.hi, columns,
            lambda p, q: C.d(p).kron(Matrix.identity(ring, D.rank(q))),
        )
        assert T == tensor_complex(C, D)


def test_direct_sum_and_totalize_refuse_a_piece_that_leaves_their_window():
    # Z -2-> Z in degrees -1, 0 has H^0 = Z/2; on the window 0..0 its degree
    # -1 would be dropped, and H^0 read as Z
    C = two_term_complex(RING_Z, -1, Matrix(RING_Z, [[2]]))
    assert complex_homology(C, 0).describe() == "Z/2"
    with pytest.raises(ValueError, match="window 0..0"):
        direct_sum(RING_Z, 0, 0, [C])
    with pytest.raises(ValueError, match="window 0..0"):
        totalize(RING_Z, 0, 0, {0: C}, None)
    assert complex_homology(direct_sum(RING_Z, -1, 0, [C]), 0).describe() == "Z/2"
    assert complex_homology(totalize(RING_Z, -1, 0, {0: C}, None), 0).describe() == "Z/2"


def _random_chain_map(rng, C, D):
    """A random combination of a kernel basis of d^0 on Hom(C, D)."""
    H = hom_complex(C, D)
    K = kernel(H.d(0))
    coeffs = [rng.randint(-2, 2) for _ in range(K.ncols)]
    vec = [sum(v * c for v, c in zip(row, coeffs)) for row in K.rows]
    return make_chain_map(C, D, hom_element_matrices(C, D, 0, vec))


@pytest.mark.parametrize("ring, seed", [(RING_Z, 53), (RING_Q, 59)])
def test_tensor_chain_map_matches_the_elementwise_product(ring, seed):
    # cone inclusions and projections, and maps between random complexes,
    # have source and target windows that differ
    rng = random.Random(seed)
    for _ in range(12):
        C, D = random_complex(rng, ring), random_complex(rng, ring)
        f = _random_chain_map(rng, C, D)
        _, incl, proj = cone_of_map(f)
        maps = [f, incl, proj, identity_chain_map(C)]
        assert any((m.source.lo, m.source.hi) != (m.target.lo, m.target.hi) for m in maps)
        for _ in range(3):
            a, b = rng.choice(maps), rng.choice(maps)
            t = tensor_chain_map(a, b)
            assert t.source == tensor_complex(a.source, b.source)
            assert t.target == tensor_complex(a.target, b.target)
            expected = tensor_chain_map_elementwise(a, b, t.source)
            assert all(t.comp(n) == expected[n] for n in t.source.degrees())
            make_chain_map(t.source, t.target, t.comps)


def test_subcomplex_refuses_a_basis_that_d_leaves():
    C = two_term_complex(RING_Z, 0, Matrix(RING_Z, [[1]]))
    bases = {0: Matrix.identity(RING_Z, 1), 1: Matrix.zero(RING_Z, 1, 0)}
    with pytest.raises(ValueError, match="differential at degree 0"):
        subcomplex(C, bases)


def test_subcomplex_of_a_stable_basis_commutes_with_d():
    # everything below degree m plus the cycles in degree m: d-stable
    rng = random.Random(41)
    for _ in range(20):
        C = random_complex(rng)
        m = rng.randint(C.lo, C.hi)
        bases = {n: Matrix.identity(RING_Z, C.rank(n)) for n in range(C.lo, m)}
        bases[m] = kernel(C.d(m))
        S = subcomplex(C, bases)
        assert (S.lo, S.hi) == (C.lo, m)
        for n in range(S.lo, S.hi):
            assert bases[n + 1] * S.d(n) == C.d(n) * bases[n]


def test_hom_complex_differential_squares_to_zero():
    rng = random.Random(13)
    C = random_complex(rng)
    D = random_complex(rng)
    H = hom_complex(C, D)
    for n in range(H.lo, H.hi - 1):
        assert (H.d(n + 1) * H.d(n)).is_zero()


@pytest.mark.parametrize("ring, seed", [(RING_Z, 43), (RING_Q, 47)])
def test_hom_complex_matches_the_componentwise_differential(ring, seed):
    rng = random.Random(seed)
    for _ in range(20):
        C, D = random_complex(rng, ring), random_complex(rng, ring)
        H = hom_complex(C, D)
        assert all(H.rank(n) == len(hom_basis(C, D, n)) for n in H.degrees())
        for n in range(H.lo, H.hi):
            r = H.rank(n)
            for j in range(r):
                unit = tuple(1 if k == j else 0 for k in range(r))
                assert tuple(H.d(n).col(j)) == hom_differential_componentwise(C, D, n, unit)


def test_hom_complex_leibniz():
    # d(g . f) = dg . f + (-1)^{deg g} g . df with plain composition.
    rng = random.Random(17)
    for _ in range(15):
        C = random_complex(rng, max_pieces=2)
        D = random_complex(rng, max_pieces=2)
        E = random_complex(rng, max_pieces=2)
        HCD = hom_complex(C, D)
        HDE = hom_complex(D, E)
        HCE = hom_complex(C, E)
        m = rng.randint(HCD.lo, HCD.hi)
        n = rng.randint(HDE.lo, HDE.hi)
        if not (HCE.lo <= n + m + 1 <= HCE.hi and HCD.rank(m) and HDE.rank(n)):
            continue
        f = random_hom_vector(rng, HCD.rank(m))
        g = random_hom_vector(rng, HDE.rank(n))
        gf = hom_compose_vec(C, D, E, n, g, m, f)
        lhs = HCE.d(n + m) * Matrix.column(RING_Z, gf)
        dg = HDE.d(n) * Matrix.column(RING_Z, g)
        df = HCD.d(m) * Matrix.column(RING_Z, f)
        t1 = hom_compose_vec(C, D, E, n + 1, dg.col(0), m, f)
        t2 = hom_compose_vec(C, D, E, n, g, m + 1, df.col(0))
        sgn = -1 if n % 2 else 1
        rhs_vec = [a + sgn * b for a, b in zip(t1, t2)]
        assert list(lhs.col(0)) == rhs_vec


def test_hom_vector_matrix_roundtrip():
    rng = random.Random(19)
    C = random_complex(rng)
    D = random_complex(rng)
    for n in hom_complex(C, D).degrees():
        r = len(hom_basis(C, D, n))
        vec = random_hom_vector(rng, r)
        mats = hom_element_matrices(C, D, n, vec)
        assert hom_element_vector(C, D, n, mats) == vec


def test_hom_vectors_of_the_wrong_length_are_refused():
    # Hom(C, C)^0 of C = Z --2--> Z has rank 2; the category refuses any
    # other length, whether an element is made, differentiated or composed
    C = two_term_complex(RING_Z, 0, Matrix(RING_Z, [[2]]))
    cat = complexes_category({"c": C})
    for vec in ((1, 2, 99, 98), (1, 2, 3), (1,), ()):
        with pytest.raises(ValueError, match="coordinate length mismatch"):
            cat.element("c", "c", 0, vec)
        bad = HomElement("c", "c", 0, vec)
        good = cat.element("c", "c", 0, (1, 1))
        for call in (lambda: cat.differential(bad), lambda: cat.compose(bad, good),
                     lambda: cat.compose(good, bad)):
            with pytest.raises(ValueError, match="coordinate length mismatch"):
                call()
    two_three = cat.element("c", "c", 0, (2, 3))
    assert cat.compose(cat.element("c", "c", 0, (1, 1)), two_three) == two_three


def test_identity_hom_vector_is_unit():
    rng = random.Random(23)
    C = random_complex(rng)
    D = random_complex(rng)
    idC = identity_hom_vector(C)
    idD = identity_hom_vector(D)
    H = hom_complex(C, D)
    for n in H.degrees():
        if not H.rank(n):
            continue
        f = random_hom_vector(rng, H.rank(n))
        assert hom_compose_vec(C, C, D, n, f, 0, idC) == f
        assert hom_compose_vec(C, D, D, 0, idD, n, f) == f


def _composition_cases(rng, ring):
    """Triples of complexes: random ones, ones with zero ranks inside their
    window, and ones whose windows lie far apart, so that some Hom windows
    do not meet."""
    sparse = make_complex(ring, -1, [0, 2, 0, 1], [Matrix.zero(ring, 2, 0), Matrix.zero(ring, 0, 2),
                                                   Matrix.zero(ring, 1, 0)])
    far, empty = single_complex(ring, 6, 2), single_complex(ring, 0, 0)
    cases = [tuple(random_complex(rng, ring, max_pieces=2) for _ in range(3)) for _ in range(12)]
    cases += [(sparse, sparse, sparse), (far, sparse, far), (sparse, far, sparse),
              (empty, sparse, far), (random_complex(rng, ring), far, random_complex(rng, ring))]
    return cases


@pytest.mark.parametrize("ring, seed", [(RING_Z, 61), (RING_Q, 67)])
def test_hom_composition_matrix_matches_the_per_basis_pair_assembly(ring, seed):
    rng = random.Random(seed)
    for C, D, E in _composition_cases(rng, ring):
        HDE, HCD = hom_complex(D, E), hom_complex(C, D)
        # every (p, q) of both Hom windows, and one degree past each edge
        for p in range(HDE.lo - 1, HDE.hi + 2):
            for q in range(HCD.lo - 1, HCD.hi + 2):
                M = hom_composition_matrix(C, D, E, p, q)
                assert M == per_basis_pair_composition(C, D, E, p, q), (p, q)
                assert (M.nrows, M.ncols) == (hom_complex(C, E).rank(p + q),
                                              HDE.rank(p) * HCD.rank(q))
                assert M.ring == ring and all(type(v) is int for row in M.rows for v in row)


def test_hom_composition_matrix_refuses_mixed_rings():
    Z, Q = single_complex(RING_Z, 0, 1), single_complex(RING_Q, 0, 1)
    with pytest.raises(ValueError, match="ring mismatch"):
        hom_composition_matrix(Z, Q, Z, 0, 0)


@pytest.mark.parametrize("ring", [RING_Z, RING_Q])
def test_hom_composition_matrix_on_single_degrees_is_the_row_major_product(ring):
    for nx, ny, nz in itertools.product(range(4), repeat=3):
        M = hom_composition_matrix(*(single_complex(ring, 0, n) for n in (nx, ny, nz)), 0, 0)
        cols = [_row_major_product(nx, ny, nz, g, f)
                for g in Matrix.identity(RING_Z, ny * nz).rows
                for f in Matrix.identity(RING_Z, nx * ny).rows]
        assert M == _columns_to_matrix(ring, nx * nz, cols), (nx, ny, nz)
        assert all(type(v) is int for row in M.rows for v in row)


@pytest.mark.parametrize("ring, seed", [(RING_Z, 71), (RING_Q, 73)])
def test_identity_hom_vector_is_the_block_identity(ring, seed):
    rng = random.Random(seed)
    cases = [random_complex(rng, ring) for _ in range(10)]
    cases += [single_complex(ring, 0, 0), single_complex(ring, 3, 2),
              make_complex(ring, -1, [2, 0, 1], [Matrix.zero(ring, 0, 2), Matrix.zero(ring, 1, 0)])]
    for C in cases:
        mats = {p: Matrix.identity(ring, C.rank(p)) for p in C.degrees() if C.rank(p)}
        old = hom_element_vector(C, C, 0, mats)
        new = identity_hom_vector(C)
        assert new == old and [type(v) for v in new] == [type(v) for v in old]


def test_cone_and_quasi_iso():
    rng = random.Random(29)
    C = random_complex(rng)
    rep = is_quasi_iso(identity_chain_map(C))
    assert rep.ok
    # map to the zero complex detects homology
    D = two_term_complex(RING_Z, 0, Matrix(RING_Z, [[0]]))
    zc = zero_complex(RING_Z, -1, 2)
    f = make_chain_map(D, zc, {})
    assert not is_quasi_iso(f, window=(0, 1)).ok


def test_quasi_iso_refuses_an_empty_explicit_window():
    f = identity_chain_map(two_term_complex(RING_Z, 0, Matrix(RING_Z, [[2]])))
    with pytest.raises(ValueError, match="empty window"):
        is_quasi_iso(f, window=(1, 0))
    assert is_quasi_iso(f, window=(0, 0)).ok


def test_quasi_iso_default_window_sees_a_lost_class():
    f = make_chain_map(single_complex(RING_Z, 0, 1), single_complex(RING_Z, 0, 0), {})
    assert not is_quasi_iso(f).ok


def test_quasi_iso_default_window_is_every_cone_degree_of_an_uncut_map():
    # the cone of the identity of Z in degree 0 sits in degrees -1 and 0
    rep = is_quasi_iso(identity_chain_map(single_complex(RING_Z, 0, 1)))
    assert rep.ok and rep.window == (-1, 0)


def test_cone_triangle_maps_are_chain_maps():
    rng = random.Random(31)
    C = random_complex(rng)
    # d h + h d of a random degree -1 hom element is always a chain map C -> C
    H = hom_complex(C, C)
    if H.rank(-1):
        h = random_hom_vector(rng, H.rank(-1))
        dh = H.d(-1) * Matrix.column(RING_Z, h)
        mats = hom_element_matrices(C, C, 0, dh.col(0))
        f = make_chain_map(C, C, mats)  # raises if not a chain map
        cone, incl, proj = cone_of_map(f)
        for n in range(cone.lo, cone.hi):
            assert cone.d(n) * incl.comp(n) == incl.comp(n + 1) * C.d(n)
            assert proj.comp(n + 1) * cone.d(n) == shift_complex(C, 1).d(n) * proj.comp(n)
        assert compose_chain_maps(proj, incl).comps == {} or all(
            m.is_zero() for m in compose_chain_maps(proj, incl).comps.values()
        )


def test_block_matrix_layout():
    a = Matrix(RING_Z, [[1, 2]])
    b = Matrix(RING_Z, [[3]])
    m = block_matrix(RING_Z, [[a, b]])
    assert m == Matrix(RING_Z, [[1, 2, 3]])
    m2 = block_matrix(RING_Z, [[a, None], [None, b]])
    assert m2.nrows == 2 and m2.ncols == 3 and m2[1, 2] == 3
