"""Reference routes through mapping complexes for the tests: Hom(C, D)^n
coordinates as per-degree matrices and back, composition one pair of such
matrices at a time, and the composition matrix assembled from that one
pair of basis vectors at a time.  The library builds the matrix in one
`assemble` (`linalg.hom_composition_matrix`); these are its oracles."""

from dgforge.linalg import Matrix, _columns_to_matrix


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
    """Flatten per-degree matrices back to Hom(C,D)^n coordinates, written
    from the nonzero entries."""
    vec, zero = [], Matrix.zero(C.ring, 1, 1)[0, 0]
    for p in range(C.lo, C.hi + 1):
        rc, rd = C.rank(p), D.rank(p + n)
        if rc and rd:
            m, start = mats.get(p) or Matrix.zero(C.ring, rd, rc), len(vec)
            if m.nrows != rd or m.ncols != rc:
                raise ValueError("component shape mismatch at degree %d" % p)
            vec.extend([zero] * (rd * rc))
            for i, row in enumerate(m.nonzero_rows()):
                for j, v in row:
                    vec[start + i * rc + j] = v
    return tuple(vec)


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


def per_basis_pair_composition(C, D, E, p, q):
    """The matrix of Hom(D,E)^p (x) Hom(C,D)^q -> Hom(C,E)^(p+q), one column
    per pair of basis vectors (g outer), each composed by `hom_compose_vec`."""

    def units(X, Y, n):
        r = len(hom_basis(X, Y, n))
        return [tuple(int(k == i) for k in range(r)) for i in range(r)]

    cols = [hom_compose_vec(C, D, E, p, g, q, f) for g in units(D, E, p) for f in units(C, D, q)]
    return _columns_to_matrix(C.ring, len(hom_basis(C, E, p + q)), cols)
