"""Shared deterministic generators for randomized unit tests."""

import random

from dgforge.linalg import (
    Matrix,
    RING_Q,
    RING_Z,
    direct_sum,
    kernel,
    make_complex,
    single_complex,
    two_term_complex,
)
from dgforge.pretr import (
    cone,
    dsum_twisted,
    i0,
    shift,
    twisted_hom_complex,
    zero_morphism,
)


def random_z_matrix(rng, nrows, ncols, bound=9):
    return Matrix(
        RING_Z,
        [[rng.randint(-bound, bound) for _ in range(ncols)] for _ in range(nrows)],
        nrows=nrows,
        ncols=ncols,
    )


def random_unimodular(rng, n, steps=None):
    """Product of elementary transvections/swaps; det is +-1 by construction."""
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    if steps is None:
        steps = 2 * n
    for _ in range(steps):
        i = rng.randrange(n)
        j = rng.randrange(n)
        if i == j:
            continue
        kind = rng.randrange(3)
        if kind == 0:
            c = rng.choice([-2, -1, 1, 2])
            for k in range(n):
                m[i][k] += c * m[j][k]
        elif kind == 1:
            m[i], m[j] = m[j], m[i]
        else:
            m[i] = [-v for v in m[i]]
    return Matrix(RING_Z, m, nrows=n, ncols=n)


def random_complex(rng, ring=RING_Z, max_pieces=3, lo_range=(-2, 2)):
    """Random bounded complex with d^2 = 0 by construction.

    Direct sum of shifted singletons and two-term multiplication complexes,
    then (over Z) mixed by `conjugate_complex` so the differentials carry
    no obvious block structure.
    """
    pieces = []
    for _ in range(rng.randint(1, max_pieces)):
        deg = rng.randint(*lo_range)
        if rng.random() < 0.4:
            pieces.append(single_complex(ring, deg, rng.randint(1, 2)))
        else:
            k = rng.choice([0, 1, 1, 2, 3])
            pieces.append(
                two_term_complex(ring, deg, Matrix(ring, [[k]], nrows=1, ncols=1))
            )
    total = direct_sum(
        ring, min(p.lo for p in pieces), max(p.hi for p in pieces), pieces
    )
    if ring != RING_Z:
        return total
    return conjugate_complex(rng, total)


def conjugate_complex(rng, C, steps_per_rank=2):
    """The Z complex C conjugated degreewise by unimodular matrices of
    `steps_per_rank` * rank elementary steps, so with the same homology."""
    conj = {
        n: random_unimodular(rng, C.rank(n), steps_per_rank * C.rank(n))
        for n in C.degrees()
    }
    inv = {}
    for n, u in conj.items():
        # inverse of a unimodular integer matrix stays integral
        from dgforge.linalg import q_solve

        qi = q_solve(u.to_q(), Matrix.identity(RING_Q, u.nrows).to_q())
        inv[n] = qi.to_z()
    diffs = []
    for n in range(C.lo, C.hi):
        diffs.append(conj[n + 1] * C.d(n) * inv[n])
    return make_complex(C.ring, C.lo, [C.rank(n) for n in C.degrees()], diffs)


def random_hom_vector(rng, length, bound=3):
    return tuple(rng.randint(-bound, bound) for _ in range(length))


def random_closed_morphism(rng, E, F, bound=2):
    """Random integer combination of a kernel basis of the degree-0
    differential of Hom(E, F); zero when there are no closed elements."""
    H = twisted_hom_complex(E, F)
    r = H.complex.rank(0)
    if r == 0:
        return zero_morphism(E, F)
    K = kernel(H.complex.d(0))
    if K.ncols == 0:
        return zero_morphism(E, F)
    coeffs = [rng.randint(-bound, bound) for _ in range(K.ncols)]
    vec = [
        sum(K.rows[i][c] * coeffs[c] for c in range(K.ncols))
        for i in range(K.nrows)
    ]
    return H.element(0, tuple(vec))


def random_twisted(rng, base, keys, depth=2, max_entries=5):
    """Iterated shifts, direct sums and cones starting from one-entry
    objects; every step preserves the Maurer-Cartan identity, so the
    result is a valid twisted complex with genuinely mixed entries."""
    tc = i0(base, rng.choice(keys))
    for _ in range(depth):
        op = rng.choice(("shift", "cone", "dsum"))
        if op == "shift":
            tc = shift(tc, rng.choice((-1, 1)))
        elif op == "dsum" and len(tc.entries) < max_entries:
            other = shift(i0(base, rng.choice(keys)), rng.randint(-1, 1))
            tc = dsum_twisted(tc, other)
        elif op == "cone" and len(tc.entries) < max_entries:
            other = shift(i0(base, rng.choice(keys)), rng.randint(-1, 1))
            tc = cone(random_closed_morphism(rng, other, tc)).cone
    return tc


def random_twisted_morphism(rng, E, F, degree=None, bound=3):
    """Random element of the twisted Hom complex, at a populated degree
    when none is requested; zero when the complex is empty."""
    H = twisted_hom_complex(E, F)
    degs = [n for n in H.complex.degrees() if H.complex.rank(n)]
    if not degs:
        return zero_morphism(E, F, degree or 0)
    n = degree if degree is not None else rng.choice(degs)
    vec = tuple(rng.randint(-bound, bound) for _ in range(H.complex.rank(n)))
    return H.element(n, vec)
