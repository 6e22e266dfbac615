"""Tests for cubical abelian groups and their complex models.

Expected values are either computed by hand in comments next to the assert,
or cross-checked against a second computation route (brute-force morphism
enumeration, trace formulas, mapping-cone acyclicity).
"""

import random
from fractions import Fraction

import pytest

from dgforge.cube import (
    compose,
    enumerate_homset,
    insertion,
    merge,
    projection,
    q_merge,
)
from dgforge.cubical import (
    CubicalAbelianGroup,
    alternating_comparison,
    alternating_complex,
    alternating_projector,
    alternating_trace_rank,
    associated_complex,
    boundary_matrix,
    circle_cell_tables,
    circle_chains,
    constant_cubical,
    cubical_from_generator_matrices,
    cup_on_levels,
    cup_pairing,
    degenerate_projector,
    diag_tensor,
    functions_on_cubes,
    generator_maps,
    interval_value_tables,
    level_symmetry_matrix,
    normalization_report,
    normalized_complex,
    reduced_level_basis,
    sign_orbit_basis,
)
from dgforge.cube import alternating_idempotent
from dgforge.dgcat import build_vertex_cubes, cubical_enrichment
from dgforge.linalg import (
    Matrix,
    RING_Q,
    RING_Z,
    _columns_to_matrix,
    complex_homology,
    is_quasi_iso,
    kernel,
    make_chain_map,
    q_kernel,
    q_rank,
    restrict,
    solve,
    subcomplex,
    zero_complex,
)


def flat_table(f):
    # maps to the 1-cube have 1-tuples as values
    return tuple(v[0] for v in f.table)


# ---------------------------------------------------------------------------
# The one-output map tables behind the circle fixture.


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("extended", [False, True])
def test_interval_tables_match_homset_enumeration(m, extended):
    direct = set(interval_value_tables(m, extended))
    from_closure = {flat_table(f) for f in enumerate_homset(m, 1, extended=extended, bound=3)}
    assert direct == from_closure


def test_circle_cell_counts():
    # plain: constants collapse to one class, +x_i and -x_i collapse pairwise
    for m in range(6):
        assert len(circle_cell_tables(m, False)) == 1 + m
    # extended: half of 2 + sum_s C(m,s) * (read-once count at s); the
    # read-once counts 2, 8, 64 are pinned against the closure in test_cube
    assert [len(circle_cell_tables(m, True)) for m in (1, 2, 3)] == [2, 7, 48]


def test_functions_pullback_is_contravariant():
    F = functions_on_cubes(RING_Z, 3)
    rng = random.Random(5)
    maps = enumerate_homset(2, 2, extended=True, bound=2)
    pairs = [(g, f) for g in maps for f in maps]
    for g, f in rng.sample(pairs, 60):
        assert F.act(compose(g, f)) == F.act(f) * F.act(g)


def test_circle_pullback_is_contravariant():
    C = circle_chains(RING_Z, 3, extended=True)
    rng = random.Random(6)
    fs = enumerate_homset(3, 2, extended=True, bound=3)
    gs = enumerate_homset(2, 3, extended=True, bound=3)
    pairs = [(g, f) for g in gs for f in fs]
    for g, f in rng.sample(pairs, 40):
        assert C.act(compose(g, f)) == C.act(f) * C.act(g)


def test_act_validates_window_and_extension():
    F = functions_on_cubes(RING_Z, 2)
    with pytest.raises(ValueError):
        F.act(insertion(2, 1, 0))  # lands in level 3
    plain = circle_chains(RING_Z, 2, extended=False)
    with pytest.raises(ValueError):
        plain.act(merge(2, 1))


# ---------------------------------------------------------------------------
# Complex models and their homology.


def test_constant_group_models():
    A = constant_cubical(RING_Z, 2, 3)
    full = associated_complex(A, "full")
    # every face pullback is the identity, so the alternating sums cancel
    for n in range(1, 4):
        assert boundary_matrix(A, n).is_zero()
    red = associated_complex(A, "reduced")
    assert [red.level_rank(n) for n in range(4)] == [2, 0, 0, 0]
    assert full.homology(0).free_rank == 2


def test_circle_homology_plain():
    # geometric circle: one vertex, one edge, zero boundary
    A = circle_chains(RING_Z, 4, extended=False)
    red = associated_complex(A, "reduced")
    assert red.homology(0).describe() == "Z"
    assert red.homology(1).describe() == "Z"
    assert red.homology(2).is_zero()
    assert red.homology(3).is_zero()


def test_circle_homology_extended():
    # With merges the complement identification changes the homotopy type:
    # the square x*(1-y) has eps-faces  slot 1: (1-y, 0)  slot 2: (0, x),
    # so d = -((1-y) - 0) + (0 - x) = -2e modulo degenerates (both [x] and
    # [1-y] are the edge e).  The edge survives but is 2-torsion:
    # H_1 = Z/2, while H_0 stays Z.  Checked by hand on the level-2 cells.
    A = circle_chains(RING_Z, 3, extended=True)
    red = associated_complex(A, "reduced")
    assert red.homology(0).describe() == "Z"
    assert red.homology(1).describe() == "Z/2"
    assert red.homology(2).is_zero()


def test_functions_reduced_complex_is_acyclic():
    # the level-n kernel part is spanned by the delta at the all-zeros vertex,
    # and the boundary takes it to +-delta at the next level down
    A = functions_on_cubes(RING_Z, 5)
    red = associated_complex(A, "reduced")
    assert [red.level_rank(n) for n in range(6)] == [1, 1, 1, 1, 1, 1]
    for n in range(5):
        assert red.homology(n).is_zero()
    aug = make_chain_map(red.complex, zero_complex(RING_Z, -5, 0), {})
    assert is_quasi_iso(aug).ok


def test_full_homology_splits_into_reduced_and_degenerate():
    # unlike the simplicial case, cubical degenerates are NOT acyclic (the
    # constant group has H_n(full) = Z for all n); the splitting is only a
    # direct sum of complexes, so homology ranks must add degreewise
    for A in (
        circle_chains(RING_Z, 4, extended=False),
        functions_on_cubes(RING_Z, 4),
        constant_cubical(RING_Z, 1, 3),
    ):
        full = associated_complex(A, "full")
        red = associated_complex(A, "reduced")
        degn = {n: kernel(degenerate_projector(A, n)) for n in range(A.top + 1)}
        ddiffs = {}
        for n in range(1, A.top + 1):
            ddiffs[-n] = solve(degn[n - 1], boundary_matrix(A, n) * degn[n])
            assert ddiffs[-n] is not None
        from dgforge.linalg import make_complex

        dcx = make_complex(
            A.ring, -A.top, [degn[-d].ncols for d in range(-A.top, 1)], ddiffs
        )
        for n in range(A.top):
            a = full.homology(n)
            b = red.homology(n)
            c = complex_homology(dcx, -n)
            assert a.free_rank == b.free_rank + c.free_rank
            assert sorted(a.torsion) == sorted(b.torsion + c.torsion)


def test_constant_full_complex_keeps_degenerate_homology():
    A = constant_cubical(RING_Z, 1, 3)
    full = associated_complex(A, "full")
    # all differentials cancel, so every level survives: H_n = Z
    for n in range(3):
        assert full.homology(n).describe() == "Z"


# ---------------------------------------------------------------------------
# Degenerate splitting.


def splitting(A, n):
    """The degenerate projector P of level n with bases of its image
    (reduced part) and kernel (degenerate part)."""
    P = degenerate_projector(A, n)
    return P, kernel(Matrix.identity(A.ring, A.rank(n)) - P), kernel(P)


@pytest.mark.parametrize(
    "make",
    [
        lambda: functions_on_cubes(RING_Z, 4),
        lambda: circle_chains(RING_Z, 4, extended=False),
        lambda: circle_chains(RING_Z, 3, extended=True),
        lambda: constant_cubical(RING_Z, 2, 3),
    ],
)
def test_degenerate_splitting(make):
    A = make()
    for n in range(A.top + 1):
        P, red, degn = splitting(A, n)
        assert P * P == P
        assert red.ncols + degn.ncols == A.rank(n)
        # the projector image is the intersection of the eps=1 face kernels
        B = reduced_level_basis(A, n)
        assert solve(B, red) is not None
        assert solve(red, B) is not None
    # both summands are subcomplexes; in particular the boundary of a
    # degenerate element is again degenerate, so it dies in the quotient
    # model (the projector onto the complement kills it)
    for n in range(1, A.top + 1):
        d = boundary_matrix(A, n)
        _, hi_red, hi_degn = splitting(A, n)
        lo_P, lo_red, lo_degn = splitting(A, n - 1)
        assert solve(lo_red, d * hi_red) is not None
        assert solve(lo_degn, d * hi_degn) is not None
        assert (lo_P * d * hi_degn).is_zero()


def test_degenerate_boundary_not_literally_zero():
    # d restricted to the degenerate summand is nonzero on the nose: the
    # level-2 element pulled back from delta_0 along the slot-2 projection
    # has boundary the constant function.  Only the image in the quotient
    # vanishes, which is what the splitting uses.
    A = functions_on_cubes(RING_Z, 2)
    _, _, degn = splitting(A, 2)
    d = boundary_matrix(A, 2)
    assert not (d * degn).is_zero()


# ---------------------------------------------------------------------------
# Normalization.


def test_normalized_functions_on_cubes():
    A = functions_on_cubes(RING_Z, 5)
    N = normalized_complex(A)
    # level 1 keeps the delta at 0; the extra eps=0 conditions kill the rest
    assert [N.complex.rank(-n) for n in range(6)] == [1, 1, 0, 0, 0, 0]
    for n in range(5):
        assert N.reduced.homology(n).is_zero()
    rep = normalization_report(N)
    assert rep.ok, rep.failures
    assert is_quasi_iso(N.include_map()).ok


def test_normalized_circle_extended():
    A = circle_chains(RING_Z, 3, extended=True)
    N = normalized_complex(A)
    rep = normalization_report(N)
    assert rep.ok, rep.failures
    # the retraction identity only holds away from the window edge
    assert is_quasi_iso(N.include_map(), window=(-A.top + 1, 0)).ok
    assert N.complex.rank(0) == 1 and N.complex.rank(-1) >= 1


def test_normalized_constant():
    A = constant_cubical(RING_Z, 3, 4)
    N = normalized_complex(A)
    assert [N.complex.rank(-n) for n in range(5)] == [3, 0, 0, 0, 0]
    rep = normalization_report(N)
    assert rep.ok, rep.failures


def test_normalization_rejects_plain_groups():
    with pytest.raises(ValueError):
        normalized_complex(circle_chains(RING_Z, 2, extended=False))


# ---------------------------------------------------------------------------
# Alternating parts.


def test_alternating_rank_dual_route():
    F = functions_on_cubes(RING_Q, 4)
    for group in ("F", "Sigma"):
        for n in range(5):
            e = alternating_projector(F, n, group)
            assert e * e == e
            kern_rank = F.rank(n) - q_rank(Matrix.identity(RING_Q, F.rank(n)) - e)
            assert kern_rank == alternating_trace_rank(F, n, group)


def dense_alternating_projector(A, n, group):
    """Reference sign average: the dense sum of c_g * A(g) over the group,
    one scaled matrix per element."""
    out = Matrix.zero(RING_Q, A.rank(n), A.rank(n))
    for c, g in alternating_idempotent(n, group):
        out = out + level_symmetry_matrix(A, g).scale(c)
    return out


def test_sparse_sign_average_matches_the_dense_sum():
    F = functions_on_cubes(RING_Q, 4)
    host, cocube = build_vertex_cubes("Q", top=3)
    E = cubical_enrichment(host, cocube).group(2, 2)
    cases = [(F, n, group) for group in ("F", "Sigma") for n in range(5)]
    cases += [(E, n, group) for group in ("F", "Sigma") for n in range(4)]
    for A, n, group in cases:
        e = alternating_projector(A, n, group)
        assert e == dense_alternating_projector(A, n, group), (A, n, group)
        assert all(type(v) is Fraction for row in e.rows for v in row)
    # flips leave no sign part above level 1; permutations do
    assert not alternating_projector(E, 1, "F").is_zero()
    assert not alternating_projector(E, 2, "Sigma").is_zero()


def test_alternating_frozen_ranks():
    F = functions_on_cubes(RING_Q, 2)
    # Sigma on level 2: (tr id - tr swap)/2 = (4 - 2)/2
    assert alternating_trace_rank(F, 2, "Sigma") == 1
    # F on level 2: character sum 1*4 - 1*2 - 1*2 + ... = 0 (flips fix nothing)
    assert alternating_trace_rank(F, 2, "F") == 0


def test_alternating_reduced_guard():
    A = functions_on_cubes(RING_Q, 2)
    with pytest.raises(ValueError):
        alternating_complex(A, "F", "reduced")


def dense_sign_part(A, group, variant):
    """Reference sign part: per level, q_kernel(I - e) for the dense sign
    average e restricted to the model, and the subcomplex on those kernels.
    The bases are returned inside A(n)."""
    model = associated_complex(A, variant)
    coords = {}
    for n in range(A.top + 1):
        R = model.level_basis[n]
        e = restrict(R, dense_alternating_projector(A, n, group) * R, "the sign projector")
        coords[-n] = q_kernel(Matrix.identity(RING_Q, e.ncols) - e)
    bases = {n: model.level_basis[n] * coords[-n] for n in range(A.top + 1)}
    return bases, subcomplex(model.complex, coords)


def orbit_sums_by_all_elements(A, n, group):
    """Oracle for `sign_orbit_basis`: the signed orbit sums read off the
    action matrix of every element of the group.  Column i of
    sum_g sgn(g) A(g) is |Stab(i)| times the signed orbit sum through e_i,
    or 0 when the sign character kills the orbit; each orbit is kept at its
    smallest index, with its signs."""
    r = A.rank(n)
    sums = [[0] * r for _ in range(r)]  # sums[i] = sum_g sgn(g) A(g) e_i
    for c, g in alternating_idempotent(n, group):
        for j, row in enumerate(level_symmetry_matrix(A, g).nonzero_rows()):
            for i, v in row:
                sums[i][j] += 1 if (v > 0) == (c > 0) else -1
    seen = set()
    orbit_sums = []
    for col in sums:
        support = {j for j, t in enumerate(col) if t}
        if support and not support & seen:
            seen |= support
            orbit_sums.append([(t > 0) - (t < 0) for t in col])
    return _columns_to_matrix(A.ring, r, orbit_sums)


def _counting_group(A):
    """A as a fresh group that records the key of every action matrix it
    builds (each one once, as the group caches them)."""
    built = []

    def act(f):
        built.append((f.dom, f.cod, f.table))
        return A.act(f)

    return CubicalAbelianGroup(A.ring, A.top, A.ranks, act, extended=A.extended), built


def _vertex_hom_group(x, y):
    return cubical_enrichment(*build_vertex_cubes("Q", top=3)).group(x, y)


@pytest.mark.parametrize(
    "make",
    [
        lambda: functions_on_cubes(RING_Q, 4),
        lambda: circle_chains(RING_Q, 3, extended=True),
        lambda: constant_cubical(RING_Q, 2, 3),
        lambda: _vertex_hom_group(1, 2),
        lambda: _vertex_hom_group(2, 2),
    ],
)
@pytest.mark.parametrize("group, variant", [("F", "full"), ("Sigma", "full"), ("Sigma", "reduced")])
def test_orbit_sums_span_the_dense_sign_part(make, group, variant):
    A = make()
    alt = alternating_complex(A, group, variant)
    bases, cx = dense_sign_part(A, group, variant)
    for n in range(A.top + 1):
        new, old = alt.level_basis[n], bases[n]
        assert new.ncols == old.ncols
        assert solve(old, new) is not None and solve(new, old) is not None
        assert alt.homology(n) == complex_homology(cx, -n)
        B = sign_orbit_basis(A, n, group)
        assert B == orbit_sums_by_all_elements(A, n, group)
        assert B.ncols == alternating_trace_rank(A, n, group)
        # the walk builds one matrix per generator: n - 1 transpositions and a flip
        counted, built = _counting_group(A)
        assert sign_orbit_basis(counted, n, group) == B
        assert len({key for key in built if key[:2] == (n, n)}) <= n
        if variant == "full":
            assert B == new
        assert all(v in (0, 1, -1) for row in B.rows for v in row)
        supports = [{i for i, v in enumerate(B.col(k)) if v} for k in range(B.ncols)]
        assert all(supports)
        assert sum(map(len, supports)) == len(set().union(*supports))


def _conjugated_functions_on_cubes(top):
    """functions_on_cubes(Q, top) in the basis P e_i at every level, for P
    with ones on the diagonal and the superdiagonal: still a cubical group,
    but the symmetries no longer act by signed permutation matrices."""
    A = functions_on_cubes(RING_Q, top)

    def P(r):
        return Matrix(RING_Q, [[int(j in (i, i + 1)) for j in range(r)] for i in range(r)])

    def P_inv(r):
        return Matrix(RING_Q, [[(-1) ** (j - i) if j >= i else 0 for j in range(r)]
                               for i in range(r)])

    return CubicalAbelianGroup(
        RING_Q, top, A.ranks,
        lambda f: P_inv(A.rank(f.dom)) * A.act(f) * P(A.rank(f.cod)), extended=True,
    )


def test_sign_part_refuses_an_action_that_is_not_by_signed_permutations():
    A = _conjugated_functions_on_cubes(2)
    # the same group in another basis: the full complex keeps its homology,
    # and level 1, where Sigma is trivial, still has a sign part
    plain = associated_complex(functions_on_cubes(RING_Q, 2), "full")
    assert all(associated_complex(A, "full").homology(n) == plain.homology(n) for n in range(3))
    assert sign_orbit_basis(A, 1, "Sigma").ncols == 2
    with pytest.raises(ValueError, match="level 2"):
        alternating_complex(A, "Sigma", "full")


@pytest.mark.parametrize(
    "make",
    [
        lambda: functions_on_cubes(RING_Z, 4),
        lambda: circle_chains(RING_Z, 3, extended=True),
        lambda: constant_cubical(RING_Z, 1, 3),
    ],
)
def test_alternating_comparison(make):
    rep = alternating_comparison(make())
    assert rep.ok, rep.table


def test_alternating_comparison_rational_ranks():
    # the 2-torsion edge of the extended circle is invisible over Q
    rep = alternating_comparison(circle_chains(RING_Z, 3, extended=True))
    ranks = {n: r0 for n, r0, _, _ in rep.table}
    assert ranks[0] == 1 and ranks[1] == 0


def test_alternating_comparison_refuses_an_empty_window():
    with pytest.raises(ValueError, match="empty window"):
        alternating_comparison(functions_on_cubes(RING_Z, 3), hi=-1)
    assert alternating_comparison(functions_on_cubes(RING_Z, 3), hi=0).window == (0, 0)


# ---------------------------------------------------------------------------
# The cup pairing.


def test_cup_pairing_is_chain_map():
    # construction runs the commutation check; reaching here is the assertion
    F = functions_on_cubes(RING_Z, 3)
    cup_pairing(F, F)
    C = circle_chains(RING_Z, 3, extended=False)
    cup_pairing(C, C)
    cup_pairing(C, F)


def test_cup_constant_collapses_to_sums():
    A = constant_cubical(RING_Z, 1, 3)
    pairing = cup_pairing(A, A)
    for deg in range(-3, 1):
        comp = pairing.map.comp(deg)
        assert comp.nrows == 1
        assert all(v == 1 for v in comp.rows[0])


def test_cup_associative_on_levels():
    F = functions_on_cubes(RING_Z, 3)
    G = diag_tensor(F, F)
    for a, b, c in [(1, 1, 1), (0, 1, 2), (1, 2, 0), (2, 1, 0)]:
        left = cup_on_levels(G, F, a + b, c) * cup_on_levels(F, F, a, b).kron(
            Matrix.identity(RING_Z, F.rank(c))
        )
        right = cup_on_levels(F, G, a, b + c) * Matrix.identity(RING_Z, F.rank(a)).kron(
            cup_on_levels(F, F, b, c)
        )
        assert left == right


def test_cup_degree_zero_is_plain_tensor():
    F = functions_on_cubes(RING_Z, 2)
    assert cup_on_levels(F, F, 0, 0) == Matrix.identity(RING_Z, 1).kron(
        Matrix.identity(RING_Z, 1)
    )


# ---------------------------------------------------------------------------
# Groups presented by generator matrices.


def test_generator_matrices_rebuild_functions():
    ref = functions_on_cubes(RING_Z, 2)
    mats = {tok: ref.act(g) for tok, g in generator_maps(2, extended=True).items()}
    built = cubical_from_generator_matrices(
        RING_Z, 2, ref.ranks, mats, extended=True, name="rebuilt"
    )
    for f in enumerate_homset(2, 1, extended=True, bound=2):
        assert built.act(f) == ref.act(f)
    for f in enumerate_homset(1, 2, extended=True, bound=2):
        assert built.act(f) == ref.act(f)
    red = associated_complex(built, "reduced")
    assert [red.level_rank(n) for n in range(3)] == [1, 1, 1]


def test_generator_matrices_detect_broken_functor():
    ref = functions_on_cubes(RING_Z, 2)
    mats = {tok: ref.act(g) for tok, g in generator_maps(2, extended=False).items()}
    # swapping one involution matrix for a non-permutation breaks the
    # relation tau . tau = id, which the closure walk must notice
    mats["tau(1,1)"] = Matrix(RING_Z, [[1, 1], [0, 1]])
    with pytest.raises(ValueError, match="functoriality"):
        cubical_from_generator_matrices(RING_Z, 2, ref.ranks, mats)


def test_generator_matrices_reject_missing_or_misshapen():
    ref = functions_on_cubes(RING_Z, 2)
    mats = {tok: ref.act(g) for tok, g in generator_maps(2, extended=False).items()}
    incomplete = dict(mats)
    del incomplete["p(1,1)"]
    with pytest.raises(ValueError, match="no matrix"):
        cubical_from_generator_matrices(RING_Z, 2, ref.ranks, incomplete)
    bad = dict(mats)
    bad["p(1,1)"] = Matrix.identity(RING_Z, 3)
    with pytest.raises(ValueError, match="shape"):
        cubical_from_generator_matrices(RING_Z, 2, ref.ranks, bad)


# ---------------------------------------------------------------------------
# Diagonal tensor sanity.


def test_diag_tensor_ranks_and_action():
    F = functions_on_cubes(RING_Z, 3)
    C = circle_chains(RING_Z, 3, extended=False)
    T = diag_tensor(F, C)
    for n in range(4):
        assert T.rank(n) == F.rank(n) * C.rank(n)
    f = compose(projection(2, 1), insertion(1, 1, 0))
    assert T.act(f) == F.act(f).kron(C.act(f))
    assert not T.extended
    E = diag_tensor(F, circle_chains(RING_Z, 3, extended=True))
    assert E.extended
    E.act(q_merge(2, 1))
