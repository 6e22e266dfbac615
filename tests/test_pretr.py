"""Twisted complexes: construction, Hom complexes, cones, tensors, totals,
truncations, homotopy Hom groups, idempotent completion, twist inversion.

The independent oracles are the classical complex constructions in linalg:
for a base concentrated in degree 0 every twisted object expands to a
numeric complex through incidence matrices, and the expansions must agree
literally (same ranks, same differential matrices) with hom_complex,
tensor_complex and cone_of_map of the expansions.
"""

import gc
import random
import weakref
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dgforge.dgcat import (
    HomElement,
    alternating_enrichment,
    build_fincor,
    build_vertex_cubes,
    complexes_category,
    cycles_category,
    fincor_elements,
    fincor_matrix,
    fincor_vector,
    truncate_nonpositive,
    validate_dg,
    validate_functor,
)
from dgforge.linalg import (
    Matrix,
    _columns_to_matrix,
    block_matrix,
    complex_homology,
    cone_of_map,
    hom_complex,
    hom_element_matrices,
    kernel,
    make_chain_map,
    make_complex,
    rank,
    restrict_vector,
    single_complex,
    solve,
    tensor_complex,
    two_term_complex,
)
from dgforge.pretr import (
    IdempotentObject,
    add_twisted,
    additive_from_twisted,
    assemble_twisted,
    commutativity,
    compose_twisted,
    cone,
    cone_reconstruction,
    cup,
    dsum_twisted,
    i0,
    i0_mor,
    idempotent_complete,
    invert_twist,
    is_closed,
    kb_hom,
    left_mult_matrix,
    make_twisted,
    morphism_bound,
    postcompose_chain_map,
    pretr_category,
    right_mult_matrix,
    scale_twisted,
    shift,
    shift_mor,
    strict_inverse,
    stupid_truncation,
    tensor_pair,
    tensor_twist_functor,
    tot_comparison,
    tot_morphism,
    total_complex,
    twisted_differential,
    twisted_from_additive,
    twisted_hom_complex,
    twisted_identity,
    twisted_morphism,
    unit_twisted,
    zero_morphism,
)
from util_gen import (
    random_closed_morphism,
    random_twisted,
    random_twisted_morphism,
)


@pytest.fixture(scope="module")
def cx():
    A = two_term_complex("Z", 0, Matrix("Z", [[2]]))
    B = make_complex("Z", -1, [1, 2, 1], [Matrix("Z", [[1], [0]]), Matrix("Z", [[0, 3]])])
    PT = single_complex("Z", 0, 1)
    B2 = make_complex("Z", -1, [1, 2, 1], [Matrix("Z", [[1], [0]]), Matrix("Z", [[0, 0]])])
    cat = complexes_category({"a": A, "b": B, "pt": PT, "c": B2})
    return cat, {"a": A, "b": B, "pt": PT, "c": B2}


@pytest.fixture(scope="module")
def fin():
    host, _ = build_fincor([("x", "y"), ("s",)], ring="Z", top=3)
    return host


@pytest.fixture(scope="module")
def altv():
    host, cocube = build_vertex_cubes(ring="Q", top=2, objects=(1, 2))
    return alternating_enrichment(host, cocube).tensor


def fincor_expand(E):
    """Numeric complex of a twisted complex over the correspondence base;
    blocks at equal index follow entry position order, which matches the
    layout of the twisted Hom and tensor constructions."""
    if not E.entries:
        return make_complex("Z", 0, [0])
    idxs = sorted(set(E.indices()))
    lo, hi = idxs[0], idxs[-1]
    groups = {
        i: [a for a in range(len(E.entries)) if E.idx(a) == i]
        for i in range(lo, hi + 1)
    }

    def size(a):
        return len(fincor_elements(E.obj(a)))

    ranks = [sum(size(a) for a in groups[i]) for i in range(lo, hi + 1)]
    diffs = []
    for i in range(lo, hi):
        if not groups[i + 1] or not groups[i]:
            diffs.append(Matrix.zero("Z", ranks[i + 1 - lo], ranks[i - lo]))
            continue
        rows = []
        for a2 in groups[i + 1]:
            row = []
            for a in groups[i]:
                elem = E.e_at(a2, a)
                if elem is None:
                    row.append(Matrix.zero("Z", size(a2), size(a)))
                else:
                    row.append(
                        Matrix("Z", fincor_matrix(elem), nrows=size(a2), ncols=size(a))
                    )
            rows.append(row)
        diffs.append(block_matrix("Z", rows))
    return make_complex("Z", lo, ranks, diffs)


def complexes_agree(X, Y):
    lo, hi = min(X.lo, Y.lo), max(X.hi, Y.hi)
    if any(X.rank(n) != Y.rank(n) for n in range(lo, hi + 1)):
        return False
    return all(X.d(n) == Y.d(n) for n in range(lo, hi))


def nilpotent_corr(C):
    A = (("x", "y"),)
    vec = fincor_vector(A, A, [(("x",), ("y",), 1)])
    return A, C.element(A, A, 0, vec)


# ---------------------------------------------------------------------------
# Construction and validation.


def test_structure_map_of_wrong_degree_is_rejected(cx):
    C, _ = cx
    bad = C.element("a", "a", 1, (1,))
    with pytest.raises(ValueError, match="degree"):
        make_twisted(C, {0: "a", 1: "a"}, {(1, 0): bad})


def test_structure_map_with_wrong_endpoints_is_rejected(cx):
    C, _ = cx
    f = random_closed_morphism(random.Random(0), i0(C, "a"), i0(C, "b")).comp_at(0, 0)
    assert f is not None
    with pytest.raises(ValueError, match="endpoints"):
        make_twisted(C, {0: "a", 1: "a"}, {(1, 0): f})


def test_maurer_cartan_failure_reports_the_indices(cx):
    C, _ = cx
    nonclosed = C.element("a", "a", 0, (1, 0))
    assert not C.differential(nonclosed).is_zero()
    with pytest.raises(ValueError, match=r"Maurer-Cartan identity fails at \(1, 0\)"):
        make_twisted(C, {0: "a", 1: "a"}, {(1, 0): nonclosed})


def test_declared_bound_must_cover_the_structure_maps(cx):
    C, _ = cx
    f = random_closed_morphism(random.Random(1), i0(C, "a"), i0(C, "a"))
    elem = f.comp_at(0, 0)
    if elem is None:
        elem = C.identity("a")
    with pytest.raises(ValueError, match="bound"):
        make_twisted(C, {0: "a", 1: "a"}, {(1, 0): elem}, e_bound=-1)
    E = make_twisted(C, {0: "a", 1: "a"}, {(1, 0): elem})
    assert E.e_bound == 0


def test_entries_may_repeat_an_index(fin):
    C = fin.category
    A, e = nilpotent_corr(C)
    E = assemble_twisted(C, [(0, A), (0, A), (1, A)], {(2, 0): e, (2, 1): e})
    assert E.indices() == (0, 0, 1)
    H = twisted_hom_complex(E, E)
    # every index-preserving entry pair contributes a rank-4 block: the two
    # repeats at index 0 give four blocks, the top entry one more
    assert H.complex.rank(0) == 5 * 4


def test_additive_dictionary_accepts_exactly_complexes(fin):
    C = fin.category
    A, e = nilpotent_corr(C)
    E = twisted_from_additive(C, {0: A, 1: A, 2: A}, {0: e, 1: e})
    objs, diffs = additive_from_twisted(E)
    assert objs == {0: A, 1: A, 2: A}
    assert diffs == {0: e, 1: e}
    notsq = C.element(A, A, 0, fincor_vector(A, A, [(("x",), ("y",), 1), (("y",), ("x",), 1)]))
    assert not C.compose(notsq, notsq).is_zero()
    with pytest.raises(ValueError, match="Maurer-Cartan"):
        twisted_from_additive(C, {0: A, 1: A, 2: A}, {0: notsq, 1: notsq})


def test_additive_round_trip_is_bit_exact_seeded(fin):
    C = fin.category
    A, e = nilpotent_corr(C)
    S = (("s",),)
    rng = random.Random(23)
    for _ in range(40):
        fvec = tuple(rng.randint(-2, 2) for _ in range(4))
        f = C.element(A, A, 0, fvec)
        # g x f = 0 by sending only the points f never hits
        hit = [r for r in range(2) if any(fvec[r * 2 + c] for c in range(2))]
        gmat = [[0 if c in hit else rng.randint(-2, 2) for c in range(2)]]
        gvec = tuple(gmat[0][c] for c in range(2))
        g = C.element(A, S, 0, gvec)
        if not C.compose(g, f).is_zero():
            continue
        objs = {-1: A, 0: A, 1: S}
        diffs = {-1: f, 0: g}
        E = twisted_from_additive(C, objs, diffs)
        o2, d2 = additive_from_twisted(E)
        assert o2 == objs
        assert {k: v for k, v in d2.items()} == {k: v for k, v in diffs.items() if not v.is_zero()}


# ---------------------------------------------------------------------------
# The Hom complex and its differential.


def test_hom_complex_rejects_mismatched_bases(cx, fin):
    C, _ = cx
    with pytest.raises(ValueError, match="bases"):
        twisted_hom_complex(i0(C, "a"), i0(fin.category, ()))


def test_twisted_hom_coordinates_must_be_exact():
    C = build_vertex_cubes(ring="Z", top=1, objects=(1,))[0].category
    H = twisted_hom_complex(i0(C, 1), i0(C, 1))
    with pytest.raises(ValueError):
        H.element(0, (0.5,))
    assert H.element(0, (3,)).comps[0][1].vector == (3,)


def test_hom_differential_squares_to_zero_seeded(cx):
    C, _ = cx
    keys = list(C.objects)
    rng = random.Random(101)
    built = 0
    for _ in range(60):
        E = random_twisted(rng, C, keys, depth=2, max_entries=4)
        F = random_twisted(rng, C, keys, depth=2, max_entries=4)
        # construction validates d^2 = 0 exactly; the elementwise route below
        # is the independent second computation of the same differential
        H = twisted_hom_complex(E, F)
        built += 1
        for n in H.complex.degrees():
            if not H.complex.rank(n):
                continue
            b = H.element(n, tuple(rng.randint(-2, 2) for _ in range(H.complex.rank(n))))
            assert twisted_differential(twisted_differential(b)).is_zero()
            vec = H.vector(twisted_differential(b))
            mat = H.complex.d(n) * Matrix.column("Z", list(H.vector(b)))
            assert vec == tuple(mat.rows[r][0] for r in range(mat.nrows))
    assert built == 60


@given(st.integers(0, 10 ** 6))
def test_hom_differential_and_leibniz_hold_on_random_instances(seed):
    cat = complexes_category({
        "a": two_term_complex("Z", 0, Matrix("Z", [[2]])),
        "pt": single_complex("Z", 0, 1),
    })
    rng = random.Random(seed)
    E = random_twisted(rng, cat, ["a", "pt"], depth=2, max_entries=3)
    F = random_twisted(rng, cat, ["a", "pt"], depth=2, max_entries=3)
    G = random_twisted(rng, cat, ["a", "pt"], depth=1, max_entries=2)
    phi = random_twisted_morphism(rng, E, F)
    psi = random_twisted_morphism(rng, F, G)
    assert twisted_differential(twisted_differential(phi)).is_zero()
    lhs = twisted_differential(compose_twisted(psi, phi))
    sgn = -1 if psi.degree % 2 else 1
    rhs = add_twisted(
        compose_twisted(twisted_differential(psi), phi),
        scale_twisted(compose_twisted(psi, twisted_differential(phi)), sgn),
    )
    assert lhs == rhs


def test_leibniz_rule_seeded(cx):
    C, _ = cx
    keys = list(C.objects)
    rng = random.Random(77)
    nonzero = 0
    for _ in range(50):
        E = random_twisted(rng, C, keys, depth=2, max_entries=4)
        F = random_twisted(rng, C, keys, depth=2, max_entries=4)
        G = random_twisted(rng, C, keys, depth=2, max_entries=4)
        phi = random_twisted_morphism(rng, E, F)
        psi = random_twisted_morphism(rng, F, G)
        lhs = twisted_differential(compose_twisted(psi, phi))
        sgn = -1 if psi.degree % 2 else 1
        rhs = add_twisted(
            compose_twisted(twisted_differential(psi), phi),
            scale_twisted(compose_twisted(psi, twisted_differential(phi)), sgn),
        )
        assert lhs == rhs
        if not lhs.is_zero():
            nonzero += 1
    assert nonzero >= 15


def test_additive_hom_matches_the_classical_assembly(fin):
    C = fin.category
    A, e = nilpotent_corr(C)
    S = (("s",),)
    two = C.element(S, A, 0, fincor_vector(S, A, [(("s",), ("x",), 2)]))
    E = make_twisted(C, {0: A, 1: A, 2: A}, {(1, 0): e, (2, 1): e})
    F = make_twisted(C, {0: S, 1: A}, {(1, 0): two})
    for X, Y in ((E, F), (F, E), (E, E)):
        H = twisted_hom_complex(X, Y).complex
        HN = hom_complex(fincor_expand(X), fincor_expand(Y))
        assert complexes_agree(H, HN)


def twisted_differential_flat(phi):
    """Negative control: the differential without the index-parity sign on
    the d-term, i.e. the signed one plus 2 d(u) on every component whose
    target entry sits at an odd index.  The two agree over bases with zero
    differential and when all target indices are even."""
    C = phi.source.base
    extra = {
        key: C.scale(C.differential(u), 2)
        for key, u in phi.comps
        if phi.target.idx(key[0]) % 2
    }
    return add_twisted(
        twisted_differential(phi),
        twisted_morphism(phi.source, phi.target, phi.degree + 1, extra),
    )


def test_unsigned_variant_fails_to_square_at_odd_indices(cx):
    C, _ = cx
    F = make_twisted(C, {0: "a", 1: "a"}, {(1, 0): C.identity("a")})
    E = i0(C, "a")
    H = twisted_hom_complex(E, F)

    def flat_matrix(n):
        cols = [H.vector(twisted_differential_flat(b)) for b in H.basis(n)]
        rows = H.complex.rank(n + 1)
        return Matrix(
            "Z", [[c[r] for c in cols] for r in range(rows)],
            nrows=rows, ncols=len(cols),
        )

    squares = [
        flat_matrix(n + 1) * flat_matrix(n)
        for n in list(H.complex.degrees())[:-2]
    ]
    assert any(not m.is_zero() for m in squares)
    for n in H.complex.degrees():
        for b in H.basis(n):
            assert twisted_differential(twisted_differential(b)).is_zero()


def test_unsigned_variant_agrees_on_even_indices_and_zero_differential(cx, fin):
    C, _ = cx
    F2 = make_twisted(C, {0: "a", 2: "a"}, {})
    E = i0(C, "a")
    H = twisted_hom_complex(E, F2)
    for n in H.complex.degrees():
        for b in H.basis(n):
            assert twisted_differential(b) == twisted_differential_flat(b)
    Cf = fin.category
    A, e = nilpotent_corr(Cf)
    Y = make_twisted(Cf, {0: A, 1: A}, {(1, 0): e})
    rng = random.Random(3)
    for _ in range(10):
        phi = random_twisted_morphism(rng, Y, Y)
        assert twisted_differential(phi) == twisted_differential_flat(phi)


def test_component_degree_bounds_seeded(cx):
    C, _ = cx
    keys = list(C.objects)
    rng = random.Random(5)
    checked = 0
    for _ in range(60):
        E = random_twisted(rng, C, keys, depth=2, max_entries=4)
        F = random_twisted(rng, C, keys, depth=2, max_entries=4)
        G = random_twisted(rng, C, keys, depth=1, max_entries=3)
        phi = random_twisted_morphism(rng, E, F)
        psi = random_twisted_morphism(rng, F, G)
        bp, bq = morphism_bound(phi), morphism_bound(psi)
        bd = morphism_bound(twisted_differential(phi))
        if bd is not None and bp is not None:
            checked += 1
            assert bd <= max(E.e_bound, F.e_bound, 1) + bp
        bc = morphism_bound(compose_twisted(psi, phi))
        if bc is not None and bp is not None and bq is not None:
            assert bc <= bq + bp
    assert checked >= 30


# ---------------------------------------------------------------------------
# Composition algebra.


def test_composition_is_associative_and_bilinear_seeded(cx):
    C, _ = cx
    keys = list(C.objects)
    rng = random.Random(13)
    for _ in range(30):
        E = random_twisted(rng, C, keys, depth=1, max_entries=3)
        F = random_twisted(rng, C, keys, depth=1, max_entries=3)
        G = random_twisted(rng, C, keys, depth=1, max_entries=3)
        f = random_twisted_morphism(rng, E, F)
        f2 = random_twisted_morphism(rng, E, F, degree=f.degree)
        g = random_twisted_morphism(rng, F, G)
        h = random_twisted_morphism(rng, G, E)
        assert compose_twisted(h, compose_twisted(g, f)) == compose_twisted(
            compose_twisted(h, g), f
        )
        assert compose_twisted(g, add_twisted(f, f2)) == add_twisted(
            compose_twisted(g, f), compose_twisted(g, f2)
        )
        assert compose_twisted(g, twisted_identity(F)) == g
        assert compose_twisted(twisted_identity(G), g) == g
        assert compose_twisted(g, scale_twisted(f, 3)) == scale_twisted(
            compose_twisted(g, f), 3
        )


# ---------------------------------------------------------------------------
# Shift.


def test_shift_by_zero_is_the_identity_and_shifts_add(cx):
    C, _ = cx
    rng = random.Random(21)
    for _ in range(20):
        E = random_twisted(rng, C, list(C.objects), depth=2, max_entries=4)
        assert shift(E, 0) == E
        assert shift(shift(E, 1), 1) == shift(E, 2)
        assert shift(shift(E, 1), -1) == E


def test_shift_of_morphisms_is_a_dg_isomorphism(cx):
    C, _ = cx
    keys = list(C.objects)
    rng = random.Random(31)
    for _ in range(30):
        E = random_twisted(rng, C, keys, depth=2, max_entries=3)
        F = random_twisted(rng, C, keys, depth=2, max_entries=3)
        G = random_twisted(rng, C, keys, depth=1, max_entries=2)
        phi = random_twisted_morphism(rng, E, F)
        psi = random_twisted_morphism(rng, F, G)
        n = rng.choice((-2, -1, 1, 2))
        assert shift_mor(phi, 0) == phi
        assert twisted_differential(shift_mor(phi, n)) == shift_mor(
            twisted_differential(phi), n
        )
        assert shift_mor(compose_twisted(psi, phi), n) == compose_twisted(
            shift_mor(psi, n), shift_mor(phi, n)
        )


def test_shift_preserves_homotopy_hom_groups(cx):
    C, _ = cx
    rng = random.Random(41)
    for _ in range(6):
        E = random_twisted(rng, C, list(C.objects), depth=2, max_entries=3)
        F = random_twisted(rng, C, list(C.objects), depth=2, max_entries=3)
        for n in range(-2, 3):
            assert kb_hom(shift(E, 1), shift(F, 1), n).describe() == kb_hom(
                E, F, n
            ).describe()


# ---------------------------------------------------------------------------
# Cone.


def test_cone_requires_a_closed_degree_zero_morphism(cx):
    C, _ = cx
    E = i0(C, "a")
    with pytest.raises(ValueError, match="closed degree-0"):
        cone(random_twisted_morphism(random.Random(2), E, E, degree=1))
    nonclosed = twisted_morphism(E, E, 0, {(0, 0): C.element("a", "a", 0, (1, 0))})
    assert not is_closed(nonclosed)
    with pytest.raises(ValueError, match="closed degree-0"):
        cone(nonclosed)


def test_cone_structure_morphisms_seeded(cx):
    C, _ = cx
    keys = list(C.objects)
    rng = random.Random(53)
    for _ in range(30):
        E = random_twisted(rng, C, keys, depth=1, max_entries=3)
        F = random_twisted(rng, C, keys, depth=1, max_entries=3)
        phi = random_closed_morphism(rng, E, F)
        K = cone(phi)
        assert is_closed(K.incl)
        assert is_closed(K.proj)
        assert compose_twisted(K.proj, K.incl).is_zero()
        assert K.proj.target == shift(E, 1)


def test_cone_of_the_identity_is_contractible(cx):
    C, _ = cx
    rng = random.Random(59)
    E = random_twisted(rng, C, list(C.objects), depth=2, max_entries=3)
    K = cone(twisted_identity(E)).cone
    for T in (i0(C, "pt"), E):
        for n in range(-3, 4):
            assert kb_hom(T, K, n).is_zero()
    for n in range(-3, 4):
        assert kb_hom(K, K, n).is_zero()


def test_cone_of_zero_is_the_shifted_direct_sum(cx):
    C, _ = cx
    rng = random.Random(61)
    for _ in range(15):
        E = random_twisted(rng, C, list(C.objects), depth=1, max_entries=3)
        F = random_twisted(rng, C, list(C.objects), depth=1, max_entries=3)
        assert cone(zero_morphism(E, F)).cone == dsum_twisted(F, shift(E, 1))


def test_cone_matches_the_classical_mapping_cone(cx):
    C, comps = cx
    rng = random.Random(11)
    Ea, Eb, Ept = i0(C, "a"), i0(C, "b"), i0(C, "pt")
    phi = random_closed_morphism(rng, Ea, Eb)
    vec = twisted_hom_complex(Ea, Eb).vector(phi)
    K = cone(phi).cone
    f = make_chain_map(
        comps["a"], comps["b"], hom_element_matrices(comps["a"], comps["b"], 0, vec)
    )
    cone_num, _, _ = cone_of_map(f)
    HT = twisted_hom_complex(Ept, K).complex
    HN = hom_complex(comps["pt"], cone_num)
    assert complexes_agree(HT, HN)
    for n in range(-2, 3):
        assert kb_hom(Ept, K, n).describe() == complex_homology(cone_num, n).describe()


def test_cone_hom_groups_fit_the_long_sequence(cx):
    C, _ = cx
    rng = random.Random(67)
    T = i0(C, "pt")
    E, F = i0(C, "pt"), i0(C, "c")
    phi = random_closed_morphism(rng, E, F)
    K = cone(phi)
    fmap = postcompose_chain_map(phi, T)
    imap = postcompose_chain_map(K.incl, T)
    pmap = postcompose_chain_map(K.proj, T)

    def induced_rank(ch, n):
        cyc = kernel(ch.source.d(n))
        bnd = ch.target.d(n - 1)
        return rank((ch.comp(n) * cyc).hstack(bnd)) - rank(bnd)

    nontrivial = 0
    for n in range(-1, 3):
        hmid = complex_homology(fmap.target, n).free_rank
        assert induced_rank(fmap, n) + induced_rank(imap, n) == hmid
        hk = complex_homology(imap.target, n).free_rank
        assert induced_rank(imap, n) + induced_rank(pmap, n) == hk
        nontrivial += hmid + hk
        cyc = kernel(fmap.source.d(n))
        comp = imap.comp(n) * fmap.comp(n) * cyc
        if comp.ncols and not comp.is_zero():
            assert solve(imap.target.d(n - 1), comp) is not None
    assert nontrivial > 0


# ---------------------------------------------------------------------------
# Tensor structure, cup product, commutativity constraint.


def test_tensor_unit_laws_are_strict(fin, altv):
    for T in (fin, altv):
        C = T.category
        rng = random.Random(71)
        for _ in range(10):
            E = random_twisted(rng, C, list(C.objects), depth=2, max_entries=3)
            U = unit_twisted(T)
            assert tensor_pair(T, U, E) == E
            assert tensor_pair(T, E, U) == E


def test_tensor_is_strictly_associative(fin, altv):
    for T in (fin, altv):
        C = T.category
        rng = random.Random(73)
        for _ in range(8):
            E = random_twisted(rng, C, list(C.objects), depth=2, max_entries=3)
            F = random_twisted(rng, C, list(C.objects), depth=1, max_entries=2)
            G = random_twisted(rng, C, list(C.objects), depth=1, max_entries=2)
            assert tensor_pair(T, tensor_pair(T, E, F), G) == tensor_pair(
                T, E, tensor_pair(T, F, G)
            )


def test_tensor_objects_satisfy_maurer_cartan_seeded(altv):
    C = altv.category
    rng = random.Random(79)
    built = 0
    for _ in range(25):
        E = random_twisted(rng, C, list(C.objects), depth=2, max_entries=3)
        F = random_twisted(rng, C, list(C.objects), depth=2, max_entries=3)
        # the constructor re-validates the identity on the assembled maps
        tensor_pair(altv, E, F)
        built += 1
    assert built == 25


def test_tensor_matches_the_classical_tensor_complex(fin):
    C = fin.category
    A, e = nilpotent_corr(C)
    S = (("s",),)
    two = C.element(S, A, 0, fincor_vector(S, A, [(("s",), ("x",), 2)]))
    E = make_twisted(C, {0: A, 1: A, 2: A}, {(1, 0): e, (2, 1): e})
    F = make_twisted(C, {0: S, 1: A}, {(1, 0): two})
    for X, Y in ((E, F), (F, E), (F, F)):
        TN = tensor_complex(fincor_expand(X), fincor_expand(Y))
        assert complexes_agree(fincor_expand(tensor_pair(fin, X, Y)), TN)


def test_cup_is_a_chain_map_seeded(altv):
    C = altv.category
    rng = random.Random(83)
    nonzero = 0
    for _ in range(40):
        E = random_twisted(rng, C, list(C.objects), depth=1, max_entries=2)
        F = random_twisted(rng, C, list(C.objects), depth=1, max_entries=2)
        E2 = random_twisted(rng, C, list(C.objects), depth=1, max_entries=2)
        F2 = random_twisted(rng, C, list(C.objects), depth=1, max_entries=2)
        phi = random_twisted_morphism(rng, E, F)
        psi = random_twisted_morphism(rng, E2, F2)
        lhs = twisted_differential(cup(altv, phi, psi))
        sgn = -1 if phi.degree % 2 else 1
        rhs = add_twisted(
            cup(altv, twisted_differential(phi), psi),
            scale_twisted(cup(altv, phi, twisted_differential(psi)), sgn),
        )
        assert lhs == rhs
        if not lhs.is_zero():
            nonzero += 1
    assert nonzero >= 10


def test_cup_interchange_sign_seeded(altv):
    C = altv.category
    rng = random.Random(19)
    nontrivial = 0
    for _ in range(40):
        X = random_twisted(rng, C, list(C.objects), depth=2, max_entries=3)
        Y = random_twisted(rng, C, list(C.objects), depth=1, max_entries=2)
        phi2 = random_twisted_morphism(rng, X, X)
        phi = random_twisted_morphism(rng, X, X)
        psi2 = random_twisted_morphism(rng, Y, Y)
        psi = random_twisted_morphism(rng, Y, Y)
        lhs = compose_twisted(cup(altv, phi, psi), cup(altv, phi2, psi2))
        sgn = -1 if (psi.degree * phi2.degree) % 2 else 1
        rhs = scale_twisted(
            cup(altv, compose_twisted(phi, phi2), compose_twisted(psi, psi2)), sgn
        )
        assert lhs == rhs
        if not lhs.is_zero():
            nontrivial += 1
    assert nontrivial >= 8


def test_cup_of_identities_and_shift_compatibility(fin, altv):
    for T in (fin, altv):
        C = T.category
        rng = random.Random(29)
        for _ in range(8):
            E = random_twisted(rng, C, list(C.objects), depth=1, max_entries=2)
            F = random_twisted(rng, C, list(C.objects), depth=1, max_entries=2)
            assert cup(T, twisted_identity(E), twisted_identity(F)) == twisted_identity(
                tensor_pair(T, E, F)
            )
            assert tensor_pair(T, shift(E, 1), F) == shift(tensor_pair(T, E, F), 1)
            phi = random_twisted_morphism(rng, E, E)
            psi = random_twisted_morphism(rng, F, F)
            assert cup(T, shift_mor(phi, 1), psi) == shift_mor(cup(T, phi, psi), 1)


def test_commutativity_constraint_laws_seeded(altv):
    C = altv.category
    rng = random.Random(19)
    nontrivial = 0
    for _ in range(30):
        E = random_twisted(rng, C, list(C.objects), depth=1, max_entries=2)
        E2 = random_twisted(rng, C, list(C.objects), depth=1, max_entries=2)
        F = random_twisted(rng, C, list(C.objects), depth=1, max_entries=2)
        F2 = random_twisted(rng, C, list(C.objects), depth=1, max_entries=2)
        tau = commutativity(altv, E, F)
        assert is_closed(tau)
        back = commutativity(altv, F, E)
        assert compose_twisted(back, tau) == twisted_identity(tensor_pair(altv, E, F))
        phi = random_twisted_morphism(rng, E, E2)
        psi = random_twisted_morphism(rng, F, F2)
        lhs = compose_twisted(cup(altv, psi, phi), tau)
        sgn = -1 if (phi.degree * psi.degree) % 2 else 1
        rhs = scale_twisted(
            compose_twisted(commutativity(altv, E2, F2), cup(altv, phi, psi)), sgn
        )
        assert lhs == rhs
        if not lhs.is_zero():
            nontrivial += 1
    assert nontrivial >= 15


def test_commutativity_factors_through_pairwise_swaps(fin, altv):
    for T in (fin, altv):
        C = T.category
        rng = random.Random(37)
        for _ in range(4):
            E = random_twisted(rng, C, list(C.objects), depth=1, max_entries=2)
            F = random_twisted(rng, C, list(C.objects), depth=1, max_entries=2)
            G = random_twisted(rng, C, list(C.objects), depth=1, max_entries=2)
            lhs = commutativity(T, E, tensor_pair(T, F, G))
            rhs = compose_twisted(
                cup(T, twisted_identity(F), commutativity(T, E, G)),
                cup(T, commutativity(T, E, F), twisted_identity(G)),
            )
            assert lhs == rhs


# ---------------------------------------------------------------------------
# The category of twisted complexes and total complexes.


def test_twisted_complexes_form_a_dg_category(cx, altv):
    # the validator sweep is cubic in hom ranks, so the objects are kept
    # small; the seeds are chosen so at least two twists are nonzero and
    # the Leibniz check sees the twist-corrected differential
    C, _ = cx
    rng = random.Random(17)
    tcs = {}
    for i in range(3):
        tcs["t%d" % i] = random_twisted(rng, C, list(C.objects), depth=1, max_entries=2)
    assert sum(len(tc.e) for tc in tcs.values()) >= 2
    P = pretr_category(C, tcs)
    assert validate_dg(P).ok
    Cv = altv.category
    rng = random.Random(36)
    tcs2 = {}
    for i in range(2):
        tcs2["v%d" % i] = random_twisted(rng, Cv, list(Cv.objects), depth=2, max_entries=2)
    assert sum(len(tc.e) for tc in tcs2.values()) >= 2
    assert validate_dg(pretr_category(Cv, tcs2)).ok


def test_known_homotopy_hom_groups(cx, fin):
    C, comps = cx
    assert kb_hom(i0(C, "pt"), i0(C, "pt"), 0).describe() == "Z"
    assert kb_hom(i0(C, "a"), i0(C, "a"), 0).describe() == "Z/2"
    assert complex_homology(hom_complex(comps["a"], comps["a"]), 0).describe() == "Z/2"
    Cf = fin.category
    A, _ = nilpotent_corr(Cf)
    g = kb_hom(i0(Cf, A), i0(Cf, A), 0)
    assert g.describe() == "Z^4"


def test_total_complex_of_a_plain_wrapper_is_the_inner_object(cx):
    C, _ = cx
    rng = random.Random(47)
    E = random_twisted(rng, C, list(C.objects), depth=2, max_entries=3)
    P = pretr_category(C, {"E": E})
    assert total_complex(i0(P, "E")) == E


def _nested_fixture(C, rng, depth=2):
    # retry until the connecting morphism is nonzero, otherwise the nested
    # object degenerates to a direct sum and the tests below say nothing
    for _ in range(20):
        E = random_twisted(rng, C, list(C.objects), depth=depth, max_entries=3)
        F = random_twisted(rng, C, list(C.objects), depth=depth, max_entries=3)
        f = random_closed_morphism(rng, F, E)
        if not f.is_zero():
            break
    assert not f.is_zero()
    P = pretr_category(C, {"E": E, "F": F})
    elem = P.as_element("F", "E", f)
    EE = make_twisted(P, {0: "F", 1: "E"}, {(1, 0): elem})
    return P, EE


def test_total_comparison_maps_are_mutually_inverse(cx):
    C, _ = cx
    rng = random.Random(3)
    P, EE = _nested_fixture(C, rng)
    T, rho, lam = tot_comparison(EE, key="tot")
    assert is_closed(rho) and rho.degree == 0
    assert is_closed(lam) and lam.degree == 0
    assert compose_twisted(rho, lam) == twisted_identity(EE)
    assert compose_twisted(lam, rho) == twisted_identity(i0(P, "tot"))


def test_total_complex_is_a_dg_functor_seeded(cx):
    C, _ = cx
    rng = random.Random(7)
    P, EE = _nested_fixture(C, rng)
    assert tot_morphism(twisted_identity(EE)) == twisted_identity(total_complex(EE))
    for _ in range(15):
        a = random_twisted_morphism(rng, EE, EE)
        b = random_twisted_morphism(rng, EE, EE)
        assert tot_morphism(twisted_differential(a)) == twisted_differential(
            tot_morphism(a)
        )
        assert tot_morphism(compose_twisted(a, b)) == compose_twisted(
            tot_morphism(a), tot_morphism(b)
        )


def test_total_complex_intertwines_shift_and_cone(cx):
    C, _ = cx
    rng = random.Random(9)
    P, EE = _nested_fixture(C, rng)
    assert total_complex(shift(EE, 1)) == shift(total_complex(EE), 1)
    elem = EE.e_at(1, 0)
    Phi = i0_mor(P, elem)
    assert total_complex(cone(Phi).cone) == cone(tot_morphism(Phi)).cone


def test_total_comparison_is_natural(cx):
    C, _ = cx
    rng = random.Random(15)
    P, EE = _nested_fixture(C, rng)
    Phi = random_closed_morphism(rng, EE, EE)
    T, rho, lam = tot_comparison(EE, key="tot2")
    wrapped = i0_mor(P, P.as_element("tot2", "tot2", tot_morphism(Phi)))
    assert compose_twisted(Phi, rho) == compose_twisted(rho, wrapped)
    assert compose_twisted(lam, Phi) == compose_twisted(wrapped, lam)


def test_double_complex_total_matches_hand_assembly(fin):
    C = fin.category
    A, e = nilpotent_corr(C)
    S = (("s",),)
    two = C.element(S, A, 0, fincor_vector(S, A, [(("s",), ("x",), 2)]))
    E = make_twisted(C, {0: A, 1: A}, {(1, 0): e})
    F = make_twisted(C, {0: S, 1: A}, {(1, 0): two})
    P = pretr_category(C, {"E": E, "F": F})
    HD = P.hom_data("F", "E")
    K0 = kernel(HD.complex.d(0))
    assert K0.ncols
    vec = tuple(K0.rows[r][0] for r in range(K0.nrows))
    elem = P.as_element("F", "E", HD.element(0, vec))
    EE = make_twisted(P, {0: "F", 1: "E"}, {(1, 0): elem})
    mor = P.as_morphism(elem)
    En, Fn = fincor_expand(E), fincor_expand(F)

    def mor_matrix(n):
        src, tgt = mor.source, mor.target
        sg = [a for a in range(len(src.entries)) if src.idx(a) == n]
        tg = [a for a in range(len(tgt.entries)) if tgt.idx(a) == n]

        def size(tc, a):
            return len(fincor_elements(tc.obj(a)))

        nr = sum(size(tgt, a) for a in tg)
        nc = sum(size(src, a) for a in sg)
        if not tg or not sg:
            return Matrix.zero("Z", nr, nc)
        rows = []
        for a2 in tg:
            row = []
            for a in sg:
                el = mor.comp_at(a2, a)
                if el is None:
                    row.append(Matrix.zero("Z", size(tgt, a2), size(src, a)))
                else:
                    row.append(
                        Matrix("Z", fincor_matrix(el), nrows=size(tgt, a2), ncols=size(src, a))
                    )
            rows.append(row)
        return block_matrix("Z", rows)

    lo = min(Fn.lo, En.lo + 1)
    hi = max(Fn.hi, En.hi + 1)
    diffs = []
    for n in range(lo, hi):
        tl = Fn.d(n)
        tr = Matrix.zero("Z", Fn.rank(n + 1), En.rank(n - 1))
        bl = mor_matrix(n)
        br = En.d(n - 1).scale(-1)
        diffs.append(block_matrix("Z", [[tl, tr], [bl, br]]))
    hand = make_complex(
        "Z", lo, [Fn.rank(n) + En.rank(n - 1) for n in range(lo, hi + 1)], diffs
    )
    assert complexes_agree(hand, fincor_expand(total_complex(EE)))


# ---------------------------------------------------------------------------
# Stupid truncation and the top-index cone reconstruction.


def test_truncation_requires_a_nonpositive_base(cx):
    C, _ = cx
    Y = i0(C, "a")
    with pytest.raises(ValueError, match="non-positive"):
        stupid_truncation(Y, "le", 0)


def test_truncation_identity_and_composition_laws(fin):
    C = fin.category
    A, e = nilpotent_corr(C)
    Y = make_twisted(C, {0: A, 1: A, 2: A}, {(1, 0): e, (2, 1): e})
    assert stupid_truncation(Y, "le", 5).complex == Y
    with pytest.raises(ValueError, match="mode"):
        stupid_truncation(Y, "up", 1)
    t1 = stupid_truncation(Y, "le", 1)
    t0 = stupid_truncation(Y, "le", 0)
    assert compose_twisted(stupid_truncation(t1.complex, "le", 0).map, t1.map) == t0.map
    g1 = stupid_truncation(Y, "ge", 1)
    g2 = stupid_truncation(Y, "ge", 2)
    assert compose_twisted(g1.map, stupid_truncation(g1.complex, "ge", 2).map) == g2.map
    assert is_closed(t1.map) and is_closed(g1.map)


def test_top_cone_reconstruction_over_correspondences(fin):
    C = fin.category
    A, e = nilpotent_corr(C)
    Y = make_twisted(C, {0: A, 1: A, 2: A}, {(1, 0): e, (2, 1): e})
    w, u, v = cone_reconstruction(Y)
    assert is_closed(w)
    assert compose_twisted(u, v) == twisted_identity(u.target)
    assert compose_twisted(v, u) == twisted_identity(Y)


def test_top_cone_reconstruction_over_the_alternating_base(altv):
    C = altv.category
    rng = random.Random(91)
    E1, E2 = i0(C, 1), i0(C, 2)
    phi = random_closed_morphism(rng, E1, E2)
    Y = cone(phi).cone
    w, u, v = cone_reconstruction(Y)
    assert is_closed(w)
    assert compose_twisted(v, u) == twisted_identity(Y)


def test_reconstruction_rejects_repeated_indices(fin):
    C = fin.category
    A, _ = nilpotent_corr(C)
    E = assemble_twisted(C, [(0, A), (0, A)], {})
    with pytest.raises(ValueError, match="one entry per index"):
        cone_reconstruction(E)


# ---------------------------------------------------------------------------
# Idempotent completion.


def one_point_projector(C):
    A = (("x", "y"),)
    vec = fincor_vector(A, A, [(("x",), ("x",), 1), (("y",), ("x",), 1)])
    return A, C.element(A, A, 0, vec)


def test_idempotent_validation_errors(cx, fin):
    C, _ = cx
    with pytest.raises(ValueError, match="degree 0"):
        idempotent_complete(C, {"x": IdempotentObject("a", C.element("a", "a", 1, (1,)))})
    with pytest.raises(ValueError, match="closed"):
        idempotent_complete(C, {"x": IdempotentObject("a", C.element("a", "a", 0, (1, 0)))})
    Cf = fin.category
    A, e = nilpotent_corr(Cf)
    notp = Cf.add(Cf.identity(A), e)
    with pytest.raises(ValueError, match="idempotent"):
        idempotent_complete(Cf, {"x": IdempotentObject(A, notp)})


def test_identity_idempotents_embed_the_category(cx):
    C, _ = cx
    K = idempotent_complete(C)
    assert K.objects == C.objects
    assert validate_dg(K).ok
    for x in C.objects:
        for y in C.objects:
            cxy = C.hom(x, y)
            for n in cxy.degrees():
                assert K.hom(x, y).rank(n) == cxy.rank(n)


def test_projector_splitting_witnesses(fin):
    C = fin.category
    A, p = one_point_projector(C)
    assert C.compose(p, p) == p
    q = C.add(C.identity(A), C.scale(p, -1))
    K = idempotent_complete(C, {
        "one": IdempotentObject(A, C.identity(A)),
        "p": IdempotentObject(A, p),
        "q": IdempotentObject(A, q),
    })
    assert validate_dg(K).ok
    assert K.hom("p", "p").rank(0) == 1
    assert K.hom("one", "one").rank(0) == 4
    u = K.embed("p", "one", p)
    r = K.embed("one", "p", p)
    v = K.embed("q", "one", q)
    s = K.embed("one", "q", q)
    assert K.compose(r, u) == K.identity("p")
    assert K.compose(s, v) == K.identity("q")
    assert K.add(K.compose(u, r), K.compose(v, s)) == K.identity("one")
    assert K.compose(r, v).is_zero()
    assert K.compose(s, u).is_zero()


def test_completion_keeps_differentials_inside_the_image(cx):
    C, _ = cx
    # a closed projector with nonzero ambient differential around it: the
    # image complexes must still close up degreewise
    K = idempotent_complete(C)
    g = K.hom("a", "b")
    assert complexes_agree(g, C.hom("a", "b"))


# Oracles for composition in the categories built on a base: the
# unit-vector `compose` routes that the composition matrices replaced.  Each
# runs on a twin of the base (a fresh category on the same objects), whose
# `compose` has no composition matrix cached and so takes the vector route.


def fin_twin():
    return build_fincor([("x", "y"), ("s",)], ring="Z", top=3)[0]


def left_mult_by_compose(C, x, y, z, g, q):
    """h -> g o h on Hom(x,y)^q, one `compose` per basis vector h."""
    cols = [C.compose(g, h).vector for h in C.basis(x, y, q)]
    return _columns_to_matrix(C.ring, C.hom(x, z).rank(q + g.degree), cols)


def right_mult_by_compose(C, x, y, z, f, p):
    """h -> h o f on Hom(y,z)^p, one `compose` per basis vector h."""
    cols = [C.compose(h, f).vector for h in C.basis(y, z, p)]
    return _columns_to_matrix(C.ring, C.hom(x, z).rank(p + f.degree), cols)


def image_bases_by_compose(C, idems, x, y):
    """Degree -> basis of the image of h -> q o h o p, from the compose
    route of the multiplication matrices."""
    p, q = idems[x].projector, idems[y].projector
    M, N = p.source, q.source
    amb = C.hom(M, N)
    return {
        n: kernel(
            Matrix.identity(C.ring, amb.rank(n))
            - left_mult_by_compose(C, M, N, N, q, n) * right_mult_by_compose(C, M, M, N, p, n)
        )
        for n in amb.degrees()
    }


def idem_composition_by_compose(C, idems, bases, x, y, z, p, q):
    """The element-wise composition of the completion: each pair of image
    basis vectors expanded to ambient elements, composed in the base, cut
    by both projectors and read back in the image basis of (x, z)."""
    cx, cy, cz = (idems[k].carrier for k in (x, y, z))
    px, pz = idems[x].projector, idems[z].projector
    G, F = bases[(y, z)][p], bases[(x, y)][q]
    cols = []
    for i in range(G.ncols):
        g = HomElement(cy, cz, p, G.col(i))
        for j in range(F.ncols):
            h = C.compose(g, HomElement(cx, cy, q, F.col(j)))
            cut = C.compose(pz, C.compose(h, px))
            cols.append(restrict_vector(bases[(x, z)][p + q], cut.vector, "the oracle composite"))
    return _columns_to_matrix(C.ring, bases[(x, z)][p + q].ncols, cols)


def test_multiplication_matrices_match_the_compose_route(cx, fin):
    for C, twin in ((cx[0], complexes_category(cx[1])), (fin.category, fin_twin().category)):
        for x in C.objects:
            for y in C.objects:
                for z in C.objects:
                    for p in C.hom(y, z).degrees():
                        for q in C.hom(x, y).degrees():
                            for g in C.basis(y, z, p):
                                new = left_mult_matrix(C, x, y, z, g, q)
                                assert new == left_mult_by_compose(twin, x, y, z, g, q)
                            for f in C.basis(x, y, q):
                                new = right_mult_matrix(C, x, y, z, f, p)
                                assert new == right_mult_by_compose(twin, x, y, z, f, p)


def idem_fixtures(cx, fin):
    """(completion, twin of its base, idempotents): every identity over the
    complexes, and the one/p/q split over the correspondences."""
    C, _ = cx
    yield idempotent_complete(C), complexes_category(cx[1]), {
        x: IdempotentObject(x, C.identity(x)) for x in C.objects
    }
    F = fin.category
    A, p = one_point_projector(F)
    q = F.add(F.identity(A), F.scale(p, -1))
    idems = {
        "one": IdempotentObject(A, F.identity(A)),
        "p": IdempotentObject(A, p),
        "q": IdempotentObject(A, q),
    }
    yield idempotent_complete(F, idems), fin_twin().category, idems


def test_idempotent_composition_matches_the_element_wise_route(cx, fin):
    for K, twin, idems in idem_fixtures(cx, fin):
        bases = {
            (x, y): image_bases_by_compose(twin, idems, x, y) for x in K.objects for y in K.objects
        }
        for (x, y), basis in bases.items():
            assert [K.hom(x, y).rank(n) for n in basis] == [b.ncols for b in basis.values()]
        for x in K.objects:
            unit = restrict_vector(bases[(x, x)][0], idems[x].projector.vector, "the oracle unit")
            assert K.identity(x).vector == unit
            for y in K.objects:
                for z in K.objects:
                    for p in bases[(y, z)]:
                        for q in bases[(x, y)]:
                            if K.hom(x, z).rank(p + q) == 0:
                                continue
                            assert K.comp_matrix(x, y, z, p, q) == idem_composition_by_compose(
                                twin, idems, bases, x, y, z, p, q
                            ), (x, y, z, p, q)


def test_categories_are_freed_without_the_cyclic_collector(cx, fin):
    # the Hom and composition closures hold the registries and the base,
    # not the category, so reference counting alone frees each category
    # together with its caches
    C, _ = cx
    L = (("s",),)
    tw = tensor_twist_functor(fin, L, seeds=[(), (("x", "y"),)], depth=3)
    builders = {
        "complexes": lambda: complexes_category({"a": cx[1]["a"], "b": cx[1]["b"]}),
        "pretr": lambda: pretr_category(C, {"E": i0(C, "a"), "F": i0(C, "b")}),
        "idem": lambda: idempotent_complete(C),
        "tau": lambda: truncate_nonpositive(C),
        "z0": lambda: cycles_category(C),
        "inverted": lambda: invert_twist(fin.category, tw, 1).category([((), 0), ((), 1)]),
    }
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for kind, build in builders.items():
            K = build()
            assert validate_dg(K).ok
            assert K._comp, kind
            ref = weakref.ref(K)
            del K
            assert ref() is None, kind
    finally:
        if was_enabled:
            gc.enable()


def over(twin, tcs):
    """The same twisted complexes rebuilt over a twin of their base."""
    return {k: assemble_twisted(twin, tc.entries, dict(tc.e)) for k, tc in tcs.items()}


def pretr_composition_by_compose(homs, x, y, z, p, q):
    """The composition matrix of twisted complexes, one `compose_twisted`
    per pair of unit vectors of Hom(y,z)^p and Hom(x,y)^q; `homs` holds
    the twisted Hom complex of each pair."""
    HG, HF, HH = homs[(y, z)], homs[(x, y)], homs[(x, z)]
    fs = HF.basis(q)
    cols = [HH.vector(compose_twisted(g, f)) for g in HG.basis(p) for f in fs]
    return _columns_to_matrix(HH.complex.ring, HH.complex.rank(p + q), cols)


def assert_pretr_composition_matches(P, tcs, twin_tcs):
    homs = {(x, y): twisted_hom_complex(twin_tcs[x], twin_tcs[y]) for x in tcs for y in tcs}
    for x in tcs:
        for y in tcs:
            for z in tcs:
                for p in P.hom(y, z).degrees():
                    for q in P.hom(x, y).degrees():
                        if P.hom(x, z).rank(p + q) == 0:
                            continue
                        want = pretr_composition_by_compose(homs, x, y, z, p, q)
                        assert P.comp_matrix(x, y, z, p, q) == want, (x, y, z, p, q)


def test_pretr_composition_matches_the_componentwise_route(cx, altv):
    # the shapes of the pretr_laws benchmark: cones of closed degree-0 maps
    # a -> pt, pt -> pt and a -> a over the four Z complexes
    C, comps = cx
    twin = complexes_category(comps)
    rng = random.Random(2)
    tcs = {}
    for i, (s, t) in enumerate((("a", "pt"), ("pt", "pt"), ("a", "a"))):
        phi = random_closed_morphism(rng, i0(C, s), i0(C, t))
        assert not phi.is_zero()
        tcs["t%d" % i] = cone(phi).cone
    assert_pretr_composition_matches(pretr_category(C, tcs), tcs, over(twin, tcs))

    Cv = altv.category
    host, cocube = build_vertex_cubes(ring="Q", top=2, objects=(1, 2))
    twin_v = alternating_enrichment(host, cocube).tensor.category
    rng = random.Random(36)
    tcs = {"v%d" % i: random_twisted(rng, Cv, list(Cv.objects), depth=2, max_entries=2)
           for i in range(2)}
    P = pretr_category(Cv, tcs)
    assert_pretr_composition_matches(P, tcs, over(twin_v, tcs))
    mats = [P.comp_matrix(x, y, z, p, q) for x in tcs for y in tcs for z in tcs
            for p in P.hom(y, z).degrees() for q in P.hom(x, y).degrees()]
    assert any(not m.is_zero() for m in mats)
    assert all(type(v) is Fraction for m in mats for row in m.rows for v in row)

    # a total complex registered after some matrices are already cached
    P, EE = _nested_fixture(C, random.Random(1))
    assert validate_dg(P).ok and P._comp
    T, _, _ = tot_comparison(EE, key="tot")
    tcs = {"E": P.tc("E"), "F": P.tc("F"), "tot": T}
    assert_pretr_composition_matches(P, tcs, over(twin, tcs))


def strict_inverse_by_compose(u):
    """The inverse of u solved from one `compose_twisted` per basis element
    of Hom(R, Y)^0, checked on both sides."""
    Y, R = u.source, u.target
    H, HY = twisted_hom_complex(R, Y), twisted_hom_complex(Y, Y)
    cols = [HY.vector(compose_twisted(b, u)) for b in H.basis(0)]
    mat = _columns_to_matrix(Y.base.ring, HY.complex.rank(0), cols)
    sol = solve(mat, Matrix.column(Y.base.ring, HY.vector(twisted_identity(Y))))
    if sol is None:
        return None
    v = H.element(0, sol.col(0))
    return v if compose_twisted(u, v) == twisted_identity(R) else None


def postcompose_by_compose(psi, T):
    """The matrices of f -> psi o f on Hom(T, source), one `compose_twisted`
    per basis element."""
    src, tgt = twisted_hom_complex(T, psi.source), twisted_hom_complex(T, psi.target)
    return {
        n: _columns_to_matrix(
            psi.source.base.ring, tgt.complex.rank(n),
            [tgt.vector(compose_twisted(psi, b)) if tgt.complex.rank(n) else ()
             for b in src.basis(n)],
        )
        for n in src.complex.degrees()
    }


def test_inverse_and_postcomposition_match_the_compose_route(cx, fin, altv):
    C, _ = cx
    rng = random.Random(67)
    E, F = i0(C, "pt"), i0(C, "c")
    K = cone(random_closed_morphism(rng, E, F))
    for psi in (K.incl, K.proj):
        for T in (i0(C, "pt"), i0(C, "b"), K.cone):
            assert postcompose_chain_map(psi, T).comps == postcompose_by_compose(psi, T)
    A, e = nilpotent_corr(fin.category)
    Yf = make_twisted(fin.category, {0: A, 1: A, 2: A}, {(1, 0): e, (2, 1): e})
    Cv = altv.category
    Yv = cone(random_closed_morphism(random.Random(91), i0(Cv, 1), i0(Cv, 2))).cone
    for Y in (Yf, Yv):
        _, u, v = cone_reconstruction(Y)
        assert v == strict_inverse_by_compose(u)
    # a morphism that is not invertible has no strict inverse on either route
    zero = zero_morphism(K.cone, K.cone)
    assert strict_inverse(zero) is None and strict_inverse_by_compose(zero) is None


# ---------------------------------------------------------------------------
# Inverting a twist endofunctor.


def test_twist_functor_passes_the_functor_laws(fin):
    C = fin.category
    L = (("s",),)
    tw = tensor_twist_functor(fin, L, seeds=[(), (("x", "y"),)], depth=2)
    assert validate_functor(tw).ok


def test_point_twist_stabilizes_at_stage_one(fin):
    C = fin.category
    L = (("s",),)
    A = (("x", "y"),)
    tw = tensor_twist_functor(fin, L, seeds=[(), A], depth=3)
    inv = invert_twist(C, tw, 1)
    rep = inv.stabilization(((), 0), (A, 0))
    assert rep.stabilized
    for deg, r0, r1, iso in rep.degrees:
        assert r0 == r1 and iso
    assert inv.hom_complex(((), 0), (A, 0)).rank(0) == C.hom((), A).rank(0)


def test_inverted_category_laws_and_canonical_isomorphism(fin):
    C = fin.category
    L = (("s",),)
    A = (("x", "y"),)
    tw = tensor_twist_functor(fin, L, seeds=[(), A], depth=4)
    inv = invert_twist(C, tw, 2)
    cat = inv.category([((), 0), (A, 0), ((), -1), (A, 1)])
    assert validate_dg(cat).ok
    pairX = (A, 0)
    pairXL = (fin.obj_tensor(A, L), -1)
    cat2 = inv.category([pairX, pairXL])
    carrier = inv.carrier(*pairX)
    assert carrier == inv.carrier(*pairXL)
    fwd = cat2.element(pairX, pairXL, 0, C.identity(carrier).vector)
    bwd = cat2.element(pairXL, pairX, 0, C.identity(carrier).vector)
    assert cat2.compose(bwd, fwd) == cat2.identity(pairX)
    assert cat2.compose(fwd, bwd) == cat2.identity(pairXL)


def test_non_stabilized_pairs_are_reported_and_refused(fin):
    C = fin.category
    L2 = (("x", "y"),)
    tw = tensor_twist_functor(fin, L2, seeds=[()], depth=3)
    inv = invert_twist(C, tw, 2)
    rep = inv.stabilization(((), 0), ((), 0))
    assert not rep.stabilized
    deg, r0, r1, iso = rep.degrees[0]
    assert r0 == 4 and r1 == 16 and not iso
    with pytest.raises(ValueError, match="not stabilized"):
        inv.category([((), 0)])
    cat = inv.category([((), 0)], require_stable=False)
    assert cat.hom(((), 0), ((), 0)).rank(0) == 16
    with pytest.raises(ValueError, match="stage"):
        invert_twist(C, tw, 1).stabilization(((), -1), ((), 0))
    with pytest.raises(ValueError, match="at least 1"):
        invert_twist(C, tw, 0)


def twist_fixtures(fin):
    """The inverted categories of the tests above: a stabilized twist by a
    point and, unrequired to stabilize, a twist by two points."""
    C = fin.category
    L, A = (("s",),), (("x", "y"),)
    tw = tensor_twist_functor(fin, L, seeds=[(), A], depth=4)
    inv = invert_twist(C, tw, 2)
    yield inv, inv.category([((), 0), (A, 0), ((), -1), (A, 1)])
    yield inv, inv.category([(A, 0), (fin.obj_tensor(A, L), -1)])
    tw2 = tensor_twist_functor(fin, (("x", "y"),), seeds=[()], depth=3)
    inv2 = invert_twist(C, tw2, 2)
    yield inv2, inv2.category([((), 0)], require_stable=False)


def test_inverted_composition_matches_the_carrier_compose_route(fin):
    twin = fin_twin().category
    for inv, cat in twist_fixtures(fin):
        for a in cat.objects:
            for b in cat.objects:
                for c in cat.objects:
                    for p in cat.hom(b, c).degrees():
                        for q in cat.hom(a, b).degrees():
                            cols = [
                                twin.compose(
                                    HomElement(inv.carrier(*b), inv.carrier(*c), p, g.vector),
                                    HomElement(inv.carrier(*a), inv.carrier(*b), q, f.vector),
                                ).vector
                                for g in cat.basis(b, c, p) for f in cat.basis(a, b, q)
                            ]
                            oracle = _columns_to_matrix(cat.ring, cat.hom(a, c).rank(p + q), cols)
                            assert cat.comp_matrix(a, b, c, p, q) == oracle, (a, b, c, p, q)
