import gc
import itertools
import random
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from dgforge.cube import (
    back_projection,
    compose as compose_cube,
    enumerate_homset,
    front_projection,
    insertion,
    involution,
)
from dgforge import dgcat
from dgforge.cubical import degenerate_projector
from dgforge.dgcat import (
    AlternatingEnrichment,
    CoCubicalObject,
    DGFailure,
    DGCategory,
    HomElement,
    alternating_enrichment,
    alternating_inclusion_functor,
    alternating_projection_functor,
    build_fincor,
    build_vertex_cubes,
    complexes_category,
    cubical_enrichment,
    cycles_category,
    dg_homotopy_equivalence_check,
    fincor_elements,
    fincor_matrix,
    graph_vector,
    homotopy_category,
    tensor_action,
    truncate_nonpositive,
    validate_cocubical,
    validate_dg,
    validate_functor,
    DGFunctor,
)
from dgforge.linalg import (
    Matrix,
    _columns_to_matrix,
    complex_homology,
    is_quasi_iso,
    make_chain_map,
    restrict,
    single_complex,
    two_term_complex,
)
from util_gen import random_complex, random_hom_vector


def flip_composition_signs(C):
    """Negative control: composition in degrees (p, q) scaled by (-1)^(pq).
    The pairing keeps its shape but breaks the Leibniz rule as soon as a
    differential moves an element across the parity of q."""

    def comp(x, y, z, p, q):
        mat = C.comp_matrix(x, y, z, p, q)
        return mat.scale(-1) if (p * q) % 2 else mat

    return DGCategory(
        C.ring, C.objects, C.hom, comp_fn=comp, id_fn=lambda x: C.identity(x).vector,
    )


def collapse_functor(C):
    """Negative control: everything to one object with zero Homs; a valid
    functor that is never an equivalence unless C itself is trivial."""
    target = DGCategory(
        C.ring, ("*",),
        hom_fn=lambda x, y: single_complex(C.ring, 0, 0),
        id_fn=lambda x: (),
    )
    point = target.hom("*", "*")
    mor_maps = {}
    for x in C.objects:
        for y in C.objects:
            src = C.hom(x, y)
            comps = {n: Matrix.zero(C.ring, 0, src.rank(n)) for n in src.degrees()}
            mor_maps[(x, y)] = make_chain_map(src, point, comps, check=False)
    return DGFunctor(C, target, {x: "*" for x in C.objects}, mor_maps)


@pytest.fixture(scope="module")
def cxcat():
    # End(a) in degree 0 has basis (f0, f1) with d(f0, f1) = 2 f0 - 2 f1,
    # so H^0(End a) = Z/2; the category of these two complexes exercises
    # every law with a nonzero differential present.
    a = two_term_complex("Z", 0, Matrix("Z", [[2]]))
    b = single_complex("Z", 0, 1)
    return complexes_category({"a": a, "b": b})


@pytest.fixture(scope="module")
def fincor_z():
    host, cocube = build_fincor([("p", "q"), ("u", "v", "w")], ring="Z", top=4)
    return host, cocube, cubical_enrichment(host, cocube)


@pytest.fixture(scope="module")
def fincor_q():
    host, cocube = build_fincor([("p", "q"), ("u", "v")], ring="Q", top=3)
    enr = cubical_enrichment(host, cocube)
    alt = alternating_enrichment(host, cocube)
    return host, cocube, enr, alt


@pytest.fixture(scope="module")
def vertex2():
    host, cocube = build_vertex_cubes(ring="Q", top=2, objects=(1, 2))
    enr = cubical_enrichment(host, cocube)
    alt = alternating_enrichment(host, cocube)
    return host, cocube, enr, alt


@pytest.fixture(scope="module")
def vertex3():
    host, cocube = build_vertex_cubes(ring="Q", top=3, objects=(1, 2))
    return host, cocube, alternating_enrichment(host, cocube)


# ---------------------------------------------------------------------------
# The law checker on the category of complexes.


def test_complexes_category_passes_all_laws(cxcat):
    report = validate_dg(cxcat)
    assert report.ok
    assert report.failures == ()


def test_sign_flipped_composition_fails_leibniz_with_witness(cxcat):
    bad = flip_composition_signs(cxcat)
    report = validate_dg(bad)
    assert not report.ok
    assert report.laws_failed() == ["leibniz"]
    for failure in report.failures:
        x, y, z, p, q = failure.where
        assert x in ("a", "b") and z in ("a", "b")
        assert "!=" in failure.note


def test_zero_differential_category_passes():
    cat = complexes_category({
        "u": single_complex("Z", 0, 2),
        "v": single_complex("Z", 0, 3),
    })
    assert validate_dg(cat).ok


def test_hom_coordinates_must_be_exact():
    C = build_vertex_cubes(ring="Z", top=1, objects=(1,))[0].category
    with pytest.raises(ValueError):
        C.element(1, 1, 0, (2.5,))
    with pytest.raises(ValueError):
        C.scale(C.identity(1), 0.5)
    Q = build_vertex_cubes(ring="Q", top=1, objects=(1,))[0].category
    with pytest.raises(ValueError):
        Q.element(1, 1, 0, (0.1,))
    with pytest.raises(ValueError):
        Q.scale(Q.identity(1), 0.5)
    e = C.element(1, 1, 0, (Fraction(4, 2),))
    assert e.vector == (2,) and type(e.vector[0]) is int
    assert C.compose(e, e).vector == (4,)
    assert Q.scale(Q.identity(1), Fraction(1, 2)).vector == (Fraction(1, 2),)


def test_compose_and_add_refuse_vectors_of_the_wrong_length():
    # the answer must not depend on whether the composition matrix is cached:
    # the vector route once read the first four of six coordinates
    C = build_vertex_cubes(ring="Z", top=1, objects=(1, 2))[0].category
    long_ = HomElement(2, 2, 0, (1, 0, 0, 1, 7, 7))
    short = HomElement(2, 2, 0, (5,))
    f = C.element(2, 2, 0, (1, 2, 3, 4))
    for cached in (False, True):
        if cached:
            C.comp_matrix(2, 2, 2, 0, 0)
        for g, h in ((long_, f), (f, long_), (short, f), (f, short)):
            with pytest.raises(ValueError, match="coordinate length mismatch"):
                C.compose(g, h)
            with pytest.raises(ValueError, match="coordinate length mismatch"):
                C.add(g, h)
        assert C.compose(C.identity(2), f) == f
    assert C.add(f, C.identity(2)).vector == (2, 2, 3, 5)


def test_scale_refuses_a_vector_of_the_wrong_length():
    C = build_vertex_cubes(ring="Z", top=1, objects=(1, 2))[0].category
    for vec in ((1,), (1, 0, 0, 1, 7)):
        with pytest.raises(ValueError, match="coordinate length mismatch"):
            C.scale(HomElement(2, 2, 0, vec), 3)
    assert C.scale(C.identity(2), 3).vector == (3, 0, 0, 3)


def test_differential_refuses_a_vector_of_the_wrong_length():
    C = build_vertex_cubes(ring="Z", top=1, objects=(1, 2))[0].category
    for vec in ((1,), (1, 0, 0, 1, 7)):
        with pytest.raises(ValueError, match="coordinate length mismatch"):
            C.differential(HomElement(2, 2, 0, vec))
    assert C.differential(C.identity(2)).vector == ()


@given(st.integers(0, 10 ** 6))
def test_random_complex_pairs_form_a_lawful_category(seed):
    rng = random.Random(seed)
    cat = complexes_category({
        "x": random_complex(rng, max_pieces=2, lo_range=(-1, 1)),
        "y": random_complex(rng, max_pieces=2, lo_range=(-1, 1)),
    })
    assert validate_dg(cat).ok


# ---------------------------------------------------------------------------
# Truncation, H^0 and Z^0.


def test_truncation_is_identity_on_nonpositive_categories():
    cat = complexes_category({
        "u": single_complex("Z", 0, 2),
        "v": single_complex("Z", 0, 1),
    })
    t = truncate_nonpositive(cat)
    for x in cat.objects:
        for y in cat.objects:
            assert t.hom(x, y).rank(0) == cat.hom(x, y).rank(0)
    for x in cat.objects:
        for y in cat.objects:
            for z in cat.objects:
                assert t.comp_matrix(x, y, z, 0, 0) == cat.comp_matrix(x, y, z, 0, 0)
    assert validate_dg(t).ok


def test_truncation_clips_positive_degrees_and_keeps_h0(cxcat):
    t = truncate_nonpositive(cxcat)
    cx = t.hom("a", "a")
    assert cx.hi <= 0
    assert [cx.rank(n) for n in (-1, 0)] == [1, 1]
    assert validate_dg(t).ok
    assert complex_homology(cx, 0).describe() == "Z/2"


def test_h0_of_twice_endomorphisms_is_z_mod_2(cxcat):
    h = homotopy_category(cxcat)
    assert h.hom_group("a", "a").describe() == "Z/2"
    # (1,1) and (3,3) differ by the boundary (2,2); (1,1) and (0,0) do not
    one = h.cycles[("a", "a")]
    assert one.ncols == 1
    assert h.same_class("a", "a", (1,), (3,))
    assert not h.same_class("a", "a", (1,), (0,))


def test_same_class_refuses_vectors_of_the_wrong_length():
    C = complexes_category({
        "a": two_term_complex("Z", -1, Matrix("Z", [[2]])),
        "b": single_complex("Z", 0, 2),
    })
    h = homotopy_category(C)
    assert h.cycles[("b", "b")].ncols == 4
    for u, v in (((1, 0, 0, 0, 99), (1, 0, 0, 0)), ((1, 0, 0, 0), (1, 0, 0)),
                 ((1, 0, 0), (1, 0, 0))):
        with pytest.raises(ValueError, match="coordinate length mismatch"):
            h.same_class("b", "b", u, v)
    assert h.same_class("b", "b", (1, 0, 0, 0), (1, 0, 0, 0))
    assert not h.same_class("b", "b", (1, 0, 0, 0), (1, 0, 0, 1))


def test_h0_invertibility_and_iso_search(cxcat):
    h = homotopy_category(cxcat)
    assert h.is_invertible("a", "a", h.ident["a"])
    assert h.iso_exists("a", "a")
    assert h.iso_exists("b", "b")
    # Hom(b, a) has no cycles at all, so no map back can invert anything
    assert h.cycles[("b", "a")].ncols == 0
    assert not h.iso_exists("a", "b")


def test_objects_with_no_maps_between_them_are_isomorphic_only_when_zero():
    # End = Z on each object and no maps either way: the only candidate
    # isomorphism is 0, and it inverts nothing
    C = DGCategory(
        "Z", ("x", "y"), lambda x, y: single_complex("Z", 0, 1 if x == y else 0),
        comp_fn=lambda x, y, z, p, q: Matrix("Z", [[1]]),
        id_fn=lambda x: (1,),
    )
    assert validate_dg(C).ok
    h = homotopy_category(C)
    assert not h.iso_exists("x", "y")
    assert not h.iso_exists("y", "x")
    zero = DGCategory(
        "Z", ("x", "y"), lambda x, y: single_complex("Z", 0, 0), id_fn=lambda x: (),
    )
    assert homotopy_category(zero).iso_exists("x", "y")


def test_cycles_category_is_lawful_and_contains_identities(cxcat):
    z0 = cycles_category(cxcat)
    assert validate_dg(z0).ok
    for x in cxcat.objects:
        assert len(z0.identity(x).vector) == z0.hom(x, x).rank(0)


def test_identity_functor_is_an_equivalence(cxcat):
    mor_maps = {}
    for x in cxcat.objects:
        for y in cxcat.objects:
            cx = cxcat.hom(x, y)
            comps = {n: Matrix.identity("Z", cx.rank(n)) for n in cx.degrees()}
            mor_maps[(x, y)] = make_chain_map(cx, cx, comps)
    ident = DGFunctor(cxcat, cxcat, {x: x for x in cxcat.objects}, mor_maps)
    report = dg_homotopy_equivalence_check(ident, window=(-1, 1))
    assert report.ok


def test_functor_with_a_missing_hom_map_is_reported_not_raised(cxcat):
    # only ('a', 'a') is mapped: the other three pairs are reported as
    # missing Hom maps, like a missing object, and no later check runs
    cx = cxcat.hom("a", "a")
    ident = make_chain_map(cx, cx, {n: Matrix.identity("Z", cx.rank(n)) for n in cx.degrees()})
    F = DGFunctor(cxcat, cxcat, {"a": "a", "b": "b"}, {("a", "a"): ident})
    report = validate_functor(F)
    assert not report.ok
    assert report.failures == tuple(
        DGFailure("hom-map", pair, "missing") for pair in (("a", "b"), ("b", "a"), ("b", "b"))
    )
    with pytest.raises(ValueError, match="hom-map"):
        dg_homotopy_equivalence_check(F)


# ---------------------------------------------------------------------------
# Co-cubical structures.


def row_major_matrix(ring, f):
    """The vertex host's map f (objects are ranks) as its row-major matrix."""
    a, b = f.source, f.target
    return Matrix(ring, [f.vector[r * a : (r + 1) * a] for r in range(b)], nrows=b, ncols=a)


def test_mor_tensor_is_the_kronecker_product_of_the_row_major_matrices():
    # reference: Matrix.kron of the row-major matrices, read back row by row
    rng = random.Random(11)
    objects = (0, 1, 2, 3)
    for ring in ("Z", "Q"):
        host = build_vertex_cubes(ring=ring, top=1, objects=objects)[0]

        def entry():
            v = rng.choice((0, 0, 1, -2, 3))
            return Fraction(v, rng.choice((1, 2, 3))) if ring == "Q" and rng.random() < 0.5 else v

        for xa, ya, xb, yb in itertools.product(objects, repeat=4):
            f = HomElement(xa, ya, 0, tuple(entry() for _ in range(xa * ya)))
            g = HomElement(xb, yb, 0, tuple(entry() for _ in range(xb * yb)))
            out = host.mor_tensor(f, g)
            kk = row_major_matrix(ring, f).kron(row_major_matrix(ring, g))
            assert (out.source, out.target, out.degree) == (xa * xb, ya * yb, 0)
            assert out.vector == tuple(v for row in kk.rows for v in row)
            assert all(type(v) in (int, Fraction) for v in out.vector)
            if ring == "Z":
                assert all(type(v) is int for v in out.vector)
    # ints stay ints over Q
    host = build_vertex_cubes(ring="Q", top=1, objects=(1, 2))[0]
    ident = host.category.identity(2)
    assert all(type(v) is int for v in host.mor_tensor(ident, ident).vector)


def test_mor_tensor_refuses_vectors_of_the_wrong_length():
    host = build_vertex_cubes(ring="Z", top=1, objects=(1, 2))[0]
    C = host.category
    for bad in (HomElement(1, 2, 0, (1, 2, 99)), HomElement(1, 2, 0, (1,))):
        for f, g in ((bad, C.identity(1)), (C.identity(1), bad)):
            with pytest.raises(ValueError, match="coordinate length mismatch"):
                host.mor_tensor(f, g)
    with pytest.raises(ValueError, match="concentrated in degree 0"):
        host.mor_tensor(HomElement(1, 1, 1, (1,)), C.identity(1))
    assert host.mor_tensor(HomElement(1, 2, 0, (1, 2)), C.identity(1)).vector == (1, 2)


def test_enrichments_are_freed_without_the_cyclic_collector():
    # the category's closures hold the level data, which refers to neither
    # the category nor the enrichment, so reference counting frees all three
    host, cocube = build_vertex_cubes(ring="Q", top=2, objects=(1,))
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for build in (cubical_enrichment, alternating_enrichment):
            enr = build(host, cocube)
            assert validate_dg(enr.category).ok
            assert enr.category._comp
            if build is alternating_enrichment:
                e = enr.category.identity(1)
                assert enr.tensor.mor_tensor(e, e) == enr.category.identity(1)
            refs = (weakref.ref(enr), weakref.ref(enr.category), weakref.ref(enr.group(1, 1)))
            del enr
            assert all(ref() is None for ref in refs), build.__name__
        # a category outlives its enrichment and still answers
        C = alternating_enrichment(host, cocube).category
        assert C.hom(1, 1).rank(-1) == 1
        f = C.element(1, 1, -1, (3,))
        assert C.compose(C.identity(1), f) == f == C.compose(f, C.identity(1))
        ref = weakref.ref(C)
        del C
        assert ref() is None
    finally:
        if was_enabled:
            gc.enable()


def test_builtin_cocubical_structures_validate(fincor_z, vertex2):
    assert validate_cocubical(fincor_z[1]).ok
    assert validate_cocubical(vertex2[1]).ok


def test_broken_comultiplication_is_reported_by_axiom_name(vertex2):
    host, cocube = vertex2[0], vertex2[1]

    def pinned_delta(n):
        # second output coordinate stuck at vertex 0: not symmetric
        dom = 2 ** n
        vec = [0] * (dom * dom * dom)
        for u in range(dom):
            vec[(u * dom + 0) * dom + u] = 1
        return HomElement(dom, dom * dom, 0, tuple(vec))

    bad = CoCubicalObject(host, 2, True, cube=cocube.cube,
                          image=cocube.image, delta=pinned_delta)
    report = validate_cocubical(bad)
    assert not report.ok
    assert "symmetric" in {f.law for f in report.failures}
    with pytest.raises(ValueError, match="symmetric"):
        cubical_enrichment(host, bad)


def test_broken_generator_relation_is_reported_as_functoriality(vertex2):
    host, cocube = vertex2[0], vertex2[1]
    # doubled images: the flip of cube^1, so that tau tau = id fails, and the
    # composite x -> (0, 1 - x), first reached as eta(1,1,0) then tau(2,2)
    doubled = {
        involution(1, 1).table,
        compose_cube(involution(2, 2), insertion(1, 1, 0)).table,
    }

    def image(f):
        e = cocube.image(f)
        return host.category.scale(e, 2) if f.table in doubled else e

    bad = CoCubicalObject(host, 2, True, cube=cocube.cube, image=image, delta=cocube.delta)
    report = validate_cocubical(bad)
    assert not report.ok
    notes = {(f.where, f.note) for f in report.failures if f.law == "functoriality"}
    assert ((1, 1), "two factorizations of the same map disagree at tau(1,1)") in notes
    assert ((1, 2), "direct image disagrees with a factorization through tau(2,2)") in notes
    with pytest.raises(ValueError, match="functoriality"):
        cubical_enrichment(host, bad)


# ---------------------------------------------------------------------------
# The correspondence enrichment.


def test_correspondence_enrichment_collapses_above_level_zero(fincor_z):
    host, cocube, enr = fincor_z
    X = (("p", "q"),)
    Y = (("u", "v", "w"),)
    assert [enr.group(X, Y).rank(n) for n in range(5)] == [6, 6, 6, 6, 6]
    cx = enr.category.hom(X, Y)
    assert [cx.rank(-n) for n in range(5)] == [6, 0, 0, 0, 0]
    assert complex_homology(cx, 0).describe() == "Z^6"
    for n in range(-4, 0):
        assert complex_homology(cx, n).is_zero()


def test_correspondence_enrichment_passes_all_laws(fincor_z):
    assert validate_dg(fincor_z[2].category).ok


def test_point_endomorphisms_are_the_integers():
    host, cocube = build_fincor([("s",)], ring="Z", top=4)
    enr = cubical_enrichment(host, cocube)
    pt = (("s",),)
    assert complex_homology(enr.category.hom(pt, pt), 0).describe() == "Z"
    assert enr.category.identity(pt).vector == (1,)


def test_degree_zero_composition_matches_incidence_product(fincor_z):
    host, cocube, enr = fincor_z
    X = (("p", "q"),)
    Y = (("u", "v", "w"),)
    rng = random.Random(91)
    for _ in range(20):
        f = enr.category.element(X, Y, 0, random_hom_vector(rng, 6))
        g = enr.category.element(Y, X, 0, random_hom_vector(rng, 6))
        gf = enr.category.compose(g, f)
        mf = fincor_matrix(f)
        mg = fincor_matrix(g)
        prod = [
            [sum(mg[i][k] * mf[k][j] for k in range(len(mf))) for j in range(len(mf[0]))]
            for i in range(len(mg))
        ]
        assert fincor_matrix(gf) == prod


def test_closed_graphs_compose_as_set_maps(fincor_z):
    host, cocube, enr = fincor_z
    X = (("p", "q"),)
    Y = (("u", "v", "w"),)
    fwd = {("p",): ("v",), ("q",): ("u",)}
    back = {("u",): ("q",), ("v",): ("q",), ("w",): ("p",)}
    f = enr.category.element(X, Y, 0, graph_vector(X, Y, fwd))
    g = enr.category.element(Y, X, 0, graph_vector(Y, X, back))
    gf = enr.category.compose(g, f)
    composed = {p: back[fwd[p]] for p in fincor_elements(X)}
    assert gf.vector == graph_vector(X, X, composed)


def test_degree_zero_part_is_recorded_as_the_host_hom(fincor_z):
    host, cocube, enr = fincor_z
    X = (("p", "q"),)
    Y = (("u", "v", "w"),)
    iso = enr.degree0_iso(X, Y)
    assert iso == Matrix.identity("Z", 6)
    assert enr.category.identity(X).vector == host.category.identity(X).vector


# ---------------------------------------------------------------------------
# The vertex-cube enrichment: nonzero differentials.


def test_vertex_enrichment_passes_all_laws(vertex2):
    host, cocube, enr, alt = vertex2
    assert validate_dg(enr.category).ok


def test_vertex_enrichment_level_ranks_and_homology(vertex2):
    host, cocube, enr, alt = vertex2
    cx = enr.category.hom(1, 2)
    assert [cx.rank(-n) for n in range(3)] == [2, 2, 2]
    # boundary alternates: level 1 -> 0 is an isomorphism, level 2 -> 1
    # has the two face terms cancel, so only the window edge survives
    assert complex_homology(cx, 0).is_zero()
    assert complex_homology(cx, -1).is_zero()


def test_vertex_enrichment_is_acyclic_at_depth_three():
    host, cocube = build_vertex_cubes(ring="Q", top=3, objects=(2,))
    enr = cubical_enrichment(host, cocube)
    cx = enr.category.hom(2, 2)
    assert [cx.rank(-n) for n in range(4)] == [4, 4, 4, 4]
    # alternating face sums vanish in even levels and are isomorphisms in
    # odd ones, so the four-term complex is exact everywhere
    for n in range(-3, 1):
        assert complex_homology(cx, n).is_zero()


def test_vertex_degree_zero_recovery(vertex2):
    host, cocube, enr, alt = vertex2
    rng = random.Random(17)
    for _ in range(10):
        f = enr.category.element(1, 2, 0, random_hom_vector(rng, 2))
        g = enr.category.element(2, 1, 0, random_hom_vector(rng, 2))
        gf = enr.category.compose(g, f)
        hf = host.category.element(1, 2, 0, f.vector)
        hg = host.category.element(2, 1, 0, g.vector)
        assert gf.vector == host.category.compose(hg, hf).vector


# ---------------------------------------------------------------------------
# The alternating enrichment.


def test_alternating_needs_rational_coefficients():
    host, cocube = build_fincor([("p", "q")], ring="Z", top=2)
    with pytest.raises(ValueError, match="rational"):
        alternating_enrichment(host, cocube)


def test_alternating_needs_extended_cube_maps(fincor_q):
    host, cocube = fincor_q[0], fincor_q[1]
    clipped = CoCubicalObject(host, cocube.top, False, cube=cocube.cube,
                              image=cocube.image, delta=cocube.delta)
    with pytest.raises(ValueError, match="extended"):
        alternating_enrichment(host, clipped)


def test_alternating_ranks_follow_the_sign_multiplicities(vertex3):
    host, cocube, alt = vertex3
    # sign character multiplicities in the vertex representation: 1, 1, 0, 0
    cx = alt.category.hom(1, 2)
    assert [cx.rank(-n) for n in range(4)] == [2, 2, 0, 0]
    cx = alt.category.hom(2, 2)
    assert [cx.rank(-n) for n in range(4)] == [4, 4, 0, 0]


def test_alternating_enrichment_passes_all_laws(vertex3):
    assert validate_dg(vertex3[2].category).ok


def _alt_element(alt, rng, x, y, degree):
    r = alt.category.hom(x, y).rank(degree)
    return alt.category.element(x, y, degree, random_hom_vector(rng, r))


def test_box_tensor_interchange_law_seeded(vertex3):
    host, cocube, alt = vertex3
    C = alt.category
    T = alt.tensor
    rng = random.Random(202)
    nonzero = 0
    signed = 0
    for _ in range(100):
        degs = [rng.choice([0, -1]) for _ in range(4)]
        f = _alt_element(alt, rng, 2, 1, degs[0])
        f2 = _alt_element(alt, rng, 1, 2, degs[1])
        g = _alt_element(alt, rng, 1, 2, degs[2])
        g2 = _alt_element(alt, rng, 2, 1, degs[3])
        lhs = C.compose(T.mor_tensor(f, g), T.mor_tensor(f2, g2))
        rhs = T.mor_tensor(C.compose(f, f2), C.compose(g, g2))
        if (g.degree * f2.degree) % 2:
            rhs = C.scale(rhs, -1)
            signed += 1
        if not lhs.is_zero():
            nonzero += 1
        assert lhs == rhs
    # composites meeting depth two land in a zero sign part, so many draws
    # are vacuous; the floor guards against all of them degenerating
    assert nonzero >= 15
    assert signed >= 15


def test_box_tensor_symmetry_law_seeded(vertex3):
    host, cocube, alt = vertex3
    C = alt.category
    T = alt.tensor
    rng = random.Random(203)
    nonzero = 0
    for _ in range(100):
        f = _alt_element(alt, rng, 1, 2, rng.choice([0, -1]))
        g = _alt_element(alt, rng, 2, 1, rng.choice([0, -1]))
        t_out = T.symmetry(f.target, g.target)
        t_in = T.symmetry(f.source, g.source)
        lhs = C.compose(t_out, T.mor_tensor(f, g))
        rhs = C.compose(T.mor_tensor(g, f), t_in)
        if (f.degree * g.degree) % 2:
            rhs = C.scale(rhs, -1)
        if not lhs.is_zero():
            nonzero += 1
        assert lhs == rhs
    assert nonzero >= 25


def test_box_tensor_leibniz_seeded(vertex3):
    host, cocube, alt = vertex3
    C = alt.category
    T = alt.tensor
    rng = random.Random(204)
    nonzero = 0
    for _ in range(100):
        f = _alt_element(alt, rng, 1, 2, rng.choice([0, -1]))
        g = _alt_element(alt, rng, 2, 1, rng.choice([0, -1]))
        lhs = C.differential(T.mor_tensor(f, g))
        rhs = T.mor_tensor(C.differential(f), g)
        term = T.mor_tensor(f, C.differential(g))
        rhs = C.add(rhs, C.scale(term, -1) if f.degree % 2 else term)
        if not lhs.is_zero():
            nonzero += 1
        assert lhs == rhs
    assert nonzero >= 25


def test_degree_zero_box_tensor_of_graphs_is_the_product_graph(fincor_q):
    host, cocube, enr, alt = fincor_q
    X = (("p", "q"),)
    Y = (("u", "v"),)
    assert alt.model(X, Y).level_basis[0] == Matrix.identity("Q", 4)
    fn_f = {("p",): ("u",), ("q",): ("v",)}
    fn_g = {("p",): ("v",), ("q",): ("v",)}
    f = alt.category.element(X, Y, 0, graph_vector(X, Y, fn_f))
    g = alt.category.element(X, Y, 0, graph_vector(X, Y, fn_g))
    out = alt.tensor.mor_tensor(f, g)
    product = {
        pf + pg: fn_f[pf] + fn_g[pg]
        for pf in fincor_elements(X)
        for pg in fincor_elements(X)
    }
    assert alt.model(X + X, Y + Y).level_basis[0] == Matrix.identity("Q", 16)
    assert out.vector == graph_vector(X + X, Y + Y, product)


# ---------------------------------------------------------------------------
# Comparison functors.


def test_alternating_inclusion_is_an_equivalence_on_correspondences(fincor_q):
    host, cocube, enr, alt = fincor_q
    inc = alternating_inclusion_functor(alt, enr)
    assert validate_functor(inc).ok
    report = dg_homotopy_equivalence_check(inc, window=(-3, 0))
    assert report.ok
    assert report.failing_pairs() == ()
    assert report.missing_objects == ()


def test_vertex_inclusion_is_not_strict_and_the_check_says_so(vertex2):
    host, cocube, enr, alt = vertex2
    inc = alternating_inclusion_functor(alt, enr)
    report = validate_functor(inc)
    assert not report.ok
    assert {f.law for f in report.failures} == {"composition-image"}
    # the defect sits exactly where two depth-one elements meet depth two
    assert {f.where[-2:] for f in report.failures} == {(-1, -1)}
    with pytest.raises(ValueError, match="functor"):
        dg_homotopy_equivalence_check(inc, window=(-1, 0))


def test_vertex_inclusion_is_still_a_quasi_iso_on_each_pair(vertex2):
    host, cocube, enr, alt = vertex2
    inc = alternating_inclusion_functor(alt, enr)
    for x in (1, 2):
        for y in (1, 2):
            assert is_quasi_iso(inc.mor_maps[(x, y)], window=(-1, 0)).ok


def test_sign_average_projection_is_a_strict_equivalence(vertex2):
    host, cocube, enr, alt = vertex2
    proj = alternating_projection_functor(enr, alt)
    assert validate_functor(proj).ok
    assert dg_homotopy_equivalence_check(proj, window=(-1, 0)).ok


def test_comparison_functors_refuse_enrichments_over_different_hosts():
    h2 = build_vertex_cubes("Q", top=2, objects=(1,))
    h3 = build_vertex_cubes("Q", top=3, objects=(1,))
    with pytest.raises(ValueError, match="same host"):
        alternating_inclusion_functor(alternating_enrichment(*h2), cubical_enrichment(*h3))
    with pytest.raises(ValueError, match="same host"):
        alternating_projection_functor(cubical_enrichment(*h2), alternating_enrichment(*h3))


def test_comparison_functors_refuse_enrichments_over_different_cubes():
    # same host and maps, but the second co-cubical object stops at level 2:
    # the projection would drop level 3, the inclusion would ask for it
    host, cocube = build_vertex_cubes("Q", top=3, objects=(1,))
    short = CoCubicalObject(host, 2, True, cube=cocube.cube, image=cocube.image,
                            delta=cocube.delta)
    with pytest.raises(ValueError, match="co-cubical object"):
        alternating_projection_functor(cubical_enrichment(host, cocube),
                                       alternating_enrichment(host, short))
    with pytest.raises(ValueError, match="co-cubical object"):
        alternating_inclusion_functor(alternating_enrichment(host, short),
                                      cubical_enrichment(host, cocube))


def test_collapse_functor_fails_with_a_witness_pair(fincor_z):
    enr = fincor_z[2]
    col = collapse_functor(enr.category)
    assert validate_functor(col).ok
    report = dg_homotopy_equivalence_check(col, window=(-4, 0))
    assert not report.ok
    assert len(report.failing_pairs()) > 0


# ---------------------------------------------------------------------------
# Level data against the compose route.


def compose_action(enr, x, y, f):
    """Oracle for `group(x, y).act(f)`: compose every unit vector of
    Hom(x (x) cube^f.cod, y) with u = id_x (x) image(f) through
    `DGCategory.compose`, one column each."""
    host = enr.host
    C = host.category
    u = host.mor_tensor(C.identity(x), enr.cocube.image(f))
    cols = [C.compose(e, u).vector for e in C.basis(u.target, y, 0)]
    return _columns_to_matrix(C.ring, C.hom(u.source, y).rank(0), cols)


def chat_composition(enr, x, y, z, p, q):
    """Oracle for `comp_matrix(x, y, z, p, q)`: every pair of model columns
    composed one at a time as g . (f (x) id_cube) . (id_x (x) delta_n), with
    the action matrices from `compose_action`, g outer; then projected
    along the degenerate splitting (cubical) or by the level data's own
    `project` (alternating), solving for each composite."""
    host, Q = enr.host, enr.cocube
    C = host.category
    b, a = -p, -q
    n = a + b
    gfull = compose_action(enr, y, z, front_projection(b, a)) * enr.model(y, z).level_basis[b]
    ffull = compose_action(enr, x, y, back_projection(b, a)) * enr.model(x, y).level_basis[a]
    dup = host.mor_tensor(C.identity(x), Q.delta(n))
    cols = []
    for i in range(gfull.ncols):
        g = C.element(enr.levels.level_object(y, n), z, 0, tuple(gfull.col(i)))
        for j in range(ffull.ncols):
            f = C.element(enr.levels.level_object(x, n), y, 0, tuple(ffull.col(j)))
            w = C.compose(host.mor_tensor(f, C.identity(Q.cube(n))), dup)
            cols.append(C.compose(g, w).vector)
    raw = _columns_to_matrix(C.ring, enr.group(x, z).rank(n), cols)
    if isinstance(enr, AlternatingEnrichment):
        return enr.levels.project(x, z, n, raw)
    P = degenerate_projector(enr.group(x, z), n)
    return restrict(enr.model(x, z).level_basis[n], P * raw, "the projection")


ORACLE_HOSTS = {
    "vertex-Z-top2": lambda: build_vertex_cubes("Z", top=2, objects=(1, 2)),
    "vertex-Q-top3": lambda: build_vertex_cubes("Q", top=3, objects=(1, 2)),
    # every cube is the unit here, so higher levels add nothing new
    "fincor-Q-top2": lambda: build_fincor([("p", "q"), ("u", "v")], ring="Q", top=2),
}


@pytest.mark.parametrize("name", sorted(ORACLE_HOSTS))
def test_action_matrices_match_the_compose_route(name):
    host, cocube = ORACLE_HOSTS[name]()
    enr = cubical_enrichment(host, cocube)
    top, objects = cocube.top, host.category.objects
    checked = 0
    for m, k in itertools.product(range(top + 1), repeat=2):
        for f in enumerate_homset(m, k, extended=cocube.extended, bound=top):
            # x != y: blocks of another size than the cube factor, on both sides
            for x, y in itertools.permutations(objects, 2):
                got = enr.group(x, y).act(f)
                assert got == compose_action(enr, x, y, f), (name, f, x, y)
                checked += not got.is_zero()
    assert checked > 0


@pytest.mark.parametrize("name", sorted(ORACLE_HOSTS))
def test_composition_matches_the_per_pair_compose_route(name):
    host, cocube = ORACLE_HOSTS[name]()
    top = cocube.top
    enrichments = [cubical_enrichment(host, cocube)]
    if host.category.ring == "Q":
        enrichments.append(alternating_enrichment(host, cocube))
    checked = 0
    for enr in enrichments:
        C = enr.category
        for x, y, z in itertools.product(C.objects, repeat=3):
            for p, q in itertools.product(range(-top, 1), repeat=2):
                if p + q < -top:
                    continue
                mat = C.comp_matrix(x, y, z, p, q)
                if mat.nrows and mat.ncols:
                    assert mat == chat_composition(enr, x, y, z, p, q), (name, x, y, z, p, q)
                    checked += not mat.is_zero()
    assert checked > 0


def test_projection_must_fix_the_model_basis(monkeypatch):
    # a projector that kills the reduced part would make every composite 0
    host, cocube = build_vertex_cubes("Q", top=2, objects=(1,))
    enr = cubical_enrichment(host, cocube)
    monkeypatch.setattr(dgcat, "degenerate_projector",
                        lambda A, n: Matrix.zero(A.ring, A.rank(n), A.rank(n)))
    with pytest.raises(ValueError, match="does not fix the model at level 1"):
        enr.category.comp_matrix(1, 1, 1, -1, 0)


# ---------------------------------------------------------------------------
# The tensor action.


def test_unit_acts_as_the_identity(vertex2):
    host, cocube, enr, alt = vertex2
    act = tensor_action(host, enr)
    rng = random.Random(31)
    for x in (1, 2):
        for y in (1, 2):
            for n in range(3):
                r = enr.category.hom(x, y).rank(-n)
                f = enr.category.element(x, y, -n, random_hom_vector(rng, r))
                out = act.act_on(host.category.identity(1), f)
                assert out.source == x and out.target == y
                assert out.vector == f.vector


def test_tensor_action_gives_a_dg_functor(vertex2):
    host, cocube, enr, alt = vertex2
    act = tensor_action(host, enr)
    functor = act.functor(2)
    assert validate_functor(functor).ok
    assert functor.obj_map == {1: 2, 2: 4}


def test_action_on_graphs_is_the_product_of_graphs(fincor_z):
    host, cocube, enr = fincor_z
    act = tensor_action(host, enr)
    X = (("p", "q"),)
    Y = (("u", "v", "w"),)
    fn_a = {("p",): ("u",), ("q",): ("v",)}
    fn_f = {("p",): ("w",), ("q",): ("u",)}
    a = host.category.element(X, Y, 0, graph_vector(X, Y, fn_a))
    f = enr.category.element(X, Y, 0, graph_vector(X, Y, fn_f))
    out = act.act_on(a, f)
    product = {
        pa + pf: fn_a[pa] + fn_f[pf]
        for pa in fincor_elements(X)
        for pf in fincor_elements(X)
    }
    assert out.source == X + X and out.target == Y + Y
    assert out.vector == graph_vector(X + X, Y + Y, product)


def test_action_refuses_foreign_hosts(fincor_z, vertex2):
    with pytest.raises(ValueError, match="same host"):
        tensor_action(fincor_z[0], vertex2[2])
