import dataclasses
import gc
import itertools
import operator
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
from dgforge import dgcat, linalg
from dgforge.cubical import degenerate_projector, sign_coordinates
from dgforge.dgcat import (
    CoCubicalObject,
    DGFailure,
    DGCategory,
    DGReport,
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
    FunctorReport,
)
from dgforge.linalg import (
    Matrix,
    _columns_to_matrix,
    complex_homology,
    cut_complex,
    identity_chain_map,
    is_quasi_iso,
    make_chain_map,
    make_complex,
    mul_kron,
    restrict,
    single_complex,
    two_term_complex,
)
from dgforge.pretr import cone, i0, make_twisted, pretr_category
from dgforge.sheaf import augmentation_functor, constant_category_presheaf, rgamma, sierpinski_site
from util_gen import (
    canonical_entry,
    random_closed_morphism,
    random_complex,
    random_hom_vector,
    random_twisted,
)


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


def test_a_category_without_objects_fails():
    C = DGCategory("Z", [], lambda x, y: single_complex("Z", 0, 1))
    none = DGFailure("objects", (), "no objects")
    assert validate_dg(C) == DGReport(ok=False, failures=(none,))
    assert validate_functor(DGFunctor(C, C, {}, {})) == FunctorReport(False, (none,))
    with pytest.raises(ValueError, match="functor data fails: objects"):
        dg_homotopy_equivalence_check(DGFunctor(C, C, {}, {}))
    with pytest.raises(ValueError, match="no complexes"):
        complexes_category({})


@pytest.mark.parametrize("ring", ["Z", "Q"])
def test_identity_vectors_must_be_exact(ring):
    def category(unit):
        return DGCategory(ring, ("x",), lambda x, y: single_complex(ring, 0, 1),
                          comp_fn=lambda *key: Matrix(ring, [[1]]), id_fn=lambda x: unit)

    with pytest.raises(ValueError, match="must be"):
        category((1.0,)).identity("x")
    e = category((Fraction(2, 2),)).identity("x")
    assert e.vector == (1,) and type(e.vector[0]) is int
    assert category([1]).identity("x").vector == (1,)


# ---------------------------------------------------------------------------
# The law checker against the per-degree reference.


def first_diff(a, b):
    for i in range(a.nrows):
        for j in range(a.ncols):
            if a[i, j] != b[i, j]:
                return "entry (%d, %d): %s != %s" % (i, j, a[i, j], b[i, j])
    return "equal"


def ranked_degrees(cx):
    return [n for n in cx.degrees() if cx.rank(n)]


def leibniz_sides(C, x, y, z, p, q):
    """d (g f) and d(g) f + (-1)^p g d(f) on Hom(y,z)^p (x) Hom(x,y)^q."""
    gz, fz = C.hom(y, z), C.hom(x, y)
    lhs = C.hom(x, z).d(p + q) * C.comp_matrix(x, y, z, p, q)
    rhs = mul_kron(C.comp_matrix(x, y, z, p + 1, q), gz.d(p), fz.rank(q))
    term = mul_kron(C.comp_matrix(x, y, z, p, q + 1), gz.rank(p), fz.d(q))
    return lhs, rhs + (term.scale(-1) if p % 2 else term)


def observable(cx, n):
    """Whether a composite landing in degree n of cx is evidence: n is a
    stored degree, or one where the cut says cx is honestly zero."""
    return cx.lo <= n <= cx.hi or cx.exact(n)


def per_degree_validate_dg(C):
    """Reference for `validate_dg`: the law checker it replaced, with the
    Leibniz rule and associativity checked one degree pair (or triple) at
    a time on the composition blocks, and a block left out where a
    composite it reads is not `observable`."""
    if not C.objects:
        return DGReport(ok=False, failures=(DGFailure("objects", (), "no objects"),))
    failures = []

    def mismatch(law, where, lhs, rhs):
        if lhs != rhs:
            failures.append(DGFailure(law, where, first_diff(lhs, rhs)))

    for x in C.objects:
        for y in C.objects:
            cx = C.hom(x, y)
            for n in cx.degrees():
                if not (cx.d(n + 1) * cx.d(n)).is_zero():
                    failures.append(DGFailure("dsq", (x, y, n), "d(n+1) d(n) != 0"))
    for x in C.objects:
        e = C.identity(x)
        if e.degree != 0:
            failures.append(DGFailure("unit-degree", (x,), "degree %d" % e.degree))
        if not C.differential(e).is_zero():
            failures.append(DGFailure("unit-closed", (x,), "d(id) != 0"))
    for x, y, z in itertools.product(C.objects, repeat=3):
        for p in ranked_degrees(C.hom(y, z)):
            for q in ranked_degrees(C.hom(x, y)):
                if observable(C.hom(x, z), p + q):
                    mismatch("leibniz", (x, y, z, p, q), *leibniz_sides(C, x, y, z, p, q))
    for x, y, z, w in itertools.product(C.objects, repeat=4):
        mid_l, mid_r = C.hom(y, w), C.hom(x, z)
        for p in ranked_degrees(C.hom(z, w)):
            for q in ranked_degrees(C.hom(y, z)):
                if not observable(mid_l, p + q):
                    continue
                for r in ranked_degrees(C.hom(x, y)):
                    if observable(mid_r, q + r):
                        lhs = mul_kron(C.comp_matrix(x, y, w, p + q, r),
                                       C.comp_matrix(y, z, w, p, q), C.hom(x, y).rank(r))
                        rhs = mul_kron(C.comp_matrix(x, z, w, p, q + r),
                                       C.hom(z, w).rank(p), C.comp_matrix(x, y, z, q, r))
                        mismatch("assoc", (x, y, z, w, p, q, r), lhs, rhs)
    for x, y in itertools.product(C.objects, repeat=2):
        idy = Matrix.column(C.ring, list(C.identity(y).vector))
        idx = Matrix.column(C.ring, list(C.identity(x).vector))
        for q in ranked_degrees(C.hom(x, y)):
            rq = C.hom(x, y).rank(q)
            eye = Matrix.identity(C.ring, rq)
            mismatch("unit-left", (x, y, q), mul_kron(C.comp_matrix(x, y, y, 0, q), idy, rq), eye)
            mismatch("unit-right", (x, y, q), mul_kron(C.comp_matrix(x, x, y, q, 0), rq, idx), eye)
    return DGReport(ok=not failures, failures=tuple(failures))


def per_degree_validate_functor(F):
    """Reference for `validate_functor`: the checker it replaced, with the
    chain-map law checked one degree and the composition-image law one
    degree pair at a time on the components, after the same checks of the
    object and Hom maps.  A composite outside the window of the target Hom
    has no rows, and one that is not `observable` in the source is left
    out."""
    C, D = F.source, F.target
    if not C.objects:
        return FunctorReport(False, (DGFailure("objects", (), "no objects"),))
    pairs = list(itertools.product(C.objects, repeat=2))
    failures = [DGFailure("object-map", (x,), "missing") for x in C.objects if x not in F.obj_map]
    failures += [DGFailure("hom-map", xy, "missing") for xy in pairs if xy not in F.mor_maps]
    if failures:
        return FunctorReport(False, tuple(failures))
    for x, y in pairs:
        cmap, src, tgt = F.mor_maps[x, y], C.hom(x, y), D.hom(F.obj_map[x], F.obj_map[y])
        if cmap.source != src or cmap.target != tgt:
            failures.append(DGFailure("hom-map", (x, y), "wrong complexes"))
            continue
        for n, m in sorted(cmap.comps.items()):
            if (m.nrows, m.ncols) != (tgt.rank(n), src.rank(n)):
                failures.append(DGFailure("hom-map", (x, y), "wrong shape at degree %d" % n))
    if failures:
        return FunctorReport(False, tuple(failures))
    for x, y in pairs:
        cmap, src, tgt = F.mor_maps[x, y], C.hom(x, y), D.hom(F.obj_map[x], F.obj_map[y])
        for n in src.degrees():
            lhs = tgt.d(n) * cmap.comp(n)
            rhs = cmap.comp(n + 1) * src.d(n)
            if lhs != rhs:
                failures.append(DGFailure("chain-map", (x, y, n), first_diff(lhs, rhs)))
    for x in C.objects:
        img = linalg._apply(F.mor_maps[(x, x)].comp(0), C.identity(x).vector)
        if img != D.identity(F.obj_map[x]).vector:
            failures.append(DGFailure("unit-image", (x,), "F(id) != id"))
    for x, y, z in itertools.product(C.objects, repeat=3):
        fx, fy, fz = F.obj_map[x], F.obj_map[y], F.obj_map[z]
        tgt, hxz = D.hom(fx, fz), C.hom(x, z)
        for p in ranked_degrees(C.hom(y, z)):
            for q in ranked_degrees(C.hom(x, y)):
                if not (tgt.lo <= p + q <= tgt.hi and observable(hxz, p + q)):
                    continue
                lhs = F.mor_maps[(x, z)].comp(p + q) * C.comp_matrix(x, y, z, p, q)
                rhs = mul_kron(D.comp_matrix(fx, fy, fz, p, q),
                               F.mor_maps[(y, z)].comp(p), F.mor_maps[(x, y)].comp(q))
                if lhs != rhs:
                    failures.append(
                        DGFailure("composition-image", (x, y, z, p, q), first_diff(lhs, rhs)))
    return FunctorReport(ok=not failures, failures=tuple(failures))


def base_complexes():
    """Four complexes with windows of width 0 to 2, so that composites leave
    the windows of the Hom complexes on both sides."""
    return complexes_category({
        "a": two_term_complex("Z", 0, Matrix("Z", [[2]])),
        "b": make_complex("Z", -1, [1, 2, 1], [Matrix("Z", [[1], [0]]), Matrix("Z", [[0, 3]])]),
        "pt": single_complex("Z", 0, 1),
        "c": make_complex("Z", -1, [1, 2, 1], [Matrix("Z", [[1], [0]]), Matrix("Z", [[0, 0]])]),
    })


def pretr_cones():
    """Pre-Tr on the cones of three nonzero closed degree-0 maps a -> pt,
    pt -> pt and a -> a of the base complexes."""
    C = base_complexes()
    rng = random.Random(5)
    tcs = {}
    for i, (s, t) in enumerate((("a", "pt"), ("pt", "pt"), ("a", "a"))):
        f = random_closed_morphism(rng, i0(C, s), i0(C, t))
        while f.is_zero():
            f = random_closed_morphism(rng, i0(C, s), i0(C, t))
        tcs["t%d" % i] = cone(f).cone
    return pretr_category(C, tcs)


def pretr_nested():
    """Pre-Tr over Pre-Tr: the cone EE of a nonzero closed map F -> E of
    twisted complexes over the base complexes, next to F itself."""
    C = base_complexes()
    rng = random.Random(20)
    E, F = (random_twisted(rng, C, list(C.objects), depth=1, max_entries=3) for _ in "EF")
    f = random_closed_morphism(rng, F, E)
    assert len(E.e) and len(F.e) and not f.is_zero()
    P = pretr_category(C, {"E": E, "F": F})
    EE = make_twisted(P, {0: "F", 1: "E"}, {(1, 0): P.as_element("F", "E", f)})
    return pretr_category(P, {"EE": EE, "F": i0(P, "F")})


def vertex_categories(build, ring):
    host, cocube = build_vertex_cubes(ring=ring, top=2, objects=(1, 2))
    return build(host, cocube).category


def pretr_over(C):
    """Pre-Tr on the objects of C, each in degree 0."""
    return pretr_category(C, {x: i0(C, x) for x in C.objects})


LAW_CASES = {
    "complexes-Z": lambda: complexes_category({
        "a": two_term_complex("Z", 0, Matrix("Z", [[2]])), "b": single_complex("Z", 0, 1)}),
    "complexes-Q": lambda: complexes_category({
        k: random_complex(random.Random(k), ring="Q", max_pieces=2, lo_range=(-1, 1))
        for k in (3, 4)}),
    "pretr-cones": pretr_cones,
    "pretr-nested": pretr_nested,
    "alternating-Q": lambda: vertex_categories(alternating_enrichment, "Q"),
    "cubical-Z": lambda: vertex_categories(cubical_enrichment, "Z"),
    "pretr-over-cubical": lambda: pretr_over(vertex_categories(cubical_enrichment, "Z")),
}
_law_cases = {}


def law_case(name):
    """The category LAW_CASES[name], built once per test session."""
    if name not in _law_cases:
        _law_cases[name] = LAW_CASES[name]()
    return _law_cases[name]


def composition_blocks(C):
    """The keys (x, y, z, p, q) of the composition blocks with rows and
    columns."""
    return [(x, y, z, p, q) for x, y, z in itertools.product(C.objects, repeat=3)
            for p in ranked_degrees(C.hom(y, z)) for q in ranked_degrees(C.hom(x, y))
            if C.hom(x, z).rank(p + q)]


def corrupted(C, kind, block=None, entry=0, objects=None):
    """C with its composition changed: "flip" scales degrees (p, q) by
    (-1)^(pq), "scale" doubles the block with key `block` and "plus1" adds 1
    to its entry number `entry` (row-major, modulo the block's size).  The
    objects are C's unless `objects` are given."""

    def comp(*key):
        mat = C.comp_matrix(*key)
        if kind == "flip":
            return mat.scale(-1) if (key[3] * key[4]) % 2 else mat
        if key != block or kind == "none":
            return mat
        if kind == "scale":
            return mat.scale(2)
        rows = [list(row) for row in mat.rows]
        i, j = divmod(entry % (mat.nrows * mat.ncols), mat.ncols)
        rows[i][j] += 1
        return Matrix(C.ring, rows, nrows=mat.nrows, ncols=mat.ncols)

    return DGCategory(C.ring, C.objects if objects is None else objects, C.hom, comp_fn=comp,
                      id_fn=lambda x: C.identity(x).vector)


@given(st.sampled_from(sorted(LAW_CASES)), st.sampled_from(("none", "flip", "scale", "plus1")),
       st.integers(0, 10 ** 6), st.integers(0, 10 ** 6))
def test_validate_dg_equals_the_per_degree_reference(name, kind, pick, entry):
    C = law_case(name)
    blocks = composition_blocks(C)
    bad = corrupted(C, kind, blocks[pick % len(blocks)], entry)
    assert validate_dg(bad) == per_degree_validate_dg(bad)


@pytest.mark.parametrize("name", sorted(LAW_CASES))
def test_each_law_case_passes_and_its_flipped_control_fails_as_the_reference_does(name):
    C = law_case(name)
    assert validate_dg(C) == per_degree_validate_dg(C) == DGReport(ok=True, failures=())
    bad = corrupted(C, "flip")
    report = validate_dg(bad)
    assert report == per_degree_validate_dg(bad)
    # the flip breaks the Leibniz rule only where a differential meets an
    # odd-odd composite, and in the depth-2 enrichments none does
    assert report.ok == (name in ("alternating-Q", "cubical-Z", "pretr-over-cubical"))


def test_the_flipped_control_fails_leibniz_four_times_on_one_cone():
    bad = corrupted(law_case("pretr-cones"), "flip", objects=("t1",))
    report = validate_dg(bad)
    assert report.laws_failed() == ["leibniz"] and len(report.failures) == 4
    assert report == per_degree_validate_dg(bad)


@pytest.mark.parametrize("kind", ["scale", "plus1"])
def test_every_corrupted_block_is_reported_as_the_reference_does(kind):
    C = law_case("pretr-cones")
    failed = set()
    for block in composition_blocks(C)[::20]:
        bad = corrupted(C, kind, block)
        report = validate_dg(bad)
        assert report == per_degree_validate_dg(bad), block
        failed.update(report.laws_failed())
    assert {"leibniz", "assoc"} <= failed


def test_the_leibniz_window_edge_is_skipped_as_in_the_reference():
    # the cubical enrichment drops composites below level 2: at p + q = lo - 1
    # the two sides of the Leibniz rule differ, and the law is not checked there
    C = law_case("cubical-Z")
    edge = [(x, y, z, p, q) for x, y, z in itertools.product(C.objects, repeat=3)
            for p in ranked_degrees(C.hom(y, z)) for q in ranked_degrees(C.hom(x, y))
            if p + q == C.hom(x, z).lo - 1]
    differing = [key for key in edge if operator.ne(*leibniz_sides(C, *key))]
    assert differing
    assert validate_dg(C) == per_degree_validate_dg(C) == DGReport(ok=True, failures=())
    # a corrupted block at the lowest degree lo: its own pair is checked, the
    # edge pairs next to it are not
    blocks = set(composition_blocks(C))
    corners = {(x, y, z, p + 1, q) for x, y, z, p, q in differing}
    corners |= {(x, y, z, p, q + 1) for x, y, z, p, q in differing}
    assert corners & blocks
    for block in sorted(corners & blocks):
        bad = corrupted(C, "plus1", block)
        report = validate_dg(bad)
        assert not report.ok and report == per_degree_validate_dg(bad)


def test_laws_take_two_products_per_object_tuple(monkeypatch):
    P = pretr_cones()
    assert validate_dg(P).ok  # fills the composition cache
    calls = []
    real = linalg.mul_kron
    # the Leibniz products run inside `linalg.leibniz_mismatches`, the rest in dgcat
    for module in (dgcat, linalg):
        monkeypatch.setattr(module, "mul_kron", lambda M, A, B: calls.append(M) or real(M, A, B))
    assert validate_dg(P).ok
    n = len(P.objects)
    # leibniz 2 per triple, assoc 2 per quadruple, the unit laws 2 per pair
    assert len(calls) == 2 * n ** 3 + 2 * n ** 4 + 2 * n ** 2


# ---------------------------------------------------------------------------
# Negative controls: one broken category per law.


def test_a_complex_with_nonzero_d_squared_fails_dsq_only():
    # End(x) = Z in degrees -2, -1, 0 with d = 1 twice; the unit composes as
    # the identity and the two negative degrees compose to 0.  The composites
    # below -2 are dropped: cut there, d^2 is the only failure; uncut, the
    # dropped composites fail the Leibniz rule at -3 as well
    hom = make_complex("Z", -2, [1, 1, 1], [Matrix("Z", [[1]])] * 2, check=False)
    dsq = DGFailure("dsq", ("x", "x", -2), "d(n+1) d(n) != 0")
    leibniz = [DGFailure("leibniz", ("x", "x", "x") + pq, "entry (0, 0): 0 != 1")
               for pq in ((-2, -1), (-1, -2))]
    for cx, failures in ((cut_complex(hom, lo=-2), (dsq,)), (hom, (dsq, *leibniz))):
        C = DGCategory("Z", ("x",), lambda x, y: cx,
                       comp_fn=lambda x, y, z, p, q: Matrix("Z", [[int(0 in (p, q))]]),
                       id_fn=lambda x: (1,))
        assert validate_dg(C) == per_degree_validate_dg(C) == DGReport(False, failures)


def test_d_squared_in_two_degrees_of_two_hom_pairs_is_reported_as_the_reference_does():
    # End(x) = End(y) = Z in degrees -3..0 with d = 1 three times, so d^2 != 0
    # at -3 and -2; Hom(x, y) = Hom(y, x) = 0
    hom = make_complex("Z", -3, [1] * 4, [Matrix("Z", [[1]])] * 3, check=False)
    C = DGCategory("Z", ("x", "y"),
                   lambda x, y: hom if x == y else single_complex("Z", 0, 0),
                   comp_fn=lambda x, y, z, p, q: Matrix("Z", [[int(0 in (p, q))]]),
                   id_fn=lambda x: (1,))
    report = validate_dg(C)
    assert [f for f in report.failures if f.law == "dsq"] == [
        DGFailure("dsq", (x, x, n), "d(n+1) d(n) != 0") for x in "xy" for n in (-3, -2)]
    assert report == per_degree_validate_dg(C)


def test_a_doubled_unit_fails_left_before_right_in_each_degree_as_the_reference_does():
    # End(u) has the three ranked degrees -1, 0 and 1
    C = complexes_category({"u": make_complex("Z", -1, [1, 1], [Matrix("Z", [[0]])]),
                            "v": single_complex("Z", 0, 1)})
    assert len(ranked_degrees(C.hom("u", "u"))) == 3
    bad = DGCategory("Z", C.objects, C.hom, comp_fn=C.comp_matrix,
                     id_fn=lambda x: tuple(v * (1 + (x == "u")) for v in C.identity(x).vector))
    report = validate_dg(bad)
    assert report.laws_failed() == ["unit-left", "unit-right"]
    units = [(f.law, f.where) for f in report.failures if f.where[:2] == ("u", "u")]
    assert units == [(law, ("u", "u", q)) for q in (-1, 0, 1) for law in ("unit-left", "unit-right")]
    assert report == per_degree_validate_dg(bad)


def test_a_doubled_composition_block_fails_assoc_only():
    # two objects with Hom = Z everywhere; g f doubled for f: u -> v, g: v -> u
    C = complexes_category({"u": single_complex("Z", 0, 1), "v": single_complex("Z", 0, 1)})
    bad = corrupted(C, "scale", ("u", "v", "u", 0, 0))
    report = validate_dg(bad)
    assert report.laws_failed() == ["assoc"]
    assert report.failures == (
        DGFailure("assoc", ("u", "v", "u", "v", 0, 0, 0), "entry (0, 0): 1 != 2"),
        DGFailure("assoc", ("v", "u", "v", "u", 0, 0, 0), "entry (0, 0): 2 != 1"),
    )
    assert report == per_degree_validate_dg(bad)


def test_a_wrong_unit_fails_the_unit_laws_only():
    # Hom = Z except Hom(y, x) = 0, composition 1, and the unit of y is 2
    C = DGCategory("Z", ("x", "y"), lambda x, y: single_complex("Z", 0, int((x, y) != ("y", "x"))),
                   comp_fn=lambda *key: Matrix("Z", [[1]]),
                   id_fn=lambda x: (2,) if x == "y" else (1,))
    report = validate_dg(C)
    assert report.laws_failed() == ["unit-left", "unit-right"]
    assert report.failures == (
        DGFailure("unit-left", ("x", "y", 0), "entry (0, 0): 2 != 1"),
        DGFailure("unit-left", ("y", "y", 0), "entry (0, 0): 2 != 1"),
        DGFailure("unit-right", ("y", "y", 0), "entry (0, 0): 2 != 1"),
    )
    assert report == per_degree_validate_dg(C)


def test_a_unit_that_is_not_a_cycle_fails_unit_closed():
    # End(x) = Z e -> Z t with d e = t, e the unit and every product of
    # degrees adding up to 0 or 1 equal to 1: the unit laws and assoc hold,
    # and d(e e) = t != 2 t = d(e) e + e d(e), so Leibniz fails with it
    hom = make_complex("Z", 0, [1, 1], [Matrix("Z", [[1]])])
    C = DGCategory("Z", ("x",), lambda x, y: hom,
                   comp_fn=lambda *key: Matrix("Z", [[1]]), id_fn=lambda x: (1,))
    report = validate_dg(C)
    assert report.laws_failed() == ["leibniz", "unit-closed"]
    assert report.failures[0] == DGFailure("unit-closed", ("x",), "d(id) != 0")
    assert report == per_degree_validate_dg(C)


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


def _doubling_category():
    """Hom = Z in degree 0 between x and y, with x -> y -> x and y -> x -> y
    composing to twice the identity (Hom(y, x) is 2Z inside Z), and an
    object z with End(z) = Z and no maps to or from the others."""
    def rank(a, b):
        return 1 if a == b or {a, b} == {"x", "y"} else 0

    def comp(a, b, c, p, q):
        if rank(a, b) and rank(b, c) and rank(a, c):
            return Matrix("Z", [[2 if a == c != b else 1]])
        return Matrix.zero("Z", rank(a, c), rank(b, c) * rank(a, b))

    return DGCategory("Z", ("x", "y", "z"), lambda a, b: single_complex("Z", 0, rank(a, b)),
                      comp_fn=comp, id_fn=lambda a: (1,))


def test_a_bounded_iso_search_that_runs_out_says_so(cxcat):
    C = _doubling_category()
    assert validate_dg(C).ok
    h = homotopy_category(C)
    # every candidate f: x -> y has g f = 2 k id: there is no isomorphism, but
    # all three H^0 groups are Z, so the search cannot rule one out
    for bound in (1, 3):
        assert h.iso_exists("x", "y", bound) is dgcat.NOT_FOUND_WITHIN_BOUND
        assert h.iso_exists("y", "x", bound) is dgcat.NOT_FOUND_WITHIN_BOUND
    assert not h.iso_exists("x", "y")
    # no cycles between x and z, and End(z) = Z: provably no isomorphism
    assert h.iso_exists("x", "z") is False
    assert h.iso_exists("x", "x") is True
    # End(a) = Z/2 and End(b) = Z in H^0: provably no isomorphism either
    assert homotopy_category(cxcat).iso_exists("a", "b") is False


def test_the_equivalence_report_lists_undecided_objects_apart_from_missing_ones():
    C = _doubling_category()
    S = DGCategory("Z", ("x",), lambda a, b: single_complex("Z", 0, 1),
                   comp_fn=lambda *args: Matrix("Z", [[1]]), id_fn=lambda a: (1,))
    hom = S.hom("x", "x")
    F = DGFunctor(S, C, {"x": "x"}, {("x", "x"): make_chain_map(hom, hom, {0: Matrix("Z", [[1]])})})
    report = dg_homotopy_equivalence_check(F)
    assert not report.ok
    assert report.failing_pairs() == ()
    assert report.missing_objects == ("z",)
    assert report.undecided_objects == ("y",)


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
    report = dg_homotopy_equivalence_check(ident)
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


def identity_functor(C):
    """The identity of C, one `identity_chain_map` per Hom pair."""
    mor_maps = {(x, y): identity_chain_map(C.hom(x, y)) for x in C.objects for y in C.objects}
    return DGFunctor(C, C, {x: x for x in C.objects}, mor_maps)


def test_a_hom_map_between_the_wrong_complexes_is_reported_not_raised(cxcat):
    # the identity of Z^3 in degree 0 sits on ('a', 'b'): no law is checked
    # against it, and no composite is multiplied through it
    F = identity_functor(cxcat)
    F.mor_maps[("a", "b")] = identity_chain_map(single_complex("Z", 0, 3))
    report = validate_functor(F)
    assert report == FunctorReport(False, (DGFailure("hom-map", ("a", "b"), "wrong complexes"),))
    with pytest.raises(ValueError, match="hom-map"):
        dg_homotopy_equivalence_check(F)


def test_a_component_of_the_wrong_shape_is_reported_not_raised(cxcat):
    F = identity_functor(cxcat)
    cx = cxcat.hom("a", "a")
    comps = dict(F.mor_maps[("a", "a")].comps)
    comps[1] = Matrix.identity("Z", cx.rank(1) + 1)
    comps[-1] = Matrix.zero("Z", cx.rank(-1), 2)
    F.mor_maps[("a", "a")] = linalg.ChainMap(cx, cx, comps)
    assert validate_functor(F) == FunctorReport(False, (
        DGFailure("hom-map", ("a", "a"), "wrong shape at degree -1"),
        DGFailure("hom-map", ("a", "a"), "wrong shape at degree 1"),
    ))


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


def test_a_cocubical_report_names_the_highest_level_it_checked():
    host, merged = build_fincor([("x", "y")], "Z", top=5)
    plain = CoCubicalObject(host, 5, False, cube=merged.cube,
                            image=merged.image, delta=merged.delta)
    # the default walk stops below top 5, and the report says where
    assert validate_cocubical(plain).checked_upto == 3
    assert validate_cocubical(merged).checked_upto == 2
    assert validate_cocubical(merged, bound=1).checked_upto == 1
    # no report on no levels, nor on levels above the top
    for bound in (-1, 6):
        with pytest.raises(ValueError, match="outside the levels 0..5"):
            validate_cocubical(merged, bound=bound)


def pinned_delta(n):
    """A vertex-cube comultiplication with the second output coordinate
    stuck at vertex 0: not symmetric."""
    dom = 2 ** n
    vec = [0] * (dom * dom * dom)
    for u in range(dom):
        vec[(u * dom + 0) * dom + u] = 1
    return HomElement(dom, dom * dom, 0, tuple(vec))


def test_broken_comultiplication_is_reported_by_axiom_name(vertex2):
    host, cocube = vertex2[0], vertex2[1]
    bad = CoCubicalObject(host, 2, True, cube=cocube.cube,
                          image=cocube.image, delta=pinned_delta)
    report = validate_cocubical(bad)
    assert not report.ok
    assert "symmetric" in {f.law for f in report.failures}
    with pytest.raises(ValueError, match="symmetric"):
        cubical_enrichment(host, bad)


def counted_validation(monkeypatch):
    """The co-cubical objects that `validate_cocubical` is run on, in order."""
    seen, real = [], dgcat.validate_cocubical
    monkeypatch.setattr(dgcat, "validate_cocubical",
                        lambda Q, bound=None: seen.append(Q) or real(Q, bound))
    return seen


def test_each_cocubical_object_is_validated_once(monkeypatch):
    host, cocube = build_vertex_cubes(ring="Q", top=2, objects=(1,))
    seen = counted_validation(monkeypatch)
    enrichments = [cubical_enrichment(host, cocube), alternating_enrichment(host, cocube)]
    assert seen == [cocube] and all(validate_dg(e.category).ok for e in enrichments)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cocube.top = 3


def test_a_cocubical_check_reads_each_image_and_delta_once():
    host, cocube = build_vertex_cubes(ring="Q", top=2, objects=(1,))
    images, deltas = [], []
    Q = CoCubicalObject(host, 2, True, cube=cocube.cube,
                        image=lambda f: images.append(f) or cocube.image(f),
                        delta=lambda n: deltas.append(n) or cocube.delta(n))
    assert validate_cocubical(Q).ok
    # 14 generators and 99 maps (identities included) at level bound 2
    assert len(images) <= 14 + 99 and sorted(deltas) == [0, 1, 2]


def test_a_bad_cocubical_object_is_validated_once_and_refused_each_time(vertex2, monkeypatch):
    host, cocube = vertex2[0], vertex2[1]
    bad = CoCubicalObject(host, 2, True, cube=cocube.cube,
                          image=cocube.image, delta=pinned_delta)
    seen = counted_validation(monkeypatch)
    messages = []
    for build in (cubical_enrichment, alternating_enrichment, cubical_enrichment):
        with pytest.raises(ValueError, match="comultiplication axiom failed: ") as err:
            build(host, bad)
        messages.append(str(err.value))
    assert seen == [bad]
    assert messages == ["comultiplication axiom failed: %s" % validate_cocubical(bad).failures[0].law] * 3


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


class RankOne:
    """An object of rank one in the vertex host that is not its unit 1; its
    tensor square is itself."""

    def __int__(self):
        return 1

    def __mul__(self, other):
        return self


def square_delta(n):
    """A comultiplication on V(n) (x) V(n), V the vertex cube: v (x) w goes to
    the mean of (v (x) v) (x) (w (x) w) and its twist.  It is natural for the
    diagonal action, symmetric and counital, and not coassociative where v != w."""
    k = 2 ** n
    dom = k * k
    vec = [0] * (dom * dom * dom)
    for v, w in itertools.product(range(k), repeat=2):
        vv, ww = v * k + v, w * k + w
        vec[(vv * dom + ww) * dom + v * k + w] += Fraction(1, 2)
        vec[(ww * dom + vv) * dom + v * k + w] += Fraction(1, 2)
    return HomElement(dom, dom * dom, 0, tuple(vec))


def broken_cocubes(host, cocube):
    """Co-cubical objects at top 2 on the vertex host, each breaking one law."""
    C = host.category
    point = RankOne()

    def cube(n):
        return 2 ** n if n else point

    return {
        # cube(0) is an object of rank one other than the tensor unit
        "unit-object": dict(
            cube=cube,
            image=lambda f: dataclasses.replace(cocube.image(f), source=cube(f.dom),
                                                target=cube(f.cod)),
            delta=lambda n: dataclasses.replace(cocube.delta(n), source=cube(n),
                                                target=cube(n) * cube(n))),
        # delta doubled everywhere: still natural, symmetric and coassociative
        "co-unital": dict(cube=cocube.cube, image=cocube.image,
                          delta=lambda n: C.scale(cocube.delta(n), 2)),
        "co-associative": dict(
            cube=lambda n: 4 ** n, delta=square_delta,
            image=lambda f: host.mor_tensor(cocube.image(f), cocube.image(f))),
        # delta doubled on cube^2 only: the maps into and out of level 2 see it
        "co-cubical": dict(cube=cocube.cube, image=cocube.image,
                           delta=lambda n: C.scale(cocube.delta(n), 1 + (n == 2))),
    }


@pytest.mark.parametrize("law", ["unit-object", "co-unital", "co-associative", "co-cubical"])
def test_each_comultiplication_law_is_reported_when_only_it_breaks(vertex2, law):
    host, cocube = vertex2[0], vertex2[1]
    bad = CoCubicalObject(host, 2, True, **broken_cocubes(host, cocube)[law])
    report = validate_cocubical(bad)
    assert {f.law for f in report.failures} == {law}


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
        # box products are sealed by the entry rule, as `C.element` seals
        assert all(canonical_entry("Q", v) for v in T.mor_tensor(f, g).vector + rhs.vector)
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
    report = dg_homotopy_equivalence_check(inc)
    assert report.ok
    assert report.failing_pairs() == ()
    assert report.missing_objects == ()
    # the default window stops at -2, where the cut at the top -3 begins;
    # read on down to -3 too
    assert {rep.window for _, rep in report.hom_reports} == {(-2, 0)}
    assert all(is_quasi_iso(m, window=(-3, 0)).ok for m in inc.mor_maps.values())


def test_vertex_inclusion_is_not_strict_and_the_check_says_so(vertex2):
    host, cocube, enr, alt = vertex2
    inc = alternating_inclusion_functor(alt, enr)
    report = validate_functor(inc)
    assert not report.ok
    assert {f.law for f in report.failures} == {"composition-image"}
    # the defect sits exactly where two depth-one elements meet depth two
    assert {f.where[-2:] for f in report.failures} == {(-1, -1)}
    with pytest.raises(ValueError, match="functor"):
        dg_homotopy_equivalence_check(inc)


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
    # both Hom models are cut at the top -2: the default window stops at -1
    report = dg_homotopy_equivalence_check(proj)
    assert report.ok
    assert {rep.window for _, rep in report.hom_reports} == {(-1, 0)}


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
    report = dg_homotopy_equivalence_check(col)
    assert not report.ok
    assert len(report.failing_pairs()) > 0
    # the default window reads the cut of the source Homs, moved down by one
    assert {rep.window for _, rep in report.hom_reports} == {(-4, 0)}


def augmentation(site, C, strict):
    """The global-sections embedding of C into rgamma of the constant
    category presheaf on the site."""
    CP = constant_category_presheaf(site, C)
    return augmentation_functor(CP, rgamma(CP, strict=strict))


FUNCTOR_CASES = {
    "inclusion-fincor": lambda get: alternating_inclusion_functor(get("fincor_q")[3],
                                                                  get("fincor_q")[2]),
    "inclusion-vertex": lambda get: alternating_inclusion_functor(get("vertex2")[3],
                                                                  get("vertex2")[2]),
    "projection-vertex": lambda get: alternating_projection_functor(get("vertex2")[2],
                                                                    get("vertex2")[3]),
    "tensor-action": lambda get: tensor_action(get("vertex2")[0], get("vertex2")[2]).functor(2),
    "collapse": lambda get: collapse_functor(get("fincor_z")[2].category),
    "augmentation-fincor": lambda get: augmentation(
        sierpinski_site(), build_fincor([("x", "y")], "Z", top=2)[0].category, True),
    "augmentation-torsion": lambda get: augmentation(
        sierpinski_site(), complexes_category({
            "a": two_term_complex("Z", 0, Matrix("Z", [[2]])), "pt": single_complex("Z", 0, 1)}),
        False),
}


def perturbed(F, rng):
    """F with one entry of one of its components moved by -1, 1 or 2; None
    when no component has an entry."""
    slots = [(xy, n, m) for xy, cmap in F.mor_maps.items()
             for n, m in cmap.comps.items() if m.nrows and m.ncols]
    if not slots:
        return None
    xy, n, m = rng.choice(slots)
    rows = [list(row) for row in m.rows]
    rows[rng.randrange(m.nrows)][rng.randrange(m.ncols)] += rng.choice((-1, 1, 2))
    cmap = F.mor_maps[xy]
    comps = dict(cmap.comps)
    comps[n] = Matrix(m.ring, rows, nrows=m.nrows, ncols=m.ncols)
    mor_maps = dict(F.mor_maps)
    mor_maps[xy] = linalg.ChainMap(cmap.source, cmap.target, comps)
    return DGFunctor(F.source, F.target, F.obj_map, mor_maps)


@pytest.mark.parametrize("name", sorted(FUNCTOR_CASES))
def test_validate_functor_equals_the_per_degree_reference(name, request):
    F = FUNCTOR_CASES[name](request.getfixturevalue)
    assert validate_functor(F) == per_degree_validate_functor(F)
    rng = random.Random(name)
    for _ in range(6):
        bad = perturbed(F, rng)
        if bad is not None:
            assert validate_functor(bad) == per_degree_validate_functor(bad)


def test_composites_outside_the_source_window_are_skipped_as_in_the_reference():
    # e in degree -1 with e e = e2 != 0 in the target, while the source
    # window stops at -1.  Uncut, the source is honestly 0 in degree -2, so
    # e e = 0 there and F fails to preserve it, as it does when the source
    # window reaches -2 with nothing in it; cut at -1, the source dropped
    # e e, and F(e) F(e) is no evidence either way
    def one_object(cx):
        return DGCategory("Z", ("o",), lambda x, y: cx, id_fn=lambda x: (1,),
                          comp_fn=lambda *key: Matrix("Z", [[1]]))

    D = one_object(make_complex("Z", -2, [1, 1, 1]))
    edge = DGFailure("composition-image", ("o", "o", "o", -1, -1), "entry (0, 0): 0 != 1")
    short = make_complex("Z", -1, [1, 1])
    for source, failures in ((short, (edge,)), (cut_complex(short, lo=-1), ()),
                             (make_complex("Z", -2, [0, 1, 1]), (edge,))):
        C = one_object(source)
        inc = make_chain_map(C.hom("o", "o"), D.hom("o", "o"),
                             {n: Matrix("Z", [[1]]) for n in (-1, 0)})
        F = DGFunctor(C, D, {"o": "o"}, {("o", "o"): inc})
        assert validate_functor(F) == per_degree_validate_functor(F) == FunctorReport(
            not failures, failures)


def test_one_changed_entry_gives_the_chain_map_failures_around_its_degree(cxcat):
    # End(a): d(-1) = [[2], [2]] and d(0) = [[2, -2]]; with entry (0, 1) of
    # the degree-0 component set to 1, D F = [[2], [2]] against F D = [[4], [2]]
    # at degree -1, and D F = [[2, 0]] against F D = [[2, -2]] at degree 0
    F = identity_functor(cxcat)
    cmap = F.mor_maps[("a", "a")]
    comps = dict(cmap.comps)
    comps[0] = Matrix("Z", [[1, 1], [0, 1]])
    F.mor_maps[("a", "a")] = linalg.ChainMap(cmap.source, cmap.target, comps)
    report = validate_functor(F)
    assert [f for f in report.failures if f.law == "chain-map"] == [
        DGFailure("chain-map", ("a", "a", -1), "entry (0, 0): 2 != 4"),
        DGFailure("chain-map", ("a", "a", 0), "entry (0, 1): 0 != -2"),
    ]
    assert report == per_degree_validate_functor(F)


def test_a_functor_that_doubles_an_endomorphism_complex_fails_the_unit_image(cxcat):
    F = identity_functor(cxcat)
    cx = cxcat.hom("b", "b")
    F.mor_maps[("b", "b")] = make_chain_map(cx, cx, {0: Matrix("Z", [[2]])})
    report = validate_functor(F)
    assert [f for f in report.failures if f.law != "composition-image"] == [
        DGFailure("unit-image", ("b",), "F(id) != id")]
    assert report == per_degree_validate_functor(F)


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
    the action matrices from `compose_action`, g outer; then projected by
    `project_raw`."""
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
    return project_raw(enr.levels, x, z, n, raw)


def project_raw(levels, x, z, n, raw):
    """The level-n columns of raw in model coordinates, read off the ring
    matrices: the sign average through the orbit sums (alternating), or
    the degenerate projector solved for in the model basis (cubical)."""
    B = levels.model(x, z).level_basis[n]
    if isinstance(levels, dgcat._AlternatingLevels):
        return sign_coordinates(B, raw)
    return restrict(B, degenerate_projector(levels.group(x, z), n) * raw, "the projection")


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


def row_major_product(nx, ny, nz, gvec, fvec):
    """g . f for g: ny -> nz and f: nx -> ny stored as dense row-major
    vectors, one multiply-add per pair of entries."""
    out = [0] * (nx * nz)
    for iz in range(nz):
        for iy in range(ny):
            c = gvec[iz * ny + iy]
            if c == 0:
                continue
            base = iy * nx
            for ix in range(nx):
                out[iz * nx + ix] += c * fvec[base + ix]
    return tuple(out)


def dense_level_maps(levels, x, y, z, p, q):
    """n = -(p + q), the g model columns moved to level n as the ring matrix
    gfull, for each f model column f_j moved to level n the row-major
    vector w_j = (f_j (x) id_cube) . (id_x (x) delta_n), composed in the
    host, and the ranks nx, ny, nz of x (x) cube^n, y (x) cube^n and z."""
    host, Q = levels.host, levels.cocube
    C = host.category
    b, a = -p, -q
    n = a + b
    gfull = levels.group(y, z).act(front_projection(b, a)) * levels.model(y, z).level_basis[b]
    ffull = levels.group(x, y).act(back_projection(b, a)) * levels.model(x, y).level_basis[a]
    dup = host.mor_tensor(C.identity(x), Q.delta(n))
    id_cube = C.identity(Q.cube(n))
    ws = [C.compose(host.mor_tensor(C.element(levels.level_object(x, n), y, 0, tuple(col)),
                                    id_cube), dup).vector
          for col in map(ffull.col, range(ffull.ncols))]
    objs = (levels.level_object(x, n), levels.level_object(y, n), z)
    return (n, gfull, ws, *(dgcat._host_rank(host, v) for v in objs))


def dense_composition(levels, x, y, z, p, q):
    """Oracle for `_CubicalLevels.composition`: the dense route that the
    one sparse product replaced.  Raw column (i, j), g outer, is
    `row_major_product` of g_i and w_j, in the ring's entries; then
    `project_raw`."""
    n, gfull, ws, nx, ny, nz = dense_level_maps(levels, x, y, z, p, q)
    cols = [row_major_product(nx, ny, nz, gfull.col(i), w)
            for i in range(gfull.ncols) for w in ws]
    raw = _columns_to_matrix(levels.host.category.ring, nx * nz, cols)
    return project_raw(levels, x, z, n, raw)


def precomposition_block_composition(levels, x, y, z, p, q):
    """Oracle for `_CubicalLevels.composition`: the block route.  The
    precomposition matrix I_nz (x) W_j^T of w_j, W_j its row-major matrix,
    multiplies all left model columns at once (in the ring's entries);
    raw column (i, j), g outer, is column i of block j."""
    n, gfull, ws, nx, ny, nz = dense_level_maps(levels, x, y, z, p, q)
    ring = levels.host.category.ring
    blocks = []
    for w in ws:
        wt = Matrix(ring, [w[r * nx : (r + 1) * nx] for r in range(ny)], ny, nx).transpose()
        blocks.append(Matrix.identity(ring, nz).kron(wt) * gfull)
    cols = [tuple(blk.col(i)) for i in range(gfull.ncols) for blk in blocks]
    return project_raw(levels, x, z, n, _columns_to_matrix(ring, nx * nz, cols))


@pytest.mark.parametrize("scaling, name", [("", "vertex-Z-top3"), ("", "vertex-Q-top3"),
                                           ("rescaled", "vertex-Q-top3"),
                                           ("upscaled", "vertex-Q-top3")])
def test_projection_of_integer_columns_is_the_fraction_product(scaling, name):
    # oracle: the projector K in the model basis, solved for over the ring,
    # times the columns.  Model columns multiplied by 2 and 3 put
    # denominators into K.
    host, cocube = COMPOSITION_CASES[name]()
    factor = {"rescaled": lambda k: Fraction(1, 2 + k % 2), "upscaled": lambda k: 2 + k % 2}
    lv = _rescaled_levels(host, cocube, factor[scaling]) if scaling else dgcat._CubicalLevels(
        host, cocube)
    ring = host.category.ring
    rng = random.Random(11)
    denominators = []
    for x, y in itertools.product(host.category.objects, repeat=2):
        for n in range(cocube.top + 1):
            r = lv.group(x, y).rank(n)
            dens = (1, 2, 6) if ring == "Q" else (1, 1)
            K = restrict(lv.model(x, y).level_basis[n],
                         degenerate_projector(lv.group(x, y), n), "the projection")
            raw = _columns_to_matrix(ring, r, [[Fraction(rng.choice((0, 0, 1, -2, 3)), d)
                                                for _ in range(r)] for d in dens])
            got = lv.project(x, y, n, raw)
            assert got == K * raw, (name, x, y, n)
            assert all(canonical_entry(ring, got[i, j])
                       for i in range(got.nrows) for j in range(got.ncols))
            denominators += [v.denominator for row in K.nonzero_rows() for _, v in row]
    assert (max(denominators) > 1) == (scaling == "upscaled")


def _rescaled_levels(host, cocube, factor=lambda k: Fraction(1, 2 + k % 2)):
    """Cubical level data whose model bases have column k multiplied by
    factor(k), by default divided by 2 and 3 in turn: still bases of the same
    models, now with denominators."""
    levels = dgcat._CubicalLevels(host, cocube)
    objects = host.category.objects
    for x, y in itertools.product(objects, repeat=2):
        model = levels.model(x, y)
        bases = {}
        for n, B in model.level_basis.items():
            diag = [[factor(k) if k == j else 0 for j in range(B.ncols)]
                    for k in range(B.ncols)]
            bases[n] = B * Matrix("Q", diag, nrows=B.ncols, ncols=B.ncols)
        levels._models[(x, y)] = dataclasses.replace(model, level_basis=bases)
    return levels


COMPOSITION_CASES = {
    "vertex-Z-top3": lambda: build_vertex_cubes("Z", top=3, objects=(1, 2)),
    "vertex-Q-top3": lambda: build_vertex_cubes("Q", top=3, objects=(1, 2)),
    "fincor-Z-top3": lambda: build_fincor([("p", "q"), ("u", "v", "w")], ring="Z", top=3),
    "fincor-Q-top3": lambda: build_fincor([("p", "q"), ("u", "v", "w")], ring="Q", top=3),
}


@pytest.mark.parametrize("name", sorted(COMPOSITION_CASES) + ["rescaled-vertex-Q-top3"])
def test_composition_matches_the_precomposition_block_route(name):
    host, cocube = COMPOSITION_CASES[name.replace("rescaled-", "")]()
    ring = host.category.ring
    if name.startswith("rescaled-"):
        lv = _rescaled_levels(host, cocube)
        assert {2, 3} <= {v.denominator for row in lv.model(2, 2).level_basis[2].nonzero_rows()
                          for _, v in row}
        cases = [(lv, DGCategory(ring, host.category.objects, lv.hom, comp_fn=lv.composition))]
    else:
        enrichments = [cubical_enrichment(host, cocube)]
        if ring == "Q":
            enrichments.append(alternating_enrichment(host, cocube))
        cases = [(enr.levels, enr.category) for enr in enrichments]
    top = cocube.top
    checked = 0
    for lv, C in cases:
        for x, y, z in itertools.product(C.objects, repeat=3):
            for p, q in itertools.product(range(-top, 1), repeat=2):
                if p + q < -top:
                    continue
                mat = C.comp_matrix(x, y, z, p, q)
                if mat.nrows and mat.ncols:
                    # two oracles: the precomposition blocks and the dense
                    # row-major product, both on host-composed w_j
                    for oracle in (precomposition_block_composition, dense_composition):
                        assert mat == oracle(lv, x, y, z, p, q), (
                            oracle.__name__, name, x, y, z, p, q)
                    assert all(canonical_entry(ring, mat[i, j])
                               for i in range(mat.nrows) for j in range(mat.ncols))
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
