import dataclasses
import gc
import itertools
import random
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from dgforge.dgcat import build_fincor, complexes_category, validate_dg, validate_functor
from dgforge.linalg import (
    ChainMap,
    Matrix,
    compose_chain_maps,
    complex_homology,
    identity_chain_map,
    is_quasi_iso,
    make_chain_map,
    restrict,
    single_complex,
    tensor_basis,
    tensor_chain_map,
    two_term_complex,
    zero_complex,
)
from dgforge.sheaf import (
    AWPairing,
    _limits,
    _sheafified,
    CompareReport,
    FiniteSite,
    Presheaf,
    aw_cup,
    augmentation_functor,
    cech_hypercohomology,
    cech_total,
    constant_category_presheaf,
    constant_presheaf,
    godement_augmentation,
    godement_tower,
    hom_presheaf,
    hypercohomology_compare,
    make_presheaf,
    make_presheaf_map,
    make_site,
    minimal_cover,
    point_site,
    pseudo_circle_site,
    reduced_inclusion,
    rgamma,
    sheafification_map,
    sheafify,
    sierpinski_site,
    tensor_assoc_map,
    tensor_presheaf,
    tensor_presheaf_assoc,
    total_godement,
    tower_map_at,
    unit_presheaf,
    validate_presheaf,
)
from dgforge import sheaf as sheaf_module
from util_gen import random_complex


@pytest.fixture(scope="module")
def sierp():
    return sierpinski_site()


@pytest.fixture(scope="module")
def pseudo():
    return pseudo_circle_site()


@pytest.fixture(scope="module")
def t2():
    return two_term_complex("Z", 0, Matrix("Z", [[2]]))


@pytest.fixture(scope="module")
def sky(sierp):
    # sections Z on the whole space, nothing on the open point: the
    # skyscraper at the closed point, already a sheaf
    z1 = single_complex("Z", 0, 1)
    z0 = zero_complex("Z", 0, 0)
    X, E = sierp.space(), ("eta",)
    vals = {X: z1, E: z0, (): z0}
    res = {
        (X, E): ChainMap(z1, z0, {}),
        (X, ()): ChainMap(z1, z0, {}),
        (E, ()): ChainMap(z0, z0, {}),
    }
    return make_presheaf(sierp, vals, res)


# ---------------------------------------------------------------------------
# sites


def test_sierpinski_opens_and_minimal_opens(sierp):
    assert sierp.opens() == ((), ("eta",), ("eta", "s"))
    assert sierp.up("eta") == ("eta",)
    assert sierp.up("s") == ("eta", "s")
    assert sierp.dimension() == 1
    assert minimal_cover(sierp) == (("eta",), ("eta", "s"))


def test_pseudo_circle_opens_count_and_dimension(pseudo):
    assert len(pseudo.opens()) == 7
    assert pseudo.up("a") == ("a", "u", "v")
    assert pseudo.up("u") == ("u",)
    assert pseudo.dimension() == 1
    assert pseudo.components(("u", "v")) == (("u",), ("v",))
    assert pseudo.components(pseudo.space()) == (pseudo.space(),)


def test_open_recognition_rejects_non_up_closed(pseudo):
    assert pseudo.is_open(("u", "v"))
    assert not pseudo.is_open(("a",))
    assert not pseudo.is_open(("u", "z"))
    with pytest.raises(ValueError, match=r"^subset is not up-closed: contains 'a' but not 'v'$"):
        pseudo.as_open(("a", "u"))
    # the first offending pair in point order
    with pytest.raises(ValueError, match=r"^subset is not up-closed: contains 'a' but not 'u'$"):
        pseudo.as_open(("b", "a", "v"))
    with pytest.raises(ValueError, match=r"^unknown points \['z'\]$"):
        pseudo.as_open(("z",))
    with pytest.raises(ValueError, match=r"^unknown points \['z'\]$"):
        pseudo.as_open(("a", "z"))


def _up_closed_subsets(site):
    """The reference enumeration: every subset of the points, kept when it
    is up-closed, smallest first, ties broken by point order."""
    pts = site.points
    out = []
    for bits in itertools.product((0, 1), repeat=len(pts)):
        sub = tuple(x for x, b in zip(pts, bits) if b)
        if all(y in sub for x in sub for y in pts if site.leq(x, y)):
            out.append(sub)
    out.sort(key=lambda U: (len(U), tuple(pts.index(x) for x in U)))
    return tuple(out)


def _oracle_sites():
    # the 6-point circle of the sheaf benchmark: m_i below M_i and M_(i+1 mod 3)
    circle = make_site(
        ("m0", "m1", "m2", "M0", "M1", "M2"),
        [("m%d" % i, "M%d" % j) for i in range(3) for j in (i, (i + 1) % 3)],
    )
    # the 6-point sphere: two points below two points below two points
    sphere = make_site(
        ("a0", "a1", "b0", "b1", "c0", "c1"),
        [(x, y) for x in ("a0", "a1") for y in ("b0", "b1")]
        + [(x, y) for x in ("b0", "b1") for y in ("c0", "c1")],
    )
    chain = make_site(("p0", "p1", "p2", "p3"), (("p0", "p1"), ("p1", "p2"), ("p2", "p3")))
    return {
        "point": point_site(),
        "sierpinski": sierpinski_site(),
        "pseudo_circle": pseudo_circle_site(),
        "circle6": circle,
        "sphere6": sphere,
        "chain4": chain,
    }


@pytest.mark.parametrize("name", ["point", "sierpinski", "pseudo_circle", "circle6",
                                  "sphere6", "chain4"])
def test_site_opens_and_inclusions_match_the_subset_walk(name):
    site = _oracle_sites()[name]
    reference = _up_closed_subsets(site)
    assert site.opens() == reference
    assert site.inclusions() == tuple(
        (U, V) for U in reference for V in reference if set(V) <= set(U)
    )
    for U, canonical in zip(reference, site.opens()):
        assert site.is_open(U)
        assert site.as_open(U) is canonical
        assert site.as_open(reversed(U)) == U
        assert site.as_open(U + U) == U


def test_site_data_leaves_equality_and_hashing_alone():
    a, b = pseudo_circle_site(), pseudo_circle_site()
    assert a is not b and a == b and hash(a) == hash(b)
    assert {a: 1}[b] == 1
    assert a != make_site(a.points, tuple(a.order - {("a", "u")}))


def test_make_site_rejects_cycles_and_duplicates():
    with pytest.raises(ValueError):
        make_site(("a", "b"), (("a", "b"), ("b", "a")))
    with pytest.raises(ValueError):
        make_site(("a", "a"))
    with pytest.raises(ValueError):
        make_site(("a",), (("a", "b"),))
    with pytest.raises(ValueError, match="order relation has a cycle through"):
        make_site(("a", "b", "c"), (("a", "b"), ("b", "c"), ("c", "a")))


@pytest.mark.parametrize(
    "order, message",
    [
        ({("a", "a"), ("b", "b"), ("c", "c"), ("a", "b"), ("b", "c")}, "not transitive"),
        ({("a", "a"), ("b", "b"), ("a", "b"), ("a", "c")}, "not reflexive at 'c'"),
        ({("a", "a"), ("b", "b"), ("c", "c"), ("a", "z")}, "unknown point in \\('a', 'z'\\)"),
        ({("a", "a"), ("b", "b"), ("c", "c"), ("a", "b"), ("b", "a")}, "cycle through"),
    ],
    ids=["intransitive", "irreflexive", "unknown_point", "cycle"],
)
def test_site_order_must_be_a_partial_order(order, message):
    with pytest.raises(ValueError, match=message):
        FiniteSite(("a", "b", "c"), frozenset(order))


def test_relation_closure_is_transitive():
    s = make_site(("x", "y", "z"), (("x", "y"), ("y", "z")))
    assert s.leq("x", "z")
    assert s.up("x") == ("x", "y", "z")
    assert s.dimension() == 2


# ---------------------------------------------------------------------------
# presheaves and sheafification


def test_constant_presheaf_validates(pseudo, t2):
    F = constant_presheaf(pseudo, t2)
    assert validate_presheaf(F)
    assert F.stalk("a") == t2
    assert F.value(()).total_rank() == 0


def test_validate_presheaf_catches_broken_functoriality(pseudo):
    z1 = single_complex("Z", 0, 1)
    F = constant_presheaf(pseudo, z1)
    res = dict(F.res)
    bad = res[(pseudo.space(), ("u",))]
    res[(pseudo.space(), ("u",))] = ChainMap(
        bad.source, bad.target, {0: Matrix("Z", [[2]])}
    )
    with pytest.raises(ValueError, match="compose"):
        validate_presheaf(Presheaf(pseudo, F.vals, res))
    res2 = dict(F.res)
    del res2[(pseudo.space(), ("u",))]
    with pytest.raises(ValueError, match="missing"):
        validate_presheaf(Presheaf(pseudo, F.vals, res2))


def test_validate_presheaf_rejects_a_restriction_against_an_inclusion(sierp):
    # a map from the open point to the whole space is no restriction, even
    # when it is a chain map between the two values
    F = constant_presheaf(sierp, single_complex("Z", 0, 1))
    res = dict(F.res)
    res[(("eta",), ("eta", "s"))] = F.res[(("eta", "s"), ("eta",))]
    with pytest.raises(ValueError, match="not along an inclusion"):
        make_presheaf(sierp, F.vals, res, check=True)
    with pytest.raises(ValueError, match="not along an inclusion"):
        validate_presheaf(Presheaf(sierp, F.vals, res))


def test_sheafify_counts_components(pseudo):
    # the constant presheaf is not a sheaf here: on the disjoint union
    # {u} + {v} the limit doubles
    F = constant_presheaf(pseudo, single_complex("Z", 0, 1))
    aF = sheafify(F)
    validate_presheaf(aF)
    for U in pseudo.opens():
        want = len(pseudo.components(U)) if U else 0
        assert aF.value(U).rank(0) == want


def test_sheafify_is_idempotent(pseudo, t2):
    aF = sheafify(constant_presheaf(pseudo, t2))
    aaF = sheafify(aF)
    for U in pseudo.opens():
        assert aaF.vals[U] == aF.vals[U]
    for key in aF.res:
        assert aaF.res[key] == aF.res[key]


def test_sheafify_fixes_sheaves(sierp, t2):
    # the site has a generic point in every open, so constants already
    # satisfy the gluing condition
    F = constant_presheaf(sierp, t2)
    aF = sheafify(F)
    eta = sheafification_map(F, aF)
    for U in sierp.opens():
        if not U:
            continue
        for n in t2.degrees():
            assert aF.vals[U].rank(n) == t2.rank(n)
            assert eta.at(U).comp(n) == Matrix.identity("Z", t2.rank(n))


def test_sheafification_map_validates(pseudo, t2):
    F = constant_presheaf(pseudo, t2)
    # construction runs the chain-map and naturality checks
    sheafification_map(F)


def _mixed_torsion():
    # Z^2 -> Z^2 with invariant factors 1 and 20 in a mixed basis
    return two_term_complex("Z", 0, Matrix("Z", [[-67, -175], [92, 240]]))


def _per_pair_projections(F):
    """The oracle for the restrictions of `sheafify(F)`: one `restrict` per
    inclusion U -> V and degree n, of the rows of U's kernel basis at the
    points of V against V's kernel basis."""
    _, kbases = _limits(F)
    lo, hi = F.window()
    out = {}
    for U, V in F.site.inclusions():
        if not V:
            continue
        for n in range(lo, hi + 1):
            coords = [(x, k) for x in U for k in range(F.stalk(x).rank(n))]
            rows = [i for i, (x, _) in enumerate(coords) if x in V]
            ks = kbases[U][n]
            out[(U, V, n)] = restrict(
                kbases[V][n], ks.submatrix(rows, range(ks.ncols)), "the limit projection"
            )
    return out


@pytest.mark.parametrize("name", ["point", "sierpinski", "pseudo_circle", "circle6",
                                  "sphere6", "chain4"])
def test_batched_limit_projections_match_the_per_pair_route(name, t2):
    site = _oracle_sites()[name]
    for K in (t2, _mixed_torsion()):
        F = constant_presheaf(site, K)
        aF = sheafify(F)
        oracle = _per_pair_projections(F)
        assert oracle
        for (U, V, n), want in oracle.items():
            assert aF.res[(U, V)].comp(n) == want, (U, V, n)
        for U, V in site.inclusions():
            if not V:
                assert aF.res[(U, V)].comps == {}


def test_a_degree_sweep_sheafifies_each_presheaf_once(pseudo, t2, monkeypatch):
    calls = {"sheafify": [], "cech_total": []}
    for name in calls:
        real = getattr(sheaf_module, name)

        def counting(F, *args, _real=real, _log=calls[name]):
            _log.append(F)
            return _real(F, *args)

        monkeypatch.setattr(sheaf_module, name, counting)
    F, G = constant_presheaf(pseudo, t2), constant_presheaf(pseudo, _mixed_torsion())
    for P in (F, G):
        for n in range(-1, 4):
            cech_hypercohomology(P, n)
    assert [id(P) for P in calls["sheafify"]] == [id(F), id(G)]
    assert len(calls["cech_total"]) == 2
    # another cover builds another cover complex on the same sheaf
    two = [("a", "u", "v"), ("b", "u", "v")]
    assert cech_hypercohomology(F, 1, cover=two).describe() == "Z/2"
    assert cech_hypercohomology(F, 1, cover=reversed(two)).describe() == "Z/2"
    assert len(calls["sheafify"]) == 2
    assert len(calls["cech_total"]) == 4


def test_presheaves_are_immutable(pseudo, t2):
    G = constant_presheaf(pseudo, t2)
    vals = dict(G.vals)
    F = Presheaf(pseudo, vals, G.res)
    with pytest.raises(TypeError):
        F.vals[()] = t2
    with pytest.raises(TypeError):
        F.res[((), ())] = identity_chain_map(t2)
    with pytest.raises(dataclasses.FrozenInstanceError):
        F.vals = {}
    with pytest.raises(dataclasses.FrozenInstanceError):
        F.site = pseudo
    # the presheaf holds a copy of the mappings it was given
    vals[()] = t2
    assert F.vals[()].total_rank() == 0
    assert F.window() == (0, 1)


def test_presheaves_and_their_sheafifications_are_freed_without_the_cyclic_collector(
    pseudo, t2
):
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        F = constant_presheaf(pseudo, t2)
        for n in range(0, 3):
            cech_hypercohomology(F, n)
        refs = (weakref.ref(F), weakref.ref(_sheafified(F)))
        del F
        assert all(ref() is None for ref in refs)
    finally:
        if was_enabled:
            gc.enable()


# ---------------------------------------------------------------------------
# tower combinatorics


def test_chain_enumeration_orders_and_nests(sierp, pseudo):
    F = constant_presheaf(sierp, single_complex("Z", 0, 1))
    T = godement_tower(F, depth=2)
    X = sierp.space()
    assert T.chains(0, X) == (("eta",), ("s",))
    assert T.chains(1, X) == (("eta", "eta"), ("s", "eta"), ("s", "s"))
    assert T.chains(2, X) == (
        ("eta", "eta", "eta"),
        ("s", "eta", "eta"),
        ("s", "s", "eta"),
        ("s", "s", "s"),
    )
    # chains over a smaller open appear in the same order inside the
    # larger list, so restriction is a plain projection
    Fp = constant_presheaf(pseudo, single_complex("Z", 0, 1))
    Tp = godement_tower(Fp, depth=2)
    for p in range(3):
        big = Tp.chains(p, pseudo.space())
        for U in pseudo.opens():
            small = Tp.chains(p, U)
            assert [c for c in big if c in set(small)] == list(small)


def test_level_ranks_are_stalk_products(pseudo, t2):
    F = constant_presheaf(pseudo, t2)
    T = godement_tower(F, depth=2)
    for p in range(3):
        for U in pseudo.opens():
            cx = T.level_complex(p, U)
            for n in t2.degrees():
                assert cx.rank(n) == len(T.chains(p, U)) * t2.rank(n)


def test_strict_chains_vanish_beyond_dimension(pseudo):
    F = constant_presheaf(pseudo, single_complex("Z", 0, 1))
    T = godement_tower(F, strict=True)
    assert T.chains(1, pseudo.space()) == (
        ("a", "u"),
        ("a", "v"),
        ("b", "u"),
        ("b", "v"),
    )
    assert T.chains(2, pseudo.space()) == ()


def test_cosimplicial_coface_identities(sierp, t2):
    F = constant_presheaf(sierp, t2)
    T = godement_tower(F, depth=3)
    X = sierp.space()
    for n in (0, 1):
        for p in (0, 1):
            for i in range(p + 2):
                for j in range(i + 1, p + 3):
                    lhs = T.coface_matrix(p + 1, j, X, n) * T.coface_matrix(p, i, X, n)
                    rhs = T.coface_matrix(p + 1, i, X, n) * T.coface_matrix(p, j - 1, X, n)
                    assert lhs == rhs, (p, i, j, n)


def test_codegeneracy_identities(sierp, t2):
    F = constant_presheaf(sierp, t2)
    T = godement_tower(F, depth=3)
    X = sierp.space()
    for n in (0, 1):
        for i in range(1):
            for j in range(i, 1):
                lhs = T.codegeneracy_matrix(0, i, X, n) * T.codegeneracy_matrix(1, j + 1, X, n)
                rhs = T.codegeneracy_matrix(0, j, X, n) * T.codegeneracy_matrix(1, i, X, n)
                assert lhs == rhs


def test_mixed_face_degeneracy_identities(sierp, t2):
    F = constant_presheaf(sierp, t2)
    T = godement_tower(F, depth=3)
    X = sierp.space()
    for n in (0, 1):
        for j in range(2):
            for i in range(3):
                sd = T.codegeneracy_matrix(1, j, X, n) * T.coface_matrix(1, i, X, n)
                if i < j:
                    rhs = T.coface_matrix(0, i, X, n) * T.codegeneracy_matrix(0, j - 1, X, n)
                elif i in (j, j + 1):
                    rhs = Matrix.identity("Z", sd.nrows)
                else:
                    rhs = T.coface_matrix(0, i - 1, X, n) * T.codegeneracy_matrix(0, j, X, n)
                assert sd == rhs, (i, j, n)


def test_delta_is_the_alternating_coface_sum(sierp, t2):
    F = constant_presheaf(sierp, t2)
    T = godement_tower(F, depth=3)
    X = sierp.space()
    for n in (0, 1):
        for p in (0, 1, 2):
            acc = None
            for j in range(p + 2):
                m = T.coface_matrix(p, j, X, n).scale(-1 if j % 2 else 1)
                acc = m if acc is None else acc + m
            assert acc == T.delta_matrix(p, X, n)


def test_reduced_tower_has_no_cosimplicial_maps(sierp):
    F = constant_presheaf(sierp, single_complex("Z", 0, 1))
    T = godement_tower(F, strict=True)
    with pytest.raises(ValueError):
        T.coface_matrix(0, 0, sierp.space(), 0)


# ---------------------------------------------------------------------------
# totals and their homology


def test_sierpinski_hand_matrices(sierp):
    F = constant_presheaf(sierp, single_complex("Z", 0, 1))
    T = godement_tower(F, depth=2)
    X = sierp.space()
    assert T.delta_matrix(0, X, 0).rows == ((0, 0), (1, -1), (0, 0))
    assert T.delta_matrix(1, X, 0).rows == (
        (1, 0, 0),
        (1, 0, 0),
        (0, 0, 1),
        (0, 0, 1),
    )
    Ts = godement_tower(F, strict=True)
    assert Ts.delta_matrix(0, X, 0).rows == ((1, -1),)


def test_pseudo_circle_hand_delta(pseudo):
    F = constant_presheaf(pseudo, single_complex("Z", 0, 1))
    T = godement_tower(F, strict=True)
    assert T.delta_matrix(0, pseudo.space(), 0).rows == (
        (-1, 0, 1, 0),
        (-1, 0, 0, 1),
        (0, -1, 1, 0),
        (0, -1, 0, 1),
    )


def test_total_homology_tables(sierp, pseudo):
    z1 = single_complex("Z", 0, 1)
    tot = godement_tower(constant_presheaf(sierp, z1), depth=3).total(sierp.space())
    assert [complex_homology(tot, n).describe() for n in (0, 1, 2)] == ["Z", "0", "0"]
    tots = godement_tower(constant_presheaf(sierp, z1), strict=True).total(sierp.space())
    assert [complex_homology(tots, n).describe() for n in tots.degrees()] == ["Z", "0"]
    totp = godement_tower(constant_presheaf(pseudo, z1), strict=True).total(pseudo.space())
    assert [complex_homology(totp, n).describe() for n in totp.degrees()] == ["Z", "Z"]


def test_depth_cut_flags_unstable_degrees(sierp):
    F = constant_presheaf(sierp, single_complex("Z", 0, 1))
    T = godement_tower(F, depth=2)
    assert T.stable_upto() == 1
    junk = complex_homology(T.total(sierp.space()), 2)
    assert junk.describe() != "0"
    assert godement_tower(F, strict=True).stable_upto() is None


def test_total_on_one_point_site_is_the_value(t2):
    pt = point_site()
    F = constant_presheaf(pt, t2)
    T = godement_tower(F, strict=True)
    tot = T.total(pt.space())
    assert [tot.rank(n) for n in t2.degrees()] == [t2.rank(n) for n in t2.degrees()]
    assert T.augmentation(pt.space()).comp(0) == Matrix.identity("Z", 1)


def test_torsion_tables_both_sites(sierp, pseudo, t2):
    tot = godement_tower(constant_presheaf(sierp, t2), strict=True).total(sierp.space())
    assert [complex_homology(tot, n).describe() for n in tot.degrees()] == ["0", "Z/2", "0"]
    totp = godement_tower(constant_presheaf(pseudo, t2), strict=True).total(pseudo.space())
    assert [complex_homology(totp, n).describe() for n in totp.degrees()] == [
        "0",
        "Z/2",
        "Z/2",
    ]


def test_skyscraper_sections(sky, sierp):
    T = godement_tower(sky, strict=True)
    tot = T.total(sierp.space())
    assert [complex_homology(tot, n).describe() for n in tot.degrees()] == ["Z", "0"]
    assert is_quasi_iso(T.augmentation(sierp.space()), window=(0, 1)).ok


def test_augmentation_is_stalkwise_quasi_iso(sierp, pseudo, sky, t2):
    fixtures = [
        constant_presheaf(sierp, t2),
        constant_presheaf(pseudo, single_complex("Z", 0, 1)),
        constant_presheaf(pseudo, t2),
        sky,
    ]
    for F in fixtures:
        T = godement_tower(F, strict=True)
        lo, hi = F.window()
        for x in F.site.points:
            aug = T.augmentation(F.site.up(x))
            assert is_quasi_iso(aug, window=(lo, hi + T.depth)).ok, x


@given(st.data())
def test_augmentation_quasi_iso_for_random_coefficients(data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    sierp = sierpinski_site()
    C = random_complex(rng, max_pieces=2, lo_range=(-1, 1))
    F = constant_presheaf(sierp, C)
    T = godement_tower(F, strict=True)
    for x in sierp.points:
        aug = T.augmentation(sierp.up(x))
        assert is_quasi_iso(aug, window=(C.lo, C.hi + T.depth)).ok


def test_augmentation_fails_on_the_whole_pseudo_circle(pseudo):
    # negative control: global sections of the constant presheaf miss the
    # degree-one class of the circle
    F = constant_presheaf(pseudo, single_complex("Z", 0, 1))
    T = godement_tower(F, strict=True)
    assert not is_quasi_iso(T.augmentation(pseudo.space()), window=(0, 1)).ok


def test_presheaf_level_augmentation_and_total_validate(pseudo, t2):
    F = constant_presheaf(pseudo, t2)
    godement_augmentation(F, strict=True)
    validate_presheaf(total_godement(F, strict=True))
    T = godement_tower(F, strict=True)
    validate_presheaf(T.level(1))


def test_tower_maps_are_natural_for_restriction(pseudo):
    # Z in degree 0 into (Z --2--> Z) in degrees -1, 0: the blocks at
    # degree -1 have no columns, so source and target layouts differ
    C = single_complex("Z", 0, 1)
    D = two_term_complex("Z", -1, Matrix("Z", [[2]]))
    f = make_chain_map(C, D, {0: Matrix("Z", [[1]])})
    FC, FD = constant_presheaf(pseudo, C), constant_presheaf(pseudo, D)
    comps = {U: f if U else ChainMap(FC.vals[U], FD.vals[U], {}) for U in pseudo.opens()}
    phi = make_presheaf_map(FC, FD, comps)
    for strict in (False, True):
        depth = None if strict else 2
        TC, TD = godement_tower(FC, depth, strict), godement_tower(FD, depth, strict)
        resC = total_godement(FC, TC.depth, strict).res
        resD = total_godement(FD, TD.depth, strict).res
        for U, V in pseudo.inclusions():
            if not V:
                continue
            lhs = compose_chain_maps(resD[(U, V)], tower_map_at(phi, TC, TD, U))
            rhs = compose_chain_maps(tower_map_at(phi, TC, TD, V), resC[(U, V)])
            assert lhs == rhs, (strict, U, V)


def test_reduced_inclusion_is_a_quasi_iso(sierp, pseudo, t2):
    z1 = single_complex("Z", 0, 1)
    for site, C in (
        (sierp, z1),
        (sierp, t2),
        (pseudo, z1),
        (pseudo, t2),
    ):
        F = constant_presheaf(site, C)
        Tr = godement_tower(F, strict=True)
        Tf = godement_tower(F, strict=False)
        inc = reduced_inclusion(Tr, Tf, site.space())
        lo, hi = F.window()
        assert is_quasi_iso(inc, window=(lo, hi + Tr.depth)).ok


def test_reduced_inclusion_argument_order(sierp):
    F = constant_presheaf(sierp, single_complex("Z", 0, 1))
    Tf = godement_tower(F, strict=False)
    with pytest.raises(ValueError):
        reduced_inclusion(Tf, Tf, sierp.space())


# ---------------------------------------------------------------------------
# the cover complex route


def test_cover_complex_hand_matrices_two_cover(pseudo):
    F = sheafify(constant_presheaf(pseudo, single_complex("Z", 0, 1)))
    cx = cech_total(F, cover=[("a", "u", "v"), ("b", "u", "v")])
    assert [cx.rank(n) for n in cx.degrees()] == [2, 2]
    assert cx.d(0).rows == ((-1, 1), (-1, 1))
    assert [complex_homology(cx, n).describe() for n in cx.degrees()] == ["Z", "Z"]


def test_cover_complex_minimal_cover_matches(pseudo):
    F = constant_presheaf(pseudo, single_complex("Z", 0, 1))
    cx = cech_total(sheafify(F))
    hs = [complex_homology(cx, n).describe() for n in cx.degrees()]
    assert hs[:2] == ["Z", "Z"]
    assert all(h == "0" for h in hs[2:])
    with pytest.raises(ValueError):
        cech_total(F, cover=[("u",), ("v",)])


def test_two_routes_agree_on_every_fixture(sierp, pseudo, sky, t2):
    z1 = single_complex("Z", 0, 1)
    fixtures = [
        constant_presheaf(sierp, z1),
        constant_presheaf(sierp, t2),
        constant_presheaf(pseudo, z1),
        constant_presheaf(pseudo, t2),
        sky,
    ]
    for F in fixtures:
        T = godement_tower(F, strict=True)
        tot = T.total(F.site.space())
        for n in tot.degrees():
            via_tower = complex_homology(tot, n).describe()
            via_cover = cech_hypercohomology(F, n)
            assert via_tower == via_cover.describe(), (F, n)


def test_torsion_of_a_mixed_differential_on_the_pseudo_circle(pseudo):
    # Z^2 -> Z^2 with invariant factors 1 and 20 in a mixed basis; the
    # kernel/solve route spent about 27 s on H^1 of this tower total
    K = two_term_complex("Z", 0, Matrix("Z", [[-67, -175], [92, 240]]))
    F = constant_presheaf(pseudo, K)
    tot = godement_tower(F, strict=True).total(pseudo.space())
    assert [tot.rank(n) for n in tot.degrees()] == [8, 16, 8]
    assert complex_homology(tot, 1).describe() == "Z/20"
    assert cech_hypercohomology(F, 1).describe() == "Z/20"


def test_q_sheaf_matrices_hold_fractions_only(pseudo):
    # the tower, cover and pairing builders seal their rows without
    # coercion, so an int left in a Q matrix would show here
    C = two_term_complex("Q", 0, Matrix("Q", [[2], [Fraction(1, 3)]]))
    F = constant_presheaf(pseudo, C)
    X = pseudo.space()
    mats = []
    for strict in (True, False):
        T = godement_tower(F, depth=2, strict=strict)
        mats += [T.total(U).d(n) for U in pseudo.opens() for n in T.total(U).degrees()]
        mats += T.augmentation(X).comps.values()
    mats += [T.coface_matrix(0, 1, X, 0), T.codegeneracy_matrix(0, 0, X, 1)]
    cover = cech_total(sheafify(F))
    mats += [cover.d(n) for n in cover.degrees()]
    mats += aw_cup(F, F, strict=True).pairing(X).comps.values()
    base = build_fincor([("x", "y")], "Q", top=2)[0].category
    R = rgamma(constant_category_presheaf(pseudo, base))
    mats += [
        R.comp_matrix(x, y, z, p, q)
        for x, y, z in itertools.product(R.objects, repeat=3)
        for p in R.hom(y, z).degrees()
        for q in R.hom(x, y).degrees()
    ]
    assert sum(M.nrows * M.ncols for M in mats) > 1000
    for M in mats:
        assert all(type(v) is Fraction for row in M.rows for v in row)


@given(st.data())
def test_two_routes_agree_for_random_coefficients(data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    sierp = sierpinski_site()
    C = random_complex(rng, max_pieces=2, lo_range=(-1, 1))
    F = constant_presheaf(sierp, C)
    tot = godement_tower(F, strict=True).total(sierp.space())
    for n in tot.degrees():
        assert complex_homology(tot, n).describe() == cech_hypercohomology(F, n).describe()


# ---------------------------------------------------------------------------
# the front-face/back-face pairing


def test_pairing_is_a_chain_map_on_all_fixtures(sierp, pseudo, t2):
    z1 = single_complex("Z", 0, 1)
    # construction runs the exact chain-map check; internal degrees of the
    # torsion complex exercise the Koszul sign
    aw_cup(constant_presheaf(sierp, t2), constant_presheaf(sierp, t2), depth=3).pairing(
        sierp.space()
    )
    aw_cup(
        constant_presheaf(pseudo, t2), constant_presheaf(pseudo, z1), depth=2
    ).pairing(pseudo.space())
    aw_cup(
        constant_presheaf(pseudo, t2), constant_presheaf(pseudo, t2), strict=True
    ).pairing(pseudo.space())


def test_pairing_degree_zero_hand_block(sierp):
    F = constant_presheaf(sierp, single_complex("Z", 0, 1))
    mu = aw_cup(F, F, depth=2).pairing(sierp.space())
    assert mu.comp(0).rows == ((1, 0, 0, 0), (0, 0, 0, 1))


def test_unit_laws_hold_literally(sierp, t2):
    F = constant_presheaf(sierp, t2)
    U1 = unit_presheaf(sierp, "Z")
    X = sierp.space()

    left = aw_cup(U1, F, depth=3)
    eps1 = left.left.augmentation(X).comp(0)
    totU, totF = left.left.total(X), left.right.total(X)
    m = left.pairing(X)
    for n in totF.degrees():
        basis = tensor_basis(totU, totF, n)
        got = m.comp(n)
        M = [[0] * totF.rank(n) for _ in range(got.nrows)]
        for col, (t, i, j) in enumerate(basis):
            if t == 0 and eps1.rows[i][0]:
                for r in range(got.nrows):
                    if got.rows[r][col]:
                        M[r][j] += got.rows[r][col] * eps1.rows[i][0]
        assert M == [
            [1 if r == c else 0 for c in range(totF.rank(n))] for r in range(got.nrows)
        ], n

    right = aw_cup(F, U1, depth=3)
    eps1r = right.right.augmentation(X).comp(0)
    totF2, totU2 = right.left.total(X), right.right.total(X)
    mr = right.pairing(X)
    for n in totF2.degrees():
        basis = tensor_basis(totF2, totU2, n)
        got = mr.comp(n)
        M = [[0] * totF2.rank(n) for _ in range(got.nrows)]
        for col, (t, i, j) in enumerate(basis):
            if t == n and eps1r.rows[j][0]:
                for r in range(got.nrows):
                    if got.rows[r][col]:
                        M[r][i] += got.rows[r][col] * eps1r.rows[j][0]
        assert M == [
            [1 if r == c else 0 for c in range(totF2.rank(n))] for r in range(got.nrows)
        ], n


def test_pairing_is_associative_up_to_the_canonical_regroupings(sierp, t2):
    # tensor totals are regrouped by explicit permutation chain maps on
    # both sides; with those inserted the two bracketings agree exactly
    z1 = single_complex("Z", 0, 1)
    F = constant_presheaf(sierp, t2)
    G = constant_presheaf(sierp, z1)
    H = constant_presheaf(sierp, z1)
    depth = 2
    X = sierp.space()
    TF, TG, TH = (godement_tower(P, depth) for P in (F, G, H))
    FG, GH = tensor_presheaf(F, G), tensor_presheaf(G, H)
    TFG, TGH = godement_tower(FG, depth), godement_tower(GH, depth)
    TL = godement_tower(tensor_presheaf(FG, H), depth)
    TR = godement_tower(tensor_presheaf(F, GH), depth)
    mu_FG = AWPairing(TF, TG, TFG).pairing(X)
    mu_GH = AWPairing(TG, TH, TGH).pairing(X)
    mu_L = AWPairing(TFG, TH, TL).pairing(X)
    mu_R = AWPairing(TF, TGH, TR).pairing(X)
    assoc_tot = tower_map_at(tensor_presheaf_assoc(F, G, H), TL, TR, X)
    totF, totG, totH = TF.total(X), TG.total(X), TH.total(X)
    lhs = compose_chain_maps(
        assoc_tot,
        compose_chain_maps(mu_L, tensor_chain_map(mu_FG, identity_chain_map(totH))),
    )
    rhs = compose_chain_maps(
        mu_R,
        compose_chain_maps(
            tensor_chain_map(identity_chain_map(totF), mu_GH),
            tensor_assoc_map(totF, totG, totH),
        ),
    )
    for n in sorted(set(lhs.comps) | set(rhs.comps)):
        assert lhs.comp(n) == rhs.comp(n), n


def test_tower_mismatch_raises(sierp):
    F = constant_presheaf(sierp, single_complex("Z", 0, 1))
    FF = tensor_presheaf(F, F)
    with pytest.raises(ValueError, match="depth"):
        AWPairing(godement_tower(F, 2), godement_tower(F, 3), godement_tower(FF, 2))
    with pytest.raises(ValueError, match="flavour"):
        AWPairing(
            godement_tower(F, 1), godement_tower(F, 1), godement_tower(FF, 1, strict=True)
        )


@given(st.data())
def test_tensor_assoc_map_is_a_chain_permutation(data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    A = random_complex(rng, max_pieces=2, lo_range=(-1, 1))
    B = random_complex(rng, max_pieces=2, lo_range=(-1, 1))
    C = random_complex(rng, max_pieces=2, lo_range=(-1, 1))
    # construction runs the chain-map check
    f = tensor_assoc_map(A, B, C)
    for n, mat in f.comps.items():
        for row in mat.rows:
            assert sum(1 for v in row if v) <= 1
        for ci in range(mat.ncols):
            assert sum(1 for row in mat.rows if row[ci]) == 1
            assert sum(row[ci] for row in mat.rows) == 1


# ---------------------------------------------------------------------------
# global sections of a presheaf of DG categories


@pytest.fixture(scope="module")
def fincor_cat():
    host, _ = build_fincor([("x", "y")], "Z", top=2)
    return host.category


def test_global_sections_on_a_point_reproduce_the_base(fincor_cat):
    pt = point_site()
    R = rgamma(constant_category_presheaf(pt, fincor_cat))
    assert validate_dg(R).ok
    for x in R.objects:
        for y in R.objects:
            hb = fincor_cat.hom(x, y)
            hr = R.hom(x, y)
            assert [hr.rank(n) for n in hb.degrees()] == [
                hb.rank(n) for n in hb.degrees()
            ]


def test_global_sections_category_validates(sierp, pseudo, fincor_cat, t2):
    assert validate_dg(rgamma(constant_category_presheaf(sierp, fincor_cat))).ok
    assert validate_dg(rgamma(constant_category_presheaf(pseudo, fincor_cat))).ok
    torsion = complexes_category({"a": t2, "pt": single_complex("Z", 0, 1)})
    assert validate_dg(rgamma(constant_category_presheaf(sierp, torsion))).ok


def test_global_hom_tables(sierp, pseudo, fincor_cat):
    # free rank |X x Y| in degree zero; the circle adds the same rank in
    # degree one, the contractible site adds nothing
    Rs = rgamma(constant_category_presheaf(sierp, fincor_cat))
    Rp = rgamma(constant_category_presheaf(pseudo, fincor_cat))
    for x in fincor_cat.objects:
        for y in fincor_cat.objects:
            r = fincor_cat.hom(x, y).rank(0)
            tot = Rs.hom(x, y)
            assert complex_homology(tot, 0).describe() == ("Z^%d" % r if r > 1 else "Z")
            assert complex_homology(tot, 1).describe() == "0"
            totp = Rp.hom(x, y)
            want = "Z^%d" % r if r > 1 else "Z"
            assert complex_homology(totp, 0).describe() == want
            assert complex_homology(totp, 1).describe() == want


def test_torsion_survives_global_sections(sierp, t2):
    torsion = complexes_category({"a": t2, "pt": single_complex("Z", 0, 1)})
    R = rgamma(constant_category_presheaf(sierp, torsion))
    end = R.hom("a", "a")
    assert complex_homology(end, 0).describe() == "Z/2"
    assert complex_homology(end, 1).describe() == "Z/2"


def test_embedding_functor_validates_and_is_stalkwise_quasi_iso(sierp, fincor_cat):
    CP = constant_category_presheaf(sierp, fincor_cat)
    R = rgamma(CP)
    af = augmentation_functor(CP, R)
    assert validate_functor(af).ok
    for x in fincor_cat.objects:
        for y in fincor_cat.objects:
            f = af.mor_maps[(x, y)]
            assert is_quasi_iso(f, window=(f.target.lo, f.target.hi)).ok


def test_embedding_functor_reads_the_towers_of_its_target(sierp, t2):
    CP = constant_category_presheaf(
        sierp, complexes_category({"a": t2, "pt": single_complex("Z", 0, 1)})
    )
    R = rgamma(CP, strict=False)
    af = augmentation_functor(CP, R)
    assert validate_functor(af).ok
    other = constant_category_presheaf(sierp, CP.category(sierp.space()))
    with pytest.raises(ValueError, match="presheaf"):
        augmentation_functor(other, R)


def test_two_route_comparison_reports(sierp, pseudo, fincor_cat, t2):
    for site in (sierp, pseudo):
        CP = constant_category_presheaf(site, fincor_cat)
        for x in fincor_cat.objects:
            for y in fincor_cat.objects:
                for n in range(0, 3):
                    r = hypercohomology_compare(CP, x, y, n)
                    assert r.ok and r.witness is None, (x, y, n, r)
    torsion = complexes_category({"a": t2, "pt": single_complex("Z", 0, 1)})
    CPt = constant_category_presheaf(sierp, torsion)
    for n in range(-1, 3):
        r = hypercohomology_compare(CPt, "a", "a", n)
        assert r.ok, (n, r)
        assert r.via_tower == r.via_cover


def test_the_comparison_names_a_meet_where_the_cover_is_not_leray():
    # on the 6-point sphere the meet of up(a0) and up(a1) is a circle, so
    # the minimal cover misses the class in degree two
    sphere = _oracle_sites()["sphere6"]
    CP = constant_category_presheaf(
        sphere, complexes_category({"pt": single_complex("Z", 0, 1)})
    )
    reports = [hypercohomology_compare(CP, "pt", "pt", n) for n in range(3)]
    assert [(r.degree, r.via_tower, r.via_cover) for r in reports] == [
        (0, "Z", "Z"), (1, "0", "0"), (2, "Z", "0")
    ]
    for r in reports:
        assert r.stable
        assert r.witness == "cover not Leray at ('b0', 'b1', 'c0', 'c1')"
        assert not r.ok


def test_a_comparison_sweep_builds_the_hom_presheaf_its_sheaf_and_the_leray_check_once(
    monkeypatch,
):
    calls = {"hom_presheaf": 0, "sheafify": 0, "_leray_witness": 0}
    for name in calls:
        real = getattr(sheaf_module, name)

        def counting(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(sheaf_module, name, counting)
    sphere = _oracle_sites()["sphere6"]
    CP = constant_category_presheaf(
        sphere, complexes_category({"pt": single_complex("Z", 0, 1)})
    )
    reports = [hypercohomology_compare(CP, "pt", "pt", n) for n in range(3)]
    assert [r.via_tower for r in reports] == ["Z", "0", "Z"]
    assert calls == {"hom_presheaf": 1, "sheafify": 1, "_leray_witness": 1}
    # the global-sections category reads the same Hom presheaf
    rgamma(CP).hom("pt", "pt")
    assert calls["hom_presheaf"] == 1


def test_category_presheaves_are_immutable(sierp, fincor_cat):
    CP = constant_category_presheaf(sierp, fincor_cat)
    with pytest.raises(TypeError):
        CP.cats[()] = fincor_cat
    with pytest.raises(TypeError):
        CP.res[((), ())] = None
    with pytest.raises(dataclasses.FrozenInstanceError):
        CP.cats = {}


def test_comparison_flags_shallow_full_towers(sierp, fincor_cat):
    CP = constant_category_presheaf(sierp, fincor_cat)
    shallow = hypercohomology_compare(CP, (), (), 2, depth=2, strict=False)
    assert not shallow.stable
    assert not shallow.ok
    fine = hypercohomology_compare(CP, (), (), 1, depth=2, strict=False)
    assert fine.stable and fine.ok


def test_hom_presheaf_windows_and_restrictions(sierp, fincor_cat):
    CP = constant_category_presheaf(sierp, fincor_cat)
    H = hom_presheaf(CP, (), (("x", "y"),))
    validate_presheaf(H)
    assert H.value(sierp.space()).rank(0) == 2
