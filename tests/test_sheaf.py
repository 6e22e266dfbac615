import dataclasses
import gc
import itertools
import random
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from dgforge.dgcat import (
    DGFunctor,
    build_fincor,
    complexes_category,
    validate_dg,
    validate_functor,
)
from dgforge.cubical import associated_complex, functions_on_cubes
from dgforge.linalg import (
    ChainMap,
    Matrix,
    _cone_complex,
    assemble,
    block_matrix,
    compose_chain_maps,
    complex_homology,
    direct_sum,
    identity_chain_map,
    is_quasi_iso,
    kernel,
    make_chain_map,
    restrict,
    single_complex,
    subcomplex,
    tensor_basis,
    tensor_chain_map,
    tensor_complex,
    totalize,
    two_term_complex,
    zero_complex,
)
from dgforge.sheaf import (
    AWPairing,
    CategoryPresheaf,
    GodementTower,
    _coordinates,
    _cover_meets,
    _hom_presheaf,
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
    godement_tower,
    hom_presheaf,
    hypercohomology_compare,
    make_presheaf,
    make_site,
    minimal_cover,
    point_site,
    pseudo_circle_site,
    reduced_inclusion,
    rgamma,
    sheafify,
    sierpinski_site,
    tensor_assoc_map,
    tensor_presheaf,
    validate_presheaf,
)
from dgforge import sheaf as sheaf_module
from presheaf_oracle import check_presheaf_map, sheafification_eta, total_presheaf, tower_map_at
from util_gen import canonical_entry, random_complex


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


def _circle(k):
    """The circle with 2k points, as the sheaf benchmark builds it: minima
    m_i, each below the maxima M_i and M_(i+1 mod k)."""
    mins, maxs = ["m%d" % i for i in range(k)], ["M%d" % i for i in range(k)]
    return make_site(mins + maxs, [(mins[i], maxs[j]) for i in range(k) for j in (i, (i + 1) % k)])


def _oracle_sites():
    # the 6-point circle of the sheaf benchmark
    circle = _circle(3)
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


SITE_NAMES = ["point", "sierpinski", "pseudo_circle", "circle6", "sphere6", "chain4"]


@pytest.mark.parametrize("name", SITE_NAMES)
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


def _longest_chain_oracle(site):
    """Edges in the largest set of pairwise comparable points, found among
    all subsets of the points."""
    return max(
        len(S) - 1
        for r in range(1, len(site.points) + 1)
        for S in itertools.combinations(site.points, r)
        if all(site.leq(x, y) or site.leq(y, x) for x, y in itertools.combinations(S, 2))
    )


@pytest.mark.parametrize("name", SITE_NAMES)
def test_dimension_matches_the_chain_oracle(name):
    site = _oracle_sites()[name]
    assert site.dimension() == _longest_chain_oracle(site)
    longest = site.chains(site.dimension() + 1, strict=True)
    assert longest and not site.chains(site.dimension() + 2, strict=True)


def test_dimension_of_larger_posets():
    # a chain of 12 points, a 20-point circle, and a chain of 3 beside a point
    chain = make_site(range(12), [(i, i + 1) for i in range(11)])
    assert chain.dimension() == 11 and len(chain.up(0)) == 12
    assert _circle(10).dimension() == 1
    assert make_site("abcd", [("a", "b"), ("b", "c")]).dimension() == 2


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


def test_constant_presheaf_shares_one_identity_restriction(pseudo, t2):
    F = constant_presheaf(pseudo, t2)
    inner = [F.res[U, V] for U, V in pseudo.inclusions() if V]
    assert len(inner) > len(pseudo.opens())
    assert all(f is inner[0] for f in inner)
    assert inner[0] == identity_chain_map(t2)
    onto_empty = [F.res[U, ()] for U in pseudo.opens() if U]
    assert len(onto_empty) > 1 and all(f is onto_empty[0] for f in onto_empty)
    assert validate_presheaf(F)


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
    for U in sierp.opens():
        if not U:
            continue
        for n in t2.degrees():
            assert aF.vals[U].rank(n) == t2.rank(n)
            assert sheafification_eta(F, aF, U).comp(n) == Matrix.identity("Z", t2.rank(n))


def test_sheafification_map_validates(pseudo, t2):
    F = constant_presheaf(pseudo, t2)
    aF = sheafify(F)
    check_presheaf_map(F, aF, lambda U: sheafification_eta(F, aF, U))


def _mixed_torsion():
    # Z^2 -> Z^2 with invariant factors 1 and 20 in a mixed basis
    return two_term_complex("Z", 0, Matrix("Z", [[-67, -175], [92, 240]]))


def _limits(F):
    """The values of `eager_sheafify(F)`, each a subcomplex of the sum of
    the stalks, and per nonempty open and degree its kernel basis there."""
    site = F.site
    ring = F.ring
    lo, hi = F.window()
    kbases = {}
    vals = {}
    for U in site.opens():
        if not U:
            vals[U] = zero_complex(ring, lo, hi)
            continue
        stalks = [F.stalk(x) for x in U]
        pairs = [
            (xi, yi)
            for xi, x in enumerate(U)
            for yi, y in enumerate(U)
            if x != y and site.leq(x, y)
        ]
        ks = {}
        for n in range(lo, hi + 1):
            cols = sum(S.rank(n) for S in stalks)
            if not pairs:
                ks[n] = Matrix.identity(ring, cols)
                continue
            # one block row per pair x < y: the stalk at y minus the
            # restriction of the stalk at x to it
            offs = list(itertools.accumulate((S.rank(n) for S in stalks), initial=0))
            terms = []
            roff = 0
            for xi, yi in pairs:
                rmat = F.restriction(site.up(U[xi]), site.up(U[yi])).comp(n)
                terms.append((roff, offs[yi], stalks[yi].rank(n), 1, 1))
                terms.append((roff, offs[xi], rmat, 1, -1))
                roff += stalks[yi].rank(n)
            ks[n] = kernel(assemble(ring, roff, cols, terms))
        vals[U] = subcomplex(direct_sum(ring, lo, hi, stalks), ks)
        kbases[U] = ks
    return vals, kbases


def _positions(small, big):
    """The position in the coordinate list `big` of each coordinate of `small`."""
    index = {c: i for i, c in enumerate(big)}
    return [index[c] for c in small]


def eager_sheafify(F):
    """The oracle for `sheafify`: every limit built at once, and the limit
    projections solved once per open V for every open above V, with the
    rows of their kernel bases at the points of V side by side."""
    site = F.site
    stalk = {x: F.stalk(x) for x in site.points}
    vals, kbases = _limits(F)
    above = {}
    for U, V in site.inclusions():
        above.setdefault(V, []).append(U)
    comps = {(U, V): {} for U, V in site.inclusions()}
    for V in kbases:
        for n, basis in kbases[V].items():
            small = _coordinates(V, lambda x: stalk[x].rank(n))
            projs = []
            for U in above[V]:
                ks = kbases[U][n]
                rows = _positions(small, _coordinates(U, lambda x: stalk[x].rank(n)))
                projs.append(ks.submatrix(rows, range(ks.ncols)))
            coords = restrict(basis, block_matrix(F.ring, [projs]), "the limit projection")
            starts = itertools.accumulate((P.ncols for P in projs), initial=0)
            for U, start, P in zip(above[V], starts, projs):
                comps[(U, V)][n] = coords.submatrix(
                    range(coords.nrows), range(start, start + P.ncols)
                )
    res = {(U, V): ChainMap(vals[U], vals[V], comps[(U, V)]) for U, V in site.inclusions()}
    return make_presheaf(site, vals, res, check=False)


@pytest.mark.parametrize("name", SITE_NAMES)
def test_lazy_sheafification_matches_the_eager_oracle(name, t2):
    site = _oracle_sites()[name]
    for K in (t2, _mixed_torsion()):
        F = constant_presheaf(site, K)
        aF, want = sheafify(F), eager_sheafify(F)
        assert (aF.ring, aF.window()) == (want.ring, want.window())
        for U in site.opens():
            assert aF.vals[U] == want.vals[U], U
        for key in site.inclusions():
            assert aF.res[key] == want.res[key], key
        assert validate_presheaf(aF)


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


@pytest.mark.parametrize("name", SITE_NAMES)
def test_limit_projections_match_the_per_pair_oracle(name, t2):
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


def test_a_cover_sweep_builds_only_the_limits_it_reads(t2, monkeypatch):
    site = _oracle_sites()["circle6"]
    built = []

    class Counting(sheaf_module._Lazy):
        def __init__(self, member, keys, build):
            def counting(key):
                built.append(key)
                return build(key)

            super().__init__(member, keys, counting)

    # the constant presheaf is lazy too: build it first, so that only the
    # reads of its sheafification are counted
    F = constant_presheaf(site, t2)
    monkeypatch.setattr(sheaf_module, "_Lazy", Counting)
    aF = _sheafified(F)
    assert (aF.ring, aF.window()) == ("Z", (0, 1))
    assert all(key in aF.res for key in site.inclusions()) and ("M0", "m0") not in aF.vals
    assert built == []
    for n in range(-1, 8):
        cech_hypercohomology(F, n)
    values = [key for key in built if key in site.opens()]
    restrictions = [key for key in built if key in site.inclusions()]
    assert len(values) + len(restrictions) == len(built)
    # the meets of the minimal cover over the full walk: its six opens and
    # the empty open, which the cover complex reads to decide on the walk
    meets = set(_cover_meets(site, minimal_cover(site), False).values())
    assert len(site.opens()) == 18 and len(site.inclusions()) == 129
    assert sorted(values) == sorted(meets) and len(values) == 7
    assert len(set(restrictions)) == len(restrictions) <= 16
    assert all(U in meets and V in meets for U, V in restrictions)


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
    # a sheafification keeps its lazy mappings, with the same keys and refusals
    aF = sheafify(G)
    with pytest.raises(TypeError):
        aF.vals[()] = t2
    with pytest.raises(TypeError):
        aF.res[((), ())] = identity_chain_map(t2)
    with pytest.raises(KeyError):
        aF.vals[("u", "a")]
    with pytest.raises(KeyError):
        aF.res[(("u",), ("v",))]
    # membership is a test: an open is a key in its canonical form only
    assert ("u", "v") in aF.vals and ("v", "u") not in aF.vals and ("u", "v") in G.vals
    assert ((("u", "v"), ("u",)) in aF.res and (("v", "u"), ("u",)) not in aF.res
            and (("u",), ("u", "v")) not in aF.res and ((), (), ()) not in aF.res)
    assert tuple(dict(aF.vals)) == pseudo.opens()
    assert tuple(dict(aF.res)) == pseudo.inclusions()


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
    tot = T.total(sierp.space())
    assert [n for n in range(-1, 4) if tot.exact(n)] == [-1, 0, 1]
    junk = complex_homology(tot, 2)
    assert junk.describe() != "0"
    reduced = godement_tower(F, strict=True).total(sierp.space())
    assert reduced.cut == (None, None) and all(reduced.exact(n) for n in range(-5, 6))
    CP = constant_category_presheaf(sierp, complexes_category({"pt": single_complex("Z", 0, 1)}))
    assert [hypercohomology_compare(CP, "pt", "pt", n, depth=2, strict=False).stable
            for n in range(3)] == [True, True, False]


def test_a_reduced_tower_shallower_than_its_site_is_cut():
    # negative control for the reduced tower's cut: on the 6-point sphere
    # (dimension 2) the depth-1 total stops one level short, and its H^1 = Z^7
    # is a truncation artefact that only the cut marks
    site = _oracle_sites()["sphere6"]
    F = constant_presheaf(site, single_complex("Z", 0, 1))
    short = GodementTower(F, 1, True).total(site.space())
    assert short.cut == (None, 1) and not short.exact(1)
    assert complex_homology(short, 1).describe() == "Z^7"
    full = GodementTower(F, 2, True).total(site.space())
    assert full.cut == (None, None)
    assert [complex_homology(full, n).describe() for n in range(3)] == ["Z", "0", "Z"]


def test_a_cone_takes_its_cut_from_both_sides(sierp):
    # a tower total cut from degree 2 on, and a cubical complex cut up to -1
    tower = godement_tower(constant_presheaf(sierp, single_complex("Z", 0, 1)), depth=2)
    tot = tower.total(sierp.space())
    cube = associated_complex(functions_on_cubes("Z", 1)).complex
    assert (tot.cut, cube.cut) == ((None, 2), (-1, None))
    # Cone(f) = D + C[1]: the cut of C moves down by one
    assert _cone_complex(make_chain_map(tot, cube, {})).cut == (-1, 1)
    assert _cone_complex(make_chain_map(cube, tot, {})).cut == (-2, 2)
    # the larger low end and the smaller high end win
    assert _cone_complex(identity_chain_map(cube)).cut == (-1, None)
    assert _cone_complex(identity_chain_map(tot)).cut == (None, 1)
    # and the default window of the quasi-isomorphism check reads them
    assert is_quasi_iso(identity_chain_map(tot)).window == (-1, 0)
    assert is_quasi_iso(make_chain_map(cube, tot, {})).window == (-1, 1)


def test_a_default_window_with_no_exact_degree_is_not_ok(sierp):
    # depth 0 cuts the total from degree 0 on: the cone of its identity sits
    # in degrees -1 and 0, and both are cut
    tot = godement_tower(constant_presheaf(sierp, single_complex("Z", 0, 1)), depth=0).total(
        sierp.space())
    rep = is_quasi_iso(identity_chain_map(tot))
    assert not rep.ok and rep.failing == () and rep.window[0] > rep.window[1]
    assert is_quasi_iso(identity_chain_map(tot), window=(-1, 0)).ok


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


def test_tower_augmentation_and_total_validate(pseudo, t2):
    F = constant_presheaf(pseudo, t2)
    T = godement_tower(F, strict=True)
    total = total_presheaf(T)
    validate_presheaf(total)
    check_presheaf_map(F, total, T.augmentation)


def test_tower_maps_are_natural_for_restriction(pseudo):
    # Z in degree 0 into (Z --2--> Z) in degrees -1, 0: the blocks at
    # degree -1 have no columns, so source and target layouts differ
    C = single_complex("Z", 0, 1)
    D = two_term_complex("Z", -1, Matrix("Z", [[2]]))
    f = make_chain_map(C, D, {0: Matrix("Z", [[1]])})
    FC, FD = constant_presheaf(pseudo, C), constant_presheaf(pseudo, D)
    phi = check_presheaf_map(FC, FD, lambda U: f if U else ChainMap(FC.vals[U], FD.vals[U], {}))
    for strict in (False, True):
        depth = None if strict else 2
        TC, TD = godement_tower(FC, depth, strict), godement_tower(FD, depth, strict)
        check_presheaf_map(total_presheaf(TC), total_presheaf(TD),
                           lambda U: tower_map_at(phi, TC, TD, U))


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


def test_q_sheaf_matrices_follow_the_entry_rule(pseudo):
    # the tower, cover and pairing builders seal their rows without
    # coercion, so a float or a Fraction of denominator 1 would show here
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
    mats += pairing_chain_map(aw_cup(F, F, strict=True), X).comps.values()
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
        assert all(canonical_entry("Q", v) for row in M.rows for v in row)


@given(st.data())
def test_two_routes_agree_for_random_coefficients(data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    sierp = sierpinski_site()
    C = random_complex(rng, max_pieces=2, lo_range=(-1, 1))
    F = constant_presheaf(sierp, C)
    tot = godement_tower(F, strict=True).total(sierp.space())
    for n in tot.degrees():
        assert complex_homology(tot, n).describe() == cech_hypercohomology(F, n).describe()


def _full_walk_cover_complex(F, cover):
    """The oracle for `cech_total`: one block per increasing tuple of cover
    indices, all 2^k - 1 of them in `itertools.combinations` order, and the
    insertion of each missing index with its sign."""
    site, ring, (lo, hi) = F.site, F.ring, F.window()
    cover = tuple(site.as_open(V) for V in cover)
    k = len(cover)
    blocks = {p: list(itertools.combinations(range(k), p + 1)) for p in range(k)}
    meet = {idx: tuple(x for x in site.points if all(x in cover[i] for i in idx))
            for p in blocks for idx in blocks[p]}
    columns = {p: direct_sum(ring, lo, hi, [F.vals[meet[idx]] for idx in blocks[p]])
               for p in blocks}

    def insertion(p, q):
        rank = lambda idx: F.vals[meet[idx]].rank(q)
        soff = dict(zip(blocks[p], itertools.accumulate(map(rank, blocks[p]), initial=0)))
        toff = dict(zip(blocks[p + 1], itertools.accumulate(map(rank, blocks[p + 1]), initial=0)))
        terms = []
        for idx in blocks[p]:
            for i in sorted(set(range(k)) - set(idx)):
                tidx = tuple(sorted(idx + (i,)))
                rmat = F.restriction(meet[idx], meet[tidx]).comp(q)
                terms.append((toff[tidx], soff[idx], rmat, 1, -1 if tidx.index(i) % 2 else 1))
        return assemble(ring, sum(map(rank, blocks[p + 1])), sum(map(rank, blocks[p])), terms)

    return totalize(ring, lo, hi + max(k - 1, 0), columns, insertion)


def _walked(monkeypatch):
    """The number of blocks of each nerve walk of `cech_total` from now on."""
    sizes, real = [], sheaf_module._cover_meets
    monkeypatch.setattr(sheaf_module, "_cover_meets",
                        lambda *args: sizes.append(len(real(*args))) or real(*args))
    return sizes


# blocks of the minimal cover's nerve with a nonempty meet, of 2^k - 1
NONEMPTY_MEETS = {"point": (1, 1), "sierpinski": (3, 3), "pseudo_circle": (11, 15),
                  "circle6": (18, 63), "sphere6": (47, 63), "chain4": (15, 15)}


@pytest.mark.parametrize("name", SITE_NAMES)
def test_the_cover_walk_stops_at_empty_meets_and_gives_the_full_walks_complex(
        name, monkeypatch):
    site = _oracle_sites()[name]
    aF = sheafify(constant_presheaf(site, _mixed_torsion()))
    assert aF.value(()).total_rank() == 0
    sizes = _walked(monkeypatch)
    cx = cech_total(aF)
    assert cx == _full_walk_cover_complex(aF, minimal_cover(site))
    assert tuple(sizes) == (NONEMPTY_MEETS[name][0],)
    assert 2 ** len(minimal_cover(site)) - 1 == NONEMPTY_MEETS[name][1]
    # the empty open in the cover is left out of the walk with its tuples
    cover = minimal_cover(site) + ((),)
    assert cech_total(aF, cover) == _full_walk_cover_complex(aF, cover)
    assert sizes[1] == NONEMPTY_MEETS[name][0]


@pytest.mark.parametrize("name", SITE_NAMES)
def test_a_presheaf_with_sections_on_the_empty_open_keeps_the_full_walk(name, monkeypatch):
    site = _oracle_sites()[name]
    K = _mixed_torsion()
    # the constant presheaf extended to the empty open: K there too
    F = make_presheaf(site, {U: K for U in site.opens()},
                      {UV: identity_chain_map(K) for UV in site.inclusions()})
    assert F.value(()).total_rank() == 4
    sizes = _walked(monkeypatch)
    cx = cech_total(F)
    assert cx == _full_walk_cover_complex(F, minimal_cover(site))
    assert tuple(sizes) == (NONEMPTY_MEETS[name][1],)
    if NONEMPTY_MEETS[name][0] < NONEMPTY_MEETS[name][1]:
        # the blocks over empty meets carry K, so the walk cannot skip them
        assert cx != cech_total(sheafify(F))


@pytest.mark.parametrize("k", [3, 10])
def test_the_circle_with_2k_points_lists_no_open_on_either_route(k, monkeypatch):
    # the 20-point circle has 15,127 opens and 10,764,221 inclusions, which
    # neither route needs: the tower reads stalks and the restrictions
    # between minimal opens, the cover complex the meets of its cover
    listed = []
    for name in ("opens", "inclusions"):
        def counting(self, _real=getattr(FiniteSite, name), _name=name):
            listed.append(_name)
            return _real(self)

        monkeypatch.setattr(FiniteSite, name, counting)
    site = _circle(k)
    F = constant_presheaf(site, _mixed_torsion())
    T = godement_tower(F, strict=True)
    tot = T.total(site.space())
    assert (tot.lo, tot.hi) == (0, 2)
    hs = [complex_homology(tot, n).describe() for n in tot.degrees()]
    assert hs == ["0", "Z/20", "Z/20"]
    assert [cech_hypercohomology(F, n).describe() for n in tot.degrees()] == hs
    # the augmentation is a quasi-isomorphism on each minimal open, over
    # every degree of its cone
    lo, hi = F.window()
    for x in site.points:
        assert is_quasi_iso(T.augmentation(site.up(x)), window=(lo - 1, hi + T.depth)).ok
    # global sections of the correspondence category read the Hom stalks,
    # the restrictions between minimal opens and those from the whole space
    C = build_fincor([("x", "y")], "Z", top=2)[0].category
    CP = constant_category_presheaf(site, C)
    R = rgamma(CP)
    for x, y in itertools.product(C.objects, repeat=2):
        want = complex_homology(C.hom(x, y), 0).describe()
        assert [complex_homology(R.hom(x, y), n).describe() for n in (0, 1)] == [want, want]
        assert all(hypercohomology_compare(CP, x, y, n).ok for n in (0, 1))
    aug = augmentation_functor(CP, R)
    assert validate_functor(aug).ok
    for x, y, z in itertools.product(C.objects, repeat=3):
        g, f = C.basis(y, z, 0)[0], C.basis(x, y, 0)[0]
        image = lambda a, b, e: aug.mor_maps[(a, b)].comp(0) * Matrix.column(C.ring, e.vector)
        assert R.comp_matrix(x, y, z, 0, 0) * image(y, z, g).kron(image(x, y, f)) == image(
            x, z, C.compose(g, f))
    assert listed == []
    # the blocks of the walk: the 2k minimal opens, the k meets of two minima
    # and the 2k of a minimum with a maximum above it, and the k triples
    # meeting in one maximum
    sizes = _walked(monkeypatch)
    cech_total(_sheafified(F))
    assert sizes == [6 * k]


# ---------------------------------------------------------------------------
# the front-face/back-face pairing


def pairing_chain_map(cup, U):
    """The pairing at U as a chain map on tensor_complex(totF, totG), per
    degree, read off the one matrix on the flat totals and checked by
    `make_chain_map` against the differential of the tensor complex: the
    tensor-differential route, kept as an oracle."""
    F, G, P = (T.flat(U) for T in (cup.left, cup.right, cup.product))
    mu, src = cup.pairing(U), tensor_complex(F.cx, G.cx)
    comps = {}
    for n in src.degrees():
        cols = [(F.start[t] + i) * G.rank + G.start[n - t] + j
                for t, i, j in tensor_basis(F.cx, G.cx, n)]
        rows = range(P.start[n], P.start[n] + P.cx.rank(n)) if n in P.start else range(0)
        comps[n] = mu.submatrix(rows, cols)
    return make_chain_map(src, P.cx, comps, check=True)


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
    mu = pairing_chain_map(aw_cup(F, F, depth=2), sierp.space())
    assert mu.comp(0).rows == ((1, 0, 0, 0), (0, 0, 0, 1))


def test_unit_laws_hold_literally(sierp, t2):
    F = constant_presheaf(sierp, t2)
    U1 = constant_presheaf(sierp, single_complex("Z", 0, 1))
    X = sierp.space()

    left = aw_cup(U1, F, depth=3)
    eps1 = left.left.augmentation(X).comp(0)
    totU, totF = left.left.total(X), left.right.total(X)
    m = pairing_chain_map(left, X)
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
    mr = pairing_chain_map(right, X)
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
    FG, GH = tensor_presheaf(F, G), tensor_presheaf(G, H)
    cup_FG, cup_GH = aw_cup(F, G, depth), aw_cup(G, H, depth)
    cup_L, cup_R = aw_cup(FG, H, depth), aw_cup(F, GH, depth)
    mu_FG, mu_GH = pairing_chain_map(cup_FG, X), pairing_chain_map(cup_GH, X)
    mu_L, mu_R = pairing_chain_map(cup_L, X), pairing_chain_map(cup_R, X)
    assoc = check_presheaf_map(tensor_presheaf(FG, H), tensor_presheaf(F, GH),
                               lambda U: tensor_assoc_map(F.vals[U], G.vals[U], H.vals[U]))
    assoc_tot = tower_map_at(assoc, cup_L.product, cup_R.product, X)
    totF, totG, totH = cup_FG.left.total(X), cup_GH.left.total(X), cup_GH.right.total(X)
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
    inclusion = aw_cup(F, F, depth=1).stalk_product
    with pytest.raises(ValueError, match="depth"):
        AWPairing(godement_tower(F, 2), godement_tower(F, 3), godement_tower(FF, 2), inclusion)
    with pytest.raises(ValueError, match="flavour"):
        AWPairing(
            godement_tower(F, 1), godement_tower(F, 1), godement_tower(FF, 1, strict=True),
            inclusion,
        )


@pytest.mark.parametrize("name", ["pseudo_circle", "circle6"])
def test_the_pairing_check_fails_on_a_stalk_product_with_one_flipped_block(name, t2):
    # a negative control: the stalk product scaled by -1 on one minimal open
    # and one degree pair (q, s) breaks the Leibniz rule of the pairing
    site = _oracle_sites()[name]
    X = site.space()
    F = constant_presheaf(site, t2)
    for strict in (False, True):
        cup = aw_cup(F, F, strict=strict)
        AWPairing(cup.left, cup.right, cup.product, cup.stalk_product).pairing(X)
        for x, q, s in itertools.product(site.points, t2.degrees(), t2.degrees()):

            def flipped(V, q2, s2, key=(site.up(x), q, s)):
                M = cup.stalk_product(V, q2, s2)
                return M.scale(-1) if (V, q2, s2) == key else M

            with pytest.raises(ValueError, match="no chain map"):
                AWPairing(cup.left, cup.right, cup.product, flipped).pairing(X)


def test_the_pairing_builds_no_tensor_complex(pseudo, t2, monkeypatch):
    calls = []
    real = sheaf_module.tensor_complex
    monkeypatch.setattr(sheaf_module, "tensor_complex",
                        lambda C, D: calls.append((C, D)) or real(C, D))
    R = rgamma(constant_category_presheaf(pseudo, _oracle_bases()["torsion"]), strict=False)
    for x, y, z in itertools.product(R.objects, repeat=3):
        for p, q in itertools.product(R.hom(y, z).degrees(), R.hom(x, y).degrees()):
            R.comp_matrix(x, y, z, p, q)
    assert calls == []
    cup = aw_cup(constant_presheaf(pseudo, t2), constant_presheaf(pseudo, t2))
    # the tensor presheaf of the construction builds its values on first
    # read: read them all before counting
    assert len(dict(cup.product.source.vals)) == len(pseudo.opens())
    del calls[:]
    for U in pseudo.opens():
        cup.pairing(U)
    assert calls == []


def test_full_tower_composition_at_the_default_depth(pseudo):
    rng = random.Random(14)
    base = complexes_category({
        k: random_complex(rng, max_pieces=2, lo_range=(-1, 1)) for k in ("u", "v")
    })
    R = rgamma(constant_category_presheaf(pseudo, base), strict=False)
    assert R._rgamma_data.depth == 4
    assert validate_dg(R).ok


def tensor_position_pairing(TF, TG, TP, U):
    """The oracle for the pairing of `aw_cup`: entry by entry, each front
    entry restricted to the stalk of the glued chain and written at the
    position of its tensor with the back entry in `tensor_basis`."""
    site = TF.site
    totF, totG = TF.total(U), TG.total(U)
    src, tgt = tensor_complex(totF, totG), TP.total(U)
    layoutF = {t: TF.layout(U, t) for t in totF.degrees()}
    layoutG = {t: TG.layout(U, t) for t in totG.degrees()}
    comps = {}
    for n in src.degrees():
        basis = tensor_basis(totF, totG, n)
        row = {coord: r for r, coord in enumerate(TP.layout(U, n))}
        terms = []
        for col, (t, i, j) in enumerate(basis):
            p, c, u = layoutF[t][i]
            b, c2, v = layoutG[n - t][j]
            if p + b > TP.depth or c[-1] != c2[0]:
                continue
            q, s = t - p, n - t - b
            glued = c + c2[1:]
            UL = site.up(glued[-1])
            rmat = TF.source.restriction(site.up(c[-1]), UL).comp(q)
            basisL = tensor_basis(TF.source.vals[UL], TG.source.vals[UL], q + s)
            pos = {key: idx for idx, key in enumerate(basisL)}
            sgn = -1 if (q * b) % 2 else 1
            for r, w in enumerate(rmat.col(u)):
                if w:
                    terms.append((row[(p + b, glued, pos[(q, r, v)])], col, 1, 1, sgn * w))
        comps[n] = assemble(src.ring, tgt.rank(n), src.rank(n), terms)
    return make_chain_map(src, tgt, comps, check=True)


@pytest.mark.parametrize("name", ["point", "sierpinski", "pseudo_circle", "circle6"])
def test_cup_pairing_matches_the_tensor_position_oracle(name, t2):
    site = _oracle_sites()[name]
    rng = random.Random(7)
    K = random_complex(rng, max_pieces=2, lo_range=(-1, 1))
    z1 = single_complex("Z", 0, 1)
    for A, B in ((t2, t2), (t2, z1), (K, t2), (_mixed_torsion(), K)):
        F, G = constant_presheaf(site, A), constant_presheaf(site, B)
        for strict in (True, False):
            cup = aw_cup(F, G, depth=2, strict=strict)
            for U in site.opens():
                want = tensor_position_pairing(cup.left, cup.right, cup.product, U)
                assert pairing_chain_map(cup, U) == want, (strict, U)


def composition_presheaf_map(CP, X, Y, Z):
    """Per-open composition from the tensor of Hom presheaves, that tensor
    and the checked map; the check runs the Leibniz rule open by open and
    naturality on every inclusion."""
    site = CP.site
    HYZ, HXY, HXZ = (_hom_presheaf(CP, *pair) for pair in ((Y, Z), (X, Y), (X, Z)))
    src = tensor_presheaf(HYZ, HXY)
    comps = {}
    for U in site.opens():
        if not U:
            comps[U] = ChainMap(src.vals[U], HXZ.vals[U], {})
            continue
        cat = CP.category(U)
        XU, YU, ZU = (CP.restrict_object(W, U) for W in (X, Y, Z))
        cmap = {}
        for n in src.vals[U].degrees():
            pieces = [
                cat.comp_matrix(XU, YU, ZU, p, n - p)
                for p in HYZ.vals[U].degrees()
                if HYZ.vals[U].rank(p) and HXY.vals[U].rank(n - p)
            ]
            if pieces:
                cmap[n] = block_matrix(CP.category(U).ring, [pieces])
        comps[U] = make_chain_map(src.vals[U], HXZ.vals[U], cmap, check=True)
    return src, check_presheaf_map(src, HXZ, comps.__getitem__)


def pushed_composition(CP, x, y, z, depth, strict):
    """The oracle for global-sections composition: the pairing into the
    tower of the tensor of Hom presheaves, entry by entry, followed by the
    composition presheaf map pushed through the towers."""
    src, cpm = composition_presheaf_map(CP, x, y, z)
    HYZ, HXY, HXZ = (_hom_presheaf(CP, *pair) for pair in ((y, z), (x, y), (x, z)))
    TYZ, TXY, TXZ, TP = (GodementTower(H, depth, strict) for H in (HYZ, HXY, HXZ, src))
    S = CP.site.space()
    pairing = tensor_position_pairing(TYZ, TXY, TP, S)
    return compose_chain_maps(tower_map_at(cpm, TP, TXZ, S), pairing)


def _oracle_bases():
    rng = random.Random(13)
    return {
        "fincor": build_fincor([("x", "y")], "Z", top=2)[0].category,
        "torsion": complexes_category({
            "a": two_term_complex("Z", 0, Matrix("Z", [[2]])),
            "pt": single_complex("Z", 0, 1),
        }),
        "random": complexes_category({
            k: random_complex(rng, max_pieces=2, lo_range=(-1, 1)) for k in ("u", "v")
        }),
    }


@pytest.mark.parametrize("base", ["fincor", "torsion", "random"])
@pytest.mark.parametrize("name", ["point", "sierpinski", "pseudo_circle", "circle6"])
def test_global_sections_composition_matches_the_pushed_oracle(name, base):
    site = _oracle_sites()[name]
    C = _oracle_bases()[base]
    CP = constant_category_presheaf(site, C)
    # the random base has Hom stalks that vanish under nonzero products
    assert (base != "random") or any(
        C.hom(y, z).rank(p) and C.hom(x, y).rank(q) and not C.hom(x, z).rank(p + q)
        for x, y, z in itertools.product(C.objects, repeat=3)
        for p, q in itertools.product(C.hom(y, z).degrees(), C.hom(x, y).degrees())
    )
    # the reduced tower at its default depth, and a full tower deep enough
    # for degenerate chains on every level, where that stays small
    flavours = [(True, site.dimension())] + [(False, 2)] * (site.dimension() <= 1)
    for strict, depth in flavours:
        R = rgamma(CP, depth, strict)
        for x, y, z in itertools.product(R.objects, repeat=3):
            want = pushed_composition(CP, x, y, z, depth, strict)
            for p, q in itertools.product(R.hom(y, z).degrees(), R.hom(x, y).degrees()):
                rows, cols = R.hom(x, z).rank(p + q), R.hom(y, z).rank(p) * R.hom(x, y).rank(q)
                B = want.comp(p + q)
                start = sum(
                    R.hom(y, z).rank(t) * R.hom(x, y).rank(p + q - t)
                    for t in range(R.hom(y, z).lo, p)
                )
                assert R.comp_matrix(x, y, z, p, q) == B.submatrix(
                    range(rows), range(start, start + cols)
                ), (strict, x, y, z, p, q)


def _rescaled_presheaf(site, C, scale):
    """C on every nonempty open, with the restriction functor along (U, V)
    scaling the Homs in degree n by scale(U, V, n)."""
    cats = {U: C for U in site.opens() if U}
    res = {}
    for U, V in site.inclusions():
        if V:
            mor_maps = {
                (a, b): ChainMap(C.hom(a, b), C.hom(a, b), {
                    n: Matrix.identity(C.ring, C.hom(a, b).rank(n)).scale(scale(U, V, n))
                    for n in C.hom(a, b).degrees()
                })
                for a in C.objects for b in C.objects
            }
            res[(U, V)] = DGFunctor(C, C, {a: a for a in C.objects}, mor_maps)
    return CategoryPresheaf(site, cats, res)


def test_composition_must_commute_with_restriction(sierp):
    # every morphism doubles along up(s) -> up(eta): restrictions compose,
    # but not with composition
    C = complexes_category({"pt": single_complex("Z", 0, 1)})
    CP = _rescaled_presheaf(sierp, C, lambda U, V, n: 2 if (U, V) == (sierp.space(), ("eta",)) else 1)
    assert validate_presheaf(hom_presheaf(CP, "pt", "pt"))
    with pytest.raises(ValueError, match="fails to commute with restriction"):
        rgamma(CP).comp_matrix("pt", "pt", "pt", 0, 0)


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


def test_a_comparison_sweep_builds_two_towers(monkeypatch):
    # one tower of the Hom presheaf, kept on it, and one of its sheafified
    # presheaf for the Leray check
    calls = []
    real = sheaf_module.godement_tower

    def counting(F, *args, **kwargs):
        calls.append(F)
        return real(F, *args, **kwargs)

    monkeypatch.setattr(sheaf_module, "godement_tower", counting)
    sphere = _oracle_sites()["sphere6"]
    CP = constant_category_presheaf(
        sphere, complexes_category({"pt": single_complex("Z", 0, 1)})
    )
    reports = [hypercohomology_compare(CP, "pt", "pt", n) for n in range(3)]
    assert [r.via_tower for r in reports] == ["Z", "0", "Z"]
    assert len(calls) == 2 and calls[0] is not calls[1]
    # another depth or flavour is another tower
    hypercohomology_compare(CP, "pt", "pt", 0, depth=3, strict=False)
    assert len(calls) == 3


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


def eager_hom_presheaf(CP, X, Y):
    """The oracle for `hom_presheaf`: a value on every open and a
    restriction along every inclusion, the window the hull over every
    value, and every composite checked by `make_presheaf`."""
    site = CP.site
    pair = {U: (CP.restrict_object(X, U), CP.restrict_object(Y, U)) for U in site.opens() if U}
    vals = {U: CP.category(U).hom(*pair[U]) for U in pair}
    lo, hi = min(cx.lo for cx in vals.values()), max(cx.hi for cx in vals.values())
    vals[()] = zero_complex(CP.category(site.space()).ring, lo, hi)
    res = {
        (U, V): CP.functor(U, V).mor_maps[pair[U]] if V else ChainMap(vals[U], vals[()], {})
        for U, V in site.inclusions()
    }
    return make_presheaf(site, vals, res, check=True)


@pytest.mark.parametrize("base", ["fincor", "torsion", "random"])
@pytest.mark.parametrize("name", SITE_NAMES)
def test_the_lazy_hom_presheaf_matches_the_eager_oracle(name, base):
    site = _oracle_sites()[name]
    C = _oracle_bases()[base]
    CP = constant_category_presheaf(site, C)
    for x, y in itertools.product(C.objects, repeat=2):
        H, want = hom_presheaf(CP, x, y), eager_hom_presheaf(CP, x, y)
        assert H.window() == want.window() and H.ring == want.ring
        assert all(H.vals[U] == want.vals[U] for U in site.opens())
        assert all(H.res[UV] == want.res[UV] for UV in site.inclusions())
        assert set(H.vals) == set(want.vals) and set(H.res) == set(want.res)


# each control: a site, the restriction functors as rescalings, and the
# message that both the lazy presheaf and the eager oracle raise
HOM_PRESHEAF_CONTROLS = {
    # -1 along up(p1) -> up(p3) between minimal opens, 1 elsewhere
    "composition": ("chain4", lambda U, V, n: -1 if (U, V) == (("p1", "p2", "p3"), ("p3",)) else 1,
                    "restrictions fail to compose along"),
    # -1 along up(p2) -> itself
    "identity": ("chain4", lambda U, V, n: -1 if U == V == ("p2", "p3") else 1,
                 r"restriction along \('p2', 'p3'\) -> itself is not the identity"),
    # the whole pseudo-circle -> up(a) kills degree 0 of every Hom only
    "chain-map": ("pseudo_circle",
                  lambda U, V, n: 0 if (U, V, n) == (("a", "b", "u", "v"), ("a", "u", "v"), 0) else 1,
                  "chain map fails to commute with d"),
}


@pytest.mark.parametrize("control", sorted(HOM_PRESHEAF_CONTROLS))
def test_the_hom_presheaf_refuses_restrictions_that_the_towers_would_misread(control, t2):
    name, scale, message = HOM_PRESHEAF_CONTROLS[control]
    CP = _rescaled_presheaf(_oracle_sites()[name], complexes_category({"a": t2}), scale)
    for build in (hom_presheaf, eager_hom_presheaf):
        with pytest.raises(ValueError, match=message):
            build(CP, "a", "a")


def test_a_category_presheaf_is_freed_without_the_cyclic_collector(pseudo, fincor_cat):
    # CP keeps its Hom presheaves, whose builders hold its categories and
    # functors but never CP
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        CP = constant_category_presheaf(pseudo, fincor_cat)
        R = rgamma(CP)
        for x, y in itertools.product(R.objects, repeat=2):
            assert complex_homology(R.hom(x, y), 1).describe() != "0"
            assert hypercohomology_compare(CP, x, y, 1).ok
        ref = weakref.ref(CP)
        del CP, R
        assert ref() is None
    finally:
        if was_enabled:
            gc.enable()


def test_a_hom_presheaf_is_freed_without_the_cyclic_collector(pseudo, fincor_cat):
    # the comparison keeps its tower on CP, not on the Hom presheaf that the
    # tower reads, so the Hom presheaf and its tower form no cycle
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        CP = constant_category_presheaf(pseudo, fincor_cat)
        assert hypercohomology_compare(CP, (), (), 0).ok
        ref = weakref.ref(_hom_presheaf(CP, (), ()))
        del CP
        assert ref() is None
    finally:
        if was_enabled:
            gc.enable()


def test_a_presheaf_repr_lists_no_open(monkeypatch):
    listed = []
    real = FiniteSite.opens
    monkeypatch.setattr(FiniteSite, "opens", lambda self: listed.append(1) or real(self))
    F = constant_presheaf(_circle(10), single_complex("Z", 0, 1))
    assert repr(F) == "Presheaf('Z' in degrees 0..0)"
    assert listed == []
