"""Finite sites, presheaves of complexes, and stalk-product resolutions.

A site here is a finite poset.  Opens are the up-closed subsets, the
minimal open around a point is its up-set, and the stalk of a presheaf is
its value on that minimal open.  A site lists its opens, exponentially
many, only when asked, and a presheaf builds each value and restriction
on first read, so the tower and the cover complex read only stalks and
meets.  Replacing a presheaf by the tower of iterated stalk products
gives a cosimplicial resolution whose total complex computes
hypercohomology; a front-face/back-face pairing, given a product of
stalks, makes the construction weakly monoidal, and with the composition
of Hom stalks it yields a global-sections DG category whose Hom complexes
carry that hypercohomology.  An alternating cover complex over the
minimal opens is the independent second route for every homology claim.
One function, `linalg.totalize`, totalizes both, so their sign
conventions agree by construction.

Every stalk product has one coordinate layout: the pairs (key, local
index), keys being the points of an open, the chains of a tower level or
the cover blocks, in the order `direct_sum` and `totalize` stack them.
The limit, tower and cover matrices are `linalg.assemble` terms at the
block starts of `linalg.block_offsets`, the pairing one matrix of
`assemble_strided` blocks on the flat totals.  An inclusion of one
layout in another is the 0/1 `_placement`; the tower's structure maps,
the coboundary among them, come from one builder, `GodementTower._structure`.
The maps of presheaves over every open (the restrictions of a tower
total, the augmentation and sheafification as natural maps) are test
oracles; the library reads them one open at a time.

Two tower flavours are provided.  The full tower indexes level n by
weakly increasing chains of n+1 points; the reduced tower keeps only
strictly increasing chains, which kills every level beyond the poset
dimension and so needs no truncation bookkeeping.  Both produce the same
homology and the inclusion of the reduced tower into the full one is a
chain map, which the tests check on every fixture.
"""

import itertools
from collections.abc import Mapping
from dataclasses import dataclass, field

from .dgcat import DGCategory, DGFunctor
from .linalg import (
    ChainMap,
    Matrix,
    _apply,
    assemble,
    assemble_strided,
    block_offsets,
    complex_homology,
    compose_chain_maps,
    cut_complex,
    direct_sum,
    flat_total,
    identity_chain_map,
    is_quasi_iso,
    kernel,
    leibniz_mismatches,
    make_chain_map,
    mul_kron,
    restrict,
    subcomplex,
    tensor_basis,
    tensor_chain_map,
    tensor_complex,
    totalize,
    zero_complex,
)


# ---------------------------------------------------------------------------
# Sites.


@dataclass(frozen=True)
class FiniteSite:
    """A finite poset presented by its order relation, which is checked to
    be reflexive, transitive and antisymmetric on `points`.

    The pair (x, y) lies in `order` exactly when every open containing x
    also contains y; opens are the up-closed subsets, canonically written
    as tuples in `points` order.  Besides the minimal opens up(x) the site
    keeps one memo: `as_open` decides openness by the up-closure test and
    keeps each canonical tuple under its frozenset and under itself, so an
    open in canonical form costs one dict read; `opens` and `inclusions`,
    exponential in the number of points, are listed on first read.
    Equality and hashing see only `points` and `order`.
    """

    points: tuple
    order: frozenset
    _up: dict = field(init=False, repr=False, compare=False)
    _cache: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        if len(set(self.points)) != len(self.points):
            raise ValueError("duplicate points")
        stray = sorted((p for p in self.order if not set(p) <= set(self.points)), key=repr)
        if stray:
            raise ValueError("relation mentions unknown point in (%r, %r)" % stray[0])
        object.__setattr__(self, "_up", {
            x: tuple(y for y in self.points if self.leq(x, y)) for x in self.points
        })
        for x in self.points:
            if not self.leq(x, x):
                raise ValueError("order relation is not reflexive at %r" % (x,))
        for x in self.points:
            for y in self.up(x):
                if x != y and self.leq(y, x):
                    raise ValueError("order relation has a cycle through %r and %r" % (x, y))
                gap = next((z for z in self.up(y) if not self.leq(x, z)), None)
                if gap is not None:
                    raise ValueError("order relation is not transitive: %r <= %r <= %r"
                                     % (x, y, gap))

    def leq(self, x, y):
        return (x, y) in self.order

    def up(self, x):
        """The minimal open around x."""
        try:
            return self._up[x]
        except KeyError:
            raise ValueError("unknown point %r" % (x,)) from None

    def space(self):
        return tuple(self.points)

    def as_open(self, subset):
        """The canonical tuple of an open given as any iterable of its points."""
        U = self._cache.get(subset) if subset.__class__ is tuple else None
        if U is not None:  # a canonical open, kept under itself
            return U
        sub = frozenset(subset)
        U = self._cache.get(sub)
        if U is None:
            unknown = sub - self._up.keys()
            if unknown:
                raise ValueError("unknown points %r" % (sorted(unknown),))
            bad = next(((x, y) for x in self.points if x in sub
                        for y in self._up[x] if y not in sub), None)
            if bad is not None:
                raise ValueError("subset is not up-closed: contains %r but not %r" % bad)
            U = self._cache[sub] = tuple(x for x in self.points if x in sub)
        self._cache[U] = U
        return U

    def is_open(self, subset):
        try:
            self.as_open(subset)
        except ValueError:
            return False
        return True

    def _is_key(self, U):
        """Whether U is an open in canonical form: a key of a presheaf's values."""
        return self.is_open(U) and self._cache[frozenset(U)] == U  # kept by is_open

    def _is_inclusion(self, UV):
        """Whether UV is a pair of keys (U, V), V inside U: a key of restrictions."""
        return len(UV) == 2 and all(map(self._is_key, UV)) and set(UV[1]) <= set(UV[0])

    def opens(self):
        """Every open, smallest first, ties broken by point order; each open
        is a union of minimal opens, and the list is built on first read."""
        if "opens" not in self._cache:
            found = {frozenset()}
            for x in self.points:
                found |= {S.union(self._up[x]) for S in found}
            rank = {x: i for i, x in enumerate(self.points)}
            opens = (self._cache.setdefault(S, tuple(x for x in self.points if x in S))
                     for S in found)
            self._cache["opens"] = tuple(sorted(
                opens, key=lambda U: (len(U), [rank[x] for x in U])))
        return self._cache["opens"]

    def inclusions(self):
        """Every pair (U, V) of opens with V inside U, in `opens` order;
        built on first read."""
        if "inclusions" not in self._cache:
            opens = [(U, set(U)) for U in self.opens()]
            self._cache["inclusions"] = tuple(
                (U, V) for U, u in opens for V, v in opens if v <= u)
        return self._cache["inclusions"]

    def meet(self, U, V):
        sub = set(U) & set(V)
        return tuple(x for x in self.points if x in sub)

    def dimension(self):
        """Length (in edges) of the longest strictly increasing chain: one
        pass over the points by growing up-set, each after those above it."""
        height = {}
        for x in sorted(self.points, key=lambda x: len(self._up[x])):
            height[x] = max((height[y] + 1 for y in self._up[x] if y != x), default=0)
        return max(height.values(), default=0)

    def chains(self, length, inside=None, strict=False):
        """Weakly increasing point tuples (strictly increasing if `strict`)
        of the given length starting in `inside` (default: anywhere), in
        lexicographic point order."""
        out = [(x,) for x in (self.space() if inside is None else inside)] if length > 0 else []
        for _ in range(length - 1):
            out = [c + (y,) for c in out for y in self.up(c[-1]) if not (strict and y == c[-1])]
        return tuple(out)

    def components(self, U):
        """Connected components of an open under comparability."""
        rest, comps = list(U), []
        while rest:
            block = [rest[0]]
            for x in block:  # the loop also visits the points it appends
                block += [y for y in rest if y not in block and (self.leq(x, y) or self.leq(y, x))]
            comps.append(tuple(x for x in self.points if x in block))
            rest = [x for x in rest if x not in block]
        return tuple(comps)

    def __repr__(self):
        return "FiniteSite(%d points)" % len(self.points)


def make_site(points, below=()):
    """Build a site from generating pairs (x, y), each read as "every open
    containing x also contains y"."""
    points = tuple(points)
    rel = {(x, x) for x in points} | {(x, y) for x, y in below}
    for z in points:  # Warshall: close under the pairs through z
        rel |= {(x, y) for x, w in rel if w == z for v, y in rel if v == z}
    return FiniteSite(points, frozenset(rel))


def point_site():
    return make_site(("pt",))


def sierpinski_site():
    """Two points: an open point above a closed one."""
    return make_site(("eta", "s"), (("s", "eta"),))


def pseudo_circle_site():
    """Four points, two closed below two open; the minimal finite circle."""
    return make_site(
        ("a", "b", "u", "v"),
        (("a", "u"), ("a", "v"), ("b", "u"), ("b", "v")),
    )


def minimal_cover(site):
    """The minimal opens of all points, deduplicated in point order."""
    return tuple(dict.fromkeys(site.up(x) for x in site.points))


# ---------------------------------------------------------------------------
# Presheaves of chain complexes.


class _Lazy(Mapping):
    """A read-only mapping whose keys pass the test member(key) and are
    listed by keys() only when iterated or counted; the value at a key is
    built by build(key) on first read and then kept."""

    def __init__(self, member, keys, build):
        self._member = member
        self._keys = keys
        self._build = build
        self._built = {}

    def __getitem__(self, key):
        if key not in self._built:
            if not self._member(key):
                raise KeyError(key)
            self._built[key] = self._build(key)
        return self._built[key]

    def __contains__(self, key):
        return key in self._built or self._member(key)

    def __iter__(self):
        return iter(self._keys())

    def __len__(self):
        return len(self._keys())


def _hold_lazy(obj, names):
    """Hold each named mapping of the frozen obj as `_Lazy`, one given from outside over a copy."""
    for name in names:
        given = getattr(obj, name)
        if not isinstance(given, _Lazy):
            copy = dict(given)
            object.__setattr__(obj, name, _Lazy(copy.__contains__, copy.keys, copy.get))


@dataclass(frozen=True)
class Presheaf:
    """Per-open chain complexes with a restriction map for every inclusion.

    Immutable: `vals` and `res` are `_Lazy` mappings.  A mapping given from
    outside is held as one over a copy; the builders of the library
    (`constant_presheaf`, `tensor_presheaf`, `sheafify`, `hom_presheaf`)
    pass their own, which build a value or a restriction on first read, so
    a computation pays only for the opens and inclusions it reads.  The ring
    and the window (lo, hi) are read off the values unless given; a lazy
    presheaf is given both, so reading them, or the repr, builds no value.
    Results derived from the presheaf can be kept on it (see `cech_hypercohomology`).
    """

    site: FiniteSite
    vals: Mapping
    res: Mapping
    ring: str = field(default=None, compare=False)
    bounds: tuple = field(default=None, repr=False, compare=False)
    _cache: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _hold_lazy(self, ("vals", "res"))
        if self.ring is None:
            object.__setattr__(self, "ring", self.vals[self.site.space()].ring)
        if self.bounds is None:
            object.__setattr__(self, "bounds", (
                min(C.lo for C in self.vals.values()), max(C.hi for C in self.vals.values())
            ))
        object.__setattr__(self, "_cache", {})

    def _memo(self, key, build):
        """The value kept under key, built by build() on first use."""
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def value(self, U):
        return self.vals[self.site.as_open(U)]

    def restriction(self, U, V):
        return self.res[(self.site.as_open(U), self.site.as_open(V))]

    def stalk(self, x):
        return self.value(self.site.up(x))

    def window(self):
        return self.bounds

    def __repr__(self):
        return "Presheaf(%r in degrees %d..%d)" % ((self.ring,) + self.bounds)


def make_presheaf(site, vals, res, check=True):
    """Normalize keys, fill in identity restrictions, and (by default)
    verify shapes, chain-map property and functoriality.  Only tests set
    `check`: the unchecked eager oracle of a tower's totals."""
    vals = {site.as_open(U): C for U, C in vals.items()}
    missing = [U for U in site.opens() if U not in vals]
    if missing:
        raise ValueError("no value supplied for open %r" % (missing[0],))
    full = {(site.as_open(U), site.as_open(V)): f for (U, V), f in res.items()}
    for U in site.opens():
        if (U, U) not in full:
            full[(U, U)] = identity_chain_map(vals[U])
    F = Presheaf(site, vals, full)
    if check:
        validate_presheaf(F)
    return F


def validate_presheaf(F):
    site = F.site
    known = set(site.inclusions())
    for U, V in F.res:
        if (U, V) not in known:
            raise ValueError("restriction %r -> %r is not along an inclusion of opens" % (U, V))
    below = {}
    for U, V in site.inclusions():
        if (U, V) not in F.res:
            raise ValueError("missing restriction %r -> %r" % (U, V))
        make_chain_map(F.vals[U], F.vals[V], F.res[(U, V)].comps, check=True)
        below.setdefault(U, []).append(V)
    _check_functorial(F.vals, F.res, site.opens(),
                      ((U, V, W) for U, V in site.inclusions() for W in below[V]))
    return True


def _check_functorial(vals, res, opens, triples):
    """Raise unless res is the identity at each open of `opens` and
    composes along U -> V -> W for each (U, V, W) of `triples`."""
    for U in opens:
        if res[(U, U)] != identity_chain_map(vals[U]):
            raise ValueError("restriction along %r -> itself is not the identity" % (U,))
    for U, V, W in triples:
        if compose_chain_maps(res[(V, W)], res[(U, V)]) != res[(U, W)]:
            raise ValueError("restrictions fail to compose along %r -> %r -> %r" % (U, V, W))


def constant_presheaf(site, C):
    """Value C on every nonempty open, identity restrictions, each read
    off on first use.  A `ChainMap` is immutable, so every restriction
    between nonempty opens is one shared identity map, and every one from
    a nonempty open to the empty open one shared map into it."""
    empty = zero_complex(C.ring, C.lo, C.hi)
    ident, into_empty = identity_chain_map(C), ChainMap(C, empty, {})
    on_empty = ChainMap(empty, empty, {})
    vals = _Lazy(site._is_key, site.opens, lambda U: C if U else empty)
    res = _Lazy(site._is_inclusion, site.inclusions,
                lambda UV: ident if UV[1] else into_empty if UV[0] else on_empty)
    return Presheaf(site, vals, res, C.ring, (C.lo, C.hi))


def tensor_presheaf(F, G):
    """The tensor product of the values and of the restrictions, each built
    on first read; its window is the sum of the two windows."""
    if F.site is not G.site and F.site != G.site:
        raise ValueError("presheaves live on different sites")
    site, (flo, fhi), (glo, ghi) = F.site, F.window(), G.window()
    vals = _Lazy(site._is_key, site.opens, lambda U: tensor_complex(F.vals[U], G.vals[U]))
    res = _Lazy(site._is_inclusion, site.inclusions, lambda UV: tensor_chain_map(
        F.res[UV], G.res[UV], source=vals[UV[0]], target=vals[UV[1]]))
    return Presheaf(site, vals, res, F.ring, (flo + glo, fhi + ghi))


def tensor_assoc_map(A, B, C):
    """The canonical regrouping (A (x) B) (x) C -> A (x) (B (x) C); a
    permutation of the tensor bases, checked to be a chain map."""
    AB = tensor_complex(A, B)
    BC = tensor_complex(B, C)
    src = tensor_complex(AB, C)
    tgt = tensor_complex(A, BC)
    ab = {t: tensor_basis(A, B, t) for t in AB.degrees()}
    bc = {m: {key: idx for idx, key in enumerate(tensor_basis(B, C, m))} for m in BC.degrees()}
    comps = {}
    for n in src.degrees():
        regrouped = []
        for t, ij, k in tensor_basis(AB, C, n):
            a, i, j = ab[t][ij]
            regrouped.append((a, i, bc[n - a][(t - a, j, k)]))
        comps[n] = _placement(src.ring, regrouped, tensor_basis(A, BC, n))
    return make_chain_map(src, tgt, comps, check=True)


# ---------------------------------------------------------------------------
# Coordinates of stalk products: a sum over keys (points, chains, cover
# blocks) stacks its summands in key order, as `direct_sum` does, so its
# coordinates are the pairs (key, local index) in that order, and its
# blocks start where `block_offsets` says.


def _coordinates(keys, rank):
    """The coordinates of the sum over `keys` whose summand at a key has
    rank(key) coordinates."""
    return tuple((key, k) for key in keys for k in range(rank(key)))


def _placement(ring, small, big):
    """The 0/1 inclusion of the coordinate list `small` into `big`, which
    holds each coordinate of `small`: column j is the unit vector at the
    position of small[j] in `big`.  Its transpose is the projection."""
    index = {c: i for i, c in enumerate(big)}
    terms = [(index[c], j, 1, 1, 1) for j, c in enumerate(small)]
    return assemble(ring, len(big), len(small), terms)


# ---------------------------------------------------------------------------
# Sheafification by exact limits over points.


def sheafify(F):
    """The associated sheaf: value on U is the limit of the stalks over
    the points of U, computed as an exact kernel; restrictions project.

    Lazy: a value, with its kernel bases, and a restriction, one `restrict`
    per degree, are built on first read and kept, so a cover complex pays
    only for the opens and inclusions it reads.  The builders hold the
    stalks, the restrictions between them and the ring, never F.

    The result only depends on the stalks of F, and its own stalks agree
    with those of F, so applying it twice changes nothing.
    """
    site, ring, (lo, hi) = F.site, F.ring, F.window()
    stalk = {x: F.stalk(x) for x in site.points}
    between = {
        (x, y): F.restriction(site.up(x), site.up(y))
        for x in site.points for y in site.up(x) if x != y
    }
    kbases = {}

    def value(U):
        if not U:
            return zero_complex(ring, lo, hi)
        pairs = [(x, y) for x in U for y in U if (x, y) in between]
        ks = kbases[U] = {}
        for n in range(lo, hi + 1):
            start, total = block_offsets(U, lambda x: stalk[x].rank(n))
            if not pairs:
                ks[n] = Matrix.identity(ring, total)
                continue
            # one block row per pair x < y: the stalk at y minus the
            # restriction of the stalk at x to it
            rows, nrows = block_offsets(pairs, lambda xy: stalk[xy[1]].rank(n))
            terms = []
            for x, y in pairs:
                terms.append((rows[x, y], start[y], stalk[y].rank(n), 1, 1))
                terms.append((rows[x, y], start[x], between[(x, y)].comp(n), 1, -1))
            ks[n] = kernel(assemble(ring, nrows, total, terms))
        return subcomplex(direct_sum(ring, lo, hi, [stalk[x] for x in U]), ks)

    vals = _Lazy(site._is_key, site.opens, value)

    def restriction(UV):
        """The rows of U's kernel bases at the points of V, in V's bases."""
        U, V = UV
        src, tgt = vals[U], vals[V]  # reading a value builds its kernel bases
        comps = {}
        if V:
            for n in range(lo, hi + 1):
                start = block_offsets(U, lambda x: stalk[x].rank(n))[0]
                ks = kbases[U][n]
                rows = [start[x] + k for x in V for k in range(stalk[x].rank(n))]
                comps[n] = restrict(kbases[V][n], ks.submatrix(rows, range(ks.ncols)),
                                    "the limit projection")
        return ChainMap(src, tgt, comps)

    res = _Lazy(site._is_inclusion, site.inclusions, restriction)
    return Presheaf(site, vals, res, ring, (lo, hi))


def _stalk_restrictions(F, U, n):
    """The restrictions of F(U) to the stalks at the points of U, stacked."""
    blocks = {x: F.restriction(U, F.site.up(x)).comp(n) for x in U}
    rows, nrows = block_offsets(U, lambda x: blocks[x].nrows)
    return assemble(F.ring, nrows, F.vals[U].rank(n), [(rows[x], 0, blocks[x], 1, 1) for x in U])


# ---------------------------------------------------------------------------
# The stalk-product tower.


def _coface(p, j):
    """The monotone map [p] -> [p+1] that skips j."""
    return tuple(i if i < j else i + 1 for i in range(p + 1))


class GodementTower:
    """Level p assigns to U the product of stalks over chains of p+1
    points starting in U; with `strict=True` only strictly increasing
    chains are kept (the reduced tower)."""

    def __init__(self, source, depth, strict):
        if depth < 0:
            raise ValueError("depth must be nonnegative")
        self.source = source
        self.site = source.site
        self.depth = depth
        self.strict = strict
        self.lo, self.hi = source.window()
        self._cache = {}

    _memo = Presheaf._memo

    # -- chain bookkeeping

    def chains(self, p, U):
        U = self.site.as_open(U)
        return self._memo(("chains", p, U),
                          lambda: self.site.chains(p + 1, inside=U, strict=self.strict))

    def chain_value(self, c):
        return self.source.stalk(c[-1])

    def level_complex(self, p, U):
        return direct_sum(self.source.ring, self.lo, self.hi,
                          [self.chain_value(c) for c in self.chains(p, U)])

    # -- the cosimplicial structure (full tower only)

    def cosimplicial_matrix(self, p, q, f, U, n):
        """Matrix at internal degree n of the structure map from level p
        to level q induced by the monotone map f: [p] -> [q]."""
        if self.strict:
            raise ValueError("the reduced tower is not cosimplicial")
        f = tuple(f)
        if len(f) != p + 1 or any(f[i] > f[i + 1] for i in range(p)) or f[-1] > q or f[0] < 0:
            raise ValueError("not a monotone map [%d] -> [%d]: %r" % (p, q, f))
        return self._structure(p, q, [(f, 1)], U, n)

    def coface_matrix(self, p, j, U, n):
        return self.cosimplicial_matrix(p, p + 1, _coface(p, j), U, n)

    def codegeneracy_matrix(self, p, j, U, n):
        f = tuple(i if i <= j else i - 1 for i in range(p + 2))
        return self.cosimplicial_matrix(p + 1, p, f, U, n)

    def delta_matrix(self, p, U, n):
        """Alternating sum of the cofaces, level p -> p+1 (works for both
        flavours: a face of a strictly increasing chain is one too)."""
        return self._structure(p, p + 1, [(_coface(p, j), -1 if j % 2 else 1)
                                          for j in range(p + 2)], U, n)

    def _structure(self, p, q, maps, U, n):
        """Matrix at internal degree n and open U of the sum of sgn times
        the structure map from level p to level q of f, over the pairs
        (f, sgn) in `maps`.  The block of f at a chain C of level q reads
        the chain f^*C = (C[f(0)], ..., C[f(p)]) through the restriction of
        its last stalk to that of C, an identity block where both end at
        the same point."""
        rank = lambda c: self.chain_value(c).rank(n)
        (soffs, ncols), (toffs, nrows) = (block_offsets(self.chains(r, U), rank) for r in (p, q))
        terms = []
        for C in self.chains(q, U):
            x = C[-1]
            for f, sgn in maps:
                pullback = tuple(map(C.__getitem__, f))
                y = pullback[-1]
                rmat = rank(C) if y == x else self.source.restriction(
                    self.site.up(y), self.site.up(x)).comp(n)
                terms.append((toffs[C], soffs[pullback], rmat, 1, sgn))
        return assemble(self.source.ring, nrows, ncols, terms)

    # -- totalization

    def total(self, U):
        """The total complex at U: cosimplicial direction plus (-1)^level
        times the coefficient differential, cut from degree lo + depth on,
        where the levels beyond the depth would reach, unless the tower is
        reduced and as deep as the site: its levels end there."""
        U = self.site.as_open(U)
        cut = None if self.strict and self.depth >= self.site.dimension() else self.lo + self.depth
        return self._memo(("total", U), lambda: cut_complex(totalize(
            self.source.ring, self.lo, self.hi + self.depth,
            {p: self.level_complex(p, U) for p in range(self.depth + 1)},
            lambda p, q: self.delta_matrix(p, U, q)), hi=cut))

    def flat(self, U):
        """`total(U)` as one free module (`linalg.flat_total`)."""
        U = self.site.as_open(U)
        return self._memo(("flat", U), lambda: flat_total(self.total(U)))

    def blocks(self, U):
        """The blocks of the total at U in the order of its coordinates
        (those of `flat`), as the triples (degree, level, chain), and the
        rank of a block."""
        keys = [(n, p, c) for n in range(self.lo, self.hi + self.depth + 1)
                for p in range(self.depth + 1) for c in self.chains(p, U)]
        return keys, lambda npc: self.chain_value(npc[2]).rank(npc[0] - npc[1])

    def layout(self, U, n):
        """The coordinates of total degree n at U, in order: one triple
        (level, chain, local index) per column."""
        keys, rank = self.blocks(U)
        coords = _coordinates([key for key in keys if key[0] == n], rank)
        return tuple((p, c, k) for (_, p, c), k in coords)

    def augmentation(self, U):
        """The restriction-to-stalks inclusion of F(U) into total degree
        zero of the tower."""
        U = self.site.as_open(U)
        src = self.source.vals[U]
        tgt = self.total(U)
        comps = {}
        for n in range(self.lo, self.hi + 1):
            # the stalk restrictions, placed on level zero
            stacked = _stalk_restrictions(self.source, U, n)
            comps[n] = assemble(src.ring, tgt.rank(n), src.rank(n), [(0, 0, stacked, 1, 1)])
        return make_chain_map(src, tgt, comps, check=True)

    def __repr__(self):
        kind = "reduced" if self.strict else "full"
        return "GodementTower(%s, depth=%d)" % (kind, self.depth)


def reduced_inclusion(Tred, Tfull, U):
    """The placement of the reduced tower inside the full one: each
    strictly increasing chain sits among the weakly increasing ones."""
    if not Tred.strict or Tfull.strict:
        raise ValueError("expected a reduced tower and a full tower, in that order")
    if Tfull.depth < Tred.depth:
        raise ValueError("the full tower is too shallow to receive the inclusion")
    U = Tred.site.as_open(U)
    src = Tred.total(U)
    tgt = Tfull.total(U)
    comps = {}
    for n in range(Tred.lo, Tred.hi + Tred.depth + 1):
        comps[n] = _placement(src.ring, Tred.layout(U, n), Tfull.layout(U, n))
    return make_chain_map(src, tgt, comps, check=True)


def default_depth(site, window_len, strict):
    if strict:
        return site.dimension()
    return site.dimension() + window_len + 1


def godement_tower(F, depth=None, strict=False):
    lo, hi = F.window()
    if depth is None:
        depth = default_depth(F.site, hi - lo, strict)
    return GodementTower(F, depth, strict=strict)


# ---------------------------------------------------------------------------
# The cover complex over the minimal opens: the second route.


def cech_total(F, cover=None):
    """Alternating cover complex of a presheaf of complexes, totalized
    by `totalize` like the tower.

    The values of F are used as given; feed it a sheaf (for instance the
    output of `sheafify`) when the answer should be a cohomology group of
    the space.  When F(∅) = 0, as for every sheaf, a cover block with an
    empty meet is zero, so the walk of the nerve leaves those blocks out;
    otherwise it reads every tuple of cover indices.
    """
    site, ring, (lo, hi) = F.site, F.ring, F.window()
    cover = tuple(site.as_open(V) for V in (minimal_cover(site) if cover is None else cover))
    covered = set().union(*[set(V) for V in cover]) if cover else set()
    if covered != set(site.points):
        raise ValueError("cover misses points %r" % (sorted(set(site.points) - covered),))
    k = len(cover)
    # column p is the sum over the cover blocks: the meets of p + 1 opens
    meets = _cover_meets(site, cover, not F.value(()).total_rank())
    blocks = {p: [idx for idx in meets if len(idx) == p + 1] for p in range(k)}
    columns = {
        p: direct_sum(ring, lo, hi, [F.vals[meets[idx]] for idx in blocks[p]]) for p in blocks
    }

    def insertion(p, q):
        """The alternating insertion of a cover index, column p -> p + 1."""

        def rank(idx):
            return F.vals[meets[idx]].rank(q)

        terms = []
        (soff, ncols), (toff, nrows) = (block_offsets(blocks[r], rank) for r in (p, p + 1))
        # the faces of a block of the walk are in the walk: their meets are larger
        for tidx in blocks[p + 1]:
            for j in range(p + 2):
                idx = tidx[:j] + tidx[j + 1:]
                if rank(idx):
                    rmat = F.restriction(meets[idx], meets[tidx]).comp(q)
                    terms.append((toff[tidx], soff[idx], rmat, 1, -1 if j % 2 else 1))
        return assemble(ring, nrows, ncols, terms)

    return totalize(ring, lo, hi + max(k - 1, 0), columns, insertion)


def _cover_meets(site, cover, prune):
    """The meet of the opens of `cover` at each increasing tuple of their
    indices, shortest tuples first and each length in the order of
    `itertools.combinations`.  With `prune`, a tuple whose meet is empty is
    left out and not extended: every tuple that extends it meets in the
    empty open too."""
    meets = {(i,): V for i, V in enumerate(cover) if V or not prune}
    level = list(meets)
    while level:
        longer = []
        for idx in level:
            for i in range(idx[-1] + 1, len(cover)):
                W = site.meet(meets[idx], cover[i])
                if W or not prune:
                    meets[idx + (i,)] = W
                    longer.append(idx + (i,))
        level = longer
    return meets


def _sheafified(F):
    """`sheafify(F)`, computed once and kept on F."""
    return F._memo("sheafify", lambda: sheafify(F))


def cech_hypercohomology(F, n, cover=None):
    """Homology of the cover complex of the associated sheaf, both kept
    on F, so a sweep over the degrees builds each once; the sheaf is lazy,
    so only its values on the meets of the cover are built.  Unchecked: the
    answer is the hypercohomology only when the cover is Leray for the
    sheaf, which `hypercohomology_compare` checks.  Only tests set `cover`:
    a cover other than the minimal one; the `dgforge` command is to set it."""
    cover = minimal_cover(F.site) if cover is None else tuple(F.site.as_open(V) for V in cover)
    cx = F._memo(("cover", cover), lambda: cech_total(_sheafified(F), cover))
    return complex_homology(cx, n)


def _leray_witness(aF, cover):
    """The text "cover not Leray at <meet>" for the first meet of the cover
    where the augmentation of aF's reduced tower is not a quasi-isomorphism
    on every degree of its cone, none of them cut (aF is not acyclic
    there), else None."""
    T = godement_tower(aF, strict=True)
    for V in dict.fromkeys(_cover_meets(aF.site, cover, True).values()):
        if V and not is_quasi_iso(T.augmentation(V)).ok:
            return "cover not Leray at %r" % (V,)
    return None


# ---------------------------------------------------------------------------
# The front-face/back-face pairing.


class AWPairing:
    """The weakly monoidal structure of the tower: a chain pairing

        total(F) (x) total(G) -> total(P)

    placing the first factor on the front face of a chain and the second
    on the back face, with the Koszul sign (-1)^(q*b) for an internal
    degree q front block meeting a level b back block.

    The product of stalks is data: stalk_product(U, q, s) is the matrix
    F(U)^q (x) G(U)^s -> P(U)^(q+s) at a minimal open U, its columns in
    the order of `kron`.  The cup product (`aw_cup`) passes the inclusion
    of that block into (F (x) G)(U)^(q+s); global-sections composition
    (`rgamma`) passes the composition of the Hom stalks."""

    def __init__(self, left, right, product, stalk_product):
        if not (left.depth == right.depth == product.depth):
            raise ValueError("depth mismatch")
        if not (left.strict == right.strict == product.strict):
            raise ValueError("the towers mix the two flavours")
        self.left = left
        self.right = right
        self.product = product
        self.stalk_product = stalk_product
        self._cache = {}

    _memo = Presheaf._memo

    def _glued(self, x, y, q, s, sgn):
        """sgn times the stalk product at up(y) after the restriction of the
        front factor from up(x): F(up x)^q (x) G(up y)^s -> P(up y)^(q+s)."""
        F, V = self.left.source, self.left.site.up(y)
        return self._memo((x, y, q, s, sgn), lambda: mul_kron(
            self.stalk_product(V, q, s), F.restriction(F.site.up(x), V).comp(q),
            self.right.source.stalk(y).rank(s)).scale(sgn))

    def pairing(self, U):
        """The pairing at U, one matrix from the flat totals totF (x) totG,
        its columns in the order of `kron`, to the flat total of totP: the
        block of a front chain c and a back chain c' that starts where c
        ends lands on the glued chain c + c'[1:].  A ValueError names the
        first entry where it is not a chain map (`linalg.leibniz_mismatches`)."""
        U = self.left.site.as_open(U)
        TF, TG, TP = self.left, self.right, self.product
        rows = block_offsets(*TP.blocks(U))[0]
        keys, rank = TG.blocks(U)
        back = {}  # (degree, level, chain, start, rank) of the back blocks, by first point
        for (u, b, c2), g0 in block_offsets(keys, rank)[0].items():
            back.setdefault(c2[0], []).append((u, b, c2, g0, rank((u, b, c2))))
        F, G, P = (T.flat(U) for T in (TF, TG, TP))
        terms = []
        for (t, p, c), f0 in block_offsets(*TF.blocks(U))[0].items():
            for u, b, c2, g0, run in back.get(c[-1], ()):
                row = rows.get((t + u, p + b, c + c2[1:]))  # None beyond the depth or the window
                if run and row is not None:
                    q, s = t - p, u - b
                    M = self._glued(c[-1], c2[-1], q, s, -1 if q * b % 2 else 1)
                    terms.append((row, f0 * G.rank + g0, M, run, G.rank))
        mu = assemble_strided(P.cx.ring, P.rank, F.rank * G.rank, terms)
        for i, j, lhs, rhs in leibniz_mismatches(P, F, G, mu):
            raise ValueError("the pairing at %r is no chain map: entry (%d, %d): %s != %s"
                             % (U, i, j, lhs, rhs))
        return mu


def aw_cup(F, G, depth=None, strict=False):
    """Build matching towers for F, G and F (x) G and return the pairing
    whose stalk product is the inclusion of F(U)^q (x) G(U)^s into
    (F (x) G)(U)^(q+s), at its place in `tensor_basis`.  Only tests set
    `depth` and `strict`: a chosen depth or flavour."""
    if depth is None:
        depth = default_depth(F.site, sum(hi - lo for lo, hi in (F.window(), G.window())), strict)
    FG = tensor_presheaf(F, G)

    def inclusion(U, q, s):
        A, B = F.vals[U], G.vals[U]
        width = A.rank(q) * B.rank(s)
        start = sum(A.rank(t) * B.rank(q + s - t) for t in range(A.lo, q))
        return assemble(FG.ring, FG.vals[U].rank(q + s), width, [(start, 0, width, 1, 1)])

    return AWPairing(*(godement_tower(P, depth, strict=strict) for P in (F, G, FG)), inclusion)


# ---------------------------------------------------------------------------
# Presheaves of DG categories and their global-sections category.


@dataclass(frozen=True)
class CategoryPresheaf:
    """Immutable: a DG category per nonempty open and a restriction functor per
    inclusion of nonempty opens, `_Lazy` as in `Presheaf`; Hom presheaves kept."""

    site: FiniteSite
    cats: Mapping
    res: Mapping
    _cache: dict = field(init=False, repr=False, compare=False, default_factory=dict)
    _memo = Presheaf._memo

    def __post_init__(self):
        _hold_lazy(self, ("cats", "res"))

    def category(self, U):
        return self.cats[self.site.as_open(U)]

    def functor(self, U, V):
        return self.res[(self.site.as_open(U), self.site.as_open(V))]

    def restrict_object(self, X, U):
        return self.functor(self.site.space(), U).obj_map[X]


def constant_category_presheaf(site, C):
    """C on every nonempty open, read on demand; one identity functor along every inclusion."""
    ident = DGFunctor(C, C, {x: x for x in C.objects}, {
        (x, y): identity_chain_map(C.hom(x, y)) for x in C.objects for y in C.objects})
    cats = _Lazy(lambda U: bool(U) and site._is_key(U), lambda: site.opens()[1:], lambda U: C)
    res = _Lazy(lambda UV: site._is_inclusion(UV) and bool(UV[1]),
                lambda: tuple(UV for UV in site.inclusions() if UV[1]), lambda UV: ident)
    return CategoryPresheaf(site, cats, res)


def hom_presheaf(CP, X, Y):
    """The Hom complexes of a pair of global objects, a lazy presheaf: each
    value and restriction is built on first read, a restriction checked as
    a chain map then; the window is the hull over the whole space S and the
    minimal opens.  Functoriality is checked where the towers, augmentation
    and sheafification read it: the identity at each up(a), composition
    along up(a) ⊇ up(b) ⊇ up(c) and S ⊇ up(a) ⊇ up(b) (`validate_presheaf`
    checks all).  The builders hold CP.cats and CP.res, never CP: its memo
    keeps the result (`_hom_presheaf`)."""
    site, cats, functors, S = CP.site, CP.cats, CP.res, CP.site.space()
    pair = lambda U: tuple(functors[(S, U)].obj_map[W] for W in (X, Y))
    vals = _Lazy(site._is_key, site.opens,
                 lambda U: cats[U].hom(*pair(U)) if U else zero_complex(cats[S].ring, lo, hi))
    res = _Lazy(site._is_inclusion, site.inclusions, lambda UV: make_chain_map(
        vals[UV[0]], vals[UV[1]], functors[UV].mor_maps[pair(UV[0])].comps if UV[1] else {}))
    up, ups = site.up, minimal_cover(site)
    lo, hi = min(vals[U].lo for U in (S,) + ups), max(vals[U].hi for U in (S,) + ups)
    _check_functorial(vals, res, ups, [
        (up(a), up(b), up(c)) for a in site.points for b in up(a) for c in up(b) if a != b != c
    ] + [(S, up(a), up(b)) for a in site.points for b in up(a)])
    return Presheaf(site, vals, res, cats[S].ring, (lo, hi))


def _hom_presheaf(CP, X, Y):
    """`hom_presheaf(CP, X, Y)`, built once and kept on CP."""
    return CP._memo(("hom", X, Y), lambda: hom_presheaf(CP, X, Y))


class _RGammaData:
    def __init__(self, CP, depth, strict):
        self.CP = CP
        self.site = CP.site
        self.S = CP.site.space()
        self.strict = strict
        C = CP.category(self.S)
        self.base = C
        if depth is None:
            homs = (_hom_presheaf(CP, x, y) for x in C.objects for y in C.objects)
            spans = (hi - lo for lo, hi in (H.window() for H in homs))
            depth = default_depth(CP.site, max(spans, default=0), strict)
        self.depth = depth
        self._cache = {}

    _memo = Presheaf._memo

    def tower(self, X, Y):
        return self._memo(("tower", X, Y), lambda: GodementTower(
            _hom_presheaf(self.CP, X, Y), self.depth, self.strict))

    def hom_fn(self, X, Y):
        return self.tower(X, Y).total(self.S)

    def big_comp(self, x, y, z):
        towers = (self.tower(y, z), self.tower(x, y), self.tower(x, z))
        return self._memo(("pairing", x, y, z), lambda: AWPairing(
            *towers, self._composition(x, y, z)).pairing(self.S))

    def _composition(self, x, y, z):
        """The composition of the Hom stalks as a stalk product, checked to
        commute with every restriction between minimal opens: all of it
        that the pairing reads."""
        CP, site = self.CP, self.site
        H = [_hom_presheaf(CP, *pair) for pair in ((y, z), (x, y), (x, z))]

        def composition(U, p, q):
            XU, YU, ZU = (CP.restrict_object(W, U) for W in (x, y, z))
            return CP.category(U).comp_matrix(XU, YU, ZU, p, q)

        for U, V in ((site.up(a), site.up(b)) for a in site.points for b in site.up(a) if b != a):
            rYZ, rXY, rXZ = (h.restriction(U, V) for h in H)
            for p, q in itertools.product(H[0].vals[U].degrees(), H[1].vals[U].degrees()):
                if rXZ.comp(p + q) * composition(U, p, q) != mul_kron(
                        composition(V, p, q), rYZ.comp(p), rXY.comp(q)):
                    raise ValueError("map fails to commute with restriction %r -> %r" % (U, V))
        return composition

    def comp_fn(self, x, y, z, p, q):
        g, f, h = (self.tower(*pair).flat(self.S) for pair in ((y, z), (x, y), (x, z)))
        mu, gp, fq = self.big_comp(x, y, z), g.cx.rank(p), f.cx.rank(q)
        # the rows of totXZ^(p+q) and the columns of totYZ^p (x) totXY, then totXY^q in each run
        runs = mu.submatrix(range(h.start[p + q], h.start[p + q] + h.cx.rank(p + q)),
                            range(g.start[p] * f.rank, (g.start[p] + gp) * f.rank))
        return mul_kron(runs, gp, assemble(mu.ring, f.rank, fq, [(f.start[q], 0, fq, 1, 1)]))

    def id_fn(self, X):
        T = self.tower(X, X)
        return _apply(T.augmentation(self.S).comp(0), self.base.identity(X).vector)


def rgamma(CP, depth=None, strict=True):
    """The global-sections DG category of a presheaf of DG categories:
    same objects as over the whole space, Hom complexes the totals of the
    stalk-product towers of the Hom presheaves, composition the
    front-face/back-face pairing whose stalk product is the composition of
    the Hom stalks.

    The reduced tower is the default: its levels vanish beyond the poset
    dimension, so at its default depth the Hom totals carry no cut; another
    depth or the full tower cuts them (`GodementTower.total`).  Only tests set
    `depth` and `strict`; the reduced-against-full comparison and the
    `dgforge` command are to call it with them.
    """
    data = _RGammaData(CP, depth, strict)
    C = data.base
    R = DGCategory(
        C.ring,
        C.objects,
        data.hom_fn,
        comp_fn=data.comp_fn,
        id_fn=data.id_fn,
        name="rgamma(%s)" % (C.name or C.ring),
    )
    # the towers stay reachable for augmentation_functor; data never refers
    # back to R, so the category holds no reference cycle
    R._rgamma_data = data
    return R


def augmentation_functor(CP, R):
    """The global-sections embedding of the base category into R, a result
    of `rgamma(CP, ...)`, built on R's own towers."""
    data = getattr(R, "_rgamma_data", None)
    if data is None or data.CP is not CP:
        raise ValueError("R is not the global-sections category of this presheaf")
    C = data.base
    mor_maps = {}
    for x in C.objects:
        for y in C.objects:
            T = data.tower(x, y)
            mor_maps[(x, y)] = make_chain_map(
                C.hom(x, y), R.hom(x, y), T.augmentation(data.S).comps, check=True
            )
    return DGFunctor(C, R, {x: x for x in C.objects}, mor_maps)


@dataclass(frozen=True)
class CompareReport:
    """Both routes' answers in one degree; `witness` names a meet where the
    minimal cover is not Leray, so that the cover route is no check."""

    degree: int
    via_tower: str
    via_cover: str
    stable: bool
    witness: str | None

    @property
    def ok(self):
        return self.stable and self.witness is None and self.via_tower == self.via_cover


def hypercohomology_compare(CP, X, Y, n, depth=None, strict=True):
    """Homology of the global Hom total against the cover complex of the
    sheafified Hom presheaf: two routes to the same group, the second
    checked to be Leray on the minimal cover.  A degree that the cut of the
    total leaves inexact is reported with `stable=False`.  The tower is
    kept on CP per (X, Y, depth, strict), so a degree sweep builds it once;
    the tower holds the Hom presheaf, which holds nothing of CP.  Only tests
    set `depth` and `strict`; the reduced-against-full comparison and the
    `dgforge` command are to call it with them."""
    H = _hom_presheaf(CP, X, Y)
    T = CP._memo(("tower", X, Y, depth, strict), lambda: godement_tower(H, depth, strict=strict))
    tot = T.total(CP.site.space())
    g = complex_homology(tot, n)
    c = cech_hypercohomology(H, n)
    aH, cover = _sheafified(H), minimal_cover(CP.site)
    witness = aH._memo(("leray", cover), lambda: _leray_witness(aH, cover))
    return CompareReport(n, g.describe(), c.describe(), tot.exact(n), witness)
