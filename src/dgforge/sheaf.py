"""Finite sites, presheaves of complexes, and stalk-product resolutions.

A site here is a finite poset.  Opens are the up-closed subsets, the
minimal open around a point is its up-set, and the stalk of a presheaf is
its value on that minimal open.  Replacing a presheaf by the tower of
iterated stalk products gives a cosimplicial resolution whose total
complex computes hypercohomology; a front-face/back-face pairing makes
the construction weakly monoidal, and pushing a presheaf of DG categories
through it yields a global-sections DG category whose Hom complexes carry
that hypercohomology.  An alternating cover complex over the minimal
opens serves as the independent second route for every homology claim.
One function, `linalg.totalize`, totalizes both the tower and the cover
complex, so their sign conventions agree by construction.

Every stalk product has one coordinate layout: the pairs (key, local
index), keys being the points of an open, the chains of a tower level or
the cover blocks, in the order `direct_sum` and `totalize` stack them.
Projections, inclusions and tower maps are read from that list, by
selecting rows or columns or by `block_diagonal`.

Two tower flavours are provided.  The full tower indexes level n by
weakly increasing chains of n+1 points; the reduced tower keeps only
strictly increasing chains, which kills every level beyond the poset
dimension and so needs no truncation bookkeeping.  Both produce the same
homology and the inclusion of the reduced tower into the full one is a
chain map, which the tests check on every fixture.
"""

import itertools
from dataclasses import dataclass, field
from types import MappingProxyType

from .dgcat import DGCategory, DGFunctor
from .linalg import (
    ChainMap,
    Matrix,
    _apply,
    _units,
    add_block,
    block_diagonal,
    block_matrix,
    complex_homology,
    compose_chain_maps,
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
    as tuples in `points` order.  Every open is a union of minimal opens
    up(x), so the minimal opens, the opens and the inclusions between them
    are enumerated once, when the site is built; equality and hashing
    still see only `points` and `order`.
    """

    points: tuple
    order: frozenset
    _up: dict = field(init=False, repr=False, compare=False)
    _opens: tuple = field(init=False, repr=False, compare=False)
    _index: dict = field(init=False, repr=False, compare=False)
    _inclusions: tuple = field(init=False, repr=False, compare=False)

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
        found = {frozenset()}
        for x in self.points:
            found |= {S.union(self.up(x)) for S in found}
        rank = {x: i for i, x in enumerate(self.points)}
        opens = sorted(
            (tuple(x for x in self.points if x in S) for S in found),
            key=lambda U: (len(U), [rank[x] for x in U]),
        )
        object.__setattr__(self, "_opens", tuple(opens))
        object.__setattr__(self, "_index", {frozenset(U): U for U in opens})
        object.__setattr__(self, "_inclusions", tuple(
            (U, V) for U in opens for V in opens if set(V) <= set(U)
        ))

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
        sub = frozenset(subset)
        U = self._index.get(sub)
        if U is not None:
            return U
        unknown = sub - set(self.points)
        if unknown:
            raise ValueError("unknown points %r" % (sorted(unknown),))
        bad = next(
            (x, y) for x in self.points if x in sub
            for y in self.points if self.leq(x, y) and y not in sub
        )
        raise ValueError("subset is not up-closed: contains %r but not %r" % bad)

    def is_open(self, subset):
        return frozenset(subset) in self._index

    def opens(self):
        """Every open, smallest first, ties broken by point order."""
        return self._opens

    def inclusions(self):
        """Every pair (U, V) of opens with V inside U, in `opens` order."""
        return self._inclusions

    def meet(self, U, V):
        sub = set(U) & set(V)
        return tuple(x for x in self.points if x in sub)

    def dimension(self):
        """Length (in edges) of the longest strictly increasing chain."""
        best = 0
        for length in range(1, len(self.points) + 1):
            if self.chains(length, strict=True):
                best = length - 1
        return best

    def chains(self, length, inside=None, strict=False):
        """Weakly increasing point tuples (strictly increasing if `strict`)
        of the given length starting in `inside` (default: anywhere), in
        lexicographic point order."""
        U = self.space() if inside is None else inside
        out = []

        def rec(prefix):
            if len(prefix) == length:
                out.append(tuple(prefix))
                return
            if not prefix:
                cand = U
            else:
                cand = [y for y in self.up(prefix[-1]) if not (strict and y == prefix[-1])]
            for y in cand:
                rec(prefix + [y])

        if length > 0:
            rec([])
        return tuple(out)

    def components(self, U):
        """Connected components of an open under comparability."""
        rest = list(U)
        comps = []
        while rest:
            block = {rest[0]}
            grew = True
            while grew:
                grew = False
                for x in rest:
                    if x in block:
                        continue
                    if any(self.leq(x, y) or self.leq(y, x) for y in block):
                        block.add(x)
                        grew = True
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
    changed = True
    while changed:
        changed = False
        for (a, b), (c, d) in itertools.product(tuple(rel), repeat=2):
            if b == c and (a, d) not in rel:
                rel.add((a, d))
                changed = True
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
    out = []
    for x in site.points:
        U = site.up(x)
        if U not in out:
            out.append(U)
    return tuple(out)


# ---------------------------------------------------------------------------
# Presheaves of chain complexes.


@dataclass(frozen=True)
class Presheaf:
    """Per-open chain complexes with a restriction map for every inclusion.

    Immutable: `vals` and `res` are read-only views of copies of the given
    mappings and the window is read off once, so results derived from the
    presheaf can be kept on it (see `cech_hypercohomology`).
    """

    site: FiniteSite
    vals: MappingProxyType
    res: MappingProxyType
    _window: tuple = field(init=False, repr=False, compare=False)
    _cache: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "vals", MappingProxyType(dict(self.vals)))
        object.__setattr__(self, "res", MappingProxyType(dict(self.res)))
        object.__setattr__(self, "_window", (
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

    @property
    def ring(self):
        return self.vals[self.site.space()].ring

    def window(self):
        return self._window

    def __repr__(self):
        return "Presheaf(%r over %d opens)" % (self.ring, len(self.vals))


def make_presheaf(site, vals, res, check=True):
    """Normalize keys, fill in identity restrictions, and (by default)
    verify shapes, chain-map property and functoriality."""
    vals = {site.as_open(U): C for U, C in vals.items()}
    for U in site.opens():
        if U not in vals:
            raise ValueError("no value supplied for open %r" % (U,))
    full = {}
    for (U, V), f in res.items():
        full[(site.as_open(U), site.as_open(V))] = f
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
    for U in site.opens():
        if F.res[(U, U)] != identity_chain_map(F.vals[U]):
            raise ValueError("restriction along %r -> itself is not the identity" % (U,))
    for U, V in site.inclusions():
        for W in below[V]:
            lhs = compose_chain_maps(F.res[(V, W)], F.res[(U, V)])
            if lhs != F.res[(U, W)]:
                raise ValueError(
                    "restrictions fail to compose along %r -> %r -> %r" % (U, V, W)
                )
    return True


def constant_presheaf(site, C):
    """Value C on every nonempty open, identity restrictions."""
    empty = zero_complex(C.ring, C.lo, C.hi)
    vals = {U: (C if U else empty) for U in site.opens()}
    res = {
        (U, V): identity_chain_map(C) if V else ChainMap(vals[U], empty, {})
        for U, V in site.inclusions()
    }
    return make_presheaf(site, vals, res, check=False)


def unit_presheaf(site, ring):
    return constant_presheaf(site, single_complex(ring, 0, 1))


def tensor_presheaf(F, G):
    if F.site is not G.site and F.site != G.site:
        raise ValueError("presheaves live on different sites")
    site = F.site
    vals = {U: tensor_complex(F.vals[U], G.vals[U]) for U in site.opens()}
    res = {}
    for (U, V) in F.res:
        res[(U, V)] = tensor_chain_map(
            F.res[(U, V)], G.res[(U, V)], source=vals[U], target=vals[V]
        )
    return make_presheaf(site, vals, res, check=False)


@dataclass
class PresheafMap:
    """A degree-0 map of presheaves: one chain map per open, commuting
    with restrictions."""

    source: Presheaf
    target: Presheaf
    comps: dict

    def at(self, U):
        return self.comps[self.source.site.as_open(U)]


def make_presheaf_map(source, target, comps, check=True):
    site = source.site
    comps = {site.as_open(U): f for U, f in comps.items()}
    phi = PresheafMap(source, target, comps)
    if check:
        for U in site.opens():
            if U not in comps:
                raise ValueError("missing component at open %r" % (U,))
            make_chain_map(source.vals[U], target.vals[U], comps[U].comps, check=True)
        for (U, V) in source.res:
            lhs = compose_chain_maps(comps[V], source.res[(U, V)])
            rhs = compose_chain_maps(target.res[(U, V)], comps[U])
            if lhs != rhs:
                raise ValueError(
                    "map fails to commute with restriction %r -> %r" % (U, V)
                )
    return phi


def tensor_assoc_map(A, B, C):
    """The canonical regrouping (A (x) B) (x) C -> A (x) (B (x) C); a
    permutation of the tensor bases, checked to be a chain map."""
    AB = tensor_complex(A, B)
    BC = tensor_complex(B, C)
    src = tensor_complex(AB, C)
    tgt = tensor_complex(A, BC)
    comps = {}
    for n in src.degrees():
        sbasis = tensor_basis(AB, C, n)
        tbasis = tensor_basis(A, BC, n)
        if not sbasis or not tbasis:
            continue
        ab = {t: tensor_basis(A, B, t) for t in AB.degrees()}
        bc = {m: {key: idx for idx, key in enumerate(tensor_basis(B, C, m))}
              for m in BC.degrees()}
        regrouped = []
        for t, ij, k in sbasis:
            a, i, j = ab[t][ij]
            regrouped.append((a, i, bc[n - a][(t - a, j, k)]))
        comps[n] = Matrix.identity(src.ring, len(tbasis)).submatrix(
            range(len(tbasis)), _positions(regrouped, tbasis)
        )
    return make_chain_map(src, tgt, comps, check=True)


def tensor_presheaf_assoc(F, G, H):
    src = tensor_presheaf(tensor_presheaf(F, G), H)
    tgt = tensor_presheaf(F, tensor_presheaf(G, H))
    comps = {
        U: tensor_assoc_map(F.vals[U], G.vals[U], H.vals[U]) for U in F.site.opens()
    }
    return make_presheaf_map(src, tgt, comps, check=True)


# ---------------------------------------------------------------------------
# Coordinates of stalk products: a sum over keys (points, chains, cover
# blocks) stacks its summands in key order, as `direct_sum` does, so its
# coordinates are the pairs (key, local index) in that order.


def _coordinates(keys, rank):
    """The coordinates of the sum over `keys` whose summand at a key has
    rank(key) coordinates."""
    return tuple((key, k) for key in keys for k in range(rank(key)))


def _block_starts(keys, rank):
    """The first coordinate of each key's block in the same sum."""
    keys = tuple(keys)
    return dict(zip(keys, itertools.accumulate((rank(key) for key in keys), initial=0)))


def _positions(small, big):
    """The position in the coordinate list `big` of each coordinate of `small`."""
    index = {c: i for i, c in enumerate(big)}
    return [index[c] for c in small]


def _zero_rows(ring, nrows, ncols):
    """Rows of the ring's zero, for `add_block` to fill and `_filled` to seal."""
    zero = _units(ring)[0]
    return [[zero] * ncols for _ in range(nrows)]


def _filled(ring, entries, ncols):
    """The matrix on rows from `_zero_rows`: every entry is already a ring
    element, since a ring element plus an int multiple of one stays one."""
    return Matrix._trusted(ring, tuple(map(tuple, entries)), ncols)


# ---------------------------------------------------------------------------
# Sheafification by exact limits over points.


def sheafify(F):
    """The associated sheaf: value on U is the limit of the stalks over
    the points of U, computed as an exact kernel; restrictions project.

    The result only depends on the stalks of F, and its own stalks agree
    with those of F, so applying it twice changes nothing.
    """
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
            # the rows of each kernel basis at the points of V, side by
            # side: one solve covers every open above V
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


def _limits(F):
    """The values of `sheafify(F)`, each a subcomplex of the sum of the
    stalks, and per nonempty open and degree its kernel basis there."""
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
            blocks = []
            for xi, yi in pairs:
                x, y = U[xi], U[yi]
                row = []
                rmat = F.restriction(site.up(x), site.up(y)).comp(n)
                for zi, S in enumerate(stalks):
                    if zi == yi:
                        row.append(Matrix.identity(ring, S.rank(n)))
                    elif zi == xi:
                        row.append(rmat.scale(-1))
                    else:
                        row.append(Matrix.zero(ring, stalks[yi].rank(n), S.rank(n)))
                blocks.append(row)
            ks[n] = kernel(block_matrix(ring, blocks))
        vals[U] = subcomplex(direct_sum(ring, lo, hi, stalks), ks)
        kbases[U] = ks
    return vals, kbases


def sheafification_map(F, aF=None):
    """The canonical comparison of F with its associated sheaf."""
    site = F.site
    if aF is None:
        aF = sheafify(F)
    lo, hi = F.window()
    comps = {}
    for U in site.opens():
        if not U:
            comps[U] = ChainMap(F.vals[U], aF.vals[U], {})
            continue
        cmap = {}
        for n in range(lo, hi + 1):
            # the limit's kernel inclusion is the stack of aF's restrictions
            limit = _stalk_restrictions(aF, U, n)
            cmap[n] = restrict(limit, _stalk_restrictions(F, U, n), "the stalk restrictions")
        comps[U] = ChainMap(F.vals[U], aF.vals[U], cmap)
    return make_presheaf_map(F, aF, comps, check=True)


def _stalk_restrictions(F, U, n):
    """The restrictions of F(U) to the stalks at the points of U, stacked."""
    rows = tuple(
        row for x in U for row in F.restriction(U, F.site.up(x)).comp(n).rows
    )
    return Matrix._trusted(F.ring, rows, F.vals[U].rank(n))


# ---------------------------------------------------------------------------
# The stalk-product tower.


class GodementTower:
    """Level p assigns to U the product of stalks over chains of p+1
    points starting in U; with `strict=True` only strictly increasing
    chains are kept (the reduced tower)."""

    def __init__(self, source, depth, strict=False):
        if depth < 0:
            raise ValueError("depth must be nonnegative")
        self.source = source
        self.site = source.site
        self.depth = depth
        self.strict = strict
        self.lo, self.hi = source.window()
        self._chains = {}
        self._level_cx = {}
        self._totals = {}
        self._level_sheaves = {}

    # -- chain bookkeeping

    def chains(self, p, U):
        U = self.site.as_open(U)
        key = (p, U)
        if key not in self._chains:
            self._chains[key] = self.site.chains(p + 1, inside=U, strict=self.strict)
        return self._chains[key]

    def chain_value(self, c):
        return self.source.stalk(c[-1])

    def level_complex(self, p, U):
        U = self.site.as_open(U)
        key = (p, U)
        if key not in self._level_cx:
            self._level_cx[key] = direct_sum(
                self.source.ring, self.lo, self.hi,
                [self.chain_value(c) for c in self.chains(p, U)],
            )
        return self._level_cx[key]

    def level(self, p):
        """Level p as an honest presheaf (restriction = chain projection)."""
        if p not in self._level_sheaves:
            site = self.site
            vals = {U: self.level_complex(p, U) for U in site.opens()}
            res = {(U, V): self._chain_projection(p, U, V) for U, V in site.inclusions()}
            self._level_sheaves[p] = make_presheaf(site, vals, res, check=False)
        return self._level_sheaves[p]

    def _chain_projection(self, p, U, V):
        src = self.level_complex(p, U)
        comps = {}
        for n in range(self.lo, self.hi + 1):
            big = _coordinates(self.chains(p, U), lambda c: self.chain_value(c).rank(n))
            small = _coordinates(self.chains(p, V), lambda c: self.chain_value(c).rank(n))
            comps[n] = Matrix.identity(src.ring, len(big)).submatrix(
                _positions(small, big), range(len(big))
            )
        return ChainMap(src, self.level_complex(p, V), comps)

    # -- the cosimplicial structure (full tower only)

    def cosimplicial_matrix(self, p, q, f, U, n):
        """Matrix at internal degree n of the structure map from level p
        to level q induced by the monotone map f: [p] -> [q]."""
        if self.strict:
            raise ValueError("the reduced tower is not cosimplicial")
        f = tuple(f)
        if len(f) != p + 1 or any(f[i] > f[i + 1] for i in range(p)) or f[-1] > q or f[0] < 0:
            raise ValueError("not a monotone map [%d] -> [%d]: %r" % (p, q, f))
        U = self.site.as_open(U)
        src = self.level_complex(p, U)
        tgt = self.level_complex(q, U)
        soffs = _block_starts(self.chains(p, U), lambda c: self.chain_value(c).rank(n))
        toffs = _block_starts(self.chains(q, U), lambda c: self.chain_value(c).rank(n))
        entries = _zero_rows(src.ring, tgt.rank(n), src.rank(n))
        for C in self.chains(q, U):
            pullback = tuple(C[f[i]] for i in range(p + 1))
            rmat = self.source.restriction(
                self.site.up(pullback[-1]), self.site.up(C[-1])
            ).comp(n)
            add_block(entries, rmat, toffs[C], soffs[pullback])
        return _filled(src.ring, entries, src.rank(n))

    def coface_matrix(self, p, j, U, n):
        f = tuple(i if i < j else i + 1 for i in range(p + 1))
        return self.cosimplicial_matrix(p, p + 1, f, U, n)

    def codegeneracy_matrix(self, p, j, U, n):
        f = tuple(i if i <= j else i - 1 for i in range(p + 2))
        return self.cosimplicial_matrix(p + 1, p, f, U, n)

    def delta_matrix(self, p, U, n):
        """Alternating sum of the faces, level p -> p+1, assembled
        directly from the chain combinatorics (works for both flavours)."""
        U = self.site.as_open(U)
        src = self.level_complex(p, U)
        tgt = self.level_complex(p + 1, U)
        soffs = _block_starts(self.chains(p, U), lambda c: self.chain_value(c).rank(n))
        toffs = _block_starts(self.chains(p + 1, U), lambda c: self.chain_value(c).rank(n))
        entries = _zero_rows(src.ring, tgt.rank(n), src.rank(n))
        for C in self.chains(p + 1, U):
            for j in range(p + 2):
                face = C[:j] + C[j + 1 :]
                sgn = -1 if j % 2 else 1
                if j == p + 1:
                    rmat = self.source.restriction(
                        self.site.up(face[-1]), self.site.up(C[-1])
                    ).comp(n)
                else:
                    rmat = Matrix.identity(src.ring, self.chain_value(face).rank(n))
                add_block(entries, rmat, toffs[C], soffs[face], sgn)
        return _filled(src.ring, entries, src.rank(n))

    # -- totalization

    def total(self, U):
        """The total complex at U: cosimplicial direction plus (-1)^level
        times the coefficient differential."""
        U = self.site.as_open(U)
        if U not in self._totals:
            self._totals[U] = totalize(
                self.source.ring, self.lo, self.hi + self.depth,
                {p: self.level_complex(p, U) for p in range(self.depth + 1)},
                lambda p, q: self.delta_matrix(p, U, q),
            )
        return self._totals[U]

    def layout(self, U, n):
        """The coordinates of total degree n at U, in order: one triple
        (level, chain, local index) per column."""
        U = self.site.as_open(U)
        levels = [(p, c) for p in range(self.depth + 1) for c in self.chains(p, U)]
        coords = _coordinates(levels, lambda pc: self.chain_value(pc[1]).rank(n - pc[0]))
        return tuple((p, c, k) for (p, c), k in coords)

    def augmentation(self, U):
        """The restriction-to-stalks inclusion of F(U) into total degree
        zero of the tower."""
        U = self.site.as_open(U)
        src = self.source.vals[U]
        tgt = self.total(U)
        comps = {}
        for n in range(self.lo, self.hi + 1):
            stacked = _stalk_restrictions(self.source, U, n)
            pad = Matrix.zero(src.ring, tgt.rank(n) - stacked.nrows, stacked.ncols)
            comps[n] = stacked.vstack(pad)
        return make_chain_map(src, tgt, comps, check=True)

    def stable_upto(self):
        """Largest total degree whose homology is unaffected by the depth
        cut; None means every degree (the reduced tower at full depth)."""
        if self.strict and self.depth >= self.site.dimension():
            return None
        return self.lo + self.depth - 1

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
    site = Tred.site
    U = site.as_open(U)
    src = Tred.total(U)
    tgt = Tfull.total(U)
    comps = {}
    for n in range(Tred.lo, Tred.hi + Tred.depth + 1):
        big = Tfull.layout(U, n)
        comps[n] = Matrix.identity(src.ring, len(big)).submatrix(
            range(len(big)), _positions(Tred.layout(U, n), big)
        )
    return make_chain_map(src, tgt, comps, check=True)


def default_depth(site, window_len, strict=False):
    if strict:
        return site.dimension()
    return site.dimension() + window_len + 1


def godement_tower(F, depth=None, strict=False):
    lo, hi = F.window()
    if depth is None:
        depth = default_depth(F.site, hi - lo, strict)
    return GodementTower(F, depth, strict=strict)


def total_godement(F, depth=None, strict=False):
    """The tower's total complexes bundled as a presheaf."""
    T = godement_tower(F, depth, strict=strict)
    site = F.site
    vals = {U: T.total(U) for U in site.opens()}
    res = {}
    for U, V in site.inclusions():
        comps = {}
        for n in range(T.lo, T.hi + T.depth + 1):
            big = T.layout(U, n)
            comps[n] = Matrix.identity(F.ring, len(big)).submatrix(
                _positions(T.layout(V, n), big), range(len(big))
            )
        res[(U, V)] = ChainMap(vals[U], vals[V], comps)
    return make_presheaf(site, vals, res, check=False)


def godement_augmentation(F, depth=None, strict=False):
    """The augmentation as a map of presheaves into the total."""
    T = godement_tower(F, depth, strict=strict)
    total = total_godement(F, T.depth, strict=strict)
    comps = {U: make_chain_map(F.vals[U], total.vals[U], T.augmentation(U).comps, check=False)
             for U in F.site.opens()}
    return make_presheaf_map(F, total, comps, check=True)


def tower_map_at(phi, Tsrc, Ttgt, U):
    """Apply a presheaf map levelwise through two towers of equal shape."""
    if Tsrc.depth != Ttgt.depth or Tsrc.strict != Ttgt.strict:
        raise ValueError("depth mismatch")
    U = Tsrc.site.as_open(U)
    src = Tsrc.total(U)
    tgt = Ttgt.total(U)
    comps = {}
    for n in range(min(Tsrc.lo, Ttgt.lo), max(Tsrc.hi + Tsrc.depth, Ttgt.hi + Ttgt.depth) + 1):
        comps[n] = block_diagonal(src.ring, [
            phi.at(Tsrc.site.up(c[-1])).comp(n - p)
            for p in range(Tsrc.depth + 1)
            for c in Tsrc.chains(p, U)
        ])
    return make_chain_map(src, tgt, comps, check=True)


# ---------------------------------------------------------------------------
# The cover complex over the minimal opens: the second route.


def cech_total(F, cover=None):
    """Alternating cover complex of a presheaf of complexes, totalized
    by `totalize` like the tower.

    The values of F are used as given; feed it a sheaf (for instance the
    output of `sheafify`) when the answer should be a cohomology group of
    the space.
    """
    site = F.site
    if cover is None:
        cover = minimal_cover(site)
    cover = tuple(site.as_open(V) for V in cover)
    covered = set().union(*[set(V) for V in cover]) if cover else set()
    if covered != set(site.points):
        raise ValueError("cover misses points %r" % (sorted(set(site.points) - covered),))
    ring = F.ring
    lo, hi = F.window()
    k = len(cover)
    # column p is the sum over the cover blocks: the meets of p + 1 opens
    meets = _cover_meets(site, cover)
    blocks = {p: [idx for idx in meets if len(idx) == p + 1] for p in range(k)}
    columns = {
        p: direct_sum(ring, lo, hi, [F.vals[meets[idx]] for idx in blocks[p]]) for p in blocks
    }

    def insertion(p, q):
        """The alternating insertion of a cover index, column p -> p + 1."""

        def rank(idx):
            return F.vals[meets[idx]].rank(q)

        entries = _zero_rows(ring, columns[p + 1].rank(q), columns[p].rank(q))
        soff, toff = _block_starts(blocks[p], rank), _block_starts(blocks[p + 1], rank)
        for idx in blocks[p]:
            if not rank(idx):
                continue
            for i in set(range(k)) - set(idx):
                tidx = tuple(sorted(idx + (i,)))
                sgn = -1 if tidx.index(i) % 2 else 1
                rmat = F.restriction(meets[idx], meets[tidx]).comp(q)
                add_block(entries, rmat, toff[tidx], soff[idx], sgn)
        return _filled(ring, entries, columns[p].rank(q))

    return totalize(ring, lo, hi + max(k - 1, 0), columns, insertion)


def _cover_meets(site, cover):
    """The meet of the opens of `cover` at each increasing tuple of their
    indices, shortest tuples first."""
    k = len(cover)
    meets = {}
    for p in range(k):
        for idx in itertools.combinations(range(k), p + 1):
            meets[idx] = site.meet(meets[idx[:-1]], cover[idx[-1]]) if p else cover[idx[0]]
    return meets


def _sheafified(F):
    """`sheafify(F)`, computed once and kept on F."""
    return F._memo("sheafify", lambda: sheafify(F))


def cech_hypercohomology(F, n, cover=None):
    """Homology of the cover complex of the associated sheaf, both kept
    on F, so a sweep over the degrees builds each once.  Unchecked: the
    answer is the hypercohomology only when the cover is Leray for the
    sheaf, which `hypercohomology_compare` checks."""
    cover = minimal_cover(F.site) if cover is None else tuple(F.site.as_open(V) for V in cover)
    cx = F._memo(("cover", cover), lambda: cech_total(_sheafified(F), cover))
    return complex_homology(cx, n)


def _leray_witness(aF, cover):
    """The text "cover not Leray at <meet>" for the first meet of the cover
    where the augmentation of aF's reduced tower is not a quasi-isomorphism
    on every degree of its cone (aF is not acyclic there), else None."""
    T = godement_tower(aF, strict=True)
    lo, hi = aF.window()
    window = (lo - 1, hi + T.depth)
    for V in dict.fromkeys(_cover_meets(aF.site, cover).values()):
        if V and not is_quasi_iso(T.augmentation(V), window=window).ok:
            return "cover not Leray at %r" % (V,)
    return None


# ---------------------------------------------------------------------------
# The front-face/back-face pairing.


class AWPairing:
    """The weakly monoidal structure of the tower: a chain pairing

        total(F) (x) total(G) -> total(F (x) G)

    placing the first factor on the front face of a chain and the second
    on the back face, with the Koszul sign (-1)^(q*b) for an internal
    degree q front block meeting a level b back block."""

    def __init__(self, left, right, product):
        if not (left.depth == right.depth == product.depth):
            raise ValueError("depth mismatch")
        if not (left.strict == right.strict == product.strict):
            raise ValueError("the towers mix the two flavours")
        self.left = left
        self.right = right
        self.product = product
        self._pairings = {}
        self._positions = {}

    def _stalk_positions(self, UL, n):
        key = (UL, n)
        if key not in self._positions:
            self._positions[key] = _tensor_positions(
                self.left.source.vals[UL], self.right.source.vals[UL], n
            )
        return self._positions[key]

    def pairing(self, U):
        site = self.left.site
        U = site.as_open(U)
        if U in self._pairings:
            return self._pairings[U]
        TF, TG, TP = self.left, self.right, self.product
        totF = TF.total(U)
        totG = TG.total(U)
        src = tensor_complex(totF, totG)
        tgt = TP.total(U)
        ring = src.ring
        layoutF = {t: TF.layout(U, t) for t in totF.degrees()}
        layoutG = {t: TG.layout(U, t) for t in totG.degrees()}
        comps = {}
        for n in src.degrees():
            basis = tensor_basis(totF, totG, n)
            entries = _zero_rows(ring, tgt.rank(n), len(basis))
            if basis and tgt.rank(n):
                row = {coord: r for r, coord in enumerate(TP.layout(U, n))}
                for col, (t, i, j) in enumerate(basis):
                    p, c, u = layoutF[t][i]
                    b, cprime, v = layoutG[n - t][j]
                    if p + b > TP.depth or c[-1] != cprime[0]:
                        continue
                    q, s = t - p, n - t - b
                    glued = c + cprime[1:]
                    UL = site.up(glued[-1])
                    rmat = TF.source.restriction(site.up(c[-1]), UL).comp(q)
                    pos = self._stalk_positions(UL, q + s)
                    sgn = -1 if (q * b) % 2 else 1
                    for r in range(rmat.nrows):
                        w = rmat.rows[r][u]
                        if w:
                            entries[row[(p + b, glued, pos[(q, r, v)])]][col] += sgn * w
            comps[n] = _filled(ring, entries, len(basis))
        out = make_chain_map(src, tgt, comps, check=True)
        self._pairings[U] = out
        return out


def _tensor_positions(A, B, n):
    return {key: idx for idx, key in enumerate(tensor_basis(A, B, n))}


def aw_cup(F, G, depth=None, strict=False):
    """Build matching towers for F, G and F (x) G and return the pairing."""
    loF, hiF = F.window()
    loG, hiG = G.window()
    if depth is None:
        depth = default_depth(F.site, (hiF - loF) + (hiG - loG), strict)
    TF = godement_tower(F, depth, strict=strict)
    TG = godement_tower(G, depth, strict=strict)
    TP = godement_tower(tensor_presheaf(F, G), depth, strict=strict)
    return AWPairing(TF, TG, TP)


# ---------------------------------------------------------------------------
# Presheaves of DG categories and their global-sections category.


@dataclass(frozen=True)
class CategoryPresheaf:
    """A DG category per nonempty open with a restriction functor per
    inclusion; immutable, so each Hom presheaf is built once and kept."""

    site: FiniteSite
    cats: MappingProxyType
    res: MappingProxyType
    _cache: dict = field(init=False, repr=False, compare=False, default_factory=dict)
    _memo = Presheaf._memo

    def __post_init__(self):
        object.__setattr__(self, "cats", MappingProxyType(dict(self.cats)))
        object.__setattr__(self, "res", MappingProxyType(dict(self.res)))

    def category(self, U):
        return self.cats[self.site.as_open(U)]

    def functor(self, U, V):
        return self.res[(self.site.as_open(U), self.site.as_open(V))]

    def restrict_object(self, X, U):
        return self.functor(self.site.space(), U).obj_map[X]


def constant_category_presheaf(site, C):
    obj_map = {x: x for x in C.objects}
    mor_maps = {(x, y): identity_chain_map(C.hom(x, y)) for x in C.objects for y in C.objects}
    cats = {U: C for U in site.opens() if U}
    res = {
        (U, V): DGFunctor(C, C, dict(obj_map), dict(mor_maps))
        for U, V in site.inclusions() if V
    }
    return CategoryPresheaf(site, cats, res)


def hom_presheaf(CP, X, Y):
    """The per-open Hom complexes of a pair of global objects."""
    site = CP.site
    S = site.space()
    ring = CP.category(S).ring
    vals = {}
    win = None
    for U in site.opens():
        if not U:
            continue
        XU = CP.restrict_object(X, U)
        YU = CP.restrict_object(Y, U)
        cx = CP.category(U).hom(XU, YU)
        vals[U] = cx
        win = (cx.lo, cx.hi) if win is None else (min(win[0], cx.lo), max(win[1], cx.hi))
    vals[()] = zero_complex(ring, win[0], win[1])
    res = {}
    for U, V in site.inclusions():
        if not V:
            res[(U, V)] = ChainMap(vals[U], vals[()], {})
        else:
            XU = CP.restrict_object(X, U)
            YU = CP.restrict_object(Y, U)
            res[(U, V)] = CP.functor(U, V).mor_maps[(XU, YU)]
    return make_presheaf(site, vals, res, check=True)


def _hom_presheaf(CP, X, Y):
    """`hom_presheaf(CP, X, Y)`, built once and kept on CP."""
    return CP._memo(("hom", X, Y), lambda: hom_presheaf(CP, X, Y))


def composition_presheaf_map(CP, X, Y, Z):
    """Per-open composition, bundled as a presheaf map from the tensor of
    Hom presheaves; building it checks the Leibniz rule open by open."""
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
            pieces = []
            for p in HYZ.vals[U].degrees():
                q = n - p
                if HYZ.vals[U].rank(p) and HXY.vals[U].rank(q):
                    pieces.append(cat.comp_matrix(XU, YU, ZU, p, q))
            if pieces:
                mat = pieces[0]
                for m in pieces[1:]:
                    mat = mat.hstack(m)
                cmap[n] = mat
        comps[U] = make_chain_map(src.vals[U], HXZ.vals[U], cmap, check=True)
    return make_presheaf_map(src, HXZ, comps, check=True)


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
        self._towers = {}
        self._bigcomp = {}

    def tower(self, X, Y):
        key = (X, Y)
        if key not in self._towers:
            self._towers[key] = GodementTower(_hom_presheaf(self.CP, X, Y), self.depth, self.strict)
        return self._towers[key]

    def hom_fn(self, X, Y):
        return self.tower(X, Y).total(self.S)

    def big_comp(self, x, y, z):
        key = (x, y, z)
        if key not in self._bigcomp:
            TYZ = self.tower(y, z)
            TXY = self.tower(x, y)
            TXZ = self.tower(x, z)
            cpm = composition_presheaf_map(self.CP, x, y, z)
            TP = GodementTower(cpm.source, self.depth, strict=self.strict)
            pairing = AWPairing(TYZ, TXY, TP).pairing(self.S)
            push = tower_map_at(cpm, TP, TXZ, self.S)
            self._bigcomp[key] = compose_chain_maps(push, pairing)
        return self._bigcomp[key]

    def comp_fn(self, x, y, z, p, q):
        n = p + q
        B = self.big_comp(x, y, z).comp(n)
        totYZ = self.hom_fn(y, z)
        totXY = self.hom_fn(x, y)
        # the block of totYZ^p (x) totXY^q among the columns of degree n
        starts = _block_starts(totYZ.degrees(), lambda t: totYZ.rank(t) * totXY.rank(n - t))
        off = starts.get(p, 0)
        w = totYZ.rank(p) * totXY.rank(q)
        return Matrix._trusted(B.ring, tuple(row[off : off + w] for row in B.rows), w)

    def id_fn(self, X):
        T = self.tower(X, X)
        return _apply(T.augmentation(self.S).comp(0), self.base.identity(X).vector)


def rgamma(CP, depth=None, strict=True):
    """The global-sections DG category of a presheaf of DG categories:
    same objects as over the whole space, Hom complexes the totals of the
    stalk-product towers of the Hom presheaves, composition through the
    front-face/back-face pairing.

    The reduced tower is the default: its levels vanish beyond the poset
    dimension, so no degree needs a truncation flag.
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
    checked to be Leray on the minimal cover."""
    H = _hom_presheaf(CP, X, Y)
    T = godement_tower(H, depth, strict=strict)
    g = complex_homology(T.total(CP.site.space()), n)
    c = cech_hypercohomology(H, n)
    cut = T.stable_upto()
    stable = cut is None or n <= cut
    aH, cover = _sheafified(H), minimal_cover(CP.site)
    witness = aH._memo(("leray", cover), lambda: _leray_witness(aH, cover))
    return CompareReport(n, g.describe(), c.describe(), stable, witness)
