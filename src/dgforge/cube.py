"""The category of abstract cubes {0,1}^n, with and without merges.

Objects are the sets {0,1}^n.  The plain category is generated by insertions
(fixing one coordinate to 0 or 1), deletions of a coordinate, coordinate
permutations and coordinate flips; the extended category adds the merge
mu(x, y) = x*y of two adjacent coordinates.  A morphism is stored as its full
value table, so equality of morphisms is equality of tables and generator
words are only witnesses of constructibility.

Vertices of {0,1}^m are enumerated in lexicographic (tuple) order throughout;
all indices i in generator names are 1-based slots, matching the usual
face/degeneracy bookkeeping.
"""

import itertools
import types
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache


@lru_cache(maxsize=None)
def vertices(m):
    return tuple(itertools.product((0, 1), repeat=m))


@lru_cache(maxsize=None)
def vertex_index(m):
    return {v: i for i, v in enumerate(vertices(m))}


@dataclass(frozen=True)
class CubeMap:
    """A set map {0,1}^dom -> {0,1}^cod given by its value table.

    table[k] is the image of the k-th vertex in lexicographic order.
    `word` records one generator factorization (application order, leftmost
    applied first) and does not participate in equality.
    """

    dom: int
    cod: int
    table: tuple
    word: tuple = field(compare=False, default=())
    extended: bool = field(compare=False, default=False)

    def __call__(self, x):
        return self.table[vertex_index(self.dom)[tuple(x)]]

    def __repr__(self):
        w = ".".join(self.word) if self.word else "<table>"
        return "CubeMap(%d->%d, %s)" % (self.dom, self.cod, w)


def compose(g, f):
    """g after f."""
    if f.cod != g.dom:
        raise ValueError("cube maps not composable: %r then %r" % (f, g))
    idx = vertex_index(g.dom)
    table = tuple(g.table[idx[v]] for v in f.table)
    return CubeMap(
        f.dom,
        g.cod,
        table,
        word=f.word + g.word,
        extended=f.extended or g.extended,
    )


@lru_cache(maxsize=None)
def identity_map(n):
    return CubeMap(n, n, vertices(n), word=())


@lru_cache(maxsize=None)
def insertion(n, i, eps):
    """eta_{n,i,eps}: n -> n+1, insert the constant eps at slot i (1-based)."""
    if not 1 <= i <= n + 1:
        raise ValueError("insertion slot out of range")
    if eps not in (0, 1):
        raise ValueError("eps must be 0 or 1")
    table = tuple(v[: i - 1] + (eps,) + v[i - 1 :] for v in vertices(n))
    return CubeMap(n, n + 1, table, word=("eta(%d,%d,%d)" % (n, i, eps),))


@lru_cache(maxsize=None)
def projection(n, i):
    """p_{n,i}: n -> n-1, delete slot i (1-based)."""
    if not 1 <= i <= n:
        raise ValueError("projection slot out of range")
    table = tuple(v[: i - 1] + v[i:] for v in vertices(n))
    return CubeMap(n, n - 1, table, word=("p(%d,%d)" % (n, i),))


@lru_cache(maxsize=None)
def involution(n, i):
    """tau_{n,i}: flip coordinate i."""
    if not 1 <= i <= n:
        raise ValueError("involution slot out of range")
    table = tuple(
        v[: i - 1] + (1 - v[i - 1],) + v[i:] for v in vertices(n)
    )
    return CubeMap(n, n, table, word=("tau(%d,%d)" % (n, i),))


@lru_cache(maxsize=None)
def transposition(n, i):
    """Swap coordinates i and i+1."""
    if not 1 <= i <= n - 1:
        raise ValueError("transposition slot out of range")
    def sw(v):
        u = list(v)
        u[i - 1], u[i] = u[i], u[i - 1]
        return tuple(u)
    return CubeMap(n, n, tuple(sw(v) for v in vertices(n)), word=("t(%d,%d)" % (n, i),))


def permutation_map(n, perm):
    """Coordinate permutation: output slot k reads input slot perm[k] (1-based list).

    The witness word is a bubble-sort decomposition into adjacent swaps.
    """
    if sorted(perm) != list(range(1, n + 1)):
        raise ValueError("not a permutation of 1..%d: %r" % (n, perm))
    out = identity_map(n)
    reads = list(range(1, n + 1))  # reads[k] = input slot read by output slot k+1
    target = list(perm)
    while reads != target:
        k = next(k for k in range(n) if reads[k] != target[k])
        j = next(j for j in range(k + 1, n) if reads[j] == target[k])
        while j > k:
            # composing with an adjacent swap permutes the output slots
            out = compose(transposition(n, j), out)
            reads[j - 1], reads[j] = reads[j], reads[j - 1]
            j -= 1
    return out


@lru_cache(maxsize=None)
def merge(n, i):
    """mu at slots (i, i+1): n -> n-1 with output slot i equal to x_i * x_{i+1}."""
    if not 1 <= i <= n - 1:
        raise ValueError("merge slot out of range")
    table = tuple(
        v[: i - 1] + (v[i - 1] * v[i],) + v[i + 1 :] for v in vertices(n)
    )
    return CubeMap(n, n - 1, table, word=("mu(%d,%d)" % (n, i),), extended=True)


def q_merge(n, i):
    """q at slots (i, i+1): merge through complements, q(x,y) = 1-(1-x)(1-y).

    Built honestly from flips and a merge so the word stays a generator word.
    """
    pre = compose(involution(n, i + 1), involution(n, i))
    mid = compose(merge(n, i), pre)
    return compose(involution(n - 1, i), mid)


@lru_cache(maxsize=None)
def front_projection(n, m):
    """(n+m) -> n keeping the first n coordinates."""
    out = identity_map(n + m)
    for _ in range(m):
        out = compose(projection(out.cod, out.cod), out)
    return out


@lru_cache(maxsize=None)
def back_projection(n, m):
    """(n+m) -> m keeping the last m coordinates."""
    out = identity_map(n + m)
    for _ in range(n):
        out = compose(projection(out.cod, 1), out)
    return out


# ---------------------------------------------------------------------------
# Hom-set enumeration by closure
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def generator_maps(top, extended, /):
    """Every one-step generator between levels 0..top, keyed by word token (read-only)."""
    gens = []
    for n in range(top):
        for i in range(1, n + 2):
            for eps in (0, 1):
                gens.append(insertion(n, i, eps))
    for n in range(1, top + 1):
        for i in range(1, n + 1):
            gens.append(projection(n, i))
            gens.append(involution(n, i))
        for i in range(1, n):
            gens.append(transposition(n, i))
            if extended:
                gens.append(merge(n, i))
    return types.MappingProxyType({g.word[0]: g for g in gens})


@lru_cache(maxsize=None)
def closure_walk(bound, extended, /):
    """Breadth-first walk of the maps generated between levels 0..bound, as
    the tuple of its steps, built once per process and positional pair.

    The walk starts from the identities and composes each map f it reaches
    with every generator out of f.cod.  A step (f, token, h, new) says whether
    the table of the generator `token` after f is new; h is the map first met
    with that table, so each map is held once.  Only new maps are walked further.
    """
    gens = {m: [] for m in range(bound + 1)}
    for token, g in generator_maps(bound, extended).items():
        gens[g.dom].append((token, g))
    frontier = [identity_map(m) for m in range(bound + 1)]
    seen = {f: f for f in frontier}
    steps = []
    while frontier:
        nxt = []
        for f in frontier:
            for token, g in gens[f.cod]:
                h = compose(g, f)
                first = seen.setdefault(h, h)
                if first is h:
                    nxt.append(h)
                steps.append((f, token, first, first is h))
        frontier = nxt
    return tuple(steps)


@lru_cache(maxsize=None)
def _closure(bound, extended):
    """All composable maps between dimensions <= bound.

    Every map in either cube category factors through dimensions bounded by
    max(dom, cod) (drop/merge first, then flip/permute, then insert), so the
    closure within the bound is the genuine Hom-set for in-bound objects.
    """
    out = {}
    for m in range(bound + 1):
        ident = identity_map(m)
        out[(m, m)] = {ident.table: ident}
    for _, _, h, new in closure_walk(bound, extended):
        if new:
            out.setdefault((h.dom, h.cod), {})[h.table] = h
    return out


def enumerate_homset(m, n, bound, extended=False):
    """All maps m -> n in the (extended) cube category, sorted by table.
    Only tests set `extended`: the category with merges, counted against its closed form."""
    if m > bound or n > bound:
        raise ValueError("dimensions exceed the closure bound %d" % bound)
    table = _closure(bound, extended).get((m, n), {})
    return tuple(table[k] for k in sorted(table))


# ---------------------------------------------------------------------------
# Signed symmetries: (Z/2)^n semidirect Sigma_n
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SignedSymmetry:
    """Acts on {0,1}^n by x |-> (x[perm[k]] xor flips[k])_k; perm is 0-based."""

    flips: tuple
    perm: tuple

    @property
    def n(self):
        return len(self.perm)

    def apply(self, x):
        return tuple(x[self.perm[k]] ^ self.flips[k] for k in range(self.n))


def signed_identity(n):
    return SignedSymmetry((0,) * n, tuple(range(n)))


def signed_multiply(g, h):
    """Composite action: (g * h).apply = g.apply . h.apply."""
    if g.n != h.n:
        raise ValueError("size mismatch")
    perm = tuple(h.perm[g.perm[k]] for k in range(g.n))
    flips = tuple(g.flips[k] ^ h.flips[g.perm[k]] for k in range(g.n))
    return SignedSymmetry(flips, perm)


def signed_inverse(g):
    inv = [0] * g.n
    for k, p in enumerate(g.perm):
        inv[p] = k
    perm = tuple(inv)
    flips = tuple(g.flips[perm[k]] for k in range(g.n))
    return SignedSymmetry(flips, perm)


def perm_sign(perm):
    s = 1
    for a in range(len(perm)):
        for b in range(a + 1, len(perm)):
            if perm[a] > perm[b]:
                s = -s
    return s


def sign_character(g):
    """(-1)^(number of flips) times the sign of the permutation."""
    s = perm_sign(g.perm)
    if sum(g.flips) % 2:
        s = -s
    return s


def signed_symmetry_group(n, group):
    """All elements of F_n = (Z/2)^n x| Sigma_n, or just Sigma_n."""
    perms = list(itertools.permutations(range(n)))
    if group == "Sigma":
        flip_choices = [(0,) * n]
    elif group == "F":
        flip_choices = list(itertools.product((0, 1), repeat=n))
    else:
        raise ValueError("group must be 'F' or 'Sigma'")
    out = []
    for flips in flip_choices:
        for perm in perms:
            out.append(SignedSymmetry(flips, perm))
    return tuple(out)


def signed_as_cube_map(g):
    n = g.n
    table = tuple(g.apply(v) for v in vertices(n))
    return CubeMap(n, n, table, word=("sym",))


def alternating_idempotent(n, group):
    """(1/|G|) sum sgn(g) g in Q[G]; idempotent, image = sign-isotypic part.

    Returned as a tuple of (coefficient, SignedSymmetry) pairs in the fixed
    enumeration order of the group.
    """
    elements = signed_symmetry_group(n, group)
    c = Fraction(1, len(elements))
    return tuple((c * sign_character(g), g) for g in elements)


def convolve(a, b):
    """Product in the group algebra; inputs/outputs are {SignedSymmetry: Fraction}."""
    out = {}
    for g, cg in a.items():
        for h, ch in b.items():
            k = signed_multiply(g, h)
            out[k] = out.get(k, Fraction(0)) + cg * ch
    return {g: c for g, c in out.items() if c}
