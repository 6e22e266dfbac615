"""Twisted complexes over a finite DG category.

A twisted complex is a finite list of entries (index, object) together with
structure maps e_{ab} between entry objects, of degree idx(b) - idx(a) + 1,
satisfying the Maurer-Cartan identity

    (-1)^{idx(a)} d e_{ab} + sum_c e_{ac} e_{cb} = 0.

Entries may repeat an index: the repeats are exactly the formal direct sums
that cone, tensor and total-complex constructions need, so the base category
is never required to have biproducts.  On top of the objects the module
builds graded Hom complexes with the signed differential, composition,
shifts, cones, the tensor structure with its cup product and commutativity
constraint, total complexes of nested twisted complexes, stupid truncations
over non-positive bases, homotopy-level Hom groups, idempotent completion,
and the formal inversion of a twist endofunctor with explicit stabilization
reporting.
"""

from dataclasses import dataclass

from .linalg import (
    ChainComplex,
    Matrix,
    _exact_vector,
    _columns_to_matrix,
    _integer,
    assemble_strided,
    block_complex,
    block_offsets,
    complex_homology,
    cut_complex,
    kernel,
    make_chain_map,
    make_complex,
    meet_cuts,
    mul_kron,
    restrict_vector,
    solve,
    solve_vector,
)
from .dgcat import DGCategory, DGFunctor, HomElement, TensorDGData, _restricted_category


def _add_into(C, acc, key, elem):
    """acc[key] += elem in the base category, starting from elem."""
    acc[key] = C.add(acc[key], elem) if key in acc else elem


# ---------------------------------------------------------------------------
# Objects and morphisms.


@dataclass(frozen=True)
class TwistedComplex:
    """Entries ((index, object key), ...) over `base` with structure maps
    `e` keyed by (target entry position, source entry position).  `e_bound`
    is the declared bound on the degrees of the structure maps; every
    operation recomputes it honestly from the data it produces."""

    base: DGCategory
    entries: tuple
    e: tuple
    e_bound: int

    def idx(self, a):
        return self.entries[a][0]

    def obj(self, a):
        return self.entries[a][1]

    def indices(self):
        return tuple(i for i, _ in self.entries)

    def window(self):
        if not self.entries:
            return None
        ix = self.indices()
        return (min(ix), max(ix))

    def e_at(self, a, b):
        for key, elem in self.e:
            if key == (a, b):
                return elem
        return None

    def positions_at(self, i):
        return tuple(a for a, (j, _) in enumerate(self.entries) if j == i)

    def __repr__(self):
        return "TwistedComplex(%d entries, window=%r)" % (len(self.entries), self.window())


@dataclass(frozen=True)
class TwistedMorphism:
    source: TwistedComplex
    target: TwistedComplex
    degree: int
    comps: tuple

    def comp_at(self, a, b):
        for key, elem in self.comps:
            if key == (a, b):
                return elem
        return None

    def is_zero(self):
        return not self.comps

    def __repr__(self):
        return "TwistedMorphism(degree=%d, %d components)" % (self.degree, len(self.comps))


def _components(C, targets, sources, degree, comps, what, at):
    """The nonzero components of `comps`, sorted by position, each checked
    against the entry lists: position range, degree degree + idx(b) -
    idx(a), endpoints and vector length.  `what` and `at` word the errors."""
    cleaned = []
    for (a, b), elem in dict(comps).items():
        if not (0 <= a < len(targets) and 0 <= b < len(sources)):
            raise ValueError("%s position out of range" % what)
        (ia, ka), (ib, kb) = targets[a], sources[b]
        want = degree + ib - ia
        if elem.degree != want:
            raise ValueError("%s (%d, %d) must have degree %d" % (at, ia, ib, want))
        if elem.source != kb or elem.target != ka:
            raise ValueError("%s endpoints do not match the entries" % what)
        if len(elem.vector) != C.hom(kb, ka).rank(want):
            raise ValueError("%s vector length mismatch" % what)
        if not elem.is_zero():
            cleaned.append(((a, b), elem))
    cleaned.sort(key=lambda item: item[0])
    return tuple(cleaned)


def twisted_morphism(source, target, degree, comps):
    """Normalized constructor: checks component types against the entry
    lists, drops zero components and sorts the rest."""
    if source.base is not target.base:
        raise ValueError("the two twisted complexes live over different bases")
    comps = _components(source.base, target.entries, source.entries, degree, comps,
                        "component", "component at entries")
    return TwistedMorphism(source, target, degree, comps)


def morphism_bound(phi):
    """Largest component degree in the base, the local-finiteness bound of
    the morphism; None when there are no nonzero components."""
    degs = [elem.degree for _, elem in phi.comps]
    return max(degs) if degs else None


def assemble_twisted(base, entries, comps, e_bound=None):
    """Entry-level constructor; `comps` maps (target position, source
    position) to structure elements.  Degree and endpoint violations and
    Maurer-Cartan failures are rejected."""
    entries = tuple((_integer(i, "entry index"), k) for i, k in entries)
    e = _components(base, entries, entries, 1, comps, "structure map", "structure map at")
    computed = max((elem.degree for _, elem in e), default=0)
    if e_bound is None:
        e_bound = computed
    elif computed > e_bound:
        raise ValueError("a structure map exceeds the declared bound")
    tc = TwistedComplex(base, entries, e, e_bound)
    _check_mc(tc)
    return tc


def _check_mc(tc):
    C = tc.base
    n = len(tc.entries)
    comps = dict(tc.e)
    for a in range(n):
        ia = tc.idx(a)
        sgn = -1 if ia % 2 else 1
        for b in range(n):
            deg = tc.idx(b) - ia + 2
            if C.hom(tc.obj(b), tc.obj(a)).rank(deg) == 0:
                continue
            acc = C.zero_element(tc.obj(b), tc.obj(a), deg)
            e_ab = comps.get((a, b))
            if e_ab is not None:
                acc = C.add(acc, C.scale(C.differential(e_ab), sgn))
            for c in range(n):
                left = comps.get((a, c))
                right = comps.get((c, b))
                if left is None or right is None:
                    continue
                acc = C.add(acc, C.compose(left, right))
            if not acc.is_zero():
                raise ValueError(
                    "Maurer-Cartan identity fails at (%d, %d)" % (ia, tc.idx(b))
                )


def make_twisted(base, objects, e, e_bound=None):
    """One object per index, structure maps keyed by index pairs (i, j).
    Only tests set `e_bound`: a declared bound below the structure maps."""
    items = sorted(dict(objects).items())
    pos = {i: a for a, (i, _) in enumerate(items)}
    comps = {}
    for (i, j), elem in dict(e).items():
        if i not in pos or j not in pos:
            raise ValueError("structure map at (%d, %d) misses an object" % (i, j))
        comps[(pos[i], pos[j])] = elem
    return assemble_twisted(base, items, comps, e_bound=e_bound)


def i0(base, X):
    """The one-entry twisted complex on X at index 0."""
    return assemble_twisted(base, [(0, X)], {})


def i0_mor(base, f):
    return twisted_morphism(
        i0(base, f.source), i0(base, f.target), f.degree, {(0, 0): f}
    )


def dsum_twisted(A, B):
    """Block direct sum: entries of A followed by entries of B."""
    if A.base is not B.base:
        raise ValueError("the two twisted complexes live over different bases")
    off = len(A.entries)
    comps = dict(A.e)
    for (a, b), elem in B.e:
        comps[(a + off, b + off)] = elem
    return assemble_twisted(A.base, A.entries + B.entries, comps)


# ---------------------------------------------------------------------------
# Hom complexes.


@dataclass(eq=False)
class TwistedHom:
    """The graded Hom complex between two twisted complexes, with the block
    layout needed to pass between coordinate vectors and componentwise
    morphisms: `blocks[n]` lists the blocks (a, b, start, rank) of degree n
    of nonzero rank.  The complex covers every degree the base Hom
    complexes populate, so the zero ranks beyond it are honest."""

    source: TwistedComplex
    target: TwistedComplex
    complex: ChainComplex
    blocks: dict

    def block_layout(self, n):
        return self.blocks.get(n, ())

    def vector(self, phi):
        if phi.source != self.source or phi.target != self.target:
            raise ValueError("morphism does not belong to this Hom complex")
        layout = self.block_layout(phi.degree)
        vec = [0] * self.complex.rank(phi.degree)
        offsets = {(a, b): (off, r) for a, b, off, r in layout}
        for (a, b), elem in phi.comps:
            if (a, b) not in offsets:
                raise ValueError("nonzero component in a rank-zero block")
            off, r = offsets[(a, b)]
            for k in range(r):
                vec[off + k] = elem.vector[k]
        return tuple(vec)

    def element(self, degree, vec):
        vec = _exact_vector(self.complex.ring, vec)
        if len(vec) != self.complex.rank(degree):
            raise ValueError("coordinate length mismatch")
        C = self.source.base
        comps = {}
        for a, b, off, r in self.block_layout(degree):
            chunk = vec[off : off + r]
            if any(chunk):
                deg = degree + self.source.idx(b) - self.target.idx(a)
                comps[(a, b)] = HomElement(
                    self.source.obj(b), self.target.obj(a), deg, chunk
                )
        return twisted_morphism(self.source, self.target, degree, comps)

    def basis(self, degree):
        r = self.complex.rank(degree)
        out = []
        for i in range(r):
            out.append(self.element(degree, tuple(1 if k == i else 0 for k in range(r))))
        return out


def left_mult_matrix(C, x, y, z, g, q):
    """Matrix of h -> g o h on Hom(x,y)^q, for fixed g in Hom(y,z)."""
    gcol = Matrix.column(C.ring, g.vector)
    return mul_kron(C.comp_matrix(x, y, z, g.degree, q), gcol, C.hom(x, y).rank(q))


def right_mult_matrix(C, x, y, z, f, p):
    """Matrix of h -> h o f on Hom(y,z)^p, for fixed f in Hom(x,y)."""
    fcol = Matrix.column(C.ring, f.vector)
    return mul_kron(C.comp_matrix(x, y, z, p, f.degree), C.hom(y, z).rank(p), fcol)


def _twisted_comp_matrix(HG, HF, HH, p, q):
    """The composition matrix Hom(y,z)^p (x) Hom(x,y)^q -> Hom(x,z)^(p+q)
    of the twisted Hom complexes HG, HF and HH.  Block (a, b) of g o f is
    sum_c g_ac o f_cb with no signs (see `compose_twisted`): one composition
    matrix of the base per pair of layout blocks (a, c), (c, b), placed
    among the Kronecker columns as `dgcat._total_composition` places its
    blocks.  The blocks do not overlap: distinct (a, c) give distinct
    column runs, and distinct (a, b) distinct rows."""
    X, Y, Z = HF.source, HF.target, HG.target
    C, rf = X.base, HF.complex.rank(q)
    target = {(a, b): off for a, b, off, _ in HH.block_layout(p + q)}
    terms = [(target[a, b], off_ac * rf + off_cb,
              C.comp_matrix(X.obj(b), Y.obj(c), Z.obj(a), p + Y.idx(c) - Z.idx(a),
                            q + X.idx(b) - Y.idx(c)), fr, rf)
             for a, c, off_ac, _ in HG.block_layout(p)
             for c2, b, off_cb, fr in HF.block_layout(q) if c2 == c and (a, b) in target]
    return assemble_strided(C.ring, HH.complex.rank(p + q), HG.complex.rank(p) * rf, terms)


def twisted_hom_complex(E, F):
    """Hom(E, F) as a chain complex whose degree-n piece collects the
    components of degree n + idx(source) - idx(target), with differential

        (d phi)_{ab} = (-1)^{idx a} d(phi_{ab})
                       + sum_c f_{ac} phi_{cb}
                       - (-1)^n sum_c phi_{ac} e_{cb}.

    Its degrees are all that a base Hom complex populates, and its cut is
    the `meet_cuts` of theirs, each moved down by its block shift, as for an
    iterated cone.  Construction validates d^2 = 0 exactly on every instantiation."""
    if E.base is not F.base:
        raise ValueError("the two twisted complexes live over different bases")
    C = E.base
    homs = {(a, b): (C.hom(E.obj(b), F.obj(a)), E.idx(b) - F.idx(a))
            for a in range(len(F.entries)) for b in range(len(E.entries))}
    degs = [m - shift for cx, shift in homs.values() for m in cx.degrees() if cx.rank(m)]
    if not degs:
        return TwistedHom(E, F, make_complex(C.ring, 0, [0]), {})
    blocks = {n: {ab: cx.rank(n + shift) for ab, (cx, shift) in homs.items()}
              for n in range(min(degs), max(degs) + 1)}

    def terms(n, src, tgt):
        rsgn = 1 if n % 2 else -1
        for (a, b), off in src.items():
            if not blocks[n][a, b]:
                continue
            (cx, shift), x, y = homs[a, b], E.obj(b), F.obj(a)
            m = n + shift
            yield tgt[a, b], off, cx.d(m), 1, -1 if F.idx(a) % 2 else 1
            for (a2, a3), g in F.e:
                if a3 == a:
                    yield tgt[a2, b], off, left_mult_matrix(C, x, y, F.obj(a2), g, m), 1, 1
            for (b2, b3), h in E.e:
                if b2 == b:
                    yield tgt[a, b3], off, right_mult_matrix(C, E.obj(b3), x, y, h, m), 1, rsgn

    layout = {}
    for n, ranks in blocks.items():
        start = block_offsets(ranks, ranks.get)[0]
        layout[n] = tuple((a, b, start[a, b], r) for (a, b), r in ranks.items() if r)
    cut = meet_cuts([cx.cut for cx, _ in homs.values()], [-k for _, k in homs.values()])
    return TwistedHom(E, F, cut_complex(block_complex(C.ring, blocks, terms, True), *cut), layout)


def twisted_differential(phi):
    """Componentwise differential; agrees with the matrix of the Hom
    complex, which the suites check as a second route."""
    E, F = phi.source, phi.target
    C = E.base
    acc = {}
    for (a, b), u in phi.comps:
        sgn = -1 if F.idx(a) % 2 else 1
        du = C.differential(u)
        if len(du.vector):
            _add_into(C, acc, (a, b), C.scale(du, sgn))
        for (a2, a3), g in F.e:
            if a3 == a:
                w = C.compose(g, u)
                if len(w.vector):
                    _add_into(C, acc, (a2, b), w)
        rsgn = 1 if phi.degree % 2 else -1
        for (b2, b3), h in E.e:
            if b2 == b:
                w = C.compose(u, h)
                if len(w.vector):
                    _add_into(C, acc, (a, b3), C.scale(w, rsgn))
    return twisted_morphism(E, F, phi.degree + 1, acc)


def compose_twisted(psi, phi):
    """psi after phi, componentwise matrix product over the entries."""
    if phi.target != psi.source:
        raise ValueError("morphisms are not composable")
    C = phi.source.base
    acc = {}
    for (a, c), u in psi.comps:
        for (c2, b), v in phi.comps:
            if c2 != c:
                continue
            w = C.compose(u, v)
            if len(w.vector):
                _add_into(C, acc, (a, b), w)
    return twisted_morphism(
        phi.source, psi.target, phi.degree + psi.degree, acc
    )


def twisted_identity(E):
    C = E.base
    comps = {(a, a): C.identity(E.obj(a)) for a in range(len(E.entries))}
    return twisted_morphism(E, E, 0, comps)


def zero_morphism(E, F, degree=0):
    """Only tests set `degree`: a zero morphism of nonzero degree."""
    return twisted_morphism(E, F, degree, {})


def add_twisted(f, g):
    if (f.source, f.target, f.degree) != (g.source, g.target, g.degree):
        raise ValueError("cannot add morphisms of different type")
    C = f.source.base
    acc = dict(f.comps)
    for key, elem in g.comps:
        _add_into(C, acc, key, elem)
    return twisted_morphism(f.source, f.target, f.degree, acc)


def scale_twisted(f, c):
    C = f.source.base
    return twisted_morphism(
        f.source, f.target, f.degree,
        {key: C.scale(elem, c) for key, elem in f.comps},
    )


def is_closed(phi):
    return twisted_differential(phi).is_zero()


# ---------------------------------------------------------------------------
# Shift and cone.


def shift(E, n):
    """E[n]: entry indices drop by n, structure maps pick up (-1)^n."""
    sgn = -1 if n % 2 else 1
    entries = tuple((i - n, k) for i, k in E.entries)
    C = E.base
    comps = {key: C.scale(elem, sgn) for key, elem in E.e}
    return assemble_twisted(C, entries, comps, e_bound=E.e_bound)


def shift_mor(phi, n):
    """phi[n] between the shifted complexes, scaled by (-1)^(n deg phi)."""
    sgn = -1 if (n * phi.degree) % 2 else 1
    C = phi.source.base
    return twisted_morphism(
        shift(phi.source, n), shift(phi.target, n), phi.degree,
        {key: C.scale(elem, sgn) for key, elem in phi.comps},
    )


@dataclass(frozen=True)
class ConeTriple:
    cone: TwistedComplex
    incl: TwistedMorphism
    proj: TwistedMorphism


def cone(phi):
    """Cone of a closed degree-0 morphism: target entries as they are,
    source entries shifted down by one, structure maps

        [ f    0  ]
        [ phi  -e ]

    with the inclusion of the target and the projection to the shifted
    source."""
    if phi.degree != 0:
        raise ValueError("the cone needs a closed degree-0 morphism")
    if not is_closed(phi):
        raise ValueError("the cone needs a closed degree-0 morphism")
    E, F = phi.source, phi.target
    C = E.base
    off = len(F.entries)
    entries = F.entries + tuple((i - 1, k) for i, k in E.entries)
    comps = dict(F.e)
    for (a, b), elem in phi.comps:
        comps[(a, off + b)] = elem
    for (a, b), elem in E.e:
        comps[(off + a, off + b)] = C.scale(elem, -1)
    K = assemble_twisted(C, entries, comps)
    incl = twisted_morphism(
        F, K, 0, {(a, a): C.identity(F.obj(a)) for a in range(len(F.entries))}
    )
    shifted = shift(E, 1)
    proj = twisted_morphism(
        K, shifted, 0,
        {(a, off + a): C.identity(E.obj(a)) for a in range(len(E.entries))},
    )
    return ConeTriple(K, incl, proj)


# ---------------------------------------------------------------------------
# Tensor structure.


def _tensor_guard(T, E):
    if not isinstance(T, TensorDGData):
        raise ValueError("the tensor structure must be TensorDGData")
    if T.category is not E.base:
        raise ValueError("the tensor structure does not belong to the base")


def tensor_pair(T, E, F):
    """Object tensor product: entries are pairs with indices added, the
    structure maps are

        (-1)^{(idx b - idx a + 1) idx c} e_{ab} (x) id   and
        (-1)^{idx a} id (x) f_{cd}."""
    _tensor_guard(T, E)
    _tensor_guard(T, F)
    C = T.category
    nf = len(F.entries)
    entries = []
    for ia, ka in E.entries:
        for ib, kb in F.entries:
            entries.append((ia + ib, T.obj_tensor(ka, kb)))
    comps = {}
    for (a, b), u in E.e:
        for c in range(nf):
            sgn = -1 if ((E.idx(b) - E.idx(a) + 1) * F.idx(c)) % 2 else 1
            w = T.mor_tensor(u, C.identity(F.obj(c)))
            _add_into(C, comps, (a * nf + c, b * nf + c), C.scale(w, sgn))
    for (c, d), v in F.e:
        for a in range(len(E.entries)):
            sgn = -1 if E.idx(a) % 2 else 1
            w = T.mor_tensor(C.identity(E.obj(a)), v)
            _add_into(C, comps, (a * nf + c, a * nf + d), C.scale(w, sgn))
    return assemble_twisted(C, entries, comps)


def unit_twisted(T):
    return i0(T.category, T.unit)


def cup(T, phi, psi):
    """phi cup psi from E (x) E' to F (x) F', with the component sign
    (-1)^{(j - i + p) k + q j} on phi_{ij} (x) psi_{kl}."""
    _tensor_guard(T, phi.source)
    _tensor_guard(T, psi.source)
    C = T.category
    source = tensor_pair(T, phi.source, psi.source)
    target = tensor_pair(T, phi.target, psi.target)
    p, q = phi.degree, psi.degree
    ns = len(psi.source.entries)
    nt = len(psi.target.entries)
    acc = {}
    for (a, b), u in phi.comps:
        i = phi.target.idx(a)
        j = phi.source.idx(b)
        for (c, d), v in psi.comps:
            k = psi.target.idx(c)
            sgn = -1 if ((j - i + p) * k + q * j) % 2 else 1
            _add_into(C, acc, (a * nt + c, b * ns + d), C.scale(T.mor_tensor(u, v), sgn))
    return twisted_morphism(source, target, p + q, acc)


def commutativity(T, E, F):
    """The braiding E (x) F -> F (x) E, componentwise (-1)^{idx a idx b}
    times the braiding of the base."""
    _tensor_guard(T, E)
    C = T.category
    source = tensor_pair(T, E, F)
    target = tensor_pair(T, F, E)
    nf = len(F.entries)
    ne = len(E.entries)
    comps = {}
    for a in range(ne):
        for b in range(nf):
            sgn = -1 if (E.idx(a) * F.idx(b)) % 2 else 1
            t = T.symmetry(E.obj(a), F.obj(b))
            comps[(b * ne + a, a * nf + b)] = C.scale(t, sgn)
    return twisted_morphism(source, target, 0, comps)


# ---------------------------------------------------------------------------
# The category of twisted complexes, and total complexes of nested ones.


class PreTrCategory(DGCategory):
    """DG category whose objects name twisted complexes over a common base;
    Hom complexes and units are the componentwise ones, and each
    composition matrix is assembled block by block from the base's.  The
    registry can grow, so a total complex can join the category its nested
    object was built over."""

    def __init__(self, base, complexes):
        self._base = base
        self._tcs = tcs = dict(complexes)
        for key, tc in tcs.items():
            if tc.base is not base:
                raise ValueError("twisted complex %r lives over a different base" % (key,))
        homs = {}

        # the closures hold the registry and the Hom cache, never self, so
        # reference counting alone frees the category
        def hom_data(x, y):
            """The twisted Hom complex of a registered pair, built once."""
            if (x, y) not in homs:
                homs[(x, y)] = twisted_hom_complex(tcs[x], tcs[y])
            return homs[(x, y)]

        def comp_fn(x, y, z, p, q):
            return _twisted_comp_matrix(hom_data(y, z), hom_data(x, y), hom_data(x, z), p, q)

        super().__init__(
            base.ring, tuple(tcs), lambda x, y: hom_data(x, y).complex,
            comp_fn=comp_fn,
            id_fn=lambda x: hom_data(x, x).vector(twisted_identity(tcs[x])),
            name="pretr(%s)" % (base.name or "?"),
        )
        self.hom_data = hom_data

    def tc(self, key):
        return self._tcs[key]

    def register(self, key, tc):
        if key in self._tcs:
            if self._tcs[key] != tc:
                raise ValueError("key %r already names a different object" % (key,))
            return
        if tc.base is not self._base:
            raise ValueError("twisted complex %r lives over a different base" % (key,))
        self._tcs[key] = tc

    def as_morphism(self, elem):
        return self.hom_data(elem.source, elem.target).element(elem.degree, elem.vector)

    def as_element(self, x, y, phi):
        return HomElement(x, y, phi.degree, self.hom_data(x, y).vector(phi))


def pretr_category(base, complexes):
    return PreTrCategory(base, complexes)


def _flatten(P, EE):
    """The entries of the flattened twisted complex, and the first of them
    that comes from each outer entry."""
    inner = [(EE.idx(A), P.tc(EE.obj(A)).entries) for A in range(len(EE.entries))]
    offsets = block_offsets(range(len(inner)), lambda A: len(inner[A][1]))[0]
    return tuple((l + i, k) for l, entries in inner for i, k in entries), offsets


def total_complex(EE):
    """Flatten a twisted complex of twisted complexes: entry indices add,
    inner structure maps pick up (-1)^(outer index), outer components are
    copied with no extra sign."""
    P = EE.base
    if not isinstance(P, PreTrCategory):
        raise ValueError("the nested object must live over a twisted-complex category")
    C = P._base
    entries, offsets = _flatten(P, EE)
    comps = {}
    for A in range(len(EE.entries)):
        inner = P.tc(EE.obj(A))
        sgn = -1 if EE.idx(A) % 2 else 1
        for (i, j), u in inner.e:
            _add_into(C, comps, (offsets[A] + i, offsets[A] + j), C.scale(u, sgn))
    for (A, B), elem in EE.e:
        mor = P.as_morphism(elem)
        for (i, j), u in mor.comps:
            _add_into(C, comps, (offsets[A] + i, offsets[B] + j), u)
    return assemble_twisted(C, entries, comps)


def tot_morphism(PSI):
    """Total complex of a morphism of nested twisted complexes; the
    componentwise copy with no signs is a DG functor, which the suites
    check against composition and the differential."""
    P = PSI.source.base
    if not isinstance(P, PreTrCategory):
        raise ValueError("the nested morphism must live over a twisted-complex category")
    src = total_complex(PSI.source)
    tgt = total_complex(PSI.target)
    _, soff = _flatten(P, PSI.source)
    _, toff = _flatten(P, PSI.target)
    comps = {}
    C = P._base
    for (A, B), elem in PSI.comps:
        mor = P.as_morphism(elem)
        for (i, j), u in mor.comps:
            _add_into(C, comps, (toff[A] + i, soff[B] + j), u)
    return twisted_morphism(src, tgt, PSI.degree, comps)


def tot_comparison(EE, key):
    """Register the total complex and return (tot, rho, lam): rho projects
    the one-entry wrapper of the total complex onto each nested column and
    lam includes each column; they are mutually inverse closed degree-0
    morphisms."""
    P = EE.base
    if not isinstance(P, PreTrCategory):
        raise ValueError("the nested object must live over a twisted-complex category")
    T = total_complex(EE)
    P.register(key, T)
    wrapper = i0(P, key)
    _, offsets = _flatten(P, EE)
    rho_comps = {}
    lam_comps = {}
    for A in range(len(EE.entries)):
        inner = P.tc(EE.obj(A))
        l = EE.idx(A)
        proj = {}
        incl = {}
        for i in range(len(inner.entries)):
            ident = P._base.identity(inner.obj(i))
            proj[(i, offsets[A] + i)] = ident
            incl[(offsets[A] + i, i)] = ident
        rho_comps[(A, 0)] = P.as_element(
            key, EE.obj(A), twisted_morphism(T, inner, -l, proj)
        )
        lam_comps[(0, A)] = P.as_element(
            EE.obj(A), key, twisted_morphism(inner, T, l, incl)
        )
    rho = twisted_morphism(wrapper, EE, 0, rho_comps)
    lam = twisted_morphism(EE, wrapper, 0, lam_comps)
    return T, rho, lam


# ---------------------------------------------------------------------------
# Stupid truncations over a non-positive base.


def _require_nonpositive(Y):
    C = Y.base
    seen = set()
    for _, x in Y.entries:
        for _, y in Y.entries:
            if (x, y) in seen:
                continue
            seen.add((x, y))
            cx = C.hom(x, y)
            for n in cx.degrees():
                if n > 0 and cx.rank(n):
                    raise ValueError("stupid truncation needs a non-positive base")


@dataclass(frozen=True)
class TruncationPair:
    complex: TwistedComplex
    map: TwistedMorphism


def stupid_truncation(Y, mode, N):
    """Keep the entries with index <= N (mode "le", with the projection
    Y -> sigma Y) or >= N (mode "ge", with the inclusion sigma Y -> Y).
    Over a non-positive base the kept structure maps close up, so the
    result passes the Maurer-Cartan check and the structure map is closed."""
    _require_nonpositive(Y)
    if mode == "le":
        keep = [a for a in range(len(Y.entries)) if Y.idx(a) <= N]
    elif mode == "ge":
        keep = [a for a in range(len(Y.entries)) if Y.idx(a) >= N]
    else:
        raise ValueError("mode must be 'le' or 'ge'")
    pos = {a: i for i, a in enumerate(keep)}
    entries = tuple(Y.entries[a] for a in keep)
    comps = {}
    for (a, b), elem in Y.e:
        if a in pos and b in pos:
            comps[(pos[a], pos[b])] = elem
    S = assemble_twisted(Y.base, entries, comps)
    C = Y.base
    if mode == "le":
        mor = twisted_morphism(
            Y, S, 0, {(pos[a], a): C.identity(Y.obj(a)) for a in keep}
        )
    else:
        mor = twisted_morphism(
            S, Y, 0, {(a, pos[a]): C.identity(Y.obj(a)) for a in keep}
        )
    return TruncationPair(S, mor)


def cone_reconstruction(Y):
    """Rebuild a one-entry-per-index twisted complex as the shifted cone of
    the map its top-index structure maps assemble, returning the connecting
    map and an explicit strict isomorphism pair (u, v).

    The isomorphism search runs over diagonal sign patterns, which is
    sufficient because both sides share the same entries; a failure of the
    search raises rather than guessing."""
    idxs = Y.indices()
    if len(set(idxs)) != len(idxs):
        raise ValueError("reconstruction needs one entry per index")
    if not Y.entries:
        raise ValueError("reconstruction needs at least one entry")
    _require_nonpositive(Y)
    C = Y.base
    N = max(idxs)
    top_pos = Y.positions_at(N)[0]
    trunc = stupid_truncation(Y, "le", N - 1)
    S = trunc.complex
    target = shift(i0(C, Y.obj(top_pos)), 1 - N)
    kept = [a for a in range(len(Y.entries)) if Y.idx(a) <= N - 1]
    posmap = {orig: i for i, orig in enumerate(kept)}
    wcomps = {}
    for (a, b), elem in Y.e:
        if a == top_pos and b != top_pos:
            wcomps[(0, posmap[b])] = elem
    w = twisted_morphism(S, target, 0, wcomps)
    if not is_closed(w):
        raise AssertionError("the connecting map fails to be closed")
    R = shift(cone(w).cone, -1)
    rpos = {R.idx(a): a for a in range(len(R.entries))}
    ypos = {Y.idx(a): a for a in range(len(Y.entries))}
    order = sorted(ypos)
    for bits in range(1 << len(order)):
        comps = {}
        for k, i in enumerate(order):
            sgn = -1 if (bits >> k) & 1 else 1
            comps[(rpos[i], ypos[i])] = C.scale(C.identity(Y.obj(ypos[i])), sgn)
        u = twisted_morphism(Y, R, 0, comps)
        if not is_closed(u):
            continue
        v = strict_inverse(u)
        if v is not None:
            return w, u, v
    raise ValueError("no diagonal sign pattern gives an isomorphism")


def strict_inverse(u):
    """Two-sided inverse of a degree-0 morphism in the ordinary (not
    homotopy) sense, or None; found by solving v o u = id linearly and
    checking u o v = id."""
    Y, R = u.source, u.target
    H = twisted_hom_complex(R, Y)
    HU, HY = twisted_hom_complex(Y, R), twisted_hom_complex(Y, Y)
    ucol = Matrix.column(Y.base.ring, HU.vector(u))
    mat = mul_kron(_twisted_comp_matrix(H, HU, HY, 0, 0), H.complex.rank(0), ucol)
    sol = solve_vector(mat, HY.vector(twisted_identity(Y)))
    if sol is None:
        return None
    v = H.element(0, sol)
    if compose_twisted(u, v) != twisted_identity(R):
        return None
    return v


# ---------------------------------------------------------------------------
# Homotopy-level Hom groups.


def kb_hom(E, F, n):
    """The degree-n Hom group in the homotopy category, computed as the
    homology of the twisted Hom complex on its natural window."""
    return complex_homology(twisted_hom_complex(E, F).complex, n)


def postcompose_chain_map(psi, T):
    """The chain map Hom(T, source of psi) -> Hom(T, target of psi) given
    by composing with a closed degree-0 psi."""
    if psi.degree != 0 or not is_closed(psi):
        raise ValueError("postcomposition needs a closed degree-0 morphism")
    src, tgt = twisted_hom_complex(T, psi.source), twisted_hom_complex(T, psi.target)
    H = twisted_hom_complex(psi.source, psi.target)
    gcol = Matrix.column(psi.source.base.ring, H.vector(psi))
    comps = {n: mul_kron(_twisted_comp_matrix(H, src, tgt, 0, n), gcol, src.complex.rank(n))
             for n in src.complex.degrees()}
    return make_chain_map(src.complex, tgt.complex, comps, check=True)


# ---------------------------------------------------------------------------
# Idempotent completion.


@dataclass(frozen=True)
class IdempotentObject:
    carrier: object
    projector: HomElement


def _check_idempotent(C, ob):
    p = ob.projector
    if p.source != ob.carrier or p.target != ob.carrier:
        raise ValueError("the projector must be an endomorphism of the carrier")
    if p.degree != 0:
        raise ValueError("the projector must have degree 0")
    if not C.differential(p).is_zero():
        raise ValueError("the projector must be closed")
    if C.compose(p, p) != p:
        raise ValueError("the projector is not idempotent")


def idempotent_complete(C, idems=None):
    """DG category of (carrier, closed idempotent) pairs; with no argument
    every object is paired with its identity, which embeds C.  The Hom
    complex of a pair is the image of h -> q o h o p inside the ambient
    Hom, in the basis of that image, and `embed(x, y, elem)` gives the
    coordinates of q o elem o p in it.  Only tests set `idems`: a proper
    summand, and idempotents that are refused."""
    if idems is None:
        idems = {x: IdempotentObject(x, C.identity(x)) for x in C.objects}
    idems = dict(idems)
    for ob in idems.values():
        _check_idempotent(C, ob)

    def image_bases(x, y):
        p, q = idems[x].projector, idems[y].projector
        M, N = p.source, q.source
        amb = C.hom(M, N)
        return {
            n: kernel(
                Matrix.identity(C.ring, amb.rank(n))
                - left_mult_matrix(C, M, N, N, q, n) * right_mult_matrix(C, M, M, N, p, n)
            )
            for n in amb.degrees()
        }

    K, basis = _restricted_category(
        C, tuple(idems), lambda x: idems[x].carrier, image_bases,
        lambda x: idems[x].projector.vector, "idem(%s)" % (C.name or "?"),
    )

    def embed(x, y, elem):
        cut = C.compose(idems[y].projector, C.compose(elem, idems[x].projector))
        coords = restrict_vector(basis(x, y)[elem.degree], cut.vector, "the projected element")
        return HomElement(x, y, elem.degree, coords)

    K.embed = embed
    return K


# ---------------------------------------------------------------------------
# Formal inversion of a twist endofunctor.


def tensor_twist_functor(T, L, seeds, depth):
    """The endofunctor X -> X (x) L on the objects generated from `seeds`
    by twisting up to `depth` times, with Hom maps f -> f (x) id_L."""
    C = T.category
    objects = []
    for X in seeds:
        cur = X
        for _ in range(depth + 1):
            if cur not in objects:
                objects.append(cur)
            cur = T.obj_tensor(cur, L)
    idL = C.identity(L)
    obj_map = {X: T.obj_tensor(X, L) for X in objects}
    mor_maps = {}
    for x in objects:
        for y in objects:
            src = C.hom(x, y)
            tgt = C.hom(obj_map[x], obj_map[y])
            comps = {}
            for n in src.degrees():
                cols = [T.mor_tensor(f, idL).vector for f in C.basis(x, y, n)]
                comps[n] = _columns_to_matrix(C.ring, tgt.rank(n), cols)
            mor_maps[(x, y)] = make_chain_map(src, tgt, comps, check=True)
    return DGFunctor(C, C, obj_map, mor_maps)


@dataclass(frozen=True)
class StabilizationReport:
    pair: tuple
    degrees: tuple  # (degree, rank at stage-1, rank at stage, transition iso)

    @property
    def stabilized(self):
        return all(iso for _, _, _, iso in self.degrees)


class TwistInversion:
    """Objects are pairs (X, n); the Hom complex of a pair of pairs is the
    stage-N term Hom(T^(N+n) X, T^(N+m) Y) with N the declared stage, and
    the stabilization report compares the last two terms through the
    transition map.  Hom complexes that have not stabilized are reported
    and, by default, refused."""

    def __init__(self, base, twist, stage):
        if stage < 1:
            raise ValueError("the stage must be at least 1")
        if twist.source is not base or twist.target is not base:
            raise ValueError("the twist must be an endofunctor of the base")
        self.base = base
        self.twist = twist
        self.stage = stage

    def carrier(self, X, n):
        k = self.stage + n
        if k < 0:
            raise ValueError("stage %d cannot represent level %d" % (self.stage, n))
        cur = X
        for _ in range(k):
            cur = self.twist.obj_map[cur]
        return cur

    def hom_complex(self, a, b):
        (X, n), (Y, m) = a, b
        return self.base.hom(self.carrier(X, n), self.carrier(Y, m))

    def stabilization(self, a, b):
        (X, n), (Y, m) = a, b
        need = 1 - min(n, m)
        if self.stage < need:
            raise ValueError(
                "comparing the last two terms for levels (%d, %d) needs stage >= %d"
                % (n, m, need)
            )
        prev = (self.carrier(X, n - 1), self.carrier(Y, m - 1))
        t = self.twist.mor_maps[prev]
        rows = []
        for deg in sorted(set(t.source.degrees()) | set(t.target.degrees())):
            r0 = t.source.rank(deg)
            r1 = t.target.rank(deg)
            iso = r0 == r1
            if iso and r1:
                sol = solve(t.comp(deg), Matrix.identity(self.base.ring, r1))
                iso = sol is not None
            rows.append((deg, r0, r1, iso))
        return StabilizationReport((a, b), tuple(rows))

    def category(self, pairs, require_stable=True):
        """The DG category on `pairs`; only tests set `require_stable`: a non-stable stage."""
        pairs = tuple(pairs)
        if require_stable:
            bad = []
            for a in pairs:
                for b in pairs:
                    if not self.stabilization(a, b).stabilized:
                        bad.append((a, b))
            if bad:
                raise ValueError(
                    "Hom groups not stabilized at stage %d for: %r" % (self.stage, bad)
                )
        inv = self

        def comp_fn(a, b, c, p, q):
            return inv.base.comp_matrix(inv.carrier(*a), inv.carrier(*b), inv.carrier(*c), p, q)

        return DGCategory(
            self.base.ring, pairs, inv.hom_complex, comp_fn=comp_fn,
            id_fn=lambda a: inv.base.identity(inv.carrier(*a)).vector,
            name="inverted(%s)" % (self.base.name or "?"),
        )


def invert_twist(C, twist, n_stab):
    return TwistInversion(C, twist, n_stab)


# ---------------------------------------------------------------------------
# The additive dictionary.


def twisted_from_additive(base, objects, diffs):
    """Twisted complex of a complex over a base concentrated in degree 0:
    one entry per degree and the differentials as the only structure maps."""
    e = {}
    for i, elem in dict(diffs).items():
        e[(i + 1, i)] = elem
    return make_twisted(base, objects, e)


def additive_from_twisted(E):
    """Inverse dictionary; rejects entries sharing an index and structure
    maps that are not differentials of a complex in disguise."""
    idxs = E.indices()
    if len(set(idxs)) != len(idxs):
        raise ValueError("the additive dictionary needs one entry per index")
    objects = {E.idx(a): E.obj(a) for a in range(len(E.entries))}
    diffs = {}
    for (a, b), elem in E.e:
        if E.idx(a) != E.idx(b) + 1:
            raise ValueError("a structure map is not a differential")
        diffs[E.idx(b)] = elem
    return objects, diffs
