"""Finite DG categories with exact structure-constant composition.

A category here is a finite object list, a Hom chain complex per ordered
pair, and one composition matrix per degree pair acting on Kronecker
coordinate vectors.  Everything is checked as an exact matrix identity:
the Leibniz rule, associativity, the unit laws, and later the enrichment
laws are all statements of the form "these two integer (or rational)
matrices are equal", so a law either holds on the nose or fails with a
coordinate witness.  Composition matrices come from `comp_fn` alone: for
mapping complexes and the free-module host, `linalg.hom_composition_matrix`.

The second half of the module builds DG categories out of ordinary
additive tensor data: a co-cubical object with a comultiplication turns
degree-0 Hom modules into Hom complexes whose level n part is
Hom(X (x) cube^n, Y), with composition "duplicate the cube, then cup".
Both hosts come from one free-module host (Hom by row-major matrices,
tensor by Kronecker product): a finite-correspondence toy whose cubes are
all the unit object, and a host whose cubes are spanned by the cube
vertices with the diagonal comultiplication.

`CubicalEnrichment` keeps the reduced model of each level and projects
composites back along the degenerate splitting.  Its level maps are read
off the row-major free-module host, the only host the two builders make:
an action is the matrix I (x) U^T of precomposition with id (x) u, and the
composites of all pairs of model columns are one sparse product in the
host's ring.  `AlternatingEnrichment` is the same construction with
another level model: its level data overrides only `model` (the
sign-isotypic subcomplex, with the signed orbit sums as basis) and
`project` (the coordinates of the sign average, read from those sums),
and adds the box tensor product.  The level data is an object of its own
that never refers to the enriched category, so an enrichment and its
category are freed by reference counting.
"""

import itertools
from dataclasses import dataclass, field

from .cube import (
    closure_walk,
    identity_map,
    front_projection,
    back_projection,
    vertex_index,
)
from .cubical import (
    CubicalAbelianGroup,
    alternating_complex,
    associated_complex,
    degenerate_projector,
    generator_maps,
    sign_coordinates,
)
from .linalg import (
    Matrix,
    _apply,
    _coerce,
    _exact_vector,
    _columns_to_matrix,
    assemble,
    assemble_strided,
    block_matrix,
    blocks_as_columns,
    canonical,
    complex_homology,
    differing_entries,
    flat_total,
    is_quasi_iso,
    hom_complex,
    hom_composition_matrix,
    identity_hom_vector,
    kernel,
    leibniz_mismatches,
    make_chain_map,
    mul_kron,
    restrict,
    restrict_vector,
    single_complex,
    solve,
    solve_vector,
    subcomplex,
)


# ---------------------------------------------------------------------------
# Elements and categories.


@dataclass(frozen=True)
class HomElement:
    """A homogeneous element of a Hom complex, as coordinates in the
    chosen basis of its degree."""

    source: object
    target: object
    degree: int
    vector: tuple

    def is_zero(self):
        return all(v == 0 for v in self.vector)


def _kron_vec(u, v):
    return tuple(a * b for a in u for b in v)


class DGCategory:
    """Objects, Hom complexes, composition tables and units.

    `comp_matrix(x, y, z, p, q)` is the matrix of

        Hom(y,z)^p (x) Hom(x,y)^q -> Hom(x,z)^(p+q)

    acting on kron(g, f) with the outer factor first.  Hom complexes and
    composition matrices may be supplied lazily through callables; keys
    outside `objects` are allowed so that a small listed category can sit
    inside a larger ambient one (the ambient Homs are what the cubical
    enrichment consumes).

    `comp_fn(x, y, z, p, q)` is the one source of composition matrices,
    called when a matrix is asked for: categories on a base compose with
    the base's matrices, twisted complexes fill theirs block by block, and
    mapping complexes and the free-module host call `hom_composition_matrix`.
    `compose` uses `comp_vec_fn(x, y, z, p, q, gvec, fvec)`, if given, until
    the matrix is cached.  Only the free-module host passes it: its matrix
    holds rank(x) rank(y) rank(z) entries per triple and its maps are very
    sparse: composing through it made the enriched law checks 8x slower.
    """

    def __init__(self, ring, objects, hom_fn, comp_fn=None, id_fn=None,
                 comp_vec_fn=None, name=""):
        self.ring = ring
        self.objects = tuple(objects)
        self.name = name
        self._hom_fn = hom_fn
        self._comp_fn = comp_fn
        self._comp_vec_fn = comp_vec_fn
        self._id_fn = id_fn
        self._hom = {}
        self._comp = {}
        self._id = {}

    def hom(self, x, y):
        key = (x, y)
        if key not in self._hom:
            cx = self._hom_fn(x, y)
            if cx.ring != self.ring:
                raise ValueError("hom complex ring mismatch at %r" % (key,))
            self._hom[key] = cx
        return self._hom[key]

    def comp_matrix(self, x, y, z, p, q):
        """The cached matrix first; the shape is read only on a miss, and a
        matrix with no rows or no columns is not cached."""
        key = (x, y, z, p, q)
        mat = self._comp.get(key)
        if mat is not None:
            return mat
        rows = self.hom(x, z).rank(p + q)
        cols = self.hom(y, z).rank(p) * self.hom(x, y).rank(q)
        if rows == 0 or cols == 0:
            return Matrix.zero(self.ring, rows, cols)
        if self._comp_fn is None:
            raise ValueError("no composition data for (%r, %r, %r)" % (x, y, z))
        mat = self._comp_fn(x, y, z, p, q)
        if mat.nrows != rows or mat.ncols != cols:
            raise ValueError("composition matrix shape mismatch at %r" % (key,))
        self._comp[key] = mat
        return mat

    def identity(self, x):
        if x not in self._id:
            vec = _exact_vector(self.ring, self._id_fn(x))
            if len(vec) != self.hom(x, x).rank(0):
                raise ValueError("identity vector length mismatch at %r" % (x,))
            self._id[x] = HomElement(x, x, 0, vec)
        return self._id[x]

    def element(self, x, y, degree, coords):
        return self._checked(HomElement(x, y, degree, _exact_vector(self.ring, coords)))

    def _checked(self, f):
        """f, or a ValueError when its vector is not as long as its Hom rank."""
        if len(f.vector) != self.hom(f.source, f.target).rank(f.degree):
            raise ValueError("coordinate length mismatch")
        return f

    def zero_element(self, x, y, degree):
        return HomElement(x, y, degree, (0,) * self.hom(x, y).rank(degree))

    def basis(self, x, y, degree):
        r = self.hom(x, y).rank(degree)
        return [
            HomElement(x, y, degree, tuple(1 if k == i else 0 for k in range(r)))
            for i in range(r)
        ]

    def differential(self, f):
        self._checked(f)
        cx = self.hom(f.source, f.target)
        vec = _apply(cx.d(f.degree), f.vector)
        return HomElement(f.source, f.target, f.degree + 1, vec)

    def compose(self, g, f):
        """g after f; f: x -> y, g: y -> z."""
        if f.target != g.source:
            raise ValueError("elements are not composable")
        self._checked(g)
        self._checked(f)
        x, y, z = f.source, f.target, g.target
        p, q = g.degree, f.degree
        rows = self.hom(x, z).rank(p + q)
        if rows == 0:
            return self.zero_element(x, z, p + q)
        if self._comp_vec_fn is not None and (x, y, z, p, q) not in self._comp:
            return HomElement(
                x, z, p + q, self._comp_vec_fn(x, y, z, p, q, g.vector, f.vector)
            )
        mat = self.comp_matrix(x, y, z, p, q)
        return HomElement(x, z, p + q, _apply(mat, _kron_vec(g.vector, f.vector)))

    def add(self, f, g):
        if (f.source, f.target, f.degree) != (g.source, g.target, g.degree):
            raise ValueError("cannot add elements of different type")
        self._checked(f)
        self._checked(g)
        return HomElement(
            f.source, f.target, f.degree,
            tuple(a + b for a, b in zip(f.vector, g.vector)),
        )

    def scale(self, f, c):
        self._checked(f)
        if type(c) is not int:
            c = _coerce(self.ring, c)
        return HomElement(f.source, f.target, f.degree, tuple(c * a for a in f.vector))

    def __repr__(self):
        return "DGCategory(%s, %d objects)" % (self.name or self.ring, len(self.objects))


# ---------------------------------------------------------------------------
# The law checker.


@dataclass(frozen=True)
class DGFailure:
    law: str
    where: tuple
    note: str


@dataclass(frozen=True)
class DGReport:
    ok: bool
    failures: tuple

    def laws_failed(self):
        return sorted({f.law for f in self.failures})


def _diff_note(i, j, a, b):
    return "entry (%d, %d): %s != %s" % (i, j, a, b)


def _ranked_degrees(cx):
    return [n for n in cx.degrees() if cx.rank(n)]


def _total_composition(C, x, y, z, tot):
    """M_xyz : Hom(y,z)_tot (x) Hom(x,y)_tot -> Hom(x,z)_tot, its columns in
    the order of `Matrix.kron`, holding the entries of C's composition
    blocks as they are."""
    g, f, h = tot[y, z], tot[x, y], tot[x, z]
    terms = [(h.start[p + q], g.start[p] * f.rank + f.start[q], C.comp_matrix(x, y, z, p, q),
              f.cx.rank(q), f.rank)
             for p in _ranked_degrees(g.cx) for q in _ranked_degrees(f.cx) if h.cx.rank(p + q)]
    return assemble_strided(C.ring, h.rank, g.rank * f.rank, terms)


def _observable(cx, n):
    """Whether a law may read a composite in degree n of cx: n is stored, or
    the cut says that cx is honestly zero there (`exact`)."""
    return cx.lo <= n <= cx.hi or cx.exact(n)


def _block_failures(law, where, diffs, rows, cols, keep):
    """One failure per degree block that holds a differing entry
    (i, j, lhs, rhs) of `diffs`, in the order of the blocks' degrees.
    Row i is a coordinate of the flat total `rows`, column j one of the
    Kronecker product of the flat totals `cols`, outer first; the block of
    (i, j) is the tuple of the degrees of j's factors, and its note is its
    first differing entry, in the block's own (row, column) coordinates.
    Blocks whose degrees fail `keep` are left out; with keep None, none is."""
    notes = {}
    for i, j, u, v in diffs:
        coords = []
        for t in reversed(cols):
            j, k = divmod(j, t.rank)
            coords.append(t.coords[k])
        degs = tuple(deg for deg, _ in reversed(coords))
        if degs not in notes and (keep is None or keep(*degs)):
            local = 0
            for t, (deg, a) in zip(cols, reversed(coords)):
                local = local * t.cx.rank(deg) + a
            notes[degs] = _diff_note(rows.coords[i][1], local, u, v)
    return [DGFailure(law, where + degs, notes[degs]) for degs in sorted(notes)]


def validate_dg(C):
    """Check d^2, closed units, the Leibniz rule, associativity and the unit
    laws over the listed objects; every violation is reported with its
    location and a differing matrix entry.  A category with no objects
    fails with the law "objects": there is nothing to check.

    Every law but the unit's degree and closedness is checked once per
    object pair or tuple, as one identity on totals: each Hom complex lists
    its degrees in ascending order (`flat_total`), and the total
    composition matrix M_xyz has its columns in the order of `Matrix.kron`
    on Hom(y,z)_tot (x) Hom(x,y)_tot.  Each column block of such a product
    lands in the single row block of its degree, so `_block_failures` maps
    a differing entry back to its degrees and to its (row, column) inside
    the degree block of the per-degree law.  A Leibniz or associativity
    block is left out where the truncation dropped a composite it reads,
    p + q (or q + r): where it is not `_observable` in its Hom.

    The failures come law by law (dsq, the unit's closedness, leibniz,
    assoc, then the unit laws with left before right in each degree), each
    in the order of its objects and then of its degrees, one per degree
    block, with the first differing entry of the block in row-major order
    as the note (dsq notes only "d(n+1) d(n) != 0").  A unit is of degree 0
    by construction (`DGCategory.identity`), so no law checks its degree.
    """
    if not C.objects:
        return DGReport(ok=False, failures=(DGFailure("objects", (), "no objects"),))
    objs = C.objects
    tot = {(x, y): flat_total(C.hom(x, y)) for x in objs for y in objs}
    failures = []
    for (x, y), t in tot.items():
        sq = differing_entries(t.d * t.d, Matrix.zero(C.ring, t.rank, t.rank))
        failures += [DGFailure("dsq", f.where, "d(n+1) d(n) != 0")
                     for f in _block_failures("dsq", (x, y), sq, t, (t,), None)]

    for x in objs:
        if not C.differential(C.identity(x)).is_zero():
            failures.append(DGFailure("unit-closed", (x,), "d(id) != 0"))

    comp = {xyz: _total_composition(C, *xyz, tot) for xyz in itertools.product(objs, repeat=3)}
    for x, y, z in itertools.product(objs, repeat=3):
        g, f, h = tot[y, z], tot[x, y], tot[x, z]
        diffs = leibniz_mismatches(h, g, f, comp[x, y, z])
        failures += _block_failures("leibniz", (x, y, z), diffs, h, (g, f),
                                    lambda p, q: _observable(h.cx, p + q))
    for x, y, z, w in itertools.product(objs, repeat=4):
        mid_l, mid_r, f = tot[y, w].cx, tot[x, z].cx, tot[x, y]
        lhs = mul_kron(comp[x, y, w], comp[y, z, w], f.rank)
        rhs = mul_kron(comp[x, z, w], tot[z, w].rank, comp[x, y, z])
        failures += _block_failures(
            "assoc", (x, y, z, w), differing_entries(lhs, rhs), tot[x, w],
            (tot[z, w], tot[y, z], f),
            lambda p, q, r: _observable(mid_l, p + q) and _observable(mid_r, q + r))

    # the unit of x as one column on the flat total of Hom(x, x)
    units = {x: Matrix.column(C.ring, [C.identity(x).vector[i] if n == 0 else 0
                                       for n, i in tot[x, x].coords]) for x in objs}
    for (x, y), t in tot.items():
        eye = Matrix.identity(C.ring, t.rank)
        left = differing_entries(mul_kron(comp[x, y, y], units[y], t.rank), eye)
        right = differing_entries(mul_kron(comp[x, x, y], t.rank, units[x]), eye)
        failures += sorted(_block_failures("unit-left", (x, y), left, t, (t,), None)
                           + _block_failures("unit-right", (x, y), right, t, (t,), None),
                           key=lambda fail: fail.where[2])
    return DGReport(ok=not failures, failures=tuple(failures))


# ---------------------------------------------------------------------------
# Truncation and the homotopy category.


def _restricted_category(C, objects, carrier, bases, unit, name):
    """The category on `objects` whose Hom(x, y) is the subcomplex of
    C.hom(carrier(x), carrier(y)) spanned by bases(x, y), a dict from
    degree to basis columns that d preserves.  Composition is C's read
    along the bases, restrict(B_xz, M (B_yz (x) B_xy)) with M the
    composition matrix of C on the carriers, and the unit of x is the
    coordinates of unit(x), a degree-0 vector on carrier(x).

    Returns the category and the lookup of the bases, computed once per
    pair.  The closures hold C and that cache, never the category, so
    reference counting alone frees it."""
    cache = {}

    def basis(x, y):
        if (x, y) not in cache:
            cache[(x, y)] = bases(x, y)
        return cache[(x, y)]

    def comp_fn(x, y, z, p, q):
        mat = C.comp_matrix(carrier(x), carrier(y), carrier(z), p, q)
        mat = mul_kron(mat, basis(y, z)[p], basis(x, y)[q])
        return restrict(basis(x, z)[p + q], mat, "the restricted composition")

    cat = DGCategory(
        C.ring, objects, lambda x, y: subcomplex(C.hom(carrier(x), carrier(y)), basis(x, y)),
        comp_fn=comp_fn,
        id_fn=lambda x: restrict_vector(basis(x, x)[0], unit(x), "the identity"),
        name=name,
    )
    return cat, basis


def truncate_nonpositive(C):
    """The canonical non-positive truncation: degrees below zero are kept,
    degree 0 becomes the kernel of d^0, positive degrees are dropped.
    Composition is restricted along the kernel embeddings; closed elements
    compose to closed elements, so the restriction always solves."""

    def bases(x, y):
        cx = C.hom(x, y)
        return {n: kernel(cx.d(0)) if n == 0 else Matrix.identity(C.ring, cx.rank(n))
                for n in range(min(cx.lo, 0), 1)}

    return _restricted_category(
        C, C.objects, lambda x: x, bases, lambda x: C.identity(x).vector,
        "tau<=0(%s)" % (C.name or "?"),
    )[0]


@dataclass(eq=False)
class H0Category:
    """H^0 of a DG category: cycle bases, boundary lattices in cycle
    coordinates, and composition descended to cycle representatives."""

    ring: str
    objects: tuple
    cycles: dict
    boundaries: dict
    groups: dict
    comp: dict
    ident: dict

    def hom_group(self, x, y):
        return self.groups[(x, y)]

    def same_class(self, x, y, u, v):
        if not len(u) == len(v) == self.boundaries[(x, y)].nrows:
            raise ValueError("coordinate length mismatch")
        diff = [a - b for a, b in zip(u, v)]
        return solve_vector(self.boundaries[(x, y)], diff) is not None

    def is_invertible(self, x, y, fvec):
        """Two-sided invertibility of a cycle class, decided by one linear
        solve for the inverse together with boundary slack."""
        ring = self.ring
        fcol = Matrix.column(ring, list(fvec))
        rg = self.cycles[(y, x)].ncols
        m1 = mul_kron(self.comp[(x, y, x)], rg, fcol)
        m2 = mul_kron(self.comp[(y, x, y)], fcol, rg)
        bxx = self.boundaries[(x, x)]
        byy = self.boundaries[(y, y)]
        lhs = block_matrix(ring, [[m1, bxx, None], [m2, None, byy]])
        rhs = Matrix.column(ring, list(self.ident[x]) + list(self.ident[y]))
        return solve(lhs, rhs) is not None

    def iso_exists(self, x, y, bound=1):
        """True when the search finds an isomorphism x -> y; False when
        there is provably none; NOT_FOUND_WITHIN_BOUND, also falsy, when the
        search ran out.  It tries the cycle coordinates in [-bound, bound]
        for a cycle basis of rank at most 6, the signed unit vectors above
        that.  Proofs: with no cycles the only candidate is 0, and an
        isomorphism makes the H^0 groups Hom(x, y), End(x) and End(y)
        isomorphic (composing with it is a bijection).  Only tests set
        `bound`: a search too small to finish, NOT_FOUND_WITHIN_BOUND."""
        if x == y:
            return True
        r = self.cycles[(x, y)].ncols
        if r == 0:
            # the only candidate is 0, an isomorphism between zero objects only
            return self.groups[(x, x)].is_zero() and self.groups[(y, y)].is_zero()
        if not self.groups[(x, y)] == self.groups[(x, x)] == self.groups[(y, y)]:
            return False
        if r <= 6:
            candidates = itertools.product(range(-bound, bound + 1), repeat=r)
        else:
            candidates = (tuple(s if k == i else 0 for k in range(r))
                          for i in range(r) for s in (1, -1))
        if any(any(coords) and self.is_invertible(x, y, coords) for coords in candidates):
            return True
        return NOT_FOUND_WITHIN_BOUND


class _NotFoundWithinBound:
    """The result of a bounded search that ran out: falsy like "no", but
    no proof that nothing exists."""

    __slots__ = ()

    def __bool__(self):
        return False

    def __repr__(self):
        return "NOT_FOUND_WITHIN_BOUND"


NOT_FOUND_WITHIN_BOUND = _NotFoundWithinBound()


def homotopy_category(C):
    """H^0 of C: cycles, boundaries and groups per pair, with composition
    and units read off the Z^0 category."""
    Z, basis = _cycles(C)
    cycles = {}
    boundaries = {}
    groups = {}
    for x in C.objects:
        for y in C.objects:
            cx = C.hom(x, y)
            K = cycles[(x, y)] = basis(x, y)[0]
            boundaries[(x, y)] = restrict(K, cx.d(-1), "the boundaries")
            groups[(x, y)] = complex_homology(cx, 0)
    objs = C.objects
    comp = {(x, y, z): Z.comp_matrix(x, y, z, 0, 0) for x in objs for y in objs for z in objs}
    ident = {x: Z.identity(x).vector for x in objs}
    return H0Category(C.ring, objs, cycles, boundaries, groups, comp, ident)


def _cycles(C):
    """Z^0 of C, concentrated in degree 0 with the kernels of d^0 as bases,
    and the lookup of those bases."""
    return _restricted_category(
        C, C.objects, lambda x: x, lambda x, y: {0: kernel(C.hom(x, y).d(0))},
        lambda x: C.identity(x).vector, "Z0(%s)" % (C.name or "?"),
    )


def cycles_category(C):
    """Z^0 of a DG category, returned as a DG category concentrated in
    degree 0 so the same law checker applies."""
    return _cycles(C)[0]


# ---------------------------------------------------------------------------
# Functors and the homotopy-equivalence report.


@dataclass(eq=False)
class DGFunctor:
    source: DGCategory
    target: DGCategory
    obj_map: dict
    mor_maps: dict  # (x, y) -> ChainMap between the Hom complexes


@dataclass(frozen=True)
class FunctorReport:
    ok: bool
    failures: tuple


def validate_functor(F):
    """Check the Hom maps, chain maps, units and composition of F over its
    source objects; a functor with no source objects fails with the law
    "objects".  A missing object or Hom map, or a Hom map between the wrong
    complexes or with a component of the wrong shape, fails under
    "object-map" or "hom-map", and then no law is checked.

    The laws are checked once per object pair or triple on the flat totals
    of `validate_dg`, with Phi_xy the Hom map as one block-diagonal matrix:
    D Phi = Phi D (chain-map) and Phi_xz M_xyz = N (Phi_yz (x) Phi_xy)
    (composition-image), M and N the total compositions of C and D, leaving
    out the composites that are not `_observable` in Hom(x, z); those
    outside the window of Hom(Fx, Fz) have no rows.  The failures come law
    by law (chain-map, unit-image, composition-image), each in the order of
    its objects and degrees, one per degree block with its first differing
    entry as the note, as in `validate_dg`."""
    C, D = F.source, F.target
    if not C.objects:
        return FunctorReport(False, (DGFailure("objects", (), "no objects"),))
    objs, fo = C.objects, F.obj_map
    pairs = list(itertools.product(objs, repeat=2))
    failures = [DGFailure("object-map", (x,), "missing") for x in objs if x not in fo]
    failures += [DGFailure("hom-map", xy, "missing") for xy in pairs if xy not in F.mor_maps]
    if failures:
        return FunctorReport(False, tuple(failures))
    for x, y in pairs:
        cmap, src, tgt = F.mor_maps[x, y], C.hom(x, y), D.hom(fo[x], fo[y])
        if cmap.source != src or cmap.target != tgt:
            failures.append(DGFailure("hom-map", (x, y), "wrong complexes"))
            continue
        failures += [DGFailure("hom-map", (x, y), "wrong shape at degree %d" % n)
                     for n, m in sorted(cmap.comps.items())
                     if (m.nrows, m.ncols) != (tgt.rank(n), src.rank(n))]
    if failures:
        return FunctorReport(False, tuple(failures))

    tot_c = {xy: flat_total(C.hom(*xy)) for xy in pairs}
    tot_d = {(fo[x], fo[y]): flat_total(D.hom(fo[x], fo[y])) for x, y in pairs}
    phi = {}
    for x, y in pairs:
        S, T = tot_c[x, y], tot_d[fo[x], fo[y]]
        phi[x, y] = P = assemble(C.ring, T.rank, S.rank, [
            (T.start[n], S.start[n], m, 1, 1)
            for n, m in F.mor_maps[x, y].comps.items() if m.nrows and m.ncols])
        failures += _block_failures("chain-map", (x, y), differing_entries(T.d * P, P * S.d),
                                    T, (S,), None)
    failures += [DGFailure("unit-image", (x,), "F(id) != id") for x in objs
                 if _apply(F.mor_maps[x, x].comp(0), C.identity(x).vector)
                 != D.identity(fo[x]).vector]
    for x, y, z in itertools.product(objs, repeat=3):
        S, T = tot_c[x, z], tot_d[fo[x], fo[z]]
        lhs = phi[x, z] * _total_composition(C, x, y, z, tot_c)
        rhs = mul_kron(_total_composition(D, fo[x], fo[y], fo[z], tot_d), phi[y, z], phi[x, y])
        failures += _block_failures("composition-image", (x, y, z), differing_entries(lhs, rhs),
                                    T, (tot_c[y, z], tot_c[x, y]),
                                    lambda p, q: _observable(S.cx, p + q))
    return FunctorReport(ok=not failures, failures=tuple(failures))


@dataclass(frozen=True)
class EquivalenceReport:
    ok: bool
    functor: FunctorReport
    hom_reports: tuple  # ((x, y), QuasiIsoReport) pairs
    missing_objects: tuple  # provably isomorphic to no image
    undecided_objects: tuple  # no isomorphism found within the search bound

    def failing_pairs(self):
        return tuple(pair for pair, rep in self.hom_reports if not rep.ok)


def dg_homotopy_equivalence_check(F):
    """Quasi-isomorphism on every Hom pair, on the degrees that the cut of
    its cone leaves exact (`is_quasi_iso`), plus H^0 essential surjectivity.

    The surjectivity search compares each target object against the images
    of the source objects inside H^0 of the target, looking for a two-sided
    inverse with cycle coordinates in {-1, 0, 1}.  The bound is fixed (the
    default of `H0Category.iso_exists`); it keeps the search exact and
    finite, at the price of missing isomorphisms with larger entries.  A
    target object is missing when no image can be isomorphic to it, and
    undecided when the search found no isomorphism without ruling one out;
    either makes the report not ok.
    """
    frep = validate_functor(F)
    if not frep.ok:
        raise ValueError("functor data fails: %s" % frep.failures[0].law)
    hom_reports = []
    ok = True
    for x in F.source.objects:
        for y in F.source.objects:
            rep = is_quasi_iso(F.mor_maps[(x, y)])
            hom_reports.append(((x, y), rep))
            ok = ok and rep.ok
    H = homotopy_category(F.target)
    missing, undecided = [], []
    images = [F.obj_map[a] for a in F.source.objects]
    for b in F.target.objects:
        verdicts = []
        for img in images:
            verdicts.append(H.iso_exists(img, b))
            if verdicts[-1]:
                break
        else:
            ok = False
            gave_up = any(v is NOT_FOUND_WITHIN_BOUND for v in verdicts)
            (undecided if gave_up else missing).append(b)
    return EquivalenceReport(ok, frep, tuple(hom_reports), tuple(missing), tuple(undecided))


# ---------------------------------------------------------------------------
# Tensor data over a DG category.


@dataclass(eq=False)
class TensorDGData:
    """A DG category with a strict monoidal structure on object keys.

    `obj_tensor` must be strictly associative and strictly unital on keys;
    `mor_tensor` takes the left factor first; `symmetry(x, y)` is the closed
    degree-0 element of Hom(x (x) y, y (x) x).
    """

    category: DGCategory
    unit: object
    obj_tensor: object
    mor_tensor: object
    symmetry: object


# ---------------------------------------------------------------------------
# The category of complexes as a DG category.


def complexes_category(complexes):
    """DG category with Hom the mapping complexes and plain componentwise
    composition; the Koszul signs live entirely in the Hom differential."""
    items = dict(complexes)
    if not items:
        raise ValueError("no complexes to build a category from")
    rings = {cx.ring for cx in items.values()}
    if len(rings) != 1:
        raise ValueError("all complexes must share a ring")
    ring = rings.pop()

    def hom_fn(x, y):
        return hom_complex(items[x], items[y])

    def comp_fn(x, y, z, p, q):
        return hom_composition_matrix(items[x], items[y], items[z], p, q)

    return DGCategory(
        ring, tuple(sorted(items)), hom_fn, comp_fn=comp_fn,
        id_fn=lambda x: identity_hom_vector(items[x]), name="complexes",
    )


# ---------------------------------------------------------------------------
# Co-cubical objects.


@dataclass(frozen=True, eq=False)
class CoCubicalObject:
    """A covariant assignment of host objects to cube levels.

    `cube(n)` is the object for level n with `cube(0)` the tensor unit,
    `image(f)` the degree-0 host element of a cube-category map f, and
    `delta(n)` the comultiplication at level n.  `top` bounds the levels
    the enrichment will touch.  The object is immutable, so `report` runs
    `validate_cocubical` once and keeps the result.
    """

    host: TensorDGData
    top: int
    extended: bool
    cube: object
    image: object
    delta: object
    _report: object = field(default=None, init=False, repr=False)

    def report(self):
        if self._report is None:
            object.__setattr__(self, "_report", validate_cocubical(self))
        return self._report


@dataclass(frozen=True)
class CoCubicalReport:
    """The verdict on the cube levels 0..checked_upto only; it claims
    nothing about the levels above, up to the object's top."""

    ok: bool
    failures: tuple
    checked_upto: int


def validate_cocubical(Q, bound=None):
    """Functoriality on the generated morphism closure plus the four
    comultiplication axioms, each reported under its own name.

    The closure walk is exact but exponential in the level bound, so the
    default stops at 3 without merges and 2 with them, and the report
    names the level it stopped at; the table-driven builders below are
    functorial at every level by construction.  Only tests set `bound`: a
    check stopped below the default level, and a bound beyond the object.
    """
    if bound is None:
        bound = min(Q.top, 2 if Q.extended else 3)
    elif not 0 <= bound <= Q.top:
        raise ValueError("bound %d outside the levels 0..%d of the object" % (bound, Q.top))
    host = Q.host
    C = host.category
    failures = []

    def note(law, where, text):
        failures.append(DGFailure(law, where, text))

    if Q.cube(0) != host.unit:
        note("unit-object", (0,), "cube(0) is not the tensor unit")

    gens = generator_maps(bound, Q.extended)
    images = {token: Q.image(g) for token, g in gens.items()}
    deltas = [Q.delta(n) for n in range(bound + 1)]
    table = {}
    for n in range(bound + 1):
        f = identity_map(n)
        table[f] = C.identity(Q.cube(n))
        if Q.image(f).vector != table[f].vector:
            note("functoriality", (n, n), "image of the identity is not the identity")
    for f, token, h, new in closure_walk(bound, Q.extended):
        cand = C.compose(images[token], table[f])
        if new:
            table[h] = cand
            if Q.image(h).vector != cand.vector:
                note(
                    "functoriality", (h.dom, h.cod),
                    "direct image disagrees with a factorization through %s" % token,
                )
        elif table[h].vector != cand.vector:
            note(
                "functoriality", (h.dom, h.cod),
                "two factorizations of the same map disagree at %s" % token,
            )

    if deltas[0].vector != C.identity(host.unit).vector:
        note("co-unital", (0,), "delta(0) is not the unit identity")
    for n, dn in enumerate(deltas):
        cn = Q.cube(n)
        idc = C.identity(cn)
        lhs = C.compose(host.mor_tensor(dn, idc), dn)
        rhs = C.compose(host.mor_tensor(idc, dn), dn)
        if lhs != rhs:
            note("co-associative", (n,), "the two iterates differ")
        tw = C.compose(host.symmetry(cn, cn), dn)
        if tw != dn:
            note("symmetric", (n,), "twist changes delta")
    for token, g in gens.items():
        u = images[token]
        lhs = C.compose(deltas[g.cod], u)
        rhs = C.compose(host.mor_tensor(u, u), deltas[g.dom])
        if lhs != rhs:
            note("co-cubical", (g.dom, g.cod), "delta is not natural for %s" % token)
    return CoCubicalReport(ok=not failures, failures=tuple(failures), checked_upto=bound)


# ---------------------------------------------------------------------------
# The free-module host that both hosts are built on.


def _row_major_product(nx, ny, nz, gvec, fvec):
    """g . f for g: ny -> nz and f: nx -> ny stored as row-major matrices."""
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


def _host_rank(host, v):
    """The rank of a free-module host object, read against the unit."""
    return host.category.hom(v, host.unit).rank(0)


def _side_by_side(M, n):
    """Each column of M read row-major as an n-column matrix, the matrices
    side by side: the inverse of `blocks_as_columns`."""
    return blocks_as_columns(M.transpose(), n).transpose()


def _precomposition(host, k, u):
    """The matrix of g -> g . (id (x) u) on the maps out of an object of
    rank k tensored with u.target: I_k (x) U^T, U the image matrix of u,
    as g is row-major (Van Loan 2000)."""
    col = _columns_to_matrix(host.category.ring, len(u.vector), [u.vector])
    ut = blocks_as_columns(col.transpose(), _host_rank(host, u.source))
    return assemble(host.category.ring, k * ut.nrows, k * ut.ncols, [(0, 0, k, ut, 1)])


def _free_module_host(ring, objects, rank, obj_tensor, unit, name):
    """Tensor data with Hom(x, y) free of rank rank(x) * rank(y) in degree 0,
    maps stored as row-major matrices.  The basis of x (x) y must be pairs
    in row-major order: `mor_tensor` is then `kron`, `symmetry` the swap."""

    def hom_fn(x, y):
        return single_complex(ring, 0, rank(x) * rank(y))

    def comp_fn(x, y, z, p, q):
        return hom_composition_matrix(*(single_complex(ring, 0, rank(v)) for v in (x, y, z)), p, q)

    def comp_vec(x, y, z, p, q, gvec, fvec):
        return _row_major_product(rank(x), rank(y), rank(z), gvec, fvec)

    cat = DGCategory(ring, objects, hom_fn, comp_fn=comp_fn, comp_vec_fn=comp_vec,
                     id_fn=lambda x: tuple(int(i == j) for i in range(rank(x))
                                           for j in range(rank(x))), name=name)

    def mor_tensor(f, g):
        """f (x) g written straight from the two row-major vectors in the
        order of `Matrix.kron`: a zero block for each zero entry of f, and
        the products kept as they come (int * int stays int)."""
        if f.degree or g.degree:
            raise ValueError("free-module maps are concentrated in degree 0")
        a, b, c, d = rank(f.source), rank(f.target), rank(g.source), rank(g.target)
        fv, gv = f.vector, g.vector
        if len(fv) != a * b or len(gv) != c * d:
            raise ValueError("coordinate length mismatch")
        grows = [gv[k * c : (k + 1) * c] for k in range(d)]
        blank = (0,) * c
        out = []
        for i in range(b):
            frow = fv[i * a : (i + 1) * a]
            for grow in grows:
                for v in frow:
                    out.extend([v * w for w in grow] if v else blank)
        return HomElement(obj_tensor(f.source, g.source), obj_tensor(f.target, g.target),
                          0, tuple(out))

    def symmetry(x, y):
        a, b = rank(x), rank(y)
        n = a * b
        vec = [0] * (n * n)
        for ia in range(a):
            for ib in range(b):
                vec[(ib * a + ia) * n + (ia * b + ib)] = 1
        return HomElement(obj_tensor(x, y), obj_tensor(y, x), 0, tuple(vec))

    return TensorDGData(cat, unit, obj_tensor, mor_tensor, symmetry)


# ---------------------------------------------------------------------------
# Host 1: the finite-correspondence toy.


def fincor_elements(key):
    """Points of a tuple-of-finite-sets object, lexicographically."""
    return tuple(itertools.product(*key))


def _fincor_rank(key):
    n = 1
    for s in key:
        n *= len(s)
    return n


def fincor_vector(X, Y, pairs):
    """Element of Hom(X, Y) from (point of X, point of Y, coefficient)
    triples; basis order is (target point, source point) row-major."""
    ex, ey = fincor_elements(X), fincor_elements(Y)
    ix = {v: i for i, v in enumerate(ex)}
    iy = {v: i for i, v in enumerate(ey)}
    vec = [0] * (len(ex) * len(ey))
    for px, py, c in pairs:
        vec[iy[tuple(py)] * len(ex) + ix[tuple(px)]] += c
    return tuple(vec)


def fincor_matrix(elem):
    """Incidence matrix of a degree-0 correspondence, targets indexing rows."""
    nx = _fincor_rank(elem.source)
    ny = _fincor_rank(elem.target)
    rows = [list(elem.vector[r * nx : (r + 1) * nx]) for r in range(ny)]
    return rows


def graph_vector(X, Y, fn):
    """The graph of a point map as a correspondence."""
    return fincor_vector(X, Y, [(p, fn[p], 1) for p in fincor_elements(X)])


def build_fincor(universe, ring, top):
    """Finite sets and correspondences, with every cube equal to the unit.

    Objects are tuples of the universe's atomic sets, the tensor product is
    concatenation (so it is strictly associative and unital on keys), and
    Hom(X, Y) is the free module on points of X x Y composed by incidence
    matrix product; points are enumerated lexicographically, so tensors
    are Kronecker products.  A correspondence on X x cube^n that is a
    disjoint union of graphs of maps surjective onto components is forced
    to be constant in the cube directions, which collapses every cube
    object to the unit and every structure map and the comultiplication to
    the identity; the enrichment below then shows the collapse explicitly.
    """
    universe = tuple(tuple(s) for s in universe)
    objects = ((),) + tuple((s,) for s in universe)
    host = _free_module_host(ring, objects, _fincor_rank, lambda a, b: a + b, (),
                             "fincor/%s" % ring)
    unit_id = host.category.identity(())
    cocube = CoCubicalObject(
        host, top, True,
        cube=lambda n: (),
        image=lambda f: unit_id,
        delta=lambda n: unit_id,
    )
    return host, cocube


# ---------------------------------------------------------------------------
# Host 2: free modules with vertex-spanned cubes.


def build_vertex_cubes(ring, top, objects=(1, 2)):
    """Free modules of listed ranks; cube^n is the free module on the cube
    vertices, structure maps act by the vertex tables, and delta is the
    linear extension of the diagonal.  Unlike the correspondence toy this
    host gives the enrichment honest differentials: the level-n Hom is the
    module of vertex functions with values in Hom(X, Y)."""
    host = _free_module_host(ring, tuple(objects), int, lambda a, b: a * b, 1,
                             "freemod/%s" % ring)

    def image(f):
        dom, cod = 2 ** f.dom, 2 ** f.cod
        idx = vertex_index(f.cod)
        vec = [0] * (dom * cod)
        for col, v in enumerate(f.table):
            vec[idx[v] * dom + col] = 1
        return HomElement(dom, cod, 0, tuple(vec))

    def delta(n):
        dom = 2 ** n
        vec = [0] * (dom * dom * dom)
        for u in range(dom):
            vec[(u * dom + u) * dom + u] = 1
        return HomElement(dom, dom * dom, 0, tuple(vec))

    cocube = CoCubicalObject(host, top, True,
                             cube=lambda n: 2 ** n, image=image, delta=delta)
    return host, cocube


# ---------------------------------------------------------------------------
# The cubical enrichment.


class _CubicalLevels:
    """The level data of a cubical enrichment: per Hom pair the cubical
    group, its reduced model and the projectors along the degenerate
    splitting, and the composition read from them.  All are matrices over
    the row-major free-module host, the only host that `build_fincor` and
    `build_vertex_cubes` make: an action is a `_precomposition` matrix, and
    composition is one sparse product of the model columns.

    The enriched category's closures hold this object and it refers to
    neither the category nor the enrichment, so reference counting frees
    all three (as `sheaf._RGammaData` does for the global-sections
    category).  A subclass with another level model overrides `model` and
    `project` together.
    """

    def __init__(self, host, cocube):
        self.host = host
        self.cocube = cocube
        self._groups = {}
        self._models = {}
        self._projectors = {}
        self._deltas = {}

    def level_object(self, x, n):
        return self.host.obj_tensor(x, self.cocube.cube(n))

    def group(self, x, y):
        """n -> Hom(x (x) cube^n, y), with f acting by precomposition with
        id_x (x) image(f).  The action closure must not hold `self`: the
        group sits in `self._groups`."""
        key = (x, y)
        if key not in self._groups:
            host, Q = self.host, self.cocube
            C = host.category
            k = _host_rank(host, x) * _host_rank(host, y)

            def act(f):
                return _precomposition(host, k, Q.image(f))

            ranks = [C.hom(self.level_object(x, n), y).rank(0) for n in range(Q.top + 1)]
            self._groups[key] = CubicalAbelianGroup(
                C.ring, Q.top, ranks, act, extended=Q.extended, name="Hom(%r, %r)" % (x, y),
            )
        return self._groups[key]

    def model(self, x, y):
        key = (x, y)
        if key not in self._models:
            self._models[key] = associated_complex(self.group(x, y), "reduced")
        return self._models[key]

    def project(self, x, y, n, mat):
        """Model coordinates of the level-n columns of mat, projected along
        the degenerate splitting: the one product K * mat.  The projector K
        in the model basis is solved for once per level, with the check
        that it fixes the model basis."""
        key = (x, y, n)
        if key not in self._projectors:
            R = self.model(x, y).level_basis[n]
            K = restrict(R, degenerate_projector(self.group(x, y), n), "the projection")
            if K * R != Matrix.identity(R.ring, R.ncols):
                raise ValueError("the projection does not fix the model at level %d" % n)
            self._projectors[key] = K
        return canonical(self._projectors[key] * mat)

    def hom(self, x, y):
        return self.model(x, y).complex

    def identity(self, x):
        return restrict_vector(
            self.model(x, x).level_basis[0], self.host.category.identity(x).vector,
            "the identity",
        )

    def embed(self, f):
        """Full-level host element behind a model coordinate vector."""
        n = -f.degree
        basis = self.model(f.source, f.target).level_basis[n]
        return self.host.category.element(
            self.level_object(f.source, n), f.target, 0, _apply(basis, f.vector)
        )

    def composition(self, x, y, z, p, q):
        """Compose on the full level n = -(p + q), then `project` back to
        model coordinates, as one sparse product in the host's ring.  The
        model columns moved to level n are the maps g_i: y (x) cube^n -> z
        and f_j: x (x) cube^n -> y.  With F the f_j side by side and Delta
        the matrix of delta_n, W = (F (x) I) (I (x) Delta) holds the maps
        w_j = (f_j (x) id) . (id_x (x) delta_n) side by side; with G the g_i
        side by side, G (I (x) W) holds g_i . w_j as block (i, j), g outer as
        in `comp_matrix`, and `blocks_as_columns` makes the blocks the raw
        columns."""
        b, a = -p, -q
        n = a + b
        ring = self.host.category.ring
        nx, ny, c = (_host_rank(self.host, v) for v in (x, y, self.cocube.cube(n)))
        G = self.group(y, z).act(front_projection(b, a)) * self.model(y, z).level_basis[b]
        F = self.group(x, y).act(back_projection(b, a)) * self.model(x, y).level_basis[a]
        if n not in self._deltas:
            vec = self.cocube.delta(n).vector
            self._deltas[n] = _side_by_side(_columns_to_matrix(ring, c ** 3, [vec]), c)
        fh = _side_by_side(F, nx * c)
        W = mul_kron(assemble(ring, ny * c, fh.ncols * c, [(0, 0, fh, c, 1)]), F.ncols * nx,
                     self._deltas[n])
        raw = blocks_as_columns(mul_kron(_side_by_side(G, ny * c), G.ncols, W), nx * c)
        return self.project(x, z, n, raw)


class CubicalEnrichment:
    """Hom(X, Y)^(-n) = Hom_C(X (x) cube^n, Y) with the degenerate part
    split off, composition by cube duplication after the cup pairing.

    The stored model of each Hom complex is the intersection of the level's
    one-valued face kernels; composition is computed on the full levels and
    projected back along the splitting, which is legitimate because the
    degenerate part is an ideal for the pairing.  The level data lives in
    `levels`, an instance of `_level_type`, which the category holds.
    """

    _level_type = _CubicalLevels

    def __init__(self, host, cocube, objects=None, name=""):
        rep = cocube.report()
        if not rep.ok:
            raise ValueError("comultiplication axiom failed: %s" % rep.failures[0].law)
        self.host = host
        self.cocube = cocube
        objs = tuple(objects) if objects is not None else host.category.objects
        for x in objs:
            for y in objs:
                cx = host.category.hom(x, y)
                if any(cx.rank(n) for n in cx.degrees() if n != 0):
                    raise ValueError("host morphisms must be concentrated in degree 0")
        self.levels = levels = self._level_type(host, cocube)
        self.category = DGCategory(
            host.category.ring, objs, hom_fn=levels.hom, comp_fn=levels.composition,
            id_fn=levels.identity, name=name or "enriched(%s)" % (host.category.name or "?"),
        )

    def group(self, x, y):
        return self.levels.group(x, y)

    def model(self, x, y):
        return self.levels.model(x, y)

    def degree0_iso(self, x, y):
        """Matrix identifying the host Hom module with the degree-0 part of
        the enriched Hom; the reduced basis at level 0 is the whole level,
        so this is the recorded change of basis (the identity)."""
        return self.model(x, y).level_basis[0]


def cubical_enrichment(host, cocube, objects=None):
    return CubicalEnrichment(host, cocube, objects=objects)


# ---------------------------------------------------------------------------
# The alternating enrichment.


class _AlternatingLevels(_CubicalLevels):
    """Level data with the sign-isotypic subcomplexes of the full levels as
    the model: the sign average takes the place of the degenerate splitting
    in composition, and also folds into the box tensor product."""

    def model(self, x, y):
        key = (x, y)
        if key not in self._models:
            self._models[key] = alternating_complex(self.group(x, y), group="F", variant="full")
        return self._models[key]

    def project(self, x, y, n, mat):
        """Coordinates of the sign average of the level-n columns of mat in
        the signed orbit sums that span the model."""
        return canonical(sign_coordinates(self.model(x, y).level_basis[n], mat))

    def symmetry(self, x, y):
        t = self.host.symmetry(x, y)
        xy = self.host.obj_tensor(x, y)
        yx = self.host.obj_tensor(y, x)
        coords = restrict_vector(self.model(xy, yx).level_basis[0], t.vector, "the symmetry")
        return HomElement(xy, yx, 0, coords)

    def box_tensor(self, f, g):
        """f box g: split the cube, swap the middle factors, tensor in the
        host, then average over the signed symmetries of the big cube.  That
        average is precomposition with id (x) (sign average of the cube
        images), which is the sign average of level N of Hom(xx, yy)."""
        host, Q = self.host, self.cocube
        C = host.category
        n, n2 = -f.degree, -g.degree
        N = n + n2
        xx = host.obj_tensor(f.source, g.source)
        yy = host.obj_tensor(f.target, g.target)
        degree = f.degree + g.degree
        if n < 0 or n2 < 0 or N > Q.top:
            return HomElement(xx, yy, degree, (0,) * self.hom(xx, yy).rank(degree))
        split = C.compose(
            host.mor_tensor(
                Q.image(front_projection(n, n2)), Q.image(back_projection(n, n2))
            ),
            Q.delta(N),
        )
        mid = host.mor_tensor(
            host.mor_tensor(C.identity(f.source), host.symmetry(g.source, Q.cube(n))),
            C.identity(Q.cube(n2)),
        )
        pre = C.compose(mid, host.mor_tensor(C.identity(xx), split))
        tilde = C.compose(host.mor_tensor(self.embed(f), self.embed(g)), pre)
        B = self.model(xx, yy).level_basis[N]
        coords = sign_coordinates(B, Matrix.column(C.ring, tilde.vector))
        return HomElement(xx, yy, degree, _exact_vector(C.ring, coords.col(0)))


class AlternatingEnrichment(CubicalEnrichment):
    """The cubical enrichment on `_AlternatingLevels`, with the box tensor
    product as `tensor`."""

    _level_type = _AlternatingLevels

    def __init__(self, host, cocube):
        if host.category.ring != "Q":
            raise ValueError("the alternating enrichment needs rational coefficients")
        if not cocube.extended:
            raise ValueError("the alternating enrichment needs the extended cube maps")
        super().__init__(host, cocube, name="alt(%s)" % (host.category.name or "?"))
        self.tensor = TensorDGData(
            self.category, host.unit, host.obj_tensor,
            self.levels.box_tensor, self.levels.symmetry,
        )


def alternating_enrichment(host, cocube):
    return AlternatingEnrichment(host, cocube)


def _levelwise_functor(src_enr, tgt_enr):
    """Identity on objects; on level n of each Hom pair, the source model's
    basis projected by the target, in target model coordinates."""
    if src_enr.host is not tgt_enr.host or src_enr.cocube is not tgt_enr.cocube:
        raise ValueError("the two enrichments must come from the same host and co-cubical object")
    src, tgt = src_enr.category, tgt_enr.category
    mor_maps = {}
    for x in src.objects:
        for y in src.objects:
            basis = src_enr.model(x, y).level_basis
            comps = {-n: tgt_enr.levels.project(x, y, n, basis[n])
                     for n in range(tgt_enr.cocube.top + 1)}
            mor_maps[(x, y)] = make_chain_map(src.hom(x, y), tgt.hom(x, y), comps)
    return DGFunctor(src, tgt, {x: x for x in src.objects}, mor_maps)


def alternating_inclusion_functor(alt_enr, enr):
    """The comparison map from the alternating enrichment to the reduced
    model of the plain one: embed the sign part into the full level, then
    project along the degenerate splitting.

    This is a chain map on every Hom pair, but strict compatibility with
    composition can genuinely fail: two sign-isotypic elements may compose,
    in the reduced model, to something the sign average kills (the sign
    character is absent from most level representations above 1, so the
    alternating side records 0).  `validate_functor` reports exactly where.
    The strict functor between the two enrichments is the projection below.
    """
    return _levelwise_functor(alt_enr, enr)


def alternating_projection_functor(enr, alt_enr):
    """The sign average as a strict DG functor from the reduced model onto
    the alternating enrichment.

    Strictness comes from an ideal property: precomposing with a signed
    symmetry moves across the pairing as a block symmetry of the composite
    level, so the kernel of the average is an ideal and the projected
    composition agrees with composing the projections.
    """
    return _levelwise_functor(enr, alt_enr)


# ---------------------------------------------------------------------------
# The tensor action of the host on its enrichment.


class TensorAction:
    """A (x) - for host objects A, acting on the enriched category.

    The integral enrichment has no full tensor structure (the cube factors
    of a doubly-enriched product come out in the wrong order), but tensoring
    with a plain degree-0 host morphism on the left is a DG functor.
    """

    def __init__(self, host, enr):
        if enr.host is not host:
            raise ValueError("the enrichment must come from the same host")
        self.host = host
        self.enr = enr

    def act_on(self, a, f):
        """a (x) f for a host degree-0 element a and an enriched element f."""
        if a.degree != 0:
            raise ValueError("the action takes degree-0 host elements")
        host, enr = self.host, self.enr
        n = -f.degree
        res = host.mor_tensor(a, enr.levels.embed(f))
        sx = host.obj_tensor(a.source, f.source)
        tx = host.obj_tensor(a.target, f.target)
        coords = restrict_vector(enr.model(sx, tx).level_basis[n], res.vector, "the action")
        return enr.category.element(sx, tx, f.degree, coords)

    def functor(self, A):
        """The DG endofunctor A (x) -, with components assembled columnwise."""
        enr = self.enr
        ida = self.host.category.identity(A)
        obj_map = {x: self.host.obj_tensor(A, x) for x in enr.category.objects}
        mor_maps = {}
        for x in enr.category.objects:
            for y in enr.category.objects:
                src = enr.category.hom(x, y)
                tgt = enr.category.hom(obj_map[x], obj_map[y])
                comps = {}
                for deg in src.degrees():
                    cols = [
                        self.act_on(ida, f).vector for f in enr.category.basis(x, y, deg)
                    ]
                    comps[deg] = _columns_to_matrix(src.ring, tgt.rank(deg), cols)
                mor_maps[(x, y)] = make_chain_map(src, tgt, comps)
        return DGFunctor(enr.category, enr.category, obj_map, mor_maps)


def tensor_action(host, enr):
    return TensorAction(host, enr)
