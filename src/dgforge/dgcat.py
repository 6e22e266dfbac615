"""Finite DG categories with exact structure-constant composition.

A category here is a finite object list, a Hom chain complex per ordered
pair, and one composition matrix per degree pair acting on Kronecker
coordinate vectors.  Everything is checked as an exact matrix identity:
the Leibniz rule, associativity, the unit laws, and later the enrichment
laws are all statements of the form "these two integer (or rational)
matrices are equal", so a law either holds on the nose or fails with a
coordinate witness.

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
precomposition with w is the matrix I (x) W^T, written from w's entries.
`AlternatingEnrichment` is the same construction with another level
model: its level data
overrides only `model` (the sign-isotypic subcomplex, with the signed
orbit sums as basis) and `project` (the coordinates of the sign average,
read from those sums), and adds the box tensor product.  The level data is
an object of its own that never refers to the enriched category, so an
enrichment and its category are freed by reference counting.
"""

import itertools
from dataclasses import dataclass

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
    complex_homology,
    is_quasi_iso,
    hom_complex,
    hom_compose_vec,
    identity_hom_vector,
    kernel,
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

    Pass `comp_fn(x, y, z, p, q)` when composition is natively a matrix,
    as in every category built on a base (it composes with the base's
    matrices, and twisted complexes assemble theirs block by block).
    Pass `comp_vec_fn(x, y, z, p, q, gvec, fvec)` when it is natively a
    formula on coordinate vectors (mapping complexes and the free-module
    host): `compose` then uses it directly until the matrix is asked for,
    and the matrix is assembled from it one pair of basis vectors at a time.
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
        rows = self.hom(x, z).rank(p + q)
        cols = self.hom(y, z).rank(p) * self.hom(x, y).rank(q)
        if rows == 0 or cols == 0:
            return Matrix.zero(self.ring, rows, cols)
        key = (x, y, z, p, q)
        if key not in self._comp:
            mat = (self._comp_fn or self._assemble_comp)(x, y, z, p, q)
            if mat.nrows != rows or mat.ncols != cols:
                raise ValueError("composition matrix shape mismatch at %r" % (key,))
            self._comp[key] = mat
        return self._comp[key]

    def _assemble_comp(self, x, y, z, p, q):
        if self._comp_vec_fn is None:
            raise ValueError("no composition data for (%r, %r, %r)" % (x, y, z))
        rg = self.hom(y, z).rank(p)
        rf = self.hom(x, y).rank(q)
        rows = self.hom(x, z).rank(p + q)
        cols = []
        for i in range(rg):
            gvec = tuple(1 if k == i else 0 for k in range(rg))
            for j in range(rf):
                fvec = tuple(1 if k == j else 0 for k in range(rf))
                cols.append(self._comp_vec_fn(x, y, z, p, q, gvec, fvec))
        return _columns_to_matrix(self.ring, rows, cols)

    def identity(self, x):
        if x not in self._id:
            vec = tuple(self._id_fn(x))
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


def _first_diff(a, b):
    for i in range(a.nrows):
        for j in range(a.ncols):
            if a.rows[i][j] != b.rows[i][j]:
                return "entry (%d, %d): %s != %s" % (i, j, a.rows[i][j], b.rows[i][j])
    return "equal"


def _ranked_degrees(cx):
    return [n for n in cx.degrees() if cx.rank(n)]


def validate_dg(C):
    """Check d^2, closed units, the Leibniz rule, associativity and the unit
    laws over the listed objects; every violation is reported with its
    location and a differing matrix entry.

    Degree pairs whose composite falls below the window of the target Hom
    are skipped: the dropped composition makes the laws unobservable there,
    and the window edge is not evidence either way.
    """
    failures = []

    def mismatch(law, where, lhs, rhs):
        if lhs != rhs:
            failures.append(DGFailure(law, where, _first_diff(lhs, rhs)))

    for x in C.objects:
        for y in C.objects:
            cx = C.hom(x, y)
            for n in cx.degrees():
                sq = cx.d(n + 1) * cx.d(n)
                if not sq.is_zero():
                    failures.append(DGFailure("dsq", (x, y, n), "d(n+1) d(n) != 0"))

    for x in C.objects:
        e = C.identity(x)
        if e.degree != 0:
            failures.append(DGFailure("unit-degree", (x,), "degree %d" % e.degree))
        if not C.differential(e).is_zero():
            failures.append(DGFailure("unit-closed", (x,), "d(id) != 0"))

    for x in C.objects:
        for y in C.objects:
            for z in C.objects:
                gz = C.hom(y, z)
                fz = C.hom(x, y)
                lo = C.hom(x, z).lo
                for p in _ranked_degrees(gz):
                    for q in _ranked_degrees(fz):
                        if p + q < lo:
                            continue
                        rq = fz.rank(q)
                        rp = gz.rank(p)
                        lhs = C.hom(x, z).d(p + q) * C.comp_matrix(x, y, z, p, q)
                        rhs = mul_kron(C.comp_matrix(x, y, z, p + 1, q), gz.d(p), rq)
                        term = mul_kron(C.comp_matrix(x, y, z, p, q + 1), rp, fz.d(q))
                        rhs = rhs + (term.scale(-1) if p % 2 else term)
                        mismatch("leibniz", (x, y, z, p, q), lhs, rhs)

    for x in C.objects:
        for y in C.objects:
            for z in C.objects:
                for w in C.objects:
                    hz = C.hom(z, w)
                    gz = C.hom(y, z)
                    fz = C.hom(x, y)
                    mid_l = C.hom(y, w)
                    mid_r = C.hom(x, z)
                    for p in _ranked_degrees(hz):
                        for q in _ranked_degrees(gz):
                            if not (mid_l.lo <= p + q <= mid_l.hi):
                                continue
                            for r in _ranked_degrees(fz):
                                if not (mid_r.lo <= q + r <= mid_r.hi):
                                    continue
                                rr = fz.rank(r)
                                rp = hz.rank(p)
                                lhs = mul_kron(
                                    C.comp_matrix(x, y, w, p + q, r),
                                    C.comp_matrix(y, z, w, p, q), rr,
                                )
                                rhs = mul_kron(
                                    C.comp_matrix(x, z, w, p, q + r),
                                    rp, C.comp_matrix(x, y, z, q, r),
                                )
                                mismatch("assoc", (x, y, z, w, p, q, r), lhs, rhs)

    for x in C.objects:
        for y in C.objects:
            fz = C.hom(x, y)
            idy = Matrix.column(C.ring, list(C.identity(y).vector))
            idx = Matrix.column(C.ring, list(C.identity(x).vector))
            for q in _ranked_degrees(fz):
                rq = fz.rank(q)
                eye = Matrix.identity(C.ring, rq)
                mismatch(
                    "unit-left", (x, y, q),
                    mul_kron(C.comp_matrix(x, y, y, 0, q), idy, rq), eye,
                )
                mismatch(
                    "unit-right", (x, y, q),
                    mul_kron(C.comp_matrix(x, x, y, q, 0), rq, idx), eye,
                )

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

    def compose(self, x, y, z, gvec, fvec):
        return _apply(self.comp[(x, y, z)], _kron_vec(gvec, fvec))

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
        top = m1.hstack(bxx).hstack(Matrix.zero(ring, m1.nrows, byy.ncols))
        bot = m2.hstack(Matrix.zero(ring, m2.nrows, bxx.ncols)).hstack(byy)
        lhs = top.vstack(bot)
        rhs = Matrix.column(ring, list(self.ident[x]) + list(self.ident[y]))
        return solve(lhs, rhs) is not None

    def iso_exists(self, x, y, bound=1):
        if x == y:
            return True
        r = self.cycles[(x, y)].ncols
        if r == 0:
            # the only candidate is 0, an isomorphism between zero objects only
            return self.groups[(x, x)].is_zero() and self.groups[(y, y)].is_zero()
        if r <= 6:
            values = range(-bound, bound + 1)
            for coords in itertools.product(values, repeat=r):
                if any(coords) and self.is_invertible(x, y, coords):
                    return True
            return False
        for i in range(r):
            for s in (1, -1):
                coords = tuple(s if k == i else 0 for k in range(r))
                if self.is_invertible(x, y, coords):
                    return True
        return False


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
    C, D = F.source, F.target
    failures = [DGFailure("object-map", (x,), "missing") for x in C.objects if x not in F.obj_map]
    failures += [
        DGFailure("hom-map", (x, y), "missing")
        for x in C.objects for y in C.objects if (x, y) not in F.mor_maps
    ]
    if failures:
        return FunctorReport(False, tuple(failures))
    for x in C.objects:
        for y in C.objects:
            cmap = F.mor_maps[(x, y)]
            src = C.hom(x, y)
            tgt = D.hom(F.obj_map[x], F.obj_map[y])
            if cmap.source != src or cmap.target != tgt:
                failures.append(DGFailure("hom-map", (x, y), "wrong complexes"))
                continue
            for n in src.degrees():
                lhs = tgt.d(n) * cmap.comp(n)
                rhs = cmap.comp(n + 1) * src.d(n)
                if lhs != rhs:
                    failures.append(DGFailure("chain-map", (x, y, n), _first_diff(lhs, rhs)))
    for x in C.objects:
        e = C.identity(x)
        img = _apply(F.mor_maps[(x, x)].comp(0), e.vector)
        if img != D.identity(F.obj_map[x]).vector:
            failures.append(DGFailure("unit-image", (x,), "F(id) != id"))
    for x in C.objects:
        for y in C.objects:
            for z in C.objects:
                fx, fy, fz = F.obj_map[x], F.obj_map[y], F.obj_map[z]
                tgt = D.hom(fx, fz)
                gz = C.hom(y, z)
                fzc = C.hom(x, y)
                for p in _ranked_degrees(gz):
                    for q in _ranked_degrees(fzc):
                        if not (tgt.lo <= p + q <= tgt.hi):
                            continue
                        if not (C.hom(x, z).lo <= p + q <= C.hom(x, z).hi):
                            continue
                        lhs = F.mor_maps[(x, z)].comp(p + q) * C.comp_matrix(x, y, z, p, q)
                        rhs = mul_kron(
                            D.comp_matrix(fx, fy, fz, p, q),
                            F.mor_maps[(y, z)].comp(p), F.mor_maps[(x, y)].comp(q),
                        )
                        if lhs != rhs:
                            failures.append(
                                DGFailure("composition-image", (x, y, z, p, q), _first_diff(lhs, rhs))
                            )
    return FunctorReport(ok=not failures, failures=tuple(failures))


@dataclass(frozen=True)
class EquivalenceReport:
    ok: bool
    functor: FunctorReport
    hom_reports: tuple  # ((x, y), QuasiIsoReport) pairs
    missing_objects: tuple

    def failing_pairs(self):
        return tuple(pair for pair, rep in self.hom_reports if not rep.ok)


def dg_homotopy_equivalence_check(F, window=None):
    """Quasi-isomorphism on every Hom pair plus H^0 essential surjectivity.

    The surjectivity search compares each target object against the images
    of the source objects inside H^0 of the target, looking for a two-sided
    inverse with cycle coordinates in {-1, 0, 1}.  The bound is fixed (the
    default of `H0Category.iso_exists`); it keeps the search exact and
    finite, at the price of missing isomorphisms with larger entries.
    """
    frep = validate_functor(F)
    if not frep.ok:
        raise ValueError("functor data fails: %s" % frep.failures[0].law)
    hom_reports = []
    ok = True
    for x in F.source.objects:
        for y in F.source.objects:
            rep = is_quasi_iso(F.mor_maps[(x, y)], window=window)
            hom_reports.append(((x, y), rep))
            ok = ok and rep.ok
    H = homotopy_category(F.target)
    missing = []
    images = [F.obj_map[a] for a in F.source.objects]
    for b in F.target.objects:
        if not any(H.iso_exists(img, b) for img in images):
            missing.append(b)
            ok = False
    return EquivalenceReport(ok, frep, tuple(hom_reports), tuple(missing))


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


def complexes_category(complexes, name="complexes"):
    """DG category with Hom the mapping complexes and plain componentwise
    composition; the Koszul signs live entirely in the Hom differential."""
    items = dict(complexes)
    rings = {cx.ring for cx in items.values()}
    if len(rings) != 1:
        raise ValueError("all complexes must share a ring")
    ring = rings.pop()

    def hom_fn(x, y):
        return hom_complex(items[x], items[y])

    def comp_vec(x, y, z, p, q, gvec, fvec):
        return hom_compose_vec(items[x], items[y], items[z], p, gvec, q, fvec)

    return DGCategory(
        ring, tuple(sorted(items)), hom_fn,
        comp_vec_fn=comp_vec,
        id_fn=lambda x: identity_hom_vector(items[x]),
        name=name,
    )


# ---------------------------------------------------------------------------
# Co-cubical objects.


@dataclass(eq=False)
class CoCubicalObject:
    """A covariant assignment of host objects to cube levels.

    `cube(n)` is the object for level n with `cube(0)` the tensor unit,
    `image(f)` the degree-0 host element of a cube-category map f, and
    `delta(n)` the comultiplication at level n.  `top` bounds the levels
    the enrichment will touch.
    """

    host: TensorDGData
    top: int
    extended: bool
    cube: object
    image: object
    delta: object


@dataclass(frozen=True)
class CoCubicalReport:
    ok: bool
    failures: tuple


def validate_cocubical(Q, bound=None):
    """Functoriality on the generated morphism closure plus the four
    comultiplication axioms, each reported under its own name.

    The closure walk is exact but exponential in the level bound, so the
    default stops at 3 without merges and 2 with them; the table-driven
    builders below are functorial at every level by construction.
    """
    if bound is None:
        bound = min(Q.top, 2 if Q.extended else 3)
    host = Q.host
    C = host.category
    failures = []

    def note(law, where, text):
        failures.append(DGFailure(law, where, text))

    if Q.cube(0) != host.unit:
        note("unit-object", (0,), "cube(0) is not the tensor unit")

    gens = generator_maps(bound, Q.extended)
    table = {}
    for n in range(bound + 1):
        f = identity_map(n)
        table[(n, n, f.table)] = C.identity(Q.cube(n))
        if Q.image(f).vector != table[(n, n, f.table)].vector:
            note("functoriality", (n, n), "image of the identity is not the identity")
    for f, token, h, new in closure_walk(bound, Q.extended):
        cand = C.compose(Q.image(gens[token]), table[(f.dom, f.cod, f.table)])
        key = (h.dom, h.cod, h.table)
        if new:
            table[key] = cand
            if Q.image(h).vector != cand.vector:
                note(
                    "functoriality", (h.dom, h.cod),
                    "direct image disagrees with a factorization through %s" % token,
                )
        elif table[key].vector != cand.vector:
            note(
                "functoriality", (h.dom, h.cod),
                "two factorizations of the same map disagree at %s" % token,
            )

    d0 = Q.delta(0)
    if d0.vector != C.identity(host.unit).vector:
        note("co-unital", (0,), "delta(0) is not the unit identity")
    for n in range(bound + 1):
        dn = Q.delta(n)
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
        if g.cod > bound:
            continue
        lhs = C.compose(Q.delta(g.cod), Q.image(g))
        rhs = C.compose(host.mor_tensor(Q.image(g), Q.image(g)), Q.delta(g.dom))
        if lhs != rhs:
            note("co-cubical", (g.dom, g.cod), "delta is not natural for %s" % token)
    return CoCubicalReport(ok=not failures, failures=tuple(failures))


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


def _precomposition(host, w, z):
    """The matrix of g -> g . w on Hom(w.target, z), i.e. I_nz (x) W^T
    (Van Loan 2000): column (iz, ib) is row ib of the row-major w placed
    in block iz.  Ranks are read against the unit, which has rank 1."""
    C = host.category
    na, nb, nz = (C.hom(v, host.unit).rank(0) for v in (w.source, w.target, z))
    rows = [w.vector[ib * na : (ib + 1) * na] for ib in range(nb)]
    pad = (0,) * (nz * na)
    cols = [pad[: iz * na] + row + pad[(iz + 1) * na :] for iz in range(nz) for row in rows]
    return _columns_to_matrix(C.ring, nz * na, cols)


def _row_major_identity(n):
    vec = [0] * (n * n)
    for i in range(n):
        vec[i * n + i] = 1
    return tuple(vec)


def _free_module_host(ring, objects, rank, obj_tensor, unit, name):
    """Tensor data with Hom(x, y) free of rank rank(x) * rank(y) in degree 0,
    maps stored as row-major matrices.  The basis of x (x) y must be pairs
    in row-major order: `mor_tensor` is then `kron`, `symmetry` the swap."""

    def hom_fn(x, y):
        return single_complex(ring, 0, rank(x) * rank(y))

    def comp_vec(x, y, z, p, q, gvec, fvec):
        return _row_major_product(rank(x), rank(y), rank(z), gvec, fvec)

    cat = DGCategory(ring, objects, hom_fn, comp_vec_fn=comp_vec,
                     id_fn=lambda x: _row_major_identity(rank(x)), name=name)

    def mor_tensor(f, g):
        """f (x) g written straight from the two row-major vectors in the
        order of `Matrix.kron`: a zero block for each zero entry of f, and
        entries kept as they come (ints stay ints over Q)."""
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


def build_fincor(universe, ring="Z", top=4):
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


def build_vertex_cubes(ring="Q", top=3, objects=(1, 2)):
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
    splitting, and the composition read from them.  Action and composition
    matrices are `_precomposition` matrices of the row-major free-module
    host, the only host that `build_fincor` and `build_vertex_cubes` make.

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
            idx = C.identity(x)

            def act(f):
                return _precomposition(host, host.mor_tensor(idx, Q.image(f)), y)

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

    def project(self, x, y, n, raw):
        """Model coordinates of the columns `raw` of level n, projected onto
        the reduced part along the degenerate splitting: one product with the
        projector in the model basis, solved for once per level together
        with the check that its image is the span of the model basis."""
        key = (x, y, n)
        if key not in self._projectors:
            R = self.model(x, y).level_basis[n]
            K = restrict(R, degenerate_projector(self.group(x, y), n), "the projection")
            if K * R != Matrix.identity(R.ring, R.ncols):
                raise ValueError("the projection does not fix the model at level %d" % n)
            self._projectors[key] = K
        return self._projectors[key] * raw

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
        model coordinates.  Column f_j gives w_j = (f_j (x) id) . (id_x (x)
        delta_n) and one product for all g_i . w_j; raw column (i, j), g
        outer as in `comp_matrix`, is column i of block j."""
        host, Q = self.host, self.cocube
        C = host.category
        b, a = -p, -q
        n = a + b
        gfull = self.group(y, z).act(front_projection(b, a)) * self.model(y, z).level_basis[b]
        ffull = self.group(x, y).act(back_projection(b, a)) * self.model(x, y).level_basis[a]
        dup = host.mor_tensor(C.identity(x), Q.delta(n))
        id_cube = C.identity(Q.cube(n))
        blocks = []
        for j in range(ffull.ncols):
            f = C.element(self.level_object(x, n), y, 0, tuple(ffull.col(j)))
            w = C.compose(host.mor_tensor(f, id_cube), dup)
            blocks.append(_precomposition(host, w, z) * gfull)
        cols = [tuple(blk.col(i)) for i in range(gfull.ncols) for blk in blocks]
        raw = _columns_to_matrix(C.ring, self.group(x, z).rank(n), cols)
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
        rep = validate_cocubical(cocube)
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


def cubical_enrichment(host, cocube, objects=None, name=""):
    return CubicalEnrichment(host, cocube, objects=objects, name=name)


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

    def project(self, x, y, n, raw):
        """Coordinates of the sign average of the columns `raw` of level n
        in the signed orbit sums that span the model."""
        return sign_coordinates(self.model(x, y).level_basis[n], raw)

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
        coords = self.project(xx, yy, N, Matrix.column(C.ring, tilde.vector))
        return HomElement(xx, yy, degree, tuple(coords.col(0)))


class AlternatingEnrichment(CubicalEnrichment):
    """The cubical enrichment on `_AlternatingLevels`, with the box tensor
    product as `tensor`."""

    _level_type = _AlternatingLevels

    def __init__(self, host, cocube, objects=None):
        if host.category.ring != "Q":
            raise ValueError("the alternating enrichment needs rational coefficients")
        if not cocube.extended:
            raise ValueError("the alternating enrichment needs the extended cube maps")
        super().__init__(host, cocube, objects=objects,
                         name="alt(%s)" % (host.category.name or "?"))
        self.tensor = TensorDGData(
            self.category, host.unit, host.obj_tensor,
            self.levels.box_tensor, self.levels.symmetry,
        )


def alternating_enrichment(host, cocube, objects=None):
    return AlternatingEnrichment(host, cocube, objects=objects)


def _levelwise_functor(src_enr, tgt_enr):
    """Identity on objects; on level n of each Hom pair, the source model's
    basis projected by the target, in target model coordinates."""
    if src_enr.host is not tgt_enr.host or src_enr.cocube is not tgt_enr.cocube:
        raise ValueError("the two enrichments must come from the same host and co-cubical object")
    src, tgt = src_enr.category, tgt_enr.category
    mor_maps = {}
    for x in src.objects:
        for y in src.objects:
            comps = {}
            for n in range(tgt_enr.cocube.top + 1):
                comps[-n] = tgt_enr.levels.project(x, y, n, src_enr.model(x, y).level_basis[n])
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
                    if cols:
                        comps[deg] = _columns_to_matrix(src.ring, tgt.rank(deg), cols)
                    else:
                        comps[deg] = Matrix.zero(src.ring, tgt.rank(deg), 0)
                mor_maps[(x, y)] = make_chain_map(src, tgt, comps)
        return DGFunctor(enr.category, enr.category, obj_map, mor_maps)


def tensor_action(host, enr):
    return TensorAction(host, enr)
