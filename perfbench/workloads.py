"""The benchmark's workloads: seeded input generators and verdict runners.

Each workload has a `generate(seed)` that returns plain data (tuples of
ints and strings) and a `run(inputs, tracer, swap)` that builds every
library object from those inputs, checks each verdict and returns the
verdicts and a fingerprint of the work.  The seed picks coefficients
only: object shapes, ranks and the number of nonzero twists are fixed
per workload, so the fingerprint is the same for every seed.

Library calls go through the module (`dgcat.validate_dg(...)`) so that
the tracer's wrappers see them.
"""

import random

from dgforge import dgcat, linalg, pretr, sheaf

Z, Q = linalg.RING_Z, linalg.RING_Q


class Verdicts:
    """Checks with an expected outcome; a check that raises fails."""

    def __init__(self):
        self.items = []

    def check(self, label, expected, fn):
        try:
            got = bool(fn())
        except Exception as exc:  # a raising check is a failed verdict
            got = "raised %s: %s" % (type(exc).__name__, exc)
        self.items.append((label, expected, got))

    @property
    def failed(self):
        return [(label, expected, got) for label, expected, got in self.items if got is not expected]


# ---------------------------------------------------------------------------
# Shared generators.


def _transvection(rng):
    """A seeded 2 x 2 transvection (off-diagonal entry -1 or 1) and its
    inverse, as row lists."""
    i, j = rng.sample(range(2), 2)
    c = rng.choice((-1, 1))
    u = [[1, 0], [0, 1]]
    inv = [[1, 0], [0, 1]]
    u[i][j], inv[i][j] = c, -c
    return u, inv


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _closed_twist(rng, base, source, target):
    """Coordinates of a nonzero closed degree-0 morphism i0(source) -> i0(target)."""
    H = pretr.twisted_hom_complex(pretr.i0(base, source), pretr.i0(base, target))
    K = linalg.kernel(H.complex.d(0))
    if K.ncols == 0:
        raise ValueError("no closed degree-0 morphism %r -> %r" % (source, target))
    while True:
        coeffs = [rng.randint(-3, 3) for _ in range(K.ncols)]
        vec = tuple(sum(K.rows[i][c] * coeffs[c] for c in range(K.ncols)) for i in range(K.nrows))
        if any(vec):
            return vec


def _cone(base, source, target, vec):
    H = pretr.twisted_hom_complex(pretr.i0(base, source), pretr.i0(base, target))
    return pretr.cone(H.element(0, vec)).cone


def _hom_table(C, objects):
    """Hom ranks per ordered pair: {"x->y": [lo, [ranks...]]}."""
    out = {}
    for x in objects:
        for y in objects:
            cx = C.hom(x, y)
            out["%s->%s" % (x, y)] = [cx.lo, [cx.rank(n) for n in cx.degrees()]]
    return out


def _comp_count(C, objects):
    """Number of composition matrices with both sides nonzero."""
    n = 0
    for x in objects:
        for y in objects:
            for z in objects:
                g, f, h = C.hom(y, z), C.hom(x, y), C.hom(x, z)
                for p in g.degrees():
                    for q in f.degrees():
                        if g.rank(p) and f.rank(q) and h.rank(p + q):
                            n += 1
    return n


def _flip_composition(C, objects):
    """Negative control: composition scaled by (-1)^(pq).  Shapes stay
    right, but the Leibniz rule breaks wherever a nonzero differential
    moves an odd factor to even degree, so the law check must flag it."""

    def comp(x, y, z, p, q):
        mat = C.comp_matrix(x, y, z, p, q)
        return mat.scale(-1) if (p * q) % 2 else mat

    return dgcat.DGCategory(
        C.ring, objects, C.hom, comp_fn=comp, id_fn=lambda x: C.identity(x).vector,
        name="flipped",
    )


# ---------------------------------------------------------------------------
# pretr_laws: validate_dg over three twisted complexes on four Z complexes.

# Cones of closed degree-0 maps i0(source) -> i0(target): three nonzero twists.
PRETR_TWISTS = (("a", "pt"), ("pt", "pt"), ("a", "a"))
# The flipped-sign control is checked on this object only (Hom ranks 1, 2, 1).
PRETR_CONTROL_OBJECTS = ("t1",)


def _pretr_base():
    return dgcat.complexes_category({
        "a": linalg.two_term_complex(Z, 0, linalg.Matrix(Z, [[2]])),
        "b": linalg.make_complex(
            Z, -1, [1, 2, 1], [linalg.Matrix(Z, [[1], [0]]), linalg.Matrix(Z, [[0, 3]])]
        ),
        "pt": linalg.single_complex(Z, 0, 1),
        "c": linalg.make_complex(
            Z, -1, [1, 2, 1], [linalg.Matrix(Z, [[1], [0]]), linalg.Matrix(Z, [[0, 0]])]
        ),
    })


def pretr_generate(seed):
    rng = random.Random(seed)
    base = _pretr_base()
    return {"twists": tuple((s, t, _closed_twist(rng, base, s, t)) for s, t in PRETR_TWISTS)}


def pretr_run(inputs, tracer, swap=False):
    v = Verdicts()
    base = _pretr_base()
    tcs = {"t%d" % i: _cone(base, s, t, vec) for i, (s, t, vec) in enumerate(inputs["twists"])}
    P = pretr.pretr_category(base, tcs)
    v.check("pretr:laws", True, lambda: dgcat.validate_dg(P).ok)
    control = _flip_composition(P, PRETR_CONTROL_OBJECTS)
    v.check("pretr:control-flipped-signs", swap, lambda: dgcat.validate_dg(control).ok)
    fingerprint = {
        "hom_ranks": _hom_table(P, P.objects),
        "twists": sum(len(tc.e) for tc in tcs.values()),
        "comp_matrices": _comp_count(P, P.objects),
    }
    return v, fingerprint


# ---------------------------------------------------------------------------
# enrich_q: the cubical and alternating enrichments of the vertex host over Q.

ENRICH_TOP = 3
ENRICH_OBJECTS = (1, 2)
# The tensor-action functor is checked on the cubical enrichment over this
# object only: over both objects the check alone takes about 18 s.
ENRICH_FUNCTOR_OBJECTS = (1,)
# Tensor factors over the alternating category: cones of closed degree-0
# maps i0(source) -> i0(target).
ENRICH_FACTORS = ((1, 2), (1, 1), (1, 1))


def _vertex_host():
    return dgcat.build_vertex_cubes(ring=Q, top=ENRICH_TOP, objects=ENRICH_OBJECTS)


def enrich_generate(seed):
    rng = random.Random(seed)
    host, cocube = _vertex_host()
    C = dgcat.alternating_enrichment(host, cocube).category
    return {"twists": tuple((s, t, _closed_twist(rng, C, s, t)) for s, t in ENRICH_FACTORS)}


def _negated(F):
    """Negative control: every component of F times -1.  Still a family
    of chain maps, but F(id) = -id and F(g f) = -F(g) F(f)."""
    maps = {
        key: linalg.ChainMap(m.source, m.target, {n: c.scale(-1) for n, c in m.comps.items()})
        for key, m in F.mor_maps.items()
    }
    return dgcat.DGFunctor(F.source, F.target, dict(F.obj_map), maps)


def enrich_run(inputs, tracer, swap=False):
    v = Verdicts()
    host, cocube = _vertex_host()
    tracer.host(host)
    enr = dgcat.cubical_enrichment(host, cocube, objects=ENRICH_FUNCTOR_OBJECTS)
    F = dgcat.tensor_action(host, enr).functor(2)
    v.check("enrich:tensor-action-functor", True, lambda: dgcat.validate_functor(F).ok)
    v.check("enrich:control-negated-functor", swap,
            lambda: dgcat.validate_functor(_negated(F)).ok)

    alt = dgcat.alternating_enrichment(host, cocube)
    v.check("enrich:alternating-laws", True, lambda: dgcat.validate_dg(alt.category).ok)

    T, C = alt.tensor, alt.category
    E, Fc, G = (_cone(C, s, t, vec) for s, t, vec in inputs["twists"])
    v.check("enrich:tensor-assoc", True, lambda: pretr.tensor_pair(
        T, pretr.tensor_pair(T, E, Fc), G) == pretr.tensor_pair(T, E, pretr.tensor_pair(T, Fc, G)))
    v.check("enrich:tensor-unit", True, lambda: pretr.tensor_pair(T, pretr.unit_twisted(T), E) == E)

    fingerprint = {
        "functor_hom_ranks": _hom_table(enr.category, enr.category.objects),
        "functor_obj_map": {str(k): w for k, w in sorted(F.obj_map.items())},
        "alt_hom_ranks": _hom_table(C, C.objects),
        "twists": sum(len(tc.e) for tc in (E, Fc, G)),
        "comp_matrices": _comp_count(C, C.objects),
    }
    return v, fingerprint


# ---------------------------------------------------------------------------
# sheaf_hypercoh: constant presheaves of torsion complexes on circle models.

TORSION = (2, 3, 4, 5, 6)


def circle_site():
    """Six points: minima m_i, each below the maxima M_i and M_(i+1 mod 3)."""
    k = 3
    mins = ["m%d" % i for i in range(k)]
    maxs = ["M%d" % i for i in range(k)]
    below = [(mins[i], maxs[i]) for i in range(k)] + [(mins[i], maxs[(i + 1) % k]) for i in range(k)]
    return sheaf.make_site(mins + maxs, below)


def sheaf_generate(seed):
    """Two complexes of fixed ranks with torsion: K1 = Z^2 -> Z^2 in
    degrees 0..1 and K2 = Z -> Z^2 -> Z in degrees -1..1.  The seed draws
    the invariant factors from TORSION, their signs, and one unimodular
    transvection (entries -1 or 1) that mixes the basis of each complex.
    Heavier conjugation makes run times heavy-tailed through Smith
    normal form entry growth (see README.md, "Known limits")."""
    rng = random.Random(seed)
    sign = lambda: rng.choice((-1, 1))
    t1, t2, s, t = (sign() * rng.choice(TORSION) for _ in range(4))
    p, _ = _transvection(rng)
    d1 = _matmul(p, [[t1, 0], [0, t2]])
    u, uinv = _transvection(rng)
    dm1 = _matmul(u, [[s], [0]])
    d0 = _matmul([[0, t]], uinv)
    to_tuple = lambda m: tuple(tuple(row) for row in m)
    return {"complexes": (
        (0, (2, 2), (to_tuple(d1),)),
        (-1, (1, 2, 1), (to_tuple(dm1), to_tuple(d0))),
    )}


def sheaf_run(inputs, tracer, swap=False):
    v = Verdicts()
    complexes = [
        linalg.make_complex(Z, lo, list(ranks), [linalg.Matrix(Z, d) for d in diffs])
        for lo, ranks, diffs in inputs["complexes"]
    ]
    sites = (("pseudo_circle", sheaf.pseudo_circle_site()), ("circle6", circle_site()))
    tower_ranks = {}
    for sname, site in sites:
        for ci, K in enumerate(complexes):
            F = sheaf.constant_presheaf(site, K)
            T = sheaf.godement_tower(F, strict=True)
            tot = T.total(site.space())
            tower_ranks["%s/K%d" % (sname, ci + 1)] = [tot.lo, [tot.rank(n) for n in tot.degrees()]]
            for n in tot.degrees():
                v.check("sheaf:%s/K%d:tower=cover@%d" % (sname, ci + 1, n), True,
                        lambda: linalg.complex_homology(tot, n).describe()
                        == sheaf.cech_hypercohomology(F, n).describe())
            lo, hi = F.window()
            # every degree of the mapping cone, which starts one below the
            # source; the default window would skip both ends
            window = (lo - 1, hi + T.depth)
            for x in site.points:
                v.check("sheaf:%s/K%d:aug@%s" % (sname, ci + 1, x), True,
                        lambda: linalg.is_quasi_iso(T.augmentation(site.up(x)), window=window).ok)
            if sname == "pseudo_circle" and ci == 0:
                # the circle's degree-one class is missing from global sections
                v.check("sheaf:control-aug-on-whole-circle", swap,
                        lambda: linalg.is_quasi_iso(T.augmentation(site.space()), window=window).ok)

    C = dgcat.build_fincor([("x", "y")], "Z", top=2)[0].category
    CP = sheaf.constant_category_presheaf(sheaf.pseudo_circle_site(), C)
    R = sheaf.rgamma(CP)
    for x in C.objects:
        for y in C.objects:
            r = C.hom(x, y).rank(0)
            want = "Z^%d" % r if r > 1 else "Z"
            v.check("sheaf:rgamma-hom %s->%s" % (x, y), True,
                    lambda: [linalg.complex_homology(R.hom(x, y), n).describe() for n in (0, 1)]
                    == [want, want])
    aug = sheaf.augmentation_functor(CP, R).mor_maps
    for x in C.objects:
        for y in C.objects:
            for z in C.objects:
                v.check("sheaf:rgamma-comp %s,%s,%s" % (x, y, z), True,
                        lambda: _comp_table_agrees(C, R, aug, x, y, z))
    return v, {
        "tower_ranks": tower_ranks,
        "rgamma_hom_ranks": _hom_table(R, R.objects),
        "comp_matrices": _comp_count(R, R.objects),
    }


def _comp_table_agrees(C, R, aug, x, y, z):
    """Read every composition matrix of the triple and check its shape;
    then check that the augmentation carries base composition in degree
    zero to global-sections composition."""
    g, f, h = R.hom(y, z), R.hom(x, y), R.hom(x, z)
    for p in g.degrees():
        for q in f.degrees():
            m = R.comp_matrix(x, y, z, p, q)
            if (m.nrows, m.ncols) != (h.rank(p + q), g.rank(p) * f.rank(q)):
                return False

    def image(a, b, elem):
        col = aug[(a, b)].comp(0) * linalg.Matrix.column(C.ring, list(elem.vector))
        return R.element(a, b, 0, [row[0] for row in col.rows])

    for gb in C.basis(y, z, 0):
        for fb in C.basis(x, y, 0):
            if R.compose(image(y, z, gb), image(x, y, fb)) != image(x, z, C.compose(gb, fb)):
                return False
    return True


WORKLOADS = {
    "pretr_laws": (pretr_generate, pretr_run),
    "enrich_q": (enrich_generate, enrich_run),
    "sheaf_hypercoh": (sheaf_generate, sheaf_run),
}
