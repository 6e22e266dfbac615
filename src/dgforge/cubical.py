"""Cubical abelian groups and the complexes attached to them.

A cubical abelian group assigns a finitely generated module A(n) to each cube
{0,1}^n, n up to a fixed ceiling, together with a pullback matrix A(f) for
every map f of cubes, contravariantly: A(g after f) = A(f) A(g).  The chain
complex has A(n) in cohomological degree -n with differential the alternating
sum of the two face pullbacks in each slot.

Three models of that complex are available: the full one, the reduced one cut
out by the eps=1 face conditions (a canonical complement of the degenerate
part, so quotients are never formed), and the normalized one that also kills
the eps=0 faces in all slots but the first.  The normalization comes with an
explicit deformation retraction built stage by stage from merge pullbacks.
"""

from dataclasses import dataclass
from fractions import Fraction

from .cube import (
    SignedSymmetry,
    alternating_idempotent,
    back_projection,
    closure_walk,
    front_projection,
    generator_maps,
    identity_map,
    insertion,
    projection,
    q_merge,
    sign_character,
    signed_as_cube_map,
    vertex_index,
    vertices,
)
from .linalg import (
    Matrix,
    RING_Q,
    _columns_to_matrix,
    _integer,
    assemble,
    block_matrix,
    complex_homology,
    cut_complex,
    kernel,
    make_chain_map,
    make_complex,
    restrict,
    solve,
    subcomplex,
    tensor_complex,
)


class CubicalAbelianGroup:
    """Levelwise modules A(0..top) with cached contravariant pullbacks.

    `act_fn(f)` must return the matrix of A(f): A(f.cod) -> A(f.dom), of shape
    (rank(dom), rank(cod)) over `ring`.  Extended groups also accept maps
    built from merges.
    """

    def __init__(self, ring, top, ranks, act_fn, extended=False, name=""):
        if top < 1:
            raise ValueError("need at least levels 0 and 1")
        if len(ranks) != top + 1:
            raise ValueError("one rank per level 0..top expected")
        self.ring = ring
        self.top = top
        self.ranks = tuple(_integer(r, "rank") for r in ranks)
        self.extended = extended
        self.name = name
        self._act_fn = act_fn
        self._cache = {}

    def rank(self, n):
        if not 0 <= n <= self.top:
            return 0
        return self.ranks[n]

    def act(self, f):
        if f.dom > self.top or f.cod > self.top or f.dom < 0 or f.cod < 0:
            raise ValueError("cube map outside the level window 0..%d" % self.top)
        if f.extended and not self.extended:
            raise ValueError("merge pullbacks undefined for %r" % (self.name or "group"))
        key = (f.dom, f.cod, f.table)
        m = self._cache.get(key)
        if m is None:
            m = self._act_fn(f)
            if m.ring != self.ring or m.nrows != self.rank(f.dom) or m.ncols != self.rank(f.cod):
                raise ValueError("pullback matrix has wrong ring or shape")
            self._cache[key] = m
        return m

    def over_q(self):
        if self.ring == RING_Q:
            return self
        return CubicalAbelianGroup(
            RING_Q,
            self.top,
            self.ranks,
            lambda f: self.act(f).to_q(),
            extended=self.extended,
            name=self.name + " over Q" if self.name else "",
        )

    def __repr__(self):
        kind = "extended" if self.extended else "plain"
        return "CubicalAbelianGroup(%s, top=%d, %s)" % (
            self.name or "?", self.top, kind,
        )


# ---------------------------------------------------------------------------
# Builtin groups.


def constant_cubical(ring, rank_, top):
    ident = Matrix.identity(ring, rank_)
    return CubicalAbelianGroup(
        ring,
        top,
        [rank_] * (top + 1),
        lambda f: ident,
        extended=True,
        name="constant rank %d" % rank_,
    )


def functions_on_cubes(ring, top):
    """A(n) = maps {0,1}^n -> ring, with pullback by precomposition."""

    def act(f):
        idx = vertex_index(f.cod)
        rows = [[0] * (1 << f.cod) for _ in range(1 << f.dom)]
        for u, image in enumerate(f.table):
            rows[u][idx[image]] = 1
        return Matrix(ring, rows, nrows=1 << f.dom, ncols=1 << f.cod)

    return CubicalAbelianGroup(
        ring,
        top,
        [1 << n for n in range(top + 1)],
        act,
        extended=True,
        name="functions on cubes",
    )


def _literal_tables(m):
    verts = vertices(m)
    out = []
    for i in range(m):
        t = tuple(v[i] for v in verts)
        out.append(t)
        out.append(tuple(1 - x for x in t))
    return out


def _table_support(m, t):
    verts = vertices(m)
    idx = vertex_index(m)
    supp = set()
    for i in range(m):
        for k, v in enumerate(verts):
            w = v[:i] + (1 - v[i],) + v[i + 1 :]
            if t[k] != t[idx[w]]:
                supp.add(i)
                break
    return frozenset(supp)


def interval_value_tables(m, extended):
    """Value tables of every map m -> 1 of cubes, as 0/1 tuples.

    The plain list is constants and (possibly flipped) coordinates.  With
    merges every one-output map computes a Boolean formula using each input
    at most once, so the extended list is the closure of the literals under
    AND and OR of support-disjoint tables, plus the constants.  Both lists
    are cross-checked against the brute-force morphism enumeration in the
    test suite at small m.
    """
    size = 1 << m
    tables = {(0,) * size, (1,) * size}
    tables.update(_literal_tables(m))
    if extended:
        supports = {t: _table_support(m, t) for t in tables}
        frontier = [t for t in tables if supports[t]]
        while frontier:
            new = []
            for t in frontier:
                for s in list(tables):
                    if not supports[s] or supports[s] & supports[t]:
                        continue
                    for combined in (
                        tuple(a & b for a, b in zip(t, s)),
                        tuple(a | b for a, b in zip(t, s)),
                    ):
                        if combined not in tables:
                            tables.add(combined)
                            supports[combined] = supports[t] | supports[s]
                            new.append(combined)
            frontier = new
    return tuple(sorted(tables))


def _canonical_cell(t):
    comp = tuple(1 - x for x in t)
    return min(t, comp)


def circle_cell_tables(m, extended):
    """Cells of the circle at level m: one-output maps modulo complement."""
    return tuple(sorted({_canonical_cell(t) for t in interval_value_tables(m, extended)}))


def circle_chains(ring, top, extended):
    """Chains on the cubical set with circle geometry.

    Level m is the free module on maps m -> 1 identified with their
    complements; the pullback of a cell is precomposition followed by
    canonicalization.
    """
    cells = [circle_cell_tables(m, extended) for m in range(top + 1)]
    index = [{t: k for k, t in enumerate(level)} for level in cells]

    def act(f):
        idx = vertex_index(f.cod)
        dom_index = index[f.dom]
        rows = [[0] * len(cells[f.cod]) for _ in range(len(cells[f.dom]))]
        for col, t in enumerate(cells[f.cod]):
            pulled = _canonical_cell(tuple(t[idx[w]] for w in f.table))
            row = dom_index.get(pulled)
            if row is None:
                raise ValueError("cell pullback left the enumerated level %d" % f.dom)
            rows[row][col] = 1
        return Matrix(ring, rows, nrows=len(cells[f.dom]), ncols=len(cells[f.cod]))

    return CubicalAbelianGroup(
        ring,
        top,
        [len(level) for level in cells],
        act,
        extended=extended,
        name="circle chains" + (" (extended)" if extended else ""),
    )


def cubical_from_generator_matrices(ring, top, ranks, matrices, extended=False, name=""):
    """Build a group from one matrix per generator token (as in `generator_maps`).

    The pullback of an arbitrary map is assembled by composing generator
    matrices; during construction every map table reachable by two different
    generator words must receive the same matrix, otherwise the data does not
    define a functor and a ValueError reports the violation.  The eager check
    walks the whole morphism closure, so keep top small (<= 3 with merges).
    Only tests set `extended` and `name`: a named group with merges rebuilt from its generators.
    """
    gens = generator_maps(top, extended)
    missing = [tok for tok in gens if tok not in matrices]
    if missing:
        raise ValueError("no matrix for generator %s" % missing[0])
    for tok, g in gens.items():
        m = matrices[tok]
        if m.ring != ring or m.nrows != ranks[g.dom] or m.ncols != ranks[g.cod]:
            raise ValueError("matrix for %s has wrong ring or shape" % tok)

    table = {}
    for n in range(top + 1):
        f = identity_map(n)
        table[(f.dom, f.cod, f.table)] = Matrix.identity(ring, ranks[n])
    for f, token, h, new in closure_walk(top, extended):
        mh = table[(f.dom, f.cod, f.table)] * matrices[token]
        key = (h.dom, h.cod, h.table)
        if new:
            table[key] = mh
        elif table[key] != mh:
            raise ValueError(
                "functoriality violation: two factorizations of a map "
                "%d -> %d disagree" % (h.dom, h.cod)
            )

    def act(f):
        m = table.get((f.dom, f.cod, f.table))
        if m is None:
            raise ValueError("map not generated within levels 0..%d" % top)
        return m

    return CubicalAbelianGroup(ring, top, ranks, act, extended=extended, name=name)


def diag_tensor(A, B):
    """(A (x) B)(n) = A(n) (x) B(n); basis order (a, b) row-major."""
    if A.ring != B.ring:
        raise ValueError("ring mismatch")
    top = min(A.top, B.top)
    return CubicalAbelianGroup(
        A.ring,
        top,
        [A.rank(n) * B.rank(n) for n in range(top + 1)],
        lambda f: A.act(f).kron(B.act(f)),
        extended=A.extended and B.extended,
        name="(%s) (x) (%s)" % (A.name or "?", B.name or "?"),
    )


# ---------------------------------------------------------------------------
# The associated complexes.


def boundary_matrix(A, n):
    """d: A(n) -> A(n-1), sum over slots of (-1)^i (eps=1 minus eps=0 faces)."""
    return assemble(A.ring, A.rank(n - 1), A.rank(n), [
        (0, 0, A.act(insertion(n - 1, i, eps)), 1, (-1) ** (i + eps + 1))
        for i in range(1, n + 1) for eps in (1, 0)
    ])


def reduced_level_basis(A, n):
    """Saturated basis of the intersection of the eps=1 face kernels."""
    if n == 0:
        return Matrix.identity(A.ring, A.rank(0))
    return kernel(block_matrix(A.ring, [[A.act(insertion(n - 1, i, 1))] for i in range(1, n + 1)]))


@dataclass(eq=False)
class AssociatedComplex:
    """A chain model of a cubical group: level n sits in degree -n.

    `level_basis[n]` has columns the chosen basis of the model inside A(n);
    for the full model it is the identity.  `variant` names the model:
    "full", "reduced", or a sign part built by `alternating_complex`.
    """

    group: CubicalAbelianGroup
    variant: str
    complex: object
    level_basis: dict

    def level_rank(self, n):
        return self.complex.rank(-n)

    def homology(self, n):
        """H_n of the model, computed at cohomological degree -n."""
        return complex_homology(self.complex, -n)


def associated_complex(A, variant="full"):
    top = A.top
    if variant == "full":
        bases = {n: Matrix.identity(A.ring, A.rank(n)) for n in range(top + 1)}
    elif variant == "reduced":
        bases = {n: reduced_level_basis(A, n) for n in range(top + 1)}
    else:
        raise ValueError("variant must be 'full' or 'reduced'")
    diffs = {-n: boundary_matrix(A, n) for n in range(1, top + 1)}
    cx = make_complex(A.ring, -top, [A.rank(-deg) for deg in range(-top, 1)], diffs)
    cx = cut_complex(cx, lo=-top)  # no level above top sends boundaries into degree -top
    if variant == "reduced":
        cx = subcomplex(cx, {-n: bases[n] for n in range(top + 1)})
    return AssociatedComplex(A, variant, cx, bases)


# ---------------------------------------------------------------------------
# Degenerate splitting.


def degenerate_projector(A, n):
    """The idempotent on A(n) with image the reduced part and kernel the
    degenerate part: the product over slots i of I - s_i, where the
    idempotent s_i pulls back along projection, then eps=1 insertion."""
    r = A.rank(n)
    P = Matrix.identity(A.ring, r)
    for i in range(1, n + 1):
        S = A.act(projection(n, i)) * A.act(insertion(n - 1, i, 1))
        P = assemble(A.ring, r, r, [(0, 0, r, 1, 1), (0, 0, S, 1, -1)]) * P
    return P


# ---------------------------------------------------------------------------
# Normalization.


def _stage_conditions(n, stage):
    """Slots whose eps=0 face must vanish at the given stage (stage -1: none)."""
    return tuple(range(max(2, n - stage), n + 1))


@dataclass(eq=False)
class NormalizedComplex:
    """The normalized subcomplex of the reduced model with its retraction.

    All matrices are written in the coordinates of the reduced model F:
    `include[n]` embeds NF_n, `project[n]` retracts onto it, `homotopy[n]`
    maps F_(n-1) to F_n, and dh + hd = id - include . project at the levels
    n >= 1 that the cut of F leaves exact.  `stage_basis[(M, n)]`,
    `stage_project[(M, n)]` and `stage_homotopy[(M, n)]` expose the
    construction one merge slot at a time; stage -1 is F itself.
    """

    group: CubicalAbelianGroup
    reduced: AssociatedComplex
    complex: object
    include: dict
    project: dict
    homotopy: dict
    stage_basis: dict
    stage_project: dict
    stage_homotopy: dict

    def include_map(self):
        return make_chain_map(
            self.complex,
            self.reduced.complex,
            {-n: self.include[n] for n in range(self.group.top + 1)},
        )


def normalized_complex(A):
    if not A.extended:
        raise ValueError("normalization needs merge pullbacks")
    top = A.top
    reduced = associated_complex(A, "reduced")
    B0 = reduced.level_basis

    def face_kernel(n, conds):
        """Basis of the reduced level n on which the eps=0 faces in `conds` vanish."""
        if not conds:
            return Matrix.identity(A.ring, B0[n].ncols)
        faces = [[A.act(insertion(n - 1, i, 0)) * B0[n]] for i in conds]
        return kernel(block_matrix(A.ring, faces))

    stages = range(0, max(top - 1, 1))
    stage_basis = {}
    stage_project = {}
    stage_homotopy = {}
    for n in range(top + 1):
        fdim = B0[n].ncols
        stage_basis[(-1, n)] = Matrix.identity(A.ring, fdim)
        for M in stages:
            stage_basis[(M, n)] = face_kernel(n, _stage_conditions(n, M))
            j = n - M - 1
            if 1 <= j <= n - 1:
                qpull = A.act(q_merge(n, j))
                P = Matrix.identity(A.ring, A.rank(n)) - qpull * A.act(
                    insertion(n - 1, n - M, 0)
                )
                stage_project[(M, n)] = restrict(B0[n], P * B0[n], "the stage projector")
                # sign (-1)^(n-M-1): one step off the source parity because d
                # here runs over all n face slots rather than stopping at n-1
                H = qpull if (n - M - 1) % 2 == 0 else qpull.scale(-1)
                stage_homotopy[(M, n)] = restrict(B0[n], H * B0[n - 1], "the stage homotopy")
            else:
                stage_project[(M, n)] = Matrix.identity(A.ring, fdim)
                stage_homotopy[(M, n)] = Matrix.zero(A.ring, fdim, B0[n - 1].ncols if n else 0)

    include = {}
    project = {}
    homotopy = {}
    prefix = {}
    for n in range(top + 1):
        fdim = B0[n].ncols
        acc = Matrix.identity(A.ring, fdim)
        prefix[(-1, n)] = acc
        for M in stages:
            acc = stage_project[(M, n)] * acc
            prefix[(M, n)] = acc
        include[n] = face_kernel(n, _stage_conditions(n, top))
        last = max(stages)
        project[n] = restrict(include[n], prefix[(last, n)], "the retraction")
    for n in range(top + 1):
        fdim = B0[n].ncols
        prev = B0[n - 1].ncols if n else 0
        h = Matrix.zero(A.ring, fdim, prev)
        if n:
            for M in stages:
                h = h + stage_homotopy[(M, n)] * prefix[(M - 1, n - 1)]
        homotopy[n] = h

    cx = subcomplex(reduced.complex, {-n: include[n] for n in range(top + 1)})
    return NormalizedComplex(
        group=A,
        reduced=reduced,
        complex=cx,
        include=include,
        project=project,
        homotopy=homotopy,
        stage_basis=stage_basis,
        stage_project=stage_project,
        stage_homotopy=stage_homotopy,
    )


@dataclass(eq=False)
class NormalizationReport:
    ok: bool
    failures: tuple


def normalization_report(N):
    """Exact checks of the stagewise and assembled retraction identities."""
    A = N.group
    top = A.top
    DF = {n: N.reduced.complex.d(-n) for n in range(1, top + 1)}
    fails = []

    def expect(cond, label):
        if not cond:
            fails.append(label)

    stages = sorted({M for (M, _) in N.stage_project if M >= 0})
    for n in range(top + 1):
        fdim = N.reduced.level_basis[n].ncols
        ident = Matrix.identity(A.ring, fdim)
        for M in stages:
            C_prev = N.stage_basis[(M - 1, n)]
            C_cur = N.stage_basis[(M, n)]
            PF = N.stage_project[(M, n)]
            into = solve(C_cur, PF * C_prev)
            expect(into is not None, "stage %d projector misses target at level %d" % (M, n))
            expect(PF * C_cur == C_cur, "stage %d projector not identity on its image at level %d" % (M, n))
            if n <= M + 1:
                expect(
                    N.stage_homotopy[(M, n)].is_zero(),
                    "stage %d homotopy should vanish at level %d" % (M, n),
                )
            if 1 <= n and N.reduced.complex.exact(-n):
                lhs = DF[n + 1] * N.stage_homotopy[(M, n + 1)] + N.stage_homotopy[(M, n)] * DF[n]
                rhs = ident - PF
                expect(
                    lhs * C_prev == rhs * C_prev,
                    "stage %d homotopy identity fails at level %d" % (M, n),
                )
    for n in range(top + 1):
        fdim = N.reduced.level_basis[n].ncols
        ident = Matrix.identity(A.ring, fdim)
        nf_id = Matrix.identity(A.ring, N.include[n].ncols)
        expect(N.project[n] * N.include[n] == nf_id, "retraction not a left inverse at level %d" % n)
        if 1 <= n and N.reduced.complex.exact(-n):
            lhs = DF[n + 1] * N.homotopy[n + 1] + N.homotopy[n] * DF[n]
            rhs = ident - N.include[n] * N.project[n]
            expect(lhs == rhs, "total homotopy identity fails at level %d" % n)
    for n in range(1, top + 1):
        expect(
            DF[n] * N.include[n] == N.include[n - 1] * N.complex.d(-n),
            "inclusion not a chain map at level %d" % n,
        )
    return NormalizationReport(not fails, tuple(fails))


# ---------------------------------------------------------------------------
# Alternating parts.


def level_symmetry_matrix(A, g):
    """Matrix of the action of a signed symmetry on A(n); a homomorphism
    because pullback along the inverse table is used implicitly: the signed
    group is closed under inversion with the same sign, so the averaged
    idempotent below is insensitive to the convention."""
    return A.act(signed_as_cube_map(g))


def sign_orbit_basis(A, n, group):
    """The sign part of level n as signed orbit sums, one column b_k per
    orbit O_k of the signed symmetries on the basis of A(n) that the sign
    character does not kill: +-1 on O_k (+1 at its smallest index) and 0
    elsewhere.  The sign average of w is sum_k <b_k, w>/|O_k| b_k (see
    `sign_coordinates`).  The orbits are walked with the generators (the
    adjacent transpositions, and for F one flip), which assumes that A is a
    functor; an orbit met twice with opposite signs is killed.  Each
    generator must act by a signed permutation matrix, or a ValueError
    names the level."""
    if group not in ("F", "Sigma"):
        raise ValueError("group must be 'F' or 'Sigma'")
    r, ident = A.rank(n), tuple(range(n))
    gens = [SignedSymmetry((0,) * n, ident[:k] + (k + 1, k) + ident[k + 2:]) for k in range(n - 1)]
    if group == "F" and n:
        gens.append(SignedSymmetry((1,) + (0,) * (n - 1), ident))
    moves = []  # moves[h][i] = (k, s): A(h) e_i = +-e_k, and s is sgn(h) times that sign
    for h in gens:
        rows = level_symmetry_matrix(A, h).nonzero_rows()
        move = {i: (k, sign_character(h) * int(v)) for k, row in enumerate(rows)
                for i, v in row if len(row) == 1 and v in (1, -1)}
        if len(move) != r:
            raise ValueError(
                "level %d: a signed symmetry does not act by a signed permutation matrix" % n
            )
        moves.append(move)
    seen, orbit_sums = set(), []
    for i in range(r):
        if i in seen:
            continue
        label, orbit, alive = {i: 1}, [i], True  # label: the sign in the orbit sum
        for j in orbit:
            for move in moves:
                k, s = move[j]
                if k not in label:
                    label[k] = s * label[j]
                    orbit.append(k)
                alive = alive and label[k] == s * label[j]
        seen.update(orbit)
        if alive:
            orbit_sums.append([label.get(j, 0) for j in range(r)])
    return _columns_to_matrix(A.ring, r, orbit_sums)


def sign_coordinates(B, mat):
    """Coordinates in the orbit basis B of `sign_orbit_basis` of the sign
    average of each column of mat: <b_k, col>/|O_k|, over Q."""
    supports = B.transpose().nonzero_rows()
    terms = [(k, i, 1, 1, Fraction(b, len(support)))
             for k, support in enumerate(supports) for i, b in support]
    return assemble(RING_Q, B.ncols, B.nrows, terms) * mat.to_q()


def alternating_projector(A, n, group):
    """The sign average on level n as a dense matrix, read from the orbit
    basis B: B diag(1/|O_k|) B^T."""
    if A.ring != RING_Q:
        raise ValueError("alternating projectors need rational coefficients")
    B = sign_orbit_basis(A, n, group)
    return B * sign_coordinates(B, Matrix.identity(RING_Q, A.rank(n)))


def alternating_trace_rank(A, n, group):
    """Rank of the sign part from the character formula, as a cross-check."""
    val = Fraction(0)
    for c, g in alternating_idempotent(n, group):
        m = level_symmetry_matrix(A, g)
        val += c * sum(m[k, k] for k in range(m.nrows))
    if val.denominator != 1:
        raise ValueError("trace average is not an integer")
    return int(val)


def alternating_complex(A, group="F", variant=None):
    """Sign-isotypic subcomplex over Q of the full or reduced model, as an
    `AssociatedComplex` of A over Q.

    Flip-and-permute symmetries preserve the full levels; plain permutations
    also preserve the reduced ones.  The flip group does not fix the eps=1
    face conditions, so group "F" with the reduced model is refused.  Every
    symmetry must act by signed permutation matrices, as in every builtin
    group; any other action raises a ValueError naming the level.  A full
    level takes the signed orbit sums of `sign_orbit_basis` as basis, a
    reduced one the part of the model basis R that the sign average fixes.
    """
    if variant is None:
        variant = "full" if group == "F" else "reduced"
    if group == "F" and variant == "reduced":
        raise ValueError("flips do not preserve the reduced model")
    Aq = A.over_q()
    model = associated_complex(Aq, variant)
    coords = {}
    for n in range(Aq.top + 1):
        B = sign_orbit_basis(Aq, n, group)
        R = model.level_basis[n]
        coords[-n] = B if variant == "full" else kernel(R - B * sign_coordinates(B, R))
    bases = {n: model.level_basis[n] * coords[-n] for n in range(Aq.top + 1)}
    return AssociatedComplex(Aq, "alternating %s, %s" % (group, variant),
                             subcomplex(model.complex, coords), bases)


@dataclass(eq=False)
class AlternatingComparison:
    ok: bool
    window: tuple
    table: tuple  # rows (n, reduced_rank, flip_full_rank, perm_reduced_rank)


def alternating_comparison(A):
    """Homology rank agreement between the reduced model and both sign models
    in the degrees that the cut of the reduced model leaves exact."""
    Aq = A.over_q()
    reduced = associated_complex(Aq, "reduced")
    alt_f = alternating_complex(Aq, "F", "full")
    alt_s = alternating_complex(Aq, "Sigma", "reduced")
    degrees = [n for n in range(Aq.top + 1) if reduced.complex.exact(-n)]
    rows = []
    ok = True
    for n in degrees:
        r0 = reduced.homology(n).free_rank
        r1 = alt_f.homology(n).free_rank
        r2 = alt_s.homology(n).free_rank
        rows.append((n, r0, r1, r2))
        if not r0 == r1 == r2:
            ok = False
    return AlternatingComparison(ok, (0, degrees[-1] if degrees else -1), tuple(rows))


# ---------------------------------------------------------------------------
# The cup pairing.


def cup_on_levels(A, B, a, b):
    """A(a) (x) B(b) -> (A (x) B)(a+b) through the two outer projections."""
    return A.act(front_projection(a, b)).kron(B.act(back_projection(a, b)))


@dataclass(eq=False)
class CupPairing:
    source: object
    target_group: CubicalAbelianGroup
    target: AssociatedComplex
    map: object


def cup_pairing(A, B):
    """Chain map from the tensor of the full complexes, from degree -top up
    (a subcomplex), to the full complex of the diagonal tensor group."""
    T = diag_tensor(A, B)
    CA = associated_complex(A, "full").complex
    CB = associated_complex(B, "full").complex
    target = associated_complex(T, "full")
    full = tensor_complex(CA, CB)
    src = subcomplex(full, {n: Matrix.identity(T.ring, full.rank(n)) for n in range(-T.top, 1)})
    comps = {}
    for deg in range(-T.top, 1):
        # block p of the source degree deg is CA^p (x) CB^(deg-p), levels -p and p-deg
        blocks = [cup_on_levels(A, B, -p, p - deg)
                  for p in CA.degrees() if CA.rank(p) and CB.rank(deg - p)]
        if blocks:
            comps[deg] = block_matrix(T.ring, [blocks])
    return CupPairing(src, T, target, make_chain_map(src, target.complex, comps))
