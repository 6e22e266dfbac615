"""Maps of presheaves over every open, for the tests.  The library reads
such maps one open at a time (`GodementTower.augmentation`,
`tensor_assoc_map`, the projections of `sheafify`); here a map of
presheaves is a function U -> ChainMap, checked on every open and along
every inclusion."""

from dgforge.linalg import ChainMap, block_matrix, compose_chain_maps, make_chain_map, restrict
from dgforge.sheaf import _placement, _stalk_restrictions, make_presheaf


def check_presheaf_map(source, target, at):
    """`at`, once it is a chain map source(U) -> target(U) at every open U
    and commutes with the restriction along every inclusion; a ValueError
    names the first open or inclusion where it is not."""
    for U in source.site.opens():
        make_chain_map(source.vals[U], target.vals[U], at(U).comps, check=True)
    for U, V in source.site.inclusions():
        down_then_map = compose_chain_maps(at(V), source.res[U, V])
        if down_then_map != compose_chain_maps(target.res[U, V], at(U)):
            raise ValueError("map fails to commute with restriction %r -> %r" % (U, V))
    return at


def tower_map_at(at, Tsrc, Ttgt, U):
    """The map of presheaves `at` applied levelwise through two towers of
    equal shape: the block of a chain is `at` on the minimal open of its
    last point."""
    if Tsrc.depth != Ttgt.depth or Tsrc.strict != Ttgt.strict:
        raise ValueError("depth mismatch")
    src, tgt = Tsrc.total(U), Ttgt.total(U)
    degrees = range(min(Tsrc.lo, Ttgt.lo), max(Tsrc.hi, Ttgt.hi) + Tsrc.depth + 1)

    def diagonal(mats):
        return block_matrix(src.ring, [[m if i == j else None for j in range(len(mats))]
                                       for i, m in enumerate(mats)])

    comps = {n: diagonal([at(Tsrc.site.up(c[-1])).comp(n - p) for p in range(Tsrc.depth + 1)
                          for c in Tsrc.chains(p, U)]) for n in degrees}
    return make_chain_map(src, tgt, comps, check=True)


def total_presheaf(T):
    """The totals of the tower T as a presheaf: the restriction from U to V
    is the transposed placement of V's layout in U's."""
    site, degrees = T.site, range(T.lo, T.hi + T.depth + 1)
    res = {(U, V): ChainMap(T.total(U), T.total(V), {
        n: _placement(T.source.ring, T.layout(V, n), T.layout(U, n)).transpose() for n in degrees
    }) for U, V in site.inclusions()}
    return make_presheaf(site, {U: T.total(U) for U in site.opens()}, res, check=False)


def sheafification_eta(F, aF, U):
    """The comparison F(U) -> aF(U): the stalk restrictions of F(U), written
    in the kernel basis of the limit, whose inclusion into the stalks is the
    stack of aF's restrictions to them."""
    lo, hi = F.window()
    return ChainMap(F.vals[U], aF.vals[U], {
        n: restrict(_stalk_restrictions(aF, U, n), _stalk_restrictions(F, U, n),
                    "the stalk restrictions") for n in range(lo, hi + 1)})
