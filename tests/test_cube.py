"""Cube-category structure: generator tables, closures, signed symmetries."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from dgforge.cube import (
    CubeMap,
    alternating_idempotent,
    back_projection,
    compose,
    convolve,
    enumerate_homset,
    front_projection,
    homset_contains,
    identity_map,
    insertion,
    involution,
    merge,
    perm_sign,
    permutation_map,
    projection,
    q_merge,
    sign_character,
    signed_as_cube_map,
    signed_identity,
    signed_inverse,
    signed_multiply,
    signed_symmetry_group,
    transposition,
    vertices,
)


# ---------------------------------------------------------------------------
# Oracles: closed-form Hom-set counts from the coordinate description of
# generated maps (each output reads a constant, one signed input, or a signed
# product over a nonempty input subset; supports of distinct outputs disjoint).
# ---------------------------------------------------------------------------


def count_homset_plain(m, n):
    total = 0
    for k in range(0, min(m, n) + 1):
        choose_outputs = len(list(itertools.combinations(range(n), k)))
        inject = 1
        for t in range(k):
            inject *= m - t
        total += choose_outputs * inject * 2**k * 2 ** (n - k)
    return total


def _set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for k in range(len(part)):
            yield part[:k] + [[first] + part[k]] + part[k + 1 :]
        yield [[first]] + part


def _read_once_counts(max_s):
    """r(s) = number of read-once {and, or, not} functions on exactly s variables.

    Canonical form: an and-root (or, dually, or-root) with >= 2 children, each
    a literal or a node of the other kind; uniqueness of the decomposition
    makes the count exact.
    """
    r = {1: 2}
    child = {1: 2}  # literals; for s >= 2 a child of an and-root is or-rooted
    for s in range(2, max_s + 1):
        a = 0
        for part in _set_partitions(list(range(s))):
            if len(part) < 2:
                continue
            w = 1
            for block in part:
                w *= child.get(len(block), 0)
            a += w
        r[s] = 2 * a  # and-rooted plus or-rooted, disjoint by uniqueness
        child[s] = a
    return r


def count_homset_extended(m, n):
    inputs = list(range(m))
    r = _read_once_counts(max(m, 1))

    def forms(s):
        return 2 if s == 0 else r[s]

    def rec(out_idx, used):
        if out_idx == n:
            return 1
        acc = 0
        free = [i for i in inputs if not (used >> i) & 1]
        for size in range(0, len(free) + 1):
            for sub in itertools.combinations(free, size):
                mask = used
                for i in sub:
                    mask |= 1 << i
                acc += forms(size) * rec(out_idx + 1, mask)
        return acc

    return rec(0, 0)


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


def test_insertion_at_dimension_zero():
    f = insertion(0, 1, 0)
    assert f.dom == 0 and f.cod == 1
    assert f.table == (((0,)),)
    g = insertion(0, 1, 1)
    assert g.table == ((1,),)


def test_insertion_projection_cancel():
    for n in range(0, 3):
        for i in range(1, n + 2):
            for eps in (0, 1):
                f = compose(projection(n + 1, i), insertion(n, i, eps))
                assert f.table == identity_map(n).table


def test_insertion_commutation():
    # eta_{n+1,j,e'} . eta_{n,i,e} = eta_{n+1,i,e} . eta_{n,j-1,e'} for i < j
    for n in range(0, 3):
        for i in range(1, n + 2):
            for j in range(i + 1, n + 3):
                for e1 in (0, 1):
                    for e2 in (0, 1):
                        lhs = compose(insertion(n + 1, j, e2), insertion(n, i, e1))
                        rhs = compose(insertion(n + 1, i, e1), insertion(n, j - 1, e2))
                        assert lhs.table == rhs.table


def test_merge_is_and():
    mu = merge(2, 1)
    assert mu.table == ((0,), (0,), (0,), (1,))
    assert mu.extended


def test_q_merge_table():
    q = q_merge(2, 1)
    # q(x, y) = 1 - (1-x)(1-y): logical or
    assert q.table == ((0,), (1,), (1,), (1,))
    assert q.extended


def test_q_merge_relations():
    # associativity: q_{n-1,i} . q_{n,i} = q_{n-1,i} . q_{n,i+1}
    for n in (3, 4):
        for i in range(1, n - 1):
            lhs = compose(q_merge(n - 1, i), q_merge(n, i))
            rhs = compose(q_merge(n - 1, i), q_merge(n, i + 1))
            assert lhs.table == rhs.table
    # disjoint merges commute with the index shift
    for n in (3, 4):
        for i in range(1, n - 1):
            for j in range(i + 1, n - 1):
                lhs = compose(q_merge(n - 1, j), q_merge(n, i))
                rhs = compose(q_merge(n - 1, i), q_merge(n, j + 1))
                assert lhs.table == rhs.table


def test_q_merge_insertion_relations():
    # inserting 0 before merging is the identity; inserting 1 absorbs
    for n in (2, 3, 4):
        for i in range(1, n):
            assert compose(q_merge(n, i), insertion(n - 1, i, 0)).table == identity_map(n - 1).table
            assert compose(q_merge(n, i), insertion(n - 1, i + 1, 0)).table == identity_map(n - 1).table
            absorbed = compose(q_merge(n, i), insertion(n - 1, i, 1))
            expect = compose(insertion(n - 2, i, 1), projection(n - 1, i))
            assert absorbed.table == expect.table


def test_permutation_map_tables_and_words():
    for n in (2, 3):
        for perm in itertools.permutations(range(1, n + 1)):
            f = permutation_map(n, perm)
            for v in vertices(n):
                assert f(v) == tuple(v[p - 1] for p in perm)
            if perm != tuple(range(1, n + 1)):
                assert f.word


def test_front_back_projections():
    f = front_projection(2, 1)
    b = back_projection(2, 1)
    for v in vertices(3):
        assert f(v) == v[:2]
        assert b(v) == v[2:]


# ---------------------------------------------------------------------------
# Hom-set enumeration
# ---------------------------------------------------------------------------


def test_homset_counts_match_closed_form():
    for m in range(0, 4):
        for n in range(0, 4):
            got = len(enumerate_homset(m, n, extended=False, bound=3))
            assert got == count_homset_plain(m, n), (m, n)


def test_homset_counts_match_closed_form_extended():
    for m in range(0, 4):
        for n in range(0, 4):
            got = len(enumerate_homset(m, n, extended=True, bound=3))
            assert got == count_homset_extended(m, n), (m, n)


def test_frozen_homset_sizes():
    assert len(enumerate_homset(1, 1, bound=2)) == 4
    assert len(enumerate_homset(2, 1, bound=2)) == 6
    assert len(enumerate_homset(2, 1, extended=True, bound=2)) == 14


def test_merge_membership():
    mu = merge(2, 1)
    assert not homset_contains(mu, extended=False, bound=3)
    assert homset_contains(mu, extended=True, bound=3)


def test_enumerate_homset_deterministic_and_bounded():
    a = enumerate_homset(2, 2, bound=3)
    b = enumerate_homset(2, 2, bound=3)
    assert [f.table for f in a] == [f.table for f in b]
    assert [f.table for f in a] == sorted(f.table for f in a)
    with pytest.raises(ValueError):
        enumerate_homset(5, 1, bound=4)


def test_homset_closure_words_witness_tables():
    # every enumerated map's witness word re-evaluates to its own table
    for f in enumerate_homset(2, 2, extended=True, bound=3):
        cur = identity_map(2)
        for token in f.word:
            kind = token[: token.index("(")]
            args = tuple(int(x) for x in token[token.index("(") + 1 : -1].split(","))
            if kind == "eta":
                g = insertion(args[0], args[1], args[2])
            elif kind == "p":
                g = projection(args[0], args[1])
            elif kind == "tau":
                g = involution(args[0], args[1])
            elif kind == "t":
                g = transposition(args[0], args[1])
            elif kind == "mu":
                g = merge(args[0], args[1])
            else:
                raise AssertionError("unexpected token %r" % token)
            cur = compose(g, cur)
        assert cur.table == f.table


# ---------------------------------------------------------------------------
# Signed symmetries
# ---------------------------------------------------------------------------


def test_signed_group_order():
    for n in range(0, 4):
        assert len(signed_symmetry_group(n, "F")) == 2**n * _fact(n)
        assert len(signed_symmetry_group(n, "Sigma")) == _fact(n)


def _fact(n):
    out = 1
    for k in range(2, n + 1):
        out *= k
    return out


def test_signed_multiply_matches_cube_map_composition():
    for n in (1, 2, 3):
        grp = signed_symmetry_group(n, "F")
        rng = random.Random(5)
        pairs = [(rng.choice(grp), rng.choice(grp)) for _ in range(25)]
        for g, h in pairs:
            lhs = signed_as_cube_map(signed_multiply(g, h))
            rhs = compose(signed_as_cube_map(g), signed_as_cube_map(h))
            assert lhs.table == rhs.table


def test_sign_character_is_homomorphism():
    for n in (1, 2):
        grp = signed_symmetry_group(n, "F")
        for g in grp:
            for h in grp:
                assert sign_character(signed_multiply(g, h)) == sign_character(
                    g
                ) * sign_character(h)


def test_sign_character_values():
    # one flip is odd, adjacent transposition is odd
    g = signed_symmetry_group(2, "F")
    flip1 = next(x for x in g if x.flips == (1, 0) and x.perm == (0, 1))
    swap = next(x for x in g if x.flips == (0, 0) and x.perm == (1, 0))
    assert sign_character(flip1) == -1
    assert sign_character(swap) == -1
    assert sign_character(signed_identity(2)) == 1


def test_signed_inverse():
    rng = random.Random(9)
    for n in (1, 2, 3):
        grp = signed_symmetry_group(n, "F")
        for g in [rng.choice(grp) for _ in range(10)]:
            assert signed_multiply(g, signed_inverse(g)) == signed_identity(n)
            assert signed_multiply(signed_inverse(g), g) == signed_identity(n)


def test_sign_sum_vanishes():
    for n in (1, 2, 3):
        for group in ("F", "Sigma"):
            if group == "Sigma" and n < 2:
                continue
            total = sum(sign_character(g) for g in signed_symmetry_group(n, group))
            assert total == 0


def test_alternating_idempotent_squares():
    for n in (1, 2):
        for group in ("F", "Sigma"):
            e = {g: c for c, g in alternating_idempotent(n, group)}
            ee = convolve(e, e)
            assert ee == {g: c for g, c in e.items() if c}


def test_perm_sign_matches_transposition_parity():
    assert perm_sign((0, 1, 2)) == 1
    assert perm_sign((1, 0, 2)) == -1
    assert perm_sign((1, 2, 0)) == 1
