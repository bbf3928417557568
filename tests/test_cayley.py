"""Finite groups from multiplication tables.

The associativity validator and the isomorphism search both get slow
reference implementations here: a full triple loop and a brute table
comparison on relabelings.
"""

import functools
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algentropy.cayley import (
    FiniteGroup,
    all_groups_of_order,
    cyclic,
    dihedral,
    direct_product,
    finite_group_trajectory,
    isomorphic,
    isomorphisms,
    minimal_transversal_count,
    symmetric,
)
from algentropy.errors import DomainError


def test_table_validation():
    # a latin square that is not associative
    bad = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(DomainError):
        FiniteGroup(bad)
    with pytest.raises(DomainError):
        FiniteGroup([[0, 1], [1, 1]])  # not a latin square
    FiniteGroup([[0, 1], [1, 0]])


def test_associativity_validator_agrees_with_triple_loop():
    for g in (cyclic(6), symmetric(3), dihedral(4)):
        n = g.order
        assert all(
            g.mul(g.mul(a, b), c) == g.mul(a, g.mul(b, c))
            for a, b, c in itertools.product(range(n), repeat=3)
        )


def test_identity_and_inverses():
    g = symmetric(3)
    e = g.identity
    assert all(g.mul(e, a) == a == g.mul(a, e) for a in g.elements())
    assert all(g.mul(a, g.inv(a)) == e for a in g.elements())


def test_element_orders_partition():
    g = cyclic(12)
    orders = sorted(g.element_order(a) for a in g.elements())
    # one element of each order d | 12, phi(d) many
    assert orders == [1, 2, 3, 3, 4, 4, 6, 6, 12, 12, 12, 12]


def test_abelian_center_derived():
    s3 = symmetric(3)
    assert not s3.is_abelian()
    assert s3.center() == {s3.identity}
    assert len(s3.derived_subgroup()) == 3
    c6 = cyclic(6)
    assert c6.is_abelian()
    assert len(c6.center()) == 6
    assert c6.derived_subgroup() == {c6.identity}


def test_subgroup_lattice_of_s3():
    s3 = symmetric(3)
    subs = s3.all_subgroups()
    assert sorted(len(h) for h in subs) == [1, 2, 2, 2, 3, 6]
    for h in subs:
        assert s3.is_subgroup(h)


def brute_transversal(group, subgroup, subset):
    """Try all subsets of increasing size until one covers."""
    h = list(subgroup)
    subset = list(subset)
    universe = list(group.elements())
    for size in range(len(subset) + 1):
        for ys in itertools.combinations(universe, size):
            cover = {group.mul(x, y) for x in h for y in ys}
            if all(s in cover for s in subset):
                return size
    return None


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(["c6", "s3", "d4"]), st.sets(st.integers(0, 5), min_size=1, max_size=4))
def test_minimal_transversal_matches_brute_force(name, subset):
    g = {"c6": cyclic(6), "s3": symmetric(3), "d4": dihedral(4)}[name]
    subset = {s % g.order for s in subset}
    for h in g.all_subgroups():
        got = minimal_transversal_count(g, h, subset)
        assert got == brute_transversal(g, h, subset)


def test_finite_group_trajectory_sizes():
    g = symmetric(3)
    # conjugation by a 3-cycle, starting from one transposition
    three_cycle = next(a for a in g.elements() if g.element_order(a) == 3)
    transposition = next(a for a in g.elements() if g.element_order(a) == 2)
    phi = g.inner_automorphism(three_cycle)
    seed = {g.identity, transposition}
    sizes = [len(finite_group_trajectory(g, phi, seed, k)) for k in range(4)]
    assert sizes[0] == 2
    assert sizes[-1] == 6
    assert all(a <= b for a, b in zip(sizes, sizes[1:]))
    # each trajectory set contains the previous one
    prev = finite_group_trajectory(g, phi, seed, 0)
    for k in (1, 2, 3):
        cur = finite_group_trajectory(g, phi, seed, k)
        assert prev <= cur
        prev = cur


def test_trajectory_under_identity_is_constant():
    g = cyclic(8)
    sets = [finite_group_trajectory(g, g.identity_map(), {0, 1}, k) for k in range(5)]
    sizes = [len(s) for s in sets]
    assert sizes == [2, 3, 4, 5, 6]


def _brute_trajectory(group, phi, subset, n):
    # every product f_0 * phi(f_1) * ... * phi^n(f_n) with all f_i in F
    def power(x, k):
        for _ in range(k):
            x = phi[x]
        return x

    return frozenset(
        functools.reduce(group.mul, (power(f, k) for k, f in enumerate(picks)))
        for picks in itertools.product(sorted(set(subset)), repeat=n + 1)
    )


@pytest.mark.parametrize("order", [6, 8])
def test_finite_group_trajectory_matches_brute_products(order):
    rng = random.Random(order)
    for g in all_groups_of_order(order):
        powers = [tuple(g.power(x, k) for x in g.elements()) for k in range(4)]
        maps = list(g.automorphisms()) + [m for m in powers if g.is_endomorphism(m)]
        for phi in maps:
            subset = rng.sample(range(g.order), rng.randint(1, 3))
            for n in range(4):
                want = _brute_trajectory(g, phi, subset, n)
                assert finite_group_trajectory(g, phi, subset, n) == want, (phi, subset, n)


def test_direct_product_orders():
    g = direct_product(cyclic(2), cyclic(3))
    assert g.order == 6
    assert g.is_abelian()
    assert isomorphic(g, cyclic(6))


def test_isomorphism_detection():
    assert isomorphic(cyclic(4), cyclic(4))
    assert not isomorphic(cyclic(4), direct_product(cyclic(2), cyclic(2)))
    assert isomorphic(dihedral(3), symmetric(3))
    maps = list(isomorphisms(cyclic(3), cyclic(3)))
    assert len(maps) == 2  # Aut(Z/3) = Z/2
    for f in maps:
        g = cyclic(3)
        assert all(
            f[g.mul(a, b)] == g.mul(f[a], f[b])
            for a in g.elements()
            for b in g.elements()
        )


def test_inner_automorphism_is_endomorphism():
    g = symmetric(3)
    for a in g.elements():
        assert g.is_endomorphism(g.inner_automorphism(a))
    squaring = [g.mul(a, a) for a in g.elements()]
    assert not g.is_endomorphism(squaring)


def test_automorphism_group_sizes():
    assert len(cyclic(5).automorphisms()) == 4
    assert len(symmetric(3).automorphisms()) == 6
    assert len(direct_product(cyclic(2), cyclic(2)).automorphisms()) == 6


def test_group_census_counts():
    # number of groups of each order, 1 through 16
    expected = [1, 1, 1, 2, 1, 2, 1, 5, 2, 2, 1, 5, 1, 2, 1, 14]
    got = [len(all_groups_of_order(n)) for n in range(1, 17)]
    assert got == expected


def test_census_entries_are_pairwise_nonisomorphic():
    for n in (8, 12):
        groups = all_groups_of_order(n)
        for a, b in itertools.combinations(groups, 2):
            assert not isomorphic(a, b)
