"""Finitely generated abelian groups and their subgroup calculus.

Small finite groups are checked by direct element enumeration, so the
lattice arithmetic under the hood never has to be trusted on its own.
"""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from fresh import fresh_interpreter

from algentropy.abelian import (
    Endo,
    FgAbGroup,
    Subgroup,
    canonicalize_presentation,
    endo_apply_subgroup,
    endo_cokernel_order,
    endo_invert,
    endo_kernel,
    endo_preimage_subgroup,
    subgroup_from_generators,
    subgroup_index,
    subgroup_intersect,
    subgroup_sum,
)
from algentropy.base import INFINITE
from algentropy.errors import (
    AmbientMismatchError,
    IncompatibleEndoError,
    UnsupportedAmbientError,
)


def brute_subgroup_elements(group, gens):
    """Close a generating set under addition by saturation."""
    current = {group.zero()}
    frontier = list(current)
    gens = [group.element(g) for g in gens]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                for y in (x + g, x - g):
                    if y not in current:
                        current.add(y)
                        nxt.append(y)
        frontier = nxt
    return current


def test_invariant_factor_chain_enforced():
    FgAbGroup([2, 4, 8])
    with pytest.raises(ValueError):
        FgAbGroup([4, 2])
    with pytest.raises(ValueError):
        FgAbGroup([2, 3])


def test_order_and_exponent():
    g = FgAbGroup([2, 6], free_rank=0)
    assert g.order() == 12
    assert g.exponent() == 6
    assert FgAbGroup([], free_rank=2).order() == INFINITE
    assert FgAbGroup([]).order() == 1


def test_element_arithmetic_mod_relations():
    g = FgAbGroup([4], free_rank=1)
    a = g.element([3, 5])
    b = g.element([2, -1])
    assert (a + b).coords == (1, 4)
    assert (a - b).coords == (1, 6)
    assert (3 * b).coords == (2, -3)
    assert g.element([4, 0]).is_zero()


def test_element_order_values():
    g = FgAbGroup([12])
    assert g.element([4]).order() == 3
    assert g.element([5]).order() == 12
    assert FgAbGroup([], free_rank=1).element([2]).order() == INFINITE
    assert g.zero().order() == 1


def test_canonicalize_presentation_known():
    # Z/2 x Z/4 presented with redundant relations
    g = canonicalize_presentation([[2, 0], [0, 4], [2, 4]])
    assert g.invariant_factors == (2, 4)
    assert g.free_rank == 0
    # a rank-1 kernel leaves one free generator
    g = canonicalize_presentation([[3, 0]], ngens=2)
    assert g.invariant_factors == (3,)
    assert g.free_rank == 1
    # 0 rows contribute nothing
    g = canonicalize_presentation([[0, 0]], ngens=2)
    assert g.invariant_factors == ()
    assert g.free_rank == 2


@given(st.lists(st.lists(st.integers(-6, 6), min_size=2, max_size=2), min_size=1, max_size=4))
def test_canonicalize_tracks_smith_form(rows):
    import algentropy.intlinalg as ila

    g = canonicalize_presentation(rows, ngens=2)
    diag = ila.snf_invariant_factors(rows)
    assert g.free_rank == 2 - len(diag)
    assert list(g.invariant_factors) == [d for d in diag if d > 1]
    # zero_subgroup, Subgroup.order and Subgroup.is_zero read the relation
    # rows as their own Hermite form
    assert ila.hnf(g.relation_rows()) == g.relation_rows()
    assert g.zero_subgroup().is_zero() and g.zero_subgroup().order() == 1


def test_presentation_32x32_cold_time_regression():
    # the Smith form alternates row and column Hermite forms, and the old
    # echelon pass never reduced its rows, so entries compounded: 21.8 s
    # and 24.5 s in two runs on a 2-core machine
    code = (
        "import random, time\n"
        "from algentropy.abelian import canonicalize_presentation\n"
        "from algentropy.intlinalg import det_bareiss\n"
        "draw = random.Random(32)\n"
        "rows = [[draw.randint(-9, 9) for _ in range(32)] for _ in range(32)]\n"
        "start = time.perf_counter()\n"
        "group = canonicalize_presentation(rows)\n"
        "seconds = time.perf_counter() - start\n"
        "print(group.order(), abs(det_bareiss(rows)), seconds)\n"
    )
    order, det, seconds = fresh_interpreter(code).stdout.split()
    assert order == det != "0"
    assert float(seconds) < 1.0


gen_lists = st.lists(
    st.lists(st.integers(-5, 5), min_size=2, max_size=2), min_size=0, max_size=3
)


@given(gen_lists)
def test_subgroup_order_matches_enumeration(gens):
    g = FgAbGroup([4, 8])
    h = subgroup_from_generators(g, gens)
    assert h.order() == len(brute_subgroup_elements(g, gens))


@given(gen_lists, gen_lists)
def test_sum_and_meet_match_enumeration(xs, ys):
    g = FgAbGroup([2, 12])
    hx, hy = subgroup_from_generators(g, xs), subgroup_from_generators(g, ys)
    ex, ey = brute_subgroup_elements(g, xs), brute_subgroup_elements(g, ys)
    assert subgroup_sum(hx, hy).order() == len(
        brute_subgroup_elements(g, xs + ys)
    )
    assert subgroup_intersect(hx, hy).order() == len(ex & ey)


@given(gen_lists)
def test_subgroup_membership_agrees_with_enumeration(gens):
    g = FgAbGroup([6, 6])
    h = subgroup_from_generators(g, gens)
    members = brute_subgroup_elements(g, gens)
    for elem in g.elements():
        assert h.contains(elem) == (elem in members)


def test_subgroup_index_values():
    g = FgAbGroup([], free_rank=2)
    full = g.full_subgroup()
    even = subgroup_from_generators(g, [[2, 0], [0, 2]])
    line = subgroup_from_generators(g, [[1, 0]])
    assert subgroup_index(full, even) == 4
    assert subgroup_index(full, line) == INFINITE
    assert subgroup_index(even, subgroup_from_generators(g, [[4, 0], [0, 4]])) == 4
    # the index is taken relative to the meet, so it is total
    assert subgroup_index(line, even) == 2


def test_subgroup_elements_finite_only():
    g = FgAbGroup([], free_rank=1)
    with pytest.raises(UnsupportedAmbientError):
        list(g.full_subgroup().elements())


def test_endo_requires_invariance():
    g = FgAbGroup([2, 4])
    Endo(g, [[1, 0], [2, 1]])
    with pytest.raises(IncompatibleEndoError):
        # sends the order-2 generator to an order-4 element
        Endo(g, [[0, 0], [1, 0]])


def test_endo_apply_and_compose():
    g = FgAbGroup([8])
    double = Endo(g, [[2]])
    assert double.apply(g.element([3])).coords == (6,)
    assert double.compose(double).matrix == ((4,),)
    assert double.power(3) == Endo(g, [[0]])
    assert double.power(0).is_identity()


def test_endo_kernel_image_orders_multiply():
    # |ker| * |im| = |G| for endos of finite groups
    g = FgAbGroup([2, 8])
    for mat in [[[1, 0], [0, 2]], [[1, 4], [0, 3]], [[0, 0], [0, 0]], [[1, 1], [0, 1]]]:
        phi = Endo(g, mat)
        image = endo_apply_subgroup(phi, g.full_subgroup())
        assert endo_kernel(phi).order() * image.order() == 16


@given(st.lists(st.lists(st.integers(0, 5), min_size=2, max_size=2), min_size=2, max_size=2), gen_lists)
def test_endo_preimage_by_enumeration(mat, gens):
    g = FgAbGroup([6, 6])
    try:
        phi = Endo(g, mat)
    except NotDivisibleError:
        return
    h = subgroup_from_generators(g, gens)
    pre = endo_preimage_subgroup(phi, h)
    for elem in g.elements():
        assert pre.contains(elem) == h.contains(phi.apply(elem))


def test_endo_cokernel_order():
    g = FgAbGroup([], free_rank=2)
    assert endo_cokernel_order(Endo(g, [[2, 0], [0, 3]])) == 6
    assert endo_cokernel_order(Endo(g, [[1, 5], [0, 1]])) == 1
    assert endo_cokernel_order(Endo(g, [[2, 0], [0, 0]])) == INFINITE


def test_endo_invert():
    g = FgAbGroup([5])
    inv = endo_invert(Endo(g, [[2]]))
    assert inv.matrix == ((3,),)
    assert endo_invert(Endo(g, [[0]])) is None
    free = FgAbGroup([], free_rank=2)
    assert endo_invert(Endo(free, [[2, 0], [0, 1]])) is None
    unimod = endo_invert(Endo(free, [[1, 1], [0, 1]]))
    assert unimod.compose(Endo(free, [[1, 1], [0, 1]])).is_identity()


def _all_endos(group):
    """Every endomorphism of a finite group: entry (j, i) runs over the
    multiples of d_j / gcd(d_i, d_j) modulo d_j."""
    ds, n = group.invariant_factors, group.dim
    choices = [range(0, ds[j], ds[j] // math.gcd(ds[i], ds[j]))
               for j in range(n) for i in range(n)]
    for entries in itertools.product(*choices):
        yield Endo(group, [entries[j * n:(j + 1) * n] for j in range(n)])


def test_endo_invert_against_brute_force():
    # invertible exactly when the action on the elements is a bijection;
    # the count of inverses is |Aut(G)|, e.g. |GL_3(F_2)| = 168
    automorphisms = {(): 1, (2,): 1, (3,): 2, (6,): 2, (2, 2): 6, (2, 4): 8,
                     (3, 3): 48, (2, 8): 16, (2, 2, 2): 168}
    for factors, order in automorphisms.items():
        g = FgAbGroup(factors)
        elements = list(g.elements())
        count = 0
        for phi in _all_endos(g):
            bijective = len({phi.apply(x) for x in elements}) == len(elements)
            inv = endo_invert(phi)
            assert (inv is not None) == bijective, phi
            if inv is not None:
                count += 1
                assert inv.compose(phi).is_identity() and phi.compose(inv).is_identity()
        assert count == order, g


def test_endo_invert_composites_on_infinite_groups():
    # Z^2: invertible iff det = +-1; Z/4 + Z: iff the torsion entry is a
    # unit mod 4 and the free entry is +-1
    r = range(-2, 3)
    free = FgAbGroup([], free_rank=2)
    mixed = FgAbGroup([4], free_rank=1)
    cases = [(Endo(free, [[a, b], [c, d]]), abs(a * d - b * c) == 1)
             for a, b, c, d in itertools.product(r, repeat=4)]
    cases += [(Endo(mixed, [[a, b], [0, d]]), a % 2 == 1 and abs(d) == 1)
              for a, b, d in itertools.product(r, repeat=3)]
    for phi, invertible in cases:
        inv = endo_invert(phi)
        assert (inv is not None) == invertible, phi
        if inv is not None:
            assert inv.compose(phi).is_identity() and phi.compose(inv).is_identity()


def test_ambient_mismatch_rejected():
    a, b = FgAbGroup([4]), FgAbGroup([8])
    with pytest.raises(AmbientMismatchError):
        subgroup_sum(a.full_subgroup(), b.full_subgroup())
    with pytest.raises(AmbientMismatchError):
        a.element([1]) + b.element([1])


def test_torsion_subgroup():
    g = FgAbGroup([2, 4], free_rank=1)
    t = g.torsion_subgroup()
    assert t.order() == 8
    assert g.full_subgroup().order() == INFINITE
    assert FgAbGroup([], free_rank=2).torsion_subgroup().is_zero()


@given(gen_lists)
def test_subgroup_canonical_form_is_generator_independent(gens):
    # shuffling or negating generators cannot change the subgroup
    g = FgAbGroup([4, 8])
    h1 = subgroup_from_generators(g, gens)
    h2 = subgroup_from_generators(g, [[-a for a in v] for v in reversed(gens)])
    assert h1 == h2
    assert hash(h1) == hash(h2)
