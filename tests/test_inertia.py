"""Inertness verdicts, inertial endomorphism recognition, multiplications.

The structural facts get randomized suites: commensurability is an
equivalence relation, inert subgroups for a fixed map are closed under
sum, intersection, and commensurability, and the maps leaving a fixed
subgroup inert are closed under addition and composition.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algentropy.abelian import (
    Endo,
    FgAbGroup,
    endo_apply_subgroup,
    endo_kernel,
    endo_preimage_subgroup,
    subgroup_from_generators,
    subgroup_index,
    subgroup_intersect,
    subgroup_sum,
)
from algentropy.base import INFINITE, is_finite
from algentropy.cayley import symmetric
from algentropy.errors import NotDivisibleError, UnsupportedAmbientError
from algentropy.inertia import (
    _fg_preimage,
    almost_contained,
    commensurable,
    cylinder_inert_index,
    inert_index,
    is_finitary,
    is_inertial_endomorphism,
    is_multiplication,
    iterated_inert_index,
    make_multiplication,
    multiplication_scalar,
    strict_inert_index,
)
from algentropy.models import CylinderFamily
from algentropy.rational import (
    QSpace,
    RationalEndo,
    RationalLattice,
    endo_apply_lattice,
    lattice_intersect,
    preimage_in_lattice,
)


def test_almost_containment_on_integers():
    z = FgAbGroup([], 1)
    two = subgroup_from_generators(z, [[2]])
    three = subgroup_from_generators(z, [[3]])
    assert almost_contained(two, three)
    assert almost_contained(three, two)
    assert not almost_contained(z.full_subgroup(), z.zero_subgroup())
    assert almost_contained(z.zero_subgroup(), z.full_subgroup())
    assert commensurable(two, three)
    assert not commensurable(two, z.zero_subgroup())


small_vecs = st.lists(st.lists(st.integers(-3, 3), min_size=2, max_size=2), min_size=0, max_size=2)


@given(small_vecs, small_vecs, small_vecs)
def test_commensurability_is_an_equivalence(xs, ys, zs):
    g = FgAbGroup([], 2)
    h = subgroup_from_generators(g, xs)
    k = subgroup_from_generators(g, ys)
    l = subgroup_from_generators(g, zs)
    assert commensurable(h, h)
    assert commensurable(h, k) == commensurable(k, h)
    if commensurable(h, k) and commensurable(k, l):
        assert commensurable(h, l)


def test_inert_index_known_cases():
    half = RationalEndo.scalar(1, Fraction(1, 2))
    v = inert_index(RationalLattice.standard(1), half)
    assert v.inert and v.index == 2

    z2 = FgAbGroup([], 2)
    shear = Endo(z2, [[1, 1], [0, 1]])
    axis1 = subgroup_from_generators(z2, [[1, 0]])
    axis2 = subgroup_from_generators(z2, [[0, 1]])
    assert inert_index(axis1, shear) == inert_index(axis1, shear).__class__(True, 1)
    bad = inert_index(axis2, shear)
    assert not bad.inert and bad.index == INFINITE


def test_inert_index_on_finite_table_group():
    g = symmetric(3)
    x = next(a for a in g.elements() if g.element_order(a) == 2)
    sub = frozenset({g.identity, x})
    phi = g.inner_automorphism(x)
    v = inert_index(sub, phi, group=g)
    assert v.inert and v.index == 1


endos = st.lists(st.lists(st.integers(-3, 3), min_size=2, max_size=2), min_size=2, max_size=2)


@given(small_vecs, endos)
def test_strict_and_image_form_agree_on_finiteness(gens, mat):
    # (H + phi H)/H is isomorphic to phi H/(phi H meet H); the oracle is
    # the additive index read off its own sum
    g = FgAbGroup([], 2)
    h = subgroup_from_generators(g, gens)
    phi = Endo(g, mat)
    additive = subgroup_index(subgroup_sum(h, endo_apply_subgroup(phi, h)), h)
    assert strict_inert_index(h, phi) == additive
    assert is_finite(additive) == inert_index(h, phi).inert


@settings(max_examples=150)
@given(small_vecs, small_vecs, endos)
def test_inert_family_is_a_sublattice(xs, ys, mat):
    g = FgAbGroup([], 2)
    h = subgroup_from_generators(g, xs)
    k = subgroup_from_generators(g, ys)
    phi = Endo(g, mat)
    if is_finite(strict_inert_index(h, phi)) and is_finite(strict_inert_index(k, phi)):
        assert is_finite(strict_inert_index(subgroup_sum(h, k), phi))
        assert is_finite(strict_inert_index(subgroup_intersect(h, k), phi))


@settings(max_examples=150)
@given(small_vecs, st.integers(1, 3), endos)
def test_inertness_invariant_under_commensurability(xs, scale, mat):
    g = FgAbGroup([], 2)
    h = subgroup_from_generators(g, xs)
    # scaling a basis gives a commensurable subgroup
    k = subgroup_from_generators(g, [[scale * a for a in row] for row in h.basis])
    phi = Endo(g, mat)
    assert commensurable(h, k)
    assert is_finite(strict_inert_index(h, phi)) == is_finite(
        strict_inert_index(k, phi)
    )


@settings(max_examples=150)
@given(small_vecs, endos, endos)
def test_maps_fixing_a_subgroup_form_a_ring(gens, m1, m2):
    g = FgAbGroup([], 2)
    h = subgroup_from_generators(g, gens)
    phi, psi = Endo(g, m1), Endo(g, m2)
    if is_finite(strict_inert_index(h, phi)) and is_finite(strict_inert_index(h, psi)):
        assert is_finite(strict_inert_index(h, phi + psi))
        assert is_finite(strict_inert_index(h, phi.compose(psi)))


def test_cylinder_inert_indices():
    one = CylinderFamily(FgAbGroup([3]))
    assert cylinder_inert_index(one, 0).index == 1
    assert cylinder_inert_index(one, 2).index == 3
    two = CylinderFamily(FgAbGroup([3]), two_sided=True)
    assert cylinder_inert_index(two, 0).index == 3
    assert all(cylinder_inert_index(two, k).inert for k in range(4))


def test_iterated_index_of_rational_scalar():
    half = RationalEndo.scalar(1, Fraction(1, 2))
    assert [iterated_inert_index(RationalLattice.standard(1), half, k) for k in range(4)] == [1, 2, 4, 8]
    third = RationalEndo.scalar(2, Fraction(5, 3))
    assert iterated_inert_index(RationalLattice.standard(2), third, 2) == 81


def test_iterated_index_negative_powers():
    two = RationalEndo.scalar(1, Fraction(2))
    # the inverse is multiplication by 1/2
    assert iterated_inert_index(RationalLattice.standard(1), two, -3) == 8
    assert iterated_inert_index(RationalLattice.standard(1), two, 3) == 1


def test_inertial_decision_scalars_and_witnesses():
    z2 = FgAbGroup([], 2)
    for m in (-3, 0, 1, 7):
        cert = is_inertial_endomorphism(make_multiplication(z2, m))
        assert cert.inertial and cert.m == m
    cert = is_inertial_endomorphism(Endo(z2, [[1, 1], [0, 1]]))
    assert not cert.inertial
    assert cert.kind == "non_inertial_witness"
    assert strict_inert_index(cert.witness, Endo(z2, [[1, 1], [0, 1]])) == INFINITE


def _ladder_witness(phi):
    """The first cyclic witness on the ladder e_i, e_i +- e_j, e_i + h e_j
    (h <= 8), found by strict index: what the matrix read-off must return."""
    group = phi.group
    rank = group.free_rank
    ladder = []
    for i in range(rank):
        ladder.append({i: 1})
    for i in range(rank):
        for j in range(i + 1, rank):
            ladder += [{i: 1, j: 1}, {i: 1, j: -1}]
    for height in range(2, 9):
        ladder += [{i: 1, j: height} for i in range(rank) for j in range(rank) if i != j]
    for entries in ladder:
        vec = [entries.get(i, 0) for i in range(rank)]
        witness = subgroup_from_generators(group, [[0] * group.torsion_length + vec])
        if not is_finite(strict_inert_index(witness, phi)):
            return witness
    return None


def _random_endo(draw, group, free_block):
    """An endomorphism with the given free block; torsion columns stay torsion."""
    ds, k, n = group.invariant_factors, group.torsion_length, group.dim
    mat = [[draw.randint(-3, 3) for _ in range(n)] for _ in range(n)]
    for i in range(k):
        for j in range(n):
            mat[j][i] = mat[j][i] * (ds[j] // math.gcd(ds[i], ds[j])) if j < k else 0
    for i in range(n - k):
        for j in range(n - k):
            mat[k + i][k + j] = free_block[i][j]
    return Endo(group, mat)


def test_witness_matches_the_ladder_on_groups_with_torsion():
    draw = random.Random("witness")
    groups = [FgAbGroup([2], 2), FgAbGroup([2, 4], 3), FgAbGroup([3], 1), FgAbGroup([6], 3)]
    for trial in range(300):
        group = draw.choice(groups)
        r = group.free_rank
        kind = trial % 3
        # off-diagonal entries, a diagonal block, or a scalar one
        block = [[draw.randint(-2, 2) if kind == 0 or i == j else 0 for j in range(r)]
                 for i in range(r)]
        if kind == 2:
            block = [[block[0][0] if i == j else 0 for j in range(r)] for i in range(r)]
        phi = _random_endo(draw, group, block)
        cert = is_inertial_endomorphism(phi)
        expected = _ladder_witness(phi)
        assert cert.inertial == (expected is None)
        if expected is not None:
            assert cert.witness == expected


def test_one_step_preimage_is_the_meet_with_the_full_preimage():
    # the oracle is the two-step route: the full preimage, then a meet
    draw = random.Random("preimage")
    groups = [FgAbGroup([], 2), FgAbGroup([], 3), FgAbGroup([4], 1), FgAbGroup([2, 8]),
              FgAbGroup([6], 2), FgAbGroup([3]), FgAbGroup([], 1), FgAbGroup([])]
    for _ in range(400):
        group = draw.choice(groups)
        r = group.free_rank
        phi = _random_endo(draw, group, [[draw.randint(-3, 3) for _ in range(r)]
                                         for _ in range(r)])
        target, within = (
            subgroup_from_generators(group, [[draw.randint(-4, 4) for _ in range(group.dim)]
                                             for _ in range(draw.randint(0, 3))])
            for _ in range(2))
        expected = subgroup_intersect(within, endo_preimage_subgroup(phi, target))
        assert _fg_preimage(phi, target, within) == expected
    # on Q^n the full preimage of a lattice is one only for an invertible map
    for _ in range(400):
        dim = draw.randint(1, 3)
        phi = RationalEndo(dim, [[Fraction(draw.randint(-5, 5), draw.randint(1, 3))
                                  for _ in range(dim)] for _ in range(dim)])
        if phi.det() == 0:
            continue
        target, within = (
            RationalLattice.from_rows(dim, [[Fraction(draw.randint(-6, 6), draw.randint(1, 4))
                                             for _ in range(dim)]
                                            for _ in range(draw.randint(0, dim))])
            for _ in range(2))
        expected = lattice_intersect(within, endo_apply_lattice(phi.invert(), target))
        assert preimage_in_lattice(phi, target, within) == expected


def test_every_endo_of_a_finite_group_is_inertial():
    g = FgAbGroup([2, 8])
    # images of the order-2 generator must be 2-torsion
    for mat in ([[1, 0], [4, 3]], [[0, 0], [4, 0]], [[1, 1], [4, 5]]):
        assert is_inertial_endomorphism(Endo(g, mat)).inertial


def test_inertial_decision_mixed_groups():
    mixed = FgAbGroup([4], 2)
    scalar = Endo(mixed, [[3, 0, 0], [0, 5, 0], [0, 0, 5]])
    assert is_inertial_endomorphism(scalar).inertial
    twist = Endo(mixed, [[1, 0, 0], [0, 1, 2], [0, 0, 1]])
    cert = is_inertial_endomorphism(twist)
    assert not cert.inertial
    assert not is_finite(strict_inert_index(cert.witness, twist))


def test_make_multiplication_paths():
    q2 = QSpace(2)
    half = make_multiplication(q2, Fraction(1, 2))
    assert half.is_scalar() and half.matrix[0][0] == Fraction(1, 2)

    g = FgAbGroup([5])
    assert make_multiplication(g, Fraction(1, 2)).matrix == ((3,),)
    with pytest.raises(NotDivisibleError):
        make_multiplication(g, Fraction(1, 5))
    with pytest.raises(NotDivisibleError):
        make_multiplication(FgAbGroup([], 1), Fraction(1, 2))
    with pytest.raises(UnsupportedAmbientError):
        make_multiplication("Z", 2)


def test_multiplication_recognition():
    g = FgAbGroup([2, 4])
    assert is_multiplication(Endo(g, [[1, 0], [0, 3]]))
    assert multiplication_scalar(Endo(g, [[1, 0], [0, 3]])) == 3
    assert not is_multiplication(Endo(FgAbGroup([], 2), [[1, 1], [0, 1]]))
    assert multiplication_scalar(RationalEndo.scalar(3, Fraction(7, 2))) == Fraction(7, 2)
    assert multiplication_scalar(RationalEndo(2, [[1, 1], [0, 1]])) is None


def test_multiplication_round_trip_on_rationals():
    g = FgAbGroup([7])
    phi = make_multiplication(g, Fraction(2, 3))
    # 2 * 3^{-1} = 2 * 5 = 10 = 3 mod 7
    assert phi.matrix == ((3,),)
    assert multiplication_scalar(phi) == 3


def test_is_finitary():
    g = FgAbGroup([8], 2)
    assert is_finitary(Endo(g, [[5, 0, 0], [0, 1, 0], [0, 0, 1]]))
    assert not is_finitary(make_multiplication(FgAbGroup([], 1), 2))
    assert is_finitary(make_multiplication(FgAbGroup([6]), 5))
    z2 = FgAbGroup([], 2)
    assert is_finitary(Endo(z2, [[1, 0], [0, 1]]))
    assert not is_finitary(Endo(z2, [[1, 1], [0, 1]]))


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_is_finitary_matches_the_fixed_point_index(data):
    # oracle: the index of the fixed points ker(phi - 1) in the whole group
    ds = data.draw(st.sampled_from([[], [2], [4], [2, 4], [3, 6], [2, 2]]))
    rank = data.draw(st.integers(0, 2))
    group = FgAbGroup(ds, rank)
    k, n = len(ds), len(ds) + rank
    nudge = st.sampled_from([0, 0, 0, 1, -1])
    mat = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i < k and j < k:  # torsion into torsion: d_j | d_i M[j][i]
                mat[j][i] = data.draw(st.integers(0, 3)) * (ds[j] // math.gcd(ds[i], ds[j]))
            elif j < k:
                mat[j][i] = data.draw(st.integers(0, ds[j] - 1))
            elif i >= k:
                mat[j][i] = (i == j) + data.draw(nudge)
    phi = Endo(group, mat)
    fixed = endo_kernel(phi + make_multiplication(group, -1))
    assert is_finitary(phi) == is_finite(subgroup_index(group.full_subgroup(), fixed))
