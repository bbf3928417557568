"""Fully inert subgroups: decision procedures and the descriptor classifier.

The free-ambient decision is cross-checked by brute force over a box
of endomorphism matrices: a negative verdict must be refutable inside
the box, a positive verdict must survive all of it.
"""

import itertools

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from algentropy.abelian import Endo, FgAbGroup, subgroup_from_generators
from algentropy.base import INFINITE, is_finite
from algentropy.cayley import symmetric
from algentropy.errors import DomainError, UnsupportedAmbientError
from algentropy.fully_inert import (
    BoxDecomposition,
    GroupDescriptor,
    PrimePart,
    TorsionFreePart,
    box_decompose_fully_inert,
    classify_self_inert,
    commensurable_fully_invariant,
    is_fully_inert,
    is_uniformly_fully_inert,
)
from algentropy.inertia import inert_index
from algentropy.rational import RationalLattice


def all_endos(group, bound):
    dim = group.dim
    for entries in itertools.product(range(-bound, bound + 1), repeat=dim * dim):
        yield Endo(group, [list(entries[i * dim : (i + 1) * dim]) for i in range(dim)])


def test_free_rank_two_known_cases():
    z2 = FgAbGroup([], 2)
    assert is_fully_inert(subgroup_from_generators(z2, [[2, 0], [0, 3]]))
    assert is_fully_inert(z2.zero_subgroup())
    assert is_fully_inert(z2.full_subgroup())
    assert not is_fully_inert(subgroup_from_generators(z2, [[1, 0]]))
    assert not is_fully_inert(subgroup_from_generators(z2, [[2, 2]]))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.integers(0, 3), min_size=2, max_size=2), min_size=0, max_size=2))
def test_verdict_matches_brute_force_over_endo_box(rows):
    z2 = FgAbGroup([], 2)
    h = subgroup_from_generators(z2, rows)
    verdict = is_fully_inert(h)
    refuted = any(not inert_index(h, phi).inert for phi in all_endos(z2, 2))
    assert verdict == (not refuted)


def test_finite_ambients_are_trivial():
    g = FgAbGroup([4, 8])
    for rows in ([], [[1, 0]], [[2, 4]]):
        assert is_fully_inert(subgroup_from_generators(g, rows))


def test_mixed_infinite_ambient_rejected():
    g = FgAbGroup([2], 1)
    with pytest.raises(UnsupportedAmbientError):
        is_fully_inert(subgroup_from_generators(g, [[1, 0]]))


def test_rational_lattices():
    assert is_fully_inert(RationalLattice.standard(3))
    assert is_fully_inert(RationalLattice.zero(3))
    assert not is_fully_inert(RationalLattice.from_rows(3, [[1, 0, 0]]))


def test_finite_table_groups():
    g = symmetric(3)
    x = next(a for a in g.elements() if g.element_order(a) == 2)
    y = next(a for a in g.elements() if g.element_order(a) == 3)
    assert is_fully_inert(frozenset({g.identity, x}), ambient=g)
    with pytest.raises(DomainError):
        # size 3 with an involution cannot be a subgroup
        is_fully_inert(frozenset({g.identity, x, y}), ambient=g)
    with pytest.raises(UnsupportedAmbientError):
        is_fully_inert(frozenset({0}))


def test_commensurable_fully_invariant_values():
    z2 = FgAbGroup([], 2)
    assert commensurable_fully_invariant(subgroup_from_generators(z2, [[6, 0], [0, 6]])) == 6
    assert commensurable_fully_invariant(subgroup_from_generators(z2, [[2, 0], [0, 3]])) == 1
    assert commensurable_fully_invariant(subgroup_from_generators(z2, [[1, 0]])) is None
    assert commensurable_fully_invariant(z2.zero_subgroup()) == 0
    with pytest.raises(UnsupportedAmbientError):
        commensurable_fully_invariant(FgAbGroup([4]).full_subgroup())


def test_uniform_verdicts():
    assert is_uniformly_fully_inert(RationalLattice.zero(3)).uniform
    v = is_uniformly_fully_inert(RationalLattice.standard(1), threshold=100)
    assert not v.uniform
    assert v.witness_power == 7 and v.witness_index == 128
    # the reported witness genuinely exceeds the threshold
    assert v.witness_index > 100
    v2 = is_uniformly_fully_inert(RationalLattice.standard(2), threshold=10)
    assert v2.witness_index == 16


def test_classifier_decision_table():
    ok = classify_self_inert(GroupDescriptor(torsion_free=TorsionFreePart("divisible", 2)))
    assert ok.verdict is True
    assert classify_self_inert(
        GroupDescriptor(torsion_free=TorsionFreePart("homogeneous_cd", 3))
    ).verdict is True
    assert classify_self_inert(
        GroupDescriptor(torsion_free=TorsionFreePart("homogeneous_cd", INFINITE))
    ).verdict is False
    unknown = classify_self_inert(GroupDescriptor(torsion_free=TorsionFreePart("other")))
    assert unknown.verdict is None
    assert "unclassified" in unknown.reason


def test_classifier_prime_clauses():
    two_infinite = GroupDescriptor(
        primes={2: PrimePart(uk_invariants={1: INFINITE, 2: INFINITE})}
    )
    assert classify_self_inert(two_infinite).verdict is False
    one_infinite = GroupDescriptor(
        primes={2: PrimePart(uk_invariants={1: INFINITE, 2: 5})}
    )
    assert classify_self_inert(one_infinite).verdict is True
    mixed = GroupDescriptor(
        primes={3: PrimePart(divisible_rank=1, uk_invariants={2: 1})}
    )
    out = classify_self_inert(mixed)
    assert out.verdict is False and "p=3" in out.reason
    divisible = GroupDescriptor(primes={5: PrimePart(divisible_rank=INFINITE)})
    assert classify_self_inert(divisible).verdict is True


def test_classifier_cofinite_clause():
    assert classify_self_inert(GroupDescriptor(cofinite_default="neither")).verdict is False
    assert classify_self_inert(
        GroupDescriptor(cofinite_default="single_nonzero_uk")
    ).verdict is True


def test_descriptor_validation():
    with pytest.raises(DomainError):
        GroupDescriptor(primes={4: PrimePart()})
    with pytest.raises(DomainError):
        PrimePart(uk_invariants={0: 1})
    with pytest.raises(DomainError):
        PrimePart(uk_invariants={1: 0})
    with pytest.raises(DomainError):
        TorsionFreePart("cyclic")
    with pytest.raises(DomainError):
        TorsionFreePart("zero", rank=1)
    with pytest.raises(DomainError):
        GroupDescriptor(cofinite_default="anything")


def test_box_decomposition_diagonal_defect():
    z2 = FgAbGroup([], 2)
    diag = subgroup_from_generators(z2, [[1, 1]])
    out = box_decompose_fully_inert(diag, [[0], [1]])
    assert out.defect == INFINITE
    assert out.fully_inert is False
    assert all(piece.is_zero() for piece in out.pieces)
    # the refutation is verified to refute
    assert out.refutation is not None
    assert not inert_index(diag, out.refutation).inert


def test_box_decomposition_aligned_case():
    z2 = FgAbGroup([], 2)
    h = subgroup_from_generators(z2, [[2, 0], [0, 3]])
    out = box_decompose_fully_inert(h, [[0], [1]])
    assert out.defect == 1
    assert out.fully_inert is True
    assert out.refutation is None
    assert out.factor_verdicts == (True, True)
    assert out.boxlike == h


def test_box_decomposition_axis_subgroup():
    # H = Z + 0 is boxlike (defect 1) yet not fully inert globally:
    # the factor verdicts cannot see the swap endomorphism
    z2 = FgAbGroup([], 2)
    axis = subgroup_from_generators(z2, [[1, 0]])
    out = box_decompose_fully_inert(axis, [[0], [1]])
    assert out.defect == 1
    assert out.factor_verdicts == (True, True)
    assert out.fully_inert is False
    assert not inert_index(axis, out.refutation).inert


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(-3, 3), min_size=3, max_size=3), max_size=3))
def test_box_decomposition_refutation_refutes(gens):
    # the refutation is returned as built; the oracle is its inert index
    z3 = FgAbGroup([], 3)
    h = subgroup_from_generators(z3, gens)
    out = box_decompose_fully_inert(h, [[0], [1, 2]])
    assert out.fully_inert == (not gens or sympy.Matrix(gens).rank() in (0, 3))
    if out.refutation is not None:
        assert not inert_index(h, out.refutation).inert
    else:
        assert out.fully_inert


def test_box_decomposition_finite_ambient():
    g = FgAbGroup([2, 4])
    h = subgroup_from_generators(g, [[1, 2]])
    out = box_decompose_fully_inert(h, [[0, 1]])
    assert out.fully_inert is True
    assert out.defect == 1


def test_box_decomposition_partition_required():
    z2 = FgAbGroup([], 2)
    h = z2.full_subgroup()
    with pytest.raises(DomainError):
        box_decompose_fully_inert(h, [[0]])
    with pytest.raises(DomainError):
        box_decompose_fully_inert(h, [[0, 1], [1]])
    with pytest.raises(UnsupportedAmbientError):
        box_decompose_fully_inert(RationalLattice.standard(2), [[0], [1]])
