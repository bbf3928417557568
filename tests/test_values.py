"""The value contract shared by every ambient type.

Groups, elements, subgroups, endomorphisms, lattices, polynomials, shift
models and Cayley tables are immutable, and two of them are equal exactly
when their canonical forms are, with equal hashes.  Each case builds one
value, an equal twin by another route, and a different value.
"""

from dataclasses import fields
from fractions import Fraction

import pytest

from algentropy.abelian import Endo, FgAbGroup, GroupElement, canonicalize_presentation
from algentropy.abelian import subgroup_from_generators
from algentropy.cayley import FiniteGroup, cyclic
from algentropy.models import CylinderFamily, LinearShiftSpace, ShiftGroup
from algentropy.polynomial import IntPolynomial
from algentropy.rational import QSpace, RationalEndo, RationalLattice

A = FgAbGroup([2, 4], 1)
Z2 = FgAbGroup([], 2)
B = ShiftGroup(FgAbGroup([2]))


def _c3_with_identity_at(e):
    """Z/3 on {0, 1, 2} with ``e`` as its identity."""
    label = [(e + k) % 3 for k in range(3)]
    table = [[0] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(3):
            table[label[i]][label[j]] = label[(i + j) % 3]
    return FiniteGroup(table)


# (value, equal twin built another way, different value, repr)
CASES = {
    "FgAbGroup": (
        A,
        canonicalize_presentation([[2, 0, 0], [0, 4, 0]]),
        FgAbGroup([2, 4], 2),
        "Z/2 + Z/4 + Z",
    ),
    "GroupElement": (
        A.element([3, 5, -1]),
        GroupElement(A, [1, 1, -1]),
        A.element([1, 1, 1]),
        "(1, 1, -1) in Z/2 + Z/4 + Z",
    ),
    "Subgroup": (
        subgroup_from_generators(Z2, [[2, 0], [3, 0]]),
        subgroup_from_generators(Z2, [[-1, 0]]),
        subgroup_from_generators(Z2, [[0, 1]]),
        "Subgroup((1, 0),) of Z^2",
    ),
    "Endo": (
        Endo(FgAbGroup([4], 1), [[2, 0], [0, 3]]),
        Endo(FgAbGroup([4], 1), [[6, 4], [0, 3]]),
        Endo(FgAbGroup([4], 1), [[2, 0], [0, -3]]),
        "Endo((2, 0), (0, 3)) on Z/4 + Z",
    ),
    "ShiftElement": (
        B.element({0: [1], 2: [1]}),
        B.element({0: [1]}) + B.element({0: [1]}).shifted(2),
        B.element({0: [1], 3: [1]}),
        "ShiftElement(0:[1], 2:[1])",
    ),
    "ShiftGroup": (
        B,
        ShiftGroup(canonicalize_presentation([[2]])),
        ShiftGroup(FgAbGroup([3])),
        "ShiftGroup(Z/2)",
    ),
    "LinearShiftSpace": (
        LinearShiftSpace(),
        LinearShiftSpace(0),
        LinearShiftSpace(2),
        "LinearShiftSpace(Q)",
    ),
    "CylinderFamily": (
        CylinderFamily(FgAbGroup([3]), True),
        CylinderFamily(canonicalize_presentation([[3]]), two_sided=1),
        CylinderFamily(FgAbGroup([3])),
        "CylinderFamily(Z/3, two-sided)",
    ),
    "IntPolynomial": (
        IntPolynomial([-1, 0, 1]),
        IntPolynomial([-1, 1]) * IntPolynomial([1, 1, 0, 0]),
        IntPolynomial([1, 0, 1]),
        "IntPolynomial(-1, 0, 1)",
    ),
    "QSpace": (QSpace(2), QSpace(2.0), QSpace(3), "QSpace(2)"),
    "RationalLattice": (
        RationalLattice.standard(2),
        RationalLattice.from_rows(2, [[1, 1], [Fraction(2, 2), 0], [3, 5]]),
        RationalLattice.zero(2),
        "RationalLattice(dim=2, den=1, mat=((1, 0), (0, 1)))",
    ),
    "RationalEndo": (
        RationalEndo.scalar(2, Fraction(1, 2)),
        RationalEndo(2, [[Fraction(2, 4), 0], [0, Fraction(3, 6)]]),
        RationalEndo.scalar(2, Fraction(1, 3)),
        "RationalEndo(((Fraction(1, 2), Fraction(0, 1)), (Fraction(0, 1), Fraction(1, 2))))",
    ),
    "FiniteGroup": (
        cyclic(3),
        _c3_with_identity_at(0),
        _c3_with_identity_at(1),
        "FiniteGroup(order=3)",
    ),
}


@pytest.mark.parametrize("name", CASES)
def test_values_are_immutable_and_compare_by_canonical_form(name):
    value, twin, other, text = CASES[name]
    assert type(value).__name__ == name
    for f in fields(value):
        with pytest.raises(AttributeError):
            setattr(value, f.name, getattr(other, f.name))
    # a name that is not a field has no slot; before Python 3.12 the frozen
    # __setattr__ of a slotted dataclass raises TypeError for it
    with pytest.raises((AttributeError, TypeError)):
        value.extra = 0
    assert not hasattr(value, "extra")
    assert twin is not value
    assert twin == value and hash(twin) == hash(value)
    assert other != value
    assert repr(value) == text
