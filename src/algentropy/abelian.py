"""Finitely generated abelian groups in invariant-factor form.

A group is ``Z/d_1 + ... + Z/d_k + Z^r`` with 2 <= d_1 | d_2 | ... | d_k.
Elements are coordinate vectors (torsion coordinates reduced mod d_i),
subgroups are integer lattices L with  Lambda <= L <= Z^(k+r)  where
Lambda = <d_1 e_1, ..., d_k e_k> is the relation lattice, and
endomorphisms are integer matrices M acting on coordinate columns with
M Lambda <= Lambda.  All three are kept in canonical form, so equality
is structural equality.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .base import INFINITE
from .errors import (
    AmbientMismatchError,
    IncompatibleEndoError,
    UnsupportedAmbientError,
)
from . import intlinalg as ila

__all__ = [
    "FgAbGroup",
    "GroupElement",
    "Subgroup",
    "Endo",
    "canonicalize_presentation",
    "subgroup_from_generators",
    "subgroup_sum",
    "subgroup_intersect",
    "subgroup_index",
    "endo_apply_subgroup",
    "endo_kernel",
    "endo_preimage_subgroup",
    "endo_cokernel_order",
    "endo_invert",
]


@dataclass(frozen=True, slots=True, init=False)
class FgAbGroup:
    """Ambient group ``Z/d_1 + ... + Z/d_k + Z^r``.

    >>> A = FgAbGroup([2, 4], 1)
    >>> A.dim, A.order()
    (3, Infinite)
    >>> FgAbGroup([2, 6], 0).order()
    12
    """

    invariant_factors: tuple
    free_rank: int

    def __init__(self, invariant_factors, free_rank=0):
        factors = tuple(int(d) for d in invariant_factors)
        for d in factors:
            if d < 2:
                raise ValueError("invariant factors must be >= 2")
        for a, b in zip(factors, factors[1:]):
            if b % a:
                raise ValueError("invariant factors must form a divisibility chain")
        if free_rank < 0:
            raise ValueError("free rank must be >= 0")
        object.__setattr__(self, "invariant_factors", factors)
        object.__setattr__(self, "free_rank", int(free_rank))

    @property
    def torsion_length(self):
        return len(self.invariant_factors)

    @property
    def dim(self):
        return len(self.invariant_factors) + self.free_rank

    def is_finite(self):
        return self.free_rank == 0

    def order(self):
        if self.free_rank:
            return INFINITE
        n = 1
        for d in self.invariant_factors:
            n *= d
        return n

    def exponent(self):
        """Exponent of the torsion part (1 when torsion-free)."""
        return self.invariant_factors[-1] if self.invariant_factors else 1

    def relation_rows(self):
        """Rows spanning Lambda = <d_i e_i> inside Z^dim, in Hermite form."""
        n = self.dim
        return tuple(
            tuple(d if j == i else 0 for j in range(n))
            for i, d in enumerate(self.invariant_factors)
        )

    def _reduce_coords(self, coords):
        coords = [int(c) for c in coords]
        if len(coords) != self.dim:
            raise ValueError(f"expected {self.dim} coordinates, got {len(coords)}")
        for i, d in enumerate(self.invariant_factors):
            coords[i] %= d
        return tuple(coords)

    def element(self, coords):
        return GroupElement(self, self._reduce_coords(coords))

    def zero(self):
        return GroupElement(self, (0,) * self.dim)

    def elements(self):
        """Iterate all elements (finite groups only)."""
        if self.free_rank:
            raise UnsupportedAmbientError("cannot enumerate an infinite group")
        for coords in itertools.product(*(range(d) for d in self.invariant_factors)):
            yield GroupElement(self, coords)

    def zero_subgroup(self):
        return Subgroup(self, self.relation_rows())

    def full_subgroup(self):
        return Subgroup(self, ila.identity(self.dim))

    def torsion_subgroup(self):
        k, n = self.torsion_length, self.dim
        rows = tuple(tuple(1 if j == i else 0 for j in range(n)) for i in range(k))
        return Subgroup(self, ila.hnf(rows + self.relation_rows()))

    def __repr__(self):
        parts = [f"Z/{d}" for d in self.invariant_factors]
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        return " + ".join(parts) if parts else "0"


@dataclass(frozen=True, slots=True, init=False)
class GroupElement:
    """An element of an :class:`FgAbGroup`, stored as canonical coordinates."""

    group: FgAbGroup
    coords: tuple

    def __init__(self, group, coords):
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "coords", tuple(coords))

    def __add__(self, other):
        _same_group(self, other)
        return self.group.element([a + b for a, b in zip(self.coords, other.coords)])

    def __neg__(self):
        return self.group.element([-a for a in self.coords])

    def __sub__(self, other):
        return self + (-other)

    def __rmul__(self, k):
        return self.group.element([k * a for a in self.coords])

    def is_zero(self):
        return not any(self.coords)

    def order(self):
        """Order of the element; INFINITE when a free coordinate is nonzero."""
        g = self.group
        k = g.torsion_length
        if any(self.coords[k:]):
            return INFINITE
        n = 1
        for c, d in zip(self.coords, g.invariant_factors):
            if c:
                n = math.lcm(n, d // math.gcd(c, d))
        return n

    def __repr__(self):
        return f"{self.coords} in {self.group}"


def _same_group(a, b):
    if a.group != b.group:
        raise AmbientMismatchError(f"ambients differ: {a.group} vs {b.group}")


@dataclass(frozen=True, slots=True, init=False)
class Subgroup:
    """Subgroup of an :class:`FgAbGroup`, canonically a lattice over Lambda.

    ``basis`` is the Hermite normal form of the preimage lattice
    ``L_H <= Z^dim`` (which always contains the relation lattice), so two
    subgroups are equal iff their bases are identical tuples.
    """

    group: FgAbGroup
    basis: tuple

    def __init__(self, group, basis):
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "basis", tuple(tuple(r) for r in basis))

    def contains(self, elem):
        _same_group_sub(self, elem)
        return ila.in_lattice(elem.coords, self.basis)

    def contains_subgroup(self, other):
        _same_ambient(self, other)
        return all(ila.in_lattice(row, self.basis) for row in other.basis)

    def order(self):
        """Number of elements of the subgroup (INFINITE when it has free rank)."""
        return ila.index_in(self.basis, self.group.relation_rows())

    def free_rank(self):
        return len(self.basis) - self.group.torsion_length

    def is_zero(self):
        return self.basis == self.group.relation_rows()

    def elements(self):
        """All elements (requires a finite subgroup of a finite ambient)."""
        return [g for g in self.group.elements() if self.contains(g)]

    def __repr__(self):
        return f"Subgroup{self.basis} of {self.group}"


def _same_group_sub(h, elem):
    if h.group != elem.group:
        raise AmbientMismatchError("element does not live in the subgroup's ambient")


def _same_ambient(h, k):
    if h.group != k.group:
        raise AmbientMismatchError(f"ambients differ: {h.group} vs {k.group}")


@dataclass(frozen=True, slots=True, init=False)
class Endo:
    """Endomorphism of an :class:`FgAbGroup` as an integer matrix on columns.

    Compatibility ``M Lambda <= Lambda`` is checked on construction:
    for every torsion column i we need d_j | d_i M[j][i] on torsion rows
    and M[j][i] = 0 on free rows.  Torsion-row entries are then reduced
    mod d_j, which makes the matrix a canonical representative of the map.

    >>> A = FgAbGroup([4], 1)
    >>> Endo(A, [[2, 0], [0, 3]]).apply(A.element([3, 1])).coords
    (2, 3)
    """

    group: FgAbGroup
    matrix: tuple

    def __init__(self, group, matrix):
        n = group.dim
        mat = [[int(x) for x in row] for row in matrix]
        if len(mat) != n or any(len(row) != n for row in mat):
            raise ValueError(f"matrix must be {n}x{n}")
        k = group.torsion_length
        ds = group.invariant_factors
        for i in range(k):
            for j in range(n):
                if j < k:
                    if (ds[i] * mat[j][i]) % ds[j]:
                        raise IncompatibleEndoError(
                            f"column {i} breaks the relation lattice at row {j}"
                        )
                elif mat[j][i]:
                    raise IncompatibleEndoError(
                        f"torsion column {i} maps into the free part at row {j}"
                    )
        for j in range(k):
            for i in range(n):
                mat[j][i] %= ds[j]
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "matrix", tuple(tuple(row) for row in mat))

    def apply(self, elem):
        _same_group_sub_endo(self, elem)
        return self.group.element(ila.matvec(self.matrix, elem.coords))

    def compose(self, other):
        _same_endo_group(self, other)
        return Endo(self.group, ila.matmul(self.matrix, other.matrix))

    def __add__(self, other):
        _same_endo_group(self, other)
        return Endo(
            self.group,
            [
                [a + b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.matrix, other.matrix)
            ],
        )

    def power(self, k):
        if k < 0:
            raise ValueError("use endo_invert for negative powers")
        return Endo(self.group, ila.mat_power(self.matrix, k))

    def free_block(self):
        """The induced matrix on the free quotient A/t(A)."""
        k = self.group.torsion_length
        return tuple(row[k:] for row in self.matrix[k:])

    def is_identity(self):
        return self.matrix == _identity_endo_matrix(self.group)

    def __repr__(self):
        return f"Endo{self.matrix} on {self.group}"


def _identity_endo_matrix(group):
    return Endo(group, ila.identity(group.dim)).matrix


def _same_group_sub_endo(phi, elem):
    if phi.group != elem.group:
        raise AmbientMismatchError("element does not live in the endo's ambient")


def _same_endo_group(a, b):
    if a.group != b.group:
        raise AmbientMismatchError("endomorphisms live on different ambients")


def canonicalize_presentation(relations, ngens=None):
    """Group presented by generators modulo integer relation rows.

    Returns the :class:`FgAbGroup` isomorphic to Z^ngens / <rows>.

    >>> canonicalize_presentation([[2, 0], [0, 3]])
    Z/6
    >>> canonicalize_presentation([[2, 0], [0, 0]])
    Z/2 + Z
    """
    rows = [tuple(int(x) for x in r) for r in relations]
    if rows:
        widths = {len(r) for r in rows}
        if len(widths) != 1:
            raise ValueError("relation rows must all have the same length")
        inferred = widths.pop()
        if ngens is None:
            ngens = inferred
        elif ngens != inferred:
            raise ValueError("ngens does not match relation row length")
    elif ngens is None:
        raise ValueError("ngens required when there are no relations")
    diag = ila.snf_invariant_factors(rows) if rows else []
    # snf drops structural zeros, so every entry of diag is positive
    factors = [d for d in diag if d >= 2]
    return FgAbGroup(factors, ngens - len(diag))


def subgroup_from_generators(group, gens):
    """Subgroup generated by elements (given as GroupElements or coord rows).

    >>> A = FgAbGroup([], 2)
    >>> subgroup_from_generators(A, [[2, 0], [3, 0]]).basis
    ((1, 0),)
    """
    rows = []
    for g in gens:
        coords = g.coords if isinstance(g, GroupElement) else group._reduce_coords(g)
        if isinstance(g, GroupElement) and g.group != group:
            raise AmbientMismatchError("generator from a different ambient")
        rows.append(coords)
    return Subgroup(group, ila.hnf(tuple(rows) + group.relation_rows()))


def subgroup_sum(h, k):
    _same_ambient(h, k)
    return Subgroup(h.group, ila.lattice_sum(h.basis, k.basis))


def subgroup_intersect(h, k):
    _same_ambient(h, k)
    return Subgroup(h.group, ila.lattice_intersect(h.basis, k.basis, h.group.dim))


def subgroup_index(h, k):
    """[H : H ∩ K], an exact int or INFINITE."""
    meet = subgroup_intersect(h, k)
    return ila.index_in(h.basis, meet.basis)


def endo_apply_subgroup(phi, h):
    """Image subgroup phi(H)."""
    if phi.group != h.group:
        raise AmbientMismatchError("endo and subgroup ambients differ")
    rows = [ila.matvec(phi.matrix, row) for row in h.basis]
    return Subgroup(h.group, ila.hnf(tuple(rows) + h.group.relation_rows()))


def endo_kernel(phi):
    """Kernel subgroup {x in A : phi(x) = 0}."""
    return endo_preimage_subgroup(phi, phi.group.zero_subgroup())


def endo_preimage_subgroup(phi, sub):
    """Full preimage {x in A : phi(x) in sub} as a Subgroup."""
    if phi.group != sub.group:
        raise AmbientMismatchError("subgroup does not live in the endo's ambient")
    g = phi.group
    pre = ila.preimage_lattice(phi.matrix, sub.basis, g.dim)
    return Subgroup(g, ila.hnf(tuple(pre) + g.relation_rows()))


def endo_cokernel_order(phi):
    """|A / phi(A)| as an int, or INFINITE."""
    g = phi.group
    image = endo_apply_subgroup(phi, g.full_subgroup())
    return ila.index_in(ila.identity(g.dim), image.basis)


def endo_invert(phi):
    """Inverse endomorphism when ``phi`` is an automorphism, else None.

    The rows of [M | Lambda^T]^T span Z^n exactly when phi is onto, and
    a surjective endomorphism of a finitely generated abelian group is
    bijective.  Then row i of the Hermite transform solves
    M x = e_i modulo Lambda, and its first n entries are column i of
    the inverse.
    """
    g = phi.group
    n = g.dim
    h, u = ila.hnf_with_transform(ila.transpose(phi.matrix) + g.relation_rows())
    if h[:n] != ila.identity(n):
        return None
    return Endo(g, ila.transpose([row[:n] for row in u[:n]]))
