"""Infinite ambients where nonzero entropy lives.

Finitely generated groups force algebraic entropy to vanish, so the
interesting dynamics happen on three computable infinite models:

* :class:`ShiftGroup`, the direct sum of countably many copies of a finite
  abelian cell, carrying the right shift.  Elements are finitely supported;
  the trajectory of a finite F grows by setwise sums T_{n+1} = T_n + beta^n(F),
  one coset per new shifted element, under an element cap.  Closures and
  shift entropies read one lattice whose cell relations stay implicit.
* :class:`LinearShiftSpace`, finitely supported sequences over GF(p) or
  the rationals, where the subadditive invariant is a dimension; spans
  are reduced on the same integer lattices.
* :class:`CylinderFamily`, the chain of cylinder subgroups of the full
  (uncountable) product, kept entirely symbolic: every answer is a closed
  form in the cell order, no product element is ever materialized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

from .abelian import FgAbGroup
from .base import _is_prime, setwise_trajectory
from .config import default_config
from .errors import AmbientMismatchError, BudgetExceededError, DomainError
from .intlinalg import _gauss_jordan, hnf
from .rational import _clear

__all__ = [
    "ShiftElement",
    "ShiftGroup",
    "shift_trajectory_order",
    "LinearShiftSpace",
    "CylinderFamily",
    "cylinder_cotrajectory_index",
    "two_sided_shift_inert_index",
]

@dataclass(frozen=True, slots=True)
class ShiftElement:
    """A finitely supported map position -> cell element.

    Canonical form: ``support`` is a tuple of (position, coords) pairs
    sorted by position, with every coords tuple reduced and nonzero.
    """

    group: ShiftGroup
    support: tuple

    def is_zero(self):
        return not self.support

    def __add__(self, other):
        if not isinstance(other, ShiftElement) or other.group != self.group:
            raise AmbientMismatchError("elements of different shift groups")
        return self.group._combine(self, other, 1)

    def __neg__(self):
        zero = self.group.zero()
        return self.group._combine(zero, self, -1)

    def __sub__(self, other):
        if not isinstance(other, ShiftElement) or other.group != self.group:
            raise AmbientMismatchError("elements of different shift groups")
        return self.group._combine(self, other, -1)

    def shifted(self, steps=1):
        """Image under the right shift iterated ``steps`` times."""
        if steps < 0:
            raise DomainError("right shift has no negative powers")
        if steps == 0 or not self.support:
            return self
        support = tuple((pos + steps, c) for pos, c in self.support)
        return ShiftElement(self.group, support)

    def __repr__(self):
        if not self.support:
            return "ShiftElement(0)"
        parts = ", ".join(f"{pos}:{list(c)}" for pos, c in self.support)
        return f"ShiftElement({parts})"


@dataclass(frozen=True, slots=True, init=False)
class ShiftGroup:
    """Direct sum of copies of a finite abelian cell, indexed by 0,1,2,...

    The canonical endomorphism is the right shift, which sends the copy
    at position n identically onto the copy at position n+1.

    >>> B = ShiftGroup(FgAbGroup([2]))
    >>> x = B.element({0: [1]})
    >>> (x + x).is_zero()
    True
    >>> x.shifted().support
    ((1, (1,)),)
    """

    cell: FgAbGroup

    def __init__(self, cell):
        if not isinstance(cell, FgAbGroup):
            raise TypeError("cell must be an FgAbGroup")
        if cell.free_rank != 0:
            raise DomainError("shift cell must be finite")
        object.__setattr__(self, "cell", cell)

    def zero(self):
        return ShiftElement(self, ())

    def element(self, support):
        """Build an element from a mapping position -> coordinate sequence."""
        items = []
        for pos, coords in dict(support).items():
            if pos < 0:
                raise DomainError("positions are indexed from 0")
            reduced = self.cell.element(coords).coords
            if any(reduced):
                items.append((pos, reduced))
        items.sort()
        return ShiftElement(self, tuple(items))

    def _combine(self, a, b, sign):
        # merge two sorted supports, adding coords in the cell
        cell = self.cell
        merged = dict(a.support)
        for pos, coords in b.support:
            if pos in merged:
                summed = tuple(
                    x + sign * y for x, y in zip(merged[pos], coords)
                )
            else:
                summed = tuple(sign * y for y in coords)
            reduced = cell._reduce_coords(summed)
            if any(reduced):
                merged[pos] = reduced
            else:
                merged.pop(pos, None)
        return ShiftElement(self, tuple(sorted(merged.items())))

    def first_coordinate_copy(self):
        """Generators of the copy of the cell sitting at position 0."""
        gens = []
        for i in range(self.cell.dim):
            coords = [0] * self.cell.dim
            coords[i] = 1
            gens.append(self.element({0: coords}))
        return tuple(gens)

    def closure(self, generators):
        """The subgroup generated, as a frozenset of elements.

        Each element is sum c_i r_i over the rows r_i of the subgroup's
        form, 0 <= c_i < d / pivot_i, so each comes out exactly once.
        Raises BudgetExceededError before building anything when the
        order exceeds the session's ``element_cap``.
        """
        generators = tuple(generators)
        for g in generators:
            if not isinstance(g, ShiftElement) or g.group != self:
                raise AmbientMismatchError("generator from a different group")
        cap = default_config().element_cap
        places = sorted({pos for g in generators for pos, _ in g.support})
        rows, moduli = self._lattice(generators, places)
        form = self._hnf(rows, moduli)
        if self._order(form, moduli) > cap:
            raise BudgetExceededError(f"subgroup closure exceeded cap {cap}")
        vectors = [(0,) * len(moduli)]
        for row in form:
            steps = range(self._order((row,), moduli))
            vectors = [tuple(a + c * b for a, b in zip(v, row))
                       for v in vectors for c in steps]
        width = self.cell.dim
        return frozenset(self.element({pos: v[k * width:(k + 1) * width]
                                       for k, pos in enumerate(places)}) for v in vectors)

    def _lattice(self, elems, places):
        """Integer rows of ``elems`` over ``places`` x cell coordinates, and
        each column's modulus d_j.  The relations d_j e_j stay implicit."""
        factors = self.cell.invariant_factors
        width = len(factors)
        block = {pos: k * width for k, pos in enumerate(places)}

        def row(elem):
            out = [0] * (width * len(places))
            for pos, coords in elem.support:
                out[block[pos]:block[pos] + width] = coords
            return tuple(out)

        return tuple(row(e) for e in elems), factors * len(places)

    @staticmethod
    def _hnf(rows, moduli):
        """hnf(rows + every relation d_j e_j), less its rows d_j e_j.

        A column no row touches holds d_j e_j alone, so only touched
        columns get a relation row.  The relation rows go in first, so
        the fold reduces every later row below the moduli.
        """
        rows = tuple(rows)
        touched = sorted({j for r in rows for j, x in enumerate(r) if x})
        span = tuple(tuple(moduli[j] if k == j else 0 for k in range(len(moduli)))
                     for j in touched)
        return tuple(r for r in hnf(span + rows) if r not in span)

    @staticmethod
    def _order(form, moduli):
        """The subgroup's order, the product of d_j / pivot over the form."""
        pivots = (next((j, x) for j, x in enumerate(row) if x) for row in form)
        return math.prod(moduli[j] // x for j, x in pivots)

    def __repr__(self):
        return f"ShiftGroup({self.cell!r})"


def shift_trajectory_order(group, generators, n):
    """Exact order of T_n = F + beta(F) + ... + beta^{n-1}(F).

    ``generators`` generate the finite subgroup F; every T_k on the way
    holds at most the session's ``element_cap`` elements.  n past the
    session's ``max_steps`` raises BudgetExceededError before any step
    is taken.

    >>> B = ShiftGroup(FgAbGroup([2]))
    >>> [shift_trajectory_order(B, B.first_coordinate_copy(), n)
    ...  for n in (1, 2, 3, 4)]
    [2, 4, 8, 16]
    """
    if n <= 0:
        raise DomainError("step count must be positive")
    default_config().check_steps(n)
    orders = map(len, _shift_trajectory(group, generators))
    return next(islice(orders, n - 1, None))


def _shift_trajectory(group, generators):
    """T_1 = F, T_2, ... as element sets, F = <generators>; the setwise
    sum of two subgroups is their subgroup sum, so each T_n is one."""
    seed = group.closure(generators)
    return setwise_trajectory(
        seed, ShiftElement.shifted, ShiftElement.__add__,
        default_config().element_cap, subgroup=True,
    )


@dataclass(frozen=True, slots=True, init=False)
class LinearShiftSpace:
    """Finitely supported sequences over GF(p), or over Q when p = 0.

    Vectors are tuples indexed from position 0 with trailing zeros
    stripped; subspaces are canonical reduced-echelon bases, read off
    the integer cores: the Hermite fold over GF(p), the fraction-free
    Gauss-Jordan pass over Q.

    >>> V = LinearShiftSpace(2)
    >>> V.dim([(1, 1), (0, 1), (1, 0)])
    2
    >>> W = LinearShiftSpace(0)
    >>> W.reduce([(2, 4), (1, 2)])
    ((Fraction(1, 1), Fraction(2, 1)),)
    """

    p: int

    def __init__(self, p=0):
        if p != 0 and not _is_prime(p):
            raise DomainError("field descriptor must be 0 or a prime")
        object.__setattr__(self, "p", p)

    def vector(self, coords):
        vec = [int(x) % self.p for x in coords] if self.p else list(map(Fraction, coords))
        while vec and not vec[-1]:
            vec.pop()
        return tuple(vec)

    def shift(self, vec):
        """Right shift: prepend a zero coordinate."""
        if not vec:
            return ()
        return (0 if self.p else Fraction(0),) + tuple(vec)

    def reduce(self, vectors):
        """Canonical reduced echelon basis of the span.

        Over GF(p), the Hermite form with implicit relations p e_j: each
        touched column gets a pivot 1 or p, and the rows p e_j go.  Over
        Q, the Gauss-Jordan pass's pivot rows divided by their pivots.
        """
        rows = [self.vector(v) for v in vectors]
        width = max(map(len, rows), default=0)
        rows = [r + (0,) * (width - len(r)) for r in rows]
        if self.p:
            form = ShiftGroup._hnf(rows, (self.p,) * width)
        else:
            rows, pivots, _ = _gauss_jordan(_clear(rows)[1], width)
            form = ([Fraction(x, r[c]) for x in r] for r, c in zip(rows, pivots))
        return tuple(self.vector(r) for r in form)

    def dim(self, vectors):
        return len(self.reduce(vectors))

    def __repr__(self):
        field = f"GF({self.p})" if self.p else "Q"
        return f"LinearShiftSpace({field})"


@dataclass(frozen=True, slots=True, init=False)
class CylinderFamily:
    """Symbolic chain U_0 > U_1 > ... of cylinder subgroups.

    U_k is the subgroup of the full product of copies of the finite cell
    consisting of elements vanishing on the first k coordinates (or on
    the window [-k, k] in the two-sided case).  Only the cell order ever
    enters a computation.

    >>> fam = CylinderFamily(FgAbGroup([3]))
    >>> fam.index_between(1, 4)
    27
    """

    cell: FgAbGroup
    two_sided: bool

    def __init__(self, cell, two_sided=False):
        if not isinstance(cell, FgAbGroup):
            raise TypeError("cell must be an FgAbGroup")
        if cell.free_rank != 0:
            raise DomainError("cylinder cell must be finite")
        object.__setattr__(self, "cell", cell)
        object.__setattr__(self, "two_sided", bool(two_sided))

    @property
    def cell_order(self):
        return self.cell.order()

    def index_between(self, j, k):
        """[U_j : U_k] for k >= j >= 0."""
        if j < 0 or k < j:
            raise DomainError("need 0 <= j <= k")
        steps = k - j
        if self.two_sided:
            steps *= 2
        return self.cell_order**steps

    def __repr__(self):
        side = "two-sided" if self.two_sided else "one-sided"
        return f"CylinderFamily({self.cell!r}, {side})"


def cylinder_cotrajectory_index(fam, k, n):
    """[U_k : C_n(psi, U_k)] for the left shift psi on a one-sided family.

    The cotrajectory C_n = U_k ∩ psi^{-1}(U_k) ∩ ... ∩ psi^{-n+1}(U_k)
    is the cylinder U_{k+n-1}, so the index is |F|^{n-1}.

    >>> cylinder_cotrajectory_index(CylinderFamily(FgAbGroup([3])), 1, 4)
    27
    >>> cylinder_cotrajectory_index(CylinderFamily(FgAbGroup([2])), 2, 2)
    2
    """
    if fam.two_sided:
        raise DomainError("cotrajectory index needs a one-sided family")
    if k < 0:
        raise DomainError("cylinder index must be >= 0")
    if n < 1:
        raise DomainError("step count must be positive")
    return fam.cell_order ** (n - 1)


def two_sided_shift_inert_index(fam, k):
    """s(sigma, U_k) = [sigma(U_k) : sigma(U_k) ∩ U_k] for the shift sigma.

    Shifting the window [-k, k] by one displaces exactly one coordinate,
    so the index is |F| independently of k.

    >>> two_sided_shift_inert_index(
    ...     CylinderFamily(FgAbGroup([5]), two_sided=True), 3)
    5
    """
    if not fam.two_sided:
        raise DomainError("shift inert index needs a two-sided family")
    if k < 0:
        raise DomainError("cylinder index must be >= 0")
    return fam.cell_order
