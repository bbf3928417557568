"""Finitely generated subgroups of Q^n and rational endomorphisms.

A finitely generated subgroup of Q^n is a lattice L with a well defined
canonical form: clear denominators with the minimal positive integer
``den`` so that ``den * L`` is an integer lattice, and store its Hermite
normal form.  The pair (den, integer HNF) determines L uniquely, so
equality is structural.  An endomorphism of Q^n, a rational matrix
acting on coordinate columns, is stored the same way: the least ``den``
and the integer matrix ``den * M``.  Products, determinants, inverses,
images, preimages and characteristic polynomials all run on these
integer matrices through ``intlinalg`` (the determinant and the inverse
on its fraction-free Gauss-Jordan pass); ``Fraction`` appears only where
values enter or leave (``from_rows``, ``basis``, ``matrix``,
``apply_vector``, ``scalar``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .base import INFINITE
from .errors import AmbientMismatchError, NonInvertibleError
from . import intlinalg as ila
from .polynomial import IntPolynomial

__all__ = [
    "QSpace",
    "RationalLattice",
    "RationalEndo",
    "lattice_sum",
    "lattice_intersect",
    "lattice_index",
    "endo_apply_lattice",
    "charpoly_primitive",
]


@dataclass(frozen=True, slots=True, init=False)
class QSpace:
    """Marker for the ambient vector group Q^n.

    Subgroups of it are RationalLattice values; endomorphisms are
    RationalEndo matrices of matching dimension.

    >>> QSpace(2)
    QSpace(2)
    """

    dim: int

    def __init__(self, dim):
        if dim < 0:
            raise ValueError("dimension must be >= 0")
        object.__setattr__(self, "dim", int(dim))

    def standard_lattice(self):
        return RationalLattice.standard(self.dim)

    def zero_lattice(self):
        return RationalLattice.zero(self.dim)

    def __repr__(self):
        return f"QSpace({self.dim})"


@dataclass(frozen=True, slots=True, init=False)
class RationalLattice:
    """Finitely generated subgroup of Q^n in canonical (den, HNF) form.

    >>> L = RationalLattice.from_rows(1, [[Fraction(3, 2)]])
    >>> L.den, L.mat
    (2, ((3,),))
    >>> RationalLattice.from_rows(2, [[1, 0], [0, 1]]) == RationalLattice.standard(2)
    True
    """

    ambient_dim: int
    den: int
    mat: tuple

    def __init__(self, ambient_dim, den, mat):
        object.__setattr__(self, "ambient_dim", int(ambient_dim))
        object.__setattr__(self, "den", int(den))
        object.__setattr__(self, "mat", tuple(tuple(r) for r in mat))

    @classmethod
    def from_rows(cls, ambient_dim, rows):
        den, scaled = _clear(rows)
        for row in scaled:
            if len(row) != ambient_dim:
                raise ValueError(f"rows must have length {ambient_dim}")
        return cls._from_scaled(ambient_dim, den, ila.hnf(scaled))

    @classmethod
    def _from_scaled(cls, ambient_dim, den, hnf_rows):
        return cls(ambient_dim, *_lowest_terms(den, hnf_rows))

    @classmethod
    def standard(cls, n):
        """Z^n inside Q^n."""
        return cls(n, 1, ila.identity(n))

    @classmethod
    def zero(cls, n):
        return cls(n, 1, ())

    @property
    def basis(self):
        d = self.den
        return tuple(tuple(Fraction(x, d) for x in row) for row in self.mat)

    def rank(self):
        return len(self.mat)

    def is_zero(self):
        return not self.mat

    def contains(self, vector):
        _same_length(vector, self.ambient_dim)
        vden, (w,) = _clear([vector])
        # den * w / vden is integral iff vden | den, as vden is coprime to w's content
        if self.den % vden:
            return False
        return ila.in_lattice([x * (self.den // vden) for x in w], self.mat)

    def contains_lattice(self, other):
        _same_dim(self, other)
        _, ra, rb = _common_scale(self, other)
        return all(ila.in_lattice(row, ra) for row in rb)

    def __repr__(self):
        return f"RationalLattice(dim={self.ambient_dim}, den={self.den}, mat={self.mat})"


def _same_dim(a, b):
    if a.ambient_dim != b.ambient_dim:
        raise AmbientMismatchError("lattices live in different ambient dimensions")


def _same_length(vector, dim):
    if len(vector) != dim:
        raise AmbientMismatchError(f"vector of length {len(vector)} in dimension {dim}")


def _clear(rows):
    """(den, integer rows) with den the least positive integer that
    makes den * rows integral; den and the rows' content are coprime."""
    rows = [[Fraction(x) for x in row] for row in rows]
    den = math.lcm(1, *(x.denominator for row in rows for x in row))
    return den, tuple(
        tuple(x.numerator * (den // x.denominator) for x in row) for row in rows
    )


def _lowest_terms(den, rows):
    """Divide den and the integer rows by their common gcd, so that den
    is least; no rows, or only zero rows, leave den = 1."""
    g = math.gcd(den, *(x for row in rows for x in row))
    if g > 1:
        den //= g
        rows = tuple(tuple(x // g for x in row) for row in rows)
    return den, rows


def _common_scale(a, b):
    """Integer row sets of a and b over a common denominator."""
    den = math.lcm(a.den, b.den)
    fa = den // a.den
    fb = den // b.den
    ra = tuple(tuple(x * fa for x in row) for row in a.mat)
    rb = tuple(tuple(x * fb for x in row) for row in b.mat)
    return den, ra, rb


def lattice_sum(a, b):
    _same_dim(a, b)
    den, ra, rb = _common_scale(a, b)
    return RationalLattice._from_scaled(a.ambient_dim, den, ila.lattice_sum(ra, rb))


def lattice_intersect(a, b):
    _same_dim(a, b)
    den, ra, rb = _common_scale(a, b)
    meet = ila.lattice_intersect(ra, rb, a.ambient_dim)
    return RationalLattice._from_scaled(a.ambient_dim, den, meet)


def lattice_index(a, b):
    """[L_a : L_a ∩ L_b], an exact int or INFINITE.

    By the second isomorphism theorem [A : A ∩ B] = [A + B : B].  When
    A + B has the rank of B, the echelon bases of A + B and of B share
    their pivot columns, so the index is the ratio of their pivot
    products; otherwise A ∩ B has lower rank than A and the index is
    infinite.  One Hermite form, of A + B, does the work.

    >>> one = RationalLattice.from_rows(1, [[1]])
    >>> half = RationalLattice.from_rows(1, [[Fraction(3, 2)]])
    >>> lattice_index(one, half)
    3
    """
    _same_dim(a, b)
    _, ra, rb = _common_scale(a, b)
    total = ila.lattice_sum(ra, rb)
    if len(total) != len(rb):
        return INFINITE
    return _pivot_product(rb) // _pivot_product(total)


def _pivot_product(rows):
    """Product of the leading entries of echelon rows."""
    return math.prod(next(x for x in row if x) for row in rows)


@dataclass(frozen=True, slots=True, init=False)
class RationalEndo:
    """Endomorphism of Q^n: the rational matrix mat / den acting on
    coordinate columns, in canonical (least den, integer mat) form.

    >>> RationalEndo(2, [[Fraction(1, 2), 0], [1, Fraction(1, 3)]]).mat
    ((3, 0), (6, 2))
    """

    dim: int
    den: int
    mat: tuple

    def __init__(self, dim, matrix):
        den, mat = _clear(matrix)
        if len(mat) != dim or any(len(r) != dim for r in mat):
            raise ValueError(f"matrix must be {dim}x{dim}")
        self._store(int(dim), den, mat)

    @classmethod
    def _from_scaled(cls, dim, den, mat):
        """The map mat / den for an integer matrix mat and den >= 1."""
        endo = cls.__new__(cls)
        endo._store(dim, *_lowest_terms(den, mat))
        return endo

    def _store(self, dim, den, mat):
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "mat", mat)

    @classmethod
    def scalar(cls, dim, q):
        q = Fraction(q)
        return cls(dim, [[q if i == j else 0 for j in range(dim)] for i in range(dim)])

    @property
    def matrix(self):
        d = self.den
        return tuple(tuple(Fraction(x, d) for x in row) for row in self.mat)

    def apply_vector(self, v):
        _same_length(v, self.dim)
        vden, (w,) = _clear([v])
        return tuple(Fraction(x, self.den * vden) for x in ila.matvec(self.mat, w))

    def compose(self, other):
        _same_endo_dim(self, other)
        return RationalEndo._from_scaled(
            self.dim, self.den * other.den, ila.matmul(self.mat, other.mat)
        )

    def __add__(self, other):
        _same_endo_dim(self, other)
        den = math.lcm(self.den, other.den)
        fa, fb = den // self.den, den // other.den
        rows = tuple(
            tuple(fa * a + fb * b for a, b in zip(r1, r2)) for r1, r2 in zip(self.mat, other.mat)
        )
        return RationalEndo._from_scaled(self.dim, den, rows)

    def det(self):
        return Fraction(ila.det_bareiss(self.mat), self.den**self.dim)

    def invert(self):
        """(mat / den)^-1 = den * d mat^-1 / d, with d mat^-1 read off one
        fraction-free Gauss-Jordan pass on [mat | I], which ends at
        [d I | d mat^-1] for d = +-det(mat)."""
        n = self.dim
        rows, pivots, _ = ila._gauss_jordan(
            [r + e for r, e in zip(self.mat, ila.identity(n))], n)
        if len(pivots) < n:
            raise NonInvertibleError("matrix is singular over Q")
        d = rows[0][0] if n else 1
        scale = self.den if d > 0 else -self.den
        return RationalEndo._from_scaled(n, abs(d), tuple(
            tuple(scale * x for x in row[n:]) for row in rows))

    def power(self, k):
        """Integer power; negative powers require invertibility."""
        base = self if k >= 0 else self.invert()
        k = abs(k)
        return RationalEndo._from_scaled(self.dim, base.den**k, ila.mat_power(base.mat, k))

    def is_scalar(self):
        q = self.mat[0][0] if self.dim else 0
        return all(
            x == (q if i == j else 0)
            for i, row in enumerate(self.mat)
            for j, x in enumerate(row)
        )

    def __repr__(self):
        return f"RationalEndo({self.matrix})"


def _same_endo_dim(a, b):
    if a.dim != b.dim:
        raise AmbientMismatchError("endomorphism dimensions differ")


def endo_apply_lattice(phi, lat):
    """Image lattice phi(L): the rows mat @ w over a * den, for each row
    w of the basis W of L = W / a and phi = mat / den."""
    if phi.dim != lat.ambient_dim:
        raise AmbientMismatchError("endo and lattice dimensions differ")
    image = [ila.matvec(phi.mat, row) for row in lat.mat]
    return RationalLattice._from_scaled(lat.ambient_dim, lat.den * phi.den, ila.hnf(image))


def preimage_in_lattice(phi, target, within):
    """The lattice {v in ``within`` : phi(v) in ``target``}.

    Stays finitely generated even when phi is singular, because the
    kernel directions are cut down by ``within``.  Write ``within`` =
    W / a, phi = mat / den and ``target`` = T / b.  With
    g = gcd(b, den * a), v = w / a lies in the preimage exactly when
    (b / g) mat @ w lies in (den * a / g) T, which is
    ``intlinalg.preimage_within`` on W.

    >>> half = RationalEndo.scalar(1, Fraction(1, 2))
    >>> L = preimage_in_lattice(half, RationalLattice.standard(1),
    ...                         RationalLattice.standard(1))
    >>> L.basis
    ((Fraction(2, 1),),)
    """
    if phi.dim != target.ambient_dim or phi.dim != within.ambient_dim:
        raise AmbientMismatchError("endo and lattice dimensions differ")
    a, b = within.den, target.den
    g = math.gcd(b, phi.den * a)
    fp, ft = b // g, phi.den * a // g
    cleared = tuple(tuple(fp * x for x in row) for row in phi.mat)
    big_target = tuple(tuple(ft * x for x in row) for row in target.mat)
    pre = ila.preimage_within(cleared, big_target, within.mat)
    return RationalLattice._from_scaled(within.ambient_dim, a, pre)


def _berkowitz(a):
    """Ascending integer coefficients of det(tI - A), division-free."""
    n = len(a)
    if n == 0:
        return (1,)
    poly = [1, -a[0][0]]  # descending, leading block 1x1
    for k in range(1, n):
        r = a[k][:k]
        cvec = [a[i][k] for i in range(k)]
        m = [row[:k] for row in a[:k]]
        d = a[k][k]
        s = []
        v = list(cvec)
        for _ in range(k):
            s.append(sum(x * y for x, y in zip(r, v)))
            v = [sum(m[i][l] * v[l] for l in range(k)) for i in range(k)]
        col = [1, -d] + [-x for x in s]
        new = []
        for i in range(k + 2):
            acc = 0
            for j in range(min(i, k) + 1):
                if i - j < len(col):
                    acc += col[i - j] * poly[j]
            new.append(acc)
        poly = new
    return tuple(reversed(poly))


def charpoly_primitive(phi):
    """Primitive integer characteristic polynomial of a rational matrix.

    det(tI - M) is computed division-free on the integer matrix
    N = den * M, then rescaled: det(tI - M) = den^-n det(den t I - N).
    The result is the primitive integer polynomial proportional to it
    (content removed, positive leading coefficient).

    >>> charpoly_primitive(RationalEndo(1, [[Fraction(3, 2)]])).coeffs
    (-3, 2)
    """
    return IntPolynomial(_berkowitz(phi.mat)).scale_arg(phi.den).primitive()
