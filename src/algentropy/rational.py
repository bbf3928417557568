"""Finitely generated subgroups of Q^n and rational endomorphisms.

A finitely generated subgroup of Q^n is a lattice L with a well defined
canonical form: clear denominators with the minimal positive integer
``den`` so that ``den * L`` is an integer lattice, and store its Hermite
normal form.  The pair (den, integer HNF) determines L uniquely, so
equality is structural.  Endomorphisms of Q^n are arbitrary rational
matrices acting on coordinate columns; their characteristic polynomials
are computed exactly (division-free on a denominator-cleared copy, no
floating point anywhere).
"""

from __future__ import annotations

import math
from fractions import Fraction

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


class QSpace:
    """Marker for the ambient vector group Q^n.

    Subgroups of it are RationalLattice values; endomorphisms are
    RationalEndo matrices of matching dimension.

    >>> QSpace(2)
    QSpace(2)
    """

    __slots__ = ("dim",)

    def __init__(self, dim):
        if dim < 0:
            raise ValueError("dimension must be >= 0")
        object.__setattr__(self, "dim", int(dim))

    def __setattr__(self, name, value):
        raise AttributeError("QSpace is immutable")

    def standard_lattice(self):
        return RationalLattice.standard(self.dim)

    def zero_lattice(self):
        return RationalLattice.zero(self.dim)

    def __eq__(self, other):
        return isinstance(other, QSpace) and other.dim == self.dim

    def __hash__(self):
        return hash(("QSpace", self.dim))

    def __repr__(self):
        return f"QSpace({self.dim})"


class RationalLattice:
    """Finitely generated subgroup of Q^n in canonical (den, HNF) form.

    >>> L = RationalLattice.from_rows(1, [[Fraction(3, 2)]])
    >>> L.den, L.mat
    (2, ((3,),))
    >>> RationalLattice.from_rows(2, [[1, 0], [0, 1]]) == RationalLattice.standard(2)
    True
    """

    __slots__ = ("ambient_dim", "den", "mat")

    def __init__(self, ambient_dim, den, mat):
        object.__setattr__(self, "ambient_dim", int(ambient_dim))
        object.__setattr__(self, "den", int(den))
        object.__setattr__(self, "mat", tuple(tuple(r) for r in mat))

    def __setattr__(self, name, value):
        raise AttributeError("RationalLattice is immutable")

    @classmethod
    def from_rows(cls, ambient_dim, rows):
        rows = [tuple(Fraction(x) for x in row) for row in rows]
        for row in rows:
            if len(row) != ambient_dim:
                raise ValueError(f"rows must have length {ambient_dim}")
        den = 1
        for row in rows:
            for x in row:
                den = den * x.denominator // math.gcd(den, x.denominator)
        scaled = [tuple(int(x * den) for x in row) for row in rows]
        return cls._from_scaled(ambient_dim, den, ila.hnf(scaled))

    @classmethod
    def _from_scaled(cls, ambient_dim, den, hnf_rows):
        # minimality: den and the matrix content must be coprime
        if hnf_rows:
            g = den
            for row in hnf_rows:
                for x in row:
                    g = math.gcd(g, x)
            if g > 1:
                den //= g
                hnf_rows = tuple(tuple(x // g for x in row) for row in hnf_rows)
        else:
            den = 1
        return cls(ambient_dim, den, hnf_rows)

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
        v = [Fraction(x) * self.den for x in vector]
        if any(x.denominator != 1 for x in v):
            return False
        return ila.in_lattice([int(x) for x in v], self.mat)

    def contains_lattice(self, other):
        _same_dim(self, other)
        return all(self.contains(row) for row in other.basis)

    def __eq__(self, other):
        return (
            isinstance(other, RationalLattice)
            and self.ambient_dim == other.ambient_dim
            and self.den == other.den
            and self.mat == other.mat
        )

    def __hash__(self):
        return hash((self.ambient_dim, self.den, self.mat))

    def __repr__(self):
        return f"RationalLattice(dim={self.ambient_dim}, den={self.den}, mat={self.mat})"


def _same_dim(a, b):
    if a.ambient_dim != b.ambient_dim:
        raise AmbientMismatchError("lattices live in different ambient dimensions")


def _common_scale(a, b):
    """Integer row sets of a and b over a common denominator."""
    den = a.den * b.den // math.gcd(a.den, b.den)
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

    >>> one = RationalLattice.from_rows(1, [[1]])
    >>> half = RationalLattice.from_rows(1, [[Fraction(3, 2)]])
    >>> lattice_index(one, half)
    3
    """
    _same_dim(a, b)
    den, ra, rb = _common_scale(a, b)
    meet = ila.lattice_intersect(ra, rb, a.ambient_dim)
    return ila.index_in(ra, meet)


class RationalEndo:
    """Endomorphism of Q^n: a rational matrix acting on coordinate columns."""

    __slots__ = ("dim", "matrix")

    def __init__(self, dim, matrix):
        mat = tuple(tuple(Fraction(x) for x in row) for row in matrix)
        if len(mat) != dim or any(len(r) != dim for r in mat):
            raise ValueError(f"matrix must be {dim}x{dim}")
        object.__setattr__(self, "dim", int(dim))
        object.__setattr__(self, "matrix", mat)

    def __setattr__(self, name, value):
        raise AttributeError("RationalEndo is immutable")

    @classmethod
    def scalar(cls, dim, q):
        q = Fraction(q)
        return cls(dim, [[q if i == j else 0 for j in range(dim)] for i in range(dim)])

    def apply_vector(self, v):
        return tuple(
            sum(a * Fraction(x) for a, x in zip(row, v)) for row in self.matrix
        )

    def compose(self, other):
        _same_endo_dim(self, other)
        bt = list(zip(*other.matrix))
        return RationalEndo(
            self.dim,
            [
                [sum(x * y for x, y in zip(row, col)) for col in bt]
                for row in self.matrix
            ],
        )

    def __add__(self, other):
        _same_endo_dim(self, other)
        return RationalEndo(
            self.dim,
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.matrix, other.matrix)],
        )

    def det(self):
        return ila._det_fraction([list(row) for row in self.matrix])

    def invert(self):
        if self.det() == 0:
            raise NonInvertibleError("matrix is singular over Q")
        n = self.dim
        aug = [
            list(self.matrix[i]) + [Fraction(1 if i == j else 0) for j in range(n)]
            for i in range(n)
        ]
        for c in range(n):
            piv = next(i for i in range(c, n) if aug[i][c])
            aug[c], aug[piv] = aug[piv], aug[c]
            inv = Fraction(1) / aug[c][c]
            aug[c] = [x * inv for x in aug[c]]
            for i in range(n):
                if i != c and aug[i][c]:
                    f = aug[i][c]
                    aug[i] = [a - f * b for a, b in zip(aug[i], aug[c])]
        return RationalEndo(n, [row[n:] for row in aug])

    def power(self, k):
        """Integer power; negative powers require invertibility."""
        base = self if k >= 0 else self.invert()
        k = abs(k)
        result = RationalEndo.scalar(self.dim, 1)
        while k:
            if k & 1:
                result = result.compose(base)
            base = base.compose(base)
            k >>= 1
        return result

    def is_scalar(self):
        m = self.matrix
        q = m[0][0] if self.dim else Fraction(0)
        for i in range(self.dim):
            for j in range(self.dim):
                if m[i][j] != (q if i == j else 0):
                    return False
        return True

    def __eq__(self, other):
        return (
            isinstance(other, RationalEndo)
            and self.dim == other.dim
            and self.matrix == other.matrix
        )

    def __hash__(self):
        return hash((self.dim, self.matrix))

    def __repr__(self):
        return f"RationalEndo({self.matrix})"


def _same_endo_dim(a, b):
    if a.dim != b.dim:
        raise AmbientMismatchError("endomorphism dimensions differ")


def endo_apply_lattice(phi, lat):
    """Image lattice phi(L)."""
    if phi.dim != lat.ambient_dim:
        raise AmbientMismatchError("endo and lattice dimensions differ")
    rows = [phi.apply_vector(row) for row in lat.basis]
    return RationalLattice.from_rows(lat.ambient_dim, rows)


def preimage_in_lattice(phi, target, within):
    """The lattice {v in ``within`` : phi(v) in ``target``}.

    Stays finitely generated even when phi is singular, because the
    kernel directions are cut down by ``within``.  Writing v = x @ W / a
    for the basis W of ``within``, the membership condition becomes an
    integer preimage problem for the cleared matrix.

    >>> half = RationalEndo.scalar(1, Fraction(1, 2))
    >>> L = preimage_in_lattice(half, RationalLattice.standard(1),
    ...                         RationalLattice.standard(1))
    >>> L.basis
    ((Fraction(2, 1),),)
    """
    if phi.dim != target.ambient_dim or phi.dim != within.ambient_dim:
        raise AmbientMismatchError("endo and lattice dimensions differ")
    if within.is_zero():
        return within
    a, w_rows = within.den, within.mat
    b, t_rows = target.den, target.mat
    k = len(w_rows)
    # condition on x in Z^k:  M @ (W^T x) / a  in  (1/b) T-lattice
    scaled = [
        [Fraction(b, a) * x for x in row] for row in _matmul_fraction(phi.matrix, _transpose(w_rows))
    ]
    c = 1
    for row in scaled:
        for x in row:
            c = c * x.denominator // math.gcd(c, x.denominator)
    cleared = tuple(
        tuple(int(x * c) for x in row) for row in scaled
    )
    big_target = tuple(tuple(c * x for x in row) for row in t_rows)
    xs = ila.preimage_lattice(cleared, big_target, k)
    rows = [
        [Fraction(x, a) for x in ila.matvec(_transpose(w_rows), xrow)]
        for xrow in xs
    ]
    return RationalLattice.from_rows(within.ambient_dim, rows)


def _transpose(rows):
    return ila.transpose(rows)


def _matmul_fraction(a, b):
    return [
        [sum(a[i][t] * b[t][j] for t in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ] if b else [[] for _ in a]


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

    det(tI - M) is computed division-free on the denominator-cleared
    integer matrix N = c*M, then rescaled: det(tI - M) = c^-n det(ctI - N).
    The result is the primitive integer polynomial proportional to it
    (content removed, positive leading coefficient).

    >>> charpoly_primitive(RationalEndo(1, [[Fraction(3, 2)]])).coeffs
    (-3, 2)
    """
    c = 1
    for row in phi.matrix:
        for x in row:
            c = c * x.denominator // math.gcd(c, x.denominator)
    nmat = [[int(x * c) for x in row] for row in phi.matrix]
    f = IntPolynomial(_berkowitz(nmat))
    return f.scale_arg(c).primitive()
