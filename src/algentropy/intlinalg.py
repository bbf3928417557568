"""Exact linear algebra over the integers.

Everything here works on tuples of tuples of Python ints, so there is no
overflow and no rounding anywhere.  The canonical form used for lattices
(= subgroups of Z^n) is the row-style Hermite normal form: no zero rows,
each pivot positive, entries above a pivot reduced into [0, pivot).  Two
lattices are equal iff their canonical forms are identical.

Every Hermite form comes from one fold: the rows go one at a time into
a basis kept in pivot order, and each basis row is reduced at the pivots
of the rows below it whenever it is written.  The partial form so stays
reduced, as Kannan & Bachem (1979) keep it, and entries do not compound
from one elimination to the next.  Kernels come from the same fold with
the identity's columns appended to the rows; the Smith form alternates
row and column Hermite forms.

One fraction-free Gauss-Jordan pass gives determinants, inverses over Q
(on the rows with the identity appended) and reduced echelon forms.
"""

import math
from bisect import bisect_left
from fractions import Fraction

from .base import INFINITE

__all__ = [
    "xgcd",
    "hnf",
    "hnf_with_transform",
    "rank",
    "in_lattice",
    "lattice_sum",
    "lattice_intersect",
    "index_in",
    "right_kernel",
    "preimage_lattice",
    "preimage_within",
    "det_bareiss",
    "snf_invariant_factors",
    "matmul",
    "matvec",
    "transpose",
    "identity",
    "mat_power",
]


def xgcd(a, b):
    """Extended gcd: return (g, x, y) with g = a*x + b*y and g >= 0.

    >>> xgcd(12, 18)
    (6, -1, 1)
    """
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


def _reduced(row, basis, pivots, i):
    """``row``, written as basis row i: a positive pivot, and each entry
    at the pivot of a row below it brought into [0, that pivot)."""
    if row[pivots[i]] < 0:
        row = [-x for x in row]
    for k in range(i + 1, len(basis)):
        q = row[pivots[k]] // basis[k][pivots[k]]
        if q:
            row = [x - q * y for x, y in zip(row, basis[k])]
    return row


def _fold(rows, width):
    """Fold ``rows`` one at a time into a reduced Hermite basis.

    Pivots are read in the first ``width`` entries; the rest ride along.
    A row whose pivot the basis already holds takes one unimodular xgcd
    step with that basis row and folds on; a new pivot inserts it.  A
    last pass reduces above every pivot.  Returns (basis in pivot order,
    the rows that folded to zero).
    """
    basis, pivots, zeros = [], [], []
    for v in rows:
        c = i = 0
        while True:
            for c in range(c, width):
                if v[c]:
                    break
            else:
                zeros.append(v)
                break
            i = bisect_left(pivots, c, i)
            if i == len(pivots) or pivots[i] != c:
                pivots.insert(i, c)
                basis.insert(i, v)
                basis[i] = _reduced(v, basis, pivots, i)
                break
            b = basis[i]
            g, x, y = xgcd(b[c], v[c]) if v[c] % b[c] else (b[c], 1, 0)
            p, q = b[c] // g, v[c] // g
            # [[x, y], [-q, p]] has determinant (x*b[c] + y*v[c])/g = 1
            if y:
                basis[i] = _reduced([x * s + y * t for s, t in zip(b, v)], basis, pivots, i)
            v = [p * t - q * s for s, t in zip(b, v)]
            i += 1
    for r, c in enumerate(pivots):
        for i in range(r):
            q = basis[i][c] // basis[r][c]  # floor: brings entry into [0, pivot)
            if q:
                basis[i] = [x - q * y for x, y in zip(basis[i], basis[r])]
    return basis, zeros


def hnf(rows):
    """Canonical Hermite normal form of the lattice spanned by ``rows``.

    Zero rows are dropped; the result is a tuple of tuples and is the
    unique canonical basis of the spanned lattice.

    >>> hnf([(2, 0), (3, 0)])
    ((1, 0),)
    >>> hnf([(4, 6), (0, 3)])
    ((4, 0), (0, 3))
    """
    if not rows:
        return ()
    return tuple(map(tuple, _fold(rows, len(rows[0]))[0]))


def hnf_with_transform(rows):
    """Return (H, U) with U unimodular, U*rows = H (zero rows kept in H).

    H lists the nonzero rows in pivot order, then the zero rows; the
    transform rides along as the identity's columns appended to the rows.
    """
    m, width = len(rows), len(rows[0]) if rows else 0
    basis, zeros = _fold([list(r) + [int(i == j) for j in range(m)]
                          for i, r in enumerate(rows)], width)
    done = basis + zeros
    return tuple(tuple(r[:width]) for r in done), tuple(tuple(r[width:]) for r in done)


def rank(rows):
    return len(hnf(rows))


def _reduce_against(v, basis):
    """Reduce v against HNF ``basis`` rows; returns the residue vector."""
    v = list(v)
    for row in basis:
        c = next((j for j, x in enumerate(row) if x), None)
        if c is None:
            continue
        q = v[c] // row[c]
        if q:
            v = [a - q * b for a, b in zip(v, row)]
    return v


def in_lattice(v, basis):
    """Membership of integer vector ``v`` in the lattice with HNF ``basis``."""
    return not any(_reduce_against(v, basis))


def lattice_sum(a, b):
    return hnf(list(a) + list(b))


def transpose(mat):
    return tuple(zip(*mat)) if mat else ()


def matmul(a, b):
    bt = list(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def matvec(a, v):
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_power(m, k):
    """Nonnegative integer power by repeated squaring."""
    n = len(m)
    result = identity(n)
    base = m
    while k:
        if k & 1:
            result = matmul(result, base)
        base = matmul(base, base)
        k >>= 1
    return result


def _left_kernel(rows):
    """Rows spanning {z : z @ rows = 0}: the transform rows that the
    Hermite form of ``rows`` sends to zero."""
    h, u = hnf_with_transform(rows)
    return tuple(u[i] for i in range(len(h)) if not any(h[i]))


def right_kernel(mat, ncols):
    """Basis (tuple of rows) of {x in Z^ncols : mat @ x = 0}.

    mat is given as rows; x is a column vector.  The returned rows span
    the full integer kernel (they come from the zero rows of a unimodular
    transform, so the kernel lattice is exactly their span).
    """
    if not mat:
        return identity(ncols)
    return _left_kernel(transpose(mat))


def preimage_lattice(mat, basis, ncols):
    """Lattice {u in Z^ncols : mat @ u lies in the lattice spanned by basis}.

    mat has ``ncols`` columns; basis rows live in the codomain.  Solutions
    u pair with some y via  mat @ u = basis^T @ y, i.e. (u, y) is in the
    kernel of [mat | -basis^T]; the u-projection of that kernel is the
    preimage.
    """
    nrows = len(mat)
    bt = transpose(basis)  # codomain-dim x len(basis)
    aug = []
    for i in range(nrows):
        brow = bt[i] if bt else ()
        aug.append(tuple(mat[i]) + tuple(-x for x in brow))
    extra = len(basis)
    ker = right_kernel(aug, ncols + extra)
    return hnf([row[:ncols] for row in ker])


def preimage_within(mat, target, within):
    """Lattice {v in L(within) : mat @ v in L(target)}, both given by rows.

    With v = c @ within the condition on c is the preimage problem for
    mat @ within^T, so the meet with ``within`` costs no second kernel.
    """
    if not within:
        return ()
    image = matmul(mat, transpose(within))
    return hnf(matmul(preimage_lattice(image, target, len(within)), within))


def index_in(sup, sub):
    """Index [L_sup : L_sub] for lattices given by HNF bases, sub ⊆ sup.

    Returns an int or INFINITE (when the ranks differ).  Raises
    ValueError if sub is not contained in sup (a programming error in
    callers, which always intersect first).
    """
    for row in sub:
        if not in_lattice(row, sup):
            raise ValueError("index_in: second lattice not contained in first")
    if len(sub) < len(sup):
        return INFINITE
    if not sup:
        return 1
    # Solve X * sup = sub over Q using the pivot columns of sup; the
    # solution is integral by containment and |det X| is the index.
    piv_cols = []
    for row in sup:
        piv_cols.append(next(j for j, x in enumerate(row) if x))
    k = len(sup)
    s = [[Fraction(sup[i][c]) for c in piv_cols] for i in range(k)]
    t = [[Fraction(sub[i][c]) for c in piv_cols] for i in range(k)]
    x = _solve_matrix_fraction(s, t)
    d = _det_fraction(x)
    if d.denominator != 1:
        raise ValueError("index_in: non-integral coordinate change")
    return abs(int(d))


def _solve_matrix_fraction(s, t):
    """Solve X * S = T for X (all entries Fraction), S square invertible."""
    k = len(s)
    # X = T * S^{-1}; invert by Gauss-Jordan
    aug = [list(s[i]) + [Fraction(1 if i == j else 0) for j in range(k)] for i in range(k)]
    for c in range(k):
        piv = next(i for i in range(c, k) if aug[i][c])
        aug[c], aug[piv] = aug[piv], aug[c]
        inv = Fraction(1) / aug[c][c]
        aug[c] = [x * inv for x in aug[c]]
        for i in range(k):
            if i != c and aug[i][c]:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[c])]
    sinv = [row[k:] for row in aug]
    return [[sum(t[i][l] * sinv[l][j] for l in range(k)) for j in range(k)] for i in range(k)]


def _det_fraction(m):
    k = len(m)
    m = [row[:] for row in m]
    det = Fraction(1)
    for c in range(k):
        piv = next((i for i in range(c, k) if m[i][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        inv = Fraction(1) / m[c][c]
        for i in range(c + 1, k):
            if m[i][c]:
                f = m[i][c] * inv
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return det


def lattice_intersect(a, b, ncols):
    """Intersection of two lattices given by row bases in Z^ncols."""
    if not a or not b:
        return ()
    # x*A = y*B solutions: left kernel of the stacked matrix [A; -B]
    stacked = [tuple(r) for r in a] + [tuple(-x for x in r) for r in b]
    na = len(a)
    gens = []
    for coeffs in _left_kernel(stacked):
        vec = [0] * ncols
        for c, row in zip(coeffs[:na], a):
            if c:
                vec = [x + c * y for x, y in zip(vec, row)]
        gens.append(tuple(vec))
    return hnf(gens)


def _gauss_jordan(rows, width):
    """Fraction-free Gauss-Jordan (Bareiss 1968) with pivots in the first
    ``width`` entries: each step sets every other row to (d * row -
    row[c] * top) / prev, exactly, as each entry is a minor of the input.
    Returns (rows, pivot columns, sign of the row swaps); pivot row k,
    pivot at pivots[k], is zero at the other pivots, all pivots equal the
    last one, and the remaining rows are zero in the first ``width``.
    """
    m = [list(r) for r in rows]
    pivots, sign, prev = [], 1, 1
    for c in range(width):
        k = len(pivots)
        i = next((i for i in range(k, len(m)) if m[i][c]), None)
        if i is None:
            continue
        if i != k:
            m[k], m[i] = m[i], m[k]
            sign = -sign
        top, d = m[k], m[k][c]
        m = [r if r is top else [(d * x - r[c] * y) // prev for x, y in zip(r, top)]
             for r in m]
        pivots.append(c)
        prev = d
    return m, pivots, sign


def det_bareiss(mat):
    """Exact determinant, the shared pivot of a fraction-free Gauss-Jordan pass.

    >>> det_bareiss(((2, 0), (0, 3)))
    6
    """
    n = len(mat)
    rows, pivots, sign = _gauss_jordan(mat, n)
    if len(pivots) < n:
        return 0
    return sign * rows[-1][-1] if n else 1


def snf_invariant_factors(mat):
    """Nonzero diagonal of the Smith normal form, as a divisibility chain.

    Row and column Hermite forms alternate until the matrix is diagonal
    (Kannan & Bachem 1979); a gcd/lcm pass then sorts the diagonal into
    a divisibility chain.

    >>> snf_invariant_factors(((2, 0), (0, 3)))
    [1, 6]
    """
    m = hnf(mat)
    while any(x for i, row in enumerate(m) for j, x in enumerate(row) if i != j):
        m = hnf(transpose(m))
    diag = [row[i] for i, row in enumerate(m)]
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            g = math.gcd(diag[i], diag[j])
            diag[i], diag[j] = g, diag[i] * diag[j] // g
    return diag
