"""Exact integer linear algebra, cross-checked against slow references.

The reference computations here are deliberately naive: Fraction
Gaussian elimination for determinants, elementwise enumeration for
small lattice memberships, sympy for Hermite and Smith normal forms.
Anything the fast path gets wrong should disagree with at least one of
them.
"""

import random
import time
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy.matrices.normalforms import hermite_normal_form, invariant_factors

import algentropy.intlinalg as ila

rng = random.Random(7)


def frac_det(mat):
    """Plain fraction Gaussian elimination, no pivot tricks."""
    n = len(mat)
    a = [[Fraction(x) for x in row] for row in mat]
    det = Fraction(1)
    for col in range(n):
        pivot = next((i for i in range(col, n) if a[i][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        for i in range(col + 1, n):
            factor = a[i][col] * inv
            for j in range(col, n):
                a[i][j] -= factor * a[col][j]
    return det


small_mat = st.lists(
    st.lists(st.integers(-9, 9), min_size=3, max_size=3),
    min_size=1,
    max_size=4,
)


@given(small_mat)
def test_hnf_idempotent_and_preserves_row_space(rows):
    h = ila.hnf(rows)
    assert ila.hnf(h) == h
    for row in rows:
        assert ila.in_lattice(list(row), h)
    for row in h:
        assert ila.in_lattice(list(row), ila.hnf(rows))


@given(small_mat, st.randoms(use_true_random=False))
def test_hnf_invariant_under_row_operations(rows, rnd):
    if not any(any(r) for r in rows):
        return
    shuffled = [list(r) for r in rows]
    rnd.shuffle(shuffled)
    i, j = rnd.randrange(len(shuffled)), rnd.randrange(len(shuffled))
    if i != j:
        shuffled[i] = [a + 3 * b for a, b in zip(shuffled[i], shuffled[j])]
    assert ila.hnf(shuffled) == ila.hnf(rows)


@st.composite
def lattice_rows(draw):
    """Row sets with zero, repeated and dependent rows among them, so the
    rank can fall short of both dimensions."""
    ncols = draw(st.integers(1, 6))
    entry = st.just(0) | st.integers(-9, 9)
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                         min_size=1, max_size=6))
    for _ in range(draw(st.integers(0, 3))):
        a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        j, k = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
        rows.insert(draw(st.integers(0, len(rows))), [j * x + k * y for x, y in zip(a, b)])
    return rows


def sympy_column_hnf(rows, ncols):
    """sympy's Hermite form of the lattice that ``rows`` span, taken on
    the transpose: sympy's convention is the column one."""
    flat = [x for row in rows for x in row]
    return hermite_normal_form(sympy.Matrix(len(rows), ncols, flat).T)


@settings(max_examples=300, deadline=None)
@given(lattice_rows())
def test_hnf_matches_sympy_hermite_form(rows):
    h = ila.hnf(rows)
    pivots = [next(j for j, x in enumerate(row) if x) for row in h]
    assert pivots == sorted(set(pivots))
    for i, (row, c) in enumerate(zip(h, pivots)):
        assert row[c] > 0 and all(0 <= above[c] < row[c] for above in h[:i])
    ncols = len(rows[0])
    assert sympy_column_hnf(h, ncols) == sympy_column_hnf(rows, ncols)


def test_hnf_known_forms():
    assert ila.hnf([[2, 0], [3, 0]]) == ((1, 0),)
    assert ila.hnf([[2, 1], [0, 3]]) == ((2, 1), (0, 3))
    assert ila.hnf([]) == ()
    assert ila.hnf([[0, 0]]) == ()


@st.composite
def square_minors(draw):
    """Square minors of rectangular matrices, mostly zeros, some with a
    row that combines two others, so minors of every rank occur."""
    nrows, ncols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    entry = st.one_of(st.just(0), st.integers(-6, 6))
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))
    if nrows > 2 and draw(st.booleans()):
        a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[1])]
    n = draw(st.integers(0, min(nrows, ncols)))
    picked = draw(st.permutations(range(nrows)))[:n]
    cols = sorted(draw(st.permutations(range(ncols)))[:n])
    return [[rows[i][j] for j in cols] for i in picked]


@given(square_minors())
@example([[0, 1], [1, 0]])
@example([[1, 2, 3], [2, 4, 6], [0, 0, 1]])
def test_bareiss_matches_fraction_elimination(mat):
    assert ila.det_bareiss(mat) == frac_det(mat)


def test_bareiss_large_entries_stay_exact():
    # fraction-free elimination must not round anything
    mat = [[10**30 + i * j for j in range(4)] for i in range(4)]
    mat[0][0] += 1
    assert ila.det_bareiss(mat) == frac_det(mat)


def sympy_invariant_factors(rows):
    """Nonzero invariant factors from sympy's Smith normal form."""
    return [abs(int(d)) for d in invariant_factors(sympy.Matrix(rows), domain=sympy.ZZ) if d]


@st.composite
def snf_mats(draw):
    """Rectangular matrices of either shape, some with a dependent row."""
    nrows, ncols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(st.integers(-9, 9), min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))
    if draw(st.booleans()):
        a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        i, j = draw(st.integers(0, nrows - 1)), draw(st.integers(0, nrows - 1))
        rows.append([a * x + b * y for x, y in zip(rows[i], rows[j])])
    return rows


@given(snf_mats())
def test_snf_chain_divides(rows):
    diag = ila.snf_invariant_factors(rows)
    assert all(d > 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        assert b % a == 0
    assert diag == sympy_invariant_factors(rows)
    assert len(diag) == sympy.Matrix(rows).rank()


def test_snf_16x16_regression():
    # the smallest-entry pivot loop ran for over a minute on this matrix
    rnd = random.Random(0)
    mat = [[rnd.randint(-9, 9) for _ in range(16)] for _ in range(16)]
    start = time.perf_counter()
    diag = ila.snf_invariant_factors(mat)
    assert time.perf_counter() - start < 1.0
    assert diag == sympy_invariant_factors(mat)


@given(st.lists(st.lists(st.integers(-5, 5), min_size=3, max_size=3), min_size=3, max_size=3))
def test_snf_product_is_det(mat):
    det = ila.det_bareiss(mat)
    diag = ila.snf_invariant_factors(mat)
    if det:
        prod = 1
        for d in diag:
            prod *= d
        assert prod == abs(det)
    else:
        assert len(diag) < 3


@given(st.lists(st.lists(st.integers(-7, 7), min_size=4, max_size=4), min_size=2, max_size=3))
def test_right_kernel_is_complete(mat):
    kern = ila.right_kernel(mat, 4)
    for v in kern:
        assert all(sum(r[j] * v[j] for j in range(4)) == 0 for r in mat)
    assert len(kern) == 4 - ila.rank(mat)


@given(st.lists(st.lists(st.integers(-4, 4), min_size=3, max_size=3), min_size=2, max_size=3))
def test_preimage_lattice_membership(mat):
    basis = ila.hnf([[2, 0, 0], [0, 4, 0]])
    pre = ila.preimage_lattice(mat, basis, 3)
    for u in pre:
        image = [sum(r[j] * u[j] for j in range(3)) for r in mat]
        assert ila.in_lattice(image, basis)
    # the preimage contains the kernel outright
    for v in ila.right_kernel(mat, 3):
        assert ila.in_lattice(list(v), pre)


def test_index_in_known_values():
    z2 = ila.identity(2)
    assert ila.index_in(z2, ila.hnf([[2, 0], [0, 3]])) == 6
    assert ila.index_in(z2, ila.hnf([[1, 0]])) is not None
    from algentropy.base import INFINITE

    assert ila.index_in(z2, ila.hnf([[1, 0]])) == INFINITE
    assert ila.index_in(ila.hnf([[2, 0], [0, 2]]), ila.hnf([[4, 0], [0, 4]])) == 4


@given(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5))
def test_index_multiplicative_on_chains(a, b, c):
    top = ila.hnf([[a]])
    mid = ila.hnf([[a * b]])
    bot = ila.hnf([[a * b * c]])
    assert ila.index_in(top, bot) == ila.index_in(top, mid) * ila.index_in(mid, bot)


@given(small_mat, small_mat)
def test_sum_and_intersection_bounds(xs, ys):
    s = ila.hnf(ila.lattice_sum(ila.hnf(xs), ila.hnf(ys)))
    m = ila.lattice_intersect(ila.hnf(xs), ila.hnf(ys), 3)
    for row in list(xs) + list(ys):
        assert ila.in_lattice(list(row), s)
    for row in m:
        assert ila.in_lattice(list(row), ila.hnf(xs))
        assert ila.in_lattice(list(row), ila.hnf(ys))


def test_intersect_exact_small_case():
    # 2Z^2 meet the diagonal copy of Z is the even diagonal
    a = ila.hnf([[2, 0], [0, 2]])
    b = ila.hnf([[1, 1]])
    assert ila.lattice_intersect(a, b, 2) == ((2, 2),)


@given(lattice_rows())
@example([[6, 4], [2, 8]])
def test_hnf_with_transform_reconstructs(rows):
    h, u = ila.hnf_with_transform(rows)
    rank = sympy.Matrix(rows).rank()
    assert abs(sympy.Matrix(u).det()) == 1
    assert sympy.Matrix(u) * sympy.Matrix(rows) == sympy.Matrix(h)
    assert h[:rank] == ila.hnf(rows) and len(h) == len(rows)
    assert not any(any(row) for row in h[rank:])
    kernel = ila._left_kernel(rows)
    assert len(kernel) == len(rows) - rank
    for z in kernel:
        assert not any(sympy.Matrix([z]) * sympy.Matrix(rows))


def test_mat_power():
    m = [[1, 1], [0, 1]]
    assert ila.mat_power(m, 5) == ((1, 5), (0, 1))
    assert ila.mat_power(m, 0) == ((1, 0), (0, 1))


def test_xgcd():
    g, x, y = ila.xgcd(240, 46)
    assert g == 2 and 240 * x + 46 * y == 2
    g, x, y = ila.xgcd(0, 0)
    assert g == 0
