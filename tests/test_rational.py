"""Rational lattices and rational endomorphisms.

Characteristic polynomials are compared against sympy; lattice indices
against determinant covolume ratios; preimages against direct checks of
integer combinations of the basis.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from algentropy import intlinalg as ila
from algentropy.base import INFINITE
from algentropy.errors import AmbientMismatchError, NonInvertibleError
from algentropy.rational import (
    QSpace,
    RationalEndo,
    RationalLattice,
    charpoly_primitive,
    endo_apply_lattice,
    lattice_index,
    lattice_intersect,
    lattice_sum,
    preimage_in_lattice,
)

T = sympy.symbols("t")

fracs = st.fractions(
    min_value=-4, max_value=4, max_denominator=3
)
frac_rows = st.lists(st.lists(fracs, min_size=2, max_size=2), min_size=1, max_size=3)


def test_canonical_form_identifies_equal_lattices():
    a = RationalLattice.from_rows(2, [[1, 0], [0, 1]])
    b = RationalLattice.from_rows(2, [[1, 1], [0, 1], [2, 3]])
    assert a == b
    assert hash(a) == hash(b)
    assert RationalLattice.standard(2) == a
    half = RationalLattice.from_rows(2, [[Fraction(1, 2), 0], [0, Fraction(1, 2)]])
    assert half != a
    assert half.contains_lattice(a)
    assert not a.contains_lattice(half)


@given(frac_rows)
def test_scaling_generators_by_units_is_invisible(rows):
    a = RationalLattice.from_rows(2, rows)
    b = RationalLattice.from_rows(2, [[-x for x in r] for r in reversed(rows)])
    assert a == b


@given(frac_rows)
def test_basis_generates_the_same_lattice(rows):
    a = RationalLattice.from_rows(2, rows)
    assert RationalLattice.from_rows(2, a.basis) == a
    for row in rows:
        assert a.contains(row)


def test_rank_and_zero():
    assert RationalLattice.zero(3).is_zero()
    assert RationalLattice.zero(3).rank() == 0
    assert RationalLattice.from_rows(3, [[1, 2, 3], [2, 4, 6]]).rank() == 1
    line = QSpace(2).standard_lattice()
    assert line.rank() == 2


def test_lattice_index_known_values():
    z2 = RationalLattice.standard(2)
    double = RationalLattice.from_rows(2, [[2, 0], [0, 2]])
    half = RationalLattice.from_rows(2, [[Fraction(1, 2), 0], [0, Fraction(1, 2)]])
    assert lattice_index(z2, double) == 4
    assert lattice_index(half, z2) == 4
    assert lattice_index(z2, half) == 1
    line = RationalLattice.from_rows(2, [[1, 0]])
    assert lattice_index(z2, line).__class__.__name__ == "Infinity"


def _random_lattice(draw, dim):
    rank = draw.randint(0, dim)
    gens = [[Fraction(draw.randint(-6, 6), draw.randint(1, 4)) for _ in range(dim)]
            for _ in range(rank)]
    if gens and draw.random() < 0.3:
        # a dependent generator, so the rank can fall below the count
        gens.append([2 * x - y for x, y in zip(gens[0], gens[-1])])
    return RationalLattice.from_rows(dim, gens)


def test_lattice_index_matches_meet_route():
    # the oracle is the route abelian keeps: a kernel for the meet, then index_in
    draw = random.Random(15)
    ranks, infinite = set(), 0
    for _ in range(1500):
        dim = draw.randint(1, 4)
        a, b = _random_lattice(draw, dim), _random_lattice(draw, dim)
        if draw.random() < 0.15:
            b = RationalLattice.from_rows(dim, a.basis[:-1] if a.rank() else [])
        den = math.lcm(a.den, b.den)
        ra = [[x * (den // a.den) for x in row] for row in a.mat]
        rb = [[x * (den // b.den) for x in row] for row in b.mat]
        expected = ila.index_in(ra, ila.lattice_intersect(ra, rb, dim))
        assert lattice_index(a, b) == expected
        ranks.update((a.rank(), b.rank()))
        infinite += expected is INFINITE
    assert ranks == {0, 1, 2, 3, 4}
    assert infinite > 100


@given(st.lists(st.lists(st.integers(-5, 5), min_size=2, max_size=2), min_size=2, max_size=2))
def test_full_rank_index_is_det_ratio(rows):
    sub = RationalLattice.from_rows(2, rows)
    if sub.rank() < 2:
        return
    det = abs(sympy.Matrix(rows).det())
    assert lattice_index(RationalLattice.standard(2), sub) == int(det)


@given(frac_rows, frac_rows)
def test_sum_meet_inclusions(xs, ys):
    a, b = RationalLattice.from_rows(2, xs), RationalLattice.from_rows(2, ys)
    s, m = lattice_sum(a, b), lattice_intersect(a, b)
    assert s.contains_lattice(a) and s.contains_lattice(b)
    assert a.contains_lattice(m) and b.contains_lattice(m)
    # modularity bound on ranks
    assert s.rank() + m.rank() <= a.rank() + b.rank() + 2


def test_dimension_mismatch_rejected():
    with pytest.raises(AmbientMismatchError):
        lattice_sum(RationalLattice.standard(2), RationalLattice.standard(3))


frac_mats = st.lists(st.lists(fracs, min_size=2, max_size=2), min_size=2, max_size=2)


@given(frac_mats)
def test_charpoly_matches_sympy(mat):
    phi = RationalEndo(2, mat)
    ours = charpoly_primitive(phi)
    monic = sympy.Matrix([[sympy.Rational(x) for x in r] for r in mat]).charpoly(T)
    ours_expr = sympy.Poly(list(reversed(ours.coeffs)), T).as_expr()
    assert sympy.expand(monic.as_expr() * ours.leading - ours_expr) == 0
    assert ours.is_primitive()


@st.composite
def square_mats(draw, n=None):
    """n x n rational matrices, n = 1..4 unless given; a third of them
    made singular by replacing the last row with a multiple of the first."""
    if n is None:
        n = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(fracs, min_size=n, max_size=n), min_size=n, max_size=n))
    if n > 1 and draw(st.integers(0, 2)) == 0:
        c = draw(fracs)
        rows[-1] = [c * x for x in rows[0]]
    return rows


def lattices(n):
    rows = st.lists(st.lists(fracs, min_size=n, max_size=n), min_size=0, max_size=n + 1)
    return rows.map(lambda r: RationalLattice.from_rows(n, r))


def sympy_matrix(rows):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in r] for r in rows])


@given(square_mats())
def test_det_and_charpoly_constant_agree(mat):
    n = len(mat)
    phi = RationalEndo(n, mat)
    f = charpoly_primitive(phi)
    # f(0) = leading * det(-M) = leading * (-1)^n det(M)
    assert Fraction(f.constant, f.leading) == (-1) ** n * phi.det()
    assert phi.det() == Fraction(str(sympy_matrix(phi.matrix).det()))


@st.composite
def sparse_square_mats(draw):
    """n x n rational matrices, n = 1..8, mostly zeros, so that row swaps
    and singular leading minors occur; some made singular as above."""
    n = draw(st.integers(1, 8))
    entries = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)), fracs)
    rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))
    if n > 1 and draw(st.integers(0, 3)) == 0:
        c = draw(fracs)
        rows[-1] = [c * x for x in rows[draw(st.integers(0, n - 2))]]
    return rows


@settings(deadline=None)
@given(sparse_square_mats())
@example([[0, 1], [1, 0]])
@example([[1, 1, 0], [1, 1, 1], [0, 1, 1]])
@example([[0, 0, 2], [0, 3, 0], [5, 0, 0]])
def test_invert_matches_sympy(mat):
    n = len(mat)
    phi = RationalEndo(n, mat)
    m = sympy_matrix(phi.matrix)
    if m.det() == 0:
        with pytest.raises(NonInvertibleError):
            phi.invert()
        return
    inv = m.inv()
    expected = [[Fraction(str(inv[i, j])) for j in range(n)] for i in range(n)]
    assert phi.invert() == RationalEndo(n, expected)
    assert phi.compose(phi.invert()) == RationalEndo.scalar(n, 1)


def _matmul_fraction(a, b):
    return [
        [sum(a[i][t] * b[t][j] for t in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ] if b else [[] for _ in a]


def _least_den(rows):
    return math.lcm(1, *(x.denominator for row in rows for x in row))


@given(st.integers(1, 4).flatmap(lambda n: st.tuples(square_mats(n), square_mats(n))))
def test_endo_arithmetic_is_exact_and_canonical(mats):
    mat, other = mats
    n = len(mat)
    phi, psi = RationalEndo(n, mat), RationalEndo(n, other)
    f, g = phi.matrix, psi.matrix
    assert (phi + psi).matrix == tuple(tuple(a + b for a, b in zip(r, s)) for r, s in zip(f, g))
    assert phi.compose(psi).matrix == tuple(map(tuple, _matmul_fraction(f, g)))
    results = [phi, phi.compose(psi), phi + psi, phi.power(3), RationalEndo.scalar(n, mat[0][0])]
    if phi.det():
        results.append(phi.power(-2))
    for r in results:
        assert r.den == _least_den(r.matrix)
        assert r.mat == tuple(tuple(int(x * r.den) for x in row) for row in r.matrix)
        assert RationalEndo(n, r.matrix) == r
        assert hash(RationalEndo(n, r.matrix)) == hash(r)


def test_scalar_and_power():
    half = RationalEndo.scalar(3, Fraction(1, 2))
    assert half.is_scalar()
    assert half.power(2).matrix[0][0] == Fraction(1, 4)
    assert half.power(-1).matrix[0][0] == 2
    shear = RationalEndo(2, [[1, 1], [0, 1]])
    assert not shear.is_scalar()
    assert shear.power(4).matrix[0][1] == 4


def test_invert_round_trip_and_singular():
    phi = RationalEndo(2, [[1, 2], [3, 5]])
    assert phi.compose(phi.invert()).is_scalar()
    assert phi.invert().compose(phi).matrix == RationalEndo.scalar(2, 1).matrix
    with pytest.raises(NonInvertibleError):
        RationalEndo(2, [[1, 2], [2, 4]]).invert()


@given(frac_mats)
def test_endo_apply_lattice_image(mat):
    phi = RationalEndo(2, mat)
    lat = RationalLattice.from_rows(2, [[1, 0], [0, 2]])
    image = endo_apply_lattice(phi, lat)
    for row in lat.basis:
        assert image.contains(phi.apply_vector(row))
    assert image.rank() <= lat.rank()


@settings(max_examples=40)
@given(frac_mats)
def test_preimage_characterizes_membership(mat):
    phi = RationalEndo(2, mat)
    target = RationalLattice.from_rows(2, [[1, 0], [0, 3]])
    within = RationalLattice.from_rows(2, [[Fraction(1, 2), 0], [0, 1]])
    pre = preimage_in_lattice(phi, target, within)
    assert within.contains_lattice(pre)
    basis = list(within.basis)
    for coeffs in itertools.product(range(-3, 4), repeat=len(basis)):
        v = [sum(Fraction(c) * row[j] for c, row in zip(coeffs, basis)) for j in range(2)]
        in_pre = pre.contains(v)
        maps_in = target.contains(phi.apply_vector(v))
        assert in_pre == maps_in


def test_preimage_of_zero_is_kernel_slice():
    # projection onto the first coordinate: kernel is the second axis
    proj = RationalEndo(2, [[1, 0], [0, 0]])
    pre = preimage_in_lattice(proj, RationalLattice.zero(2), RationalLattice.standard(2))
    assert pre == RationalLattice.from_rows(2, [[0, 1]])


def fraction_apply_lattice(phi, lat):
    """phi(L) by Fraction arithmetic: each basis vector mapped by phi.matrix."""
    rows = [[sum(a * x for a, x in zip(mrow, row)) for mrow in phi.matrix] for row in lat.basis]
    return RationalLattice.from_rows(lat.ambient_dim, rows)


def fraction_preimage(phi, target, within):
    """{v in within : phi(v) in target}, clearing the denominators of
    (b / a) M W^T by their lcm, for within = W / a and target = T / b."""
    if within.is_zero():
        return within
    a, w_rows = within.den, within.mat
    b, t_rows = target.den, target.mat
    wt = ila.transpose(w_rows)
    scaled = [[Fraction(b, a) * x for x in row] for row in _matmul_fraction(phi.matrix, wt)]
    c = _least_den(scaled)
    cleared = tuple(tuple(int(x * c) for x in row) for row in scaled)
    big_target = tuple(tuple(c * x for x in row) for row in t_rows)
    xs = ila.preimage_lattice(cleared, big_target, len(w_rows))
    rows = [[Fraction(x, a) for x in ila.matvec(wt, xrow)] for xrow in xs]
    return RationalLattice.from_rows(within.ambient_dim, rows)


@st.composite
def map_and_lattices(draw):
    mat = draw(square_mats())
    n = len(mat)
    return RationalEndo(n, mat), draw(lattices(n)), draw(lattices(n))


@settings(max_examples=150, deadline=None)
@given(map_and_lattices())
def test_image_and_preimage_match_fraction_oracles(case):
    phi, target, within = case
    assert endo_apply_lattice(phi, within) == fraction_apply_lattice(phi, within)
    assert endo_apply_lattice(phi, target) == fraction_apply_lattice(phi, target)
    assert preimage_in_lattice(phi, target, within) == fraction_preimage(phi, target, within)


def test_vector_length_must_match_dimension():
    lat = RationalLattice.standard(2)
    with pytest.raises(AmbientMismatchError):
        lat.contains([1, 0, 5])
    with pytest.raises(AmbientMismatchError):
        lat.contains([1])
    with pytest.raises(AmbientMismatchError):
        RationalEndo.scalar(2, 1).apply_vector([1])
    with pytest.raises(AmbientMismatchError):
        RationalEndo.scalar(2, 1).apply_vector([1, 2, 3])
    assert lat.contains([1, 0])
    assert RationalEndo.scalar(2, Fraction(1, 2)).apply_vector([1, 3]) == (Fraction(1, 2), Fraction(3, 2))
