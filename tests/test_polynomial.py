"""Integer polynomial arithmetic, with sympy as the independent oracle."""

from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given
from hypothesis import strategies as st

from algentropy.polynomial import (
    IntPolynomial,
    divides,
    exact_div,
    gcd_primitive,
    rational_roots,
    squarefree_decomposition,
    x_power_minus_one,
)

T = sympy.symbols("t")


def to_sympy(f):
    return sympy.Poly(list(reversed(f.coeffs)), T)


coeff_lists = st.lists(st.integers(-6, 6), min_size=1, max_size=6)


def test_normalization_strips_leading_zeros():
    assert IntPolynomial([1, 2, 0, 0]).coeffs == (1, 2)
    assert IntPolynomial([0, 0]).is_zero()
    assert IntPolynomial([0]).degree == -1


def test_content_and_primitive():
    f = IntPolynomial([6, -9, 12])
    assert f.content() == 3
    assert f.primitive().coeffs == (2, -3, 4)
    # the leading sign is folded into the content
    assert IntPolynomial([-4, -6]).primitive().coeffs == (2, 3)
    assert IntPolynomial([-4, -6]).primitive().is_primitive()


@given(coeff_lists, coeff_lists)
def test_product_matches_sympy(a, b):
    f, g = IntPolynomial(a), IntPolynomial(b)
    assert to_sympy(f * g) == to_sympy(f) * to_sympy(g)


@given(coeff_lists, coeff_lists)
def test_divides_is_exact(a, b):
    f, g = IntPolynomial(a), IntPolynomial(b)
    if g.is_zero():
        return
    prod = f * g
    assert divides(g, prod)
    assert exact_div(prod, g) == f or f.is_zero()


def test_exact_div_rejects_remainders():
    f = IntPolynomial([1, 0, 1])
    g = IntPolynomial([1, 1])
    with pytest.raises(ValueError):
        exact_div(f, g)
    # t^2 + t = 2t * (t + 1)/2: divisible over Q, but not with an integer quotient
    with pytest.raises(ValueError):
        exact_div(IntPolynomial([0, 1, 1]), IntPolynomial([0, 2]))


def test_divides_over_q_with_non_monic_divisors():
    assert divides(IntPolynomial([2, 2]), IntPolynomial([1, 1]))
    assert divides(IntPolynomial([-1, 2]), IntPolynomial([-1, 1, 2]))  # (2t - 1)(t + 1)
    assert not divides(IntPolynomial([1, 2]), IntPolynomial([0, 1, 1]))
    assert not divides(IntPolynomial([3, 2]), IntPolynomial([1, 0, 1]))


@given(coeff_lists, coeff_lists)
def test_gcd_matches_sympy_up_to_sign(a, b):
    f, g = IntPolynomial(a), IntPolynomial(b)
    if f.is_zero() or g.is_zero():
        return
    ours = to_sympy(gcd_primitive(f, g))
    theirs = sympy.Poly(sympy.gcd(to_sympy(f), to_sympy(g)), T).primitive()[1]
    assert ours == theirs


def test_x_power_minus_one():
    assert x_power_minus_one(3).coeffs == (-1, 0, 0, 1)
    assert x_power_minus_one(1).coeffs == (-1, 1)


@given(coeff_lists)
def test_squarefree_decomposition_reconstructs(a):
    f = IntPolynomial(a)
    if f.degree < 1:
        return
    parts = squarefree_decomposition(f.primitive())
    rebuilt = IntPolynomial([f.content() if f.leading > 0 else -f.content()])
    for factor, mult in parts:
        piece = IntPolynomial([1])
        for _ in range(mult):
            piece = piece * factor
        rebuilt = rebuilt * piece
    assert rebuilt == f
    for factor, _ in parts:
        assert sympy.degree(sympy.gcd(to_sympy(factor), to_sympy(factor.derivative()))) <= 0


def _sympy_sqf(f):
    """sympy's square-free split as {(primitive coeffs, multiplicity)}."""
    _, factors = to_sympy(f).sqf_list()
    out = set()
    for g, mult in factors:
        h = IntPolynomial([int(c) for c in reversed(g.all_coeffs())]).primitive()
        out.add((h.coeffs, mult))
    return out


small_factors = st.lists(st.integers(-3, 3), min_size=2, max_size=4)


@given(st.lists(st.tuples(small_factors, st.integers(1, 3)), min_size=1, max_size=3))
@example([([2, 1], 1), ([1, (1 << 61) - 1], 2)])  # lc a multiple of 2^61 - 1
@example([([-1, 1], 3), ([1, 0, 1], 2), ([2, 1, 1], 1)])
def test_squarefree_decomposition_matches_sympy(parts):
    f = IntPolynomial([1])
    for coeffs, mult in parts:
        for _ in range(mult):
            f = f * IntPolynomial(coeffs)
    if f.is_zero() or f.degree < 1:
        return
    f = f.primitive()
    ours = {(h.coeffs, mult) for h, mult in squarefree_decomposition(f)}
    assert ours == _sympy_sqf(f)


def test_squarefree_decomposition_with_lc_a_multiple_of_the_prime():
    # p = 2^61 - 1 divides lc(f), so the split runs Yun's algorithm
    p = (1 << 61) - 1
    square = IntPolynomial([1, 1]) * IntPolynomial([1, 1])
    twice = IntPolynomial([1, p]) * IntPolynomial([1, p])
    for f in (twice * IntPolynomial([2, 1]), IntPolynomial([1, p]) * square,
              IntPolynomial([1, 3, 2 * p])):
        ours = {(h.coeffs, mult) for h, mult in squarefree_decomposition(f)}
        assert ours == _sympy_sqf(f)


@given(coeff_lists)
@example([-5, -3, -5, -3, -5])
@example([-3, 3, 0, -6, -3])
@example([-3, -11, -8, 4])  # (2t + 1)^2 (t - 3): a repeated non-integer root
@example([1, 0, -8, 0, 16])  # (2t - 1)^2 (2t + 1)^2
# (6t - 35)^2 (10^12 t + 7)
@example([8575, 1224999999997060, -419999999999748, 36000000000000])
# (2t - 1)(3t + 1)(5t - 2)(7t + 3): lc = 2*3*5*7, and two roots meet mod 11 and mod 13
@example([6, 5, -72, -29, 210])
@example([10**18 + 3, 1, 1])
def test_rational_roots_match_sympy(a):
    f = IntPolynomial(a)
    if f.is_zero() or f.constant == 0:
        return
    ours, cofactor = [], IntPolynomial([1])
    for h, mult in squarefree_decomposition(f.primitive()):
        roots, rest = rational_roots(h)
        assert roots == sorted(roots)
        product = rest
        for r in roots:
            product = product * IntPolynomial([-r.numerator, r.denominator])
        assert product == h
        # Yun's factor h_i holds exactly the roots of multiplicity i
        ours += roots * mult
        for _ in range(mult):
            cofactor = cofactor * rest
    # sympy's rational roots come from its factorisation over Z: roots(filter="Q")
    # solves by radicals first and alone can overrun the hypothesis deadline
    theirs = sorted(
        Fraction(int(sympy.numer(r)), int(sympy.denom(r)))
        for r, mult in to_sympy(f).ground_roots().items()
        for _ in range(mult)
    )
    assert sorted(ours) == theirs
    # the cofactor carries whatever degree the roots did not account for
    assert cofactor.degree == f.degree - len(ours)
    assert not to_sympy(cofactor).ground_roots()


def test_rational_roots_rejects_a_repeated_root():
    # every prime sees the double root 1/2, so the search must stop on its own
    for coeffs in ([-3, -11, -8, 4], [1, -4, 4]):
        with pytest.raises(ValueError, match="square-free"):
            rational_roots(IntPolynomial(coeffs))
    # a negative leading coefficient is fine: -(2t + 1)(t - 3)
    assert rational_roots(IntPolynomial([3, 5, -2])) == (
        [Fraction(-1, 2), Fraction(3)], IntPolynomial([-1]))


def test_eval_paths_agree():
    f = IntPolynomial([-1, -1, 1])
    assert f.eval_fraction(Fraction(1, 2)) == Fraction(-5, 4)
    assert abs(f.eval_complex(2.0) - 1.0) < 1e-12
    assert f.reverse().coeffs == (1, -1, -1)
    assert f.derivative().coeffs == (-1, 2)


def test_strip_t_power():
    k, f = IntPolynomial([0, 0, 3, 1]).strip_t_power()
    assert k == 2 and f.coeffs == (3, 1)
    k, f = IntPolynomial([5]).strip_t_power()
    assert k == 0 and f.coeffs == (5,)
