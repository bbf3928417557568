"""Mahler measure certification against an mpmath root-finding oracle.

mpmath.polyroots shares no code with the interval refinement used by
the library, so agreement within the certified radius is meaningful.
"""

import ast
import io
import itertools
import json
import math
import random
import time
from fractions import Fraction

import mpmath
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st
from fresh import fresh_interpreter, fresh_run

from algentropy import mahler
from algentropy.cli import run
from algentropy.config import SessionConfig
from algentropy.errors import DomainError, IndeterminateMeasureError
from algentropy.mahler import (
    MahlerResult,
    cyclotomic_polynomial,
    kronecker_test,
    mahler_measure,
    small_measure_scan,
)
from algentropy.polynomial import IntPolynomial, exact_div, gcd_primitive

rng = random.Random(11)


def oracle_log_measure(coeffs, dps=60):
    """log M(f) via mpmath roots: log|lc| + sum log max(1, |root|).

    mpmath.polyroots does not converge on a repeated root, so the roots are
    found factor by factor in sympy's square-free decomposition
    f = c * prod g_i^m_i, using M(f) = |c| * prod M(g_i)^m_i.
    """
    t = sympy.symbols("t")
    content, factors = sympy.Poly(list(reversed(coeffs)), t).sqf_list()
    with mpmath.workdps(dps):
        total = mpmath.log(abs(int(content)))
        for g, mult in factors:
            g_coeffs = [int(c) for c in g.all_coeffs()]
            total += mult * mpmath.log(abs(g_coeffs[0]))
            for r in mpmath.polyroots(g_coeffs, maxsteps=200, extraprec=120):
                m = abs(r)
                if m > 1:
                    total += mult * mpmath.log(m)
        return float(total)


def test_golden_ratio_closed_form():
    # t^2 - t - 1 has measure (1 + sqrt 5)/2
    res = mahler_measure(IntPolynomial([-1, -1, 1]))
    assert abs(res.value - math.log((1 + math.sqrt(5)) / 2)) <= float(res.error_bound) + 1e-12
    assert res.roots_outside == 1
    assert not res.kronecker


def test_monomials_and_constants():
    assert mahler_measure(IntPolynomial([0, 1])).kronecker
    assert mahler_measure(IntPolynomial([1])).value == 0.0
    res = mahler_measure(IntPolynomial([6]))
    # the content contributes |lc|, so constants measure themselves
    assert res.exact and res.log_of == 6
    with pytest.raises(DomainError):
        mahler_measure(IntPolynomial([0]))


def test_exact_path_reports_log_of():
    res = mahler_measure(IntPolynomial([-2, 1]))
    assert res.exact
    assert res.log_of == 2
    assert res.error_bound == 0
    assert res.value == pytest.approx(math.log(2))


def test_lehmer_interval_both_schedules():
    lehmer = IntPolynomial([1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1])
    for schedule in ("aberth", "durand_kerner"):
        res = mahler_measure(lehmer, schedule=schedule, config=SessionConfig(tolerance=1e-10))
        assert res.schedule == schedule
        lo, hi = res.value - float(res.error_bound), res.value + float(res.error_bound)
        assert lo <= 0.1623576120077380 <= hi
        assert hi - lo <= 2e-10
        assert res.roots_outside == 1


def test_kronecker_on_cyclotomics():
    for n in (1, 2, 3, 4, 5, 6, 12, 15):
        assert kronecker_test(cyclotomic_polynomial(n))
    prod = cyclotomic_polynomial(3) * cyclotomic_polynomial(8).shift_up(2)
    assert kronecker_test(prod)
    assert not kronecker_test(IntPolynomial([-1, -1, 1]))
    assert not kronecker_test(IntPolynomial([2, 1]))
    # measure-zero verdicts and the test agree by construction
    assert mahler_measure(prod).kronecker


def test_cyclotomic_polynomials_match_sympy():
    t = sympy.symbols("t")
    for n in range(1, 16):
        ours = list(reversed(cyclotomic_polynomial(n).coeffs))
        theirs = sympy.Poly(sympy.cyclotomic_poly(n, t), t).all_coeffs()
        assert ours == theirs


def test_kronecker_cold_cache_regression():
    # a fresh process starts with an empty cyclotomic table; filling it by
    # Fraction division made this call take close to a minute
    code = (
        "import time\n"
        "from algentropy.mahler import kronecker_test\n"
        "from algentropy.polynomial import IntPolynomial\n"
        "start = time.perf_counter()\n"
        "verdict = kronecker_test(IntPolynomial([1, 1] + [0] * 18 + [1]))\n"
        "print(verdict, time.perf_counter() - start)\n"
    )
    verdict, seconds = fresh_interpreter(code).stdout.split()
    assert verdict == "False"
    assert float(seconds) < 10.0


def _cold_call_seconds(expr):
    """Value and seconds of one call in a fresh interpreter (empty caches)."""
    code = (
        "import time\n"
        "from algentropy.mahler import kronecker_test, mahler_measure\n"
        "from algentropy.polynomial import IntPolynomial\n"
        "start = time.perf_counter()\n"
        f"value = {expr}\n"
        "print(repr(value), time.perf_counter() - start, sep='\\n')\n"
    )
    value, seconds = fresh_interpreter(code).stdout.splitlines()
    return value, float(seconds)


@pytest.mark.parametrize("expr, expected", [
    # palindromic, so it reaches the cyclotomic peel, and irreducible
    ("kronecker_test(IntPolynomial([1, 1] + [0] * 18 + [3] + [0] * 18 + [1, 1]))", "False"),
    ("kronecker_test(IntPolynomial([1] * 41))", "True"),  # Phi_41
])
def test_kronecker_degree_40_cold_cache(expr, expected):
    value, seconds = _cold_call_seconds(expr)
    assert value == expected
    assert seconds < 1.0


def test_measure_degree_40_cold_cache():
    # t^40 + t + 1: the peel tries every order k with phi(k) <= 40
    value, seconds = _cold_call_seconds(
        "mahler_measure(IntPolynomial([1, 1] + [0] * 38 + [1])).roots_outside")
    assert value == "26"  # as counted by mpmath.polyroots
    assert seconds < 1.0


def test_orders_are_every_k_with_small_totient():
    # phi(k) >= sqrt(k/2), so every k with phi(k) <= 60 is at most 7200
    totients = {k: int(sympy.totient(k)) for k in range(1, 2 * 60**2 + 1)}
    for d in range(61):
        want = [(k, phi) for k, phi in totients.items() if phi <= d]
        got = mahler._orders(d)
        assert [(k, phi) for k, phi, _ in got] == want, d
    for k, _, at_two in got:
        assert at_two == mahler._horner(cyclotomic_polynomial(k).coeffs, 2)


def _cold_cli_trinomial(d):
    """(exit code, JSON payload, seconds) of ``mahler measure`` on t^d + t + 1,
    run through cli.run in a fresh interpreter."""
    poly = "1,1" + ",0" * (d - 2) + ",1"
    code, seconds, out, _ = fresh_run(["mahler", "measure", "--poly", poly])
    return code, json.loads(out or "null"), seconds


def test_degree_200_measure_cold_cli_time_regression():
    # t^200 + t + 1 took 24.8 s: the disk-overlap test cross-multiplied
    # radii of about 15,000 bits, and the cyclotomic orders were found by
    # trial-factoring every k <= 2 * 200^2
    code, payload, seconds = _cold_cli_trinomial(200)
    assert code == 0 and payload["roots_outside"] == "132" and not payload["exact"]
    assert seconds < 3.0


def test_degree_400_measure_at_the_default_tolerance_cold_cli_time_regression():
    # t^400 + t + 1 exited 3 at the default tolerance 1e-9: each disk
    # component took its own padded log, so the 266 roots outside the unit
    # circle carried 532 paddings of 1e-12, past the factor's share
    code, payload, seconds = _cold_cli_trinomial(400)
    assert code == 0 and payload["roots_outside"] == "266" and not payload["exact"]
    assert float(payload["error_bound"]) <= 1e-9
    assert seconds < 8.0


def _oracle_peel(g):
    """The full cyclotomic peel: try Phi_k for every k <= 2 deg(g)^2."""
    removed = 0
    k = 1
    while g.degree > 0 and k <= 2 * g.degree**2:
        phi = cyclotomic_polynomial(k)
        while phi.degree <= g.degree:
            try:
                g = exact_div(g, phi)
            except ValueError:
                break
            removed += phi.degree
        k += 1
    return g, removed


# the orders k with phi(k) <= 6; products stay below degree 23, so the
# full loop's table stays below k = 2 * 22^2
_SMALL_ORDERS = [k for k in range(1, 19) if cyclotomic_polynomial(k).degree <= 6]


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.sampled_from(_SMALL_ORDERS), max_size=3),
    st.lists(st.lists(st.integers(-3, 3), min_size=2, max_size=3), min_size=1, max_size=2),
)
@example([1, 2], [[-2, 1]])   # t - 2 makes g(2) = 0
@example([3, 3, 6], [[1, 1, 2]])
def test_peel_matches_full_loop(orders, others):
    g = IntPolynomial([1])
    for k in orders:
        g = g * cyclotomic_polynomial(k)
    for coeffs in others:
        g = g * IntPolynomial(coeffs)
    if g.degree < 1:
        return
    assert mahler._peel_cyclotomics(g) == _oracle_peel(g)


def _sympy_all_cyclotomic(f):
    t = sympy.symbols("t")
    content, factors = sympy.Poly(list(reversed(f.coeffs)), t).factor_list()
    return content == 1 and all(g.as_expr() == t or g.is_cyclotomic for g, _ in factors)


def test_kronecker_matches_sympy_on_small_monic_polynomials():
    # c06's population to degree 4: every irreducible factor but t is some Phi_n
    for degree in range(1, 5):
        for tail in itertools.product(range(-2, 3), repeat=degree):
            f = IntPolynomial(list(tail) + [1])
            assert kronecker_test(f) == _sympy_all_cyclotomic(f), f


def test_kronecker_test_agrees_with_the_measure_on_every_nonzero_input():
    # the monic population to degree 4 times +-1 and +-2: a content other
    # than +-1 gives False, and -f answers as f does
    for degree in range(5):
        for tail in itertools.product(range(-2, 3), repeat=degree):
            monic = IntPolynomial(list(tail) + [1])
            for c in (1, -1, 2, -2):
                f = monic * IntPolynomial([c])
                assert kronecker_test(f) == mahler_measure(f).kronecker, f


def _power(f, e):
    g = IntPolynomial([1])
    for _ in range(e):
        g = g * f
    return g


def _sympy_pipeline(f):
    """(kronecker, exact, roots_outside) of f read off sympy's factor_list.

    Every irreducible factor but t and the cyclotomic ones counts its
    roots outside the unit circle by mpmath.polyroots, and the measure is
    exact iff each of them is linear.
    """
    t = sympy.symbols("t")
    _, factors = sympy.Poly(list(reversed(f.coeffs)), t).factor_list()
    exact, outside = True, 0
    for g, mult in factors:
        if g.as_expr() == t or g.is_cyclotomic:
            continue
        exact = exact and g.degree() == 1
        roots = mpmath.polyroots([int(c) for c in g.all_coeffs()], maxsteps=200, extraprec=60)
        outside += mult * sum(abs(r) > 1 for r in roots)
    return _sympy_all_cyclotomic(f) or _sympy_all_cyclotomic(-f), exact, outside


# irreducible non-cyclotomic factors: rational roots outside and inside
# the unit circle, and irrational roots on either side of it
_OTHER_FACTORS = [[-2, 1], [1, 2], [2, 3], [-3, 2], [-1, -1, 1], [1, 1, 2], [-1, -1, 0, 1]]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(st.sampled_from(_SMALL_ORDERS), st.integers(1, 3)), max_size=3),
    st.sampled_from(_OTHER_FACTORS),
    st.integers(0, 2),
    st.sampled_from([1, -1, 2, -6]),
    st.integers(0, 2),
)
@example([(1, 3), (2, 3), (6, 2)], [-1, -1, 1], 2, -1, 1)
@example([(1, 2), (2, 3)], [-2, 1], 2, 1, 0)   # t - 2 makes g(2) = 0
@example([(3, 3)], [1, 1, 2], 0, 2, 2)
def test_pipeline_matches_sympy_on_products(cyclotomics, other, m, content, a):
    # Phi_k^e * g^m * content * t^a: the peel takes each Phi_k with its
    # multiplicity before the square-free split sees the rest
    f = _power(IntPolynomial(other), m) * IntPolynomial([0] * a + [content])
    for k, e in cyclotomics:
        f = f * _power(cyclotomic_polynomial(k), e)
    kronecker, exact, outside = _sympy_pipeline(f)
    res = mahler_measure(f)
    assert kronecker_test(f) == res.kronecker == kronecker
    assert (res.exact, res.roots_outside) == (exact, outside)


@pytest.mark.parametrize("base, e", [([-1, 1], 200), ([-1, 0, 0, 0, 0, 0, 1], 40)],
                         ids=["(t-1)^200", "(t^6-1)^40"])
def test_high_multiplicity_cyclotomic_powers_time_regression(base, e):
    # one peel on the whole polynomial, with no square-free split first
    f = _power(IntPolynomial(base), e)
    for call in (kronecker_test, lambda g: mahler_measure(g).kronecker):
        start = time.perf_counter()
        assert call(f)
        assert time.perf_counter() - start < 1.0


def test_repeated_factor_certifies_within_its_multiplicity_share():
    # each factor's share was tol / (2 N mult), so (t^3 - t - 1)^30 at
    # 1e-10 got 1.7e-12, below the two log paddings, and was refused,
    # although 30 certificates of half-width 1e-12 fit the promise
    f = _power(IntPolynomial([-1, -1, 0, 1]), 30)
    start = time.perf_counter()
    res = mahler_measure(f, config=SessionConfig(tolerance=1e-10))
    assert time.perf_counter() - start < 1.0
    assert res.roots_outside == 30 and not res.exact
    assert res.error_bound <= 1e-10
    assert abs(res.value - oracle_log_measure(f.coeffs)) <= res.error_bound


def test_tolerance_below_the_log_padding_fails_fast():
    # one factor's certificate may be 2 tol wide; a share of 1.5e-12 is
    # below the two log paddings (2e-12) of a certificate with a root outside
    f = IntPolynomial([1, -2, 1, 3, 3, 1, 2, -2, 1])
    start = time.perf_counter()
    with pytest.raises(IndeterminateMeasureError):
        mahler_measure(f, config=SessionConfig(tolerance=0.75e-12))
    assert time.perf_counter() - start < 0.5
    # the floor is two paddings per factor, not two per root outside: a
    # share of 5e-12 holds one factor's two paddings (2e-12) but not two
    # paddings for each of its four roots outside (8e-12)
    res = mahler_measure(f, config=SessionConfig(tolerance=2.5e-12))
    assert res.roots_outside == 4 and res.error_bound <= 2.5e-12


def test_tolerance_at_the_log_padding_fails_fast():
    # a share equal to the two paddings is refused before any refinement;
    # escalating through every precision took about 3 s on a 2-core machine
    f = IntPolynomial([1, -2, 1, 3, 3, 1, 2, -2, 1])
    start = time.perf_counter()
    with pytest.raises(IndeterminateMeasureError):
        mahler_measure(f, config=SessionConfig(tolerance=mahler._LOG_PAD))
    assert time.perf_counter() - start < 0.5
    # a share of 8.5e-12, a few paddings above the refusal, certifies
    res = mahler_measure(f, config=SessionConfig(tolerance=4.25e-12))
    assert res.roots_outside == 4 and res.error_bound <= 4.25e-12


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(-5, 5), min_size=2, max_size=7))
@example([4, 4, 1])
def test_certified_interval_contains_oracle(coeffs):
    f = IntPolynomial(coeffs)
    if f.is_zero():
        return
    res = mahler_measure(f, config=SessionConfig(tolerance=1e-8))
    oracle = oracle_log_measure(f.coeffs)
    assert abs(res.value - oracle) <= float(res.error_bound) + 1e-7


@settings(max_examples=20, deadline=None)
@given(
    st.lists(st.integers(-3, 3), min_size=2, max_size=4),
    st.lists(st.integers(-3, 3), min_size=2, max_size=4),
)
def test_measure_is_multiplicative(a, b):
    f, g = IntPolynomial(a), IntPolynomial(b)
    if f.is_zero() or g.is_zero():
        return
    rf = mahler_measure(f, config=SessionConfig(tolerance=1e-9))
    rg = mahler_measure(g, config=SessionConfig(tolerance=1e-9))
    rfg = mahler_measure(f * g, config=SessionConfig(tolerance=1e-9))
    slack = float(rf.error_bound + rg.error_bound + rfg.error_bound) + 1e-8
    assert abs(rfg.value - (rf.value + rg.value)) <= slack


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(-4, 4), min_size=2, max_size=6))
def test_measure_invariant_under_reversal(coeffs):
    f = IntPolynomial(coeffs)
    if f.is_zero() or f.constant == 0:
        return
    rf = mahler_measure(f, config=SessionConfig(tolerance=1e-9))
    rr = mahler_measure(f.reverse(), config=SessionConfig(tolerance=1e-9))
    assert abs(rf.value - rr.value) <= float(rf.error_bound + rr.error_bound) + 1e-8


def test_repeated_roots_handled():
    # (t - 1)^2 is a repeated cyclotomic factor
    res = mahler_measure(IntPolynomial([1, -2, 1]))
    assert res.kronecker and res.value == 0.0
    # (t - 2)^2 doubles the log
    res = mahler_measure(IntPolynomial([4, -4, 1]))
    assert res.value == pytest.approx(2 * math.log(2))
    assert res.log_of == 4


def test_scan_finds_golden_ratio_polynomial():
    hits = small_measure_scan(degree_max=2, height_max=1, threshold=0.9)
    polys = [f.coeffs for f, _ in hits]
    assert (-1, -1, 1) in polys or (1, -1, -1) in polys or (-1, 1, 1) in polys
    for _, res in hits:
        assert 0 < res.value < 0.9
    # sorted ascending by measure
    values = [res.value for _, res in hits]
    assert values == sorted(values)


def test_scan_orbit_members_share_one_measure():
    # Lehmer's polynomial and its image under t -> -t, then another pair:
    # equal measures, so the order comes from the coefficients alone
    hits = small_measure_scan(degree_max=10, height_max=1, threshold=0.2)
    assert len(hits) == 4
    (f1, r1), (f2, r2), (f3, r3), (f4, r4) = hits
    assert r1 == r2 and r3 == r4 and r1.value < r3.value
    assert f1.coeffs < f2.coeffs and f3.coeffs < f4.coeffs
    assert (1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1) in (f1.coeffs, f2.coeffs)


def test_scan_respects_threshold():
    hits = small_measure_scan(degree_max=2, height_max=1, threshold=0.2)
    assert hits == []


@pytest.mark.parametrize("degree_max, height_max, threshold", [(5, 1, 0.5), (3, 2, 0.7)])
def test_scan_skips_only_what_the_measure_rejects(degree_max, height_max, threshold):
    # every candidate through mahler_measure, without the Graeffe skip
    expected = []
    for d in range(1, degree_max + 1):
        for low in itertools.product(range(-height_max, height_max + 1), repeat=d):
            if low[0] == 0:
                continue
            f = IntPolynomial(list(low) + [1])
            res = mahler_measure(f)
            lo, hi = res.value - float(res.error_bound), res.value + float(res.error_bound)
            if not res.kronecker and lo > 0 and hi < threshold:
                expected.append(f.coeffs)
    hits = small_measure_scan(degree_max, height_max, threshold)
    assert expected
    assert sorted(f.coeffs for f, _ in hits) == sorted(expected)
    # a shared result must still describe each hit's own roots
    for f, res in hits:
        own = mahler_measure(f)
        assert (res.roots_outside, res.exact, res.kronecker) == (
            own.roots_outside, own.exact, own.kronecker)


def _graeffe_cases():
    draw = random.Random(13)
    polys = [[draw.randint(-3, 3) for _ in range(degree)] + [draw.choice([1, -1, 2, -3])]
             for degree in range(1, 21) for _ in range(3)]
    polys.append([1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1])  # Lehmer's polynomial
    for orders in ((1, 1, 3, 12), (5, 8, 9), (2, 2, 2, 7), (4, 6, 10, 15)):
        f = IntPolynomial([1])
        for k in orders:
            f = f * cyclotomic_polynomial(k)
        polys.append(list(f.coeffs))
    return polys


@pytest.mark.parametrize("coeffs", _graeffe_cases(), ids=lambda c: f"deg{len(c) - 1}")
def test_graeffe_bounds_never_exceed_the_measure(coeffs):
    truth = oracle_log_measure(coeffs)
    d = len(coeffs) - 1
    bounds = list(mahler._graeffe_lower_bounds(coeffs, 8))
    assert len(bounds) == 9
    for k, bound in enumerate(bounds):
        assert bound <= truth
        # and not far below: M(g) <= ||g||_1 <= (d + 1) max |c_j|
        slack = (math.log(d + 1) + math.log(math.comb(d, d // 2))) / 2**k
        assert truth - bound <= slack + 1e-9


# ---------------------------------------------------------------------------
# the Weierstrass-disk certification against an exact rational oracle

def _fraction(x):
    """Exact value of a binary64 float or an mpmath mpf as a Fraction."""
    if isinstance(x, float):
        return Fraction(x)
    sign, man, exp, _ = x._mpf_
    v = Fraction(man) * Fraction(2) ** exp
    return -v if sign else v


def _fraction_sqrt_bounds(q, bits=100):
    if q == 0:
        return Fraction(0), Fraction(0)
    r = math.isqrt((q.numerator << (2 * bits)) // q.denominator)
    return Fraction(r, 1 << bits), Fraction(r + 1, 1 << bits)


def _fraction_log_bounds(q):
    x = math.log(q.numerator) - math.log(q.denominator)
    # the documented pad: 1e-12, widened to (bits + 2) 2^-51 past 2249 bits
    pad = max(1e-12, math.ldexp(q.numerator.bit_length() + q.denominator.bit_length() + 2, -51))
    return x - pad, x + pad


def round_64(r, rounding):
    """r >= 0 rounded to 64 significant bits by math.ceil or math.floor.

    rounding(r 2^k) / 2^k for the integer k with 2^63 <= r 2^k < 2^64;
    0 stays 0.
    """
    if r == 0:
        return r
    k = 63 - (r.numerator.bit_length() - r.denominator.bit_length())
    while r * Fraction(2) ** k >= 2**64:
        k -= 1
    while r * Fraction(2) ** k < 2**63:
        k += 1
    return Fraction(rounding(r * Fraction(2) ** k)) / Fraction(2) ** k


def round_up_64(r):
    return round_64(r, math.ceil)


def round_down_64(r):
    return round_64(r, math.floor)


def fraction_certify(poly, zs, tol):
    """The disk test in Fraction arithmetic, point by point.

    Same bounds as mahler._certify (100-bit isqrt floors and ceilings of
    every modulus, each exact radius rounded up to 64 significant bits
    by ``round_up_64``), computed with no common scale and no integer
    clearing of denominators.  The components' bounds max(1, hi)^n and
    max(1, lo)^n are multiplied, rounded up and down to 64 significant
    bits after each multiply, and each product takes one padded log.
    Returns (contrib_lo, contrib_hi, roots_outside, ok); the
    approximations must be distinct.
    """
    d = poly.degree
    s = abs(poly.leading)
    pts = [(_fraction(z.real), _fraction(z.imag)) for z in zs]
    radii, mods = [], []
    for i, (re, im) in enumerate(pts):
        fre, fim = Fraction(0), Fraction(0)
        for c in reversed(poly.coeffs):
            fre, fim = fre * re - fim * im + c, fre * im + fim * re
        _, f_ub = _fraction_sqrt_bounds(fre * fre + fim * fim)
        denom_lb = Fraction(1)
        for j, (re2, im2) in enumerate(pts):
            if i != j:
                denom_lb *= _fraction_sqrt_bounds((re - re2) ** 2 + (im - im2) ** 2)[0]
        if denom_lb <= 0:
            return 0.0, 0.0, 0, False
        radii.append(round_up_64(d * f_ub / (s * denom_lb)))
        mods.append(_fraction_sqrt_bounds(re * re + im * im))
    parent = list(range(d))

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    for i in range(d):
        for j in range(i):
            dx, dy = pts[i][0] - pts[j][0], pts[i][1] - pts[j][1]
            if dx * dx + dy * dy <= (radii[i] + radii[j]) ** 2:
                parent[find(i)] = find(j)
    comps = {}
    for i in range(d):
        comps.setdefault(find(i), []).append(i)
    prod_lo, prod_hi, outside = Fraction(1), Fraction(1), 0
    for members in comps.values():
        lo = min(mods[i][0] - radii[i] for i in members)
        hi = max(mods[i][1] + radii[i] for i in members)
        if hi > 1:
            prod_hi = round_up_64(prod_hi * hi ** len(members))
        if lo > 1:
            prod_lo = round_down_64(prod_lo * lo ** len(members))
            outside += len(members)
    total_hi = _fraction_log_bounds(prod_hi)[1] if prod_hi > 1 else 0.0
    total_lo = max(0.0, _fraction_log_bounds(prod_lo)[0])
    return total_lo, total_hi, outside, total_hi - total_lo <= tol


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**300), st.integers(1, 2**300))
@example(2**64 - 1, 1)
@example(2**64 + 1, 2**130)
@example(1, 3 * 2**500)
def test_rounded_radius_is_a_tight_upper_bound(num, den):
    m, k = mahler._round_up_dyadic(num, den)
    rounded, exact = Fraction(m) / Fraction(2) ** k, Fraction(num, den)
    assert rounded == round_up_64(exact)
    assert exact <= rounded <= exact * (1 + Fraction(1, 2**62))
    m, k = mahler._round_up_dyadic(num, den, down=True)
    rounded = Fraction(m) / Fraction(2) ** k
    assert rounded == round_down_64(exact)
    assert exact * (1 - Fraction(1, 2**62)) <= rounded <= exact


def _fields(cert):
    return cert.contrib_lo, cert.contrib_hi, cert.roots_outside, cert.ok


def _seeded_squarefree(degree, seed):
    draw = random.Random(f"{seed}/{degree}")
    while True:
        coeffs = [draw.randint(-3, 3) for _ in range(degree)] + [draw.choice([1, 1, 2, -3])]
        f = IntPolynomial(coeffs)
        if f.constant != 0 and gcd_primitive(f, f.derivative()).degree == 0:
            return f


def _recorded_certify_calls(monkeypatch, runs):
    calls = []
    real = mahler._certify

    def spy(poly, zs, tol):
        calls.append((poly, list(zs), tol))
        return real(poly, zs, tol)

    monkeypatch.setattr(mahler, "_certify", spy)
    for f, kwargs in runs:
        mahler_measure(f, use_exact_paths=False, **kwargs)
    monkeypatch.setattr(mahler, "_certify", real)
    return calls


def _oracle_root_contribution(poly):
    with mpmath.workdps(60):
        roots = mpmath.polyroots(list(reversed(poly.coeffs)), maxsteps=200, extraprec=120)
        return float(sum(mpmath.log(abs(r)) for r in roots if abs(r) > 1))


def _oracle_roots(poly):
    """Machine-precision roots of poly from mpmath.polyroots."""
    roots = mpmath.polyroots(list(reversed(poly.coeffs)), maxsteps=200, extraprec=60)
    return [complex(r) for r in roots]


def test_certify_matches_fraction_oracle(monkeypatch):
    # squarefree factors of degree 2..12, which both schedules certify in
    # the double stage, and t^3 + 10^400 t + 3, whose coefficients are
    # beyond binary64, so both start in mpmath
    runs = []
    for f in [_seeded_squarefree(degree, 7) for degree in range(2, 13)] + [
            IntPolynomial([3, 10**400, 0, 1])]:
        runs += [(f, {}), (f, {"schedule": "durand_kerner"})]
    calls = _recorded_certify_calls(monkeypatch, runs)
    kinds = {type(z) for _, zs, _ in calls for z in zs}
    assert kinds == {complex, mpmath.mpc}
    assert {poly.degree for poly, _, _ in calls} == set(range(2, 13))
    for poly, zs, tol in calls:
        assert _fields(mahler._certify(poly, zs, tol)) == fraction_certify(poly, zs, tol)


def test_certify_rough_approximations_match_fraction_oracle():
    # perturbed roots give overlapping disks, merged clusters (also outside
    # the unit circle) and failed certificates; the mpc copies carry more
    # than 53 bits
    draw = random.Random(5)
    cluster = IntPolynomial([4002, -4001, 1000])  # roots 2 and 2.001
    polys = [_seeded_squarefree(degree, 11) for degree in range(2, 13)]
    for f in polys + [cluster, cluster * IntPolynomial([1, 1, 2])]:
        for eps in (0.3, 1e-2, 1e-4):
            zs = [z * complex(1 + draw.uniform(-eps, eps), draw.uniform(-eps, eps))
                  for z in _oracle_roots(f)]
            with mpmath.workdps(40):
                fine = [mpmath.mpc(z) * (1 + mpmath.mpf(draw.uniform(-1e-9, 1e-9))) for z in zs]
            for approx in (zs, fine):
                expected = fraction_certify(f, approx, 1e-8)
                assert _fields(mahler._certify(f, approx, 1e-8)) == expected


def test_coincident_approximations_still_enclose_the_measure():
    for f in (IntPolynomial([-1, -1, 0, 1]), IntPolynomial([3, -1, 2, 0, 5, 2])):
        truth = _oracle_root_contribution(f)
        roots = _oracle_roots(f)
        with mpmath.workdps(40):
            fine = [mpmath.mpc(z) for z in roots]
        for zs in (roots, fine):
            for copies in (2, 3):
                clash = [zs[0]] * copies + list(zs[copies:])
                cert = mahler._certify(f, clash, 1e-8)
                assert cert.contrib_lo <= truth <= cert.contrib_hi


@pytest.mark.parametrize("bad", [complex(math.inf, 0.0), complex(0.5, math.nan),
                                 mpmath.mpc(mpmath.inf, 0), mpmath.mpc(0, mpmath.nan)])
def test_certify_rejects_non_finite_approximations(bad):
    f = IntPolynomial([-1, -1, 1])
    with pytest.raises(ValueError):
        mahler._certify(f, [complex(1.618, 0.0), bad], 1e-8)


# ---------------------------------------------------------------------------
# coefficients beyond the binary64 range

_HUGE = 10**400


@pytest.mark.parametrize("schedule", ["aberth", "durand_kerner"])
def test_huge_coefficient_measure(schedule):
    # t^2 + 10^400 t + 1 has one root near -10^400 and one near -10^-400
    start = time.perf_counter()
    res = mahler_measure(IntPolynomial([1, _HUGE, 1]), schedule=schedule)
    assert time.perf_counter() - start < 5.0
    assert abs(res.value - 400 * math.log(10)) <= float(res.error_bound) + 1e-9
    assert res.roots_outside == 1 and res.schedule == schedule


@pytest.mark.parametrize("schedule", ["aberth", "durand_kerner"])
def test_widely_spread_root_moduli_certify(schedule):
    # t^3 + 10^400 t + 3: the Newton-polygon starts put the pair near
    # +-10^200 i and the root near -3 * 10^-400 on their own circles
    value, seconds = _cold_call_seconds(
        "(lambda r: (r.value, str(r.error_bound), r.roots_outside))("
        f"mahler_measure(IntPolynomial([3, 10**400, 0, 1]), schedule={schedule!r}))")
    mid, err, outside = ast.literal_eval(value)
    assert seconds < 2.0
    assert outside == 2
    with mpmath.workdps(40):
        truth = 400 * mpmath.log(10)
        err = Fraction(err)
        assert mid - mpmath.mpf(err.numerator) / err.denominator <= truth
        assert truth <= mid + mpmath.mpf(err.numerator) / err.denominator


@pytest.mark.parametrize("schedule", ["aberth", "durand_kerner"])
@pytest.mark.parametrize("coeffs, decades", [
    ([1] + [0] * 5 + [10**300, 1], 300),
    ([1, 10**200, 10**250, 1], 250),
], ids=["t^7+10^300t^6+1", "t^3+10^250t^2+10^200t+1"])
def test_roots_closer_than_the_fixed_grid_certify(coeffs, decades, schedule):
    # the roots of modulus 10^-50 are closer together than 2^-100, so
    # their distances read 0 on a fixed 2^-100 grid and every precision
    # failed alike (after 2.0 s on the first one, on a 2-core machine)
    start = time.perf_counter()
    res = mahler_measure(IntPolynomial(coeffs), schedule=schedule)
    assert time.perf_counter() - start < 2.0
    assert res.roots_outside == 1 and not res.exact
    with mpmath.workdps(40):
        truth = decades * mpmath.log(10)
        err = mpmath.mpf(res.error_bound.numerator) / res.error_bound.denominator
        assert res.value - err <= truth <= res.value + err


def _minus_t(f):
    """(-1)^deg f(-t), which has the roots of f negated."""
    return IntPolynomial([(-1) ** (f.degree - i) * a for i, a in enumerate(f.coeffs)])


def test_a_polynomial_and_its_image_under_t_to_minus_t_get_one_value():
    # Lehmer's L(t) read ...773 and L(-t) ...776, so scan hits of equal
    # measure in different t -> -t pairs sorted by rounding noise
    lehmer = IntPolynomial([1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1])
    polys = [lehmer * IntPolynomial(c) for c in ([1], [1, 1], [-1, 1], [1, 1, 1], [1, -1, 1])]
    results = {mahler_measure(f) for g in polys for f in (g, _minus_t(g))}
    assert len(results) == 1
    (res,) = results
    assert res.value - float(res.error_bound) <= 0.1623576120077380 <= res.value + float(res.error_bound)


def test_huge_coefficient_cli_exit_codes():
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    assert run(["mahler", "measure", "--poly", f"1,{_HUGE},1"], stdout=out, stderr=err) == 0
    assert json.loads(out.getvalue())["roots_outside"] == "1"
    assert run(["mahler", "measure", "--poly", f"3,{_HUGE},0,1"], stdout=out, stderr=err) == 0
    assert time.perf_counter() - start < 15.0


def _polished_root_contribution(poly):
    """log|lc| + sum log max(1, |root|) at 60 digits, squarefree poly only.

    numpy's companion-matrix roots, each polished by mpmath Newton steps
    at 60 digits until the step is below 1e-55; the polished roots must
    be pairwise apart, so each true root is counted once.
    """
    import numpy

    desc = list(reversed(poly.coeffs))
    with mpmath.workdps(60):
        roots = []
        for start in numpy.roots([float(c) for c in desc]):
            z = mpmath.mpc(complex(start))
            for _ in range(20):
                value, slope = mpmath.polyval(desc, z, derivative=True)
                step = value / slope
                z -= step
                if abs(step) < mpmath.mpf("1e-55") * max(1, abs(z)):
                    break
            else:
                raise AssertionError(f"Newton did not settle near {start}")
            roots.append(z)
        assert min(abs(a - b) for i, a in enumerate(roots) for b in roots[:i]) > 1e-20
        return mpmath.log(abs(desc[0])) + sum(mpmath.log(abs(z)) for z in roots if abs(z) > 1)


@pytest.mark.parametrize("degree", range(20, 101, 10))
def test_high_degree_intervals_contain_the_mpmath_value(degree):
    # seeded coefficients in [-3, 3], constant term +-1 and leading
    # coefficient 1, 2 or -3; the certificate rounds its radii up, rounds
    # its products of modulus bounds outward and pads the log of each, and
    # the interval must still hold the 60-digit value
    draw = random.Random(f"containment/{degree}")
    while True:
        coeffs = ([draw.choice([-1, 1])] + [draw.randint(-3, 3) for _ in range(degree - 1)]
                  + [draw.choice([1, 2, -3])])
        f = IntPolynomial(coeffs)
        if gcd_primitive(f, f.derivative()).degree == 0:
            break
    truth = _polished_root_contribution(f)
    for schedule in ("aberth", "durand_kerner"):
        res = mahler_measure(f, schedule=schedule)
        with mpmath.workdps(60):
            err = mpmath.mpf(res.error_bound.numerator) / res.error_bound.denominator
            assert res.value - err <= truth <= res.value + err, (schedule, res)


def test_no_numpy_on_any_path():
    # both schedules, the scan and a rational entropy through the CLI
    code = (
        "import io, sys\n"
        "from algentropy.cli import run\n"
        "from algentropy.mahler import mahler_measure, small_measure_scan\n"
        "from algentropy.polynomial import IntPolynomial\n"
        "lehmer = IntPolynomial([1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1])\n"
        "for schedule in ('aberth', 'durand_kerner'):\n"
        "    assert not mahler_measure(lehmer, schedule=schedule).exact\n"
        "assert small_measure_scan(6, threshold=0.5)\n"
        "out = io.StringIO()\n"
        "assert run(['entropy', 'halg', '--matrix', '[[1/2,3],[2,-1/3]]'], stdout=out) == 0\n"
        "print('numpy' in sys.modules)\n"
    )
    assert fresh_interpreter(code).stdout.split() == ["False"]


def test_certified_double_stage_never_imports_mpmath():
    # mpmath is imported only when a factor escalates past the double stage
    code = (
        "import io, sys\n"
        "from algentropy.cli import run\n"
        "out = io.StringIO()\n"
        "assert run(['entropy', 'halg', '--matrix', '[[2,1],[1,1]]'], stdout=out) == 0\n"
        "for poly in ('1,1,0,-1,-1,-1,-1,-1,0,1,1', '1,1' + ',0' * 198 + ',1'):\n"
        "    assert run(['mahler', 'measure', '--poly', poly], stdout=out) == 0\n"
        "print('mpmath' in sys.modules)\n"
    )
    assert fresh_interpreter(code).stdout.split() == ["False"]


def test_durand_kerner_degree_100_cold_cli_time_regression():
    # every Weierstrass sweep ran in mpmath from 40 digits: 6-11 s at
    # degree 100 on a 2-core machine
    draw = random.Random("durand_kerner/100")
    while True:
        coeffs = [draw.choice([-1, 1])] + [draw.randint(-3, 3) for _ in range(99)] + [1]
        f = IntPolynomial(coeffs)
        if gcd_primitive(f, f.derivative()).degree == 0:
            break
    argv = ["mahler", "measure", "--schedule", "durand_kerner", "--poly=" + ",".join(map(str, coeffs))]
    code, seconds, out, _ = fresh_run(argv)
    payload = json.loads(out)
    assert code == 0 and not payload["exact"]
    assert payload["roots_outside"] == str(mahler_measure(f).roots_outside)
    assert seconds < 3.0
