"""Mahler measure certification against an mpmath root-finding oracle.

mpmath.polyroots shares no code with the interval refinement used by
the library, so agreement within the certified radius is meaningful.
"""

import io
import json
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

import algentropy
from algentropy import mahler
from algentropy.cli import run
from algentropy.errors import DomainError, IndeterminateMeasureError
from algentropy.mahler import (
    MahlerResult,
    cyclotomic_polynomial,
    kronecker_test,
    mahler_measure,
    small_measure_scan,
)
from algentropy.polynomial import IntPolynomial, gcd_primitive

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
        res = mahler_measure(lehmer, tol=1e-10, schedule=schedule)
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
    paths = [str(Path(algentropy.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120, check=True)
    verdict, seconds = done.stdout.split()
    assert verdict == "False"
    assert float(seconds) < 10.0


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(-5, 5), min_size=2, max_size=7))
@example([4, 4, 1])
def test_certified_interval_contains_oracle(coeffs):
    f = IntPolynomial(coeffs)
    if f.is_zero():
        return
    res = mahler_measure(f, tol=1e-8)
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
    rf = mahler_measure(f, tol=1e-9)
    rg = mahler_measure(g, tol=1e-9)
    rfg = mahler_measure(f * g, tol=1e-9)
    slack = float(rf.error_bound + rg.error_bound + rfg.error_bound) + 1e-8
    assert abs(rfg.value - (rf.value + rg.value)) <= slack


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(-4, 4), min_size=2, max_size=6))
def test_measure_invariant_under_reversal(coeffs):
    f = IntPolynomial(coeffs)
    if f.is_zero() or f.constant == 0:
        return
    rf = mahler_measure(f, tol=1e-9)
    rr = mahler_measure(f.reverse(), tol=1e-9)
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


def test_scan_respects_threshold():
    hits = small_measure_scan(degree_max=2, height_max=1, threshold=0.2)
    assert hits == []


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
    return x - 1e-12, x + 1e-12


def fraction_certify(poly, zs, tol):
    """The disk test in Fraction arithmetic, point by point.

    Same bounds as mahler._certify (100-bit isqrt floors and ceilings of
    every modulus), computed with no common scale and no integer
    clearing of denominators.  Returns (contrib_lo, contrib_hi,
    roots_outside, ok); the approximations must be distinct.
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
        radii.append(d * f_ub / (s * denom_lb))
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
    total_lo, total_hi, outside = 0.0, 0.0, 0
    for members in comps.values():
        lo = min(mods[i][0] - radii[i] for i in members)
        hi = max(mods[i][1] + radii[i] for i in members)
        if hi > 1:
            total_hi += len(members) * max(0.0, _fraction_log_bounds(hi)[1])
        if lo > 1:
            total_lo += len(members) * max(0.0, _fraction_log_bounds(lo)[0])
            outside += len(members)
    return total_lo, total_hi, outside, total_hi - total_lo <= tol


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


def test_certify_matches_fraction_oracle(monkeypatch):
    # squarefree factors of degree 2..12: aberth certifies in the double
    # stage, durand_kerner works in mpmath from the start
    runs = []
    for degree in range(2, 13):
        f = _seeded_squarefree(degree, 7)
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
                  for z in mahler._initial_roots(f)]
            with mpmath.workdps(40):
                fine = [mpmath.mpc(z) * (1 + mpmath.mpf(draw.uniform(-1e-9, 1e-9))) for z in zs]
            for approx in (zs, fine):
                expected = fraction_certify(f, approx, 1e-8)
                assert _fields(mahler._certify(f, approx, 1e-8)) == expected


def test_coincident_approximations_still_enclose_the_measure():
    for f in (IntPolynomial([-1, -1, 0, 1]), IntPolynomial([3, -1, 2, 0, 5, 2])):
        truth = _oracle_root_contribution(f)
        roots = mahler._initial_roots(f)
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
def test_huge_coefficient_cubic_certifies_or_gives_up(schedule):
    # t^3 + 10^400 t + 3: roots near +-10^200 i and -3 * 10^-400; the
    # refinement may give up, but within its budget and with the measure's
    # own error, never an arithmetic crash
    start = time.perf_counter()
    try:
        res = mahler_measure(IntPolynomial([3, _HUGE, 0, 1]), schedule=schedule)
    except IndeterminateMeasureError:
        pass
    else:
        assert abs(res.value - 400 * math.log(10)) <= float(res.error_bound) + 1e-9
    assert time.perf_counter() - start < 10.0


def test_huge_coefficient_cli_exit_codes():
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    assert run(["mahler", "measure", "--poly", f"1,{_HUGE},1"], stdout=out, stderr=err) == 0
    assert json.loads(out.getvalue())["roots_outside"] == "1"
    code = run(["mahler", "measure", "--poly", f"3,{_HUGE},0,1"], stdout=out, stderr=err)
    assert code == 0 or (code == 3 and err.getvalue().startswith("budget error:"))
    assert time.perf_counter() - start < 15.0
