"""Mahler measure certification against an mpmath root-finding oracle.

mpmath.polyroots shares no code with the interval refinement used by
the library, so agreement within the certified radius is meaningful.
"""

import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

import algentropy
from algentropy.errors import DomainError
from algentropy.mahler import (
    MahlerResult,
    cyclotomic_polynomial,
    kronecker_test,
    mahler_measure,
    small_measure_scan,
)
from algentropy.polynomial import IntPolynomial

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
