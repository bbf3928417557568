"""Mahler measure of integer polynomials with certified error bounds.

For f = s (t - l_1) ... (t - l_d) the measure is
m(f) = log|s| + sum_{|l_i| > 1} log|l_i|.  The pipeline is exact as far
as it can be: content and t-powers split off, rational roots extracted,
cyclotomic factors removed by exact division, square-free splitting by
Yun's algorithm.  Only the root moduli of the surviving factors are
numeric, and even there the error bound is rigorous: approximations get
Weierstrass disks D(z_i, d*|W_i|) whose radii are bounded in integer
arithmetic on the exact dyadic values of the points (a connected
component of m disks contains exactly m roots), so the returned interval
always contains the true measure.

Two refinement schedules are available ("aberth" over machine complex
numbers escalating into mpmath, "durand_kerner" purely in mpmath) so a
caller can cross-check one against the other; the certification step is
shared and exact either way.  Coefficients too large for a double skip
the machine stage and start in mpmath.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

from .config import default_config
from .errors import DomainError, BudgetExceededError, IndeterminateMeasureError
from .polynomial import (
    IntPolynomial,
    exact_div,
    rational_roots,
    squarefree_decomposition,
    x_power_minus_one,
)

__all__ = [
    "MahlerResult",
    "primitive_part",
    "kronecker_test",
    "mahler_measure",
    "small_measure_scan",
    "cyclotomic_polynomial",
]

# padding absorbing float rounding when exact rational bounds pass through log()
_LOG_PAD = 1e-12


@dataclass(frozen=True)
class MahlerResult:
    """Certified Mahler measure.

    value        midpoint of the certified interval (float)
    error_bound  half-width as an exact Fraction; 0 on exact paths
    exact        True when no numeric root finding was involved
    log_of       the positive rational q with value = log(q), when exact
    roots_outside  number of roots certified to have modulus > 1
    kronecker    True iff the measure is exactly 0 (cyclotomic * t^a)
    schedule     refinement schedule that produced the numeric part
    """

    value: float
    error_bound: Fraction
    exact: bool
    log_of: Fraction | None
    roots_outside: int
    kronecker: bool
    schedule: str


def primitive_part(f):
    """Content removed, leading coefficient positive.

    >>> primitive_part(IntPolynomial([-4, 0, -6])).coeffs
    (2, 0, 3)
    """
    if f.is_zero():
        raise DomainError("the zero polynomial has no Mahler measure")
    return f.primitive()


_CYCLOTOMIC_CACHE = {}


def cyclotomic_polynomial(n):
    """The n-th cyclotomic polynomial, by exact division of t^n - 1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    cached = _CYCLOTOMIC_CACHE.get(n)
    if cached is not None:
        return cached
    f = x_power_minus_one(n)
    for d in range(1, n):
        if n % d == 0:
            f = exact_div(f, cyclotomic_polynomial(d))
    _CYCLOTOMIC_CACHE[n] = f
    return f


def _peel_cyclotomics(g):
    """Divide out every cyclotomic factor of g (exactly).

    Every irreducible cyclotomic factor Phi_k of g has phi(k) <= deg g,
    and phi(k) >= sqrt(k/2) gives k <= 2 deg(g)^2; the loop bound shrinks
    as factors come off.  Returns (reduced g, number of roots removed).
    """
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


def kronecker_test(f):
    """Exact test: is every root of f a root of unity (after t-powers)?

    Requires a primitive input.  Equivalent to mahler_measure(f) == 0.

    >>> kronecker_test(IntPolynomial([1, 1, 1]))   # t^2 + t + 1
    True
    >>> kronecker_test(IntPolynomial([-3, 2]))     # 2t - 3, not monic
    False
    >>> kronecker_test(IntPolynomial([1, -2, 1]))  # (t - 1)^2
    True
    """
    if f.is_zero():
        raise DomainError("the zero polynomial has no roots")
    if not f.is_primitive():
        raise DomainError("kronecker_test expects a primitive polynomial")
    _, g = f.strip_t_power()
    if g.degree == 0:
        return g.is_one()
    if g.leading != 1 or abs(g.constant) != 1:
        # a product of cyclotomics is monic with constant term +-1
        return False
    for factor, _ in squarefree_decomposition(g):
        if factor.leading != 1:
            return False
        reduced, _ = _peel_cyclotomics(factor)
        if reduced.degree > 0:
            return False
    return True


# ---------------------------------------------------------------------------
# integer arithmetic for the certification step

# fractional bits of the floor/ceil square-root bounds
_SQRT_BITS = 100


def _dyadic(x):
    """(m, k) with x == m / 2**k exactly, for a binary64 float or an mpmath mpf."""
    if isinstance(x, float):
        if not math.isfinite(x):
            raise ValueError("non-finite value cannot be certified")
        m, q = x.as_integer_ratio()
        return m, q.bit_length() - 1
    # mpmath mpf: exact binary value from the internal (sign, man, exp, bc)
    sign, man, exp, _ = x._mpf_
    if man == 0 and exp != 0:
        raise ValueError("non-finite value cannot be certified")
    return (-int(man) if sign else int(man)), -exp


def _sqrt_floor(n, shift):
    """floor(2**100 * sqrt(n / 2**shift)) for an integer n >= 0."""
    bits = 2 * _SQRT_BITS - shift
    return math.isqrt(n << bits if bits >= 0 else n >> -bits)


def _log_bounds(num, den=1):
    """Padded float bounds for log(num/den), num and den positive integers.

    The ratio is reduced first, so the bounds depend only on its value.
    """
    g = math.gcd(num, den)
    x = math.log(num // g) - math.log(den // g)
    return x - _LOG_PAD, x + _LOG_PAD


class _CertifiedRoots:
    """Outcome of the exact Weierstrass certification of one factor."""

    __slots__ = ("contrib_lo", "contrib_hi", "roots_outside", "ok")

    def __init__(self, contrib_lo, contrib_hi, roots_outside, ok):
        self.contrib_lo = contrib_lo
        self.contrib_hi = contrib_hi
        self.roots_outside = roots_outside
        self.ok = ok


def _certify(poly, zs, tol):
    """Exact enclosure of sum(max(0, log|root|)) for ``poly``.

    zs: candidate roots as Python complex or mpmath mpc numbers, one per
    true root (poly must be squarefree); a non-finite one raises
    ValueError.  Each approximation is read as its exact dyadic value and
    all are scaled by one common 2^e to Gaussian integers z_i = Z_i / 2^e.
    The Weierstrass radius d*|f(z_i)| / (s * prod_{j != i} |z_i - z_j|)
    is bounded above with f(z_i) by homogeneous integer Horner,
    |f(z_i)| <= U_i / 2^100 and |z_i - z_j| >= L_ij / 2^100 from isqrt,
    so it is the rational d * U_i * 2^(100(d-2)) / (s * prod L_ij); disks
    overlap by integer cross-multiplication (Neumaier, "Enclosing
    clusters of zeros of polynomials", J. Comput. Appl. Math. 156, 2003:
    a connected component of m disks holds exactly m roots).  Returns a
    _CertifiedRoots with ok=False when the interval is wider than tol.
    """
    d = poly.degree
    s = abs(poly.leading)
    parts = [(_dyadic(z.real), _dyadic(z.imag)) for z in zs]
    e = max(0, max(k for part in parts for _, k in part))
    pts = [(mr << (e - kr), mi << (e - ki)) for (mr, kr), (mi, ki) in parts]
    if len(set(pts)) < d:
        # coincident approximations would zero a Weierstrass denominator:
        # move repeat i by i units of the finer grid 2^-(e+b), 2^b > d
        # (the disk theorem holds for any distinct points)
        b = d.bit_length()
        e += b
        seen = set()
        moved = []
        for i, p in enumerate(pts):
            x, y = p[0] << b, p[1] << b
            moved.append((x + i, y) if p in seen else (x, y))
            seen.add(p)
        pts = moved
    # f(X/2^e) = sum_k a_k X^k 2^(e(d-k)) / 2^(ed)
    scaled = [c << (e * (d - k)) for k, c in enumerate(poly.coeffs)]
    dist2 = {}
    lower = {}
    for i in range(d):
        x, y = pts[i]
        for j in range(i):
            dx = x - pts[j][0]
            dy = y - pts[j][1]
            q = dx * dx + dy * dy
            dist2[i, j] = q
            lb = _sqrt_floor(q, 2 * e)
            if lb == 0:
                return _CertifiedRoots(0.0, 0.0, 0, False)
            lower[i, j] = lower[j, i] = lb
    # radius i = rad_num[i] / rad_den[i]
    rad_num = []
    rad_den = []
    shift = _SQRT_BITS * (d - 2)
    for i, (x, y) in enumerate(pts):
        fre, fim = scaled[d], 0
        for c in reversed(scaled[:d]):
            fre, fim = fre * x - fim * y + c, fre * y + fim * x
        f2 = fre * fre + fim * fim
        num = d * (_sqrt_floor(f2, 2 * e * d) + 1) if f2 else 0
        den = s
        for j in range(d):
            if j != i:
                den *= lower[i, j]
        if shift >= 0:
            num <<= shift
        else:
            den <<= -shift
        rad_num.append(num)
        rad_den.append(den)
    # connected components of the disk-overlap graph:
    # |z_i - z_j|^2 <= (r_i + r_j)^2, cleared of denominators
    parent = list(range(d))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i in range(d):
        for j in range(i):
            dd = rad_den[i] * rad_den[j]
            reach = rad_num[i] * rad_den[j] + rad_num[j] * rad_den[i]
            if dist2[i, j] * dd * dd <= (reach * reach) << (2 * e):
                parent[find(i)] = find(j)
    comps = {}
    for i in range(d):
        comps.setdefault(find(i), []).append(i)
    total_lo, total_hi = 0.0, 0.0
    outside = 0
    for members in comps.values():
        # lo = min(|z_i| - r_i), hi = max(|z_i| + r_i), each a ratio
        # (num, den) over den = rad_den << 100
        lo = hi = None
        for i in members:
            x, y = pts[i]
            m2 = x * x + y * y
            m_lo = _sqrt_floor(m2, 2 * e)
            m_hi = m_lo + 1 if m2 else 0
            rn, rd = rad_num[i] << _SQRT_BITS, rad_den[i]
            den = rd << _SQRT_BITS
            cand_lo = (m_lo * rd - rn, den)
            cand_hi = (m_hi * rd + rn, den)
            if lo is None or cand_lo[0] * lo[1] < lo[0] * cand_lo[1]:
                lo = cand_lo
            if hi is None or cand_hi[0] * hi[1] > hi[0] * cand_hi[1]:
                hi = cand_hi
        n = len(members)
        if hi[0] > hi[1]:
            total_hi += n * max(0.0, _log_bounds(*hi)[1])
        if lo[0] > lo[1]:
            total_lo += n * max(0.0, _log_bounds(*lo)[0])
            outside += n
    if total_hi - total_lo > tol:
        return _CertifiedRoots(total_lo, total_hi, outside, False)
    return _CertifiedRoots(total_lo, total_hi, outside, True)


# ---------------------------------------------------------------------------
# refinement schedules

def _horner(coeffs, z):
    acc = z * 0
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def _aberth_sweep(coeffs, dcoeffs, zs, iters, stop_eps):
    """Generic Aberth-Ehrlich iteration; works for complex and mpmath mpc."""
    used = 0
    for _ in range(iters):
        used += 1
        new = []
        worst = 0.0
        for i, z in enumerate(zs):
            fz = _horner(coeffs, z)
            fpz = _horner(dcoeffs, z)
            if fpz == 0:
                fpz = fpz + stop_eps
            w = fz / fpz
            ssum = z * 0
            for j, zj in enumerate(zs):
                if j != i and z != zj:
                    ssum += 1 / (z - zj)
            denom = 1 - w * ssum
            if denom == 0:
                denom = denom + stop_eps
            corr = w / denom
            new.append(z - corr)
            worst = max(worst, float(abs(corr)))
        zs = new
        if worst < stop_eps:
            break
    return zs, used


def _weierstrass_sweep(coeffs, zs, iters, stop_eps):
    """Durand-Kerner iteration with the raw Weierstrass corrections."""
    s = coeffs[-1]
    used = 0
    for _ in range(iters):
        used += 1
        new = []
        worst = 0.0
        for i, z in enumerate(zs):
            num = _horner(coeffs, z)
            den = s * 1
            for j, zj in enumerate(zs):
                if j != i:
                    diff = z - zj
                    if diff == 0:
                        diff = diff + stop_eps
                    den = den * diff
            corr = num / den
            new.append(z - corr)
            worst = max(worst, float(abs(corr)))
        zs = new
        if worst < stop_eps:
            break
    return zs, used


def _is_finite_complex(z):
    return cmath.isfinite(complex(z))


def _initial_roots(poly):
    import numpy as np

    rts = np.roots(list(reversed(poly.coeffs)))
    return [complex(z) for z in rts]


def _circle_starts(poly, ctx):
    # the Cauchy bound and the start points are rounded to 53 bits, as in
    # binary64 arithmetic, but mpmath's exponent range takes coefficients
    # of any size
    d = poly.degree
    ratio = ctx.fdiv(max(abs(c) for c in poly.coeffs[:-1]), abs(poly.leading), prec=53)
    bound = ctx.fadd(1, ratio, prec=53)
    zs = []
    for k in range(d):
        theta = 2 * math.pi * (k + 0.3141) / d
        zs.append(ctx.mpc(ctx.fmul(bound, math.cos(theta), prec=53),
                          ctx.fmul(bound, math.sin(theta), prec=53)))
    return zs


def _enclose_factor(poly, tol, schedule, budget):
    """Certified enclosure of the root contribution of one squarefree factor."""
    import mpmath

    iters_left = budget
    seeds = None
    if schedule == "aberth":
        try:
            coeffs = [complex(c) for c in poly.coeffs]
            dcoeffs = [complex(i * c) for i, c in enumerate(poly.coeffs)][1:]
        except OverflowError:
            coeffs = None  # beyond binary64: skip the double stage
        if coeffs is not None:
            zs, used = _aberth_sweep(
                coeffs, dcoeffs, _initial_roots(poly), min(60, iters_left), 1e-15
            )
            iters_left -= used
            try:
                cert = _certify(poly, zs, tol)
            except ValueError:
                cert = None  # inf/nan in the double sweep: escalate
            if cert is not None and cert.ok:
                return cert
            if all(_is_finite_complex(z) for z in zs):
                seeds = zs
    elif schedule != "durand_kerner":
        raise ValueError(f"unknown schedule {schedule!r}")
    dps = 40
    while iters_left > 0 and dps <= 1300:
        with mpmath.workdps(dps):
            coeffs = [mpmath.mpc(c) for c in poly.coeffs]
            if seeds is None:
                zs = _circle_starts(poly, mpmath.mp)
            else:
                zs = [mpmath.mpc(z) for z in seeds]
            stop = 10.0 ** (5 - dps)
            if schedule == "aberth":
                dcoeffs = [i * c for i, c in enumerate(coeffs)][1:]
                zs, used = _aberth_sweep(coeffs, dcoeffs, zs, min(80, iters_left), stop)
            else:
                zs, used = _weierstrass_sweep(coeffs, zs, min(80, iters_left), stop)
            iters_left -= used
        cert = _certify(poly, zs, tol)
        if cert.ok:
            return cert
        seeds = zs
        dps *= 2
    raise IndeterminateMeasureError(
        "root moduli could not be certified within the refinement budget "
        f"(degree {poly.degree}, tolerance {tol})"
    )


# ---------------------------------------------------------------------------
# the measure itself

def mahler_measure(f, tol=None, schedule="aberth", config=None, use_exact_paths=True):
    """Certified Mahler measure of a nonzero integer polynomial.

    Exact whenever the polynomial splits into content, t-powers, rational
    roots and cyclotomic factors; otherwise the surviving factors go to
    the numeric schedule and the result carries a rigorous error bound
    at most ``tol``.  ``use_exact_paths=False`` disables the rational and
    cyclotomic shortcuts so the numeric pipeline can be cross-validated
    against :func:`kronecker_test` without circularity.

    >>> mahler_measure(IntPolynomial([-2, 1])).log_of   # t - 2
    Fraction(2, 1)
    >>> mahler_measure(IntPolynomial([1, 1, 1])).kronecker
    True
    """
    cfg = config or default_config()
    if tol is None:
        tol = cfg.tolerance
    if f.is_zero():
        raise DomainError("the zero polynomial has no Mahler measure")
    exact_q = Fraction(abs(f.content()))
    work = f.primitive()
    _, work = work.strip_t_power()
    outside = 0
    if use_exact_paths and work.degree > 0:
        roots, work = rational_roots(work)
        for r, mult in roots:
            exact_q *= Fraction(max(abs(r.numerator), abs(r.denominator))) ** mult
            if abs(r) > 1:
                outside += mult
    numeric = []
    if work.degree > 0:
        for factor, mult in squarefree_decomposition(work):
            if use_exact_paths:
                factor, _ = _peel_cyclotomics(factor)
            if factor.degree > 0:
                numeric.append((factor, mult))
    if not numeric:
        value = (
            0.0 if exact_q == 1
            else math.log(exact_q.numerator) - math.log(exact_q.denominator)
        )
        return MahlerResult(
            value=value,
            error_bound=Fraction(0),
            exact=True,
            log_of=exact_q,
            roots_outside=outside,
            kronecker=(exact_q == 1),
            schedule="exact",
        )
    total_lo = total_hi = 0.0
    budget = cfg.refine_iterations
    for factor, mult in numeric:
        # the factor's own leading coefficient is part of its measure
        s = abs(factor.leading)
        if s > 1:
            l_lo, l_hi = _log_bounds(s)
            total_lo += mult * l_lo
            total_hi += mult * l_hi
        cert = _enclose_factor(factor, tol / (2 * len(numeric) * mult), schedule, budget)
        total_lo += mult * cert.contrib_lo
        total_hi += mult * cert.contrib_hi
        outside += mult * cert.roots_outside
    if exact_q != 1:
        q_lo, q_hi = _log_bounds(exact_q.numerator, exact_q.denominator)
        total_lo += q_lo
        total_hi += q_hi
    value = (total_lo + total_hi) / 2
    err = Fraction((total_hi - total_lo)) / 2
    if err > tol:
        raise IndeterminateMeasureError(
            f"certified interval width {float(2 * err)} exceeds tolerance {tol}"
        )
    return MahlerResult(
        value=value,
        error_bound=err,
        exact=False,
        log_of=None,
        roots_outside=outside,
        kronecker=False,
        schedule=schedule,
    )


def small_measure_scan(degree_max=10, height_max=1, threshold=0.2, config=None):
    """All monic integer polynomials with small positive Mahler measure.

    Enumerates monic polynomials of degree <= degree_max, lower
    coefficients in [-height_max, height_max] and nonzero constant term
    (a zero constant term only repeats a lower-degree polynomial), and
    returns [(poly, MahlerResult)] with 0 < m(f) < threshold sorted by
    measure.  Numeric prefilters only ever *skip* candidates that are
    certifiably outside (0, threshold); every returned measure is
    certified.
    """
    import numpy as np

    cfg = config or default_config()
    total = sum((2 * height_max + 1) ** d for d in range(1, degree_max + 1))
    if total > cfg.element_cap:
        raise BudgetExceededError(
            f"scan of {total} polynomials exceeds the element cap {cfg.element_cap}"
        )
    found = []
    margin = 0.05
    for d in range(1, degree_max + 1):
        for low in _coeff_tuples(d, height_max):
            if low[0] == 0:
                continue
            if abs(low[0]) > 1 and math.log(abs(low[0])) >= threshold:
                # |a_0| = |s| * prod |roots| <= exp(m)
                continue
            poly = IntPolynomial(list(low) + [1])
            rts = np.roots(list(reversed(poly.coeffs)))
            est = float(sum(math.log(abs(z)) for z in rts if abs(z) > 1))
            if est > threshold + margin:
                continue
            if est < 1e-7 and kronecker_test(poly):
                continue
            res = mahler_measure(poly, config=cfg)
            if res.kronecker:
                continue
            if res.value - float(res.error_bound) <= 0:
                continue
            if res.value + float(res.error_bound) < threshold:
                found.append((poly, res))
    found.sort(key=lambda pr: (pr[1].value, pr[0].coeffs))
    return found


def _coeff_tuples(d, h):
    """All length-d coefficient tuples with entries in [-h, h]."""
    import itertools

    return itertools.product(range(-h, h + 1), repeat=d)
