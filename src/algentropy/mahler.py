"""Mahler measure of integer polynomials with certified error bounds.

For f = s (t - l_1) ... (t - l_d) the measure is
m(f) = log|s| + sum_{|l_i| > 1} log|l_i|.  The pipeline is exact as far
as it can be: content and t-powers split off, one pass of exact
divisions removes every cyclotomic factor with its multiplicity, and
only the rest goes through Yun's square-free split, whose factors lose
their rational roots, found by p-adic lifting (see
:mod:`algentropy.polynomial`).  Only the root moduli of the
surviving factors are numeric, and even there the error bound is
rigorous: approximations get Weierstrass disks D(z_i, d*|W_i|) whose
radii are bounded in integer arithmetic on the exact dyadic values of
the points and then rounded up to dyadic numbers of 64 significant bits
(a larger disk still holds its root; a connected component of m disks
contains exactly m roots), so the returned interval always contains the
true measure.

Two refinement schedules are available ("aberth", Aberth-Ehrlich
sweeps, and "durand_kerner", raw Weierstrass sweeps) so a caller can
cross-check one against the other.  Each runs its sweep first on
machine complex numbers and escalates into mpmath, imported only then,
at doubling precision; the certification step is shared and exact
either way.  Coefficients too large for a double skip
the machine stage and start in mpmath.  Every stage of both schedules
starts from the same points, spread by the Newton polygon of the
coefficient moduli (Bini, Numer. Algorithms 13, 1996), so roots whose
moduli lie hundreds of orders of magnitude apart each start on their own
circle.  The Aberth sweep updates in Gauss-Seidel order and stops moving
a root once its correction is below the stage's threshold, and each
machine-stage approximation is rounded to 53 bits of its own modulus
before certification, so that a real root's stray tiny imaginary part
does not refine the dyadic grid of the whole certificate.

Cheap exact filters keep the exact stages polynomial in the degree
(Bradford & Davenport, "Effective tests for cyclotomic polynomials",
ISSAC '88): the cyclotomic peel tries only the orders k with
phi(k) <= deg g, and builds and divides by Phi_k only while the integer
Phi_k(2) divides g(2); :func:`kronecker_test` rejects a polynomial that
is neither palindromic nor anti-palindromic before the peel, since
every product of cyclotomic polynomials is one or the other; and the
square-free split returns a square-free factor whole after one gcd
modulo a prime (see :mod:`algentropy.polynomial`).  None of them changes
an answer.

The certificate multiplies its disk components' modulus bounds, rounded
outward to 64 significant bits after each multiply, and takes one padded
log of each product, so its width carries two log paddings (``_LOG_PAD``)
at every degree; a tolerance share at or below that constant floor
raises IndeterminateMeasureError before any refinement.
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
    "kronecker_test",
    "mahler_measure",
    "small_measure_scan",
    "cyclotomic_polynomial",
]

# padding absorbing float rounding when exact rational bounds pass through log()
_LOG_PAD = 1e-12

# root-refinement sweeps one factor may spend across all its precisions
# before its measure is reported indeterminate
_REFINE_ITERATIONS = 200


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


# degree d -> ((k, phi(k), Phi_k(2)), ...) over the k with phi(k) <= d
_ORDERS = {}


def _phi_at_two(k, primes):
    """Phi_k(2) = prod_{d | k} (2^d - 1)^mu(k/d), over squarefree k/d."""
    num = den = 1
    for mask in range(1 << len(primes)):
        d, sign = k, 1
        for i, q in enumerate(primes):
            if mask >> i & 1:
                d //= q
                sign = -sign
        if sign > 0:
            num *= (1 << d) - 1
        else:
            den *= (1 << d) - 1
    return num // den


def _orders(d):
    """(k, phi(k), Phi_k(2)) for every k with phi(k) <= d, in increasing k.

    phi is multiplicative and phi(p^a) = p^(a-1) (p - 1) >= p - 1, so each
    such k is a product of prime powers p^a with p <= d + 1 whose totients
    multiply to at most d.  The walk extends every product found so far
    by the powers of each prime in turn, so it meets each such k once.
    """
    cached = _ORDERS.get(d)
    if cached is None:
        found = [(1, 1, ())] if d > 0 else []  # (k, phi(k), primes of k)
        sieve = bytearray([1]) * (d + 2)
        for p in range(2, d + 2):
            if not sieve[p]:
                continue
            sieve[p * p::p] = bytes(len(range(p * p, d + 2, p)))
            for k, phi, primes in found[:]:
                q, phi_q = p, phi * (p - 1)
                while phi_q <= d:
                    found.append((k * q, phi_q, primes + (p,)))
                    q *= p
                    phi_q *= p
        found.sort()
        cached = _ORDERS[d] = tuple(
            (k, phi, _phi_at_two(k, primes)) for k, phi, primes in found
        )
    return cached


def _peel_cyclotomics(g):
    """Divide out every cyclotomic factor of g (exactly), with its multiplicity.

    Every irreducible cyclotomic factor Phi_k of g has phi(k) <= deg g,
    so only those orders are tried, in increasing k; the bounds shrink as
    factors come off.  g = Phi_k * q in Z[t] gives g(2) = Phi_k(2) q(2),
    so Phi_k divides g only when the integer Phi_k(2) divides g(2), and
    that is checked before every division, the repeated ones included.
    g need not be square-free.  Returns (reduced g, number of roots
    removed).
    """
    removed = 0
    deg = g.degree
    at_two = _horner(g.coeffs, 2)
    for k, phi_k, phi_at_two in _orders(deg):
        while phi_k <= deg and not at_two % phi_at_two:
            try:
                g = exact_div(g, cyclotomic_polynomial(k))
            except ValueError:
                break
            removed += phi_k
            deg -= phi_k
            at_two //= phi_at_two
        if not deg:
            break
    return g, removed


def kronecker_test(f):
    """Exact test: is every root of f a root of unity (after t-powers)?

    Answers every nonzero integer polynomial, and agrees with
    ``mahler_measure(f).kronecker``: a content c != +-1 adds log|c| > 0
    to the measure, so it gives False.  On the sign-normalized primitive
    part without t-powers, g is a product of cyclotomic polynomials iff
    it is monic with constant term +-1, palindromic or anti-palindromic
    (Phi_1 = t - 1 is anti-palindromic and every other Phi_k is
    palindromic), and the cyclotomic peel leaves a constant.

    >>> kronecker_test(IntPolynomial([1, 1, 1]))   # t^2 + t + 1
    True
    >>> kronecker_test(IntPolynomial([-3, 2]))     # 2t - 3, not monic
    False
    >>> kronecker_test(IntPolynomial([1, -2, 1]))  # (t - 1)^2
    True
    >>> kronecker_test(IntPolynomial([2, 2]))      # content 2
    False
    """
    if f.is_zero():
        raise DomainError("the zero polynomial has no roots")
    if f.content() != 1:
        return False
    _, g = f.primitive().strip_t_power()
    if g.leading != 1 or abs(g.constant) != 1:
        return False
    if g.coeffs[::-1] not in (g.coeffs, (-g).coeffs):
        return False
    return _peel_cyclotomics(g)[0].degree == 0


# ---------------------------------------------------------------------------
# integer arithmetic for the certification step

# fractional bits of the floor/ceil square-root bounds
_SQRT_BITS = 100
# significant bits of the rounded-up Weierstrass radii
_RADIUS_BITS = 64


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


def _round_up_dyadic(num, den, down=False):
    """(m, k) with num/den <= m / 2**k < (num/den) (1 + 2**-63), num >= 0.

    m = ceil(2**k num/den) for the one integer k (of either sign) with
    2**63 <= 2**k num/den < 2**64: num/den rounded up to 64 significant
    bits.  With ``down``, m is the floor of the same quotient, and
    (num/den) (1 - 2**-63) < m / 2**k <= num/den.  num == 0 gives (0, 0).
    """
    if not num:
        return 0, 0
    k = _RADIUS_BITS - 1 - num.bit_length() + den.bit_length()
    # 2**k num/den lies in (2**62, 2**64); one doubling if below 2**63
    top, bottom = (num << k, den) if k >= 0 else (num, den << -k)
    if top < bottom << (_RADIUS_BITS - 1):
        top <<= 1
        k += 1
    return (top // bottom if down else -(-top // bottom)), k


def _log_bounds(num, den=1):
    """Padded float bounds for log(num/den), num and den positive integers.

    The ratio is reduced first, so the bounds depend only on its value.
    The pad is ``_LOG_PAD`` unless the reduced integers together have
    more than 2249 bits, and then (S + 2) 2^-51 for S bits in all.

    Why the pad covers the float error.  Take libm's log to err by at
    most one ulp.  For an integer n of L bits, log n < 0.7 L, and
    math.log(n) is within 2^-52 (1.5 + 0.95 L) of it: below 2^1024 it is
    log of n rounded to a double (2^-53 relative, so 2^-52 in the log)
    plus one ulp of the result, at most 2^-52 * 0.7 L; above, it is
    log(x) + log(2) e for n ~ x 2^e with x in [1/2, 1) and e = L, and the
    rounded x (2^-52), log(x) (2^-53), the stored log 2 (2^-54 e), the
    product and the sum (2^-53 * 0.7 L each) add up to no more.  The
    difference of the two logs and the two padded bounds each round once
    more, by at most 2^-53 * 0.7 S.  So the bounds are off by less than
    2^-52 (3 + 1.65 S) < (S + 2) 2^-51, which is at most 1e-12 for
    S <= 2249.  The integers that reach it are a leading coefficient, the
    exact part of a measure, and a certificate's products of modulus
    bounds, each m / 2^k with m of 64 bits and every factor above 1, so
    S is at most the larger of 128 and 2 + log2 of the product: it passes
    2249 only for values beyond about 2^2240, and there the pad widens.
    """
    g = math.gcd(num, den)
    num //= g
    den //= g
    x = math.log(num) - math.log(den)
    pad = max(_LOG_PAD, math.ldexp(num.bit_length() + den.bit_length() + 2, -51))
    return x - pad, x + pad


@dataclass(slots=True)
class _CertifiedRoots:
    """Outcome of the exact Weierstrass certification of one factor."""

    contrib_lo: float
    contrib_hi: float
    roots_outside: int
    ok: bool


def _certify(poly, zs, tol):
    """Exact enclosure of sum(max(0, log|root|)) for ``poly``.

    zs: candidate roots as Python complex or mpmath mpc numbers, one per
    true root (poly must be squarefree); a non-finite one raises
    ValueError.  Each approximation is read as its exact dyadic value and
    all are scaled by one common 2^e to Gaussian integers z_i = Z_i / 2^e.
    The Weierstrass radius d*|f(z_i)| / (s * prod_{j != i} |z_i - z_j|)
    is bounded above with f(z_i) by homogeneous integer Horner,
    |f(z_i)| <= U_i / 2^100 and |z_i - z_j| >= L_ij / 2^k_ij from isqrt,
    with k_ij = 100, or a grid of 100 significant bits for roots closer
    than 2^-100, so it is at most the rational
    d * U_i * 2^(sum_j k_ij - 100) / (s * prod L_ij).  That rational is
    rounded up to m_i / 2^k_i with 64 significant bits (2^63 <= m_i <=
    2^64, k_i of either sign): a disk larger than needed still holds its
    root, and the overlap test and the modulus bounds then work on
    integers of about 64 bits plus the exponent gaps, not on the
    rational's thousands of bits.  Disks overlap by integer comparison
    on a common power of two (Neumaier, "Enclosing clusters of zeros of
    polynomials", J. Comput. Appl. Math. 156, 2003: a connected
    component of m disks holds exactly m roots).  The components' bounds
    max(1, hi)^n are multiplied, rounded up to 64 significant bits after
    each multiply, and max(1, lo)^n likewise rounded down; each product
    takes one padded log.  Returns a _CertifiedRoots with ok=False when
    the interval is wider than tol.
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
    finer = [0] * d  # extra exponent bits of the pairs on the finer grid
    for i in range(d):
        x, y = pts[i]
        for j in range(i):
            dx = x - pts[j][0]
            dy = y - pts[j][1]
            q = dx * dx + dy * dy
            dist2[i, j] = q
            lb = _sqrt_floor(q, 2 * e)
            if lb == 0:
                # closer than 2^-100: |z_i - z_j| >= lb / 2^(e + bits) on
                # a grid of 100 significant bits
                bits = max(0, _SQRT_BITS - q.bit_length() // 2)
                lb = math.isqrt(q << 2 * bits)
                finer[i] += e + bits - _SQRT_BITS
                finer[j] += e + bits - _SQRT_BITS
            lower[i, j] = lower[j, i] = lb
    # radius i = num / den <= rad_m[i] / 2^rad_k[i], rounded up
    rad_m = []
    rad_k = []
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
        shift = _SQRT_BITS * (d - 2) + finer[i]
        if shift >= 0:
            num <<= shift
        else:
            den <<= -shift
        m, k = _round_up_dyadic(num, den)
        rad_m.append(m)
        rad_k.append(k)
    # connected components of the disk-overlap graph:
    # |z_i - z_j|^2 <= (r_i + r_j)^2 on the common exponent 2^-kk
    parent = list(range(d))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i in range(d):
        for j in range(i):
            kk = max(rad_k[i], rad_k[j])
            reach = (rad_m[i] << (kk - rad_k[i])) + (rad_m[j] << (kk - rad_k[j]))
            shift = 2 * (kk - e)
            if shift >= 0:
                close = dist2[i, j] << shift <= reach * reach
            else:
                close = dist2[i, j] <= (reach * reach) << -shift
            if close:
                parent[find(i)] = find(j)
    comps = {}
    for i in range(d):
        comps.setdefault(find(i), []).append(i)
    prod_hi = prod_lo = (1, 1)
    outside = 0
    for members in comps.values():
        # lo = min(|z_i| - r_i), hi = max(|z_i| + r_i), each a ratio
        # (num, 2^kk) with kk = max(100, rad_k[i])
        lo = hi = None
        for i in members:
            x, y = pts[i]
            m2 = x * x + y * y
            m_lo = _sqrt_floor(m2, 2 * e)
            m_hi = m_lo + 1 if m2 else 0
            kk = max(_SQRT_BITS, rad_k[i])
            rn = rad_m[i] << (kk - rad_k[i])
            den = 1 << kk
            cand_lo = ((m_lo << (kk - _SQRT_BITS)) - rn, den)
            cand_hi = ((m_hi << (kk - _SQRT_BITS)) + rn, den)
            if lo is None or cand_lo[0] * lo[1] < lo[0] * cand_lo[1]:
                lo = cand_lo
            if hi is None or cand_hi[0] * hi[1] > hi[0] * cand_hi[1]:
                hi = cand_hi
        n = len(members)
        if hi[0] > hi[1]:
            prod_hi = _times_rounded(prod_hi, hi, n, down=False)
        if lo[0] > lo[1]:
            prod_lo = _times_rounded(prod_lo, lo, n, down=True)
            outside += n
    total_hi = _log_bounds(*prod_hi)[1] if prod_hi != (1, 1) else 0.0
    total_lo = max(0.0, _log_bounds(*prod_lo)[0])
    ok = total_hi - total_lo <= tol
    return _CertifiedRoots(total_lo, total_hi, outside, ok)


def _times_rounded(prod, bound, n, down):
    """prod * bound**n, ratios (num, den) of positive integers, rounded to 64 bits."""
    m, k = _round_up_dyadic(prod[0] * bound[0] ** n, prod[1] * bound[1] ** n, down)
    return (m, 1 << k) if k >= 0 else (m << -k, 1)


# ---------------------------------------------------------------------------
# refinement schedules

def _horner(coeffs, z):
    acc = z * 0
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def _aberth_sweep(coeffs, zs, iters, stop_eps):
    """Aberth-Ehrlich iteration in Gauss-Seidel order; works for complex
    and mpmath mpc.

    Each correction uses the roots already moved in the same sweep, and a
    root whose correction falls below stop_eps stays where it is.
    """
    zs = list(zs)
    lead, rest = coeffs[-1], coeffs[-2::-1]
    moving = range(len(zs))
    used = 0
    while moving and used < iters:
        used += 1
        still = []
        for i in moving:
            z = zs[i]
            # f(z) and f'(z) in one Horner pass
            fz, fpz = lead, z * 0
            for c in rest:
                fpz = fpz * z + fz
                fz = fz * z + c
            if fpz == 0:
                fpz = fpz + stop_eps
            w = fz / fpz
            denom = 1 - w * sum([1 / (z - zj) for zj in zs if zj != z])
            if denom == 0:
                denom = denom + stop_eps
            corr = w / denom
            zs[i] = z - corr
            if not abs(corr) < stop_eps:
                still.append(i)
        moving = still
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


# angle offset of the starting points, so that no start sits on the real axis
_START_ANGLE = 0.7


def _starts(poly, ctx=None):
    """Starting points from the Newton polygon of the coefficient moduli.

    Bini, "Numerical computation of polynomial zeros by means of Aberth's
    method", Numer. Algorithms 13 (1996): each edge i -> j of the upper
    convex hull of the points (i, log|a_i|) puts j - i points evenly on the
    circle of radius (|a_i| / |a_j|)^(1/(j-i)), the modulus the edge
    predicts for j - i of the roots.  Points are rounded to 53 bits:
    Python complex numbers when ctx is None (OverflowError past the
    binary64 range), otherwise ctx.mpc values, whose exponent range takes
    coefficients of any size.  poly must have a nonzero constant term.
    """
    d = poly.degree
    hull = []
    for i, c in enumerate(poly.coeffs):
        if not c:
            continue
        p = (i, math.log2(abs(c)))
        while len(hull) > 1:
            (ax, ay), (bx, by) = hull[-2], hull[-1]
            if (bx - ax) * (p[1] - ay) < (by - ay) * (p[0] - ax):
                break
            hull.pop()
        hull.append(p)
    zs = []
    for (i, log_i), (j, log_j) in zip(hull, hull[1:]):
        n = j - i
        log_r = (log_i - log_j) / n
        e = math.floor(log_r)
        r = 2.0 ** (log_r - e)
        for k in range(n):
            theta = 2 * math.pi * (k / n + i / d) + _START_ANGLE
            x, y = r * math.cos(theta), r * math.sin(theta)
            if ctx is None:
                zs.append(complex(math.ldexp(x, e), math.ldexp(y, e)))
            else:
                zs.append(ctx.mpc(ctx.ldexp(x, e), ctx.ldexp(y, e)))
    return zs


def _round_to_modulus(z):
    """z with both parts rounded to 53 bits of its larger part.

    A real root approximated with a stray tiny imaginary part would
    otherwise set the fine dyadic grid of the whole certificate.
    """
    big = max(abs(z.real), abs(z.imag))
    if not big or not math.isfinite(big):
        return z
    q = math.frexp(big)[1] - 53
    return complex(math.ldexp(round(math.ldexp(z.real, -q)), q),
                   math.ldexp(round(math.ldexp(z.imag, -q)), q))


# each schedule's sweep, run first on machine complex numbers, then in mpmath
_SWEEPS = {"aberth": _aberth_sweep, "durand_kerner": _weierstrass_sweep}


def _enclose_factor(poly, tol, schedule):
    """Certified enclosure of the root contribution of one squarefree factor."""
    sweep = _SWEEPS.get(schedule)
    if sweep is None:
        raise ValueError(f"unknown schedule {schedule!r}")
    if tol <= 2 * _LOG_PAD:
        # a certificate with a root outside the unit circle is wider
        raise IndeterminateMeasureError(
            f"tolerance {tol} is at or below the two log paddings of a "
            f"certificate (degree {poly.degree})"
        )
    iters_left = _REFINE_ITERATIONS
    seeds = None
    try:
        coeffs = [complex(c) for c in poly.coeffs]
        starts = _starts(poly)
    except OverflowError:
        coeffs = None  # beyond binary64: skip the double stage
    if coeffs is not None:
        zs, used = sweep(coeffs, starts, min(60, iters_left), 1e-15)
        zs = [_round_to_modulus(z) for z in zs]
        iters_left -= used
        try:
            cert = _certify(poly, zs, tol)
        except ValueError:
            cert = None  # inf/nan in the double sweep: escalate
        if cert is not None and cert.ok:
            return cert
        if all(_is_finite_complex(z) for z in zs):
            seeds = zs
    import mpmath  # here, not at the top: most factors never get this far

    dps = 40
    while iters_left > 0 and dps <= 1300:
        with mpmath.workdps(dps):
            coeffs = [mpmath.mpc(c) for c in poly.coeffs]
            if seeds is None:
                zs = _starts(poly, mpmath.mp)
            else:
                zs = [mpmath.mpc(z) for z in seeds]
            zs, used = sweep(coeffs, zs, min(80, iters_left), 10.0 ** (5 - dps))
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

def mahler_measure(f, schedule="aberth", config=None, use_exact_paths=True):
    """Certified Mahler measure of a nonzero integer polynomial.

    Exact whenever the polynomial splits into content, t-powers, rational
    roots and cyclotomic factors; otherwise the surviving factors go to
    the numeric schedule and the result carries a rigorous error bound
    at most the session's ``tolerance`` (``config``, or the defaults and
    the environment).  ``use_exact_paths=False`` disables the rational and
    cyclotomic shortcuts so the numeric pipeline can be cross-validated
    against :func:`kronecker_test` without circularity.

    >>> mahler_measure(IntPolynomial([-2, 1])).log_of   # t - 2
    Fraction(2, 1)
    >>> mahler_measure(IntPolynomial([1, 1, 1])).kronecker
    True
    """
    tol = (config or default_config()).tolerance
    if f.is_zero():
        raise DomainError("the zero polynomial has no Mahler measure")
    exact_q = abs(f.content())
    _, work = f.primitive().strip_t_power()
    if use_exact_paths:
        # peel first: the split and the root search then never see +-1
        work, _ = _peel_cyclotomics(work)
    outside = 0
    numeric = []
    split = squarefree_decomposition(work) if work.degree > 0 else []
    for factor, mult in split:
        if use_exact_paths:
            roots, factor = rational_roots(factor)
            for r in roots:
                exact_q *= max(abs(r.numerator), r.denominator) ** mult
                if abs(r) > 1:
                    outside += mult
        if factor.degree > 0:
            # g and (-1)^deg g(-t) have the same root moduli: one value
            numeric.append((IntPolynomial(_orbit_key(factor.coeffs)), mult))
    if not numeric:
        return MahlerResult(
            value=0.0 if exact_q == 1 else math.log(exact_q),
            error_bound=Fraction(0),
            exact=True,
            log_of=Fraction(exact_q),
            roots_outside=outside,
            kronecker=(exact_q == 1),
            schedule="exact",
        )
    # each factor's own leading coefficient is part of its measure
    leads = [_log_bounds(abs(g.leading)) if abs(g.leading) > 1 else (0.0, 0.0)
             for g, _ in numeric]
    q_lo, q_hi = _log_bounds(exact_q) if exact_q != 1 else (0.0, 0.0)
    # the result promises a half-width <= tol: after the exact pads, the
    # factors share 2 tol equally, each over its mult certificates
    budget = 2 * tol - (q_hi - q_lo) - sum(
        mult * (hi - lo) for (lo, hi), (_, mult) in zip(leads, numeric))
    total_lo = total_hi = 0.0
    for (factor, mult), (l_lo, l_hi) in zip(numeric, leads):
        total_lo += mult * l_lo
        total_hi += mult * l_hi
        cert = _enclose_factor(factor, budget / (len(numeric) * mult), schedule)
        total_lo += mult * cert.contrib_lo
        total_hi += mult * cert.contrib_hi
        outside += mult * cert.roots_outside
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


# Graeffe root-squarings tried before a scan candidate goes to mahler_measure
_SCAN_SQUARINGS = 6


def _graeffe_square(coeffs):
    """Coefficients of e(y)^2 - y o(y)^2 for g(t) = e(t^2) + t o(t^2).

    Its roots are the squares of the roots of g, and its leading
    coefficient is +-lc(g)^2, so its measure is M(g)^2.
    """
    out = [0] * len(coeffs)
    for parity in (0, 1):
        part = coeffs[parity::2]
        sign = -1 if parity else 1
        for i, a in enumerate(part):
            out[2 * i + parity] += sign * a * a
            a2 = 2 * sign * a
            for j in range(i + 1, len(part)):
                out[i + j + parity] += a2 * part[j]
    return out


def _graeffe_lower_bounds(coeffs, squarings):
    """Lower bounds on log M(f), one per root-squaring k = 0..squarings.

    The k-th Graeffe square g of f has M(g) = M(f)^(2^k), and Mahler's
    inequality |c_j| <= C(d, j) M(g) on its coefficients ("On some
    inequalities for polynomials in several variables", J. London Math.
    Soc. 37, 1962) gives log M(f) >= (log|c_j| - log C(d, j)) / 2^k.  The
    logs are taken of the integers themselves and each bound is lowered
    by ``_LOG_PAD``.
    """
    d = len(coeffs) - 1
    log_binom = [math.log(math.comb(d, j)) for j in range(d + 1)]
    g = coeffs
    for k in range(squarings + 1):
        if k:
            g = _graeffe_square(g)
        best = max(math.log(abs(c)) - b for c, b in zip(g, log_binom) if c)
        yield math.ldexp(best, -k) - _LOG_PAD


def small_measure_scan(degree_max=10, height_max=1, threshold=0.2, config=None):
    """All monic integer polynomials with small positive Mahler measure.

    Enumerates monic polynomials of degree <= degree_max, lower
    coefficients in [-height_max, height_max] and nonzero constant term
    (a zero constant term only repeats a lower-degree polynomial), and
    returns [(poly, MahlerResult)] with 0 < m(f) < threshold sorted by
    measure.  A candidate is skipped only when it is certifiably outside
    (0, threshold): when a lower bound on m(f), read off one of its first
    ``_SCAN_SQUARINGS`` Graeffe root-squarings by Mahler's coefficient
    inequality from the logs of the integer coefficients (padded),
    reaches the threshold.  Every other candidate
    goes to :func:`mahler_measure`, so every returned measure is certified
    and measure zero is decided exactly.

    f and (-1)^d f(-t) have the same root moduli, and
    :func:`mahler_measure` gives them one value; each such pair is
    measured once and shares that result, which is only a cache.  (The
    reversal keeps M but sends each root l to 1/l, which changes
    ``roots_outside``, so it is measured on its own.)
    """
    cfg = config or default_config()
    if height_max < 0:
        raise DomainError("height_max must be >= 0")
    if not height_max:
        return []  # t^d alone, and its constant term is 0
    total = 0
    for d in range(1, degree_max + 1):
        total += (2 * height_max + 1) ** d
        if total > cfg.element_cap:
            raise BudgetExceededError(
                f"scan of at least {total} polynomials exceeds the element cap {cfg.element_cap}"
            )
    found = []
    measured = {}  # orbit key -> the one measure f and f(-t) share
    for d in range(1, degree_max + 1):
        for low in _coeff_tuples(d, height_max):
            if low[0] == 0:
                continue
            coeffs = list(low) + [1]
            if any(b >= threshold for b in _graeffe_lower_bounds(coeffs, _SCAN_SQUARINGS)):
                continue
            key = _orbit_key(coeffs)
            res = measured.get(key)
            if res is None:
                res = measured[key] = mahler_measure(IntPolynomial(key), config=cfg)
            poly = IntPolynomial(coeffs)
            if res.kronecker:
                continue
            if res.value - float(res.error_bound) <= 0:
                continue
            if res.value + float(res.error_bound) < threshold:
                found.append((poly, res))
    found.sort(key=lambda pr: (pr[1].value, pr[0].coeffs))
    return found


def _orbit_key(coeffs):
    """The lesser of the coefficient tuples of f and (-1)^d f(-t)."""
    d = len(coeffs) - 1
    return min(tuple(coeffs), tuple(-a if (d - i) & 1 else a for i, a in enumerate(coeffs)))


def _coeff_tuples(d, h):
    """All length-d coefficient tuples with entries in [-h, h]."""
    import itertools

    return itertools.product(range(-h, h + 1), repeat=d)
