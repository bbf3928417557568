"""Exact univariate polynomial arithmetic over Z and Q.

Coefficients are stored ascending (index = power of t).  The integer
type :class:`IntPolynomial` is immutable, and every division stays in
Z[t]: exact division is integer long division, and gcds run the
primitive pseudo-remainder sequence, so primitive integer polynomials
are the canonical form used everywhere else in the library.

:func:`squarefree_decomposition` first tests gcd(f, f') modulo the prime
p = 2^61 - 1.  When p does not divide lc(f), a repeated factor h^2 of f
over Z stays a repeated factor of nonzero degree mod p, so a unit gcd
mod p proves f square-free and it is returned whole; only the other
inputs run Yun's algorithm over Z.

:func:`rational_roots` takes one square-free factor at a time and
enumerates no divisors: it lifts the roots modulo a small prime
p-adically (Loos, SIAM J. Comput. 12, 1983) until the lift determines a
root's numerator over the leading coefficient, and confirms each
candidate exactly, so its cost is polynomial in the bit size of the
coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .base import _is_prime

__all__ = [
    "IntPolynomial",
    "gcd_primitive",
    "exact_div",
    "squarefree_decomposition",
    "rational_roots",
    "x_power_minus_one",
]


@dataclass(frozen=True, slots=True, init=False)
class IntPolynomial:
    """Integer polynomial with ascending coefficients.

    >>> f = IntPolynomial([-1, 0, 1])   # t^2 - 1
    >>> f.degree, f.leading
    (2, 1)
    >>> (f * f).coeffs
    (1, 0, -2, 0, 1)
    """

    coeffs: tuple

    def __init__(self, coeffs):
        cs = [int(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @property
    def degree(self):
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def leading(self):
        return self.coeffs[-1] if self.coeffs else 0

    @property
    def constant(self):
        return self.coeffs[0] if self.coeffs else 0

    def is_zero(self):
        return not self.coeffs

    def is_one(self):
        return self.coeffs == (1,)

    def content(self):
        return math.gcd(*self.coeffs) if self.coeffs else 0

    def primitive(self):
        """Divide out the content and normalize the leading sign."""
        if self.is_zero():
            return self
        c = self.content()
        if self.leading < 0:
            c = -c
        return IntPolynomial([a // c for a in self.coeffs])

    def is_primitive(self):
        return not self.is_zero() and self.content() == 1 and self.leading > 0

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return IntPolynomial([x + (b[i] if i < len(b) else 0) for i, x in enumerate(a)])

    def __neg__(self):
        return IntPolynomial([-a for a in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPolynomial([other * a for a in self.coeffs])
        if self.is_zero() or other.is_zero():
            return IntPolynomial([])
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPolynomial(out)

    __rmul__ = __mul__

    def shift_up(self, k):
        """Multiply by t^k."""
        return IntPolynomial((0,) * k + self.coeffs)

    def strip_t_power(self):
        """Return (a, g) with self = t^a * g and g(0) != 0 (zero poly -> (0, 0))."""
        if self.is_zero():
            return 0, self
        a = 0
        while self.coeffs[a] == 0:
            a += 1
        return a, IntPolynomial(self.coeffs[a:])

    def scale_arg(self, c):
        """f(c*t) as an integer polynomial (c an integer)."""
        return IntPolynomial([a * c**i for i, a in enumerate(self.coeffs)])

    def reverse(self):
        """t^deg * f(1/t): the coefficient-reversed polynomial."""
        return IntPolynomial(tuple(reversed(self.coeffs)))

    def derivative(self):
        return IntPolynomial([i * a for i, a in enumerate(self.coeffs)][1:])

    def eval_fraction(self, q):
        acc = Fraction(0)
        for a in reversed(self.coeffs):
            acc = acc * q + a
        return acc

    def eval_complex(self, z):
        acc = 0j
        for a in reversed(self.coeffs):
            acc = acc * z + a
        return acc

    def __repr__(self):
        return f"IntPolynomial{self.coeffs}"

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            a = self.coeffs[i]
            if not a:
                continue
            if i == 0:
                term = str(abs(a))
            else:
                t = "t" if i == 1 else f"t^{i}"
                term = t if abs(a) == 1 else f"{abs(a)}*{t}"
            if not parts:
                parts.append(term if a > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if a > 0 else f"- {term}")
        return " ".join(parts)


def x_power_minus_one(n):
    """t^n - 1."""
    return IntPolynomial([-1] + [0] * (n - 1) + [1])


def _divmod_int(f, g):
    """Long division f = g*q + r over Z: ascending lists (q, r), deg r < deg g.

    Returns None at the first quotient coefficient that is not an
    integer, so a failed exact division stops early.
    """
    gc = g.coeffs
    if not gc:
        raise ZeroDivisionError("polynomial division by zero")
    dg, lc = len(gc) - 1, gc[-1]
    r = list(f.coeffs)
    q = [0] * max(0, len(r) - dg)
    for k in range(len(q) - 1, -1, -1):
        c, m = divmod(r[k + dg], lc)
        if m:
            return None
        if c:
            q[k] = c
            for i in range(dg):
                r[k + i] -= c * gc[i]
    return q, r[:dg]


def _prem(f, g):
    """Primitive part of the pseudo-remainder of f by nonzero g.

    Each step scales by lc(g)/gcd and cancels the leading term, so the
    result is a rational multiple of f mod g (Brown & Traub's primitive
    PRS); taking the primitive part fixes that multiple.
    """
    gc = g.coeffs
    dg, lc = len(gc) - 1, gc[-1]
    r = list(f.coeffs)
    while len(r) > dg:
        lead = r[-1]
        if lead:
            h = math.gcd(lc, lead)
            a, b = lc // h, lead // h
            off = len(r) - 1 - dg
            r = [a * x for x in r]
            for i in range(dg):
                r[off + i] -= b * gc[i]
        r.pop()
    return IntPolynomial(r).primitive()


def exact_div(f, g):
    """The integer polynomial q with f = g*q.

    Raises ValueError when g does not divide f or the quotient is not
    integral.
    """
    qr = _divmod_int(f, g)
    if qr is None or any(qr[1]):
        raise ValueError("exact_div: no integer quotient")
    return IntPolynomial(qr[0])


def divides(g, f):
    """True when g | f over Q."""
    if g.is_zero():
        return f.is_zero()
    # Gauss's lemma: over Q, g | f iff its primitive part divides f over Z
    qr = _divmod_int(f, g.primitive())
    return qr is not None and not any(qr[1])


def gcd_primitive(f, g):
    """Primitive gcd over Z (primitive pseudo-remainder sequence)."""
    a, b = f.primitive(), g.primitive()
    while not b.is_zero():
        a, b = b, _prem(a, b)
    return a


# a prime near 2^61 makes an accidental common root mod p unlikely
_SQF_PRIME = (1 << 61) - 1


def _coprime_mod(a, b, p):
    """True when gcd(a, b) is a unit mod the prime p.

    a and b are ascending coefficient lists reduced mod p with nonzero
    leading entries (Euclid's algorithm over GF(p)).
    """
    while b:
        db, inv = len(b) - 1, pow(b[-1], -1, p)
        r = list(a)
        while len(r) > db:
            c = r.pop() * inv % p
            if c:
                off = len(r) - db
                for i in range(db):
                    r[off + i] = (r[off + i] - c * b[i]) % p
            while r and not r[-1]:
                r.pop()
        a, b = b, r
    return len(a) == 1


def squarefree_decomposition(f):
    """Yun's algorithm: primitive f > 0 as prod_i h_i^i with h_i primitive.

    Returns a list of (h_i, i) pairs, squarefree h_i, skipping trivial
    factors.  Requires a primitive input with positive leading term.
    A square-free f with gcd(f, f') = 1 mod 2^61 - 1 skips Yun's loop.
    """
    if not f.is_primitive():
        raise ValueError("squarefree_decomposition expects a primitive polynomial")
    if f.degree == 0:
        return []
    p = _SQF_PRIME
    if f.leading % p:
        # p does not divide lc(f), so f' mod p keeps degree deg f - 1
        low = [c % p for c in f.coeffs]
        if _coprime_mod(low, [i * c % p for i, c in enumerate(low)][1:], p):
            return [(f, 1)]
    out = []
    g = gcd_primitive(f, f.derivative())
    w = exact_div(f, g)
    i = 1
    while w.degree > 0:
        y = gcd_primitive(w, g)
        factor = exact_div(w, y)
        if factor.degree > 0:
            out.append((factor.primitive(), i))
        w = y
        g = exact_div(g, y)
        i += 1
    return out


def rational_roots(h):
    """Rational roots of a square-free h with h(0) != 0, and the cofactor.

    Returns (roots, q): the roots as Fractions in increasing order and
    q = h / prod(s*t - r) over the roots r/s.  Split f with
    :func:`squarefree_decomposition` first; a root of its factor h_i has
    multiplicity i in f.  A repeated rational root raises ValueError.

    Loos's p-adic method (SIAM J. Comput. 12, 1983): take the least
    prime p that does not divide lc = lc(h) and at which every root of h
    mod p, found by evaluation, is simple, and Newton-lift each root to a
    modulus above 2(|lc| + max|a_i|).  A rational root r/s of h has
    s | lc, so p does not divide s and r/s reduces to a simple root mod
    p; its lift is unique, and lc*r/s is an integer of modulus at most
    |lc| + max|a_i| (Cauchy's bound), so the symmetric residue of lc
    times the lift is lc*r/s itself.  Each candidate is confirmed
    exactly.  A prime p not dividing lc is rejected only when it divides
    disc(h), so once the rejected primes multiply past Mahler's bound on
    |disc(h)|, disc(h) = 0 and h has a repeated factor: the search ends
    either way.

    >>> rational_roots(IntPolynomial([3, 5, -2]))   # -(2t + 1)(t - 3)
    ([Fraction(-1, 2), Fraction(3, 1)], IntPolynomial(-1,))
    """
    if h.is_zero() or h.constant == 0:
        raise ValueError("rational_roots expects a nonzero constant term")
    cs = h.coeffs
    lc = cs[-1]
    dcs = h.derivative().coeffs
    d = h.degree
    p, rejected = 2, 1
    while True:
        if lc % p:
            zeros = [x for x in range(p) if not _horner_mod(cs, x, p)]
            if all(_horner_mod(dcs, x, p) for x in zeros):
                break
            # rejected | disc(h), and |disc(h)| <= d^d ||h||_2^(2d - 2) (Mahler)
            rejected *= p
            if rejected > d**d * sum(c * c for c in cs) ** (d - 1):
                raise ValueError("rational_roots expects a square-free polynomial")
        p += 1
        while not _is_prime(p):
            p += 1
    bound = 2 * (abs(lc) + max(abs(c) for c in cs))
    roots = []
    for x in zeros:
        m = p
        while m <= bound:
            # Newton's step doubles the p-adic precision of a simple root
            inv = pow(_horner_mod(dcs, x, m), -1, m)
            m *= m
            x = (x - _horner_mod(cs, x, m) * inv) % m
        v = lc * x % m
        if 2 * v > m:
            v -= m
        r = Fraction(v, lc)
        if _homogeneous_value(h, r.numerator, r.denominator) == 0:
            roots.append(r)
    roots.sort()
    for r in roots:
        h = exact_div(h, IntPolynomial([-r.numerator, r.denominator]))
    return roots, h


def _horner_mod(coeffs, x, m):
    """sum coeffs[i] x^i mod m."""
    acc = 0
    for a in reversed(coeffs):
        acc = (acc * x + a) % m
    return acc


def _homogeneous_value(f, p, q):
    """q^deg * f(p/q) = sum a_i p^i q^(deg - i), by integer Horner."""
    acc, q_power = 0, 1
    for a in reversed(f.coeffs):
        acc = acc * p + a * q_power
        q_power *= q
    return acc
