"""Shared value types (the infinite index/cardinal marker) and helpers.

Index and cardinal computations throughout the library return either an
exact nonnegative ``int`` or the singleton :data:`INFINITE`.  Keeping a
dedicated marker (instead of ``math.inf`` or ``None``) preserves exactness:
nothing in the library ever rounds an index through a float.
"""

from .errors import BudgetExceededError

__all__ = ["Infinity", "INFINITE", "is_finite"]


class Infinity:
    """Singleton marker for an infinite index, order or cardinal.

    Compares strictly greater than every integer and equal only to itself.

    >>> INFINITE > 10**100
    True
    >>> INFINITE == INFINITE
    True
    >>> min(5, INFINITE)
    5
    """

    __slots__ = ()
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "Infinite"

    def __eq__(self, other):
        return other is self

    def __hash__(self):
        return hash("Infinite")

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return other is self

    def __gt__(self, other):
        return other is not self

    def __ge__(self, other):
        return True

    def __add__(self, other):
        return self

    __radd__ = __add__

    def __mul__(self, other):
        if other == 0:
            raise ArithmeticError("0 * Infinite is undefined")
        return self

    __rmul__ = __mul__


INFINITE = Infinity()


def is_finite(x):
    """True when ``x`` is an ordinary (finite) value."""
    return not isinstance(x, Infinity)


def _is_prime(n):
    """Trial-division primality test (primes in descriptors are small)."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _prime_factors(n):
    """The distinct primes dividing n, by trial division."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def setwise_trajectory(seed, apply, op, cap, subgroup=False):
    """T_1 = seed, T_2, ... with T_{n+1} = {op(a, b) : a in T_n, b in phi^n(seed)}.

    ``apply`` is phi on one element.  Each T_n is yielded as a set that
    the next step replaces; raises once a set passes ``cap`` elements.
    With ``subgroup`` (seed a subgroup, phi a homomorphism, op abelian)
    each T_n is a subgroup, so a b already in T_{n+1} adds no new coset.

    >>> from itertools import islice
    >>> steps = setwise_trajectory([0, 1], lambda x: 2 * x, lambda a, b: a + b, 9)
    >>> [sorted(t) for t in islice(steps, 2)]
    [[0, 1], [0, 1, 2, 3]]
    """
    total = set(seed)
    moving = set(total)
    while True:
        if len(total) > cap:
            raise BudgetExceededError(f"trajectory set exceeded cap {cap}")
        yield total
        moving = {apply(x) for x in moving}
        grown = set()
        for b in moving:
            if subgroup and b in grown:
                continue
            grown.update(op(a, b) for a in total)
            if len(grown) > cap:
                break
        total = grown
