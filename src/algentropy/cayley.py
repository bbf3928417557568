"""Finite groups presented by multiplication tables.

This is the non-abelian fragment: setwise-product trajectories, minimal
transversal counts, and an exhaustive catalog of all groups of order up
to 24 built by iterated cyclic extensions.  Tables are verified on
construction (identity, inverses, cancellation, associativity via a
middle-element generating-set test), so everything downstream can trust
the group axioms.
"""

import itertools
from dataclasses import dataclass, field

from .base import _prime_factors, setwise_trajectory
from .config import default_config
from .errors import DomainError

__all__ = [
    "FiniteGroup",
    "cyclic",
    "dihedral",
    "symmetric",
    "direct_product",
    "isomorphisms",
    "isomorphic",
    "finite_group_trajectory",
    "minimal_transversal_count",
    "all_groups_of_order",
]


@dataclass(frozen=True, slots=True, init=False)
class FiniteGroup:
    """A group on {0, ..., n-1} given by its full multiplication table.

    >>> G = cyclic(6)
    >>> G.element_order(2)
    3
    >>> G.inv(1)
    5
    """

    table: tuple
    identity: int
    _inverses: tuple = field(compare=False)

    def __init__(self, table, identity=None):
        table = tuple(tuple(row) for row in table)
        n = len(table)
        if n == 0:
            raise DomainError("a group is nonempty")
        for row in table:
            if len(row) != n or any(not (0 <= x < n) for x in row):
                raise DomainError("malformed multiplication table")
        if identity is None:
            identity = next(
                (e for e in range(n) if all(table[e][x] == x for x in range(n))),
                None,
            )
            if identity is None:
                raise DomainError("table has no identity")
        e = identity
        if any(table[e][x] != x or table[x][e] != x for x in range(n)):
            raise DomainError("identity element does not act as identity")
        # cancellation: rows and columns are permutations
        full = frozenset(range(n))
        for i in range(n):
            if frozenset(table[i]) != full:
                raise DomainError("left cancellation fails")
            if frozenset(table[j][i] for j in range(n)) != full:
                raise DomainError("right cancellation fails")
        inverses = [None] * n
        for a in range(n):
            b = table[a].index(e)
            inverses[a] = b
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "identity", e)
        object.__setattr__(self, "_inverses", tuple(inverses))
        self._check_associativity()
        if any(self.table[self._inverses[a]][a] != e for a in range(n)):
            raise DomainError("one-sided inverse is not two-sided")

    def _check_associativity(self):
        # middle-element test: if (x g) y = x (g y) for all x, y and g in a
        # generating set, the products of good middle elements are good, so
        # associativity propagates to the whole table
        table = self.table
        n = self.order
        gens = self._generating_sequence()
        for g in gens:
            for x in range(n):
                xg = table[x][g]
                rowx = table[x]
                gy = table[g]
                for y in range(n):
                    if table[xg][y] != rowx[gy[y]]:
                        raise DomainError("table is not associative")

    def _generating_sequence(self):
        gens = []
        closure = {self.identity}
        for x in range(self.order):
            if x not in closure:
                gens.append(x)
                closure = set(self.subgroup_generated(gens))
        return gens

    @property
    def order(self):
        return len(self.table)

    def elements(self):
        return range(self.order)

    def mul(self, a, b):
        return self.table[a][b]

    def inv(self, a):
        return self._inverses[a]

    def power(self, a, k):
        if k < 0:
            a, k = self.inv(a), -k
        out = self.identity
        while k:
            if k & 1:
                out = self.table[out][a]
            a = self.table[a][a]
            k >>= 1
        return out

    def element_order(self, a):
        k, x = 1, a
        while x != self.identity:
            x = self.table[x][a]
            k += 1
        return k

    def is_abelian(self):
        t = self.table
        return all(
            t[a][b] == t[b][a]
            for a in range(self.order)
            for b in range(a + 1, self.order)
        )

    def center(self):
        t = self.table
        return frozenset(
            z
            for z in range(self.order)
            if all(t[z][x] == t[x][z] for x in range(self.order))
        )

    def derived_subgroup(self):
        comms = {
            self.mul(self.mul(self.inv(a), self.inv(b)), self.mul(a, b))
            for a in range(self.order)
            for b in range(self.order)
        }
        return self.subgroup_generated(comms)

    def subgroup_generated(self, gens):
        # finite, so the closure under products already contains inverses
        seen = {self.identity}
        frontier = [self.identity]
        gens = [g for g in gens]
        table = self.table
        while frontier:
            fresh = []
            for x in frontier:
                for g in gens:
                    y = table[x][g]
                    if y not in seen:
                        seen.add(y)
                        fresh.append(y)
            frontier = fresh
        return frozenset(seen)

    def is_subgroup(self, subset):
        subset = frozenset(subset)
        if self.identity not in subset:
            return False
        return all(self.table[a][b] in subset for a in subset for b in subset)

    def all_subgroups(self):
        """Every subgroup, ordered by size then by sorted element list."""
        trivial = frozenset({self.identity})
        subs = {trivial}
        frontier = [trivial]
        while frontier:
            fresh = []
            for h in frontier:
                for x in range(self.order):
                    if x not in h:
                        k = self.subgroup_generated(set(h) | {x})
                        if k not in subs:
                            subs.add(k)
                            fresh.append(k)
            frontier = fresh
        return tuple(sorted(subs, key=lambda s: (len(s), sorted(s))))

    def is_endomorphism(self, mapping):
        mapping = tuple(mapping)
        if len(mapping) != self.order:
            return False
        if any(not (0 <= x < self.order) for x in mapping):
            return False
        t = self.table
        return all(
            mapping[t[a][b]] == t[mapping[a]][mapping[b]]
            for a in range(self.order)
            for b in range(self.order)
        )

    def identity_map(self):
        return tuple(range(self.order))

    def inner_automorphism(self, g):
        """Conjugation x -> g^{-1} x g as an index map."""
        gi = self.inv(g)
        return tuple(self.mul(self.mul(gi, x), g) for x in range(self.order))

    def automorphisms(self):
        return tuple(isomorphisms(self, self))

    def __repr__(self):
        return f"FiniteGroup(order={self.order})"


def cyclic(n):
    """The cyclic group of order n."""
    if n < 1:
        raise DomainError("order must be positive")
    return FiniteGroup(
        tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
    )


def dihedral(n):
    """The dihedral group of order 2n (symmetries of the n-gon), n >= 1.

    Element (i, j) with 0 <= i < n, j in {0, 1} is r^i s^j, encoded as
    i + n*j; the relation is s r = r^{-1} s.
    """
    if n < 1:
        raise DomainError("order must be positive")

    def mul(a, b):
        i, j = a % n, a // n
        k, l = b % n, b // n
        sign = -1 if j else 1
        return (i + sign * k) % n + n * ((j + l) % 2)

    size = 2 * n
    return FiniteGroup(
        tuple(tuple(mul(a, b) for b in range(size)) for a in range(size))
    )


def symmetric(n):
    """The symmetric group on n letters, elements in lexicographic order.

    Index i multiplies index j as composition "apply j first, then i".

    >>> S3 = symmetric(3)
    >>> S3.order
    6
    >>> S3.is_abelian()
    False
    """
    if not 1 <= n <= 6:
        raise DomainError("symmetric group tables supported for n <= 6")
    perms = sorted(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    table = tuple(
        tuple(index[tuple(p[q[i]] for i in range(n))] for q in perms)
        for p in perms
    )
    return FiniteGroup(table)


def direct_product(a, b):
    """The direct product, pair (x, y) encoded as x * b.order + y."""
    nb = b.order

    def mul(u, v):
        return a.mul(u // nb, v // nb) * nb + b.mul(u % nb, v % nb)

    size = a.order * nb
    return FiniteGroup(
        tuple(tuple(mul(u, v) for v in range(size)) for u in range(size))
    )


def isomorphisms(a, b):
    """All isomorphisms a -> b as index maps, in deterministic order.

    Backtracks over images of a generating sequence of ``a``; a partial
    assignment is grown to the generated subgroup, checking every
    product edge, so any full assignment is a genuine homomorphism.
    """
    if a.order != b.order:
        return
    gens = a._generating_sequence()
    if not gens:
        yield (b.identity,)
        return
    orders_b = {}
    for x in range(b.order):
        orders_b.setdefault(b.element_order(x), []).append(x)
    base = {a.identity: b.identity}

    def close(hmap, new_gens):
        frontier = list(hmap)
        while frontier:
            fresh = []
            for x in frontier:
                fx = hmap[x]
                for g in new_gens:
                    y = a.mul(x, g)
                    fy = b.mul(fx, hmap[g])
                    if y in hmap:
                        if hmap[y] != fy:
                            return None
                    else:
                        hmap[y] = fy
                        fresh.append(y)
            frontier = fresh
        return hmap

    def backtrack(k, hmap):
        if k == len(gens):
            if len(set(hmap.values())) == a.order:
                yield tuple(hmap[x] for x in range(a.order))
            return
        g = gens[k]
        taken = set(hmap.values())
        for img in orders_b.get(a.element_order(g), ()):
            if img in taken:
                continue
            trial = dict(hmap)
            trial[g] = img
            grown = close(trial, gens[: k + 1])
            if grown is not None:
                yield from backtrack(k + 1, grown)

    yield from backtrack(0, dict(base))


def isomorphic(a, b):
    """Whether two table groups are isomorphic.

    >>> isomorphic(dihedral(3), symmetric(3))
    True
    >>> isomorphic(cyclic(4), direct_product(cyclic(2), cyclic(2)))
    False
    """
    if _fingerprint(a) != _fingerprint(b):
        return False
    return next(isomorphisms(a, b), None) is not None


def finite_group_trajectory(group, phi, subset, n):
    """The setwise product T_n = F * F^phi * ... * F^{phi^n}.

    ``phi`` is an index map, verified to be an endomorphism.  n past the
    session's ``max_steps`` raises BudgetExceededError before any step is
    taken.

    >>> G = symmetric(3)
    >>> phi = G.identity_map()
    >>> sorted(finite_group_trajectory(G, phi, [G.identity], 4))
    [0]
    """
    if n < 0:
        raise DomainError("step count must be >= 0")
    default_config().check_steps(n)
    steps = _product_trajectory(group, phi, subset)
    return frozenset(next(itertools.islice(steps, n, None)))


def _product_trajectory(group, phi, subset):
    """T_0 = F, T_1, ... of :func:`finite_group_trajectory`, one pass."""
    if not group.is_endomorphism(phi):
        raise DomainError("map is not an endomorphism")
    seed = frozenset(subset)
    if not seed:
        raise DomainError("subset must be nonempty")
    if any(not 0 <= x < group.order for x in seed):
        raise DomainError("subset element out of range")
    # a set of group elements never passes the group order
    return setwise_trajectory(seed, phi.__getitem__, group.mul, group.order)


def minimal_transversal_count(group, subgroup, subset):
    """Smallest |Y| with ``subset`` contained in subgroup * Y.

    Equals the number of right cosets of the subgroup meeting the subset.

    >>> G = symmetric(3)
    >>> H = G.subgroup_generated([1])   # a transposition
    >>> minimal_transversal_count(G, H, range(G.order))
    3
    """
    h = frozenset(subgroup)
    if not group.is_subgroup(h):
        raise DomainError("transversal count needs a subgroup")
    reps = {min(group.mul(x, t) for x in h) for t in subset}
    return len(reps)


def _fingerprint(group):
    orders = tuple(sorted(group.element_order(x) for x in range(group.order)))
    derived = group.derived_subgroup()
    derived_orders = tuple(sorted(group.element_order(x) for x in derived))
    return (
        group.order,
        orders,
        group.is_abelian(),
        len(group.center()),
        derived_orders,
    )


def _extension_table(n_group, beta, z, p):
    # pairs (x, i) = x * g^i with g^p = z and g y g^{-1} = beta(y);
    # (x, i)(y, j) = (x * beta^i(y) * z^{(i+j) div p}, (i+j) mod p)
    m = n_group.order
    powers = [n_group.identity_map()]
    for _ in range(p - 1):
        powers.append(tuple(beta[x] for x in powers[-1]))
    size = m * p

    def mul(u, v):
        x, i = u % m, u // m
        y, j = v % m, v // m
        q, r = divmod(i + j, p)
        w = n_group.mul(x, powers[i][y])
        if q:
            w = n_group.mul(w, z)
        return w + m * r

    return tuple(tuple(mul(u, v) for v in range(size)) for u in range(size))


_CATALOG = {}


def all_groups_of_order(n):
    """All groups of order n up to isomorphism, n <= 24.

    Every group of such an order is solvable, hence has a normal
    subgroup of prime index, hence is a cyclic extension: it is built
    from some N of order n/p, an automorphism beta of N, and z in N
    with beta(z) = z and beta^p = conjugation by z.  Iterating over all
    triples and deduplicating by isomorphism yields the full catalog.

    >>> len(all_groups_of_order(8))
    5
    >>> len(all_groups_of_order(12))
    5
    """
    if n < 1:
        raise DomainError("order must be positive")
    if n > 24:
        raise DomainError("group catalog covers orders up to 24")
    if n in _CATALOG:
        return _CATALOG[n]
    if n == 1:
        _CATALOG[1] = (cyclic(1),)
        return _CATALOG[1]
    groups = []
    prints = []
    for p in _prime_factors(n):
        for base in all_groups_of_order(n // p):
            m = base.order
            for beta in isomorphisms(base, base):
                power = base.identity_map()
                for _ in range(p):
                    power = tuple(beta[x] for x in power)
                for z in range(m):
                    if beta[z] != z:
                        continue
                    zc = tuple(
                        base.mul(base.mul(z, y), base.inv(z)) for y in range(m)
                    )
                    if power != zc:
                        continue
                    cand = FiniteGroup(_extension_table(base, beta, z, p))
                    fp = _fingerprint(cand)
                    if any(
                        fp == prints[i] and isomorphic(cand, groups[i])
                        for i in range(len(groups))
                    ):
                        continue
                    groups.append(cand)
                    prints.append(fp)
    order = sorted(range(len(groups)), key=lambda i: prints[i])
    _CATALOG[n] = tuple(groups[i] for i in order)
    return _CATALOG[n]
