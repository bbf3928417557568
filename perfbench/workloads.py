"""Seeded inputs and operation streams for the four benchmark workloads.

Every workload is a class built from a seed.  Building it is the set-up
phase: the inputs are drawn and turned into algentropy objects.  Its
``rounds()`` method then yields, without end, lists of operations.  An
operation is ``(key, fn, args)``: one call ``fn(*args)`` into the public
API.  ``fn`` looks the API function up at call time, so that the traced
run reaches the wrappers it installs.  ``key`` names the input; the same
key always means the same call, so a repeated key must give an equal
result and needs its oracle check only once.

The class attribute ``tail_pct`` is the percentile that ``op_tail_ms``
reports on the workload; it is chosen so that at least ten operations
lie beyond it in every run (see README.md).
"""

import io
import itertools
import math
import random
from fractions import Fraction

import algentropy
from algentropy import cli

A = algentropy


def _api(name):
    return lambda *args: getattr(algentropy, name)(*args)


def run_cli(argv):
    """One ``cli.run`` call; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    code = cli.run(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


INERT_INDEX = _api("inert_index")
STRICT_INERT_INDEX = _api("strict_inert_index")
COMMENSURABLE = _api("commensurable")
IS_INERTIAL = _api("is_inertial_endomorphism")
IS_FULLY_INERT = _api("is_fully_inert")
CANONICALIZE = _api("canonicalize_presentation")
MAHLER_MEASURE = _api("mahler_measure")
KRONECKER_TEST = _api("kronecker_test")
H_ALG_STABILIZED = _api("h_alg_stabilized")
LIMIT_FREE_H = _api("limit_free_h")
I_ENTROPY = _api("i_entropy")
SHIFT_TRAJECTORY_ORDER = _api("shift_trajectory_order")


def _rng(seed, part):
    return random.Random(f"{seed}/{part}")


# ------------------------------------------------------------ lattice_inertia

# (label, torsion invariant factors, free rank); None marks a Q^n lattice
LATTICE_AMBIENTS = (
    ("Z^2", (), 2),
    ("Z^3", (), 3),
    ("Z^4", (), 4),
    ("Z/4+Z", (4,), 1),
    ("Z/2+Z/8", (2, 8), 0),
    ("Z/6+Z^2", (6,), 2),
    ("Q^2", None, 2),
    ("Q^3", None, 3),
)
SNF_SIZES = (4, 5, 6, 7, 8, 9)


def _fg_matrix(rng, factors, free, scalar):
    """A random endomorphism matrix of Z/d_1+...+Z/d_k+Z^free (on columns).

    A torsion column i may only hit torsion rows j, with d_j | d_i M[j][i];
    ``scalar`` makes the free block an integer scalar matrix.
    """
    k = len(factors)
    n = k + free
    m = [[0] * n for _ in range(n)]
    for i in range(k):
        for j in range(k):
            step = factors[j] // math.gcd(factors[i], factors[j])
            m[j][i] = step * rng.randint(0, factors[j])
    s = rng.randint(-3, 3)
    for i in range(k, n):
        for j in range(n):
            if j < k:
                m[j][i] = rng.randint(0, factors[j] - 1)
            elif scalar:
                m[j][i] = s if i == j else 0
            else:
                m[j][i] = rng.randint(-3, 3)
    return m


def _frac(rng, pmax, qmax):
    return Fraction(rng.randint(-pmax, pmax), rng.randint(1, qmax))


class LatticeDraw:
    """One draw: an ambient, an endomorphism phi and subgroups H, K.

    ``matrix``, ``h_rows`` and ``k_rows`` keep the raw integer or
    rational data the oracle works from.
    """

    def __init__(self, rng, ambient):
        self.label, self.factors, self.free = ambient
        if self.factors is None:
            n = self.free
            self.matrix = [[_frac(rng, 4, 4) for _ in range(n)] for _ in range(n)]
            self.h_rows = self._qrows(rng, n)
            self.k_rows = self._qrows(rng, n)
            self.phi = A.RationalEndo(n, self.matrix)
            self.h = A.RationalLattice.from_rows(n, self.h_rows)
            self.k = A.RationalLattice.from_rows(n, self.k_rows)
            return
        n = len(self.factors) + self.free
        scalar = self.free > 0 and rng.random() < 0.25
        self.matrix = _fg_matrix(rng, self.factors, self.free, scalar)
        self.h_rows = self._zrows(rng, n)
        self.k_rows = self._zrows(rng, n)
        self.group = A.FgAbGroup(self.factors, self.free)
        self.phi = A.Endo(self.group, self.matrix)
        self.h = A.subgroup_from_generators(self.group, self.h_rows)
        self.k = A.subgroup_from_generators(self.group, self.k_rows)

    @staticmethod
    def _zrows(rng, n):
        return [[rng.randint(-4, 4) for _ in range(n)] for _ in range(rng.randint(1, n))]

    @staticmethod
    def _qrows(rng, n):
        return [[_frac(rng, 4, 4) for _ in range(n)] for _ in range(rng.randint(1, n))]

    @property
    def is_fg(self):
        return self.factors is not None

    def ops(self, idx):
        out = [
            (("inert", idx), INERT_INDEX, (self.h, self.phi)),
            (("strict", idx), STRICT_INERT_INDEX, (self.h, self.phi)),
            (("comm", idx), COMMENSURABLE, (self.h, self.k)),
        ]
        if self.is_fg:
            out.append((("inertial", idx), IS_INERTIAL, (self.phi,)))
        if self.label == "Z^2":
            out.append((("fully", idx), IS_FULLY_INERT, (self.h,)))
        return out


class LatticeInertia:
    """Inert indices, commensurability and the inertial decision, plus SNF.

    A pool of ``DRAWS`` draws, the ambients taking turns, is cycled; after
    every ``DRAWS_PER_SNF``
    draws one relation matrix of the ladder 4x4 .. 9x9 goes through
    ``canonicalize_presentation``.  The relation matrices are not pooled:
    their cost is heavy-tailed, so the tail needs many distinct ones.
    """

    name = "lattice_inertia"
    tail_pct = 98.5
    DRAWS = 800
    DRAWS_PER_SNF = 4
    SNF_MATRICES = 3000

    def __init__(self, seed):
        rng = _rng(seed, "draws")
        self.draws = [
            LatticeDraw(rng, LATTICE_AMBIENTS[i % len(LATTICE_AMBIENTS)])
            for i in range(self.DRAWS)
        ]
        rng = _rng(seed, "snf")
        self.relations = []
        for i in range(self.SNF_MATRICES):
            n = SNF_SIZES[i % len(SNF_SIZES)]
            self.relations.append([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])

    def rounds(self):
        for r in itertools.count():
            ops = []
            for j in range(self.DRAWS_PER_SNF):
                idx = (r * self.DRAWS_PER_SNF + j) % self.DRAWS
                ops.extend(self.draws[idx].ops(idx))
            s = r % self.SNF_MATRICES
            ops.append((("snf", s), CANONICALIZE, (self.relations[s],)))
            yield ops


# --------------------------------------------------------------- mahler_sweep

def int_poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _monic_div(num, den):
    """Exact quotient of ascending integer lists, den monic."""
    num = list(num)
    q = [0] * (len(num) - len(den) + 1)
    for i in range(len(q) - 1, -1, -1):
        c = num[i + len(den) - 1]
        q[i] = c
        for j, d in enumerate(den):
            num[i + j] -= c * d
    if any(num):
        raise ArithmeticError("inexact division")
    return q


def _cyclotomic_table(limit):
    """Ascending coefficients of Phi_n for n <= limit, by dividing t^n - 1
    by Phi_d for d | n.

    Kept apart from ``algentropy.cyclotomic_polynomial`` so that building
    inputs neither warms nor trusts the program's own table.
    """
    table = {}
    for n in range(1, limit + 1):
        f = [-1] + [0] * (n - 1) + [1]
        for d in range(1, n):
            if n % d == 0:
                f = _monic_div(f, table[d])
        table[n] = f
    return table


# every Phi_n of degree <= 12 (Euler phi(n) <= 12 forces n <= 42)
CYCLOTOMIC = {n: f for n, f in _cyclotomic_table(42).items() if len(f) - 1 <= 12}
CYCLOTOMIC_ORDERS = tuple(CYCLOTOMIC)


def exhaustive_polys(max_degree):
    """Monic polynomials with lower coefficients in [-2, 2], by degree (c06's population)."""
    out = []
    for d in range(1, max_degree + 1):
        for low in itertools.product(range(-2, 3), repeat=d):
            out.append(tuple(low) + (1,))
    return out


class MahlerSweep:
    """mahler_measure and kronecker_test on three polynomial sets.

    Each round takes the next ``E_PER_ROUND`` polynomials of the
    exhaustive set (degrees 1..5, wrapping around), one of the seeded
    high-degree pool (degrees 8..12 taking turns) and ``C_PER_ROUND`` of
    the seeded cyclotomic-product pool.  Per round that puts eight fast
    exhaustive Kronecker tests below the four cyclotomic-product
    operations and ten slower operations above them, so the middle
    operations are cyclotomic products, not the edge between two
    populations; the high-degree pool, whose measures have a long tail
    of costs, is a small share of the work, so that throughput hardly
    depends on the seed.  The exhaustive set is visited in one fixed
    shuffled order, the same for every seed, so that a run's share of
    each degree does not depend on how far it gets.
    """

    name = "mahler_sweep"
    tail_pct = 98.0
    MAX_DEGREE = 5
    E_PER_ROUND = 8
    C_PER_ROUND = 2
    HIGH = 128
    CYCLO = 128

    def __init__(self, seed):
        polys = exhaustive_polys(self.MAX_DEGREE)
        random.Random("exhaustive").shuffle(polys)
        self.exhaustive = [A.IntPolynomial(c) for c in polys]
        rng = _rng(seed, "high")
        self.high = []
        for i in range(self.HIGH):
            d = 8 + i % 5
            coeffs = [rng.choice((-1, 1))] + [rng.randint(-2, 2) for _ in range(d - 1)] + [1]
            self.high.append(A.IntPolynomial(coeffs))
        rng = _rng(seed, "cyclo")
        self.cyclo = []
        for _ in range(self.CYCLO):
            coeffs = [1]
            while True:
                n = rng.choice(CYCLOTOMIC_ORDERS)
                factor = CYCLOTOMIC[n]
                if len(coeffs) + len(factor) - 2 > 12:
                    break
                coeffs = int_poly_mul(coeffs, factor)
            if len(coeffs) == 1:
                coeffs = int_poly_mul(coeffs, CYCLOTOMIC[1])
            self.cyclo.append(A.IntPolynomial(coeffs))

    @staticmethod
    def _ops(kind, idx, f):
        return [
            ((kind, "measure", idx), MAHLER_MEASURE, (f,)),
            ((kind, "kronecker", idx), KRONECKER_TEST, (f,)),
        ]

    def rounds(self):
        ne = len(self.exhaustive)
        for r in itertools.count():
            ops = []
            for j in range(self.E_PER_ROUND):
                i = (r * self.E_PER_ROUND + j) % ne
                ops.extend(self._ops("E", i, self.exhaustive[i]))
            i = r % self.HIGH
            ops.extend(self._ops("H", i, self.high[i]))
            for j in range(self.C_PER_ROUND):
                i = (r * self.C_PER_ROUND + j) % self.CYCLO
                ops.extend(self._ops("C", i, self.cyclo[i]))
            yield ops


# ----------------------------------------------------------- rational_entropy

def matrix_text(m):
    return "[" + ",".join("[" + ",".join(str(x) for x in row) + "]" for row in m) + "]"


class RationalEntropy:
    """The README's entropy requests through ``cli.run``, in process.

    Each round is one seeded matrix (sizes 2, 3, 4 taking turns) sent as
    ``entropy halg`` and as
    ``entropy intrinsic --cross-check``.  On 4x4 matrices the intrinsic
    request goes without ``--cross-check``: there the stabilization
    window of 3 stops on a plateau of length 3 for about 1% of draws and
    the cross-check disagrees (see CHANGES.md, FOUND), which would make
    the run's correctness depend on the seed.
    """

    name = "rational_entropy"
    tail_pct = 90.0
    MATRICES = 3000
    CROSS_CHECK_MAX_DIM = 3

    def __init__(self, seed):
        rng = _rng(seed, "matrices")
        self.matrices = []
        for i in range(self.MATRICES):
            n = 2 + i % 3
            self.matrices.append([[_frac(rng, 6, 6) for _ in range(n)] for _ in range(n)])
        self.requests = []
        for m in self.matrices:
            text = matrix_text(m)
            cross = ["--cross-check"] if len(m) <= self.CROSS_CHECK_MAX_DIM else []
            self.requests.append((
                ["entropy", "halg", "--matrix", text],
                ["entropy", "intrinsic", *cross, "--matrix", text],
            ))

    def rounds(self):
        for r in itertools.count():
            i = r % self.MATRICES
            halg, intrinsic = self.requests[i]
            yield [
                (("halg", i), run_cli, (halg,)),
                (("intrinsic", i), run_cli, (intrinsic,)),
            ]


# -------------------------------------------------------------- shift_entropy

SHIFT_CELLS = ((2,), (3,), (4,), (5,), (6,), (7,), (8,), (9,), (2, 2), (2, 2, 2), (3, 3))


def _cell_generators(rng, factors):
    """Rows generating the whole cell: the image of the standard basis
    under a random automorphism (a random unit for a cyclic cell, a
    random invertible matrix over F_p for (Z/p)^k)."""
    k = len(factors)
    if k == 1:
        n = factors[0]
        return [[rng.choice([u for u in range(1, n) if math.gcd(u, n) == 1])]]
    p = factors[0]
    while True:
        rows = [[rng.randrange(p) for _ in range(k)] for _ in range(k)]
        if _det_mod(rows, p):
            return rows


def _det_mod(rows, p):
    m = [list(r) for r in rows]
    k = len(m)
    det = 1
    for c in range(k):
        piv = next((i for i in range(c, k) if m[i][c] % p), None)
        if piv is None:
            return 0
        m[c], m[piv] = m[piv], m[c]
        det = det * m[c][c] % p
        inv = pow(m[c][c], -1, p)
        for i in range(c + 1, k):
            f = m[i][c] * inv % p
            m[i] = [(a - f * b) % p for a, b in zip(m[i], m[c])]
    return det


class ShiftCase:
    def __init__(self, rng, factors):
        self.factors = factors
        self.order = 1
        for d in factors:
            self.order *= d
        self.group = A.ShiftGroup(A.FgAbGroup(factors))
        self.gen_rows = _cell_generators(rng, factors)
        self.gens = tuple(self.group.element({0: row}) for row in self.gen_rows)

    def ops(self, idx):
        b, g = self.group, self.gens
        out = [
            (("halg", idx), H_ALG_STABILIZED, (b, g)),
            (("limitfree", idx), LIMIT_FREE_H, (b, g)),
            (("ientropy", idx), I_ENTROPY, (b, g, "log_order")),
        ]
        for n in (1, 2, 3, 4):
            out.append((("order", idx, n), SHIFT_TRAJECTORY_ORDER, (b, g, n)))
        return out


class ShiftEntropy:
    """Bernoulli shifts over cells of order 2 to 9.

    Each round runs every cell once, in a seeded order, with seeded
    generators of the cell copy at position 0.
    """

    name = "shift_entropy"
    tail_pct = 91.5

    def __init__(self, seed):
        rng = _rng(seed, "cells")
        self.cases = [ShiftCase(rng, f) for f in SHIFT_CELLS]
        self.order = list(range(len(self.cases)))
        rng.shuffle(self.order)

    def rounds(self):
        while True:
            ops = []
            for i in self.order:
                ops.extend(self.cases[i].ops(i))
            yield ops


WORKLOADS = {w.name: w for w in (LatticeInertia, MahlerSweep, RationalEntropy, ShiftEntropy)}
