"""Independent checks of every workload's outputs, with sympy and mpmath.

Nothing here calls algentropy to compute an expected value; the checks
work from the raw inputs a workload drew.  Each ``check_*`` function
takes the workload and a dict ``key -> result`` (one entry per distinct
operation) and returns a list of error strings, empty when all is well.
"""

import json
import math
import os
from fractions import Fraction

import mpmath
from sympy import QQ, ZZ, Poly, Symbol
from sympy.polys.matrices import DomainMatrix
from sympy.polys.matrices.normalforms import invariant_factors


HERE = os.path.dirname(os.path.abspath(__file__))
EXHAUSTIVE_ORACLE = os.path.join(HERE, "data", "mahler_exhaustive.json")
DPS = 40
TOLERANCE = 1e-9  # SessionConfig's default; run.py clears ALGENTROPY_* settings
_T = Symbol("t")


# ------------------------------------------------------------------ helpers

def _qq(x):
    x = Fraction(x)
    return QQ(x.numerator, x.denominator)


def qrank(rows, ncols):
    if not rows:
        return 0
    return DomainMatrix([[_qq(x) for x in r] for r in rows], (len(rows), ncols), QQ).rank()


def nonzero_invariant_factors(rows, ncols):
    if not rows:
        return []
    dm = DomainMatrix([[ZZ(int(x)) for x in r] for r in rows], (len(rows), ncols), ZZ)
    return [abs(int(d)) for d in invariant_factors(dm) if d != 0]


def saturation_index(rows, ncols):
    """[sat(L) : L] for the lattice L spanned by integer rows: the product
    of its nonzero invariant factors."""
    out = 1
    for d in nonzero_invariant_factors(rows, ncols):
        out *= d
    return out


def matvec(m, v):
    return [sum(Fraction(a) * Fraction(x) for a, x in zip(row, v)) for row in m]


def log_measure(coeffs):
    """log M(f) for ascending integer coefficients, at DPS digits.

    mpmath finds the roots of each factor of sympy's square-free
    decomposition; M(c * prod g_i^m_i) = |c| * prod M(g_i)^m_i.
    """
    poly = Poly(list(reversed([int(c) for c in coeffs])), _T, domain=ZZ)
    content, factors = poly.sqf_list()
    with mpmath.workdps(DPS):
        total = mpmath.log(abs(int(content)))
        for g, mult in factors:
            cs = [int(c) for c in g.all_coeffs()]
            part = mpmath.log(abs(cs[0]))
            if len(cs) > 1:
                roots = mpmath.polyroots(cs, maxsteps=400, extraprec=2 * DPS)
                for r in roots:
                    a = abs(r)
                    if a > 1:
                        part += mpmath.log(a)
            total += mult * part
        return +total


def all_factors_cyclotomic(coeffs):
    """Kronecker's verdict by sympy: every irreducible factor other than t
    is cyclotomic."""
    poly = Poly(list(reversed([int(c) for c in coeffs])), _T, domain=ZZ)
    _, factors = poly.factor_list()
    return all(g.is_cyclotomic for g, _ in factors if g.degree() > 0 and g.as_expr() != _T)


def _close(a, b, tol):
    with mpmath.workdps(DPS):
        return abs(mpmath.mpf(a) - mpmath.mpf(b)) <= tol


def check_certified(value, error_bound, log_of, oracle, what):
    """An exact result must be log(log_of) = oracle; a numeric one must
    hold the oracle in [value - bound, value + bound], bound <= tolerance."""
    errors = []
    with mpmath.workdps(DPS):
        if log_of is not None:
            q = Fraction(log_of)
            exact = mpmath.log(q.numerator) - mpmath.log(q.denominator)
            if not _close(exact, oracle, mpmath.mpf(10) ** (10 - DPS)):
                errors.append(f"{what}: log({q}) != oracle {mpmath.nstr(oracle, 20)}")
            if not _close(value, oracle, 1e-12 * max(1.0, abs(float(oracle)))):
                errors.append(f"{what}: value {value!r} != oracle {mpmath.nstr(oracle, 20)}")
            return errors
        bound = Fraction(error_bound)
        if bound > Fraction(TOLERANCE):
            errors.append(f"{what}: half-width {float(bound)} above tolerance {TOLERANCE}")
        gap = abs(mpmath.mpf(Fraction(value).numerator) / Fraction(value).denominator - oracle)
        if gap > mpmath.mpf(bound.numerator) / bound.denominator:
            errors.append(f"{what}: oracle {mpmath.nstr(oracle, 20)} outside "
                          f"{value!r} +- {float(bound)}")
    return errors


# ----------------------------------------------------------- lattice_inertia

def _draw_rows(draw, rows):
    """Integer rows of the lifted lattice in Z^n (relations included) or,
    for Q^n, the rows themselves."""
    if draw.is_fg:
        k = len(draw.factors)
        n = k + draw.free
        rel = [[d if j == i else 0 for j in range(n)] for i, d in enumerate(draw.factors)]
        return [[int(x) for x in r] for r in rows] + rel
    return [list(r) for r in rows]


def _free_part(draw, rows):
    k = len(draw.factors) if draw.is_fg else 0
    return [r[k:] for r in rows]


def _scaled(rows_sets):
    """Clear one common denominator from every row set."""
    den = 1
    for rows in rows_sets:
        for r in rows:
            for x in r:
                den = den * Fraction(x).denominator // math.gcd(den, Fraction(x).denominator)
    return [[[int(Fraction(x) * den) for x in r] for r in rows] for rows in rows_sets]


def lattice_truth(draw, h_rows):
    """(inert, index) for H under phi: H is inert iff rank(H + phi H) =
    rank(H) on the free part, and then [phi H : phi H ∩ H] = [H + phi H : H]
    = [sat : H] / [sat : H + phi H] from sympy's invariant factors."""
    n = len(draw.matrix)
    image = [matvec(draw.matrix, r) for r in h_rows]
    width = n - (len(draw.factors) if draw.is_fg else 0)
    r_h = qrank(_free_part(draw, h_rows), width)
    r_sum = qrank(_free_part(draw, h_rows + image), width)
    if r_h != r_sum:
        return False, None
    small, big = _scaled([_draw_rows(draw, h_rows), _draw_rows(draw, h_rows + image)])
    return True, Fraction(saturation_index(small, n), saturation_index(big, n))


def _rank_free(draw, rows):
    width = len(draw.matrix) - (len(draw.factors) if draw.is_fg else 0)
    return qrank(_free_part(draw, rows), width)


def check_lattice(workload, results):
    errors = []
    truths = {}
    for key, res in results.items():
        kind, idx = key
        if kind == "snf":
            errors += _check_snf(workload.relations[idx], res, key)
            continue
        draw = workload.draws[idx]
        if kind in ("inert", "strict"):
            if idx not in truths:
                truths[idx] = lattice_truth(draw, draw.h_rows)
            inert, index = truths[idx]
            got = res.index if kind == "inert" else res
            got_inert = res.inert if kind == "inert" else isinstance(res, int)
            if got_inert != inert:
                errors.append(f"{key} {draw.label}: inert {got_inert}, rank test says {inert}")
            elif inert and Fraction(got) != index:
                errors.append(f"{key} {draw.label}: index {got}, sympy says {index}")
            elif not inert and isinstance(got, int):
                errors.append(f"{key} {draw.label}: finite index {got} on a non-inert pair")
        elif kind == "comm":
            r_h = _rank_free(draw, draw.h_rows)
            r_k = _rank_free(draw, draw.k_rows)
            r_sum = _rank_free(draw, draw.h_rows + draw.k_rows)
            if res != (r_h == r_k == r_sum):
                errors.append(f"{key} {draw.label}: commensurable {res}, ranks {r_h} {r_k} {r_sum}")
        elif kind == "inertial":
            k = len(draw.factors)
            block = [row[k:] for row in draw.matrix[k:]]
            scalar = all(block[i][j] == (block[0][0] if i == j else 0)
                         for i in range(len(block)) for j in range(len(block)))
            if res.inertial != scalar:
                errors.append(f"{key} {draw.label}: inertial {res.inertial}, scalar test {scalar}")
            elif scalar and block and res.m != block[0][0]:
                errors.append(f"{key} {draw.label}: scalar {res.m}, matrix says {block[0][0]}")
            elif not scalar:
                witness = [list(r) for r in res.witness.basis]
                if lattice_truth(draw, witness)[0]:
                    errors.append(f"{key} {draw.label}: witness {witness} passes the rank test")
        elif kind == "fully":
            rank = _rank_free(draw, draw.h_rows)
            if res != (rank in (0, 2)):
                errors.append(f"{key} {draw.label}: fully inert {res} at rank {rank}")
        else:
            errors.append(f"{key}: unknown operation")
    return errors


def _check_snf(rows, group, key):
    n = len(rows[0])
    diag = nonzero_invariant_factors(rows, n)
    want = tuple(d for d in diag if d > 1)
    free = n - len(diag)
    if tuple(group.invariant_factors) != want or group.free_rank != free:
        return [f"{key}: got {group.invariant_factors} + Z^{group.free_rank}, "
                f"sympy says {want} + Z^{free}"]
    return []


# -------------------------------------------------------------- mahler_sweep

def load_exhaustive_oracle():
    with open(EXHAUSTIVE_ORACLE) as fh:
        data = json.load(fh)
    with mpmath.workdps(DPS):
        return {tuple(int(c) for c in k.split(",")): (mpmath.mpf(v), kr)
                for k, (v, kr) in data["entries"].items()}


def check_mahler(workload, results):
    errors = []
    stored = load_exhaustive_oracle()
    pools = {"E": workload.exhaustive, "H": workload.high, "C": workload.cyclo}
    pairs = {}
    for key, res in results.items():
        pairs.setdefault((key[0], key[2]), {})[key[1]] = res
    for (kind, idx), got in pairs.items():
        coeffs = pools[kind][idx].coeffs
        if kind == "E":
            oracle, verdict = stored[tuple(coeffs)]
        else:
            oracle = log_measure(coeffs)
            verdict = all_factors_cyclotomic(coeffs)
        what = f"{kind}{idx} {list(coeffs)}"
        mm = got.get("measure")
        if mm is not None:
            errors += check_certified(mm.value, mm.error_bound, mm.log_of, oracle, what)
            if mm.kronecker != verdict:
                errors.append(f"{what}: MahlerResult.kronecker {mm.kronecker}, sympy says {verdict}")
            if mm.kronecker != (mm.exact and mm.log_of == 1):
                errors.append(f"{what}: kronecker flag disagrees with an exact zero")
        kr = got.get("kronecker")
        if kr is not None:
            if kr != verdict:
                errors.append(f"{what}: kronecker_test {kr}, sympy says {verdict}")
            if mm is not None and kr != (mm.exact and mm.log_of == 1):
                errors.append(f"{what}: kronecker_test {kr} but measure {mm.log_of}")
    return errors


# ---------------------------------------------------------- rational_entropy

def primitive_charpoly(matrix):
    """sympy's characteristic polynomial, denominators cleared, content
    removed, leading coefficient positive; ascending ints."""
    n = len(matrix)
    dm = DomainMatrix([[_qq(x) for x in row] for row in matrix], (n, n), QQ)
    desc = [Fraction(int(c.numerator), int(c.denominator)) for c in dm.charpoly()]
    den = 1
    for c in desc:
        den = den * c.denominator // math.gcd(den, c.denominator)
    ints = [int(c * den) for c in desc]
    g = 0
    for c in ints:
        g = math.gcd(g, c)
    ints = [c // g for c in ints]
    if ints[0] < 0:
        ints = [-c for c in ints]
    return list(reversed(ints))


def check_rational(workload, results):
    errors = []
    pairs = {}
    for key, res in results.items():
        pairs.setdefault(key[1], {})[key[0]] = res
    for idx, got in pairs.items():
        matrix = workload.matrices[idx]
        what = "matrix [" + ", ".join(" ".join(str(x) for x in row) for row in matrix) + "]"
        poly = primitive_charpoly(matrix)
        halg = intrinsic = None
        if "halg" in got:
            code, out, err = got["halg"]
            if code != 0:
                errors.append(f"{what}: halg exit {code}: {err.strip()}")
            else:
                halg = json.loads(out)
                oracle = log_measure(poly)
                if halg.get("path") != "yuzvinski":
                    errors.append(f"{what}: halg path {halg.get('path')}")
                errors += check_certified(halg["value"], halg.get("error_bound", 0),
                                          halg.get("log_of"), oracle, what + " halg")
        if "intrinsic" in got:
            code, out, err = got["intrinsic"]
            if code != 0:
                errors.append(f"{what}: intrinsic exit {code}: {err.strip()}")
            else:
                intrinsic = json.loads(out)
                lead = Fraction(poly[-1])
                if Fraction(intrinsic.get("log_of", "0")) != lead:
                    errors.append(f"{what}: intrinsic log_of {intrinsic.get('log_of')}, "
                                  f"sympy leading coefficient {lead}")
                cross = intrinsic.get("cross_check")
                if len(matrix) <= workload.CROSS_CHECK_MAX_DIM and (
                        cross is None or cross.get("agreement") is not True):
                    errors.append(f"{what}: cross-check {cross}")
        if halg is not None and intrinsic is not None:
            top = halg["value"] + float(halg.get("error_bound", 0)) + 1e-12
            if intrinsic["value"] > top:
                errors.append(f"{what}: intrinsic {intrinsic['value']} > h_alg {halg['value']}")
    return errors


# ------------------------------------------------------------- shift_entropy

def check_shift(workload, results):
    errors = []
    for key, res in results.items():
        case = workload.cases[key[1]]
        order = case.order
        what = f"{key} cell {case.factors} generators {case.gen_rows}"
        if key[0] == "order":
            if res != order ** key[2]:
                errors.append(f"{what}: order {res}, want {order ** key[2]}")
        elif res.log_of != order:
            errors.append(f"{what}: log_of {res.log_of}, want log {order}")
    return errors


CHECKS = {
    "lattice_inertia": check_lattice,
    "mahler_sweep": check_mahler,
    "rational_entropy": check_rational,
    "shift_entropy": check_shift,
}
