"""Command surface.

Every decision procedure and entropy computation is reachable from one
flat command tree::

    group canon | sub index|sum|meet | inert check|endo|witness
    | fullyinert check|classify
    | entropy ent|halg|intrinsic|adjoint|limitfree|htop|scale
    | growth classify|sumset | mahler measure|kronecker|scan
    | nonabelian traj

Reports go to stdout (JSON by default, deterministic byte-for-byte for
identical input and configuration), diagnostics to stderr.  Exit codes:
0 success, 1 malformed input (with the offending position), 2 domain
error, 3 exceeded budget or a sequence that refused to stabilize.

Inputs are compact text forms: groups as ``Z/8 x Z^2``, matrices as
``[[1,1],[0,1]]`` with entries ``p/q`` or an overall ``/d`` suffix,
polynomials as ascending coefficient lists ``1,1,1``.  Larger payloads
(descriptors, shift generators, Cayley tables) are JSON; integers may
be written as decimal strings throughout.
"""

import argparse
import functools
import json
import sys
from dataclasses import replace
from fractions import Fraction
from itertools import islice

from .abelian import (
    Endo,
    FgAbGroup,
    canonicalize_presentation,
    subgroup_from_generators,
)
from .base import INFINITE
from .cayley import (
    FiniteGroup,
    _product_trajectory,
    all_groups_of_order,
    minimal_transversal_count,
)
from .config import default_config
from .entropy import (
    adjoint_cotrajectory,
    classify_growth,
    ent,
    h_alg_stabilized,
    h_alg_yuzvinski,
    h_top_shift,
    intrinsic_adjoint_entropy,
    intrinsic_entropy,
    limit_free_h,
    scale_over_family,
    sumset_growth,
)
from .errors import DomainError, ParseError, ResourceError
from .fully_inert import (
    GroupDescriptor,
    PrimePart,
    TorsionFreePart,
    classify_self_inert,
    is_fully_inert,
)
from .inertia import (
    _ambient_ops,
    cylinder_inert_index,
    inert_index,
    is_inertial_endomorphism,
)
from .mahler import kronecker_test, mahler_measure, small_measure_scan
from .models import CylinderFamily, ShiftGroup
from .polynomial import IntPolynomial
from .rational import RationalEndo, RationalLattice

__all__ = ["main", "run"]


# ---------------------------------------------------------------- parsing

class _Scanner:
    """Character scanner that reports failures with their position."""

    def __init__(self, text):
        self.text = text
        self.pos = 0

    def error(self, message):
        raise ParseError(message, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        # the sentinel never satisfies `in` membership tests, "" would
        return self.text[self.pos] if self.pos < len(self.text) else "\0"

    def take(self, ch):
        self.skip_ws()
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def expect(self, ch):
        if not self.take(ch):
            self.error(f"expected {ch!r}")

    def integer(self):
        self.skip_ws()
        start = self.pos
        if self.peek() in "+-":
            self.pos += 1
        while self.peek() in "0123456789":
            self.pos += 1
        if self.pos == start or not self.text[start:self.pos].lstrip("+-"):
            self.error("expected an integer")
        return int(self.text[start:self.pos])

    def fraction(self):
        num = self.integer()
        if self.take("/"):
            den = self.integer()
            if den == 0:
                self.error("zero denominator")
            return Fraction(num, den)
        return Fraction(num)

    def done(self):
        self.skip_ws()
        if self.pos != len(self.text):
            self.error("unexpected trailing input")


def parse_matrix(text):
    """``[[a,b],[c,d]]`` rows, entries ``p/q``, optional ``/d`` suffix."""
    s = _Scanner(text)
    s.expect("[")
    rows = []
    while True:
        s.expect("[")
        row = [s.fraction()]
        while s.take(","):
            row.append(s.fraction())
        s.expect("]")
        rows.append(row)
        if not s.take(","):
            break
    s.expect("]")
    if s.take("/"):
        den = s.integer()
        if den == 0:
            s.error("zero denominator")
        rows = [[x / den for x in row] for row in rows]
    s.done()
    if len({len(r) for r in rows}) != 1:
        raise ParseError("rows must all have the same length")
    return rows


def _int_rows(rows, what):
    out = []
    for row in rows:
        if any(x.denominator != 1 for x in row):
            raise ParseError(f"{what} entries must be integers")
        out.append([int(x) for x in row])
    return out


def _as_int(x, what="integer"):
    if isinstance(x, bool) or not isinstance(x, (int, str)):
        raise ParseError(f"{what} must be an integer or decimal string")
    try:
        return int(x)
    except ValueError:
        raise ParseError(f"bad {what} {x!r}") from None


def _load_json(text, what):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad {what} JSON: {exc.msg}", exc.pos) from None


def parse_group(text):
    """``Z/8 x Z^2`` style products, or the JSON group object.

    Arbitrary cyclic orders are accepted and canonicalized, so
    ``Z/4 x Z/6`` comes back as invariant factors (2, 12).
    """
    stripped = text.strip()
    if stripped.startswith("{"):
        obj = _load_json(stripped, "group")
        orders = [_as_int(d, "invariant factor") for d in obj.get("invariant_factors", [])]
        free = _as_int(obj.get("free_rank", 0), "free rank")
    else:
        orders, free = _parse_group_expr(stripped)
    if free < 0 or any(d < 0 for d in orders):
        raise ParseError("negative order")
    return _canonical_group(orders, free)


def _parse_group_expr(text):
    s = _Scanner(text)
    orders = []
    free = 0
    while True:
        s.skip_ws()
        ch = s.peek()
        if ch in "01":
            s.pos += 1  # the trivial group contributes nothing
        elif ch in "Zz":
            s.pos += 1
            if s.take("/"):
                orders.append(s.integer())
            elif s.take("^"):
                free += s.integer()
            else:
                free += 1
        else:
            s.error("expected a factor: Z, Z^n, Z/d, 0 or 1")
        s.skip_ws()
        if s.peek() in "x*+":
            s.pos += 1
            continue
        break
    s.done()
    return orders, free


def _canonical_group(orders, free):
    orders = [d for d in orders if d != 1]
    if any(d == 0 for d in orders):
        # a Z/0 factor is just another copy of Z
        free += sum(1 for d in orders if d == 0)
        orders = [d for d in orders if d]
    if not orders:
        return FgAbGroup([], free)
    n = len(orders)
    torsion = canonicalize_presentation([[d if j == i else 0 for j in range(n)]
                                         for i, d in enumerate(orders)])
    return FgAbGroup(torsion.invariant_factors, free)


def parse_poly(text):
    stripped = text.strip()
    if stripped.startswith("["):
        coeffs = [_as_int(c, "coefficient") for c in _load_json(stripped, "polynomial")]
    else:
        s = _Scanner(stripped)
        coeffs = [s.integer()]
        while s.take(","):
            coeffs.append(s.integer())
        s.done()
    return IntPolynomial(coeffs)


def _cardinal(x, what="cardinal"):
    if x is None:
        return None
    if x == "Infinite":
        return INFINITE
    return _as_int(x, what)


def parse_descriptor(text):
    obj = _load_json(text, "descriptor")
    if not isinstance(obj, dict):
        raise ParseError("descriptor must be a JSON object")
    tf_obj = obj.get("torsion_free", {"kind": "zero"})
    tf = TorsionFreePart(tf_obj.get("kind", "zero"), _cardinal(tf_obj.get("rank"), "rank"))
    primes = []
    prime_items = obj.get("primes", [])
    if isinstance(prime_items, dict):
        prime_items = [[p, part] for p, part in prime_items.items()]
    for p, part in prime_items:
        uk = [
            (_as_int(e, "exponent"), _cardinal(v, "multiplicity"))
            for e, v in part.get("uk_invariants", [])
        ]
        primes.append(
            (
                _as_int(p, "prime"),
                PrimePart(_cardinal(part.get("divisible_rank", 0)), tuple(uk)),
            )
        )
    return GroupDescriptor(tf, tuple(primes), obj.get("cofinite_default", "divisible"))


def _fg_endo(group, text):
    rows = _int_rows(parse_matrix(text), "endomorphism matrix")
    return Endo(group, rows)


def _rational_endo(text):
    rows = parse_matrix(text)
    if len(rows) != len(rows[0]):
        raise ParseError("endomorphism matrix must be square")
    return RationalEndo(len(rows), rows)


def _fg_sub(group, text):
    return subgroup_from_generators(group, _int_rows(parse_matrix(text), "subgroup generator"))


def _lattice(dim, text):
    rows = parse_matrix(text)
    if any(len(r) != dim for r in rows):
        raise ParseError(f"lattice rows must have length {dim}")
    return RationalLattice.from_rows(dim, rows)


def _cell_group(text):
    cell = parse_group(text)
    if cell.free_rank:
        raise DomainError("shift cells must be finite")
    return cell


def _shift_elements(group, text):
    """JSON list of support objects, e.g. ``[{}, {"0": [1]}]``."""
    items = _load_json(text, "shift generators")
    out = []
    for item in items:
        if not isinstance(item, dict):
            raise ParseError("each generator is a position->coords object")
        mapping = {
            _as_int(pos, "position"): [_as_int(c, "coordinate") for c in coords]
            for pos, coords in item.items()
        }
        out.append(group.element(mapping))
    return out


# ------------------------------------------------------------- serializing

def _plain(x):
    if x is None or isinstance(x, (bool, float, str)):
        return x
    if x is INFINITE:
        return "Infinite"
    if isinstance(x, int):
        return str(x)
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    if isinstance(x, dict):
        return {str(k): _plain(v) for k, v in x.items()}
    raise TypeError(f"cannot serialize {type(x).__name__}")


def _report_payload(report):
    out = {
        "path": report.path,
        "steps_used": str(report.steps_used),
        "heuristic": report.heuristic,
        "value": report.value,
    }
    if report.log_of is not None:
        out["log_of"] = str(Fraction(report.log_of))
    elif report.exact_value is not None:
        out["exact_value"] = str(Fraction(report.exact_value))
    else:
        out["error_bound"] = float(report.error_bound)
    if report.cross_check is not None:
        cc = {
            "path": report.cross_check.path,
            "value": report.cross_check.value,
            "agreement": report.cross_check.agreement,
        }
        if report.cross_check.log_of is not None:
            cc["log_of"] = str(Fraction(report.cross_check.log_of))
        if report.cross_check.exact_value is not None:
            cc["exact_value"] = str(Fraction(report.cross_check.exact_value))
        out["cross_check"] = cc
    return out


def _mahler_payload(result):
    out = {
        "exact": result.exact,
        "kronecker": result.kronecker,
        "roots_outside": str(result.roots_outside),
        "value": result.value,
    }
    if result.log_of is not None:
        out["log_of"] = str(result.log_of)
    else:
        out["error_bound"] = float(result.error_bound)
    if result.schedule is not None:
        out["schedule"] = result.schedule
    return out


def _group_payload(group):
    return {
        "invariant_factors": [str(d) for d in group.invariant_factors],
        "free_rank": str(group.free_rank),
        "order": _plain(group.order()),
        "display": repr(group),
    }


def _basis_payload(sub):
    return [_plain(list(row)) for row in sub.basis]


def _emit(payload, mode, stream):
    if mode == "json":
        stream.write(json.dumps(payload, sort_keys=True, separators=(",", ":")))
        stream.write("\n")
        return
    for line in _text_lines("", payload):
        stream.write(line + "\n")


def _text_lines(prefix, value):
    if isinstance(value, dict):
        for key in sorted(value):
            yield from _text_lines(f"{prefix}{key}." if prefix else f"{key}.", value[key])
        return
    if isinstance(value, list):
        yield f"{prefix[:-1]} = {json.dumps(value, sort_keys=True)}"
        return
    yield f"{prefix[:-1]} = {json.dumps(value)}"


# -------------------------------------------------------------- handlers

def _cmd_group_canon(args, cfg):
    return _group_payload(parse_group(args.group))


def _require(args, *names):
    for name in names:
        if getattr(args, name) is None:
            raise ParseError(f"--{name.replace('_', '-')} is required here")


def _sub_pair(args):
    if args.space is not None:
        dim = args.space
        return _lattice(dim, args.sub), _lattice(dim, args.other)
    _require(args, "group")
    group = parse_group(args.group)
    return _fg_sub(group, args.sub), _fg_sub(group, args.other)


def _cmd_sub(args, cfg):
    a, b = _sub_pair(args)
    ops = _ambient_ops(a, b)
    if args.subcommand == "index":
        return {"index": _plain(ops.index(a, b))}
    out = ops.sum(a, b) if args.subcommand == "sum" else ops.meet(a, b)
    return {"basis": _basis_payload(out)}


def _cmd_inert_check(args, cfg):
    if args.cell is not None:
        fam = CylinderFamily(_cell_group(args.cell), two_sided=args.two_sided)
        verdict = cylinder_inert_index(fam, args.k)
    elif args.space is not None:
        _require(args, "sub", "matrix")
        verdict = inert_index(_lattice(args.space, args.sub), _rational_endo(args.matrix))
    else:
        _require(args, "group", "sub", "matrix")
        group = parse_group(args.group)
        verdict = inert_index(_fg_sub(group, args.sub), _fg_endo(group, args.matrix))
    return {"inert": verdict.inert, "index": _plain(verdict.index)}


def _inertial_certificate(args):
    group = parse_group(args.group)
    return is_inertial_endomorphism(_fg_endo(group, args.matrix))


def _cmd_inert_endo(args, cfg):
    cert = _inertial_certificate(args)
    out = {"inertial": cert.inertial, "kind": cert.kind}
    if cert.m is not None:
        out["multiplication_by"] = _plain(cert.m)
    if cert.witness is not None:
        out["witness"] = {"basis": _basis_payload(cert.witness)}
    return out


def _cmd_inert_witness(args, cfg):
    cert = _inertial_certificate(args)
    if cert.witness is None:
        return {"witness": None}
    return {"witness": {"basis": _basis_payload(cert.witness)}}


def _cmd_fullyinert_check(args, cfg):
    if args.space is not None:
        h = _lattice(args.space, args.sub)
    else:
        _require(args, "group")
        h = _fg_sub(parse_group(args.group), args.sub)
    return {"fully_inert": is_fully_inert(h)}


def _cmd_fullyinert_classify(args, cfg):
    verdict = classify_self_inert(parse_descriptor(args.descriptor))
    return {"verdict": verdict.verdict, "reason": verdict.reason}


def _cmd_entropy_ent(args, cfg):
    if args.cell is not None:
        phi = ShiftGroup(_cell_group(args.cell))
    else:
        _require(args, "group", "matrix")
        phi = _fg_endo(parse_group(args.group), args.matrix)
    return _report_payload(ent(phi, cfg))


def _entropy_endo(args):
    if args.group is not None:
        return _fg_endo(parse_group(args.group), args.matrix)
    return _rational_endo(args.matrix)


def _cmd_entropy_halg(args, cfg):
    phi = _entropy_endo(args)
    report = h_alg_yuzvinski(phi, schedule=args.schedule, config=cfg)
    return _report_payload(report)


def _cmd_entropy_intrinsic(args, cfg):
    report = intrinsic_entropy(_entropy_endo(args), cross_check=args.cross_check, config=cfg)
    return _report_payload(report)


def _fg_or_lattice_pair(args):
    _require(args, "matrix", "sub")
    if args.group is not None:
        group = parse_group(args.group)
        return _fg_endo(group, args.matrix), _fg_sub(group, args.sub)
    phi = _rational_endo(args.matrix)
    return phi, _lattice(phi.dim, args.sub)


def _cmd_entropy_adjoint(args, cfg):
    phi, h = _fg_or_lattice_pair(args)
    # the step budget is checked before the entropy is computed
    tail = adjoint_cotrajectory(phi, h, args.steps, cfg) if args.steps else None
    payload = _report_payload(intrinsic_adjoint_entropy(phi, h, cfg))
    if tail is not None:
        payload["cotrajectory_basis"] = _basis_payload(tail)
    return payload


def _cmd_entropy_limitfree(args, cfg):
    if args.cell is not None:
        group = ShiftGroup(_cell_group(args.cell))
        gens = (
            _shift_elements(group, args.gens)
            if args.gens is not None
            else group.first_coordinate_copy()
        )
        return _report_payload(limit_free_h(group, gens, cfg))
    phi, h = _fg_or_lattice_pair(args)
    return _report_payload(limit_free_h(phi, h, cfg))


def _cmd_entropy_htop(args, cfg):
    fam = CylinderFamily(_cell_group(args.cell))
    return _report_payload(h_top_shift(fam))


def _cmd_entropy_scale(args, cfg):
    fam = CylinderFamily(_cell_group(args.cell), two_sided=True)
    return {
        "scale": str(scale_over_family(fam, args.max_index)),
        "family_relative": True,
        "max_index": str(args.max_index),
    }


def _cmd_entropy_stabilized(args, cfg):
    phi, h = _fg_or_lattice_pair(args)
    return _report_payload(h_alg_stabilized(phi, h, cfg))


def _cmd_growth_classify(args, cfg):
    return {"growth": classify_growth(_entropy_endo(args))}


def _cmd_growth_sumset(args, cfg):
    if args.cell is not None:
        group = ShiftGroup(_cell_group(args.cell))
        points = _shift_elements(group, args.points)
        sizes = sumset_growth(group, points, args.n, cfg)
    else:
        _require(args, "group", "matrix")
        group = parse_group(args.group)
        phi = _fg_endo(group, args.matrix)
        points = _int_rows(parse_matrix(args.points), "point")
        sizes = sumset_growth(phi, points, args.n, cfg)
    return {"sizes": [str(s) for s in sizes]}


def _cmd_mahler_measure(args, cfg):
    result = mahler_measure(
        parse_poly(args.poly),
        schedule=args.schedule,
        config=cfg,
        use_exact_paths=not args.numeric,
    )
    return _mahler_payload(result)


def _cmd_mahler_kronecker(args, cfg):
    return {"kronecker": kronecker_test(parse_poly(args.poly))}


def _cmd_mahler_scan(args, cfg):
    found = small_measure_scan(args.degree_max, args.height_max, args.threshold, cfg)
    return {
        "count": str(len(found)),
        "polynomials": [
            {"coeffs": [str(c) for c in poly.coeffs], "measure": _mahler_payload(res)}
            for poly, res in found
        ],
    }


def _nonabelian_group(args):
    if args.table is not None:
        table = [
            [_as_int(x, "table entry") for x in row]
            for row in _load_json(args.table, "Cayley table")
        ]
        return FiniteGroup(table)
    if args.order is None:
        raise ParseError("need either --table or --order")
    catalog = all_groups_of_order(args.order)
    if not 0 <= args.index < len(catalog):
        raise DomainError(
            f"order {args.order} has {len(catalog)} groups; index {args.index} is out of range"
        )
    return catalog[args.index]


def _cmd_nonabelian_traj(args, cfg):
    group = _nonabelian_group(args)
    phi = [_as_int(x, "image") for x in _load_json(args.phi, "endomorphism map")]
    subset = [_as_int(x, "element") for x in _load_json(args.subset, "subset")]
    sub = None
    if args.n < 0:
        raise DomainError("step count must be >= 0")
    cfg.check_steps(args.n)
    if args.subgroup is not None:
        sub = frozenset(_as_int(x, "element") for x in _load_json(args.subgroup, "subgroup"))
    sets = list(islice(_product_trajectory(group, phi, subset), args.n + 1))
    out = {"order": str(group.order), "sizes": [str(len(t)) for t in sets]}
    if sub is not None:
        counts = [minimal_transversal_count(group, sub, t) for t in sets]
        out["transversal_counts"] = [str(c) for c in counts]
        t = counts[1] if len(counts) > 1 else 1
        out["bound_base"] = str(t)
        out["bound_holds"] = all(c <= t**k for k, c in enumerate(counts))
    return out


# ------------------------------------------------------------ the parser

class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise ParseError(message)


def _add_config_flags(parser, leaf=False):
    # leaf copies suppress their defaults: the subparser would otherwise
    # overwrite values already parsed at the top level (bpo-9351)
    default = argparse.SUPPRESS if leaf else None
    parser.add_argument("--tolerance", type=float, default=default)
    parser.add_argument("--max-steps", type=int, default=default)
    parser.add_argument("--element-cap", type=int, default=default)
    parser.add_argument("--output", choices=("json", "text"), default=default)


def _session_config(args):
    overrides = {}
    if args.tolerance is not None:
        overrides["tolerance"] = args.tolerance
    if args.max_steps is not None:
        overrides["max_steps"] = args.max_steps
    if args.element_cap is not None:
        overrides["element_cap"] = args.element_cap
    if args.output is not None:
        overrides["output_mode"] = args.output
    try:
        return replace(default_config(), **overrides)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


@functools.cache
def build_parser():
    top = _ArgumentParser(prog="algentropy", description=__doc__)
    _add_config_flags(top)
    common = _ArgumentParser(add_help=False)
    _add_config_flags(common, leaf=True)
    commands = top.add_subparsers(dest="command", required=True)

    p = commands.add_parser("group", help="ambient group utilities")
    sub = p.add_subparsers(dest="subcommand", required=True)
    q = sub.add_parser("canon", help="canonical invariant factors", parents=[common])
    q.add_argument("--group", required=True)
    q.set_defaults(handler=_cmd_group_canon)

    p = commands.add_parser("sub", help="subgroup and lattice arithmetic")
    sub = p.add_subparsers(dest="subcommand", required=True)
    for name, text in (
        ("index", "index [A : A meet B]"),
        ("sum", "canonical basis of A + B"),
        ("meet", "canonical basis of A meet B"),
    ):
        q = sub.add_parser(name, help=text, parents=[common])
        q.add_argument("--group")
        q.add_argument("--space", type=int, help="ambient Q^n dimension")
        q.add_argument("--sub", required=True)
        q.add_argument("--other", required=True)
        q.set_defaults(handler=_cmd_sub)

    p = commands.add_parser("inert", help="inertness decisions")
    sub = p.add_subparsers(dest="subcommand", required=True)
    q = sub.add_parser("check", help="inert index of a subgroup under a map", parents=[common])
    q.add_argument("--group")
    q.add_argument("--space", type=int)
    q.add_argument("--cell", help="cylinder route: shift cell")
    q.add_argument("--two-sided", action="store_true")
    q.add_argument("--k", type=int, default=0, help="cylinder index")
    q.add_argument("--sub")
    q.add_argument("--matrix")
    q.set_defaults(handler=_cmd_inert_check)
    q = sub.add_parser("endo", help="is every subgroup inert under the map", parents=[common])
    q.add_argument("--group", required=True)
    q.add_argument("--matrix", required=True)
    q.set_defaults(handler=_cmd_inert_endo)
    q = sub.add_parser("witness", help="a subgroup with infinite inert index", parents=[common])
    q.add_argument("--group", required=True)
    q.add_argument("--matrix", required=True)
    q.set_defaults(handler=_cmd_inert_witness)

    p = commands.add_parser("fullyinert", help="inert under every endomorphism")
    sub = p.add_subparsers(dest="subcommand", required=True)
    q = sub.add_parser("check", parents=[common])
    q.add_argument("--group")
    q.add_argument("--space", type=int)
    q.add_argument("--sub", required=True)
    q.set_defaults(handler=_cmd_fullyinert_check)
    q = sub.add_parser("classify", help="self-inertness from a group descriptor", parents=[common])
    q.add_argument("--descriptor", required=True)
    q.set_defaults(handler=_cmd_fullyinert_classify)

    p = commands.add_parser("entropy", help="the entropy family")
    sub = p.add_subparsers(dest="subcommand", required=True)
    q = sub.add_parser("ent", help="entropy over finite subgroups", parents=[common])
    q.add_argument("--cell", help="Bernoulli shift cell")
    q.add_argument("--group")
    q.add_argument("--matrix")
    q.set_defaults(handler=_cmd_entropy_ent)
    q = sub.add_parser("halg", help="full algebraic entropy", parents=[common])
    q.add_argument("--group")
    q.add_argument("--matrix", required=True)
    q.add_argument("--schedule", choices=("aberth", "durand_kerner"), default="aberth")
    q.set_defaults(handler=_cmd_entropy_halg)
    q = sub.add_parser("intrinsic", help="intrinsic entropy", parents=[common])
    q.add_argument("--group")
    q.add_argument("--matrix", required=True)
    q.add_argument("--cross-check", action="store_true")
    q.set_defaults(handler=_cmd_entropy_intrinsic)
    q = sub.add_parser("stabilized", help="stabilized index-sequence entropy", parents=[common])
    q.add_argument("--group")
    q.add_argument("--matrix", required=True)
    q.add_argument("--sub", required=True)
    q.set_defaults(handler=_cmd_entropy_stabilized)
    q = sub.add_parser("adjoint", help="intrinsic adjoint entropy", parents=[common])
    q.add_argument("--group")
    q.add_argument("--matrix", required=True)
    q.add_argument("--sub", required=True)
    q.add_argument("--steps", type=int, default=0, help="also print C_n for this n")
    q.set_defaults(handler=_cmd_entropy_adjoint)
    q = sub.add_parser("limitfree", help="limit-free formula", parents=[common])
    q.add_argument("--cell")
    q.add_argument("--gens", help="shift generators as JSON support maps")
    q.add_argument("--group")
    q.add_argument("--matrix")
    q.add_argument("--sub")
    q.set_defaults(handler=_cmd_entropy_limitfree)
    q = sub.add_parser("htop", help="topological entropy of the full shift", parents=[common])
    q.add_argument("--cell", required=True)
    q.set_defaults(handler=_cmd_entropy_htop)
    q = sub.add_parser("scale", help="scale over the cylinder family", parents=[common])
    q.add_argument("--cell", required=True)
    q.add_argument("--max-index", type=int, default=10)
    q.set_defaults(handler=_cmd_entropy_scale)

    p = commands.add_parser("growth", help="trajectory growth")
    sub = p.add_subparsers(dest="subcommand", required=True)
    q = sub.add_parser("classify", help="polynomial or exponential", parents=[common])
    q.add_argument("--group")
    q.add_argument("--matrix", required=True)
    q.set_defaults(handler=_cmd_growth_classify)
    q = sub.add_parser("sumset", help="exact trajectory sizes", parents=[common])
    q.add_argument("--cell")
    q.add_argument("--group")
    q.add_argument("--matrix")
    q.add_argument("--points", required=True)
    q.add_argument("--n", type=int, required=True)
    q.set_defaults(handler=_cmd_growth_sumset)

    p = commands.add_parser("mahler", help="Mahler measure")
    sub = p.add_subparsers(dest="subcommand", required=True)
    q = sub.add_parser("measure", parents=[common])
    q.add_argument("--poly", required=True)
    q.add_argument("--schedule", choices=("aberth", "durand_kerner"), default="aberth")
    q.add_argument("--numeric", action="store_true", help="skip the exact shortcut paths")
    q.set_defaults(handler=_cmd_mahler_measure)
    q = sub.add_parser("kronecker", parents=[common])
    q.add_argument("--poly", required=True)
    q.set_defaults(handler=_cmd_mahler_kronecker)
    q = sub.add_parser("scan", help="survey of small positive measures", parents=[common])
    q.add_argument("--degree-max", type=int, default=10)
    q.add_argument("--height-max", type=int, default=1)
    q.add_argument("--threshold", type=float, default=0.2)
    q.set_defaults(handler=_cmd_mahler_scan)

    p = commands.add_parser("nonabelian", help="finite nonabelian trajectories")
    sub = p.add_subparsers(dest="subcommand", required=True)
    q = sub.add_parser("traj", help="trajectory sizes and transversal counts", parents=[common])
    q.add_argument("--table", help="Cayley table as a JSON matrix")
    q.add_argument("--order", type=int, help="catalog group order (<= 24)")
    q.add_argument("--index", type=int, default=0, help="catalog position")
    q.add_argument("--phi", required=True, help="endomorphism as a JSON image list")
    q.add_argument("--subset", required=True, help="JSON element list")
    q.add_argument("--subgroup", help="JSON element list for transversal counts")
    q.add_argument("--n", type=int, required=True)
    q.set_defaults(handler=_cmd_nonabelian_traj)

    return top


def run(argv, stdout=None, stderr=None):
    """Parse, dispatch, serialize.  Returns the process exit code.

    Integers of any size pass: CPython's limit on int/str conversion
    (4,300 digits since 3.11 and 3.10.7) is lifted for the call and
    restored after it.
    """
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    mode = "json"
    digits = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if digits is not None:
        sys.set_int_max_str_digits(0)
    try:
        args = build_parser().parse_args(argv)
        cfg = _session_config(args)
        mode = cfg.output_mode
        payload = args.handler(args, cfg)
    except ParseError as exc:
        stderr.write(f"parse error: {exc}\n")
        return 1
    except ResourceError as exc:
        stderr.write(f"budget error: {exc}\n")
        return 3
    except DomainError as exc:
        stderr.write(f"domain error: {exc}\n")
        return 2
    except ValueError as exc:
        stderr.write(f"domain error: {exc}\n")
        return 2
    else:
        _emit(payload, mode, stdout)
        return 0
    finally:
        if digits is not None:
            sys.set_int_max_str_digits(digits)


def main(argv=None):
    return run(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
