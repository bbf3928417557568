"""The entropy family.

Every function returns an :class:`EntropyReport` whose value is either
the log of an explicit positive rational (exact paths), an exact
rational number (dimension-like invariants), or a certified float with
an error bound (Mahler paths).  When two computation paths run, both
land in the report and the agreement flag is set; exact paths must
agree bit-exactly.

Computation paths
-----------------
* ``stabilization``: the index sequence a_n = |T_{n+1}/T_n| of a
  trajectory, run until a configurable window of equal values appears.
  The sequence is weakly decreasing (each quotient is an epic image of
  the previous one), but a plateau as long as the window can still drop
  later (480, 480, 480, then 160 on a 4x4 rational map), so every
  stabilized value carries a ``heuristic`` flag: no effective
  stabilization bound is known.
* ``leading_coefficient``: intrinsic entropy as log of the leading
  coefficient of the primitive characteristic polynomial.
* ``yuzvinski``: full algebraic entropy as the Mahler measure of the
  same polynomial.
* ``limit_free``: log |T/phi T| - log |ker phi ∩ T| on a saturating
  trajectory.
* ``cotrajectory``: the stationary index of the adjoint chain
  C_{n+1} = H ∩ phi^{-1}(C_n).
* ``symbolic_shift``: closed forms on Bernoulli shifts and cylinder
  families; no element of an infinite product is ever materialized.

On a finitely generated group the plain entropy ``ent`` is the
stabilized value on the torsion subgroup and is always 0; the shift
models are where nonzero values live.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import count, islice, pairwise

from .abelian import Endo, Subgroup
from .base import is_finite
from .config import default_config
from .errors import (
    BudgetExceededError,
    DomainError,
    NotInertError,
    StabilizationError,
    UnsupportedAmbientError,
)
from .inertia import _ambient_ops, inert_index, strict_inert_index
from .mahler import kronecker_test, mahler_measure
from .models import (
    LinearShiftSpace,
    ShiftElement,
    ShiftGroup,
    shift_trajectory_order,
)
from .rational import RationalEndo, RationalLattice, charpoly_primitive

__all__ = [
    "CrossCheck",
    "EntropyReport",
    "trajectory",
    "ent",
    "h_alg_stabilized",
    "intrinsic_entropy",
    "h_alg_yuzvinski",
    "i_entropy",
    "limit_free_h",
    "adjoint_cotrajectory",
    "intrinsic_adjoint_entropy",
    "h_top_shift",
    "scale_over_family",
    "classify_growth",
    "sumset_growth",
]

PLUGINS = ("log_order", "dimension", "rank")


@dataclass(frozen=True)
class CrossCheck:
    """A second computation path bundled into a report."""

    path: str
    value: float
    log_of: object = None
    exact_value: object = None
    agreement: bool = True


@dataclass(frozen=True)
class EntropyReport:
    """A computed entropy value with provenance.

    Exactly one of three value forms is active: ``log_of`` (the value
    is log of that positive rational), ``exact_value`` (the value is
    that rational itself), or neither (certified float within
    ``error_bound``).
    """

    value: float
    path: str
    log_of: object = None
    exact_value: object = None
    error_bound: float = 0.0
    steps_used: int = 0
    heuristic: bool = False
    cross_check: object = None

    @property
    def exact(self):
        return self.log_of is not None or self.exact_value is not None


def _log_value(q):
    q = Fraction(q)
    if q <= 0:
        raise ValueError("log of a non-positive rational")
    return math.log(q.numerator) - math.log(q.denominator)


def _log_report(q, path, steps=0, heuristic=False, cross=None):
    q = Fraction(q)
    return EntropyReport(
        value=_log_value(q),
        path=path,
        log_of=q,
        steps_used=steps,
        heuristic=heuristic,
        cross_check=cross,
    )


def _stabilize(values, cfg, what):
    """The prefix of ``values`` up to its first window of equal values.

    At most ``cfg.max_steps`` values are drawn; a stream that shows no
    window of ``cfg.stabilization_window`` equal values by then raises.
    """
    window = cfg.stabilization_window
    seen = []
    for value in islice(values, cfg.max_steps):
        seen.append(value)
        if len(seen) >= window and len(set(seen[-window:])) == 1:
            return seen
    raise StabilizationError(
        f"{what} did not settle within {cfg.max_steps} steps"
    )


def _trajectory(ops, phi, h):
    """T_1 = H, T_2, T_3, ... with T_{n+1} = T_n + phi^n H."""
    total = image = h
    while True:
        yield total
        image = ops.apply(phi, image)
        total = ops.sum(total, image)


def _cotrajectory(ops, phi, h):
    """C_1 = H, C_2, C_3, ... with C_{n+1} = H ∩ phi^{-1} C_n."""
    current = h
    while True:
        yield current
        current = ops.preimage(phi, current, h)


def _finite(values, error, message):
    for value in values:
        if not is_finite(value):
            raise error(message)
        yield value


def _to_rational_endo(phi):
    if isinstance(phi, RationalEndo):
        return phi
    if isinstance(phi, Endo):
        block = phi.free_block()
        return RationalEndo(
            phi.group.free_rank, [[Fraction(x) for x in row] for row in block]
        )
    raise UnsupportedAmbientError(
        f"no matrix extension for {type(phi).__name__}"
    )


def _shift_gens(group, f):
    gens = tuple(f)
    for g in gens:
        if not isinstance(g, ShiftElement) or g.group != group:
            raise DomainError("generators must live in the shift group")
    return gens


def trajectory(phi, f, n, cap=None):
    """T_n = F + phi F + ... + phi^{n-1} F, canonical.

    For a shift group pass the group itself as ``phi`` (its canonical
    endomorphism is the right shift) and generators of F; the result is
    the full element set, of at most ``cap`` elements (default: the
    session's ``element_cap``).

    >>> from .rational import RationalEndo, RationalLattice
    >>> phi = RationalEndo.scalar(1, Fraction(3, 2))
    >>> trajectory(phi, RationalLattice.standard(1), 3).basis
    ((Fraction(1, 4),),)
    """
    if n < 1:
        raise DomainError("trajectory needs n >= 1")
    if isinstance(phi, ShiftGroup):
        gens = _shift_gens(phi, f)
        shifted = [g.shifted(i) for i in range(n) for g in gens]
        if cap is None:
            cap = default_config().element_cap
        return phi.closure(shifted, cap=cap)
    return next(islice(_trajectory(_ambient_ops(f, phi), phi, f), n - 1, None))


def h_alg_stabilized(phi, h, config=None):
    """Algebraic entropy of (phi, H) by index-sequence stabilization.

    Requires H to be phi-inert in the additive sense; the sequence
    a_n = |T_{n+1}/T_n| is then finite, weakly decreasing, and the
    stabilized value a gives log a.

    >>> from .rational import RationalEndo, RationalLattice
    >>> r = h_alg_stabilized(RationalEndo.scalar(1, Fraction(3, 2)),
    ...                      RationalLattice.standard(1))
    >>> r.log_of, r.heuristic
    (Fraction(2, 1), True)
    """
    cfg = config or default_config()
    if isinstance(phi, ShiftGroup):
        return _shift_stabilized(phi, h, cfg)
    if not is_finite(strict_inert_index(h, phi)):
        raise NotInertError("subgroup is not inert under the map")
    return _index_stabilized(phi, h, cfg)


def _index_stabilized(phi, h, cfg):
    ops = _ambient_ops(h, phi)
    steps = (ops.index(b, a) for a, b in pairwise(_trajectory(ops, phi, h)))
    steps = _finite(steps, DomainError, "trajectory left the finite world")
    seen = _stabilize(steps, cfg, "index sequence")
    return _log_report(seen[-1], "stabilization", len(seen), heuristic=True)


def _shift_stabilized(group, gens, cfg):
    gens = _shift_gens(group, gens)
    orders = (
        shift_trajectory_order(group, gens, n, cap=cfg.element_cap)
        for n in count(1)
    )
    seen = _stabilize(
        (big // small for small, big in pairwise(orders)), cfg, "index sequence"
    )
    return _log_report(seen[-1], "stabilization", len(seen), heuristic=True)


def ent(phi, config=None):
    """Entropy over finite subgroups.

    On a finitely generated group this is the stabilized value on the
    torsion subgroup, hence always 0; the call still runs the honest
    computation.  On a shift group it is attained on the cell copy at
    position 0 and equals log of the cell order.

    >>> from .models import ShiftGroup
    >>> from .abelian import FgAbGroup
    >>> ent(ShiftGroup(FgAbGroup([2, 2]))).log_of
    Fraction(4, 1)
    """
    cfg = config or default_config()
    if isinstance(phi, ShiftGroup):
        return h_alg_stabilized(phi, phi.first_coordinate_copy(), cfg)
    if isinstance(phi, Endo):
        return h_alg_stabilized(phi, phi.group.torsion_subgroup(), cfg)
    if isinstance(phi, RationalEndo):
        return h_alg_stabilized(phi, RationalLattice.zero(phi.dim), cfg)
    raise UnsupportedAmbientError(f"no ent procedure for {type(phi).__name__}")


def intrinsic_entropy(phi, cross_check=False, config=None):
    """log of the leading coefficient of the primitive charpoly.

    With ``cross_check`` the stabilization path runs on the standard
    lattice and must agree exactly.

    >>> from .rational import RationalEndo
    >>> intrinsic_entropy(RationalEndo.scalar(1, Fraction(3, 2))).log_of
    Fraction(2, 1)
    """
    rendo = _to_rational_endo(phi)
    lead = charpoly_primitive(rendo).leading
    cross = None
    if cross_check:
        stab = h_alg_stabilized(
            rendo, RationalLattice.standard(rendo.dim), config
        )
        cross = CrossCheck(
            path=stab.path,
            value=stab.value,
            log_of=stab.log_of,
            agreement=stab.log_of == Fraction(lead),
        )
    return _log_report(lead, "leading_coefficient", cross=cross)


def h_alg_yuzvinski(phi, tol=None, schedule="aberth", config=None):
    """Full algebraic entropy as the Mahler measure of the charpoly.

    Integer matrices on Z^n are computed on the Q^n extension (the
    union of the invariant subgroups (1/k!)Z^n), which leaves the
    characteristic polynomial unchanged.

    >>> from .rational import RationalEndo
    >>> h_alg_yuzvinski(RationalEndo.scalar(1, Fraction(3, 2))).log_of
    Fraction(3, 1)
    """
    cfg = config or default_config()
    rendo = _to_rational_endo(phi)
    poly = charpoly_primitive(rendo)
    result = mahler_measure(poly, tol=tol, schedule=schedule, config=cfg)
    if result.exact:
        return _log_report(result.log_of, "yuzvinski")
    return EntropyReport(
        value=result.value,
        path="yuzvinski",
        error_bound=float(result.error_bound),
    )


def i_entropy(phi, seed, plugin, config=None):
    """Entropy for a subadditive invariant: log_order, dimension, rank.

    The per-step increments of i(T_n) are non-increasing for these
    plugins, so the same window rule detects the limit of i(T_n)/n.

    >>> V = LinearShiftSpace(2)
    >>> i_entropy(V, [V.vector([1])], "dimension").exact_value
    Fraction(1, 1)
    """
    cfg = config or default_config()
    if plugin not in PLUGINS:
        raise DomainError(f"unknown invariant plugin {plugin!r}")
    if isinstance(phi, ShiftGroup):
        if plugin != "log_order":
            raise DomainError("shift groups carry the log_order invariant")
        return _shift_stabilized(phi, seed, cfg)
    if isinstance(phi, LinearShiftSpace):
        if plugin == "log_order":
            raise DomainError("sequence spaces carry dimension-like invariants")
        if plugin == "rank" and phi.p != 0:
            raise DomainError("rank means dimension over the rationals")
        return _increments_stabilized(_span_dims(phi, seed), cfg)
    if isinstance(phi, Endo) and isinstance(seed, Subgroup):
        if plugin == "log_order":
            if not is_finite(seed.order()):
                raise DomainError("log_order needs a finite starting subgroup")
            return _index_stabilized(phi, seed, cfg)
        if plugin == "rank":
            chain = _trajectory(_ambient_ops(seed, phi), phi, seed)
            return _increments_stabilized(map(Subgroup.free_rank, chain), cfg)
        raise DomainError("dimension plugin lives on sequence spaces")
    raise UnsupportedAmbientError(
        f"no invariant procedure for {type(phi).__name__}"
    )


def _span_dims(space, seed):
    """dim of seed + shift(seed) + ... + shift^{n-1}(seed), n = 1, 2, ..."""
    pool = [space.vector(v) for v in seed]
    moving = list(pool)
    while True:
        yield space.dim(pool)
        moving = [space.shift(v) for v in moving]
        pool.extend(moving)


def _increments_stabilized(sizes, cfg):
    seen = _stabilize((b - a for a, b in pairwise(sizes)), cfg, "increments")
    return EntropyReport(
        value=float(seen[-1]),
        path="stabilization",
        exact_value=Fraction(seen[-1]),
        steps_used=len(seen),
        heuristic=True,
    )


def limit_free_h(phi, f, config=None):
    """log |T/phi T| - log |ker phi ∩ T| on the full trajectory T.

    The trajectory must saturate (T_{n+1} = T_n detected exactly; from
    that point it is phi-invariant forever), or the ambient must be a
    shift group whose seed generates at least the cell copy at position
    0, where the cokernel form gives log of the cell order outright.

    >>> from .models import ShiftGroup
    >>> from .abelian import FgAbGroup
    >>> B = ShiftGroup(FgAbGroup([3, 3]))
    >>> limit_free_h(B, B.first_coordinate_copy()).log_of
    Fraction(9, 1)
    """
    cfg = config or default_config()
    if isinstance(phi, ShiftGroup):
        return _limit_free_shift(phi, f, cfg)
    ops = _ambient_ops(f, phi)
    chain = islice(pairwise(_trajectory(ops, phi, f)), cfg.max_steps)
    for total, bigger in chain:
        if bigger == total:
            return _limit_free_value(ops, phi, total)
    raise StabilizationError(
        f"trajectory did not saturate within {cfg.max_steps} steps"
    )


def _limit_free_value(ops, phi, total):
    over = ops.index(total, ops.apply(phi, total))
    zero = ops.zero(total)
    kernel_part = ops.index(ops.preimage(phi, zero, total), zero)
    if not (is_finite(over) and is_finite(kernel_part)):
        raise DomainError("limit-free quantities are infinite here")
    return _log_report(Fraction(over, kernel_part), "limit_free")


def _limit_free_shift(group, gens, cfg):
    gens = _shift_gens(group, gens)
    if all(g.is_zero() for g in gens):
        return _log_report(1, "limit_free")
    copy = group.closure(group.first_coordinate_copy(), cap=cfg.element_cap)
    span = group.closure(gens, cap=cfg.element_cap)
    if copy <= span:
        # T = the whole direct sum; coker of the shift is one cell, kernel 0
        return _log_report(group.cell.order(), "symbolic_shift")
    raise DomainError("trajectory neither finite nor symbolic")


def _cotrajectory_ops(phi, h):
    if isinstance(phi, ShiftGroup):
        raise UnsupportedAmbientError(
            "shift cotrajectories are symbolic; use the cylinder family"
        )
    return _ambient_ops(h, phi)


def adjoint_cotrajectory(phi, h, n):
    """C_n = H ∩ phi^{-1}(H) ∩ ... ∩ phi^{-n+1}(H), canonical.

    >>> from .rational import RationalEndo, RationalLattice
    >>> half = RationalEndo.scalar(1, Fraction(1, 2))
    >>> adjoint_cotrajectory(half, RationalLattice.standard(1), 3).basis
    ((Fraction(4, 1),),)
    """
    if n < 1:
        raise DomainError("cotrajectory needs n >= 1")
    ops = _cotrajectory_ops(phi, h)
    return next(islice(_cotrajectory(ops, phi, h), n - 1, None))


def intrinsic_adjoint_entropy(phi, h, config=None):
    """log of the stationary index [C_n : C_{n+1}] of the adjoint chain.

    >>> from .rational import RationalEndo, RationalLattice
    >>> fifth = RationalEndo.scalar(1, Fraction(1, 5))
    >>> intrinsic_adjoint_entropy(fifth, RationalLattice.standard(1)).log_of
    Fraction(5, 1)
    """
    cfg = config or default_config()
    ops = _cotrajectory_ops(phi, h)
    if not inert_index(h, phi).inert:
        raise NotInertError("subgroup is not inert under the map")
    steps = (ops.index(a, b) for a, b in pairwise(_cotrajectory(ops, phi, h)))
    # [C_n : C_{n+1}] <= [H : C_2], finite by inertness; kept as a guard
    steps = _finite(steps, NotInertError, "cotrajectory indices are infinite")
    seen = _stabilize(steps, cfg, "cotrajectory indices")
    return _log_report(seen[-1], "cotrajectory", len(seen), heuristic=True)


def h_top_shift(fam, config=None):
    """Topological entropy of the left shift on the full product.

    The measure-free cotrajectory form gives [U_k : C_n] = |F|^{n-1},
    so the per-step limit is exactly log |F|.

    >>> from .models import CylinderFamily
    >>> from .abelian import FgAbGroup
    >>> h_top_shift(CylinderFamily(FgAbGroup([2]))).log_of
    Fraction(2, 1)
    """
    if fam.two_sided:
        raise DomainError("topological entropy here uses the one-sided family")
    from .models import cylinder_cotrajectory_index

    per_step = cylinder_cotrajectory_index(fam, 0, 2)
    return _log_report(per_step, "cotrajectory")


def scale_over_family(fam, max_index=10):
    """min over k <= max_index of s(shift, U_k); family-relative.

    The minimum is over the supplied cylinder family only, not over all
    compact open subgroups, so treat it as an upper bound for the scale.

    >>> from .models import CylinderFamily
    >>> from .abelian import FgAbGroup
    >>> scale_over_family(CylinderFamily(FgAbGroup([5]), two_sided=True))
    5
    """
    from .models import two_sided_shift_inert_index

    if max_index < 0:
        raise DomainError("the family slice must be nonempty")
    return min(
        two_sided_shift_inert_index(fam, k) for k in range(max_index + 1)
    )


def classify_growth(phi):
    """Dichotomy: polynomial growth iff the charpoly is Kronecker.

    >>> from .abelian import Endo, FgAbGroup
    >>> classify_growth(Endo(FgAbGroup([], 2), [[0, -1], [1, 0]]))
    'polynomial'
    >>> classify_growth(Endo(FgAbGroup([], 2), [[0, 1], [1, 1]]))
    'exponential'
    """
    rendo = _to_rational_endo(phi)
    poly = charpoly_primitive(rendo)
    return "polynomial" if kronecker_test(poly) else "exponential"


def _sumset_points(phi, points):
    if isinstance(phi, Endo):
        group = phi.group
        elems = []
        for p in points:
            elems.append(p if hasattr(p, "coords") else group.element(p))
        if any(e.group != group for e in elems):
            raise DomainError("points must live in the endomorphism's group")
        zero = group.zero()
        return elems, phi.apply, (lambda a, b: a + b), zero
    if isinstance(phi, ShiftGroup):
        elems = _shift_gens(phi, points)
        zero = phi.zero()
        return list(elems), (lambda x: x.shifted()), (lambda a, b: a + b), zero
    raise UnsupportedAmbientError(
        f"no sumset procedure for {type(phi).__name__}"
    )


def sumset_growth(phi, points, n_max, config=None):
    """Exact sizes of the setwise sums T_1, ..., T_{n_max}.

    When the seed contains 0 the log-sizes are subadditive; that is
    asserted on the computed prefix on every run.

    >>> from .abelian import Endo, FgAbGroup
    >>> Z = FgAbGroup([], 1)
    >>> sumset_growth(Endo(Z, [[2]]), [[0], [1]], 4)
    (2, 4, 8, 16)
    """
    cfg = config or default_config()
    if n_max < 1:
        raise DomainError("need n_max >= 1")
    elems, apply_map, add, zero = _sumset_points(phi, points)
    if not elems:
        raise DomainError("the seed set must be nonempty")
    has_zero = zero in elems
    current = set(elems)
    moving = list(elems)
    sizes = [len(current)]
    for _ in range(n_max - 1):
        moving = [apply_map(x) for x in moving]
        current = {add(a, b) for a in current for b in moving}
        if len(current) > cfg.element_cap:
            raise BudgetExceededError(
                f"sumset size exceeded cap {cfg.element_cap}"
            )
        sizes.append(len(current))
    if has_zero:
        for i in range(1, len(sizes) + 1):
            for j in range(1, len(sizes) + 1 - i):
                if sizes[i + j - 1] > sizes[i - 1] * sizes[j - 1]:
                    raise AssertionError(
                        "subadditivity violated; trajectory logic is wrong"
                    )  # pragma: no cover - internal consistency
    return tuple(sizes)
