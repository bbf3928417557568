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
  trajectory, or the increments of a rank or dimension.  The sequence is
  weakly decreasing (each quotient is an epic image of the previous
  one), so it stops, exactly, at its first value equal to its limit:
  1 for an index on a finitely generated group (a_n = 1 gives
  T_{n+2} = T_{n+1} = T_n), and over Q^n the leading coefficient of the
  primitive charpoly of phi restricted to QH (the intrinsic Yuzvinski
  formula: Dikranjan, Giordano Bruno, Salce & Virili, J. Pure Appl.
  Algebra 219, 2015), 0 for a rank increment.  On a shift group or a
  sequence space it stops at the first window state K_{n+1} = K_n (the
  part of T_n beyond the seed's first n places); every later state, and
  so every later value, is the same.  One loop, given a reducer and a
  place width, computes the states; on a shift group they are Hermite
  forms, so T_n is never enumerated.  A plateau is never taken for the
  limit (480, 480, 480, then 160 on a 4x4 map), and a sequence that
  does not reach its limit within ``max_steps`` raises.
* ``leading_coefficient``: intrinsic entropy as log of the leading
  coefficient of the primitive characteristic polynomial.
* ``yuzvinski``: full algebraic entropy as the Mahler measure of the
  same polynomial.
* ``limit_free``: log |T/phi T| - log |ker phi ∩ T| on a saturating
  trajectory.
* ``cotrajectory``: the stationary index of the adjoint chain
  C_{n+1} = H ∩ phi^{-1}(C_n).  Its indices are weakly decreasing too
  (phi embeds C_n/C_{n+1} in C_{n-1}/C_n) and stop at the same limits:
  by duality C_n* = T_n(phi^T, H*) (Dikranjan, Giordano Bruno & Salce,
  J. Algebra 324, 2010).
* ``symbolic_shift``: closed forms on Bernoulli shifts and cylinder
  families; no element of an infinite product is ever materialized.

On a finitely generated group the plain entropy ``ent`` is the
stabilized value on the torsion subgroup and is always 0; the shift
models are where nonzero values live.
"""

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import islice, pairwise

from .abelian import Endo, Subgroup
from .base import is_finite, setwise_trajectory
from .config import default_config
from .errors import (
    DomainError,
    NotInertError,
    StabilizationError,
    UnsupportedAmbientError,
)
from .inertia import _ambient_ops
from .intlinalg import matvec
from .mahler import kronecker_test, mahler_measure
from .models import (
    LinearShiftSpace,
    ShiftElement,
    ShiftGroup,
    _shift_trajectory,
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
    ``error_bound``).  ``heuristic`` is always false: every
    stabilization stops at a proven limit.  The field, and its key in
    the CLI JSON, stay for output compatibility.
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


def _log_report(q, path, steps=0, cross=None):
    q = Fraction(q)
    return EntropyReport(
        value=_log_value(q),
        path=path,
        log_of=q,
        steps_used=steps,
        cross_check=cross,
    )


def _stabilize(values, cfg, what, final):
    """The prefix of ``values`` up to its first value ``final`` accepts.

    ``final(value)`` is true on a value the sequence provably keeps from
    there on.  At most ``cfg.max_steps`` values are drawn; a stream that
    has not stopped by then raises.
    """
    seen = []
    for value in islice(values, cfg.max_steps):
        seen.append(value)
        if final(value):
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
        return RationalEndo(phi.group.free_rank, phi.free_block())
    raise UnsupportedAmbientError(
        f"no matrix extension for {type(phi).__name__}"
    )


def _shift_gens(group, f):
    gens = tuple(f)
    for g in gens:
        if not isinstance(g, ShiftElement) or g.group != group:
            raise DomainError("generators must live in the shift group")
    return gens


def trajectory(phi, f, n):
    """T_n = F + phi F + ... + phi^{n-1} F, canonical.

    For a shift group pass the group itself as ``phi`` (its canonical
    endomorphism is the right shift) and generators of F; the result is
    the full element set, of at most the session's ``element_cap``
    elements.  n past the session's ``max_steps`` raises
    BudgetExceededError before any step is taken.

    >>> from .rational import RationalEndo, RationalLattice
    >>> phi = RationalEndo.scalar(1, Fraction(3, 2))
    >>> trajectory(phi, RationalLattice.standard(1), 3).basis
    ((Fraction(1, 4),),)
    """
    if n < 1:
        raise DomainError("trajectory needs n >= 1")
    default_config().check_steps(n)
    if isinstance(phi, ShiftGroup):
        steps = _shift_trajectory(phi, _shift_gens(phi, f))
        return frozenset(next(islice(steps, n - 1, None)))
    return next(islice(_trajectory(_ambient_ops(f, phi), phi, f), n - 1, None))


def h_alg_stabilized(phi, h, config=None):
    """Algebraic entropy of (phi, H) by index-sequence stabilization.

    Requires H to be phi-inert in the additive sense, and raises
    NotInertError otherwise; the sequence a_n = |T_{n+1}/T_n| is then
    finite, weakly decreasing, and the stabilized value a gives log a.

    >>> from .rational import RationalEndo, RationalLattice
    >>> r = h_alg_stabilized(RationalEndo.scalar(1, Fraction(3, 2)),
    ...                      RationalLattice.standard(1))
    >>> r.log_of, r.heuristic, r.steps_used
    (Fraction(2, 1), False, 1)
    """
    cfg = config or default_config()
    if isinstance(phi, ShiftGroup):
        return _shift_stabilized(phi, h, cfg)
    return _index_stabilized(phi, h, cfg)


def _index_steps(phi, h):
    """a_1, a_2, ... with a_n = |T_{n+1}/T_n|.

    a_1 = [H + phi H : H] is the strict inert index, and the sequence is
    weakly decreasing, so only a_1 can be infinite: then NotInertError.
    """
    ops = _ambient_ops(h, phi)
    steps = (ops.index(b, a) for a, b in pairwise(_trajectory(ops, phi, h)))
    return _finite(steps, NotInertError, "subgroup is not inert under the map")


def _index_limit(phi, h):
    """The limit of the trajectory's and the adjoint chain's indices.

    1 on a finitely generated group.  Over Q^n, QH is phi-invariant (H is
    inert), and the limit is the lead of the primitive charpoly of
    psi = phi on QH.  For the HNF rows w_i of H and phi = mat / den,
    phi(w_i) = sum_j c_ij w_j reads Y / den = C P on the pivot columns,
    with P the rows' pivot block (triangular, invertible) and Y that of
    the rows mat w_i; so psi is C = (Y / den) P^-1.
    """
    if not isinstance(h, RationalLattice):
        return 1
    pivots = [next(j for j, x in enumerate(w) if x) for w in h.mat]

    def block(rows, den):
        picked = tuple(tuple(row[j] for j in pivots) for row in rows)
        return RationalEndo._from_scaled(len(pivots), den, picked)

    image = (matvec(phi.mat, w) for w in h.mat)
    psi = block(image, phi.den).compose(block(h.mat, 1).invert())
    return charpoly_primitive(psi).leading


def _index_stabilized(phi, h, cfg):
    steps = _index_steps(phi, h)  # checks the ambients before the limit reads them
    limit = _index_limit(phi, h)
    seen = _stabilize(steps, cfg, "index sequence", lambda a: a == limit)
    return _log_report(seen[-1], "stabilization", len(seen))


def _shift_stabilized(group, gens, cfg):
    # K_n is a cell lattice, so a_n = |F + K_n| / |K_n| is a ratio of orders
    gens = _shift_gens(group, gens)
    occupied = [pos for g in gens for pos, _ in g.support]
    places = range(min(occupied, default=0), max(occupied, default=-1) + 1)
    rows, moduli = group._lattice(gens, places)
    reduce = partial(ShiftGroup._hnf, moduli=moduli)
    f = reduce(rows)
    seen = _stabilize(pairwise(_window_states(reduce, group.cell.dim, f)), cfg,
                      "index sequence", lambda pair: pair[0] == pair[1])
    state = seen[-1][0]
    orders = [ShiftGroup._order(h, moduli) for h in (reduce(f + state), state)]
    return _log_report(Fraction(*orders), "stabilization", len(seen))


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

    With ``cross_check`` the index sequence of the standard lattice runs
    alongside: it agrees only if it reaches the lead within ``max_steps``
    without going below it.

    >>> from .rational import RationalEndo
    >>> intrinsic_entropy(RationalEndo.scalar(1, Fraction(3, 2))).log_of
    Fraction(2, 1)
    """
    rendo = _to_rational_endo(phi)
    lead = charpoly_primitive(rendo).leading
    cross = None
    if cross_check:
        steps = _index_steps(rendo, RationalLattice.standard(rendo.dim))
        for last in islice(steps, (config or default_config()).max_steps):
            if last <= lead:
                break
        cross = CrossCheck("stabilization", _log_value(last), Fraction(last),
                           agreement=last == lead)
    return _log_report(lead, "leading_coefficient", cross=cross)


def h_alg_yuzvinski(phi, schedule="aberth", config=None):
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
    result = mahler_measure(poly, schedule=schedule, config=cfg)
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
    plugins, so the limit of i(T_n)/n is the increment at the stop.

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
        return _space_stabilized(phi, seed, cfg)
    if isinstance(phi, Endo) and isinstance(seed, Subgroup):
        if plugin == "log_order":
            if not is_finite(seed.order()):
                raise DomainError("log_order needs a finite starting subgroup")
            return _index_stabilized(phi, seed, cfg)
        if plugin == "rank":
            chain = _trajectory(_ambient_ops(seed, phi), phi, seed)
            ranks = map(Subgroup.free_rank, chain)
            seen = _stabilize((b - a for a, b in pairwise(ranks)), cfg,
                              "increments", lambda d: d == 0)
            return _increment_report(seen[-1], len(seen))
        raise DomainError("dimension plugin lives on sequence spaces")
    raise UnsupportedAmbientError(
        f"no invariant procedure for {type(phi).__name__}"
    )


def _window_states(reduce, width, f):
    """K_1, K_2, ... for T_n = F + shift(F) + ... + shift^{n-1}(F).

    F is a basis in places [0, m) of ``width`` columns each, in the
    echelon form ``reduce`` gives; K_n is the part of T_n in places
    [n, n + m - 1), shifted back to the start, so the n-th increment is
    that of F + K_n over K_n.  K_{n+1} is the part of F + K_n that
    vanishes at place 0, shifted back one place (K_0 = 0).
    The K_n grow, and once K_{n+1} = K_n every later one is the same.
    """
    state = ()
    while True:
        # in echelon form the rows zero at place 0 span the part zero
        # there; rotating such a row shifts it back one place
        state = reduce(v[width:] + v[:width] for v in reduce(f + state)
                       if not any(v[:width]))
        yield state


def _space_stabilized(space, seed, cfg):
    f = space.reduce(seed)
    seen = _stabilize(pairwise(_window_states(space.reduce, 1, f)), cfg,
                      "increments", lambda pair: pair[0] == pair[1])
    state = seen[-1][0]
    return _increment_report(space.dim(f + state) - len(state), len(seen))


def _increment_report(value, steps):
    return EntropyReport(
        value=float(value),
        path="stabilization",
        exact_value=Fraction(value),
        steps_used=steps,
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
        return _limit_free_shift(phi, f)
    ops = _ambient_ops(f, phi)
    # T_{n+1} = T_n is final: from there T is phi-invariant
    seen = _stabilize(pairwise(_trajectory(ops, phi, f)), cfg, "trajectory",
                      lambda pair: pair[0] == pair[1])
    return _limit_free_value(ops, phi, seen[-1][0])


def _limit_free_value(ops, phi, total):
    over = ops.index(total, ops.apply(phi, total))
    zero = ops.zero(total)
    kernel_part = ops.index(ops.preimage(phi, zero, total), zero)
    if not (is_finite(over) and is_finite(kernel_part)):
        raise DomainError("limit-free quantities are infinite here")
    return _log_report(Fraction(over, kernel_part), "limit_free")


def _limit_free_shift(group, gens):
    gens = _shift_gens(group, gens)
    if all(g.is_zero() for g in gens):
        return _log_report(1, "limit_free")
    # <gens> contains the copy at position 0 iff adding it leaves the
    # canonical form unchanged; only places that occur get a column block
    places = sorted({0} | {pos for g in gens for pos, _ in g.support})
    rows, moduli = group._lattice(gens + group.first_coordinate_copy(), places)
    span = ShiftGroup._hnf(rows[:len(gens)], moduli)
    if ShiftGroup._hnf(span + rows[len(gens):], moduli) == span:
        # T = the whole direct sum; coker of the shift is one cell, kernel 0
        return _log_report(group.cell.order(), "symbolic_shift")
    raise DomainError("trajectory neither finite nor symbolic")


def _cotrajectory_ops(phi, h):
    if isinstance(phi, ShiftGroup):
        raise UnsupportedAmbientError(
            "shift cotrajectories are symbolic; use the cylinder family"
        )
    return _ambient_ops(h, phi)


def adjoint_cotrajectory(phi, h, n, config=None):
    """C_n = H ∩ phi^{-1}(H) ∩ ... ∩ phi^{-n+1}(H), canonical.

    Each step is one preimage, so n past the session's ``max_steps``
    raises BudgetExceededError before any is taken.

    >>> from .rational import RationalEndo, RationalLattice
    >>> half = RationalEndo.scalar(1, Fraction(1, 2))
    >>> adjoint_cotrajectory(half, RationalLattice.standard(1), 3).basis
    ((Fraction(4, 1),),)
    """
    cfg = config or default_config()
    if n < 1:
        raise DomainError("cotrajectory needs n >= 1")
    cfg.check_steps(n)
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
    steps = (ops.index(a, b) for a, b in pairwise(_cotrajectory(ops, phi, h)))
    # [C_1 : C_2] is the inert index, as h -> phi h gives H / C_2 ≅
    # phi H / (phi H ∩ H); and [C_n : C_{n+1}] <= [C_1 : C_2]
    steps = _finite(steps, NotInertError, "subgroup is not inert under the map")
    limit = _index_limit(phi, h)
    seen = _stabilize(steps, cfg, "cotrajectory indices", lambda a: a == limit)
    return _log_report(seen[-1], "cotrajectory", len(seen))


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
    s(shift, U_k) = |F| for every k, so the minimum is its value at 0.

    >>> from .models import CylinderFamily
    >>> from .abelian import FgAbGroup
    >>> scale_over_family(CylinderFamily(FgAbGroup([5]), two_sided=True))
    5
    """
    from .models import two_sided_shift_inert_index

    if max_index < 0:
        raise DomainError("the family slice must be nonempty")
    return two_sided_shift_inert_index(fam, 0)


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
        elems = [p if hasattr(p, "coords") else group.element(p) for p in points]
        if any(e.group != group for e in elems):
            raise DomainError("points must live in the endomorphism's group")
        return elems, phi.apply
    if isinstance(phi, ShiftGroup):
        return _shift_gens(phi, points), ShiftElement.shifted
    raise UnsupportedAmbientError(
        f"no sumset procedure for {type(phi).__name__}"
    )


def sumset_growth(phi, points, n_max, config=None):
    """Exact sizes of the setwise sums T_1, ..., T_{n_max}.

    When the seed contains 0 the log-sizes are subadditive,
    |T_{i+j}| <= |T_i| |T_j|.  ``n_max`` past the session's
    ``max_steps`` raises BudgetExceededError before any step is taken.

    >>> from .abelian import Endo, FgAbGroup
    >>> Z = FgAbGroup([], 1)
    >>> sumset_growth(Endo(Z, [[2]]), [[0], [1]], 4)
    (2, 4, 8, 16)
    """
    cfg = config or default_config()
    if n_max < 1:
        raise DomainError("need n_max >= 1")
    cfg.check_steps(n_max)
    elems, apply_map = _sumset_points(phi, points)
    if not elems:
        raise DomainError("the seed set must be nonempty")
    steps = setwise_trajectory(elems, apply_map, operator.add, cfg.element_cap)
    return tuple(map(len, islice(steps, n_max)))
