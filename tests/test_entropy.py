"""Entropy computations: stabilization, Yuzvinski, intrinsic, adjoint,
limit-free, topological, scale, and growth.

Independent routes are played against each other wherever two exist:
stabilization against the leading coefficient, the rational-root path
against max(log a, log b), cotrajectory closed forms against the chain.
"""

import math
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algentropy.abelian import Endo, FgAbGroup, subgroup_from_generators
from algentropy.config import default_config
from algentropy.entropy import (
    EntropyReport,
    adjoint_cotrajectory,
    classify_growth,
    ent,
    h_alg_stabilized,
    h_alg_yuzvinski,
    h_top_shift,
    i_entropy,
    intrinsic_adjoint_entropy,
    intrinsic_entropy,
    limit_free_h,
    scale_over_family,
    sumset_growth,
    trajectory,
)
from algentropy.errors import (
    AmbientMismatchError,
    BudgetExceededError,
    DomainError,
    NotInertError,
    StabilizationError,
    UnsupportedAmbientError,
)
from algentropy.inertia import almost_contained, inert_index
from algentropy.models import CylinderFamily, LinearShiftSpace, ShiftGroup
from algentropy.rational import RationalEndo, RationalLattice


def test_trajectory_values():
    phi = RationalEndo.scalar(1, Fraction(3, 2))
    assert trajectory(phi, RationalLattice.standard(1), 3).basis == ((Fraction(1, 4),),)
    assert trajectory(phi, RationalLattice.standard(1), 1) == RationalLattice.standard(1)

    z2 = FgAbGroup([], 2)
    shear = Endo(z2, [[1, 1], [0, 1]])
    axis = subgroup_from_generators(z2, [[0, 1]])
    assert trajectory(shear, axis, 2) == z2.full_subgroup()

    b = ShiftGroup(FgAbGroup([2]))
    assert len(trajectory(b, b.first_coordinate_copy(), 4)) == 16
    with pytest.raises(DomainError):
        trajectory(phi, RationalLattice.standard(1), 0)


def test_trajectory_cap_zero_is_a_cap():
    b = ShiftGroup(FgAbGroup([2]))
    with pytest.raises(BudgetExceededError):
        trajectory(b, b.first_coordinate_copy(), 4, cap=0)
    assert len(trajectory(b, b.first_coordinate_copy(), 4, cap=16)) == 16


def _stabilizing_paths():
    """(id, call taking a config, expected value) for every window loop;
    each sequence is constant from its first value on."""
    z2 = FgAbGroup([], 2)
    shear = Endo(z2, [[1, 1], [0, 1]])
    even = subgroup_from_generators(z2, [[2, 0], [0, 2]])
    finite = FgAbGroup([2, 4])
    ident = Endo(finite, [[1, 0], [0, 1]])
    seed = subgroup_from_generators(finite, [[1, 0]])
    axis = subgroup_from_generators(z2, [[0, 1]])
    b2, b3 = ShiftGroup(FgAbGroup([2])), ShiftGroup(FgAbGroup([3]))
    v = LinearShiftSpace(2)
    std = RationalLattice.standard(1)
    three_halves = RationalEndo.scalar(1, Fraction(3, 2))
    fifth = RationalEndo.scalar(1, Fraction(1, 5))
    return [
        ("halg-Zn", lambda c: h_alg_stabilized(shear, even, c), 1),
        ("halg-Qn", lambda c: h_alg_stabilized(three_halves, std, c), 2),
        ("halg-shift", lambda c: h_alg_stabilized(b2, b2.first_coordinate_copy(), c), 2),
        ("log_order-finite", lambda c: i_entropy(ident, seed, "log_order", c), 1),
        ("log_order-shift",
         lambda c: i_entropy(b3, b3.first_coordinate_copy(), "log_order", c), 3),
        ("rank", lambda c: i_entropy(Endo(z2, [[1, 0], [0, 1]]), axis, "rank", c), 0),
        ("dimension", lambda c: i_entropy(v, [v.vector([1])], "dimension", c), 1),
        ("adjoint", lambda c: intrinsic_adjoint_entropy(fifth, std, c), 5),
    ]


@pytest.mark.parametrize("window", [2, 3, 5])
@pytest.mark.parametrize(
    "call,expected",
    [pytest.param(call, value, id=name) for name, call, value in _stabilizing_paths()],
)
def test_every_stabilizing_path_respects_its_budget(call, expected, window):
    cfg = replace(default_config(), stabilization_window=window)
    with pytest.raises(StabilizationError):
        call(replace(cfg, max_steps=window - 1))
    report = call(replace(cfg, max_steps=window))
    assert report.steps_used == window
    assert report.heuristic
    if report.log_of is not None:
        assert report.log_of == expected
    else:
        assert report.exact_value == expected


def test_mismatched_ambients_raise_ambient_mismatch():
    z2, z3 = FgAbGroup([], 2), FgAbGroup([], 3)
    cases = [
        (Endo(z2, [[2, 0], [0, 1]]), z3.full_subgroup(), z2.full_subgroup()),
        (RationalEndo.scalar(2, Fraction(1, 2)), RationalLattice.standard(3),
         RationalLattice.standard(2)),
    ]
    for phi, h, other in cases:
        for call in (
            lambda: h_alg_stabilized(phi, h),
            lambda: limit_free_h(phi, h),
            lambda: inert_index(h, phi),
            lambda: almost_contained(h, other),
            lambda: trajectory(phi, h, 1),
            lambda: adjoint_cotrajectory(phi, h, 1),
        ):
            with pytest.raises(AmbientMismatchError):
                call()


def test_bernoulli_stabilization():
    for factors, order in (([2], 2), ([3], 3), ([2, 2], 4)):
        b = ShiftGroup(FgAbGroup(factors))
        report = h_alg_stabilized(b, b.first_coordinate_copy())
        assert report.log_of == order
        assert report.path == "stabilization"
        assert report.heuristic
        assert report.exact
        assert report.value == pytest.approx(math.log(order))


def test_stabilization_on_rational_scalars():
    r = h_alg_stabilized(RationalEndo.scalar(1, Fraction(3, 2)), RationalLattice.standard(1))
    # the index sequence only sees the denominator
    assert r.log_of == 2
    assert h_alg_stabilized(
        RationalEndo.scalar(1, Fraction(5)), RationalLattice.standard(1)
    ).log_of == 1


def test_stabilization_requires_inertness():
    z2 = FgAbGroup([], 2)
    shear = Endo(z2, [[1, 1], [0, 1]])
    axis = subgroup_from_generators(z2, [[0, 1]])
    with pytest.raises(NotInertError):
        h_alg_stabilized(shear, axis)


def test_stabilization_budget():
    cfg = replace(default_config(), max_steps=2)
    with pytest.raises(StabilizationError):
        h_alg_stabilized(
            RationalEndo.scalar(1, Fraction(3, 2)),
            RationalLattice.standard(1),
            config=cfg,
        )


def test_ent_dispatch():
    assert ent(ShiftGroup(FgAbGroup([2, 2]))).log_of == 4
    # finitely generated ambients have finite torsion, hence ent 0
    assert ent(Endo(FgAbGroup([4], 1), [[3, 0], [0, 2]])).log_of == 1
    assert ent(RationalEndo.scalar(2, Fraction(7, 3))).log_of == 1
    with pytest.raises(UnsupportedAmbientError):
        ent(LinearShiftSpace(2))


def test_intrinsic_entropy_leading_coefficient():
    assert intrinsic_entropy(RationalEndo.scalar(1, Fraction(3, 2))).log_of == 2
    assert intrinsic_entropy(RationalEndo.scalar(2, Fraction(5, 6))).log_of == 36
    report = intrinsic_entropy(RationalEndo(2, [[Fraction(1, 2), 0], [1, Fraction(1, 3)]]))
    assert report.log_of == 6
    assert report.path == "leading_coefficient"
    # integer endomorphisms have monic charpoly: intrinsic entropy 0
    assert intrinsic_entropy(Endo(FgAbGroup([], 2), [[0, 1], [1, 1]])).log_of == 1


frac_entries = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.lists(frac_entries, min_size=2, max_size=2), min_size=2, max_size=2))
def test_intrinsic_dual_paths_agree(mat):
    report = intrinsic_entropy(RationalEndo(2, mat), cross_check=True)
    assert report.cross_check is not None
    assert report.cross_check.agreement
    assert report.cross_check.log_of == report.log_of


def test_yuzvinski_rational_scalars():
    # h_alg of multiplication by a/b is max(log|a|, log|b|)
    for a, b in ((3, 2), (1, 4), (7, 1), (-5, 3)):
        r = h_alg_yuzvinski(RationalEndo.scalar(1, Fraction(a, b)))
        assert r.log_of == max(abs(a), abs(b))
        assert r.path == "yuzvinski"
        assert r.exact


def test_yuzvinski_numeric_path():
    fib = Endo(FgAbGroup([], 2), [[0, 1], [1, 1]])
    r = h_alg_yuzvinski(fib)
    assert not r.exact
    assert r.error_bound is not None
    golden = math.log((1 + math.sqrt(5)) / 2)
    assert abs(r.value - golden) <= r.error_bound + 1e-9


def test_yuzvinski_additivity_block_triangular():
    # block upper triangular: entropy adds across the diagonal blocks
    top = RationalEndo(1, [[Fraction(3, 2)]])
    bottom = RationalEndo(1, [[Fraction(5, 1)]])
    whole = RationalEndo(2, [[Fraction(3, 2), Fraction(7, 3)], [0, Fraction(5)]])
    assert (
        h_alg_yuzvinski(whole).log_of
        == h_alg_yuzvinski(top).log_of * h_alg_yuzvinski(bottom).log_of
    )


def test_logarithmic_law_exact_cases():
    phi = RationalEndo.scalar(1, Fraction(3, 2))
    base = h_alg_yuzvinski(phi)
    for k in (1, 2, 3, 4):
        rk = h_alg_yuzvinski(phi.power(k))
        assert rk.log_of == base.log_of**k


def test_i_entropy_dimension():
    v = LinearShiftSpace(2)
    r = i_entropy(v, [v.vector([1])], "dimension")
    assert r.exact_value == 1
    assert r.path == "stabilization"
    r0 = i_entropy(v, [v.vector([])], "dimension")
    assert r0.exact_value == 0
    rq = i_entropy(LinearShiftSpace(0), [(1, 2)], "rank")
    assert rq.exact_value == 1


def test_i_entropy_log_order():
    b = ShiftGroup(FgAbGroup([3]))
    assert i_entropy(b, b.first_coordinate_copy(), "log_order").log_of == 3
    g = FgAbGroup([2, 4])
    phi = Endo(g, [[1, 1], [0, 1]])
    seed = subgroup_from_generators(g, [[1, 0]])
    r = i_entropy(phi, seed, "log_order")
    # finite ambient: the trajectory saturates, increments fall to 1
    assert r.log_of == 1


def test_i_entropy_rank_plugin():
    z2 = FgAbGroup([], 2)
    shear = Endo(z2, [[1, 1], [0, 1]])
    axis = subgroup_from_generators(z2, [[0, 1]])
    r = i_entropy(shear, axis, "rank")
    # the rank can only climb to the ambient rank, so increments vanish
    assert r.exact_value == 0
    assert r.value == 0.0


def test_i_entropy_plugin_validation():
    v = LinearShiftSpace(2)
    with pytest.raises(DomainError):
        i_entropy(v, [v.vector([1])], "log_order")
    with pytest.raises(DomainError):
        i_entropy(v, [v.vector([1])], "rank")  # rank needs p = 0
    with pytest.raises(DomainError):
        i_entropy(v, [v.vector([1])], "volume")
    b = ShiftGroup(FgAbGroup([2]))
    with pytest.raises(DomainError):
        i_entropy(b, b.first_coordinate_copy(), "dimension")
    z = FgAbGroup([], 1)
    with pytest.raises(DomainError):
        i_entropy(Endo(z, [[2]]), z.full_subgroup(), "log_order")


def test_limit_free_saturating_chains():
    z = FgAbGroup([], 1)
    r = limit_free_h(Endo(z, [[2]]), z.full_subgroup())
    assert r.log_of == 2
    assert r.path == "limit_free"

    double = RationalEndo.scalar(1, Fraction(2))
    assert limit_free_h(double, RationalLattice.standard(1)).log_of == 2

    # kernel part cancels the covolume on finite cyclic groups
    g = FgAbGroup([4])
    assert limit_free_h(Endo(g, [[2]]), g.full_subgroup()).log_of == 1


def test_limit_free_divergent_chain():
    half = RationalEndo.scalar(1, Fraction(1, 2))
    with pytest.raises(StabilizationError):
        limit_free_h(half, RationalLattice.standard(1))


def test_limit_free_infinite_quantities():
    proj = RationalEndo(2, [[1, 0], [0, 0]])
    with pytest.raises(DomainError):
        limit_free_h(proj, RationalLattice.standard(2))


def test_limit_free_symbolic_route():
    b = ShiftGroup(FgAbGroup([3, 3]))
    r = limit_free_h(b, b.first_coordinate_copy())
    assert r.log_of == 9
    assert r.path == "symbolic_shift"
    assert limit_free_h(b, [b.zero()]).log_of == 1
    with pytest.raises(DomainError):
        # a proper subgroup of the cell does not span the copy
        limit_free_h(b, [b.element({0: [1, 0]})])


def test_adjoint_cotrajectory_values():
    half = RationalEndo.scalar(1, Fraction(1, 2))
    assert adjoint_cotrajectory(half, RationalLattice.standard(1), 3).basis == ((Fraction(4),),)
    assert adjoint_cotrajectory(half, RationalLattice.standard(1), 1) == RationalLattice.standard(1)
    z = FgAbGroup([], 1)
    full = z.full_subgroup()
    assert adjoint_cotrajectory(Endo(z, [[2]]), full, 4) == full
    with pytest.raises(DomainError):
        adjoint_cotrajectory(half, RationalLattice.standard(1), 0)


def test_intrinsic_adjoint_entropy_values():
    for p in (2, 3, 5):
        r = intrinsic_adjoint_entropy(
            RationalEndo.scalar(1, Fraction(1, p)), RationalLattice.standard(1)
        )
        assert r.log_of == p
        assert r.path == "cotrajectory"
    # expanding maps have trivial adjoint chain
    assert intrinsic_adjoint_entropy(
        RationalEndo.scalar(1, Fraction(3)), RationalLattice.standard(1)
    ).log_of == 1


def test_intrinsic_adjoint_requires_inertness():
    z2 = FgAbGroup([], 2)
    shear = Endo(z2, [[1, 1], [0, 1]])
    axis = subgroup_from_generators(z2, [[0, 1]])
    with pytest.raises(NotInertError):
        intrinsic_adjoint_entropy(shear, axis)


def test_h_top_shift():
    for n in (2, 3, 4, 5):
        r = h_top_shift(CylinderFamily(FgAbGroup([n])))
        assert r.log_of == n
        assert r.path == "cotrajectory"
    with pytest.raises(DomainError):
        h_top_shift(CylinderFamily(FgAbGroup([2]), two_sided=True))


def test_scale_and_bridge_inequality():
    for n in (2, 3, 4, 5):
        fam2 = CylinderFamily(FgAbGroup([n]), two_sided=True)
        s = scale_over_family(fam2)
        assert s == n
        h_top = h_top_shift(CylinderFamily(FgAbGroup([n])))
        assert math.log(s) <= h_top.value + 1e-12
    with pytest.raises(DomainError):
        scale_over_family(CylinderFamily(FgAbGroup([2])))
    with pytest.raises(DomainError):
        scale_over_family(CylinderFamily(FgAbGroup([2]), two_sided=True), max_index=-1)


def test_classify_growth():
    z2 = FgAbGroup([], 2)
    assert classify_growth(Endo(z2, [[0, -1], [1, 0]])) == "polynomial"
    assert classify_growth(Endo(z2, [[1, 1], [0, 1]])) == "polynomial"
    assert classify_growth(Endo(z2, [[0, 1], [1, 1]])) == "exponential"
    assert classify_growth(RationalEndo.scalar(1, Fraction(1, 2))) == "exponential"
    assert classify_growth(RationalEndo.scalar(3, Fraction(1))) == "polynomial"


def test_sumset_growth_exponential():
    z = FgAbGroup([], 1)
    assert sumset_growth(Endo(z, [[2]]), [[0], [1]], 4) == (2, 4, 8, 16)


def test_sumset_growth_polynomial():
    z = FgAbGroup([], 1)
    sizes = sumset_growth(Endo(z, [[1]]), [[0], [1]], 6)
    assert sizes == (2, 3, 4, 5, 6, 7)


def test_sumset_growth_shift_and_singletons():
    b = ShiftGroup(FgAbGroup([2]))
    e = b.element({0: [1]})
    assert sumset_growth(b, [b.zero(), e], 5) == (2, 4, 8, 16, 32)
    # a singleton away from zero never grows
    assert sumset_growth(b, [e], 5) == (1, 1, 1, 1, 1)


def test_sumset_growth_cap():
    z = FgAbGroup([], 1)
    cfg = replace(default_config(), element_cap=10)
    with pytest.raises(BudgetExceededError):
        sumset_growth(Endo(z, [[2]]), [[0], [1]], 10, config=cfg)


def test_sumset_growth_validation():
    z = FgAbGroup([], 1)
    with pytest.raises(DomainError):
        sumset_growth(Endo(z, [[2]]), [], 3)
    with pytest.raises(DomainError):
        sumset_growth(Endo(z, [[2]]), [[0]], 0)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.lists(st.integers(-2, 2), min_size=2, max_size=2), min_size=2, max_size=2),
    st.sets(st.tuples(st.integers(-2, 2), st.integers(-2, 2)), min_size=1, max_size=3),
)
def test_sumset_subadditivity(mat, seed):
    z2 = FgAbGroup([], 2)
    phi = Endo(z2, mat)
    points = [list(p) for p in seed] + [[0, 0]]
    cfg = replace(default_config(), element_cap=200000)
    try:
        sizes = sumset_growth(phi, points, 5, config=cfg)
    except BudgetExceededError:
        return
    for i in range(1, len(sizes) + 1):
        for j in range(1, len(sizes) + 1 - i):
            assert sizes[i + j - 1] <= sizes[i - 1] * sizes[j - 1]


def test_report_exact_flag():
    exact = h_alg_yuzvinski(RationalEndo.scalar(1, Fraction(3, 2)))
    assert exact.exact and exact.error_bound == 0.0
    numeric = h_alg_yuzvinski(Endo(FgAbGroup([], 2), [[0, 1], [1, 1]]))
    assert not numeric.exact and numeric.log_of is None
    assert numeric.error_bound > 0.0
