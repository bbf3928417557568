"""Entropy computations: stabilization, Yuzvinski, intrinsic, adjoint,
limit-free, topological, scale, and growth.

Independent routes are played against each other wherever two exist:
stabilization against the leading coefficient, the rational-root path
against max(log a, log b), cotrajectory closed forms against the chain.
"""

import io
import json
import math
import random
import time
from dataclasses import replace
from fractions import Fraction
from itertools import islice

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from fresh import fresh_interpreter, fresh_run
from shift_oracle import bfs_closure

from algentropy import inertia
from algentropy.abelian import Endo, FgAbGroup, subgroup_from_generators, subgroup_index
from algentropy.cli import run
from algentropy.config import default_config
from algentropy import entropy
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
from algentropy.intlinalg import hnf
from algentropy.models import CylinderFamily, LinearShiftSpace, ShiftGroup
from algentropy.rational import RationalEndo, RationalLattice, lattice_index


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


def test_trajectory_cap_zero_is_a_cap(monkeypatch):
    b = ShiftGroup(FgAbGroup([2]))
    monkeypatch.setenv("ALGENTROPY_ELEMENT_CAP", "0")
    with pytest.raises(BudgetExceededError):
        trajectory(b, b.first_coordinate_copy(), 4)
    monkeypatch.setenv("ALGENTROPY_ELEMENT_CAP", "16")
    assert len(trajectory(b, b.first_coordinate_copy(), 4)) == 16


# the reproduced early stop: 480, 480, 480, then 160 on the standard lattice
MAP_4X4 = RationalEndo(4, [
    [Fraction(1, 2), 1, Fraction(-5, 3), Fraction(2, 5)],
    [1, Fraction(-1, 4), Fraction(1, 4), Fraction(3, 2)],
    [Fraction(-3, 4), Fraction(-3, 4), 0, 0],
    [Fraction(-1, 2), 1, Fraction(-3, 2), 0],
])


# QH = <e_1, e_2> is invariant, phi on it is [[2/3, 0], [-1/2, -1]]: lead 3,
# while the whole map's primitive charpoly has lead 15
MAP_ON_PLANE = RationalEndo(3, [
    [Fraction(2, 3), 0, 1],
    [Fraction(-1, 2), -1, 0],
    [0, 0, Fraction(1, 5)],
])
PLANE = RationalLattice.from_rows(3, [[1, 0, 0], [0, 1, 0]])

# the adjoint chain's index sequence is 12600, 12600, 12600, then 1800
MAP_ADJOINT_PLATEAU = RationalEndo(4, [
    [-2, 0, -1, Fraction(-4, 7)],
    [0, Fraction(-3, 5), 0, Fraction(-1, 2)],
    [0, Fraction(-1, 6), 1, Fraction(2, 9)],
    [0, Fraction(1, 4), Fraction(-1, 5), Fraction(4, 3)],
])


def _stabilizing_paths():
    """(id, call taking a config, expected value, exact stop) for every
    stabilizing path.  Each path stops at the given position of its first
    limit value, past the first step, so a smaller budget must raise."""
    z2 = FgAbGroup([], 2)
    swap = Endo(z2, [[0, 1], [1, 0]])
    half = subgroup_from_generators(z2, [[2, 0], [0, 1]])
    nudge = Endo(z2, [[0, 0], [1, 0]])
    axis = subgroup_from_generators(z2, [[1, 0]])
    finite = FgAbGroup([2, 2, 2, 2])
    nilpotent = Endo(finite, [[0, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])
    seed = subgroup_from_generators(finite, [[1, 0, 0, 0]])
    b2, b4 = ShiftGroup(FgAbGroup([2])), ShiftGroup(FgAbGroup([4]))
    v = LinearShiftSpace(2)
    std4 = RationalLattice.standard(4)
    return [
        # index sequence 2, 1
        ("halg-Zn", lambda c: h_alg_stabilized(swap, half, c), 1, 2),
        ("halg-Qn", lambda c: h_alg_stabilized(MAP_4X4, std4, c), 160, 4),
        # index sequence 6, 3
        ("halg-non-spanning", lambda c: h_alg_stabilized(MAP_ON_PLANE, PLANE, c), 3, 2),
        # F = <e_0, e_4>: index sequence 4, 4, 4, then 2, which a window of
        # 3 took for 4; K_n = <e_{4-n}, ..., e_3> grows until K_4 = K_5
        ("halg-shift",
         lambda c: h_alg_stabilized(b2, [b2.element({0: [1]}), b2.element({4: [1]})], c),
         2, 4),
        # index sequence 2, 2, 2, 1
        ("log_order-finite", lambda c: i_entropy(nilpotent, seed, "log_order", c), 1, 4),
        # F = <2e_0 + 3e_2>: index 4 throughout, while |K_n| = 2^n grows to
        # all of (Z/4)^2 at K_4 = K_5
        ("log_order-shift",
         lambda c: i_entropy(b4, [b4.element({0: [2], 2: [3]})], "log_order", c), 4, 4),
        # ranks 1, 2, 2
        ("rank", lambda c: i_entropy(nudge, axis, "rank", c), 0, 2),
        # K_1 = <(0, 1)> grows to K_2 = K_3 = everything in two places
        ("dimension", lambda c: i_entropy(v, [[1, 1], [0, 0, 1]], "dimension", c), 1, 2),
        ("adjoint", lambda c: intrinsic_adjoint_entropy(MAP_ADJOINT_PLATEAU, std4, c), 1800, 4),
        # C_2 = C_3 = 2Z^2: index sequence 2, 1
        ("adjoint-Zn", lambda c: intrinsic_adjoint_entropy(swap, half, c), 1, 2),
        ("adjoint-non-spanning",
         lambda c: intrinsic_adjoint_entropy(MAP_ON_PLANE, PLANE, c), 3, 2),
    ]


@pytest.mark.parametrize("headroom", [2, 3, 5])
@pytest.mark.parametrize(
    "call,expected,stop",
    [pytest.param(call, value, stop, id=name)
     for name, call, value, stop in _stabilizing_paths()],
)
def test_every_stabilizing_path_respects_its_budget(call, expected, stop, headroom):
    # the stop is proven, so a budget beyond it changes nothing
    with pytest.raises(StabilizationError):
        call(replace(default_config(), max_steps=stop - 1))
    for budget in (stop, stop + headroom):
        report = call(replace(default_config(), max_steps=budget))
        assert report.steps_used == stop
        assert not report.heuristic
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
        # K_1 = K_2 = 0: the first index is final
        assert (report.steps_used, report.heuristic) == (1, False)
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
    # the 4x4 map reaches its limit at step 4
    cfg = replace(default_config(), max_steps=3)
    with pytest.raises(StabilizationError):
        h_alg_stabilized(MAP_4X4, RationalLattice.standard(4), config=cfg)


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


def _window_dims(space, seed, steps):
    """dim T_1, ..., dim T_steps read off the window states."""
    f = space.reduce(seed)
    dims = [len(f)]
    for state in islice(entropy._window_states(space.reduce, 1, f), steps - 1):
        dims.append(dims[-1] + space.dim(f + state) - len(state))
    return dims


def _span_dims_from_scratch(space, seed, steps):
    pool = [space.vector(v) for v in seed]
    moving = list(pool)
    dims = []
    for _ in range(steps):
        dims.append(space.dim(pool))
        moving = [space.shift(v) for v in moving]
        pool.extend(moving)
    return dims


@pytest.mark.parametrize("p", [2, 3, 0])
def test_span_dims_match_the_pool_reduced_from_scratch(p):
    space = LinearShiftSpace(p)
    draw = random.Random(f"span/{p}")
    for _ in range(12):
        seed = [[draw.randint(-3, 3) for _ in range(draw.randint(0, 4))]
                for _ in range(draw.randint(1, 4))]
        assert _window_dims(space, seed, 10) == _span_dims_from_scratch(space, seed, 10)


def test_span_dims_time_regression():
    # reducing the whole pool again at every step took 0.5-0.6 s on a 2-core machine
    space = LinearShiftSpace(0)
    start = time.perf_counter()
    report = i_entropy(space, [(1, 2, 3), (0, 1, 5), (2, 0, 1)], "dimension")
    assert time.perf_counter() - start < 0.3
    assert report.exact_value == 1


@pytest.mark.parametrize("p", [2, 3, 5, 0])
def test_sequence_space_stop_matches_the_pooled_reduction(p):
    space = LinearShiftSpace(p)
    draw = random.Random(f"stop/{p}")
    for _ in range(40):
        seed = [[draw.randint(-3, 3) for _ in range(draw.randint(0, 5))]
                for _ in range(draw.randint(1, 3))]
        # the pool of 16 steps against that of 15: seeds have at most 5
        # places, and the increments settle within that many steps
        pools = [[[0] * i + v for v in seed for i in range(n)] for n in (15, 16)]
        report = i_entropy(space, seed, "dimension")
        assert report.exact_value == space.dim(pools[1]) - space.dim(pools[0])
        assert report.exact_value == (1 if any(space.vector(v) for v in seed) else 0)
        assert not report.heuristic
        # the stop is the first n with K_{n+1} = K_n, within the seed's width
        states = list(islice(entropy._window_states(space.reduce, 1, space.reduce(seed)), 8))
        first = next(n for n in range(1, 8) if states[n - 1] == states[n])
        assert report.steps_used == first <= max(map(len, seed), default=0) + 1


def _index_sequence(phi, h, steps):
    """a_1, ..., a_steps from the public trajectory, independently of the stop."""
    index = lattice_index if isinstance(h, RationalLattice) else subgroup_index
    chain = [trajectory(phi, h, n) for n in range(1, steps + 2)]
    return [index(b, a) for a, b in zip(chain, chain[1:])]


def _sympy_lead(phi):
    """Leading coefficient of the primitive integer charpoly, by sympy."""
    return _sympy_lead_of(sympy.Matrix(phi.matrix))


def _sympy_lead_of(matrix):
    poly = matrix.charpoly(sympy.symbols("t"))
    _, integral = poly.clear_denoms(convert=True)
    return abs(integral.primitive()[1].LC())


def _random_rational_map(draw, n):
    return RationalEndo(n, [
        [Fraction(draw.randint(-5, 5), draw.randint(1, 6)) for _ in range(n)]
        for _ in range(n)
    ])


def test_spanning_lattices_stop_at_the_lead():
    draw = random.Random("lead")
    for trial in range(30):
        n = 2 + trial % 3
        phi = _random_rational_map(draw, n)
        lead = _sympy_lead(phi)
        if trial % 2:
            h = RationalLattice.from_rows(n, [
                [draw.randint(-3, 3) + (3 * draw.randint(1, 2) if i == j else 0)
                 for j in range(n)] for i in range(n)
            ])
        else:
            h = RationalLattice.standard(n)
        if h.rank() < n:
            continue
        report = h_alg_stabilized(phi, h)
        seq = _index_sequence(phi, h, 12)
        assert report.log_of == lead == seq[-1]
        assert not report.heuristic
        assert report.steps_used == seq.index(lead) + 1
        assert min(seq) == lead


def test_4x4_cross_check_agrees_at_default_settings():
    report = intrinsic_entropy(MAP_4X4, cross_check=True)
    assert report.log_of == 160
    assert report.cross_check.agreement
    assert report.cross_check.log_of == 160
    assert _index_sequence(MAP_4X4, RationalLattice.standard(4), 5) == [480, 480, 480, 160, 160]
    stab = h_alg_stabilized(MAP_4X4, RationalLattice.standard(4))
    assert (stab.log_of, stab.steps_used, stab.heuristic) == (160, 4, False)


@pytest.mark.parametrize("delta", [1, -1])
def test_corrupted_index_breaks_the_cross_check(monkeypatch, delta):
    original = inertia.lattice_index
    monkeypatch.setattr(
        inertia, "lattice_index", lambda a, b: original(a, b) + delta
    )
    for phi in (MAP_4X4, RationalEndo.scalar(1, Fraction(3, 2))):
        report = intrinsic_entropy(phi, cross_check=True)
        assert report.cross_check.agreement is False


def _sympy_restricted_lead(phi, h):
    """Lead of the primitive charpoly of phi on QH, by sympy: the matrix
    C with C W = W M^T for the basis rows W of H."""
    w = sympy.Matrix(h.basis)
    image = w * sympy.Matrix(phi.matrix).T
    c = image * w.T * (w * w.T).inv()
    assert c * w == image  # QH is invariant
    return _sympy_lead_of(c)


def _cotrajectory_indices(phi, h, steps):
    """[C_1 : C_2], ..., [C_steps : C_{steps+1}] from the public chain."""
    index = lattice_index if isinstance(h, RationalLattice) else subgroup_index
    chain = [adjoint_cotrajectory(phi, h, n) for n in range(1, steps + 2)]
    return [index(a, b) for a, b in zip(chain, chain[1:])]


def _random_non_spanning(draw, n):
    """(phi, H): H of rank r < n in an r-dimensional subspace V that
    phi = B A B^-1 keeps, with A block upper triangular."""
    r = draw.randint(1, n - 1)
    while True:
        cols = [[draw.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        basis = RationalEndo(n, [list(row) for row in zip(*cols)])
        if basis.det():
            break
    a = [[Fraction(draw.randint(-5, 5), draw.randint(1, 9)) if i < r or j >= r else 0
          for j in range(n)] for i in range(n)]
    phi = basis.compose(RationalEndo(n, a)).compose(basis.invert())
    # triangular coefficients with a nonzero diagonal keep H of rank r
    rows = []
    for j in range(r):
        coef = [Fraction(draw.randint(-3, 3), draw.randint(1, 3)) for _ in range(j)]
        coef.append(Fraction(draw.choice([-3, -2, -1, 1, 2, 3]), draw.randint(1, 3)))
        rows.append([sum(x * col[i] for x, col in zip(coef, cols)) for i in range(n)])
    return phi, RationalLattice.from_rows(n, rows)


def _assert_stops_at(report, limit, seq):
    """The report took the first value equal to the limit, and the raw
    sequence reaches it and never goes below."""
    assert report.log_of == limit == seq[-1] == min(seq)
    assert report.steps_used == seq.index(limit) + 1
    assert not report.heuristic


def test_non_spanning_lattices_stop_at_the_restricted_lead():
    phi = RationalEndo(2, [[Fraction(3, 2), 0], [0, 5]])
    axis = RationalLattice.from_rows(2, [[1, 0]])
    report = h_alg_stabilized(phi, axis)
    assert (report.log_of, report.steps_used, report.heuristic) == (2, 1, False)
    report = ent(phi)
    assert (report.log_of, report.steps_used, report.heuristic) == (1, 1, False)
    # the restriction matters: the whole map's lead is 15
    assert (_sympy_lead(MAP_ON_PLANE), _sympy_restricted_lead(MAP_ON_PLANE, PLANE)) == (15, 3)
    draw = random.Random("non-spanning")
    seen = 0
    for trial in range(24):
        phi, h = _random_non_spanning(draw, 2 + trial % 3)
        lead = _sympy_restricted_lead(phi, h)
        try:
            report = h_alg_stabilized(phi, h)
        except NotInertError:
            continue
        seen += 1
        steps = max(10, report.steps_used + 4)
        _assert_stops_at(report, lead, _index_sequence(phi, h, steps))
        adjoint = intrinsic_adjoint_entropy(phi, h)
        _assert_stops_at(adjoint, lead, _cotrajectory_indices(phi, h, steps))
    assert seen >= 20


def test_adjoint_chain_stops_at_the_lead_on_spanning_lattices():
    report = intrinsic_adjoint_entropy(MAP_ADJOINT_PLATEAU, RationalLattice.standard(4))
    assert (report.log_of, report.steps_used, report.heuristic) == (1800, 4, False)
    assert report.log_of == intrinsic_entropy(MAP_ADJOINT_PLATEAU).log_of
    seq = _cotrajectory_indices(MAP_ADJOINT_PLATEAU, RationalLattice.standard(4), 6)
    assert seq == [12600, 12600, 12600, 1800, 1800, 1800]
    draw = random.Random("adjoint")
    for trial in range(30):
        n = 2 + trial % 3
        phi = _random_rational_map(draw, n)
        h = RationalLattice.standard(n) if trial % 2 else RationalLattice.from_rows(n, [
            [Fraction(draw.randint(-3, 3) + (3 if i == j else 0), draw.randint(1, 3))
             for j in range(n)] for i in range(n)
        ])
        if h.rank() < n or not inert_index(h, phi).inert:
            continue
        report = intrinsic_adjoint_entropy(phi, h)
        steps = max(10, report.steps_used + 4)
        _assert_stops_at(report, _sympy_lead(phi), _cotrajectory_indices(phi, h, steps))


def test_adjoint_chain_stops_at_one_on_finitely_generated_groups():
    draw = random.Random("fg-adjoint")
    groups = [FgAbGroup([], 2), FgAbGroup([2], 2), FgAbGroup([3], 1), FgAbGroup([2, 4])]
    seen = 0
    for _ in range(150):
        group = draw.choice(groups)
        phi = _random_endo(draw, group)
        h = subgroup_from_generators(group, [
            [draw.randint(-4, 4) for _ in range(group.dim)] for _ in range(2)
        ])
        if not inert_index(h, phi).inert:
            continue
        seen += 1
        report = intrinsic_adjoint_entropy(phi, h)
        _assert_stops_at(report, 1, _cotrajectory_indices(phi, h, report.steps_used + 8))
    assert seen > 50


def test_finitely_generated_sequences_stop_at_one():
    draw = random.Random("fg")
    groups = [FgAbGroup([], 2), FgAbGroup([2], 2), FgAbGroup([3], 1), FgAbGroup([2, 4])]
    seen = 0
    for _ in range(200):
        group = draw.choice(groups)
        phi = _random_endo(draw, group)
        h = subgroup_from_generators(group, [
            [draw.randint(-4, 4) for _ in range(group.dim)] for _ in range(2)
        ])
        try:
            report = h_alg_stabilized(phi, h)
        except NotInertError:
            continue
        seen += 1
        seq = _index_sequence(phi, h, report.steps_used + 3)
        assert report.log_of == 1 and not report.heuristic
        assert report.steps_used == seq.index(1) + 1
        assert set(seq[report.steps_used - 1:]) == {1}
        ranks = i_entropy(phi, h, "rank")
        assert ranks.exact_value == 0 and not ranks.heuristic
    assert seen > 50


def _random_endo(draw, group):
    """A random endomorphism: columns of torsion generators stay torsion."""
    ds, k, n = group.invariant_factors, group.torsion_length, group.dim
    mat = [[draw.randint(-3, 3) for _ in range(n)] for _ in range(n)]
    for i in range(k):
        for j in range(n):
            mat[j][i] = (
                mat[j][i] * (ds[j] // math.gcd(ds[i], ds[j])) if j < k else 0
            )
    return Endo(group, mat)


def test_limit_free_shift_many_positions_time_regression():
    # closing the seed as an element set took 9 s at 16 positions on a 2-core machine
    b = ShiftGroup(FgAbGroup([2]))
    for positions in (20, 40):
        gens = [b.element({i: [1]}) for i in range(positions)]
        start = time.perf_counter()
        report = limit_free_h(b, gens)
        assert time.perf_counter() - start < 0.5
        assert report.log_of == 2


def test_limit_free_shift_far_positions_time_regression():
    # a column block per place up to the farthest one took memory and time
    # quadratic in that place; only the places that occur may count
    b = ShiftGroup(FgAbGroup([2]))
    start = time.perf_counter()
    with pytest.raises(DomainError):
        limit_free_h(b, [b.element({100000: [1]})])
    report = limit_free_h(b, [b.element({0: [1]}), b.element({3000: [1]})])
    assert report.log_of == 2
    report = limit_free_h(b, [b.element({0: [1], 100000: [1]}), b.element({100000: [1]})])
    assert report.log_of == 2
    assert time.perf_counter() - start < 0.5


def test_limit_free_shift_matches_the_closure_criterion():
    draw = random.Random("limitfree")
    cells = [[2], [3], [4], [6], [2, 2], [2, 4]]
    for trial in range(120):
        cell = FgAbGroup(cells[trial % len(cells)])
        b = ShiftGroup(cell)
        gens = [
            b.element({pos: [draw.randint(0, d - 1) for d in cell.invariant_factors]
                       for pos in draw.sample([0, 1, 2, 7, 300], draw.randint(1, 3))})
            for _ in range(draw.randint(1, 3))
        ]
        if all(g.is_zero() for g in gens):
            continue
        copy = bfs_closure(b, b.first_coordinate_copy(), 10**4)
        if copy <= bfs_closure(b, gens, 10**4):
            assert limit_free_h(b, gens).log_of == cell.order()
        else:
            with pytest.raises(DomainError):
                limit_free_h(b, gens)


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


def test_adjoint_cotrajectory_past_max_steps_is_a_budget_error():
    # 10**30 steps raised a bare ValueError from islice
    half = RationalEndo.scalar(1, Fraction(1, 2))
    line = RationalLattice.standard(1)
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError, match="max_steps"):
        adjoint_cotrajectory(half, line, 10**30)
    assert time.perf_counter() - start < 1.0
    cfg = replace(default_config(), max_steps=3)
    with pytest.raises(BudgetExceededError):
        adjoint_cotrajectory(half, line, 4, cfg)
    assert adjoint_cotrajectory(half, line, 3, cfg).basis == ((Fraction(4),),)


@pytest.mark.parametrize("call", [
    "trajectory(RationalEndo.scalar(1, 1), RationalLattice.standard(1), n)",
    "shift_trajectory_order(B, [B.zero()], n)",
    "finite_group_trajectory(cyclic(2), (0, 1), [1], n)",
], ids=["trajectory", "shift-order", "finite-group"])
def test_trajectory_past_max_steps_is_a_budget_error_time_regression(call):
    # n = 10**6 walked every one of its steps, and n = 10**30 raised a bare
    # ValueError from islice
    code = (
        "import json, os, time\n"
        "from algentropy.abelian import FgAbGroup\n"
        "from algentropy.cayley import cyclic, finite_group_trajectory\n"
        "from algentropy.entropy import trajectory\n"
        "from algentropy.errors import BudgetExceededError\n"
        "from algentropy.models import ShiftGroup, shift_trajectory_order\n"
        "from algentropy.rational import RationalEndo, RationalLattice\n"
        "B = ShiftGroup(FgAbGroup([2]))\n"
        "def outcome(n):\n"
        "    try:\n"
        f"        {call}\n"
        "    except BudgetExceededError as exc:\n"
        "        return 'max_steps' in str(exc)\n"
        "    return 'ran'\n"
        "start = time.perf_counter()\n"
        "seen = [outcome(n) for n in (65, 10**6, 10**30)]\n"
        "seconds = time.perf_counter() - start\n"
        "os.environ['ALGENTROPY_MAX_STEPS'] = '3'\n"
        "seen += [outcome(3), outcome(4)]\n"
        "print(json.dumps([seen, seconds]))\n"
    )
    seen, seconds = json.loads(fresh_interpreter(code, timeout=30).stdout)
    assert seen == [True, True, True, "ran", True]
    assert seconds < 1.0


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


def test_sumset_growth_steps_capped_by_max_steps():
    z = FgAbGroup([], 1)
    cfg = replace(default_config(), max_steps=8)
    assert len(sumset_growth(Endo(z, [[1]]), [[0], [1]], 8, config=cfg)) == 8
    with pytest.raises(BudgetExceededError):
        sumset_growth(Endo(z, [[1]]), [[0], [1]], 9, config=cfg)


def test_shift_window_states_time_regression():
    # reading K_n off the element sets T_n passed the element cap after
    # 29 s on the Z/8 seed and got no answer within 100 s on a dense
    # seed over Z/2 x Z/4 (12 places) on a 2-core machine
    b8 = ShiftGroup(FgAbGroup([8]))
    start = time.perf_counter()
    report = h_alg_stabilized(b8, [b8.element({1: [2], 3: [1]})])
    assert time.perf_counter() - start < 0.1
    assert (report.log_of, report.steps_used) == (8, 6)
    b2 = ShiftGroup(FgAbGroup([2]))
    start = time.perf_counter()
    report = h_alg_stabilized(b2, [b2.element({0: [1], 120: [1]})])
    assert time.perf_counter() - start < 0.5
    assert (report.log_of, report.steps_used) == (2, 1)
    # a relation row for every column of the 100,001 places made this
    # seed exceed the element cap; only the two touched columns get one
    start = time.perf_counter()
    report = h_alg_stabilized(b2, [b2.element({0: [1], 100000: [1]})])
    assert time.perf_counter() - start < 2.0
    assert (report.log_of, report.steps_used) == (2, 1)
    b = ShiftGroup(FgAbGroup([2, 4]))
    draw = random.Random(0)
    gens = [b.element({p: [draw.randrange(2), draw.randrange(4)] for p in range(30)})
            for _ in range(30)]
    start = time.perf_counter()
    report = h_alg_stabilized(b, gens)
    assert time.perf_counter() - start < 2.0
    assert report.log_of == 8


def test_cell_hnf_matches_the_plain_hermite_form():
    # the touched columns' relations against the full relation diagonal,
    # less its lone relation rows
    draw = random.Random("cell-hnf")
    cells = [[m] for m in range(2, 10)] + [[2, 2], [2, 4], [3, 3]]
    for trial in range(110):
        b = ShiftGroup(FgAbGroup(cells[trial % len(cells)]))
        _, moduli = b._lattice((), range(draw.randint(1, 6)))
        relations = [tuple(d if k == j else 0 for k in range(len(moduli)))
                     for j, d in enumerate(moduli)]
        rows = [tuple(draw.choice([0, 0, draw.randint(-9, 9)]) for _ in moduli)
                for _ in range(draw.randint(0, 5))]
        want = tuple(r for r in hnf(rows + relations) if r not in relations)
        assert ShiftGroup._hnf(rows, moduli) == want, rows


@pytest.mark.parametrize("factors", [[16], [4, 4]], ids=str)
def test_bernoulli_stabilization_time_regression(factors):
    # rebuilding each T_n by closing all n shifted generators took 3.5-11 s on a 2-core machine
    b = ShiftGroup(FgAbGroup(factors))
    start = time.perf_counter()
    report = h_alg_stabilized(b, b.first_coordinate_copy())
    assert time.perf_counter() - start < 3.0
    assert report.log_of == 16


def _scaled_map(n):
    """A seeded n x n matrix in the CLI's syntax: entries p/q with p in
    [-5, 5] and q in [1, 5], and a nonzero diagonal."""
    draw = random.Random(n)
    rows = (",".join(f"{draw.choice([p for p in range(-5, 6) if p or i != j])}/"
                     f"{draw.randint(1, 5)}" for j in range(n)) for i in range(n))
    return "[" + ",".join(f"[{row}]" for row in rows) + "]"


@pytest.mark.parametrize("command, n, extra", [
    ("stabilized", 24, "--sub"),
    ("adjoint", 16, "--sub"),
    ("intrinsic", 24, "--cross-check"),
    ("stabilized", 40, "--sub"),
    ("adjoint", 40, "--sub"),
])
def test_scaled_map_entropies_cold_time_regression(command, n, extra):
    # the old echelon pass never reduced its rows, so entries compounded:
    # on a 2-core machine stabilized took 5.3 s, intrinsic --cross-check
    # 5.8 s, and adjoint ran past 60 s; at 40 x 40 the cofactor inverse
    # of the index limit (n^2 determinants) took stabilized to 2.7-4.4 s
    # and adjoint to 2.9-4.7 s
    matrix = _scaled_map(n)
    argv = ["entropy", command, "--matrix", matrix, extra]
    if extra == "--sub":
        argv.append(json.dumps([[int(i == j) for j in range(n)] for i in range(n)]))
    code, seconds, out, err = fresh_run(argv)
    assert code == 0, err
    # the leading coefficient of the charpoly is read without a Hermite form
    oracle = io.StringIO()
    assert run(["entropy", "intrinsic", "--matrix", matrix], oracle) == 0
    want = json.loads(oracle.getvalue())["log_of"]
    payload = json.loads(out)
    assert payload["log_of"] == want
    if extra == "--cross-check":
        assert payload["cross_check"]["agreement"]
        assert payload["cross_check"]["log_of"] == want
    assert seconds < 3.0


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
