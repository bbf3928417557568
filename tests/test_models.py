"""Direct-sum shift groups, linear shift spaces, and cylinder families."""

import random
import time
from functools import partial
from fractions import Fraction
from itertools import count, islice, pairwise

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st
from shift_oracle import bfs_closure
from sympy.polys.matrices import DomainMatrix

from algentropy import entropy
from algentropy.abelian import FgAbGroup
from algentropy.entropy import h_alg_stabilized, i_entropy, trajectory
from algentropy.errors import AmbientMismatchError, BudgetExceededError, DomainError
from algentropy.models import (
    CylinderFamily,
    LinearShiftSpace,
    ShiftGroup,
    cylinder_cotrajectory_index,
    shift_trajectory_order,
    two_sided_shift_inert_index,
)


def test_shift_element_normalizes_support():
    g = ShiftGroup(FgAbGroup([4]))
    a = g.element({0: [1], 3: [0]})
    assert a.support == ((0, (1,)),)
    assert g.element({2: [4]}).is_zero()
    assert (a - a).is_zero()


def test_shift_addition_is_cellwise():
    g = ShiftGroup(FgAbGroup([2, 4]))
    a = g.element({0: [1, 3], 1: [0, 1]})
    b = g.element({0: [1, 1], 2: [1, 0]})
    # position 0 sums to (2, 4) = 0 in the cell and drops out
    assert dict((a + b).support) == {1: (0, 1), 2: (1, 0)}


def test_shifted_moves_support():
    g = ShiftGroup(FgAbGroup([3]))
    a = g.element({0: [1], 2: [2]})
    assert dict(a.shifted().support) == {1: (1,), 3: (2,)}
    assert dict(a.shifted(3).support) == {3: (1,), 5: (2,)}
    # the right shift is not invertible on the one-sided sum
    with pytest.raises(DomainError):
        a.shifted(-1)


SHIFT_CELLS = [[m] for m in range(2, 10)] + [[2, 2], [2, 2, 2], [3, 3]]


def test_first_coordinate_copy_generates_cell():
    g = ShiftGroup(FgAbGroup([2, 4]))
    gens = g.first_coordinate_copy()
    assert len(gens) == 2
    assert len(g.closure(gens)) == 8


@given(st.integers(1, 4))
def test_closure_orders_are_powers_of_cell_order(k):
    g = ShiftGroup(FgAbGroup([2]))
    gens = [g.element({i: [1]}) for i in range(k)]
    assert len(g.closure(gens)) == 2**k


def test_closure_cap_enforced(monkeypatch):
    g = ShiftGroup(FgAbGroup([2]))
    gens = [g.element({i: [1]}) for i in range(8)]
    monkeypatch.setenv("ALGENTROPY_ELEMENT_CAP", "100")
    with pytest.raises(BudgetExceededError):
        g.closure(gens)


def test_closure_and_orders_read_the_session_element_cap(monkeypatch):
    g = ShiftGroup(FgAbGroup([2]))
    gens = [g.element({i: [1]}) for i in range(8)]
    assert len(g.closure(gens)) == 256
    monkeypatch.setenv("ALGENTROPY_ELEMENT_CAP", "100")
    with pytest.raises(BudgetExceededError):
        g.closure(gens)
    with pytest.raises(BudgetExceededError):
        shift_trajectory_order(g, g.first_coordinate_copy(), 8)
    assert shift_trajectory_order(g, g.first_coordinate_copy(), 6) == 64
    monkeypatch.setenv("ALGENTROPY_ELEMENT_CAP", "256")
    assert len(g.closure(gens)) == 256


def test_closure_over_the_cap_raises_before_building_time_regression():
    # a breadth-first closure built the cap's 10^6 elements, each of up
    # to 40 places, before it raised; the order is known from the form
    g = ShiftGroup(FgAbGroup([2]))
    gens = [g.element({i: [1]}) for i in range(40)]
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError):
        g.closure(gens)
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("factors", SHIFT_CELLS + [[2, 4], [4, 8], [6, 12]], ids=str)
def test_closure_and_order_match_the_breadth_first_closure(factors, monkeypatch):
    # at most three generators of order <= 12 keep every subgroup under 12^3
    monkeypatch.setenv("ALGENTROPY_ELEMENT_CAP", "5000")
    group = ShiftGroup(FgAbGroup(factors))
    draw = random.Random(f"closure/{factors}")
    for _ in range(25):
        gens = [group.element({
            pos: [draw.randrange(d) for d in factors]
            for pos in draw.sample([0, 1, 2, 5, 40], draw.randint(1, 3))
        }) for _ in range(draw.randint(0, 3))]
        want = bfs_closure(group, gens, 5000)
        places = sorted({pos for g in gens for pos, _ in g.support})
        rows, moduli = group._lattice(gens, places)
        assert ShiftGroup._order(ShiftGroup._hnf(rows, moduli), moduli) == len(want), gens
        assert group.closure(gens) == want, gens


def test_closure_rejects_foreign_elements():
    g, h = ShiftGroup(FgAbGroup([2])), ShiftGroup(FgAbGroup([3]))
    with pytest.raises(AmbientMismatchError):
        g.closure([h.element({0: [1]})])


def test_shift_trajectory_order_doubles_per_step():
    # T_n(shift, cell copy) spreads over n coordinates
    g = ShiftGroup(FgAbGroup([2]))
    gens = list(g.first_coordinate_copy())
    assert [shift_trajectory_order(g, gens, n) for n in (1, 2, 3, 4)] == [2, 4, 8, 16]


# The trajectory stream adds one shifted copy of F per step.  The oracle
# is the from-scratch closure of every shifted generator, one BFS per n.

ORACLE_CAP = 800


def _spread_generators(group, seed, count):
    """``count`` seeded generators, each supported on 2 or 3 of positions 0..3."""
    rng = random.Random(seed)
    factors = group.cell.invariant_factors
    gens = []
    for _ in range(count):
        positions = rng.sample(range(4), rng.randint(2, 3))
        gens.append(group.element({
            p: [rng.randrange(1, factors[0])] + [rng.randrange(d) for d in factors[1:]]
            for p in positions
        }))
    return gens


def _closure_of_shifts(group, gens, n, cap):
    return bfs_closure(group, [g.shifted(i) for i in range(n) for g in gens], cap)


def _or_budget(fn, *args):
    try:
        return fn(*args)
    except BudgetExceededError:
        return "over cap"


@pytest.mark.parametrize("factors", SHIFT_CELLS, ids=str)
def test_shift_trajectory_order_matches_closure_of_shifts(factors, monkeypatch):
    monkeypatch.setenv("ALGENTROPY_ELEMENT_CAP", str(ORACLE_CAP))
    group = ShiftGroup(FgAbGroup(factors))
    for seed in (0, 1):
        gens = _spread_generators(group, seed, 1 + seed)
        for n in range(1, 6):
            want = _or_budget(_closure_of_shifts, group, gens, n, ORACLE_CAP)
            got = _or_budget(shift_trajectory_order, group, gens, n)
            assert got == (want if want == "over cap" else len(want)), (gens, n)


@pytest.mark.parametrize("factors", SHIFT_CELLS, ids=str)
def test_shift_trajectory_sets_match_closure_of_shifts(factors, monkeypatch):
    monkeypatch.setenv("ALGENTROPY_ELEMENT_CAP", str(ORACLE_CAP))
    group = ShiftGroup(FgAbGroup(factors))
    gens = _spread_generators(group, 2, 2)
    for n in range(1, 4):
        want = _or_budget(_closure_of_shifts, group, gens, n, ORACLE_CAP)
        got = _or_budget(trajectory, group, gens, n)
        assert got == want, (gens, n)


def _window_state(elems, place):
    """K: the elements supported at places >= ``place``, shifted back there."""
    return {
        tuple((pos - place, c) for pos, c in x.support)
        for x in elems if all(pos >= place for pos, _ in x.support)
    }


def _closure_indices(group, gens, sets, beyond=1):
    """a_1, a_2, ... from the closures of the shifted generators, the
    first n with K_{n+1} = K_n, and K_1, K_2, ... as element sets.  The
    closures stop at T_``sets``, or ``beyond`` indices past that n,
    whichever comes later."""
    first = min(pos for g in gens for pos, _ in g.support)
    closures, states, stop = [], [], None
    for n in count(1):
        if n > sets and stop is not None and n > stop + beyond + 1:
            break
        closures.append(_closure_of_shifts(group, gens, n, 10**4))
        states.append(_window_state(closures[-1], first + n))
        if stop is None and n > 1 and states[-2] == states[-1]:
            stop = n - 1
    return [len(b) // len(a) for a, b in pairwise(closures)], stop, states


def _assert_shift_stop(group, gens, seq, stop):
    for report in (h_alg_stabilized(group, gens), i_entropy(group, gens, "log_order")):
        assert (report.steps_used, report.heuristic) == (stop, False), gens
        # the value at the stop is every later value the oracle reaches
        assert set(seq[stop - 1:]) == {report.log_of}, (gens, seq)


@pytest.mark.parametrize("factors", SHIFT_CELLS, ids=str)
def test_shift_stabilization_matches_closure_of_shifts(factors):
    # one generator, and one index past the stop
    group = ShiftGroup(FgAbGroup(factors))
    gens = _spread_generators(group, 3, 1)
    seq, stop, _ = _closure_indices(group, gens, 2)
    _assert_shift_stop(group, gens, seq, stop)


def _lattice_window_sets(group, gens, steps):
    """K_1, ..., K_steps from the entropy's cell-lattice window states over
    the seed's places x cell coordinates, each mapped to its element set."""
    occupied = [pos for g in gens for pos, _ in g.support]
    width = group.cell.dim
    rows, moduli = group._lattice(gens, range(min(occupied), max(occupied) + 1))
    reduce = partial(ShiftGroup._hnf, moduli=moduli)
    sets = []
    for state in islice(entropy._window_states(reduce, width, reduce(rows)), steps):
        elems = [group.element({k: row[k * width:(k + 1) * width]
                                for k in range(len(row) // width)}) for row in state]
        sets.append({x.support for x in bfs_closure(group, elems, 10**4)})
    return sets


def test_shift_stop_holds_for_eight_closure_steps():
    # seeds spread over up to three places from an offset of up to 2; a
    # lone generator of order 2 keeps |T_8| <= 2^8, and over Z/2 two
    # generators within five places keep it <= 2^12
    draw = random.Random("shift-stop")
    cells = [[2]] * 4 + [[2, 2], [2, 2, 2]]
    stops = set()
    for trial in range(12):
        factors = cells[trial % len(cells)]
        group = ShiftGroup(FgAbGroup(factors))
        offset = draw.randint(0, 2)
        size = draw.randint(1, 2) if factors == [2] else 1
        gens = [group.element({
            offset + pos: [draw.randrange(1, factors[0])] + [draw.randrange(d) for d in factors[1:]]
            for pos in draw.sample(range(5 if factors == [2] else 3), draw.randint(1, 3))
        }) for _ in range(size)]
        seq, stop, states = _closure_indices(group, gens, 8)
        assert len(seq) >= 7
        _assert_shift_stop(group, gens, seq, stop)
        # the lattice window states are the closures' windows, step by step
        assert _lattice_window_sets(group, gens, 8) == states[:8], gens
        stops.add(stop)
    assert stops == {1, 2, 3, 4}


def test_shift_step_with_seed_over_many_positions_time_regression():
    # F = <e_0..e_9> shares most of itself with beta(F); adding every
    # a + b for a in T_n and b in beta^n(F) took about 24 s on a 2-core
    # machine, adding one coset per new b about 0.2 s
    group = ShiftGroup(FgAbGroup([2]))
    gens = [group.element({i: [1]}) for i in range(10)]
    start = time.perf_counter()
    orders = [shift_trajectory_order(group, gens, n) for n in (2, 3)]
    assert time.perf_counter() - start < 3.0
    assert orders == [2**11, 2**12]


def test_linear_shift_space_reduce_mod_p():
    s = LinearShiftSpace(p=5)
    vecs = [s.vector([1, 2]), s.vector([2, 4]), s.vector([0, 1])]
    assert s.dim(vecs) == 2
    assert s.dim([s.vector([])]) == 0
    assert s.dim([s.vector([5, 10])]) == 0


def test_linear_shift_space_rational():
    s = LinearShiftSpace(p=0)
    assert s.dim([s.vector([1]), s.vector([3])]) == 1
    assert s.dim([s.vector([1]), s.vector([0, 1]), s.vector([1, 1])]) == 2


@st.composite
def sequence_rows(draw):
    """Rows of unequal lengths with zero rows, repeats, combinations of
    earlier rows and trailing zeros."""
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["fresh", "fresh", "zero", "repeat", "combine"]))
        if kind == "zero":
            rows.append([0] * draw(st.integers(0, 4)))
        elif kind == "repeat" and rows:
            rows.append(list(draw(st.sampled_from(rows))))
        elif kind == "combine" and rows:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            a, b = a + [0] * (len(b) - len(a)), b + [0] * (len(a) - len(b))
            x, y = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
            rows.append([x * s + y * t for s, t in zip(a, b)])
        else:
            entry = st.one_of(st.just(0), st.integers(-9, 9))
            rows.append(draw(st.lists(entry, max_size=5)) + [0] * draw(st.integers(0, 2)))
    return rows


def _strip(row):
    row = list(row)
    while row and not row[-1]:
        row.pop()
    return tuple(row)


def sympy_rref(rows, p):
    """Nonzero rows of the reduced echelon form from sympy, trailing zeros
    stripped: Matrix.rref over Q, DomainMatrix.rref over GF(p)."""
    width = max(map(len, rows), default=0)
    padded = [list(r) + [0] * (width - len(r)) for r in rows]
    if not padded or not width:
        return ()
    if p:
        field = sympy.GF(p)
        form = DomainMatrix([[field(x) for x in r] for r in padded], (len(rows), width),
                            field).rref()[0].to_list()
        form = [[int(x) % p for x in r] for r in form]
    else:
        m = sympy.Matrix(padded).rref()[0]
        form = [[Fraction(int(x.p), int(x.q)) for x in m.row(i)] for i in range(m.rows)]
    return tuple(r for r in map(_strip, form) if r)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([0, 2, 3, 5, 7]), sequence_rows())
@example(0, [[2, 4], [1, 2], [0, 0, 0], [0, 3]])
@example(2, [[1, 1, 0], [1, 1, 0], [0, 0, 1, 0, 0]])
def test_linear_shift_space_reduce_matches_sympy_rref(p, rows):
    space = LinearShiftSpace(p)
    assert space.reduce(rows) == sympy_rref(rows, p)


def test_linear_shift_space_prime_required():
    with pytest.raises(DomainError):
        LinearShiftSpace(p=4)
    LinearShiftSpace(p=2)


def test_shift_operator_on_vectors():
    s = LinearShiftSpace(p=3)
    v = s.vector([1, 0, 2])
    assert s.shift(v) == s.vector([0, 1, 0, 2])
    assert s.shift(s.vector([])) == ()


def test_cylinder_cotrajectory_closed_form():
    fam = CylinderFamily(FgAbGroup([3]))
    assert [cylinder_cotrajectory_index(fam, 0, n) for n in (1, 2, 3)] == [1, 3, 9]
    # independent of which cylinder starts the chain
    assert cylinder_cotrajectory_index(fam, 5, 4) == 27
    with pytest.raises(DomainError):
        cylinder_cotrajectory_index(CylinderFamily(FgAbGroup([3]), two_sided=True), 0, 2)
    with pytest.raises(DomainError):
        cylinder_cotrajectory_index(fam, 0, 0)


def test_two_sided_inert_index_constant_in_k():
    fam = CylinderFamily(FgAbGroup([2, 2]), two_sided=True)
    assert [two_sided_shift_inert_index(fam, k) for k in (0, 1, 5)] == [4, 4, 4]
    with pytest.raises(DomainError):
        two_sided_shift_inert_index(CylinderFamily(FgAbGroup([2])), 1)


def test_cylinder_index_between():
    fam = CylinderFamily(FgAbGroup([4]))
    assert fam.index_between(0, 3) == 64
    assert fam.index_between(2, 2) == 1
    fam2 = CylinderFamily(FgAbGroup([4]), two_sided=True)
    # two-sided windows grow on both ends
    assert fam2.index_between(0, 2) == 4**4


def test_infinite_cell_rejected():
    with pytest.raises(DomainError):
        ShiftGroup(FgAbGroup([], free_rank=1))
    with pytest.raises(DomainError):
        CylinderFamily(FgAbGroup([2], free_rank=1))
