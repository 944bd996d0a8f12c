"""Exact simplex solver against hand solutions, a float reference and the
Fraction tableau it replaced."""
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arbor import lp
from arbor.lp import LpError, LpSolution, solve_lp, verify_optimal
from bruteforce import fraction_simplex


def test_simple_bounded_maximum():
    # min -x - y subject to x + y <= 1
    sol = solve_lp([-1, -1], [[1, 1]], [1], [], [])
    assert sol.value == Fraction(-1)
    assert sum(sol.x) == Fraction(1)


def test_equality_constraint():
    sol = solve_lp([1, 0], [], [], [[1, 1]], [1])
    assert sol.value == Fraction(0)
    assert sol.x == (Fraction(0), Fraction(1))


def test_mixed_constraints_exact_fraction():
    # min x + y with 3x + y >= 1 and x + 3y >= 1 (as <= rows with negation)
    sol = solve_lp([1, 1], [[-3, -1], [-1, -3]], [-1, -1], [], [])
    assert sol.value == Fraction(1, 2)
    assert sol.x == (Fraction(1, 4), Fraction(1, 4))


def test_negative_rhs_normalization():
    sol = solve_lp([1], [[-1]], [-2], [], [])  # x >= 2
    assert sol.value == Fraction(2)


def test_infeasible_raises():
    with pytest.raises(LpError, match="infeasible"):
        solve_lp([1], [[1]], [-1], [], [])  # x <= -1 with x >= 0


def test_unbounded_raises():
    with pytest.raises(LpError, match="unbounded"):
        solve_lp([-1], [], [], [], [])


def test_degenerate_program():
    # multiple constraints active at the optimum
    sol = solve_lp([-1, -1, -1],
                   [[1, 1, 0], [0, 1, 1], [1, 0, 1], [1, 1, 1]],
                   [1, 1, 1, Fraction(3, 2)], [], [])
    assert sol.value == Fraction(-3, 2)


def test_solution_satisfies_constraints_exactly():
    rng = random.Random(7)
    for trial in range(30):
        n = rng.randint(2, 5)
        m = rng.randint(1, 5)
        c = [rng.randint(-4, 4) for _ in range(n)]
        a = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        b = [rng.randint(1, 6) for _ in range(m)]  # feasible at x = 0
        eq = [[1] * n]
        beq = [rng.randint(1, 3)]
        bound_row = [[1] * n]
        try:
            sol = solve_lp(c, a + bound_row, b + [10], eq, beq)
        except LpError:
            continue
        for row, rhs in zip(a + bound_row, b + [10]):
            lhs = sum(Fraction(v) * xi for v, xi in zip(row, sol.x))
            assert lhs <= rhs
        assert sum(sol.x) == beq[0]
        assert all(xi >= 0 for xi in sol.x)
        assert sol.value == sum(Fraction(v) * xi for v, xi in zip(c, sol.x))


def test_against_float_reference():
    scipy = pytest.importorskip("scipy.optimize")
    rng = random.Random(11)
    checked = 0
    for trial in range(40):
        n = rng.randint(2, 4)
        m = rng.randint(1, 4)
        c = [rng.randint(-5, 5) for _ in range(n)]
        a = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        b = [rng.randint(0, 5) for _ in range(m)]
        a_cap = a + [[1] * n]
        b_cap = b + [8]
        ref = scipy.linprog(c, A_ub=a_cap, b_ub=b_cap, method="highs")
        try:
            sol = solve_lp(c, a_cap, b_cap, [], [])
        except LpError:
            assert not ref.success
            continue
        assert ref.success
        assert abs(float(sol.value) - ref.fun) < 1e-7
        checked += 1
    assert checked >= 20


def test_dual_certificate_fields():
    # min x + y with 3x + y >= 1 and x + 3y >= 1: both rows bind, y = -1/4
    sol = solve_lp([1, 1], [[-3, -1], [-1, -3]], [-1, -1], [], [])
    assert sol.y == (Fraction(-1, 4), Fraction(-1, 4))
    eq = solve_lp([1, 2], [], [], [[1, 1]], [1])
    assert eq.value == 1 and eq.y == (Fraction(1),)


def test_corrupted_dual_is_rejected():
    # min x + y with x + y = 1 and 3x + y >= 1: the equality's dual is 1
    c, a_ub, b_ub, a_eq, b_eq = [1, 1], [[-3, -1]], [-1], [[1, 1]], [1]
    sol = solve_lp(c, a_ub, b_ub, a_eq, b_eq)
    assert sol.value == 1 and sol.y == (Fraction(0), Fraction(1))
    verify_optimal(c, a_ub, b_ub, a_eq, b_eq, sol)
    corrupted = [
        ((Fraction(1, 4), Fraction(1)), "inequality is positive"),
        ((Fraction(0), Fraction(2)), "dual is infeasible"),
        ((Fraction(0), Fraction(1, 2)), "b.y differs"),
        ((Fraction(0),), "one dual value per constraint"),
    ]
    for y, message in corrupted:
        with pytest.raises(LpError, match=message):
            verify_optimal(c, a_ub, b_ub, a_eq, b_eq,
                           LpSolution(sol.value, sol.x, y))
    with pytest.raises(LpError, match="violated"):
        verify_optimal(c, a_ub, b_ub, a_eq, b_eq,
                       LpSolution(Fraction(0), (Fraction(0), Fraction(0)),
                                  sol.y))


@pytest.mark.parametrize("a_ub,b_ub,a_eq,b_eq,kind", [
    ([[1, 1, 1]], [1], [], [], "inequality"),
    ([], [], [[1]], [1], "equality"),
], ids=["inequality", "equality"])
def test_row_of_wrong_width_is_refused(a_ub, b_ub, a_eq, b_eq, kind):
    # the solver and the certificate check each read every row's width
    # against the cost vector's
    data = [1, 1], a_ub, b_ub, a_eq, b_eq
    message = f"^{kind} row has wrong width$"
    with pytest.raises(LpError, match=message):
        solve_lp(*data)
    zero = LpSolution(Fraction(0), (Fraction(0),) * 2, (Fraction(0),))
    with pytest.raises(LpError, match=message):
        verify_optimal(*data, zero)


def test_redundant_equality_rows_are_dropped():
    # the second row is twice the first: phase 1 leaves a row with no real
    # entry, which must go without disturbing the optimum or its dual
    sol = solve_lp([1, 2, 0], [[1, 0, 1]], [3],
                   [[1, 1, 1], [2, 2, 2], [0, 1, 0]], [2, 4, 1])
    assert sol.value == Fraction(2)
    assert sol.x == (Fraction(0), Fraction(1), Fraction(1))


_SMALL = st.integers(-2, 2)


@st.composite
def _small_lps(draw):
    n = draw(st.integers(1, 4))
    row = st.lists(_SMALL, min_size=n, max_size=n)
    c = draw(row)
    a_ub = draw(st.lists(row, max_size=4))
    b_ub = draw(st.lists(st.integers(-2, 3), min_size=len(a_ub),
                         max_size=len(a_ub)))
    a_eq = draw(st.lists(row, max_size=2))
    b_eq = draw(st.lists(st.integers(-2, 3), min_size=len(a_eq),
                         max_size=len(a_eq)))
    if a_eq and draw(st.booleans()):  # a redundant equality row
        a_eq.append([2 * v for v in a_eq[0]])
        b_eq.append(2 * b_eq[0])
    if draw(st.booleans()):  # a box, so most programs are bounded
        a_ub.append([1] * n)
        b_ub.append(draw(st.integers(0, 4)))
    return c, a_ub, b_ub, a_eq, b_eq


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_small_lps())
def test_against_highs_with_dual_certificate(lp):
    scipy = pytest.importorskip("scipy.optimize")
    c, a_ub, b_ub, a_eq, b_eq = lp
    n = len(c)
    ref_args = dict(A_ub=a_ub or None, b_ub=b_ub or None,
                    A_eq=a_eq or None, b_eq=b_eq or None, method="highs")
    feasible = scipy.linprog([0] * n, **ref_args).status == 0
    try:
        sol = solve_lp(c, a_ub, b_ub, a_eq, b_eq)
    except LpError as err:
        if "infeasible" in str(err):
            assert not feasible
        else:
            assert "unbounded" in str(err)
            assert feasible
            assert scipy.linprog(c, **ref_args).status == 3
        return
    ref = scipy.linprog(c, **ref_args)
    assert ref.status == 0
    assert abs(float(sol.value) - ref.fun) < 1e-7
    # exact primal feasibility
    assert all(v >= 0 for v in sol.x)
    for row, b in zip(a_ub, b_ub):
        assert sum(a * x for a, x in zip(row, sol.x)) <= b
    for row, b in zip(a_eq, b_eq):
        assert sum(a * x for a, x in zip(row, sol.x)) == b
    assert sol.value == sum(a * x for a, x in zip(c, sol.x))
    # dual certificate: y <= 0 on <= rows, A^T y <= c, b.y == value
    y_ub, y_eq = sol.y[:len(a_ub)], sol.y[len(a_ub):]
    assert len(y_eq) == len(a_eq)
    assert all(v <= 0 for v in y_ub)
    for j in range(n):
        col = sum(row[j] * v for row, v in zip(a_ub + a_eq, sol.y))
        assert col <= c[j]
    assert sum(b * v for b, v in zip(b_ub + b_eq, sol.y)) == sol.value


# entries with denominators, so rows are scaled by their lcm and pivots
# that do not divide an entry scale and reduce the row they clear
_RATIONAL = st.sampled_from([0, 0, 0, 1, -1, 2, -2, 3, Fraction(1, 2),
                             Fraction(-3, 2), Fraction(2, 3), Fraction(-5, 6)])


@st.composite
def _rational_lps(draw):
    n = draw(st.integers(1, 5))
    row = st.lists(_RATIONAL, min_size=n, max_size=n)
    c = draw(row)
    a_ub = draw(st.lists(row, max_size=5))
    a_eq = draw(st.lists(row, max_size=3))
    box = draw(st.integers(0, 4))
    if draw(st.booleans()):
        # feasible at x0: right-hand sides of either sign, and zero slacks
        # make degenerate vertices
        x0 = draw(st.lists(st.sampled_from([0, 0, 1, 2, Fraction(1, 2)]),
                           min_size=n, max_size=n))
        slack = st.sampled_from([0, 0, 1, Fraction(1, 3)])
        b_eq = [sum(a * x for a, x in zip(r, x0)) for r in a_eq]
        b_ub = [sum(a * x for a, x in zip(r, x0)) + draw(slack) for r in a_ub]
        box += sum(x0)
    else:
        rhs = st.sampled_from([0, 1, 2, -1, Fraction(1, 2), Fraction(-4, 3)])
        b_ub = [draw(rhs) for _ in a_ub]
        b_eq = [draw(rhs) for _ in a_eq]
    if a_eq and draw(st.booleans()):  # a redundant equality row
        k = draw(st.sampled_from([2, -1, Fraction(1, 3)]))
        a_eq.append([k * v for v in a_eq[0]])
        b_eq.append(k * b_eq[0])
    if draw(st.booleans()):  # a box, so most programs are bounded
        a_ub.append([1] * n)
        b_ub.append(box)
    return c, a_ub, b_ub, a_eq, b_eq


@pytest.mark.parametrize("bland_after", [lp.BLAND_AFTER, 0, 2])
@settings(max_examples=250, deadline=None, derandomize=True, database=None)
@given(program=_rational_lps())
def test_integer_tableau_matches_the_fraction_oracle(bland_after, program):
    pivots, want_pivots = [], []
    real_pivot = lp._Tableau.pivot

    def record(tab, r, col):
        pivots.append((r, col))
        real_pivot(tab, r, col)

    with mock.patch.object(lp, "BLAND_AFTER", bland_after), \
            mock.patch.object(lp._Tableau, "pivot", record):
        try:
            want = fraction_simplex(*program, want_pivots)
        except LpError as err:
            with pytest.raises(LpError) as got:
                solve_lp(*program)
            assert str(got.value) == str(err)
        else:
            got = solve_lp(*program)
            assert (got.value, got.x, got.y) == (want.value, want.x, want.y)
    assert pivots == want_pivots
