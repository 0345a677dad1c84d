"""Two-phase simplex solver against hand solutions, vertex enumeration and
the row-by-row kernel it replaced."""

from dataclasses import fields
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from corrineq import catalog, lhv, simplex
from corrineq.errors import DimensionMismatch, NumericalBreakdown
from corrineq.simplex import (
    FEASIBILITY_TOL,
    INFEASIBLE,
    OPTIMAL,
    OPTIMALITY_TOL,
    PIVOT_TOL,
    UNBOUNDED,
    LpProblem,
    simplex_solve,
)


def slack_form(c, a_eq=None, b_eq=None, a_ub=None, b_ub=None, maximize=False):
    """min (or max) c.x s.t. a_eq x = b_eq, a_ub x <= b_ub, x >= 0, posed as
    equality rows: each a_ub row gets a slack column of its own,
    [a_eq 0; a_ub I] [x; s] = [b_eq; b_ub]."""
    c = np.asarray(c, dtype=float)
    n = c.size
    a_eq = np.zeros((0, n)) if a_eq is None else np.asarray(a_eq, dtype=float)
    a_ub = np.zeros((0, n)) if a_ub is None else np.asarray(a_ub, dtype=float)
    m_eq, m_ub = a_eq.shape[0], a_ub.shape[0]
    a = np.zeros((m_eq + m_ub, n + m_ub))
    a[:m_eq, :n], a[m_eq:, :n], a[m_eq:, n:] = a_eq, a_ub, np.eye(m_ub)
    b = np.concatenate([np.zeros(0) if b_eq is None else b_eq, np.zeros(0) if b_ub is None else b_ub])
    return LpProblem(c=np.concatenate([c, np.zeros(m_ub)]), a_eq=a, b_eq=b, maximize=maximize)


def solve(c, a_eq=None, b_eq=None, a_ub=None, b_ub=None, maximize=False):
    """The slack-form LP's solution, its x cut back to the columns of c;
    duals_eq and farkas_eq hold the a_eq rows, then the a_ub rows."""
    solution = simplex_solve(slack_form(c, a_eq, b_eq, a_ub, b_ub, maximize))
    if solution.x is not None:
        solution.x = solution.x[:len(c)]
    return solution


def brute_force_max(c, a_ub, b_ub, tol=1e-9):
    """Exact optimum of max c.x s.t. a_ub x <= b_ub, x >= 0, by vertices.

    Only valid when the feasible region is bounded; returns None when no
    vertex is feasible (region empty, since a bounded nonempty
    polyhedron has a vertex here).
    """
    c = np.asarray(c, dtype=float)
    n = c.size
    rows = [(np.asarray(r, dtype=float), float(rhs)) for r, rhs in zip(a_ub, b_ub)]
    rows += [(-np.eye(n)[i], 0.0) for i in range(n)]
    best = None
    for active in combinations(range(len(rows)), n):
        a = np.array([rows[i][0] for i in active])
        b = np.array([rows[i][1] for i in active])
        try:
            vertex = np.linalg.solve(a, b)
        except np.linalg.LinAlgError:
            continue
        ok = all(np.dot(r, vertex) <= rhs + tol for r, rhs in rows)
        if ok:
            value = float(c @ vertex)
            if best is None or value > best:
                best = value
    return best


class TestKnownSolutions:
    def test_simple_max(self):
        # max x + y s.t. x <= 2, y <= 3
        sol = solve([1, 1], a_ub=[[1, 0], [0, 1]], b_ub=[2, 3], maximize=True)
        assert sol.status == OPTIMAL
        assert sol.objective == pytest.approx(5.0)
        assert sol.x == pytest.approx([2.0, 3.0])

    def test_shared_resource(self):
        # max 3x + 5y s.t. x + 2y <= 14, 3x - y <= 0, x - y <= 2
        sol = solve(
            [3, 5],
            a_ub=[[1, 2], [3, -1], [1, -1]],
            b_ub=[14, 0, 2],
            maximize=True,
        )
        assert sol.status == OPTIMAL
        assert sol.objective == pytest.approx(36.0)
        assert sol.x == pytest.approx([2.0, 6.0])

    def test_equality_constrained(self):
        # min x + 2y + 3z s.t. x + y + z = 1
        sol = solve([1, 2, 3], a_eq=[[1, 1, 1]], b_eq=[1])
        assert sol.status == OPTIMAL
        assert sol.objective == pytest.approx(1.0)

    def test_unbounded(self):
        sol = solve([1, 0], a_ub=[[-1, 0]], b_ub=[1], maximize=True)
        assert sol.status == UNBOUNDED

    def test_infeasible_bounds(self):
        # x <= 1 and -x <= -2 cannot both hold
        sol = solve([1], a_ub=[[1], [-1]], b_ub=[1, -2], maximize=True)
        assert sol.status == INFEASIBLE

    def test_infeasible_equalities(self):
        sol = solve([1, 1], a_eq=[[1, 1], [1, 1]], b_eq=[1, 2])
        assert sol.status == INFEASIBLE

    def test_redundant_equality_rows(self):
        sol = solve([1, 1], a_eq=[[1, 1], [2, 2]], b_eq=[1, 2])
        assert sol.status == OPTIMAL
        assert sol.objective == pytest.approx(1.0)

    def test_no_variables(self):
        # phase 2 may enter no column at all; the parent solver returned optimal here
        sol = solve(np.zeros(0), a_eq=np.zeros((1, 0)), b_eq=[0.0])
        assert sol.status == OPTIMAL
        assert sol.objective == 0.0
        assert sol.x.shape == (0,) and sol.duals_eq.shape == (1,)
        assert sol.iterations == 0
        assert solve(np.zeros(0)).status == OPTIMAL
        assert solve(np.zeros(0), a_eq=np.zeros((1, 0)), b_eq=[1.0]).status == INFEASIBLE

    def test_degenerate_does_not_cycle(self):
        # classic cycling-prone instance; Bland's rule must terminate
        sol = solve(
            [-0.75, 150, -0.02, 6],
            a_ub=[
                [0.25, -60, -0.04, 9],
                [0.5, -90, -0.02, 3],
                [0, 0, 1, 0],
            ],
            b_ub=[0, 0, 1],
        )
        assert sol.status == OPTIMAL
        assert sol.objective == pytest.approx(-0.05)

    def test_degenerate_solution_has_no_negative_zeros(self):
        # the row-by-row kernel left x[1] == -0.0 here
        sol = solve([0, 0], a_ub=[[2, 2], [-1, 1], [0, -2]], b_ub=[2, -1, 1])
        assert sol.status == OPTIMAL
        assert sol.x.tolist() == [1.0, 0.0]
        assert not np.signbit(sol.x[sol.x == 0]).any()
        assert not np.signbit(sol.objective)


class TestNoRows:
    @pytest.mark.parametrize("maximize", [False, True])
    def test_no_constraints_nonnegative_cost(self, maximize):
        sol = solve([-1.0, 0.0] if maximize else [1.0, 0.0], maximize=maximize)
        assert sol.status == OPTIMAL
        assert sol.objective == 0.0 and not np.signbit(sol.objective)
        assert sol.x.tolist() == [0.0, 0.0]

    def test_no_constraints_negative_cost(self):
        assert solve([-1.0]).status == UNBOUNDED
        assert solve([1.0], maximize=True).status == UNBOUNDED

    def test_all_equality_rows_redundant(self):
        sol = solve([1, 2], a_eq=[[0, 0]], b_eq=[0])
        assert sol.status == OPTIMAL
        assert sol.objective == 0.0
        assert sol.x.tolist() == [0.0, 0.0]
        assert sol.duals_eq.tolist() == [0.0]
        assert solve([1, -2], a_eq=[[0, 0], [0, 0]], b_eq=[0, 0]).status == UNBOUNDED


class TestCertificates:
    def test_duals_match_objective(self):
        sol = solve(
            [3, 5],
            a_ub=[[1, 2], [3, -1], [1, -1]],
            b_ub=[14, 0, 2],
            maximize=True,
        )
        via_duals = float(sol.duals_eq @ np.array([14.0, 0.0, 2.0]))
        assert via_duals == pytest.approx(sol.objective, abs=1e-9)

    def test_farkas_certificate_for_infeasible(self):
        a_ub = np.array([[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
        b_ub = np.array([-1.0, 0.0, 0.0])
        sol = solve([1, 1], a_ub=a_ub, b_ub=b_ub)
        assert sol.status == INFEASIBLE
        yb = float(sol.farkas_eq @ b_ub)
        combo = sol.farkas_eq @ a_ub
        # on the slack-posed rows y.[A I] <= 0 is y.A <= 0 and y <= 0; with y.b > 0 it proves emptiness
        assert np.all(sol.farkas_eq <= 1e-9)
        assert np.all(combo <= 1e-7)
        assert yb > 1e-9

    def test_random_infeasible_certificates(self):
        rng = np.random.default_rng(7)
        found = 0
        for _ in range(200):
            n, m = rng.integers(2, 5), rng.integers(2, 6)
            a_ub = rng.normal(size=(m, n)).round(2)
            b_ub = rng.normal(size=m).round(2)
            sol = solve(rng.normal(size=n).round(2), a_ub=a_ub, b_ub=b_ub)
            if sol.status != INFEASIBLE:
                continue
            found += 1
            yb = float(sol.farkas_eq @ b_ub)
            combo = sol.farkas_eq @ a_ub
            assert np.all(sol.farkas_eq <= 1e-7)
            assert np.all(combo <= 1e-6)
            assert yb > 1e-9
        assert found > 10


class TestAgainstEnumeration:
    def test_random_bounded_problems(self):
        rng = np.random.default_rng(42)
        for trial in range(150):
            n = int(rng.integers(2, 5))
            m = int(rng.integers(1, 5))
            a_ub = rng.normal(size=(m, n)).round(2)
            b_ub = rng.uniform(0.5, 3.0, size=m).round(2)
            # box rows keep the region bounded so every optimum is a vertex
            a_full = np.vstack([a_ub, np.eye(n)])
            b_full = np.concatenate([b_ub, np.full(n, 4.0)])
            c = rng.normal(size=n).round(2)
            sol = solve(c, a_ub=a_full, b_ub=b_full, maximize=True)
            expected = brute_force_max(c, a_full, b_full)
            assert sol.status == OPTIMAL, f"trial {trial}"
            assert expected is not None
            assert sol.objective == pytest.approx(expected, abs=1e-7), f"trial {trial}"
            slack = b_full - a_full @ sol.x
            assert slack.min() >= -1e-8
            assert sol.x.min() >= -1e-8

    def test_random_equality_problems(self):
        rng = np.random.default_rng(3)
        for trial in range(60):
            n = int(rng.integers(2, 5))
            x_feas = rng.uniform(0.2, 1.5, size=n).round(2)
            a_eq = rng.normal(size=(1, n)).round(2)
            b_eq = a_eq @ x_feas  # feasible by construction
            a_ub = np.eye(n)
            b_ub = np.full(n, 5.0)
            c = rng.normal(size=n).round(2)
            sol = solve(c, a_eq=a_eq, b_eq=b_eq, a_ub=a_ub, b_ub=b_ub, maximize=True)
            assert sol.status == OPTIMAL, f"trial {trial}"
            assert np.abs(a_eq @ sol.x - b_eq).max() < 1e-8


class TestValidation:
    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            LpProblem(
                c=np.array([1.0, 2.0]),
                a_eq=np.array([[1.0, 2.0, 3.0]]),
                b_eq=np.array([1.0]),
            )

    def test_rhs_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            LpProblem(c=np.array([1.0]), a_eq=np.array([[1.0]]), b_eq=np.array([1.0, 2.0]))

    def test_equality_rows_only(self):
        # a_ub is a class attribute fixed at None, read by perfbench/tracing.py, and no field
        assert [f.name for f in fields(LpProblem)] == ["c", "a_eq", "b_eq", "maximize"]
        args = np.zeros(1), np.ones((1, 1)), np.ones(1)
        with pytest.raises(TypeError, match="a_ub"):
            LpProblem(*args, a_ub=np.ones((1, 1)))
        assert LpProblem(*args).a_ub is None


@st.composite
def column_rounds(draw):
    """(c, a_eq, b_eq, sizes): an equality LP whose columns arrive in
    rounds, the master after round k holding the first sizes[k] columns."""
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 14))
    kind = draw(st.sampled_from(["integer", "rounded-normal", "sparse"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    c = random_matrix(rng, kind, n) if draw(st.booleans()) else np.zeros(n)
    b_eq = rng.integers(-2 if draw(st.booleans()) else 0, 3, size=m).astype(float)
    sizes = sorted(set(draw(st.lists(st.integers(1, n - 1), max_size=4)) if n > 1 else [])) + [n]
    return c, random_matrix(rng, kind, (m, n)), b_eq, sizes


def master(c, a_eq, b_eq, k):
    return LpProblem(c=c[:k], a_eq=a_eq[:, :k], b_eq=b_eq)


class TestWarmStart:
    """A solve that resumes phase 1 from an earlier infeasible master,
    against a cold solve of the same columns."""

    @settings(max_examples=400, deadline=None)
    @given(column_rounds())
    # the warm start's optimal x held -3.7e-17 where a cold solve gives 0.0
    @example((np.zeros(14), np.array([
        [3, 2, -2, -3, -3, 3, 3, -2, 0, -3, 0, 0, -2, -2],
        [-3, 2, -3, 3, -1, 3, 1, -2, 2, 0, -1, 1, 3, -2],
        [2, -2, 3, 0, -2, -1, -2, -1, -2, 1, -1, -3, 2, -3]], dtype=float), np.array([2.0, 1.0, -1.0]), [2, 14]))
    # a cold solve's optimal x held -1.1e-16
    @example((np.array([0.0, 1.0, -3.0, -3.0]), np.array([[1.0, -1.0, 2.0, -3.0], [0.0, -3.0, 0.0, -3.0]]),
              np.array([-2.0, -2.0]), [4]))
    def test_rounds_of_appended_columns(self, case):
        c, a_eq, b_eq, sizes = case
        solution = None
        for k in sizes:
            problem = master(c, a_eq, b_eq, k)
            solution = simplex_solve(problem, start=solution)
            cold = simplex_solve(problem)
            assert solution.status == cold.status
            if solution.status == OPTIMAL:
                assert np.abs(problem.a_eq @ solution.x - b_eq).max() <= 1e-9
                assert solution.x.min() >= 0.0
                assert solution.objective == pytest.approx(cold.objective, abs=1e-9)
            elif solution.status == INFEASIBLE:
                y = solution.farkas_eq
                assert y @ b_eq > 0.0
                assert (y @ problem.a_eq).max(initial=0.0) <= 1e-9
            if solution.status != INFEASIBLE:
                break

    def test_no_new_column_takes_no_pivot(self):
        problem = LpProblem(c=np.zeros(2), a_eq=np.array([[1.0, 1.0], [1.0, -1.0]]), b_eq=np.array([1.0, 3.0]))
        first = simplex_solve(problem)
        again = simplex_solve(problem, start=first)
        assert first.status == again.status == INFEASIBLE
        assert again.iterations == 0
        assert np.array_equal(again.farkas_eq, first.farkas_eq)

    def test_appended_column_makes_it_feasible(self):
        # x1 - x2 = -1 needs x2 > x1; the first master has only x1
        a_eq = np.array([[1.0, 1.0], [1.0, -1.0]])
        b_eq = np.array([1.0, -1.0])
        first = simplex_solve(LpProblem(c=np.zeros(1), a_eq=a_eq[:, :1], b_eq=b_eq))
        assert first.status == INFEASIBLE
        second = simplex_solve(LpProblem(c=np.zeros(2), a_eq=a_eq, b_eq=b_eq), start=first)
        assert second.status == OPTIMAL
        assert second.x.tolist() == [0.0, 1.0]

    @pytest.fixture
    def infeasible(self):
        a_eq = np.array([[1.0, 1.0], [1.0, -1.0]])
        b_eq = np.array([1.0, 3.0])
        problem = LpProblem(c=np.zeros(2), a_eq=a_eq, b_eq=b_eq)
        return problem, simplex_solve(problem)

    def test_rejects_a_changed_right_hand_side(self, infeasible):
        problem, start = infeasible
        with pytest.raises(ValueError, match="right-hand side"):
            simplex_solve(LpProblem(c=np.zeros(2), a_eq=problem.a_eq, b_eq=np.array([1.0, 2.0])), start=start)

    def test_rejects_fewer_columns(self, infeasible):
        problem, start = infeasible
        with pytest.raises(ValueError, match="prefix"):
            simplex_solve(LpProblem(c=np.zeros(1), a_eq=problem.a_eq[:, :1], b_eq=problem.b_eq), start=start)

    def test_rejects_changed_earlier_columns(self, infeasible):
        problem, start = infeasible
        a_eq = np.hstack([problem.a_eq[:, ::-1], [[1.0], [0.0]]])
        with pytest.raises(ValueError, match="prefix"):
            simplex_solve(LpProblem(c=np.zeros(3), a_eq=a_eq, b_eq=problem.b_eq), start=start)

    def test_rejects_an_optimal_start(self):
        problem = LpProblem(c=np.zeros(2), a_eq=np.array([[1.0, 1.0]]), b_eq=np.array([1.0]))
        start = simplex_solve(problem)
        assert start.status == OPTIMAL
        with pytest.raises(ValueError, match="infeasible solution, got optimal"):
            simplex_solve(problem, start=start)


class TestBasicValues:
    """Optimal x as the final phase-2 tableau leaves it, shifted by a basic
    value between the tolerance and zero, or past it."""

    @pytest.fixture
    def shifted_phase_2(self, monkeypatch):
        run = simplex._run_simplex

        def shifted(value):
            def run_then_shift(tab, basis, cost, limit, max_iter):
                out = run(tab, basis, cost, limit, max_iter)
                if limit < tab.shape[1] - 1:  # phase 2: the artificials may not enter
                    tab[0, -1] = value
                return out
            monkeypatch.setattr(simplex, "_run_simplex", run_then_shift)
        return shifted

    def problem(self):
        return LpProblem(c=np.array([1.0, 1.0]), a_eq=np.array([[1.0, 1.0]]), b_eq=np.array([1.0]))

    @pytest.mark.parametrize("value", [-FEASIBILITY_TOL, -1e-16, -0.0])
    def test_dust_becomes_positive_zero(self, value, shifted_phase_2):
        shifted_phase_2(value)
        solution = simplex_solve(self.problem())
        assert solution.status == OPTIMAL
        assert solution.x.tolist() == [0.0, 0.0]
        assert not np.signbit(solution.x).any()

    def test_value_below_tolerance_raises(self, shifted_phase_2):
        shifted_phase_2(-2 * FEASIBILITY_TOL)
        with pytest.raises(NumericalBreakdown, match="basic value"):
            simplex_solve(self.problem())


# ---------------------------------------------------------------- reference
# The row-by-row kernel the sparse rank-1 pivot and the carried reduced-cost
# row replaced.  Swapped into corrineq.simplex, it must take the same pivots
# and give the same numbers.

def reference_pivot(tab, basis, row, col):
    piv = tab[row, col]
    if abs(piv) < PIVOT_TOL:
        raise NumericalBreakdown(f"pivot {piv:.3e} below {PIVOT_TOL}")
    tab[row] /= piv
    for r in range(tab.shape[0]):
        if r != row and tab[r, col] != 0.0:
            tab[r] -= tab[r, col] * tab[row]
    basis[row] = col


def reference_run_simplex(tab, basis, cost, allowed, max_iter):
    m, wide = tab.shape[0], tab.shape[1] - 1
    iterations = 0
    while True:
        c_b = cost[basis]
        r = cost - c_b @ tab[:, :wide]
        candidates = allowed & (r < -OPTIMALITY_TOL)
        if not candidates.any():
            return r, float(c_b @ tab[:, wide]), OPTIMAL, iterations
        entering = int(np.argmax(candidates))
        column = tab[:, entering]
        rows = column > FEASIBILITY_TOL
        if not rows.any():
            return r, None, UNBOUNDED, iterations
        ratios = np.full(m, np.inf)
        ratios[rows] = tab[rows, wide] / column[rows]
        best = ratios.min()
        ties = np.flatnonzero(ratios <= best + 1e-12)
        leaving = int(ties[np.argmin(basis[ties])])
        reference_pivot(tab, basis, leaving, entering)
        iterations += 1
        if iterations > max_iter:
            raise NumericalBreakdown(f"no convergence after {max_iter} pivots")


def reference_kernel():
    # the package's kernel gets the pivot column's nonzero rows and the count
    # of columns that may enter; the reference reads its own and takes a mask
    def pivot(tab, basis, row, col, rows):
        reference_pivot(tab, basis, row, col)

    def run_simplex(tab, basis, cost, limit, max_iter):
        return reference_run_simplex(tab, basis, cost, np.arange(cost.size) < limit, max_iter)

    return mock.patch.multiple(simplex, _pivot=pivot, _run_simplex=run_simplex)


def random_matrix(rng, kind, shape):
    if kind == "integer":
        return rng.integers(-3, 4, size=shape).astype(float)
    if kind == "rounded-normal":
        return rng.normal(size=shape).round(1)
    # sparse {-1, 0, 1}: mostly zeros, as in the probability polytopes
    return rng.choice([-1.0, 0.0, 0.0, 0.0, 1.0], size=shape)


@st.composite
def lp_problems(draw):
    n = draw(st.integers(1, 6))
    m_eq, m_ub = draw(st.integers(0, 3)), draw(st.integers(0, 4))
    kind = draw(st.sampled_from(["integer", "rounded-normal", "sparse"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # right-hand sides of either sign unless drawn nonnegative
    low = -2 if draw(st.booleans()) else 0

    def rhs(m):
        return rng.integers(low, 3, size=m).astype(float)

    return slack_form(
        c=random_matrix(rng, kind, n),
        a_eq=random_matrix(rng, kind, (m_eq, n)) if m_eq else None,
        b_eq=rhs(m_eq) if m_eq else None,
        a_ub=random_matrix(rng, kind, (m_ub, n)) if m_ub else None,
        b_ub=rhs(m_ub) if m_ub else None,
        maximize=draw(st.booleans()),
    )


def assert_same_solution(got, want):
    assert (got.status, got.iterations) == (want.status, want.iterations)
    assert got.objective == want.objective
    for name in ("x", "duals_eq", "farkas_eq"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a is None) == (b is None), name
        if a is not None:
            assert np.array_equal(a, b), name


class TestAgainstRowByRowKernel:
    @settings(max_examples=400, deadline=None)
    @given(lp_problems())
    def test_same_pivots_and_values(self, problem):
        got = simplex_solve(problem)
        with reference_kernel():
            want = simplex_solve(problem)
        assert_same_solution(got, want)

    def test_nodisturbance_61_cycle(self):
        scenario = catalog.cycle_scenario(61)
        variables = sorted(scenario.variables, key=lambda v: v.sort_key())
        objective = {
            frozenset({variables[i], variables[(i + 1) % 61]}): 1.0 for i in range(61)
        }
        pivots = []

        def counting_solve(problem):
            solution = simplex_solve(problem)
            pivots.append(solution.iterations)
            return solution

        with mock.patch.object(lhv, "simplex_solve", counting_solve):
            got = lhv.nodisturbance_optimum(scenario, objective, "min")
            with reference_kernel():
                want = lhv.nodisturbance_optimum(scenario, objective, "min")
        assert got.value == want.value == -61.0
        assert pivots[0] == pivots[1] > 0
        assert got.behavior == want.behavior

    @pytest.mark.parametrize("label", ["cycle-101", "monogamy"])
    def test_nodisturbance_lp_bits(self, label):
        problems = recorded_nodisturbance_lps(label)
        assert len(problems) == (4 if label == "monogamy" else 1)
        for problem in problems:
            got = simplex_solve(problem)
            with reference_kernel():
                want = simplex_solve(problem)
            assert got.status == OPTIMAL and got.iterations > 0
            assert_same_solution(got, want)
            for name in ("x", "duals_eq"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


def recorded_nodisturbance_lps(label):
    """The LPs that nodisturbance_optimum (cycles) or monogamy_check solve."""
    problems = []

    def recording_solve(problem):
        problems.append(problem)
        return simplex_solve(problem)

    with mock.patch.object(lhv, "simplex_solve", recording_solve):
        if label == "monogamy":
            lhv.monogamy_check(catalog.load_scenario("monogamy.scn"), catalog.load_expression("monogamy.rsx"))
        else:
            n = int(label.split("-")[1])
            scenario = catalog.cycle_scenario(n)
            variables = sorted(scenario.variables, key=lambda v: v.sort_key())
            objective = {
                frozenset({variables[i], variables[(i + 1) % n]}): 1.0 for i in range(n)
            }
            lhv.nodisturbance_optimum(scenario, objective, "min")
    return problems
