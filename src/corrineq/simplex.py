"""Dense two-phase simplex with Bland's rule, in float64, over equality
rows a x = b with x >= 0.

The probability polytopes in this package give sparse tableaux, so each
pivot is one rank-1 update, one scatter through the tableau's flat view,
over only the rows with a nonzero in the pivot column (read once, for the
ratio test too) and the columns with a nonzero in the pivot row.  The
reduced-cost row is carried along and recomputed from scratch before a
phase ends.  Infeasible problems come back with a Farkas vector read off
the phase-1 reduced costs, which downstream code turns into a violated
inequality.  Such a result also keeps its final phase-1 tableau, so that a
later solve of the same equality rows with appended columns (column
generation) can resume phase 1 from it instead of starting over.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, NumericalBreakdown

FEASIBILITY_TOL = 1e-9
OPTIMALITY_TOL = 1e-9
PIVOT_TOL = 1e-12

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass
class LpProblem:
    """min (or max) c.x  s.t.  a_eq x = b_eq,  x >= 0; a_eq may have 0 rows.

    A row a x <= b is posed with a slack column of its own: [a 1][x; s] = b.
    """

    c: np.ndarray
    a_eq: np.ndarray
    b_eq: np.ndarray
    maximize: bool = False
    # not a field: perfbench/tracing.py reads it; ROADMAP direction 2 deletes it
    a_ub = None

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float)
        self.a_eq = np.atleast_2d(np.asarray(self.a_eq, dtype=float))
        self.b_eq = np.asarray(self.b_eq, dtype=float).ravel()
        n, (m, width) = self.c.shape[0], self.a_eq.shape
        if width != n:
            raise DimensionMismatch(f"a_eq has {width} columns, objective has {n}")
        if self.b_eq.shape[0] != m:
            raise DimensionMismatch(f"b_eq has {self.b_eq.shape[0]} entries, a_eq has {m} rows")


@dataclass
class LpSolution:
    status: str
    objective: float | None
    x: np.ndarray | None
    duals_eq: np.ndarray | None = None
    farkas_eq: np.ndarray | None = None
    iterations: int = 0
    # infeasible results: (problem, final phase-1 tableau, basis, row signs)
    _phase1: tuple | None = field(default=None, repr=False, compare=False)


def _pivot(tab, basis, row, col, rows):
    """Pivot on (row, col); `rows` lists the pivot column's nonzero rows.

    Each updated entry gets the same multiply and subtract as a row-by-row
    update.  The update writes through a flat view: `tab` is C-contiguous.
    """
    piv = tab[row, col]
    if abs(piv) < PIVOT_TOL:
        raise NumericalBreakdown(f"pivot {piv:.3e} below {PIVOT_TOL}")
    tab[row] /= piv
    rows = rows[rows != row]
    cols = tab[row].nonzero()[0]
    update = tab[rows, col][:, None] * tab[row, cols]
    tab.reshape(-1)[(rows * tab.shape[1])[:, None] + cols] -= update
    basis[row] = col


def _entering(r, limit):
    """Bland's entering column: the first of r[:limit] below -OPTIMALITY_TOL, or None."""
    improving = r[:limit] < -OPTIMALITY_TOL
    if improving.size:
        entering = int(improving.argmax())  # first True
        if improving[entering]:
            return entering
    return None


def _run_simplex(tab, basis, cost, limit, max_iter):
    """Minimize cost over the tableau in place.  Bland's rule throughout.

    tab has shape (m, width+1) with the rhs in the last column; `cost` is
    length width and `basis` an integer array updated in place.  Only the
    first `limit` columns may enter.  The reduced costs r = c - c_B . tab
    are carried from pivot to pivot and recomputed from scratch before
    optimality is declared, so the returned (reduced_costs, objective,
    status, iterations) read the final tableau.
    """
    wide = tab.shape[1] - 1
    iterations = 0
    r = cost - cost[basis] @ tab[:, :wide]
    while True:
        entering = _entering(r, limit)
        if entering is None:
            c_b = cost[basis]
            r = cost - c_b @ tab[:, :wide]
            entering = _entering(r, limit)
            if entering is None:
                return r, float(c_b @ tab[:, wide]), OPTIMAL, iterations
        column = tab[:, entering]
        nonzero = column.nonzero()[0]  # read once: the ratio test's rows and the update's
        eligible = nonzero[column[nonzero] > FEASIBILITY_TOL]
        if not eligible.size:
            return r, None, UNBOUNDED, iterations
        ratios = tab[eligible, wide] / column[eligible]
        ties = eligible[ratios <= ratios.min() + 1e-12]
        leaving = int(ties[np.argmin(basis[ties])])  # smallest basis index on ties
        _pivot(tab, basis, leaving, entering, nonzero)
        r -= r[entering] * tab[leaving, :wide]
        iterations += 1
        if iterations > max_iter:
            raise NumericalBreakdown(f"no convergence after {max_iter} pivots")


def _resume(problem, start):
    """The phase-1 tableau, basis and row signs of `start` with the new columns.

    `start` is an infeasible solution of an LP whose rows and right-hand
    side `problem` repeats and whose columns are a prefix
    of `problem`'s.  The tableau's artificial block is the inverse of the
    basis (it began as the identity), so each appended column is that
    block times the column's sign-corrected rows.  The new columns go
    before the artificials, whose basis indices shift past them.
    """
    if start.status != INFEASIBLE or start._phase1 is None:
        raise ValueError(f"a warm start needs an infeasible solution, got {start.status}")
    old, old_tab, old_basis, row_sign = start._phase1
    if not np.array_equal(problem.b_eq, old.b_eq):
        raise ValueError("a warm start needs the same equality rows and right-hand side")
    n_old, n = old.c.shape[0], problem.c.shape[0]
    if n < n_old or not np.array_equal(problem.a_eq[:, :n_old], old.a_eq):
        raise ValueError("a warm start needs the earlier columns as a prefix of the new ones")
    m = old_tab.shape[0]
    tab = np.empty((m, n + m + 1))
    tab[:, :n_old] = old_tab[:, :n_old]
    tab[:, n_old:n] = old_tab[:, n_old:n_old + m] @ (row_sign[:, None] * problem.a_eq[:, n_old:])
    tab[:, n:] = old_tab[:, n_old:]
    return tab, np.where(old_basis >= n_old, old_basis + (n - n_old), old_basis), row_sign


def simplex_solve(problem: LpProblem, start: LpSolution | None = None) -> LpSolution:
    """Solve an LpProblem; status is optimal, infeasible or unbounded.

    Infeasible results carry Farkas row multipliers y with
    y.b > 0 and y.A <= 0 (proof no feasible point exists); optimal
    results carry dual values per constraint row, and an x whose basic
    values in [-FEASIBILITY_TOL, 0) are set to 0.0.  A basic value below
    -FEASIBILITY_TOL raises NumericalBreakdown.

    `start`, an infeasible result of an earlier solve, resumes phase 1
    from that result's final tableau when `problem` has the same rows and
    right-hand side and appends columns to the earlier ones.  Its basis is
    a valid phase-1 start, so only the pivots the new columns allow are
    taken.  Any other `start` raises ValueError.
    """
    m, n = problem.a_eq.shape
    c = -problem.c if problem.maximize else problem.c

    # phase-1 form: [A I] [x; art] = b, one artificial per row
    wide = n + m
    art = np.arange(n, wide)
    if start is not None:
        tab, basis, row_sign = _resume(problem, start)
    else:
        tab = np.zeros((m, wide + 1))
        tab[:, :n] = problem.a_eq
        tab[:, wide] = problem.b_eq
        negative = tab[:, wide] < 0
        tab[negative] = -tab[negative]
        row_sign = np.where(negative, -1.0, 1.0)
        tab[:, n:wide] = np.eye(m)
        basis = art.copy()

    phase1_cost = np.zeros(wide)
    phase1_cost[art] = 1.0
    max_iter = 5000 + 50 * (m + wide)
    r1, val1, status, it1 = _run_simplex(tab, basis, phase1_cost, wide, max_iter)
    if status == UNBOUNDED:
        raise NumericalBreakdown("phase 1 reported unbounded; artificial objective is bounded below")
    if val1 > FEASIBILITY_TOL:
        # y_i = 1 - reduced cost of artificial i certifies infeasibility
        y = (1.0 - r1[art]) * row_sign
        return LpSolution(INFEASIBLE, None, None, farkas_eq=y, iterations=it1,
                          _phase1=(problem, tab, basis, row_sign))

    # drive any leftover artificials out of the basis; all-zero rows are redundant
    keep = np.ones(m, dtype=bool)
    for i in range(m):
        if basis[i] >= n:
            nonzero = np.flatnonzero(np.abs(tab[i, :n]) > FEASIBILITY_TOL)
            if nonzero.size:
                _pivot(tab, basis, i, int(nonzero[0]), tab[:, nonzero[0]].nonzero()[0])
            else:
                keep[i] = False
    if not keep.all():
        tab, basis = tab[keep], basis[keep]

    phase2_cost = np.zeros(wide)
    phase2_cost[:n] = c
    # the artificials are the trailing columns and never re-enter
    r2, val2, status, it2 = _run_simplex(tab, basis, phase2_cost, n, max_iter)
    if status == UNBOUNDED:
        return LpSolution(UNBOUNDED, None, None, iterations=it1 + it2)
    if (tab[:, -1] < -FEASIBILITY_TOL).any():
        raise NumericalBreakdown(f"basic value {tab[:, -1].min():.3e} below -{FEASIBILITY_TOL}")
    x = np.zeros(wide)
    x[basis] = tab[:, -1].clip(0.0)  # values in [-FEASIBILITY_TOL, 0) are rounding dust
    # phase-2 artificial cost is 0, so duals are minus the reduced costs there
    y = -r2[art] * row_sign
    if problem.maximize:
        val2, y = -val2, -y
    # + 0.0 turns any -0.0 left by the pivots into +0.0
    return LpSolution(OPTIMAL, val2 + 0.0, x[:n] + 0.0, duals_eq=y, iterations=it1 + it2)
