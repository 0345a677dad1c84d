"""Search over measurement settings (and product states) for extremal
quantum values of a correlation inequality.

A coarse grid scan locates the basin, then coordinate pattern search
with step halving polishes to 1e-8.  Each term's closed form (correlation
tensor or state for tensor terms, dot products for sequential ones) is
tabulated once on the grid of the angles it reads for the scan, where
the tables add up by broadcasting over a box of the trailing grid axes,
and summed row by row for refinement; the reported optimum is
re-evaluated through the full density-matrix path as an independent check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .dsl import VariableId
from .errors import BudgetExhausted
from .polynomials import CorrelationInequality
from .quantum import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    evaluate_inequality_quantum,
    kron2,
    plane_vector,
    product_state,
    qubit_layout,
    term_order,
    tsirelson_envelope,
)

DEFAULT_GRID_POINTS = 24
DEFAULT_BUDGET = 10_000_000
REFINEMENT_FLOOR = 1e-8
GRID_CELL_CAP = 1 << 24
_BATCH = 1 << 16

FIXED_STATE = "fixed"
PRODUCT_FAMILY = "product"


class _OutOfBudget(Exception):
    """Internal signal that the evaluation budget ran out mid-search."""


def correlation_tensor(rho) -> np.ndarray:
    """T[i, j] = Tr(rho sigma_i x sigma_j), the two-qubit correlation block."""
    rho = np.asarray(rho, dtype=complex)
    paulis = (PAULI_X, PAULI_Y, PAULI_Z)
    t = np.empty((3, 3))
    for i, si in enumerate(paulis):
        for j, sj in enumerate(paulis):
            t[i, j] = float(np.trace(rho @ kron2(si, sj)).real)
    return t


@dataclass(frozen=True)
class SettingsParametrization:
    """Angle parameters and how they become Bloch vectors and a state.

    Coplanar mode gives each variable one angle in the x-z plane;
    full_sphere gives two (polar, azimuth).  Product mode appends state
    angles for the two local states, one set when tied, and realizes
    the product state from them; fixed mode keeps the supplied state.
    """

    variables: tuple[VariableId, ...]
    mode: str = FIXED_STATE
    rho: np.ndarray | None = None
    full_sphere: bool = False
    tied_state: bool = True

    def __post_init__(self):
        if self.mode not in (FIXED_STATE, PRODUCT_FAMILY):
            raise ValueError(f"mode must be fixed or product, got {self.mode!r}")
        if self.mode == FIXED_STATE and self.rho is None:
            raise ValueError("fixed mode needs a state")

    @property
    def dimension(self) -> int:
        states = (1 if self.tied_state else 2) if self.mode == PRODUCT_FAMILY else 0
        return (len(self.variables) + states) * (2 if self.full_sphere else 1)

    def _vector_block(self, params) -> np.ndarray:
        """(k, n_slots, 3) unit vectors from a (k, n_slots * angles per slot) matrix."""
        params = np.atleast_2d(np.asarray(params, dtype=float))
        if self.full_sphere:
            theta, phi = params[:, 0::2], params[:, 1::2]
            sin_t = np.sin(theta)
            return np.stack(
                (sin_t * np.cos(phi), sin_t * np.sin(phi), np.cos(theta)), axis=-1
            )
        return np.stack(
            (np.sin(params), np.zeros_like(params), np.cos(params)), axis=-1
        )

    def realize(self, params):
        """(state, settings) at one parameter point."""
        vectors = self._vector_block(params)[0]
        settings = dict(zip(self.variables, vectors))
        if self.mode == FIXED_STATE:
            return self.rho, settings
        n = len(self.variables)
        return product_state(vectors[n], vectors[n if self.tied_state else n + 1]), settings


@dataclass(frozen=True)
class OptimizationResult:
    value: float
    parameters: np.ndarray
    settings: dict[VariableId, np.ndarray]
    state: np.ndarray
    evaluations: int
    converged: bool
    direction: str


def _objective_terms(ineq: CorrelationInequality, parametrization: SettingsParametrization, scenario=None):
    """(coefficient, columns, term) per inequality term, in source order.

    `columns` are the parameter columns the term reads: its variables'
    angles and, for a tensor term in product mode, the state's.  `term`
    maps a (k, len(columns)) matrix of them to the term's k values.
    """
    qubit = qubit_layout(ineq.variables(), scenario)
    pairs = [term_order(mono.variables, qubit) for mono in ineq.terms]
    tensor = None
    if parametrization.mode == FIXED_STATE and any(qubit[a] != qubit[b] for a, b in pairs):
        tensor = correlation_tensor(parametrization.rho)
    slot = {var: i for i, var in enumerate(parametrization.variables)}
    states = [len(slot)] if parametrization.tied_state else [len(slot), len(slot) + 1]
    width = 2 if parametrization.full_sphere else 1

    def tensor_term(angles):
        v = parametrization._vector_block(angles)
        if tensor is not None:
            return np.einsum("ki,ij,kj->k", v[:, 0], tensor, v[:, 1])
        return (v[:, 0] * v[:, 2]).sum(axis=1) * (v[:, 1] * v[:, -1]).sum(axis=1)

    def sequential_term(angles):
        v = parametrization._vector_block(angles)
        return (v[:, 0] * v[:, 1]).sum(axis=1)

    terms = []
    for mono, (a, b) in zip(ineq.terms, pairs):
        if qubit[a] == qubit[b]:
            slots, term = [slot[a], slot[b]], sequential_term
        else:
            slots, term = [slot[a], slot[b]] + (states if tensor is None else []), tensor_term
        terms.append((mono.coefficient, [s * width + j for s in slots for j in range(width)], term))
    return terms


def _evaluate(terms, params) -> np.ndarray:
    """Objective on each row of a (k, dimension) parameter matrix."""
    return reduce(np.add, (c * term(params[:, columns]) for c, columns, term in terms))


def _grid_axes(points):
    return np.linspace(-np.pi, np.pi, points, endpoint=False)


def _grid_scan(terms, axis, m):
    """(start, values) for each _BATCH-cell chunk of the grid axis^m, in order.

    The leading `outer` axes number the rows of a box over the other
    axes, the fewest that keep a box at len(axis)^(m - outer) <= _BATCH
    cells.  A term reading k columns is evaluated once on its own
    sub-grid of len(axis)^k cells; its table, transposed to ascending
    columns, is indexed by a chunk's rows on its outer columns and
    broadcast over the box on its inner ones.  A term whose sub-grid
    exceeds _BATCH is evaluated on the cells of the chunk's rows instead.
    The terms add up as in `_evaluate` on the rows a chunk touches and
    the chunk is sliced out of them, so each cell equals `_evaluate` on
    its row bit for bit.
    """
    g = len(axis)
    outer = next(k for k in range(m + 1) if g ** (m - k) <= _BATCH)
    box = (g,) * (m - outer)

    def on_cells(coefficient, term, digits):
        return coefficient * term(np.stack([axis[d] for d in digits], axis=1))

    def broadcast_table(coefficient, columns, term):
        """(outer columns, table): one table axis per outer column, then the box's axes."""
        k = len(columns)
        table = on_cells(coefficient, term, np.unravel_index(np.arange(g**k), (g,) * k))
        order = np.argsort(columns)
        ascending = [columns[i] for i in order]
        leading = [c for c in ascending if c < outer]
        shape = [g] * len(leading) + [g if j in ascending else 1 for j in range(outer, m)]
        return leading, table.reshape((g,) * k).transpose(order).reshape(shape)

    tables = [broadcast_table(*t) if g ** len(t[1]) <= _BATCH else None for t in terms]
    on_rows = any(tabled is None for tabled in tables)
    cells, size = g**m, g ** (m - outer)
    for start in range(0, cells, _BATCH):
        stop = min(start + _BATCH, cells)
        first, last = start // size, (stop - 1) // size + 1  # the rows the chunk touches
        rows = np.unravel_index(np.arange(first, last), (g,) * outer) if outer else ()
        if on_rows:
            digits = np.unravel_index(np.arange(first * size, last * size), (g,) * m)
        total = None
        for (coefficient, columns, term), tabled in zip(terms, tables):
            if tabled is None:
                own = [digits[i] for i in columns]
                contribution = on_cells(coefficient, term, own).reshape((last - first,) + box)
            else:
                leading, table = tabled
                contribution = table[tuple(rows[c] for c in leading)] if leading else table[None]
            total = contribution if total is None else total + contribution
        block = np.broadcast_to(total, (last - first,) + box).reshape(-1)
        yield start, block[start - first * size : stop - first * size]


def maximize_violation(
    ineq: CorrelationInequality,
    state,
    parametrization: SettingsParametrization | None = None,
    budget: int = DEFAULT_BUDGET,
    grid_points: int = DEFAULT_GRID_POINTS,
    seed: int = 0,
    scenario=None,
) -> OptimizationResult:
    """Find settings (and state, in product mode) extremizing the combination.

    `state` is a density matrix, or the string "product" to search the
    product-state family.  Upper-bound inequalities are maximized,
    lower-bound ones minimized; the result reports the signed value.
    Raises BudgetExhausted (best-so-far attached) if the evaluation
    budget runs out before the step size reaches 1e-8; the search then
    has scored exactly `budget` points, and the best of them is attached.
    """
    if isinstance(grid_points, bool) or not isinstance(grid_points, (int, np.integer)) or grid_points < 1:
        raise ValueError(f"grid_points must be an int >= 1, got {grid_points!r}")
    grid_points = int(grid_points)
    if not budget >= 1:
        raise ValueError(f"budget must be at least 1, got {budget!r}")
    if parametrization is None:
        variables = tuple(sorted(ineq.variables(), key=VariableId.sort_key))
        if isinstance(state, str):
            if state != PRODUCT_FAMILY:
                raise ValueError(f"unknown state family {state!r}")
            parametrization = SettingsParametrization(variables, mode=PRODUCT_FAMILY)
        else:
            parametrization = SettingsParametrization(variables, rho=np.asarray(state, dtype=complex))
    terms = _objective_terms(ineq, parametrization, scenario)
    sign = 1.0 if ineq.direction == "<=" else -1.0

    m = parametrization.dimension
    evaluations = 0
    best_value = -np.inf
    best_params = np.zeros(m)

    def offer(values, row):
        # batches are offered in a fixed order and only a strictly better
        # value replaces the incumbent, so ties go to the first cell; a
        # batch that would overrun the budget is scored up to it, then the
        # search stops
        nonlocal evaluations, best_value, best_params
        overrun = values.shape[0] > budget - evaluations
        if overrun:
            values = values[: int(budget - evaluations)]
        values = sign * values
        evaluations += values.shape[0]
        if values.shape[0]:
            top = int(values.argmax())
            if values[top] > best_value:
                best_value, best_params = float(values[top]), row(top)
        if overrun:
            raise _OutOfBudget

    def offer_rows(batch):
        offer(_evaluate(terms, batch), lambda top: batch[top].copy())

    converged = False
    try:
        axis = _grid_axes(grid_points)
        if grid_points**m <= GRID_CELL_CAP:
            shape = (grid_points,) * m
            for start, values in _grid_scan(terms, axis, m):
                offer(values, lambda top: axis[list(np.unravel_index(start + top, shape))])
        else:
            rng = np.random.default_rng(seed)
            offer_rows(rng.uniform(-np.pi, np.pi, size=(4096 * m, m)))

        step = 2 * np.pi / grid_points
        while step >= REFINEMENT_FLOOR:
            offsets = np.vstack((np.eye(m), -np.eye(m))) * step
            incumbent = best_value
            offer_rows(best_params[None, :] + offsets)
            if best_value <= incumbent + 1e-15:
                step /= 2.0
        converged = True
    except _OutOfBudget:
        pass

    rho, settings = parametrization.realize(best_params)
    value = evaluate_inequality_quantum(ineq, rho, settings, scenario)
    result = OptimizationResult(
        value=float(value),
        parameters=best_params,
        settings=settings,
        state=rho,
        evaluations=evaluations,
        converged=converged,
        direction="max" if sign > 0 else "min",
    )
    if not converged:
        raise BudgetExhausted(
            f"budget of {budget} evaluations exhausted at step > {REFINEMENT_FLOOR}", best=result
        )
    return result


@dataclass(frozen=True)
class EnvelopeScan:
    thetas: np.ndarray
    values: np.ndarray
    max_value: float
    argmax: tuple[float, float]


def envelope_settings(theta1: float, theta2: float) -> dict[VariableId, np.ndarray]:
    """Coplanar settings whose operator realizes an envelope grid point.

    The X pair opens clockwise by theta1 from the z axis, the Y pair
    counter-clockwise by theta2 from a quarter turn below; at the
    saturating angles this reproduces the descending pi/4 ladder.
    """
    return {
        VariableId("X", 1): plane_vector(0.0),
        VariableId("X", 2): plane_vector(-theta1),
        VariableId("Y", 1): plane_vector(-np.pi / 2),
        VariableId("Y", 2): plane_vector(-np.pi / 2 + theta2),
    }


def scan_envelope(resolution: int) -> EnvelopeScan:
    """Dense envelope table over [-pi, pi]^2 with its maximum.

    The maximum is the first grid cell attaining it in row-major order;
    sign-symmetric partners (t1, t2) and (-t1, -t2) carry equal values.
    The table is filled in blocks of about _BATCH cells, so the working
    memory beyond the table itself stays bounded.
    """
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    if resolution**2 > GRID_CELL_CAP:
        raise ValueError(f"resolution must be at most {math.isqrt(GRID_CELL_CAP)}, got {resolution}")
    thetas = np.linspace(-np.pi, np.pi, resolution)
    values = np.empty((resolution, resolution))
    rows = max(1, _BATCH // resolution)
    for start in range(0, resolution, rows):
        values[start:start + rows] = tsirelson_envelope(thetas[start:start + rows, None], thetas[None, :])
    flat = int(values.argmax())
    i, j = divmod(flat, resolution)
    return EnvelopeScan(
        thetas=thetas,
        values=values,
        max_value=float(values[i, j]),
        argmax=(float(thetas[i]), float(thetas[j])),
    )
