"""Search over measurement settings (and product states) for extremal
quantum values of a correlation inequality.

A coarse grid scan locates the basin, then coordinate pattern search
with step halving polishes to 1e-8.  Each term's closed form (correlation
tensor or state for tensor terms, dot products for sequential ones) is
tabulated once on the grid of the angles it reads for the scan, where
the tables add up by broadcasting over a box of the trailing grid axes,
and summed row by row for refinement, where each batch's setting and
state vectors are built once and every term reads its slots; the
reported optimum is re-evaluated through the full density-matrix path
as an independent check.
"""

from __future__ import annotations

import math
from functools import reduce
from typing import NamedTuple

import numpy as np

from .dsl import VariableId
from .errors import BudgetExhausted, DimensionMismatch
from .polynomials import CorrelationInequality
from .quantum import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    evaluate_inequality_quantum,
    kron2,
    product_state,
    qubit_layout,
    term_order,
    tsirelson_envelope,
    validate_density,
)

DEFAULT_GRID_POINTS = 24
DEFAULT_BUDGET = 10_000_000
REFINEMENT_FLOOR = 1e-8
GRID_CELL_CAP = 1 << 24
_BATCH = 1 << 16
ENVELOPE_SLACK = 1e-9

PRODUCT_FAMILY = "product"


class _OutOfBudget(Exception):
    """Internal signal that the evaluation budget ran out mid-search."""


def correlation_tensor(rho) -> np.ndarray:
    """T[i, j] = Tr(rho sigma_i x sigma_j), the two-qubit correlation block."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise DimensionMismatch(f"correlation tensor needs a 4x4 state, got {rho.shape}")
    paulis = (PAULI_X, PAULI_Y, PAULI_Z)
    t = np.empty((3, 3))
    for i, si in enumerate(paulis):
        for j, sj in enumerate(paulis):
            t[i, j] = float(np.trace(rho @ kron2(si, sj)).real)
    return t


class SettingsParametrization(NamedTuple):
    """Angle parameters and how they become Bloch vectors and a state.

    Coplanar settings give each variable one angle in the x-z plane;
    full_sphere gives two (polar, azimuth).  For the product family
    (`state` is PRODUCT_FAMILY) the local states take angles after the
    variables', one set when tied, and the product state is realized
    from them; any other `state` is a density matrix, kept as it is.
    """

    variables: tuple[VariableId, ...]
    state: np.ndarray | str
    full_sphere: bool = False
    tied_state: bool = True

    @property
    def dimension(self) -> int:
        states = (1 if self.tied_state else 2) if isinstance(self.state, str) else 0
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
        if not isinstance(self.state, str):
            return self.state, settings
        n = len(self.variables)
        return product_state(vectors[n], vectors[n if self.tied_state else n + 1]), settings


class OptimizationResult(NamedTuple):
    value: float
    parameters: np.ndarray
    settings: dict[VariableId, np.ndarray]
    state: np.ndarray
    evaluations: int
    converged: bool
    direction: str


def _objective_terms(ineq: CorrelationInequality, parametrization: SettingsParametrization, scenario=None):
    """(coefficient, slots, term) per inequality term, in source order.

    `slots` are the vector slots the term reads: its variables' and, for
    a tensor term of the product family, the state's.  `term` maps a
    (k, len(slots), 3) block of those unit vectors to the term's k values.
    """
    qubit = qubit_layout(ineq.variables(), scenario)
    pairs = [term_order(mono.variables, qubit) for mono in ineq.terms]
    tensor = None
    if not isinstance(parametrization.state, str) and any(qubit[a] != qubit[b] for a, b in pairs):
        tensor = correlation_tensor(parametrization.state)
    slot = {var: i for i, var in enumerate(parametrization.variables)}
    states = [len(slot)] if parametrization.tied_state else [len(slot), len(slot) + 1]

    def tensor_term(v):
        if tensor is not None:
            return np.einsum("ki,ij,kj->k", v[:, 0], tensor, v[:, 1])
        return (v[:, 0] * v[:, 2]).sum(axis=1) * (v[:, 1] * v[:, -1]).sum(axis=1)

    def sequential_term(v):
        return (v[:, 0] * v[:, 1]).sum(axis=1)

    terms = []
    for mono, (a, b) in zip(ineq.terms, pairs):
        if qubit[a] == qubit[b]:
            slots, term = [slot[a], slot[b]], sequential_term
        else:
            slots, term = [slot[a], slot[b]] + (states if tensor is None else []), tensor_term
        terms.append((mono.coefficient, slots, term))
    return terms


def _evaluate(terms, vectors) -> np.ndarray:
    """Objective on each row of a (k, slots, 3) block of unit vectors."""
    return reduce(np.add, (c * term(vectors[:, slots]) for c, slots, term in terms))


def _grid_axes(points):
    return np.linspace(-np.pi, np.pi, points, endpoint=False)


def _grid_scan(terms, axis, parametrization):
    """(start, values) for each _BATCH-cell chunk of the grid axis^m, in order.

    m is the parametrization's dimension.  The leading `outer` axes
    number the rows of a box over the other axes, the fewest that keep a
    box at len(axis)^(m - outer) <= _BATCH cells.  A term reading k
    parameter columns (its slots' angles) is evaluated once on its own
    sub-grid of len(axis)^k cells; its table, transposed to ascending
    columns, is indexed by a chunk's rows on its outer columns and
    broadcast over the box on its inner ones.  A term whose sub-grid
    exceeds _BATCH is evaluated on the cells of the chunk's rows instead.
    The terms add up as in `_evaluate` on the rows a chunk touches and
    the chunk is sliced out of them, so each cell equals `_evaluate` on
    its row bit for bit.
    """
    g, m = len(axis), parametrization.dimension
    width = 2 if parametrization.full_sphere else 1
    outer = next(k for k in range(m + 1) if g ** (m - k) <= _BATCH)
    box = (g,) * (m - outer)

    def on_cells(coefficient, term, digits):
        return coefficient * term(parametrization._vector_block(np.stack([axis[d] for d in digits], axis=1)))

    def broadcast_table(coefficient, columns, term):
        """(outer columns, table): one table axis per outer column, then the box's axes."""
        k = len(columns)
        table = on_cells(coefficient, term, np.unravel_index(np.arange(g**k), (g,) * k))
        order = np.argsort(columns)
        ascending = [columns[i] for i in order]
        leading = [c for c in ascending if c < outer]
        shape = [g] * len(leading) + [g if j in ascending else 1 for j in range(outer, m)]
        return leading, table.reshape((g,) * k).transpose(order).reshape(shape)

    # each term on the parameter columns of its slots
    terms = [(c, [s * width + j for s in slots for j in range(width)], term) for c, slots, term in terms]
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
    budget: int = DEFAULT_BUDGET,
    grid_points: int = DEFAULT_GRID_POINTS,
    seed: int = 0,
    scenario=None,
    full_sphere: bool = False,
    tied_state: bool = True,
) -> OptimizationResult:
    """Find settings (and state, for the product family) extremizing the combination.

    `state` is a density matrix, checked before the search starts, or
    PRODUCT_FAMILY to search product states too: one local state for
    both qubits when `tied_state`, one each otherwise.  `full_sphere`
    gives each vector two angles instead of one in the x-z plane.
    Upper-bound inequalities are maximized, lower-bound ones minimized;
    the result reports the signed value.
    Raises BudgetExhausted (best-so-far attached) if the evaluation
    budget runs out before the step size reaches 1e-8; the search then
    has scored exactly `budget` points, and the best of them is attached.
    """
    if isinstance(grid_points, bool) or not isinstance(grid_points, (int, np.integer)) or grid_points < 1:
        raise ValueError(f"grid_points must be an int >= 1, got {grid_points!r}")
    grid_points = int(grid_points)
    if not budget >= 1:
        raise ValueError(f"budget must be at least 1, got {budget!r}")
    if isinstance(state, str):
        if state != PRODUCT_FAMILY:
            raise ValueError(f"unknown state family {state!r}")
    elif not tied_state:
        raise ValueError("tied_state=False needs the product family; a fixed state has no local states")
    else:
        state = validate_density(state)
    variables = tuple(sorted(ineq.variables(), key=VariableId.sort_key))
    parametrization = SettingsParametrization(variables, state, full_sphere, tied_state)
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
        offer(_evaluate(terms, parametrization._vector_block(batch)), lambda top: batch[top].copy())

    converged = False
    try:
        axis = _grid_axes(grid_points)
        if grid_points**m <= GRID_CELL_CAP:
            shape = (grid_points,) * m
            for start, values in _grid_scan(terms, axis, parametrization):
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


class EnvelopeScan(NamedTuple):
    thetas: np.ndarray
    max_value: float
    argmax: tuple[float, float]


def _envelope_layout(resolution: int) -> tuple[np.ndarray, int]:
    """(thetas, rows per block) of the resolution^2 envelope grid over
    [-pi, pi]^2, after checking the resolution; blocks hold about _BATCH
    cells each."""
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    if resolution**2 > GRID_CELL_CAP:
        raise ValueError(f"resolution must be at most {math.isqrt(GRID_CELL_CAP)}, got {resolution}")
    return np.linspace(-np.pi, np.pi, resolution), max(1, _BATCH // resolution)


def envelope_rows(resolution: int):
    """(thetas, blocks) for the envelope over [-pi, pi]^2 on a resolution^2 grid.

    The resolution is checked here, before any block is evaluated;
    `blocks` then yields (first row, values) for the table's consecutive
    row blocks of about _BATCH cells each, in order, so no more than one
    block is held at a time.
    """
    thetas, rows = _envelope_layout(resolution)
    blocks = (
        (start, tsirelson_envelope(thetas[start:start + rows, None], thetas[None, :]))
        for start in range(0, resolution, rows)
    )
    return thetas, blocks


def _separable_rows(t1: np.ndarray, right: np.ndarray, out=None) -> np.ndarray:
    """c2 + 2 sigma (s1 k2 - k1 s2) for sigma = +1 on the first len(t1) rows
    and -1 on the rest, with s, k the sine and cosine of half an angle and
    `right` the (3, N) rows cos t2, k2, s2: one (2 len(t1) x 3) @ (3 x N)
    product."""
    s, k = 2 * np.sin(t1 / 2), 2 * np.cos(t1 / 2)
    left = np.ones((2 * len(t1), 3))
    left[:, 1] = np.concatenate((s, -s))
    left[:, 2] = np.concatenate((-k, k))
    return np.matmul(left, right, out=out)


def _envelope_bounds(thetas: np.ndarray, rows: int) -> list[float]:
    """Each row block's maximum of cos t1 + cos t2 + 2|sin((t1 - t2)/2)|,
    the envelope before its outer |.| in separable form, through one
    reused buffer."""
    right = np.stack((np.cos(thetas), np.cos(thetas / 2), np.sin(thetas / 2)))
    buf = np.empty((2 * rows, len(thetas)))
    bounds = []
    for start in range(0, len(thetas), rows):
        t1 = thetas[start:start + rows]
        row_max = _separable_rows(t1, right, out=buf[:2 * len(t1)]).max(axis=1)
        bounds.append(float((np.maximum(row_max[:len(t1)], row_max[len(t1):]) + np.cos(t1)).max()))
    return bounds


def scan_envelope(resolution: int) -> EnvelopeScan:
    """Maximum of the envelope over [-pi, pi]^2 on a resolution^2 grid.

    The maximum is the first grid cell attaining it in row-major order;
    sign-symmetric partners (t1, t2) and (-t1, -t2) carry equal values.
    sqrt(2) sqrt(1 - cos(t1 - t2)) = 2|sin(t1/2) cos(t2/2) - cos(t1/2)
    sin(t2/2)|, so each row block is first bounded in that separable form
    (`_envelope_bounds`; the inner sum is at least -2, so a block's bound
    on the envelope is max(its separable maximum, 2)).  Only the blocks
    whose bound plus ENVELOPE_SLACK reaches the largest separable maximum
    minus ENVELOPE_SLACK are evaluated exactly, on the same row slices as
    `envelope_rows` and in order: the two forms differ by far less than
    the slack on every cell, so each block holding a maximal cell is
    evaluated, and `max_value` and `argmax` carry the bits of the exact
    scan over every cell.  The working memory is one block at any
    resolution.
    """
    thetas, rows = _envelope_layout(resolution)
    bounds = _envelope_bounds(thetas, rows)
    floor = max(bounds) - ENVELOPE_SLACK
    max_value, flat = -np.inf, 0
    for start, bound in zip(range(0, resolution, rows), bounds):
        if max(bound, 2.0) + ENVELOPE_SLACK < floor:
            continue
        block = tsirelson_envelope(thetas[start:start + rows, None], thetas[None, :])
        top = int(block.argmax())
        if block.flat[top] > max_value:  # strict, so ties keep the earlier block's cell
            max_value, flat = float(block.flat[top]), start * resolution + top
    i, j = divmod(flat, resolution)
    return EnvelopeScan(thetas=thetas, max_value=max_value, argmax=(float(thetas[i]), float(thetas[j])))
