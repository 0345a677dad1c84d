"""Deterministic hidden variables, joint distributions and polytope LPs.

Three views of classicality live here: exact extrema over
dispersion-free assignments, existence of a joint distribution
reproducing observed correlators (a feasibility LP over assignment
weights), and optimization over the no-disturbance polytope of
context-wise outcome tables.  By Fine's theorem a joint distribution
exists exactly when a mixture of deterministic assignments reproduces
the data, so that mixture (a DhvModel) is the witness.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .dsl import SosExpression, VariableId
from .errors import (
    CoefficientsTooLarge,
    DivisionByZeroCell,
    ProvisoViolated,
    TermOutsideContext,
    TooManyVariables,
    UndeclaredVariable,
)
from .polynomials import coefficient_map, derive_inequality, format_varset
from .simplex import INFEASIBLE, OPTIMAL, FEASIBILITY_TOL, LpProblem, simplex_solve

EXTREMA_VARIABLE_CAP = 24  # for the scan; narrow forms go to bucket elimination at any size
ELIMINATION_WIDTH_CAP = 12  # columns in one bucket of _eliminate: tables of at most 2**12 entries
FEASIBILITY_VARIABLE_CAP = 20
ND_TABLEAU_CAP = 1 << 24  # cells of the no-disturbance LP's simplex tableau
EXACT_SUM_LIMIT = 1 << 53  # float64 adds integers exactly below this magnitude
WEIGHT_TOL = 1e-12
# column generation in jd_feasibility: the master LP starts from this many
# assignments, and each pricing round adds at most this many
_SEED_COLUMNS = 16
_BATCH_COLUMNS = 8


@dataclass(frozen=True)
class DeterministicAssignment:
    """One dispersion-free valuation: every variable gets +1 or -1."""

    values: dict[VariableId, int]

    def __post_init__(self):
        for var, val in self.values.items():
            if val not in (-1, 1):
                raise ValueError(f"{var} assigned {val}, expected +1 or -1")

    def __getitem__(self, var):
        return self.values[var]


@dataclass(frozen=True)
class DhvModel:
    """Probability mixture of deterministic assignments."""

    support: tuple[tuple[DeterministicAssignment, float], ...]

    def __post_init__(self):
        total = 0.0
        for _, weight in self.support:
            if weight < 0:
                raise ValueError(f"negative weight {weight}")
            total += weight
        if abs(total - 1.0) > WEIGHT_TOL:
            raise ValueError(f"weights sum to {total!r}, expected 1")

    def correlator(self, a, b) -> float:
        return sum(w * asg[a] * asg[b] for asg, w in self.support)

    def mean(self, a) -> float:
        return sum(w * asg[a] for asg, w in self.support)


def _masks(n, monomials) -> np.ndarray:
    """One bit mask per monomial (a tuple of variable columns) of n variables.

    Assignment index i maps column j to +1 when bit (n-1-j) of i is set,
    so ascending i walks the value tuples in lexicographic order with -1
    first.  Every ±1 table in this module is read through this convention,
    and `_Columns` is the one numbering of variables as columns.
    """
    return np.array([sum(1 << (n - 1 - j) for j in cols) for cols in monomials], dtype=np.int64)


def _monomial_signs(masks, indices) -> np.ndarray:
    """Float ±1 value of each monomial (a `_masks` entry) on each assignment index.

    A monomial is -1 exactly where an odd number of its bits are clear.
    """
    odd = np.bitwise_count(~np.asarray(indices, dtype=np.int64)[:, None] & masks).view(np.int8) & 1
    return (1 - 2 * odd).astype(float)  # int8 arithmetic, one conversion: faster than a gather


def _assignment_rows(n, indices=None) -> np.ndarray:
    """Rows `indices` (default: all 2**n) of the canonical ±1 assignment enumeration, as int64."""
    indices = np.arange(1 << n) if indices is None else indices
    return _monomial_signs(_masks(n, [(j,) for j in range(n)]), indices).astype(np.int64)


class _Columns:
    """The one numbering of variables as columns, read by the three classical routes.

    Variable j in `VariableId.sort_key` order is column j, bit n-1-j of an
    assignment index (`_masks`).  `cols` numbers a set of variables as its
    ascending columns; `assignments` decodes ±1 rows, one entry per column.
    """

    def __init__(self, variables):
        self.variables = tuple(sorted(variables, key=VariableId.sort_key))
        self.col = {v: j for j, v in enumerate(self.variables)}

    def cols(self, key):
        return tuple(sorted(self.col[v] for v in key))

    def assignments(self, rows):
        return [DeterministicAssignment(dict(zip(self.variables, row))) for row in rows]


class _SplitPlan:
    """Row-wise extrema of multilinear forms on fixed monomials over all 2**n assignments.

    The variables split into a high half (the first n//2, the most
    significant bits of the assignment index) and a low half, so index =
    high * 2**low + low, and monomials are grouped by their high half.
    The plan is built from the monomials' `_masks` and holds what does
    not depend on the coefficients: each monomial's group (`masks >>
    low`) and low-half monomial (`masks & (2**low - 1)`), both numbered
    in order of first appearance with the empty group first, the
    low-half monomials' ±1 values on all 2**low low assignments, every
    high-half row's group values, all read off the index bits by
    `_monomial_signs`, and each row's first index.  `jd_feasibility`
    builds one plan per call and scans it under each pricing round's
    coefficients.
    """

    def __init__(self, n, masks, chunk_size=1 << 16):
        high = n // 2
        low = n - high
        groups, group = _first_seen(np.concatenate([[0], masks >> low]))  # the empty group is row 0 of `right`
        lows, column = _first_seen(masks & ((1 << low) - 1))
        self.shape = (len(groups), len(lows))
        self.cells = group[1:] * len(lows) + column
        self.low_signs = _monomial_signs(lows, np.arange(1 << low))
        self.signs = _monomial_signs(groups, np.arange(1 << high))
        self.rows = min(max(1, chunk_size >> low), 1 << high)  # high-half rows per tile
        self.first = np.arange(1 << high, dtype=np.int64) << low  # index of each row's first assignment

    def scan(self, coefficients, workers=None, minima=True):
        """Row-wise extrema of the form with one coefficient per monomial.

        `right` holds each group's low-half sum on all 2**low low
        assignments.  A tile of high-half rows is then one matrix
        product: `signs` holds the ±1 value of every group's high monomial
        on each row, and `signs @ right` lists the tile's values in index
        order.  A tile covers about `chunk_size` assignments, and at least
        one row; tiles may be evaluated by a thread pool of `workers`.
        Memory is O(terms * 2**low) for `right`, which bounds the plan's
        O(groups * 2**(n//2)) row signs, plus O(chunk_size) per tile.

        Returns (row_min, argmin, row_max, argmax), or (row_max, argmax)
        without `minima`, each with one entry per high-half row: the
        row's extreme values and the earliest assignment index attaining
        each.
        """
        weights = np.bincount(self.cells, weights=coefficients, minlength=self.shape[0] * self.shape[1])
        right = weights.reshape(self.shape) @ self.low_signs.T
        extrema = _tile_extrema(self.signs, right, self.rows, workers, minima)
        return tuple(x for values, at in extrema for x in (values, self.first + at))


def _first_seen(values):
    """The distinct entries of `values` in order of first appearance, and each entry's number in that order."""
    distinct, first, inverse = np.unique(values, return_index=True, return_inverse=True)
    order = np.argsort(first)
    return distinct[order], np.argsort(order)[inverse]


def _tile_extrema(left, right, rows, workers, minima=True):
    """Extremes and their earliest columns of each row of `left @ right`.

    Returns [(row_min, arg_min), (row_max, arg_max)], or only the maxima
    when `minima` is false.  The product is taken `rows` rows at a time,
    on a thread pool of `workers` when there are several tiles.
    """
    count = len(left)
    tiles = [(s, min(s + rows, count)) for s in range(0, count, rows)]
    reducers = (np.argmin, np.argmax) if minima else (np.argmax,)
    extrema = [(np.empty(count), np.empty(count, dtype=np.int64)) for _ in reducers]
    span = np.arange(rows)

    def scan(tile):
        start, stop = tile
        values = left[start:stop] @ right
        at = span[:stop - start]
        for reduce, (extreme, column) in zip(reducers, extrema):
            best = column[start:stop] = reduce(values, axis=1)
            extreme[start:stop] = values[at, best]

    if workers and workers > 1 and len(tiles) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(scan, tiles))
    else:
        for tile in tiles:
            scan(tile)
    return extrema


def _spread(scope, sub):
    """Index into a table over `sub` of each entry of a table over `scope` (sub ⊆ scope).

    A table over a scope of k columns has 2**k entries; bit p of an entry
    is set where column scope[p] is +1.
    """
    index = [0]
    for var in scope:
        bit = 1 << sub.index(var) if var in sub else 0
        index += [i + bit for i in index]
    return index


def _eliminate(n, terms):
    """Exact min and max of an integer form over all ±1 assignments, by bucket elimination.

    `terms` are (columns, coefficient) pairs, the columns ascending.
    Variables are eliminated from column n-1 down to 0 (Dechter, "Bucket
    elimination", Artif. Intell. 113, 1999): column v's bucket holds the
    terms whose last column is v and the messages of the buckets before
    it; their sum, maximised (and minimised) over v, is the bucket's
    message, a table over the bucket's other columns.  Decoding runs from
    column 0 up and sets each column to -1 unless +1 is strictly better
    given the columns before it, so each witness is the lexicographically
    smallest attaining assignment, the one the scan reports.

    The scopes come first, from the terms' columns alone.  When a bucket
    would hold more than ELIMINATION_WIDTH_CAP columns, the form is wide
    and None is returned before any table is built.  Otherwise the min and
    max tables share every scope and index map; their entries are Python
    ints, so the result is exact.  Each bucket of k columns costs O(2**k)
    per term and message in it, and keeps its two tables for the decoding.

    Returns (minimum, maximum, min_signs, max_signs), the signs a list of
    ±1 per column.
    """
    constant = 0
    bucket_terms = [[] for _ in range(n)]  # per bucket: the terms whose last column it is
    for cols, coeff in terms:
        if cols:
            bucket_terms[cols[-1]].append((cols, coeff))
        else:
            constant += coeff
    incoming = [set() for _ in range(n)]  # per bucket: the columns of the messages it receives
    scopes = [None] * n  # per bucket: the other columns of its terms and messages, ascending, then v
    for v in range(n - 1, -1, -1):
        lower = incoming[v].union(*(cols for cols, _ in bucket_terms[v]))
        lower.discard(v)
        if len(lower) >= ELIMINATION_WIDTH_CAP:
            return None
        lower = sorted(lower)
        if lower:
            incoming[lower[-1]].update(lower)
        scopes[v] = (*lower, v)

    messages = [[] for _ in range(n)]  # per bucket: (scope, min table, max table)
    tables = [None] * n
    lo_total = hi_total = constant
    for v in range(n - 1, -1, -1):
        scope = scopes[v]
        table = [0] * (1 << len(scope))
        for cols, coeff in bucket_terms[v]:
            values = [coeff]
            for var in scope:  # the upper half of each doubling has var = +1
                values = [-x for x in values] + values if var in cols else values + values
            table = [a + b for a, b in zip(table, values)]
        lo_table = hi_table = table
        for sub, lo_msg, hi_msg in messages[v]:
            index = _spread(scope, sub)
            lo_table = [a + lo_msg[i] for a, i in zip(lo_table, index)]
            hi_table = [a + hi_msg[i] for a, i in zip(hi_table, index)]
        tables[v] = lo_table, hi_table
        half = len(table) >> 1  # v is the top bit
        lo_msg = [a if a <= b else b for a, b in zip(lo_table[:half], lo_table[half:])]
        hi_msg = [a if a >= b else b for a, b in zip(hi_table[:half], hi_table[half:])]
        if len(scope) > 1:
            messages[scope[-2]].append((scope[:-1], lo_msg, hi_msg))
        else:
            lo_total += lo_msg[0]
            hi_total += hi_msg[0]

    witnesses = []
    for side, direction in ((0, -1), (1, 1)):
        signs = [-1] * n
        for v, scope in enumerate(scopes):
            table = tables[v][side]
            e = sum(1 << p for p, u in enumerate(scope[:-1]) if signs[u] > 0)
            if direction * (table[e + (1 << len(scope) - 1)] - table[e]) > 0:
                signs[v] = 1
        witnesses.append(signs)
    return lo_total, hi_total, *witnesses


class ExtremaResult(NamedTuple):
    minimum: int
    maximum: int
    witness_min: DeterministicAssignment
    witness_max: DeterministicAssignment
    assignments_checked: int


def classical_extrema(poly, workers=None, chunk_size=1 << 16) -> ExtremaResult:
    """Exact min and max over every deterministic ±1 assignment.

    `poly` is a CorrelationInequality or any map from variable sets to
    coefficients (`polynomials.coefficient_map`); terms with coefficient 0
    are dropped, so their variables are not enumerated.  Witnesses are the
    lexicographically smallest attaining assignments (-1 sorting before
    +1).  `assignments_checked` is 2**n on every route.  The coefficients
    must be whole numbers; any other raises ValueError before any table is
    built.

    A narrow form, one whose elimination from the last variable down
    keeps every bucket within ELIMINATION_WIDTH_CAP variables, is solved
    by bucket elimination (`_eliminate`) at any n: the paper's cycles,
    chains, CHSH and LG have buckets of 3 variables, so a 1,001-cycle
    takes O(n) work.  A wider form of at most EXTREMA_VARIABLE_CAP
    variables is scanned; past that it raises TooManyVariables before
    any table is built.

    The scan is the split-product kernel `_SplitPlan`, which
    `jd_feasibility` also uses to price columns: one float64 matrix
    product per tile of about `chunk_size` assignments, with tiles
    optionally spread over a thread pool of `workers`; both parameters
    apply to the scan only.  An even form (every monomial of even degree,
    so f(x) = f(-x), as in every paper form) is scanned with its first
    variable fixed to -1, over the indices below 2**(n-1); the mirrored
    half is covered by symmetry: its extremes are the same, and the
    mirror of an attaining assignment whose first variable is +1 sorts
    before it.  Terms without a variable in the scan's low half stay out
    of the product: their sum on each high-half row is added to the row's
    extremes, which moves none of its attaining indices, so a dense
    quadratic form of 20 variables, halved to 19, multiplies 10 term
    groups instead of 46.  The scan reports each high-half row's extremes
    at their earliest indices, so the first row attaining the overall
    extreme holds the earliest attaining index for any worker count.
    Memory is O(terms * 2**(n - n//2)) plus one tile per worker.  The
    sums are exact, in any order, while the sum of absolute coefficients
    is below 2**53; larger inputs raise CoefficientsTooLarge before any
    allocation, and a `chunk_size` that is not an integer of at least 1
    raises ValueError.
    """
    if isinstance(chunk_size, bool) or not isinstance(chunk_size, (int, np.integer)) or chunk_size < 1:
        raise ValueError(f"chunk_size is {chunk_size!r}, expected an integer of at least 1")
    terms = [(varset, c) for varset, c in coefficient_map(poly).items() if c]
    magnitude = sum(abs(c) for _, c in terms)
    if magnitude >= EXACT_SUM_LIMIT:
        raise CoefficientsTooLarge(
            f"sum of absolute coefficients {magnitude} is not below 2**53"
        )
    for varset, c in terms:
        if c != int(c):
            raise ValueError(f"coefficient {c} of {format_varset(varset) or 'the constant'} is not an integer")
    form = _Columns(frozenset().union(*(varset for varset, _ in terms)))
    n = len(form.variables)
    terms = [(form.cols(varset), int(c)) for varset, c in terms]
    eliminated = _eliminate(n, terms)
    if eliminated is not None:
        lo, hi, *signs = eliminated
        return ExtremaResult(lo, hi, *form.assignments(signs), 1 << n)
    if n > EXTREMA_VARIABLE_CAP:
        raise TooManyVariables(
            f"{n} variables exceeds the scan's cap of {EXTREMA_VARIABLE_CAP}, and an elimination "
            f"bucket exceeds the cap of {ELIMINATION_WIDTH_CAP} variables")

    masks = _masks(n, [cols for cols, _ in terms])
    coefficients = np.array([c for _, c in terms], dtype=np.int64)
    half = n > 0 and not (np.bitwise_count(masks) & 1).any()
    if half:  # column 0, bit n-1, is fixed to -1: indices below 2**(n-1) decode unchanged
        coefficients *= 1 - 2 * (masks >> n - 1)
        masks &= ~(1 << n - 1)
    low = n - half - (n - half) // 2
    mixed = masks & ((1 << low) - 1) != 0  # the terms with a low-half variable; the others shift whole rows
    plan = _SplitPlan(n - half, masks[mixed], chunk_size)
    row_min, arg_min, row_max, arg_max = plan.scan(coefficients[mixed], workers)
    shift = _monomial_signs(masks[~mixed] >> low, np.arange(len(row_min))) @ coefficients[~mixed]
    row_min += shift
    row_max += shift
    lo, hi = int(row_min.argmin()), int(row_max.argmax())  # first row: earliest index
    witnesses = form.assignments(_assignment_rows(n, [arg_min[lo], arg_max[hi]]).tolist())
    return ExtremaResult(int(row_min[lo]), int(row_max[hi]), *witnesses, 1 << n)


def _checked_value(value, what):
    value = float(value)
    if not np.isfinite(value):
        raise ValueError(f"{what} is {value}, expected a finite number")
    if abs(value) > 1 + 1e-12:
        raise ValueError(f"{what} is {value}, outside [-1, 1]")
    return value


class InfeasibilityCertificate(NamedTuple):
    """A correlation inequality every DHV model obeys but the data violate.

    Coefficients come from Farkas duals of the feasibility LP; the bound
    is sharpened to the exact deterministic maximum of the combination.
    """

    pair_coefficients: dict[frozenset, float]
    mean_coefficients: dict[VariableId, float]
    bound: float
    observed_value: float

    @property
    def violation(self) -> float:
        return self.observed_value - self.bound


class FeasibilityResult(NamedTuple):
    feasible: bool
    model: DhvModel | None = None
    certificate: InfeasibilityCertificate | None = None


def jd_feasibility(scenario, observed, tolerance=FEASIBILITY_TOL) -> FeasibilityResult:
    """Does any joint distribution reproduce the observed correlators and means?

    `observed` maps variable sets to observed values and is read through
    `polynomials.coefficient_map`.  The data are moments of the ±1
    variables: a key of two variables is a correlator, a key of one a
    mean.  Any other key, and a value not finite or outside [-1, 1], raise
    ValueError.  The LP rows after the normalization row are the
    correlators, then the means, each group in column order.

    The LP asks for convex weights over the deterministic assignments of
    the scenario's variables, and is solved by column generation.  A
    restricted master LP holds a few assignment columns: the
    `_SEED_COLUMNS` best aligned with the data, or every assignment when
    there are no more than that.  While the master is infeasible, its
    phase-1 Farkas vector y prices all 2**n assignments at once with the
    split-product scan, whose plan is built once per call and which
    computes only row maxima.  Up to `_BATCH_COLUMNS` of the assignments
    priced above FEASIBILITY_TOL are appended to the master, and the next
    solve resumes phase 1 from the last one's tableau (`simplex_solve`'s
    `start`): the master only gains columns, so its last basis is still a
    valid start.  A feasible master's weights are the witness.  When no
    assignment prices positive, y also certifies the full LP infeasible:
    the certificate's bound is the scan's maximum of the combination over
    all assignments.  Memory is the master's O(m * (columns + m)) tableau
    for m LP rows plus the scan's O(m * 2**(n - n//2) + chunk), never
    O(m * 2**n).

    Feasible answers carry the witness model; infeasible answers carry
    the violated inequality.  When the LP is infeasible but the
    certificate's violation is at most `tolerance`, the data count as
    feasible within tolerance: the result is feasible, has no model, and
    carries the certificate.  A tolerance that is negative, infinite or
    NaN raises ValueError.
    """
    if not 0.0 <= tolerance < np.inf:  # false for NaN too
        raise ValueError(f"tolerance is {tolerance}, expected a finite non-negative number")
    form = _Columns(scenario.variables)
    n = len(form.variables)
    if n > FEASIBILITY_VARIABLE_CAP:
        raise TooManyVariables(f"{n} variables exceeds the cap of {FEASIBILITY_VARIABLE_CAP}")
    data = {}
    for key, value in coefficient_map(observed).items():
        name = format_varset(key)
        if len(key) not in (1, 2):
            raise ValueError(f"observed key {name or '()'} names {len(key)} variables, expected one or two")
        data[key] = _checked_value(value, f"correlator for {name}" if len(key) == 2 else f"mean of {name}")
        for var in sorted(key, key=VariableId.sort_key):
            if var not in form.col:
                raise UndeclaredVariable(f"{'correlator' if len(key) == 2 else 'mean'} names undeclared {var}")

    # the LP rows after the normalization row, as monomials over variable columns
    keys = sorted(data, key=lambda key: (len(key) == 1, form.cols(key)))
    monomials = [form.cols(key) for key in keys]
    rhs = np.array([1.0] + [data[key] for key in keys])

    masks = _masks(n, monomials)
    plan = _SplitPlan(n, masks)

    def columns(indices):
        return np.vstack([np.ones(len(indices)), _monomial_signs(masks, indices).T])

    if 1 << n <= _SEED_COLUMNS:
        master = np.arange(1 << n)
    else:
        row_max, arg_max = plan.scan(rhs[1:], minima=False)
        master = np.sort(arg_max[np.argsort(-row_max, kind="stable")[:_SEED_COLUMNS]])
    a_eq = columns(master)
    solution = None
    while True:
        # an infeasible master resumes phase 1 from its last tableau
        solution = simplex_solve(LpProblem(c=np.zeros(len(master)), a_eq=a_eq, b_eq=rhs), start=solution)
        if solution.status != INFEASIBLE:
            break
        y = solution.farkas_eq
        row_max, arg_max = plan.scan(y[1:], minima=False)
        prices = y[0] + row_max
        order = np.argsort(-prices, kind="stable")
        known = set(master.tolist())
        fresh = [int(i) for i in arg_max[order[prices[order] > FEASIBILITY_TOL]] if i not in known]
        if not fresh:
            break
        fresh = np.array(fresh[:_BATCH_COLUMNS])
        master = np.concatenate([master, fresh])
        a_eq = np.hstack([a_eq, columns(fresh)])

    if solution.status == OPTIMAL:
        weights = np.clip(solution.x, 0.0, None)
        weights /= weights.sum()
        atoms = sorted(np.flatnonzero(weights > WEIGHT_TOL), key=lambda j: master[j])
        witnesses = form.assignments(_assignment_rows(n, master[atoms]).tolist())
        support = [(asg, float(weights[j])) for j, asg in zip(atoms, witnesses)]
        # put any clipped dust on the heaviest atom so weights sum exactly
        drift = 1.0 - sum(w for _, w in support)
        heaviest = max(range(len(support)), key=lambda i: support[i][1])
        support[heaviest] = (support[heaviest][0], support[heaviest][1] + drift)
        return FeasibilityResult(True, model=DhvModel(tuple(support)))

    if solution.status != INFEASIBLE:
        raise ArithmeticError(f"feasibility LP came back {solution.status}")
    coeffs = (y[1:] + 0.0).tolist()  # + 0.0 turns any -0.0 of the Farkas vector into +0.0
    observed_value = 0.0
    for coeff, value in zip(coeffs, rhs[1:].tolist()):
        observed_value += coeff * value
    certificate = InfeasibilityCertificate(
        {key: c for key, c in zip(keys, coeffs) if len(key) == 2},
        {var: c for key, c in zip(keys, coeffs) if len(key) == 1 for var in key},
        bound=float(row_max.max()), observed_value=observed_value,
    )
    return FeasibilityResult(certificate.violation <= tolerance, certificate=certificate)


class NdOptimum(NamedTuple):
    """Extremum of a correlator combination over no-disturbance behaviors."""

    value: float
    direction: str
    contexts: tuple[tuple[VariableId, ...], ...]
    behavior: tuple[dict[tuple[int, ...], float], ...]
    consistent: bool


def _root(parent, c):
    """c's root in a union-find forest, halving the path on the way."""
    while parent[c] != c:
        parent[c] = c = parent[parent[c]]  # parent[c] is set before c moves
    return c


def _join(parent, a, b):
    """Merge the groups of a and b under the smaller root."""
    a, b = sorted((_root(parent, a), _root(parent, b)))
    parent[b] = a


def nodisturbance_optimum(scenario, objective, direction="max", enforce_consistency=True) -> NdOptimum:
    """Optimize over context-wise outcome tables with consistent marginals.

    Each declared context gets a probability table over its outcome
    tuples; overlapping contexts must agree on the marginal of every
    shared outcome pattern.  Setting enforce_consistency=False drops the
    marginal rows, leaving independent per-context tables.

    `objective` is a CorrelationInequality or any map from variable pairs
    to coefficients (`polynomials.coefficient_map`), read as floats.  Each
    key, zero coefficients included, must name two distinct variables
    (else ValueError) of one declared context (else TermOutsideContext).

    The LP has one column per outcome of each context and leaves out rows
    the others imply, decided from the contexts alone.  For each set S
    that two contexts share exactly, the contexts holding S fall into
    groups joined by columns outside S, and the wider overlaps inside a
    group already make its marginals on S agree.  Each group but the last
    holder's keeps one row per pattern of S, between the group's last
    context and the last holder.  Each group of contexts joined by shared
    columns has one normalization row, its first context's: an overlap's
    rows sum to the difference of its two.  The rows are an ordered subset
    of the per-pair LP's, of the same rank.  Finding the shared sets takes
    one intersection per pair of contexts sharing a column, quadratic in
    the contexts of a star; grouping joins each holder's columns outside S
    once.  When the simplex tableau, rows * (columns + rows + 1)
    cells, would exceed ND_TABLEAU_CAP, TooManyVariables is raised before
    any table is built.
    """
    if direction not in ("min", "max"):
        raise ValueError(f"direction must be min or max, got {direction!r}")
    form = _Columns(scenario.variables)
    contexts = [form.cols(ctx) for ctx in scenario.contexts]  # each context's columns, ascending
    if not contexts:
        raise TermOutsideContext("scenario declares no contexts")
    homes = [[] for _ in form.variables]  # per column: contexts holding it, in declaration order
    for ci, ctx in enumerate(contexts):
        for j in ctx:
            homes[j].append(ci)

    terms = []  # (context, its places of the pair's columns, coefficient)
    for pair, coeff in coefficient_map(objective).items():
        if len(pair) != 2:
            raise ValueError(f"objective key {format_varset(pair) or '1'} must name two distinct variables")
        a, b = sorted(form.col.get(var, -1) for var in pair)  # -1: undeclared
        home = next((ci for ci in homes[b] if a in contexts[ci]), None) if a >= 0 else None
        if home is None:
            raise TermOutsideContext(f"{format_varset(pair)} lies in no declared context")
        terms.append((home, contexts[home].index(a), contexts[home].index(b), coeff))
    overlaps = []  # (ci, cj, shared columns) for ci < cj, in build order
    parent = list(range(len(contexts)))
    if enforce_consistency:
        shared_sets = {tuple(j for j in ctx if j in contexts[cj])
                       for ci, ctx in enumerate(contexts) for cj in {cj for j in ctx for cj in homes[j] if cj > ci}}
        for shared in shared_sets:
            holders = sorted(set(homes[shared[0]]).intersection(*(homes[j] for j in shared[1:])))
            groups, firsts = {c: c for c in holders}, {}  # holders joined by a column outside S
            for c in holders:
                for j in contexts[c]:
                    if j not in shared:
                        _join(groups, c, firsts.setdefault(j, c))
            lasts = {_root(groups, c): c for c in holders}  # each group's last holder
            overlaps += [(c, holders[-1], shared) for c in lasts.values() if c != holders[-1]]
        overlaps.sort()
        for held in homes:
            for c in held[1:]:
                _join(parent, held[0], c)
    norms = [ci for ci, root in enumerate(parent) if root == ci]  # one normalization row per group
    starts = [0]  # each context's first LP column
    for ctx in contexts:
        starts.append(starts[-1] + (1 << len(ctx)))
    total = starts[-1]
    m = len(norms) + sum(1 << len(cols) for _, _, cols in overlaps)
    cells = m * (total + m + 1)
    if cells > ND_TABLEAU_CAP:
        raise TooManyVariables(f"the no-disturbance tableau has {cells} cells, above the cap of {ND_TABLEAU_CAP}")

    tables = {k: _assignment_rows(k) for k in {len(ctx) for ctx in contexts}}  # one per context size
    c_vec = np.zeros(total)
    for home, ia, ib, coeff in terms:
        table = tables[len(contexts[home])]
        c_vec[starts[home]:starts[home + 1]] += float(coeff) * table[:, ia] * table[:, ib]
    a_eq = np.zeros((m, total))
    b_eq = np.zeros(m)
    b_eq[:len(norms)] = 1.0
    for row, ci in enumerate(norms):
        a_eq[row, starts[ci]:starts[ci + 1]] = 1.0
    # one row per shared pattern: ci's cells showing it minus cj's.  A cell's
    # row is the code of its shared variables' bits, the first most significant
    # (the order of _assignment_rows); `offsets` holds each cell's flat offset
    # from the block's first row and the context's first column
    flat, offsets = a_eq.reshape(-1), {}
    row = len(norms)
    for ci, cj, shared in overlaps:
        for ck, sign in ((ci, 1.0), (cj, -1.0)):
            k, cols = len(contexts[ck]), tuple(map(contexts[ck].index, shared))
            if (k, cols) not in offsets:
                codes = (tables[k][:, cols] > 0) @ (1 << np.arange(len(cols) - 1, -1, -1))
                offsets[k, cols] = codes * total + np.arange(1 << k)
            flat[row * total + starts[ck] + offsets[k, cols]] = sign
        row += 1 << len(shared)

    problem = LpProblem(c=c_vec, a_eq=a_eq, b_eq=b_eq, maximize=(direction == "max"))
    solution = simplex_solve(problem)
    if solution.status != OPTIMAL:
        raise ArithmeticError(f"no-disturbance LP came back {solution.status}")
    outcomes = {k: [tuple(outcome) for outcome in table.tolist()] for k, table in tables.items()}
    x = solution.x.tolist()
    behavior = tuple(
        dict(zip(outcomes[len(ctx)], x[starts[ci]:starts[ci + 1]])) for ci, ctx in enumerate(contexts)
    )
    labels = tuple(tuple(form.variables[j] for j in ctx) for ctx in contexts)
    return NdOptimum(float(solution.objective), direction, labels, behavior, enforce_consistency)


class MonogamyReport(NamedTuple):
    """No-disturbance trade-off between a nonlocal and a contextual test."""

    combined_nd_min: float
    symbolic_bound: Fraction
    agreement: bool
    chsh_nd_min: float
    kcbs_nd_min: float
    kcbs_classical_min: int
    relaxed_min: float


def monogamy_check(scenario, source: SosExpression) -> MonogamyReport:
    """LP and symbolic views of the nonlocality-contextuality trade-off.

    The source's derived objective has its no-disturbance minimum
    compared against the derived bound.  The scenario's parties split
    the objective: cross-party terms are the CHSH part, same-party terms
    the pentagon part.  The report also carries each part's own minimum
    and the value reachable once marginal-consistency rows are dropped.
    """
    derived = derive_inequality(source)
    if derived.direction != ">=":
        raise ValueError("expected a lower-bound inequality from the source")
    combined_opt = nodisturbance_optimum(scenario, derived, "min")  # first: it refuses undeclared terms
    chsh, kcbs = {}, {}
    for mono in derived.terms:
        (kcbs if scenario.same_party(*mono.variables) else chsh)[mono.variables] = mono.coefficient
    chsh_opt = nodisturbance_optimum(scenario, chsh, "min")
    kcbs_opt = nodisturbance_optimum(scenario, kcbs, "min")
    relaxed = nodisturbance_optimum(scenario, derived, "min", enforce_consistency=False)
    return MonogamyReport(
        combined_nd_min=combined_opt.value,
        symbolic_bound=derived.bound,
        agreement=abs(combined_opt.value - float(derived.bound)) <= 1e-7,
        chsh_nd_min=chsh_opt.value,
        kcbs_nd_min=kcbs_opt.value,
        kcbs_classical_min=classical_extrema(kcbs).minimum,
        relaxed_min=relaxed.value,
    )


def reconstruct_pc(table_a, table_b, tolerance=1e-9) -> np.ndarray:
    """Chain two overlapping tripartite tables into a four-variable one.

    Inputs are 2x2x2 arrays over outcomes of (first, middle, y) and
    (middle, last, y), index 0 meaning +1 and index 1 meaning -1.  Both
    tables must produce the same (middle, y) marginal within `tolerance`
    (the proviso); output[first, last, y, middle] multiplies the two
    tables and divides by the mean of the two marginals.  A cell whose
    mean marginal is not positive stays 0, unless the product above it
    exceeds `tolerance` (DivisionByZeroCell).  The result is
    non-negative within `tolerance`, normalized, and returns both inputs
    as marginals.  A table with a NaN or infinite cell raises ValueError.
    """
    a = np.asarray(table_a, dtype=float)
    b = np.asarray(table_b, dtype=float)
    for name, t in (("first", a), ("second", b)):
        if t.shape != (2, 2, 2):
            raise ValueError(f"{name} table must be 2x2x2, got {t.shape}")
        if not np.isfinite(t).all():
            raise ValueError(f"{name} table has a non-finite cell")
        if t.min() < -tolerance:
            raise ValueError(f"{name} table has a negative cell")
        if abs(t.sum() - 1.0) > tolerance:
            raise ValueError(f"{name} table sums to {t.sum()!r}, expected 1")
    margin_a = a.sum(axis=0)   # over first  -> (middle, y)
    margin_b = b.sum(axis=1)   # over last   -> (middle, y)
    if np.abs(margin_a - margin_b).max() > tolerance:
        raise ProvisoViolated(
            f"shared (middle, y) marginals differ by up to {np.abs(margin_a - margin_b).max():.3e}"
        )
    den = ((margin_a + margin_b) / 2.0).T  # (y, middle), the output's last two axes
    # one IEEE product per cell, so 0 * -x stays -0.0 (an einsum would add it to +0.0)
    numerator = a.transpose(0, 2, 1)[:, None] * b.transpose(1, 2, 0)  # (first, last, y, middle)
    empty = den <= 0.0
    bad = empty & (numerator > tolerance)
    if bad.any():
        _, _, y, x2 = np.argwhere(bad)[0]
        raise DivisionByZeroCell(f"cell (middle={x2}, y={y}) has zero marginal but mass above it")
    return np.divide(numerator, den, out=np.zeros((2, 2, 2, 2)), where=~empty)


def random_dhv_model(variables, rng, support_size=4) -> DhvModel:
    """Sample a mixture of uniformly chosen assignments; for tests/demos."""
    variables = tuple(sorted(variables, key=VariableId.sort_key))
    weights = rng.random(support_size)
    weights /= weights.sum()
    weights[-1] = 1.0 - weights[:-1].sum()
    support = []
    for w in weights:
        values = {v: int(1 - 2 * rng.integers(0, 2)) for v in variables}
        support.append((DeterministicAssignment(values), float(w)))
    return DhvModel(tuple(support))
