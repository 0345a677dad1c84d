"""Deterministic hidden variables, joint distributions and polytope LPs.

Three views of classicality live here: exhaustive extrema over
dispersion-free assignments, existence of a joint distribution
reproducing observed correlators (a feasibility LP over assignment
weights), and optimization over the no-disturbance polytope of
context-wise outcome tables.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .dsl import ScenarioSpec, SosExpression, VariableId
from .errors import (
    CoefficientsTooLarge,
    DivisionByZeroCell,
    ProvisoViolated,
    TermOutsideContext,
    TooManyVariables,
    UndeclaredVariable,
    UnknownVariable,
)
from .polynomials import CorrelationInequality, MultilinearPoly, derive_inequality
from .simplex import INFEASIBLE, OPTIMAL, FEASIBILITY_TOL, LpProblem, simplex_solve

EXTREMA_VARIABLE_CAP = 24
FEASIBILITY_VARIABLE_CAP = 20
EXACT_SUM_LIMIT = 1 << 53  # float64 adds integers exactly below this magnitude
WEIGHT_TOL = 1e-12


@dataclass(frozen=True)
class DeterministicAssignment:
    """One dispersion-free valuation: every variable gets +1 or -1."""

    values: dict[VariableId, int]

    def __post_init__(self):
        for var, val in self.values.items():
            if val not in (-1, 1):
                raise ValueError(f"{var} assigned {val}, expected +1 or -1")

    def as_tuple(self, variables):
        return tuple(self.values[v] for v in variables)

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

    def variables(self):
        return tuple(sorted(self.support[0][0].values, key=VariableId.sort_key))

    def correlator(self, a, b) -> float:
        return sum(w * asg[a] * asg[b] for asg, w in self.support)

    def mean(self, a) -> float:
        return sum(w * asg[a] for asg, w in self.support)


@dataclass(frozen=True)
class JointDistribution:
    """Full outcome-tuple distribution over an ordered variable list."""

    variables: tuple[VariableId, ...]
    table: dict[tuple[int, ...], float]

    def __post_init__(self):
        total = 0.0
        for outcome, prob in self.table.items():
            if len(outcome) != len(self.variables):
                raise ValueError(f"outcome {outcome} has wrong arity")
            if prob < 0:
                raise ValueError(f"negative probability {prob} at {outcome}")
            total += prob
        if abs(total - 1.0) > WEIGHT_TOL:
            raise ValueError(f"probabilities sum to {total!r}, expected 1")

    def _index(self, var):
        try:
            return self.variables.index(var)
        except ValueError:
            raise UnknownVariable(f"{var} not in this distribution") from None

    def correlator(self, a, b) -> float:
        ia, ib = self._index(a), self._index(b)
        return sum(p * o[ia] * o[ib] for o, p in self.table.items())

    def mean(self, a) -> float:
        ia = self._index(a)
        return sum(p * o[ia] for o, p in self.table.items())


def dhv_to_jd(model: DhvModel) -> JointDistribution:
    """Collapse a mixture of assignments into one outcome table."""
    variables = model.variables()
    table: dict[tuple[int, ...], float] = {}
    for asg, weight in model.support:
        key = asg.as_tuple(variables)
        table[key] = table.get(key, 0.0) + weight
    return JointDistribution(variables, table)


def _assignment_block(n, start, stop) -> np.ndarray:
    """Rows start..stop of the canonical ±1 assignment enumeration.

    Assignment i maps variable j to +1 when bit (n-1-j) of i is set, so
    ascending i walks the value tuples in lexicographic order with -1
    first.
    """
    idx = np.arange(start, stop, dtype=np.uint32)
    shifts = np.arange(n - 1, -1, -1, dtype=np.uint32)
    bits = (idx[:, None] >> shifts[None, :]) & 1
    return (2 * bits.astype(np.int64)) - 1


def _evaluate_block(poly_terms, block) -> np.ndarray:
    values = np.zeros(block.shape[0], dtype=np.int64)
    for cols, coeff in poly_terms:
        prod = np.full(block.shape[0], coeff, dtype=np.int64)
        for c in cols:
            prod *= block[:, c]
        values += prod
    return values


@dataclass(frozen=True)
class ExtremaResult:
    minimum: int
    maximum: int
    witness_min: DeterministicAssignment
    witness_max: DeterministicAssignment
    assignments_checked: int


def classical_extrema(poly, workers=None, chunk_size=1 << 16) -> ExtremaResult:
    """Exact min and max over every deterministic ±1 assignment.

    Witnesses are the lexicographically smallest attaining assignments
    (-1 sorting before +1).

    The scan splits the sorted variables into a high half (the first
    n//2, the most significant bits of the assignment index) and a low
    half, so index = high * 2**low + low.  Terms are grouped by their
    high-half monomial, and `right` holds each group's low-half sum on
    all 2**low low assignments.  A tile of whole high-half rows is then
    one matrix product: `left` holds the ±1 value of every group's high
    monomial on each row, and `left @ right` lists the tile's values in
    index order, so a row-major argmin/argmax finds the earliest
    attaining index.  A tile covers about `chunk_size` assignments, and
    at least one high-half row.  The product runs in float64, which is
    exact while the sum of absolute coefficients is below 2**53; larger
    inputs raise CoefficientsTooLarge before any allocation.  Tiles may
    be evaluated by a thread pool; the reduction compares (value, first
    index) so the answer does not depend on worker count.
    """
    if isinstance(poly, CorrelationInequality):
        poly = poly.as_poly()
    variables = sorted(poly.variables(), key=VariableId.sort_key)
    n = len(variables)
    if n > EXTREMA_VARIABLE_CAP:
        raise TooManyVariables(f"{n} variables exceeds the cap of {EXTREMA_VARIABLE_CAP}")
    magnitude = sum(abs(c) for _, c in poly.items())
    if magnitude >= EXACT_SUM_LIMIT:
        raise CoefficientsTooLarge(
            f"sum of absolute coefficients {magnitude} is not below 2**53"
        )
    col = {v: i for i, v in enumerate(variables)}
    if n == 0:
        constant = poly.constant_term()
        empty = DeterministicAssignment({})
        return ExtremaResult(constant, constant, empty, empty, 1)

    high = n // 2
    low = n - high
    groups = {}  # high-half columns -> [(low-half columns, coefficient)]
    for varset, coeff in poly.items():
        cols = sorted(col[v] for v in varset)
        key = tuple(c for c in cols if c < high)
        groups.setdefault(key, []).append((tuple(c - high for c in cols if c >= high), coeff))
    low_block = _assignment_block(low, 0, 1 << low)
    right = np.array([_evaluate_block(terms, low_block) for terms in groups.values()], dtype=float)
    incidence = np.zeros((high, len(groups)))
    for g, cols in enumerate(groups):
        incidence[list(cols), g] = 1.0
    rows = max(1, chunk_size >> low)
    tiles = [(s, min(s + rows, 1 << high)) for s in range(0, 1 << high, rows)]

    def scan(tile):
        start, stop = tile
        negatives = _assignment_block(high, start, stop) < 0
        left = 1.0 - 2.0 * ((negatives @ incidence) % 2)
        values = left @ right
        lo, hi = int(values.argmin()), int(values.argmax())
        offset = start << low
        return (int(values.flat[lo]), offset + lo, int(values.flat[hi]), offset + hi)

    if workers and workers > 1 and len(tiles) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(scan, tiles))
    else:
        parts = [scan(tile) for tile in tiles]

    best_min = min((v, i) for v, i, _, _ in parts)
    best_max = max((v, -i) for _, _, v, i in parts)  # prefer the earliest index
    max_value, max_index = best_max[0], -best_max[1]

    def assignment_at(index):
        row = _assignment_block(n, index, index + 1)[0]
        return DeterministicAssignment({v: int(row[col[v]]) for v in variables})

    return ExtremaResult(
        best_min[0], max_value,
        assignment_at(best_min[1]), assignment_at(max_index),
        1 << n,
    )


def _normalize_pairs(observed):
    out = {}
    for key, value in observed.items():
        pair = frozenset(key)
        if len(pair) != 2:
            raise ValueError(f"correlator key {key} must name two distinct variables")
        if abs(value) > 1 + 1e-12:
            raise ValueError(f"correlator {value} for {key} is outside [-1, 1]")
        out[pair] = float(value)
    return out


@dataclass(frozen=True)
class InfeasibilityCertificate:
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


@dataclass(frozen=True)
class FeasibilityResult:
    feasible: bool
    model: DhvModel | None = None
    jd: JointDistribution | None = None
    certificate: InfeasibilityCertificate | None = None


def jd_feasibility(scenario, observed, means=None, tolerance=FEASIBILITY_TOL) -> FeasibilityResult:
    """Does any joint distribution reproduce the observed correlators?

    Solves for convex weights over all deterministic assignments of the
    scenario's variables.  Feasible answers carry the witness model and
    its joint distribution; infeasible answers carry a violated
    inequality extracted from the LP's Farkas certificate.  When the LP
    is infeasible but the certificate's violation is at most
    `tolerance`, the data count as feasible within tolerance: the
    result is feasible, has no model, and carries the certificate.
    """
    variables = tuple(sorted(scenario.variables, key=VariableId.sort_key))
    n = len(variables)
    if n > FEASIBILITY_VARIABLE_CAP:
        raise TooManyVariables(f"{n} variables exceeds the cap of {FEASIBILITY_VARIABLE_CAP}")
    declared = set(variables)
    col = {v: i for i, v in enumerate(variables)}
    pairs = _normalize_pairs(observed)
    means = dict(means or {})
    for pair in pairs:
        for var in pair:
            if var not in declared:
                raise UndeclaredVariable(f"correlator names undeclared {var}")
    for var in means:
        if var not in declared:
            raise UndeclaredVariable(f"mean names undeclared {var}")

    block = _assignment_block(n, 0, 1 << n).astype(float)
    pair_keys = sorted(pairs, key=lambda p: tuple(sorted(v.sort_key() for v in p)))
    mean_keys = sorted(means, key=VariableId.sort_key)
    rows = [np.ones(1 << n)]
    rhs = [1.0]
    for pair in pair_keys:
        a, b = sorted(pair, key=VariableId.sort_key)
        rows.append(block[:, col[a]] * block[:, col[b]])
        rhs.append(pairs[pair])
    for var in mean_keys:
        rows.append(block[:, col[var]])
        rhs.append(float(means[var]))
    a_eq = np.vstack(rows)
    solution = simplex_solve(LpProblem(c=np.zeros(1 << n), a_eq=a_eq, b_eq=np.array(rhs)))

    if solution.status == OPTIMAL:
        weights = np.clip(solution.x, 0.0, None)
        weights /= weights.sum()
        support = []
        for index in np.flatnonzero(weights > WEIGHT_TOL):
            row = _assignment_block(n, int(index), int(index) + 1)[0]
            asg = DeterministicAssignment({v: int(row[col[v]]) for v in variables})
            support.append((asg, float(weights[index])))
        # put any clipped dust on the heaviest atom so weights sum exactly
        drift = 1.0 - sum(w for _, w in support)
        heaviest = max(range(len(support)), key=lambda i: support[i][1])
        support[heaviest] = (support[heaviest][0], support[heaviest][1] + drift)
        model = DhvModel(tuple(support))
        return FeasibilityResult(True, model=model, jd=dhv_to_jd(model))

    if solution.status != INFEASIBLE:
        raise ArithmeticError(f"feasibility LP came back {solution.status}")
    y = solution.farkas_eq
    combo = np.zeros(1 << n)
    observed_value = 0.0
    pair_coeffs = {}
    mean_coeffs = {}
    for offset, pair in enumerate(pair_keys):
        coeff = float(y[1 + offset])
        pair_coeffs[pair] = coeff
        combo += coeff * rows[1 + offset]
        observed_value += coeff * pairs[pair]
    for offset, var in enumerate(mean_keys):
        coeff = float(y[1 + len(pair_keys) + offset])
        mean_coeffs[var] = coeff
        combo += coeff * rows[1 + len(pair_keys) + offset]
        observed_value += coeff * float(means[var])
    certificate = InfeasibilityCertificate(
        pair_coeffs, mean_coeffs, bound=float(combo.max()), observed_value=observed_value
    )
    return FeasibilityResult(certificate.violation <= tolerance, certificate=certificate)


@dataclass(frozen=True)
class NdOptimum:
    """Extremum of a correlator combination over no-disturbance behaviors."""

    value: float
    direction: str
    contexts: tuple[tuple[VariableId, ...], ...]
    behavior: tuple[dict[tuple[int, ...], float], ...]
    consistent: bool


def _objective_pairs(objective):
    if isinstance(objective, CorrelationInequality):
        return {m.variables: float(m.coefficient) for m in objective.terms}
    return {frozenset(k): float(v) for k, v in dict(objective).items()}


def nodisturbance_optimum(scenario, objective, direction="max", enforce_consistency=True) -> NdOptimum:
    """Optimize over context-wise outcome tables with consistent marginals.

    Each declared context gets a probability table over its outcome
    tuples; overlapping contexts must agree on the marginal of every
    shared outcome pattern.  Setting enforce_consistency=False drops the
    marginal rows, leaving independent per-context tables.
    """
    if direction not in ("min", "max"):
        raise ValueError(f"direction must be min or max, got {direction!r}")
    contexts = [tuple(sorted(ctx, key=VariableId.sort_key)) for ctx in scenario.contexts]
    if not contexts:
        raise TermOutsideContext("scenario declares no contexts")
    offsets, total = [], 0
    for ctx in contexts:
        offsets.append(total)
        total += 1 << len(ctx)

    def cell(ci, outcome_bits):
        return offsets[ci] + outcome_bits

    def outcomes(ci):
        k = len(contexts[ci])
        block = _assignment_block(k, 0, 1 << k)
        return [tuple(int(v) for v in row) for row in block]

    pairs = _objective_pairs(objective)
    c_vec = np.zeros(total)
    for pair, coeff in pairs.items():
        home = next((ci for ci, ctx in enumerate(contexts) if pair <= set(ctx)), None)
        if home is None:
            a, b = sorted(pair, key=VariableId.sort_key)
            raise TermOutsideContext(f"{a}{b} lies in no declared context")
        ia = contexts[home].index(sorted(pair, key=VariableId.sort_key)[0])
        ib = contexts[home].index(sorted(pair, key=VariableId.sort_key)[1])
        for bits, outcome in enumerate(outcomes(home)):
            c_vec[cell(home, bits)] += coeff * outcome[ia] * outcome[ib]

    rows, rhs = [], []
    for ci, ctx in enumerate(contexts):
        row = np.zeros(total)
        row[offsets[ci]:offsets[ci] + (1 << len(ctx))] = 1.0
        rows.append(row)
        rhs.append(1.0)
    if enforce_consistency:
        for ci in range(len(contexts)):
            for cj in range(ci + 1, len(contexts)):
                shared = sorted(set(contexts[ci]) & set(contexts[cj]), key=VariableId.sort_key)
                if not shared:
                    continue
                ia = [contexts[ci].index(s) for s in shared]
                ib = [contexts[cj].index(s) for s in shared]
                for pattern in _assignment_block(len(shared), 0, 1 << len(shared)):
                    row = np.zeros(total)
                    for bits, outcome in enumerate(outcomes(ci)):
                        if all(outcome[k] == pattern[t] for t, k in enumerate(ia)):
                            row[cell(ci, bits)] += 1.0
                    for bits, outcome in enumerate(outcomes(cj)):
                        if all(outcome[k] == pattern[t] for t, k in enumerate(ib)):
                            row[cell(cj, bits)] -= 1.0
                    rows.append(row)
                    rhs.append(0.0)

    problem = LpProblem(
        c=c_vec, a_eq=np.vstack(rows), b_eq=np.array(rhs), maximize=(direction == "max")
    )
    solution = simplex_solve(problem)
    if solution.status != OPTIMAL:
        raise ArithmeticError(f"no-disturbance LP came back {solution.status}")
    behavior = []
    for ci, ctx in enumerate(contexts):
        table = {}
        for bits, outcome in enumerate(outcomes(ci)):
            table[outcome] = float(solution.x[cell(ci, bits)])
        behavior.append(table)
    return NdOptimum(
        float(solution.objective), direction, tuple(contexts), tuple(behavior), enforce_consistency
    )


@dataclass(frozen=True)
class MonogamyReport:
    """No-disturbance trade-off between a nonlocal and a contextual test."""

    combined_nd_min: float
    symbolic_bound: Fraction
    agreement: bool
    chsh_nd_min: float
    kcbs_nd_min: float
    kcbs_classical_min: int
    relaxed_min: float


def monogamy_check(scenario, chsh_terms, kcbs_terms, source: SosExpression | None = None,
                   tolerance=1e-7) -> MonogamyReport:
    """LP and symbolic views of the nonlocality-contextuality trade-off.

    The combined objective's no-disturbance minimum is compared against
    the bound derived from the sum-of-squares source (default: the
    shipped five-group source whose expansion is CHSH + the pentagon
    cycle); the report also carries each part's own minimum and the
    value reachable once marginal-consistency rows are dropped.
    """
    if source is None:
        from .catalog import monogamy_source
        source = monogamy_source()
    chsh = _objective_pairs(chsh_terms)
    kcbs = _objective_pairs(kcbs_terms)
    combined = dict(chsh)
    for pair, coeff in kcbs.items():
        combined[pair] = combined.get(pair, 0.0) + coeff
    derived = derive_inequality(source)
    derived_pairs = {m.variables: float(m.coefficient) for m in derived.terms}
    if derived_pairs != combined:
        raise ValueError("the sum-of-squares source does not expand to the combined objective")
    if derived.direction != ">=":
        raise ValueError("expected a lower-bound inequality from the source")

    combined_opt = nodisturbance_optimum(scenario, combined, "min")
    chsh_opt = nodisturbance_optimum(scenario, chsh, "min")
    kcbs_opt = nodisturbance_optimum(scenario, kcbs, "min")
    relaxed = nodisturbance_optimum(scenario, combined, "min", enforce_consistency=False)
    kcbs_poly = MultilinearPoly({pair: int(coeff) for pair, coeff in kcbs.items()})
    kcbs_classical = classical_extrema(kcbs_poly).minimum
    return MonogamyReport(
        combined_nd_min=combined_opt.value,
        symbolic_bound=derived.bound,
        agreement=abs(combined_opt.value - float(derived.bound)) <= tolerance,
        chsh_nd_min=chsh_opt.value,
        kcbs_nd_min=kcbs_opt.value,
        kcbs_classical_min=kcbs_classical,
        relaxed_min=relaxed.value,
    )


def reconstruct_pc(table_a, table_b, tolerance=1e-9) -> np.ndarray:
    """Chain two overlapping tripartite tables into a four-variable one.

    Inputs are 2x2x2 arrays over outcomes of (first, middle, y) and
    (middle, last, y), index 0 meaning +1 and index 1 meaning -1.  Both
    tables must produce the same (middle, y) marginal (the proviso);
    output[first, last, y, middle] multiplies the two tables and divides
    by that shared marginal.  The result is non-negative, normalized,
    and returns both inputs as marginals.
    """
    a = np.asarray(table_a, dtype=float)
    b = np.asarray(table_b, dtype=float)
    for name, t in (("first", a), ("second", b)):
        if t.shape != (2, 2, 2):
            raise ValueError(f"{name} table must be 2x2x2, got {t.shape}")
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
    den = (margin_a + margin_b) / 2.0
    out = np.zeros((2, 2, 2, 2))
    for x1 in range(2):
        for x3 in range(2):
            for y in range(2):
                for x2 in range(2):
                    numerator = a[x1, x2, y] * b[x2, x3, y]
                    if den[x2, y] <= 0.0:
                        if numerator > tolerance:
                            raise DivisionByZeroCell(
                                f"cell (middle={x2}, y={y}) has zero marginal but mass above it"
                            )
                        continue
                    out[x1, x3, y, x2] = numerator / den[x2, y]
    return out


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
