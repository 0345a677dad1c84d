"""Correlation inequalities read off sums of squares of ±1 linear forms.

For ±1 variables (Σ b_i x_i)² = Σ b_i² + 2·Σ_{i<j} b_i b_j x_i x_j, so
a sum of squared forms plus an offset is a constant plus one
coefficient per pair of variables.  A form whose coefficients add to an
odd number takes odd values, so its square is at least 1; summing
these guarantees a lower bound, and moving the constant across and
halving gives a correlation inequality with an exact rational bound
(the hypermetric rows of Deza & Laurent, Geometry of Cuts and Metrics,
ch. 28).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .dsl import ScenarioSpec, SosExpression, VariableId, _signed_sum
from .errors import EvenGroupWarning, ResidualDegreeError, UnmappedVariable

SPATIAL = "spatial"
CONTEXTUAL = "contextual"
TEMPORAL = "temporal"
HYBRID = "hybrid"

CROSS_PARTY = "cross-party"
SAME_PARTY = "same-party"


def _varset_key(varset):
    return tuple(v.sort_key() for v in sorted(varset, key=VariableId.sort_key))


def format_varset(varset) -> str:
    return "".join(str(v) for v in sorted(varset, key=VariableId.sort_key))


class Monomial(NamedTuple):
    """A product of distinct ±1 variables with an integer coefficient."""

    variables: frozenset[VariableId]
    coefficient: int

    def __str__(self):
        name = format_varset(self.variables) if self.variables else "1"
        return f"{self.coefficient}*{name}"


def coefficient_map(form) -> dict:
    """Each key set's coefficient, from an inequality's terms or a mapping's items.

    A key may be any iterable of VariableIds, the empty one keying the
    constant; zero coefficients are kept.  A key naming anything else,
    such as the string "X1", a bare VariableId, a key naming one
    variable twice, such as (X1, X1), whose product is the constant and
    not X1, and a set given twice, such as (X1, Y1) and (Y1, X1), raise
    ValueError.
    """
    out = {}
    for key, coeff in form.terms if isinstance(form, CorrelationInequality) else form.items():
        if isinstance(key, VariableId):  # X1's own key is the set {X1}
            raise ValueError(f"key {key} is a variable, not a set of variables")
        varset = frozenset(key)  # a frozenset key is returned as it is, with no hashing
        for v in varset:
            if not isinstance(v, VariableId):
                raise ValueError(f"key {key!r} names a variable that is not a VariableId")
        if varset is not key and len(varset) < len(tuple(key)):
            raise ValueError(f"key {format_varset(tuple(key))} names a variable twice")
        if varset in out:
            raise ValueError(f"{format_varset(varset) or 'the constant'} is given twice")
        out[varset] = coeff
    return out


class MultilinearPoly(dict):
    """A coefficient map with its zero coefficients dropped."""

    __slots__ = ()

    def __init__(self, terms):
        super().__init__((varset, c) for varset, c in coefficient_map(terms).items() if c != 0)


class GroupVerdict(NamedTuple):
    """Odd-sum check for one squared form."""

    term_count: int
    coefficient_sum: int
    parity: str          # "odd" or "even"
    implied_bound: int   # 1 when the square cannot vanish, else 0


@dataclass(frozen=True)
class CorrelationInequality:
    """Degree-2 correlator combination compared against a rational bound."""

    terms: tuple[Monomial, ...]
    direction: str
    bound: Fraction

    def __post_init__(self):
        for mono in self.terms:
            if len(mono.variables) != 2:
                raise ResidualDegreeError(f"inequality term {mono} is not degree 2")

    def variables(self):
        out = set()
        for mono in self.terms:
            out |= mono.variables
        return frozenset(out)


def format_inequality(ineq: CorrelationInequality) -> str:
    """Human text like 'X1Y1 + X1Y2 + X2Y1 - X2Y2 <= 2'."""
    body = _signed_sum((mono.coefficient, format_varset(mono.variables)) for mono in ineq.terms)
    bound = ineq.bound
    btxt = str(bound.numerator) if bound.denominator == 1 else str(bound)
    return f"{body} {ineq.direction} {btxt}"


def validate_odd_groups(expr: SosExpression) -> list[GroupVerdict]:
    """Per-group parity report.

    A form whose coefficients sum to an odd number takes odd integer
    values on ±1 inputs, so its square is at least 1.  Even sums allow
    the square to vanish, which weakens the guaranteed bound.
    """
    out = []
    for group in expr.groups:
        s = group.coefficient_sum()
        odd = s % 2 != 0
        out.append(GroupVerdict(len(group.terms), s, "odd" if odd else "even", 1 if odd else 0))
    return out


def letter_scenario(variables) -> ScenarioSpec:
    """One party per variable letter and no contexts: the rule used without a scenario."""
    variables = tuple(sorted(variables, key=VariableId.sort_key))
    return ScenarioSpec(variables, {v: v.letter for v in variables})


def term_kinds(terms, scenario: ScenarioSpec) -> dict[frozenset[VariableId], str]:
    """Label each degree-2 term same-party or cross-party by the scenario's parties."""
    return {
        m.variables: SAME_PARTY if scenario.same_party(*m.variables) else CROSS_PARTY
        for m in terms
    }


def derive_inequality(expr: SosExpression) -> CorrelationInequality:
    """Turn a sum-of-squares statement into a correlation inequality.

    For a >= source the stated bound is tightened to the parity-implied
    minimum when that is larger; stating `... + 5 >= 0` therefore still
    yields the sharp bound.  Warns (EvenGroupWarning) when a group has an
    even coefficient sum, since the parity argument then contributes 0.
    """
    verdicts = validate_odd_groups(expr)
    even = [i for i, v in enumerate(verdicts) if v.parity == "even"]
    if even:
        warnings.warn(
            f"group(s) {even} have even coefficient sums; their squares may vanish",
            EvenGroupWarning,
            stacklevel=2,
        )
    if expr.comparator == ">=":  # the parity minimum: one per odd group, plus the stated offset
        effective = max(expr.bound, sum(v.implied_bound for v in verdicts) + expr.constant_offset)
    else:
        effective = expr.bound
    # each square adds Σ b_i² to the constant and 2·b_i·b_j to each pair; both sides are halved
    constant = expr.constant_offset
    pairs = {}
    for group in expr.groups:
        terms = group.terms
        for i, (b, u) in enumerate(terms):
            constant += b * b
            for c, v in terms[i + 1:]:
                key = frozenset((v, u))
                coefficient = pairs.get(key, 0) + b * c
                if coefficient:
                    pairs[key] = coefficient
                else:
                    del pairs[key]
    ordered = sorted(pairs, key=_varset_key)
    if not ordered:
        raise ResidualDegreeError("no degree-2 terms survive the expansion")
    # the sign that makes the first term positive
    sign = 1 if pairs[ordered[0]] > 0 else -1
    direction = expr.comparator if sign > 0 else ("<=" if expr.comparator == ">=" else ">=")
    return CorrelationInequality(
        tuple(Monomial(key, sign * pairs[key]) for key in ordered),
        direction,
        sign * Fraction(effective - constant, 2),
    )


def classify(ineq: CorrelationInequality, scenario: ScenarioSpec) -> str:
    """Sort an inequality by the compatibility type of its terms.

    Cross-party pairs commute by separation (spatial); same-party pairs
    in a declared context commute by assumption (contextual); same-party
    pairs with no shared context need sequential measurement (temporal).
    A mix of types is hybrid.
    """
    declared = set(scenario.variables)
    kinds = set()
    for mono in ineq.terms:
        a, b = sorted(mono.variables, key=VariableId.sort_key)
        if a not in declared or b not in declared:
            missing = a if a not in declared else b
            raise UnmappedVariable(f"{missing} is not declared in the scenario")
        if not scenario.same_party(a, b):
            kinds.add(SPATIAL)
        elif scenario.in_common_context(a, b):
            kinds.add(CONTEXTUAL)
        else:
            kinds.add(TEMPORAL)
    if len(kinds) == 1:
        return kinds.pop()
    return HYBRID
