"""The per-term rule tables quantum evaluation used before `qubit_layout`.

Kept as the bit-exact reference for `evaluate_inequality_quantum` and the
settings search's objective.  Each term gets a rule: "tensor" puts var_a
on subsystem 0 and var_b on subsystem 1; "sequential" measures first
then second on one subsystem, with collapse in between.
"""

from dataclasses import dataclass

from corrineq.dsl import VariableId
from corrineq.errors import MissingAssignment, MissingSetting
from corrineq.polynomials import letter_scenario
from corrineq.quantum import sequential_correlator, spatial_correlator

TENSOR = "tensor"
SEQUENTIAL = "sequential"


@dataclass(frozen=True)
class TermRule:
    kind: str
    var_a: VariableId | None = None
    var_b: VariableId | None = None
    subsystem: int | None = None
    first: VariableId | None = None
    second: VariableId | None = None


def tensor_rule(var_on_a, var_on_b) -> TermRule:
    return TermRule(TENSOR, var_a=var_on_a, var_b=var_on_b)


def sequential_rule(subsystem, first, second) -> TermRule:
    return TermRule(SEQUENTIAL, subsystem=subsystem, first=first, second=second)


def auto_assignment(ineq, scenario=None) -> dict:
    """Cross-party terms tensor, same-party terms sequential in ascending
    variable order; parties ranked alphabetically onto subsystems 0 and 1."""
    if scenario is None:
        scenario = letter_scenario(ineq.variables())
    party_of = {v: scenario.party(v) for v in ineq.variables()}
    names = sorted(set(party_of.values()))
    if len(names) > 2:
        raise MissingAssignment(f"cannot auto-assign {len(names)} parties to two subsystems")
    side = {name: i for i, name in enumerate(names)}
    rules = {}
    for mono in ineq.terms:
        a, b = sorted(mono.variables, key=VariableId.sort_key)
        if party_of[a] == party_of[b]:
            rules[mono.variables] = sequential_rule(side[party_of[a]], a, b)
        elif side[party_of[a]] == 0:
            rules[mono.variables] = tensor_rule(a, b)
        else:
            rules[mono.variables] = tensor_rule(b, a)
    return rules


def term_correlator(rho, rule: TermRule, settings) -> float:
    def setting(var):
        try:
            return settings[var]
        except KeyError:
            raise MissingSetting(f"no direction given for {var}") from None

    if rule.kind == TENSOR:
        return spatial_correlator(rho, setting(rule.var_a), setting(rule.var_b))
    if rule.kind == SEQUENTIAL:
        return sequential_correlator(rho, setting(rule.first), setting(rule.second), rule.subsystem)
    raise MissingAssignment(f"unknown rule kind {rule.kind!r}")


def reference_value(ineq, rho, settings, assignment) -> float:
    """Signed sum of per-term correlators under the given rules."""
    total = 0.0
    for mono in ineq.terms:
        rule = assignment.get(mono.variables)
        if rule is None:
            raise MissingAssignment(f"no rule for term {mono}")
        total += mono.coefficient * term_correlator(rho, rule, settings)
    return total
