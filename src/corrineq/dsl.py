"""Text format for sum-of-squares expressions and measurement scenarios.

An expression file holds a sum of squared linear forms in dichotomic
variables, an optional integer offset, and an integer bound:

    (X1 - Y1 - Y2)^2 + (X2 - Y1 + Y2)^2 >= 2

A scenario file declares the variables, which party measures each one,
which subsets are jointly measurable, and which pairs are measured in
time order.  See docs/dsl.md for the full grammar.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import (
    DslSyntaxError,
    DuplicateVariableInGroup,
    InconsistentContext,
    UndeclaredVariable,
    ZeroCoefficient,
)

_VAR_RE = re.compile(r"[A-Z](?:0|[1-9][0-9]*)?")
_INT_RE = re.compile(r"[0-9]+")


@dataclass(frozen=True, slots=True)
class VariableId:
    """A dichotomic (±1) observable symbol such as X1, Y2 or a bare J."""

    letter: str
    index: int | None = None

    def __post_init__(self):
        if len(self.letter) != 1 or not "A" <= self.letter <= "Z":
            raise ValueError(f"variable letter must be a single capital, got {self.letter!r}")
        if self.index is not None and self.index < 0:
            raise ValueError("variable index must be non-negative")

    # an indexless J sorts before J1; letters order alphabetically
    def __lt__(self, other):
        if not isinstance(other, VariableId):
            return NotImplemented
        return self.sort_key() < other.sort_key()

    def sort_key(self):
        return (self.letter, self.index is not None, self.index or 0)

    # before Python 3.12 hash(None) is an address, so the generated hash would vary from run to run
    def __hash__(self):
        return hash((self.letter, -1 if self.index is None else self.index))

    def __str__(self):
        return self.letter if self.index is None else f"{self.letter}{self.index}"


@dataclass(frozen=True, slots=True)
class LinearForm:
    """An integer combination of distinct variables, e.g. X1 - Y1 - Y2."""

    terms: tuple[tuple[int, VariableId], ...]

    def __post_init__(self):
        if not self.terms:
            raise ValueError("linear form needs at least one term")
        seen = set()
        for coeff, var in self.terms:
            if coeff == 0:
                raise ZeroCoefficient(f"zero coefficient on {var}")
            if var in seen:
                raise DuplicateVariableInGroup(f"{var} appears twice in one group")
            seen.add(var)

    def variables(self):
        return frozenset(var for _, var in self.terms)

    def coefficient_sum(self):
        return sum(coeff for coeff, _ in self.terms)

    def sorted_terms(self):
        return tuple(sorted(self.terms, key=lambda t: t[1].sort_key()))


@dataclass(frozen=True, slots=True)
class SosExpression:
    """Sum of squared forms plus a constant, compared against a bound."""

    groups: tuple[LinearForm, ...]
    constant_offset: int = 0
    comparator: str = ">="
    bound: int = 0

    def __post_init__(self):
        if not self.groups:
            raise ValueError("expression needs at least one squared group")
        if self.comparator not in (">=", "<="):
            raise ValueError(f"comparator must be >= or <=, got {self.comparator!r}")

    def variables(self):
        out = set()
        for g in self.groups:
            out |= g.variables()
        return frozenset(out)


@dataclass(frozen=True)
class ScenarioSpec:
    """Measurement scenario: who measures what, together or in sequence."""

    variables: tuple[VariableId, ...]
    party_map: dict[VariableId, str] = field(default_factory=dict)
    contexts: tuple[frozenset[VariableId], ...] = ()
    sequential_pairs: tuple[tuple[VariableId, VariableId], ...] = ()

    def __post_init__(self):
        declared = set(self.variables)
        if len(declared) != len(self.variables):
            raise InconsistentContext("a variable is declared twice")
        for var in self.variables:
            if var not in self.party_map:
                raise UndeclaredVariable(f"no party assigned to {var}")
        for ctx in self.contexts:
            for var in ctx:
                if var not in declared:
                    raise UndeclaredVariable(f"context uses undeclared {var}")
        for a, b in self.sequential_pairs:
            if a not in declared or b not in declared:
                raise UndeclaredVariable(f"sequential pair uses undeclared {a} or {b}")
            if self.party_map[a] != self.party_map[b]:
                raise InconsistentContext(
                    f"sequential pair {a},{b} crosses parties "
                    f"{self.party_map[a]},{self.party_map[b]}"
                )
        seq = {frozenset(p) for p in self.sequential_pairs}
        for ctx in self.contexts:
            for pair in seq:
                if pair <= ctx:
                    a, b = sorted(pair, key=VariableId.sort_key)
                    raise InconsistentContext(
                        f"context {{{', '.join(map(str, sorted(ctx, key=VariableId.sort_key)))}}} "
                        f"contains sequential pair {a},{b}"
                    )

    def party(self, var):
        return self.party_map[var]

    def same_party(self, a, b):
        return self.party_map[a] == self.party_map[b]

    def in_common_context(self, a, b):
        return any(a in ctx and b in ctx for ctx in self.contexts)

    def is_sequential(self, a, b):
        return (a, b) in self.sequential_pairs or (b, a) in self.sequential_pairs


class _Scanner:
    """Character cursor with 1-based line/column bookkeeping."""

    def __init__(self, text):
        self.text = text
        self.pos = 0

    def location(self, pos=None):
        pos = self.pos if pos is None else pos
        line = self.text.count("\n", 0, pos) + 1
        last_nl = self.text.rfind("\n", 0, pos)
        return line, pos - last_nl

    def fail(self, message, pos=None):
        line, col = self.location(pos)
        raise DslSyntaxError(message, line, col)

    def skip_ws(self):
        while self.pos < len(self.text):
            ch = self.text[self.pos]
            if ch in " \t\r\n":
                self.pos += 1
            elif ch == "#":
                nl = self.text.find("\n", self.pos)
                self.pos = len(self.text) if nl < 0 else nl
            else:
                break

    def at_end(self):
        self.skip_ws()
        return self.pos >= len(self.text)

    def take(self, literal):
        self.skip_ws()
        if self.text.startswith(literal, self.pos):
            self.pos += len(literal)
            return True
        return False

    def expect(self, literal, what):
        if not self.take(literal):
            self.fail(f"expected {what}")

    def take_regex(self, pattern):
        self.skip_ws()
        m = pattern.match(self.text, self.pos)
        if m is None:
            return None
        self.pos = m.end()
        return m.group()


def parse_variable(token: str) -> VariableId:
    """A variable name: one capital, then an index without leading zeros, or none."""
    if _VAR_RE.fullmatch(token) is None:
        raise ValueError(f"bad variable name {token!r}")
    return VariableId(token[0], int(token[1:])) if len(token) > 1 else VariableId(token)


def _parse_variable(sc):
    tok = sc.take_regex(_VAR_RE)
    if tok is None:
        sc.fail("expected a variable like X1 or J")
    return parse_variable(tok)


def _parse_form(sc):
    """Parse the inside of a parenthesized group up to the closing paren."""
    terms = []
    first = True
    while True:
        if sc.take("-"):
            sign = -1
        elif sc.take("+"):
            if first:
                sc.fail("a group may not start with +")
            sign = 1
        elif first:
            sign = 1
        else:
            break
        start = sc.pos
        digits = sc.take_regex(_INT_RE)
        if digits is not None:
            coeff = sign * int(digits)
            sc.take("*")
            if coeff == 0:
                var = _parse_variable(sc)
                line, col = sc.location(start)
                raise ZeroCoefficient(f"zero coefficient on {var} (line {line}, column {col})")
        else:
            coeff = sign
        terms.append((coeff, _parse_variable(sc)))
        first = False
    try:
        return LinearForm(tuple(terms))
    except (ZeroCoefficient, DuplicateVariableInGroup):
        raise
    except ValueError as exc:
        sc.fail(str(exc))


def parse_sos(text: str) -> SosExpression:
    """Parse expression text into an SosExpression.

    Raises DslSyntaxError with line/column on malformed input,
    DuplicateVariableInGroup when a variable repeats inside one group,
    and ZeroCoefficient for an explicit 0 coefficient.
    """
    sc = _Scanner(text)
    groups = []
    offset = 0
    first = True
    while True:
        if first:
            sign = 1
        elif sc.take("+"):
            sign = 1
        elif sc.take("-"):
            sign = -1
        else:
            break
        if sc.take("("):
            if sign < 0:
                sc.fail("a squared group cannot be subtracted")
            groups.append(_parse_form(sc))
            sc.expect(")", "closing parenthesis")
            sc.expect("^2", "^2 after group")
        else:
            digits = sc.take_regex(_INT_RE)
            if digits is None:
                if first:
                    sc.fail("expected a squared group like (X1 - Y1)^2")
                sc.fail("expected a group or integer offset")
            offset += sign * int(digits)
        first = False
    if sc.take(">="):
        comparator = ">="
    elif sc.take("<="):
        comparator = "<="
    else:
        sc.fail("expected >= or <=")
    sign = -1 if sc.take("-") else 1
    digits = sc.take_regex(_INT_RE)
    if digits is None:
        sc.fail("expected an integer bound")
    bound = sign * int(digits)
    if not sc.at_end():
        sc.fail("unexpected trailing text")
    if not groups:
        sc.fail("expression needs at least one squared group", 0)
    return SosExpression(tuple(groups), offset, comparator, bound)


def _signed_sum(terms) -> str:
    """'a - 2*b + c' from (coefficient, name) pairs: the first sign bare, a unit magnitude unwritten."""
    bits = []
    for i, (coeff, name) in enumerate(terms):
        mag = f"{abs(coeff)}*{name}" if abs(coeff) != 1 else str(name)
        if i == 0:
            bits.append(f"-{mag}" if coeff < 0 else mag)
        else:
            bits.append(f"{'-' if coeff < 0 else '+'} {mag}")
    return " ".join(bits)


def format_sos(expr: SosExpression) -> str:
    """Canonical text for an expression; round-trips through parse_sos."""
    body = " + ".join(f"({_signed_sum(group.sorted_terms())})^2" for group in expr.groups)
    if expr.constant_offset > 0:
        body += f" + {expr.constant_offset}"
    elif expr.constant_offset < 0:
        body += f" - {-expr.constant_offset}"
    return f"{body} {expr.comparator} {expr.bound}"


_SCN_KEY_RE = re.compile(r"(variables|party\s+([A-Z])|context|sequential)\s*:\s*")


def parse_scenario(text: str) -> ScenarioSpec:
    """Parse scenario text into a validated ScenarioSpec.

    Lines are `variables:`, `party L:`, `context:` or `sequential:`
    followed by variable names; `#` starts a comment.  The party of a
    variable defaults to its letter unless a party line overrides it.
    """
    variables: list[VariableId] = []
    party_over: dict[VariableId, str] = {}
    contexts: list[frozenset[VariableId]] = []
    sequential: list[tuple[VariableId, VariableId]] = []

    def ids_of(rest, lineno, key):
        try:
            return [parse_variable(tok) for tok in rest.split()]
        except ValueError as exc:
            raise DslSyntaxError(f"{exc} in {key} line", lineno, 1) from None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _SCN_KEY_RE.match(line)
        if m is None:
            raise DslSyntaxError("expected variables:, party L:, context: or sequential:", lineno, 1)
        key, rest = m.group(1), line[m.end():]
        if key == "variables":
            variables.extend(ids_of(rest, lineno, "variables"))
        elif key.startswith("party"):
            for var in ids_of(rest, lineno, "party"):
                party_over[var] = m.group(2)
        elif key == "context":
            ids = ids_of(rest, lineno, "context")
            if len(ids) < 2:
                raise DslSyntaxError("a context needs at least two variables", lineno, 1)
            if len(set(ids)) != len(ids):
                raise InconsistentContext(f"context on line {lineno} repeats a variable")
            contexts.append(frozenset(ids))
        else:
            ids = ids_of(rest, lineno, "sequential")
            if len(ids) != 2 or ids[0] == ids[1]:
                raise DslSyntaxError("sequential: takes exactly two distinct variables", lineno, 1)
            sequential.append((ids[0], ids[1]))

    party_map = {v: v.letter for v in variables}
    for var, label in party_over.items():
        if var not in party_map:
            raise UndeclaredVariable(f"party line uses undeclared {var}")
        party_map[var] = label
    return ScenarioSpec(tuple(variables), party_map, tuple(contexts), tuple(sequential))
