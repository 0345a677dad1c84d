"""Parsing, formatting, and validation of expression and scenario text."""

import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from corrineq.dsl import (
    LinearForm,
    ScenarioSpec,
    SosExpression,
    VariableId,
    format_sos,
    parse_scenario,
    parse_sos,
    parse_variable,
)
from corrineq.errors import (
    DslSyntaxError,
    DuplicateVariableInGroup,
    InconsistentContext,
    UndeclaredVariable,
    ZeroCoefficient,
)


def x(i):
    return VariableId("X", i)


def y(i):
    return VariableId("Y", i)


class TestVariableId:
    def test_str_forms(self):
        assert str(VariableId("X", 1)) == "X1"
        assert str(VariableId("J")) == "J"
        assert str(VariableId("X", 0)) == "X0"

    def test_ordering(self):
        assert VariableId("J") < VariableId("J", 0)
        assert VariableId("J", 2) < VariableId("K")
        assert x(1) < x(2) < y(1) < y(2)

    def test_rejects_bad_letter(self):
        with pytest.raises(ValueError):
            VariableId("x", 1)
        with pytest.raises(ValueError):
            VariableId("XY", 1)

    def test_rejects_negative_index(self):
        with pytest.raises(ValueError):
            VariableId("X", -1)

    def test_unindexed_variables_iterate_alike_in_every_run(self):
        """The generated hash of an unindexed variable hashed None, whose hash
        was its address before Python 3.12: under one PYTHONHASHSEED a set of
        J, K, L, M iterated in a different order from one run to the next."""
        script = 'from corrineq.dsl import VariableId; print(list(frozenset(VariableId(c) for c in "JKLM")))'
        runs = [
            subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True,
                           env={**os.environ, "PYTHONHASHSEED": "1"}).stdout
            for _ in range(2)
        ]
        assert runs[0] == runs[1]


class TestParseVariable:
    @pytest.mark.parametrize(
        "token, var",
        [("X1", x(1)), ("Y10", y(10)), ("X0", x(0)), ("J", VariableId("J"))],
    )
    def test_accepts(self, token, var):
        assert parse_variable(token) == var

    @pytest.mark.parametrize("token", ["X01", "X00", "x1", "XY", "1", "", " X1", "X1 "])
    def test_rejects(self, token):
        with pytest.raises(ValueError, match="bad variable name"):
            parse_variable(token)

    def test_scenario_refuses_leading_zero(self):
        with pytest.raises(DslSyntaxError, match="bad variable name 'X01' in context line"):
            parse_scenario("variables: X1 Y1\ncontext: X01 Y1\n")


class TestLinearForm:
    def test_coefficient_sum(self):
        form = LinearForm(((1, x(1)), (-1, y(1)), (-1, y(2))))
        assert form.coefficient_sum() == -1
        assert form.variables() == frozenset({x(1), y(1), y(2)})

    def test_rejects_zero_coefficient(self):
        with pytest.raises(ZeroCoefficient):
            LinearForm(((0, x(1)),))

    def test_rejects_duplicate_variable(self):
        with pytest.raises(DuplicateVariableInGroup):
            LinearForm(((1, x(1)), (2, x(1))))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            LinearForm(())


class TestParseSos:
    def test_two_group_expression(self):
        expr = parse_sos("(X1 - Y1 - Y2)^2 + (X2 - Y1 + Y2)^2 >= 2")
        assert len(expr.groups) == 2
        assert expr.groups[0].terms == ((1, x(1)), (-1, y(1)), (-1, y(2)))
        assert expr.constant_offset == 0
        assert expr.comparator == ">="
        assert expr.bound == 2

    def test_coefficient_spellings_agree(self):
        forms = ["(2*X1 - Y1)^2 >= 1", "(2X1 - Y1)^2 >= 1", "(2 X1 - Y1)^2 >= 1"]
        parsed = [parse_sos(t) for t in forms]
        assert parsed[0] == parsed[1] == parsed[2]
        assert parsed[0].groups[0].terms[0] == (2, x(1))

    def test_constant_offset_and_negative_bound(self):
        expr = parse_sos("(X1 + X2 + X3)^2 + 5 >= -3")
        assert expr.constant_offset == 5
        assert expr.bound == -3
        assert parse_sos("(X1 + X2 + X3)^2 - 2 >= 0").constant_offset == -2

    def test_offsets_accumulate(self):
        assert parse_sos("3 + (J - K)^2 + 2 <= 9").constant_offset == 5

    def test_comments_and_whitespace(self):
        text = "# header\n ( X1 \t- Y1 )^2 # inline\n >= 1 # tail"
        expr = parse_sos(text)
        assert expr.groups[0].variables() == frozenset({x(1), y(1)})

    def test_indexless_variables(self):
        expr = parse_sos("(J - K + M)^2 <= 4")
        assert VariableId("J") in expr.variables()

    def test_subtracted_group_rejected(self):
        with pytest.raises(DslSyntaxError):
            parse_sos("(X1 - Y1)^2 - (X2 - Y2)^2 >= 0")

    def test_syntax_error_carries_location(self):
        with pytest.raises(DslSyntaxError) as err:
            parse_sos("(X1 - Y1)^2 +\n(X2 -- Y2)^2 >= 0")
        assert err.value.line == 2
        assert err.value.column > 1

    @pytest.mark.parametrize(
        "text",
        [
            "",
            ">= 2",
            "(X1 - Y1) >= 2",
            "(X1 - Y1)^3 >= 2",
            "(X1 - Y1)^2",
            "(X1 - Y1)^2 >= ",
            "(X1 - Y1)^2 == 2",
            "(X1 - Y1)^2 >= 2 junk",
            "( )^2 >= 1",
        ],
    )
    def test_malformed_inputs(self, text):
        with pytest.raises(DslSyntaxError):
            parse_sos(text)

    def test_explicit_zero_coefficient(self):
        with pytest.raises(ZeroCoefficient) as err:
            parse_sos("(X1 + 0*Y1)^2 >= 1")
        assert "line 1" in str(err.value)

    def test_duplicate_in_group(self):
        with pytest.raises(DuplicateVariableInGroup):
            parse_sos("(X1 + X1)^2 >= 1")


class TestFormatSos:
    def test_canonical_text(self):
        expr = parse_sos("(X2-Y1+Y2)^2+( X1 -Y1-Y2)^2>=2")
        assert (
            format_sos(expr)
            == "(X2 - Y1 + Y2)^2 + (X1 - Y1 - Y2)^2 >= 2"
        )

    def test_offset_rendering(self):
        assert format_sos(parse_sos("(J-K)^2 + 5 >= 0")).endswith("+ 5 >= 0")
        assert format_sos(parse_sos("(J-K)^2 - 5 >= -7")).endswith("- 5 >= -7")

    def test_wide_coefficients(self):
        text = "(3*X1 - 2*Y1)^2 <= 25"
        assert format_sos(parse_sos(text)) == text


def _semantics(expr):
    groups = tuple(frozenset(group.terms) for group in expr.groups)
    return groups, expr.constant_offset, expr.comparator, expr.bound


_variables = st.builds(
    VariableId,
    st.sampled_from("JKLMXYZ"),
    st.one_of(st.none(), st.integers(0, 12)),
)


@st.composite
def _expressions(draw):
    groups = []
    for _ in range(draw(st.integers(1, 4))):
        names = draw(
            st.lists(_variables, min_size=1, max_size=5, unique=True)
        )
        coeffs = draw(
            st.lists(
                st.integers(-9, 9).filter(bool),
                min_size=len(names),
                max_size=len(names),
            )
        )
        groups.append(LinearForm(tuple(zip(coeffs, names))))
    return SosExpression(
        tuple(groups),
        constant_offset=draw(st.integers(-20, 20)),
        comparator=draw(st.sampled_from([">=", "<="])),
        bound=draw(st.integers(-50, 50)),
    )


class TestRoundTrip:
    @given(_expressions())
    @settings(max_examples=200, deadline=None)
    def test_format_parse_round_trip(self, expr):
        text = format_sos(expr)
        again = parse_sos(text)
        assert _semantics(again) == _semantics(expr)
        assert format_sos(again) == text

    @given(st.text(alphabet="()^2+-*0123456789 XYJ\n#", max_size=50))
    @settings(max_examples=300, deadline=None)
    def test_parser_total_on_junk(self, text):
        try:
            parse_sos(text)
        except (DslSyntaxError, ZeroCoefficient, DuplicateVariableInGroup):
            pass


CHSH_SCN = """
variables: X1 X2 Y1 Y2
context: X1 Y1
context: X1 Y2
context: X2 Y1
context: X2 Y2
"""

LG_SCN = """
variables: J K L M
party Q: J K L M
sequential: J K
sequential: K L
"""


class TestParseScenario:
    def test_parties_default_to_letters(self):
        scn = parse_scenario(CHSH_SCN)
        assert scn.party(x(1)) == "X"
        assert scn.party(y(2)) == "Y"
        assert not scn.same_party(x(1), y(1))
        assert scn.in_common_context(x(1), y(1))
        assert not scn.in_common_context(x(1), x(2))

    def test_party_override(self):
        scn = parse_scenario(LG_SCN)
        j, k, m = VariableId("J"), VariableId("K"), VariableId("M")
        assert scn.party(j) == "Q"
        assert scn.same_party(j, m)
        assert scn.is_sequential(j, k)
        assert scn.is_sequential(k, j)
        assert not scn.is_sequential(j, m)

    def test_undeclared_variable_in_context(self):
        with pytest.raises(UndeclaredVariable):
            parse_scenario("variables: X1 X2\ncontext: X1 Y1\n")

    def test_context_needs_two_distinct(self):
        with pytest.raises(DslSyntaxError):
            parse_scenario("variables: X1 X2\ncontext: X1\n")

    def test_sequential_needs_exactly_two(self):
        with pytest.raises(DslSyntaxError):
            parse_scenario("variables: X1 X2 X3\nparty A: X1 X2 X3\nsequential: X1 X2 X3\n")

    def test_sequential_cannot_cross_parties(self):
        with pytest.raises(InconsistentContext):
            parse_scenario("variables: X1 Y1\nsequential: X1 Y1\n")

    def test_context_cannot_contain_sequential_pair(self):
        with pytest.raises(InconsistentContext):
            parse_scenario(
                "variables: X1 X2\nparty A: X1 X2\ncontext: X1 X2\nsequential: X1 X2\n"
            )

    def test_comments_allowed(self):
        scn = parse_scenario("# pentagon\nvariables: X1 X2 # five\ncontext: X1 X2\n")
        assert len(scn.contexts) == 1


class TestScenarioSpec:
    def test_requires_party_for_each_variable(self):
        with pytest.raises(UndeclaredVariable):
            ScenarioSpec((x(1),), {})

    def test_refuses_a_variable_listed_twice(self):
        """Listed twice, X1 would count twice toward jd_feasibility's variable cap."""
        with pytest.raises(InconsistentContext, match="a variable is declared twice"):
            ScenarioSpec((x(1), x(2), x(1)), {x(1): "X", x(2): "X"})
        with pytest.raises(InconsistentContext, match="a variable is declared twice"):
            parse_scenario("variables: X1 X2\nvariables: X1\n")

    def test_direct_construction(self):
        scn = ScenarioSpec(
            (x(1), x(2)),
            {x(1): "A", x(2): "A"},
            contexts=(frozenset({x(1), x(2)}),),
        )
        assert scn.in_common_context(x(1), x(2))
