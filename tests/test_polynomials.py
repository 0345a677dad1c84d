"""Derivation of correlation inequalities from sums of squared forms."""

import warnings
from fractions import Fraction
from itertools import product
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from corrineq import catalog
from corrineq.dsl import LinearForm, SosExpression, VariableId, parse_sos
from corrineq.errors import EvenGroupWarning, ResidualDegreeError, UnmappedVariable
from corrineq.polynomials import (
    CONTEXTUAL,
    CROSS_PARTY,
    HYBRID,
    SAME_PARTY,
    SPATIAL,
    TEMPORAL,
    CorrelationInequality,
    Monomial,
    MultilinearPoly,
    _varset_key,
    classify,
    coefficient_map,
    derive_inequality,
    format_inequality,
    term_kinds,
    validate_odd_groups,
)


def x(i):
    return VariableId("X", i)


def y(i):
    return VariableId("Y", i)


def vs(*names):
    return frozenset(names)


class TestExpand:
    """Each square adds Σ b_i² to the constant and 2·b_i·b_j to each pair; both sides are halved."""

    def test_single_square(self):
        # 3 - 2*X1Y1 - 2*X1Y2 + 2*Y1Y2 >= 1, the parity bound of one odd group
        ineq = derive_inequality(parse_sos("(X1 - Y1 - Y2)^2 >= 0"))
        assert {m.variables: m.coefficient for m in ineq.terms} == {
            vs(x(1), y(1)): 1,
            vs(x(1), y(2)): 1,
            vs(y(1), y(2)): -1,
        }
        assert (ineq.direction, ineq.bound) == ("<=", Fraction(1))

    def test_cross_terms_cancel(self):
        # the Y1Y2 terms of the two squares cancel; the constant 6 sets the bound (6 - 2)/2
        ineq = derive_inequality(parse_sos("(X1 - Y1 - Y2)^2 + (X2 - Y1 + Y2)^2 >= 2"))
        assert coefficient_map(ineq).get(vs(y(1), y(2)), 0) == 0
        assert coefficient_map(ineq).get(vs(x(1), y(1)), 0) == 1
        assert coefficient_map(ineq).get(vs(x(2), y(2)), 0) == -1
        assert ineq.bound == Fraction(2)

    def test_offset_lands_in_constant(self):
        # constant 2 + 5 = 7: -2*JK + 7 <= 9 halves to JK >= -1
        with pytest.warns(EvenGroupWarning):
            ineq = derive_inequality(parse_sos("(J - K)^2 + 5 <= 9"))
        assert format_inequality(ineq) == "JK >= -1"

    def test_fractional_bound_survives(self):
        # 2 - 2*X1Y1 >= 1 halves to a bound of 1/2
        with pytest.warns(EvenGroupWarning):
            ineq = derive_inequality(parse_sos("(X1 - Y1)^2 >= 1"))
        assert format_inequality(ineq) == "X1Y1 <= 1/2"
        assert ineq.bound == Fraction(1, 2)

    def test_square_of_variable_is_one(self):
        with pytest.raises(ResidualDegreeError, match="no degree-2 terms survive the expansion"):
            derive_inequality(parse_sos("(3*X1)^2 >= 0"))


POOL = (x(1), x(2), y(1), y(2), x(3), y(3), VariableId("J"), VariableId("K"))


@st.composite
def sources(draw):
    """1-4 squared groups of 1-5 terms over at most 8 variables, coefficients ±1..3."""
    n = draw(st.integers(1, len(POOL)))
    groups = []
    for _ in range(draw(st.integers(1, 4))):
        picks = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=5, unique=True))
        coeffs = draw(st.lists(st.sampled_from((-3, -2, -1, 1, 2, 3)), min_size=len(picks), max_size=len(picks)))
        groups.append(LinearForm(tuple(zip(coeffs, (POOL[i] for i in picks)))))
    return SosExpression(
        tuple(groups), draw(st.integers(-5, 5)), draw(st.sampled_from((">=", "<="))), draw(st.integers(-10, 20))
    )


class TestDerivationByEnumeration:
    @given(sources())
    @settings(max_examples=300, deadline=None)
    def test_identity_on_every_assignment(self, expr):
        """The derived inequality is the source rearranged: checked on every ±1 point, without expanding."""
        even = any(g.coefficient_sum() % 2 == 0 for g in expr.groups)
        odd = sum(g.coefficient_sum() % 2 for g in expr.groups)
        effective = max(expr.bound, odd + expr.constant_offset) if expr.comparator == ">=" else expr.bound
        variables = sorted(expr.variables(), key=VariableId.sort_key)
        values = []
        for signs in product((1, -1), repeat=len(variables)):
            point = dict(zip(variables, signs))
            squares = sum(sum(c * point[v] for c, v in g.terms) ** 2 for g in expr.groups)
            values.append((point, squares + expr.constant_offset))

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            if len({value for _, value in values}) == 1:  # a constant sum: no pair survives
                with pytest.raises(ResidualDegreeError, match="^no degree-2 terms survive the expansion$"):
                    derive_inequality(expr)
                ineq = None
            else:
                ineq = derive_inequality(expr)
        assert [w.category for w in caught] == ([EvenGroupWarning] if even else [])
        if ineq is None:
            return

        keys = [_varset_key(m.variables) for m in ineq.terms]
        assert keys == sorted(keys)
        assert ineq.terms[0].coefficient > 0
        assert all(m.coefficient for m in ineq.terms)
        s = 1 if ineq.direction == expr.comparator else -1
        for point, value in values:
            correlators = sum(m.coefficient * prod(point[v] for v in m.variables) for m in ineq.terms)
            assert value - effective == 2 * s * (correlators - ineq.bound)


class TestDeriveCatalog:
    def test_chsh(self):
        ineq = derive_inequality(catalog.load_expression("chsh.rsx"))
        assert format_inequality(ineq) == "X1Y1 + X1Y2 + X2Y1 - X2Y2 <= 2"
        assert ineq.bound == Fraction(2)

    def test_kcbs(self):
        ineq = derive_inequality(catalog.load_expression("kcbs.rsx"))
        assert (
            format_inequality(ineq)
            == "X1X2 + X1X5 + X2X3 + X3X4 + X4X5 >= -3"
        )

    def test_seven_cycle_offset_form(self):
        ineq = derive_inequality(catalog.load_expression("cycle7.rsx"))
        assert ineq.direction == ">="
        assert ineq.bound == Fraction(-5)
        assert len(ineq.terms) == 7

    def test_lg(self):
        ineq = derive_inequality(catalog.load_expression("lg.rsx"))
        j, k, l, m = (VariableId(c) for c in "JKLM")
        coeffs = {tuple(sorted(t.variables)): t.coefficient for t in ineq.terms}
        assert coeffs == {(j, k): 1, (k, l): 1, (l, m): 1, (j, m): -1}
        assert ineq.bound == Fraction(2)

    def test_hybrid(self):
        ineq = derive_inequality(catalog.load_expression("hybrid.rsx"))
        assert format_inequality(ineq) == "X1X2 + X1Y2 - X2Y1 + Y1Y2 <= 2"
        kinds = set(term_kinds(ineq.terms, catalog.load_scenario("hybrid.scn")).values())
        assert kinds == {CROSS_PARTY, SAME_PARTY}

    def test_monogamy(self):
        ineq = derive_inequality(catalog.load_expression("monogamy.rsx"))
        assert ineq.bound == Fraction(-5)
        assert len(ineq.terms) == 9

    @pytest.mark.parametrize("n", [5, 7, 9, 11, 13])
    def test_cycle_family(self, n):
        ineq = derive_inequality(catalog.cycle_source(n))
        assert ineq.bound == Fraction(-(n - 2))
        assert len(ineq.terms) == n

    @pytest.mark.parametrize("n", [5, 7, 9, 11])
    def test_alternating_chain_family(self, n):
        ineq = derive_inequality(catalog.alternating_cycle_source(n))
        assert ineq.direction == "<="
        assert ineq.bound == Fraction(n - 2)


class TestDeriveRules:
    def test_stated_bound_tightened_by_parity(self):
        # two odd groups imply >= 2 even though the source only claims >= 0
        loose = derive_inequality(parse_sos("(X1 - Y1 - Y2)^2 + (X2 - Y1 + Y2)^2 >= 0"))
        strict = derive_inequality(catalog.load_expression("chsh.rsx"))
        assert loose.terms == strict.terms
        assert loose.bound == strict.bound == Fraction(2)

    def test_upper_bound_sources_keep_stated_bound(self):
        expr = parse_sos("(X1 - Y1)^2 <= 4")
        with pytest.warns(EvenGroupWarning):
            ineq = derive_inequality(expr)
        assert ineq.direction == ">="
        assert ineq.bound == Fraction(-1)

    def test_even_group_warns(self):
        with pytest.warns(EvenGroupWarning):
            derive_inequality(parse_sos("(X1 - Y1)^2 + (X2 - Y1 - Y2)^2 >= 1"))

    def test_odd_groups_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            derive_inequality(catalog.load_expression("chsh.rsx"))

    def test_lex_first_coefficient_positive(self):
        for source in (
            catalog.load_expression("chsh.rsx"),
            catalog.load_expression("kcbs.rsx"),
            catalog.load_expression("lg.rsx"),
            catalog.load_expression("hybrid.rsx"),
            catalog.load_expression("monogamy.rsx"),
        ):
            ineq = derive_inequality(source)
            first = min(
                ineq.terms,
                key=lambda t: sorted(t.variables, key=VariableId.sort_key)[0].sort_key(),
            )
            assert coefficient_map(ineq).get(first.variables, 0) > 0


class TestValidateOddGroups:
    def test_verdicts(self):
        verdicts = validate_odd_groups(catalog.load_expression("chsh.rsx"))
        assert [v.parity for v in verdicts] == ["odd", "odd"]
        assert [v.coefficient_sum for v in verdicts] == [-1, 1]
        assert all(v.implied_bound == 1 for v in verdicts)

    def test_even_group_contributes_nothing(self):
        verdicts = validate_odd_groups(parse_sos("(X1 - Y1)^2 >= 0"))
        assert verdicts[0].parity == "even"
        assert verdicts[0].implied_bound == 0

    def test_implied_lower_bound(self):
        """The parity minimum: one per odd group plus the stated offset."""
        def implied(expr):
            return sum(v.implied_bound for v in validate_odd_groups(expr)) + expr.constant_offset
        assert implied(catalog.load_expression("chsh.rsx")) == 2
        # five odd groups plus the stated +5 offset
        assert implied(catalog.load_expression("cycle7.rsx")) == 10
        assert implied(parse_sos("(X1 - Y1)^2 >= 0")) == 0


class TestClassify:
    def test_catalog_classifications(self):
        cases = [
            (catalog.load_expression("chsh.rsx"), catalog.load_scenario("chsh.scn"), SPATIAL),
            (catalog.load_expression("kcbs.rsx"), catalog.load_scenario("kcbs.scn"), CONTEXTUAL),
            (catalog.load_expression("lg.rsx"), catalog.load_scenario("lg.scn"), TEMPORAL),
            (catalog.load_expression("hybrid.rsx"), catalog.load_scenario("hybrid.scn"), HYBRID),
        ]
        for source, scenario, expected in cases:
            assert classify(derive_inequality(source), scenario) == expected

    def test_undeclared_variable(self):
        ineq = derive_inequality(catalog.load_expression("chsh.rsx"))
        with pytest.raises(UnmappedVariable):
            classify(ineq, catalog.load_scenario("lg.scn"))


class TestCoefficientMap:
    def test_reads_an_inequality_and_a_mapping_alike(self):
        ineq = derive_inequality(catalog.load_expression("chsh.rsx"))
        plain = {tuple(reversed(sorted(m.variables))): m.coefficient for m in ineq.terms}
        assert coefficient_map(ineq) == coefficient_map(plain) == {m.variables: m.coefficient for m in ineq.terms}

    def test_keys_become_sets_and_zeros_stay(self):
        got = coefficient_map({(x(1), y(1)): 0, (y(2),): 3, (): -1})
        assert got == {vs(x(1), y(1)): 0, vs(y(2)): 3, vs(): -1}
        assert all(type(k) is frozenset for k in got)

    def test_multilinear_poly_drops_zeros(self):
        poly = MultilinearPoly({(x(1), y(1)): 0, (y(2), x(2)): 2, (): 0.0})
        assert dict(poly.items()) == {vs(x(2), y(2)): 2}

    @pytest.mark.parametrize("form", [
        {(x(1), y(1)): 1, (y(1), x(1)): 1},
        {vs(x(1), y(1)): 1, (y(1), x(1)): 0},
        {(): 1, frozenset(): 2},
        CorrelationInequality((Monomial(vs(x(1), y(1)), 1), Monomial(vs(y(1), x(1)), -1)), "<=", Fraction(2)),
    ])
    def test_a_set_given_twice_raises(self, form):
        with pytest.raises(ValueError, match="given twice"):
            coefficient_map(form)
        if not isinstance(form, CorrelationInequality):
            with pytest.raises(ValueError, match="given twice"):
                MultilinearPoly(form)


    @pytest.mark.parametrize("key, name", [((x(1), x(1)), "X1X1"), ((y(2), x(1), y(2)), "X1Y2Y2")])
    def test_a_key_naming_a_variable_twice_raises(self, key, name):
        """The product of a variable with itself is 1, not the variable."""
        for read in (coefficient_map, MultilinearPoly):
            with pytest.raises(ValueError) as excinfo:
                read({key: 1})
            assert str(excinfo.value) == f"key {name} names a variable twice"

    def test_a_set_given_twice_is_named_in_variable_order(self):
        with pytest.raises(ValueError) as excinfo:
            coefficient_map({(x(9), x(10)): 1, (x(10), x(9)): 1})
        assert str(excinfo.value) == "X9X10 is given twice"


class TestFormatting:
    def test_coefficients_in_output(self):
        ineq = derive_inequality(parse_sos("(2*X1 - Y1)^2 >= 1"))
        assert format_inequality(ineq) == "2*X1Y1 <= 2"

    def test_terms_sorted_lexicographically(self):
        out = format_inequality(derive_inequality(catalog.load_expression("monogamy.rsx")))
        names = [p.strip("+- ") for p in out.split("  ")[:1]]
        assert out.startswith("X1X2")
