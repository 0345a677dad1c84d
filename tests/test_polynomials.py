"""Expansion of squared forms and derivation of correlation inequalities."""

import warnings
from fractions import Fraction

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
    MultilinearPoly,
    classify,
    derive_inequality,
    expand,
    format_inequality,
    implied_lower_bound,
    inequality_from_poly,
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
    def test_single_square(self):
        poly = expand(parse_sos("(X1 - Y1 - Y2)^2 >= 0"))
        assert dict(poly.items()) == {
            frozenset(): 3,
            vs(x(1), y(1)): -2,
            vs(x(1), y(2)): -2,
            vs(y(1), y(2)): 2,
        }

    def test_cross_terms_cancel(self):
        poly = expand(parse_sos("(X1 - Y1 - Y2)^2 + (X2 - Y1 + Y2)^2 >= 2"))
        assert poly.constant_term() == 6
        assert poly.coefficient(vs(y(1), y(2))) == 0
        assert poly.coefficient(vs(x(1), y(1))) == -2
        assert poly.coefficient(vs(x(2), y(2))) == 2

    def test_offset_lands_in_constant(self):
        poly = expand(parse_sos("(J - K)^2 + 5 >= 0"))
        assert poly.constant_term() == 7

    def test_square_of_variable_is_one(self):
        poly = expand(parse_sos("(3*X1)^2 >= 0"))
        assert dict(poly.items()) == {frozenset(): 9}


class TestMultilinearPoly:
    def test_multiplication_uses_symmetric_difference(self):
        a = MultilinearPoly({vs(x(1)): 1, vs(y(1)): 2})
        square = a * a
        assert dict(square.items()) == {frozenset(): 5, vs(x(1), y(1)): 4}

    def test_zero_coefficients_pruned(self):
        p = MultilinearPoly({vs(x(1)): 1}) * MultilinearPoly({vs(x(1)): 1})
        assert dict(p.items()) == {frozenset(): 1}
        q = p + MultilinearPoly({frozenset(): -1})
        assert dict(q.items()) == {}

    @given(st.integers(0, 2**12 - 1), st.integers(0, 2**12 - 1))
    @settings(max_examples=60, deadline=None)
    def test_product_evaluates_pointwise(self, bits_a, bits_b):
        names = [x(i) for i in range(4)] + [y(i) for i in range(4)]
        a = MultilinearPoly(
            {vs(*names[i : i + 2]): ((bits_a >> i) & 3) - 1 for i in range(0, 8, 2)}
        )
        b = MultilinearPoly(
            {vs(names[i], names[7 - i]): ((bits_b >> i) & 3) - 1 for i in range(3)}
        )
        assign = {v: 1 if (bits_a >> j) & 1 else -1 for j, v in enumerate(names)}
        left = (a * b).evaluate(assign)
        assert left == a.evaluate(assign) * b.evaluate(assign)


class TestDeriveCatalog:
    def test_chsh(self):
        ineq = derive_inequality(catalog.chsh_source())
        assert format_inequality(ineq) == "X1Y1 + X1Y2 + X2Y1 - X2Y2 <= 2"
        assert ineq.bound == Fraction(2)

    def test_kcbs(self):
        ineq = derive_inequality(catalog.kcbs_source())
        assert (
            format_inequality(ineq)
            == "X1X2 + X1X5 + X2X3 + X3X4 + X4X5 >= -3"
        )

    def test_seven_cycle_offset_form(self):
        ineq = derive_inequality(catalog.cycle7_source())
        assert ineq.direction == ">="
        assert ineq.bound == Fraction(-5)
        assert len(ineq.terms) == 7

    def test_lg(self):
        ineq = derive_inequality(catalog.lg_source())
        j, k, l, m = (VariableId(c) for c in "JKLM")
        coeffs = {tuple(sorted(t.variables)): t.coefficient for t in ineq.terms}
        assert coeffs == {(j, k): 1, (k, l): 1, (l, m): 1, (j, m): -1}
        assert ineq.bound == Fraction(2)

    def test_hybrid(self):
        ineq = derive_inequality(catalog.hybrid_source())
        assert format_inequality(ineq) == "X1X2 + X1Y2 - X2Y1 + Y1Y2 <= 2"
        kinds = set(term_kinds(ineq.terms, catalog.hybrid_scenario()).values())
        assert kinds == {CROSS_PARTY, SAME_PARTY}

    def test_monogamy(self):
        ineq = derive_inequality(catalog.monogamy_source())
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
        strict = derive_inequality(catalog.chsh_source())
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
            derive_inequality(catalog.chsh_source())

    def test_lex_first_coefficient_positive(self):
        for source in (
            catalog.chsh_source(),
            catalog.kcbs_source(),
            catalog.lg_source(),
            catalog.hybrid_source(),
            catalog.monogamy_source(),
        ):
            ineq = derive_inequality(source)
            first = min(
                ineq.terms,
                key=lambda t: sorted(t.variables, key=VariableId.sort_key)[0].sort_key(),
            )
            assert ineq.coefficient(first.variables) > 0


class TestValidateOddGroups:
    def test_verdicts(self):
        verdicts = validate_odd_groups(catalog.chsh_source())
        assert [v.parity for v in verdicts] == ["odd", "odd"]
        assert [v.coefficient_sum for v in verdicts] == [-1, 1]
        assert all(v.implied_bound == 1 for v in verdicts)

    def test_even_group_contributes_nothing(self):
        verdicts = validate_odd_groups(parse_sos("(X1 - Y1)^2 >= 0"))
        assert verdicts[0].parity == "even"
        assert verdicts[0].implied_bound == 0

    def test_implied_lower_bound(self):
        assert implied_lower_bound(catalog.chsh_source()) == 2
        # five odd groups plus the stated +5 offset
        assert implied_lower_bound(catalog.cycle7_source()) == 10
        assert implied_lower_bound(parse_sos("(X1 - Y1)^2 >= 0")) == 0


class TestInequalityFromPoly:
    def test_degree_three_rejected(self):
        poly = MultilinearPoly({vs(x(1), x(2), x(3)): 2})
        with pytest.raises(ResidualDegreeError):
            inequality_from_poly(poly, ">=", 0)

    def test_lone_linear_term_rejected(self):
        poly = MultilinearPoly({vs(x(1)): 2})
        with pytest.raises(ResidualDegreeError):
            inequality_from_poly(poly, ">=", 0)

    def test_odd_pair_coefficient_rejected(self):
        poly = MultilinearPoly({vs(x(1), y(1)): 3})
        with pytest.raises(ResidualDegreeError):
            inequality_from_poly(poly, ">=", 0)

    def test_fractional_bound_survives(self):
        poly = MultilinearPoly({frozenset(): 3, vs(x(1), y(1)): -2})
        ineq = inequality_from_poly(poly, ">=", 0)
        assert ineq.bound == Fraction(3, 2)
        assert ineq.direction == "<="


class TestClassify:
    def test_catalog_classifications(self):
        cases = [
            (catalog.chsh_source(), catalog.chsh_scenario(), SPATIAL),
            (catalog.kcbs_source(), catalog.kcbs_scenario(), CONTEXTUAL),
            (catalog.lg_source(), catalog.lg_scenario(), TEMPORAL),
            (catalog.hybrid_source(), catalog.hybrid_scenario(), HYBRID),
        ]
        for source, scenario, expected in cases:
            assert classify(derive_inequality(source), scenario) == expected

    def test_undeclared_variable(self):
        ineq = derive_inequality(catalog.chsh_source())
        with pytest.raises(UnmappedVariable):
            classify(ineq, catalog.lg_scenario())


class TestFormatting:
    def test_coefficients_in_output(self):
        poly = MultilinearPoly({frozenset(): 4, vs(x(1), y(1)): -4})
        ineq = inequality_from_poly(poly, ">=", 0)
        assert format_inequality(ineq) == "2*X1Y1 <= 2"

    def test_terms_sorted_lexicographically(self):
        out = format_inequality(derive_inequality(catalog.monogamy_source()))
        names = [p.strip("+- ") for p in out.split("  ")[:1]]
        assert out.startswith("X1X2")
