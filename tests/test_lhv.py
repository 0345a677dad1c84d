"""Classical bounds, joint-distribution feasibility, and no-disturbance LPs."""

import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import corrineq
from corrineq import catalog, lhv
from corrineq.dsl import ScenarioSpec, VariableId, parse_sos
from corrineq.errors import (
    CoefficientsTooLarge,
    DivisionByZeroCell,
    ProvisoViolated,
    TermOutsideContext,
    TooManyVariables,
    UndeclaredVariable,
)
from corrineq.lhv import (
    DeterministicAssignment,
    DhvModel,
    _assignment_rows,
    _masks,
    _monomial_signs,
    _SplitPlan,
    classical_extrema,
    jd_feasibility,
    monogamy_check,
    nodisturbance_optimum,
    random_dhv_model,
    reconstruct_pc,
)
from corrineq.polynomials import MultilinearPoly, coefficient_map, derive_inequality
from corrineq.simplex import FEASIBILITY_TOL, OPTIMAL, LpProblem, simplex_solve


def x(i):
    return VariableId("X", i)


def y(i):
    return VariableId("Y", i)


def mixed_names(n):
    """n variables (n <= 18) listed in neither their sort order nor their
    string order: X10 J10 Y10 X9 J9 Y9 X J Y X1 ..., where J9 sorts before
    J10 and a bare J before J1."""
    return [VariableId("XJY"[i % 3], (10, 9, None, 1, 2, 11)[i // 3]) for i in range(n)]


INV_SQRT2 = 1.0 / np.sqrt(2.0)


def singlet_chsh_correlators():
    return {
        frozenset({x(1), y(1)}): INV_SQRT2,
        frozenset({x(1), y(2)}): INV_SQRT2,
        frozenset({x(2), y(1)}): INV_SQRT2,
        frozenset({x(2), y(2)}): -INV_SQRT2,
    }


@st.composite
def multilinear_polys(draw):
    """Integer polys of any degree, constant included, over up to 10 variables."""
    n = draw(st.integers(1, 10))
    names = mixed_names(n)
    cols = st.lists(st.integers(0, n - 1), unique=True, max_size=n)
    terms = draw(st.lists(st.tuples(cols, st.integers(-3, 3)), max_size=8))
    return MultilinearPoly({frozenset(names[c] for c in cs): coeff for cs, coeff in terms})


def poly_variables(poly):
    """The variables of a coefficient map's keys, in sort order."""
    return sorted(frozenset().union(*poly), key=VariableId.sort_key)


def poly_value(poly, assignment):
    """A coefficient map's value at an assignment, term by term."""
    return sum(c * math.prod(assignment[v] for v in varset) for varset, c in poly.items())


def reference_extrema(poly):
    """First minimum and first maximum over the lexicographic ±1 walk."""
    variables = poly_variables(poly)
    walk = [
        (poly_value(poly, dict(zip(variables, signs))), dict(zip(variables, signs)))
        for signs in product((-1, 1), repeat=len(variables))
    ]
    # min and max return the first of equal keys, i.e. the earliest index
    return min(walk, key=lambda vw: vw[0]), max(walk, key=lambda vw: vw[0]), len(walk)


class TestClassicalExtrema:
    @settings(max_examples=150, deadline=None)
    @given(
        poly=multilinear_polys(),
        workers=st.sampled_from([None, 2, 3]),
        chunk_size=st.sampled_from([1, 2, 3, 7, 1 << 16]),
    )
    # one variable; and X1X2 + Y1Y2, whose extrema are each attained four times
    @example(poly=MultilinearPoly({frozenset({x(1)}): 2, frozenset(): -1}), workers=2, chunk_size=1)
    @example(
        poly=MultilinearPoly({frozenset({x(1), x(2)}): 1, frozenset({y(1), y(2)}): 1}),
        workers=3, chunk_size=1,
    )
    def test_matches_exhaustive_reference(self, poly, workers, chunk_size):
        (lo, lo_at), (hi, hi_at), count = reference_extrema(poly)
        res = classical_extrema(poly, workers=workers, chunk_size=chunk_size)
        assert (res.minimum, res.maximum, res.assignments_checked) == (lo, hi, count)
        assert res.witness_min.values == lo_at
        assert res.witness_max.values == hi_at

    def test_coefficient_sum_limit(self):
        edge = 1 << 52
        below = MultilinearPoly({frozenset({x(1), y(1)}): edge, frozenset({x(2), y(1)}): 1 - edge})
        res = classical_extrema(below)
        assert (res.minimum, res.maximum) == (-(2 * edge - 1), 2 * edge - 1)
        at = MultilinearPoly({frozenset({x(1), y(1)}): edge, frozenset({x(2), y(1)}): -edge})
        with pytest.raises(CoefficientsTooLarge):
            classical_extrema(at)

    @pytest.mark.parametrize("route, poly", [
        ("elimination", MultilinearPoly({frozenset({x(1), x(2)}): 0.5, frozenset({x(2), x(3)}): 1})),
        ("elimination", MultilinearPoly({frozenset({x(1), x(2)}): Fraction(1, 2), frozenset(): 1})),
        ("scan", MultilinearPoly({frozenset(p): 0.5 if p == (x(1), x(2)) else 1
                                  for p in combinations([x(i) for i in range(1, 15)], 2)})),
        ("scan", MultilinearPoly({frozenset(p): 1 for p in combinations([x(i) for i in range(1, 15)], 2)}
                                 | {frozenset(): Fraction(7, 3)})),
    ])
    def test_fractional_coefficients_are_refused_before_any_table(self, route, poly, monkeypatch):
        """Both routes once truncated them with int(): the 0.5 forms reported
        -1/1 and -7/90 instead of -1.5/1.5 and -7.5/90.5."""
        integral = MultilinearPoly({k: 1 for k, _ in poly.items()})
        assert (lhv._eliminate(*poly_terms(integral)) is None) == (route == "scan")
        monkeypatch.setattr(lhv, "_eliminate", None)  # calling either route would raise TypeError
        monkeypatch.setattr(lhv, "_SplitPlan", None)
        with pytest.raises(ValueError, match="not an integer"):
            classical_extrema(poly)

    @pytest.mark.parametrize("n", [3, 14])  # elimination, then the scan
    def test_integer_valued_coefficients_are_kept(self, n):
        pairs = list(combinations([x(i) for i in range(1, n + 1)], 2))
        ints = MultilinearPoly({frozenset(p): k % 3 + 1 for k, p in enumerate(pairs)} | {frozenset(): 2})
        whole = MultilinearPoly({k: float(c) for k, c in ints.items()} | {frozenset(): Fraction(4, 2)})
        got, want = classical_extrema(whole), classical_extrema(ints)
        assert (type(got.minimum), type(got.maximum)) == (int, int)
        assert got == want

    def test_chsh(self):
        res = classical_extrema(derive_inequality(catalog.load_expression("chsh.rsx")))
        assert (res.minimum, res.maximum) == (-2, 2)
        assert res.assignments_checked == 16

    def test_kcbs(self):
        res = classical_extrema(derive_inequality(catalog.load_expression("kcbs.rsx")))
        assert (res.minimum, res.maximum) == (-3, 5)

    def test_single_monomial(self):
        poly = MultilinearPoly({frozenset({x(1), y(1)}): 1})
        res = classical_extrema(poly)
        assert (res.minimum, res.maximum) == (-1, 1)

    def test_witnesses_attain_extrema(self):
        ineq = derive_inequality(catalog.load_expression("hybrid.rsx"))
        res = classical_extrema(ineq)
        poly = coefficient_map(ineq)
        assert poly_value(poly, res.witness_min.values) == res.minimum
        assert poly_value(poly, res.witness_max.values) == res.maximum

    def test_threaded_matches_sequential(self):
        """A form too wide for elimination reaches the scan, whose tiles go to the pool."""
        poly = dense_poly(14, 5)
        seq = classical_extrema(poly)
        par = classical_extrema(poly, workers=4, chunk_size=16)
        assert (seq.minimum, seq.maximum) == (par.minimum, par.maximum)
        assert seq.witness_min == par.witness_min
        assert seq.witness_max == par.witness_max

    def test_thirty_variable_path_is_solved_exactly(self):
        variables = [x(i) for i in range(1, 31)]
        poly = MultilinearPoly({frozenset(pair): 1 for pair in zip(variables, variables[1:])})
        res = classical_extrema(poly)
        assert (res.minimum, res.maximum, res.assignments_checked) == (-29, 29, 1 << 30)
        assert res.witness_min.values == {v: (-1) ** (i + 1) for i, v in enumerate(variables)}
        assert res.witness_max.values == dict.fromkeys(variables, -1)

    def test_wide_form_past_the_scan_cap_raises_before_any_table(self, monkeypatch):
        poly = clique_on_a_path(lhv.ELIMINATION_WIDTH_CAP + 1)
        monkeypatch.setattr(lhv, "_SplitPlan", None)  # calling it would raise
        tracemalloc.start()
        try:
            with pytest.raises(TooManyVariables, match=r"cap of 24.*cap of 12"):
                classical_extrema(poly)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def clique_on_a_path(k):
    """25 variables on a path whose last k are also joined pairwise, so that
    the first bucket of the elimination holds k variables: a wide form whose
    tables stay small if the width check ever fails."""
    variables = [x(i) for i in range(1, 26)]
    pairs = set(zip(variables, variables[1:])) | set(combinations(variables[-k:], 2))
    return MultilinearPoly({frozenset(pair): 1 for pair in pairs})


def reference_rows(n, indices=None):
    """`lhv._assignment_rows` before it read the sign kernel: rows of the ±1
    enumeration, variable j being +1 where bit (n-1-j) of the index is set."""
    idx = np.asarray(np.arange(1 << n) if indices is None else indices, dtype=np.uint32)
    shifts = np.arange(n - 1, -1, -1, dtype=np.uint32)
    bits = (idx[:, None] >> shifts[None, :]) & 1
    return (2 * bits.astype(np.int64)) - 1


def _incidence(n, monomials):
    """0/1 matrix whose column k marks the variable columns of monomial k."""
    out = np.zeros((n, len(monomials)))
    for k, cols in enumerate(monomials):
        out[list(cols), k] = 1.0
    return out


_SIGNS = np.array([1.0, -1.0])


def _parities(assignments, incidence):
    """±1 value of each monomial (a column of `incidence`) on each assignment
    row.  The package's table route before `lhv._monomial_signs`, kept with
    `reference_rows` and `_incidence` as the kernel's bit-exact reference."""
    negatives = (assignments < 0).astype(float)
    odd = (negatives @ incidence).astype(np.int64) & 1
    return _SIGNS[odd]


def row_tile_scan(n, terms, chunk_size=1 << 16):
    """`lhv._split_scan` as it was before the scan was split into a plan and
    a per-coefficient scan, without its thread pool: it rebuilt every table
    on each call, and each tile of about `chunk_size` assignments multiplies
    the ±1 values of all its rows' high monomials by `right`.  Kept as the
    bit-exact reference for `_SplitPlan`'s scan, and for `classical_extrema`'s
    when given the whole form."""
    high = n // 2
    low = n - high
    groups = {(): 0}
    lows = {}
    split = []
    for cols, coeff in terms:
        g = groups.setdefault(tuple(c for c in cols if c < high), len(groups))
        split.append((g, lows.setdefault(tuple(c - high for c in cols if c >= high), len(lows)), coeff))
    weights = np.zeros((len(groups), len(lows)))
    for g, u, coeff in split:
        weights[g, u] += coeff
    right = weights @ _parities(reference_rows(low), _incidence(low, lows)).T
    incidence = _incidence(high, groups)
    rows = min(max(1, chunk_size >> low), 1 << high)
    row_min, row_max = np.empty(1 << high), np.empty(1 << high)
    arg_min = np.empty(1 << high, dtype=np.int64)
    arg_max = np.empty(1 << high, dtype=np.int64)
    for start in range(0, 1 << high, rows):
        stop = min(start + rows, 1 << high)
        values = _parities(reference_rows(high, np.arange(start, stop)), incidence) @ right
        at = np.arange(stop - start)
        lo = arg_min[start:stop] = values.argmin(axis=1)
        hi = arg_max[start:stop] = values.argmax(axis=1)
        row_min[start:stop], row_max[start:stop] = values[at, lo], values[at, hi]
    first = np.arange(1 << high, dtype=np.int64) << low
    return row_min, first + arg_min, row_max, first + arg_max


def reference_plan(n, monomials):
    """`_SplitPlan`'s tables as they were built before the plan read masks:
    one loop over the monomials numbers the groups (the empty one first) and
    the low-half monomials in order of first appearance.  Kept as the
    reference for the mask-built plan."""
    high = n // 2
    low = n - high
    groups = {(): 0}
    lows = {}
    cells = []
    for cols in monomials:
        g = groups.setdefault(tuple(c for c in cols if c < high), len(groups))
        cells.append((g, lows.setdefault(tuple(c - high for c in cols if c >= high), len(lows))))
    return {
        "shape": (len(groups), len(lows)),
        "cells": np.array([g * len(lows) + u for g, u in cells], dtype=np.intp),
        "low_signs": _monomial_signs(_masks(low, lows), np.arange(1 << low)),
        "signs": _monomial_signs(_masks(high, groups), np.arange(1 << high)),
    }


def planned_scan(n, terms, chunk_size=1 << 16, workers=None):
    """The package's scan of (columns, coefficient) terms: a plan, then one scan."""
    plan = _SplitPlan(n, _masks(n, [cols for cols, _ in terms]), chunk_size)
    return plan.scan([coeff for _, coeff in terms], workers)


@st.composite
def scan_forms(draw, coefficients=st.integers(-3, 3), max_n=18):
    """(n, terms) with n <= max_n and degree <= 6: random monomials, or runs
    of neighbouring columns (wrapping), as in cycles and chains."""
    n = draw(st.integers(1, max_n))
    scattered = st.lists(st.integers(0, n - 1), unique=True, max_size=min(n, 6))
    window = st.builds(
        lambda start, width: [(start + k) % n for k in range(width)],
        st.integers(0, n - 1), st.integers(1, min(n, 6)),
    )
    monomials = draw(st.lists(st.one_of(scattered, window), max_size=12))
    return n, [(tuple(sorted(cols)), draw(coefficients)) for cols in monomials]


def cycle_terms(n, coefficients):
    return [(tuple(sorted((i, (i + 1) % n))), c) for i, c in zip(range(n), coefficients)]


def poly_terms(poly):
    variables = poly_variables(poly)
    col = {v: i for i, v in enumerate(variables)}
    return len(variables), [(tuple(sorted(col[v] for v in varset)), c) for varset, c in poly.items()]


def dense_poly(n, seed):
    """The benchmark's dense form: every pair of n variables, coefficients ±1..3."""
    variables = [x(i) for i in range(1, n + 1)]
    coeffs = np.random.default_rng(seed).choice(np.array([-3, -2, -1, 1, 2, 3]), size=n * (n - 1) // 2)
    return MultilinearPoly({frozenset(p): int(c) for p, c in zip(combinations(variables, 2), coeffs)})


SCAN_FORMS = {
    **{f"cycle-{n}": (lambda n=n: coefficient_map(derive_inequality(catalog.cycle_source(n)))) for n in (19, 21, 23)},
    **{f"chain-{n}": (lambda n=n: coefficient_map(derive_inequality(catalog.alternating_cycle_source(n))))
       for n in (19, 21, 23)},
    "dense-18": lambda: dense_poly(18, 42),
    "dense-20": lambda: dense_poly(20, 42),
}


def assert_same_scan(got, want):
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        assert np.array_equal(g, w)


def form_values(n, terms, indices):
    """The form's value on each assignment index, term by term."""
    signs = _assignment_rows(n, indices)
    values = np.zeros(len(indices))
    for cols, coeff in terms:
        values += coeff * signs[:, list(cols)].prod(axis=1)
    return values


def assert_matches_row_tile_scan(res, poly):
    """`classical_extrema`'s result against the row-tile scan of the whole, unhalved form."""
    n, terms = poly_terms(poly)
    row_min, arg_min, row_max, arg_max = row_tile_scan(n, terms)
    lo, hi = row_min.argmin(), row_max.argmax()
    assert (res.minimum, res.maximum, res.assignments_checked) == (row_min[lo], row_max[hi], 1 << n)
    variables = poly_variables(poly)
    want = [list(zip(variables, row)) for row in reference_rows(n, [arg_min[lo], arg_max[hi]]).tolist()]
    assert [list(w.values.items()) for w in (res.witness_min, res.witness_max)] == want


class TestInputForms:
    """`classical_extrema` reads an inequality, a MultilinearPoly and a plain dict alike."""

    @settings(max_examples=60, deadline=None)
    @given(form=scan_forms())
    def test_a_plain_dict_gives_the_multilinear_poly_result(self, form):
        """Tuple keys in reverse order and a zero term on a variable of its own
        (not enumerated) give the same result as the MultilinearPoly."""
        n, terms = form
        names, summed = mixed_names(n), {}
        for cols, c in terms:
            summed[cols] = summed.get(cols, 0) + c
        poly = MultilinearPoly({frozenset(names[c] for c in cols): c for cols, c in summed.items()})
        plain = {tuple(names[c] for c in reversed(cols)): c for cols, c in summed.items()}
        plain[VariableId("Z", 1), names[0]] = 0
        assert classical_extrema(plain) == classical_extrema(poly)

    @pytest.mark.parametrize("family", [catalog.cycle_source, catalog.alternating_cycle_source])
    @pytest.mark.parametrize("n", [19, 21, 23])
    def test_inequality_poly_and_dict_agree(self, family, n):
        ineq = derive_inequality(family(n))
        plain = {tuple(sorted(m.variables, reverse=True)): m.coefficient for m in ineq.terms}
        plain[VariableId("Z", 1), x(1)] = 0
        want = classical_extrema(ineq)
        assert classical_extrema(MultilinearPoly(plain)) == want
        assert classical_extrema(plain) == want
        assert want.assignments_checked == 1 << n

    def test_a_set_given_twice_raises(self):
        with pytest.raises(ValueError, match="given twice"):
            classical_extrema({(x(1), y(1)): 1, (y(1), x(1)): 1})

    @pytest.mark.parametrize("route", [
        lambda: classical_extrema({(x(1), x(1)): 3}),
        lambda: nodisturbance_optimum(catalog.load_scenario("chsh.scn"), {(x(1), y(1)): 1, (x(1), x(1)): 1}),
        lambda: jd_feasibility(catalog.load_scenario("chsh.scn"), {(x(1), y(1)): 0.5, (x(1), x(1)): 0.5}),
    ], ids=["extrema", "nodisturbance", "feasibility"])
    def test_a_key_naming_a_variable_twice_raises(self, route):
        """X1·X1 = 1, so (X1, X1) keys the constant; read as the set {X1}, it
        made classical_extrema report -3 and 3 for the constant 3, and would
        make jd_feasibility read a correlator as a mean."""
        with pytest.raises(ValueError) as excinfo:
            route()
        assert str(excinfo.value) == "key X1X1 names a variable twice"

    def test_a_string_variable_raises(self):
        """It once failed with AttributeError: 'str' object has no attribute 'letter'."""
        with pytest.raises(ValueError) as excinfo:
            classical_extrema({(x(2), y(2)): 1, ("X1", "Y1"): 1})
        assert str(excinfo.value) == "key ('X1', 'Y1') names a variable that is not a VariableId"


@st.composite
def split_polys(draw):
    """Integer polys on X1..Xn, 6 <= n <= 20, with every kind of term the scan
    splits: a constant, and pairs on the high half only (X2X3), on the low
    half only (the last two) and across both, from a path through every
    variable or from all pairs; one degree-1 term makes the form odd, so that
    the half scan is taken or not."""
    n = draw(st.integers(6, 20))
    coefficient = st.integers(-3, 3).filter(bool)
    pairs = list(combinations(range(n), 2)) if draw(st.booleans()) else [(i, i + 1) for i in range(n - 1)]
    odd = [(draw(st.integers(0, n - 1)),)] if draw(st.booleans()) else []
    names = [x(i) for i in range(1, n + 1)]
    return MultilinearPoly({frozenset(names[c] for c in cols): draw(coefficient) for cols in [(), *pairs, *odd]})


def test_parities_match_the_float_expression():
    rng = np.random.default_rng(11)
    for n, k, rows in ((1, 1, 1), (5, 3, 32), (14, 9, 4096)):
        assignments = reference_rows(n, rng.choice(1 << n, rows, replace=False))
        incidence = (rng.random((n, k)) < 0.4).astype(float)
        odd = ((assignments < 0).astype(float) @ incidence).astype(np.int64) & 1
        assert_same_bits(_parities(assignments, incidence), 1.0 - 2.0 * odd)


class TestSignKernel:
    """`_monomial_signs` against the table route it replaced, bit for bit."""

    @staticmethod
    def check(n, monomials, indices=None):
        rows = reference_rows(n, indices)
        idx = np.arange(1 << n) if indices is None else indices
        assert_same_bits(_monomial_signs(_masks(n, monomials), idx), _parities(rows, _incidence(n, monomials)))
        assert_same_bits(_assignment_rows(n, indices), rows)

    @pytest.mark.parametrize("n", [0, 1])
    def test_smallest_enumerations(self, n):
        self.check(n, [()] + [(j,) for j in range(n)])

    def test_no_monomials(self):
        assert _monomial_signs(_masks(3, []), np.arange(8)).shape == (8, 0)
        self.check(3, [])

    def test_top_bit_at_the_variable_cap(self):
        n = lhv.EXTREMA_VARIABLE_CAP
        indices = [0, 1, (1 << (n - 1)) - 1, 1 << (n - 1), (1 << n) - 2, (1 << n) - 1]
        self.check(n, [(), (0,), (n - 1,), (0, n - 1), tuple(range(n)), tuple(range(0, n, 2))], indices)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 14), data=st.data())
    def test_monomials_on_index_subsets(self, n, data):
        monomials = data.draw(st.lists(
            st.lists(st.integers(0, n - 1), unique=True, max_size=n).map(lambda c: tuple(sorted(c))), max_size=9))
        indices = data.draw(st.none() | st.lists(st.integers(0, (1 << n) - 1), max_size=40))
        self.check(n, monomials, indices)

    def test_assignments_walk_the_rows(self):
        variables = mixed_names(3)  # X10 J10 Y10
        form = lhv._Columns(variables)
        assert form.variables == (VariableId("J", 10), x(10), y(10))
        assert [form.cols({v}) for v in variables] == [(1,), (0,), (2,)]
        assert form.cols(variables) == (0, 1, 2)
        want = [list(zip(form.variables, row)) for row in reference_rows(3).tolist()]
        for indices in (range(8), [5, 0]):
            got = form.assignments(_assignment_rows(3, indices).tolist())
            assert [list(asg.values.items()) for asg in got] == [want[i] for i in indices]


class TestSplitScan:
    @settings(max_examples=120, deadline=None)
    @given(form=scan_forms(max_n=20), chunk_size=st.sampled_from([1, 7, 1 << 16]),
           workers=st.sampled_from([None, 2]))
    # a 6-chain, one row per tile on two workers
    @example(form=(6, [((i, i + 1), 1) for i in range(5)]), chunk_size=1, workers=2)
    # no term meets the low half: every row of `right` is constant
    @example(form=(8, [((0, 1), 2), ((2,), -1), ((), 3)]), chunk_size=7, workers=None)
    def test_matches_row_tile_reference(self, form, chunk_size, workers):
        """The same bits whatever the tiles of the scan and of the reference."""
        n, terms = form
        got = planned_scan(n, terms, chunk_size, workers)
        for reference_chunk in (chunk_size, 1 << 16):
            assert_same_scan(got, row_tile_scan(n, terms, reference_chunk))

    @settings(max_examples=150, deadline=None)
    @given(form=scan_forms(max_n=20))
    @example(form=(1, []))  # no monomials: the empty group alone, no low-half monomial
    @example(form=(7, [((0, 1), 1), ((4, 5), 1), ((0, 1), 2), ((), 1), ((0, 1, 4, 5), 1), ((4, 5), 3)]))
    def test_mask_plan_matches_the_per_monomial_plan(self, form):
        """Equal `cells` give the same float order of `bincount`'s sums, so
        pricing scans on the mask-built plan keep the per-monomial plan's bits."""
        n, terms = form
        monomials = [cols for cols, _ in terms]
        plan = _SplitPlan(n, _masks(n, monomials))
        want = reference_plan(n, monomials)
        assert plan.shape == want["shape"]
        for name in ("cells", "low_signs", "signs"):
            assert_same_bits(getattr(plan, name), want[name])

    @settings(max_examples=60, deadline=None)
    @given(form=scan_forms(max_n=20), chunk_size=st.sampled_from([1, 7, 1 << 16]),
           seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=4))
    def test_one_plan_scans_like_fresh_scans(self, form, chunk_size, seeds):
        """`jd_feasibility`'s use: one plan scanned under several float
        coefficient vectors, some entries ±0.0 so that a group can turn
        constant in one round and vary in the next."""
        n, terms = form
        monomials = [cols for cols, _ in terms]
        plan = _SplitPlan(n, _masks(n, monomials), chunk_size)
        for seed in seeds:
            rng = np.random.default_rng(seed)
            coeffs = rng.normal(size=len(terms)) * (rng.random(len(terms)) < 0.7)
            want = row_tile_scan(n, list(zip(monomials, coeffs)), chunk_size)
            assert_same_scan(plan.scan(coeffs), want)
            assert_same_scan(plan.scan(coeffs, minima=False), want[2:])

    @pytest.mark.parametrize("label", sorted(SCAN_FORMS))
    def test_benchmark_forms_match_row_tile_reference(self, label):
        n, terms = poly_terms(SCAN_FORMS[label]())
        want = row_tile_scan(n, terms)
        for chunk_size, workers in product([1, 7, 1 << 16], [None, 2]):
            assert_same_scan(planned_scan(n, terms, chunk_size, workers), want)

    @settings(max_examples=60, deadline=None)
    @given(poly=split_polys(), chunk_size=st.sampled_from([1, 7, 1 << 16]), workers=st.sampled_from([None, 2]))
    def test_integer_shift_matches_row_tile_reference(self, poly, chunk_size, workers):
        """`classical_extrema`'s scan keeps the terms with no low-half variable
        out of the product and adds them per row, on one tile or several."""
        with mock.patch.object(lhv, "_eliminate", return_value=None):
            res = classical_extrema(poly, workers=workers, chunk_size=chunk_size)
        assert_matches_row_tile_scan(res, poly)

    @pytest.fixture
    def tiled_groups(self, monkeypatch):
        """The number of groups each scan's tile products run over."""
        counts, tile_extrema = [], lhv._tile_extrema

        def recording(left, right, *args):
            counts.append(right.shape[0])
            return tile_extrema(left, right, *args)

        monkeypatch.setattr(lhv, "_tile_extrema", recording)
        return counts

    def test_integer_dense_scan_multiplies_only_varying_groups(self, tiled_groups):
        classical_extrema(SCAN_FORMS["dense-20"]())
        # the half scan fixes X1, leaving 19 variables, 9 in the high half: (), and one group
        # per high variable, meet the low half; the 36 high pairs are added per row
        assert tiled_groups == [10]

    def test_float_dense_scan_keeps_every_group(self, tiled_groups):
        n, terms = poly_terms(SCAN_FORMS["dense-20"]())
        planned_scan(n, [(cols, float(c)) for cols, c in terms])
        assert tiled_groups == [56]

    @pytest.fixture
    def tiled_rows(self, monkeypatch):
        """The number of rows each scan's tiles run over."""
        counts, tile_extrema = [], lhv._tile_extrema

        def recording(left, *args):
            counts.append(len(left))
            return tile_extrema(left, *args)

        monkeypatch.setattr(lhv, "_tile_extrema", recording)
        return counts

    def test_wide_low_half_multiplies_only_mixed_groups(self, tiled_groups):
        """A path on X1..X7 and a 13-clique on X8..X20, too wide for
        elimination: halved to 19 variables, the low half is X11..X20, so
        only clique terms reach the product, in the groups (), X8, X9, X10."""
        names = [x(i) for i in range(1, 21)]
        pairs = list(zip(names[:6], names[1:7])) + list(combinations(names[7:], 2))
        poly = MultilinearPoly({frozenset(p): (-1) ** k * (k % 3 + 1) for k, p in enumerate(pairs)})
        res = classical_extrema(poly)
        assert tiled_groups == [4]
        assert_matches_row_tile_scan(res, poly)

    def test_float_cycle_tiles_every_row(self, tiled_rows):
        """The shape of `jd_feasibility`'s pricing scan of a 19-cycle: 8 tiles of 64 rows."""
        planned_scan(19, cycle_terms(19, np.random.default_rng(19).normal(size=19).tolist()))
        assert tiled_rows == [1 << 9]

    def test_dense_forms_keep_every_row(self, tiled_rows):
        classical_extrema(SCAN_FORMS["dense-20"](), workers=2)
        assert tiled_rows == [1 << 9]  # the half scan's 19 variables

    @pytest.mark.parametrize("n", [9, 15, 16])
    def test_single_tile_scans_keep_every_row(self, n, tiled_rows):
        planned_scan(n, cycle_terms(n, [1] * n))
        assert tiled_rows == [1 << n // 2]

    @settings(max_examples=80, deadline=None)
    @given(
        form=scan_forms(st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)),
        chunk_size=st.sampled_from([1, 7, 1 << 16]),
    )
    def test_float_weights_within_tolerance(self, form, chunk_size):
        self.check_float_weights(*form, chunk_size)

    @pytest.mark.parametrize("n", [17, 19])
    def test_float_weighted_cycles_within_tolerance(self, n):
        """The shape of `jd_feasibility`'s pricing scans: cycle edges under
        Farkas-like float weights."""
        rng = np.random.default_rng(n)
        self.check_float_weights(n, cycle_terms(n, rng.normal(size=n).tolist()), 1 << 16)

    @staticmethod
    def check_float_weights(n, terms, chunk_size):
        tol = 1e-12 * sum(abs(c) for _, c in terms)
        lo, lo_at, hi, hi_at = planned_scan(n, terms, chunk_size)
        ref_lo, _, ref_hi, _ = row_tile_scan(n, terms)
        assert np.abs(lo - ref_lo).max() <= tol
        assert np.abs(hi - ref_hi).max() <= tol
        assert np.abs(form_values(n, terms, lo_at) - lo).max() <= tol
        assert np.abs(form_values(n, terms, hi_at) - hi).max() <= tol
        low = n - n // 2
        first = np.arange(len(lo)) << low
        for at in (lo_at, hi_at):  # each index lies in its own row
            assert ((at >= first) & (at < first + (1 << low))).all()

    @pytest.mark.parametrize("label", ["cycle-23", "chain-23"])
    @pytest.mark.parametrize("workers", [None, 2])
    def test_pinned_results(self, label, workers):
        """Fields written by the row-tile scan, compared exactly."""
        want = json.loads((Path(__file__).parent / "data" / "extrema_23.json").read_text())[label]
        res = classical_extrema(SCAN_FORMS[label](), workers=workers)
        assert res.minimum == want["minimum"] and res.maximum == want["maximum"]
        assert res.assignments_checked == want["assignments_checked"]
        for got, key in ((res.witness_min, "witness_min"), (res.witness_max, "witness_max")):
            assert {str(v): value for v, value in got.values.items()} == want[key]

    @pytest.mark.parametrize("chunk_size", [0, -3, 2.5, True])
    def test_rejects_bad_chunk_size(self, chunk_size, monkeypatch):
        monkeypatch.setattr(lhv, "_SplitPlan", None)  # the check comes before the scan
        with pytest.raises(ValueError, match="chunk_size"):
            classical_extrema(derive_inequality(catalog.load_expression("chsh.rsx")), chunk_size=chunk_size)


@st.composite
def even_polys(draw):
    """(poly, even): integer forms over up to 16 variables of pairs, degree-4
    monomials and a constant, so even; or, when `even` is false, with one
    monomial of degree 1 or 3 added."""
    n = draw(st.integers(2, 16))
    names = mixed_names(n)
    monomials = st.one_of(*(st.lists(st.integers(0, n - 1), unique=True, min_size=k, max_size=k)
                            for k in (2, 4) if k <= n))
    coefficients = st.integers(-3, 3).filter(bool)
    terms = draw(st.lists(st.tuples(monomials, coefficients), min_size=1, max_size=12))
    terms.append(([], draw(st.integers(-3, 3))))
    even = draw(st.booleans())
    if not even:
        odd = st.lists(st.integers(0, n - 1), unique=True, min_size=1, max_size=min(n, 3)).filter(lambda c: len(c) % 2)
        terms.append((draw(odd), draw(coefficients)))
    return MultilinearPoly({frozenset(names[c] for c in cols): coeff for cols, coeff in terms}), even


class TestHalfScan:
    """The scan of an even form, f(x) = f(-x), fixes the first variable to -1."""

    @settings(max_examples=120, deadline=None)
    @given(form=even_polys(), chunk_size=st.sampled_from([1, 7, 1 << 16]), workers=st.sampled_from([None, 2]))
    # X1X2 + X1X2X3X4: every extreme is attained by an assignment and its mirror
    @example(form=(MultilinearPoly({frozenset({x(1), x(2)}): 1, frozenset({x(i) for i in range(1, 5)}): 1}), True),
             chunk_size=1, workers=2)
    # X1 alone: odd, so both halves are scanned
    @example(form=(MultilinearPoly({frozenset({x(1)}): 2, frozenset(): -1}), False), chunk_size=1, workers=None)
    def test_matches_the_unhalved_row_tile_reference(self, form, chunk_size, workers):
        poly, even = form
        sizes, plan = [], _SplitPlan

        def recording(n, *args):
            sizes.append(n)
            return plan(n, *args)

        with mock.patch.object(lhv, "_eliminate", return_value=None), mock.patch.object(lhv, "_SplitPlan", recording):
            res = classical_extrema(poly, workers=workers, chunk_size=chunk_size)
        assert sizes == [len(poly_variables(poly)) - even]
        assert_matches_row_tile_scan(res, poly)


@st.composite
def sparse_polys(draw):
    """Integer polys over up to 16 variables, named so that the sorted order
    mixes letters and differs from the string order: monomials of degree 0
    to 3 with coefficients -2..2, so that extremes tie."""
    n = draw(st.integers(1, 16))
    names = mixed_names(n)
    monomials = st.lists(st.integers(0, n - 1), unique=True, max_size=3)
    terms = draw(st.lists(st.tuples(monomials, st.integers(-2, 2)), max_size=n + 4))
    return MultilinearPoly({frozenset(names[c] for c in cols): coeff for cols, coeff in terms})


class TestElimination:
    @settings(max_examples=200, deadline=None)
    @given(poly=sparse_polys(), chunk_size=st.sampled_from([1, 7, 1 << 16]))
    @example(poly=MultilinearPoly({frozenset({x(1), x(2)}): 0, frozenset(): 2}), chunk_size=1)
    @example(poly=MultilinearPoly({frozenset({x(i), y(i)}): 2 for i in (1, 2)}), chunk_size=1)
    def test_matches_the_scan(self, poly, chunk_size):
        got = classical_extrema(poly, chunk_size=chunk_size)
        with mock.patch.object(lhv, "_eliminate", return_value=None):
            want = classical_extrema(poly, chunk_size=chunk_size)
        assert (got.minimum, got.maximum, got.assignments_checked) == (
            want.minimum, want.maximum, want.assignments_checked)
        for g, w in ((got.witness_min, want.witness_min), (got.witness_max, want.witness_max)):
            assert list(g.values.items()) == list(w.values.items())

    def test_narrow_forms_skip_the_scan(self, monkeypatch):
        monkeypatch.setattr(lhv, "_SplitPlan", None)  # calling it would raise
        for label in ("cycle-23", "chain-23"):
            classical_extrema(SCAN_FORMS[label]())
        assert lhv._eliminate(*poly_terms(SCAN_FORMS["dense-18"]())) is None
        at_the_cap = clique_on_a_path(lhv.ELIMINATION_WIDTH_CAP)  # 24 + 66 - 11 distinct pairs
        assert classical_extrema(at_the_cap).maximum == 79

    @pytest.mark.parametrize("family, minimum, maximum, bound", [
        (catalog.cycle_source, -999, 1001, -999), (catalog.alternating_cycle_source, -1001, 999, 999)])
    def test_thousand_and_one_variables(self, family, minimum, maximum, bound):
        ineq = derive_inequality(family(1001))
        start = time.perf_counter()
        res = classical_extrema(ineq)
        assert time.perf_counter() - start < 1.0  # about 40 ms on one core; the scan would need 2**1001 rows
        assert ineq.bound == bound
        assert (res.minimum, res.maximum, res.assignments_checked) == (minimum, maximum, 1 << 1001)
        poly = coefficient_map(ineq)
        assert poly_value(poly, res.witness_min.values) == res.minimum
        assert poly_value(poly, res.witness_max.values) == res.maximum


class TestModelsAndDistributions:
    def test_assignment_validation(self):
        with pytest.raises(ValueError):
            DeterministicAssignment({x(1): 2})

    def test_model_weight_validation(self):
        good = DeterministicAssignment({x(1): 1})
        with pytest.raises(ValueError):
            DhvModel(((good, 0.2),))
        with pytest.raises(ValueError):
            DhvModel(((good, -0.1), (good, 1.1)))


class TestJdFeasibility:
    def test_singlet_chsh_infeasible(self):
        result = jd_feasibility(catalog.load_scenario("chsh.scn"), singlet_chsh_correlators())
        assert not result.feasible
        cert = result.certificate
        assert cert.violation > 0.5
        assert cert.bound == pytest.approx(2.0, abs=1e-9)
        # the certificate bound is the exact deterministic maximum
        values = []
        for bits in range(16):
            assign = {
                v: 1 if (bits >> i) & 1 else -1
                for i, v in enumerate(poly_variables(cert.pair_coefficients))
            }
            values.append(
                sum(
                    c * np.prod([assign[v] for v in pair])
                    for pair, c in cert.pair_coefficients.items()
                )
            )
        assert max(values) == pytest.approx(cert.bound, abs=1e-9)

    def test_random_models_round_trip(self):
        rng = np.random.default_rng(11)
        scenario = catalog.load_scenario("chsh.scn")
        names = tuple(scenario.variables)
        pairs = [frozenset(ctx) for ctx in scenario.contexts]
        for _ in range(100):
            model = random_dhv_model(names, rng, support_size=int(rng.integers(1, 6)))
            observed = {
                pair: model.correlator(*sorted(pair)) for pair in pairs
            }
            means = {v: model.mean(v) for v in names}
            result = jd_feasibility(scenario, with_means(observed, means))
            assert result.feasible
            for pair, value in observed.items():
                assert result.model.correlator(*sorted(pair)) == pytest.approx(
                    value, abs=1e-6
                )
            for var, value in means.items():
                assert result.model.mean(var) == pytest.approx(value, abs=1e-6)

    def test_scaled_tsirelson_feasible_below_bound(self):
        # shrinking the singlet correlators under the classical bound
        # restores a joint distribution
        scaled = {
            pair: value * 0.7 for pair, value in singlet_chsh_correlators().items()
        }
        result = jd_feasibility(catalog.load_scenario("chsh.scn"), scaled)
        assert result.feasible

    def test_lg_temporal_data(self):
        scenario = catalog.load_scenario("lg.scn")
        j, k, l, m = (VariableId(c) for c in "JKLM")
        quantum = {
            frozenset({j, k}): INV_SQRT2,
            frozenset({k, l}): INV_SQRT2,
            frozenset({l, m}): INV_SQRT2,
            frozenset({j, m}): -INV_SQRT2,
        }
        assert not jd_feasibility(scenario, quantum).feasible

    def test_repeated_pair_rejected(self):
        observed = {(x(1), y(1)): 0.9, (y(1), x(1)): -0.9, (x(1), y(2)): 0.1}
        with pytest.raises(ValueError, match="X1Y1"):
            jd_feasibility(catalog.load_scenario("chsh.scn"), observed)

    def test_repeated_pair_is_named_in_variable_order(self):
        """Sorted as strings, X10 came before X9."""
        observed = {(x(9), x(10)): 0.1, (x(10), x(9)): 0.1}
        with pytest.raises(ValueError) as excinfo:
            jd_feasibility(catalog.load_scenario("chsh.scn"), observed)
        assert str(excinfo.value) == "X9X10 is given twice"

    @pytest.mark.parametrize("key, label", [
        ((x(1), x(1)), "X1X1"),
        (frozenset({y(1), x(2), x(1)}), "X1X2Y1"),
        ("X1Y1", "'X1Y1'"),  # a string's characters are no variables to sort
    ])
    def test_bad_key_is_named_in_variable_order(self, key, label):
        """The key used to print raw: VariableId reprs, or a frozenset in hash-seed order."""
        with pytest.raises(ValueError) as excinfo:
            jd_feasibility(catalog.load_scenario("chsh.scn"), {(x(1), y(1)): 0.5, key: 0.5})
        assert str(excinfo.value) == {
            "X1X1": "key X1X1 names a variable twice",  # not a mean of X1: X1·X1 = 1
            "X1X2Y1": "observed key X1X2Y1 names 3 variables, expected one or two",
            "'X1Y1'": "key 'X1Y1' names a variable that is not a VariableId",
        }[label]

    def test_a_bare_variable_key_raises(self):
        """The key of X1's mean is the set {X1}; X1 alone once failed with TypeError: not iterable."""
        with pytest.raises(ValueError) as excinfo:
            jd_feasibility(catalog.load_scenario("chsh.scn"), {(x(1), y(1)): 0.5, x(1): 0.1})
        assert str(excinfo.value) == "key X1 is a variable, not a set of variables"

    def test_a_key_of_no_variable_raises(self):
        """The constant is no observed value: every assignment gives it 1."""
        with pytest.raises(ValueError) as excinfo:
            jd_feasibility(catalog.load_scenario("chsh.scn"), {(x(1), y(1)): 0.5, (): 1.0})
        assert str(excinfo.value) == "observed key () names 0 variables, expected one or two"

    def test_a_string_variable_raises(self):
        """It once failed with AttributeError: 'str' object has no attribute 'letter'."""
        with pytest.raises(ValueError) as excinfo:
            jd_feasibility(catalog.load_scenario("chsh.scn"), {("X1", "Y1"): 0.5})
        assert str(excinfo.value) == "key ('X1', 'Y1') names a variable that is not a VariableId"

    def test_a_string_mean_key_raises(self):
        """It once raised UndeclaredVariable: mean names undeclared X1, although X1 is declared."""
        with pytest.raises(ValueError) as excinfo:
            jd_feasibility(catalog.load_scenario("chsh.scn"), {(x(1), y(1)): 0.5, "X1": 0.1})
        assert str(excinfo.value) == "key 'X1' names a variable that is not a VariableId"

    @pytest.mark.parametrize("observed, error, message", [
        ({(x(1), y(1)): 0.5, (x(1),): 1.5}, ValueError, "mean of X1 is 1.5, outside [-1, 1]"),
        ({(x(1), y(1)): 0.5, (x(9),): 0.5}, UndeclaredVariable, "mean names undeclared X9"),
        ({(x(1), x(9)): 0.5}, UndeclaredVariable, "correlator names undeclared X9"),
    ])
    def test_messages_name_the_value_by_its_degree(self, observed, error, message):
        with pytest.raises(error) as excinfo:
            jd_feasibility(catalog.load_scenario("chsh.scn"), observed)
        assert str(excinfo.value) == message

    def test_key_order_leaves_every_bit(self):
        """The rows are the correlators, then the means, each in column order, however the map lists them."""
        scenario = catalog.load_scenario("chsh.scn")
        r = INV_SQRT2
        observed = {(x(1), y(1)): r, (x(1), y(2)): r, (x(2), y(1)): r, (x(2), y(2)): -r,
                    (x(1),): 0.1, (x(2),): -0.2, (y(1),): 0.0, (y(2),): 0.3}
        forward = jd_feasibility(scenario, observed)
        backward = jd_feasibility(scenario, {tuple(reversed(k)): v for k, v in reversed(observed.items())})
        assert not forward.feasible
        assert forward.certificate == backward.certificate
        assert list(forward.certificate.pair_coefficients) == [frozenset(k) for k in list(observed)[:4]]
        assert list(forward.certificate.mean_coefficients) == [x(1), x(2), y(1), y(2)]

    def test_certificate_has_no_signed_zero(self):
        """The Farkas vector of this point holds -0.0 for X2Y2; the certificate prints it as 0.0."""
        observed = {(x(1), y(1)): 0.4, (x(1), y(2)): 0.4, (x(2), y(1)): 0.4, (x(2), y(2)): -0.4,
                    (y(1),): -0.9, (x(1),): 0.9}
        cert = jd_feasibility(catalog.load_scenario("chsh.scn"), observed).certificate
        coeffs = [*cert.pair_coefficients.values(), *cert.mean_coefficients.values()]
        assert 0.0 in coeffs
        assert all(math.copysign(1.0, c) == 1.0 for c in coeffs if c == 0.0)

    def test_bad_key_message_does_not_depend_on_hash_seed(self):
        code = (
            "from corrineq import catalog; from corrineq.dsl import VariableId as V; "
            "from corrineq.lhv import jd_feasibility\n"
            "key = frozenset({V('Y', 1), V('X', 2), V('X', 1), V('Y', 2)})\n"
            "try: jd_feasibility(catalog.load_scenario('chsh.scn'), {key: 0.5})\n"
            "except ValueError as exc: print(exc)"
        )
        src = str(Path(corrineq.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        messages = {
            subprocess.run(
                [sys.executable, "-c", code], capture_output=True, text=True, check=True,
                env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path},
            ).stdout
            for seed in ("1", "2")
        }
        assert messages == {"observed key X1X2Y1Y2 names 4 variables, expected one or two\n"}

    @pytest.mark.parametrize("value, complaint", [
        (1.5, "is 1.5, outside [-1, 1]"),
        (float("nan"), "is nan, expected a finite number"),
    ])
    def test_bad_correlator_is_named_by_its_label(self, value, complaint):
        """The key used to print as a frozenset repr, in hash-seed order."""
        with pytest.raises(ValueError) as excinfo:
            jd_feasibility(catalog.load_scenario("chsh.scn"), {(y(1), x(1)): value})
        assert str(excinfo.value) == f"correlator for X1Y1 {complaint}"


def with_means(observed, means):
    """One observed-value map: each mean is the value of its variable's one-variable key."""
    return {**observed, **{frozenset({var}): value for var, value in means.items()}}


def dense_feasibility(variables, observed, means):
    """Reference route: one simplex LP over the whole 2**n assignment table.

    Returns (feasible, violation), with violation None for a feasible LP.
    """
    signs = np.array(list(product((-1.0, 1.0), repeat=len(variables))))
    col = {v: i for i, v in enumerate(variables)}
    pair_keys = sorted(observed, key=lambda p: tuple(sorted(v.sort_key() for v in p)))
    mean_keys = sorted(means, key=VariableId.sort_key)
    rows = [np.ones(len(signs))]
    rows += [np.prod(signs[:, [col[v] for v in pair]], axis=1) for pair in pair_keys]
    rows += [signs[:, col[v]] for v in mean_keys]
    rhs = np.array([1.0] + [observed[p] for p in pair_keys] + [means[v] for v in mean_keys])
    a_eq = np.vstack(rows)
    solution = simplex_solve(LpProblem(c=np.zeros(len(signs)), a_eq=a_eq, b_eq=rhs))
    if solution.status == OPTIMAL:
        return True, None
    y = solution.farkas_eq
    violation = float(y[1:] @ rhs[1:] - (y[1:] @ a_eq[1:]).max())
    return violation <= FEASIBILITY_TOL, violation


def enumerated_maximum(variables, certificate):
    """Largest value of the certificate's combination, by itertools.product."""
    best = -np.inf
    for signs in product((-1, 1), repeat=len(variables)):
        value = dict(zip(variables, signs))
        total = sum(c * math.prod(value[v] for v in pair)
                    for pair, c in certificate.pair_coefficients.items())
        total += sum(c * value[v] for v, c in certificate.mean_coefficients.items())
        best = max(best, total)
    return best


def assert_witness(model, observed, means, tol):
    weights = [w for _, w in model.support]
    assert min(weights) >= 0.0
    assert sum(weights) == pytest.approx(1.0, abs=1e-12)
    for pair, value in observed.items():
        assert abs(model.correlator(*sorted(pair)) - value) <= tol
    for var, value in means.items():
        assert abs(model.mean(var) - value) <= tol


@st.composite
def jd_cases(draw):
    """Pair data from a random mixture, or with an odd cycle pushed past its facet,
    on variables declared out of sort order."""
    n = draw(st.integers(3, 8))
    variables = tuple(mixed_names(n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    model = random_dhv_model(variables, rng, support_size=draw(st.integers(1, 6)))
    every_pair = [frozenset(p) for p in combinations(variables, 2)]
    chosen = draw(st.lists(st.sampled_from(every_pair), min_size=1, unique=True))
    observed = {pair: model.correlator(*sorted(pair)) for pair in chosen}
    means = {v: model.mean(v) for v in variables} if draw(st.booleans()) else {}
    feasible = draw(st.booleans())
    if not feasible:
        # every DHV model keeps an odd k-cycle's correlator sum >= -(k - 2)
        k = draw(st.sampled_from([k for k in (3, 5, 7) if k <= n]))
        cycle = draw(st.permutations(variables))[:k]
        value = -(k - 2) / k * (1 + draw(st.floats(0.01, 0.2)))
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            observed[frozenset({a, b})] = value
    return variables, observed, means, feasible


class TestJdColumnGeneration:
    @settings(max_examples=80, deadline=None)
    @given(case=jd_cases())
    def test_matches_dense_route(self, case):
        variables, observed, means, feasible = case
        ref_feasible, ref_violation = dense_feasibility(variables, observed, means)
        assert ref_feasible == feasible
        scenario = ScenarioSpec(variables, {v: "X" for v in variables})
        result = jd_feasibility(scenario, with_means(observed, means))
        assert result.feasible == ref_feasible
        if result.feasible:
            assert_witness(result.model, observed, means, 1e-9)
            # atoms ascend in the ±1 walk of the sorted variables, each listing them in that order
            assert all(list(asg.values) == sorted(variables) for asg, _ in result.model.support)
            walk = [list(asg.values.values()) for asg, _ in result.model.support]
            assert walk == sorted(walk)
        else:
            cert = result.certificate
            assert cert.violation == pytest.approx(ref_violation, abs=1e-9)
            assert cert.bound == pytest.approx(enumerated_maximum(variables, cert), abs=1e-9)

    def test_cycle_19_on_both_sides_of_the_facet(self):
        n = 19
        scenario = catalog.cycle_scenario(n)
        edges = [frozenset({x(i), x(i % n + 1)}) for i in range(1, n + 1)]
        inside = {e: -(n - 2) / n + 0.02 for e in edges}
        outside = {e: -(n - 2) / n - 0.02 for e in edges}
        tracemalloc.start()
        try:
            feasible = jd_feasibility(scenario, inside)
            infeasible = jd_feasibility(scenario, outside)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert feasible.feasible
        assert_witness(feasible.model, inside, {}, 1e-9)
        assert not infeasible.feasible
        assert infeasible.certificate.bound == pytest.approx(n - 2, abs=1e-9)
        assert infeasible.certificate.violation > 0.0
        # the dense route held a 2**19 x 19 block, a 20 x 2**19 matrix and its tableau, ~80 MB each
        assert peak < 32 * 2**20

    @pytest.mark.parametrize("margin", [0.02, -0.02])
    def test_rounds_resume_the_last_master(self, margin, monkeypatch):
        """Every solve after the first resumes the previous, infeasible one,
        and its master appends columns to that one's."""
        calls = []

        def recording_solve(problem, start=None):
            solution = simplex_solve(problem, start=start)
            calls.append((problem, start, solution))
            return solution

        monkeypatch.setattr(lhv, "simplex_solve", recording_solve)
        n = 13
        edges = [frozenset({x(i), x(i % n + 1)}) for i in range(1, n + 1)]
        result = jd_feasibility(catalog.cycle_scenario(n), {e: -(n - 2) / n + margin for e in edges})
        assert result.feasible == (margin > 0)
        assert len(calls) > 2 and calls[0][1] is None
        for (before, _, previous), (problem, start, _) in zip(calls, calls[1:]):
            assert start is previous and previous.status == "infeasible"
            k = before.a_eq.shape[1]
            assert problem.a_eq.shape[1] > k and np.array_equal(problem.a_eq[:, :k], before.a_eq)

    def test_all_pairs_12_is_feasible(self):
        variables = tuple(x(i) for i in range(1, 13))
        scenario = ScenarioSpec(variables, {v: "X" for v in variables})
        model = random_dhv_model(variables, np.random.default_rng(12))
        observed = {frozenset(p): model.correlator(*p) for p in combinations(variables, 2)}
        result = jd_feasibility(scenario, observed)
        assert result.feasible
        assert_witness(result.model, observed, {}, 1e-9)

    @pytest.mark.parametrize("observed, means", [
        ({(x(1), y(1)): float("nan")}, None),
        ({(x(1), y(1)): float("inf")}, None),
        ({(x(1), y(1)): 0.5}, {x(1): float("nan")}),
        ({(x(1), y(1)): 0.5}, {x(1): -float("inf")}),
        ({(x(1), y(1)): 0.5}, {x(1): 1.5}),
    ])
    def test_rejects_non_finite_and_out_of_range_inputs(self, observed, means):
        with pytest.raises(ValueError):
            jd_feasibility(catalog.load_scenario("chsh.scn"), with_means(observed, means or {}))

    @pytest.mark.parametrize("tolerance", [float("nan"), float("inf"), -1e-9])
    def test_rejects_bad_tolerance(self, tolerance):
        with pytest.raises(ValueError, match="expected a finite non-negative number"):
            jd_feasibility(catalog.load_scenario("chsh.scn"), {(x(1), y(1)): 0.5}, tolerance=tolerance)


class TestNoDisturbance:
    def test_chsh_nd_max_is_pr_box(self):
        ineq = derive_inequality(catalog.load_expression("chsh.rsx"))
        objective = {m.variables: float(m.coefficient) for m in ineq.terms}
        opt = nodisturbance_optimum(catalog.load_scenario("chsh.scn"), objective, "max")
        assert opt.value == pytest.approx(4.0, abs=1e-8)
        assert opt.consistent

    def test_kcbs_nd_min_beats_classical(self):
        ineq = derive_inequality(catalog.load_expression("kcbs.rsx"))
        objective = {m.variables: float(m.coefficient) for m in ineq.terms}
        opt = nodisturbance_optimum(catalog.load_scenario("kcbs.scn"), objective, "min")
        assert opt.value == pytest.approx(-5.0, abs=1e-8)

    def test_term_outside_context(self):
        objective = {frozenset({x(1), x(2)}): 1.0}
        with pytest.raises(TermOutsideContext):
            nodisturbance_optimum(catalog.load_scenario("chsh.scn"), objective, "max")

    def test_zero_term_outside_context(self):
        """Kept, not dropped: check reports nodisturbance_max: null for it."""
        with pytest.raises(TermOutsideContext):
            nodisturbance_optimum(catalog.load_scenario("chsh.scn"), {(x(1), x(2)): 0, (x(1), y(1)): 1}, "max")

    def test_a_pair_given_twice_raises(self):
        """It once kept one of the two and returned 1.0."""
        with pytest.raises(ValueError, match="X1Y1 is given twice"):
            nodisturbance_optimum(catalog.load_scenario("chsh.scn"), {(x(1), y(1)): 1.0, (y(1), x(1)): 1.0}, "max")

    @pytest.mark.parametrize("key, label", [((x(1),), "X1"), ((x(1), x(1)), "X1"), ((x(1), y(1), y(2)), "X1Y1Y2")])
    def test_a_key_of_one_or_three_variables_raises(self, key, label):
        """These once failed to unpack: not enough values, or too many.
        (X1, X1) is refused as it is read, since X1·X1 is the constant."""
        with pytest.raises(ValueError) as excinfo:
            nodisturbance_optimum(catalog.load_scenario("chsh.scn"), {key: 1.0}, "max")
        assert str(excinfo.value) == (
            "key X1X1 names a variable twice" if len(set(key)) < len(key)
            else f"objective key {label} must name two distinct variables")

    def test_a_string_variable_raises(self):
        """It once failed with AttributeError: 'str' object has no attribute 'letter'."""
        with pytest.raises(ValueError) as excinfo:
            nodisturbance_optimum(catalog.load_scenario("chsh.scn"), {("X1", "Y1"): 1.0}, "max")
        assert str(excinfo.value) == "key ('X1', 'Y1') names a variable that is not a VariableId"

    def test_behavior_is_normalized(self):
        ineq = derive_inequality(catalog.load_expression("chsh.rsx"))
        objective = {m.variables: float(m.coefficient) for m in ineq.terms}
        opt = nodisturbance_optimum(catalog.load_scenario("chsh.scn"), objective, "max")
        for table in opt.behavior:
            total = sum(table.values())
            assert total == pytest.approx(1.0, abs=1e-8)
            assert min(table.values()) >= -1e-9


def monogamy_objective():
    derived = derive_inequality(catalog.load_expression("monogamy.rsx"))
    return {m.variables: float(m.coefficient) for m in derived.terms}


def cycle_objective(n):
    return {frozenset({x(i), x(i % n + 1)}): 1.0 for i in range(1, n + 1)}


def reference_nd_lp(scenario, objective, enforce_consistency):
    """The no-disturbance LP as the per-pair builder made it: one assignment
    table per context and per overlapping pair, and one 3-D comparison per
    pair side.  Returns (c, a_eq, b_eq, behavior(x), kept), where `kept`
    lists the rows of a_eq that the builder keeps, ascending.

    The kept rows are found by a naive search over all pairs.  A pair
    sharing S is implied when other kept pairs sharing supersets of S
    connect its two contexts; pairs are tested from the smallest S up, in
    build order.  Each connected group of contexts keeps the
    normalization row of its first context."""
    contexts = [tuple(sorted(ctx, key=VariableId.sort_key)) for ctx in scenario.contexts]
    tables = [_assignment_rows(len(ctx)) for ctx in contexts]
    spans, total = [], 0
    for table in tables:
        spans.append(slice(total, total + len(table)))
        total += len(table)
    homes = {}
    for ci, ctx in enumerate(contexts):
        for var in ctx:
            homes.setdefault(var, []).append(ci)

    c_vec = np.zeros(total)
    for pair, coeff in objective.items():
        a, b = sorted(pair, key=VariableId.sort_key)
        home = next(ci for ci in homes.get(a, ()) if b in contexts[ci])
        ia, ib = contexts[home].index(a), contexts[home].index(b)
        c_vec[spans[home]] += float(coeff) * tables[home][:, ia] * tables[home][:, ib]

    normalization = np.zeros((len(contexts), total))
    for ci, span in enumerate(spans):
        normalization[ci, span] = 1.0
    rows, rhs = [normalization], [1.0] * len(contexts)
    pairs = []  # (ci, cj, shared variables, first row of the pair's block)
    if enforce_consistency:
        for ci, ctx in enumerate(contexts):
            for cj in sorted({cj for var in ctx for cj in homes[var] if cj > ci}):
                shared = sorted(set(ctx) & set(contexts[cj]), key=VariableId.sort_key)
                patterns = _assignment_rows(len(shared))
                block = np.zeros((len(patterns), total))
                for ck, sign in ((ci, 1.0), (cj, -1.0)):
                    seen = tables[ck][:, [contexts[ck].index(v) for v in shared]]
                    block[:, spans[ck]] += sign * (seen[None, :, :] == patterns[:, None, :]).all(axis=2)
                pairs.append((ci, cj, set(shared), len(rhs)))
                rows.append(block)
                rhs.extend([0.0] * len(patterns))

    implied = []
    for pair in sorted(pairs, key=lambda p: len(p[2])):
        ci, cj, shared, _ = pair
        links = [(a, b) for a, b, s, _ in pairs if s >= shared and (a, b) != (ci, cj) and (a, b) not in implied]
        reached, grown = {ci}, True
        while grown:
            grown = False
            for a, b in links:
                if (a in reached) != (b in reached):
                    reached |= {a, b}
                    grown = True
        if cj in reached:
            implied.append((ci, cj))
    kept_pairs = [pair for pair in pairs if pair[:2] not in implied]
    group = list(range(len(contexts)))  # each context's group label: its smallest member
    for _ in contexts:
        for ci, cj, _, _ in kept_pairs:
            group[ci] = group[cj] = min(group[ci], group[cj])
    kept = [ci for ci in range(len(contexts)) if group[ci] == ci]
    for _, _, shared, start in kept_pairs:
        kept.extend(range(start, start + (1 << len(shared))))

    def behavior(x):
        return tuple(
            {tuple(int(v) for v in outcome): float(p) for outcome, p in zip(table, x[span])}
            for table, span in zip(tables, spans)
        )
    return c_vec, np.vstack(rows), np.array(rhs), behavior, kept


def random_nd_scenario(seed):
    """A scenario with contexts of one to four variables, some nested or
    repeated, and a float objective on pairs inside them.  The variables are
    declared out of sort order."""
    rng = np.random.default_rng(seed)
    variables = tuple(mixed_names(6))
    contexts = []
    for _ in range(int(rng.integers(2, 6))):
        size = int(rng.integers(1, 5))
        contexts.append(frozenset(variables[i] for i in rng.choice(len(variables), size, replace=False)))
    scenario = ScenarioSpec(variables, {v: v.letter for v in variables}, tuple(contexts))
    pairs = {frozenset(p) for ctx in contexts for p in combinations(ctx, 2)}
    pairs = sorted(pairs, key=lambda p: sorted(v.sort_key() for v in p))
    objective = {pair: round(float(rng.normal()), 3) for pair in pairs if rng.random() < 0.7}
    return scenario, objective


@st.composite
def crowded_nd_scenarios(draw):
    """Up to nine contexts of one to four of six variables, so that many
    contexts hold the same shared sets, with an integer objective."""
    variables = tuple(mixed_names(6))
    contexts = draw(st.lists(st.frozensets(st.sampled_from(variables), min_size=1, max_size=4),
                             min_size=1, max_size=9))
    scenario = ScenarioSpec(variables, {v: v.letter for v in variables}, tuple(contexts))
    pairs = sorted({frozenset(p) for ctx in contexts for p in combinations(ctx, 2)},
                   key=lambda p: sorted(v.sort_key() for v in p))
    return scenario, {pair: float(draw(st.integers(-3, 3))) for pair in pairs}


def all_pairs_scenario(contexts):
    """A scenario of the given contexts, with an objective of 1 on every pair inside one."""
    variables = tuple(dict.fromkeys(v for ctx in contexts for v in ctx))
    scenario = ScenarioSpec(variables, {v: v.letter for v in variables}, tuple(map(frozenset, contexts)))
    return scenario, {frozenset(p): 1.0 for ctx in contexts for p in combinations(ctx, 2)}


ND_BUILDER_CASES = {
    **{f"cycle-{n}": (lambda n=n: (catalog.cycle_scenario(n), cycle_objective(n), "min"))
       for n in (3, 4, 5, 6, 7, 8, 9, 101)},
    "chsh": lambda: (catalog.load_scenario("chsh.scn"),
                     {m.variables: float(m.coefficient)
                      for m in derive_inequality(catalog.load_expression("chsh.rsx")).terms},
                     "max"),
    "kcbs": lambda: (catalog.load_scenario("kcbs.scn"),
                     {m.variables: float(m.coefficient)
                      for m in derive_inequality(catalog.load_expression("kcbs.rsx")).terms},
                     "min"),
    "monogamy": lambda: (catalog.load_scenario("monogamy.scn"), monogamy_objective(), "min"),
    **{f"random-{seed}": (lambda seed=seed: (*random_nd_scenario(seed), "max")) for seed in range(8)},
    # twelve holders of {X1}, each its own group: eleven kept overlaps on X1
    "star-12": lambda: (*all_pairs_scenario([(x(1), y(i)) for i in range(1, 13)]), "min"),
    # {X1}'s holders fall into four groups of three joined by a Y, and each
    # {X1, Yk} has three holders joined by nothing
    "fan-12": lambda: (*all_pairs_scenario([(x(1), y((i + 2) // 3), VariableId("Z", i)) for i in range(1, 13)]),
                       "min"),
}


def assert_same_bits(got, want):
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()


def solved_nd_lp(scenario, objective, direction, enforce=True):
    """nodisturbance_optimum's result, and the one LP it solves with that solve's result."""
    solved = []

    def recording_solve(problem):
        solved.append((problem, simplex_solve(problem)))
        return solved[-1][1]

    with mock.patch.object(lhv, "simplex_solve", recording_solve):
        opt = nodisturbance_optimum(scenario, objective, direction, enforce_consistency=enforce)
    (problem, solution), = solved
    return opt, problem, solution


class TestNoDisturbanceBuilder:
    @pytest.mark.parametrize("enforce", [True, False])
    @pytest.mark.parametrize("case", sorted(ND_BUILDER_CASES))
    def test_matches_per_pair_reference(self, case, enforce):
        scenario, objective, direction = ND_BUILDER_CASES[case]()
        opt, problem, solution = solved_nd_lp(scenario, objective, direction, enforce)
        c_vec, a_eq, b_eq, behavior, kept = reference_nd_lp(scenario, objective, enforce)
        assert_same_bits(problem.c, c_vec)
        assert_same_bits(problem.a_eq, a_eq[kept])
        assert_same_bits(problem.b_eq, b_eq[kept])
        assert kept == sorted(set(kept))  # an ordered subset of the per-pair rows
        assert np.linalg.matrix_rank(problem.a_eq) == np.linalg.matrix_rank(a_eq)
        if not enforce:
            assert kept == list(range(len(b_eq)))  # the per-context LP, bit for bit
        assert problem.maximize == (direction == "max")
        # repr tells -0.0 from 0.0 and np.int64 from int
        assert repr(opt.behavior) == repr(behavior(solution.x))
        assert opt.value == solution.objective

    @pytest.mark.parametrize("case", sorted(ND_BUILDER_CASES))
    def test_optimum_matches_the_full_lp(self, case):
        scenario, objective, _ = ND_BUILDER_CASES[case]()
        self.assert_optimum_matches_the_full_lp(scenario, objective)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_random_optimum_matches_the_full_lp(self, seed):
        self.assert_optimum_matches_the_full_lp(*random_nd_scenario(seed))

    @settings(max_examples=200, deadline=None)
    @given(crowded_nd_scenarios())
    def test_crowded_optimum_matches_the_full_lp(self, case):
        self.assert_optimum_matches_the_full_lp(*case)

    @staticmethod
    def assert_optimum_matches_the_full_lp(scenario, objective):
        """The reference's rows; the same value as the per-pair LP, and a
        behavior that meets its every row."""
        for enforce in (True, False):
            c_vec, a_eq, b_eq, _, kept = reference_nd_lp(scenario, objective, enforce)
            for direction in ("min", "max"):
                opt, problem, _ = solved_nd_lp(scenario, objective, direction, enforce)
                assert_same_bits(problem.a_eq, a_eq[kept])
                full = simplex_solve(LpProblem(c=c_vec, a_eq=a_eq, b_eq=b_eq, maximize=direction == "max"))
                assert abs(opt.value - full.objective) <= 1e-9
                x_opt = np.array([p for table in opt.behavior for p in table.values()])
                assert (x_opt >= 0).all()
                assert np.abs(a_eq @ x_opt - b_eq).max() <= 1e-9

    @pytest.mark.parametrize("name, direction", [("chsh", "max"), ("kcbs", "min"), ("monogamy", "min")])
    def test_inequality_and_dict_build_the_same_lp(self, name, direction):
        ineq = derive_inequality(catalog.load_expression(f"{name}.rsx"))
        scenario = catalog.load_scenario(f"{name}.scn")
        want_opt, want, _ = solved_nd_lp(scenario, ineq, direction)
        for plain in ({m.variables: float(m.coefficient) for m in ineq.terms},
                      {tuple(sorted(m.variables, reverse=True)): m.coefficient for m in ineq.terms}):
            opt, problem, _ = solved_nd_lp(scenario, plain, direction)
            for got, ref in ((problem.c, want.c), (problem.a_eq, want.a_eq), (problem.b_eq, want.b_eq)):
                assert_same_bits(got, ref)
            assert repr(opt) == repr(want_opt)

    def test_cycle_101_pivots(self):
        """303 rows and 400 pivots when every context and pair had its rows."""
        _, problem, solution = solved_nd_lp(*ND_BUILDER_CASES["cycle-101"]())
        assert problem.a_eq.shape[0] == 203
        assert solution.iterations <= 302

    def test_monogamy_rows(self):
        """The combined objective's LP had 110 rows when every context and pair had its rows."""
        _, problem, _ = solved_nd_lp(*ND_BUILDER_CASES["monogamy"]())
        assert problem.a_eq.shape[0] == 61

    def test_star_joins_a_few_times_per_context(self):
        """1,000 contexts X1 Yi share X1 alone: grouping its holders costs a
        few joins per context, not one per pair of holders (499,500)."""
        joins, join = 0, lhv._join

        def counting_join(*args):
            nonlocal joins
            joins += 1
            join(*args)

        scenario, objective = all_pairs_scenario([(x(1), y(i)) for i in range(1, 1001)])
        with mock.patch.object(lhv, "_join", counting_join):
            opt = nodisturbance_optimum(scenario, objective, "min")
        assert opt.value == -1000
        assert joins <= 3 * 1000

    def test_random_scenarios_mix_context_sizes(self):
        sizes = {len(ctx) for seed in range(8) for ctx in random_nd_scenario(seed)[0].contexts}
        assert sizes == {1, 2, 3, 4}


class TestNoDisturbanceCap:
    def test_refuses_before_building_any_table(self, monkeypatch):
        # two contexts of 16 variables sharing 15: a 2**15 x 2**17 consistency block
        shared = [x(i) for i in range(1, 16)]
        variables = tuple(shared + [x(16), x(17)])
        scenario = ScenarioSpec(variables, {v: "X" for v in variables},
                                (frozenset(shared + [x(16)]), frozenset(shared + [x(17)])))

        def no_tables(*args, **kwargs):
            raise AssertionError("an assignment table was built")

        monkeypatch.setattr(lhv, "_assignment_rows", no_tables)
        with pytest.raises(TooManyVariables, match="above the cap"):
            nodisturbance_optimum(scenario, {frozenset({x(1), x(2)}): 1.0}, "max")

    @pytest.mark.parametrize("enforce", [True, False])
    def test_cap_counts_the_tableau_cells(self, enforce, monkeypatch):
        # the 3-cycle: 12 columns; 2 rows per overlapping pair and one normalization
        # row for the connected contexts, or 3 normalization rows without the pairs
        rows = 1 + 6 if enforce else 3
        cells = rows * (12 + rows + 1)
        tableaux = []

        def recording_solve(problem):
            m, n = problem.a_eq.shape
            tableaux.append(m * (n + m + 1))  # simplex_solve's tableau with no slacks
            return simplex_solve(problem)

        monkeypatch.setattr(lhv, "simplex_solve", recording_solve)
        monkeypatch.setattr(lhv, "ND_TABLEAU_CAP", cells)
        nodisturbance_optimum(catalog.cycle_scenario(3), cycle_objective(3), "min", enforce)
        assert tableaux == [cells]
        monkeypatch.setattr(lhv, "ND_TABLEAU_CAP", cells - 1)
        with pytest.raises(TooManyVariables):
            nodisturbance_optimum(catalog.cycle_scenario(3), cycle_objective(3), "min", enforce)

    def test_term_outside_context_is_reported_first(self, monkeypatch):
        monkeypatch.setattr(lhv, "ND_TABLEAU_CAP", 0)
        with pytest.raises(TermOutsideContext):
            nodisturbance_optimum(catalog.load_scenario("chsh.scn"), {frozenset({x(1), x(2)}): 1.0}, "max")


@pytest.fixture(scope="module")
def monogamy_report():
    return monogamy_check(catalog.load_scenario("monogamy.scn"), catalog.load_expression("monogamy.rsx"))


class TestMonogamy:
    def test_combined_bound(self, monogamy_report):
        report = monogamy_report
        assert report.combined_nd_min == pytest.approx(-5.0, abs=1e-7)
        assert report.agreement

    def test_parts(self, monogamy_report):
        report = monogamy_report
        assert report.chsh_nd_min == pytest.approx(-4.0, abs=1e-7)
        assert report.kcbs_nd_min == pytest.approx(-5.0, abs=1e-7)
        assert report.kcbs_classical_min == -3

    def test_relaxation_drops_below(self, monogamy_report):
        report = monogamy_report
        assert report.relaxed_min == pytest.approx(-9.0, abs=1e-7)
        assert report.relaxed_min < report.combined_nd_min - 1.0

    def test_rejects_upper_bound_source(self):
        with pytest.raises(ValueError, match="lower-bound"):
            monogamy_check(catalog.load_scenario("chsh.scn"), catalog.load_expression("chsh.rsx"))

    def test_rejects_term_outside_scenario(self):
        """The combined LP runs before the split by party, so a variable the
        scenario does not declare is refused as a term outside every context."""
        with pytest.raises(TermOutsideContext, match="X1Y3 lies in no declared context"):
            monogamy_check(catalog.load_scenario("monogamy.scn"), parse_sos("(X1 + Y1 + Y3)^2 >= 1"))


def loop_reconstruct_pc(table_a, table_b, tolerance=1e-9):
    """reconstruct_pc as it was before the one-product kernel: a Python
    loop over the output cells in (first, last, y, middle) order."""
    a = np.asarray(table_a, dtype=float)
    b = np.asarray(table_b, dtype=float)
    for name, t in (("first", a), ("second", b)):
        if t.shape != (2, 2, 2):
            raise ValueError(f"{name} table must be 2x2x2, got {t.shape}")
        if t.min() < -tolerance:
            raise ValueError(f"{name} table has a negative cell")
        if abs(t.sum() - 1.0) > tolerance:
            raise ValueError(f"{name} table sums to {t.sum()!r}, expected 1")
    margin_a = a.sum(axis=0)
    margin_b = b.sum(axis=1)
    if np.abs(margin_a - margin_b).max() > tolerance:
        raise ProvisoViolated(
            f"shared (middle, y) marginals differ by up to {np.abs(margin_a - margin_b).max():.3e}"
        )
    den = (margin_a + margin_b) / 2.0
    out = np.zeros((2, 2, 2, 2))
    for x1 in range(2):
        for x3 in range(2):
            for yy in range(2):
                for x2 in range(2):
                    numerator = a[x1, x2, yy] * b[x2, x3, yy]
                    if den[x2, yy] <= 0.0:
                        if numerator > tolerance:
                            raise DivisionByZeroCell(
                                f"cell (middle={x2}, y={yy}) has zero marginal but mass above it"
                            )
                        continue
                    out[x1, x3, yy, x2] = numerator / den[x2, yy]
    return out


def _outcome(kernel, a, b, tolerance):
    try:
        return kernel(a, b, tolerance)
    except Exception as exc:  # noqa: BLE001 - the type and message are compared
        return type(exc), str(exc)


# p(x1, x2, x3, y) with many exact zeros (so some (middle, y) marginals
# vanish) and a few tiny negative cells, whose products with a zero give -0.0
_cell = st.one_of(st.just(0.0), st.just(0.0), st.floats(-1e-12, -1e-15), st.floats(1e-3, 1.0))


def _joint(weights):
    w = np.array(weights)
    return (w / w.sum()).reshape(2, 2, 2, 2)


_joints = st.lists(_cell, min_size=16, max_size=16).filter(lambda w: sum(w) > 0.5).map(_joint)
# a product 0 * -1e-12 in a cell with a positive marginal: the cell is -0.0
_NEGATIVE_ZERO_JOINT = _joint([0.0] * 13 + [-1e-12, 0.0, 1.0])

def _zero_marginal_tables(cells):
    """a[0,0,0] = b[0,0,0] = 1, plus for each (middle, value) cells of
    +-value at y = 1 that cancel in both tables, so that the (middle, 1)
    marginal vanishes while the products above it reach value**2.  Only a
    tolerance above 1 lets such tables through the input checks."""
    a, b = np.zeros((2, 2, 2)), np.zeros((2, 2, 2))
    a[0, 0, 0] = b[0, 0, 0] = 1.0
    for middle, value in cells:
        a[0, middle, 1], a[1, middle, 1] = value, -value
        b[middle, 0, 1], b[middle, 1, 1] = value, -value
    return a, b


class TestReconstruction:
    @settings(max_examples=300, deadline=None)
    @given(_joints, _joints, st.booleans(), st.sampled_from([1e-9, 1e-3, 0.2, 1.35]))
    @example(_NEGATIVE_ZERO_JOINT, _NEGATIVE_ZERO_JOINT, False, 1e-9)
    def test_matches_loop_reference(self, joint, other, mismatched, tolerance):
        """Same cells, same signs of zero, same exceptions and messages;
        `mismatched` takes the second table from another joint, so the
        proviso can fail."""
        a = joint.sum(axis=2)
        b = (other if mismatched else joint).sum(axis=0)
        got = _outcome(reconstruct_pc, a, b, tolerance)
        want = _outcome(loop_reconstruct_pc, a, b, tolerance)
        if isinstance(want, tuple):
            assert got == want
        else:
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize(
        "cells, tolerance, message",
        [
            ([(1, 1.3)], 1.35, "middle=1, y=1"),
            ([(0, 1.3), (1, 1.3)], 1.35, "middle=0, y=1"),  # the first cell in loop order
            ([(1, 1.25)], 1.5625, None),  # a product equal to the tolerance is allowed
        ],
    )
    def test_zero_marginal_with_mass_above(self, cells, tolerance, message):
        a, b = _zero_marginal_tables(cells)
        got = _outcome(reconstruct_pc, a, b, tolerance)
        want = _outcome(loop_reconstruct_pc, a, b, tolerance)
        if message is None:
            assert np.array_equal(got, want)
        else:
            assert got == want
            assert got[0] is DivisionByZeroCell and message in got[1]

    @staticmethod
    def _tables_from_joint(joint):
        """Split p(x1, x2, x3, y) into its two overlapping marginals."""
        a = joint.sum(axis=2)               # (x1, x2, y)
        b = joint.sum(axis=0)               # (x2, x3, y)
        return a, b

    @pytest.mark.parametrize("name, cell", [
        ("first", (0, 0, 0)), ("second", (1, 1, 1)), ("first", None),
    ])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_refuses_non_finite_tables(self, name, cell, bad):
        """A NaN anywhere used to pass every check and come back as NaN."""
        tables = {"first": np.full((2, 2, 2), 0.125), "second": np.full((2, 2, 2), 0.125)}
        if cell is None:
            tables[name][...] = bad
        else:
            tables[name][cell] = bad
        with pytest.raises(ValueError, match=f"{name} table has a non-finite cell"):
            reconstruct_pc(tables["first"], tables["second"])

    def test_product_input_factorizes(self):
        px1 = np.array([0.3, 0.7])
        px2 = np.array([0.6, 0.4])
        py = np.array([0.25, 0.75])
        a = np.einsum("i,j,k->ijk", px1, px2, py)
        b = np.einsum("i,j,k->ijk", px2, np.array([0.5, 0.5]), py)
        out = reconstruct_pc(a, b)
        assert out.shape == (2, 2, 2, 2)
        assert out.min() >= 0.0
        assert out.sum() == pytest.approx(1.0, abs=1e-12)
        # x1 stays independent of x3 cell by cell
        for x2_idx in range(2):
            for y_idx in range(2):
                block = out[:, :, y_idx, x2_idx]
                if block.sum() > 0:
                    outer = np.outer(block.sum(axis=1), block.sum(axis=0))
                    assert np.abs(block * block.sum() - outer).max() < 1e-12

    def test_marginals_recovered(self):
        rng = np.random.default_rng(9)
        joint = rng.random((2, 2, 2, 2))
        joint /= joint.sum()
        a, b = self._tables_from_joint(joint)
        out = reconstruct_pc(a, b)
        # out axes are (x1, x3, y, x2)
        a_back = out.sum(axis=1).transpose(0, 2, 1)   # -> (x1, x2, y)
        b_back = out.sum(axis=0).transpose(2, 0, 1)   # -> (x2, x3, y)
        assert np.abs(a_back - a).max() < 1e-9
        assert np.abs(b_back - b).max() < 1e-9

    def test_proviso_violated(self):
        rng = np.random.default_rng(2)
        a = rng.random((2, 2, 2))
        a /= a.sum()
        b = rng.random((2, 2, 2))
        b /= b.sum()
        with pytest.raises(ProvisoViolated):
            reconstruct_pc(a, b)

    def test_zero_marginal_with_no_mass_is_fine(self):
        joint = np.zeros((2, 2, 2, 2))
        joint[0, 0, 0, 0] = 1.0   # all mass on one cell
        a, b = self._tables_from_joint(joint)
        out = reconstruct_pc(a, b)
        assert out.sum() == pytest.approx(1.0, abs=1e-12)
