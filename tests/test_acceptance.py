"""Acceptance gate: one test per headline capability.

Each test pins a quantitative claim end to end with its stated
tolerance and runtime budget; conftest prints the per-criterion
verdict lines after the run.
"""

import time
from fractions import Fraction

import numpy as np

from corrineq import catalog
from corrineq.cli import main
from corrineq.dsl import VariableId
from corrineq.lhv import (
    classical_extrema,
    jd_feasibility,
    monogamy_check,
    random_dhv_model,
)
from corrineq.optimize import maximize_violation, scan_envelope
from corrineq.polynomials import coefficient_map, derive_inequality, term_kinds
from corrineq.protocol import estimate_f, signaling_test
from corrineq.quantum import (
    evaluate_inequality_quantum,
    hybrid_f_product,
    hybrid_settings,
    inequality_operator,
    operator_norm,
    plane_vector,
    product_ladder_settings,
    product_state,
    s2_square_closed_form,
    singlet_state,
    spatial_correlator,
)

SQRT8 = 2.0 * np.sqrt(2.0)


def x(i):
    return VariableId("X", i)


def y(i):
    return VariableId("Y", i)


def test_criterion_01_chsh_derivation():
    started = time.monotonic()
    ineq = derive_inequality(catalog.load_expression("chsh.rsx"))
    assert ineq.direction == "<="
    assert ineq.bound == Fraction(2)
    assert len(ineq.terms) == 4
    assert coefficient_map(ineq).get(frozenset({x(1), y(1)}), 0) == 1
    assert coefficient_map(ineq).get(frozenset({x(1), y(2)}), 0) == 1
    assert coefficient_map(ineq).get(frozenset({x(2), y(1)}), 0) == 1
    assert coefficient_map(ineq).get(frozenset({x(2), y(2)}), 0) == -1
    extrema = classical_extrema(ineq)
    assert extrema.maximum == 2
    assert extrema.assignments_checked == 16
    assert time.monotonic() - started < 1.0


def test_criterion_02_cycle_derivations():
    started = time.monotonic()
    kcbs = derive_inequality(catalog.load_expression("kcbs.rsx"))
    assert kcbs.bound == Fraction(-3)
    assert classical_extrema(kcbs).minimum == -3

    seven = derive_inequality(catalog.load_expression("cycle7.rsx"))
    assert seven.bound == Fraction(-5)
    assert classical_extrema(seven).minimum == -5

    for n in (5, 7, 9, 11):
        cycle = derive_inequality(catalog.cycle_source(n))
        assert cycle.bound == Fraction(-(n - 2))
        assert classical_extrema(cycle).minimum == -(n - 2)
        chain = derive_inequality(catalog.alternating_cycle_source(n))
        assert chain.bound == Fraction(n - 2)
        assert classical_extrema(chain).maximum == n - 2
    assert time.monotonic() - started < 5.0


def test_criterion_03_temporal_derivation():
    ineq = derive_inequality(catalog.load_expression("lg.rsx"))
    j, k, l, m = (VariableId(c) for c in "JKLM")
    assert ineq.direction == "<="
    assert ineq.bound == Fraction(2)
    assert coefficient_map(ineq).get(frozenset({j, k}), 0) == 1
    assert coefficient_map(ineq).get(frozenset({k, l}), 0) == 1
    assert coefficient_map(ineq).get(frozenset({l, m}), 0) == 1
    assert coefficient_map(ineq).get(frozenset({j, m}), 0) == -1
    assert classical_extrema(ineq).maximum == 2


def test_criterion_04_hybrid_derivation():
    ineq = derive_inequality(catalog.load_expression("hybrid.rsx"))
    assert ineq.bound == Fraction(2)
    assert ineq.direction == "<="
    kinds = term_kinds(ineq.terms, catalog.load_scenario("hybrid.scn"))
    assert kinds[frozenset({x(1), x(2)})] == "same-party"
    assert kinds[frozenset({y(1), y(2)})] == "same-party"
    assert kinds[frozenset({x(1), y(2)})] == "cross-party"
    assert kinds[frozenset({x(2), y(1)})] == "cross-party"
    assert classical_extrema(ineq).maximum == 2


def test_criterion_05_singlet_optimizer():
    started = time.monotonic()
    ineq = derive_inequality(catalog.load_expression("hybrid.rsx"))
    found = maximize_violation(ineq, singlet_state())
    assert abs(found.value - SQRT8) <= 1e-6
    f_op = inequality_operator(ineq, found.settings)
    assert abs(operator_norm(f_op) - found.value) <= 1e-9
    assert time.monotonic() - started < 30.0


def test_criterion_06_product_state_value():
    ineq = derive_inequality(catalog.load_expression("hybrid.rsx"))
    settings = product_ladder_settings()
    direction = settings[y(2)]
    analytic = hybrid_f_product(direction, direction, settings)
    matrix = evaluate_inequality_quantum(
        ineq, product_state(direction, direction), settings
    )
    assert abs(analytic - 3.0 / np.sqrt(2.0)) <= 1e-12
    assert abs(matrix - analytic) <= 1e-12


def test_criterion_07_envelope_grid():
    scan = scan_envelope(1000)
    assert abs(scan.max_value - SQRT8) <= 1e-5
    assert scan.max_value <= SQRT8 + 1e-12  # the maximum over every cell
    spacing = 2 * np.pi / 999
    quarter = np.pi / 4
    off = min(
        max(abs(scan.argmax[0] - s * quarter), abs(scan.argmax[1] + s * quarter))
        for s in (1, -1)
    )
    assert off <= spacing


def test_criterion_08_squared_operator_identity():
    rng = np.random.default_rng(12345)
    names = [x(1), x(2), y(1), y(2)]
    ineq = derive_inequality(catalog.load_expression("hybrid.rsx"))
    kinds = term_kinds(ineq.terms, catalog.load_scenario("hybrid.scn"))
    cross = {m.variables: m.coefficient for m in ineq.terms if kinds[m.variables] == "cross-party"}
    for _ in range(100):
        raw = rng.normal(size=(4, 3))
        settings = {v: row / np.linalg.norm(row) for v, row in zip(names, raw)}
        s2 = inequality_operator(cross, settings)
        deviation = np.abs(s2 @ s2 - s2_square_closed_form(settings)).max()
        assert deviation <= 1e-12


def test_criterion_09_jd_feasibility():
    started = time.monotonic()
    scenario = catalog.load_scenario("chsh.scn")
    settings = {
        x(1): plane_vector(0.0),
        x(2): plane_vector(np.pi / 2),
        y(1): plane_vector(-3 * np.pi / 4),
        y(2): plane_vector(3 * np.pi / 4),
    }
    pairs = [
        frozenset({x(1), y(1)}),
        frozenset({x(1), y(2)}),
        frozenset({x(2), y(1)}),
        frozenset({x(2), y(2)}),
    ]
    quantum = {
        pair: spatial_correlator(singlet_state(), *(settings[v] for v in sorted(pair)))
        for pair in pairs
    }
    refused = jd_feasibility(scenario, quantum)
    assert not refused.feasible
    assert refused.certificate is not None

    rng = np.random.default_rng(2024)
    names = (x(1), x(2), y(1), y(2))
    failures = 0
    for _ in range(100):
        model = random_dhv_model(names, rng, support_size=int(rng.integers(1, 8)))
        observed = {pair: model.correlator(*sorted(pair)) for pair in pairs}
        means = {frozenset({v}): model.mean(v) for v in names}
        result = jd_feasibility(scenario, {**observed, **means})
        if not result.feasible:
            failures += 1
    assert failures == 0
    assert time.monotonic() - started < 30.0


def test_criterion_10_monogamy():
    report = monogamy_check(catalog.load_scenario("monogamy.scn"), catalog.load_expression("monogamy.rsx"))
    assert abs(report.combined_nd_min - (-5.0)) <= 1e-7
    assert report.symbolic_bound == Fraction(-5)
    assert report.agreement
    assert report.relaxed_min < -5.0 - 1e-7


def test_criterion_11_monte_carlo():
    started = time.monotonic()
    settings = hybrid_settings()
    est = estimate_f(singlet_state(), settings, shots=10**6, seed=12345)
    assert abs(est.f_value - SQRT8) <= 3 * est.f_stderr

    polarized = product_state(plane_vector(0.0), settings[y(2)])
    sig = signaling_test(polarized, settings, shots=10**6, seed=12345)
    assert sig.p_alone == 1.0
    assert abs(sig.p_after_y1 - 0.75) <= 3 * sig.se_after
    assert abs(sig.difference - 0.25) <= 3 * np.hypot(sig.se_alone, sig.se_after)
    assert time.monotonic() - started < 120.0


def test_criterion_12_determinism(capsys):
    started = time.monotonic()
    assert main(["reproduce", "all", "--format", "json"]) == 0
    first = capsys.readouterr().out
    elapsed = time.monotonic() - started
    assert main(["reproduce", "all", "--format", "json"]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert '"ok": true' in first
    assert elapsed < 600.0  # the full reference run stays laptop-sized
