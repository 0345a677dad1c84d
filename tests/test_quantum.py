"""Qubit correlators, the operator split, and the coplanar envelope."""

import json

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from corrineq import catalog
from corrineq.cli import main
from corrineq.dsl import VariableId, parse_scenario, parse_sos
from corrineq.errors import (
    DimensionMismatch,
    InconsistentContext,
    MissingAssignment,
    MissingSetting,
    NonUnitVector,
    NotHermitian,
)
from corrineq.polynomials import derive_inequality, letter_scenario
from corrineq.quantum import (
    ID2,
    ID4,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    evaluate_inequality_quantum,
    hybrid_f_product,
    hybrid_settings,
    inequality_operator,
    kron2,
    ladder_settings,
    maximally_mixed,
    operator_norm,
    pauli_observable,
    plane_vector,
    product_ladder_settings,
    product_state,
    projectors,
    qubit_layout,
    qubit_state,
    row_dot,
    s2_square_closed_form,
    sequential_correlator,
    singlet_state,
    spatial_correlator,
    term_order,
    tsirelson_envelope,
    unit_vector,
    validate_density,
)
from term_rules import auto_assignment, reference_value, sequential_rule, tensor_rule

SQRT8 = 2.0 * np.sqrt(2.0)


def x(i):
    return VariableId("X", i)


def y(i):
    return VariableId("Y", i)


def random_direction(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def random_density(rng, dim):
    """Full-rank random state via a Wishart-style square."""
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


def random_settings(rng, variables):
    return {v: random_direction(rng) for v in variables}


HYBRID_VARS = (x(1), x(2), y(1), y(2))
HYBRID = derive_inequality(catalog.load_expression("hybrid.rsx"))


def hybrid_split(settings):
    """F, S1 and S2: the operators of the hybrid inequality, of its same-qubit terms and of its cross-qubit terms."""
    qubit = qubit_layout(HYBRID.variables())
    same = {m.variables: m.coefficient for m in HYBRID.terms if len({qubit[v] for v in m.variables}) == 1}
    cross = {m.variables: m.coefficient for m in HYBRID.terms if m.variables not in same}
    return tuple(inequality_operator(form, settings) for form in (HYBRID, same, cross))


class TestPauliAlgebra:
    def test_observable_squares_to_identity(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            obs = pauli_observable(random_direction(rng))
            assert np.abs(obs @ obs - ID2).max() < 1e-12
            assert np.abs(obs - obs.conj().T).max() == 0.0

    def test_observable_eigenvalues(self):
        rng = np.random.default_rng(8)
        eig = np.linalg.eigvalsh(pauli_observable(random_direction(rng)))
        assert np.allclose(sorted(eig), [-1.0, 1.0], atol=1e-12)

    def test_projectors_resolve_identity(self):
        plus, minus = projectors(plane_vector(0.4))
        assert np.abs(plus + minus - ID2).max() < 1e-12
        assert np.abs(plus @ plus - plus).max() < 1e-12
        assert np.abs(plus @ minus).max() < 1e-12

    def test_unit_vector_validation(self):
        with pytest.raises(NonUnitVector):
            unit_vector([1.0, 1.0, 0.0])
        with pytest.raises(NonUnitVector):
            unit_vector([1.0, 0.0])
        assert unit_vector([0.0, 0.0, 1.0]) @ plane_vector(0.0) == 1.0

    def test_ladder_settings_spacing(self):
        settings = ladder_settings(list(HYBRID_VARS), 0.1, 0.3)
        for i, var in enumerate(HYBRID_VARS):
            assert np.allclose(settings[var], plane_vector(0.1 + 0.3 * i))


class TestStates:
    def test_singlet_is_valid_pure_state(self):
        rho = validate_density(singlet_state())
        assert np.abs(rho @ rho - rho).max() < 1e-12

    def test_singlet_correlator_is_minus_dot(self):
        rng = np.random.default_rng(11)
        rho = singlet_state()
        for _ in range(50):
            a, b = random_direction(rng), random_direction(rng)
            assert spatial_correlator(rho, a, b) == pytest.approx(-a @ b, abs=1e-12)

    def test_qubit_state_polarization(self):
        n = random_direction(np.random.default_rng(12))
        rho = qubit_state(n)
        assert np.trace(rho @ pauli_observable(n)).real == pytest.approx(1.0, abs=1e-12)

    def test_product_state_factorizes(self):
        rng = np.random.default_rng(13)
        n_a, n_b = random_direction(rng), random_direction(rng)
        rho = validate_density(product_state(n_a, n_b))
        for _ in range(20):
            a, b = random_direction(rng), random_direction(rng)
            assert spatial_correlator(rho, a, b) == pytest.approx(
                (a @ n_a) * (b @ n_b), abs=1e-12
            )

    def test_maximally_mixed_has_no_correlations(self):
        rho = validate_density(maximally_mixed(4))
        assert spatial_correlator(rho, plane_vector(0.3), plane_vector(1.1)) == (
            pytest.approx(0.0, abs=1e-12)
        )

    def test_validate_density_rejects_bad_inputs(self):
        with pytest.raises(DimensionMismatch):
            validate_density(np.eye(3) / 3)
        with pytest.raises(NotHermitian):
            validate_density(np.array([[0.5, 0.5], [0.0, 0.5]]))
        with pytest.raises(ValueError, match="trace"):
            validate_density(np.eye(2))
        with pytest.raises(ValueError, match="negative"):
            validate_density(np.diag([1.5, -0.5]))


class TestSequential:
    def test_state_independence(self):
        """Collapse sum equals first.second regardless of the input state."""
        rng = np.random.default_rng(21)
        for trial in range(100):
            a, b = random_direction(rng), random_direction(rng)
            if trial % 2 == 0:
                rho = random_density(rng, 2)
                got = sequential_correlator(rho, a, b)
            else:
                rho = random_density(rng, 4)
                got = sequential_correlator(rho, a, b, subsystem=trial % 4 // 2)
            assert abs(got - a @ b) < 1e-10

    def test_magnitude_matches_singlet_spatial(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            a, b = random_direction(rng), random_direction(rng)
            seq = sequential_correlator(maximally_mixed(2), a, b)
            spa = spatial_correlator(singlet_state(), a, b)
            assert abs(seq) == pytest.approx(abs(spa), abs=1e-12)
            assert seq == pytest.approx(-spa, abs=1e-12)

    def test_two_qubit_state_needs_subsystem(self):
        with pytest.raises(DimensionMismatch):
            sequential_correlator(singlet_state(), plane_vector(0), plane_vector(1))
        with pytest.raises(DimensionMismatch):
            sequential_correlator(np.eye(8) / 8, plane_vector(0), plane_vector(1), 0)

    def test_order_matters_in_probabilities_not_correlator(self):
        """The correlator is symmetric even though collapse is not."""
        rng = np.random.default_rng(23)
        rho = random_density(rng, 2)
        a, b = random_direction(rng), random_direction(rng)
        assert sequential_correlator(rho, a, b) == pytest.approx(
            sequential_correlator(rho, b, a), abs=1e-12
        )


class TestAssignment:
    def test_cross_party_terms_are_tensor(self):
        ineq = derive_inequality(catalog.load_expression("chsh.rsx"))
        qubit = qubit_layout(ineq.variables())
        assert qubit == {x(1): 0, x(2): 0, y(1): 1, y(2): 1}
        for mono in ineq.terms:
            a, b = term_order(mono.variables, qubit)
            assert (a.letter, b.letter) == ("X", "Y")

    def test_same_party_terms_are_sequential(self):
        ineq = derive_inequality(catalog.load_expression("lg.rsx"))
        qubit = qubit_layout(ineq.variables(), catalog.load_scenario("lg.scn"))
        assert set(qubit.values()) == {0}
        for mono in ineq.terms:
            a, b = term_order(mono.variables, qubit)
            assert a < b

    def test_hybrid_mixes_both_kinds(self):
        ineq = derive_inequality(catalog.load_expression("hybrid.rsx"))
        scenario = catalog.load_scenario("hybrid.scn")
        qubit = qubit_layout(ineq.variables(), scenario)
        assert qubit == {x(1): 0, x(2): 0, y(1): 1, y(2): 1}
        assert qubit == qubit_layout(scenario.variables, scenario)
        pairs = [term_order(mono.variables, qubit) for mono in ineq.terms]
        assert sorted(qubit[a] for a, b in pairs if qubit[a] == qubit[b]) == [0, 1]

    def test_party_order_not_letter_order_picks_the_qubit(self):
        a, b = VariableId("A", 1), VariableId("B", 1)
        scenario = parse_scenario("variables: A1 B1\nparty Z: A1\nparty Y: B1")
        assert qubit_layout(scenario.variables, scenario) == {a: 1, b: 0}
        assert qubit_layout(scenario.variables) == {a: 0, b: 1}

    def test_letters_stand_in_for_parties(self):
        variables = (x(2), y(1), x(1))
        assert qubit_layout(variables) == qubit_layout(variables, letter_scenario(variables))

    def test_four_letters_without_scenario_raise(self):
        ineq = derive_inequality(catalog.load_expression("lg.rsx"))
        with pytest.raises(MissingAssignment):
            qubit_layout(ineq.variables())
        with pytest.raises(MissingAssignment):
            evaluate_inequality_quantum(ineq, maximally_mixed(2), {})

    def test_three_party_scenario_raises(self):
        scenario = parse_scenario("variables: X1 Y1 Z1")
        ineq = derive_inequality(parse_sos("(X1 + Y1 + Z1)^2 >= 1"))
        with pytest.raises(MissingAssignment, match="3 parties"):
            qubit_layout(scenario.variables, scenario)
        with pytest.raises(MissingAssignment, match="3 parties"):
            evaluate_inequality_quantum(ineq, singlet_state(), {}, scenario)

    def test_missing_setting_is_reported(self):
        ineq = derive_inequality(catalog.load_expression("chsh.rsx"))
        settings = {x(1): plane_vector(0.0)}
        with pytest.raises(MissingSetting):
            evaluate_inequality_quantum(ineq, singlet_state(), settings)

    def test_explicit_rules_match_auto(self):
        ineq = derive_inequality(catalog.load_expression("hybrid.rsx"))
        manual = {
            frozenset({x(1), x(2)}): sequential_rule(0, x(1), x(2)),
            frozenset({y(1), y(2)}): sequential_rule(1, y(1), y(2)),
            frozenset({x(1), y(2)}): tensor_rule(x(1), y(2)),
            frozenset({x(2), y(1)}): tensor_rule(x(2), y(1)),
        }
        assert auto_assignment(ineq) == manual
        rng = np.random.default_rng(41)
        rho, settings = random_density(rng, 4), random_settings(rng, HYBRID_VARS)
        assert evaluate_inequality_quantum(ineq, rho, settings) == reference_value(
            ineq, rho, settings, manual
        )


def _unit(components):
    v = np.array(components)
    return v / np.linalg.norm(v)


@st.composite
def _states(draw, dim):
    """A density matrix m m^dagger / tr from an arbitrary complex m."""
    cells = 2 * dim * dim
    parts = np.array(draw(st.lists(st.floats(-1, 1), min_size=cells, max_size=cells)))
    m = (parts[: cells // 2] + 1j * parts[cells // 2:]).reshape(dim, dim)
    rho = m @ m.conj().T
    assume(np.trace(rho).real > 1e-3)
    return rho / np.trace(rho).real


_DIRECTIONS = st.tuples(*[st.floats(-1, 1)] * 3).filter(lambda v: np.dot(v, v) > 1e-3).map(_unit)


class TestLayoutAgainstTermRules:
    """The qubit-layout evaluator against the old per-term rule tables, bit for bit."""

    CASES = {
        "chsh": (None, (4,)),
        "hybrid": ("hybrid.scn", (4,)),
        "lg": ("lg.scn", (2, 4)),
    }

    @settings(max_examples=60, deadline=None)
    @given(name=st.sampled_from(sorted(CASES)), data=st.data())
    def test_value_equals_the_rule_table_value(self, name, data):
        scenario_file, dims = self.CASES[name]
        ineq = derive_inequality(catalog.load_expression(f"{name}.rsx"))
        scenario = catalog.load_scenario(scenario_file) if scenario_file else None
        rho = data.draw(_states(data.draw(st.sampled_from(dims))))
        settings = {v: data.draw(_DIRECTIONS) for v in sorted(ineq.variables())}
        expected = reference_value(ineq, rho, settings, auto_assignment(ineq, scenario))
        assert evaluate_inequality_quantum(ineq, rho, settings, scenario) == expected


class TestCatalogQuantumValues:
    def test_chsh_reaches_tsirelson_on_singlet(self):
        ineq = derive_inequality(catalog.load_expression("chsh.rsx"))
        settings = {
            x(1): plane_vector(0.0),
            x(2): plane_vector(np.pi / 2),
            y(1): plane_vector(-3 * np.pi / 4),
            y(2): plane_vector(3 * np.pi / 4),
        }
        value = evaluate_inequality_quantum(ineq, singlet_state(), settings)
        assert value == pytest.approx(SQRT8, abs=1e-12)

    def test_lg_reaches_temporal_tsirelson(self):
        ineq = derive_inequality(catalog.load_expression("lg.rsx"))
        variables = [VariableId(c) for c in "JKLM"]
        settings = ladder_settings(variables, 0.0, -np.pi / 4)
        value = evaluate_inequality_quantum(
            ineq, maximally_mixed(2), settings, catalog.load_scenario("lg.scn")
        )
        assert value == pytest.approx(SQRT8, abs=1e-12)

    def test_lg_value_is_state_independent(self):
        ineq = derive_inequality(catalog.load_expression("lg.rsx"))
        variables = [VariableId(c) for c in "JKLM"]
        settings = ladder_settings(variables, 0.7, -np.pi / 4)
        rng = np.random.default_rng(31)
        values = {
            evaluate_inequality_quantum(
                ineq, random_density(rng, 2), settings, catalog.load_scenario("lg.scn")
            )
            for _ in range(5)
        }
        assert max(values) - min(values) < 1e-12


class TestHybridValues:
    def test_singlet_value_at_descending_ladder(self):
        ineq = derive_inequality(catalog.load_expression("hybrid.rsx"))
        value = evaluate_inequality_quantum(ineq, singlet_state(), hybrid_settings())
        assert value == pytest.approx(SQRT8, abs=1e-12)

    def test_product_value_at_ascending_ladder(self):
        ineq = derive_inequality(catalog.load_expression("hybrid.rsx"))
        settings = product_ladder_settings()
        n = settings[y(2)]
        analytic = hybrid_f_product(n, n, settings)
        matrix = evaluate_inequality_quantum(ineq, product_state(n, n), settings)
        assert analytic == pytest.approx(3.0 / np.sqrt(2.0), abs=1e-12)
        assert matrix == pytest.approx(analytic, abs=1e-12)

    def test_product_paths_agree_on_random_inputs(self):
        ineq = derive_inequality(catalog.load_expression("hybrid.rsx"))
        rng = np.random.default_rng(41)
        for _ in range(30):
            settings = random_settings(rng, HYBRID_VARS)
            n_a, n_b = random_direction(rng), random_direction(rng)
            analytic = hybrid_f_product(n_a, n_b, settings)
            matrix = evaluate_inequality_quantum(
                ineq, product_state(n_a, n_b), settings
            )
            assert matrix == pytest.approx(analytic, abs=1e-12)

    def test_operator_expectation_matches_term_sum(self):
        ineq = derive_inequality(catalog.load_expression("hybrid.rsx"))
        rng = np.random.default_rng(42)
        for _ in range(10):
            settings = random_settings(rng, HYBRID_VARS)
            rho = random_density(rng, 4)
            f_op = inequality_operator(ineq, settings)
            direct = float(np.trace(rho @ f_op).real)
            summed = evaluate_inequality_quantum(ineq, rho, settings)
            assert direct == pytest.approx(summed, abs=1e-12)

    def test_invalid_state_refused_before_any_correlator(self):
        ineq = derive_inequality(catalog.load_expression("hybrid.rsx"))
        with pytest.raises(ValueError, match="trace"):
            evaluate_inequality_quantum(ineq, 3 * singlet_state(), hybrid_settings())
        skewed = maximally_mixed(4).astype(complex)
        skewed[0, 1] = 0.1
        with pytest.raises(NotHermitian):
            evaluate_inequality_quantum(ineq, skewed, hybrid_settings())

    def test_operator_split_structure(self):
        rng = np.random.default_rng(43)
        settings = random_settings(rng, HYBRID_VARS)
        f_op, s1, s2 = hybrid_split(settings)
        assert np.abs(f_op - (s1 + s2)).max() == 0.0
        # sequential part is a multiple of the identity
        assert np.abs(s1 - s1[0, 0] * ID4).max() == 0.0
        assert np.abs(np.trace(s2)) < 1e-12

    def test_singlet_norm_at_ladder(self):
        f_op = inequality_operator(HYBRID, hybrid_settings())
        assert operator_norm(f_op) == pytest.approx(SQRT8, abs=1e-12)


# shipped form, its scenario file (None: the letter layout) and the operator's dimension
OPERATOR_CASES = [
    ("chsh", "chsh.scn", 4),
    ("hybrid", "hybrid.scn", 4),
    ("lg", "lg.scn", 2),
    ("chsh", None, 4),
    ("hybrid", None, 4),
]


def _shipped(name, scn):
    ineq = derive_inequality(catalog.load_expression(f"{name}.rsx"))
    variables = sorted(ineq.variables(), key=VariableId.sort_key)
    return ineq, variables, scn and catalog.load_scenario(scn)


class TestInequalityOperator:
    """tr(rho O) against the term-by-term value on every shipped form, stacks row by row, and the refusals."""

    @pytest.mark.parametrize("name, scn, dim", OPERATOR_CASES)
    def test_expectation_is_the_evaluated_value(self, name, scn, dim):
        ineq, variables, scenario = _shipped(name, scn)
        rng = np.random.default_rng(81)
        for _ in range(200):
            settings = random_settings(rng, variables)
            rho = random_density(rng, dim)
            op = inequality_operator(ineq, settings, scenario)
            assert op.shape == (dim, dim)
            expected = evaluate_inequality_quantum(ineq, rho, settings, scenario)
            assert abs(np.trace(rho @ op).real - expected) <= 1e-12

    @pytest.mark.parametrize("name, scn, dim", OPERATOR_CASES)
    def test_stack_rows_are_their_own_operators(self, name, scn, dim):
        ineq, variables, scenario = _shipped(name, scn)
        raw = np.random.default_rng(82).normal(size=(len(variables), 30, 3))
        stacks = dict(zip(variables, raw / np.sqrt(row_dot(raw, raw))[..., None]))
        stacked = inequality_operator(ineq, stacks, scenario)
        assert stacked.shape == (30, dim, dim)
        for k in range(30):
            row = inequality_operator(ineq, {v: rows[k] for v, rows in stacks.items()}, scenario)
            assert _same_bits(stacked[k], row)

    def test_lg_is_a_multiple_of_the_identity(self):
        """A second route to the temporal value: the norm of (sum of c a.b) I at demo 03's ladder."""
        lg, times, scenario = _shipped("lg", "lg.scn")
        op = inequality_operator(lg, ladder_settings(times, 0.0, -np.pi / 4), scenario)
        assert op.shape == (2, 2)
        assert np.array_equal(op, op[0, 0] * ID2)
        assert abs(operator_norm(op) - SQRT8) <= 1e-12

    def test_missing_setting_raises(self):
        settings = hybrid_settings()
        del settings[y(2)]
        with pytest.raises(MissingSetting, match="Y2"):
            inequality_operator(HYBRID, settings)

    def test_three_parties_raise(self):
        z1 = VariableId("Z", 1)
        settings = {**hybrid_settings(), z1: plane_vector(0.3)}
        with pytest.raises(MissingAssignment, match="3 parties"):
            inequality_operator({(x(1), y(1)): 1, (x(1), z1): 1}, settings)

    def test_context_on_one_qubit_is_refused(self):
        """kcbs.scn declares X1 X2 jointly measurable, but both sit on one qubit."""
        kcbs, variables, scenario = _shipped("kcbs", "kcbs.scn")
        settings = ladder_settings(variables, 0.0, 4 * np.pi / 5)
        with pytest.raises(InconsistentContext, match="X1,X2"):
            inequality_operator(kcbs, settings, scenario)
        op = inequality_operator(kcbs, settings)  # the letter layout declares no contexts
        rho = random_density(np.random.default_rng(83), 2)
        assert op.shape == (2, 2)
        assert np.trace(rho @ op).real == pytest.approx(evaluate_inequality_quantum(kcbs, rho, settings), abs=1e-12)

    def test_evaluator_refuses_a_context_on_one_qubit(self):
        """The evaluator shares the operator's guard.  Read in sequence, kcbs.scn's pairs on the
        maximally mixed qubit at the 4pi/5 ladder would give -5 cos(pi/5), below the classical -3."""
        kcbs, variables, scenario = _shipped("kcbs", "kcbs.scn")
        settings = ladder_settings(variables, 0.0, 4 * np.pi / 5)
        with pytest.raises(InconsistentContext, match="X1,X2"):
            evaluate_inequality_quantum(kcbs, maximally_mixed(2), settings, scenario)
        # the letter layout declares no contexts
        value = evaluate_inequality_quantum(kcbs, maximally_mixed(2), settings)
        assert value == pytest.approx(-5 * np.cos(np.pi / 5), abs=1e-12)
        for name, dim in (("chsh", 4), ("hybrid", 4), ("lg", 2)):
            ineq, names, scn = _shipped(name, f"{name}.scn")
            ladder = ladder_settings(names, 0.0, np.pi / 4)
            assert np.isfinite(evaluate_inequality_quantum(ineq, maximally_mixed(dim), ladder, scn))

    @pytest.mark.parametrize("form", [{}, {(x(1),): 1}, {(): 2, (x(1), y(1)): 1}, {(x(1), y(1), y(2)): 1}])
    def test_a_key_that_is_no_pair_raises(self, form):
        with pytest.raises(ValueError, match="pair of variables"):
            inequality_operator(form, hybrid_settings())


class TestS2Square:
    def test_closed_form_matches_matrix_square(self):
        rng = np.random.default_rng(51)
        for _ in range(100):
            settings = random_settings(rng, HYBRID_VARS)
            _, _, s2 = hybrid_split(settings)
            closed = s2_square_closed_form(settings)
            assert np.abs(s2 @ s2 - closed).max() < 1e-12

    def test_square_is_bounded_by_four(self):
        rng = np.random.default_rng(52)
        for _ in range(50):
            settings = random_settings(rng, HYBRID_VARS)
            top = np.linalg.eigvalsh(s2_square_closed_form(settings)).max()
            assert top <= 4.0 + 1e-12

    def test_coplanar_square_spans_identity_and_yy(self):
        """In-plane settings make both cross products parallel to y."""
        settings = ladder_settings(list(HYBRID_VARS), 0.2, 0.5)
        closed = s2_square_closed_form(settings)
        alpha, beta = closed[0, 0], -closed[0, 3]
        rebuilt = alpha * ID4 + beta * np.kron(PAULI_Y, PAULI_Y)
        assert np.abs(closed - rebuilt).max() < 1e-12


def _reference_sigma(n):
    return n[0] * PAULI_X + n[1] * PAULI_Y + n[2] * PAULI_Z


def _reference_f_operator(settings):
    """The hybrid's F, S1 and S2 for one settings map, as its dedicated builder wrote them before stacking."""
    x1, x2, y1, y2 = (settings[v] for v in HYBRID_VARS)
    s1 = float(x1 @ x2 + y1 @ y2) * ID4
    s2 = np.kron(_reference_sigma(x1), _reference_sigma(y2)) - np.kron(
        _reference_sigma(x2), _reference_sigma(y1)
    )
    return s1 + s2, s1, s2


def _reference_closed_form(settings):
    x1, x2, y1, y2 = (settings[v] for v in HYBRID_VARS)
    cross = np.kron(_reference_sigma(np.cross(x1, x2)), _reference_sigma(np.cross(y1, y2)))
    return 2.0 * (ID4 * (1.0 - (x1 @ x2) * (y1 @ y2)) - cross)


def _reference_trials(seed):
    """The s2-identity target trial by trial: S2, its closed form and |S2^2 - closed|."""
    rng = np.random.default_rng(seed)
    s2s, closed = [], []
    for _ in range(100):
        raw = rng.normal(size=(4, 3))
        settings = {v: row / np.linalg.norm(row) for v, row in zip(HYBRID_VARS, raw)}
        s2s.append(_reference_f_operator(settings)[2])
        closed.append(_reference_closed_form(settings))
    s2s, closed = np.array(s2s), np.array(closed)
    return s2s, closed, np.abs(s2s @ s2s - closed)


def _stacked_settings(seed):
    raw = np.random.default_rng(seed).normal(size=(100, 4, 3))
    return dict(zip(HYBRID_VARS, np.moveaxis(raw / np.sqrt(row_dot(raw, raw))[..., None], 1, 0)))


def _same_bits(got, expected):
    parts = ((got.real, expected.real), (got.imag, expected.imag))
    return got.shape == expected.shape and all(
        np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b)) for a, b in parts
    )


S2_SEEDS = [12345, *range(21)]


class TestStackedS2:
    """Settings stacked over trials against the trial-by-trial reference, bit for bit."""

    @pytest.mark.parametrize("seed", S2_SEEDS)
    def test_stack_matches_the_trial_loop(self, seed):
        settings = _stacked_settings(seed)
        _, _, s2 = hybrid_split(settings)
        closed = s2_square_closed_form(settings)
        ref_s2, ref_closed, ref_deviation = _reference_trials(seed)
        assert _same_bits(s2, ref_s2)
        assert _same_bits(closed, ref_closed)
        assert _same_bits(np.abs(s2 @ s2 - closed), ref_deviation)

    @pytest.mark.parametrize("seed", S2_SEEDS)
    def test_cli_reports_the_loop_maximum(self, capsys, seed):
        code = main(["reproduce", "s2-identity", "--seed", str(seed), "--format", "json"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["max_deviation"] == float(_reference_trials(seed)[2].max())

    def test_single_vectors_keep_their_bits(self):
        rng = np.random.default_rng(53)
        for _ in range(50):
            settings = random_settings(rng, HYBRID_VARS)
            got, expected = hybrid_split(settings), _reference_f_operator(settings)
            assert all(_same_bits(a, b) for a, b in zip(got, expected))
            assert _same_bits(s2_square_closed_form(settings), _reference_closed_form(settings))
            n = settings[x(1)]
            assert _same_bits(pauli_observable(n), _reference_sigma(n))

    def test_stack_rows_are_their_own_operators(self):
        settings = _stacked_settings(7)
        stacked = hybrid_split(settings)
        for k in (0, 41, 99):
            row = hybrid_split({v: rows[k] for v, rows in settings.items()})
            assert all(_same_bits(a[k], b) for a, b in zip(stacked, row))

    @pytest.mark.parametrize(
        "build", [pytest.param(hybrid_split, id="inequality_operator"), s2_square_closed_form]
    )
    def test_one_non_unit_row_raises(self, build):
        settings = _stacked_settings(3)
        settings[y(1)] = settings[y(1)].copy()
        settings[y(1)][17] *= 1.001
        with pytest.raises(NonUnitVector, match="1.001"):
            build(settings)

    def test_unit_vector_refuses_other_shapes(self):
        unit = np.tile([0.0, 0.0, 1.0], (2, 1))
        assert np.array_equal(unit_vector(unit, rows=True), unit)
        for shape, rows in (((3, 3, 3), True), ((4, 2), True), ((), True), ((2, 3), False)):
            with pytest.raises(NonUnitVector, match="3 components"):
                unit_vector(np.ones(shape) / np.sqrt(3), rows=rows)

    def test_kron2_is_np_kron(self):
        rng = np.random.default_rng(54)
        a = rng.normal(size=(5, 2, 2)) + 1j * rng.normal(size=(5, 2, 2))
        b = rng.normal(size=(5, 2, 2)) + 1j * rng.normal(size=(5, 2, 2))
        assert _same_bits(kron2(a, b), np.array([np.kron(p, q) for p, q in zip(a, b)]))
        assert _same_bits(kron2(a[0], ID2), np.kron(a[0], ID2))
        assert _same_bits(kron2(ID2, b[1]), np.kron(ID2, b[1]))


class TestEnvelope:
    def test_known_values(self):
        assert tsirelson_envelope(np.pi / 4, -np.pi / 4) == pytest.approx(
            SQRT8, abs=1e-12
        )
        assert tsirelson_envelope(0.0, 0.0) == pytest.approx(2.0, abs=1e-12)
        assert tsirelson_envelope(np.pi / 2, np.pi / 2) == pytest.approx(0.0, abs=1e-12)

    def test_scalars_give_a_float_and_arrays_broadcast(self):
        assert type(tsirelson_envelope(0.3, -0.2)) is float
        t1 = np.array([0.3, np.pi / 4])[:, None]
        t2 = np.array([-0.2, -np.pi / 4, 1.0])
        values = tsirelson_envelope(t1, t2)
        assert values.shape == (2, 3)
        for i, j in np.ndindex(values.shape):
            assert values[i, j] == tsirelson_envelope(float(t1[i, 0]), float(t2[j]))

    def test_never_exceeds_tsirelson(self):
        rng = np.random.default_rng(61)
        for _ in range(500):
            t1, t2 = rng.uniform(-np.pi, np.pi, size=2)
            assert tsirelson_envelope(t1, t2) <= SQRT8 + 1e-12

    def test_matches_operator_norm_at_ladder(self):
        """theta1 = pi/4, theta2 = -pi/4 is the descending ladder geometry."""
        f_op = inequality_operator(HYBRID, hybrid_settings())
        assert tsirelson_envelope(np.pi / 4, -np.pi / 4) == pytest.approx(
            operator_norm(f_op), abs=1e-12
        )

    def test_symmetric_in_sign_flip(self):
        rng = np.random.default_rng(62)
        for _ in range(50):
            t1, t2 = rng.uniform(-np.pi, np.pi, size=2)
            assert tsirelson_envelope(t1, t2) == pytest.approx(
                tsirelson_envelope(-t1, -t2), abs=1e-12
            )


class TestOperatorNorm:
    def test_against_high_precision_eigenvalues(self):
        rng = np.random.default_rng(71)
        with mpmath.workdps(40):
            for _ in range(20):
                m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
                herm = (m + m.conj().T) / 2
                expected = max(
                    abs(e)
                    for e in mpmath.eighe(mpmath.matrix(herm), eigvals_only=True)
                )
                assert operator_norm(herm) == pytest.approx(
                    float(expected), abs=1e-10
                )

    def test_rejects_bad_inputs(self):
        with pytest.raises(DimensionMismatch):
            operator_norm(np.ones((2, 3)))
        with pytest.raises(NotHermitian):
            operator_norm(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_pauli_norms(self):
        for sigma in (PAULI_X, PAULI_Y, PAULI_Z):
            assert operator_norm(sigma) == pytest.approx(1.0, abs=1e-14)
