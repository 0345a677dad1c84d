"""Settings search, budget handling, and the coplanar envelope scan."""

import numpy as np
import pytest

from corrineq import catalog
from corrineq.dsl import VariableId
from corrineq.errors import BudgetExhausted
from corrineq.optimize import (
    PRODUCT_FAMILY,
    EnvelopeScan,
    OptimizationResult,
    SettingsParametrization,
    envelope_grid,
    envelope_settings,
    maximize_violation,
    scan_envelope,
)
from corrineq.polynomials import derive_inequality
from corrineq.quantum import (
    build_f_operator,
    evaluate_inequality_quantum,
    hybrid_settings,
    maximally_mixed,
    operator_norm,
    product_state,
    singlet_state,
    tsirelson_envelope,
    validate_density,
)

SQRT8 = 2.0 * np.sqrt(2.0)


def x(i):
    return VariableId("X", i)


def y(i):
    return VariableId("Y", i)


@pytest.fixture(scope="module")
def chsh():
    return derive_inequality(catalog.chsh_source())


@pytest.fixture(scope="module")
def hybrid():
    return derive_inequality(catalog.hybrid_source())


class TestMaximizeViolation:
    def test_chsh_reaches_tsirelson(self, chsh):
        result = maximize_violation(chsh, singlet_state())
        assert result.converged
        assert result.direction == "max"
        assert result.value == pytest.approx(SQRT8, abs=1e-6)

    def test_hybrid_reaches_tsirelson(self, hybrid):
        result = maximize_violation(hybrid, singlet_state())
        assert result.value == pytest.approx(SQRT8, abs=1e-6)

    def test_result_is_consistent_with_own_settings(self, hybrid):
        result = maximize_violation(hybrid, singlet_state())
        replay = evaluate_inequality_quantum(
            hybrid, result.state, result.settings
        )
        assert replay == pytest.approx(result.value, abs=1e-12)
        f_op, _, _ = build_f_operator(result.settings)
        assert result.value <= operator_norm(f_op) + 1e-9
        assert result.value == pytest.approx(operator_norm(f_op), abs=1e-9)

    def test_seeds_do_not_move_the_grid_path(self, hybrid):
        values = [
            maximize_violation(hybrid, singlet_state(), seed=s).value
            for s in range(8)
        ]
        assert max(values) - min(values) == 0.0

    def test_lower_bound_inequalities_are_minimized(self):
        """The pentagon cycle sum dips to -5 cos(pi/5) for qubit chains."""
        kcbs = derive_inequality(catalog.kcbs_source())
        result = maximize_violation(kcbs, maximally_mixed(2), grid_points=12)
        assert result.direction == "min"
        assert result.value == pytest.approx(-5 * np.cos(np.pi / 5), abs=1e-6)
        assert -5.0 < result.value < -3.0  # between the algebraic and classical bounds

    def test_product_family_search(self, hybrid):
        result = maximize_violation(hybrid, PRODUCT_FAMILY, grid_points=12)
        rho = validate_density(result.state)
        assert result.value >= 3.0 / np.sqrt(2.0) - 1e-6
        assert result.value == pytest.approx(2.5, abs=1e-6)
        assert result.value < SQRT8
        replay = evaluate_inequality_quantum(hybrid, rho, result.settings)
        assert replay == pytest.approx(result.value, abs=1e-12)

    def test_untied_product_states_do_no_better(self, hybrid):
        parametrization = SettingsParametrization(
            (x(1), x(2), y(1), y(2)), mode=PRODUCT_FAMILY, tied_state=False
        )
        result = maximize_violation(
            hybrid, PRODUCT_FAMILY, parametrization, grid_points=8
        )
        assert result.value == pytest.approx(2.5, abs=1e-6)

    def test_full_sphere_finds_no_off_plane_maximum(self, hybrid):
        parametrization = SettingsParametrization(
            (x(1), x(2), y(1), y(2)),
            rho=singlet_state(),
            full_sphere=True,
        )
        result = maximize_violation(
            hybrid, singlet_state(), parametrization, grid_points=6
        )
        assert result.value == pytest.approx(SQRT8, abs=1e-6)

    def test_scenario_resolves_single_party_letters(self):
        lg = derive_inequality(catalog.lg_source())
        result = maximize_violation(
            lg, maximally_mixed(2), scenario=catalog.lg_scenario()
        )
        assert result.value == pytest.approx(SQRT8, abs=1e-6)

    def test_budget_running_out_in_grid_keeps_best_of_finished_chunks(self, hybrid):
        # three 65,536-cell chunks fit in the budget, the fourth overruns it
        with pytest.raises(BudgetExhausted) as excinfo:
            maximize_violation(hybrid, singlet_state(), budget=200_000)
        best = excinfo.value.best
        assert not best.converged
        assert best.evaluations == 4 * (1 << 16)
        assert best.value == pytest.approx(SQRT8, abs=1e-12)

    def test_budget_exhausted_carries_best_so_far(self, chsh):
        with pytest.raises(BudgetExhausted) as excinfo:
            maximize_violation(chsh, singlet_state(), budget=10)
        best = excinfo.value.best
        assert isinstance(best, OptimizationResult)
        assert not best.converged
        assert np.isfinite(best.value)

    def test_more_budget_never_hurts(self, chsh):
        try:
            maximize_violation(chsh, singlet_state(), budget=300, grid_points=4)
            truncated = None
        except BudgetExhausted as exc:
            truncated = exc.best.value
        full = maximize_violation(chsh, singlet_state(), grid_points=4)
        assert full.converged
        if truncated is not None:
            assert full.value >= truncated - 1e-12

    def test_rejects_unknown_state_family(self, chsh):
        with pytest.raises(ValueError):
            maximize_violation(chsh, "thermal")


class TestParametrization:
    def test_names_and_dimension(self):
        fixed = SettingsParametrization((x(1), y(1)), rho=singlet_state())
        assert fixed.names == ("theta_X1", "theta_Y1")
        assert fixed.dimension == 2

        tied = SettingsParametrization((x(1), y(1)), mode=PRODUCT_FAMILY)
        assert tied.names == ("theta_X1", "theta_Y1", "theta_nA")

        untied = SettingsParametrization(
            (x(1), y(1)), mode=PRODUCT_FAMILY, tied_state=False, full_sphere=True
        )
        assert untied.names == (
            "theta_X1",
            "phi_X1",
            "theta_Y1",
            "phi_Y1",
            "theta_nA",
            "phi_nA",
            "theta_nB",
            "phi_nB",
        )

    def test_realize_fixed_state(self):
        rho = singlet_state()
        p = SettingsParametrization((x(1), y(1)), rho=rho)
        state, settings = p.realize(np.array([0.0, np.pi / 2]))
        assert state is rho
        assert np.allclose(settings[x(1)], [0.0, 0.0, 1.0])
        assert np.allclose(settings[y(1)], [1.0, 0.0, 0.0], atol=1e-15)

    def test_realize_product_state(self):
        p = SettingsParametrization((x(1),), mode=PRODUCT_FAMILY)
        state, _ = p.realize(np.zeros(2))
        expected = product_state([0.0, 0.0, 1.0], [0.0, 0.0, 1.0])
        assert np.abs(state - expected).max() < 1e-15

    def test_batch_vectors_shapes(self):
        p = SettingsParametrization(
            (x(1), x(2)), mode=PRODUCT_FAMILY, tied_state=False
        )
        vectors, n_a, n_b = p.batch_vectors(np.zeros((5, p.dimension)))
        assert vectors[x(1)].shape == (5, 3)
        assert n_a.shape == (5, 3) and n_b.shape == (5, 3)
        assert np.allclose(np.linalg.norm(n_a, axis=1), 1.0)

    def test_invalid_configurations(self):
        with pytest.raises(ValueError):
            SettingsParametrization((x(1),), mode="thermal")
        with pytest.raises(ValueError):
            SettingsParametrization((x(1),), mode="fixed")


class TestEnvelopeScan:
    def test_grid_matches_scalar_envelope(self):
        rng = np.random.default_rng(3)
        t1 = rng.uniform(-np.pi, np.pi, size=7)
        t2 = rng.uniform(-np.pi, np.pi, size=9)
        grid = envelope_grid(t1, t2)
        assert grid.shape == (7, 9)
        for i in range(7):
            for j in range(9):
                assert grid[i, j] == pytest.approx(
                    tsirelson_envelope(t1[i], t2[j]), abs=1e-15
                )

    def test_dense_scan_approaches_tsirelson(self):
        scan = scan_envelope(1000)
        assert isinstance(scan, EnvelopeScan)
        assert scan.max_value == pytest.approx(2.8284192633035636, abs=1e-12)
        assert 0.0 < SQRT8 - scan.max_value < 1e-5
        assert float(scan.values.max()) <= SQRT8 + 1e-12
        # argmax sits one grid cell from a (pi/4, -pi/4) partner
        spacing = 2 * np.pi / 999
        t1, t2 = scan.argmax
        off = min(
            np.hypot(t1 - s * np.pi / 4, t2 + s * np.pi / 4) for s in (1, -1)
        )
        assert off < 2 * spacing

    def test_rows_cover_the_grid(self):
        scan = scan_envelope(5)
        rows = list(scan.rows())
        assert len(rows) == 25
        values = {(t1, t2): v for t1, t2, v in rows}
        assert max(values.values()) == scan.max_value

    def test_minimum_resolution(self):
        with pytest.raises(ValueError):
            scan_envelope(1)
        scan = scan_envelope(2)
        assert scan.max_value == pytest.approx(2.0, abs=1e-12)

    def test_settings_realize_the_envelope_on_saturating_region(self):
        """Where the largest eigenvalue keeps its sign, the two agree."""
        rng = np.random.default_rng(5)
        checked = 0
        while checked < 60:
            t1, t2 = rng.uniform(-np.pi, np.pi, size=2)
            if np.cos(t1) + np.cos(t2) < 0 or np.sin(t1) * np.sin(t2) > 0:
                continue
            f_op, _, _ = build_f_operator(envelope_settings(t1, t2))
            assert tsirelson_envelope(t1, t2) == pytest.approx(
                operator_norm(f_op), abs=1e-12
            )
            checked += 1

    def test_envelope_never_exceeds_the_norm(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            t1, t2 = rng.uniform(-np.pi, np.pi, size=2)
            f_op, _, _ = build_f_operator(envelope_settings(t1, t2))
            assert tsirelson_envelope(t1, t2) <= operator_norm(f_op) + 1e-12

    def test_ladder_point_saturates(self):
        settings = envelope_settings(np.pi / 4, -np.pi / 4)
        reference = hybrid_settings()
        for var, vec in reference.items():
            assert np.allclose(settings[var], vec, atol=1e-15)
        assert tsirelson_envelope(np.pi / 4, -np.pi / 4) == pytest.approx(
            SQRT8, abs=1e-12
        )
