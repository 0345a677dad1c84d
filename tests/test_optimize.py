"""Settings search, budget handling, and the coplanar envelope scan."""

import tracemalloc
import warnings
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest

from corrineq import catalog, optimize
from corrineq.cli import main
from corrineq.dsl import VariableId, parse_sos
from corrineq.errors import BudgetExhausted, DimensionMismatch, EvenGroupWarning, InconsistentContext
from corrineq.optimize import (
    DEFAULT_BUDGET,
    GRID_CELL_CAP,
    PRODUCT_FAMILY,
    EnvelopeScan,
    OptimizationResult,
    SettingsParametrization,
    maximize_violation,
    scan_envelope,
)
from corrineq.polynomials import CorrelationInequality, Monomial, derive_inequality
from corrineq.quantum import (
    evaluate_inequality_quantum,
    hybrid_settings,
    inequality_operator,
    maximally_mixed,
    operator_norm,
    plane_vector,
    product_state,
    singlet_state,
    tsirelson_envelope,
    validate_density,
)
from term_rules import SEQUENTIAL, TENSOR, auto_assignment, reference_value

SQRT8 = 2.0 * np.sqrt(2.0)


def envelope_settings(theta1, theta2):
    """Coplanar settings whose operator realizes an envelope grid point.

    The X pair opens clockwise by theta1 from the z axis, the Y pair
    counter-clockwise by theta2 from a quarter turn below; at the
    saturating angles this reproduces the descending pi/4 ladder.
    """
    return {
        VariableId("X", 1): plane_vector(0.0),
        VariableId("X", 2): plane_vector(-theta1),
        VariableId("Y", 1): plane_vector(-np.pi / 2),
        VariableId("Y", 2): plane_vector(-np.pi / 2 + theta2),
    }


def x(i):
    return VariableId("X", i)


def y(i):
    return VariableId("Y", i)


@pytest.fixture(scope="module")
def chsh():
    return derive_inequality(catalog.load_expression("chsh.rsx"))


@pytest.fixture(scope="module")
def hybrid():
    return derive_inequality(catalog.load_expression("hybrid.rsx"))


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
        f_op = inequality_operator(hybrid, result.settings)
        assert result.value <= operator_norm(f_op) + 1e-9
        assert result.value == pytest.approx(operator_norm(f_op), abs=1e-9)

    def test_seeds_do_not_move_the_grid_path(self, hybrid):
        values = [
            maximize_violation(hybrid, singlet_state(), seed=s).value
            for s in range(8)
        ]
        assert max(values) - min(values) == 0.0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_starts_past_the_grid_cap(self, seed, monkeypatch):
        """Chained Bell with three settings a party, X1Y1 + Y1X2 + X2Y2 + Y2X3
        + X3Y3 - Y3X1 <= 4: six angles, so the default grid has 24^6 > 2^24
        cells and the search starts from seeded uniform points instead.  The
        singlet reaches 6 cos(pi/6) = 3 sqrt(3) (Wehner, PRA 73, 022110, 2006)."""
        def no_grid(*args):
            raise AssertionError("the grid scan ran")

        monkeypatch.setattr(optimize, "_grid_scan", no_grid)
        chain = (x(1), y(1), x(2), y(2), x(3), y(3))
        terms = tuple(Monomial(frozenset({a, b}), 1) for a, b in zip(chain, chain[1:]))
        chained = CorrelationInequality(terms + (Monomial(frozenset({y(3), x(1)}), -1),), "<=", Fraction(4))
        assert optimize.DEFAULT_GRID_POINTS**6 > GRID_CELL_CAP
        result = maximize_violation(chained, singlet_state(), seed=seed)
        again = maximize_violation(chained, singlet_state(), seed=seed)
        assert result.converged
        assert result.value == pytest.approx(3 * np.sqrt(3), abs=1e-9)
        assert again.value == result.value
        assert again.parameters.tobytes() == result.parameters.tobytes()
        assert evaluate_inequality_quantum(chained, result.state, result.settings) == result.value

    def test_lower_bound_inequalities_are_minimized(self):
        """The pentagon cycle sum dips to -5 cos(pi/5) for qubit chains."""
        kcbs = derive_inequality(catalog.load_expression("kcbs.rsx"))
        result = maximize_violation(kcbs, maximally_mixed(2), grid_points=12)
        assert result.direction == "min"
        assert result.value == pytest.approx(-5 * np.cos(np.pi / 5), abs=1e-6)
        assert -5.0 < result.value < -3.0  # between the algebraic and classical bounds

    def test_a_context_on_one_qubit_is_refused_before_the_search(self):
        """kcbs.scn makes each neighbour pair jointly measurable, which one qubit reads only in sequence."""
        kcbs = derive_inequality(catalog.load_expression("kcbs.rsx"))
        with pytest.raises(InconsistentContext, match="X1,X2"):  # not BudgetExhausted: no point is scored
            maximize_violation(kcbs, maximally_mixed(2), budget=1, scenario=catalog.load_scenario("kcbs.scn"))

    def test_product_family_search(self, hybrid):
        result = maximize_violation(hybrid, PRODUCT_FAMILY, grid_points=12)
        rho = validate_density(result.state)
        assert result.value >= 3.0 / np.sqrt(2.0) - 1e-6
        assert result.value == pytest.approx(2.5, abs=1e-6)
        assert result.value < SQRT8
        replay = evaluate_inequality_quantum(hybrid, rho, result.settings)
        assert replay == pytest.approx(result.value, abs=1e-12)

    def test_untied_product_states_do_no_better(self, hybrid):
        result = maximize_violation(hybrid, PRODUCT_FAMILY, grid_points=8, tied_state=False)
        assert result.value == pytest.approx(2.5, abs=1e-6)

    def test_full_sphere_finds_no_off_plane_maximum(self, hybrid):
        result = maximize_violation(hybrid, singlet_state(), grid_points=6, full_sphere=True)
        assert result.value == pytest.approx(SQRT8, abs=1e-6)

    def test_scenario_resolves_single_party_letters(self):
        lg = derive_inequality(catalog.load_expression("lg.rsx"))
        result = maximize_violation(
            lg, maximally_mixed(2), scenario=catalog.load_scenario("lg.scn")
        )
        assert result.value == pytest.approx(SQRT8, abs=1e-6)

    def test_budget_running_out_in_grid_keeps_best_of_finished_chunks(self, hybrid):
        # three 65,536-cell chunks fit in the budget; the fourth is scored
        # up to the budget, and the search stops there
        with pytest.raises(BudgetExhausted) as excinfo:
            maximize_violation(hybrid, singlet_state(), budget=200_000)
        best = excinfo.value.best
        assert not best.converged
        assert best.evaluations == 200_000
        assert best.value == pytest.approx(SQRT8, abs=1e-12)

    def test_budget_exhausted_carries_best_so_far(self, chsh):
        with pytest.raises(BudgetExhausted) as excinfo:
            maximize_violation(chsh, singlet_state(), budget=10)
        best = excinfo.value.best
        assert isinstance(best, OptimizationResult)
        assert not best.converged
        assert np.isfinite(best.value)
        # only the first ten grid cells were scored, and best is one of them
        assert best.evaluations == 10
        axis = optimize._grid_axes(optimize.DEFAULT_GRID_POINTS)
        cells = [axis[list(np.unravel_index(i, (len(axis),) * 4))] for i in range(10)]
        assert any(np.array_equal(best.parameters, cell) for cell in cells)

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
        with pytest.raises(ValueError, match="unknown state family 'thermal'"):
            maximize_violation(chsh, "thermal")

    @pytest.mark.parametrize("state, error, message", [
        (3 * singlet_state(), ValueError, "expected 1"),
        (maximally_mixed(2), DimensionMismatch, "needs a 4x4 state"),  # CHSH's terms cross the qubits
    ], ids=["trace-3", "one-qubit"])
    def test_a_bad_state_raises_before_the_grid_scan(self, chsh, state, error, message, monkeypatch):
        """The state is checked once, up front, not by the final re-evaluation."""
        def no_grid(*args):
            raise AssertionError("the grid scan ran")

        monkeypatch.setattr(optimize, "_grid_scan", no_grid)
        with pytest.raises(error, match=message):
            maximize_violation(chsh, state)

    @pytest.mark.parametrize("grid_points", [0, -3, 2.0, "24", True, None])
    def test_rejects_bad_grid_points(self, chsh, grid_points):
        with pytest.raises(ValueError, match="grid_points must be an int >= 1"):
            maximize_violation(chsh, singlet_state(), grid_points=grid_points)

    @pytest.mark.parametrize("budget", [0, -1, 0.5, float("nan")])
    def test_rejects_budget_below_one(self, chsh, budget):
        with pytest.raises(ValueError, match="budget must be at least 1"):
            maximize_violation(chsh, singlet_state(), budget=budget)

    def test_one_point_grid_and_budget_of_one(self, chsh):
        result = maximize_violation(chsh, singlet_state(), grid_points=1)
        assert result.converged
        assert result.value == pytest.approx(SQRT8, abs=1e-6)
        with pytest.raises(BudgetExhausted):
            maximize_violation(chsh, singlet_state(), budget=1)


class TestParametrization:
    def test_names_and_dimension(self):
        """One angle per variable and state slot, two on the full sphere."""
        fixed = SettingsParametrization((x(1), y(1)), singlet_state())
        assert fixed.dimension == 2

        tied = SettingsParametrization((x(1), y(1)), PRODUCT_FAMILY)
        assert tied.dimension == 3

        untied = SettingsParametrization((x(1), y(1)), PRODUCT_FAMILY, full_sphere=True, tied_state=False)
        assert untied.dimension == 8

    def test_realize_fixed_state(self):
        rho = singlet_state()
        p = SettingsParametrization((x(1), y(1)), rho)
        state, settings = p.realize(np.array([0.0, np.pi / 2]))
        assert state is rho
        assert np.allclose(settings[x(1)], [0.0, 0.0, 1.0])
        assert np.allclose(settings[y(1)], [1.0, 0.0, 0.0], atol=1e-15)

    def test_realize_product_state(self):
        p = SettingsParametrization((x(1),), PRODUCT_FAMILY)
        state, _ = p.realize(np.zeros(2))
        expected = product_state([0.0, 0.0, 1.0], [0.0, 0.0, 1.0])
        assert np.abs(state - expected).max() < 1e-15

    def test_realize_untied_full_sphere(self):
        p = SettingsParametrization((x(1), x(2)), PRODUCT_FAMILY, full_sphere=True, tied_state=False)
        params = np.array([np.pi / 2, 0.0, 0.0, 0.0, np.pi / 2, np.pi / 2, np.pi, 0.0])
        state, settings = p.realize(params)
        assert set(settings) == {x(1), x(2)}
        assert np.allclose(settings[x(1)], [1.0, 0.0, 0.0], atol=1e-15)
        assert np.allclose(settings[x(2)], [0.0, 0.0, 1.0], atol=1e-15)
        expected = product_state([0.0, 1.0, 0.0], [0.0, 0.0, -1.0])
        assert np.abs(state - expected).max() < 1e-15

    def test_invalid_configurations(self, chsh):
        """maximize_violation builds every parametrization and rejects what
        has no meaning: the former mode name 'fixed' as a state family, and
        untied local states for a fixed state."""
        with pytest.raises(ValueError, match="unknown state family 'fixed'"):
            maximize_violation(chsh, "fixed")
        with pytest.raises(ValueError, match="tied_state=False needs the product family"):
            maximize_violation(chsh, singlet_state(), tied_state=False)


def _whole_table_scan(resolution):
    """(thetas, values, max, argmax) from one tsirelson_envelope call over the
    whole table, as the scan ran before it filled the table in row blocks."""
    thetas = np.linspace(-np.pi, np.pi, resolution)
    values = tsirelson_envelope(thetas[:, None], thetas[None, :])
    i, j = divmod(int(values.argmax()), resolution)
    return thetas, values, float(values[i, j]), (float(thetas[i]), float(thetas[j]))


class TestEnvelopeScan:
    @pytest.mark.parametrize("resolution", [2, 7, 300, 1000, 4096])
    def test_row_blocks_match_the_whole_table(self, resolution):
        """The blocks tile the whole table in order, each about _BATCH cells;
        300 and 1000 end in a short last block."""
        thetas, values, max_value, argmax = _whole_table_scan(resolution)
        grid, blocks = optimize.envelope_rows(resolution)
        assert grid.tobytes() == thetas.tobytes()
        covered = 0
        for start, block in blocks:
            assert start == covered
            assert block.shape[1] == resolution and block.size <= max(resolution, optimize._BATCH)
            assert block.tobytes() == values[start:start + len(block)].tobytes()
            covered += len(block)
        assert covered == resolution
        scan = scan_envelope(resolution)
        assert scan.thetas.tobytes() == thetas.tobytes()
        assert (repr(scan.max_value), scan.argmax) == (repr(max_value), argmax)

    def test_ties_keep_the_first_cell_in_row_major_order(self, monkeypatch):
        """On a flat envelope every cell ties, and the first one wins across
        the two blocks of a 300-point grid."""
        assert optimize._BATCH // 300 < 300

        def flat(t1, t2):
            return np.ones(np.broadcast_shapes(np.shape(t1), np.shape(t2)))

        monkeypatch.setattr(optimize, "tsirelson_envelope", flat)
        # the real bounds would pick block 0 alone; flat ones make both blocks candidates
        monkeypatch.setattr(optimize, "_envelope_bounds", lambda thetas, rows: [1.0] * len(range(0, len(thetas), rows)))
        scan = scan_envelope(300)
        assert (scan.max_value, scan.argmax) == (1.0, (-np.pi, -np.pi))

    @pytest.mark.parametrize("resolution, at_most", [(1000, 2), (4096, 4)])
    def test_only_blocks_holding_a_maximal_cell_are_evaluated(self, monkeypatch, resolution, at_most):
        """The separable bounds rule out every other block: at N = 1000 the
        two blocks holding a maximal cell of the whole table, of 16."""
        evaluated = []

        def counting(t1, t2):
            evaluated.append(float(t1.flat[0]))
            return tsirelson_envelope(t1, t2)

        monkeypatch.setattr(optimize, "tsirelson_envelope", counting)
        scan = scan_envelope(resolution)
        assert len(evaluated) <= at_most
        if resolution == 1000:
            thetas, values, max_value, _ = _whole_table_scan(resolution)
            rows = optimize._envelope_layout(resolution)[1]
            holding = sorted({int(i) // rows * rows for i in np.nonzero(values == max_value)[0]})
            assert evaluated == [float(thetas[start]) for start in holding]
            assert len(holding) == 2 and len(range(0, resolution, rows)) == 16
            assert repr(scan.max_value) == repr(max_value)

    @pytest.mark.parametrize("resolution", [2, 3, 7, 300, 400, 1000, 1001, 4096])
    def test_separable_form_is_within_the_slack_on_every_cell(self, resolution):
        """|cos t1 + max over sigma of the separable row| matches the exact
        envelope on every cell to ENVELOPE_SLACK / 1000 (3.1e-14 at most on
        these grids), so the slack covers the bound's rounding."""
        thetas, rows = optimize._envelope_layout(resolution)
        right = np.stack((np.cos(thetas), np.cos(thetas / 2), np.sin(thetas / 2)))
        for start in range(0, resolution, rows):
            t1 = thetas[start:start + rows]
            products = optimize._separable_rows(t1, right)
            separable = np.abs(np.cos(t1)[:, None] + np.maximum(products[:len(t1)], products[len(t1):]))
            exact = tsirelson_envelope(t1[:, None], thetas[None, :])
            assert np.abs(separable - exact).max() <= optimize.ENVELOPE_SLACK / 1000

    @pytest.mark.parametrize("resolution", [2, 300])
    def test_csv_matches_the_whole_table(self, resolution, capsys):
        """300 rows span two row blocks; the CSV is a function of the thetas
        and values, which the test above compares at every size."""
        thetas, values, _, _ = _whole_table_scan(resolution)
        expected = "theta1,theta2,value\n" + "".join(
            f"{t1!r},{t2!r},{v!r}\n"
            for t1, row in zip(thetas.tolist(), values.tolist())
            for t2, v in zip(thetas.tolist(), row)
        )
        assert main(["reproduce", "tsirelson-envelope", "--grid", str(resolution), "--format", "csv"]) == 0
        assert capsys.readouterr().out == expected

    def test_peak_memory_is_one_block(self, monkeypatch):
        """No N^2 table: the scan at the cap stays within 8 MB, where its
        table alone took 128 MiB, and the CSV at N = 1000 (written to a sink
        that keeps only a byte count) within 8 MB, its table's size."""
        tracemalloc.start()
        try:
            scan_envelope(4096)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 10**6

        class Sink:
            written = 0

            def write(self, text):
                self.written += len(text)

        sink = Sink()
        monkeypatch.setattr("sys.stdout", sink)
        tracemalloc.start()
        try:
            code = main(["reproduce", "tsirelson-envelope", "--grid", "1000", "--format", "csv"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0 and sink.written > 1000**2 * 40  # every row was written, 40+ bytes each
        assert peak <= 8 * 10**6

    def test_grid_matches_scalar_envelope(self):
        rng = np.random.default_rng(3)
        t1 = rng.uniform(-np.pi, np.pi, size=7)
        t2 = rng.uniform(-np.pi, np.pi, size=9)
        grid = tsirelson_envelope(t1[:, None], t2[None, :])
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
        assert scan.max_value <= SQRT8 + 1e-12  # the maximum over every cell
        # argmax sits one grid cell from a (pi/4, -pi/4) partner
        spacing = 2 * np.pi / 999
        t1, t2 = scan.argmax
        off = min(
            np.hypot(t1 - s * np.pi / 4, t2 + s * np.pi / 4) for s in (1, -1)
        )
        assert off < 2 * spacing

    def test_minimum_resolution(self):
        with pytest.raises(ValueError):
            scan_envelope(1)
        scan = scan_envelope(2)
        assert scan.max_value == pytest.approx(2.0, abs=1e-12)

    def test_maximum_resolution(self, monkeypatch):
        """Past the cell cap the scan fails before it allocates anything,
        bound or exact."""
        assert 4096**2 == GRID_CELL_CAP

        def no_grid(*args):
            raise AssertionError("the envelope table was allocated")

        monkeypatch.setattr(optimize, "tsirelson_envelope", no_grid)
        monkeypatch.setattr(optimize, "_envelope_bounds", no_grid)
        with pytest.raises(ValueError, match="at most 4096"):
            scan_envelope(4097)
        with pytest.raises(ValueError, match="at most 4096"):  # before a block is asked for
            optimize.envelope_rows(4097)

    def test_settings_realize_the_envelope_on_saturating_region(self, hybrid):
        """Where the largest eigenvalue keeps its sign, the two agree."""
        rng = np.random.default_rng(5)
        checked = 0
        while checked < 60:
            t1, t2 = rng.uniform(-np.pi, np.pi, size=2)
            if np.cos(t1) + np.cos(t2) < 0 or np.sin(t1) * np.sin(t2) > 0:
                continue
            f_op = inequality_operator(hybrid, envelope_settings(t1, t2))
            assert tsirelson_envelope(t1, t2) == pytest.approx(
                operator_norm(f_op), abs=1e-12
            )
            checked += 1

    def test_envelope_never_exceeds_the_norm(self, hybrid):
        rng = np.random.default_rng(6)
        for _ in range(100):
            t1, t2 = rng.uniform(-np.pi, np.pi, size=2)
            f_op = inequality_operator(hybrid, envelope_settings(t1, t2))
            assert tsirelson_envelope(t1, t2) <= operator_norm(f_op) + 1e-12

    def test_ladder_point_saturates(self):
        settings = envelope_settings(np.pi / 4, -np.pi / 4)
        reference = hybrid_settings()
        for var, vec in reference.items():
            assert np.allclose(settings[var], vec, atol=1e-15)
        assert tsirelson_envelope(np.pi / 4, -np.pi / 4) == pytest.approx(
            SQRT8, abs=1e-12
        )


# ---------------------------------------------------------------- grid tables


def _reference_objective(ineq, parametrization, scenario=None):
    """Reference objective: each row's setting vectors built at once, each
    term computed on them and added in source order."""
    rules = auto_assignment(ineq, scenario)
    product = isinstance(parametrization.state, str)
    tensor = None
    if not product and any(r.kind == TENSOR for r in rules.values()):
        tensor = optimize.correlation_tensor(parametrization.state)

    def evaluate(params):
        block = parametrization._vector_block(params)
        n = len(parametrization.variables)
        vectors = {var: block[:, i, :] for i, var in enumerate(parametrization.variables)}
        n_a = n_b = None
        if product:
            n_a = block[:, n, :]
            n_b = n_a if parametrization.tied_state else block[:, n + 1, :]
        total = None
        for mono in ineq.terms:
            rule = rules[mono.variables]
            if rule.kind == TENSOR:
                a, b = vectors[rule.var_a], vectors[rule.var_b]
                if tensor is not None:
                    term = np.einsum("ki,ij,kj->k", a, tensor, b)
                else:
                    term = (a * n_a).sum(axis=1) * (b * n_b).sum(axis=1)
            else:
                assert rule.kind == SEQUENTIAL
                term = (vectors[rule.first] * vectors[rule.second]).sum(axis=1)
            contribution = mono.coefficient * term
            total = contribution if total is None else total + contribution
        return total

    return evaluate


def _row_grid(evaluate, axis, m):
    """(start, values) per _BATCH-cell chunk, every cell's row built and
    evaluated on its own."""
    total_cells = len(axis) ** m
    for start in range(0, total_cells, optimize._BATCH):
        idx = np.arange(start, min(start + optimize._BATCH, total_cells))
        unravelled = np.unravel_index(idx, (len(axis),) * m)
        yield start, evaluate(np.stack([axis[u] for u in unravelled], axis=1))


def _random_mixed_state(dimension, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dimension, dimension)) + 1j * rng.normal(size=(dimension, dimension))
    rho = a @ a.conj().T
    return validate_density(rho / np.trace(rho).real)


def _grid_case(name):
    """(inequality, parametrization, grid points, scenario)."""
    hybrid = derive_inequality(catalog.load_expression("hybrid.rsx"))
    hybrid_vars = (x(1), x(2), y(1), y(2))
    singlet = singlet_state()
    if name.startswith("hybrid-singlet"):
        grid = int(name.rsplit("-", 1)[1])
        return hybrid, SettingsParametrization(hybrid_vars, singlet), grid, None
    if name == "hybrid-mixed":
        return hybrid, SettingsParametrization(hybrid_vars, _random_mixed_state(4, seed=11)), 24, None
    if name == "chsh-singlet":
        chsh = derive_inequality(catalog.load_expression("chsh.rsx"))
        return chsh, SettingsParametrization(hybrid_vars, singlet), 24, None
    if name == "kcbs-mixed":
        kcbs = derive_inequality(catalog.load_expression("kcbs.rsx"))
        variables = tuple(sorted(kcbs.variables(), key=VariableId.sort_key))
        return kcbs, SettingsParametrization(variables, maximally_mixed(2)), 12, None
    if name == "lg-scenario":
        lg = derive_inequality(catalog.load_expression("lg.rsx"))
        variables = tuple(sorted(lg.variables(), key=VariableId.sort_key))
        return lg, SettingsParametrization(variables, maximally_mixed(2)), 24, catalog.load_scenario("lg.scn")
    if name == "product-tied":
        return hybrid, SettingsParametrization(hybrid_vars, PRODUCT_FAMILY), 12, None
    if name == "product-untied":
        return hybrid, SettingsParametrization(hybrid_vars, PRODUCT_FAMILY, tied_state=False), 8, None
    if name == "full-sphere":
        return hybrid, SettingsParametrization(hybrid_vars, singlet, full_sphere=True), 6, None
    if name == "chsh-reversed-16":
        # variables listed against their term order, so every term reads descending columns
        chsh = derive_inequality(catalog.load_expression("chsh.rsx"))
        return chsh, SettingsParametrization((y(2), y(1), x(2), x(1)), singlet), 16, None
    # one X1Y1 term whose sub-grid exceeds a chunk, so it is evaluated on the rows
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", EvenGroupWarning)
        pair = derive_inequality(parse_sos("(X1 - Y1)^2 >= 0"))
    if name == "pair-singlet-300":
        return pair, SettingsParametrization((x(1), y(1)), singlet), 300, None
    if name == "pair-product-48":
        return pair, SettingsParametrization((x(1), y(1)), PRODUCT_FAMILY), 48, None
    if name == "triple-product-41":
        # two tensor terms evaluated on the rows, added around one tabled sequential term
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", EvenGroupWarning)
            triple = derive_inequality(parse_sos("(X1 - Y1 + X2)^2 >= 0"))
        return triple, SettingsParametrization((x(1), x(2), y(1)), PRODUCT_FAMILY), 41, None
    raise KeyError(name)


GRID_CASES = [
    "hybrid-singlet-24", "hybrid-singlet-17", "hybrid-mixed", "chsh-singlet", "kcbs-mixed",
    "lg-scenario", "product-tied", "product-untied", "full-sphere", "chsh-reversed-16",
    "pair-singlet-300", "pair-product-48", "triple-product-41",
]


def _scan_layout(name):
    """(outer axes, per term: its columns and whether it is evaluated on the rows)."""
    ineq, p, grid, scenario = _grid_case(name)
    m = p.dimension
    outer = min(k for k in range(m + 1) if grid ** (m - k) <= optimize._BATCH)
    width = 2 if p.full_sphere else 1
    terms = optimize._objective_terms(ineq, p, scenario)
    columns = [[s * width + j for s in slots for j in range(width)] for _, slots, _ in terms]
    return outer, [(cols, grid ** len(cols) > optimize._BATCH) for cols in columns]


@pytest.fixture(scope="module")
def reference_chunks():
    """Per case and variable order, the per-row grid values: computed once,
    shared by the tests."""
    cache = {}

    def chunks(name, variables):
        if (name, variables) not in cache:
            ineq, p, grid, scenario = _grid_case(name)
            p = p._replace(variables=variables)
            evaluate = _reference_objective(ineq, p, scenario)
            cache[name, variables] = list(_row_grid(evaluate, optimize._grid_axes(grid), p.dimension))
        return cache[name, variables]

    return chunks


class _OutOfBudget(Exception):
    pass


def _reference_search(ineq, p, grid_points, scenario, budget, chunks):
    """The search as it ran on the per-row grid, `chunks` being that grid's
    values; returns what `_outcome` returns."""
    evaluate = _reference_objective(ineq, p, scenario)
    sign = 1.0 if ineq.direction == "<=" else -1.0
    m = p.dimension
    axis = optimize._grid_axes(grid_points)
    evaluations, best_value, best_params = 0, -np.inf, np.zeros(m)

    def offer(values, batch):
        # a batch that would overrun the budget is scored up to it
        nonlocal evaluations, best_value, best_params
        room = budget - evaluations
        scored = sign * values[:room]
        evaluations += len(scored)
        if len(scored) and float(scored.max()) > best_value:
            top = int(scored.argmax())
            best_value, best_params = float(scored[top]), batch[top].copy()
        if len(values) > room:
            raise _OutOfBudget

    converged = False
    try:
        for start, values in chunks:
            idx = np.arange(start, start + len(values))
            offer(values, np.stack([axis[u] for u in np.unravel_index(idx, (grid_points,) * m)], axis=1))
        step = 2 * np.pi / grid_points
        while step >= optimize.REFINEMENT_FLOOR:
            batch = best_params[None, :] + np.vstack((np.eye(m), -np.eye(m))) * step
            incumbent = best_value
            offer(evaluate(batch), batch)
            if best_value <= incumbent + 1e-15:
                step /= 2.0
        converged = True
    except _OutOfBudget:
        pass
    rho, settings = p.realize(best_params)
    value = reference_value(ineq, rho, settings, auto_assignment(ineq, scenario))
    fields = repr(float(value)), best_params.tobytes(), evaluations, converged
    return ("done" if converged else "exhausted"), fields


def _outcome(ineq, p, grid, scenario, budget):
    def fields(result):
        return repr(result.value), result.parameters.tobytes(), result.evaluations, result.converged

    try:
        return "done", fields(maximize_violation(
            ineq, p.state, budget=budget, grid_points=grid, scenario=scenario,
            full_sphere=p.full_sphere, tied_state=p.tied_state,
        ))
    except BudgetExhausted as exc:
        return "exhausted", fields(exc.best)


class TestGridTables:
    """The table-driven grid scan against the per-row reference, bit for bit."""

    def test_cases_cover_every_scan_layout(self):
        layouts = {name: _scan_layout(name) for name in GRID_CASES}
        assert layouts["chsh-reversed-16"][0] == 0  # the whole grid is one box
        assert layouts["hybrid-singlet-24"][0] == 1
        assert layouts["full-sphere"][0] == 2 and layouts["triple-product-41"][0] == 2
        assert all(columns != sorted(columns) for columns, _ in layouts["chsh-reversed-16"][1])
        for name in ("pair-singlet-300", "pair-product-48"):  # one term, on the rows
            assert [on_rows for _, on_rows in layouts[name][1]] == [True]
        assert [on_rows for _, on_rows in layouts["triple-product-41"][1]] == [False, True, True]

    @pytest.mark.parametrize("name", GRID_CASES)
    def test_every_cell_matches_the_per_row_objective(self, name, reference_chunks):
        ineq, p, grid, scenario = _grid_case(name)
        terms = optimize._objective_terms(ineq, p, scenario)
        scanned = list(optimize._grid_scan(terms, optimize._grid_axes(grid), p))
        reference = reference_chunks(name, p.variables)
        assert [start for start, _ in scanned] == [start for start, _ in reference]
        for (_, values), (_, expected) in zip(scanned, reference):
            assert np.array_equal(values, expected)
            assert np.array_equal(np.signbit(values), np.signbit(expected))

    @pytest.mark.parametrize("name", GRID_CASES)
    def test_refinement_rows_match_the_per_row_objective(self, name):
        ineq, p, _, scenario = _grid_case(name)
        rows = np.random.default_rng(2).uniform(-np.pi, np.pi, size=(64, p.dimension))
        values = optimize._evaluate(optimize._objective_terms(ineq, p, scenario), p._vector_block(rows))
        expected = _reference_objective(ineq, p, scenario)(rows)
        assert np.array_equal(values, expected)
        assert np.array_equal(np.signbit(values), np.signbit(expected))

    @pytest.mark.parametrize("product", [False, True])
    @pytest.mark.parametrize("full_sphere", [False, True])
    def test_shared_vector_block_matches_per_term_blocks(self, product, full_sphere):
        """One vector block per batch, read by every term's slots, gives the
        bits of each term building its vectors from its own angle columns."""
        hybrid = derive_inequality(catalog.load_expression("hybrid.rsx"))
        variables = (x(1), x(2), y(1), y(2))
        if product:  # the state untied on the sphere
            p = SettingsParametrization(variables, PRODUCT_FAMILY, full_sphere, tied_state=not full_sphere)
        else:
            p = SettingsParametrization(variables, _random_mixed_state(4, seed=3), full_sphere)
        terms = optimize._objective_terms(hybrid, p, None)
        width = 2 if full_sphere else 1

        def per_term(params):
            """The reference: each term builds its vectors from its own angle columns."""
            columns = [[s * width + j for s in slots for j in range(width)] for _, slots, _ in terms]
            return reduce(np.add, (
                c * term(p._vector_block(params[:, cols])) for (c, _, term), cols in zip(terms, columns)
            ))

        rng = np.random.default_rng(4)
        for k in (1, 7, 2 * p.dimension, 1000):
            params = rng.uniform(-np.pi, np.pi, size=(k, p.dimension))
            values = optimize._evaluate(terms, p._vector_block(params))
            assert values.tobytes() == per_term(params).tobytes()

    @pytest.mark.parametrize("budget", [10, 300, 200_000, DEFAULT_BUDGET])
    @pytest.mark.parametrize("name", GRID_CASES)
    def test_results_match_the_per_row_search(self, name, budget, reference_chunks):
        ineq, p, grid, scenario = _grid_case(name)
        # the search lists the variables sorted, so it scans chsh-reversed-16 in chsh's own order
        p = p._replace(variables=tuple(sorted(ineq.variables(), key=VariableId.sort_key)))
        expected = _reference_search(ineq, p, grid, scenario, budget, reference_chunks(name, p.variables))
        assert _outcome(ineq, p, grid, scenario, budget) == expected
