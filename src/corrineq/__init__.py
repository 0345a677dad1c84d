"""Workbench for correlation inequalities built from sums of squares.

Squares of odd linear forms in ±1 variables expand into Bell-type,
contextuality, temporal, and hybrid inequalities; the package derives
them symbolically, certifies classical bounds by enumeration, tests
joint-distribution existence by linear programming, evaluates qubit
strategies exactly, and simulates the sequential measurement protocol.
"""

from .dsl import (
    LinearForm,
    ScenarioSpec,
    SosExpression,
    VariableId,
    format_sos,
    parse_scenario,
    parse_sos,
)
from .errors import (
    BudgetExhausted,
    DslSyntaxError,
    EvenGroupWarning,
    ProvisoViolated,
    ResidualDegreeError,
)
from .polynomials import (
    CorrelationInequality,
    MultilinearPoly,
    classify,
    derive_inequality,
    expand,
    format_inequality,
    implied_lower_bound,
    validate_odd_groups,
)
from .simplex import LpProblem, LpSolution, simplex_solve
from .lhv import (
    DeterministicAssignment,
    DhvModel,
    classical_extrema,
    jd_feasibility,
    monogamy_check,
    nodisturbance_optimum,
    random_dhv_model,
    reconstruct_pc,
)
from .quantum import (
    build_f_operator,
    evaluate_inequality_quantum,
    hybrid_f_product,
    hybrid_settings,
    operator_norm,
    product_ladder_settings,
    product_state,
    qubit_layout,
    s2_square_closed_form,
    sequential_correlator,
    singlet_state,
    spatial_correlator,
    tsirelson_envelope,
)
from .protocol import (
    ALL_CHOICES,
    DATA_CHOICES,
    CounterRng,
    MeasurementChoice,
    admissible_data,
    choice_sampler,
    estimate_f,
    signaling_test,
    simulate_choice_block,
    simulate_shot,
)
from .optimize import (
    OptimizationResult,
    SettingsParametrization,
    maximize_violation,
    scan_envelope,
)
from . import catalog

__version__ = "0.1.0"

__all__ = [
    "ALL_CHOICES",
    "BudgetExhausted",
    "CorrelationInequality",
    "CounterRng",
    "DATA_CHOICES",
    "DeterministicAssignment",
    "DhvModel",
    "DslSyntaxError",
    "EvenGroupWarning",
    "LinearForm",
    "LpProblem",
    "LpSolution",
    "MeasurementChoice",
    "MultilinearPoly",
    "OptimizationResult",
    "ProvisoViolated",
    "ResidualDegreeError",
    "ScenarioSpec",
    "SettingsParametrization",
    "SosExpression",
    "VariableId",
    "admissible_data",
    "build_f_operator",
    "catalog",
    "choice_sampler",
    "classical_extrema",
    "classify",
    "derive_inequality",
    "estimate_f",
    "evaluate_inequality_quantum",
    "expand",
    "format_inequality",
    "format_sos",
    "hybrid_f_product",
    "hybrid_settings",
    "implied_lower_bound",
    "jd_feasibility",
    "maximize_violation",
    "monogamy_check",
    "nodisturbance_optimum",
    "operator_norm",
    "parse_scenario",
    "parse_sos",
    "product_ladder_settings",
    "product_state",
    "qubit_layout",
    "random_dhv_model",
    "reconstruct_pc",
    "s2_square_closed_form",
    "scan_envelope",
    "sequential_correlator",
    "signaling_test",
    "simplex_solve",
    "simulate_choice_block",
    "simulate_shot",
    "singlet_state",
    "spatial_correlator",
    "tsirelson_envelope",
    "validate_odd_groups",
]
