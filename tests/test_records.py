"""The result records: NamedTuples that keep their field order, repr,
immutability, properties and methods.

A plain `@dataclass` generates its methods from source at import time,
about half a millisecond per class, so a record that only carries
results is a NamedTuple; a dataclass is kept only where a class checks
itself in `__post_init__` (or, as LpSolution, holds a hidden field).
"""

import dataclasses
import importlib
import inspect
import math
import pkgutil

import numpy as np
import pytest

import corrineq
from corrineq.dsl import VariableId
from corrineq.lhv import (
    ExtremaResult,
    FeasibilityResult,
    InfeasibilityCertificate,
    MonogamyReport,
    NdOptimum,
)
from corrineq.optimize import EnvelopeScan, OptimizationResult
from corrineq.polynomials import GroupVerdict, Monomial
from corrineq.protocol import (
    ChoiceSampler,
    CorrelatorEstimate,
    MeasurementChoice,
    ProtocolEstimate,
    ShotRecord,
    SignalingReport,
)

X1, Y1 = VariableId("X", 1), VariableId("Y", 1)

FIELDS = {
    ExtremaResult: ("minimum", "maximum", "witness_min", "witness_max", "assignments_checked"),
    InfeasibilityCertificate: ("pair_coefficients", "mean_coefficients", "bound", "observed_value"),
    FeasibilityResult: ("feasible", "model", "certificate"),
    NdOptimum: ("value", "direction", "contexts", "behavior", "consistent"),
    MonogamyReport: (
        "combined_nd_min", "symbolic_bound", "agreement", "chsh_nd_min", "kcbs_nd_min",
        "kcbs_classical_min", "relaxed_min",
    ),
    OptimizationResult: ("value", "parameters", "settings", "state", "evaluations", "converged", "direction"),
    EnvelopeScan: ("thetas", "max_value", "argmax"),
    Monomial: ("variables", "coefficient"),
    GroupVerdict: ("term_count", "coefficient_sum", "parity", "implied_bound"),
    MeasurementChoice: ("alice", "bob"),
    ShotRecord: ("choice", "outcomes"),
    ChoiceSampler: ("variables", "signs", "cut1", "bounds"),
    CorrelatorEstimate: ("label", "mean", "stderr", "count"),
    ProtocolEstimate: ("terms", "f_value", "f_stderr", "shots", "seed", "choice_counts"),
    SignalingReport: ("p_alone", "se_alone", "p_after_y1", "se_after", "shots_per_arm"),
}
RECORDS = list(FIELDS)


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: r.__name__)
def test_fields_in_order(record):
    assert record._fields == FIELDS[record]


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: r.__name__)
def test_repr_names_each_field(record):
    fields = FIELDS[record]
    value = record(*range(len(fields)))
    body = ", ".join(f"{name}={i}" for i, name in enumerate(fields))
    assert repr(value) == f"{record.__name__}({body})"


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: r.__name__)
def test_fields_cannot_be_assigned(record):
    value = record(*range(len(FIELDS[record])))
    for name in FIELDS[record]:
        with pytest.raises(AttributeError):
            setattr(value, name, -1)


def test_records_unpack_and_equal_plain_tuples():
    variables, coefficient = Monomial(frozenset({X1, Y1}), -2)
    assert (variables, coefficient) == (frozenset({X1, Y1}), -2)
    assert Monomial(variables, coefficient) == (variables, coefficient)
    assert FeasibilityResult(True) == (True, None, None)


def test_count_field_shadows_tuple_count():
    assert CorrelatorEstimate("X1Y1", 0.5, 0.01, 7).count == 7


def test_properties():
    assert InfeasibilityCertificate({}, {}, 2.0, 2.5).violation == 0.5
    report = SignalingReport(0.5, 0.03, 0.75, 0.04, (10, 10))
    assert report.difference == -0.25
    assert report.z_score == pytest.approx(-5.0)
    assert SignalingReport(0.5, 0.0, 0.5, 0.0, (1, 1)).z_score == 0.0
    assert SignalingReport(1.0, 0.0, 0.5, 0.0, (1, 1)).z_score == math.inf


def test_methods():
    assert MeasurementChoice((X1,), ()).label() == "(X1,-)"
    assert MeasurementChoice((), (Y1, VariableId("Y", 2))).label() == "(-,Y1Y2)"
    assert ShotRecord(MeasurementChoice((X1,), (Y1,)), {X1: 1, Y1: -1}).product((X1, Y1)) == -1
    assert str(Monomial(frozenset({Y1, X1}), -2)) == "-2*X1Y1"
    assert str(Monomial(frozenset(), 3)) == "3*1"
    signs = np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]], dtype=np.int8)
    column = ChoiceSampler((X1, Y1), signs, np.array([], dtype=np.uint64), (0, 1, 2, 3, 4)).column(Y1)
    assert column.dtype == np.int64 and column.tolist() == [1, -1, 1, -1]


def test_only_self_checking_classes_stay_dataclasses():
    """A record that only carries results costs a generated dataclass's import time for nothing."""
    left = []
    for module in (info.name for info in pkgutil.iter_modules(corrineq.__path__)):
        for name, cls in inspect.getmembers(importlib.import_module(f"corrineq.{module}"), inspect.isclass):
            if cls.__module__ == f"corrineq.{module}" and dataclasses.is_dataclass(cls):
                left.append(name)
                assert "__post_init__" in vars(cls) or name == "LpSolution", name
    assert "LpSolution" in left
