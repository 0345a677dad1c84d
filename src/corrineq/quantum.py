"""Exact qubit evaluation of correlation inequalities.

States are plain complex numpy arrays (2x2 or 4x4 density matrices),
measurement settings are unit Bloch vectors, and each party measures
its own qubit.  Correlators come in two flavours: tensor-product
expectations for commuting cross-party pairs and sequential expectations
with collapse for same-party pairs.
"""

from __future__ import annotations

import numpy as np

from .dsl import VariableId
from .errors import (
    DimensionMismatch,
    InconsistentContext,
    MissingAssignment,
    MissingSetting,
    NonUnitVector,
    NotHermitian,
)
from .polynomials import coefficient_map, letter_scenario

HERMITICITY_TOL = 1e-10

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
ID2 = np.eye(2, dtype=complex)
ID4 = np.eye(4, dtype=complex)


def row_dot(a, b) -> np.ndarray:
    """Dot products along the last axis, each one the bits of np.dot on its rows."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def unit_vector(v, rows: bool = False) -> np.ndarray:
    """v as a float unit 3-vector; with rows=True also a (k, 3) stack, checked row by row."""
    v = np.asarray(v, dtype=float)
    if v.shape[-1:] != (3,) or v.ndim > (2 if rows else 1):
        raise NonUnitVector(f"expected 3 components, got shape {v.shape}")
    off = np.abs(row_dot(v, v) - 1.0) > 1e-9
    if off.any():
        raise NonUnitVector(f"|v| = {np.linalg.norm(v[off][0]):.12f} is not 1")
    return v


def plane_vector(theta: float) -> np.ndarray:
    """Unit vector at angle theta from z toward x, inside the x-z plane."""
    return np.array([np.sin(theta), 0.0, np.cos(theta)])


def ladder_settings(variables, start: float, step: float) -> dict:
    """Coplanar settings for the listed variables, spaced by `step`."""
    return {var: plane_vector(start + i * step) for i, var in enumerate(variables)}


def dot_sigma(n) -> np.ndarray:
    """n0 X + n1 Y + n2 Z for a 3-vector, or a (k, 2, 2) stack for a (k, 3) stack."""
    n0, n1, n2 = np.moveaxis(np.asarray(n), -1, 0)[..., None, None]
    return n0 * PAULI_X + n1 * PAULI_Y + n2 * PAULI_Z


def kron2(a, b) -> np.ndarray:
    """np.kron of two 2x2 operators, or of stacks of them: the same products, broadcast."""
    products = a[..., :, None, :, None] * b[..., None, :, None, :]
    return products.reshape(products.shape[:-4] + (4, 4))


def pauli_observable(direction) -> np.ndarray:
    """n . sigma for a unit Bloch vector n; Hermitian with eigenvalues ±1."""
    return dot_sigma(unit_vector(direction))


def projectors(direction):
    """The two eigenprojectors (I ± n.sigma)/2."""
    obs = pauli_observable(direction)
    return (ID2 + obs) / 2, (ID2 - obs) / 2


def singlet_state() -> np.ndarray:
    """Density matrix of (|01> - |10>)/sqrt(2)."""
    psi = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)
    return np.outer(psi, psi.conj())


def qubit_state(direction) -> np.ndarray:
    """Pure qubit state polarized along a Bloch direction."""
    return (ID2 + pauli_observable(direction)) / 2


def product_state(n_a, n_b) -> np.ndarray:
    """Two-qubit product state |n_a><n_a| x |n_b><n_b|."""
    return kron2(qubit_state(n_a), qubit_state(n_b))


def maximally_mixed(dimension: int) -> np.ndarray:
    return np.eye(dimension, dtype=complex) / dimension


def validate_density(rho) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    if rho.shape not in ((2, 2), (4, 4)):
        raise DimensionMismatch(f"density matrix must be 2x2 or 4x4, got {rho.shape}")
    if np.abs(rho - rho.conj().T).max() > HERMITICITY_TOL:
        raise NotHermitian("density matrix is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > 1e-10:
        raise ValueError(f"trace is {np.trace(rho).real}, expected 1")
    if np.linalg.eigvalsh(rho).min() < -1e-10:
        raise ValueError("density matrix has a negative eigenvalue")
    return rho


def _embed(op, subsystem: int) -> np.ndarray:
    """Lift a 2x2 operator onto one factor of a two-qubit space."""
    if subsystem == 0:
        return kron2(op, ID2)
    if subsystem == 1:
        return kron2(ID2, op)
    raise DimensionMismatch(f"subsystem must be 0 or 1, got {subsystem}")


def spatial_correlator(rho, a, b) -> float:
    """<A x B> = Tr(rho (a.sigma x b.sigma)) for a 4x4 state."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise DimensionMismatch(f"spatial correlator needs a 4x4 state, got {rho.shape}")
    value = np.trace(rho @ kron2(pauli_observable(a), pauli_observable(b)))
    return float(value.real)


def sequential_correlator(rho, first, second, subsystem=None) -> float:
    """Two projective measurements in time order with collapse in between.

    Returns sum over outcomes o1, o2 of o1*o2*P(o1 then o2), computed by
    the full collapse sum.  For qubit projective measurements this comes
    out equal to first . second whatever the state; the test suite checks
    that identity rather than assuming it here.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape == (2, 2):
        p1_plus, p1_minus = projectors(first)
        p2_plus, p2_minus = projectors(second)
    elif rho.shape == (4, 4):
        if subsystem not in (0, 1):
            raise DimensionMismatch("a 4x4 state needs subsystem 0 or 1")
        p1_plus, p1_minus = (_embed(p, subsystem) for p in projectors(first))
        p2_plus, p2_minus = (_embed(p, subsystem) for p in projectors(second))
    else:
        raise DimensionMismatch(f"state must be 2x2 or 4x4, got {rho.shape}")
    total = 0.0
    for o1, p1 in ((1, p1_plus), (-1, p1_minus)):
        collapsed = p1 @ rho @ p1
        for o2, p2 in ((1, p2_plus), (-1, p2_minus)):
            total += o1 * o2 * float(np.trace(p2 @ collapsed).real)
    return total


def qubit_layout(variables, scenario=None) -> dict:
    """Qubit of each variable: the scenario's parties, alphabetically, on qubits 0 and 1.

    Without a scenario the variable letter stands in for the party, so a
    single-party multi-letter inequality needs its scenario passed
    explicitly.
    """
    variables = tuple(variables)
    if scenario is None:
        scenario = letter_scenario(variables)
    party_of = {v: scenario.party(v) for v in variables}
    names = sorted(set(party_of.values()))
    if len(names) > 2:
        raise MissingAssignment(f"cannot place {len(names)} parties on two qubits")
    return {v: names.index(party) for v, party in party_of.items()}


def term_order(variables, qubit, scenario=None) -> list:
    """A term's two variables by qubit, then in variable order (time order within a party);
    InconsistentContext for a pair on one qubit, which reads it only in sequence, that
    `scenario` puts in a common context."""
    a, b = sorted(variables, key=lambda v: (qubit[v], v.sort_key()))
    if qubit[a] == qubit[b] and scenario is not None and scenario.in_common_context(a, b):
        raise InconsistentContext(f"pair {a},{b} shares a context but sits on one qubit, read only in sequence")
    return [a, b]


def direction_for(settings, var) -> np.ndarray:
    """The measurement direction `settings` gives `var`; MissingSetting when it gives none."""
    try:
        return settings[var]
    except KeyError:
        raise MissingSetting(f"no direction given for {var}") from None


def evaluate_inequality_quantum(ineq, rho, settings, scenario=None) -> float:
    """Signed sum of per-term correlators on a one- or two-qubit state.

    Each variable sits on its party's qubit (`qubit_layout`).  A term
    across the two qubits is the tensor-product correlator, qubit 0's
    variable first; a term within one qubit is the sequential correlator
    with the variable first in variable order (letter, then index)
    measured first (Fritz, New J. Phys. 12, 083055, 2010).  `term_order`
    refuses a same-qubit pair in a common context; the state must pass `validate_density`.
    """
    rho = validate_density(rho)
    qubit = qubit_layout(ineq.variables(), scenario)
    total = 0.0
    for mono in ineq.terms:
        a, b = term_order(mono.variables, qubit, scenario)
        if qubit[a] == qubit[b]:
            value = sequential_correlator(rho, direction_for(settings, a), direction_for(settings, b), qubit[a])
        else:
            value = spatial_correlator(rho, direction_for(settings, a), direction_for(settings, b))
        total += mono.coefficient * value
    return total


def hybrid_settings():
    """Canonical descending pi/4 ladder in the x-z plane for X1 X2 Y1 Y2.

    These directions realize the maximal singlet value of the hybrid
    combination under the literal tensor-product sign convention.
    """
    variables = [VariableId("X", 1), VariableId("X", 2), VariableId("Y", 1), VariableId("Y", 2)]
    return ladder_settings(variables, 0.0, -np.pi / 4)


def product_ladder_settings():
    """Ascending pi/4 ladder ordered X2, X1, Y2, Y1 in the x-z plane.

    Along this ordering neighbours differ by pi/4 starting from X2 on
    the z axis; with both local states polarized along the Y2 direction
    the hybrid combination reaches 3/sqrt(2) on a product state.
    """
    variables = [VariableId("X", 2), VariableId("X", 1), VariableId("Y", 2), VariableId("Y", 1)]
    return ladder_settings(variables, 0.0, np.pi / 4)


def _hybrid_vectors(settings):
    """Unit vectors of X1, X2, Y1, Y2 from a settings map: (3,) each, or (k, 3) stacks."""
    return tuple(
        unit_vector(settings[VariableId(letter, index)], rows=True)
        for letter, index in (("X", 1), ("X", 2), ("Y", 1), ("Y", 2))
    )


def hybrid_f_product(n_a, n_b, settings) -> float:
    """Closed-form hybrid value on the product state |n_a>|n_b>.

    x1.x2 + (x1.n_a)(y2.n_b) - (x2.n_a)(y1.n_b) + y1.y2; the same-party
    dot products are the state-independent sequential correlators.
    """
    n_a, n_b = unit_vector(n_a), unit_vector(n_b)
    x1, x2, y1, y2 = _hybrid_vectors(settings)
    return float(
        x1 @ x2 + (x1 @ n_a) * (y2 @ n_b) - (x2 @ n_a) * (y1 @ n_b) + y1 @ y2
    )


def inequality_operator(form, settings, scenario=None) -> np.ndarray:
    """The operator whose expectation on every state is the form's quantum value.

    Each variable of `form` (read by `polynomials.coefficient_map`) sits on
    its party's qubit (`qubit_layout`).  A cross-qubit pair adds
    c (a.sigma) x (b.sigma), qubit 0's variable first, and a same-qubit pair
    adds c (a.b) I, its sequential correlator.  2x2 for one qubit, 4x4 for
    two; (k, 3) setting stacks give k operators.  The identity part comes
    first, then the tensor part, each summed in the form's order with |c|
    folded into a vector and each term added or subtracted by c's sign, so
    unit coefficients keep the plain sum's bits, signed zeros included.
    """
    terms = coefficient_map(form)
    if not terms or any(len(varset) != 2 for varset in terms):
        raise ValueError("an operator is built from one or more terms, each a pair of variables")
    qubit = qubit_layout(frozenset().union(*terms), scenario)
    vector = {v: unit_vector(direction_for(settings, v), rows=True) for v in sorted(qubit, key=VariableId.sort_key)}
    sums = {}  # True: the same-qubit scalar, False: the cross-qubit tensor
    for varset, c in terms.items():
        a, b = term_order(varset, qubit, scenario)
        same = qubit[a] == qubit[b]
        va, vb = float(abs(c)) * vector[a], vector[b]
        part = row_dot(va, vb) if same else kron2(dot_sigma(va), dot_sigma(vb))
        total = sums.get(same)
        sums[same] = (part if c >= 0 else -part) if total is None else (total + part if c >= 0 else total - part)
    if True in sums:
        sums[True] = sums[True][..., None, None] * (ID4 if 1 in qubit.values() else ID2)
    return sums[True] + sums[False] if len(sums) == 2 else sums.popitem()[1]


def s2_square_closed_form(settings) -> np.ndarray:
    """2[I - (x1.x2)(y1.y2) - ((x1 cross x2).sigma) x ((y1 cross y2).sigma)].

    Independent of inequality_operator's matrix product on the hybrid's cross
    terms; the two must agree element by element.  Stacks broadcast alike.
    """
    x1, x2, y1, y2 = _hybrid_vectors(settings)
    scalar = 1.0 - row_dot(x1, x2) * row_dot(y1, y2)
    return 2.0 * (
        ID4 * scalar[..., None, None]
        - kron2(dot_sigma(np.cross(x1, x2)), dot_sigma(np.cross(y1, y2)))
    )


def tsirelson_envelope(theta1, theta2):
    """|cos t1 + cos t2 + sqrt(2) sqrt(1 - cos(t1 - t2))|.

    Upper envelope of the hybrid operator norm over coplanar settings
    with relative angles t1 (between the X pair) and t2 (between the Y
    pair); bounded by 2 sqrt(2) everywhere.  Angle arrays broadcast to
    an array of values; two scalars give a float.
    """
    inner = np.maximum(1.0 - np.cos(theta1 - theta2), 0.0)
    value = np.abs(np.cos(theta1) + np.cos(theta2) + np.sqrt(2.0) * np.sqrt(inner))
    return float(value) if np.ndim(value) == 0 else value


def operator_norm(matrix) -> float:
    """Largest absolute eigenvalue of a Hermitian matrix."""
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got {m.shape}")
    if np.abs(m - m.conj().T).max() > HERMITICITY_TOL:
        raise NotHermitian("operator norm here is defined for Hermitian matrices only")
    return float(np.abs(np.linalg.eigvalsh(m)).max())
