"""
How far qubits push past the classical bounds
=============================================

Every inequality in the catalog caps an algebraic combination of
correlators at its classical value.  This script takes three of them,
`chsh`, `lg` and `hybrid`, and shows qubit measurements breaking their
caps: an entangled pair for the cross-party combination, repeated
measurement of one qubit for the sequential one, and both at once for
the hybrid.  It evaluates their exact quantum values, confirms the
hybrid's with a numerical optimizer, cross-checks against an operator
norm, and maps how the attainable maximum varies with the two free
measurement angles.

The other catalog entries get no quantum value here, and nothing in
the package computes one.  For the contextual ones (`kcbs`, `cycle7`
and the KCBS half of `monogamy`) qubits would not do: projective qubit
measurements admit a noncontextual model, so a KCBS violation needs a
system of dimension 3 or more (Klyachko, Can, Binicioglu & Shumovsky,
PRL 101, 020403, 2008).
"""

import numpy as np

from corrineq import catalog
from corrineq.dsl import VariableId
from corrineq.optimize import PRODUCT_FAMILY, maximize_violation, scan_envelope
from corrineq.polynomials import derive_inequality
from corrineq.quantum import (
    evaluate_inequality_quantum,
    hybrid_f_product,
    hybrid_settings,
    inequality_operator,
    ladder_settings,
    maximally_mixed,
    operator_norm,
    plane_vector,
    product_ladder_settings,
    product_state,
    qubit_state,
    singlet_state,
)

SQRT8 = 2.0 * np.sqrt(2.0)
X1, X2 = VariableId("X", 1), VariableId("X", 2)
Y1, Y2 = VariableId("Y", 1), VariableId("Y", 2)

##############################################################################
# The four-term cross-party combination on a singlet.  The singlet
# correlator for directions a, b is -a.b, so the right settings place
# each product at +1/sqrt(2) and the total at 2 sqrt(2) -- well past
# the classical cap of 2.

chsh = derive_inequality(catalog.load_expression("chsh.rsx"))
settings = {
    X1: plane_vector(0.0),
    X2: plane_vector(np.pi / 2),
    Y1: plane_vector(-3 * np.pi / 4),
    Y2: plane_vector(3 * np.pi / 4),
}
value = evaluate_inequality_quantum(chsh, singlet_state(), settings)
print(f"cross-party combination on the singlet: {value:.12f}")
print(f"classical bound {chsh.bound}, 2*sqrt(2) = {SQRT8:.12f}")

##############################################################################
# The four-time sequential combination.  Measuring one qubit at four
# times with directions descending in pi/4 steps gives the same
# 2 sqrt(2), and the sequential correlator a.b does not depend on the
# state at all -- a pure state and the maximally mixed state agree.
# The scenario file names one party for all four times, so every
# variable sits on the same qubit and every term is sequential.

lg = derive_inequality(catalog.load_expression("lg.rsx"))
times = sorted(lg.variables())
ladder = ladder_settings(times, 0.0, -np.pi / 4)
lscn = catalog.load_scenario("lg.scn")
for label, rho in [("polarized qubit", qubit_state([0.0, 0.0, 1.0])),
                   ("maximally mixed", maximally_mixed(2))]:
    v = evaluate_inequality_quantum(lg, rho, ladder, lscn)
    print(f"sequential combination, {label}: {v:.12f}")

##############################################################################
# The hybrid combination mixes both term kinds.  Its scenario puts each
# party on its own qubit: the two terms across the qubits are tensor
# products, the two within a qubit are sequential products.  On the
# singlet it also reaches 2 sqrt(2); a numerical search over coplanar
# settings recovers the same number without being told the answer.

hybrid = derive_inequality(catalog.load_expression("hybrid.rsx"))
hscn = catalog.load_scenario("hybrid.scn")
exact = evaluate_inequality_quantum(hybrid, singlet_state(), hybrid_settings(), hscn)
print(f"\nhybrid combination at the canonical ladder: {exact:.12f}")

result = maximize_violation(hybrid, singlet_state(), scenario=hscn, seed=3)
print(f"optimizer best value: {result.value:.12f} (converged: {result.converged})")

##############################################################################
# Independent check: the whole hybrid combination is one Hermitian
# operator once the settings are fixed, and no state can beat that
# operator's norm.  At the optimizer's settings the norm matches the
# value it found, so the search stopped at a true maximum.

f_op = inequality_operator(hybrid, result.settings, hscn)
print(f"operator norm at the found settings: {operator_norm(f_op):.12f}")
print(f"gap to optimizer value: {abs(operator_norm(f_op) - result.value):.2e}")

##############################################################################
# Product states cannot reach 2 sqrt(2), but they are not classical
# either.  With an ascending ladder ordered X2, X1, Y2, Y1 and both
# qubits polarized along the Y2 direction, a closed form gives
# 3/sqrt(2) ~ 2.121; the matrix evaluation agrees to machine
# precision.  Letting the optimizer vary settings and state together
# does a little better still, topping out at 5/2.

psettings = product_ladder_settings()
n = psettings[Y2]
analytic = hybrid_f_product(n, n, psettings)
matrix = evaluate_inequality_quantum(hybrid, product_state(n, n), psettings, hscn)
print(f"\nproduct-state ladder, closed form: {analytic:.12f}")
print(f"product-state ladder, matrix path: {matrix:.12f}")
print(f"3/sqrt(2) = {3 / np.sqrt(2):.12f}")

best = maximize_violation(hybrid, PRODUCT_FAMILY, scenario=hscn, grid_points=12, seed=5)
print(f"best over all product states and settings: {best.value:.9f}")

##############################################################################
# Finally the envelope: fix every setting except the two within-party
# angles theta1, theta2 and record the largest value any two-qubit
# state can give.  A closed form covers the whole plane; scanning it
# shows the global maximum sits at 2 sqrt(2), reached near
# (pi/4, -pi/4) and its sign-flipped partner.

scan = scan_envelope(400)
t1, t2 = scan.argmax
print(f"\nenvelope maximum over a 400x400 grid: {scan.max_value:.9f}")
print(f"located at theta1 = {t1:+.6f}, theta2 = {t2:+.6f}")
print(f"shortfall from 2*sqrt(2): {SQRT8 - scan.max_value:.2e}")
