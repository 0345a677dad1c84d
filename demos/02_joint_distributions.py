"""
When do correlators admit a joint distribution?
===============================================

A set of pairwise correlators is classically explainable exactly when
one probability table over all observables reproduces every number at
once.  That existence question is a linear program over the weights
of deterministic assignments; infeasibility comes back with a dual
certificate, which is itself a violated correlation inequality.
"""

import numpy as np

from corrineq import catalog
from corrineq.dsl import VariableId
from corrineq.lhv import jd_feasibility, random_dhv_model, reconstruct_pc
from corrineq.polynomials import format_varset
from corrineq.quantum import plane_vector, singlet_state, spatial_correlator

X1, X2 = VariableId("X", 1), VariableId("X", 2)
Y1, Y2 = VariableId("Y", 1), VariableId("Y", 2)
PAIRS = [
    frozenset({X1, Y1}),
    frozenset({X1, Y2}),
    frozenset({X2, Y1}),
    frozenset({X2, Y2}),
]

##############################################################################
# Take the singlet correlators at the settings where the four-term
# combination peaks.  Each correlator is an innocent number in [-1, 1];
# the four of them together admit no joint table.

settings = {
    X1: plane_vector(0.0),
    X2: plane_vector(np.pi / 2),
    Y1: plane_vector(-3 * np.pi / 4),
    Y2: plane_vector(3 * np.pi / 4),
}
observed = {
    pair: spatial_correlator(singlet_state(), *(settings[v] for v in sorted(pair)))
    for pair in PAIRS
}
for pair in PAIRS:
    print(f"  <{format_varset(pair)}> = {observed[pair]:+.6f}")

result = jd_feasibility(catalog.load_scenario("chsh.scn"), observed)
print(f"feasible: {result.feasible}")
cert = result.certificate
combo = " ".join(
    f"{coeff:+g}*{format_varset(pair)}" for pair, coeff in sorted(
        cert.pair_coefficients.items(), key=lambda kv: sorted(kv[0])
    )
)
print(f"certificate: {combo} <= {cert.bound}")
print(f"observed value {cert.observed_value:.6f}, violation {cert.violation:.6f}")
print()

##############################################################################
# Shrink the same correlators toward zero and the table exists again; the
# solver hands back an explicit witness distribution.

damped = {pair: 0.7 * value for pair, value in observed.items()}
result = jd_feasibility(catalog.load_scenario("chsh.scn"), damped)
print(f"at 70% strength feasible: {result.feasible}")
print(f"witness support: {len(result.model.support)} deterministic assignments")
print()

##############################################################################
# Round trip: correlators generated by an explicit hidden-variable model
# must always be recognized as feasible, and the recovered table must
# reproduce them.

rng = np.random.default_rng(7)
names = (X1, X2, Y1, Y2)
model = random_dhv_model(names, rng, support_size=4)
target = {pair: model.correlator(*sorted(pair)) for pair in PAIRS}
recovered = jd_feasibility(catalog.load_scenario("chsh.scn"), target)
worst = max(
    abs(recovered.model.correlator(*sorted(pair)) - value)
    for pair, value in target.items()
)
print(f"model round trip feasible: {recovered.feasible}, worst gap {worst:.2e}")
print()

##############################################################################
# The same existence logic runs forward: two overlapping three-variable
# tables that agree on their shared margin glue into one four-variable
# table.  When the input factorizes through the shared pair the glued
# table is exact, and its margins always reproduce the inputs.

weights = rng.random((2, 2))              # p(x2, y)
weights /= weights.sum()
f_first = rng.random((2, 2, 2))           # p(x1 | x2, y)
f_first /= f_first.sum(axis=0, keepdims=True)
f_last = rng.random((2, 2, 2))            # p(x3 | x2, y)
f_last /= f_last.sum(axis=0, keepdims=True)
joint = np.einsum("cy,icy,bcy->icby", weights, f_first, f_last)  # (x1,x2,x3,y)

table_a = joint.sum(axis=2)               # p(x1, x2, y)
table_b = joint.sum(axis=0)               # p(x2, x3, y)
glued = reconstruct_pc(table_a, table_b)  # axes (x1, x3, y, x2)
back_a = glued.sum(axis=1).transpose(0, 2, 1)
back_b = glued.sum(axis=0).transpose(2, 0, 1)
exact = np.abs(glued.transpose(0, 3, 1, 2) - joint).max()
print(f"glued table deviates from the true joint by {exact:.2e}")
print(f"first margin recovered to {np.abs(back_a - table_a).max():.2e}")
print(f"second margin recovered to {np.abs(back_b - table_b).max():.2e}")
