"""
One observable set cannot violate two tests at once
===================================================

Five X observables arranged in a pentagon support a contextuality
test; the outer pair X1, X3 also enters a four-term nonlocality test
with a remote party's Y1, Y2.  Either test on its own can go well
past its classical floor in any no-disturbance theory.  Their sum
cannot: one sum-of-squares certificate caps the combined objective at
the classical value, so pushing one test to its extreme forces the
other back into the classical range.
"""

from corrineq import catalog
from corrineq.dsl import format_sos
from corrineq.lhv import classical_extrema, monogamy_check, nodisturbance_optimum
from corrineq.polynomials import (
    CROSS_PARTY,
    derive_inequality,
    format_inequality,
    term_kinds,
)

##############################################################################
# The certificate is five squared forms over seven observables.  Its
# expansion contains exactly the four cross-party products plus the
# five pentagon edges, so the derived lower bound applies to the sum
# of both tests.  The scenario's parties tell the two apart.

source = catalog.load_expression("monogamy.rsx")
scenario = catalog.load_scenario("monogamy.scn")
derived = derive_inequality(source)
print(f"source:  {format_sos(source)}")
print(f"derived: {format_inequality(derived)}")

kinds = term_kinds(derived.terms, scenario)
cross = [m for m in derived.terms if kinds[m.variables] == CROSS_PARTY]
edges = [m for m in derived.terms if m not in cross]
print(f"{len(cross)} cross-party terms, {len(edges)} pentagon edges")

##############################################################################
# Each part separately: the exact classical floor, then the
# no-disturbance floor from a linear program over context-wise
# outcome tables with matching marginals.  Both parts beat their
# classical floors by a full two units when optimized alone.

report = monogamy_check(scenario, source)

cross_terms = {m.variables: m.coefficient for m in cross}
print(f"\ncross-party part: classical min {classical_extrema(cross_terms).minimum}, "
      f"no-disturbance min {report.chsh_nd_min:+.6f}")
print(f"pentagon part:    classical min {report.kcbs_classical_min}, "
      f"no-disturbance min {report.kcbs_nd_min:+.6f}")

##############################################################################
# The sum is different.  Its no-disturbance minimum equals the
# symbolic bound from the certificate -- which is also the classical
# minimum.  No-disturbance correlations gain nothing at all on the
# combined objective.

print(f"\ncombined no-disturbance minimum: {report.combined_nd_min:+.6f}")
print(f"symbolic bound from the squares: {report.symbolic_bound}")
print(f"agreement within tolerance: {report.agreement}")

##############################################################################
# Where does the joint optimum actually sit?  Reading the two parts
# off the optimizing behavior shows the split: neither part reaches
# its private floor once the other is in the objective.


def behavior_correlator(opt, a, b):
    for ctx, table in zip(opt.contexts, opt.behavior):
        if a in ctx and b in ctx:
            i, j = ctx.index(a), ctx.index(b)
            return sum(w * out[i] * out[j] for out, w in table.items())
    raise LookupError(f"no context contains both {a} and {b}")


objective = {m.variables: float(m.coefficient) for m in derived.terms}
opt = nodisturbance_optimum(scenario, objective, "min")
part_values = {}
for name, part in [("cross-party", cross), ("pentagon", edges)]:
    total = 0.0
    for m in part:
        a, b = sorted(m.variables)
        total += float(m.coefficient) * behavior_correlator(opt, a, b)
    part_values[name] = total
    print(f"at the joint optimum the {name} part contributes {total:+.6f}")
print(f"sum: {sum(part_values.values()):+.6f}")

##############################################################################
# The marginal-consistency rows carry the whole effect.  Dropping
# them lets every context optimize independently and each of the nine
# terms hit -1, far below anything a single physical theory allows.

print(f"\nwithout marginal consistency the objective reaches "
      f"{report.relaxed_min:+.6f} (nine terms at -1 each)")
