"""
Deriving correlation inequalities from sums of squares
======================================================

Every derivation in this package starts from the same one-line fact:
a square of an integer combination of +-1 variables with an odd
coefficient sum is an odd integer squared, hence at least 1.  Summing
a few such squares and expanding with v^2 = 1 turns the bound on the
squares into a bound on pairwise correlators.
"""

from corrineq import catalog
from corrineq.dsl import format_sos, parse_sos
from corrineq.lhv import classical_extrema
from corrineq.polynomials import derive_inequality, format_inequality, validate_odd_groups

##############################################################################
# Start from plain text.  Two squared groups, each with three variables and
# an odd coefficient sum, so the left side is at least 2.

source = parse_sos("(X1 - Y1 - Y2)^2 + (X2 - Y1 + Y2)^2 >= 2")
print("source:  ", format_sos(source))

for verdict in validate_odd_groups(source):
    print(
        f"  group of {verdict.term_count}: coefficient sum "
        f"{verdict.coefficient_sum} ({verdict.parity})"
    )

##############################################################################
# Expanding the squares cancels every v^2 and halves the remaining cross
# terms; what survives is the four-term two-party inequality with bound 2.

ineq = derive_inequality(source)
print("derived: ", format_inequality(ineq))

##############################################################################
# The derivation claims a bound over all deterministic +-1 assignments.
# The exact extremes over all 2^n of them confirm it is tight.

extrema = classical_extrema(ineq)
print(
    f"exact over {extrema.assignments_checked} assignments: "
    f"min {extrema.minimum}, max {extrema.maximum}"
)
print()

##############################################################################
# The bundled catalog carries one source per family.  Deriving each and
# re-checking its exact extremes takes a fraction of a second.

for name, expr in [
    ("pentagon cycle", catalog.load_expression("kcbs.rsx")),
    ("heptagon (offset form)", catalog.load_expression("cycle7.rsx")),
    ("four-time sequential", catalog.load_expression("lg.rsx")),
    ("hybrid tensor/sequential", catalog.load_expression("hybrid.rsx")),
    ("pentagon + cross-party monogamy", catalog.load_expression("monogamy.rsx")),
]:
    derived = derive_inequality(expr)
    bounds = classical_extrema(derived)
    print(f"{name}:")
    print(f"  {format_inequality(derived)}")
    print(f"  classical min {bounds.minimum}, max {bounds.maximum}")
print()

##############################################################################
# Families scale with the cycle length: the n-cycle sum of adjacent
# correlators is at least -(n - 2), and the sign-alternating chain is at
# most n - 2.  Both follow from (n - 1)/2 squares plus bookkeeping.  Each
# variable meets only its two neighbours, so bucket elimination finds the
# exact extremes far past the 24 variables of a brute-force scan: the
# 101-cycle has 2^101 assignments.

print("n   cycle bound   chain bound")
for n in (5, 7, 9, 11, 13, 101):
    cycle = derive_inequality(catalog.cycle_source(n))
    chain = derive_inequality(catalog.alternating_cycle_source(n))
    low = classical_extrema(cycle).minimum
    high = classical_extrema(chain).maximum
    assert low == cycle.bound and high == chain.bound
    print(f"{n:<4}{str(cycle.bound):<14}{chain.bound}")
