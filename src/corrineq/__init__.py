"""Workbench for correlation inequalities built from sums of squares.

Squares of odd linear forms in ±1 variables expand into Bell-type,
contextuality, temporal, and hybrid inequalities; the package derives
them symbolically, certifies classical bounds by enumeration, tests
joint-distribution existence by linear programming, evaluates qubit
strategies exactly, and simulates the sequential measurement protocol.
"""
