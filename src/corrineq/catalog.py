"""Shipped expression and scenario files plus cycle-family generators.

The data files under corrineq/data are the canonical statements of the
inequalities this package reproduces. Callers read them by file name,
`load_expression("chsh.rsx")` and `load_scenario("chsh.scn")`; the odd
n-cycle generalizations are built here programmatically.
"""

from __future__ import annotations

from importlib import resources

from .dsl import LinearForm, ScenarioSpec, SosExpression, VariableId, parse_scenario, parse_sos


def _data_text(name: str) -> str:
    return resources.files("corrineq").joinpath("data").joinpath(name).read_text(encoding="utf-8")


def load_expression(name: str) -> SosExpression:
    """Parse one of the shipped .rsx files by file name."""
    return parse_sos(_data_text(name))


def load_scenario(name: str) -> ScenarioSpec:
    """Parse one of the shipped .scn files by file name."""
    return parse_scenario(_data_text(name))


def _x(i: int) -> VariableId:
    return VariableId("X", i)


def _cycle(n: int, even: int) -> SosExpression:
    """Edge groups (X_{2k-1}+even*X_{2k}+X_{2k+1})^2 cover consecutive edges;
    correction groups (X1-X_{2k+1}+X_{2k+3})^2 cancel the skips and close
    the cycle, n-2 odd groups in total."""
    if n < 5 or n % 2 == 0:
        raise ValueError(f"cycle length must be odd and at least 5, got {n}")
    groups = [LinearForm(((1, _x(2 * k - 1)), (even, _x(2 * k)), (1, _x(2 * k + 1))))
              for k in range(1, (n - 1) // 2 + 1)]
    groups += [LinearForm(((1, _x(1)), (-1, _x(2 * k + 1)), (1, _x(2 * k + 3))))
               for k in range(1, (n - 3) // 2 + 1)]
    return SosExpression(tuple(groups), bound=n - 2)


def cycle_source(n: int) -> SosExpression:
    """Sum-of-squares source whose expansion is the n-cycle X1X2+...+XnX1.

    Needs odd n >= 5.
    """
    return _cycle(n, 1)


def alternating_cycle_source(n: int) -> SosExpression:
    """Source for the chain X1X2+...+X_{n-1}Xn - XnX1 with bound n-2.

    The cycle's source with every even-index variable negated, which
    flips each edge term's sign except the closing one; canonicalization
    then yields the chain bounded above by n-2.
    """
    return _cycle(n, -1)


def cycle_scenario(n: int) -> ScenarioSpec:
    """Odd n-cycle compatibility: neighbouring variables share a context."""
    if n < 3:
        raise ValueError(f"cycle length must be at least 3, got {n}")
    variables = tuple(_x(i) for i in range(1, n + 1))
    contexts = tuple(
        frozenset({_x(i), _x(i % n + 1)}) for i in range(1, n + 1)
    )
    return ScenarioSpec(variables, {v: "X" for v in variables}, contexts, ())
