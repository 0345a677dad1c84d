"""Exception and warning types shared across the package."""


class DslSyntaxError(ValueError):
    """Raised when source text cannot be parsed.

    Carries the 1-based line and column of the first offending character.
    """

    def __init__(self, message, line, column):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class DuplicateVariableInGroup(ValueError):
    """A variable appears more than once inside a single squared form."""


class ZeroCoefficient(ValueError):
    """A term with coefficient zero was written explicitly."""


class _LookupMessage(KeyError):
    """A KeyError that prints its message as written; KeyError's str is the message's repr."""

    __str__ = BaseException.__str__


class UndeclaredVariable(_LookupMessage):
    """An expression mentions a variable absent from the scenario declaration."""


class InconsistentContext(ValueError):
    """A scenario declares contexts that contradict each other."""


class ResidualDegreeError(ArithmeticError):
    """Polynomial reduction left terms of degree other than 0 or 2."""


class TooManyVariables(ValueError):
    """Exhaustive enumeration was asked for beyond its variable cap."""


class CoefficientsTooLarge(ValueError):
    """Coefficients too large for exact floating-point enumeration."""


class DimensionMismatch(ValueError):
    """Array shapes disagree: LP rows and columns, or a state or operator of the wrong size."""


class NumericalBreakdown(ArithmeticError):
    """A pivot fell below the breakdown threshold; result would be unreliable."""


class TermOutsideContext(ValueError):
    """An objective term is not jointly measurable in any declared context."""


class NonUnitVector(ValueError):
    """A Bloch direction does not have unit length."""


class NotHermitian(ValueError):
    """A matrix expected to be Hermitian is not, beyond tolerance."""


class MissingSetting(_LookupMessage):
    """No measurement direction was supplied for a variable."""


class MissingAssignment(_LookupMessage):
    """The variables' parties do not fit on two qubits."""


class ProvisoViolated(ValueError):
    """Input tables fail the marginal-consistency precondition."""


class DivisionByZeroCell(ZeroDivisionError):
    """A reconstruction formula divides by a zero-probability cell."""


class UnmappedVariable(_LookupMessage):
    """Classification needs a party or timing for a variable that has none."""


class BudgetExhausted(RuntimeError):
    """Optimization ran out of its evaluation budget before converging.

    The best point seen so far is attached so callers can still inspect it.
    """

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


class EvenGroupWarning(UserWarning):
    """A squared form has an even coefficient sum, so its square can vanish."""
