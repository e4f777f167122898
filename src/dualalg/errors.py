"""Exception types shared across the package.

Contract violations raise one of these; plain ``assert`` is reserved for
internal invariants that indicate an implementation bug rather than bad
input.
"""


class DualalgError(Exception):
    pass


class NonSquare(DualalgError):
    pass


class DimensionMismatch(DualalgError):
    pass


class InvalidCartan(DualalgError):
    pass


class CapExceeded(DualalgError):
    pass


class NotDominant(DualalgError):
    pass


class StrategyInapplicable(DualalgError):
    pass


class ContextMismatch(DualalgError):
    pass


class LimitExceeded(DualalgError):
    pass


class NonIntegral(DualalgError):
    """A quantity that the theory promises to be an integer failed to be one.

    Signals a convention bug (e.g. a wrong twisted-sector matrix), never bad
    user input.
    """


class NonTermination(DualalgError):
    """A reduction step failed to strictly decrease its descent measure."""


class BadPrime(DualalgError):
    pass


class PrimeMismatch(DualalgError):
    pass


class QEven(DualalgError):
    pass


class ReductionUnsolvable(DualalgError):
    """The certified linear solve behind a normal form has no integer solution."""


class CrossCheckFailed(DualalgError):
    """Two independent computations of the same quantity disagree."""
