"""Exception types shared across the package.

Every check raises one of these, never a bare ``assert`` (which ``python -O``
strips): bad input and limits raise the plain types, and a failed
mathematical check raises NonIntegral, NonTermination, ReductionUnsolvable
or CrossCheckFailed, which the command line maps to exit 2.
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
