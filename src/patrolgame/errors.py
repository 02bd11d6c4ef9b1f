"""Exception types shared across the package."""


class PatrolGameError(Exception):
    """Base class for all errors raised by this package."""


class InvalidSpec(PatrolGameError):
    """A graph or scenario descriptor is malformed (sizes, families, durations)."""


class Unsupported(InvalidSpec):
    """The family has no such construction (synthesis, allocation, oracle)."""


class DimensionMismatch(PatrolGameError):
    """Vector or matrix dimensions do not agree."""


class NotIrreducible(PatrolGameError):
    """The transition matrix support is not strongly connected."""


class InfeasibleTau(PatrolGameError):
    """Attack durations make the capture probability identically zero."""


class TrivialGame(PatrolGameError):
    """Parameters fall outside the nontrivial game range."""


class BudgetOutOfRange(PatrolGameError):
    """Defense budget outside the valid open interval for the family."""


class ParityError(PatrolGameError):
    """An even budget was required but an odd one was supplied."""


class SearchSpaceExceeded(PatrolGameError):
    """An oracle was asked to enumerate more candidates than its guard allows."""
