"""Exception types shared across the package."""

from __future__ import annotations


class DatacauseError(Exception):
    """Base class for every error raised by this package.

    A :class:`NoExplanationFound` or :class:`OracleError` that ends an
    engine run carries the run's intervention log as ``log``; any other
    error carries None.
    """

    log = None


class CsvParseError(DatacauseError):
    """A CSV file could not be parsed (bad arity, missing header, ...)."""

    def __init__(self, message: str, row_index: int | None = None):
        super().__init__(message)
        self.row_index = row_index


class SchemaError(DatacauseError):
    """Duplicate/unknown attribute names or mismatched schemas."""


class ColumnTypeError(DatacauseError):
    """An operation was applied to a column of an incompatible type."""


class DegenerateInputError(DatacauseError):
    """Not enough data to compute the requested quantity."""


class DomainError(DatacauseError):
    """Argument outside the mathematical domain of a function."""


class PredicateError(DatacauseError):
    """A selection predicate is malformed."""


class TransformFailure(DatacauseError):
    """A transformation could not reach zero violation.

    Carries the smallest violation that was achieved before giving up.
    """

    def __init__(self, message: str, best_violation: float):
        super().__init__(message)
        self.best_violation = best_violation


class ValidationError(DatacauseError):
    """A precondition on the inputs of a run does not hold."""


class OracleError(DatacauseError):
    """Base class for scorer failures."""


class OracleTimeoutError(OracleError):
    """The external scorer did not answer within its time budget."""


class OracleProtocolError(OracleError):
    """The scorer produced output that is not a score in [0, 1]."""


class OracleFailureError(OracleError):
    """The external scorer exited with a nonzero status."""


class NoExplanationFound(DatacauseError):
    """The search space was exhausted without bringing the score below tau."""


class ScenarioSpecError(DatacauseError):
    """A synthetic-scenario specification is inconsistent."""


class BisectionSizeError(DatacauseError):
    """Bisection requires at least two nodes."""
