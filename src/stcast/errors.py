"""Exception hierarchy shared across the package.

Every error raised by library code derives from :class:`StcastError` so
callers (and the CLI) can map failures to exit codes without string
matching.  :func:`check_integer` is the one integer-field rule of the
config dataclasses.
"""

import numbers


class StcastError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class InputValidationError(StcastError, ValueError):
    """An argument violates a documented precondition (bad range, bad shape)."""

    exit_code = 2


class DegenerateInputError(InputValidationError):
    """Input is structurally unusable (e.g. fewer than two regions)."""

    exit_code = 2


class InsufficientDataError(StcastError, ValueError):
    """Not enough time steps for the requested operation."""

    exit_code = 3


class EstimationError(StcastError, RuntimeError):
    """Regression failed (singular design, rank-deficient instruments, ...)."""

    exit_code = 4


class NonstationarityError(EstimationError):
    """Estimated spatial autoregressive coefficient left the unit interval."""

    exit_code = 4


class DivergenceError(StcastError, RuntimeError):
    """Training produced a non-finite loss."""

    exit_code = 5


class PropagationError(StcastError, ValueError):
    """A non-finite value entered the recurrent encoder or left a score."""

    exit_code = 5


class GeneratorInstabilityError(StcastError, RuntimeError):
    """Synthetic dynamics exploded (|y| beyond the stability bound)."""

    exit_code = 6


class IngestionError(StcastError, ValueError):
    """CSV input is malformed; message carries a row/line diagnostic."""

    exit_code = 7


class AlignmentError(StcastError, ValueError):
    """Forecast and truth artifacts do not cover the same cells."""

    exit_code = 8


class ConfigError(StcastError, ValueError):
    """Run configuration is missing, unparsable, or inconsistent."""

    exit_code = 9


def check_integer(name: str, value, least: int | None = None) -> None:
    """Reject a value that is not an integer, a bool or a float such as
    8.0 included (it compares equal to 8 but breaks array shapes and
    seeds), or, when ``least`` (0 or 1) is given, one below it."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or (least is not None and value < least)):
        kind = {None: "an", 0: "a non-negative", 1: "a positive"}[least]
        raise InputValidationError(f"{name} must be {kind} integer")
