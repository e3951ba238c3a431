"""Exception hierarchy shared across the package.

Every error raised by library code derives from :class:`StcastError` so
callers (and the CLI) can map failures to exit codes without string
matching.  :func:`check_integer` and :func:`check_real` are the one
integer and the one real-valued rule; :func:`check_distinct` is the one
rule that a region axis names each region once.  :func:`check_settings`
holds each field of a config dataclass to the rule of its declared type,
as :func:`setting` narrows it; ``PARSERS`` reads each type from text.
"""

import math
import numbers
from collections import Counter
from dataclasses import field, fields
from functools import cache

import numpy as np


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


def check_real(name: str, value, interval: str = "(-inf, inf)") -> None:
    """Reject a value that is not a real number, a bool or a string
    included, or that lies outside ``interval``, written like ``(0, 1)``,
    ``[0, inf)`` or ``(0, inf]``; NaN lies in none."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InputValidationError(f"{name} must be a real number, got {value!r}")
    lo, hi = (float(b) for b in interval[1:-1].split(","))
    left, right = interval[0] == "[", interval[-1] == "]"
    if lo < value < hi or left and value == lo or right and value == hi:
        return
    holds_inf = left and lo == -math.inf or right and hi == math.inf
    if not (holds_inf or math.isfinite(value)):
        wording = "finite"
    elif math.isfinite(lo) and math.isfinite(hi):
        wording = f"in {interval}"
    else:
        wording = (f"{'>=' if left else '>'} {lo:g}" if math.isfinite(lo)
                   else f"{'<=' if right else '<'} {hi:g}")
        wording = wording if holds_inf else "finite and " + wording
    raise InputValidationError(f"{name} must be {wording}, got {value}")


def check_distinct(ids, error: type[StcastError] = InputValidationError,
                   where: str = "") -> None:
    """Reject region ids that name a region more than once."""
    if len(set(ids)) != len(ids):
        dupes = sorted(i for i, k in Counter(ids).items() if k > 1)
        raise error(f"{where}duplicate region ids: {dupes}")


def setting(default, *, least=None, interval="(-inf, inf)", choices=None, help=None):
    """A config field with the rule that narrows its type's: ``least``
    (0 or 1) for an int, ``interval`` for a float or each entry of a tuple
    of reals, ``choices`` for a str; ``help`` is its flag's help text."""
    return field(default=default, metadata={
        "least": least, "interval": interval, "choices": choices, "help": help})


_UNDECLARED = setting(None).metadata
_fields = cache(fields)   # each config class's fields, listed once


def check_settings(config) -> None:
    """Hold each field of the dataclass ``config``, in order, to the rule
    of its annotation's text (the config modules postpone annotations)."""
    for f in _fields(type(config)):
        name, kind, value = f.name, f.type, getattr(config, f.name)
        rule = f.metadata or _UNDECLARED
        if kind == "int":
            check_integer(name, value, rule["least"])
        elif kind == "float":
            check_real(name, value, rule["interval"])
        elif kind == "tuple[float, ...]":
            if not isinstance(value, (tuple, list, np.ndarray)):
                raise InputValidationError(f"{name} must be a sequence of reals, got {value!r}")
            for v in value:
                check_real(name, v, rule["interval"])
        elif kind == "bool" and not isinstance(value, bool):
            raise InputValidationError(f"{name} must be true or false, got {value!r}")
        elif kind == "str":
            # A path given as an int would be read as a file descriptor.
            choices = rule["choices"]
            if not isinstance(value, str) or choices and value not in choices:
                wording = f"one of {choices}" if choices else "a string"
                raise InputValidationError(f"{name} must be {wording}, got {value!r}")


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(","))


_floats.__name__ = "float list"     # argparse: "invalid float list value"


_BOOLEANS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}

# Each declared type's parser of text; a KeyError or ValueError refuses it.
PARSERS = {"int": int, "float": float, "tuple[float, ...]": _floats,
           "bool": lambda text: _BOOLEANS[text.lower()], "str": str}
