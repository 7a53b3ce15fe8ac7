"""Error taxonomy shared across the engine, and the one integer check."""

import operator


class LooptopError(Exception):
    """Base class for all engine errors."""


class ValidationError(LooptopError):
    """Invalid user input: malformed space data, bad parameters."""


class UnsupportedSpaceError(ValidationError):
    """The space is well-formed but outside the supported families."""


class IntegrityError(LooptopError):
    """An internal cross-check failed.

    Raised when two pipelines that must agree disagree (wrong sign
    convention, non-integral dimension, d*d != 0, ...).  Always a bug or
    an invalid model slipping past validation, never a user mistake.
    """


class WindowError(LooptopError):
    """A quantity was requested outside the computed truncation window."""


def as_int(value, what):
    """`value` as an int, checked with `operator.index` and never parsed:
    2.0 and "2" are refused with a ValidationError that names `what`."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValidationError(f"{what} must be an integer, got {value!r}")
