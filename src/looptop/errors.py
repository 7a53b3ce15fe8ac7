"""Error taxonomy shared across the engine, the one integer check and the
one reader of integer text."""

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


def read_int(text):
    """The integer that `text` spells: an optional sign and ASCII digits,
    with whitespace around them.  Anything else raises ValueError, as do
    the underscores and non-ASCII digits that `int()` would take."""
    digits = text.strip()
    if digits[:1] in ("+", "-"):
        digits = digits[1:]
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


read_int.__name__ = "int"  # argparse names a flag's type in its message: "invalid int value"
