"""Exact verification engine for the canonical coframe geometry of
quaternionic contact structures."""

from fractions import Fraction

__version__ = "0.1.0"


class InputError(ValueError):
    """Bad input from outside the program: a command-line value, an n or
    signature out of range, or a malformed component or chart file.  The
    CLI reports it as a usage error (exit 2); any other exception escaping
    a command is an internal defect (exit 3)."""


# the largest decimal exponent a string may carry: CPython's default
# int-string limit, so "1e100000000" is refused before 10^(10^8) is built
MAX_EXPONENT = 4300


def excerpt(v) -> str:
    """repr(v) for an error message; a longer repr is cut after 40
    characters and followed by its length, so the message stays short."""
    text = repr(v)
    return text if len(text) <= 40 else f"{text[:40]}... ({len(text)} characters)"


def rational_from_json(v, where: str) -> Fraction:
    """An exact rational from a JSON string or integer.  A JSON float is
    refused: it is read as a binary fraction, not the decimal written.  A
    boolean is refused too, though Python counts it as an integer, and so
    is a string whose exponent exceeds MAX_EXPONENT in size."""
    if isinstance(v, str):
        exp = v.lower().partition("e")[2].strip().lstrip("+-").replace("_", "").lstrip("0")
        if exp.isdecimal() and (len(exp) > len(str(MAX_EXPONENT)) or int(exp) > MAX_EXPONENT):
            raise InputError(f"{where}: the exponent of {excerpt(v)} exceeds {MAX_EXPONENT}")
        try:
            return Fraction(v)
        except (ValueError, ZeroDivisionError):
            raise InputError(f"{where}: {excerpt(v)} is not a rational number") from None
    if isinstance(v, int) and not isinstance(v, bool):
        return Fraction(v)
    raise InputError(f"{where}: expected a string or an integer, got {excerpt(v)}")


def int_from_json(v, where: str) -> int:
    """A JSON integer; a float, a boolean or a string is refused."""
    if isinstance(v, int) and not isinstance(v, bool):
        return v
    raise InputError(f"{where}: expected an integer, got {excerpt(v)}")
