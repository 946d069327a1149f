"""Exact verification engine for the canonical coframe geometry of
quaternionic contact structures."""

__version__ = "0.1.0"


class InputError(ValueError):
    """Bad input from outside the program: a command-line value, an n or
    signature out of range, or a malformed component or chart file.  The
    CLI reports it as a usage error (exit 2); any other exception escaping
    a command is an internal defect (exit 3)."""
