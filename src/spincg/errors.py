"""Exception types shared across the package.

Each class carries the exit code cli.main returns for it as exit_code, so
the mapping is decided here: parse errors exit 2, domain errors exit 3,
enumeration budget overruns exit 4.
"""

from __future__ import annotations


class SpinParseError(ValueError):
    """Malformed spin or composition specification text."""

    exit_code = 2


class DomainError(ValueError):
    """Arguments outside an operation's mathematical domain."""

    exit_code = 3


class BudgetExceededError(RuntimeError):
    """A brute-force oracle was asked to enumerate more states than allowed."""

    exit_code = 4
