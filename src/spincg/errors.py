"""Exception types shared across the package.

Each class carries the exit code cli.main returns for it as exit_code, so
the mapping is decided here: parse errors exit 2, domain errors exit 3,
budget and size-limit overruns exit 4.
"""

from __future__ import annotations

__all__ = ["SpinParseError", "DomainError", "BudgetExceededError"]


class SpinParseError(ValueError):
    """Malformed spin or composition specification text."""

    exit_code = 2


class DomainError(ValueError):
    """Arguments outside an operation's mathematical domain."""

    exit_code = 3


class BudgetExceededError(RuntimeError):
    """An oracle's state budget, or the sequence --count limit, was exceeded."""

    exit_code = 4
