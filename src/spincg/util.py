"""Small integer helpers used throughout the package."""

from __future__ import annotations

import math


def binom(n: int, k: int) -> int:
    """Binomial coefficient C(n, k) under the summation conventions used here.

    Returns 0 for k < 0 and for 0 <= n < k.  For k == 0 the value is 1 for
    every n, including negative n; the alternating sums in this package only
    ever reach a negative top argument with k == 0 (for example C(-1, 0) in
    the q -> 1 limit identities), where the empty product is 1.
    """
    if k < 0:
        return 0
    if k == 0:
        return 1
    if n < k:
        return 0
    return math.comb(n, k)


def decimal_text(n: int) -> str:
    """n as decimal text: str(n), or past the interpreter's int/str digit cap,
    str of an exact, uncapped Decimal."""
    try:
        return str(n)
    except ValueError:
        from decimal import Decimal
        return str(Decimal(n))
