"""Terminating generalized hypergeometric series at unit argument, exactly.

A pFq with at least one nonpositive-integer upper parameter is a finite sum;
with rational parameters every term is rational, so the value is computed
exactly, without any floating point.  Parameters are ints or Fractions;
each one is read once, as its integer ratio, with no conversion.
The subspace-dimension and multiplicity formulas for identical spins are
such series, as are the Catalan and Riordan number identities they
specialize to; spincg.crosscheck holds the former.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod
from typing import Iterable

from .errors import DomainError

__all__ = ["eval_terminating_pfq", "termination_index"]

Rational = int | Fraction


def termination_index(uppers: Iterable[Rational]) -> int | None:
    """K = min{-a : a a nonpositive integer among uppers}, or None.

    The series terminates after the term of index K, because the Pochhammer
    factor of that parameter vanishes from then on.
    """
    return _termination([u.as_integer_ratio() for u in uppers])


def _termination(ratios: list[tuple[int, int]]) -> int | None:
    # termination_index of parameters read as (p, q), in lowest terms, q > 0
    return min([-p for p, q in ratios if q == 1 and p <= 0], default=None)


def eval_terminating_pfq(
    uppers: Iterable[Rational], lowers: Iterable[Rational]
) -> Fraction:
    """Sum of pFq(uppers; lowers; 1) for a terminating series.

    Terms are accumulated through the ratio t_{k+1} / t_k = prod(a + k) /
    (prod(b + k) (k + 1)), starting from t_0 = 1.  Raises DomainError if no
    upper parameter is a nonpositive integer (the series would not
    terminate) and ZeroDivisionError if a lower parameter hits zero before
    the series terminates; such a cancellation must be resolved by the
    caller, never silently skipped.  A factor a + k is (p + k q) / q for
    a = p / q, so the terms and their sum are integers over one common
    denominator, with no gcd until the one Fraction at the end.
    """
    up_pairs = [a.as_integer_ratio() for a in uppers]
    lo_pairs = [b.as_integer_ratio() for b in lowers]
    stop = _termination(up_pairs)
    if stop is None:
        raise DomainError(
            "series does not terminate: no nonpositive-integer upper parameter"
        )
    pole = _termination(lo_pairs)  # the first k at which some b + k = 0
    if pole is not None and pole < stop:
        raise ZeroDivisionError(
            f"lower parameter {-pole} reaches zero at term {pole + 1} "
            f"before the series terminates at {stop}"
        )
    up_scale = prod(q for _, q in up_pairs)
    lo_scale = prod(q for _, q in lo_pairs)
    term = total = scale = 1  # t_k = term / scale, partial sum = total / scale
    for k in range(stop):
        numerator = lo_scale * prod([p + k * q for p, q in up_pairs])
        denominator = (k + 1) * up_scale * prod([p + k * q for p, q in lo_pairs])
        term *= numerator
        scale *= denominator
        total = total * denominator + term
    return Fraction(total, scale)
