"""Counting applications riding on the decomposition machinery.

The singlet (J = 0) multiplicity of r copies of a D-level system, read as
spin (D-1)/2, is the number of isotropic (rotationally invariant) rank-r
isomers, and it counts classical combinatorial objects:

* D = 2, r = 2v (2v spin-1/2): the Catalan number C_v,
* D = 3, r = v (v spin-1): the Riordan number R_v.

One value runs through decompose itself, an end-to-end check of the core
(one spin, and an odd 2J_0 = r(D-1), return 0 first).  A run of values, as
the catalan and riordan verbs print, comes from the classical recurrences.

A bounded-composition problem is a spin multiset: d_a parts bounded by n_a
each are d_a spins of twice-spin n_a, a part is a spin's magnetization
level counted up from -j, and the number of ways to write n as an ordered
sum of those parts (zero allowed) is Omega at n of the multiset.  Fair-dice
sum probabilities follow as exact Fractions.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .decompose import _omega_at, decompose
from .errors import BudgetExceededError, DomainError, SpinParseError
from .spins import SpinMultiset, _integer

__all__ = [
    "catalan",
    "riordan",
    "isotropic_isomers",
    "parse_composition_spec",
    "count_compositions",
    "dice_probability",
]

_PART_RE = re.compile(r"^(\d+)(?:\^(\d+))?$")
# The most terms one catalan or riordan run gives: it bounds the output, 7.5 MB
# of text at 5,000 Catalan numbers.
SEQUENCE_COUNT_LIMIT = 5000
_STARTS = {"catalan": (1, 1), "riordan": (1, 0)}  # (x_0, x_1) of each _sequence run


def catalan(v: int) -> int:
    """Catalan number C_v as the singlet multiplicity of 2v spin-1/2."""
    if v < 0:
        raise DomainError("catalan needs v >= 0")
    return isotropic_isomers(2, 2 * v)


def riordan(v: int) -> int:
    """Riordan number R_v as the singlet multiplicity of v spin-1."""
    if v < 0:
        raise DomainError("riordan needs v >= 0")
    return isotropic_isomers(3, v)


def _sequence(term: str, count: int) -> list[int]:
    """The first count Catalan or Riordan numbers, from their P-recurrences.

    (v+1) C_v = 2(2v-1) C_{v-1} (Stanley, Catalan Numbers, 2015) and (v+1) R_v =
    (v-1)(2 R_{v-1} + 3 R_{v-2}) (Bernhart, Discrete Math. 204, 1999).  Each
    division must be exact, and the last term must equal its singlet via decompose.
    """
    if count < 0:
        raise DomainError("--count must be >= 0")
    if count > SEQUENCE_COUNT_LIMIT:
        raise BudgetExceededError(f"--count must be <= {SEQUENCE_COUNT_LIMIT}")
    values = list(_STARTS[term][:count])
    for v in range(2, count):
        if term == "catalan":
            scaled = 2 * (2 * v - 1) * values[v - 1]
        else:
            scaled = (v - 1) * (2 * values[v - 1] + 3 * values[v - 2])
        value, rem = divmod(scaled, v + 1)
        if rem:
            raise ArithmeticError(f"{term} recurrence: inexact step at v={v}")
        values.append(value)
    if count and values[-1] != (catalan if term == "catalan" else riordan)(count - 1):
        raise ValueError(f"inconsistent {term} run: term {count - 1} is not its singlet")
    return values


def isotropic_isomers(dim: int, rank: int) -> int:
    """Isotropic rank-`rank` isomers of a dim-level unit.

    Each unit carries spin (dim-1)/2; the isomer count is the singlet
    multiplicity of rank copies.
    """
    if dim < 2:
        raise DomainError("isotropic_isomers needs dim >= 2")
    if rank < 0:
        raise DomainError("isotropic_isomers needs rank >= 0")
    if rank == 0:
        # an empty tensor product is the scalar representation
        return 1
    if rank * (dim - 1) % 2:
        return 0
    return decompose(SpinMultiset.from_entries({dim - 1: rank})).multiplicity(0)


def parse_composition_spec(text: str) -> SpinMultiset:
    """Parse "2^5,4^3,5^4" into its parts: the bounds as twice-spins, with counts."""
    cleaned = re.sub(r"\s+", "", text)
    if not cleaned:
        raise SpinParseError("empty composition specification")
    bounds: dict[int, int] = {}
    for token in cleaned.split(","):
        match = _PART_RE.match(token)
        if not match:
            raise SpinParseError(f"malformed part token {token!r}")
        bound = _integer(match.group(1))
        count = 1 if match.group(2) is None else _integer(match.group(2))
        if bound == 0:
            raise SpinParseError(f"part bound 0 is not allowed, got {token!r}")
        if count == 0:
            raise SpinParseError(f"zero count in token {token!r}")
        bounds[bound] = bounds.get(bound, 0) + count
    return SpinMultiset.from_entries(bounds)


def count_compositions(parts: SpinMultiset, n: int, zero_allowed: bool = False) -> int:
    """Compositions of n with one part per spin of parts, exactly.

    The part for a spin j ranges over 0 .. 2j with zero_allowed, otherwise
    over 1 .. 2j.  Zero-allowed parts are the spins' magnetization levels, so
    the count is Omega_n of parts itself.  Without zeros, subtracting 1 from
    every part shifts to the zero-allowed problem with bounds 2j - 1 and
    target n - N; bounds that drop to zero leave channels that only ever hold
    the forced value 1.
    """
    if zero_allowed:
        return _omega_at(parts, n)
    shifted = {bound - 1: count for bound, count in parts.entries if bound >= 2}
    target = n - parts.num_spins
    if not shifted:
        return 1 if target == 0 else 0
    return _omega_at(SpinMultiset.from_entries(shifted), target)


def dice_probability(num_dice: int, total: int) -> Fraction:
    """Probability that num_dice fair six-sided dice sum to total, exactly."""
    if num_dice < 1:
        raise DomainError("dice_probability needs num_dice >= 1")
    if not num_dice <= total <= 6 * num_dice:
        return Fraction(0)
    dice = SpinMultiset.from_entries({6: num_dice})
    return Fraction(count_compositions(dice, total), 6**num_dice)
