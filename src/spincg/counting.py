"""Counting applications riding on the decomposition machinery.

The singlet (J = 0) multiplicity of r copies of a D-level system, read as
spin (D-1)/2, is the number of isotropic (rotationally invariant) rank-r
isomers, and it counts classical combinatorial objects:

* D = 2, r = 2v (2v spin-1/2): the Catalan number C_v,
* D = 3, r = v (v spin-1): the Riordan number R_v.

None of these take a closed-form shortcut; the closed forms appear only in
the tests.  One value runs through decompose itself, an end-to-end check of
the core (one spin, and an odd 2J_0 = r(D-1), return 0 first); a run of
values, as the catalan and riordan verbs print, reads one walk over r.

A bounded-composition problem is a spin multiset: d_a parts bounded by n_a
each are d_a spins of twice-spin n_a, a part is a spin's magnetization
level counted up from -j, and the number of ways to write n as an ordered
sum of those parts (zero allowed) is Omega at n of the multiset.  Fair-dice
sum probabilities follow as exact Fractions.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import accumulate, chain
from operator import sub

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
# The most terms one catalan or riordan run gives; at it the walk takes about
# 15 s (Catalan) and 7 s (Riordan) of CPU (CPython 3.11.7, 2-vCPU KVM guest).
SEQUENCE_COUNT_LIMIT = 5000


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
    """The first count Catalan or Riordan numbers, from one walk over the rank.

    Each Omega table is the last one times [dim]_q, a window sum kept as its
    head Omega_0 .. Omega_mid; it must start at 1 and sum to dim^rank.
    """
    if count < 0:
        raise DomainError("--count must be >= 0")
    if count > SEQUENCE_COUNT_LIMIT:
        raise BudgetExceededError(f"--count must be <= {SEQUENCE_COUNT_LIMIT}")
    dim, step = (2, 2) if term == "catalan" else (3, 1)  # C_v: rank 2v; R_v: rank v
    values, head, pad = [1] if count else [], [1] * ((dim + 1) // 2), [0] * dim
    for rank in range(1, step * (count - 1) + 1):
        span = rank * (dim - 1)
        mid, top = span // 2, (span + dim - 1) // 2
        partial = list(accumulate(chain(head, reversed(head[span - top:span - mid]))))
        if head[0] != 1 or partial[mid] + partial[mid - 1 + span % 2] != dim**rank:
            raise ValueError(f"inconsistent Omega table for rank {rank} of dim {dim}")
        if rank % step == 0:  # the singlet: Omega_J0 - Omega_J0-1, none at odd spans
            values.append(0 if span % 2 else head[mid] - head[mid - 1])
        head = list(map(sub, partial, chain(pad, partial)))
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
