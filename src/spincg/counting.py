"""Counting applications riding on the decomposition machinery.

The singlet (J = 0) multiplicity of r copies of a D-level system, read as
spin (D-1)/2, is the number of isotropic (rotationally invariant) rank-r
isomers, and it counts classical combinatorial objects:

* D = 2, r = 2v (2v spin-1/2): the Catalan number C_v,
* D = 3, r = v (v spin-1): the Riordan number R_v.

None of these take a closed-form shortcut here; they run through decompose
itself, which makes them end-to-end integration checks of the core.  The
closed forms appear only in the test suite as expected values.  One spin,
and an odd 2J_0 = r(D-1), have no singlet and return 0 before decompose.

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
from .errors import DomainError, SpinParseError
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
    if rank == 1 or rank * (dim - 1) % 2:
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
