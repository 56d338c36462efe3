"""Brute-force enumeration oracles.

Every fast path in the package is validated against direct state counting.
Nothing here touches the formula machinery (no generating functions, no
binomial sums, no partition recurrences): each table histograms the level
sums over one state space that itertools enumerates.  Distinguishable spins
range over the Cartesian product of their levels (integer compositions),
symmetric compositions over multisets of levels (partitions), antisymmetric
ones over sets of levels (partitions into distinct parts).  That
independence is the point; an oracle that shared code with the fast path
would prove nothing.

Each oracle raises DomainError where its fast counterpart does (a negative
2j or N), then checks its budget, the most states it may enumerate (default
DEFAULT_MAX_STATES, one million): BudgetExceededError comes before any work.
The package exports the oracles the oracle verb runs.  oracle_sym(a - b, b)
is q_binomial(a, b)'s: its level multisets l_1 <= .. <= l_b are the
b-subsets of {1..a} through s_i = l_i + i.  oracle_sym(n, m).omega(k) is
restricted_partitions(n, m, k)'s: its multisets of m levels from 0 .. n are
the partitions of k into at most m parts, each part <= n.
"""

from __future__ import annotations

import math
from itertools import combinations, combinations_with_replacement, product

from .decompose import OmegaTable
from .errors import BudgetExceededError, DomainError
from .spins import SpinMultiset, decimal_text

__all__ = ["oracle_omega", "oracle_sym", "oracle_antisym"]

DEFAULT_MAX_STATES = 10**6
_EXACT_BITS = 1 << 16  # past every count a test pins, the largest 3^20000 (31,700 bits)


def _comb_bits(n: int, k: int) -> int:
    """A lower bound on log2 C(n, k), 0 <= k <= n: C(n, k) >= (n // k)^k for k <= n - k."""
    k = min(k, n - k)
    return k * ((n // k).bit_length() - 1) if k else 0


def _require(budget: int, floor_bits: int, count, call: str, *args) -> None:
    """Raise BudgetExceededError when count(), the state count, is over the budget.

    The count is at least 2^floor_bits: past both the budget's bit length
    and _EXACT_BITS, that settles it before count() is built.  call.format(*args)
    names the oracle call in the message, which is built only then.
    """
    if floor_bits > max(budget.bit_length(), _EXACT_BITS):
        needs = f"at least 2^{decimal_text(floor_bits)}"
    else:
        states = count()
        if states <= budget:
            return
        needs = decimal_text(states)
    args = (decimal_text(v) if isinstance(v, int) else v for v in args)
    raise BudgetExceededError(
        f"{call.format(*args)} needs {needs} states, over the budget of {decimal_text(budget)}"
    )


def _histogram(states, top: int) -> tuple[int, ...]:
    """How many states, tuples of levels, have each level sum 0 .. top."""
    counts = [0] * (top + 1)
    for total in map(sum, states):
        counts[total] += 1
    return tuple(counts)


def oracle_omega(
    spins: SpinMultiset, budget: int = DEFAULT_MAX_STATES
) -> OmegaTable:
    """Omega table by enumerating every product state.

    A state is one level n_i in 0 .. 2j_i per spin, an integer composition
    of its level sum: the Cartesian product of the level ranges.
    """
    floor_bits = sum(mult * ((twice_j + 1).bit_length() - 1) for twice_j, mult in spins.entries)
    _require(budget, floor_bits, lambda: spins.total_dimension, "oracle_omega({})", spins)
    levels = [range(twice_j + 1) for twice_j in spins.twice_spins]
    return OmegaTable(_histogram(product(*levels), spins.twice_j0))


def oracle_sym(
    twice_j: int, count: int, budget: int = DEFAULT_MAX_STATES
) -> OmegaTable:
    """Symmetric-composition table by enumerating multisets of levels.

    A state is a multiset of N levels from 0 .. 2j (order never matters
    for bosons), a partition of its level sum.
    """
    if twice_j < 0 or count < 0:
        raise DomainError("oracle_sym needs 2j >= 0 and N >= 0")
    _require(budget, _comb_bits(twice_j + count, count),
             lambda: math.comb(twice_j + count, count),
             "oracle_sym(2j={}, N={})", twice_j, count)
    levels = combinations_with_replacement(range(twice_j + 1), count)
    return OmegaTable(_histogram(levels, twice_j * count))


def oracle_antisym(
    twice_j: int, count: int, budget: int = DEFAULT_MAX_STATES
) -> OmegaTable:
    """Antisymmetric-composition table by enumerating level subsets.

    A state is a set of N distinct levels, a partition of its level sum
    into distinct parts; with N > 2j + 1 there are none and the table is
    empty (Pauli exclusion).
    """
    if twice_j < 0 or count < 0:
        raise DomainError("oracle_antisym needs 2j >= 0 and N >= 0")
    if count > twice_j + 1:
        return OmegaTable(())
    _require(budget, _comb_bits(twice_j + 1, count), lambda: math.comb(twice_j + 1, count),
             "oracle_antisym(2j={}, N={})", twice_j, count)
    levels = combinations(range(twice_j + 1), count)
    return OmegaTable(_histogram(levels, sum(range(twice_j + 1 - count, twice_j + 1))))

