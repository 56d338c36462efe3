"""Brute-force enumeration oracles.

Every fast path in the package is validated against direct state counting.
Nothing in this module touches the formula machinery (no generating
functions, no binomial sums, no partition recurrences): tables are built by
walking product states with a mixed-radix counter, or by enumerating
combinations and subsets, and histogramming sums.  That independence is the
point; an oracle that shared code with the fast path would prove nothing.

Enumeration size is guarded by an EnumerationBudget (default one million
states) and overruns raise BudgetExceededError before any work starts where
the count is known up front.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement

from .decompose import OmegaTable
from .errors import BudgetExceededError
from .qpoly import IntPolynomial
from .spins import SpinMultiset
from .util import decimal_writer

__all__ = [
    "EnumerationBudget",
    "DEFAULT_MAX_STATES",
    "oracle_omega",
    "oracle_sym",
    "oracle_antisym",
    "oracle_qbinom",
    "oracle_restricted_partitions",
]

DEFAULT_MAX_STATES = 10**6


@dataclass(frozen=True)
class EnumerationBudget:
    """Cap on how many states an oracle may enumerate."""

    max_states: int = DEFAULT_MAX_STATES


def _require(budget: EnumerationBudget, states: int, call: str, *args) -> None:
    """Raise BudgetExceededError when states is over the budget.

    call.format(*args) names the oracle call in the message, which is built
    only then.  Past the budget, states is no smaller than any int argument.
    """
    if states > budget.max_states:
        write = decimal_writer(states)
        args = (write(v) if isinstance(v, int) else v for v in args)
        raise BudgetExceededError(
            f"{call.format(*args)} needs {write(states)} states, "
            f"over the budget of {write(budget.max_states)}"
        )


def oracle_omega(
    spins: SpinMultiset, budget: EnumerationBudget = EnumerationBudget()
) -> OmegaTable:
    """Omega table by enumerating every product state.

    Each spin contributes a digit n_i in 0 .. 2j_i; the counter steps
    through all prod (2j_i + 1) tuples odometer-style, maintaining the
    running digit sum, and histograms it.
    """
    _require(budget, spins.total_dimension, "oracle_omega({})", spins)
    caps = spins.twice_spins
    span = sum(caps)
    counts = [0] * (span + 1)
    digits = [0] * len(caps)
    total = 0
    counts[0] = 1
    width = len(caps)
    while True:
        i = 0
        while i < width and digits[i] == caps[i]:
            total -= caps[i]
            digits[i] = 0
            i += 1
        if i == width:
            break
        digits[i] += 1
        total += 1
        counts[total] += 1
    return OmegaTable(tuple(counts), span)


def oracle_sym(
    twice_j: int, count: int, budget: EnumerationBudget = EnumerationBudget()
) -> OmegaTable:
    """Symmetric-composition table by enumerating multisets of levels.

    One state per multiset of N levels from 0 .. 2j (order never matters
    for bosons); the histogram of level sums is the table.
    """
    states = math.comb(twice_j + count, count)
    _require(budget, states, "oracle_sym(2j={}, N={})", twice_j, count)
    span = twice_j * count
    counts = [0] * (span + 1)
    for levels in combinations_with_replacement(range(twice_j + 1), count):
        counts[sum(levels)] += 1
    return OmegaTable(tuple(counts), span)


def oracle_antisym(
    twice_j: int, count: int, budget: EnumerationBudget = EnumerationBudget()
) -> OmegaTable:
    """Antisymmetric-composition table by enumerating level subsets.

    One state per set of N distinct levels; with N > 2j + 1 there are no
    subsets and the table is empty (Pauli exclusion).
    """
    if count > twice_j + 1:
        return OmegaTable((), -1)
    states = math.comb(twice_j + 1, count)
    _require(budget, states, "oracle_antisym(2j={}, N={})", twice_j, count)
    span = sum(range(twice_j + 1 - count, twice_j + 1))
    counts = [0] * (span + 1)
    for levels in combinations(range(twice_j + 1), count):
        counts[sum(levels)] += 1
    return OmegaTable(tuple(counts), span)


def oracle_qbinom(
    a: int, b: int, budget: EnumerationBudget = EnumerationBudget()
) -> IntPolynomial:
    """Gaussian binomial by subset sums.

    [a choose b]_q = sum over b-subsets S of {1..a} of q^(sum(S) - b(b+1)/2).
    """
    if b < 0 or b > a:
        return IntPolynomial()
    states = math.comb(a, b)
    _require(budget, states, "oracle_qbinom({}, {})", a, b)
    shift = b * (b + 1) // 2
    counts = [0] * (b * (a - b) + 1)
    for subset in combinations(range(1, a + 1), b):
        counts[sum(subset) - shift] += 1
    return IntPolynomial(tuple(counts))


def oracle_restricted_partitions(
    n: int, m: int, k: int, budget: EnumerationBudget = EnumerationBudget()
) -> int:
    """p(n, m, k) by listing the partitions themselves.

    Walks nonincreasing part sequences directly, depth first on an explicit
    stack, largest part first; each visited node counts against the budget.
    A node is (sum still to place, largest part allowed, parts left).
    """
    if k < 0:
        return 0
    if k == 0:
        return 1

    def children(remaining: int, cap: int, slots: int):
        # one at a time, so a wide node costs no memory before the budget
        # stops the walk
        for value in range(min(cap, remaining), 0, -1):
            yield remaining - value, value, slots - 1

    found = visited = 0
    frames = [iter(((k, n, m),))]
    while frames:
        node = next(frames[-1], None)
        if node is None:
            frames.pop()
            continue
        visited += 1
        if visited > budget.max_states:
            numbers = n, m, k, budget.max_states
            raise BudgetExceededError(
                "oracle_restricted_partitions({}, {}, {}) passed {} enumeration steps"
                .format(*map(decimal_writer(max(map(abs, numbers))), numbers))
            )
        remaining, cap, slots = node
        if remaining == 0:
            found += 1
        elif slots != 0 and cap != 0:
            frames.append(children(remaining, cap, slots))
    return found
