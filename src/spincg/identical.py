"""Symmetric and antisymmetric compositions of N identical spins.

Restricting the tensor product of N copies of spin j to the states that are
symmetric (bosonic) or antisymmetric (fermionic) under particle exchange
turns the generating function into a single Gaussian binomial:

    symmetric:      G = [2j + N choose N]_q
    antisymmetric:  G = q^(N(N-1)/2) [2j + 1 choose N]_q

so the subspace dimensions are restricted partition counts and the
multiplicities are their first differences, the coefficients of
(1 - q) [2j + N choose N]_q.  Taking the staircase 0 .. N-1 off N distinct
levels leaves N levels of 2j' = 2j + 1 - N with repeats, so the
antisymmetric table is the symmetric one of that complementary spin.
More spins than levels (N > 2j + 1) leave no states: an empty table, the
library-level face of the Pauli exclusion principle.  The tests hold these
tables to the generating functions above and to their spin-infinity limits.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .decompose import DecompositionTable, difference_decomposition
from .errors import DomainError
from .qpoly import _gaussian_coefficients
from .spins import SpinMultiset

__all__ = ["IdenticalSystem", "sym_decomposition", "antisym_decomposition"]


@dataclass(frozen=True)
class IdenticalSystem:
    """N identical spins, in twice-spin units."""

    twice_j: int
    count: int

    def __post_init__(self) -> None:
        if self.twice_j < 1:
            raise DomainError("twice_j must be >= 1")
        if self.count < 1:
            raise DomainError("count must be >= 1")

    @property
    def exclusion_shift(self) -> int:
        """N(N-1)/2, the minimal excitation of an antisymmetric state."""
        return self.count * (self.count - 1) // 2

    def as_multiset(self) -> SpinMultiset:
        return SpinMultiset.from_entries({self.twice_j: self.count})

    def canonical(self) -> str:
        return self.as_multiset().canonical()


def sym_decomposition(system: IdenticalSystem) -> DecompositionTable:
    """Irreducible content of the symmetric composition.

    lambda_kappa = p(2j, N, kappa) - p(2j, N, kappa - 1) at J = jN - kappa,
    kept where positive.  The top spin J = jN always appears exactly once.
    """
    return _sym_table(system.twice_j, system.count)


def _sym_table(twice_j: int, count: int) -> DecompositionTable:
    # Omega_n is the q^n coefficient of [2j + N choose N]_q; one truncated
    # product stops at the middle of the span, the half the difference scan
    # reads, and its first differences are nonnegative up to there
    # (Sylvester's unimodality).  The audit's C(2j + N, N) is C(2j + 1, N)
    # for an antisymmetric table, through the complementary spin.
    twice_j0 = twice_j * count
    omega = _gaussian_coefficients(twice_j + count, count, twice_j0 // 2)
    table = difference_decomposition(omega, twice_j0)
    if table.total_dimension != comb(twice_j + count, count):
        raise ValueError(f"inconsistent symmetric table for 2j = {twice_j}, N = {count}")
    return table


def antisym_decomposition(system: IdenticalSystem) -> DecompositionTable:
    """Irreducible content of the antisymmetric composition.

    The symmetric table of the complementary spin 2j' = 2j + 1 - N, since
    q^(N(N-1)/2) lowers J_0 and every J alike; empty under exclusion (N >
    2j + 1).  The top spin N(2j + 1 - N)/2 appears exactly once.
    """
    if system.count > system.twice_j + 1:
        return DecompositionTable(())
    return _sym_table(system.twice_j + 1 - system.count, system.count)
