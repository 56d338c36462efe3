"""Symmetric and antisymmetric compositions of N identical spins.

Restricting the tensor product of N copies of spin j to the states that are
symmetric (bosonic) or antisymmetric (fermionic) under particle exchange
turns the generating function into a single Gaussian binomial:

    symmetric:      G = [2j + N choose N]_q
    antisymmetric:  G = q^(N(N-1)/2) [2j + 1 choose N]_q

so the subspace dimensions are restricted partition counts and the
multiplicities are their first differences.  Antisymmetrizing more spins
than there are magnetization levels (N > 2j + 1) leaves no states at all;
that returns an empty decomposition, the library-level face of the Pauli
exclusion principle.
"""

from __future__ import annotations

from dataclasses import dataclass

from .decompose import DecompositionTable, difference_decomposition
from .errors import DomainError
from .qpoly import IntPolynomial, _gaussian_coefficients, partitions_at_most
from .qpoly import q_binomial, restricted_partitions
from .spins import SpinMultiset

__all__ = [
    "IdenticalSystem",
    "sym_genfunc",
    "sym_decomposition",
    "antisym_genfunc",
    "antisym_omega",
    "antisym_decomposition",
    "inf_sym_omega",
    "inf_antisym_omega",
]


@dataclass(frozen=True)
class IdenticalSystem:
    """N identical spins, in twice-spin units."""

    twice_j: int
    count: int

    def __post_init__(self) -> None:
        if self.twice_j < 1:
            raise ValueError("twice_j must be >= 1")
        if self.count < 1:
            raise ValueError("count must be >= 1")

    @property
    def exclusion_shift(self) -> int:
        """N(N-1)/2, the minimal excitation of an antisymmetric state."""
        return self.count * (self.count - 1) // 2

    def as_multiset(self) -> SpinMultiset:
        return SpinMultiset.from_entries({self.twice_j: self.count})

    def canonical(self) -> str:
        return self.as_multiset().canonical()


def sym_genfunc(system: IdenticalSystem) -> IntPolynomial:
    """Generating function of the symmetric composition, [2j+N choose N]_q."""
    return q_binomial(system.twice_j + system.count, system.count)


def sym_decomposition(system: IdenticalSystem) -> DecompositionTable:
    """Irreducible content of the symmetric composition.

    lambda_kappa = p(2j, N, kappa) - p(2j, N, kappa - 1) at J = jN - kappa,
    kept where positive.  The top spin J = jN always appears exactly once.
    """
    return _half_span_table(system.twice_j + system.count, system, 0)


def _half_span_table(a: int, system: IdenticalSystem, shift: int) -> DecompositionTable:
    # Omega_n is the q^(n - shift) coefficient of [a choose N]_q.  The
    # differences run only up to the middle of the span, so one truncated
    # product supplies every Omega they read.
    twice_j0 = system.twice_j * system.count
    omega = [0] * shift + _gaussian_coefficients(a, system.count, twice_j0 // 2 - shift)
    return difference_decomposition(lambda n: omega[n] if n >= 0 else 0, twice_j0)


def antisym_genfunc(system: IdenticalSystem) -> IntPolynomial:
    """Generating function of the antisymmetric composition.

    q^(N(N-1)/2) [2j+1 choose N]_q; the zero polynomial when N > 2j + 1
    (no antisymmetric states exist).
    """
    if system.count > system.twice_j + 1:
        return IntPolynomial.zero()
    return q_binomial(system.twice_j + 1, system.count).shift(system.exclusion_shift)


def antisym_omega(system: IdenticalSystem, n: int) -> int:
    """Antisymmetric subspace dimension at excitation n.

    p(2j + 1 - N, N, n - N(N-1)/2); zero outside the support and zero
    everywhere under exclusion.
    """
    if system.count > system.twice_j + 1:
        return 0
    return restricted_partitions(
        system.twice_j + 1 - system.count,
        system.count,
        n - system.exclusion_shift,
    )


def antisym_decomposition(system: IdenticalSystem) -> DecompositionTable:
    """Irreducible content of the antisymmetric composition.

    First differences of antisym_omega, kept where positive; empty under
    exclusion (N > 2j + 1).  The top spin N(2j + 1 - N)/2 appears exactly
    once.
    """
    if system.count > system.twice_j + 1:
        return DecompositionTable(())
    return _half_span_table(system.twice_j + 1, system, system.exclusion_shift)


def inf_sym_omega(num: int, n: int) -> int:
    """Spin-infinity symmetric dimension: partitions of n into <= N parts."""
    if num < 1:
        raise DomainError("inf_sym_omega needs num >= 1")
    return partitions_at_most(num, n)


def inf_antisym_omega(num: int, n: int) -> int:
    """Spin-infinity antisymmetric dimension.

    The exclusion shift survives the limit: p_N(n - N(N-1)/2).
    """
    if num < 1:
        raise DomainError("inf_antisym_omega needs num >= 1")
    return partitions_at_most(num, n - num * (num - 1) // 2)
