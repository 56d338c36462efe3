"""Spin multisets: the input type for every decomposition.

A collection of SU(2) spins is a finite multiset A = {j_1, ..., j_N} with
each j_i a positive integer or half-integer.  Everything is stored in
twice-spin units (2j as an int), so arithmetic stays exact and integer-only:
j = 3/2 is the entry 3, j = 2 is the entry 4.

The text grammar, used by the CLI and round-tripped by canonical():

    spec  := item ("," item)*
    item  := spin ("^" mult)?
    spin  := INT | INT "/" "2"     (numerator odd)
    mult  := positive INT

Whitespace is ignored; "1/2^2,1^4" is two spin-1/2 and four spin-1.
Spin 0 carries no angular momentum and is rejected at parse time.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import DomainError, SpinParseError

__all__ = ["SpinMultiset", "parse_spins", "parse_spin_token", "spin_label"]

_ITEM_RE = re.compile(r"^(\d+)(?:/(\d+))?(?:\^(\d+))?$")


def decimal_text(n: int) -> str:
    """n as decimal text: str(n), or past the interpreter's int/str digit cap,
    str of an exact, uncapped Decimal."""
    try:
        return str(n)
    except ValueError:
        from decimal import Decimal
        return str(Decimal(n))


def spin_label(twice_j: int) -> str:
    """Human form of a twice-spin: 4 -> "2", 9 -> "9/2"."""
    return f"{decimal_text(twice_j)}/2" if twice_j % 2 else decimal_text(twice_j // 2)


def parse_spin_token(token: str) -> int:
    """Parse a single spin ("2", "3/2") to its twice-spin integer."""
    cleaned = re.sub(r"\s+", "", token)
    match = _ITEM_RE.match(cleaned)
    if not match or match.group(3) is not None:
        raise SpinParseError(f"malformed spin token {token!r}")
    return _token_twice_spin(cleaned, match.group(1), match.group(2))


def _integer(digits: str) -> int:
    try:
        return int(digits)
    except ValueError:  # past the interpreter's int/str digit cap
        raise SpinParseError(f"a {len(digits)}-digit number is too long to read") from None


def _token_twice_spin(token: str, numerator: str, denominator: str | None) -> int:
    value = _integer(numerator)
    if denominator is not None:
        if denominator != "2":
            raise SpinParseError(
                f"spin denominators must be 2, got {token!r}"
            )
        if value % 2 == 0:
            raise SpinParseError(
                f"half-integer spins need an odd numerator, got {token!r}"
            )
        twice = value
    else:
        twice = 2 * value
    if twice == 0:
        raise SpinParseError(f"spin 0 is not allowed, got {token!r}")
    return twice


def parse_spins(text: str) -> "SpinMultiset":
    """Parse a spin specification like "1/2^2,1^4" into a SpinMultiset.

    Repeated spins accumulate: "1,1" means the same as "1^2".
    Raises SpinParseError naming the offending token on malformed input,
    spin 0, zero multiplicity, or an empty specification.
    """
    cleaned = re.sub(r"\s+", "", text)
    if not cleaned:
        raise SpinParseError("empty spin specification")
    entries: dict[int, int] = {}
    for token in cleaned.split(","):
        match = _ITEM_RE.match(token)
        if not match:
            raise SpinParseError(f"malformed spin token {token!r}")
        twice = _token_twice_spin(token, match.group(1), match.group(2))
        mult = 1 if match.group(3) is None else _integer(match.group(3))
        if mult == 0:
            raise SpinParseError(f"zero multiplicity in token {token!r}")
        entries[twice] = entries.get(twice, 0) + mult
    return SpinMultiset.from_entries(entries)


@dataclass(frozen=True)
class SpinMultiset:
    """A finite multiset of nonzero spins, in twice-spin units.

    entries is sorted ascending by twice-spin, one pair (2j, multiplicity)
    per distinct spin, every multiplicity >= 1.
    """

    entries: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if not self.entries:
            raise DomainError("a spin multiset cannot be empty")
        last = 0
        for twice_j, mult in self.entries:
            if twice_j <= last:
                raise DomainError("entries must be ascending distinct twice-spins >= 1")
            if mult < 1:
                raise DomainError(f"multiplicity for twice-spin {twice_j} must be >= 1")
            last = twice_j

    @classmethod
    def from_entries(cls, entries: dict[int, int]) -> "SpinMultiset":
        return cls(tuple(sorted(entries.items())))

    @property
    def num_spins(self) -> int:
        """N, counting repeats."""
        return sum(mult for _, mult in self.entries)

    @property
    def num_distinct(self) -> int:
        """Number of distinct spin values."""
        return len(self.entries)

    @property
    def twice_spins(self) -> tuple[int, ...]:
        """All N twice-spins, ascending, with repeats."""
        return tuple(tj for tj, mult in self.entries for _ in range(mult))

    @property
    def total_dimension(self) -> int:
        """Product of the (2j_i + 1), the dimension of the tensor product."""
        dim = 1
        for twice_j, mult in self.entries:
            dim *= (twice_j + 1) ** mult
        return dim

    @property
    def twice_j0(self) -> int:
        """2*J_0 where J_0 = sum of all spins, the maximum coupled spin."""
        return sum(twice_j * mult for twice_j, mult in self.entries)

    @property
    def twice_jmin(self) -> int:
        """2*J_m, the minimum coupled spin.

        With 2v = 2*max(2j_i) - 2J_0: if v >= 0 one spin outweighs the rest
        and J_m = v; otherwise J_m is 0 or 1/2 by the parity of 2J_0.  The
        v = 0 boundary belongs to the first branch.
        """
        twice_v = 2 * self.entries[-1][0] - self.twice_j0
        if twice_v >= 0:
            return twice_v
        return self.twice_j0 % 2

    @property
    def distinct_j_count(self) -> int:
        """Number of distinct coupled spins J_m, J_m + 1, ..., J_0."""
        return (self.twice_j0 - self.twice_jmin) // 2 + 1

    def canonical(self) -> str:
        """Canonical text form: ascending, caret multiplicities, no spaces."""
        parts = []
        for twice_j, mult in self.entries:
            label = spin_label(twice_j)
            parts.append(label if mult == 1 else f"{label}^{decimal_text(mult)}")
        return ",".join(parts)

    def __str__(self) -> str:
        return self.canonical()
