"""Clebsch-Gordan decomposition of an arbitrary spin multiset.

The tensor product of spins A = {j_1, ..., j_N} splits into irreducible
components J with multiplicities lambda_J.  Everything is reached through
the table of z-projection subspace dimensions Omega_n = dim of the subspace
where sum(j_z,i) = J_0 - n, for n = 0 .. 2*J_0:

* generating function: Omega_n is the q^n coefficient of
  prod_i [2j_i + 1]_q,
* generalized binomial: an alternating sum of binomial products per n,
* multi-restricted composition: a sum over partitions of n placed into the
  spin "channels", counting the ways each part fits.

Multiplicities follow by first differences, lambda_kappa = Omega_kappa -
Omega_{kappa-1} with J_kappa = J_0 - kappa, and also come straight from a
binomial formula or from the polynomial (1 - q) * G_Omega.  All three
method choices produce identical DecompositionTables; the tests and the
brute-force oracles hold them to that.

Single-spin-value collections {j^N} additionally admit univariate formulas,
their spin-infinity (zero-range) limits, and terminating hypergeometric
forms; those live here too, next to the machinery they cross-check.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from operator import mul, sub

from .errors import DomainError
from .hypergeom import eval_terminating_pfq, termination_index
from .qpoly import IntPolynomial, _q_ratio_product
from .spins import SpinMultiset, spin_label
from .util import binom

__all__ = [
    "OmegaTable",
    "DecompositionTable",
    "METHODS",
    "omega_genfunc",
    "omega_binomial",
    "omega_composition",
    "omega_table",
    "lambda_from_omega",
    "difference_decomposition",
    "lambda_binomial",
    "lambda_genfunc",
    "decompose",
    "omega_univariate",
    "lambda_univariate",
    "omega_zero_range",
    "lambda_zero_range",
    "omega_univariate_hypergeometric",
    "lambda_univariate_hypergeometric",
]

METHODS = ("genfunc", "binomial", "composition")


@dataclass(frozen=True)
class OmegaTable:
    """Subspace dimensions Omega_n for n = 0 .. twice_j0.

    values[n] is the dimension of the z-projection subspace at n; the span
    twice_j0 equals len(values) - 1 (and -1 for an empty table, which the
    antisymmetric oracle produces under Pauli exclusion).
    """

    values: tuple[int, ...]
    twice_j0: int

    def __post_init__(self) -> None:
        if len(self.values) != self.twice_j0 + 1:
            raise ValueError("omega table span does not match its values")

    def omega(self, n: int) -> int:
        if 0 <= n <= self.twice_j0:
            return self.values[n]
        return 0

    @property
    def total(self) -> int:
        return sum(self.values)

    def to_polynomial(self) -> IntPolynomial:
        return IntPolynomial(self.values)


@dataclass(frozen=True)
class DecompositionTable:
    """Irreducible components (twice_J, multiplicity), twice_J descending.

    Empty tables are legal; they represent an antisymmetric composition
    excluded by the Pauli principle.
    """

    entries: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        last = None
        for twice_j, mult in self.entries:
            if twice_j < 0 or mult < 1:
                raise ValueError("entries need twice_J >= 0 and multiplicity >= 1")
            if last is not None and twice_j >= last:
                raise ValueError("entries must be strictly descending in twice_J")
            last = twice_j

    def __bool__(self) -> bool:
        return bool(self.entries)

    def multiplicity(self, twice_j: int) -> int:
        for tj, mult in self.entries:
            if tj == twice_j:
                return mult
        return 0

    @property
    def twice_j0(self) -> int:
        if not self.entries:
            raise ValueError("empty decomposition has no maximum spin")
        return self.entries[0][0]

    @property
    def twice_jmin(self) -> int:
        if not self.entries:
            raise ValueError("empty decomposition has no minimum spin")
        return self.entries[-1][0]

    @property
    def total_dimension(self) -> int:
        return sum(mult * (tj + 1) for tj, mult in self.entries)

    def to_json_dict(self, spins: str, composition: str | None = None) -> dict:
        """JSON document with canonical key order.

        Big integers are decimal strings so consumers without bignums stay
        exact.  composition, when given, sits right after spins.
        """
        doc: dict = {"spins": spins}
        if composition is not None:
            doc["composition"] = composition
        doc["twice_J0"] = self.entries[0][0] if self.entries else None
        doc["twice_Jm"] = self.entries[-1][0] if self.entries else None
        doc["total_dimension"] = str(self.total_dimension)
        doc["terms"] = [
            {"twice_J": tj, "J": spin_label(tj), "multiplicity": str(mult)}
            for tj, mult in self.entries
        ]
        return doc


def omega_genfunc(spins: SpinMultiset) -> OmegaTable:
    """Full Omega table from the generating function prod [2j+1]_q^mult.

    The table is palindromic (Omega_n = Omega_{2J_0 - n}), so only
    Omega_0 .. Omega_{floor(J_0)}, the last one lambda_from_omega reads,
    are computed; the rest is their mirror.  Two routes build that half:

    * the q-ratio kernel, one ratio [2j+1]_q = (1 - q^(2j+1)) / (1 - q)
      per spin: about N * J_0 coefficient additions;
    * the holonomic recurrence of _omega_recurrence, whose cost is set by
      the sigma species, not the N spins: about 2^(sigma+2) * J_0
      multiply-adds, since its two coefficient polynomials have at most
      2^(sigma+1) terms each.

    The recurrence runs when 2^(sigma+2) < N.  G_Omega is D-finite
    (Stanley, EC2 6.4), and the recurrence is a variant of J. C. P.
    Miller's power-series recurrence (Knuth, TAOCP vol. 2, 4.7).
    """
    span = spins.twice_j0
    half = span // 2
    if 2 ** (spins.num_distinct + 2) < spins.num_spins:
        head = _omega_recurrence(spins.entries, half)
    else:
        head = _q_ratio_product([(tj + 1, 1) for tj in spins.twice_spins], half)
    return OmegaTable(tuple(head + head[: span - half][::-1]), span)


def _holonomic_terms(
    entries: tuple[tuple[int, int], ...],
) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """Nonzero (k, coefficient) terms of Q and R, with Q * G' = R * G.

    For G = prod_a [d_a]_q^(N_a), d_a = 2j_a + 1, N = sum N_a and
    P = prod_a (1 - q^(d_a)): Q = (1 - q) P and
    R = N P - (1 - q) sum_a N_a d_a q^(d_a - 1) P / (1 - q^(d_a)),
    the logarithmic derivative of G cleared of its denominators.
    """
    num = sum(mult for _, mult in entries)
    size = sum(twice_j + 1 for twice_j, _ in entries) + 2
    p = [1] + [0] * (size - 1)
    for twice_j, _ in entries:
        d = twice_j + 1
        p[d:] = map(sub, p[d:], p[: size - d])
    s = [0] * size
    for twice_j, mult in entries:
        # P / (1 - q^d) by running sums along each residue class mod d
        d = twice_j + 1
        cofactor = p[:]
        for r in range(d):
            cofactor[r::d] = accumulate(cofactor[r::d])
        weight = mult * d
        for k in range(size - d + 1):
            s[k + d - 1] += weight * cofactor[k]
    q = list(map(sub, p, [0] + p[:-1]))
    r = [num * pk - sk + sk_1 for pk, sk, sk_1 in zip(p, s, [0] + s[:-1])]
    return (
        [(k, c) for k, c in enumerate(q) if c],
        [(k, c) for k, c in enumerate(r) if c],
    )


def _omega_recurrence(entries: tuple[tuple[int, int], ...], top: int) -> list[int]:
    """Coefficients 0..top of prod_a [2j_a+1]_q^(N_a) by a linear recurrence.

    From Q * G' = R * G (see _holonomic_terms) and Q_0 = 1:
    (n+1) g_{n+1} = sum_k R_k g_{n-k} - sum_{k>=1} Q_k (n+1-k) g_{n+1-k}.
    g holds the coefficients and h the n * g_n, both behind a run of
    zeros, so every term reads a fixed offset from the end of the list.
    The division is exact; a remainder means an arithmetic bug.
    """
    q_terms, r_terms = _holonomic_terms(entries)
    pad = max(k for k, _ in q_terms + r_terms) + 1
    g = [0] * pad + [1]
    h = [0] * (pad + 1)
    r_coeffs = [c for _, c in r_terms]
    r_at = [-1 - k for k, _ in r_terms]
    q_coeffs = [c for k, c in q_terms if k]
    q_at = [-k for k, _ in q_terms if k]
    g_at, h_at = g.__getitem__, h.__getitem__
    for n in range(1, top + 1):
        total = sum(map(mul, r_coeffs, map(g_at, r_at)))
        total -= sum(map(mul, q_coeffs, map(h_at, q_at)))
        value, rem = divmod(total, n)
        if rem:
            raise ArithmeticError(f"holonomic recurrence: inexact step at n={n}")
        g.append(value)
        h.append(total)
    return g[pad:]


def omega_binomial(spins: SpinMultiset, n: int) -> int:
    """Single Omega_n by the alternating binomial sum.

    Sums (-1)^(s_1+...+s_sigma) C(N + n - 1 - w, N - 1) prod C(N_a, s_a)
    over choices 0 <= s_a <= N_a, where w = sum (2j_a + 1) s_a <= n.
    Out-of-range n returns 0.
    """
    if n < 0 or n > spins.twice_j0:
        return 0
    entries = spins.entries
    num = spins.num_spins
    total = 0

    def walk(idx: int, weight: int, sign: int, coeff: int) -> None:
        nonlocal total
        if idx == len(entries):
            total += sign * coeff * binom(num + n - 1 - weight, num - 1)
            return
        twice_j, mult = entries[idx]
        step = twice_j + 1
        for s in range(mult + 1):
            w = weight + step * s
            if w > n:
                break
            walk(idx + 1, w, sign if s % 2 == 0 else -sign, coeff * binom(mult, s))

    walk(0, 0, 1, 1)
    return total


def omega_composition(spins: SpinMultiset, n: int) -> int:
    """Single Omega_n by counting multi-restricted compositions.

    Each partition of n into at most N parts is placed into the spin
    channels: a part of value a fits a channel with 2j >= a.  With parts
    grouped by value in descending order, channels admitting the current
    value and not already taken contribute a plain binomial choice, so each
    partition adds prod_nu C(omega(a_nu) - taken, s_nu).  Infeasible
    placements die through a zero factor.
    """
    if n < 0 or n > spins.twice_j0:
        return 0
    caps = spins.twice_spins  # ascending
    num = len(caps)
    max_part = caps[-1]

    def placements(groups: list[tuple[int, int]]) -> int:
        taken = 0
        product = 1
        for value, count in groups:
            admitting = num - bisect_left(caps, value)
            product *= binom(admitting - taken, count)
            if product == 0:
                return 0
            taken += count
        return product

    total = 0

    def walk(remaining: int, cap: int, slots: int, groups: list[tuple[int, int]]) -> None:
        nonlocal total
        if remaining == 0:
            total += placements(groups)
            return
        if slots == 0 or cap == 0 or cap * slots < remaining:
            return
        for value in range(min(cap, remaining), 0, -1):
            if value * slots < remaining:
                break
            for count in range(1, min(slots, remaining // value) + 1):
                groups.append((value, count))
                walk(remaining - count * value, value - 1, slots - count, groups)
                groups.pop()

    walk(n, max_part, num, [])
    return total


def omega_table(spins: SpinMultiset, method: str = "genfunc") -> OmegaTable:
    """Full Omega table by any of the three methods."""
    if method == "genfunc":
        return omega_genfunc(spins)
    if method == "binomial":
        per_n = omega_binomial
    elif method == "composition":
        per_n = omega_composition
    else:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    span = spins.twice_j0
    return OmegaTable(tuple(per_n(spins, n) for n in range(span + 1)), span)


def lambda_from_omega(table: OmegaTable) -> DecompositionTable:
    """Multiplicities by first differences of the Omega table.

    lambda_0 = Omega_0 and lambda_kappa = Omega_kappa - Omega_{kappa-1} as
    long as the difference stays positive; the first zero difference marks
    the minimum coupled spin.  A final dimension audit (sum of lambda *
    (2J+1) against sum of Omega) rejects tables that are not genuine
    subspace-dimension tables.
    """
    values = table.values
    if not values or values[0] != 1:
        raise ValueError("inconsistent omega table: Omega_0 must be 1")
    twice_j0 = table.twice_j0
    lams = [values[0]]
    for kappa in range(1, twice_j0 // 2 + 1):
        diff = values[kappa] - values[kappa - 1]
        if diff <= 0:
            break
        lams.append(diff)
    entries = tuple(
        (twice_j0 - 2 * kappa, lam) for kappa, lam in enumerate(lams)
    )
    result = DecompositionTable(entries)
    if result.total_dimension != table.total:
        raise ValueError(
            "inconsistent omega table: multiplicities do not account for its dimension"
        )
    return result


def difference_decomposition(omega_at, twice_j0: int) -> DecompositionTable:
    """First-difference multiplicities from any Omega accessor.

    Scans kappa = 0 .. floor(2J_0 / 2), keeps positive differences, and
    places each at twice_J = 2J_0 - 2 kappa.  Unlike lambda_from_omega this
    makes no structural demands on the table, so it also serves the
    symmetric and antisymmetric tables, whose support starts above zero.
    """
    entries = []
    for kappa in range(twice_j0 // 2 + 1):
        lam = omega_at(kappa) - omega_at(kappa - 1)
        if lam > 0:
            entries.append((twice_j0 - 2 * kappa, lam))
    return DecompositionTable(tuple(entries))


def lambda_genfunc(spins: SpinMultiset) -> IntPolynomial:
    """Multiplicity generating function G_lambda = (1 - q) * G_Omega.

    Degree 2*J_0 + 1; coefficient kappa is lambda_kappa for kappa <= m,
    then come 2*J_m zero "sinking" coefficients, then the mirrored negative
    coefficients (G_lambda(1) = 0).
    """
    values = omega_genfunc(spins).values
    return IntPolynomial(tuple(map(sub, values + (0,), (0,) + values)))


def _multiplicity_steps(spins: SpinMultiset) -> int:
    # m: number of unit steps from J_0 down to J_m.
    return (spins.twice_j0 - spins.twice_jmin) // 2


def lambda_binomial(spins: SpinMultiset, kappa: int) -> int:
    """Single multiplicity lambda_kappa by the direct alternating sum.

    Same skeleton as omega_binomial with kernel C(N + kappa - 2 - w, N - 2),
    which requires N >= 2; a single spin has no pairwise coupling and the
    kernel's lower index would go negative, so that raises DomainError (use
    lambda_from_omega instead).  kappa must lie in 0 .. m; values beyond
    the minimum spin are not exposed.
    """
    num = spins.num_spins
    if num < 2:
        raise DomainError(
            "lambda_binomial needs at least two spins; "
            "use lambda_from_omega for a single spin"
        )
    if kappa < 0 or kappa > _multiplicity_steps(spins):
        raise DomainError("kappa must lie between 0 and (2J_0 - 2J_m)/2")
    entries = spins.entries
    total = 0

    def walk(idx: int, weight: int, sign: int, coeff: int) -> None:
        nonlocal total
        if idx == len(entries):
            total += sign * coeff * binom(num + kappa - 2 - weight, num - 2)
            return
        twice_j, mult = entries[idx]
        step = twice_j + 1
        for s in range(mult + 1):
            w = weight + step * s
            if w > kappa:
                break
            walk(idx + 1, w, sign if s % 2 == 0 else -sign, coeff * binom(mult, s))

    walk(0, 0, 1, 1)
    return total


def decompose(spins: SpinMultiset, method: str = "genfunc") -> DecompositionTable:
    """Full Clebsch-Gordan decomposition of a spin multiset.

    method selects how the multiplicities are computed: "genfunc" (default)
    and "composition" build the Omega table and difference it, "binomial"
    evaluates each lambda_kappa directly (falling back to the
    omega-difference route for a single spin, where the direct kernel is
    undefined).  The three methods agree entry for entry.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    if method == "binomial" and spins.num_spins >= 2:
        steps = _multiplicity_steps(spins)
        twice_j0 = spins.twice_j0
        entries = []
        for kappa in range(steps + 1):
            lam = lambda_binomial(spins, kappa)
            if lam < 1:
                raise ValueError(
                    f"inconsistent multiplicity {lam} at kappa={kappa}"
                )
            entries.append((twice_j0 - 2 * kappa, lam))
        table = DecompositionTable(tuple(entries))
    else:
        table = lambda_from_omega(omega_table(spins, method))
    expected = (spins.total_dimension, spins.twice_jmin)
    if (table.total_dimension, table.twice_jmin) != expected:
        raise ValueError(f"inconsistent decomposition of {spins.canonical()}")
    return table


def omega_univariate(twice_j: int, num: int, n: int) -> int:
    """Omega_n for N copies of one spin j, by the single alternating sum.

    sum_{s=0}^{floor(n / (2j+1))} (-1)^s C(N + n - 1 - (2j+1) s, N - 1)
    C(N, s).  Returns 0 outside the table.
    """
    if twice_j < 1 or num < 1:
        raise DomainError("omega_univariate needs twice_j >= 1 and num >= 1")
    if n < 0:
        return 0
    step = twice_j + 1
    total = 0
    for s in range(n // step + 1):
        total += (-1) ** s * binom(num + n - 1 - step * s, num - 1) * binom(num, s)
    return total


def lambda_univariate(twice_j: int, num: int, kappa: int) -> int:
    """lambda_kappa for N copies of one spin j, by the single alternating sum.

    Kernel C(N + kappa - 2 - (2j+1) s, N - 2); needs N >= 2 and kappa in
    0 .. m, like lambda_binomial.
    """
    if twice_j < 1:
        raise DomainError("lambda_univariate needs twice_j >= 1")
    if num < 2:
        raise DomainError(
            "lambda_univariate needs at least two spins; "
            "a single spin has multiplicity table {J = j: 1}"
        )
    spins = SpinMultiset.from_entries({twice_j: num})
    if kappa < 0 or kappa > _multiplicity_steps(spins):
        raise DomainError("kappa must lie between 0 and (2J_0 - 2J_m)/2")
    step = twice_j + 1
    total = 0
    for s in range(kappa // step + 1):
        total += (-1) ** s * binom(num + kappa - 2 - step * s, num - 2) * binom(num, s)
    return total


def omega_zero_range(num: int, n: int) -> int:
    """Spin-infinity limit of Omega_n for N spins: C(N + n - 1, n).

    With unbounded magnetization range every channel absorbs any excitation
    count, leaving stars-and-bars.  Matches omega_univariate whenever
    2j >= n.
    """
    if num < 1:
        raise DomainError("omega_zero_range needs num >= 1")
    if n < 0:
        return 0
    return binom(num + n - 1, n)


def lambda_zero_range(num: int, kappa: int) -> int:
    """Spin-infinity limit of lambda_kappa for N spins: C(N + kappa - 2, kappa).

    Needs N >= 2 for the same reason as lambda_univariate.  Matches
    lambda_univariate whenever 2j >= kappa.
    """
    if num < 2:
        raise DomainError("lambda_zero_range needs num >= 2")
    if kappa < 0:
        return 0
    return binom(num + kappa - 2, kappa)


def _reduced_parameters(
    extra_upper: Fraction,
    family_uppers: list[Fraction],
    family_lowers: list[Fraction],
    gap: int,
) -> tuple[list[Fraction], list[Fraction]]:
    # The upper/lower families satisfy family_uppers[i] ==
    # family_lowers[i + gap]; such a pair cancels from the series term by
    # term, except when it carries the termination index K itself: dropping
    # the upper parameter -K would lengthen the sum and change its value,
    # so that pair stays in place (it is harmless, its ratio is 1 on every
    # surviving term).
    uppers = [extra_upper, *family_uppers]
    lowers = list(family_lowers)
    k_active = termination_index(uppers)
    for i in range(len(family_uppers) - gap):
        value = family_uppers[i]
        if value != family_lowers[i + gap]:
            raise ValueError(f"parameter families do not pair at offset {gap}")
        if (
            value.denominator == 1
            and value <= 0
            and -value == k_active
            and uppers.count(value) == 1
        ):
            continue
        uppers.remove(value)
        lowers.remove(value)
    return uppers, lowers


def omega_univariate_hypergeometric(twice_j: int, num: int, n: int) -> Fraction:
    """omega_univariate as a terminating hypergeometric series at unit argument.

    C(N + n - 1, n) * pFq with uppers {-N} + {-(n - i)/(2j+1)} and lowers
    {-(N + n - 1 - i)/(2j+1)} for i = 0 .. 2j, after cancelling the
    coincident upper/lower pairs offset by N - 1.  A cross-check route; the
    value is the same integer omega_univariate returns, as a Fraction.
    """
    if twice_j < 1 or num < 1:
        raise DomainError(
            "omega_univariate_hypergeometric needs twice_j >= 1 and num >= 1"
        )
    if n < 0:
        return Fraction(0)
    modulus = twice_j + 1
    family_uppers = [Fraction(-(n - i), modulus) for i in range(modulus)]
    family_lowers = [Fraction(-(num + n - 1 - i), modulus) for i in range(modulus)]
    uppers, lowers = _reduced_parameters(
        Fraction(-num), family_uppers, family_lowers, num - 1
    )
    return binom(num + n - 1, n) * eval_terminating_pfq(uppers, lowers)


def lambda_univariate_hypergeometric(twice_j: int, num: int, kappa: int) -> Fraction:
    """lambda_univariate as a terminating hypergeometric series at unit argument.

    Same construction with kappa in place of n, prefactor C(N + kappa - 2,
    kappa), lower family {-(N + kappa - 2 - i)/(2j+1)}, and pair offset
    N - 2.
    """
    if twice_j < 1:
        raise DomainError("lambda_univariate_hypergeometric needs twice_j >= 1")
    if num < 2:
        raise DomainError("lambda_univariate_hypergeometric needs num >= 2")
    spins = SpinMultiset.from_entries({twice_j: num})
    if kappa < 0 or kappa > _multiplicity_steps(spins):
        raise DomainError("kappa must lie between 0 and (2J_0 - 2J_m)/2")
    modulus = twice_j + 1
    family_uppers = [Fraction(-(kappa - i), modulus) for i in range(modulus)]
    family_lowers = [
        Fraction(-(num + kappa - 2 - i), modulus) for i in range(modulus)
    ]
    uppers, lowers = _reduced_parameters(
        Fraction(-num), family_uppers, family_lowers, num - 2
    )
    return binom(num + kappa - 2, kappa) * eval_terminating_pfq(uppers, lowers)
