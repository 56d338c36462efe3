"""Clebsch-Gordan decomposition of an arbitrary spin multiset.

The tensor product of spins A = {j_1, ..., j_N} splits into irreducible
components J with multiplicities lambda_J.  Everything is reached through
the table of z-projection subspace dimensions Omega_n = dim of the subspace
where sum(j_z,i) = J_0 - n, for n = 0 .. 2*J_0:

* generating function: Omega_n is the q^n coefficient of
  prod_i [2j_i + 1]_q, by q-ratios or by the recurrence its logarithmic
  derivative gives (omega_genfunc states which runs when),
* generalized binomial: an alternating sum of binomial products,
* multi-restricted composition: partitions placed into the spin
  "channels", summed by one dynamic program over the part values.

Multiplicities follow by first differences, lambda_kappa = Omega_kappa -
Omega_{kappa-1} with J_kappa = J_0 - kappa, and also come straight from a
binomial formula or from the polynomial (1 - q) * G_Omega.  Every Omega
table goes through one difference scan, every binomial form through one
species walk, and decompose audits each result once.  Binomial and
composition tables each take one pass and cross-check the generating
function; the tests and the brute-force oracles hold all three to that,
and spincg.crosscheck.omega_table gives their full Omega tables.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, islice, starmap
from math import comb, prod
from operator import add, itemgetter, mul, sub

from .errors import DomainError
from .qpoly import IntPolynomial, _q_ratio_product
from .spins import SpinMultiset, decimal_text, spin_label

# not exported: METHODS; omega_composition, lambda_binomial (bench/layers.py reads them)
__all__ = [
    "OmegaTable",
    "DecompositionTable",
    "omega_genfunc",
    "omega_binomial",
    "lambda_from_omega",
    "difference_decomposition",
    "lambda_genfunc",
    "decompose",
]

METHODS = ("genfunc", "binomial", "composition")


@dataclass(frozen=True)
class OmegaTable:
    """Subspace dimensions Omega_n for n = 0 .. twice_j0.

    values[n] is the dimension of the z-projection subspace at n.  The span
    twice_j0 is len(values) - 1, so -1 for the empty table the
    antisymmetric oracle gives under Pauli exclusion.
    """

    values: tuple[int, ...]

    @property
    def twice_j0(self) -> int:
        return len(self.values) - 1

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

    @cached_property
    def total_dimension(self) -> int:
        # decompose's audit and to_json_dict both read it; the sum
        # mult * (2J + 1) is taken as sum mult * 2J + sum mult, two C-level passes
        return sum(starmap(mul, self.entries)) + sum(map(itemgetter(1), self.entries))

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
        doc["total_dimension"] = decimal_text(self.total_dimension)
        doc["terms"] = [
            {"twice_J": tj, "J": spin_label(tj), "multiplicity": decimal_text(mult)}
            for tj, mult in self.entries
        ]
        return doc


def omega_genfunc(spins: SpinMultiset) -> OmegaTable:
    """Full Omega table from the generating function prod [2j+1]_q^mult.

    The table is palindromic (Omega_n = Omega_{2J_0 - n}), so only
    Omega_0 .. Omega_{floor(J_0)}, the last one lambda_from_omega reads,
    are computed; the rest is their mirror.  Two routes build that half:

    * the q-ratio kernel, one ratio [2j+1]_q = (1 - q^(2j+1)) / (1 - q)
      per spin: two C-level passes over the list per spin;
    * the logarithmic-derivative recurrence of _omega_coefficients, whose
      cost is set by the sigma species, not the N spins: sigma + 1
      products per coefficient.

    The recurrence runs when 2 (sigma + 1) < N: just past that, the kernel
    took 1.04-1.50 times as long for sigma = 1 .. 8 (CPython 3.11).
    """
    span = spins.twice_j0
    half = span // 2
    if 2 * (spins.num_distinct + 1) < spins.num_spins:
        head = list(_omega_coefficients(spins.entries, half))
    else:
        head = _q_ratio_product([(tj + 1, 1) for tj in spins.twice_spins], half)
    return OmegaTable(tuple(head + head[: span - half][::-1]))


def _omega_coefficients(entries: tuple[tuple[int, int], ...], top: int) -> Iterator[int]:
    """Yield Omega_0 .. Omega_top of G = prod_a [d_a]_q^(N_a), d_a = 2j_a + 1.

    The logarithmic derivative G'/G = N / (1 - q) - sum_a N_a d_a
    q^(d_a - 1) / (1 - q^(d_a)), N = sum N_a, gives
    (n+1) Omega_{n+1} = N sum_{i <= n} Omega_i - sum_a N_a d_a u_a[n+1-d_a],
    where u_a[m] = Omega_m + u_a[m - d_a] runs along one residue class mod
    d_a: the device of Euler's n p(n) = sum_k sigma(k) p(n - k) for
    partitions (Andrews, The Theory of Partitions, 1; Stanley, EC1 1.8).
    Each deque holds the last d_a running sums of one species, so its head
    is u_a[n+1-d_a]; a species with d_a > top never reaches a nonzero one
    and is left out.  The state is O(sum d_a) besides what the caller
    keeps.  The division is exact; a remainder means an arithmetic bug.
    """
    num = sum(mult for _, mult in entries)
    species = [((twice_j + 1) * mult, deque([0] * twice_j + [1], maxlen=twice_j + 1))
               for twice_j, mult in entries if twice_j < top]
    scaled = num  # N (Omega_0 + ... + Omega_{n-1})
    yield 1
    for n in range(1, top + 1):
        acc = scaled
        for weight, sums in species:
            acc -= weight * sums[0]
        value, rem = divmod(acc, n)
        if rem:
            raise ArithmeticError(f"Omega recurrence: inexact step at n={n}")
        scaled += num * value
        for _, sums in species:
            sums.append(value + sums[0])
        yield value


def _omega_at(spins: SpinMultiset, n: int) -> int:
    """Single Omega_n by the cheaper of the recurrence and the binomial sum.

    The recurrence runs to m = min(n, 2J_0 - n), the nearer end of the
    palindrome: about m (sigma + 1) products.  omega_binomial visits at
    most prod_a (min(N_a, n // d_a) + 1) choices (s_a), each a binomial of
    about N - 1 products.  With a recurrence product weighted 6 (5 to 8
    measured alike), the route taken cost 1.08x the faster one in geometric
    mean over 1,500 seeded pairs (CPython 3.11); a cost model is still open.
    Out-of-range n returns 0.
    """
    span = spins.twice_j0
    if n < 0 or n > span:
        return 0
    steps = min(n, span - n)
    choices = prod(min(mult, n // (tj + 1)) + 1 for tj, mult in spins.entries)
    if 6 * steps * (spins.num_distinct + 1) < choices * (spins.num_spins - 1):
        return next(islice(_omega_coefficients(spins.entries, steps), steps, None))
    return omega_binomial(spins, n)


def _species_coefficients(entries: tuple[tuple[int, int], ...], last: int) -> dict[int, int]:
    """Nonzero c_w, w <= last, of prod_a (1 - q^(2j_a+1))^(N_a), merged per species."""
    coeffs = {0: 1}
    for twice_j, mult in entries:
        step = twice_j + 1
        row = [1]
        for s in range(1, min(mult, last // step) + 1):
            row.append(-row[-1] * (mult - s + 1) // s)
        grown: dict[int, int] = {}
        for weight, coeff in coeffs.items():
            for s in range(min(len(row) - 1, (last - weight) // step) + 1):
                w = weight + step * s
                grown[w] = grown.get(w, 0) + coeff * row[s]
        coeffs = grown
    return coeffs


def _alternating_sum(entries: tuple[tuple[int, int], ...], top: int, n: int) -> int:
    """sum_{w <= n} c_w C(top + n - w, top); top is N - 1 for Omega_n, N - 2 for lambda."""
    return sum(coeff * comb(top + n - w, top)
               for w, coeff in _species_coefficients(entries, n).items())


def _alternating_table(entries: tuple[tuple[int, int], ...], top: int, last: int) -> list[int]:
    """_alternating_sum for every n = 0 .. last, from one species walk.

    The kernel row B[k] = C(top + k, top) is built once, and each c_w adds
    c_w * B to the entries from w on.
    """
    row = [1]
    for k in range(1, last + 1):
        row.append(row[-1] * (top + k) // k)
    values = [0] * (last + 1)
    for w, coeff in _species_coefficients(entries, last).items():
        values[w:] = map(add, values[w:], map(coeff.__mul__, row))
    return values


def omega_binomial(spins: SpinMultiset, n: int) -> int:
    """Single Omega_n by the alternating binomial sum.

    Sums (-1)^(s_1+...+s_sigma) C(N + n - 1 - w, N - 1) prod C(N_a, s_a)
    over choices 0 <= s_a <= N_a, where w = sum (2j_a + 1) s_a <= n.
    Out-of-range n returns 0.  A cross-check of genfunc whose table form
    cgd --method binomial runs, and _omega_at's route when this sum is short.
    """
    if n < 0 or n > spins.twice_j0:
        return 0
    return _alternating_sum(spins.entries, spins.num_spins - 1, n)


def omega_composition(spins: SpinMultiset, n: int) -> int:
    """Single Omega_n by _composition_counts; out-of-range n returns 0.

    A cross-check of genfunc; it runs cgd --method composition's DP to n.
    """
    if n < 0 or n > spins.twice_j0:
        return 0
    return _composition_counts(spins, n)[n]


def _composition_counts(spins: SpinMultiset, top: int) -> list[int]:
    """Omega_0 .. Omega_top by counting multi-restricted compositions.

    s parts of value v go into s of the channels with 2j >= v that larger
    parts left free: C(free, s) ways.  A dynamic program over v = max 2j .. 2
    keeps one summed weight per (taken, total); v = 1 adds into the counts.
    """
    species = list(spins.entries)  # ascending; popped as v reaches their 2j
    admitting = 0
    states = {(0, 0): 1}
    for value in range(min(species[-1][0], top), 1, -1):
        while species and species[-1][0] >= value:
            admitting += species.pop()[1]
        for (taken, total), weight in states.copy().items():  # each moves once per v
            if taken < admitting:
                for count in range(1, min(admitting - taken, (top - total) // value) + 1):
                    weight = weight * (admitting - taken - count + 1) // count
                    key = (taken + count, total + count * value)
                    states[key] = states.get(key, 0) + weight
    counts = [0] * (top + 1)
    num = spins.num_spins
    for (taken, total), weight in states.items():
        for count in range(min(num - taken, top - total) + 1):
            counts[total + count] += weight
            weight = weight * (num - taken - count) // (count + 1)
    return counts


def lambda_from_omega(table: OmegaTable) -> DecompositionTable:
    """Multiplicities by first differences of the Omega table, audited.

    The scan is difference_decomposition's; this adds the checks a genuine
    subspace-dimension table passes.  Omega_0 must be 1, the multiplicities
    must run without a gap from J_0 down to the minimum coupled spin, and
    sum lambda * (2J+1) must equal sum Omega.
    """
    if table.omega(0) != 1:
        raise ValueError("inconsistent omega table: Omega_0 must be 1")
    result = difference_decomposition(table.values, table.twice_j0)
    contiguous_end = table.twice_j0 - 2 * (len(result.entries) - 1)
    if (result.twice_jmin, result.total_dimension) != (contiguous_end, table.total):
        raise ValueError(
            "inconsistent omega table: multiplicities do not account for its dimension"
        )
    return result


def difference_decomposition(values, twice_j0: int) -> DecompositionTable:
    """First-difference multiplicities from a sequence of Omega values.

    values[n] is Omega_n, and entries past its end read as 0, so a table
    shorter than 2J_0 + 1 (the antisymmetric oracle's, empty under Pauli
    exclusion) is read as it is.  One pass differences the head, kappa = 0 ..
    floor(2J_0 / 2), against itself shifted by one and keeps the positive
    differences, each at twice_J = 2J_0 - 2 kappa.  The one scan for
    decompose, lambda_from_omega, the symmetric and antisymmetric tables and
    the antisymmetric oracle's table (whose support starts above zero); it
    makes no structural demands on the table, and lambda_from_omega and
    decompose audit what it returns.
    """
    head = values[: twice_j0 // 2 + 1]
    lams = map(sub, chain(head, (0,)), chain((0,), head))
    return DecompositionTable(tuple(
        (twice_j, lam) for twice_j, lam in zip(range(twice_j0, -1, -2), lams) if lam > 0))


def lambda_genfunc(spins: SpinMultiset) -> IntPolynomial:
    """Multiplicity generating function G_lambda = (1 - q) * G_Omega.

    Degree 2*J_0 + 1; coefficient kappa is lambda_kappa for kappa <= m,
    then come 2*J_m zero "sinking" coefficients, then the mirrored negative
    coefficients (G_lambda(1) = 0).
    """
    values = omega_genfunc(spins).values
    return IntPolynomial(tuple(map(sub, values + (0,), (0,) + values)))


def lambda_binomial(spins: SpinMultiset, kappa: int) -> int:
    """Single multiplicity lambda_kappa by the direct alternating sum.

    Same skeleton as omega_binomial with kernel C(N + kappa - 2 - w, N - 2),
    which requires N >= 2; a single spin has no pairwise coupling and the
    kernel's lower index would go negative, so that raises DomainError (use
    lambda_from_omega instead).  kappa must lie in 0 .. m; values beyond
    the minimum spin are not exposed.  A cross-check of genfunc whose table
    form cgd --method binomial runs.
    """
    num = spins.num_spins
    if num < 2:
        raise DomainError(
            "lambda_binomial needs at least two spins; "
            "use lambda_from_omega for a single spin"
        )
    if kappa < 0 or kappa >= spins.distinct_j_count:
        raise DomainError("kappa must lie between 0 and (2J_0 - 2J_m)/2")
    return _alternating_sum(spins.entries, num - 2, kappa)


def decompose(spins: SpinMultiset, method: str = "genfunc") -> DecompositionTable:
    """Full Clebsch-Gordan decomposition of a spin multiset.

    method selects how the multiplicities are computed: "genfunc" (default)
    differences omega_genfunc's table, "composition" differences Omega_0 ..
    Omega_floor(J_0) from one dynamic program, and "binomial" takes every
    lambda_kappa from one species walk and one binomial row (for a single
    spin the row is 1, 0, 0, ... and the walk stops at kappa = 0, so the
    table is the spin itself).  The three methods agree entry for entry, and
    every result passes one audit: its total dimension and minimum spin must
    equal the multiset's.
    """
    twice_j0 = spins.twice_j0
    if method == "genfunc":
        table = difference_decomposition(omega_genfunc(spins).values, twice_j0)
    elif method == "binomial":
        lams = _alternating_table(spins.entries, spins.num_spins - 2, spins.distinct_j_count - 1)
        table = DecompositionTable(tuple(zip(range(twice_j0, -1, -2), lams)))
    elif method == "composition":
        table = difference_decomposition(_composition_counts(spins, twice_j0 // 2), twice_j0)
    else:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    expected = (spins.total_dimension, spins.twice_jmin)
    if (table.total_dimension, table.twice_jmin) != expected:
        raise ValueError(f"inconsistent decomposition of {spins.canonical()}")
    return table
