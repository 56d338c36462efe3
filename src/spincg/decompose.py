"""Clebsch-Gordan decomposition of an arbitrary spin multiset.

The tensor product of spins A = {j_1, ..., j_N} splits into irreducible
components J with multiplicities lambda_J.  Everything is reached through
the table of z-projection subspace dimensions Omega_n = dim of the subspace
where sum(j_z,i) = J_0 - n, for n = 0 .. 2*J_0:

* generating function: Omega_n is the q^n coefficient of
  prod_i [2j_i + 1]_q, by q-ratios or, when 2 (sigma + 1) < N for sigma
  distinct spins, by the recurrence its logarithmic derivative gives,
* generalized binomial: an alternating sum of binomial products,
* multi-restricted composition: a sum over partitions placed into the
  spin "channels", counting the ways each part fits.

Multiplicities follow by first differences, lambda_kappa = Omega_kappa -
Omega_{kappa-1} with J_kappa = J_0 - kappa, and also come straight from a
binomial formula or from the polynomial (1 - q) * G_Omega.  Every Omega
table goes through one difference scan, every binomial form through one
species walk, and decompose audits each result once.  Binomial and
composition tables each take one walk and cross-check the generating
function; the tests and the brute-force oracles hold all three to that.

Single-spin-value collections {j^N} additionally admit univariate formulas,
their spin-infinity (zero-range) limits, and terminating hypergeometric
forms; those live here too, next to the machinery they cross-check.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import compress, islice, starmap
from math import prod
from operator import add, itemgetter, mul, sub

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
    return OmegaTable(tuple(head + head[: span - half][::-1]), span)


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
        row = [(-1) ** s * binom(mult, s) for s in range(min(mult, last // step) + 1)]
        grown: dict[int, int] = {}
        for weight, coeff in coeffs.items():
            for s in range(min(len(row) - 1, (last - weight) // step) + 1):
                w = weight + step * s
                grown[w] = grown.get(w, 0) + coeff * row[s]
        coeffs = grown
    return coeffs


def _alternating_sum(entries: tuple[tuple[int, int], ...], top: int, n: int) -> int:
    """sum_{w <= n} c_w C(top + n - w, top); top is N - 1 for Omega_n, N - 2 for lambda."""
    return sum(coeff * binom(top + n - w, top)
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

    A cross-check of genfunc; cgd --method composition runs the same walk.
    """
    if n < 0 or n > spins.twice_j0:
        return 0
    return _composition_counts(spins, n)[n]


def _composition_counts(spins: SpinMultiset, top: int) -> list[int]:
    """Omega_0 .. Omega_top by counting multi-restricted compositions.

    A partition is placed into the spin channels: a part of value a fits a
    channel with 2j >= a.  With parts grouped by value in descending order,
    each group of s parts of value a picks s of the channels admitting a and
    not yet taken, so the partition adds prod C(admitting(a) - taken, s) to
    the count of its total.  One depth-first walk visits each partition of
    total <= top once, carrying that product down the path.
    """
    caps = spins.twice_spins  # ascending
    admitting = [len(caps) - bisect_left(caps, v) for v in range(caps[-1] + 1)]
    counts = [1] + [0] * top

    def visit(total: int, cap: int, taken: int, product: int) -> None:
        room = top - total
        for value in range(min(cap, room), 0, -1):
            free = admitting[value] - taken
            for count in range(1, min(free, room // value) + 1):
                weight = product * binom(free, count)
                reached = total + count * value
                counts[reached] += weight
                if value > 1 and reached < top:
                    visit(reached, value - 1, taken + count, weight)

    visit(0, caps[-1], 0, 1)
    return counts


def omega_table(spins: SpinMultiset, method: str = "genfunc") -> OmegaTable:
    """Full Omega table by any of the three methods.

    Binomial and composition, the cross-checks of genfunc that cgd --method
    selects, fill all of 0 .. 2J_0 and so check genfunc's mirror as well.
    """
    if method == "genfunc":
        return omega_genfunc(spins)
    span = spins.twice_j0
    if method == "binomial":
        values = _alternating_table(spins.entries, spins.num_spins - 1, span)
    elif method == "composition":
        values = _composition_counts(spins, span)
    else:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    return OmegaTable(tuple(values), span)


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
    exclusion) needs no padding.  One map(sub, ...) differences kappa = 0 ..
    floor(2J_0 / 2); the positive differences are kept, each at twice_J =
    2J_0 - 2 kappa.  The one scan for decompose, lambda_from_omega and the
    symmetric and antisymmetric tables (whose support starts above zero);
    it makes no structural demands on the table, and lambda_from_omega and
    decompose audit what it returns.
    """
    half = twice_j0 // 2
    head = list(values[: half + 1])
    head += [0] * (half + 1 - len(head))
    lams = list(map(sub, head, [0] + head))
    kept = map((0).__lt__, lams)
    return DecompositionTable(tuple(compress(zip(range(twice_j0, -1, -2), lams), kept)))


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
    the minimum spin are not exposed.  A cross-check of genfunc whose table
    form cgd --method binomial runs.
    """
    num = spins.num_spins
    if num < 2:
        raise DomainError(
            "lambda_binomial needs at least two spins; "
            "use lambda_from_omega for a single spin"
        )
    if kappa < 0 or kappa > _multiplicity_steps(spins):
        raise DomainError("kappa must lie between 0 and (2J_0 - 2J_m)/2")
    return _alternating_sum(spins.entries, num - 2, kappa)


def decompose(spins: SpinMultiset, method: str = "genfunc") -> DecompositionTable:
    """Full Clebsch-Gordan decomposition of a spin multiset.

    method selects how the multiplicities are computed: "genfunc" (default)
    differences omega_genfunc's table, "composition" differences Omega_0 ..
    Omega_floor(J_0) from one partition walk, and "binomial" takes every
    lambda_kappa from one species walk and one binomial row (falling back to
    the Omega-difference route for a single spin, where the direct kernel is
    undefined).  The three methods agree entry for entry, and every result
    passes one audit: its total dimension and minimum spin must equal the
    multiset's.
    """
    twice_j0 = spins.twice_j0
    if method == "binomial" and spins.num_spins >= 2:
        lams = _alternating_table(spins.entries, spins.num_spins - 2, _multiplicity_steps(spins))
        table = DecompositionTable(tuple(zip(range(twice_j0, -1, -2), lams)))
    elif method == "composition":
        table = difference_decomposition(_composition_counts(spins, twice_j0 // 2), twice_j0)
    else:
        omega = omega_table(spins, method)
        table = difference_decomposition(omega.values, omega.twice_j0)
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
    return _alternating_sum(((twice_j, num),), num - 1, n)


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
    return lambda_binomial(SpinMultiset.from_entries({twice_j: num}), kappa)


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


def _univariate_hypergeometric(twice_j: int, num: int, n: int, top: int) -> Fraction:
    # The series of omega_univariate_hypergeometric with n and pair offset
    # top: N - 1 for Omega_n, N - 2 for lambda_kappa (as in _alternating_sum).
    modulus = twice_j + 1
    family_uppers = [Fraction(-(n - i), modulus) for i in range(modulus)]
    family_lowers = [Fraction(-(top + n - i), modulus) for i in range(modulus)]
    uppers, lowers = _reduced_parameters(
        Fraction(-num), family_uppers, family_lowers, top
    )
    return binom(top + n, n) * eval_terminating_pfq(uppers, lowers)


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
    return _univariate_hypergeometric(twice_j, num, n, num - 1)


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
    return _univariate_hypergeometric(twice_j, num, kappa, num - 2)
