"""Clebsch-Gordan decomposition of an arbitrary spin multiset.

The tensor product of spins A = {j_1, ..., j_N} splits into irreducible
components J with multiplicities lambda_J.  Omega_n is the dimension of the
subspace where sum(j_z,i) = J_0 - n, n = 0 .. 2*J_0, and lambda_kappa =
Omega_kappa - Omega_{kappa-1} is the multiplicity of J_kappa = J_0 - kappa:

* generating function: lambda_kappa is the q^kappa coefficient of G_lambda =
  (1 - q) prod_i [2j_i + 1]_q (_lambda_head), and Omega_n, that of
  G_Omega = prod_i [2j_i + 1]_q, is its prefix sum,
* generalized binomial: an alternating sum of binomial products,
* multi-restricted composition: partitions placed into the spin
  "channels", summed by one dynamic program over the part values.

decompose takes lambda_0 .. lambda_m, m = J_0 - J_m, from any of the three
and writes the table's two columns in one place, with one audit.  Binomial
and composition cross-check genfunc; the tests and the brute-force oracles
hold all three to that, over full Omega tables as well.
"""

from __future__ import annotations

import sys
from collections import deque
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from itertools import accumulate, compress
from math import comb, prod
from operator import add, gt, mul, neg, sub

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


@dataclass(frozen=True, repr=False)
class DecompositionTable:
    """Irreducible components as two columns, twice_js descending and mults.

    DecompositionTable(entries) takes (twice_J, multiplicity) pairs, which
    entries rebuilds on each read; total_dimension is summed at build, as
    every production table's audit reads it.  Empty tables are legal; they
    represent an antisymmetric composition excluded by the Pauli principle.
    """

    twice_js: tuple[int, ...] = field(init=False)
    mults: tuple[int, ...] = field(init=False)
    total_dimension: int = field(init=False, compare=False)

    def __init__(self, entries: Iterable[tuple[int, int]]) -> None:
        twice_js, mults = tuple(zip(*entries, strict=True)) or ((), ())
        _fill(self, twice_js, mults)

    @property
    def entries(self) -> tuple[tuple[int, int], ...]:
        return tuple(zip(self.twice_js, self.mults))

    def __repr__(self) -> str:
        return f"DecompositionTable(entries={self.entries!r})"

    def __bool__(self) -> bool:
        return bool(self.twice_js)

    def multiplicity(self, twice_j: int) -> int:
        return self.mults[self.twice_js.index(twice_j)] if twice_j in self.twice_js else 0

    @property
    def twice_j0(self) -> int:
        if not self.twice_js:
            raise ValueError("empty decomposition has no maximum spin")
        return self.twice_js[0]

    @property
    def twice_jmin(self) -> int:
        if not self.twice_js:
            raise ValueError("empty decomposition has no minimum spin")
        return self.twice_js[-1]

    def to_json_dict(self, spins: str, composition: str | None = None) -> dict:
        """JSON document with canonical key order.

        Big integers are decimal strings so consumers without bignums stay
        exact.  composition, when given, sits right after spins.
        """
        doc: dict = {"spins": spins}
        if composition is not None:
            doc["composition"] = composition
        doc["twice_J0"] = self.twice_js[0] if self.twice_js else None
        doc["twice_Jm"] = self.twice_js[-1] if self.twice_js else None
        doc["total_dimension"] = decimal_text(self.total_dimension)
        doc["terms"] = [
            {"twice_J": tj, "J": spin_label(tj), "multiplicity": decimal_text(mult)}
            for tj, mult in zip(self.twice_js, self.mults)
        ]
        return doc


def _fill(table: DecompositionTable, twice_js: tuple, mults: tuple) -> DecompositionTable:
    """Check and store a table's columns: DecompositionTable(entries) and the producers here."""
    if len(twice_js) != len(mults) or not all(map(gt, twice_js, twice_js[1:])) or (
            twice_js and (twice_js[-1] < 0 or min(mults) < 1)):
        raise ValueError("a table needs columns of one length, twice_J >= 0 strictly "
                         "descending and multiplicity >= 1")
    # frozen, so the dict is written directly; sum mult * (2J + 1) in two C-level passes
    table.__dict__.update(twice_js=twice_js, mults=mults,
                          total_dimension=sum(map(mul, twice_js, mults)) + sum(mults))
    return table


def omega_genfunc(spins: SpinMultiset) -> OmegaTable:
    """Full Omega table from the generating function prod [2j+1]_q^mult.

    The table is palindromic (Omega_n = Omega_{2J_0 - n}), so only its head
    Omega_0 .. Omega_{floor(J_0)}, the prefix sums of _lambda_head's
    coefficients, is computed; the rest is its mirror.
    """
    span = spins.twice_j0
    half = span // 2
    head = list(accumulate(_lambda_head(spins, half)))
    return OmegaTable(tuple(head + head[: span - half][::-1]))


def _lambda_head(spins: SpinMultiset, top: int) -> Iterable[int]:
    """lambda_0 .. lambda_top, the coefficients of G_lambda = (1 - q) prod [2j+1]_q.

    The logarithmic-derivative recurrence of _lambda_coefficients costs
    sigma + 1 products per coefficient, whatever the number N of spins; the
    q-ratio kernel takes two C-level passes over the list per spin, after
    the pair (1, 0) (times 1 - q, no running sum).  The recurrence runs
    when 2 (sigma + 1) < N: just past that, the kernel took 1.04-1.50 times
    as long for sigma = 1 .. 8 (CPython 3.11).
    """
    if 2 * (spins.num_distinct + 1) < spins.num_spins:
        return _lambda_coefficients(spins.entries, top)
    return _q_ratio_product([(1, 0), *((tj + 1, 1) for tj in spins.twice_spins)], top)


def _lambda_coefficients(entries: tuple[tuple[int, int], ...], top: int) -> Iterator[int]:
    """Yield lambda_0 .. lambda_top of G = (1 - q) prod_a [d_a]_q^(N_a), d_a = 2j_a + 1.

    G = prod_a (1 - q^(d_a))^(N_a) / (1 - q)^(N - 1), N = sum N_a, so G'/G
    = (N - 1) / (1 - q) - sum_a N_a d_a q^(d_a - 1) / (1 - q^(d_a)) gives
    (n+1) lambda_{n+1} = (N - 1) sum_{i <= n} lambda_i - sum_a N_a d_a u_a[n+1-d_a],
    where u_a[m] = lambda_m + u_a[m - d_a] runs along one residue class mod
    d_a: the device of Euler's n p(n) = sum_k sigma(k) p(n - k) for
    partitions (Andrews, The Theory of Partitions, 1; Stanley, EC1 1.8).
    Each deque holds the last d_a running sums of one species, so its head
    is u_a[n+1-d_a]; a species with d_a > top never reaches a nonzero one
    and is left out.  The state is O(sum d_a) besides what the caller
    keeps.  The division is exact; a remainder means an arithmetic bug.
    """
    num = sum(mult for _, mult in entries) - 1
    species = [((twice_j + 1) * mult, deque([0] * twice_j + [1], maxlen=twice_j + 1))
               for twice_j, mult in entries if twice_j < top]
    scaled = num  # (N - 1) (lambda_0 + ... + lambda_{n-1})
    yield 1
    for n in range(1, top + 1):
        acc = scaled
        for weight, sums in species:
            acc -= weight * sums[0]
        value, rem = divmod(acc, n)
        if rem:
            raise ArithmeticError(f"lambda recurrence: inexact step at n={n}")
        scaled += num * value
        for _, sums in species:
            sums.append(value + sums[0])
        yield value


def _omega_at(spins: SpinMultiset, n: int) -> int:
    """Single Omega_n by the cheaper of the recurrence and the binomial sum.

    The recurrence's prefix sum runs to m = min(n, 2J_0 - n), the nearer
    end of the palindrome: about m (sigma + 1) products.  omega_binomial
    visits at most prod_a (min(N_a, n // d_a) + 1) choices (s_a), each a
    binomial of about N - 1 products.  With a recurrence product weighted 6
    (5 to 8 measured alike), the route taken cost 1.08x the faster one in
    geometric mean over 1,500 seeded pairs (CPython 3.11); a cost model is
    still open.  Out-of-range n returns 0.
    """
    span = spins.twice_j0
    if n < 0 or n > span:
        return 0
    steps = min(n, span - n)
    choices = prod(min(mult, n // (tj + 1)) + 1 for tj, mult in spins.entries)
    if 6 * steps * (spins.num_distinct + 1) < choices * (spins.num_spins - 1):
        if steps > sys.maxsize:  # a run that would not end; main's exit 4
            raise OverflowError(f"Omega recurrence of {steps} steps")
        return sum(_lambda_coefficients(spins.entries, steps))
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
    values = [0] * (last + 1)  # before the row, so a table too long to hold fails at once
    row = [1]
    for k in range(1, last + 1):
        row.append(row[-1] * (top + k) // k)
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
    counts = [0] * (top + 1)  # before the DP, so a table too long to hold fails at once
    species = list(spins.entries)  # ascending; popped as v reaches their 2j
    admitting = 0
    states = {(0, 0): 1}
    for value in range(min(species[-1][0], top), 1, -1):
        while species and species[-1][0] >= value:
            admitting += species.pop()[1]
        for (taken, total), weight in states.copy().items():  # each moves once per v
            for count in range(1, min(admitting - taken, (top - total) // value) + 1):
                weight = weight * (admitting - taken - count + 1) // count
                key = (taken + count, total + count * value)
                states[key] = states.get(key, 0) + weight
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
    contiguous_end = table.twice_j0 - 2 * (len(result.twice_js) - 1)
    if (result.twice_jmin, result.total_dimension) != (contiguous_end, sum(table.values)):
        raise ValueError(
            "inconsistent omega table: multiplicities do not account for its dimension"
        )
    return result


def difference_decomposition(values, twice_j0: int) -> DecompositionTable:
    """First-difference multiplicities from a sequence of Omega values.

    values[n] is Omega_n, and entries past its end read as 0, so a table
    shorter than 2J_0 + 1 (the antisymmetric oracle's, empty under Pauli
    exclusion) is read as it is.  The head, kappa = 0 .. floor(2J_0 / 2),
    compared with itself shifted by one, gives one list of flags Omega_kappa
    > Omega_(kappa-1); compress keeps by it the positive differences and
    their twice_J = 2J_0 - 2 kappa, the two columns.  The one scan for
    lambda_from_omega, the symmetric and antisymmetric tables and the
    antisymmetric oracle's table (whose support starts above zero); it
    makes no structural demands on the table, and its callers audit what
    it returns.
    """
    top = twice_j0 // 2 + 1
    head = values[:top]
    ahead, behind = [*head, 0], [0, *head]
    keep = list(map(gt, ahead, behind))
    del keep[top:]  # the flag past the middle, when head reaches it
    return _fill(object.__new__(DecompositionTable), tuple(compress(range(twice_j0, -1, -2), keep)),
                 tuple(compress(map(sub, ahead, behind), keep)))


def lambda_genfunc(spins: SpinMultiset) -> IntPolynomial:
    """Multiplicity generating function G_lambda = (1 - q) * G_Omega.

    Degree 2*J_0 + 1; coefficient kappa is lambda_kappa for kappa <= m,
    then come 2*J_m zero "sinking" coefficients, then the mirrored negative
    coefficients (G_lambda(1) = 0).  As G_Omega is palindromic, G_lambda is
    _lambda_head to floor(J_0), a 0 if 2J_0 is odd, and that head negated, reversed.
    """
    head = list(_lambda_head(spins, spins.twice_j0 // 2))
    return IntPolynomial((*head, *[0] * (spins.twice_j0 % 2), *map(neg, reversed(head))))


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

    method selects how lambda_0 .. lambda_m, m = J_0 - J_m, are computed:
    "genfunc" (default) generates G_lambda's coefficients, "binomial" takes
    them from one species walk and one binomial row, and "composition"
    differences Omega_0 .. Omega_m from one dynamic program; a single spin
    has m = 0.  The three methods agree entry for entry.  The table is
    written once, twice_J = 2J_0 - 2 kappa down to the multiset's 2J_m;
    _fill rejects a multiplicity below 1, and one audit holds the total
    dimension to the multiset's.
    """
    m = spins.distinct_j_count - 1
    if method == "genfunc":
        lams = _lambda_head(spins, m)
    elif method == "binomial":
        lams = _alternating_table(spins.entries, spins.num_spins - 2, m)
    elif method == "composition":
        omegas = _composition_counts(spins, m)
        lams = map(sub, omegas, [0, *omegas])
    else:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    table = _fill(object.__new__(DecompositionTable),
                  tuple(range(spins.twice_j0, spins.twice_jmin - 1, -2)), tuple(lams))
    if table.total_dimension != spins.total_dimension:
        raise ValueError(f"inconsistent decomposition of {spins.canonical()}")
    return table
