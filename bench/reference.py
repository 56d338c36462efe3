"""Reference computations for the benchmark's answer checks.

Nothing here imports spincg.  Each quantity is computed by a route chosen
to share no code and, where possible, no algorithm with the program:

* Omega tables of a spin multiset: a sliding-window convolution, one
  [2j+1] window per spin, with prefix sums (itertools.accumulate).
* p(n, m, k), Gaussian coefficients and the symmetric and antisymmetric
  tables: a box-partition DP that adds parts value by value while tracking
  the number of parts.
* Catalan and Riordan numbers, the two-part counts p_2(k) = k//2 + 1:
  closed forms.  Bounded compositions: stars and bars with
  inclusion-exclusion.  Dice sums: a plain convolution.

Besides equality with these references, the checks assert properties the
method must have whatever the route: lambda at J_0 is 1, the multiplicities
account for the whole dimension (prod (2j+1); C(2j+N, N) for symmetric and
C(2j+1, N) for antisymmetric compositions), the J_min rule, palindromic
Gaussian polynomials, and JSON that re-serialises byte for byte.
"""

from __future__ import annotations

import functools
import json
import math
from fractions import Fraction
from itertools import accumulate


class CheckError(AssertionError):
    """An answer of the program disagrees with the reference or a property."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


# ---- spin multisets, in twice-spin units --------------------------------

def spin_label(twice_j: int) -> str:
    return str(twice_j // 2) if twice_j % 2 == 0 else f"{twice_j}/2"


def canonical(entries: dict[int, int]) -> str:
    return ",".join(
        spin_label(tj) if mult == 1 else f"{spin_label(tj)}^{mult}"
        for tj, mult in sorted(entries.items())
    )


def total_dimension(entries: dict[int, int]) -> int:
    return math.prod((tj + 1) ** mult for tj, mult in entries.items())


def twice_j0(entries: dict[int, int]) -> int:
    return sum(tj * mult for tj, mult in entries.items())


def twice_jmin(entries: dict[int, int]) -> int:
    """J_min rule: J_m = max(j) - (J_0 - max(j)) if that is >= 0, else 0 or 1/2."""
    twice_v = 2 * max(entries) - twice_j0(entries)
    return twice_v if twice_v >= 0 else twice_j0(entries) % 2


def omega_window(entries: dict[int, int], upto: int) -> list[int]:
    """Omega_0 .. Omega_upto by sliding a [2j+1] window once per spin."""
    omega = [1] + [0] * upto
    for tj, mult in sorted(entries.items()):
        width = tj + 1
        for _ in range(mult):
            prefix = list(accumulate(omega))
            omega = prefix[:width] + [
                hi - lo for hi, lo in zip(prefix[width:], prefix)
            ]
    return omega


def multiplicities(entries: dict[int, int]) -> list[tuple[int, int]]:
    """[(twice_J, lambda_J)] descending, by differencing the Omega window."""
    top = twice_j0(entries)
    steps = (top - twice_jmin(entries)) // 2
    omega = omega_window(entries, steps)
    lams = [omega[0]] + [omega[k] - omega[k - 1] for k in range(1, steps + 1)]
    return [(top - 2 * k, lam) for k, lam in enumerate(lams)]


def check_full_decomposition(entries: dict[int, int], terms: list[tuple[int, int]]) -> None:
    """The properties every full decomposition must have."""
    require(bool(terms), "empty decomposition of a non-empty multiset")
    require(terms[0] == (twice_j0(entries), 1), "lambda at J_0 is not 1")
    require(terms[-1][0] == twice_jmin(entries), "minimum spin breaks the J_min rule")
    require(all(lam >= 1 for _, lam in terms), "non-positive multiplicity")
    require(
        sum(lam * (tj + 1) for tj, lam in terms) == total_dimension(entries),
        "multiplicities do not add up to prod(2j+1)",
    )


# ---- box partitions and Gaussian polynomials ----------------------------

def _box_dp(n: int, m: int, upto: int) -> list[int]:
    # Parts take the values 1 .. n one value at a time; f[j][s] counts the
    # partitions built so far with exactly j parts summing to s, so the box
    # height m caps j.
    if n < m:
        n, m = m, n  # conjugation: the same counts, fewer rows
    f = [[1] + [0] * upto] + [[0] * (upto + 1) for _ in range(m)]
    for value in range(1, min(n, upto) + 1):
        for j in range(1, m + 1):
            row, below = f[j], f[j - 1]
            row[value:] = [a + b for a, b in zip(row[value:], below)]
    return [sum(col) for col in zip(*f)]


@functools.lru_cache(maxsize=None)
def box_row(n: int, m: int) -> tuple[int, ...]:
    """p(n, m, k) for k = 0 .. nm: partitions of k fitting an m x n box.

    The lower half comes from the box DP, the upper half by complementing
    each partition in the box, p(n, m, k) = p(n, m, nm - k).
    """
    if n <= 0 or m <= 0:
        return (1,)
    degree = n * m
    half = _box_dp(n, m, degree // 2)
    return tuple(half + half[: degree + 1 - len(half)][::-1])


def box_partitions(n: int, m: int, upto: int) -> list[int]:
    """p(n, m, k) for k = 0 .. upto."""
    row = box_row(n, m)
    return list(row[: upto + 1]) + [0] * (upto + 1 - len(row))


def gaussian(a: int, b: int) -> list[int]:
    """Coefficients of [a choose b]_q, which count partitions in a b x (a-b) box."""
    return list(box_row(a - b, b)) if 0 <= b <= a else []


def check_gaussian(a: int, b: int, coeffs: list[int]) -> None:
    require(coeffs == coeffs[::-1], f"[{a} choose {b}]_q is not palindromic")
    require(sum(coeffs) == math.comb(a, b) if 0 <= b <= a else not coeffs,
            f"[{a} choose {b}]_q at q=1 is not C({a}, {b})")
    require(coeffs == gaussian(a, b), f"[{a} choose {b}]_q differs from the box DP")


def identical_terms(twice_j: int, num: int, antisymmetric: bool) -> list[tuple[int, int]]:
    """Expected (twice_J, lambda) of N identical spins, by box partitions.

    The symmetric table is p(2j, N, k); the antisymmetric one is
    p(2j+1-N, N, k - N(N-1)/2), empty when N > 2j + 1.  Both are scanned
    for kappa = 0 .. jN and keep the positive differences.
    """
    top = twice_j * num
    kmax = top // 2
    if antisymmetric:
        if num > twice_j + 1:
            return []
        # shift <= kmax whenever N <= 2j + 1
        shift = num * (num - 1) // 2
        omega = [0] * shift + box_partitions(twice_j + 1 - num, num, kmax - shift)
    else:
        omega = box_partitions(twice_j, num, kmax)
    terms = []
    for kappa in range(kmax + 1):
        lam = omega[kappa] - (omega[kappa - 1] if kappa else 0)
        if lam > 0:
            terms.append((top - 2 * kappa, lam))
    return terms


def check_identical(twice_j: int, num: int, antisymmetric: bool,
                    terms: list[tuple[int, int]]) -> None:
    expected = identical_terms(twice_j, num, antisymmetric)
    if antisymmetric:
        dim = math.comb(twice_j + 1, num)
        top = num * (twice_j + 1 - num)
    else:
        dim = math.comb(twice_j + num, num)
        top = twice_j * num
    if dim:
        require(terms[:1] == [(top, 1)], "lambda at the top spin is not 1")
    require(
        sum(lam * (tj + 1) for tj, lam in terms) == dim,
        "multiplicities do not add up to the composition's dimension",
    )
    require(terms == expected, "identical-spin decomposition differs from the box DP")


# ---- closed forms, stars and bars, dice ---------------------------------

def catalan(v: int) -> int:
    return math.comb(2 * v, v) // (v + 1)


def riordan(v: int) -> int:
    """Binomial transform of the Catalan numbers."""
    return sum((-1) ** (v - k) * math.comb(v, k) * catalan(k) for k in range(v + 1))


def two_part_partitions(k: int) -> int:
    """p_2(k): partitions of k >= 0 into at most two parts."""
    return k // 2 + 1


def bounded_compositions(parts: dict[int, int], n: int, zero_allowed: bool) -> int:
    """Ordered solutions of x_1 + ... + x_d = n with lo <= x_i <= bound_i.

    Stars and bars over the d slots, with inclusion-exclusion over the set
    of slots forced above their bound (counted per bound class).
    """
    lo = 0 if zero_allowed else 1
    slots = sum(parts.values())
    free = n - lo * slots
    classes = sorted(parts.items())

    def walk(idx: int, excess: int, sign: int, ways: int) -> int:
        if excess > free:
            return 0
        if idx == len(classes):
            return sign * ways * math.comb(free - excess + slots - 1, slots - 1)
        bound, count = classes[idx]
        width = bound - lo + 1
        return sum(
            walk(idx + 1, excess + s * width, sign * (-1) ** s, ways * math.comb(count, s))
            for s in range(count + 1)
        )

    return walk(0, 0, 1, 1) if free >= 0 else 0


def dice_probability(dice: int, total: int) -> Fraction:
    counts = [1]
    for _ in range(dice):
        new = [0] * (len(counts) + 6)
        for s, c in enumerate(counts):
            for face in range(1, 7):
                new[s + face] += c
        counts = new
    ways = counts[total] if 0 <= total < len(counts) else 0
    return Fraction(ways, 6**dice)


def singlet_multiplicity(twice_j: int, count: int) -> int:
    """lambda at J = 0 of `count` copies of one spin, by the Omega window."""
    top = twice_j * count
    if count == 0:
        return 1
    if top % 2:
        return 0
    omega = omega_window({twice_j: count}, top // 2)
    return omega[top // 2] - omega[top // 2 - 1]


# ---- rendering, for byte-level checks of CLI output ---------------------

def decomposition_doc(spins: str, terms: list[tuple[int, int]],
                      composition: str | None = None) -> dict:
    doc: dict = {"spins": spins}
    if composition is not None:
        doc["composition"] = composition
    doc["twice_J0"] = terms[0][0] if terms else None
    doc["twice_Jm"] = terms[-1][0] if terms else None
    doc["total_dimension"] = str(sum(lam * (tj + 1) for tj, lam in terms))
    doc["terms"] = [
        {"twice_J": tj, "J": spin_label(tj), "multiplicity": str(lam)}
        for tj, lam in terms
    ]
    return doc


def decomposition_text(spins: str, terms: list[tuple[int, int]],
                       composition: str | None = None) -> str:
    lines = [f"spins: {spins}"]
    if composition is not None:
        lines.append(f"composition: {composition}")
    if not terms:
        lines.append("no states (exclusion)")
    else:
        lines.append(f"total dimension: {sum(lam * (tj + 1) for tj, lam in terms)}")
        lines += [f"J = {spin_label(tj)}: {lam}" for tj, lam in terms]
    return "\n".join(lines) + "\n"


def polynomial_text(coeffs: list[int]) -> str:
    pieces = []
    for k, c in enumerate(coeffs):
        if c == 0:
            continue
        mag = abs(c)
        power = "" if k == 0 else ("q" if k == 1 else f"q^{k}")
        body = str(mag) if not power else (power if mag == 1 else f"{mag} {power}")
        if not pieces:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(pieces) if pieces else "0"


def rounded_decimal(value: Fraction, digits: int) -> str:
    """value to `digits` decimals, rounding half up, without floats."""
    scale = 10**digits
    scaled = (2 * value.numerator * scale + value.denominator) // (2 * value.denominator)
    whole, frac = divmod(scaled, scale)
    return f"{whole}.{str(frac).zfill(digits)}"


def check_json_line(line: str) -> dict:
    """Parse one JSON output line and require a byte-identical round trip."""
    doc = json.loads(line)
    require(json.dumps(doc) == line, "JSON output does not re-serialise byte for byte")
    return doc


def bits(*values) -> int:
    """Largest bit length among the integers in nested lists and tuples."""
    best = 0
    for value in values:
        if isinstance(value, (list, tuple)):
            best = max(best, bits(*value))
        elif isinstance(value, Fraction):
            best = max(best, value.numerator.bit_length(), value.denominator.bit_length())
        elif isinstance(value, int):
            best = max(best, value.bit_length())
    return best
