"""Integer q-polynomials, Gaussian binomials, and restricted partitions.

* IntPolynomial, a dense polynomial in q with int coefficients, as a value:
  coefficients, degree, indexing and rendering.  The q-analogue [n]_q =
  1 + q + ... + q^(n-1) of a spin dimension is the building block of every
  generating function here; spincg.crosscheck.q_analogue builds it.
* Gaussian binomials [a choose b]_q, the generating functions of symmetric
  and antisymmetric spin compositions.  Their coefficients are the
  restricted partition counts p(n, m, k): partitions of k into at most m
  parts, each part at most n.

The Gaussian binomials and the partition counts come from one routine,
_gaussian_coefficients: a product of q-ratios (1 - q^u) / (1 - q^v)
truncated at the highest coefficient asked for.  It packs the product into
one integer, a 64-bit word per coefficient, where every coefficient fits a
word and the measured crossover favours that; otherwise it runs
_q_ratio_product on a list; q_binomial mirrors its palindromic lower half,
and spincg.identical differences its half span.  decompose also uses
_q_ratio_product for multiplicity tables.  No production route multiplies
IntPolynomials: their schoolbook product serves only the cross-checks in
spincg.crosscheck, which hold the other routes.

No floats anywhere; coefficients and counts are Python ints.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from itertools import accumulate
from math import comb
from operator import sub

from .errors import DomainError
from .spins import decimal_text

__all__ = [
    "IntPolynomial",
    "q_binomial",
    "restricted_partitions",
    "partitions_at_most",
]


@dataclass(frozen=True)
class IntPolynomial:
    """Dense polynomial in q over the integers, a value.

    coeffs[k] is the coefficient of q^k; trailing zeros are stripped on
    construction so equal polynomials compare equal.  The zero polynomial
    has an empty coefficient tuple and degree -1.  The one product, __mul__,
    serves the cross-checks.
    """

    coeffs: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        coeffs = self.coeffs
        if coeffs and coeffs[-1] == 0:
            end = len(coeffs)
            while end > 0 and coeffs[end - 1] == 0:
                end -= 1
            object.__setattr__(self, "coeffs", coeffs[:end])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __getitem__(self, k: int) -> int:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return 0

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        # Schoolbook convolution, for spincg.crosscheck; its sizes there
        # stay at desk scale.
        a, b = self.coeffs, other.coeffs
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca == 0:
                continue
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        return IntPolynomial(tuple(out))

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        pieces: list[str] = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            body = mag = decimal_text(abs(c))
            if k:
                power = "q" if k == 1 else f"q^{k}"
                body = power if mag == "1" else f"{mag} {power}"
            sign = ("+ " if c > 0 else "- ") if pieces else ("" if c > 0 else "-")
            pieces.append(sign + body)
        return " ".join(pieces)


def _q_ratio_product(pairs: list[tuple[int, int]], top: int) -> list[int]:
    """Coefficients 0..top of prod (1 - q^u) / (1 - q^v) over (u, v) pairs.

    In place on one list: times (1 - q^u) subtracts the list shifted by u,
    over (1 - q^v) is a running sum along each residue class mod v.  Both
    commute with truncation at q^top, and every caller's partial products
    are polynomials, so the division is exact.
    """
    coeffs = [1] + [0] * top
    for u, v in pairs:
        if u <= top:
            coeffs[u:] = map(sub, coeffs[u:], coeffs[: top + 1 - u])
        for r in range(min(v, top + 1)):
            coeffs[r::v] = accumulate(coeffs[r::v])
    return coeffs


_WORD = 64  # bits per packed coefficient; memoryview reads them as "Q"


def _gaussian_coefficients(a: int, b: int, top: int) -> list[int]:
    """Coefficients 0..top of [a choose b]_q, for 0 <= b <= a.

    prod_{i=1..c} (1 - q^(a-c+i)) / (1 - q^i) with c = min(b, a - b); the
    partial products are the Gaussian binomials [a-c+i choose i]_q.  Both
    sides of a factor with i > top are 1 mod q^(top+1), so the list route
    stops at i = min(c, top).

    Packed route (Kronecker substitution).  q -> X = 2^64 is a ring
    homomorphism Z[q]/(q^(top+1)) -> Z/2^(64(top+1)), so the product can
    run on one int: times (1 - X^u) is a shift, a subtraction and a mask,
    and over (1 - X^v) is times prod_t (1 + X^(v 2^t)) for v 2^t <= top,
    the inverse of the odd 1 - X^v modulo X^(top+1).  Intermediate
    coefficients may go negative; the arithmetic is modular, so that does
    no harm.  The coefficients of [a choose b]_q are nonnegative and sum to
    C(a, b) = C(a, c), so each lies in [0, C(a, c)], and when C(a, c) < 2^64
    the 64-bit words of the residue are exactly the coefficients.

    Route rule.  The packed form pays about log2(top / v) full-width passes
    per denominator where the list pays two passes per factor and one slice
    per residue class, v per denominator, so it wins with many factors over
    short spans.  With top at half the degree, the list/packed time ratio
    read 1.0-1.9 at top = 4 c^2 for c = 2..12 (medians of 5); then 0.7-1.0
    for c = 2 at every top from 2 c^2 to 36 c^2, 1.1-1.7 for c = 3 up to
    9 c^2 and 1.0 from 16 c^2, and 1.1-1.6 for c = 4..6 at 8-36 c^2 (best
    of 15; CPython 3.11, one KVM core).  So it packs for top <= c^4 where
    c = 3..6, which stays inside that grid, and for top <= 4 c^2 elsewhere.
    c^4 does not carry on past c = 6: at tops from 4 c^2 to c^4 the ratio
    read 1.4-2.3 with top at half the degree for c = 7..14, but down to
    0.77-0.88 for c = 7..10 at the largest a a word allows, where top is a
    short span (medians of 21 alternating runs, CPython 3.11.7).  No
    c >= 15 has such a top at or below half the degree.  c = 1 read 1.1-1.5
    at every top up to 8, and c = 2 read 1.0 at 8 c^2.  The list kernel
    runs beyond.  C(2c, c) >= 2^64 from c = 34 on, so the rule tests
    c <= 33 first and evaluates comb only where a word can hold it.
    """
    c = min(b, a - b)
    limit = c**4 if 3 <= c <= 6 else 4 * c * c
    if c <= 33 and top <= limit and comb(a, c) < 1 << _WORD:
        return _packed_gaussian(a - c, c, top)
    return _q_ratio_product([(a - c + i, i) for i in range(1, min(c, top) + 1)], top)


def _packed_gaussian(offset: int, c: int, top: int) -> list[int]:
    # prod_{i=1..c} (1 - X^(offset+i)) / (1 - X^i) mod X^(top+1), X = 2^64.
    # After i factors the product is [offset+i choose i]_q, of degree
    # i*offset, so each factor runs modulo X^(min(top, i*offset)+1) and the
    # residue carries over exactly to the next, wider modulus.
    x = 1
    for i in range(1, c + 1):
        end = min(top, i * offset)
        mask = (1 << _WORD * (end + 1)) - 1
        if offset + i <= end:
            x = (x - (x << _WORD * (offset + i))) & mask
        step = i
        while step <= end:
            x = (x + (x << _WORD * step)) & mask
            step += step
    words = x.to_bytes((top + 1) * _WORD // 8, sys.byteorder)
    return memoryview(words).cast("Q").tolist()


def q_binomial(a: int, b: int) -> IntPolynomial:
    """Gaussian binomial [a choose b]_q as a product of q-ratios.

    Degree is b(a-b); the coefficient of q^k counts partitions of k into at
    most b parts each at most a-b; they are palindromic, so the upper half
    mirrors the lower.  Returns the zero polynomial for b < 0 or b > a.
    """
    if a < 0:
        raise DomainError("q_binomial needs a >= 0")
    if b < 0 or b > a:
        return IntPolynomial()
    degree = b * (a - b)
    head = _gaussian_coefficients(a, b, degree // 2)
    return IntPolynomial(tuple(head + head[: (degree + 1) // 2][::-1]))


def restricted_partitions(n: int, m: int, k: int) -> int:
    """p(n, m, k): partitions of k into at most m parts, each part <= n.

    The q^k coefficient of the palindromic [n+m choose m]_q, read at
    min(k, nm - k) from a product truncated there: O(k) memory, O(min(n, m)
    * k) additions.  Returns 0 outside 0 <= k <= n*m; p(n, m, 0) = 1.
    """
    if n < 0 or m < 0:
        raise DomainError("restricted_partitions needs n >= 0 and m >= 0")
    if k < 0 or k > n * m:
        return 0
    k = min(k, n * m - k)
    return _gaussian_coefficients(n + m, m, k)[k]


def partitions_at_most(num_parts: int, k: int) -> int:
    """p_N(k): partitions of k into at most num_parts parts, any part size.

    The unrestricted-part-size limit of p(n, N, k); parts never exceed k,
    so p(max(k, 0), N, k) realizes it exactly.
    """
    if num_parts < 0:
        raise DomainError("partitions_at_most needs num_parts >= 0")
    return restricted_partitions(max(k, 0), num_parts, k)
