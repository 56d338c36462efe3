"""Integer q-polynomials, Gaussian binomials, and restricted partitions.

* IntPolynomial, a dense polynomial in q with int coefficients; the
  q-analogue [n]_q = 1 + q + ... + q^(n-1) of a spin dimension is the
  building block of every generating function here.
* Gaussian binomials [a choose b]_q, the generating functions of symmetric
  and antisymmetric spin compositions.  Their coefficients are the
  restricted partition counts p(n, m, k): partitions of k into at most m
  parts, each part at most n.

The Gaussian binomials and the partition counts come from one routine,
_q_ratio_product: a product of q-ratios (1 - q^u) / (1 - q^v) truncated at
the highest coefficient asked for.  The Omega product prod [2j+1]_q uses it
when the spins are spread over many species; otherwise decompose builds it
by a recurrence whose cost is set by the number of species.  The other
routes (IntPolynomial products, factorial division, nested sums) are
cross-checks.

No floats anywhere; coefficients and counts are Python ints.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from operator import sub

from .errors import DomainError
from .util import heaviside

__all__ = [
    "IntPolynomial",
    "q_analogue",
    "q_factorial",
    "q_binomial",
    "q_binomial_by_division",
    "q_binomial_convolution",
    "restricted_partitions",
    "partitions_at_most",
    "phi",
    "phi2_closed",
    "sum_phi_equals_p",
]


@dataclass(frozen=True)
class IntPolynomial:
    """Dense polynomial in q over the integers.

    coeffs[k] is the coefficient of q^k; trailing zeros are stripped on
    construction so equal polynomials compare equal.  The zero polynomial
    has an empty coefficient tuple and degree -1.
    """

    coeffs: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        coeffs = self.coeffs
        if coeffs and coeffs[-1] == 0:
            end = len(coeffs)
            while end > 0 and coeffs[end - 1] == 0:
                end -= 1
            object.__setattr__(self, "coeffs", coeffs[:end])

    @classmethod
    def zero(cls) -> "IntPolynomial":
        return cls(())

    @classmethod
    def one(cls) -> "IntPolynomial":
        return cls((1,))

    @classmethod
    def monomial(cls, power: int, coeff: int = 1) -> "IntPolynomial":
        if power < 0:
            raise ValueError("monomial power must be >= 0")
        return cls((0,) * power + (coeff,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __getitem__(self, k: int) -> int:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return 0

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPolynomial(tuple(out))

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return self + (-other)

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        # Schoolbook convolution; polynomial sizes here are set by 2*J_0,
        # which stays at desk scale.
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPolynomial()
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca == 0:
                continue
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        return IntPolynomial(tuple(out))

    def __pow__(self, exponent: int) -> "IntPolynomial":
        if exponent < 0:
            raise ValueError("polynomial powers must be >= 0")
        result = IntPolynomial.one()
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def shift(self, power: int) -> "IntPolynomial":
        """Multiply by q^power."""
        if power < 0:
            raise ValueError("shift must be >= 0")
        if not self.coeffs:
            return self
        return IntPolynomial((0,) * power + self.coeffs)

    def exact_div(self, divisor: "IntPolynomial") -> "IntPolynomial":
        """Exact polynomial division; raises ArithmeticError on remainder."""
        if not divisor:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        lead = divisor.coeffs[-1]
        dlen = len(divisor.coeffs)
        qlen = len(rem) - dlen + 1
        if qlen <= 0:
            if any(rem):
                raise ArithmeticError("polynomial division leaves a remainder")
            return IntPolynomial()
        quot = [0] * qlen
        for i in range(qlen - 1, -1, -1):
            c = rem[i + dlen - 1]
            if c % lead != 0:
                raise ArithmeticError("polynomial division leaves a remainder")
            quot[i] = c // lead
            if quot[i]:
                for k, d in enumerate(divisor.coeffs):
                    rem[i + k] -= quot[i] * d
        if any(rem):
            raise ArithmeticError("polynomial division leaves a remainder")
        return IntPolynomial(tuple(quot))

    def eval_one(self) -> int:
        """Value at q = 1, i.e. the coefficient sum."""
        return sum(self.coeffs)

    def coefficient_strings(self) -> list[str]:
        """Coefficients as decimal strings, for JSON output."""
        return [str(c) for c in self.coeffs]

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        pieces: list[str] = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = abs(c)
            if k == 0:
                body = str(mag)
            elif k == 1:
                body = "q" if mag == 1 else f"{mag} q"
            else:
                body = f"q^{k}" if mag == 1 else f"{mag} q^{k}"
            if not pieces:
                pieces.append(body if c > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(pieces)


def q_analogue(n: int) -> IntPolynomial:
    """[n]_q = 1 + q + ... + q^(n-1); the q-analogue of the integer n >= 0."""
    if n < 0:
        raise DomainError("q_analogue needs n >= 0")
    return IntPolynomial((1,) * n)


def q_factorial(n: int) -> IntPolynomial:
    """[n]_q! = [1]_q [2]_q ... [n]_q, with [0]_q! = 1."""
    if n < 0:
        raise DomainError("q_factorial needs n >= 0")
    result = IntPolynomial.one()
    for i in range(2, n + 1):
        result = result * q_analogue(i)
    return result


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


def _gaussian_coefficients(a: int, b: int, top: int) -> list[int]:
    """Coefficients 0..top of [a choose b]_q, for 0 <= b <= a.

    prod_{i=1..c} (1 - q^(a-c+i)) / (1 - q^i) with c = min(b, a - b); the
    partial products are the Gaussian binomials [a-c+i choose i]_q.
    """
    c = min(b, a - b)
    return _q_ratio_product([(a - c + i, i) for i in range(1, c + 1)], top)


def q_binomial(a: int, b: int) -> IntPolynomial:
    """Gaussian binomial [a choose b]_q as a product of q-ratios.

    Degree is b(a-b); the coefficient of q^k counts partitions of k into at
    most b parts each at most a-b.  Returns the zero polynomial for b < 0
    or b > a.
    """
    if a < 0:
        raise DomainError("q_binomial needs a >= 0")
    if b < 0 or b > a:
        return IntPolynomial.zero()
    return IntPolynomial(tuple(_gaussian_coefficients(a, b, b * (a - b))))


def q_binomial_by_division(a: int, b: int) -> IntPolynomial:
    """Gaussian binomial as [a]_q! / ([b]_q! [a-b]_q!).

    Kept as an independent route for cross-checks; the division is exact,
    and a nonzero remainder raises ArithmeticError since it would signal an
    arithmetic bug, not a domain problem.
    """
    if a < 0:
        raise DomainError("q_binomial_by_division needs a >= 0")
    if b < 0 or b > a:
        return IntPolynomial.zero()
    return q_factorial(a).exact_div(q_factorial(b) * q_factorial(a - b))


def q_binomial_convolution(a: int, b: int) -> IntPolynomial:
    """Gaussian binomial by the nested convolution sums.

    Expands [a choose b]_q as 1 + sum over m1 + sum over m1 >= m2 + ...,
    b levels deep with m1 <= a - b.  Equals 1 when a == b (every sum is
    empty).  Slower than q_binomial; used as a cross-check.
    """
    if b < 0 or a < b:
        raise DomainError("q_binomial_convolution needs a >= b >= 0")

    @lru_cache(maxsize=None)
    def tail(depth: int, cap: int) -> IntPolynomial:
        # 1 + sum_{m=1..cap} q^m * tail(depth-1, m); the nested-sum
        # expansion of a Gaussian binomial, one summation sign per level.
        if depth == 0:
            return IntPolynomial.one()
        total = IntPolynomial.one()
        for m in range(1, cap + 1):
            total = total + tail(depth - 1, m).shift(m)
        return total

    return tail(b, a - b)


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


def phi(a: int, b: int, nu: int, k: int) -> int:
    """phi^{a,b}_{nu,k}: partitions of k into exactly nu parts, each <= a-b.

    Evaluated by the nested sums over nonincreasing m_1 >= ... >= m_{nu-1}
    gated by two step factors, not by a partition recurrence, so it stays an
    independent cross-check of restricted_partitions.  phi_0 is the
    Kronecker delta at k == 0 and phi_1 = H(a-b-k) H(k-1).  The value
    depends on a and b only through the difference a - b.
    """
    if b < 0 or a < b:
        raise DomainError("phi needs a >= b >= 0")
    if nu < 0:
        raise DomainError("phi needs nu >= 0")
    if nu == 0:
        return 1 if k == 0 else 0

    @lru_cache(maxsize=None)
    def level(depth: int, cap: int, quota: int) -> int:
        # The nested Heaviside sums, one level per summation variable.  cap
        # is the bound on the next variable (previous variable, or a-b at
        # the top); quota is k minus everything chosen so far.  At the
        # innermost level the two step factors read H(m_last - quota) *
        # H(quota - 1), with m_last equal to the cap that was passed down.
        if depth == 0:
            return heaviside(cap - quota) * heaviside(quota - 1)
        total = 0
        for m in range(1, cap + 1):
            if quota - m < depth:
                # every remaining variable is >= 1 and the final step
                # factor needs a positive leftover; larger m cannot add
                break
            total += level(depth - 1, m, quota - m)
        return total

    return level(nu - 1, a - b, k)


def phi2_closed(a: int, b: int, k: int) -> int:
    """Closed form of phi^{a,b}_{2,k} (partitions of k into exactly 2 parts).

    Three branches by where k sits relative to the part bound a-b; floor
    division handles k = 0 via (k-1)//2 == -1.
    """
    if b < 0 or a < b:
        raise DomainError("phi2_closed needs a >= b >= 0")
    half = (k - 1) // 2
    bound = a - b
    if k <= bound:
        return (k - 1) - half
    if half < bound < k:
        return bound - half
    return 0


def sum_phi_equals_p(a: int, b: int, k: int) -> bool:
    """Whether sum over nu = 0..b of phi^{a,b}_{nu,k} equals p(a-b, b, k).

    Splitting the partitions counted by p(a-b, b, k) by their exact number
    of parts gives the phi family; this checks the two computations agree.
    """
    total = sum(phi(a, b, nu, k) for nu in range(b + 1))
    return total == restricted_partitions(a - b, b, k)
