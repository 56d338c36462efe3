"""The paper's other routes to each quantity, kept as independent cross-checks.

Production computes each quantity by one route, in qpoly, decompose and
identical, where cgd's binomial and composition cross-checks also live.
The tests hold every route here to its production counterpart; no production
module imports this one, and of them it imports only errors and IntPolynomial.

* q_analogue, [n]_q as a polynomial; q_factorial and q_binomial_by_division
  ([a]_q! / ([b]_q! [a-b]_q!), exact division), q_binomial_convolution
  (nested sums): check qpoly.q_binomial.
* phi and phi2_closed: counts of partitions into exactly nu parts, by
  nested step sums and a two-part closed form; their sum over nu checks
  qpoly.restricted_partitions.
* omega_univariate and lambda_univariate: {j^N} by the single alternating
  sum, checking decompose's tables; omega_zero_range and lambda_zero_range,
  their spin-infinity limits, check them wherever 2j >= n.
* omega_univariate_hypergeometric and lambda_univariate_hypergeometric: the
  univariate sums as terminating hypergeometric series, which they check.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb

from .errors import DomainError
from .hypergeom import eval_terminating_pfq, termination_index
from .qpoly import IntPolynomial

__all__ = [
    "q_analogue",
    "q_factorial",
    "q_binomial_by_division",
    "q_binomial_convolution",
    "phi",
    "phi2_closed",
    "omega_univariate",
    "lambda_univariate",
    "omega_zero_range",
    "lambda_zero_range",
    "omega_univariate_hypergeometric",
    "lambda_univariate_hypergeometric",
]


def q_analogue(n: int) -> IntPolynomial:
    """[n]_q = 1 + q + ... + q^(n-1); the q-analogue of the integer n >= 0."""
    if n < 0:
        raise DomainError("q_analogue needs n >= 0")
    return IntPolynomial((1,) * n)


def q_factorial(n: int) -> IntPolynomial:
    """[n]_q! = [1]_q [2]_q ... [n]_q, with [0]_q! = 1."""
    if n < 0:
        raise DomainError("q_factorial needs n >= 0")
    result = IntPolynomial((1,))
    for i in range(2, n + 1):
        result = result * q_analogue(i)
    return result


def q_binomial_by_division(a: int, b: int) -> IntPolynomial:
    """Gaussian binomial as [a]_q! / ([b]_q! [a-b]_q!).

    Kept as an independent route for cross-checks; the division is exact,
    and a nonzero remainder raises ArithmeticError since it would signal an
    arithmetic bug, not a domain problem.
    """
    if a < 0:
        raise DomainError("q_binomial_by_division needs a >= 0")
    if b < 0 or b > a:
        return IntPolynomial()
    return _exact_div(q_factorial(a), q_factorial(b) * q_factorial(a - b))


def _exact_div(num: IntPolynomial, divisor: IntPolynomial) -> IntPolynomial:
    """Exact polynomial division; raises ArithmeticError on remainder."""
    if not divisor:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(num.coeffs)
    lead = divisor.coeffs[-1]
    dlen = len(divisor.coeffs)
    quot = [0] * (len(rem) - dlen + 1)
    for i in reversed(range(len(quot))):
        quot[i] = rem[i + dlen - 1] // lead
        if quot[i]:
            for k, d in enumerate(divisor.coeffs):
                rem[i + k] -= quot[i] * d
    if any(rem):
        raise ArithmeticError("polynomial division leaves a remainder")
    return IntPolynomial(tuple(quot))


def q_binomial_convolution(a: int, b: int) -> IntPolynomial:
    """Gaussian binomial by the nested convolution sums.

    Expands [a choose b]_q as 1 + sum over m1 + sum over m1 >= m2 + ...,
    b levels deep with m1 <= a - b.  Equals 1 when a == b (every sum is
    empty).  Slower than q_binomial; used as a cross-check.
    """
    if b < 0 or a < b:
        raise DomainError("q_binomial_convolution needs a >= b >= 0")

    @lru_cache(maxsize=None)
    def tail(depth: int, cap: int) -> tuple[int, ...]:
        # Coefficients of 1 + sum_{m=1..cap} q^m * tail(depth-1, m); the
        # nested-sum expansion of a Gaussian binomial, one summation sign
        # per level.
        if depth == 0:
            return (1,)
        total = [1]
        for m in range(1, cap + 1):
            term = tail(depth - 1, m)
            total += [0] * (m + len(term) - len(total))
            for k, c in enumerate(term, m):
                total[k] += c
        return tuple(total)

    return IntPolynomial(tail(b, a - b))


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
        # innermost level the two step factors H(m_last - quota) * H(quota -
        # 1), m_last being the cap passed down, read 1 <= quota <= cap.
        if depth == 0:
            return int(1 <= quota <= cap)
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


def _check_univariate(name: str, twice_j: int, num: int, least: int, kappa: int = 0) -> None:
    # least is 1 for Omega_n, 2 for lambda_kappa (a pair of spins to couple);
    # kappa runs 0 .. m = floor(N 2j / 2), as 2J_m is the parity bit of N 2j
    if twice_j < 1 or num < least:
        raise DomainError(f"{name} needs twice_j >= 1 and num >= {least}")
    if not 0 <= kappa <= twice_j * num // 2:
        raise DomainError("kappa must lie between 0 and (2J_0 - 2J_m)/2")


def _univariate_sum(twice_j: int, num: int, n: int, top: int) -> int:
    # sum_s (-1)^s C(top + n - (2j+1) s, top) C(N, s) over s <= min(N, n // (2j+1));
    # top is N - 1 for Omega_n, N - 2 for lambda_kappa, and n < 0 leaves it empty
    step = twice_j + 1
    return sum((-1) ** s * comb(top + n - step * s, top) * comb(num, s)
               for s in range(min(num, n // step) + 1))


def omega_univariate(twice_j: int, num: int, n: int) -> int:
    """Omega_n for N copies of one spin j, by the single alternating sum.

    sum_{s=0}^{floor(n / (2j+1))} (-1)^s C(N + n - 1 - (2j+1) s, N - 1)
    C(N, s).  Returns 0 outside the table.
    """
    _check_univariate("omega_univariate", twice_j, num, 1)
    return _univariate_sum(twice_j, num, n, num - 1)


def lambda_univariate(twice_j: int, num: int, kappa: int) -> int:
    """lambda_kappa for N copies of one spin j, by the single alternating sum.

    Kernel C(N + kappa - 2 - (2j+1) s, N - 2); needs N >= 2 and kappa in
    0 .. m, like lambda_binomial.
    """
    _check_univariate("lambda_univariate", twice_j, num, 2, kappa)
    return _univariate_sum(twice_j, num, kappa, num - 2)


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
    return comb(num + n - 1, n)


def lambda_zero_range(num: int, kappa: int) -> int:
    """Spin-infinity limit of lambda_kappa for N spins: C(N + kappa - 2, kappa).

    Needs N >= 2 for the same reason as lambda_univariate.  Matches
    lambda_univariate whenever 2j >= kappa.
    """
    if num < 2:
        raise DomainError("lambda_zero_range needs num >= 2")
    if kappa < 0:
        return 0
    return comb(num + kappa - 2, kappa)


def _univariate_hypergeometric(twice_j: int, num: int, n: int, top: int) -> Fraction:
    # The series of omega_univariate_hypergeometric with n and pair offset
    # top: N - 1 for Omega_n, N - 2 for lambda_kappa, as in the binomial forms.
    # Upper i, -(n - i)/(2j+1), equals lower i + top, so the pairs with
    # i < 2j + 1 - top cancel term by term, except the one whose upper is
    # -K, K the termination index: when no other upper carries K, dropping
    # -K would lengthen the sum and change its value, so that pair stays
    # (its ratio is 1 on every surviving term).  -N is always an upper, so
    # K exists.
    modulus = twice_j + 1
    cut = max(modulus - top, 0)
    family = [Fraction(i - n, modulus) for i in range(modulus)]
    stop = -termination_index([-num, *family])
    kept = [stop] if stop in family[:cut] else []
    lowers = [Fraction(i - top - n, modulus) for i in range(min(top, modulus))]
    return comb(top + n, n) * eval_terminating_pfq(
        [-num, *family[cut:], *kept], lowers + kept
    )


def omega_univariate_hypergeometric(twice_j: int, num: int, n: int) -> Fraction:
    """omega_univariate as a terminating hypergeometric series at unit argument.

    C(N + n - 1, n) * pFq with uppers {-N} + {-(n - i)/(2j+1)} and lowers
    {-(N + n - 1 - i)/(2j+1)} for i = 0 .. 2j, after cancelling the
    coincident upper/lower pairs offset by N - 1.  A cross-check route; the
    value is the same integer omega_univariate returns, as a Fraction.
    """
    _check_univariate("omega_univariate_hypergeometric", twice_j, num, 1)
    if n < 0:
        return Fraction(0)
    return _univariate_hypergeometric(twice_j, num, n, num - 1)


def lambda_univariate_hypergeometric(twice_j: int, num: int, kappa: int) -> Fraction:
    """lambda_univariate as a terminating hypergeometric series at unit argument.

    Same construction with kappa in place of n, prefactor C(N + kappa - 2,
    kappa), lower family {-(N + kappa - 2 - i)/(2j+1)}, and pair offset
    N - 2.
    """
    _check_univariate("lambda_univariate_hypergeometric", twice_j, num, 2, kappa)
    return _univariate_hypergeometric(twice_j, num, kappa, num - 2)
