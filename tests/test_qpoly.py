"""q-polynomials, Gaussian binomials, restricted partitions, and phi."""

from __future__ import annotations

import math
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from conftest import binom, gaussian_at_q, value_at_q
from spincg import (
    DomainError,
    IntPolynomial,
    partitions_at_most,
    q_binomial,
    restricted_partitions,
)
from spincg.crosscheck import (
    _exact_div,
    phi,
    phi2_closed,
    q_analogue,
    q_binomial_by_division,
    q_binomial_convolution,
    q_factorial,
)
from spincg.oracles import oracle_sym
from spincg.qpoly import _gaussian_coefficients, _gaussian_packed, _packed_gaussian
from spincg.qpoly import _q_ratio_product


# ---------------------------------------------------------------- polynomials


def test_polynomial_normalization():
    assert IntPolynomial((1, 2, 0, 0)).coeffs == (1, 2)
    assert IntPolynomial((0, 0)).coeffs == ()
    assert not IntPolynomial()
    assert IntPolynomial().degree == -1


def test_polynomial_arithmetic():
    two = IntPolynomial((1, 1))  # 1 + q
    assert (two * two).coeffs == (1, 2, 1)
    assert two[0] == 1 and two[5] == 0
    zero = IntPolynomial()
    assert (two * zero) == zero
    # a zero coefficient on the left contributes no products
    assert IntPolynomial((1, 0, 1)) * two == IntPolynomial((1, 1, 1, 1))


def test_polynomial_exact_division():
    num = IntPolynomial((1, 1)) * IntPolynomial((1, 0, 1))
    assert _exact_div(num, IntPolynomial((1, 1))).coeffs == (1, 0, 1)
    with pytest.raises(ArithmeticError):
        _exact_div(IntPolynomial((1, 1, 1)), IntPolynomial((1, 1)))
    with pytest.raises(ArithmeticError):
        # a leading coefficient that does not divide: caught inside the loop
        _exact_div(IntPolynomial((1, 1)), IntPolynomial((0, 2)))
    with pytest.raises(ZeroDivisionError):
        _exact_div(IntPolynomial((1,)), IntPolynomial())


def test_polynomial_rendering():
    assert str(IntPolynomial()) == "0"
    assert str(IntPolynomial((1,))) == "1"
    assert str(IntPolynomial((1, 1, 2))) == "1 + q + 2 q^2"
    assert str(IntPolynomial((1, 0, -1))) == "1 - q^2"
    assert str(IntPolynomial((0, -3, 1))) == "-3 q + q^2"


def test_q_analogue():
    assert q_analogue(0).coeffs == ()
    assert q_analogue(1).coeffs == (1,)
    assert q_analogue(3).coeffs == (1, 1, 1)
    # annihilator: (1 - q) [n]_q = 1 - q^n
    n = 7
    prod = IntPolynomial((1, -1)) * q_analogue(n)
    assert prod.coeffs == (1,) + (0,) * (n - 1) + (-1,)
    with pytest.raises(DomainError):
        q_analogue(-1)


def test_q_factorial():
    assert q_factorial(0).coeffs == (1,)
    assert q_factorial(2).coeffs == (1, 1)
    assert q_factorial(3).coeffs == (1, 2, 2, 1)
    assert sum(q_factorial(5).coeffs) == math.factorial(5)
    with pytest.raises(DomainError):
        q_factorial(-1)


# ------------------------------------------------------------ Gaussian binomials


def subset_sum_gaussian(a: int, b: int) -> IntPolynomial:
    # local re-derivation, independent of the library oracle
    counts = [0] * (b * (a - b) + 1)
    base = b * (b + 1) // 2
    for subset in combinations(range(1, a + 1), b):
        counts[sum(subset) - base] += 1
    return IntPolynomial(tuple(counts))


def test_q_binomial_examples():
    assert q_binomial(4, 2).coeffs == (1, 1, 2, 1, 1)
    assert q_binomial(7, 0).coeffs == (1,)
    assert q_binomial(3, 5).coeffs == ()
    assert q_binomial(3, -1).coeffs == ()
    with pytest.raises(DomainError):
        q_binomial(-1, 0)


def test_q_binomial_routes_agree():
    for a in range(0, 11):
        for b in range(0, a + 1):
            reference = q_binomial(a, b)
            assert value_at_q(reference.coeffs) == gaussian_at_q(a, b), (a, b)
            assert q_binomial_by_division(a, b) == reference
            assert q_binomial_convolution(a, b) == reference
            assert subset_sum_gaussian(a, b) == reference
    # past a = 10, a few b per a against the factorial-division route; the
    # ends b = 0, 1, a - 1, a and two inner b give degrees b (a - b) of both
    # parities, since q_binomial mirrors the lower half of the coefficients
    parities = set()
    for a in range(11, 31):
        for b in {0, 1, a // 3, a // 2, a - 1, a}:
            parities.add(b * (a - b) % 2)
            poly = q_binomial(a, b)
            assert value_at_q(poly.coeffs) == gaussian_at_q(a, b), (a, b)
            assert poly == q_binomial_by_division(a, b), (a, b)
    assert parities == {0, 1}
    assert q_binomial_by_division(3, 4).coeffs == ()
    with pytest.raises(DomainError):
        q_binomial_by_division(-1, 0)


def test_q_binomial_convolution_edges():
    assert q_binomial_convolution(5, 5).coeffs == (1,)
    assert q_binomial_convolution(5, 0).coeffs == (1,)
    with pytest.raises(DomainError):
        q_binomial_convolution(3, 4)


@given(st.integers(min_value=0, max_value=14))
def test_q_binomial_row_structure(a):
    for b in range(a + 1):
        poly = q_binomial(a, b)
        coeffs = poly.coeffs
        assert poly.degree == b * (a - b)
        # symmetry in the lower index
        assert poly == q_binomial(a, a - b)
        # reciprocal (palindromic) coefficients
        assert coeffs == coeffs[::-1]
        # unimodal: rises then falls
        mid = len(coeffs) // 2
        rising = list(coeffs[: mid + 1])
        falling = list(coeffs[mid:])
        assert rising == sorted(rising)
        assert falling == sorted(falling, reverse=True)
        # value at q = 1
        assert sum(coeffs) == math.comb(a, b)


def test_q_to_one_binomial_sum_identities():
    # C(a, b) = sum_{n=0}^{b} C(a-b-1+n, n) = sum_{n=0}^{a-b} C(b-1+n, n)
    for a in range(0, 21):
        for b in range(0, a + 1):
            want = math.comb(a, b)
            assert sum(binom(a - b - 1 + n, n) for n in range(b + 1)) == want
            assert sum(binom(b - 1 + n, n) for n in range(a - b + 1)) == want
    assert binom(5, -1) == 0  # the convention these sums lean on


# ------------------------------------------------- packed Gaussian product


def list_gaussian(a: int, b: int, top: int) -> list[int]:
    # the list kernel on the same q-ratios, which the packed route replaces
    c = min(b, a - b)
    return _q_ratio_product([(a - c + i, i) for i in range(1, c + 1)], top)


def test_packed_gaussian_matches_list_kernel():
    # every b <= a <= 70 whose coefficients fit a word, at full degree, at
    # half span, at short spans, and on both sides of the route rule's
    # limits 4c^2 and c^4 (the latter in force for c = 3..6).  The packed
    # kernel is called directly, so it is checked where the rule would not
    # pick it too.  Truncation commutes with the product, so every top is
    # checked against a prefix of the full list, mirrored from the list
    # kernel's half span.
    packed = 0
    for a in range(71):
        for b in range(a + 1):
            c = min(b, a - b)
            if math.comb(a, c) >= 1 << 64:
                continue
            degree = b * (a - b)
            half = list_gaussian(a, b, degree // 2)
            full = half + half[: (degree + 1) // 2][::-1]  # palindromic
            assert sum(full) == math.comb(a, b)
            full.append(0)  # for top = 1 > degree = 0
            for top in {0, 1, degree // 2, degree}:
                assert _packed_gaussian(a - c, c, top) == full[: top + 1], (a, b, top)
            for top in {4 * c * c, 4 * c * c + 1, c**4, c**4 + 1}:
                if top <= degree:
                    assert _gaussian_coefficients(a, b, top) == full[: top + 1], (a, b, top)
                    assert _packed_gaussian(a - c, c, top) == full[: top + 1], (a, b, top)
                    packed += _gaussian_packed(a, c, top)
    assert packed > 500
    # c = 7 at c^4, where the rule keeps the list kernel: a = 693 is the
    # least a whose half span reaches 7^4 = 2401, and C(693, 7) fits a word
    a, c = 693, 7
    half = list_gaussian(a, c, c**4)
    full = half + half[: c**4][::-1]
    assert len(full) == c * (a - c) + 1 and sum(full) == math.comb(a, c)
    for top in (c**4, c**4 + 1):
        assert _gaussian_coefficients(a, c, top) == full[: top + 1], top
        assert _packed_gaussian(a - c, c, top) == full[: top + 1], top


def test_packed_gaussian_matches_factorial_division():
    for a in range(0, 19):
        for b in range(0, a + 1):
            c = min(b, a - b)
            want = q_binomial_by_division(a, b).coeffs
            assert tuple(_packed_gaussian(a - c, c, b * (a - b))) == want, (a, b)


def test_word_boundary():
    # C(67, 33) is the widest central binomial a 64-bit word holds, and
    # 6,074,001,000 the largest a whose C(a, 2) a word holds
    assert math.comb(67, 33) < 1 << 64 <= math.comb(68, 34)
    assert math.comb(6074001000, 2) < 1 << 64 <= math.comb(6074001001, 2) < 1 << 65
    for a, b in ((67, 33), (67, 34), (68, 34), (68, 33), (69, 34)):
        degree = b * (a - b)
        for top in (degree // 2, degree):
            got = _gaussian_coefficients(a, b, top)
            assert got == list_gaussian(a, b, top), (a, b, top)
            if top == degree:
                assert sum(got) == math.comb(a, b)
                assert got == list(q_binomial(a, b).coeffs)
    # within the rule's other limits (c <= 33, top <= 4c^2), but with middle
    # coefficients past a word: these must take the list kernel
    for a, b in ((100, 33), (80, 30)):
        top = b * (a - b) // 2
        got = _gaussian_coefficients(a, b, top)
        assert top <= 4 * b * b and max(got) >= 1 << 64
        assert not _gaussian_packed(a, b, top)
        assert got == list_gaussian(a, b, top)


@pytest.mark.parametrize("a, c, top, packed", [
    (100, 6, 1296, True), (100, 6, 1297, False),  # top <= c^4 for c = 6
    (693, 7, 196, True), (693, 7, 197, False), (693, 7, 2401, False),  # 4 c^2 for c = 7
    (6074001000, 2, 16, True), (6074001001, 2, 16, False),  # C(a, 2) < 2^64
])
def test_gaussian_route_rule_at_its_boundary(a, c, top, packed):
    assert _gaussian_packed(a, c, top) is packed


def test_restricted_partitions_match_oracle_at_the_route_rule():
    # c = min(n, m); every k is below nm / 2, where it is read as it is, and
    # nm - k folds back to k
    def check(n, m, ks):
        table = oracle_sym(n, m)
        for k in ks:
            assert restricted_partitions(n, m, k) == table.omega(k)
            assert restricted_partitions(n, m, n * m - k) == restricted_partitions(n, m, k)

    # k around the largest top the rule packs, past which the list kernel runs
    for n, m in ((2, 40), (3, 60), (60, 3)):
        c = min(n, m)
        limit = max(k for k in range(n * m // 2 + 1) if _gaussian_packed(n + m, c, k))
        assert limit + 2 < n * m / 2 and not _gaussian_packed(n + m, c, limit + 1)
        check(n, m, range(limit - 1, limit + 3))
    # k around 4c^2 for c = 3, 4, each of which packs
    for n, m, middle in ((3, 40, 36), (40, 3, 36), (4, 40, 64)):
        ks = range(middle - 1, middle + 3)
        assert all(_gaussian_packed(n + m, min(n, m), k) for k in ks)
        check(n, m, ks)


# ------------------------------------------------------- restricted partitions


def brute_partitions(n: int, m: int, k: int) -> int:
    # restricted_partitions' reference past oracle_sym's budget: a walk over
    # nonincreasing parts, largest first
    def walk(remaining, cap, slots):
        if remaining == 0:
            return 1
        if slots == 0 or cap == 0:
            return 0
        return sum(walk(remaining - v, v, slots - 1) for v in range(min(cap, remaining), 0, -1))

    return walk(k, n, m) if k >= 0 else 0


def test_restricted_partitions_examples():
    assert restricted_partitions(3, 4, 5) == 4
    assert restricted_partitions(2, 2, 4) == 1
    assert restricted_partitions(2, 2, 5) == 0
    assert restricted_partitions(5, 5, -1) == 0
    assert restricted_partitions(0, 4, 0) == 1
    assert restricted_partitions(4, 0, 0) == 1
    assert restricted_partitions(4, 0, 1) == 0
    # only the factors i <= k of the million q-ratios reach q^k
    assert restricted_partitions(10**6, 10**6, 5) == 7
    with pytest.raises(DomainError):
        restricted_partitions(-1, 2, 1)
    with pytest.raises(DomainError):
        restricted_partitions(2, -1, 1)
    # the domain is checked before k < 0 returns 0
    with pytest.raises(DomainError):
        restricted_partitions(2, -1, -1)


def test_restricted_partitions_match_enumeration():
    for n in range(0, 7):
        for m in range(0, 7):
            table = oracle_sym(n, m)
            for k in range(0, n * m + 2):
                assert restricted_partitions(n, m, k) == brute_partitions(n, m, k)
                assert restricted_partitions(n, m, k) == table.omega(k)


def test_restricted_partitions_match_oracle_on_wide_spans():
    # min(n, m) >= 10, so every value comes from a product of ten or more
    # q-ratios truncated at min(k, nm - k); k runs on both sides of nm / 2.
    # The (10, 10) box holds C(20, 10) = 184,756 states, within oracle_sym's
    # budget; the others hold 1.1 M, 13.0 M and 2.8 * 10^19, past it.
    # (34, 34) takes the list kernel with k <= c, where its product stops
    # at the k-th factor
    table = oracle_sym(10, 10)
    for k in (1, 10, 11, 37, 50, 63, 92, 100):
        assert restricted_partitions(10, 10, k) == table.omega(k)
    assert not _gaussian_packed(68, 34, 34)
    for (n, m), ks in {(10, 13): (12, 29, 41), (16, 11): (15, 33), (34, 34): (5, 34)}.items():
        for k in ks:
            assert restricted_partitions(n, m, k) == brute_partitions(n, m, k)


def test_restricted_partitions_are_gaussian_coefficients():
    for a in range(0, 11):
        for b in range(0, a + 1):
            poly = q_binomial(a, b)
            for k in range(0, b * (a - b) + 2):
                assert poly[k] == restricted_partitions(a - b, b, k)


def test_partition_recurrences_exhaustive():
    # all four recurrences for n, m <= 8; the fourth (split by largest part)
    # only holds for k >= 1, since p(n, m, 0) = 1 but its sum is empty
    p = restricted_partitions
    for n in range(1, 9):
        for m in range(1, 9):
            for k in range(0, n * m + 2):
                assert p(n, m, k) == p(m, n, k)
                assert p(n, m, k) == p(n, m - 1, k) + p(n - 1, m, k - m)
                assert p(n, m, k) == p(n, m - 1, k - n) + p(n - 1, m, k)
                if k >= 1:
                    split = sum(
                        p(m1, m - 1, k - m1)
                        for m1 in range(1, n + 1)
                        if m1 <= k <= m * m1
                    )
                    assert p(n, m, k) == split


def test_partitions_at_most():
    assert partitions_at_most(3, 5) == 5  # 5, 41, 32, 311, 221
    assert partitions_at_most(1, 9) == 1
    assert partitions_at_most(4, 0) == 1
    assert partitions_at_most(4, -2) == 0
    assert partitions_at_most(0, 0) == 1
    assert partitions_at_most(0, 3) == 0
    with pytest.raises(DomainError, match="^partitions_at_most needs"):
        partitions_at_most(-1, 3)
    # saturation: more slots than the number being partitioned changes nothing
    for k in range(0, 12):
        assert partitions_at_most(k + 3, k) == partitions_at_most(k, k)


def test_deep_partition_tables_do_not_overflow():
    # spans far past the interpreter's recursion limit, where a recursive
    # evaluator would overflow the stack
    assert restricted_partitions(3000, 1, 2500) == 1
    assert partitions_at_most(2, 4000) == 2001


# ----------------------------------------------------------------------- phi


def brute_exact_parts(bound: int, nu: int, k: int) -> int:
    # partitions of k into exactly nu parts, each part <= bound: those into
    # at most nu parts less those into at most nu - 1
    return brute_partitions(bound, nu, k) - (brute_partitions(bound, nu - 1, k) if nu else 0)


def test_phi_examples():
    assert phi(7, 4, 3, 5) == 2  # (3,1,1) and (2,2,1)
    assert phi(9, 4, 2, 6) == 3  # (5,1), (4,2), (3,3)
    assert phi(5, 3, 0, 0) == 1
    assert phi(5, 3, 0, 3) == 0
    assert phi(5, 3, 1, 2) == 1
    assert phi(5, 3, 1, 0) == 0
    assert phi(5, 3, 1, 3) == 0  # part bound a - b = 2
    with pytest.raises(DomainError):
        phi(3, 4, 1, 1)
    with pytest.raises(DomainError):
        phi(4, 3, -1, 1)


def test_phi_counts_exact_part_partitions():
    for bound in range(0, 7):
        for nu in range(0, 5):
            for k in range(0, 20):
                assert phi(bound + 2, 2, nu, k) == brute_exact_parts(bound, nu, k)


def test_phi_depends_only_on_the_difference():
    for diff in range(0, 6):
        for nu in range(0, 5):
            for k in range(0, 14):
                reference = phi(diff + 1, 1, nu, k)
                for b in range(2, 6):
                    assert phi(diff + b, b, nu, k) == reference


def test_phi2_closed_form():
    for a in range(0, 10):
        for b in range(0, a + 1):
            for k in range(0, 25):
                assert phi2_closed(a, b, k) == phi(a, b, 2, k)
    assert phi2_closed(9, 4, 6) == 3  # bound 5: (5,1), (4,2), (3,3)
    with pytest.raises(DomainError):
        phi2_closed(1, 2, 0)


def _sum_phi(a: int, b: int, k: int) -> int:
    # splitting the partitions p(a - b, b, k) counts by their exact number of parts
    return sum(phi(a, b, nu, k) for nu in range(b + 1))


def test_sum_phi_equals_p():
    for a in range(0, 13):
        for b in range(0, a + 1):
            for k in range(0, b * (a - b) + 2):
                assert _sum_phi(a, b, k) == restricted_partitions(a - b, b, k)


@settings(max_examples=60)
@given(
    st.integers(min_value=0, max_value=12),
    st.integers(min_value=0, max_value=12),
    st.integers(min_value=0, max_value=40),
)
def test_sum_phi_equals_p_random(a_extra, b, k):
    assert _sum_phi(b + a_extra, b, k) == restricted_partitions(a_extra, b, k)
