"""Terminating hypergeometric series and their decomposition wrappers."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from spincg import DomainError, catalan, riordan
from spincg.crosscheck import (
    lambda_univariate,
    lambda_univariate_hypergeometric,
    omega_univariate,
    omega_univariate_hypergeometric,
)
from spincg.hypergeom import eval_terminating_pfq, termination_index
from spincg.util import binom


def test_termination_index():
    assert termination_index([-3, Fraction(-1, 2), 5]) == 3
    assert termination_index([0, -7]) == 0
    assert termination_index([Fraction(-1, 2), 2]) is None
    # ints and Fractions mix, an integral Fraction counts, and a one-shot
    # iterator is read once
    assert termination_index([Fraction(-4), -6, Fraction(-9, 2), Fraction(0, 5)]) == 0
    assert termination_index(iter([Fraction(-5, 1), 3, -7, Fraction(-3, 2)])) == 5
    assert termination_index(u for u in (Fraction(7, 2), -2)) == 2


def test_nonterminating_series_rejected():
    with pytest.raises(DomainError):
        eval_terminating_pfq([Fraction(-1, 2)], [Fraction(1, 3)])


def test_simple_sums():
    # 1F0(-n; ; 1) = sum_k (-1)^k C(n, k) = 0 for n >= 1
    for n in range(1, 6):
        assert eval_terminating_pfq([-n], []) == 0
    # an upper parameter 0 stops the series at its first term
    assert eval_terminating_pfq([0, Fraction(7, 3)], [Fraction(1, 5)]) == 1
    # Chu-Vandermonde: 2F1(-n, b; c; 1) = (c - b)_n / (c)_n
    def pochhammer(x, n):
        out = Fraction(1)
        for i in range(n):
            out *= x + i
        return out

    for n in range(0, 5):
        b, c = Fraction(1, 2), Fraction(7, 3)
        left = eval_terminating_pfq([-n, b], [c])
        assert left == pochhammer(c - b, n) / pochhammer(c, n)


def test_equal_parameter_pair_is_inert():
    # a coincident upper/lower pair contributes ratio 1 to every term
    base = eval_terminating_pfq([-3, Fraction(1, 2)], [Fraction(5, 3)])
    padded = eval_terminating_pfq(
        [-3, Fraction(1, 2), Fraction(7, 4)], [Fraction(5, 3), Fraction(7, 4)]
    )
    assert base == padded
    # parameters may come as one-shot iterators
    assert eval_terminating_pfq(iter([-3, Fraction(1, 2)]), (b for b in [Fraction(5, 3)])) == base


def test_lower_parameter_zero_is_reported():
    with pytest.raises(ZeroDivisionError):
        eval_terminating_pfq([-3], [-1])


def _pfq_by_terms(uppers, lowers):
    # term-by-term Fraction reference: ("value", sum), or ("pole", term) for
    # the first term whose ratio divides by a zero lower factor
    total = term = Fraction(1)
    for k in range(termination_index(uppers)):
        for a in uppers:
            term *= a + k
        for b in lowers:
            if b + k == 0:
                return "pole", k + 1
            term /= b + k
        term /= k + 1
        total += term
    return "value", total


def test_pfq_matches_term_by_term_fractions():
    # the integer common-denominator sum against plain Fractions, on seeded
    # rational parameters; a lower parameter that reaches zero before the
    # series ends raises ZeroDivisionError naming the same term
    rng = random.Random(20261018)

    def rational():
        return Fraction(rng.randint(-40, 40), rng.choice([1, 1, 2, 3, 5, 7, 12]))

    seen = {"value": 0, "pole": 0}
    for trial in range(600):
        size = 12 if trial % 50 == 0 else rng.randint(0, 5)
        uppers = [rational() for _ in range(size)]
        uppers.insert(rng.randint(0, size), -rng.randint(0, 60 if size == 12 else 25))
        lowers = [rational() for _ in range(size)]
        if rng.random() < 0.3:
            lowers.insert(rng.randint(0, size), -rng.randint(0, 25))
        kind, want = _pfq_by_terms(uppers, lowers)
        seen[kind] += 1
        if kind == "value":
            assert eval_terminating_pfq(uppers, lowers) == want, (uppers, lowers)
        else:
            with pytest.raises(ZeroDivisionError, match=f"reaches zero at term {want} before"):
                eval_terminating_pfq(uppers, lowers)
    assert min(seen.values()) >= 50, seen


def test_fully_cancelled_form_would_be_wrong():
    # cancelling the integer pair (-1, -1) out of the omega series for
    # 2j=2, N=2, n=4 changes the terminating parameter and the value
    naive = eval_terminating_pfq(
        [-2, Fraction(-2, 3)], [Fraction(-5, 3)]
    )
    assert naive == 0  # terminates at K = 2 and telescopes to zero
    kept = eval_terminating_pfq(
        [-2, -1, Fraction(-2, 3)], [Fraction(-5, 3), -1]
    )
    assert kept == Fraction(1, 5)
    assert binom(5, 4) * kept == omega_univariate(2, 2, 4) == 1


def test_omega_univariate_hypergeometric_matches():
    for twice_j in range(1, 5):
        for num in range(1, 6):
            for n in range(0, twice_j * num + 1):
                expected = omega_univariate(twice_j, num, n)
                value = omega_univariate_hypergeometric(twice_j, num, n)
                assert value == expected, (twice_j, num, n)
    assert omega_univariate_hypergeometric(1, 2, -1) == 0
    # the cancellable pair (-1, -1) carries K = 1 alone, so it stays (see
    # test_fully_cancelled_form_would_be_wrong); past the table at n = 2, K
    # is carried by -N too, and the kept pair is inert
    assert omega_univariate_hypergeometric(2, 2, 4) == 1
    assert omega_univariate_hypergeometric(1, 1, 2) == 0 == omega_univariate(1, 1, 2)


def test_lambda_univariate_hypergeometric_matches():
    for twice_j in range(1, 5):
        for num in range(2, 6):
            # for N >= 2 identical spins, 2J_m is the parity bit of 2jN,
            # so the multiplicity ladder has floor(2jN / 2) steps
            steps = (twice_j * num) // 2
            for kappa in range(0, steps + 1):
                expected = lambda_univariate(twice_j, num, kappa)
                value = lambda_univariate_hypergeometric(twice_j, num, kappa)
                assert value == expected, (twice_j, num, kappa)
    # cancellable pairs that carry K alone and stay: (-1, -1) with K = 1,
    # and (-2, -2) with K = 2
    for twice_j, num, kappa, want in ((2, 3, 3, 1), (4, 5, 10, 16)):
        assert lambda_univariate_hypergeometric(twice_j, num, kappa) == want
        assert lambda_univariate(twice_j, num, kappa) == want


def test_univariate_domain_checks():
    # one message for the four univariate routes; lambda needs a pair of spins
    for name, route, least in (
        ("omega_univariate", omega_univariate, 1),
        ("lambda_univariate", lambda_univariate, 2),
        ("omega_univariate_hypergeometric", omega_univariate_hypergeometric, 1),
        ("lambda_univariate_hypergeometric", lambda_univariate_hypergeometric, 2),
    ):
        message = f"^{name} needs twice_j >= 1 and num >= {least}$"
        for twice_j, num in ((0, 3), (-1, 3), (2, least - 1)):
            with pytest.raises(DomainError, match=message):
                route(twice_j, num, 0)
        assert route(2, least, 0) == 1
    # the kappa bound is m = floor(N 2j / 2) steps, with both parities of N 2j
    for twice_j, num in ((1, 3), (2, 3), (3, 2)):
        steps = twice_j * num // 2
        assert lambda_univariate_hypergeometric(twice_j, num, steps) == \
            lambda_univariate(twice_j, num, steps)
        for kappa in (-1, steps + 1):
            with pytest.raises(DomainError, match="kappa must lie"):
                lambda_univariate_hypergeometric(twice_j, num, kappa)
            with pytest.raises(DomainError, match="kappa must lie"):
                lambda_univariate(twice_j, num, kappa)


def test_catalan_identity():
    # C_v = C(3v-2, v) 3F2(-2v, -v/2, -(v-1)/2; -(3v-2)/2, -(3v-3)/2; 1)
    for v in range(0, 9):
        uppers = [-2 * v, Fraction(-v, 2), Fraction(-(v - 1), 2)]
        lowers = [Fraction(-(3 * v - 2), 2), Fraction(-(3 * v - 3), 2)]
        value = binom(3 * v - 2, v) * eval_terminating_pfq(uppers, lowers)
        assert value == catalan(v), v


def test_riordan_identity():
    # R_v = C(2v-2, v) 4F3(-v, -v/3, -(v-1)/3, -(v-2)/3;
    #                      -(2v-2)/3, -(2v-3)/3, -(2v-4)/3; 1)
    for v in range(0, 9):
        uppers = [
            -v,
            Fraction(-v, 3),
            Fraction(-(v - 1), 3),
            Fraction(-(v - 2), 3),
        ]
        lowers = [
            Fraction(-(2 * v - 2), 3),
            Fraction(-(2 * v - 3), 3),
            Fraction(-(2 * v - 4), 3),
        ]
        value = binom(2 * v - 2, v) * eval_terminating_pfq(uppers, lowers)
        assert value == riordan(v), v

