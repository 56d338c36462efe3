"""Acceptance gate: eleven criteria, each printed as one pass/fail line.

Every check is exact (integer or rational equality); the stated wall-time
budgets are asserted where a criterion has one.  Run with `pytest -s` to
see the criterion lines while the suite runs.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from itertools import product

from conftest import (
    antisym_genfunc,
    binom,
    random_multiset,
    random_multiset_bounded_dim,
    table_as_dict,
)
from spincg import (
    IdenticalSystem,
    antisym_decomposition,
    catalan,
    decompose,
    dice_probability,
    omega_genfunc,
    oracle_antisym,
    oracle_omega,
    oracle_sym,
    parse_spins,
    partitions_at_most,
    q_binomial,
    restricted_partitions,
    riordan,
    sym_decomposition,
)
from spincg.crosscheck import (
    lambda_univariate,
    lambda_univariate_hypergeometric,
    lambda_zero_range,
    omega_univariate,
    omega_univariate_hypergeometric,
    omega_zero_range,
    phi,
    q_binomial_by_division,
    q_binomial_convolution,
)
from spincg.decompose import METHODS
from spincg.hypergeom import eval_terminating_pfq


def _criterion(number: int, label: str, budget_s: float | None, body) -> None:
    start = time.perf_counter()
    try:
        body()
    except BaseException:
        elapsed = (time.perf_counter() - start) * 1000.0
        print(f"criterion {number:02d} FAIL {label} ({elapsed:.1f} ms)")
        raise
    elapsed = (time.perf_counter() - start) * 1000.0
    if budget_s is not None and elapsed > budget_s * 1000.0:
        print(f"criterion {number:02d} FAIL {label} ({elapsed:.1f} ms)")
        raise AssertionError(
            f"criterion {number} exceeded its {budget_s * 1000:.0f} ms budget: "
            f"{elapsed:.1f} ms"
        )
    print(f"criterion {number:02d} PASS {label} ({elapsed:.1f} ms)")


def test_criterion_01_worked_example():
    def body():
        spins = parse_spins("1/2^2,1^4")
        table = omega_genfunc(spins)
        assert table.values == (1, 6, 19, 40, 61, 70, 61, 40, 19, 6, 1)
        dec = decompose(spins)
        assert dec.entries == ((10, 1), (8, 5), (6, 13), (4, 21), (2, 21), (0, 9))
        assert dec.total_dimension == 324
        assert sum(mult * (tj + 1) for tj, mult in dec.entries) == 324

    _criterion(1, "worked example 1/2^2,1^4", 0.010, body)


def test_criterion_02_three_method_equivalence():
    def body():
        rng = random.Random(20260826)
        for _ in range(200):
            spins = random_multiset(rng, max_total=6, max_twice=5)
            tables = [decompose(spins, method) for method in METHODS]
            assert tables[0] == tables[1] == tables[2], spins

    _criterion(2, "three decomposition methods agree on 200 multisets", 5.0, body)


def test_criterion_03_oracle_equivalence():
    def body():
        rng = random.Random(31415926)
        for index in range(50):
            # every tenth draw forced large so the bound is exercised
            floor = 10**4 if index % 10 == 9 else 1
            spins = random_multiset_bounded_dim(
                rng, max_dimension=10**6, min_dimension=floor
            )
            assert omega_genfunc(spins) == oracle_omega(spins), spins
        for twice_j in range(1, 6):
            for num in range(1, 6):
                sym_counts = oracle_sym(twice_j, num)
                anti_counts = oracle_antisym(twice_j, num)
                poly = q_binomial(twice_j + num, num)
                anti = antisym_genfunc(twice_j, num)
                for n in range(twice_j * num + 1):
                    assert poly[n] == sym_counts.omega(n)
                    assert anti[n] == anti_counts.omega(n)

    _criterion(3, "brute-force oracles confirm the fast tables", 60.0, body)


def test_criterion_04_ten_spin_one():
    def body():
        table = decompose(parse_spins("1^10"))
        ascending = [mult for _, mult in reversed(table.entries)]
        assert ascending == [603, 1585, 2025, 1890, 1398, 837, 405, 155, 45, 9, 1]

    _criterion(4, "ten spin-1 multiplicities", 0.050, body)


def test_criterion_05_counting_sequences():
    def body():
        assert [catalan(v) for v in range(7)] == [1, 1, 2, 5, 14, 42, 132]
        assert [riordan(v) for v in range(10)] == [1, 0, 1, 1, 3, 6, 15, 36, 91, 232]

    _criterion(5, "Catalan and Riordan sequences", None, body)


def test_criterion_06_partition_identities():
    def body():
        p = restricted_partitions
        assert p(3, 4, 5) == 4
        assert phi(7, 4, 3, 5) == 2
        for a in range(0, 9):
            for b in range(0, a + 1):
                for k in range(0, a - b + 3):
                    assert sum(phi(a, b, nu, k) for nu in range(b + 1)) == p(a - b, b, k)
        # four recurrences; the largest-part split needs k >= 1 because
        # p(n, m, 0) = 1 while its sum over largest parts is empty
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

    _criterion(6, "restricted partition examples and recurrences", 5.0, body)


def test_criterion_07_q_binomial_triple_agreement():
    def body():
        for a in range(0, 13):
            for b in range(0, a + 1):
                poly = q_binomial(a, b)
                assert poly == q_binomial_convolution(a, b)
                assert poly == q_binomial_by_division(a, b)
                assert poly.coeffs == oracle_sym(a - b, b).values
                coeffs = poly.coeffs
                assert coeffs == coeffs[::-1]
                peak = len(coeffs) // 2
                rising = list(coeffs[: peak + 1])
                assert rising == sorted(rising)
                assert sum(coeffs) == binom(a, b)

    _criterion(7, "q-binomial routes agree, reciprocal and unimodal", 10.0, body)


def test_criterion_08_hypergeometric_cross_checks():
    def body():
        for twice_j in range(1, 5):
            for num in range(1, 6):
                for n in range(0, twice_j * num + 2):
                    assert omega_univariate_hypergeometric(twice_j, num, n) == \
                        omega_univariate(twice_j, num, n)
            for num in range(2, 6):
                for kappa in range(0, (twice_j * num) // 2 + 1):
                    assert lambda_univariate_hypergeometric(twice_j, num, kappa) == \
                        lambda_univariate(twice_j, num, kappa)
        for v in range(0, 9):
            half = Fraction(1, 2)
            third = Fraction(1, 3)
            if v >= 1:
                c_value = binom(3 * v - 2, v) * eval_terminating_pfq(
                    [-2 * v, -half * v, -half * (v - 1)],
                    [-half * (3 * v - 2), -half * (3 * v - 3)],
                )
                assert c_value == catalan(v)
                r_value = binom(2 * v - 2, v) * eval_terminating_pfq(
                    [-v, -third * v, -third * (v - 1), -third * (v - 2)],
                    [-third * (2 * v - 2), -third * (2 * v - 3), -third * (2 * v - 4)],
                )
                assert r_value == riordan(v)
        assert catalan(0) == 1 and riordan(0) == 1

    _criterion(8, "terminating pFq reproduces the closed forms", None, body)


def test_criterion_09_pair_exchange_split():
    def body():
        for twice_j in range(1, 7):
            system = IdenticalSystem(twice_j, 2)
            sym = table_as_dict(sym_decomposition(system))
            anti = table_as_dict(antisym_decomposition(system))
            full = table_as_dict(decompose(system.as_multiset()))
            assert not set(sym) & set(anti)
            assert {**sym, **anti} == full

    _criterion(9, "pair symmetric + antisymmetric halves rebuild the full CGD",
               None, body)


def test_criterion_10_wide_spin_limits():
    def body():
        for num in range(1, 7):
            for n in range(0, 13):
                assert omega_zero_range(num, n) == binom(num + n - 1, n)
                for twice_j in range(max(n, 1), n + 3):
                    assert omega_univariate(twice_j, num, n) == \
                        omega_zero_range(num, n)
                    if num >= 2:
                        assert lambda_univariate(twice_j, num, n) == \
                            lambda_zero_range(num, n)
        # wide enough (2j + 1 - N >= n) the antisymmetric count is p_N(n - C(N,2))
        for num in range(1, 7):
            shift = num * (num - 1) // 2
            for n in range(0, 41):
                assert antisym_genfunc(n + num, num)[n] == \
                    partitions_at_most(num, n - shift)

    _criterion(10, "unbounded-level limits", None, body)


def test_criterion_11_dice():
    def body():
        for num in range(1, 7):
            total = sum(dice_probability(num, n) for n in range(num, 6 * num + 1))
            assert total == 1
        assert dice_probability(2, 7) == Fraction(1, 6)
        favorable = sum(
            1 for pair in product(range(1, 7), repeat=2) if sum(pair) == 7
        )
        assert dice_probability(2, 7) == Fraction(favorable, 36)

    _criterion(11, "fair dice probabilities", None, body)
