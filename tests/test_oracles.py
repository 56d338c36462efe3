"""Brute-force enumerations and their budget guards."""

from __future__ import annotations

import random
import sys
from itertools import combinations, product

import pytest

from conftest import random_multiset_bounded_dim
from spincg import (
    BudgetExceededError,
    EnumerationBudget,
    SpinMultiset,
    antisym_omega,
    IdenticalSystem,
    omega_genfunc,
    oracle_antisym,
    oracle_omega,
    oracle_qbinom,
    oracle_restricted_partitions,
    oracle_sym,
    parse_spins,
    q_binomial,
    restricted_partitions,
    sym_genfunc,
)

TIGHT = EnumerationBudget(max_states=10)


def test_oracle_omega_examples():
    spins = SpinMultiset.from_entries({1: 2, 2: 4})
    table = oracle_omega(spins)
    assert table.values == (1, 6, 19, 40, 61, 70, 61, 40, 19, 6, 1)
    assert oracle_omega(SpinMultiset.from_entries({1: 3})).values == \
        (1, 3, 3, 1)
    assert oracle_omega(SpinMultiset.from_entries({2: 3})).values == \
        (1, 3, 6, 7, 6, 3, 1)


def test_oracle_omega_counts_product_states():
    # cross-check the odometer against itertools.product
    spins = SpinMultiset.from_entries({1: 2, 3: 1})
    table = oracle_omega(spins)
    levels = [range(t + 1) for t in spins.twice_spins]
    for n in range(spins.twice_j0 + 1):
        direct = sum(1 for combo in product(*levels) if sum(combo) == n)
        assert table.omega(n) == direct


def test_oracle_sym():
    assert oracle_sym(3, 1).values == (1, 1, 1, 1)
    assert oracle_sym(1, 2).values == (1, 1, 1)
    assert oracle_sym(2, 2).values == (1, 1, 2, 1, 1)


def test_oracle_antisym():
    assert oracle_antisym(3, 2).values == (0, 1, 1, 2, 1, 1)
    empty = oracle_antisym(1, 3)  # exclusion: three fermions, two levels
    assert empty.values == ()
    assert empty.total == 0
    # spot check against direct subset enumeration
    for twice_j, num in ((4, 2), (4, 3), (3, 3)):
        counts = oracle_antisym(twice_j, num)
        for n in range(twice_j * num + 1):
            direct = sum(
                1 for subset in combinations(range(twice_j + 1), num)
                if sum(subset) == n
            )
            assert counts.omega(n) == direct


def test_oracle_qbinom():
    assert oracle_qbinom(4, 2).coeffs == (1, 1, 2, 1, 1)
    assert oracle_qbinom(5, 0).coeffs == (1,)
    assert oracle_qbinom(3, 3).coeffs == (1,)
    for a in range(0, 7):
        for b in range(0, a + 1):
            assert oracle_qbinom(a, b) == q_binomial(a, b)


def test_oracle_restricted_partitions():
    for n in range(0, 7):
        for m in range(0, 5):
            for k in range(0, 9):
                assert oracle_restricted_partitions(n, m, k) == \
                    restricted_partitions(n, m, k)


def test_budget_guards():
    big = SpinMultiset.from_entries({5: 10})
    with pytest.raises(BudgetExceededError):
        oracle_omega(big, budget=TIGHT)
    with pytest.raises(BudgetExceededError):
        oracle_sym(5, 9, budget=TIGHT)
    with pytest.raises(BudgetExceededError):
        oracle_antisym(40, 20, budget=TIGHT)
    with pytest.raises(BudgetExceededError):
        oracle_qbinom(30, 15, budget=TIGHT)
    with pytest.raises(BudgetExceededError):
        oracle_restricted_partitions(50, 50, 1200, budget=TIGHT)
    # the default budget admits moderate problems
    assert oracle_omega(SpinMultiset.from_entries({1: 10})).total == 1024


def test_budget_message_past_the_int_digit_cap():
    # 3^20000 has 9,543 digits, past CPython's default int/str cap, which
    # the library leaves in force; the overrun must still be a
    # BudgetExceededError carrying the whole count
    cap = getattr(sys, "get_int_max_str_digits", None)
    if cap is not None:
        previous = cap()
        sys.set_int_max_str_digits(4300)
    try:
        with pytest.raises(BudgetExceededError) as caught:
            oracle_omega(parse_spins("1^20000"), budget=TIGHT)
    finally:
        if cap is not None:
            sys.set_int_max_str_digits(previous)
    head, tail = "oracle_omega(1^20000) needs ", " states, over the budget of 10"
    message = str(caught.value)
    assert message.startswith(head + "2661303427") and message.endswith("0001" + tail)
    assert len(message) == len(head) + 9543 + len(tail)


def test_fast_paths_match_enumeration():
    rng = random.Random(99173)
    for _ in range(25):
        spins = random_multiset_bounded_dim(rng, max_dimension=20000)
        assert omega_genfunc(spins) == oracle_omega(spins)
    for twice_j in range(1, 5):
        for num in range(1, 5):
            system = IdenticalSystem(twice_j, num)
            sym_counts = oracle_sym(twice_j, num)
            poly = sym_genfunc(system)
            anti_counts = oracle_antisym(twice_j, num)
            for n in range(twice_j * num + 1):
                assert poly[n] == sym_counts.omega(n)
                assert antisym_omega(system, n) == anti_counts.omega(n)
