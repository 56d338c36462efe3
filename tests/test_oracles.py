"""Brute-force enumerations and their budget guards."""

from __future__ import annotations

import random
import sys
from itertools import combinations, product

import pytest

from conftest import random_multiset_bounded_dim
from spincg import (
    BudgetExceededError,
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

TIGHT = 10


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
    assert oracle_qbinom(3, 4).coeffs == oracle_qbinom(3, -1).coeffs == ()
    for a in range(0, 7):
        for b in range(0, a + 1):
            assert oracle_qbinom(a, b) == q_binomial(a, b)


def test_oracle_restricted_partitions():
    for n in range(0, 7):
        for m in range(0, 5):
            for k in range(0, 9):
                assert oracle_restricted_partitions(n, m, k) == \
                    restricted_partitions(n, m, k)
    # answered before the walk, so even a budget of 0 admits it
    assert oracle_restricted_partitions(2, 2, -1, 0) == 0


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


def test_restricted_partitions_walk_charges_each_node_once():
    def nodes(remaining, cap, slots):
        # the nodes of the walk, counted by recursion
        if remaining == 0 or slots == 0 or cap == 0:
            return 1
        return 1 + sum(nodes(remaining - value, value, slots - 1)
                       for value in range(min(cap, remaining), 0, -1))

    for n in range(0, 5):
        for m in range(0, 4):
            for k in range(1, 8):
                need = nodes(k, n, m)
                assert oracle_restricted_partitions(
                    n, m, k, need) == restricted_partitions(n, m, k)
                with pytest.raises(BudgetExceededError):
                    oracle_restricted_partitions(n, m, k, need - 1)


def test_restricted_partitions_walk_deeper_than_the_recursion_limit():
    # 3000 ones: a chain of 3,001 nodes, deeper than CPython's default
    # recursion limit of 1000
    assert sys.getrecursionlimit() < 3001
    assert oracle_restricted_partitions(1, 3000, 3000, 3001) == 1
    with pytest.raises(BudgetExceededError) as caught:
        oracle_restricted_partitions(1, 3000, 3000, 3000)
    assert str(caught.value) == (
        "oracle_restricted_partitions(1, 3000, 3000) passed 3000 enumeration steps")


@pytest.fixture
def default_digit_cap():
    # CPython's default int/str digit cap, which the library leaves in force
    cap = getattr(sys, "get_int_max_str_digits", None)
    if cap is None:
        yield
        return
    previous = cap()
    sys.set_int_max_str_digits(4300)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(previous)


def test_budget_message_past_the_int_digit_cap(default_digit_cap):
    # 3^20000 has 9,543 digits, past the cap; the overrun must still be a
    # BudgetExceededError carrying the whole count
    with pytest.raises(BudgetExceededError) as caught:
        oracle_omega(parse_spins("1^20000"), budget=TIGHT)
    head, tail = "oracle_omega(1^20000) needs ", " states, over the budget of 10"
    message = str(caught.value)
    assert message.startswith(head + "2661303427") and message.endswith("0001" + tail)
    assert len(message) == len(head) + 9543 + len(tail)


def test_budget_messages_name_each_call_in_full(default_digit_cap):
    # a first argument of 5,001 digits, past the cap, is written out in full;
    # small arguments keep the messages the CLI prints
    big = "1" + "0" * 5000
    cases = [
        (lambda: oracle_sym(10**5000, 1),
         f"oracle_sym(2j={big}, N=1) needs {big[:-1]}1 states, over the budget of 1000000"),
        (lambda: oracle_antisym(10**5000, 1),
         f"oracle_antisym(2j={big}, N=1) needs {big[:-1]}1 states, "
         "over the budget of 1000000"),
        (lambda: oracle_qbinom(10**5000, 1),
         f"oracle_qbinom({big}, 1) needs {big} states, over the budget of 1000000"),
        (lambda: oracle_restricted_partitions(10**5000, 2, 5, 1),
         f"oracle_restricted_partitions({big}, 2, 5) passed 1 enumeration steps"),
        # with a budget below 1, the arguments outgrow the state count
        (lambda: oracle_sym(10**5000, 0, 0),
         f"oracle_sym(2j={big}, N=0) needs 1 states, over the budget of 0"),
        (lambda: oracle_qbinom(10**5000, 0, 0),
         f"oracle_qbinom({big}, 0) needs 1 states, over the budget of 0"),
        (lambda: oracle_sym(5, 9, budget=TIGHT),
         "oracle_sym(2j=5, N=9) needs 2002 states, over the budget of 10"),
        (lambda: oracle_antisym(40, 20, budget=TIGHT),
         "oracle_antisym(2j=40, N=20) needs 269128937220 states, over the budget of 10"),
        (lambda: oracle_qbinom(30, 15, budget=TIGHT),
         "oracle_qbinom(30, 15) needs 155117520 states, over the budget of 10"),
        (lambda: oracle_omega(parse_spins("1/2,3^2"), budget=TIGHT),
         "oracle_omega(1/2,3^2) needs 98 states, over the budget of 10"),
    ]
    for call, message in cases:
        with pytest.raises(BudgetExceededError) as caught:
            call()
        assert str(caught.value) == message


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
