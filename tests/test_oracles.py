"""Brute-force enumerations and their budget guards."""

from __future__ import annotations

import random
import sys
from itertools import combinations, product

import pytest

from conftest import antisym_genfunc, random_multiset_bounded_dim
from spincg import (
    BudgetExceededError,
    DomainError,
    SpinMultiset,
    omega_genfunc,
    oracle_antisym,
    oracle_omega,
    oracle_sym,
    parse_spins,
    q_binomial,
    restricted_partitions,
)
from spincg.oracles import oracle_restricted_partitions

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
    # each Omega_n counts the product states whose levels sum to n
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
    # negative 2j or N are outside the domain, checked before the budget
    for twice_j, num in ((-2, 2), (3, -1)):
        with pytest.raises(DomainError):
            oracle_sym(twice_j, num, 0)


def test_oracle_antisym():
    assert oracle_antisym(3, 2).values == (0, 1, 1, 2, 1, 1)
    empty = oracle_antisym(1, 3)  # exclusion: three fermions, two levels
    assert empty.values == ()
    assert sum(empty.values) == 0
    # negative 2j or N are outside the domain, not exclusion or a bare ValueError
    for twice_j, num in ((-3, 1), (3, -1)):
        with pytest.raises(DomainError):
            oracle_antisym(twice_j, num, 0)
    # spot check against direct subset enumeration
    for twice_j, num in ((4, 2), (4, 3), (3, 3)):
        counts = oracle_antisym(twice_j, num)
        for n in range(twice_j * num + 1):
            direct = sum(
                1 for subset in combinations(range(twice_j + 1), num)
                if sum(subset) == n
            )
            assert counts.omega(n) == direct


def test_oracle_restricted_partitions():
    for n in range(0, 7):
        for m in range(0, 5):
            for k in range(0, 9):
                assert oracle_restricted_partitions(n, m, k) == \
                    restricted_partitions(n, m, k)
    # answered before the walk, so even a budget of 0 admits it
    assert oracle_restricted_partitions(2, 2, -1, 0) == 0
    # negative slots or part sizes are outside the domain, not unlimited
    for n, m, k in ((2, -1, 3), (-1, 2, 3), (2, -1, -1)):
        with pytest.raises(DomainError):
            restricted_partitions(n, m, k)
        with pytest.raises(DomainError):
            oracle_restricted_partitions(n, m, k, 0)


def test_budget_guards():
    big = SpinMultiset.from_entries({5: 10})
    with pytest.raises(BudgetExceededError):
        oracle_omega(big, budget=TIGHT)
    with pytest.raises(BudgetExceededError):
        oracle_sym(5, 9, budget=TIGHT)
    with pytest.raises(BudgetExceededError):
        oracle_antisym(40, 20, budget=TIGHT)
    with pytest.raises(BudgetExceededError):
        oracle_sym(15, 15, budget=TIGHT)
    with pytest.raises(BudgetExceededError):
        oracle_restricted_partitions(50, 50, 1200, budget=TIGHT)
    # the default budget admits moderate problems
    assert sum(oracle_omega(SpinMultiset.from_entries({1: 10})).values) == 1024


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


def test_budget_message_straddling_the_smallest_digit_cap(digit_cap):
    # numbers either side of the smallest cap CPython accepts: each is
    # written for itself
    digit_cap(640)
    with pytest.raises(BudgetExceededError) as caught:
        oracle_sym(10**640, 1, budget=10**639)
    zeros = "0" * 639
    assert str(caught.value) == (
        f"oracle_sym(2j=1{zeros}0, N=1) needs 1{zeros}1 states, over the budget of 1{zeros}")


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
        (lambda: oracle_antisym(10**5000 - 1, 1),
         f"oracle_antisym(2j={'9' * 5000}, N=1) needs {big} states, "
         "over the budget of 1000000"),
        (lambda: oracle_restricted_partitions(10**5000, 2, 5, 1),
         f"oracle_restricted_partitions({big}, 2, 5) passed 1 enumeration steps"),
        (lambda: oracle_omega(SpinMultiset(((2 * 10**5000, 1),)), 10),
         f"oracle_omega({big}) needs 2{big[2:]}1 states, over the budget of 10"),
        # with a budget below 1, the arguments outgrow the state count
        (lambda: oracle_sym(10**5000, 0, 0),
         f"oracle_sym(2j={big}, N=0) needs 1 states, over the budget of 0"),
        (lambda: oracle_antisym(10**5000, 0, 0),
         f"oracle_antisym(2j={big}, N=0) needs 1 states, over the budget of 0"),
        (lambda: oracle_sym(5, 9, budget=TIGHT),
         "oracle_sym(2j=5, N=9) needs 2002 states, over the budget of 10"),
        (lambda: oracle_antisym(40, 20, budget=TIGHT),
         "oracle_antisym(2j=40, N=20) needs 269128937220 states, over the budget of 10"),
        (lambda: oracle_antisym(29, 15, budget=TIGHT),
         "oracle_antisym(2j=29, N=15) needs 155117520 states, over the budget of 10"),
        (lambda: oracle_omega(parse_spins("1/2,3^2"), budget=TIGHT),
         "oracle_omega(1/2,3^2) needs 98 states, over the budget of 10"),
        # counts far past the budget are bounded below, never built:
        # C(1100000, 100000) >= 11^100000, C(2000000, 1000001) >= 2^999999
        (lambda: oracle_sym(10**6, 10**5, budget=TIGHT),
         "oracle_sym(2j=1000000, N=100000) needs at least 2^300000 states, "
         "over the budget of 10"),
        (lambda: oracle_antisym(2 * 10**6 - 1, 10**6 + 1, budget=TIGHT),
         "oracle_antisym(2j=1999999, N=1000001) needs at least 2^999999 states, "
         "over the budget of 10"),
    ]
    for call, message in cases:
        with pytest.raises(BudgetExceededError) as caught:
            call()
        assert str(caught.value) == message


def test_budget_past_the_count_floor_gets_the_exact_count(digit_cap):
    # the floor 2^70000 is past the fixed size but not past this budget's
    # 70,000 bits, so the count 2^70000 is built and written exactly
    digit_cap(0)
    power, budget = str(2**70000), str(2**70000 - 1)
    with pytest.raises(BudgetExceededError) as caught:
        oracle_sym(2**70000 - 1, 1, budget=2**70000 - 1)
    assert str(caught.value) == (
        f"oracle_sym(2j={budget}, N=1) needs {power} states, over the budget of {budget}")


def test_fast_paths_match_enumeration():
    rng = random.Random(99173)
    for _ in range(25):
        spins = random_multiset_bounded_dim(rng, max_dimension=20000)
        assert omega_genfunc(spins) == oracle_omega(spins)
    for twice_j in range(1, 5):
        for num in range(1, 5):
            sym_counts = oracle_sym(twice_j, num)
            poly = q_binomial(twice_j + num, num)
            anti_counts = oracle_antisym(twice_j, num)
            anti = antisym_genfunc(twice_j, num)
            for n in range(twice_j * num + 1):
                assert poly[n] == sym_counts.omega(n)
                assert anti[n] == anti_counts.omega(n)
