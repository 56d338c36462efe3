"""Composition counting, dice, Catalan/Riordan, isotropic isomers."""

from __future__ import annotations

import math
import tracemalloc
from fractions import Fraction
from itertools import product

import pytest

from spincg import (
    BudgetExceededError,
    DomainError,
    SpinMultiset,
    SpinParseError,
    catalan,
    count_compositions,
    counting,
    dice_probability,
    isotropic_isomers,
    parse_composition_spec,
    riordan,
)

CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430]
RIORDAN = [1, 0, 1, 1, 3, 6, 15, 36, 91, 232]


def test_catalan():
    for v, expected in enumerate(CATALAN):
        assert catalan(v) == expected
        assert catalan(v) == math.comb(2 * v, v) // (v + 1)
    for v in range(20):
        assert catalan(v) == isotropic_isomers(2, 2 * v)
    with pytest.raises(DomainError):
        catalan(-1)


def test_riordan():
    assert [riordan(v) for v in range(10)] == RIORDAN
    # Riordan recurrence: (v+1) R_v = (v-1)(2 R_{v-1} + 3 R_{v-2})
    for v in range(2, 14):
        assert (v + 1) * riordan(v) == (v - 1) * (2 * riordan(v - 1) + 3 * riordan(v - 2))
    for v in range(20):
        assert riordan(v) == isotropic_isomers(3, v)
    with pytest.raises(DomainError):
        riordan(-2)


def test_sequence_run_matches_every_route():
    # the runs against the decompose route, the closed form of C_v
    # and the Riordan recurrence, at every count up to 90
    top = 90
    catalans = [catalan(v) for v in range(top)]
    riordans = [riordan(v) for v in range(top)]
    assert catalans == [math.comb(2 * v, v) // (v + 1) for v in range(top)]
    recurrence = [1, 0]
    for n in range(2, top):
        scaled = (n - 1) * (2 * recurrence[-1] + 3 * recurrence[-2])
        assert scaled % (n + 1) == 0
        recurrence.append(scaled // (n + 1))
    assert riordans == recurrence
    for count in range(top + 1):
        assert counting._sequence("catalan", count) == catalans[:count]
        assert counting._sequence("riordan", count) == riordans[:count]


def test_sequence_count_limits(monkeypatch):
    monkeypatch.setattr(counting, "SEQUENCE_COUNT_LIMIT", 6)
    for term, expected in (("catalan", CATALAN), ("riordan", RIORDAN)):
        assert counting._sequence(term, 6) == expected[:6]
        with pytest.raises(BudgetExceededError, match=r"^--count must be <= 6$"):
            counting._sequence(term, 7)
        with pytest.raises(DomainError, match=r"^--count must be >= 0$"):
            counting._sequence(term, -1)


def test_sequence_run_checks_each_division(monkeypatch):
    # from (R_0, R_1) = (1, 1) the step at v = 2 reads 1 * (2 + 3) = 5, which 3 does not divide
    monkeypatch.setitem(counting._STARTS, "riordan", (1, 1))
    with pytest.raises(ArithmeticError) as caught:
        counting._sequence("riordan", 30)
    assert str(caught.value) == "riordan recurrence: inexact step at v=2"


def test_sequence_run_is_audited_by_its_last_term(monkeypatch):
    # from (C_0, C_1) = (1, 2) the run doubles every term from v = 1 on and every
    # division stays exact, so only the last term's check against decompose sees it
    monkeypatch.setitem(counting._STARTS, "catalan", (1, 2))
    with pytest.raises(ValueError) as caught:
        counting._sequence("catalan", 30)
    assert str(caught.value) == "inconsistent catalan run: term 29 is not its singlet"


def test_isotropic_isomers():
    assert isotropic_isomers(3, 10) == 603
    assert isotropic_isomers(3, 0) == 1
    assert isotropic_isomers(3, 1) == 0
    # dim 2: singlets of r doublets exist only for even r, counted by Catalan
    for r in range(0, 12):
        expected = catalan(r // 2) if r % 2 == 0 else 0
        assert isotropic_isomers(2, r) == expected
    with pytest.raises(DomainError):
        isotropic_isomers(1, 4)
    with pytest.raises(DomainError):
        isotropic_isomers(3, -1)


def test_parse_composition_spec():
    parts = parse_composition_spec("2^5,4^3,5^4")
    assert parts.entries == ((2, 5), (4, 3), (5, 4))
    assert parts.num_spins == 12
    assert parse_composition_spec("3, 2,3^2") == SpinMultiset.from_entries({2: 1, 3: 3})
    with pytest.raises(SpinParseError):
        parse_composition_spec("2^0")
    with pytest.raises(SpinParseError):
        parse_composition_spec("0^2")
    with pytest.raises(SpinParseError):
        parse_composition_spec("")
    with pytest.raises(SpinParseError):
        parse_composition_spec("2,x")


def test_composition_numbers_past_the_int_digit_cap_are_parse_errors(digit_cap):
    digit_cap(4300)
    for text in ("9" * 5000, "2^" + "9" * 5000):
        with pytest.raises(SpinParseError) as caught:
            parse_composition_spec(text)
        assert str(caught.value) == "a 5000-digit number is too long to read"


def test_count_compositions_brute():
    # every bounded-composition count must match direct enumeration
    cases = [
        ({2: 2}, True),
        ({2: 2}, False),
        ({1: 3}, False),
        ({3: 1, 4: 1}, True),
        ({2: 1, 3: 1, 5: 1}, False),
        ({6: 1}, False),
    ]
    for bounds, zero_allowed in cases:
        parts = SpinMultiset.from_entries(bounds)
        expanded = [b for b, count in sorted(bounds.items()) for _ in range(count)]
        low = 0 if zero_allowed else 1
        total = sum(expanded)
        for n in range(-1, total + 2):
            direct = sum(
                1
                for combo in product(*[range(low, p + 1) for p in expanded])
                if sum(combo) == n
            )
            assert count_compositions(parts, n, zero_allowed) == direct, \
                (bounds, zero_allowed, n)


def test_count_compositions_examples():
    pair = SpinMultiset.from_entries({2: 2})
    assert count_compositions(pair, 2, zero_allowed=True) == 3  # 0+2, 1+1, 2+0
    all_ones = SpinMultiset.from_entries({1: 3})
    assert count_compositions(all_ones, 3) == 1
    assert count_compositions(all_ones, 2) == 0
    parts = parse_composition_spec("2^5,4^3,5^4")
    assert count_compositions(parts, 16) == 982
    # reciprocity about the midpoint of [N, sum(bounds)]
    total, num = 42, 12
    for n in range(num, total + 1):
        assert count_compositions(parts, n) == count_compositions(parts, total + num - n)


def test_dice_probability():
    assert dice_probability(2, 7) == Fraction(1, 6)
    assert dice_probability(1, 3) == Fraction(1, 6)
    assert dice_probability(3, 18) == Fraction(1, 216)
    assert dice_probability(3, 2) == 0
    for num in range(1, 6):
        assert sum(dice_probability(num, n) for n in range(num, 6 * num + 1)) == 1
    # full enumeration for two dice
    for n in range(2, 13):
        direct = sum(1 for combo in product(range(1, 7), repeat=2) if sum(combo) == n)
        assert dice_probability(2, n) == Fraction(direct, 36)
    with pytest.raises(DomainError):
        dice_probability(0, 1)


def test_dice_probability_memory_is_bounded_by_the_answer():
    # 1500 dice summing to 5250 is Omega_3750 of 5/2^1500.  The
    # recurrence keeps a handful of answer-sized integers, where
    # omega_binomial's dict of about 625 coefficients peaks at over 250
    # times the answer's size.  tracemalloc traces only this process.
    dice_probability(2, 7)  # imports and first-call set-up stay untraced
    tracemalloc.start()
    try:
        prob = dice_probability(1500, 5250)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    answer_bytes = (prob.numerator.bit_length() + prob.denominator.bit_length()) // 8
    assert peak < 32 * answer_bytes, (peak, answer_bytes)
