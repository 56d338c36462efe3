"""Composition counting, dice, Catalan/Riordan, isotropic isomers."""

from __future__ import annotations

import math
import tracemalloc
from fractions import Fraction
from itertools import product

import pytest

from spincg import (
    CompositionSpec,
    DomainError,
    SpinParseError,
    catalan,
    count_compositions,
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
    with pytest.raises(DomainError):
        catalan(-1)


def test_riordan():
    assert [riordan(v) for v in range(10)] == RIORDAN
    # Riordan recurrence: (v+1) R_v = (v-1)(2 R_{v-1} + 3 R_{v-2})
    for v in range(2, 14):
        assert (v + 1) * riordan(v) == (v - 1) * (2 * riordan(v - 1) + 3 * riordan(v - 2))
    with pytest.raises(DomainError):
        riordan(-2)


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


def test_composition_spec():
    spec = CompositionSpec(((2, 2), (4, 3)), zero_allowed=False)
    assert spec.num_parts == 5
    assert CompositionSpec.from_bounds({4: 3, 2: 2}, zero_allowed=True).parts == \
        ((2, 2), (4, 3))
    with pytest.raises(ValueError):
        CompositionSpec(((0, 2),), zero_allowed=False)
    with pytest.raises(ValueError):
        CompositionSpec((), zero_allowed=True)
    with pytest.raises(ValueError):
        CompositionSpec(((4, 1), (2, 1)),)  # bounds out of order
    with pytest.raises(ValueError):
        CompositionSpec(((2, 0),))  # a part taken no times


def test_parse_composition_spec():
    spec = parse_composition_spec("2^5,4^3,5^4")
    assert spec.parts == ((2, 5), (4, 3), (5, 4))
    assert spec.num_parts == 12
    assert not spec.zero_allowed
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
        spec = CompositionSpec.from_bounds(bounds, zero_allowed=zero_allowed)
        expanded = [b for b, count in sorted(bounds.items()) for _ in range(count)]
        low = 0 if zero_allowed else 1
        total = sum(expanded)
        for n in range(-1, total + 2):
            direct = sum(
                1
                for combo in product(*[range(low, p + 1) for p in expanded])
                if sum(combo) == n
            )
            assert count_compositions(spec, n) == direct, (bounds, zero_allowed, n)


def test_count_compositions_examples():
    zero_pair = CompositionSpec.from_bounds({2: 2}, zero_allowed=True)
    assert count_compositions(zero_pair, 2) == 3  # 0+2, 1+1, 2+0
    all_ones = CompositionSpec.from_bounds({1: 3})
    assert count_compositions(all_ones, 3) == 1
    assert count_compositions(all_ones, 2) == 0
    spec = parse_composition_spec("2^5,4^3,5^4")
    assert count_compositions(spec, 16) == 982
    # reciprocity about the midpoint of [N, sum(bounds)]
    total, num = 42, 12
    for n in range(num, total + 1):
        assert count_compositions(spec, n) == count_compositions(spec, total + num - n)


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
