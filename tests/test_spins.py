"""Spin multiset parsing, canonical form, the number writers, and the
coupled-spin range."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from conftest import fold_pairwise
from spincg import (
    DomainError,
    SpinMultiset,
    SpinParseError,
    parse_spin_token,
    parse_spins,
    spin_label,
)
from spincg.spins import decimal_text


def test_parse_basic():
    assert parse_spins("1/2^2,1^4").entries == ((1, 2), (2, 4))
    assert parse_spins("1/2").entries == ((1, 1),)
    assert parse_spins("3/2^2, 5/2").entries == ((3, 2), (5, 1))
    assert parse_spins(" 2 ^ 3 ").entries == ((4, 3),)


def test_parse_merges_repeated_spins():
    assert parse_spins("1,1") == parse_spins("1^2")
    assert parse_spins("1/2^2,1/2") == parse_spins("1/2^3")


@pytest.mark.parametrize(
    "bad, fragment",
    [
        ("", "empty"),
        ("0", "'0'"),
        ("0/2", "'0/2'"),
        ("1^0", "'1^0'"),
        ("2/2", "'2/2'"),
        ("1/3", "'1/3'"),
        ("abc", "'abc'"),
        ("1,,2", "''"),
        ("1/2^", "'1/2^'"),
        ("-1", "'-1'"),
        ("3/2^2^2", "'3/2^2^2'"),
    ],
)
def test_parse_errors_name_the_token(bad, fragment):
    with pytest.raises(SpinParseError) as excinfo:
        parse_spins(bad)
    assert fragment in str(excinfo.value)


def test_parse_spin_token():
    assert parse_spin_token("3/2") == 3
    assert parse_spin_token("2") == 4
    with pytest.raises(SpinParseError):
        parse_spin_token("3/2^2")
    with pytest.raises(SpinParseError):
        parse_spin_token("0")


def test_numbers_past_the_int_digit_cap_are_parse_errors(digit_cap):
    # a one-line message with the digit count, not the 5,000-digit token
    digit_cap(4300)
    nines = "9" * 5000
    for parse, text in ((parse_spins, f"1^{nines}"), (parse_spins, nines),
                        (parse_spins, f"{nines}/2"), (parse_spin_token, nines)):
        with pytest.raises(SpinParseError) as caught:
            parse(text)
        assert str(caught.value) == "a 5000-digit number is too long to read"
    assert parse_spins("1^" + "9" * 4300).entries == ((2, int("9" * 4300)),)


def test_decimal_text_writes_every_digit_past_the_digit_cap(digit_cap):
    # 640 and 641 digits either side of the smallest cap CPython accepts
    numbers = [0, 7, -7, 10**639, -(10**640) + 1, 10**640, -(10**640), 3**5000,
               -(3**5000) + 1]
    digit_cap(0)
    expected = [str(n) for n in numbers]
    digit_cap(640)
    with pytest.raises(ValueError):
        str(10**640)
    assert list(map(decimal_text, numbers)) == expected


def test_spin_label():
    assert spin_label(10) == "5"
    assert spin_label(9) == "9/2"
    assert spin_label(0) == "0"


def test_worked_example_summary():
    spins = parse_spins("1/2^2,1^4")
    assert spins.num_spins == 6
    assert spins.num_distinct == 2
    assert spins.twice_j0 == 10
    assert spins.twice_jmin == 0
    assert spins.total_dimension == 324
    assert spins.distinct_j_count == 6


def test_twice_jmin_branches():
    # one dominant spin: J_m = 2 max(j) - J_0
    assert parse_spins("3,1/2").twice_jmin == 5
    # balanced collections fall to the parity floor
    assert parse_spins("1/2^3").twice_jmin == 1
    assert parse_spins("1/2^2,1^4").twice_jmin == 0
    # the boundary 2v = 0 belongs to the dominant-spin branch
    assert parse_spins("1^2").twice_jmin == 0
    # a single spin couples to itself
    assert parse_spins("9/2").twice_jmin == 9
    assert parse_spins("9/2").twice_j0 == 9


def test_canonical_rendering(digit_cap):
    spins = parse_spins("1^4 , 1/2^2")
    assert spins.canonical() == "1/2^2,1^4"
    assert str(parse_spins("3/2^2,5/2")) == "3/2^2,5/2"
    assert parse_spins("2").canonical() == "2"
    # numbers past the int/str digit cap are written in full
    digit_cap(4300)
    big = "1" + "0" * 5000
    huge = SpinMultiset(((2 * 10**5000, 1), (2 * 10**5000 + 1, 10**5000)))
    assert huge.canonical() == f"{big},2{big[2:]}1/2^{big}"
    # numbers either side of the cap: each is written for itself
    digit_cap(640)  # the smallest cap CPython accepts
    straddle = SpinMultiset(((2 * 10**639, 10**640), (2 * 10**640 + 1, 7)))
    assert straddle.canonical() == f"1{'0' * 639}^1{'0' * 640},2{'0' * 639}1/2^7"


def test_multiset_validation():
    with pytest.raises(DomainError):
        SpinMultiset(())
    with pytest.raises(DomainError):
        SpinMultiset(((2, 1), (1, 1)))  # not ascending
    with pytest.raises(DomainError):
        SpinMultiset(((1, 0),))
    with pytest.raises(DomainError):
        SpinMultiset(((0, 2),))


entries_strategy = st.dictionaries(
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=1, max_value=4),
    min_size=1,
    max_size=4,
)


@given(entries_strategy)
def test_canonical_round_trip(entries):
    spins = SpinMultiset.from_entries(entries)
    assert parse_spins(spins.canonical()) == spins


@given(entries_strategy)
def test_range_invariants(entries):
    spins = SpinMultiset.from_entries(entries)
    assert 0 <= spins.twice_jmin <= spins.twice_j0
    assert (spins.twice_j0 - spins.twice_jmin) % 2 == 0
    assert spins.twice_jmin % 2 == spins.twice_j0 % 2
    if 2 * max(entries) < spins.twice_j0:
        assert spins.twice_jmin in (0, 1)
    assert spins.distinct_j_count == (spins.twice_j0 - spins.twice_jmin) // 2 + 1


@given(entries_strategy)
def test_range_matches_pairwise_coupling(entries):
    spins = SpinMultiset.from_entries(entries)
    dist = fold_pairwise(spins)
    assert min(dist) == spins.twice_jmin
    assert max(dist) == spins.twice_j0
    assert sum(mult * (tj + 1) for tj, mult in dist.items()) == spins.total_dimension
