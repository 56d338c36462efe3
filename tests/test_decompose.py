"""The decomposition core: omega tables, multiplicities, three methods."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import fold_pairwise, random_multiset, table_as_dict
from spincg import (
    DecompositionTable,
    DomainError,
    IntPolynomial,
    METHODS,
    OmegaTable,
    SpinMultiset,
    decompose,
    difference_decomposition,
    lambda_binomial,
    lambda_from_omega,
    lambda_genfunc,
    lambda_univariate,
    lambda_zero_range,
    omega_binomial,
    omega_composition,
    omega_genfunc,
    omega_table,
    omega_univariate,
    omega_zero_range,
    parse_spins,
    q_analogue,
)
from spincg.decompose import _omega_recurrence
from spincg.qpoly import _q_ratio_product
from spincg.util import binom

SRC = Path(__file__).resolve().parent.parent / "src"

WORKED = parse_spins("1/2^2,1^4")
WORKED_OMEGA = (1, 6, 19, 40, 61, 70, 61, 40, 19, 6, 1)
WORKED_LAMBDA = ((10, 1), (8, 5), (6, 13), (4, 21), (2, 21), (0, 9))

entries_strategy = st.dictionaries(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=3),
    min_size=1,
    max_size=3,
)


def test_omega_table_type():
    table = OmegaTable((1, 1), 1)
    assert table.omega(0) == 1
    assert table.omega(5) == 0
    assert table.omega(-1) == 0
    assert table.total == 2
    assert table.to_polynomial().coeffs == (1, 1)
    with pytest.raises(ValueError):
        OmegaTable((1, 1), 3)


def test_decomposition_table_type():
    table = DecompositionTable(((4, 1), (0, 2)))
    assert table.multiplicity(4) == 1
    assert table.multiplicity(2) == 0
    assert table.twice_j0 == 4
    assert table.twice_jmin == 0
    assert table.total_dimension == 7
    assert bool(table)
    empty = DecompositionTable(())
    assert not empty
    with pytest.raises(ValueError):
        empty.twice_j0
    with pytest.raises(ValueError):
        DecompositionTable(((0, 1), (4, 1)))  # ascending
    with pytest.raises(ValueError):
        DecompositionTable(((4, 0),))


def test_worked_example_omega():
    assert omega_genfunc(WORKED).values == WORKED_OMEGA
    assert omega_binomial(WORKED, 4) == 61
    assert omega_composition(WORKED, 4) == 61
    for n in range(-2, 13):
        expected = WORKED_OMEGA[n] if 0 <= n <= 10 else 0
        assert omega_binomial(WORKED, n) == expected
        assert omega_composition(WORKED, n) == expected


def test_worked_example_decomposition():
    for method in METHODS:
        table = decompose(WORKED, method)
        assert table.entries == WORKED_LAMBDA
        assert table.total_dimension == 324


def test_omega_genfunc_matches_schoolbook_product():
    # IntPolynomial's schoolbook product is the independent reference for
    # the in-place q-ratio product and the holonomic recurrence, on
    # multisets with 2J_0 up to about 300
    rng = random.Random(20260418)
    multisets = []
    for _ in range(8):
        entries = {}
        while sum(tj * mult for tj, mult in entries.items()) < rng.randint(20, 260):
            twice_j = rng.randint(1, 12)
            entries[twice_j] = entries.get(twice_j, 0) + rng.randint(1, 15)
        multisets.append(SpinMultiset.from_entries(entries))
    # one to eight species, once with one to three spins each (the kernel's
    # side of the route choice in omega_genfunc) and once with spin 1/2
    # grown by 2^(sigma+2) spins (the recurrence's side); 1/2^120 is one
    # species with N >= 100, and eight distinct spins once each close the list
    many = [parse_spins("1/2^120")]
    for sigma in range(1, 9):
        twice = [1, *rng.sample(range(2, 13), sigma - 1)]
        few = {tj: rng.randint(1, 3) for tj in twice}
        multisets.append(SpinMultiset.from_entries(few))
        many.append(SpinMultiset.from_entries({**few, 1: few[1] + 2 ** (sigma + 2)}))
    multisets.append(SpinMultiset.from_entries(dict.fromkeys(rng.sample(range(1, 13), 8), 1)))
    for spins in multisets + [m for m in many if m.twice_j0 <= 300]:
        reference = IntPolynomial.one()
        for twice_j, mult in spins.entries:
            reference = reference * q_analogue(twice_j + 1) ** mult
        assert omega_genfunc(spins).values == reference.coeffs, spins
        span = spins.twice_j0
        pairs = [(twice_j + 1, 1) for twice_j in spins.twice_spins]
        assert tuple(_q_ratio_product(pairs, span)) == reference.coeffs, spins
        assert tuple(_omega_recurrence(spins.entries, span)) == reference.coeffs, spins
    # both routes over the full span, past the half omega_genfunc computes;
    # past 2J_0 = 300 the kernel is the reference
    wide = [m for m in many if m.twice_j0 > 300]
    for spins in [parse_spins("1^400"), parse_spins("1/2^30,1^30,3/2^30"), *wide]:
        pairs = [(twice_j + 1, 1) for twice_j in spins.twice_spins]
        reference = _q_ratio_product(pairs, spins.twice_j0)
        assert _omega_recurrence(spins.entries, spins.twice_j0) == reference, spins
        assert omega_genfunc(spins).values == tuple(reference), spins


def test_omega_recurrence_rejects_an_inexact_step():
    # the exact division by n in the recurrence is an if/raise, so python
    # -O (which strips asserts; the script's first assert proves it) still
    # stops on a wrong coefficient.  1^100 (one species, N = 100) takes the
    # recurrence route, and a one-off error in R_1 makes 2 g_2 odd.
    script = (
        "import importlib, sys\n"
        "assert False, 'asserts are on'\n"
        "d = importlib.import_module('spincg.decompose')\n"
        "exact = d._holonomic_terms\n"
        "def wrong(entries):\n"
        "    q_terms, r_terms = exact(entries)\n"
        "    return q_terms, r_terms + [(1, 1)]\n"
        "d._holonomic_terms = wrong\n"
        "try:\n"
        "    d.omega_genfunc(d.SpinMultiset.from_entries({2: 100}))\n"
        "except ArithmeticError as exc:\n"
        "    print(exc)\n"
        "    sys.exit(0)\n"
        "sys.exit(1)\n"
    )
    result = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert result.returncode == 0, result.stderr
    assert "inexact step at n=2" in result.stdout


def test_decompose_checks_survive_optimized_mode():
    # python -O strips asserts (the script's first assert proves it); the
    # post-conditions of decompose must still reject a wrong multiplicity
    # table there
    script = (
        "import importlib, sys\n"
        "assert False, 'asserts are on'\n"
        "d = importlib.import_module('spincg.decompose')\n"
        "exact = d.lambda_binomial\n"
        "d.lambda_binomial = lambda spins, kappa: exact(spins, kappa) + 1\n"
        "try:\n"
        "    d.decompose(d.SpinMultiset.from_entries({2: 3}), 'binomial')\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
        "    sys.exit(0)\n"
        "sys.exit(1)\n"
    )
    result = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert result.returncode == 0, result.stderr
    assert "inconsistent decomposition" in result.stdout


def test_omega_table_methods_agree():
    reference = omega_table(WORKED, "genfunc")
    assert omega_table(WORKED, "binomial") == reference
    assert omega_table(WORKED, "composition") == reference
    with pytest.raises(ValueError):
        omega_table(WORKED, "magic")
    with pytest.raises(ValueError):
        decompose(WORKED, "magic")


def test_worked_example_lambda_routes():
    assert lambda_binomial(WORKED, 4) == 21
    assert [lambda_binomial(WORKED, k) for k in range(6)] == [1, 5, 13, 21, 21, 9]
    poly = lambda_genfunc(WORKED)
    assert poly.coeffs == (1, 5, 13, 21, 21, 9, -9, -21, -21, -13, -5, -1)


def test_ten_spin_one():
    table = decompose(parse_spins("1^10"))
    ascending = [mult for _, mult in reversed(table.entries)]
    assert ascending == [603, 1585, 2025, 1890, 1398, 837, 405, 155, 45, 9, 1]


def test_single_spin():
    single = parse_spins("9/2")
    for method in METHODS:  # binomial falls back to the difference route
        assert decompose(single, method).entries == ((9, 1),)


def test_lambda_binomial_domain():
    with pytest.raises(DomainError):
        lambda_binomial(parse_spins("3/2"), 0)
    with pytest.raises(DomainError):
        lambda_binomial(WORKED, -1)
    with pytest.raises(DomainError):
        lambda_binomial(WORKED, 6)  # beyond the minimum spin


def test_lambda_from_omega_small():
    assert lambda_from_omega(OmegaTable((1, 1), 1)).entries == ((1, 1),)
    assert lambda_from_omega(OmegaTable((1, 2, 1), 2)).entries == ((2, 1), (0, 1))
    with pytest.raises(ValueError):
        lambda_from_omega(OmegaTable((2, 1), 1))  # Omega_0 must be 1
    with pytest.raises(ValueError):
        lambda_from_omega(OmegaTable((1, 2, 5), 2))  # dimension audit fails


def test_difference_decomposition_matches_lambda_from_omega():
    for text in ("1/2^2,1^4", "1^3", "5/2", "1/2,3/2^2,2"):
        table = omega_genfunc(parse_spins(text))
        assert difference_decomposition(table.omega, table.twice_j0) == \
            lambda_from_omega(table)


@given(entries_strategy)
@settings(max_examples=80, deadline=None)
def test_omega_invariants(entries):
    from spincg import SpinMultiset

    spins = SpinMultiset.from_entries(entries)
    table = omega_genfunc(spins)
    values = table.values
    assert len(values) == spins.twice_j0 + 1
    assert values[0] == 1
    assert values == values[::-1]
    assert sum(values) == spins.total_dimension
    peak = spins.twice_j0 // 2
    rising = list(values[: peak + 1])
    assert rising == sorted(rising)


@given(entries_strategy)
@settings(max_examples=40, deadline=None)
def test_methods_agree_randomized(entries):
    from spincg import SpinMultiset

    spins = SpinMultiset.from_entries(entries)
    reference = decompose(spins, "genfunc")
    assert decompose(spins, "binomial") == reference
    assert decompose(spins, "composition") == reference


def test_decomposition_matches_pairwise_coupling():
    rng = random.Random(20260826)
    for _ in range(150):
        spins = random_multiset(rng, max_total=7, max_twice=8)
        table = decompose(spins)
        assert table_as_dict(table) == fold_pairwise(spins), spins


def test_lambda_genfunc_structure():
    rng = random.Random(4711)
    for _ in range(60):
        spins = random_multiset(rng)
        poly = lambda_genfunc(spins)
        coeffs = list(poly.coeffs) + [0] * (spins.twice_j0 + 2 - len(poly.coeffs))
        assert len(coeffs) == spins.twice_j0 + 2
        assert poly.eval_one() == 0
        # antisymmetric about the middle
        assert coeffs == [-c for c in coeffs[::-1]]
        # the number of vanished middle coefficients equals 2 J_m
        assert coeffs.count(0) == spins.twice_jmin
        # the positive prefix is the multiplicity table
        table = decompose(spins)
        prefix = coeffs[: len(table.entries)]
        assert prefix == [mult for _, mult in table.entries]


def test_univariate_against_multiset():
    from spincg import SpinMultiset

    for twice_j in range(1, 5):
        for num in range(1, 5):
            spins = SpinMultiset.from_entries({twice_j: num})
            full = omega_genfunc(spins)
            for n in range(0, twice_j * num + 2):
                assert omega_univariate(twice_j, num, n) == full.omega(n)
            if num >= 2:
                steps = (spins.twice_j0 - spins.twice_jmin) // 2
                table = decompose(spins)
                for kappa in range(0, steps + 1):
                    assert lambda_univariate(twice_j, num, kappa) == \
                        table.entries[kappa][1]


def test_univariate_examples_and_domain():
    assert lambda_univariate(1, 6, 3) == binom(6, 3) - binom(6, 2) == 5
    assert lambda_univariate(2, 10, 10) == 603
    assert omega_univariate(2, 3, 3) == 7
    assert omega_univariate(1, 1, 2) == 0
    with pytest.raises(DomainError):
        omega_univariate(0, 3, 1)
    with pytest.raises(DomainError):
        lambda_univariate(2, 1, 0)
    with pytest.raises(DomainError):
        lambda_univariate(2, 3, -1)


def test_zero_range():
    # stars and bars, checked against a direct enumeration
    from itertools import product

    for num in range(1, 5):
        for n in range(0, 7):
            states = sum(
                1 for levels in product(range(n + 1), repeat=num)
                if sum(levels) == n
            )
            assert omega_zero_range(num, n) == states
    assert omega_zero_range(3, -1) == 0
    with pytest.raises(DomainError):
        omega_zero_range(0, 2)

    assert lambda_zero_range(3, 2) == 3
    assert lambda_zero_range(2, 5) == 1
    assert lambda_zero_range(4, -1) == 0
    with pytest.raises(DomainError):
        lambda_zero_range(1, 2)


def test_zero_range_is_the_wide_spin_limit():
    for num in range(1, 7):
        for n in range(0, 13):
            for twice_j in range(max(n, 1), n + 3):
                assert omega_univariate(twice_j, num, n) == omega_zero_range(num, n)
                if num >= 2:
                    assert lambda_univariate(twice_j, num, n) == \
                        lambda_zero_range(num, n)
