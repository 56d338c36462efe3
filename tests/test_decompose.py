"""The decomposition core: omega tables, multiplicities, three methods."""

from __future__ import annotations

import dataclasses
import importlib
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
from itertools import accumulate
from operator import sub
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    binom,
    fold_pairwise,
    identity_holds,
    omega_at_q,
    random_multiset,
    table_as_dict,
)
from spincg import (
    DecompositionTable,
    DomainError,
    IntPolynomial,
    OmegaTable,
    SpinMultiset,
    decompose,
    difference_decomposition,
    lambda_from_omega,
    lambda_genfunc,
    omega_binomial,
    omega_genfunc,
    oracle_antisym,
    parse_spins,
)
from spincg.cli import _polynomial_text
from spincg.crosscheck import (
    lambda_univariate,
    lambda_zero_range,
    omega_univariate,
    omega_zero_range,
    q_analogue,
)
from spincg.decompose import METHODS, lambda_binomial, omega_composition
from spincg.decompose import _alternating_table, _composition_counts, _fill
from spincg.decompose import _lambda_coefficients, _omega_at
from spincg.qpoly import _q_ratio_product

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
    table = OmegaTable((1, 1))
    assert table.omega(0) == 1
    assert table.omega(5) == 0
    assert table.omega(-1) == 0
    assert sum(table.values) == 2
    assert IntPolynomial(table.values).coeffs == (1, 1)
    assert table.twice_j0 == 1
    assert OmegaTable(()).twice_j0 == -1


def test_decomposition_table_type():
    table = DecompositionTable(((4, 1), (0, 2)))
    assert table.multiplicity(4) == 1
    assert table.multiplicity(2) == 0
    assert table.twice_j0 == 4
    assert table.twice_jmin == 0
    assert table.total_dimension == 7
    assert bool(table)
    # two columns; entries rebuilds the pairs, and they build an equal table
    assert (table.twice_js, table.mults) == ((4, 0), (1, 2))
    assert table.entries == ((4, 1), (0, 2))
    assert DecompositionTable(table.entries) == table
    assert repr(table) == "DecompositionTable(entries=((4, 1), (0, 2)))"
    # a table whose producer wrote the columns equals the one built from pairs
    for columns in (_fill(object.__new__(DecompositionTable), (4, 0), (1, 2)),
                    difference_decomposition((1, 1, 3), 4)):
        assert columns == table and hash(columns) == hash(table)
        assert repr(columns) == repr(table)
    assert dataclasses.replace(table, entries=((6, 3),)) == DecompositionTable(((6, 3),))
    assert dataclasses.replace(table, entries=((6, 3),)).total_dimension == 21
    empty = DecompositionTable(())
    assert not empty
    assert (empty.twice_js, empty.mults, empty.entries, empty.total_dimension) == ((), (), (), 0)
    assert repr(empty) == "DecompositionTable(entries=())"
    with pytest.raises(ValueError):
        empty.twice_j0
    with pytest.raises(ValueError):
        empty.twice_jmin
    # every validation failure, through both constructors
    for twice_js, mults in [
        ((0, 4), (1, 1)),  # ascending
        ((4, 4), (1, 1)),  # a repeated twice_J
        ((4, -2), (1, 1)),  # twice_J below zero
        ((4,), (0,)),  # multiplicity zero
        ((4, 2), (1, -1)),  # negative multiplicity
    ]:
        with pytest.raises(ValueError):
            DecompositionTable(tuple(zip(twice_js, mults)))
        with pytest.raises(ValueError):
            _fill(object.__new__(DecompositionTable), twice_js, mults)
    for twice_js, mults in [((4, 2), (1,)), ((4,), (1, 1)), ((), (1,))]:
        with pytest.raises(ValueError):
            _fill(object.__new__(DecompositionTable), twice_js, mults)
    for pairs in [((4, 1), (2,)), ((4, 1, 1),), ((4,),)]:
        with pytest.raises(ValueError):
            DecompositionTable(pairs)
    with pytest.raises(dataclasses.FrozenInstanceError):
        table.mults = (1, 1)


def test_table_columns_retain_less_than_pairs():
    # a table keeps two tuples, not one 2-tuple per component: what its
    # making leaves traced (tracemalloc, this process only) is held against
    # the same components as (twice_J, multiplicity) pairs, each side less
    # the int objects it shares.  5000^2 has 10,001 components, so the 2,000
    # 2-tuples CPython's free list can hand out untraced cannot hide pairs.
    spins = parse_spins("5000^2")
    decompose(parse_spins("2^2"))  # first-call set-up stays untraced
    tracemalloc.start()
    try:
        table = decompose(spins)
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    pairs = table.entries
    assert len(pairs) == 10001
    int_bytes = sum(sys.getsizeof(v) for pair in pairs for v in pair if v > 256)
    int_bytes += sys.getsizeof(table.total_dimension)
    pair_bytes = sys.getsizeof(pairs) + sum(map(sys.getsizeof, pairs))
    assert kept - int_bytes <= 0.6 * pair_bytes, (kept, int_bytes, pair_bytes)


def test_renderers_write_past_the_int_digit_cap(digit_cap):
    # the multiplicities, Omega_n and the lambda coefficients of 1/2^2200
    # reach 659 to 663 digits, past 640, the smallest cap CPython accepts
    spins = parse_spins("1/2^2200")
    omega = IntPolynomial(omega_genfunc(spins).values)
    table, lam = decompose(spins), lambda_genfunc(spins)

    def rendered():
        return (table.to_json_dict("1/2^2200"), str(omega), _polynomial_text(omega, "json", {}),
                str(lam), _polynomial_text(lam, "json", {}))

    digit_cap(0)  # no cap: str writes every digit
    expected = rendered()
    assert len(expected[0]["total_dimension"]) == 663
    assert max(map(len, json.loads(expected[4])["coefficients"])) > 650 and min(lam.coeffs) < 0
    digit_cap(640)
    assert rendered() == expected


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
    # the in-place q-ratio product and the prefix sums of the logarithmic-
    # derivative recurrence, on multisets with 2J_0 up to about 300
    rng = random.Random(20260418)
    multisets = []
    for _ in range(8):
        entries = {}
        while sum(tj * mult for tj, mult in entries.items()) < rng.randint(20, 260):
            twice_j = rng.randint(1, 12)
            entries[twice_j] = entries.get(twice_j, 0) + rng.randint(1, 15)
        multisets.append(SpinMultiset.from_entries(entries))
    # one to eight species: once with one to three spins each (the kernel's
    # side of the route choice in _lambda_head), once on each side of its
    # rule 2 (sigma + 1) < N with the other spins once each, once on each
    # side of N = 4 (sigma + 1), and once with spin 1/2 grown by 2^(sigma+2)
    # spins (large N), spin 1/2 making up the count; 1/2^120 is one species
    # with N >= 100, and eight distinct spins once each close the list
    many = [parse_spins("1/2^120")]
    for sigma in range(1, 9):
        twice = [1, *rng.sample(range(2, 13), sigma - 1)]
        few = {tj: rng.randint(1, 3) for tj in twice}
        multisets.append(SpinMultiset.from_entries(few))
        for num in (2 * (sigma + 1), 2 * (sigma + 1) + 1):
            once = dict.fromkeys(twice, 1)
            multisets.append(SpinMultiset.from_entries({**once, 1: num - sigma + 1}))
        for num in (4 * (sigma + 1), 4 * (sigma + 1) + 1):
            grown = {**few, 1: few[1] + num - sum(few.values())}
            multisets.append(SpinMultiset.from_entries(grown))
        many.append(SpinMultiset.from_entries({**few, 1: few[1] + 2 ** (sigma + 2)}))
    multisets.append(SpinMultiset.from_entries(dict.fromkeys(rng.sample(range(1, 13), 8), 1)))
    for spins in multisets + [m for m in many if m.twice_j0 <= 300]:
        reference = IntPolynomial((1,))
        for twice_j in spins.twice_spins:
            reference = reference * q_analogue(twice_j + 1)
        assert omega_genfunc(spins).values == reference.coeffs, spins
        span = spins.twice_j0
        pairs = [(twice_j + 1, 1) for twice_j in spins.twice_spins]
        assert tuple(_q_ratio_product(pairs, span)) == reference.coeffs, spins
        omegas = accumulate(_lambda_coefficients(spins.entries, span))
        assert tuple(omegas) == reference.coeffs, spins
    # both routes over the full span, past the half omega_genfunc computes;
    # past 2J_0 = 300 the kernel is the reference
    wide = [m for m in many if m.twice_j0 > 300]
    for spins in [parse_spins("1^400"), parse_spins("1/2^30,1^30,3/2^30"), *wide]:
        pairs = [(twice_j + 1, 1) for twice_j in spins.twice_spins]
        reference = _q_ratio_product(pairs, spins.twice_j0)
        omegas = accumulate(_lambda_coefficients(spins.entries, spins.twice_j0))
        assert list(omegas) == reference, spins
        assert omega_genfunc(spins).values == tuple(reference), spins


def test_omega_recurrence_rejects_an_inexact_step():
    # the exact division by n in the recurrence is an if/raise, so python
    # -O (which strips asserts; the script's first assert proves it) still
    # stops on a wrong coefficient.  Off(100) is a multiplicity of 100 whose
    # species weight d * Off(100) comes out one too large (int calls a
    # subclass's __rmul__ first), so 3 lambda_3 = 99 * 5050 - 301 is not a
    # multiple of 3.  The same case runs in-process first, then in the
    # subprocess.
    class Off(int):
        def __rmul__(self, other):
            return int(self) * other + 1

    with pytest.raises(ArithmeticError, match="inexact step at n=3"):
        list(_lambda_coefficients(((2, Off(100)),), 50))
    script = (
        "import importlib, sys\n"
        "assert False, 'asserts are on'\n"
        "d = importlib.import_module('spincg.decompose')\n"
        "class Off(int):\n"
        "    def __rmul__(self, other):\n"
        "        return int(self) * other + 1\n"
        "try:\n"
        "    list(d._lambda_coefficients(((2, Off(100)),), 50))\n"
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
    assert "inexact step at n=3" in result.stdout


def test_single_omega_matches_the_binomial_sum_on_both_routes():
    # _omega_at takes the recurrence when 6 m (sigma + 1) < choices (N - 1)
    # and omega_binomial otherwise; both sides must give the binomial sum's
    # value, out-of-range n included
    rng = random.Random(20261018)
    routes = {True: 0, False: 0}
    for _ in range(120):
        sigma = rng.randint(1, 4)
        entries = {tj: rng.randint(1, rng.choice([3, 30, 120]))
                   for tj in rng.sample(range(1, 16), sigma)}
        spins = SpinMultiset.from_entries(entries)
        span = spins.twice_j0
        for n in (rng.randint(0, span), rng.randint(0, min(span, 12)), -1, span + 1):
            steps = min(n, span - n)
            choices = math.prod(min(mult, n // (tj + 1)) + 1 for tj, mult in spins.entries)
            if 0 <= n <= span:
                routes[6 * steps * (sigma + 1) < choices * (spins.num_spins - 1)] += 1
            assert _omega_at(spins, n) == omega_binomial(spins, n), (spins, n)
    assert min(routes.values()) >= 40, routes


def test_decompose_checks_survive_optimized_mode():
    # python -O strips asserts (the script's first assert proves it); the
    # post-conditions of decompose must still reject a wrong multiplicity
    # table there, on each route: the faults go into the module globals
    # decompose calls for the binomial table, the genfunc multiplicities and
    # the composition counts
    script = (
        "import importlib, sys\n"
        "assert False, 'asserts are on'\n"
        "d = importlib.import_module('spincg.decompose')\n"
        "spins = d.SpinMultiset.from_entries({2: 3})\n"
        "exact_table, exact_head = d._alternating_table, d._lambda_head\n"
        "exact_counts = d._composition_counts\n"
        "def raised_head(spins, top):\n"
        "    values = list(exact_head(spins, top))\n"
        "    values[1] += 1\n"
        "    return values\n"
        "def raised_counts(spins, top):\n"
        "    values = exact_counts(spins, top)\n"
        "    values[1] += 1\n"
        "    return values\n"
        "d._alternating_table = lambda *args: [v + 1 for v in exact_table(*args)]\n"
        "d._lambda_head = raised_head\n"
        "d._composition_counts = raised_counts\n"
        "for method in ('binomial', 'genfunc', 'composition'):\n"
        "    try:\n"
        "        d.decompose(spins, method)\n"
        "    except ValueError as exc:\n"
        "        print(method, exc)\n"
        "    else:\n"
        "        sys.exit(1)\n"
    )
    result = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [
        "binomial inconsistent decomposition of 1^3",
        "genfunc inconsistent decomposition of 1^3",
        "composition inconsistent decomposition of 1^3",
    ]


def _route_cases(seed: int) -> list[SpinMultiset]:
    """300 seeded multisets of five kinds, each kind at least 60 times.

    Both sides of the recurrence rule 2 (sigma + 1) < N, one dominant spin
    (m below floor(J_0)), single spins and N = 2.
    """
    rng = random.Random(seed)
    kinds = {"recurrence": 0, "kernel": 0, "dominant": 0, "single": 0, "pair": 0}
    cases = []
    for i in range(300):
        kind = list(kinds)[i % 5]
        if kind == "recurrence":
            entries = {tj: rng.randint(5, 12) for tj in rng.sample(range(1, 8), rng.randint(1, 3))}
        elif kind == "kernel":
            entries = {tj: rng.randint(1, 2) for tj in rng.sample(range(1, 12), rng.randint(1, 4))}
        elif kind == "dominant":
            entries = {rng.randint(30, 80): 1, rng.randint(1, 6): rng.randint(1, 4)}
        elif kind == "single":
            entries = {rng.randint(1, 200): 1}
        else:
            entries = {rng.randint(1, 40): 1}
            twice_j = rng.randint(1, 40)
            entries[twice_j] = entries.get(twice_j, 0) + 1
        spins = SpinMultiset.from_entries(entries)
        m, half = spins.distinct_j_count - 1, spins.twice_j0 // 2
        kinds["recurrence"] += 2 * (spins.num_distinct + 1) < spins.num_spins
        kinds["kernel"] += 2 * (spins.num_distinct + 1) >= spins.num_spins
        kinds["dominant"] += m < half
        kinds["single"] += spins.num_spins == 1
        kinds["pair"] += spins.num_spins == 2
        cases.append(spins)
    assert min(kinds.values()) >= 60, kinds
    return cases


def test_decompose_matches_the_differenced_omega_table():
    # decompose takes lambda_0 .. lambda_m straight from each method; the
    # reference differences the full Omega table instead, and each table
    # must satisfy the generating function's identity mod P
    for spins in _route_cases(20261020):
        reference = difference_decomposition(omega_genfunc(spins).values, spins.twice_j0)
        omega = omega_at_q(spins)
        for method in METHODS:
            table = decompose(spins, method)
            assert table == reference, (spins, method)
            assert identity_holds(table, spins.twice_j0, omega), (spins, method)


def test_identity_holds_past_the_oracles_reach():
    # 2^10000 states, 5001 multiplicities of up to 3007 digits
    spins = parse_spins("1/2^10000")
    table = decompose(spins)
    assert len(table.mults) == 5001
    assert identity_holds(table, spins.twice_j0, omega_at_q(spins))


def test_identity_rejects_a_fault_the_audit_passes(monkeypatch):
    # (+1, -2, +1) on three adjacent multiplicities keeps sum lambda (2J + 1)
    # and J_min, so decompose returns the table; the identity rejects it
    spins = parse_spins("1^12")
    exact = decompose(spins)
    assert identity_holds(exact, spins.twice_j0, omega_at_q(spins))
    lams = list(exact.mults)
    lams[4:7] = lams[4] + 1, lams[5] - 2, lams[6] + 1
    module = importlib.import_module("spincg.decompose")
    monkeypatch.setattr(module, "_lambda_head", lambda spins, top: lams)
    faulty = decompose(spins)
    assert faulty != exact and faulty.mults == tuple(lams)
    assert (faulty.twice_jmin, faulty.total_dimension) == (exact.twice_jmin, exact.total_dimension)
    assert not identity_holds(faulty, spins.twice_j0, omega_at_q(spins))


def test_decompose_audit_rejects_an_inconsistent_table(monkeypatch):
    # the same audit in-process: a table that misses the multiset's total
    # dimension (5, not 4) is a ValueError, not a result
    module = importlib.import_module("spincg.decompose")
    monkeypatch.setattr(module, "_lambda_head", lambda spins, top: [1, 2])
    with pytest.raises(ValueError, match=r"inconsistent decomposition of 1/2\^2"):
        decompose(parse_spins("1/2^2"))


def test_omega_table_methods_agree():
    reference = list(omega_genfunc(WORKED).values)
    span = WORKED.twice_j0
    assert _alternating_table(WORKED.entries, WORKED.num_spins - 1, span) == reference
    assert _composition_counts(WORKED, span) == reference
    with pytest.raises(ValueError, match="unknown method 'magic'"):
        decompose(WORKED, "magic")


@pytest.mark.parametrize(
    "text", ["6^5,7/2^3,3^5", "4^4,6^6", "7/2^40", "1/2^2000", "1^300", "3/2^60"]
)
def test_composition_dp_matches_genfunc(text):
    # 13 and 10 spins, then few species with many spins each, whose bounded
    # partitions are too many to visit one by one (7/2^40 has 1.1 million of
    # total <= J_0); the dynamic program over (taken, total) states keeps each
    # case well under a second.  The half table, the full table and a single
    # mid-table value must equal genfunc's, and so must the binomial route's
    # multiplicities
    spins = parse_spins(text)
    reference = omega_genfunc(spins)
    span = spins.twice_j0
    assert decompose(spins, "composition") == decompose(spins, "genfunc")
    assert decompose(spins, "binomial") == decompose(spins, "genfunc")
    assert _composition_counts(spins, span) == list(reference.values)
    assert _composition_counts(spins, span // 2) == list(reference.values[: span // 2 + 1])
    assert omega_composition(spins, span // 3) == reference.values[span // 3]


def test_composition_memory_is_bounded_by_the_answer():
    # the last part value, 1, adds straight into the counts: 1^600's full
    # table peaked at 2.7 times the table's bytes, and at 550 times when
    # that value also built a (taken, total) state dict.  tracemalloc
    # traces only this process.
    _composition_counts(parse_spins("1^3"), 6)  # first-call set-up stays untraced
    tracemalloc.start()
    try:
        values = _composition_counts(parse_spins("1^600"), 1200)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    answer_bytes = sum(value.bit_length() for value in values) // 8
    assert peak < 8 * answer_bytes, (peak, answer_bytes)


def test_cross_check_tables_match_genfunc_in_full():
    # binomial and composition fill 0 .. 2J_0 without the palindrome, so the
    # upper half checks omega_genfunc's mirror; single values and the
    # binomial multiplicities must equal the table entries
    rng = random.Random(20261019)
    for _ in range(60):
        spins = random_multiset(rng, max_total=8, max_twice=7)
        reference = omega_genfunc(spins)
        span = spins.twice_j0
        full = list(reference.values)
        assert _alternating_table(spins.entries, spins.num_spins - 1, span) == full, spins
        assert _composition_counts(spins, span) == full, spins
        for n in {0, rng.randint(0, span), rng.randint(0, span), span}:
            assert omega_composition(spins, n) == reference.values[n], (spins, n)
            assert omega_binomial(spins, n) == reference.values[n], (spins, n)
        table = decompose(spins, "binomial")
        assert table == lambda_from_omega(reference), spins
        if spins.num_spins >= 2:
            assert [lambda_binomial(spins, k) for k in range(len(table.entries))] == \
                [mult for _, mult in table.entries], spins


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
    for method in METHODS:  # binomial's kernel row is 1, 0, 0, ... for one spin
        assert decompose(single, method).entries == ((9, 1),)
    for twice_j in range(1, 61):
        single = SpinMultiset.from_entries({twice_j: 1})
        for method in METHODS:
            assert decompose(single, method).entries == ((twice_j, 1),)


def test_lambda_binomial_domain():
    with pytest.raises(DomainError):
        lambda_binomial(parse_spins("3/2"), 0)
    with pytest.raises(DomainError):
        lambda_binomial(WORKED, -1)
    with pytest.raises(DomainError):
        lambda_binomial(WORKED, 6)  # beyond the minimum spin


def test_lambda_from_omega_small():
    assert lambda_from_omega(OmegaTable((1, 1))).entries == ((1, 1),)
    assert lambda_from_omega(OmegaTable((1, 2, 1))).entries == ((2, 1), (0, 1))
    with pytest.raises(ValueError):
        lambda_from_omega(OmegaTable((2, 1)))  # Omega_0 must be 1
    with pytest.raises(ValueError):
        lambda_from_omega(OmegaTable((1, 2, 5)))  # dimension audit fails
    with pytest.raises(ValueError):
        # palindromic, and sum lambda (2J+1) = sum Omega = 8, but the
        # differences 1, 0, 1 leave a gap below J_0
        lambda_from_omega(OmegaTable((1, 1, 2, 2, 1, 1)))


def test_difference_decomposition_matches_lambda_from_omega():
    for text in ("1/2^2,1^4", "1^3", "5/2", "1/2,3/2^2,2"):
        table = omega_genfunc(parse_spins(text))
        assert difference_decomposition(table.values, table.twice_j0) == \
            lambda_from_omega(table)


def test_difference_decomposition_reads_a_sequence():
    # entries past the end read as 0: (1, 2) over a span of 6 differences
    # to 1, 1, -2, 0, of which the positive ones stay
    for values in ((1, 2), [1, 2], (1, 2, 0, 0)):
        assert difference_decomposition(values, 6).entries == ((6, 1), (4, 1))
    # the 0 read past the end is a value like any other: after a negative
    # last entry it differences to a positive multiplicity
    assert difference_decomposition((1, -1), 4).entries == ((4, 1), (0, 1))
    # only the half span is read; what lies past it is ignored
    assert difference_decomposition((1, 1, 2, 9, 9, 9), 4).entries == ((4, 1), (0, 1))
    # the empty table of Pauli exclusion, at its own span and at 2J_0
    excluded = oracle_antisym(2, 4)
    assert excluded.values == ()
    assert difference_decomposition(excluded.values, excluded.twice_j0).entries == ()
    assert difference_decomposition(excluded.values, 8).entries == ()
    # the scan keeps a gap below J_0; lambda_from_omega's audit rejects it
    gapped = OmegaTable((1, 1, 2, 2, 1, 1))
    assert difference_decomposition(gapped.values, 5).entries == ((5, 1), (1, 1))
    with pytest.raises(ValueError, match="do not account"):
        lambda_from_omega(gapped)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_difference_decomposition_is_the_first_difference(data):
    # the scan against its definition on any sequence, negatives included,
    # shorter than the head it reads, as long as it or longer: values read
    # as 0 outside the sequence, kappa = 0 .. floor(span / 2), and each
    # positive difference kept at twice_J = span - 2 kappa
    span = data.draw(st.integers(-1, 30))
    size = data.draw(st.integers(0, span // 2 + 5))
    values = data.draw(st.lists(st.integers(-3, 9), min_size=size, max_size=size))
    values = data.draw(st.sampled_from((list, tuple)))(values)

    def omega(n):
        return values[n] if 0 <= n < len(values) else 0

    expected = tuple((span - 2 * kappa, omega(kappa) - omega(kappa - 1))
                     for kappa in range(span // 2 + 1) if omega(kappa) > omega(kappa - 1))
    assert difference_decomposition(values, span).entries == expected


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
    # G_lambda is read from its head and mirrored; the reference is (1 - q)
    # times the full Omega table, its first differences with a 0 on each side
    rng = random.Random(4711)
    cases = [random_multiset(rng) for _ in range(60)] + _route_cases(20261021)
    assert {spins.twice_j0 % 2 for spins in cases} == {0, 1}
    for spins in cases:
        values = omega_genfunc(spins).values
        poly = lambda_genfunc(spins)
        assert list(poly.coeffs) == list(map(sub, (*values, 0), (0, *values))), spins
        coeffs = list(poly.coeffs) + [0] * (spins.twice_j0 + 2 - len(poly.coeffs))
        assert len(coeffs) == spins.twice_j0 + 2
        assert sum(poly.coeffs) == 0
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


def test_binomial_route_matches_the_univariate_sums():
    # for one species the species walk reduces to the single alternating sum
    for twice_j in range(1, 7):
        for num in range(1, 9):
            spins = SpinMultiset.from_entries({twice_j: num})
            for n in range(-1, twice_j * num + 2):
                assert omega_binomial(spins, n) == omega_univariate(twice_j, num, n)
            if num >= 2:
                for kappa in range(spins.distinct_j_count):
                    assert lambda_binomial(spins, kappa) == \
                        lambda_univariate(twice_j, num, kappa)


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
