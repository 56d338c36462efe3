"""Symmetric and antisymmetric compositions of identical spins."""

from __future__ import annotations

import math

import pytest

from conftest import table_as_dict
from spincg import (
    IdenticalSystem,
    SpinMultiset,
    antisym_decomposition,
    antisym_genfunc,
    antisym_omega,
    decompose,
    inf_antisym_omega,
    inf_sym_omega,
    oracle_antisym,
    oracle_sym,
    restricted_partitions,
    sym_decomposition,
    sym_genfunc,
)


def test_system_validation():
    system = IdenticalSystem(3, 2)
    assert system.exclusion_shift == 1
    assert system.as_multiset() == SpinMultiset.from_entries({3: 2})
    assert system.canonical() == "3/2^2"
    with pytest.raises(ValueError):
        IdenticalSystem(0, 2)
    with pytest.raises(ValueError):
        IdenticalSystem(2, 0)
    with pytest.raises(ValueError):
        IdenticalSystem(-1, 1)


def test_genfunc_examples():
    assert sym_genfunc(IdenticalSystem(1, 2)).coeffs == (1, 1, 1)
    assert antisym_genfunc(IdenticalSystem(1, 2)).coeffs == (0, 1)
    # exclusion: more fermions than levels
    assert antisym_genfunc(IdenticalSystem(1, 3)).coeffs == ()
    assert antisym_genfunc(IdenticalSystem(3, 4)).coeffs == (
        0, 0, 0, 0, 0, 0, 1,
    )


def test_sym_coefficients_are_bounded_partitions():
    for twice_j in range(1, 6):
        for num in range(1, 5):
            poly = sym_genfunc(IdenticalSystem(twice_j, num))
            for n in range(twice_j * num + 1):
                assert poly[n] == restricted_partitions(twice_j, num, n)


def test_antisym_coefficients_are_shifted_partitions():
    for twice_j in range(1, 6):
        for num in range(1, twice_j + 2):
            system = IdenticalSystem(twice_j, num)
            poly = antisym_genfunc(system)
            for n in range(twice_j * num + 1):
                assert poly[n] == antisym_omega(system, n)
                expected = restricted_partitions(
                    twice_j + 1 - num, num, n - system.exclusion_shift
                )
                assert poly[n] == expected


def test_decomposition_examples():
    assert table_as_dict(sym_decomposition(IdenticalSystem(2, 3))) == {6: 1, 2: 1}
    assert table_as_dict(antisym_decomposition(IdenticalSystem(3, 2))) == {4: 1, 0: 1}
    assert table_as_dict(sym_decomposition(IdenticalSystem(1, 2))) == {2: 1}
    assert table_as_dict(antisym_decomposition(IdenticalSystem(1, 2))) == {0: 1}


def test_exclusion_gives_empty_table():
    table = antisym_decomposition(IdenticalSystem(2, 4))
    assert not table
    assert table.total_dimension == 0


def test_top_spin_multiplicities():
    for twice_j in range(1, 6):
        for num in range(2, 5):
            sym = sym_decomposition(IdenticalSystem(twice_j, num))
            assert sym.entries[0] == (twice_j * num, 1)
            if num <= twice_j + 1:
                anti = antisym_decomposition(IdenticalSystem(twice_j, num))
                top = num * (2 * twice_j // 2 + 1 - num)  # N(2j + 1 - N)
                assert anti.entries[0] == (top, 1)


def test_pair_exchange_split():
    # for two identical spins the full product splits exactly into the
    # symmetric (even 2J steps from the top) and antisymmetric halves
    for twice_j in range(1, 7):
        system = IdenticalSystem(twice_j, 2)
        full = table_as_dict(decompose(system.as_multiset()))
        sym = table_as_dict(sym_decomposition(system))
        anti = table_as_dict(antisym_decomposition(system))
        assert set(sym) | set(anti) == set(full)
        assert not set(sym) & set(anti)
        merged = {**sym, **anti}
        assert merged == full
        assert all((twice_j * 2 - tj) % 4 == 0 for tj in sym)


def test_total_dimensions():
    for twice_j in range(1, 6):
        for num in range(1, 6):
            dim = twice_j + 1
            sym = sym_decomposition(IdenticalSystem(twice_j, num))
            assert sym.total_dimension == math.comb(dim + num - 1, num)
            anti = antisym_decomposition(IdenticalSystem(twice_j, num))
            assert anti.total_dimension == math.comb(dim, num)


def test_matches_oracles():
    for twice_j in range(1, 5):
        for num in range(1, 5):
            system = IdenticalSystem(twice_j, num)
            sym = sym_genfunc(system)
            sym_counts = oracle_sym(twice_j, num)
            for n in range(twice_j * num + 1):
                assert sym[n] == sym_counts.omega(n)
            anti_counts = oracle_antisym(twice_j, num)
            for n in range(twice_j * num + 1):
                assert antisym_omega(system, n) == anti_counts.omega(n)


def test_unbounded_level_limits():
    # for fixed n the bounded counts saturate once 2j is large enough
    for num in range(1, 6):
        for n in range(0, 15):
            assert inf_sym_omega(num, n) == restricted_partitions(n, num, n)
            big = IdenticalSystem(max(n, 1) + num, num)
            assert antisym_omega(big, n + big.exclusion_shift) == \
                inf_antisym_omega(num, n + big.exclusion_shift)
    # the antisymmetric count is the symmetric one shifted by C(N,2)
    for num in range(1, 6):
        shift = num * (num - 1) // 2
        for n in range(0, 25):
            assert inf_antisym_omega(num, n + shift) == inf_sym_omega(num, n)
    with pytest.raises(ValueError):
        inf_sym_omega(0, 3)
    assert inf_antisym_omega(3, 1) == 0
    with pytest.raises(ValueError):
        inf_antisym_omega(0, 1)
