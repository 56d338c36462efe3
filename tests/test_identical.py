"""Symmetric and antisymmetric compositions of identical spins."""

from __future__ import annotations

import importlib
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import antisym_genfunc, gaussian_at_q, identity_holds, table_as_dict
from spincg import (
    DomainError,
    IdenticalSystem,
    SpinMultiset,
    antisym_decomposition,
    decompose,
    oracle_antisym,
    oracle_sym,
    partitions_at_most,
    q_binomial,
    restricted_partitions,
    sym_decomposition,
)
from spincg.decompose import difference_decomposition
from spincg.qpoly import _gaussian_coefficients

SRC = Path(__file__).resolve().parent.parent / "src"


def test_system_validation():
    system = IdenticalSystem(3, 2)
    # N(N-1)/2 = 1, the minimal excitation of an antisymmetric state, lowers J_0 by 1
    shift = system.count * (system.count - 1) // 2
    assert shift == 1 and antisym_decomposition(system).twice_j0 == 6 - 2 * shift
    assert system.as_multiset() == SpinMultiset.from_entries({3: 2})
    assert system.as_multiset().canonical() == "3/2^2"
    with pytest.raises(DomainError):
        IdenticalSystem(0, 2)
    with pytest.raises(DomainError):
        IdenticalSystem(2, 0)
    with pytest.raises(DomainError):
        IdenticalSystem(-1, 1)


def test_genfunc_examples():
    assert q_binomial(1 + 2, 2).coeffs == (1, 1, 1)
    assert antisym_genfunc(1, 2).coeffs == (0, 1)
    # exclusion: more fermions than levels
    assert antisym_genfunc(1, 3).coeffs == ()
    assert antisym_genfunc(3, 4).coeffs == (
        0, 0, 0, 0, 0, 0, 1,
    )


def test_sym_coefficients_are_bounded_partitions():
    for twice_j in range(1, 6):
        for num in range(1, 5):
            poly = q_binomial(twice_j + num, num)
            for n in range(twice_j * num + 1):
                assert poly[n] == restricted_partitions(twice_j, num, n)


def test_antisym_coefficients_are_shifted_partitions():
    for twice_j in range(1, 6):
        for num in range(1, twice_j + 2):
            shift = num * (num - 1) // 2
            poly = antisym_genfunc(twice_j, num)
            for n in range(twice_j * num + 1):
                expected = restricted_partitions(twice_j + 1 - num, num, n - shift)
                assert poly[n] == expected


def test_decomposition_examples():
    assert table_as_dict(sym_decomposition(IdenticalSystem(2, 3))) == {6: 1, 2: 1}
    assert table_as_dict(antisym_decomposition(IdenticalSystem(3, 2))) == {4: 1, 0: 1}
    assert table_as_dict(sym_decomposition(IdenticalSystem(1, 2))) == {2: 1}
    assert table_as_dict(antisym_decomposition(IdenticalSystem(1, 2))) == {0: 1}
    # the antisymmetric table of (2j, N) is the symmetric table of the
    # complementary spin 2j + 1 - N, and the singlet alone at N = 2j + 1
    for twice_j in range(1, 13):
        for num in range(1, twice_j + 1):
            assert antisym_decomposition(IdenticalSystem(twice_j, num)) == \
                sym_decomposition(IdenticalSystem(twice_j + 1 - num, num))
        assert antisym_decomposition(IdenticalSystem(twice_j, twice_j + 1)).entries == ((0, 1),)
    # the symmetric multiplicities are the coefficients of (1 - q) [2j + N
    # choose N]_q up to the middle, lambda_kappa = c_kappa - c_{kappa-1},
    # kept where nonzero at twice_J = 2J_0 - 2 kappa: written out here from
    # the full Gaussian polynomial up to 2J_0 = 1200, past the word boundary
    # C(67, 33), beyond which each table costs milliseconds.  The
    # antisymmetric table equals one difference scan over its Omega table,
    # shifted by N(N-1)/2 and left empty by exclusion, which also reaches
    # every symmetric table of 2j + N <= 65 through the complementary spin.
    # Up to 2J_0 = 1200 both tables must satisfy the identity mod P against
    # (q - 1) [2j' + N choose N]_q, 2j' = 2j for the symmetric table and 2j +
    # 1 - N for the antisymmetric one
    for twice_j in range(1, 65):
        for num in range(1, twice_j + 4):
            system = IdenticalSystem(twice_j, num)
            twice_j0 = twice_j * num
            if twice_j0 <= 1200:
                coeffs = q_binomial(twice_j + num, num).coeffs
                lams = [coeffs[0]] + [coeffs[kappa] - coeffs[kappa - 1]
                                      for kappa in range(1, twice_j0 // 2 + 1)]
                expected = tuple((twice_j0 - 2 * kappa, lam)
                                 for kappa, lam in enumerate(lams) if lam)
                sym = sym_decomposition(system)
                assert sym.entries == expected, (twice_j, num)
                for table, prime in ((sym, twice_j),
                                     (antisym_decomposition(system), twice_j + 1 - num)):
                    assert identity_holds(table, prime * num,
                                          gaussian_at_q(prime + num, num)), (twice_j, num)
            anti = []
            if num <= twice_j + 1:
                shift = num * (num - 1) // 2
                top = twice_j0 // 2 - shift  # >= 0
                anti = [0] * shift + \
                    _gaussian_coefficients(twice_j + 1, num, top)
            assert antisym_decomposition(system) == \
                difference_decomposition(anti, twice_j0), (twice_j, num)


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


def test_identical_tables_are_audited(monkeypatch):
    # a Gaussian kernel with its last (middle) coefficient off by one yields
    # a table whose total dimension is not C(2j + N, N), or C(2j + 1, N) for
    # the antisymmetric table, and the audit rejects it
    identical = importlib.import_module("spincg.identical")
    exact = identical._gaussian_coefficients

    def raised(*args):
        values = list(exact(*args))
        values[-1] += 1
        return values

    monkeypatch.setattr(identical, "_gaussian_coefficients", raised)
    for twice_j in range(1, 6):
        for num in range(1, 6):
            system = IdenticalSystem(twice_j, num)
            with pytest.raises(ValueError, match="inconsistent symmetric table"):
                sym_decomposition(system)
            if num <= twice_j + 1:
                with pytest.raises(ValueError, match="inconsistent symmetric table"):
                    antisym_decomposition(system)
    assert not antisym_decomposition(IdenticalSystem(2, 4))  # exclusion builds no table


def test_identical_audit_survives_optimized_mode():
    # python -O strips asserts (the script's first assert proves it); the
    # audit of the symmetric and antisymmetric tables must still raise there
    script = (
        "import importlib, sys\n"
        "assert False, 'asserts are on'\n"
        "i = importlib.import_module('spincg.identical')\n"
        "exact = i._gaussian_coefficients\n"
        "def raised(*args):\n"
        "    values = list(exact(*args))\n"
        "    values[-1] += 1\n"
        "    return values\n"
        "i._gaussian_coefficients = raised\n"
        "for name in ('sym_decomposition', 'antisym_decomposition'):\n"
        "    try:\n"
        "        getattr(i, name)(i.IdenticalSystem(5, 3))\n"
        "    except ValueError as exc:\n"
        "        print(name, exc)\n"
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
        "sym_decomposition inconsistent symmetric table for 2j = 5, N = 3",
        "antisym_decomposition inconsistent symmetric table for 2j = 3, N = 3",
    ]


def test_matches_oracles():
    for twice_j in range(1, 5):
        for num in range(1, 5):
            sym = q_binomial(twice_j + num, num)
            sym_counts = oracle_sym(twice_j, num)
            for n in range(twice_j * num + 1):
                assert sym[n] == sym_counts.omega(n)
            anti = antisym_genfunc(twice_j, num)
            anti_counts = oracle_antisym(twice_j, num)
            for n in range(twice_j * num + 1):
                assert anti[n] == anti_counts.omega(n)


def test_unbounded_level_limits():
    # for fixed n the bounded counts saturate once 2j is large enough, at
    # p_N(n), partitions of n into at most N parts
    for num in range(1, 6):
        shift = num * (num - 1) // 2
        for n in range(0, 15):
            assert partitions_at_most(num, n) == restricted_partitions(n, num, n)
            big = max(n, 1) + num
            assert antisym_genfunc(big, num)[n + shift] == partitions_at_most(num, n)
    # there the antisymmetric count is the symmetric one shifted by C(N,2)
    for num in range(1, 6):
        shift = num * (num - 1) // 2
        for n in range(0, 25):
            assert antisym_genfunc(n + num, num)[n + shift] == \
                q_binomial(n + 2 * num, num)[n]
    # and nothing lies below the shift
    assert partitions_at_most(3, 1 - 3) == 0
    assert antisym_genfunc(9, 3)[1] == 0
