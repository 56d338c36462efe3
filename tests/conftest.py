"""Shared test helpers.

fold_pairwise is an independent oracle used across the suite: it computes
the full multiplicity distribution by iterated two-spin coupling (the
textbook |j1 - j2| .. j1 + j2 ladder), never touching the package's
generating-function, binomial, or composition machinery.

binom is C(n, k) under the convention the paper's q -> 1 and
Catalan/Riordan identities lean on.

digit_cap sets the interpreter's int/str digit cap for one test.

Hypothesis runs under one profile: derandomized, with no example
database, so two runs draw the same examples.  Its home directory is a
temporary one for the session, so no .hypothesis/ directory is left behind.
"""

from __future__ import annotations

import math
import random
import sys
import tempfile

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from spincg import DecompositionTable, SpinMultiset

settings.register_profile("spincg", derandomize=True, database=None)
settings.load_profile("spincg")


def pytest_configure(config):
    # Hypothesis's pytest plugin caches the constants it reads from local
    # source files under its home directory at collection time, whatever
    # the database setting.
    home = tempfile.TemporaryDirectory()
    set_hypothesis_home_dir(home.name)
    config.add_cleanup(home.cleanup)


@pytest.fixture
def digit_cap():
    """sys.set_int_max_str_digits, with the cap in force before the test put
    back after it; the test is skipped on an interpreter without the cap."""
    get_cap = getattr(sys, "get_int_max_str_digits", None)
    if get_cap is None:
        pytest.skip("this interpreter has no int/str digit cap")
    previous = get_cap()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(previous)


def binom(n: int, k: int) -> int:
    """C(n, k), extended: 0 for k < 0 and for 0 <= n < k, and 1 for k == 0
    with any n, negative too (C(-1, 0) = 1 is the empty product)."""
    if k < 0:
        return 0
    if k == 0:
        return 1
    if n < k:
        return 0
    return math.comb(n, k)


def fold_pairwise(spins: SpinMultiset) -> dict[int, int]:
    """Multiplicities {twice_J: count} by coupling one spin at a time."""
    dist: dict[int, int] | None = None
    for twice_j in spins.twice_spins:
        if dist is None:
            dist = {twice_j: 1}
            continue
        merged: dict[int, int] = {}
        for twice_a, mult in dist.items():
            low = abs(twice_a - twice_j)
            for twice_c in range(low, twice_a + twice_j + 1, 2):
                merged[twice_c] = merged.get(twice_c, 0) + mult
        dist = merged
    assert dist is not None
    return dist


def table_as_dict(table: DecompositionTable) -> dict[int, int]:
    return dict(table.entries)


def random_multiset(
    rng: random.Random,
    max_total: int = 6,
    max_twice: int = 5,
) -> SpinMultiset:
    """Random spin multiset with at most max_total spins."""
    total = rng.randint(1, max_total)
    entries: dict[int, int] = {}
    remaining = total
    while remaining > 0:
        twice_j = rng.randint(1, max_twice)
        take = rng.randint(1, remaining)
        entries[twice_j] = entries.get(twice_j, 0) + take
        remaining -= take
    return SpinMultiset.from_entries(entries)


def random_multiset_bounded_dim(
    rng: random.Random, max_dimension: int, min_dimension: int = 1
) -> SpinMultiset:
    """Random multiset rejection-sampled into a total_dimension window."""
    max_total = 6 if min_dimension <= 1 else 8
    while True:
        spins = random_multiset(rng, max_total=max_total, max_twice=9)
        if min_dimension <= spins.total_dimension <= max_dimension:
            return spins
