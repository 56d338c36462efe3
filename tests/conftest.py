"""Shared test helpers.

fold_pairwise is an independent oracle used across the suite: it computes
the full multiplicity distribution by iterated two-spin coupling (the
textbook |j1 - j2| .. j1 + j2 ladder), never touching the package's
generating-function, binomial, or composition machinery.

binom is C(n, k) under the convention the paper's q -> 1 and
Catalan/Riordan identities lean on; antisym_genfunc is the paper's
antisymmetric generating function, written with q_binomial.

identity_holds checks a multiplicity table against its generating function
modulo the Mersenne prime P = 2^61 - 1 at one point q = Q, with
omega_at_q and gaussian_at_q giving the generating functions' values there
by the product formulas and value_at_q a polynomial's.

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

from spincg import DecompositionTable, IntPolynomial, SpinMultiset, q_binomial

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


def antisym_genfunc(twice_j: int, num: int) -> IntPolynomial:
    """q^(N(N-1)/2) [2j+1 choose N]_q: N identical spins j, antisymmetrized.

    The zero polynomial under exclusion (N > 2j + 1), where q_binomial is."""
    return IntPolynomial((0,) * (num * (num - 1) // 2) + q_binomial(twice_j + 1, num).coeffs)


P = 2**61 - 1
Q = 37  # a primitive root mod P: Q^i - 1 is nonzero for 0 < i < P - 1


def value_at_q(coeffs, q: int = Q) -> int:
    """sum_n coeffs[n] q^n mod P by Horner's rule, at q = Q unless given."""
    value = 0
    for coeff in reversed(coeffs):
        value = (value * q + coeff) % P
    return value


def gaussian_at_q(n: int, k: int) -> int:
    """[n choose k]_q at q = Q, mod P, by the product formula; 0 unless 0 <= k <= n."""
    if not 0 <= k <= n:
        return 0
    top = bottom = 1
    for i in range(1, k + 1):
        top = top * (pow(Q, n - k + i, P) - 1) % P
        bottom = bottom * (pow(Q, i, P) - 1) % P
    return top * pow(bottom, -1, P) % P


def omega_at_q(spins: SpinMultiset) -> int:
    """prod_a [d_a]_q^(N_a) = (q - 1)^(-N) prod_a (q^(d_a) - 1)^(N_a) at q = Q, mod P."""
    value = pow(Q - 1, -spins.num_spins, P)
    for twice_j, mult in spins.entries:
        value = value * pow(pow(Q, twice_j + 1, P) - 1, mult, P) % P
    return value


def identity_holds(table: DecompositionTable, twice_j0: int, omega: int) -> bool:
    """Whether sum_kappa lambda_kappa q^kappa (q^(2J_kappa + 1) - 1) = (q - 1) omega mod P.

    J_kappa = J_0 - kappa, and omega is the generating function sum_n
    Omega_n q^n at q = Q, to which each spin J_kappa adds q^kappa [2J_kappa + 1]_q.
    A wrong table passes only if a nonzero polynomial of degree at most
    2J_0 + 1 has the root Q.  Written out densely, the table is read twice,
    at q and at 1/q, since q^kappa (q^(2J_kappa + 1) - 1) = q^(2J_0 + 1)
    q^-kappa - q^kappa.
    """
    lams = [0] * ((twice_j0 - table.twice_js[-1]) // 2 + 1 if table else 0)
    for twice_j, mult in table.entries:
        lams[(twice_j0 - twice_j) // 2] = mult
    down = value_at_q(lams, pow(Q, -1, P))
    return (pow(Q, twice_j0 + 1, P) * down - value_at_q(lams) - (Q - 1) * omega) % P == 0


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
