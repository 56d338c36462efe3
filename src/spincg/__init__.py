"""Exact Clebsch-Gordan decomposition of arbitrary SU(2) spin collections.

Couple any finite multiset of spins and read off which total spins J occur
and how often, by three independent exact methods; compose identical spins
symmetrically or antisymmetrically through Gaussian polynomials; and count
Catalan numbers, Riordan numbers, isotropic isomers, bounded compositions,
and dice-sum probabilities with the same machinery.  Integer and Fraction
arithmetic throughout; brute-force oracles double-check every fast path.
The paper's other routes, hypergeometric and univariate forms included,
are cross-checks and live in spincg.crosscheck.
"""

from .counting import (
    CompositionSpec,
    catalan,
    count_compositions,
    dice_probability,
    isotropic_isomers,
    parse_composition_spec,
    riordan,
)
# identical-scan in bench/jobs.py reads spincg.lambda_univariate_hypergeometric
from .crosscheck import lambda_univariate_hypergeometric
from .decompose import (
    DecompositionTable,
    METHODS,
    OmegaTable,
    decompose,
    difference_decomposition,
    lambda_binomial,
    lambda_from_omega,
    lambda_genfunc,
    omega_binomial,
    omega_composition,
    omega_genfunc,
    omega_table,
)
from .errors import BudgetExceededError, DomainError, SpinParseError
from .identical import (
    IdenticalSystem,
    antisym_decomposition,
    antisym_genfunc,
    antisym_omega,
    inf_antisym_omega,
    inf_sym_omega,
    sym_decomposition,
    sym_genfunc,
)
from .oracles import (
    DEFAULT_MAX_STATES,
    EnumerationBudget,
    oracle_antisym,
    oracle_omega,
    oracle_qbinom,
    oracle_restricted_partitions,
    oracle_sym,
)
from .qpoly import (
    IntPolynomial,
    partitions_at_most,
    q_analogue,
    q_binomial,
    restricted_partitions,
)
from .spins import SpinMultiset, parse_spins, parse_spin_token, spin_label

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "CompositionSpec",
    "DEFAULT_MAX_STATES",
    "DecompositionTable",
    "DomainError",
    "EnumerationBudget",
    "IdenticalSystem",
    "IntPolynomial",
    "METHODS",
    "OmegaTable",
    "SpinMultiset",
    "SpinParseError",
    "antisym_decomposition",
    "antisym_genfunc",
    "antisym_omega",
    "catalan",
    "count_compositions",
    "decompose",
    "dice_probability",
    "difference_decomposition",
    "inf_antisym_omega",
    "inf_sym_omega",
    "isotropic_isomers",
    "lambda_binomial",
    "lambda_from_omega",
    "lambda_genfunc",
    "omega_binomial",
    "omega_composition",
    "omega_genfunc",
    "omega_table",
    "oracle_antisym",
    "oracle_omega",
    "oracle_qbinom",
    "oracle_restricted_partitions",
    "oracle_sym",
    "parse_composition_spec",
    "parse_spins",
    "parse_spin_token",
    "partitions_at_most",
    "q_analogue",
    "q_binomial",
    "restricted_partitions",
    "riordan",
    "spin_label",
    "sym_decomposition",
    "sym_genfunc",
    "__version__",
]
