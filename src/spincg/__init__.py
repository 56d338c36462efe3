"""Exact Clebsch-Gordan decomposition of arbitrary SU(2) spin collections.

Couple any finite multiset of spins and read off which total spins J occur
and how often, by three independent exact methods; compose identical spins
symmetrically or antisymmetrically through Gaussian polynomials; and count
Catalan numbers, Riordan numbers, isotropic isomers, bounded compositions,
and dice-sum probabilities with the same machinery.  Integer and Fraction
arithmetic throughout; brute-force oracles double-check every fast path.
The paper's other routes, hypergeometric and univariate forms included,
are cross-checks and live in spincg.crosscheck.

The package exports exactly each production module's __all__.
"""

from . import counting, decompose, errors, identical, oracles, qpoly, spins

__version__ = "0.1.0"

__all__ = ["__version__"]
__all__ += counting.__all__
# read before the star import below rebinds decompose to the function
__all__ += decompose.__all__
__all__ += errors.__all__
__all__ += identical.__all__
__all__ += oracles.__all__
__all__ += qpoly.__all__
__all__ += spins.__all__

from .counting import *
from .decompose import *
from .errors import *
from .identical import *
from .oracles import *
from .qpoly import *
from .spins import *

# identical-scan in bench/jobs.py reads spincg.lambda_univariate_hypergeometric
from .crosscheck import lambda_univariate_hypergeometric
