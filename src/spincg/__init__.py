"""Exact Clebsch-Gordan decomposition of arbitrary SU(2) spin collections.

Couple any finite multiset of spins and read off which total spins J occur
and how often, by three independent exact methods; compose identical spins
symmetrically or antisymmetrically through Gaussian polynomials; and count
Catalan numbers, Riordan numbers, isotropic isomers, bounded compositions,
and dice-sum probabilities with the same machinery.  Integer and Fraction
arithmetic throughout; brute-force oracles double-check every fast path.
The paper's other routes, hypergeometric and univariate forms included,
are cross-checks and live in spincg.crosscheck.

The package exports exactly each production module's __all__.  Importing
it loads no module: the first lookup of an exported name on the package
loads the whole library at once (PEP 562).  The other submodules (cli,
crosscheck, hypergeom, util) load alone, so spincg.cli, in either import
form, and each of its verbs load only the modules they use.
"""

import sys
from types import ModuleType

__version__ = "0.1.0"

_PRODUCTION = (
    "counting", "decompose", "errors", "identical", "oracles", "qpoly", "spins",
)
_INTERNAL = ("cli", "crosscheck", "hypergeom", "util")


def _library() -> dict:
    """The package namespace, with every production module's __all__ bound in it.

    The whole library loads at once, not name by name, because
    bench/layers.py reads every module it wraps from sys.modules.
    """
    namespace = globals()
    if "__all__" in namespace:
        return namespace
    from importlib import import_module

    exported = ["__version__"]
    for name in _PRODUCTION:
        module = import_module(f"{__name__}.{name}")
        exported += module.__all__
        namespace.update((n, getattr(module, n)) for n in module.__all__)
    # identical-scan in bench/jobs.py reads spincg.lambda_univariate_hypergeometric
    from .crosscheck import lambda_univariate_hypergeometric

    namespace["lambda_univariate_hypergeometric"] = lambda_univariate_hypergeometric
    namespace["__all__"] = exported  # bound last, it marks the load as done
    return namespace


def __getattr__(name: str):
    # from spincg import cli looks the name up before it imports the submodule
    if name not in _INTERNAL and name in _library():
        return _library()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(_library())


class _Package(ModuleType):
    def __setattr__(self, name: str, value) -> None:
        # The import system binds each submodule it loads on the package;
        # spincg.decompose stays the function, not its module.
        if name != "decompose" or not isinstance(value, ModuleType):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
