"""Per-layer timing of spincg, taken from outside the program.

install() swaps the public functions of each spincg module, wherever a
spincg module namespace holds them, and IntPolynomial.__mul__, for wrappers
that time every call.  A wrapped call's self time is its duration minus the
time spent in the wrapped calls it makes; the wrappers' own bookkeeping is
charged to no layer.  Times are CPU time, the clock run.py times jobs
with.  Every function maps to one layer, and the layers report self time in
ms and, where named, call counts and work counts.
uninstall() puts the originals back.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from types import FunctionType

import spincg.cli  # noqa: F401  (loads the module so it can be wrapped)
from spincg import hypergeom
from spincg.qpoly import IntPolynomial

# (layer, time metric, calls metric or None, module, functions or None for
# every public function the module defines)
LAYERS = (
    ("cli.build_parser", "cli.build_parser_ms", "cli.build_parser_calls",
     "cli", ("build_parser",)),
    ("cli.main", "cli.main_self_ms", None, "cli", ("main",)),
    ("spins.parse", "spins.parse_ms", "spins.parse_calls",
     "spins", ("parse_spins", "parse_spin_token")),
    ("decompose.omega_genfunc", "decompose.omega_genfunc_ms", None,
     "decompose", ("omega_genfunc",)),
    ("decompose.lambda_from_omega", "decompose.lambda_from_omega_ms", None,
     "decompose", ("lambda_from_omega",)),
    ("decompose.per_n", "decompose.per_n_ms", "decompose.per_n_calls",
     "decompose", ("omega_binomial", "omega_composition", "lambda_binomial")),
    ("decompose.difference_decomposition", "decompose.difference_decomposition_ms",
     None, "decompose", ("difference_decomposition",)),
    ("qpoly.q_binomial", "qpoly.q_binomial_ms", "qpoly.q_binomial_calls",
     "qpoly", ("q_binomial",)),
    ("qpoly.restricted_partitions", "qpoly.restricted_partitions_ms",
     "qpoly.restricted_partitions_calls", "qpoly", ("restricted_partitions",)),
    ("identical", "identical.self_ms", None, "identical", None),
    ("counting", "counting.self_ms", None, "counting", None),
    ("oracles", "oracles.ms", None, "oracles", None),
    ("hypergeom", "hypergeom.pfq_ms", None, "hypergeom", None),
)
MUL = ("qpoly.mul", "qpoly.mul_ms", "qpoly.mul_calls")
COUNTS = ("decompose.omega_terms", "qpoly.mul_coeff_products", "oracles.states",
          "hypergeom.pfq_terms")

_termination_index = hypergeom.termination_index


def _oracle_states(name: str, args: tuple) -> int:
    """States an oracle enumerates, from its arguments; 0 for the partition walk."""
    if name == "oracle_omega":
        return args[0].total_dimension
    if name == "oracle_sym":
        return math.comb(args[0] + args[1], args[1])
    if name == "oracle_antisym":
        return math.comb(args[0] + 1, args[1])
    if name == "oracle_qbinom":
        return math.comb(args[0], args[1]) if 0 <= args[1] <= args[0] else 0
    return 0


def _counter(function: str):
    """The work count a call adds, computed after it returns, or None."""
    if function == "omega_genfunc":
        return lambda args, result: ("decompose.omega_terms", len(result.values))
    if function == "eval_terminating_pfq":
        return lambda args, result: ("hypergeom.pfq_terms", _termination_index(args[0]))
    if function.startswith("oracle_"):
        return lambda args, result: ("oracles.states", _oracle_states(function, args))
    if function == "__mul__":
        return lambda args, result: ("qpoly.mul_coeff_products",
                                     sum(1 for c in args[0].coeffs if c)
                                     * len(args[1].coeffs))
    return None


class Tracer:
    """Self times and counts per layer while installed."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counts = dict.fromkeys(COUNTS, 0)
        self.by_function: dict[str, list] = {}  # name -> [calls, self seconds]
        self._stack = [[0.0]]  # child time of each open call; [0] is the caller
        self._undo: list[tuple[object, str, object]] = []

    @property
    def top_level_seconds(self) -> float:
        """Time the caller spent inside wrapped calls, wrapper costs included."""
        return self._stack[0][0]

    def _wrap(self, fn, layer: str, qualname: str):
        stack, clock, counts = self._stack, time.process_time, self.counts
        stats = self.by_function.setdefault(qualname, [0, 0.0])
        count = _counter(fn.__name__)
        self.seconds.setdefault(layer, 0.0)
        self.calls.setdefault(layer, 0)
        failed = object()

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            enter = clock()
            frame = [0.0]
            stack.append(frame)
            result = failed
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                own = clock() - start - frame[0]
                stack.pop()
                self.seconds[layer] += own
                self.calls[layer] += 1
                stats[0] += 1
                stats[1] += own
                if count is not None and result is not failed:
                    key, amount = count(args, result)
                    counts[key] += amount
                stack[-1][0] += clock() - enter

        return traced

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer, _, _, module_name, names in LAYERS:
            module = sys.modules[f"spincg.{module_name}"]
            if names is None:
                names = [n for n in module.__all__
                         if isinstance(getattr(module, n), FunctionType)
                         and getattr(module, n).__module__ == module.__name__]
            for name in names:
                fn = getattr(module, name)
                wrappers[fn] = self._wrap(fn, layer, f"{module_name}.{name}")
        for module_name, module in list(sys.modules.items()):
            if module_name != "spincg" and not module_name.startswith("spincg."):
                continue
            for name, value in list(vars(module).items()):
                if isinstance(value, FunctionType) and value in wrappers:
                    self._undo.append((module, name, value))
                    setattr(module, name, wrappers[value])
        original = IntPolynomial.__mul__
        self._undo.append((IntPolynomial, "__mul__", original))
        IntPolynomial.__mul__ = self._wrap(original, MUL[0], "qpoly.IntPolynomial.__mul__")

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    def metrics(self, slowdown: float) -> dict[str, tuple[float, str]]:
        """Every layer metric as (value, unit), times divided by the host's slowdown."""
        out: dict[str, tuple[float, str]] = {}
        for layer, ms_name, calls_name, _, _ in LAYERS + ((MUL[0], MUL[1], MUL[2], None, None),):
            out[ms_name] = (self.seconds.get(layer, 0.0) * 1000 / slowdown, "ms")
            if calls_name is not None:
                out[calls_name] = (self.calls.get(layer, 0), "count")
        for name, value in self.counts.items():
            out[name] = (value, "count")
        return out
