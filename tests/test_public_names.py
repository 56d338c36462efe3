"""Every exported name resolves, and so does every name the benchmark reads.

bench/layers.py wraps spincg functions by module and name, and bench/jobs.py
calls spincg.<name> on the package, so a route moved or renamed without them
would otherwise break only the benchmark.  The package exports exactly
the __all__ of each production module; the cross-checks live in
spincg.crosscheck, which no production module imports.  The package loads
its modules on demand, so fresh interpreters check what importing the
parser, running a verb and a star import load and bind.  Scans of each
module's ast check its imports and argparse use, and that it holds no
assert, __debug__ or sys.flags read, the only things python -O changes.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import spincg
from spincg.cli import build_parser

BENCH = Path(__file__).resolve().parent.parent / "bench"
LAYERS_FILE = BENCH / "layers.py"
JOBS_FILE = BENCH / "jobs.py"
PACKAGE = Path(spincg.__file__).resolve().parent
PRODUCTION = ("counting", "decompose", "errors", "identical", "oracles", "qpoly", "spins")

# The public API: what a CLI verb reaches, with the types and errors it returns
# or raises.  Each name no verb reaches says why it is exported.
PUBLIC_NAMES = [
    "BudgetExceededError",
    "DecompositionTable",
    "DomainError",
    "IdenticalSystem",
    "IntPolynomial",
    "OmegaTable",
    "SpinMultiset",
    "SpinParseError",
    "__version__",  # the package's version, which no verb prints
    "antisym_decomposition",
    "catalan",  # one term by name; the catalan verb runs counting._sequence
    "count_compositions",
    "decompose",
    "dice_probability",
    "difference_decomposition",
    "isotropic_isomers",
    "lambda_from_omega",
    "lambda_genfunc",
    "omega_binomial",  # no verb names it; _omega_at's route for short sums
    "omega_genfunc",
    "oracle_antisym",
    "oracle_omega",
    "oracle_sym",
    "parse_composition_spec",
    "parse_spin_token",
    "parse_spins",
    "partitions_at_most",  # bench/jobs.py's deep-span job reads it
    "q_binomial",
    "restricted_partitions",
    "riordan",  # one term by name; the riordan verb runs counting._sequence
    "spin_label",
    "sym_decomposition",
]
# Reached by no verb and not exported; each is read from its module.
UNEXPORTED = {
    "crosscheck": ("q_analogue",),
    "decompose": ("METHODS", "lambda_binomial", "omega_composition"),
    "oracles": ("DEFAULT_MAX_STATES", "oracle_restricted_partitions"),
}


def _fresh(code: str) -> list[str]:
    """Output lines of code run in a fresh interpreter that imports spincg from here.

    -S keeps site hooks from importing modules before the code runs.
    """
    prelude = f"import sys; sys.path.insert(0, {str(PACKAGE.parent)!r})\n"
    result = subprocess.run([sys.executable, "-S", "-c", prelude + code],
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()


def test_exported_and_benchmark_layer_names_resolve():
    missing = [f"spincg.{name}" for name in spincg.__all__ if not hasattr(spincg, name)]
    spec = importlib.util.spec_from_file_location("_bench_layers", LAYERS_FILE)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    assert layers.LAYERS
    for _, _, _, module_name, names in layers.LAYERS:
        module = importlib.import_module(f"spincg.{module_name}")
        for name in module.__all__ if names is None else names:
            if not hasattr(module, name):
                missing.append(f"spincg.{module_name}.{name}")
    assert missing == []


def test_package_all_is_the_production_modules_all():
    # a new module must be exported here or named as internal below
    modules = {info.name for info in pkgutil.iter_modules(spincg.__path__)}
    assert modules == {*PRODUCTION, "cli", "crosscheck", "hypergeom"}
    # the package's own split, which keeps an internal name from loading the library
    assert sorted(spincg._PRODUCTION + spincg._INTERNAL) == sorted(modules)
    owner = {}
    for module_name in PRODUCTION:
        module = importlib.import_module(f"spincg.{module_name}")
        for name in module.__all__:
            # a star import lets the later of two modules win silently
            assert owner.setdefault(name, module_name) == module_name, name
            assert getattr(spincg, name) is getattr(module, name), name
    assert len(spincg.__all__) == len(set(spincg.__all__))
    assert sorted(spincg.__all__) == sorted(["__version__", *owner])
    # decompose names a submodule and its function; the package keeps the function
    assert spincg.decompose is importlib.import_module("spincg.decompose").decompose


def test_package_all_is_the_pinned_public_api():
    assert PUBLIC_NAMES == sorted(PUBLIC_NAMES)
    assert sorted(spincg.__all__) == PUBLIC_NAMES
    for module_name, names in UNEXPORTED.items():
        module = importlib.import_module(f"spincg.{module_name}")
        for name in names:
            assert hasattr(module, name) and name not in PUBLIC_NAMES, name


def test_every_module_all_resolves():
    # a name moved out of a module but left in its __all__ fails here
    modules = [info.name for info in pkgutil.iter_modules(spincg.__path__)]
    assert "crosscheck" in modules
    missing = []
    for module_name in modules:
        module = importlib.import_module(f"spincg.{module_name}")
        missing += [f"spincg.{module_name}.{name}"
                    for name in getattr(module, "__all__", ())
                    if not hasattr(module, name)]
    assert missing == []


def test_benchmark_job_names_resolve():
    names = set(re.findall(r"\bspincg\.(\w+)", JOBS_FILE.read_text()))
    assert "lambda_univariate_hypergeometric" in names
    submodules = {info.name for info in pkgutil.iter_modules(spincg.__path__)}
    missing = sorted(name for name in names
                     if name not in submodules and not hasattr(spincg, name))
    assert missing == []


def _imports(path: Path) -> set[str]:
    """Modules and names a source file imports; package-relative ones start with '.'."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            found.add(base)
            joint = "" if base.endswith(".") else "."
            found.update(f"{base}{joint}{alias.name}" for alias in node.names)
    return {"." + name[len("spincg."):] if name.startswith("spincg.") else name
            for name in found}


def test_crosscheck_stays_out_of_production_imports():
    sources = sorted(PACKAGE.glob("*.py"))
    assert {"crosscheck", "decompose", "qpoly"} <= {path.stem for path in sources}
    for path in sources:
        found = _imports(path)
        if path.stem not in ("__init__", "crosscheck"):
            assert ".crosscheck" not in found, path.name
        if path.stem in ("decompose", "qpoly"):
            cross_only = {"fractions", ".hypergeom", "functools.lru_cache"}
            assert not found & cross_only, path.name
    # the cross-checks run no production kernel: of the package they read
    # errors, hypergeom and the IntPolynomial value, nothing else
    relative = {name for name in _imports(PACKAGE / "crosscheck.py") if name.startswith(".")}
    relative -= {".qpoly", ".qpoly.IntPolynomial"}
    assert {name.split(".")[1] for name in relative} <= {"errors", "hypergeom"}, relative


def test_no_unused_import_in_src():
    # every name a module imports, at any depth and for annotations too, is
    # read somewhere in it or exported by its __all__
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        module = spincg if path.stem == "__init__" else \
            importlib.import_module(f"spincg.{path.stem}")
        nodes = list(ast.walk(ast.parse(path.read_text())))
        used = {node.id for node in nodes if isinstance(node, ast.Name)}
        used.update(getattr(module, "__all__", ()))
        for node in nodes:
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or \
                    getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    unused.append(f"{path.name}:{node.lineno}: {name}")
    assert unused == []


def _optimized_mode_reads(source: str, name: str) -> list[str]:
    """Where source does what python -O changes: an assert, __debug__ or sys.flags."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Assert):
            found.append(f"{name}:{node.lineno}: assert")
        elif isinstance(node, ast.Name) and node.id == "__debug__":
            found.append(f"{name}:{node.lineno}: __debug__")
        elif isinstance(node, ast.Attribute) and node.attr == "flags" and \
                isinstance(node.value, ast.Name) and node.value.id == "sys":
            found.append(f"{name}:{node.lineno}: sys.flags")
    return found


def test_src_runs_the_same_under_optimized_mode():
    # python -O drops assert statements and __debug__ code and sets
    # sys.flags.optimize, and changes nothing else a module can see; so a
    # src/ that uses none of the three runs the same program under -O, and
    # every audit stays an if/raise that its fault test shows firing
    planted = "assert x\nif __debug__:\n    pass\nsys.flags.optimize\n"
    assert _optimized_mode_reads(planted, "planted") == [
        "planted:1: assert", "planted:2: __debug__", "planted:4: sys.flags"]
    sources = sorted(PACKAGE.glob("*.py"))
    assert {*PRODUCTION, "cli"} <= {path.stem for path in sources}
    found = [line for path in sources
             for line in _optimized_mode_reads(path.read_text(), path.name)]
    assert found == []


def test_no_private_argparse_attribute_in_src():
    # CPython may rename argparse's private attributes in any release, so
    # no module may read one of those found on build_parser()'s objects
    root = build_parser()
    verb = root._actions[-1].choices["cgd"]
    private = {name for obj in (root, verb, *root._actions, *verb._actions)
               for name in dir(obj)
               if name.startswith("_") and not name.startswith("__")}
    assert {"_actions", "_defaults", "_option_string_actions"} <= private
    used = [f"{path.name}:{node.lineno}: .{node.attr}"
            for path in sorted(PACKAGE.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and node.attr in private]
    assert used == []


def test_building_the_parser_loads_no_library_module():
    # from spincg import cli asks the package for cli before it imports it
    for code in ("import spincg.cli; spincg.cli.build_parser()",
                 "from spincg import cli; cli.build_parser()"):
        loaded = _fresh(
            f"{code}\n"
            "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'spincg'))\n"
            "print(*[m for m in ('dataclasses', 'fractions', 'decimal', 'json')"
            " if m in sys.modules])\n")
        assert loaded == ["spincg spincg.cli spincg.errors", ""], code


def test_a_verb_loads_only_its_modules_and_decompose_stays_the_function():
    # the import system binds spincg.decompose to the module cgd imports;
    # the package keeps the function there
    lines = _fresh(
        "from spincg.cli import main\n"
        "assert main(['cgd', '--spins', '1']) == 0\n"
        "print(*sorted(m for m in sys.modules if m.startswith('spincg.')))\n"
        "import spincg\n"
        "print(spincg.decompose is sys.modules['spincg.decompose'].decompose)\n")
    assert lines[:3] == ["spins: 1", "total dimension: 3", "J = 1: 1"]
    loaded = set(lines[3].split())
    assert "spincg.decompose" in loaded
    assert not loaded & {f"spincg.{m}" for m in
                         ("identical", "counting", "oracles", "crosscheck", "hypergeom")}
    assert lines[4:] == ["True"]


def test_a_first_lookup_loads_only_the_production_modules():
    # the cross-check bench/jobs.py reads off the package loads spincg.crosscheck
    # only when it is read
    lines = _fresh(
        "import spincg\n"
        "spincg.decompose\n"
        "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'spincg'))\n"
        "print(spincg.lambda_univariate_hypergeometric is "
        "spincg.crosscheck.lambda_univariate_hypergeometric)\n")
    assert lines == ["spincg " + " ".join(f"spincg.{name}" for name in PRODUCTION), "True"]


def test_star_import_binds_the_package_all():
    lines = _fresh(
        "namespace = {}\n"
        "exec('from spincg import *', namespace)\n"
        "import spincg\n"
        "print(len(spincg.__all__))\n"
        "print(sorted(set(namespace) - {'__builtins__'}) == sorted(spincg.__all__))\n"
        "print(all(namespace[n] is getattr(spincg, n) for n in spincg.__all__))\n")
    assert lines == ["32", "True", "True"]
    # dir() as the first lookup loads the library as well (PEP 562 __dir__)
    lines = _fresh(
        "import spincg\n"
        "names = dir(spincg)\n"
        "print(set(spincg.__all__) <= set(names))\n")
    assert lines == ["True"]
