"""Command line interface.

One verb per capability; every number printed is exact.  Exit codes:
0 success, 2 parse/usage error, 3 domain error, 4 enumeration budget
exceeded.  JSON output is canonical: fixed key order, big integers as
decimal strings, rendered by json.dumps with default separators, so a
parse-and-reserialize round trip is byte identical.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from .counting import (
    catalan,
    count_compositions,
    dice_probability,
    isotropic_isomers,
    parse_composition_spec,
    riordan,
)
from .decompose import (
    DecompositionTable,
    METHODS,
    decompose,
    difference_decomposition,
    lambda_from_omega,
    lambda_genfunc,
    omega_binomial,
    omega_genfunc,
)
from .errors import BudgetExceededError, DomainError, SpinParseError
from .identical import IdenticalSystem, antisym_decomposition, sym_decomposition
from .oracles import (
    EnumerationBudget,
    oracle_antisym,
    oracle_omega,
    oracle_sym,
)
from .qpoly import IntPolynomial, q_binomial, restricted_partitions
from .spins import parse_spins, parse_spin_token, spin_label

__all__ = ["main", "build_parser"]


def _print_decomposition(
    table: DecompositionTable,
    spins: str,
    fmt: str,
    composition: str | None = None,
) -> None:
    if fmt == "json":
        print(json.dumps(table.to_json_dict(spins, composition)))
        return
    print(f"spins: {spins}")
    if composition is not None:
        print(f"composition: {composition}")
    if not table:
        print("no states (exclusion)")
        return
    print(f"total dimension: {table.total_dimension}")
    for twice_j, mult in table.entries:
        print(f"J = {spin_label(twice_j)}: {mult}")


def _print_polynomial(poly: IntPolynomial, fmt: str, head: dict) -> None:
    if fmt == "json":
        doc = dict(head)
        doc["coefficients"] = poly.coefficient_strings()
        print(json.dumps(doc))
    else:
        print(str(poly))


def _identical_system(args: argparse.Namespace) -> IdenticalSystem:
    twice_j = parse_spin_token(args.j)
    if args.num < 1:
        raise DomainError("--num must be >= 1")
    return IdenticalSystem(twice_j, args.num)


def _cmd_cgd(args: argparse.Namespace) -> int:
    spins = parse_spins(args.spins)
    table = decompose(spins, args.method)
    _print_decomposition(table, spins.canonical(), args.format)
    return 0


def _cmd_omega(args: argparse.Namespace) -> int:
    spins = parse_spins(args.spins)
    if args.n is not None:
        value = omega_binomial(spins, args.n)
        if args.format == "json":
            print(json.dumps(
                {"spins": spins.canonical(), "n": args.n, "omega": str(value)}
            ))
        else:
            print(value)
        return 0
    table = omega_genfunc(spins)
    if args.format == "json":
        print(json.dumps({
            "spins": spins.canonical(),
            "twice_J0": table.twice_j0,
            "omega": [str(v) for v in table.values],
        }))
    else:
        print(f"spins: {spins.canonical()}")
        print("omega:", " ".join(str(v) for v in table.values))
    return 0


def _cmd_genfunc(args: argparse.Namespace) -> int:
    spins = parse_spins(args.spins)
    if args.lambda_:
        poly = lambda_genfunc(spins)
        kind = "lambda"
    else:
        poly = omega_genfunc(spins).to_polynomial()
        kind = "omega"
    _print_polynomial(
        poly, args.format, {"spins": spins.canonical(), "series": kind}
    )
    return 0


def _cmd_sym(args: argparse.Namespace) -> int:
    system = _identical_system(args)
    table = sym_decomposition(system)
    _print_decomposition(table, system.canonical(), args.format, "symmetric")
    return 0


def _cmd_antisym(args: argparse.Namespace) -> int:
    system = _identical_system(args)
    table = antisym_decomposition(system)
    _print_decomposition(table, system.canonical(), args.format, "antisymmetric")
    return 0


def _cmd_qbinom(args: argparse.Namespace) -> int:
    if args.a < 0:
        raise DomainError("--a must be >= 0")
    _print_polynomial(
        q_binomial(args.a, args.b), args.format, {"a": args.a, "b": args.b}
    )
    return 0


def _cmd_partitions(args: argparse.Namespace) -> int:
    if args.max_part < 0 or args.max_parts < 0:
        raise DomainError("--max-part and --max-parts must be >= 0")
    print(restricted_partitions(args.max_part, args.max_parts, args.k))
    return 0


def _cmd_compose(args: argparse.Namespace) -> int:
    spec = parse_composition_spec(args.parts, args.allow_zero)
    print(count_compositions(spec, args.n))
    return 0


def _fraction_decimal(value: Fraction, digits: int) -> str:
    # exact scaling with round half up; no floats
    scale = 10**digits
    scaled, remainder = divmod(value.numerator * scale, value.denominator)
    if 2 * remainder >= value.denominator:
        scaled += 1
    whole, frac = divmod(scaled, scale)
    if digits == 0:
        return str(whole)
    return f"{whole}.{frac:0{digits}d}"


def _cmd_dice(args: argparse.Namespace) -> int:
    if args.dice < 1:
        raise DomainError("--dice must be >= 1")
    if args.digits is not None and args.digits < 1:
        raise DomainError("--digits must be >= 1")
    prob = dice_probability(args.dice, args.sum)
    text = str(prob) if prob.denominator != 1 else f"{prob.numerator}"
    if args.digits is not None:
        text += f" ≈ {_fraction_decimal(prob, args.digits)}"
    print(text)
    return 0


def _cmd_catalan(args: argparse.Namespace) -> int:
    if args.count < 0:
        raise DomainError("--count must be >= 0")
    print(" ".join(str(catalan(v)) for v in range(args.count)))
    return 0


def _cmd_riordan(args: argparse.Namespace) -> int:
    if args.count < 0:
        raise DomainError("--count must be >= 0")
    print(" ".join(str(riordan(v)) for v in range(args.count)))
    return 0


def _cmd_isotropic(args: argparse.Namespace) -> int:
    print(isotropic_isomers(args.dim, args.rank))
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    budget = EnumerationBudget(args.budget) if args.budget else EnumerationBudget()
    if args.spins is not None:
        if args.composition not in (None, "full"):
            raise SpinParseError("--spins fixes the composition to full")
        spins = parse_spins(args.spins)
        table = lambda_from_omega(oracle_omega(spins, budget))
        _print_decomposition(table, spins.canonical(), args.format, "full")
        return 0
    if args.j is None or args.num is None or args.composition is None:
        raise SpinParseError(
            "oracle needs either --spins, or --j/--num with "
            "--composition {symmetric,antisymmetric}"
        )
    system = _identical_system(args)
    if args.composition == "symmetric":
        omega = oracle_sym(system.twice_j, system.count, budget)
    else:
        omega = oracle_antisym(system.twice_j, system.count, budget)
    table = difference_decomposition(omega.omega, system.twice_j * system.count)
    _print_decomposition(table, system.canonical(), args.format, args.composition)
    return 0


def _add_format(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output rendering (default text)",
    )


def _add_identical(parser: argparse.ArgumentParser, required: bool = True) -> None:
    parser.add_argument("--j", required=required, help='spin, e.g. "3/2" or "2"')
    parser.add_argument(
        "--num", type=int, required=required, help="number of identical spins"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spincg",
        description="Exact Clebsch-Gordan decomposition of SU(2) spin collections.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cgd", help="full decomposition of a spin multiset")
    p.add_argument("--spins", required=True, help='e.g. "1/2^2,1^4"')
    p.add_argument("--method", choices=METHODS, default="genfunc")
    _add_format(p)
    p.set_defaults(handler=_cmd_cgd)

    p = sub.add_parser("omega", help="subspace dimension table or single value")
    p.add_argument("--spins", required=True)
    p.add_argument("--n", type=int, default=None, help="single index to evaluate")
    _add_format(p)
    p.set_defaults(handler=_cmd_omega)

    p = sub.add_parser("genfunc", help="Omega or lambda generating function")
    p.add_argument("--spins", required=True)
    p.add_argument(
        "--lambda", dest="lambda_", action="store_true",
        help="emit (1 - q) G_Omega instead of G_Omega",
    )
    _add_format(p)
    p.set_defaults(handler=_cmd_genfunc)

    p = sub.add_parser("sym", help="symmetric composition of identical spins")
    _add_identical(p)
    _add_format(p)
    p.set_defaults(handler=_cmd_sym)

    p = sub.add_parser("antisym", help="antisymmetric composition of identical spins")
    _add_identical(p)
    _add_format(p)
    p.set_defaults(handler=_cmd_antisym)

    p = sub.add_parser("qbinom", help="Gaussian binomial coefficient [a choose b]_q")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    _add_format(p)
    p.set_defaults(handler=_cmd_qbinom)

    p = sub.add_parser(
        "partitions", help="partitions of k into at most m parts, each at most n"
    )
    p.add_argument("--max-part", type=int, required=True, help="largest part n")
    p.add_argument("--max-parts", type=int, required=True, help="most parts m")
    p.add_argument("--k", type=int, required=True, help="number being partitioned")
    p.set_defaults(handler=_cmd_partitions)

    p = sub.add_parser("compose", help="bounded integer compositions of n")
    p.add_argument(
        "--parts", required=True,
        help='part bounds with counts, e.g. "2^5,4^3,5^4"',
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument(
        "--allow-zero", action="store_true", help="parts may be zero"
    )
    p.set_defaults(handler=_cmd_compose)

    p = sub.add_parser("dice", help="probability that fair dice sum to a value")
    p.add_argument("--dice", type=int, required=True)
    p.add_argument("--sum", type=int, required=True)
    p.add_argument(
        "--digits", type=int, default=None,
        help="also print the decimal expansion to this many digits",
    )
    p.set_defaults(handler=_cmd_dice)

    p = sub.add_parser("catalan", help="first K Catalan numbers, via decompositions")
    p.add_argument("--count", type=int, required=True)
    p.set_defaults(handler=_cmd_catalan)

    p = sub.add_parser("riordan", help="first K Riordan numbers, via decompositions")
    p.add_argument("--count", type=int, required=True)
    p.set_defaults(handler=_cmd_riordan)

    p = sub.add_parser("isotropic", help="isotropic isomers of a multi-level unit")
    p.add_argument("--dim", type=int, required=True, help="levels per unit")
    p.add_argument("--rank", type=int, required=True, help="number of units")
    p.set_defaults(handler=_cmd_isotropic)

    p = sub.add_parser(
        "oracle", help="brute-force enumeration instead of the fast formulas"
    )
    p.add_argument("--spins", default=None, help="full decomposition of a multiset")
    _add_identical(p, required=False)
    p.add_argument(
        "--composition", choices=("full", "symmetric", "antisymmetric"), default=None
    )
    p.add_argument("--budget", type=int, default=None, help="max states to enumerate")
    _add_format(p)
    p.set_defaults(handler=_cmd_oracle)

    return parser


# parse_args only reads the tree: prog is fixed, no argument appends to a
# shared default, handlers are plain functions and the help width is read
# when help is formatted.  The cache holds that one object, never mutated,
# so it is no growing global state.
@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    """Run one spincg command line; return its exit code (0, 2, 3 or 4).

    Not thread-safe: for the length of the call it lifts the interpreter's
    int/str digit cap, which is process-wide, so another thread converting
    ints at the same time sees the lifted cap, and two overlapping calls can
    leave it lifted.
    """
    # Exact results can pass the interpreter's cap on int <-> str digits
    # (4300 by default since Python 3.10.7 / 3.11); lift it for this call.
    cap = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if cap is not None:
        sys.set_int_max_str_digits(0)
    try:
        try:
            args = _parser().parse_args(argv)
        except SystemExit as exc:
            return int(exc.code or 0)
        try:
            return args.handler(args)
        except SpinParseError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except DomainError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3
        except BudgetExceededError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 4
    finally:
        if cap is not None:
            sys.set_int_max_str_digits(cap)


if __name__ == "__main__":
    sys.exit(main())
