"""Command line interface.

One verb per capability; every number printed is exact.  Each handler
returns the full text of its answer and main writes it once.  Exit codes:
0 success, 2 parse/usage error, 3 domain error, 4 enumeration budget
exceeded.  argparse exits 2 on usage errors; every other nonzero code is
the exit_code of the spincg.errors class raised.  JSON output is
canonical: fixed key order, big integers as decimal strings, rendered by
json.dumps with default separators, so a parse-and-reserialize round trip
is byte identical.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
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
    _omega_at,
    decompose,
    difference_decomposition,
    lambda_from_omega,
    lambda_genfunc,
    omega_genfunc,
)
from .errors import BudgetExceededError, DomainError, SpinParseError
from .identical import IdenticalSystem, antisym_decomposition, sym_decomposition
from .oracles import (
    DEFAULT_MAX_STATES,
    EnumerationBudget,
    oracle_antisym,
    oracle_omega,
    oracle_sym,
)
from .qpoly import IntPolynomial, q_binomial, restricted_partitions
from .spins import parse_spins, parse_spin_token, spin_label

__all__ = ["main", "build_parser"]


def _decomposition_text(
    table: DecompositionTable, spins: str, fmt: str, composition: str | None = None
) -> str:
    if fmt == "json":
        return json.dumps(table.to_json_dict(spins, composition))
    lines = [f"spins: {spins}"]
    if composition is not None:
        lines.append(f"composition: {composition}")
    if not table:
        lines.append("no states (exclusion)")
    else:
        lines.append(f"total dimension: {table.total_dimension}")
        lines.extend(f"J = {spin_label(tj)}: {mult}" for tj, mult in table.entries)
    return "\n".join(lines)


def _polynomial_text(poly: IntPolynomial, fmt: str, head: dict) -> str:
    if fmt == "json":
        return json.dumps({**head, "coefficients": poly.coefficient_strings()})
    return str(poly)


def _identical_system(args: argparse.Namespace) -> IdenticalSystem:
    twice_j = parse_spin_token(args.j)
    if args.num < 1:
        raise DomainError("--num must be >= 1")
    return IdenticalSystem(twice_j, args.num)


def _cmd_cgd(args: argparse.Namespace) -> str:
    spins = parse_spins(args.spins)
    table = decompose(spins, args.method)
    return _decomposition_text(table, spins.canonical(), args.format)


def _cmd_omega(args: argparse.Namespace) -> str:
    spins = parse_spins(args.spins)
    doc = {"spins": spins.canonical()}
    if args.n is not None:
        text = str(_omega_at(spins, args.n))
        doc.update(n=args.n, omega=text)
    else:
        table = omega_genfunc(spins)
        doc.update(twice_J0=table.twice_j0, omega=[str(v) for v in table.values])
        text = f"spins: {doc['spins']}\nomega: {' '.join(doc['omega'])}"
    return json.dumps(doc) if args.format == "json" else text


def _cmd_genfunc(args: argparse.Namespace) -> str:
    spins = parse_spins(args.spins)
    if args.lambda_:
        poly, kind = lambda_genfunc(spins), "lambda"
    else:
        poly, kind = omega_genfunc(spins).to_polynomial(), "omega"
    head = {"spins": spins.canonical(), "series": kind}
    return _polynomial_text(poly, args.format, head)


def _cmd_identical(args: argparse.Namespace) -> str:
    # sym and antisym, told apart by args.composition
    system = _identical_system(args)
    symmetric = args.composition == "symmetric"
    table = (sym_decomposition if symmetric else antisym_decomposition)(system)
    return _decomposition_text(table, system.canonical(), args.format, args.composition)


def _cmd_qbinom(args: argparse.Namespace) -> str:
    if args.a < 0:
        raise DomainError("--a must be >= 0")
    return _polynomial_text(
        q_binomial(args.a, args.b), args.format, {"a": args.a, "b": args.b}
    )


def _cmd_partitions(args: argparse.Namespace) -> str:
    if args.max_part < 0 or args.max_parts < 0:
        raise DomainError("--max-part and --max-parts must be >= 0")
    return str(restricted_partitions(args.max_part, args.max_parts, args.k))


def _cmd_compose(args: argparse.Namespace) -> str:
    spec = parse_composition_spec(args.parts, args.allow_zero)
    return str(count_compositions(spec, args.n))


def _fraction_decimal(value: Fraction, digits: int) -> str:
    # exact scaling with round half up; no floats
    scale = 10**digits
    scaled, remainder = divmod(value.numerator * scale, value.denominator)
    if 2 * remainder >= value.denominator:
        scaled += 1
    whole, frac = divmod(scaled, scale)
    return f"{whole}.{frac:0{digits}d}"


def _cmd_dice(args: argparse.Namespace) -> str:
    if args.dice < 1:
        raise DomainError("--dice must be >= 1")
    if args.digits is not None and args.digits < 1:
        raise DomainError("--digits must be >= 1")
    prob = dice_probability(args.dice, args.sum)
    if args.digits is None:
        return str(prob)
    return f"{prob} ≈ {_fraction_decimal(prob, args.digits)}"


def _cmd_sequence(args: argparse.Namespace) -> str:
    # catalan and riordan: the first --count terms of args.term
    if args.count < 0:
        raise DomainError("--count must be >= 0")
    return " ".join(str(args.term(v)) for v in range(args.count))


def _cmd_isotropic(args: argparse.Namespace) -> str:
    return str(isotropic_isomers(args.dim, args.rank))


def _cmd_oracle(args: argparse.Namespace) -> str:
    if args.budget < 1:
        raise DomainError("--budget must be >= 1")
    budget = EnumerationBudget(args.budget)
    if args.spins is not None:
        if args.composition not in (None, "full"):
            raise SpinParseError("--spins fixes the composition to full")
        spins = parse_spins(args.spins)
        composition = "full"
    elif args.j is None or args.num is None or args.composition is None:
        raise SpinParseError(
            "oracle needs either --spins, or --j/--num with "
            "--composition {full,symmetric,antisymmetric}"
        )
    else:
        system = _identical_system(args)
        spins = system.as_multiset()
        composition = args.composition
    if composition == "full":
        table = lambda_from_omega(oracle_omega(spins, budget))
    else:
        oracle = oracle_sym if composition == "symmetric" else oracle_antisym
        omega = oracle(system.twice_j, system.count, budget)
        table = difference_decomposition(omega.values, spins.twice_j0)
    return _decomposition_text(table, spins.canonical(), args.format, composition)


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

    for verb, composition in (("sym", "symmetric"), ("antisym", "antisymmetric")):
        p = sub.add_parser(verb, help=f"{composition} composition of identical spins")
        _add_identical(p)
        _add_format(p)
        p.set_defaults(handler=_cmd_identical, composition=composition)

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

    for verb, term in (("catalan", catalan), ("riordan", riordan)):
        p = sub.add_parser(
            verb, help=f"first K {verb.capitalize()} numbers, via decompositions"
        )
        p.add_argument("--count", type=int, required=True)
        p.set_defaults(handler=_cmd_sequence, term=term)

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
    p.add_argument(
        "--budget", type=int, default=DEFAULT_MAX_STATES, help="max states to enumerate"
    )
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
        args = _parser().parse_args(argv)
        print(args.handler(args), flush=True)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (SpinParseError, DomainError, BudgetExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except BrokenPipeError:
        # The reader left.  Point stdout at devnull so the flush at exit does
        # not raise again (Python docs, signal module, "Note on SIGPIPE").
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    finally:
        if cap is not None:
            sys.set_int_max_str_digits(cap)
    return 0


if __name__ == "__main__":
    sys.exit(main())
