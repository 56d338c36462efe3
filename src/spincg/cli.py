"""Command line interface.

One verb per capability; every number printed is exact.  Each handler
returns the full text of its answer and main writes it once.  Exit codes:
0 success, 2 parse/usage error, 3 domain error, 4 enumeration budget
exceeded.  argparse exits 2 on usage errors; every other nonzero code is
the exit_code of the spincg.errors class raised.  A plain argv is read
from the verb table that builds the argparse tree; help and usage errors
come from argparse.  JSON output is canonical: fixed key order, big
integers as decimal strings, rendered by json.dumps with default
separators, so a parse-and-reserialize round trip is byte identical.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
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


_FORMAT = {"--format": dict(choices=("text", "json"), default="text",
                            help="output rendering (default text)")}
_INT = dict(type=int, required=True)
_J = dict(help='spin, e.g. "3/2" or "2"')
_NUM = dict(type=int, help="number of identical spins")

# Every verb, declared once: verb -> (help, set_defaults values, options), each
# option a flag -> add_argument keywords.  build_parser builds the argparse
# tree from this table, and _plain_args reads plain argv from it.
_VERBS = {
    "cgd": ("full decomposition of a spin multiset", dict(handler=_cmd_cgd), {
        "--spins": dict(required=True, help='e.g. "1/2^2,1^4"'),
        "--method": dict(choices=METHODS, default="genfunc"), **_FORMAT}),
    "omega": ("subspace dimension table or single value", dict(handler=_cmd_omega), {
        "--spins": dict(required=True),
        "--n": dict(type=int, help="single index to evaluate"), **_FORMAT}),
    "genfunc": ("Omega or lambda generating function", dict(handler=_cmd_genfunc), {
        "--spins": dict(required=True),
        "--lambda": dict(dest="lambda_", action="store_true",
                         help="emit (1 - q) G_Omega instead of G_Omega"), **_FORMAT}),
    **{verb: (f"{composition} composition of identical spins",
              dict(handler=_cmd_identical, composition=composition),
              {"--j": dict(_J, required=True), "--num": dict(_NUM, required=True),
               **_FORMAT})
       for verb, composition in (("sym", "symmetric"), ("antisym", "antisymmetric"))},
    "qbinom": ("Gaussian binomial coefficient [a choose b]_q",
               dict(handler=_cmd_qbinom), {"--a": _INT, "--b": _INT, **_FORMAT}),
    "partitions": ("partitions of k into at most m parts, each at most n",
                   dict(handler=_cmd_partitions), {
        "--max-part": dict(_INT, help="largest part n"),
        "--max-parts": dict(_INT, help="most parts m"),
        "--k": dict(_INT, help="number being partitioned")}),
    "compose": ("bounded integer compositions of n", dict(handler=_cmd_compose), {
        "--parts": dict(required=True,
                        help='part bounds with counts, e.g. "2^5,4^3,5^4"'),
        "--n": _INT,
        "--allow-zero": dict(action="store_true", help="parts may be zero")}),
    "dice": ("probability that fair dice sum to a value", dict(handler=_cmd_dice), {
        "--dice": _INT, "--sum": _INT,
        "--digits": dict(type=int,
                         help="also print the decimal expansion to this many digits")}),
    **{verb: (f"first K {verb.capitalize()} numbers, via decompositions",
              dict(handler=_cmd_sequence, term=term), {"--count": _INT})
       for verb, term in (("catalan", catalan), ("riordan", riordan))},
    "isotropic": ("isotropic isomers of a multi-level unit",
                  dict(handler=_cmd_isotropic), {
        "--dim": dict(_INT, help="levels per unit"),
        "--rank": dict(_INT, help="number of units")}),
    "oracle": ("brute-force enumeration instead of the fast formulas",
               dict(handler=_cmd_oracle), {
        "--spins": dict(help="full decomposition of a multiset"),
        "--j": _J, "--num": _NUM,
        "--composition": dict(choices=("full", "symmetric", "antisymmetric")),
        "--budget": dict(type=int, default=DEFAULT_MAX_STATES,
                         help="max states to enumerate"),
        **_FORMAT}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spincg",
        description="Exact Clebsch-Gordan decomposition of SU(2) spin collections.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for verb, (help_, defaults, options) in _VERBS.items():
        p = sub.add_parser(verb, help=help_)
        for flag, keywords in options.items():
            p.add_argument(flag, **keywords)
        p.set_defaults(**defaults)
    return parser


# parse_args only reads the tree: prog is fixed, no argument appends to a
# shared default, handlers are plain functions and the help width is read
# when help is formatted.  The cache holds that one object, never mutated,
# so it is no growing global state.
@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def _plain_view(verb: str, defaults: dict, options: dict) -> tuple[dict, dict, set]:
    # One verb as parse_args sees it: the Namespace before any option is read,
    # flag -> (dest, type or None for a switch, choices), and the required flags.
    namespace, reads = {"command": verb, **defaults}, {}
    for flag, kw in options.items():
        dest = kw.get("dest", flag[2:].replace("-", "_"))
        switch = kw.get("action") == "store_true"
        namespace[dest] = kw.get("default", False if switch else None)
        reads[flag] = dest, None if switch else kw.get("type", str), kw.get("choices")
    return namespace, reads, {f for f, kw in options.items() if kw.get("required")}


_PLAIN = {verb: _plain_view(verb, defaults, options)
          for verb, (_, defaults, options) in _VERBS.items()}
# argparse reads a "-" token as a value, not an option, when it matches this
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$").match


def _plain_args(argv: list[str] | None) -> argparse.Namespace | None:
    """parse_args(argv) of a plain argv, read from the verb table that builds the tree.

    Anything else returns None and is left to argparse and its messages: help,
    abbreviations, --opt=value, --, stray tokens, missing options, bad values.
    """
    argv = sys.argv[1:] if argv is None else argv
    view = _PLAIN.get(argv[0]) if argv else None
    if view is None:
        return None
    namespace, reads, required = view
    args = argparse.Namespace(**namespace)
    seen = set()
    tokens = iter(argv[1:])
    for token in tokens:
        if token not in reads:
            return None
        dest, convert, choices = reads[token]
        if convert is None:
            value = True
        else:
            value = next(tokens, None)
            if value is None or value.startswith("-") and not _NEGATIVE_NUMBER(value):
                return None
            try:
                value = convert(value)
            except ValueError:
                return None
            if choices is not None and value not in choices:
                return None
        setattr(args, dest, value)
        seen.add(token)
    return args if required <= seen else None


def main(argv: list[str] | None = None) -> int:
    """Run one spincg command line; return its exit code (0, 2, 3 or 4).

    A plain argv is read from the verb table that builds the tree; the rest
    goes to argparse.

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
        args = _plain_args(argv) or _parser().parse_args(argv)
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
