"""Command line interface.

One verb per capability; every number printed is exact, written in full by
spincg.spins.decimal_text.  Each handler returns the full text of its
answer and main writes it once.  Exit codes: 0 success, 2 parse or usage
error (argparse's own too), 3 domain error, 4 budget or size limit exceeded
or out of memory: a MemoryError, or an OverflowError from a size past
sys.maxsize or dice --digits past Decimal's exponent range.  Any other
nonzero code is the exit_code of the spincg.errors class raised.  A plain
argv is read from the verb table that builds the argparse tree; help and
usage errors come from argparse.  JSON output is canonical: fixed key
order, big integers as decimal strings, rendered by json.dumps with default
separators, so a parse-and-reserialize round trip is byte identical.

Handlers reach the library through _module, and import json only on
their JSON branches, so building the parser loads no library module and a
verb loads only the modules it uses.
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import sys

from .errors import BudgetExceededError, DomainError, SpinParseError

TYPE_CHECKING = False
if TYPE_CHECKING:  # the annotations' names, read by type checkers only
    from fractions import Fraction
    from types import ModuleType

    from .decompose import DecompositionTable
    from .identical import IdenticalSystem
    from .qpoly import IntPolynomial

__all__ = ["main", "build_parser"]


@functools.cache
def _module(name: str) -> ModuleType:
    """spincg.<name>, imported the first time a handler asks for it.

    A from-import inside each handler would cost about 1.8 us a statement
    on every call (CPython 3.11), where this cached lookup costs 0.1 us.
    The cache holds at most one entry per spincg module, each of them held
    by sys.modules anyway.
    """
    from importlib import import_module

    return import_module(f"{__package__}.{name}")


def _decimal(n: int) -> str:
    return _module("spins").decimal_text(n)


def _decomposition_text(
    table: DecompositionTable, spins: str, fmt: str, composition: str | None = None
) -> str:
    if fmt == "json":
        import json

        return json.dumps(table.to_json_dict(spins, composition))
    spin_label = _module("spins").spin_label
    lines = [f"spins: {spins}"]
    if composition is not None:
        lines.append(f"composition: {composition}")
    if not table:
        lines.append("no states (exclusion)")
    else:
        lines.append(f"total dimension: {_decimal(table.total_dimension)}")
        lines.extend(f"J = {spin_label(tj)}: {_decimal(mult)}"
                     for tj, mult in zip(table.twice_js, table.mults))
    return "\n".join(lines)


def _polynomial_text(poly: IntPolynomial, fmt: str, head: dict) -> str:
    if fmt == "json":
        import json

        return json.dumps({**head, "coefficients": list(map(_decimal, poly.coeffs))})
    return str(poly)


def _identical_system(args: argparse.Namespace) -> IdenticalSystem:
    twice_j = _module("spins").parse_spin_token(args.j)
    if args.num < 1:
        raise DomainError("--num must be >= 1")
    return _module("identical").IdenticalSystem(twice_j, args.num)


def _cmd_cgd(args: argparse.Namespace) -> str:
    spins = _module("spins").parse_spins(args.spins)
    table = _module("decompose").decompose(spins, args.method)
    return _decomposition_text(table, spins.canonical(), args.format)


def _cmd_omega(args: argparse.Namespace) -> str:
    spins = _module("spins").parse_spins(args.spins)
    doc = {"spins": spins.canonical()}
    if args.n is not None:
        text = _decimal(_module("decompose")._omega_at(spins, args.n))
        doc.update(n=args.n, omega=text)
    else:
        table = _module("decompose").omega_genfunc(spins)
        doc.update(twice_J0=table.twice_j0, omega=list(map(_decimal, table.values)))
        text = f"spins: {doc['spins']}\nomega: {' '.join(doc['omega'])}"
    if args.format == "json":
        import json

        return json.dumps(doc)
    return text


def _cmd_genfunc(args: argparse.Namespace) -> str:
    spins = _module("spins").parse_spins(args.spins)
    decompose = _module("decompose")
    if args.lambda_:
        poly, kind = decompose.lambda_genfunc(spins), "lambda"
    else:
        poly, kind = _module("qpoly").IntPolynomial(decompose.omega_genfunc(spins).values), "omega"
    head = {"spins": spins.canonical(), "series": kind}
    return _polynomial_text(poly, args.format, head)


def _cmd_identical(args: argparse.Namespace) -> str:
    # sym and antisym, told apart by args.composition
    system = _identical_system(args)
    identical = _module("identical")
    symmetric = args.composition == "symmetric"
    table = (identical.sym_decomposition if symmetric
             else identical.antisym_decomposition)(system)
    return _decomposition_text(table, system.as_multiset().canonical(), args.format,
                              args.composition)


def _cmd_qbinom(args: argparse.Namespace) -> str:
    if args.a < 0:
        raise DomainError("--a must be >= 0")
    poly = _module("qpoly").q_binomial(args.a, args.b)
    return _polynomial_text(poly, args.format, {"a": args.a, "b": args.b})


def _cmd_partitions(args: argparse.Namespace) -> str:
    if args.max_part < 0 or args.max_parts < 0:
        raise DomainError("--max-part and --max-parts must be >= 0")
    count = _module("qpoly").restricted_partitions(args.max_part, args.max_parts, args.k)
    return _decimal(count)


def _cmd_compose(args: argparse.Namespace) -> str:
    counting = _module("counting")
    parts = counting.parse_composition_spec(args.parts)
    return _decimal(counting.count_compositions(parts, args.n, args.allow_zero))


def _fraction_decimal(value: Fraction, digits: int) -> str:
    # exact scaling with round half up: floor(x + 1/2) of x = value * 10^digits,
    # one integer // in decimal, linear in digits where int ** and str are not
    import decimal

    exact = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)
    p, q = value.as_integer_ratio()
    shifted = exact.scaleb(exact.create_decimal(2 * p), digits)
    scaled = exact.divide_int(exact.add(shifted, q), 2 * q)
    text = str(scaled).zfill(digits + 1)
    return f"{text[:-digits]}.{text[-digits:]}"


def _cmd_dice(args: argparse.Namespace) -> str:
    if args.dice < 1:
        raise DomainError("--dice must be >= 1")
    if args.digits is not None:
        import decimal

        if args.digits < 1:
            raise DomainError("--digits must be >= 1")
        if args.digits + args.dice > decimal.MAX_EMAX:
            # 2p * 10^digits, 2p < 10^(dice + 1), must fit Decimal's exponent range
            raise OverflowError("--digits past the decimal exponent range")
    prob = _module("counting").dice_probability(args.dice, args.sum)
    text = "/".join(map(_decimal, prob.as_integer_ratio())).removesuffix("/1")  # as str(prob)
    if args.digits is None:
        return text
    return f"{text} ≈ {_fraction_decimal(prob, args.digits)}"


def _cmd_sequence(args: argparse.Namespace) -> str:
    # catalan and riordan: the first --count terms of args.term
    return " ".join(map(_decimal, _module("counting")._sequence(args.term, args.count)))


def _cmd_isotropic(args: argparse.Namespace) -> str:
    return _decimal(_module("counting").isotropic_isomers(args.dim, args.rank))


def _cmd_oracle(args: argparse.Namespace) -> str:
    if args.budget < 1:
        raise DomainError("--budget must be >= 1")
    oracles, decompose = _module("oracles"), _module("decompose")
    if args.spins is not None:
        if args.composition not in (None, "full"):
            raise SpinParseError("--spins fixes the composition to full")
        spins = _module("spins").parse_spins(args.spins)
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
        table = decompose.lambda_from_omega(oracles.oracle_omega(spins, args.budget))
    else:
        symmetric = composition == "symmetric"
        oracle = oracles.oracle_sym if symmetric else oracles.oracle_antisym
        omega = oracle(system.twice_j, system.count, args.budget)
        table = decompose.difference_decomposition(omega.values, spins.twice_j0)
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
        "--method": dict(choices=("genfunc", "binomial", "composition"),
                         default="genfunc"), **_FORMAT}),
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
    **{verb: (f"first K {verb.capitalize()} numbers",
              dict(handler=_cmd_sequence, term=verb), {"--count": _INT})
       for verb in ("catalan", "riordan")},
    "isotropic": ("isotropic isomers of a multi-level unit",
                  dict(handler=_cmd_isotropic), {
        "--dim": dict(_INT, help="levels per unit"),
        "--rank": dict(_INT, help="number of units")}),
    "oracle": ("brute-force enumeration instead of the fast formulas",
               dict(handler=_cmd_oracle), {
        "--spins": dict(help="full decomposition of a multiset"),
        "--j": _J, "--num": _NUM,
        "--composition": dict(choices=("full", "symmetric", "antisymmetric")),
        "--budget": dict(type=int, default=10**6,
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


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    # Before Python 3.13 argparse strips "--" from --name=-- and binds [], past
    # type and choices; read as --name --, the argv is a usage error (exit 2)
    args = _parser().parse_args(argv)
    if [] in vars(args).values():
        split = []
        for token in sys.argv[1:] if argv is None else argv:
            flag, _, value = token.partition("=")
            split += [flag, value] if token.startswith("--") and value == "--" else [token]
        args = _parser().parse_args(split)
    return args


def main(argv: list[str] | None = None) -> int:
    """Run one spincg command line; return its exit code (0, 2, 3 or 4).

    A plain argv is read from the verb table that builds the tree; the rest
    goes to argparse.  The interpreter's int/str digit cap, which is
    process-wide, stays as it is: handlers write every number through
    spincg.spins.decimal_text, which has no limit.
    """
    try:
        args = _plain_args(argv) or _parse_args(argv)
        print(args.handler(args), flush=True)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (SpinParseError, DomainError, BudgetExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except (MemoryError, OverflowError):
        print("error: not enough memory for this job", file=sys.stderr)
        return BudgetExceededError.exit_code
    except BrokenPipeError:
        # The reader left.  Point stdout at devnull so the flush at exit does
        # not raise again (Python docs, signal module, "Note on SIGPIPE").
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return 0


if __name__ == "__main__":
    sys.exit(main())
