"""Seeded job lists for the benchmark's three workloads.

A job is one question put to spincg: `call()` asks it, during the timed
phase, and `check(answer)` verifies the answer afterwards against the
independent computations in reference.py, returning the bit length of the
largest integer in the reference answer.  The program only ever sees the
generated inputs; the seed stays here.

Sizes come from continuous ranges, stratified over the job list (one draw
in each equal slice of the range), so that every seed gives nearly the same
total work and no latency percentile sits on a jump between size classes.
The job list is fixed before timing starts: its length is set by the
number of rounds, never by a clock, so spincg's process-wide partition memo
fills the same way in every run with the same seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from typing import Any, Callable

import spincg
import spincg.cli

import reference as ref
from reference import require

# The one job that fails today: count_compositions is right, but printing
# C(199999, 2099) (5,000 digits) trips Python's int-to-str digit limit, and
# the ValueError escapes cli.main.  Fixed inputs, one per cli-mix round.
DIGIT_LIMIT_ARGV = ("compose", "--parts", "300000^2100", "--n", "200000")


@dataclass(frozen=True)
class Job:
    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], int]


def strata(rng: random.Random, count: int) -> list[float]:
    """count fractions in [0, 1), one uniform draw per slice, shuffled."""
    values = [(i + rng.random()) / count for i in range(count)]
    rng.shuffle(values)
    return values


def pick(lo: int, hi: int, u: float) -> int:
    """The integer in lo .. hi at fraction u of the range."""
    return min(hi, lo + int(u * (hi - lo + 1)))


def spin_entries(rng: random.Random, target: float, kinds: int, max_twice: int,
                 cube_root_cost: bool = False) -> dict[int, int]:
    """A multiset of `kinds` distinct spins whose 2J_0 is close to target.

    Each spin's share of 2J_0 follows a random weight.  With cube_root_cost,
    target is the 2J_0 of a mix with 0.55 bits of total dimension per unit of
    2J_0, and is scaled by (0.55 / b)^(1/3) for a mix of b bits per unit: the
    genfunc product costs about (2J_0)^3 b, so the cost, and not only 2J_0,
    follows the target.
    """
    twice = rng.sample(range(1, max_twice + 1), kinds)
    weights = [rng.uniform(0.5, 1.5) for _ in twice]
    if cube_root_cost:
        bits = sum(w * math.log2(tj + 1) for w, tj in zip(weights, twice))
        target *= (0.55 * sum(w * tj for w, tj in zip(weights, twice)) / bits) ** (1 / 3)
    base = target / sum(w * tj for w, tj in zip(weights, twice))
    return {tj: max(1, round(base * w)) for tj, w in zip(twice, weights)}


def spin_text(rng: random.Random, entries: dict[int, int]) -> str:
    """Input text for a multiset, its tokens in a random order."""
    tokens = [ref.canonical({tj: mult}) for tj, mult in entries.items()]
    rng.shuffle(tokens)
    return ",".join(tokens)


def doc_terms(doc: dict) -> list[tuple[int, int]]:
    """(twice_J, multiplicity) pairs of a decomposition's JSON document."""
    return [(t["twice_J"], int(t["multiplicity"])) for t in doc["terms"]]


# ---- cgd-genfunc ---------------------------------------------------------

def cgd_genfunc(rng: random.Random, rounds: int, smoke: bool) -> list[Job]:
    """decompose(parse_spins(text)) rendered as JSON, cost log-spread."""
    lo, hi = (8, 40) if smoke else (100, 900)
    jobs = []
    for i, u in enumerate(strata(rng, 4 * rounds)):
        entries = spin_entries(rng, lo * (hi / lo) ** u, 1 + i % 4, 8, cube_root_cost=True)
        jobs.append(Job("cgd", _cgd_call(spin_text(rng, entries)), _cgd_check(entries)))
    return jobs


def _cgd_call(text: str) -> Callable[[], str]:
    def call() -> str:
        spins = spincg.parse_spins(text)
        table = spincg.decompose(spins)
        return json.dumps(table.to_json_dict(spins.canonical()))
    return call


def _cgd_check(entries: dict[int, int]) -> Callable[[str], int]:
    def check(line: str) -> int:
        ref.check_full_decomposition(entries, doc_terms(ref.check_json_line(line)))
        terms = ref.multiplicities(entries)
        require(line == json.dumps(ref.decomposition_doc(ref.canonical(entries), terms)),
                "cgd JSON differs from the sliding-window reference")
        return ref.bits(terms, ref.total_dimension(entries))
    return check


# ---- identical-scan -------------------------------------------------------

def identical_scan(rng: random.Random, rounds: int, smoke: bool) -> list[Job]:
    """A scan of distinct identical-spin and partition questions.

    The scan walks its main size parameter upwards from round to round, with
    a little jitter, so each question mostly extends what the partition memo
    already holds; the second parameter of each kind is stratified over the
    rounds, so the questions cover their whole grid.  Every third round adds
    a hypergeometric multiplicity, and the rounds a quarter, half and three
    quarters through the scan add a deep two-part span,
    partitions_at_most(2, k) with k near 1000.
    """
    scale = 0.1 if smoke else 1.0

    def top(hi: int, lo: int) -> int:
        return max(lo, round(hi * scale))

    seen: set[tuple] = set()
    across = {kind: strata(rng, rounds) for kind in ("sym", "antisym", "qbinom", "p", "k")}
    deep_rounds = {rounds * i // 4 for i in (1, 2, 3)}
    deep = strata(rng, len(deep_rounds))
    jobs = []
    for r in range(rounds):
        def up() -> float:
            return min(0.999, max(0.0, (r + 0.5) / rounds + rng.uniform(-0.05, 0.05)))
        w = {kind: values[r] for kind, values in across.items()}
        twice_j, num = pick(2, top(32, 2), up()), pick(2, top(32, 2), w["sym"])
        anti_j = pick(4, top(64, 4), up())
        anti_num = anti_j + 2 + int(4 * w["antisym"]) if r % 8 == 7 else pick(
            1, anti_j + 1, w["antisym"])  # every eighth: Pauli exclusion, no states
        a = pick(10, top(56, 10), up())
        b = pick(1, a - 1, w["qbinom"])
        n, m = pick(4, top(36, 4), up()), pick(4, top(36, 4), w["p"])
        k = pick(0, n * m, w["k"])
        batch = [
            _sym_job(*_first_new(seen, (("sym", twice_j, v) for v in near(num, 2, num + 99)))),
            _antisym_job(*_first_new(seen, (
                ("antisym", anti_j, v) for v in near(anti_num, 1, anti_num + 99)))),
            _qbinom_job(*_first_new(seen, (
                ("qbinom", aa, v) for aa in range(a, a + 99)
                for v in near(min(b, aa - 1), 1, aa - 1)))),
            _partitions_job(*_first_new(seen, (
                ("p", n, mm, v) for mm in range(m, m + 99)
                for v in near(min(k, n * mm), 0, n * mm)))),
        ]
        if r % 3 == 2:
            batch.append(_hypergeometric_job(*_first_new(
                seen, (_hypergeometric_key(rng) for _ in range(999)))))
        if r in deep_rounds:
            deep_k = round((960 + 80 * deep.pop()) * scale)
            batch.append(_deep_job(*_first_new(
                seen, (("deep", v) for v in near(deep_k, 0, deep_k + 999)))))
        rng.shuffle(batch)
        jobs += batch
    return jobs


def near(value: int, lo: int, hi: int):
    """value, value + 1, value - 1, value + 2, ... within lo .. hi."""
    for step in range(2 * (hi - lo) + 1):
        v = value + (step + 1) // 2 * (1 if step % 2 else -1)
        if lo <= v <= hi:
            yield v


def _first_new(seen: set, keys) -> tuple:
    """The first question key not asked before, less its kind."""
    for key in keys:
        if key not in seen:
            seen.add(key)
            return key[1:]
    raise RuntimeError("could not draw a distinct question")


def _sym_job(twice_j: int, num: int) -> Job:
    system = spincg.IdenticalSystem(twice_j, num)
    return Job(
        "sym",
        lambda: spincg.sym_decomposition(system),
        lambda table: _identical_check(twice_j, num, False, table),
    )


def _antisym_job(twice_j: int, num: int) -> Job:
    system = spincg.IdenticalSystem(twice_j, num)
    return Job(
        "antisym",
        lambda: spincg.antisym_decomposition(system),
        lambda table: _identical_check(twice_j, num, True, table),
    )


def _identical_check(twice_j: int, num: int, anti: bool, table) -> int:
    terms = list(table.entries)
    ref.check_identical(twice_j, num, anti, terms)
    return ref.bits(terms)


def _qbinom_job(a: int, b: int) -> Job:
    def check(poly) -> int:
        coeffs = list(poly.coeffs)
        ref.check_gaussian(a, b, coeffs)
        return ref.bits(coeffs)
    return Job("qbinom", lambda: spincg.q_binomial(a, b), check)


def _partitions_job(n: int, m: int, k: int) -> Job:
    def check(value: int) -> int:
        expected = ref.box_partitions(n, m, k)[k]
        require(value == expected, f"p({n}, {m}, {k}) = {value}, expected {expected}")
        return ref.bits(expected)
    return Job("partitions", lambda: spincg.restricted_partitions(n, m, k), check)


def _hypergeometric_key(rng: random.Random) -> tuple:
    twice_j, num = rng.randint(1, 8), rng.randint(2, 30)
    return ("luh", twice_j, num, rng.randint(0, twice_j * num // 2))


def _hypergeometric_job(twice_j: int, num: int, kappa: int) -> Job:
    entries = {twice_j: num}

    def check(value) -> int:
        omega = ref.omega_window(entries, kappa)
        expected = omega[kappa] - (omega[kappa - 1] if kappa else 0)
        require(value == expected,
                f"hypergeometric lambda_{kappa} of {ref.canonical(entries)} is {value}")
        return ref.bits(expected)
    return Job(
        "hypergeometric",
        lambda: spincg.lambda_univariate_hypergeometric(twice_j, num, kappa),
        check,
    )


def _deep_job(k: int) -> Job:
    def check(value: int) -> int:
        require(value == ref.two_part_partitions(k), f"p_2({k}) = {value}")
        return ref.bits(value)
    return Job("deep-span", lambda: spincg.partitions_at_most(2, k), check)


# ---- cli-mix ---------------------------------------------------------------

def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """cli.main(argv) in-process, with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = spincg.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _expect_output(argv: list[str], expected: Callable[[], str],
                   numbers: Callable[[], Any] = lambda: 0,
                   parsed: Callable[[dict], None] | None = None) -> Job:
    """A CLI job that must exit 0 and print expected() exactly."""
    def check(result) -> int:
        code, out, err = result
        require(code == 0 and err == "", f"{argv}: exit {code}, stderr {err!r}")
        if parsed is not None:
            parsed(ref.check_json_line(out.rstrip("\n")))
        require(out == expected(), f"{argv}: output differs from the reference")
        return ref.bits(numbers())
    return Job(argv[0], lambda: run_cli(argv), check)


def _expect_error(argv: list[str], code: int, usage: bool = False) -> Job:
    """A CLI job whose correct result is exit `code` and one error line."""
    def check(result) -> int:
        got, out, err = result
        lines = err.splitlines()
        require(got == code and out == "", f"{argv}: exit {got}, expected {code}")
        if usage:
            require(bool(lines) and ": error: " in lines[-1], f"{argv}: no usage error")
        else:
            require(len(lines) == 1 and lines[0].startswith("error: "),
                    f"{argv}: stderr is not one error line: {err!r}")
        return 0
    return Job("error", lambda: run_cli(argv), check)


def _decomposition(argv: list[str], as_json: bool, spins: str,
                   terms: Callable[[], list], composition: str | None = None,
                   properties: Callable[[list], None] | None = None) -> Job:
    """A CLI job that prints a decomposition table, as JSON or as text."""
    if as_json:
        return _expect_output(
            argv, lambda: _dump(ref.decomposition_doc(spins, terms(), composition)), terms,
            None if properties is None else lambda doc: properties(doc_terms(doc)))
    return _expect_output(argv, lambda: ref.decomposition_text(spins, terms(), composition),
                          terms)


def _fmt(argv: list[str], as_json: bool) -> list[str]:
    return argv + ["--format", "json"] if as_json else argv


def _dump(doc: dict) -> str:
    return json.dumps(doc) + "\n"


def _small_spins(rng: random.Random, u: float, lo: int, hi: int) -> dict[int, int]:
    return spin_entries(rng, lo + u * (hi - lo), rng.randint(1, 3), 6)


def _cli_cgd(rng, u, as_json, method):
    entries = _small_spins(rng, u, 4, 24 if method == "binomial" else 18)
    spins = ref.canonical(entries)
    argv = _fmt(["cgd", "--spins", spin_text(rng, entries), "--method", method], as_json)
    return _decomposition(argv, as_json, spins, lambda: ref.multiplicities(entries),
                          properties=lambda t: ref.check_full_decomposition(entries, t))


def _cli_omega_n(rng, u, as_json):
    entries = _small_spins(rng, u, 4, 40)
    n = rng.randint(0, ref.twice_j0(entries))
    spins = ref.canonical(entries)
    value = lambda: ref.omega_window(entries, n)[n]
    argv = _fmt(["omega", "--spins", spin_text(rng, entries), "--n", str(n)], as_json)
    if as_json:
        return _expect_output(argv, lambda: _dump(
            {"spins": spins, "n": n, "omega": str(value())}), value)
    return _expect_output(argv, lambda: f"{value()}\n", value)


def _cli_omega_table(rng, u, as_json):
    entries = _small_spins(rng, u, 4, 40)
    spins, top = ref.canonical(entries), ref.twice_j0(entries)
    table = lambda: ref.omega_window(entries, top)
    argv = _fmt(["omega", "--spins", spin_text(rng, entries)], as_json)
    if as_json:
        return _expect_output(argv, lambda: _dump(
            {"spins": spins, "twice_J0": top, "omega": [str(v) for v in table()]}), table)
    return _expect_output(
        argv, lambda: f"spins: {spins}\nomega: {' '.join(map(str, table()))}\n", table)


def _cli_genfunc(rng, u, as_json, lambda_):
    entries = _small_spins(rng, u, 4, 40)
    spins, top = ref.canonical(entries), ref.twice_j0(entries)

    def coeffs() -> list[int]:
        omega = ref.omega_window(entries, top)
        if not lambda_:
            return omega
        return [a - b for a, b in zip(omega + [0], [0] + omega)]

    argv = _fmt(["genfunc", "--spins", spin_text(rng, entries)]
                + (["--lambda"] if lambda_ else []), as_json)
    if as_json:
        series = "lambda" if lambda_ else "omega"
        return _expect_output(argv, lambda: _dump(
            {"spins": spins, "series": series,
             "coefficients": [str(c) for c in coeffs()]}), coeffs)
    return _expect_output(argv, lambda: ref.polynomial_text(coeffs()) + "\n", coeffs)


def _cli_identical(rng, u, as_json, anti, oracle=False):
    twice_j = rng.randint(1, 8)
    if anti:
        num = rng.randint(1, twice_j + 3)
    else:
        num = max(1, round(1 + u * 40 / twice_j))
    while oracle and math.comb(twice_j + num, num) > 3000:
        num -= 1  # keep the enumeration small
    composition = "antisymmetric" if anti else "symmetric"
    verb = ["oracle", "--composition", composition] if oracle else ["antisym" if anti else "sym"]
    argv = _fmt(verb + ["--j", ref.spin_label(twice_j), "--num", str(num)], as_json)
    return _decomposition(
        argv, as_json, ref.canonical({twice_j: num}),
        lambda: ref.identical_terms(twice_j, num, anti), composition,
        lambda t: ref.check_identical(twice_j, num, anti, t))


def _cli_qbinom(rng, u, as_json, lo, hi):
    a = pick(lo, hi, u)
    b = rng.randint(0, a)
    argv = _fmt(["qbinom", "--a", str(a), "--b", str(b)], as_json)
    coeffs = lambda: ref.gaussian(a, b)
    if as_json:
        def parsed(doc):
            ref.check_gaussian(a, b, [int(c) for c in doc["coefficients"]])
        return _expect_output(argv, lambda: _dump(
            {"a": a, "b": b, "coefficients": [str(c) for c in coeffs()]}), coeffs, parsed)
    return _expect_output(argv, lambda: ref.polynomial_text(coeffs()) + "\n", coeffs)


def _cli_partitions(rng, u, as_json):
    n, m = pick(1, 14, u), rng.randint(1, 14)
    k = rng.randint(0, n * m)
    value = lambda: ref.box_partitions(n, m, k)[k]
    argv = ["partitions", "--max-part", str(n), "--max-parts", str(m), "--k", str(k)]
    return _expect_output(argv, lambda: f"{value()}\n", value)


def _cli_compose(rng, u, as_json):
    bounds = rng.sample(range(1, 10), rng.randint(1, 3))
    parts = {b: 1 for b in bounds}
    for _ in range(pick(0, 12, u)):
        parts[rng.choice(bounds)] += 1
    zero = rng.random() < 0.5
    lo = 0 if zero else sum(parts.values())
    n = rng.randint(lo, sum(b * c for b, c in parts.items()))
    text = ",".join(f"{b}^{c}" for b, c in sorted(parts.items()))
    argv = ["compose", "--parts", text, "--n", str(n)] + (["--allow-zero"] if zero else [])
    value = lambda: ref.bounded_compositions(parts, n, zero)
    return _expect_output(argv, lambda: f"{value()}\n", value)


def _cli_dice(rng, u, as_json):
    dice = pick(1, 14, u)
    total = rng.randint(dice, 6 * dice)
    digits = rng.choice([None, rng.randint(1, 12)])
    argv = ["dice", "--dice", str(dice), "--sum", str(total)]
    if digits is not None:
        argv += ["--digits", str(digits)]

    def text() -> str:
        prob = ref.dice_probability(dice, total)
        line = str(prob)
        if digits is not None:
            line += f" ≈ {ref.rounded_decimal(prob, digits)}"
        return line + "\n"
    return _expect_output(argv, text, lambda: ref.dice_probability(dice, total))


def _cli_sequence(rng, u, as_json, verb, term):
    count = pick(1, 16, u)
    values = lambda: [term(v) for v in range(count)]
    return _expect_output([verb, "--count", str(count)],
                          lambda: " ".join(map(str, values())) + "\n", values)


def _cli_isotropic(rng, u, as_json):
    dim = rng.randint(2, 5)
    rank = pick(0, 14 - 2 * dim, u)
    value = lambda: ref.singlet_multiplicity(dim - 1, rank)
    argv = ["isotropic", "--dim", str(dim), "--rank", str(rank)]
    return _expect_output(argv, lambda: f"{value()}\n", value)


def _cli_oracle_spins(rng, u, as_json):
    entries = _small_spins(rng, u, 3, 12)
    while ref.total_dimension(entries) > 4000:
        top = max(entries)
        entries[top] -= 1
        if not entries[top]:
            del entries[top]
    argv = _fmt(["oracle", "--spins", spin_text(rng, entries)], as_json)
    return _decomposition(argv, as_json, ref.canonical(entries),
                          lambda: ref.multiplicities(entries), "full",
                          lambda t: ref.check_full_decomposition(entries, t))


def _cli_parse_error(rng, u, as_json):
    n = rng.randint(1, 9)
    argv = rng.choice([
        ["cgd", "--spins", f"{2 * n + 1}/3"],
        ["cgd", "--spins", f"1/2,{2 * n}/2"],
        ["omega", "--spins", f"{n}^0"],
        ["cgd", "--spins", f"0^{n}"],
        ["genfunc", "--spins", f"1/2^{n},,1"],
        ["sym", "--j", "0", "--num", str(n)],
        ["compose", "--parts", f"0^{n}", "--n", str(n)],
    ])
    return _expect_error(argv, 2)


def _cli_usage_error(rng, u, as_json):
    n = rng.randint(1, 9)
    argv = rng.choice([
        ["bogus", "--spins", str(n)],
        ["cgd"],
        ["cgd", "--spins", str(n), "--method", "fast"],
        ["sym", "--j", str(n), "--num", "two"],
        ["qbinom", "--a", str(n)],
    ])
    return _expect_error(argv, 2, usage=True)


def _cli_domain_error(rng, u, as_json):
    n = rng.randint(1, 9)
    argv = rng.choice([
        ["sym", "--j", str(n), "--num", "0"],
        ["antisym", "--j", f"{2 * n - 1}/2", "--num", f"-{n}"],
        ["qbinom", "--a", f"-{n}", "--b", "1"],
        ["dice", "--dice", "0", "--sum", str(n)],
        ["dice", "--dice", str(n), "--sum", str(3 * n), "--digits", "0"],
        ["catalan", "--count", f"-{n}"],
        ["riordan", "--count", f"-{n}"],
        ["isotropic", "--dim", "1", "--rank", str(n)],
        ["partitions", "--max-part", f"-{n}", "--max-parts", "2", "--k", "3"],
    ])
    return _expect_error(argv, 3)


def _cli_budget_error(rng, u, as_json):
    n = rng.randint(8, 16)
    argv = ["oracle", "--spins", f"1^{n}", "--budget", str(rng.randint(10, 3**n - 1))]
    return _expect_error(argv, 4)


def _cli_digit_limit(rng, u, as_json):
    value = lambda: ref.bounded_compositions({300000: 2100}, 200000, False)
    return _expect_output(list(DIGIT_LIMIT_ARGV), lambda: f"{value()}\n", value)


def _per_n(method):
    return lambda rng, u, as_json: _cli_cgd(rng, u, as_json, method)


# One cli-mix round: 40 slots, every verb, 6 error jobs and the digit-limit job.
CLI_ROUND = (
    [_per_n("binomial")] * 3 + [_per_n("composition")] * 3
    + [_cli_omega_n] * 2 + [_cli_omega_table]
    + [lambda rng, u, j: _cli_genfunc(rng, u, j, False),
       lambda rng, u, j: _cli_genfunc(rng, u, j, True)]
    + [lambda rng, u, j: _cli_identical(rng, u, j, False)] * 3
    + [lambda rng, u, j: _cli_identical(rng, u, j, True)] * 3
    + [lambda rng, u, j: _cli_qbinom(rng, u, j, 4, 14)] * 3
    + [lambda rng, u, j: _cli_qbinom(rng, u, j, 15, 26)]
    + [_cli_partitions] * 2 + [_cli_compose] * 2 + [_cli_dice]
    + [lambda rng, u, j: _cli_sequence(rng, u, j, "catalan", ref.catalan),
       lambda rng, u, j: _cli_sequence(rng, u, j, "riordan", ref.riordan),
       _cli_isotropic]
    + [_cli_oracle_spins] * 2
    + [lambda rng, u, j: _cli_identical(rng, u, j, False, oracle=True),
       lambda rng, u, j: _cli_identical(rng, u, j, True, oracle=True)]
    + [_cli_parse_error] * 2 + [_cli_usage_error] + [_cli_domain_error] * 2
    + [_cli_budget_error] + [_cli_digit_limit]
)


def cli_mix(rng: random.Random, rounds: int, smoke: bool) -> list[Job]:
    """Whole rounds of CLI_ROUND; half the jobs of each slot ask for JSON."""
    draws = [strata(rng, rounds) for _ in CLI_ROUND]
    jobs = []
    for r in range(rounds):
        batch = [make(rng, draws[s][r], (s + r) % 2 == 0) for s, make in enumerate(CLI_ROUND)]
        rng.shuffle(batch)
        jobs += batch
    return jobs


GENERATORS = {"cgd-genfunc": cgd_genfunc, "identical-scan": identical_scan, "cli-mix": cli_mix}
WORKLOADS = tuple(GENERATORS)


def build(workload: str, seed: int, rounds: int, smoke: bool = False) -> list[Job]:
    return GENERATORS[workload](random.Random(f"{workload}/{seed}"), rounds, smoke)


def warm_up(workload: str) -> None:
    """First calls on inputs outside every generated job list.

    They load what spincg loads lazily; none answers a timed question (the
    scan never asks about 2j = 1 in sym or antisym, nor 2j = 9 in the
    hypergeometric route).
    """
    spincg.decompose(spincg.parse_spins("1/2"))
    if workload == "identical-scan":
        system = spincg.IdenticalSystem(1, 1)
        spincg.sym_decomposition(system)
        spincg.antisym_decomposition(system)
        spincg.q_binomial(2, 1)
        spincg.restricted_partitions(1, 1, 1)
        spincg.lambda_univariate_hypergeometric(9, 2, 0)
    if workload == "cli-mix":
        run_cli(["cgd", "--spins", "1/2"])
