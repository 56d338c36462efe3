"""Regenerate tests/cli_corpus.jsonl, the golden CLI corpus.

    PYTHONPATH=src python tests/make_cli_corpus.py

The argv rows are drawn from a fixed seed, so a rerun gives the same rows;
each is run through spincg.cli.main in-process with COLUMNS=80 and its exit
code, stdout and stderr are stored.  Rerun only when a change alters CLI
output on purpose, and list every changed row with the change: the script
prints the argv of each row whose exit code, stdout or stderr differs from
the file it replaces.

The first line of the file is a header naming the Python minor version that
wrote it.  Each further line is one row: argv, exit code, the SHA-256 of
stdout and of stderr, the full text of each when it is short, and
"argparse": true when argparse wrote the text (help and usage errors).
tests/test_cli_corpus.py skips those rows on another minor version, whose
argparse may word and wrap them differently.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys
from pathlib import Path

from spincg import cli

CORPUS = Path(__file__).resolve().parent / "cli_corpus.jsonl"
SEED = 16
TEXT_LIMIT = 1000  # longer stdout or stderr is stored by hash only

VERBS = ("cgd", "omega", "genfunc", "sym", "antisym", "qbinom", "partitions",
         "compose", "dice", "catalan", "riordan", "isotropic", "oracle")
FORMATTED = {"cgd", "omega", "genfunc", "sym", "antisym", "qbinom", "oracle"}
HALVES = ("1/2", "1", "3/2", "2", "5/2", "3")


def _spins(rng: random.Random, most: int = 5, top: int = 6) -> str:
    items = []
    for _ in range(rng.randint(1, 3)):
        twice = rng.randint(1, top)
        spin = str(twice // 2) if twice % 2 == 0 else f"{twice}/2"
        count = rng.randint(1, most)
        items.append(spin if count == 1 and rng.random() < 0.5 else f"{spin}^{count}")
    return ",".join(items)


def _valid(rng: random.Random, verb: str) -> list[str]:
    """One argv for verb with sensible values (some out of range: exit 3)."""
    r = rng.randint
    if verb == "cgd":
        argv = ["--spins", _spins(rng)]
        if rng.random() < 0.6:
            argv += ["--method", rng.choice(("genfunc", "binomial", "composition"))]
    elif verb == "omega":
        argv = ["--spins", _spins(rng)]
        if rng.random() < 0.5:
            argv += ["--n", str(r(-2, 14))]
    elif verb == "genfunc":
        argv = ["--spins", _spins(rng, 4, 5)] + (["--lambda"] if rng.random() < 0.5 else [])
    elif verb in ("sym", "antisym"):
        argv = ["--j", rng.choice(HALVES), "--num", str(r(0, 6))]
    elif verb == "qbinom":
        a = r(-1, 14)
        argv = ["--a", str(a), "--b", str(r(-2, a + 2))]
    elif verb == "partitions":
        argv = ["--max-part", str(r(-1, 6)), "--max-parts", str(r(0, 6)), "--k", str(r(-1, 20))]
    elif verb == "compose":
        parts = ",".join(f"{r(1, 5)}^{r(1, 4)}" for _ in range(r(1, 3)))
        argv = ["--parts", parts, "--n", str(r(-1, 18))]
        if rng.random() < 0.4:
            argv.append("--allow-zero")
    elif verb == "dice":
        argv = ["--dice", str(r(0, 6)), "--sum", str(r(0, 30))]
        if rng.random() < 0.5:
            argv += ["--digits", str(r(0, 12))]
    elif verb in ("catalan", "riordan"):
        argv = ["--count", str(r(-1, 14))]
    elif verb == "isotropic":
        argv = ["--dim", str(r(1, 4)), "--rank", str(r(1, 8))]
    else:  # oracle
        if rng.random() < 0.5:
            argv = ["--spins", _spins(rng, 2, 3)]
            if rng.random() < 0.2:
                argv += ["--composition", "full"]
        else:
            argv = ["--j", rng.choice(HALVES[:4]), "--num", str(r(1, 3)),
                    "--composition", rng.choice(("full", "symmetric", "antisymmetric"))]
        if rng.random() < 0.3:
            argv += ["--budget", str(r(1, 400))]
    if rng.random() < 0.5:  # --format on every verb; the verbs without it reject it
        argv += ["--format", rng.choice(("text", "json"))]
    return [verb, *argv]


TOKENS = [
    "-3", "-.5", "-1e3", "-x", "٣", "1_000", " 4", "", "-", "--", "-h",
    "--help", "-1/2", "x y", "magic", "7", "json", "text", "full", "1/2",
    "--spins", "--num", "--format", "--lambda", "--allow-zero", "--n", "cgd",
]


def _mutate(rng: random.Random, argv: list[str]) -> list[str]:
    """Abbreviations, --opt=value, inserted, replaced, dropped, repeated and
    reordered tokens."""
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(argv))
        option = argv[i].startswith("--")
        kind = rng.randrange(7)
        if kind == 0 and option:
            argv[i] = argv[i][:rng.randint(3, len(argv[i]))]
        elif kind == 1 and option and i + 1 < len(argv):
            argv[i:i + 2] = [f"{argv[i]}={argv[i + 1]}"]
        elif kind == 2:
            argv.insert(rng.randrange(len(argv) + 1), rng.choice(TOKENS))
        elif kind == 3:
            argv[i] = rng.choice(TOKENS)
        elif kind == 4:
            del argv[i:i + rng.randint(1, 2)]
        elif kind == 5 and option and i + 1 < len(argv):
            argv += [argv[i], argv[i + 1]]
        elif kind == 6 and option and i + 1 < len(argv):
            argv += [argv.pop(i), argv.pop(i)]
        if not argv:
            break
    return argv


FIXED = [
    [], ["-h"], ["--help"], ["nonsense"], ["--spins", "1"], ["--", "cgd"],
    ["cgd"], ["cgd", "--spins", "1", "extra"], ["cgd", "--spins"],
    ["cgd", "--spins", "1", "--method", "fast"], ["sym", "--j", "1", "--num", "two"],
    ["qbinom", "--a", "3"], ["bogus", "--spins", "2"],
    # parse errors (exit 2 from spincg, not argparse)
    ["cgd", "--spins", "0^2"], ["cgd", "--spins", "3/4"], ["cgd", "--spins", "5/3"],
    ["cgd", "--spins", "1/2,4/2"], ["omega", "--spins", "2^0"],
    ["genfunc", "--spins", "1/2^2,,1"], ["sym", "--j", "0", "--num", "2"],
    ["compose", "--parts", "0^3", "--n", "3"], ["oracle", "--j", "1", "--num", "2"],
    ["oracle", "--spins", "1", "--composition", "symmetric"],
    # domain errors (exit 3)
    ["sym", "--j", "1", "--num", "0"], ["antisym", "--j", "3/2", "--num", "-2"],
    ["qbinom", "--a", "-1", "--b", "0"], ["dice", "--dice", "0", "--sum", "1"],
    ["dice", "--dice", "2", "--sum", "7", "--digits", "0"], ["catalan", "--count", "-1"],
    ["riordan", "--count", "-3"], ["isotropic", "--dim", "1", "--rank", "4"],
    ["partitions", "--max-part", "2", "--max-parts", "-1", "--k", "3"],
    ["oracle", "--spins", "1^2", "--budget", "0"],
    ["sym", "--j", "0", "--num", "0"],
    # budget exceeded (exit 4)
    ["oracle", "--spins", "2^12", "--budget", "100"],
    ["oracle", "--spins", "1^9", "--budget", "19682"],
    ["oracle", "--j", "3/2", "--num", "6", "--composition", "symmetric", "--budget", "50"],
    # results past the int/str digit cap: C(199999, 2099) has about 7,000 digits
    ["compose", "--parts", "300000^2100", "--n", "200000"],
    ["cgd", "--spins", "1/2^400", "--format", "json"],
    # one row per renderer that writes more than 640 digits, the smallest
    # cap CPython accepts: test_cli_corpus reruns the corpus under that cap
    ["cgd", "--spins", "1/2^2200"], ["cgd", "--spins", "1/2^2200", "--format", "json"],
    ["omega", "--spins", "1/2^2200", "--n", "1100"], ["omega", "--spins", "1/2^2200"],
    ["genfunc", "--spins", "1/2^2200"], ["genfunc", "--spins", "1/2^2200", "--lambda"],
    ["dice", "--dice", "900", "--sum", "3150"],
    ["dice", "--dice", "1", "--sum", "3", "--digits", "700"],
    ["isotropic", "--dim", "2", "--rank", "2300"],
    ["oracle", "--spins", "1^1400", "--budget", "10"],
]


def argv_rows() -> list[list[str]]:
    rng = random.Random(SEED)
    rows = list(FIXED)
    for verb in VERBS:
        rows += [[verb, "-h"], [verb, "--help"], [*_valid(rng, verb), "-h"]]
        for fmt in ("text", "json"):
            argv = _valid(rng, verb)
            if verb in FORMATTED:
                argv = [a for a in argv if a not in ("--format", "text", "json")]
                argv += ["--format", fmt]
            rows.append(argv)
        rows += [_valid(rng, verb) for _ in range(32)]
    rows += [_mutate(rng, _valid(rng, rng.choice(VERBS))) for _ in range(540)]
    unique = {}
    for argv in rows:
        unique.setdefault(tuple(argv), list(argv))
    return list(unique.values())


def run(argv: list[str]) -> tuple[int, str, str]:
    """cli.main(argv) in-process: exit code, stdout, stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def record(argv: list[str]) -> dict:
    code, out, err = run(argv)
    row = {"argv": argv, "exit": code,
           "stdout_sha256": sha256(out), "stderr_sha256": sha256(err)}
    if len(out) <= TEXT_LIMIT:
        row["stdout"] = out
    if len(err) <= TEXT_LIMIT:
        row["stderr"] = err
    if out.startswith("usage: ") or err.startswith("usage: "):
        row["argparse"] = True
    return row


def outcome(row: dict) -> tuple[int, str, str]:
    return row["exit"], row["stdout_sha256"], row["stderr_sha256"]


def main() -> None:
    os.environ["COLUMNS"] = "80"  # argparse wraps usage and help to it
    header = {"python": "%d.%d" % sys.version_info[:2], "columns": 80}
    old = {}
    if CORPUS.exists():
        old = {tuple(row["argv"]): outcome(row)
               for row in map(json.loads, CORPUS.read_text().splitlines()[1:])}
    rows = [record(argv) for argv in argv_rows()]
    for row in rows:
        if old.get(tuple(row["argv"])) != outcome(row):
            print("changed:", json.dumps(row["argv"]))
    lines = [json.dumps(header)] + [json.dumps(row) for row in rows]
    CORPUS.write_text("\n".join(lines) + "\n")
    print(f"{len(lines) - 1} rows -> {CORPUS}")


if __name__ == "__main__":
    main()
