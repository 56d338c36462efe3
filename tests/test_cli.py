"""CLI verbs: rendering, JSON canonical form, exit codes."""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from spincg import cli, counting, qpoly
from spincg.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cgd_text(capsys):
    code, out, err = run(capsys, "cgd", "--spins", "1/2^2,1^4")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "spins: 1/2^2,1^4"
    assert lines[1] == "total dimension: 324"
    assert lines[2] == "J = 5: 1"
    assert lines[-1] == "J = 0: 9"
    assert "J = 2: 21" in lines


def test_cgd_methods_identical(capsys):
    outputs = set()
    for method in ("genfunc", "binomial", "composition"):
        code, out, _ = run(
            capsys, "cgd", "--spins", "1/2,3/2^2,2", "--method", method
        )
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1


def test_cgd_json_round_trip(capsys):
    code, out, _ = run(capsys, "cgd", "--spins", "1/2^2,1^4", "--format", "json")
    assert code == 0
    line = out.rstrip("\n")
    doc = json.loads(line)
    assert json.dumps(doc) == line  # canonical: reserialization is byte identical
    assert doc["spins"] == "1/2^2,1^4"
    assert "composition" not in doc
    assert doc["twice_J0"] == 10
    assert doc["twice_Jm"] == 0
    assert doc["total_dimension"] == "324"
    assert doc["terms"][0] == {"twice_J": 10, "J": "5", "multiplicity": "1"}
    assert doc["terms"][3]["J"] == "2"
    assert doc["terms"][3]["multiplicity"] == "21"


def test_omega_full_and_single(capsys):
    code, out, _ = run(capsys, "omega", "--spins", "1/2^2,1^4")
    assert code == 0
    assert out.splitlines()[1] == "omega: 1 6 19 40 61 70 61 40 19 6 1"
    code, out, _ = run(capsys, "omega", "--spins", "1/2^2,1^4", "--n", "4")
    assert out.strip() == "61"
    code, out, _ = run(
        capsys, "omega", "--spins", "1/2^2,1^4", "--n", "4", "--format", "json"
    )
    doc = json.loads(out)
    assert doc == {"spins": "1/2^2,1^4", "n": 4, "omega": "61"}


def test_genfunc(capsys):
    code, out, _ = run(capsys, "genfunc", "--spins", "1/2^2")
    assert out.strip() == "1 + 2 q + q^2"
    code, out, _ = run(capsys, "genfunc", "--spins", "1/2^2", "--lambda")
    assert out.strip() == "1 + q - q^2 - q^3"
    code, out, _ = run(
        capsys, "genfunc", "--spins", "1/2^2", "--lambda", "--format", "json"
    )
    doc = json.loads(out)
    assert doc == {
        "spins": "1/2^2",
        "series": "lambda",
        "coefficients": ["1", "1", "-1", "-1"],
    }


def test_sym_antisym(capsys):
    code, out, _ = run(capsys, "sym", "--j", "1", "--num", "3")
    lines = out.splitlines()
    assert lines[0] == "spins: 1^3"
    assert lines[1] == "composition: symmetric"
    assert lines[2] == "total dimension: 10"
    assert lines[3] == "J = 3: 1"
    assert lines[4] == "J = 1: 1"

    code, out, _ = run(capsys, "antisym", "--j", "3/2", "--num", "2")
    lines = out.splitlines()
    assert lines[3] == "J = 2: 1"
    assert lines[4] == "J = 0: 1"

    code, out, _ = run(capsys, "antisym", "--j", "1", "--num", "4")
    assert code == 0
    assert out.splitlines()[2] == "no states (exclusion)"
    code, out, _ = run(
        capsys, "antisym", "--j", "1", "--num", "4", "--format", "json"
    )
    doc = json.loads(out)
    assert doc["composition"] == "antisymmetric"
    assert doc["twice_J0"] is None
    assert doc["twice_Jm"] is None
    assert doc["total_dimension"] == "0"
    assert doc["terms"] == []


def test_qbinom(capsys):
    code, out, _ = run(capsys, "qbinom", "--a", "4", "--b", "2")
    assert out.strip() == "1 + q + 2 q^2 + q^3 + q^4"
    code, out, _ = run(capsys, "qbinom", "--a", "4", "--b", "2", "--format", "json")
    doc = json.loads(out)
    assert doc == {"a": 4, "b": 2, "coefficients": ["1", "1", "2", "1", "1"]}


def test_partitions_compose_dice(capsys):
    code, out, _ = run(
        capsys, "partitions", "--max-part", "3", "--max-parts", "4", "--k", "5"
    )
    assert out.strip() == "4"
    code, out, _ = run(capsys, "compose", "--parts", "2^5,4^3,5^4", "--n", "16")
    assert out.strip() == "982"
    code, out, _ = run(
        capsys, "compose", "--parts", "2^2", "--n", "2", "--allow-zero"
    )
    assert out.strip() == "3"
    code, out, _ = run(capsys, "dice", "--dice", "2", "--sum", "7")
    assert out.strip() == "1/6"
    code, out, _ = run(
        capsys, "dice", "--dice", "2", "--sum", "7", "--digits", "6"
    )
    assert out.strip() == "1/6 ≈ 0.166667"
    code, out, _ = run(capsys, "dice", "--dice", "2", "--sum", "1")
    assert out.strip() == "0"


def test_verb_table_literals_match_the_library():
    # the table holds them as literals, so building the parser imports neither module
    from spincg.decompose import METHODS
    from spincg.oracles import DEFAULT_MAX_STATES

    assert cli._VERBS["cgd"][2]["--method"] == dict(choices=METHODS, default="genfunc")
    assert cli._VERBS["oracle"][2]["--budget"]["default"] == DEFAULT_MAX_STATES


def test_dice_digits_checked_before_the_probability(capsys, monkeypatch):
    def never(*args):
        raise AssertionError("dice_probability called")

    # the handler imports dice_probability from counting when it runs
    monkeypatch.setattr(counting, "dice_probability", never)
    code, out, err = run(
        capsys, "dice", "--dice", "2000", "--sum", "7000", "--digits", "0"
    )
    assert (code, out, err) == (3, "", "error: --digits must be >= 1\n")
    code, _, err = run(capsys, "dice", "--dice", "0", "--sum", "1", "--digits", "0")
    assert (code, err) == (3, "error: --dice must be >= 1\n")


def test_main_leaves_the_int_digit_cap_alone(capsys, monkeypatch):
    # the cap is process-wide; main neither reads nor sets it, and no module
    # of the package names it
    def forbidden(*args):
        raise AssertionError("the int/str digit cap was touched")

    for name in ("get_int_max_str_digits", "set_int_max_str_digits"):
        monkeypatch.setattr(sys, name, forbidden, raising=False)
    for argv, code in ((["compose", "--parts", "300000^2100", "--n", "200000"], 0),
                       (["cgd", "--spins", "1/2^400", "--format", "json"], 0),
                       (["dice", "--dice", "2", "--sum", "7", "--digits", "3"], 0),
                       (["cgd", "--spins", "0"], 2), (["qbinom", "--a", "x"], 2)):
        assert run(capsys, *argv)[0] == code
    package = Path(cli.__file__).parent
    assert not [p.name for p in package.glob("*.py") if "int_max_str" in p.read_text()]


def test_numbers_past_the_int_digit_cap_are_usage_errors(capsys, digit_cap):
    digit_cap(4300)
    nines = "9" * 5000
    for argv in (["cgd", "--spins", f"1^{nines}"], ["sym", "--j", nines, "--num", "2"],
                 ["compose", "--parts", f"{nines}^2", "--n", "3"],
                 ["oracle", "--spins", nines]):
        assert run(capsys, *argv) == (
            2, "", "error: a 5000-digit number is too long to read\n")
    # an over-cap value of an int option is argparse's usage error
    code, out, err = run(capsys, "omega", "--spins", "1", "--n", nines)
    assert (code, out) == (2, "") and "argument --n: invalid int value" in err


def test_sequences_and_partitions_write_past_the_int_digit_cap(capsys, monkeypatch,
                                                               digit_cap):
    # no verb of these reaches 640 digits cheaply, so the counts are stood in for
    monkeypatch.setattr(counting, "catalan", lambda v: 10**700 + v)
    monkeypatch.setattr(qpoly, "restricted_partitions", lambda n, m, k: -(10**700))
    digit_cap(640)  # the smallest cap CPython accepts
    _, out, _ = run(capsys, "catalan", "--count", "2")
    _, out2, _ = run(capsys, "partitions", "--max-part", "1", "--max-parts", "1", "--k", "1")
    big = "1" + "0" * 700
    assert (out, out2) == (f"{big} {big[:-1]}1\n", f"-{big}\n")


def test_results_past_the_int_digit_cap_print_in_full(capsys):
    # C(199999, 2099) has about 7000 digits, past the default cap on
    # int <-> str conversion (4300 digits since Python 3.10.7 / 3.11)
    get_cap = getattr(sys, "get_int_max_str_digits", None)
    cap = get_cap() if get_cap else None
    code, out, err = run(capsys, "compose", "--parts", "300000^2100", "--n", "200000")
    assert code == 0 and err == ""
    if get_cap:
        assert get_cap() == cap  # restored after the call
        sys.set_int_max_str_digits(0)
    try:
        expected = str(math.comb(199999, 2099))
    finally:
        if get_cap:
            sys.set_int_max_str_digits(cap)
    assert len(expected) > 4300
    assert out == expected + "\n"


def test_sequences_and_isotropic(capsys):
    code, out, _ = run(capsys, "catalan", "--count", "7")
    assert out.strip() == "1 1 2 5 14 42 132"
    code, out, _ = run(capsys, "riordan", "--count", "10")
    assert out.strip() == "1 0 1 1 3 6 15 36 91 232"
    code, out, _ = run(capsys, "isotropic", "--dim", "3", "--rank", "10")
    assert out.strip() == "603"


def test_oracle_full_matches_cgd(capsys):
    code, oracle_out, _ = run(
        capsys, "oracle", "--spins", "1/2^2,1^2", "--format", "json"
    )
    assert code == 0
    code, fast_out, _ = run(
        capsys, "cgd", "--spins", "1/2^2,1^2", "--format", "json"
    )
    oracle_doc = json.loads(oracle_out)
    assert oracle_doc["composition"] == "full"
    fast_doc = json.loads(fast_out)
    assert oracle_doc["terms"] == fast_doc["terms"]
    assert oracle_doc["total_dimension"] == fast_doc["total_dimension"]


def test_oracle_identical_matches_fast(capsys):
    for composition, verb in (("symmetric", "sym"), ("antisymmetric", "antisym")):
        code, oracle_out, _ = run(
            capsys, "oracle", "--j", "3/2", "--num", "2",
            "--composition", composition, "--format", "json",
        )
        assert code == 0
        code, fast_out, _ = run(
            capsys, verb, "--j", "3/2", "--num", "2", "--format", "json"
        )
        assert json.loads(oracle_out)["terms"] == json.loads(fast_out)["terms"]


IDENTICAL_RENDERINGS = {
    ("symmetric", "1", "3"): (
        "spins: 1^3\ncomposition: symmetric\ntotal dimension: 10\n"
        "J = 3: 1\nJ = 1: 1\n",
        '{"spins": "1^3", "composition": "symmetric", "twice_J0": 6, '
        '"twice_Jm": 2, "total_dimension": "10", "terms": [{"twice_J": 6, '
        '"J": "3", "multiplicity": "1"}, {"twice_J": 2, "J": "1", '
        '"multiplicity": "1"}]}\n',
    ),
    ("antisymmetric", "3/2", "3"): (
        "spins: 3/2^3\ncomposition: antisymmetric\ntotal dimension: 4\n"
        "J = 3/2: 1\n",
        '{"spins": "3/2^3", "composition": "antisymmetric", "twice_J0": 3, '
        '"twice_Jm": 3, "total_dimension": "4", "terms": [{"twice_J": 3, '
        '"J": "3/2", "multiplicity": "1"}]}\n',
    ),
    ("antisymmetric", "1", "4"): (
        "spins: 1^4\ncomposition: antisymmetric\nno states (exclusion)\n",
        '{"spins": "1^4", "composition": "antisymmetric", "twice_J0": null, '
        '"twice_Jm": null, "total_dimension": "0", "terms": []}\n',
    ),
}


@pytest.mark.parametrize("case", sorted(IDENTICAL_RENDERINGS))
def test_identical_verbs_render_byte_for_byte(capsys, case):
    # the oracle's table (shorter than 2J_0 + 1 for antisymmetric, empty
    # under exclusion) and the fast path's half span render the same bytes
    composition, j, num = case
    verb = "sym" if composition == "symmetric" else "antisym"
    text, doc = IDENTICAL_RENDERINGS[case]
    for fmt, expected in (((), text), (("--format", "json"), doc)):
        for argv in (
            ("oracle", "--j", j, "--num", num, "--composition", composition, *fmt),
            (verb, "--j", j, "--num", num, *fmt),
        ):
            assert run(capsys, *argv) == (0, expected, ""), argv


def test_oracle_identical_full_enumerates_every_state(capsys):
    for fmt in ("text", "json"):
        code, by_j, err = run(
            capsys, "oracle", "--j", "1", "--num", "2", "--composition", "full",
            "--format", fmt,
        )
        assert code == 0 and err == ""
        code, by_spins, _ = run(capsys, "oracle", "--spins", "1^2", "--format", fmt)
        assert code == 0
        if fmt == "json":
            by_j, by_spins = json.loads(by_j), json.loads(by_spins)
            assert by_j["total_dimension"] == "9"
            del by_j["spins"], by_spins["spins"]
        else:
            assert "total dimension: 9" in by_j.splitlines()
            by_j, by_spins = by_j.splitlines()[1:], by_spins.splitlines()[1:]
        assert by_j == by_spins


@pytest.mark.parametrize("budget", ["0", "-1"])
def test_oracle_budget_below_one_is_a_domain_error(capsys, budget):
    for argv in (["--spins", "1^2"], ["--j", "1", "--num", "2", "--composition", "full"]):
        code, out, err = run(capsys, "oracle", *argv, "--budget", budget)
        assert (code, out, err) == (3, "", "error: --budget must be >= 1\n")


def test_exit_codes(capsys):
    code, _, err = run(capsys, "cgd", "--spins", "0^2")
    assert code == 2 and err.startswith("error:")
    code, _, err = run(capsys, "cgd", "--spins", "3/4")
    assert code == 2
    code, _, err = run(capsys, "isotropic", "--dim", "1", "--rank", "4")
    assert code == 3 and err.startswith("error:")
    code, _, err = run(capsys, "dice", "--dice", "0", "--sum", "1")
    assert code == 3
    code, _, err = run(
        capsys, "oracle", "--spins", "2^12", "--budget", "100"
    )
    assert code == 4 and err.startswith("error:")
    code, out, err = run(capsys, "oracle", "--j", "1", "--num", "2")
    assert (code, out, err) == (2, "", (  # missing --composition
        "error: oracle needs either --spins, or --j/--num with "
        "--composition {full,symmetric,antisymmetric}\n"
    ))
    code, _, err = run(
        capsys, "oracle", "--spins", "1", "--composition", "symmetric"
    )
    assert code == 2  # --spins conflicts with a non-full composition


CGD_HALF_PAIR = "spins: 1/2^2\ntotal dimension: 4\nJ = 1: 1\nJ = 0: 1\n"
CGD_USAGE = (
    "usage: spincg cgd [-h] --spins SPINS [--method {genfunc,binomial,composition}]\n"
    "                  [--format {text,json}]\n"
)


@pytest.mark.parametrize("argv, expected", [
    (["omega", "--spins", "1/2^2,1^4", "--format", "json"], (0, (
        '{"spins": "1/2^2,1^4", "twice_J0": 10, "omega": '
        '["1", "6", "19", "40", "61", "70", "61", "40", "19", "6", "1"]}\n'), "")),
    (["sym", "--j", "1", "--num", "0"], (3, "", "error: --num must be >= 1\n")),
    (["qbinom", "--a", "-1", "--b", "0"], (3, "", "error: --a must be >= 0\n")),
    (["partitions", "--max-part", "-1", "--max-parts", "2", "--k", "3"],
     (3, "", "error: --max-part and --max-parts must be >= 0\n")),
    (["partitions", "--max-part", "2", "--max-parts", "-1", "--k", "3"],
     (3, "", "error: --max-part and --max-parts must be >= 0\n")),
    (["catalan", "--count", "-1"], (3, "", "error: --count must be >= 0\n")),
    (["riordan", "--count", "-1"], (3, "", "error: --count must be >= 0\n")),
    # every verb's full stdout, final newline included
    (["cgd", "--spins", "1/2^2,1^4"], (0, (
        "spins: 1/2^2,1^4\ntotal dimension: 324\nJ = 5: 1\nJ = 4: 5\n"
        "J = 3: 13\nJ = 2: 21\nJ = 1: 21\nJ = 0: 9\n"), "")),
    (["omega", "--spins", "1/2^2,1^4"],
     (0, "spins: 1/2^2,1^4\nomega: 1 6 19 40 61 70 61 40 19 6 1\n", "")),
    (["genfunc", "--spins", "1/2^2"], (0, "1 + 2 q + q^2\n", "")),
    (["qbinom", "--a", "4", "--b", "2"], (0, "1 + q + 2 q^2 + q^3 + q^4\n", "")),
    (["partitions", "--max-part", "3", "--max-parts", "4", "--k", "5"], (0, "4\n", "")),
    (["compose", "--parts", "2^5,4^3,5^4", "--n", "16"], (0, "982\n", "")),
    (["dice", "--dice", "2", "--sum", "7", "--digits", "6"],
     (0, "1/6 ≈ 0.166667\n", "")),
    (["catalan", "--count", "7"], (0, "1 1 2 5 14 42 132\n", "")),
    (["isotropic", "--dim", "3", "--rank", "10"], (0, "603\n", "")),
    # abbreviations, --opt=value, options out of order, a repeat (the last
    # one wins), a value that looks like an option, help and a bad value,
    # each as argparse alone handled it
    (["cgd", "--sp", "1/2^2"], (0, CGD_HALF_PAIR, "")),
    (["cgd", "--spins=1/2^2"], (0, CGD_HALF_PAIR, "")),
    (["sym", "--num", "3", "--j", "1"], (0, (
        "spins: 1^3\ncomposition: symmetric\ntotal dimension: 10\n"
        "J = 3: 1\nJ = 1: 1\n"), "")),
    (["cgd", "--spins", "1", "--spins", "1/2"],
     (0, "spins: 1/2\ntotal dimension: 2\nJ = 1/2: 1\n", "")),
    (["cgd", "--spins", "-1/2"], (2, "", (
        f"{CGD_USAGE}spincg cgd: error: argument --spins: expected one argument\n"))),
    pytest.param(["cgd", "--spins", "1/2", "-h"], (0, (
        f"{CGD_USAGE}\noptions:\n"
        "  -h, --help            show this help message and exit\n"
        '  --spins SPINS         e.g. "1/2^2,1^4"\n'
        "  --method {genfunc,binomial,composition}\n"
        "  --format {text,json}  output rendering (default text)\n"), ""),
        marks=pytest.mark.skipif(sys.version_info < (3, 11),
                                 reason="argparse 3.10 titles the section differently")),
    (["qbinom", "--a", "5", "--b", "two"], (2, "", (
        "usage: spincg qbinom [-h] --a A --b B [--format {text,json}]\n"
        "spincg qbinom: error: argument --b: invalid int value: 'two'\n"))),
])
def test_branches_render_byte_for_byte(capsys, monkeypatch, argv, expected):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage and help to it
    assert run(capsys, *argv) == expected


@pytest.mark.parametrize("fmt", [[], ["--format", "json"]])
def test_closed_stdout_pipe_ends_quietly(fmt):
    # about 1.95 MB of output, far past a pipe buffer, so the write breaks
    # once the reader has gone
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    wrapper = "import sys; from spincg.cli import main; sys.exit(main())"
    with subprocess.Popen(
        [sys.executable, "-c", wrapper, "omega", "--spins", "1/2^3000", *fmt],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    ) as proc:
        head = proc.stdout.read(16)
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert head.startswith(b'{"spins"' if fmt else b"spins: ")
    assert (code, err) == (0, b"")


def test_missing_stdout_ends_quietly(monkeypatch):
    # with file descriptor 1 closed at start-up, sys.stdout is None
    monkeypatch.setattr(sys, "stdout", None)
    assert main(["cgd", "--spins", "1/2^2"]) == 0


# Inputs whose size alone could exhaust memory or time: argv -> (exit code,
# stdout, stderr), each run under a 1 GiB address space and 10 s of CPU.
OUT_OF_MEMORY = (4, "", "error: not enough memory for this job\n")
HOSTILE_ARGVS = [
    # qbinom's table has 5 * 10^11 coefficients, far past the address space
    (("qbinom", "--a", "2000000", "--b", "1000000"), OUT_OF_MEMORY),
    # Pauli exclusion leaves no states, whatever the span 2J_0 = 10^11 - 1
    (("oracle", "--j", "1/2", "--num", "99999999999", "--composition", "antisymmetric"),
     (0, "spins: 1/2^99999999999\ncomposition: antisymmetric\nno states (exclusion)\n", "")),
    # a sum below the number of dice has probability 0, with no 6^n to build
    (("dice", "--dice", "99999999999", "--sum", "1"), (0, "0\n", "")),
    # one spin has no singlet, whatever its dimension, and an odd 2J_0
    # reaches no integer J, whatever the rank
    (("isotropic", "--dim", "99999999999", "--rank", "1"), (0, "0\n", "")),
    (("isotropic", "--dim", "2", "--rank", "99999999999"), (0, "0\n", "")),
    # three million digits of 1/6, rounded half up, in time linear in them
    (("dice", "--dice", "2", "--sum", "7", "--digits", "3000000"),
     (0, "1/6 ≈ 0.1" + "6" * (3000000 - 2) + "7\n", "")),
    # oracle counts far past the budget are bounded below from bit lengths,
    # never built nor written: 3^(10^11), C(199999999999, 99999) and 3^300000
    (("oracle", "--spins", "1^99999999999"),
     (4, "", "error: oracle_omega(1^99999999999) needs at least 2^99999999999 states, "
             "over the budget of 1000000\n")),
    (("oracle", "--j", "99999999999", "--num", "99999", "--composition", "antisymmetric",
      "--budget", "10"),
     (4, "", "error: oracle_antisym(2j=199999999998, N=99999) needs at least 2^1999980 "
             "states, over the budget of 10\n")),
    (("oracle", "--spins", "1^300000", "--budget", "10"),
     (4, "", "error: oracle_omega(1^300000) needs at least 2^300000 states, "
             "over the budget of 10\n")),
    # tables longer than sys.maxsize: the allocation raises OverflowError,
    # not MemoryError, before it takes any memory
    (("cgd", "--spins", "100000000000000000000"), OUT_OF_MEMORY),
    (("omega", "--spins", "100000000000000000000"), OUT_OF_MEMORY),
    (("genfunc", "--spins", "100000000000000000000", "--lambda"), OUT_OF_MEMORY),
    (("sym", "--j", "100000000000000000000", "--num", "1"), OUT_OF_MEMORY),
    (("antisym", "--j", "100000000000000000000", "--num", "2"), OUT_OF_MEMORY),
    (("qbinom", "--a", "18446744073709551618", "--b", "1"), OUT_OF_MEMORY),
    (("partitions", "--max-part", "9223372036854775808", "--max-parts", "2",
      "--k", "9223372036854775808"), OUT_OF_MEMORY),
    (("isotropic", "--dim", "18446744073709551616", "--rank", "2"), OUT_OF_MEMORY),
]


def test_running_out_of_memory_exits_4():
    resource = pytest.importorskip("resource")
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    wrapper = "import sys; from spincg.cli import main; sys.exit(main())"

    def limit_address_space_and_time():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
        resource.setrlimit(resource.RLIMIT_CPU, (10, 10))

    for argv, expected in HOSTILE_ARGVS:
        result = subprocess.run(
            [sys.executable, "-c", wrapper, *argv],
            capture_output=True, text=True, env=env, timeout=60,
            preexec_fn=limit_address_space_and_time,
        )
        assert (result.returncode, result.stdout, result.stderr) == expected, argv


def test_usage_errors_from_argparse(capsys):
    assert run(capsys, "cgd")[0] == 2  # missing --spins
    assert run(capsys, "nonsense")[0] == 2
    assert run(capsys)[0] == 2
    assert run(capsys, "cgd", "--spins", "1", "--method", "magic")[0] == 2


# Every verb in text and with --format json (verbs without --format reject
# it with exit 2), help, usage errors, and exits 3 and 4.
REUSE_ARGVS = [
    *([*verb, *fmt] for verb in (
        ("cgd", "--spins", "1/2^2,1^2"),
        ("omega", "--spins", "1/2,1", "--n", "1"),
        ("genfunc", "--spins", "1/2^2", "--lambda"),
        ("sym", "--j", "1", "--num", "3"),
        ("antisym", "--j", "3/2", "--num", "2"),
        ("qbinom", "--a", "5", "--b", "2"),
        ("partitions", "--max-part", "3", "--max-parts", "4", "--k", "5"),
        ("compose", "--parts", "2^2", "--n", "2", "--allow-zero"),
        ("dice", "--dice", "2", "--sum", "7", "--digits", "3"),
        ("catalan", "--count", "5"),
        ("riordan", "--count", "5"),
        ("isotropic", "--dim", "3", "--rank", "4"),
        ("oracle", "--j", "1", "--num", "2", "--composition", "symmetric"),
    ) for fmt in ((), ("--format", "json"))),
    ["--help"], ["cgd", "--help"], ["nonsense"], [], ["cgd", "--spins", "1", "extra"],
    ["cgd", "--spins", "0^2"],
    ["isotropic", "--dim", "1", "--rank", "4"],
    ["oracle", "--spins", "2^12", "--budget", "100"],
]


def test_parser_reuse_leaks_nothing_between_calls(capsys, monkeypatch):
    def outcomes(order, fresh=False):
        results = {}
        for argv in order:
            if fresh:
                cli._parser.cache_clear()
            results[tuple(argv)] = run(capsys, *argv)
        return results

    reference = outcomes(REUSE_ARGVS, fresh=True)
    assert {code for code, _, _ in reference.values()} == {0, 2, 3, 4}
    for seed in (1, 2):
        order = list(REUSE_ARGVS)
        random.Random(seed).shuffle(order)
        assert outcomes(order) == reference

    # one tree of 14 parsers (the root and 13 verbs), built in the first call
    # that the plain reader leaves to argparse; plain calls build none
    built_during = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built_during.append(call)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli._parser.cache_clear()
    order = [REUSE_ARGVS[call % len(REUSE_ARGVS)] for call in range(50)]
    for call, argv in enumerate(order):
        run(capsys, *argv)
    first = next(call for call, argv in enumerate(order) if cli._plain_args(argv) is None)
    assert built_during == [first] * 14
    built_during.clear()
    cli._parser.cache_clear()
    plain = [argv for argv in REUSE_ARGVS if cli._plain_args(argv) is not None]
    for call, argv in enumerate(plain):
        run(capsys, *argv)
    assert plain and built_during == []


# One valid argv per verb, covering every option but help; the fuzz test
# below mutates them.
FUZZ_SEEDS = [
    ["cgd", "--spins", "1/2^2,1", "--method", "binomial", "--format", "json"],
    ["omega", "--spins", "1/2,1", "--n", "1", "--format", "text"],
    ["genfunc", "--spins", "1/2^2", "--lambda", "--format", "json"],
    ["sym", "--j", "1", "--num", "3", "--format", "json"],
    ["antisym", "--j", "3/2", "--num", "2", "--format", "text"],
    ["qbinom", "--a", "5", "--b", "2", "--format", "text"],
    ["partitions", "--max-part", "3", "--max-parts", "4", "--k", "5"],
    ["compose", "--parts", "2^2", "--n", "2", "--allow-zero"],
    ["dice", "--dice", "2", "--sum", "7", "--digits", "3"],
    ["catalan", "--count", "5"],
    ["riordan", "--count", "5"],
    ["isotropic", "--dim", "3", "--rank", "4"],
    ["oracle", "--spins", "1^2", "--j", "1", "--num", "2",
     "--composition", "full", "--budget", "100", "--format", "json"],
]
FUZZ_TOKENS = [
    "-3", "-.5", "-1e3", "-x", "\u0663", "\u00b2", "1_000", " 4", "", "-", "--",
    "-h", "--help", "-3\n", "-1/2", "x y", "magic", "7", "json", "full",
    "--spins", "--num", "--format", "--lambda", "--allow-zero", "cgd",
]


def _mutate(rng, argv):
    for _ in range(rng.randint(0, 3)):
        i = rng.randrange(len(argv))
        option = argv[i].startswith("--")
        kind = rng.randrange(7)
        if kind == 0 and option:  # abbreviation
            argv[i] = argv[i][:rng.randint(2, len(argv[i]))]
        elif kind == 1 and option and i + 1 < len(argv):  # --opt=value
            argv[i:i + 2] = [f"{argv[i]}={argv[i + 1]}"]
        elif kind == 2:  # a token inserted anywhere
            argv.insert(rng.randrange(len(argv) + 1), rng.choice(FUZZ_TOKENS))
        elif kind == 3:  # a token replaced: bad values, bad choices
            argv[i] = rng.choice(FUZZ_TOKENS)
        elif kind == 4:  # an option or its value dropped
            del argv[i:i + rng.randint(1, 2)]
        elif kind == 5 and option:  # a repeat with another value
            argv += [argv[i], rng.choice(FUZZ_TOKENS)]
        elif kind == 6 and option and i + 1 < len(argv):  # a pair moved last
            argv += [argv.pop(i), argv.pop(i)]
        if not argv:
            break
    return argv


def test_plain_reader_equals_argparse():
    rng = random.Random(14)
    read = declined = 0
    for _ in range(4000):
        argv = _mutate(rng, list(rng.choice(FUZZ_SEEDS)))
        args = cli._plain_args(argv)
        if args is None:
            declined += 1
        else:
            read += 1
            assert args == cli._parser().parse_args(argv), argv
    assert read > 1000 and declined > 1000


def test_plain_argv_never_reach_argparse(capsys, monkeypatch):
    answered = [argv for argv in REUSE_ARGVS
                if "--help" not in argv and run(capsys, *argv)[0] == 0]
    assert {argv[0] for argv in answered} == set(cli._parser()._actions[-1].choices)
    calls = []
    parse = argparse.ArgumentParser.parse_known_args

    def counting_parse(self, *args, **kwargs):
        calls.append(self.prog)
        return parse(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counting_parse)

    def reaches_argparse(argv):
        calls.clear()
        run(capsys, *argv)
        return bool(calls)

    for argv in [*answered, ["sym", "--j", "1", "--num", "-3"]]:
        assert not reaches_argparse(argv), argv
    for argv in (["--help"], [], ["nonsense"], ["cgd", "--spins", "1", "extra"]):
        assert reaches_argparse(argv), argv


def test_fuzz_seeds_cover_every_option():
    # an option added to the verb table without a fuzz seed fails here
    seeded = {(argv[0], token) for argv in FUZZ_SEEDS for token in argv[1:]}
    declared = {(verb, flag) for verb, (_, _, options) in cli._VERBS.items()
                for flag in options}
    assert {argv[0] for argv in FUZZ_SEEDS} == set(cli._VERBS)
    assert declared - seeded == set()


def test_cli_output_unchanged_under_optimized_mode():
    # python -O strips asserts and must not change what a verb prints
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    env.pop("PYTHONOPTIMIZE", None)
    wrapper = "import sys; from spincg.cli import main; sys.exit(main())"
    argv = ["cgd", "--spins", "1/2^3,1^2", "--format", "json"]

    def cgd(*flags):
        return subprocess.run(
            [sys.executable, *flags, "-c", wrapper, *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )

    plain, optimized = cgd(), cgd("-O")
    assert optimized.returncode == 0, optimized.stderr
    assert plain.returncode == 0, plain.stderr
    assert optimized.stdout == plain.stdout
    assert json.loads(plain.stdout)["spins"] == "1/2^3,1^2"


def test_entry_point_installed():
    """The `spincg` console command runs `cgd` as a separate process.

    An installed `spincg` on PATH is run as it is. In an uninstalled tree
    (tests run with ``PYTHONPATH=src``) there is none, so the target declared
    in ``[project.scripts]`` is run the way the installer's wrapper runs it,
    with ``src/`` prepended to ``PYTHONPATH``.
    """
    exe = shutil.which("spincg")
    if exe is not None:
        cmd, env = [exe], None
    else:
        tomllib = pytest.importorskip("tomllib")
        root = Path(__file__).resolve().parents[1]
        with open(root / "pyproject.toml", "rb") as fh:
            scripts = tomllib.load(fh)["project"]["scripts"]
        assert scripts.get("spincg") == "spincg.cli:main"
        wrapper = "import sys; from spincg.cli import main; sys.exit(main())"
        cmd = [sys.executable, "-c", wrapper]
        pythonpath = [str(root / "src"), os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, pythonpath))}

    result = subprocess.run(
        [*cmd, "cgd", "--spins", "1/2,1/2"], capture_output=True, text=True, env=env
    )
    assert result.returncode == 0, result.stderr
    assert "J = 1: 1" in result.stdout
    assert "J = 0: 1" in result.stdout
    # The exit code reaches the shell: a parse error exits 2.
    result = subprocess.run(
        [*cmd, "cgd", "--spins", "0^2"], capture_output=True, text=True, env=env
    )
    assert result.returncode == 2, result.stderr
    assert result.stderr.startswith("error:")
