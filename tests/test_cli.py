"""CLI verbs: rendering, JSON canonical form, exit codes."""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

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
    code, _, err = run(capsys, "oracle", "--j", "1", "--num", "2")
    assert code == 2  # missing --composition
    code, _, err = run(
        capsys, "oracle", "--spins", "1", "--composition", "symmetric"
    )
    assert code == 2  # --spins conflicts with a non-full composition


def test_usage_errors_from_argparse(capsys):
    assert run(capsys, "cgd")[0] == 2  # missing --spins
    assert run(capsys, "nonsense")[0] == 2
    assert run(capsys)[0] == 2
    assert run(capsys, "cgd", "--spins", "1", "--method", "magic")[0] == 2


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
