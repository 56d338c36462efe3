"""The golden CLI corpus: exit code, stdout and stderr of about 1,000 argv.

tests/cli_corpus.jsonl holds the expected results; tests/make_cli_corpus.py
writes it.  Rows whose text argparse writes (help and usage errors) are
checked only on the Python minor version that wrote the file.
"""

from __future__ import annotations

import difflib
import json
import sys

from make_cli_corpus import CORPUS, argv_rows, run, sha256


def _mismatch(row: dict, code: int, out: str, err: str) -> str | None:
    problems = []
    if code != row["exit"]:
        problems.append(f"exit {code}, expected {row['exit']}")
    for name, text in (("stdout", out), ("stderr", err)):
        if sha256(text) == row[f"{name}_sha256"]:
            continue
        if name in row:
            diff = difflib.unified_diff(
                row[name].splitlines(keepends=True), text.splitlines(keepends=True),
                "expected", "got")
            problems.append(f"{name} differs:\n" + "\n".join(map(repr, diff)))
        else:
            problems.append(f"{name} differs ({len(text)} characters)")
    return "; ".join(problems) or None


def test_corpus_rows_are_the_generator_rows():
    # a corpus written by a drifted generator, or edited by hand, fails here
    _, *rows = map(json.loads, CORPUS.read_text().splitlines())
    assert [row["argv"] for row in rows] == argv_rows()


def test_cli_corpus(monkeypatch):
    _check_corpus(monkeypatch)


def test_cli_corpus_under_the_smallest_digit_cap(monkeypatch, digit_cap):
    # 640 digits, the smallest int/str cap CPython accepts: the rows that
    # write longer numbers must not change
    digit_cap(640)
    _check_corpus(monkeypatch)


def _check_corpus(monkeypatch) -> None:
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage and help to it
    header, *rows = map(json.loads, CORPUS.read_text().splitlines())
    assert len(rows) > 900 and {row["exit"] for row in rows} == {0, 2, 3, 4}
    same_argparse = header["python"] == "%d.%d" % sys.version_info[:2]
    failures = []
    for row in rows:
        if row.get("argparse") and not same_argparse:
            continue
        try:
            problem = _mismatch(row, *run(row["argv"]))
        except Exception as exc:  # main must end every argv in an exit code
            problem = f"raised {exc!r}"
        if problem:
            failures.append(f"{row['argv']}: {problem}")
    assert not failures, f"{len(failures)} rows differ:\n" + "\n".join(failures[:5])
