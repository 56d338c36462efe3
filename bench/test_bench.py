"""Tests of the benchmark itself: python3 -m pytest bench/ from the repo root."""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import jobs  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True,
        text=True, timeout=170,
    )


def smoke(workload: str, trace: int, seed: int = 3) -> dict:
    proc = bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                 "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_smoke_run_reports_every_metric(workload):
    rounds = 3
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        result = smoke(workload, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        # the only job allowed to fail is the digit-limit compose, once a round
        allowed = rounds if workload == "cli-mix" else 0
        assert result["failed"] in {0, allowed}
        names = {m["name"]: m["unit"] for m in SPEC[group]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == names
        if trace == 0:
            assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_counts_repeat_exactly():
    counts = [
        {k: v["value"] for k, v in smoke("cli-mix", 1, seed=5)["metrics"].items()
         if v["unit"] in ("count", "bits")}
        for _ in range(2)
    ]
    assert counts[0] == counts[1]
    assert counts[0]["cli.build_parser_calls"] == 120


def test_tracer_puts_the_program_back():
    import spincg
    import spincg.cli
    from spincg.qpoly import IntPolynomial

    before = (spincg.parse_spins, spincg.cli.main, IntPolynomial.__mul__)
    tracer = layers.Tracer()
    tracer.install()
    try:
        assert spincg.parse_spins is not before[0]
        spincg.decompose(spincg.parse_spins("1/2^4,1"))
    finally:
        tracer.uninstall()
    assert (spincg.parse_spins, spincg.cli.main, IntPolynomial.__mul__) == before
    assert tracer.calls["spins.parse"] == 1
    assert tracer.counts["decompose.omega_terms"] == 7  # 2J_0 = 6


def _corrupt_cgd(answer):
    doc = json.loads(answer)
    doc["terms"][-1]["multiplicity"] = str(int(doc["terms"][-1]["multiplicity"]) + 1)
    return json.dumps(doc)


def _corrupt_table(answer):
    twice_j, mult = answer.entries[-1]
    return dataclasses.replace(answer, entries=answer.entries[:-1] + ((twice_j, mult + 1),))


def _corrupt_cli(answer):
    code, out, err = answer
    return code, out.replace("1", "2", 1), err


@pytest.mark.parametrize("workload, kind, corrupt", [
    ("cgd-genfunc", "cgd", _corrupt_cgd),
    ("identical-scan", "sym", _corrupt_table),
    ("identical-scan", "antisym", _corrupt_table),
    ("identical-scan", "partitions", lambda value: value + 1),
    ("identical-scan", "deep-span", lambda value: value - 1),
    ("cli-mix", "cgd", _corrupt_cli),
    ("cli-mix", "qbinom", _corrupt_cli),
    ("cli-mix", "error", lambda answer: (0,) + answer[1:]),
])
def test_checks_reject_a_corrupted_answer(workload, kind, corrupt):
    job_list = jobs.build(workload, 7, 3, smoke=True)
    answers, _, _ = run.run_jobs(job_list)
    assert run.check_answers(job_list, answers)[0] == []
    index = next(i for i, job in enumerate(job_list)
                 if job.kind == kind and not isinstance(answers[i], Exception)
                 and answers[i] != corrupt(answers[i]))
    answers[index] = corrupt(answers[index])
    errors, _ = run.check_answers(job_list, answers)
    assert len(errors) == 1 and errors[0].startswith(f"job {index} ({kind})")


def test_fails_without_the_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "cli-mix", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
