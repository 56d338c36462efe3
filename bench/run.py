"""spincg benchmark: three seeded workloads with checked answers.

    python3 bench/run.py --workload cgd-genfunc --seed 1 --seconds 15 --trace 0

Run from the repository root; spincg is imported from ./src.  One process,
one thread, one caller in a closed loop over a fixed job list (jobs.py)
sized by --seconds.  After the timed phase every answer is checked against
reference.py.  Times are CPU time scaled to a reference speed (run_jobs).
The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}; --trace 0 reports the
end-to-end metrics, --trace 1 runs the same jobs with every spincg layer
wrapped (layers.py) and reports per-layer metrics instead.  A copy of the
result, with per-function detail, goes to bench/results/.  --smoke runs a
tiny version of the workload, for tests.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"

# Rounds per second of --seconds, set so that the timed phase takes about
# --seconds on the reference machine in README.md.  A round is 4 jobs of
# cgd-genfunc, 4-6 questions of identical-scan, or 40 CLI calls.
ROUNDS_PER_SECOND = {"cgd-genfunc": 6.0, "identical-scan": 52.0, "cli-mix": 6.0}
SETUP_SAMPLES = 9
PROBE_EVERY_S = 0.2
# CPU ms of the calibration kernel on the reference machine in its fast state
# (README.md); every time is reported as if the host ran at that speed.
REFERENCE_KERNEL_MS = 0.65


def _import_spincg():
    """Import spincg from this checkout's src/, and nothing else."""
    if not (SRC / "spincg" / "__init__.py").is_file():
        sys.exit(f"bench: no spincg sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(BENCH))
    import spincg
    if Path(spincg.__file__).resolve().parent != SRC / "spincg":
        sys.exit(f"bench: imported spincg from {spincg.__file__}, not from {SRC}")


def _calibration_kernel() -> int:
    # Fixed pure-Python work that shares no code with spincg but resembles
    # its mix: a schoolbook product of 250-bit coefficients, a tuple-keyed
    # memo and JSON text.  About 0.65 ms of CPU at the reference speed.
    a = [7**90 * (i + 1) for i in range(40)]
    out = [0] * 79
    for i, ca in enumerate(a):
        for j, cb in enumerate(a):
            out[i + j] += ca * cb
    memo = {}
    for n in range(30):
        for k in range(30):
            memo[n, k] = memo.get((n - 1, k), 1) + memo.get((n, k - 1), 0)
    return len(json.dumps({"c": [str(c) for c in out[:20]], "m": memo[29, 29] % 1000}))


def slowdown() -> float:
    """How much slower than the reference the host runs now.

    The calibration kernel's CPU time (median of three runs) over
    REFERENCE_KERNEL_MS.
    """
    samples = []
    for _ in range(3):
        t0 = time.process_time()
        _calibration_kernel()
        samples.append(time.process_time() - t0)
    return statistics.median(samples) * 1000 / REFERENCE_KERNEL_MS


def run_jobs(jobs) -> tuple[list, list[float], list[float]]:
    """Run every job once, in order; return answers, CPU seconds and slowdowns.

    Times are CPU time of this process (user and system): the jobs run on one
    thread and do no I/O, and CPU time leaves out what the hypervisor of a
    virtual machine gives to other guests.  The host's own speed still moves,
    so the calibration kernel is timed every PROBE_EVERY_S seconds of job
    time, and each job gets the mean slowdown of the probes before and after
    it.  A job that raises gets the exception as its answer.
    """
    answers, durations, probes = [], [], []  # probes: (first job index, slowdown)
    clock = time.process_time
    since = PROBE_EVERY_S
    for i, job in enumerate(jobs):
        if since >= PROBE_EVERY_S:
            probes.append((i, slowdown()))
            since = 0.0
        t0 = clock()
        try:
            answer = job.call()
        except Exception as exc:  # a fault of the program: counted as failed
            answer = exc
        durations.append(clock() - t0)
        answers.append(answer)
        since += durations[-1]
    probes.append((len(jobs), slowdown()))
    slowdowns = []
    for (start, before), (end, after) in zip(probes, probes[1:]):
        slowdowns += [(before + after) / 2] * (end - start)
    return answers, durations, slowdowns


def check_answers(jobs, answers) -> tuple[list[str], int]:
    """Check every answer that is not a failure; return errors and max bits."""
    errors, bits = [], 0
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # references may print past the default limit
    try:
        for i, (job, answer) in enumerate(zip(jobs, answers)):
            if isinstance(answer, Exception):
                continue
            try:
                bits = max(bits, job.check(answer))
            except Exception as exc:  # a check that cannot read the answer rejects it
                errors.append(f"job {i} ({job.kind}): {type(exc).__name__}: {exc}")
    finally:
        sys.set_int_max_str_digits(limit)
    return errors, bits


def setup_seconds() -> float:
    """Median time of fresh interpreters that import spincg and build the parser.

    Each sample is wall time divided by the slowdown measured just before it.
    """
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import spincg.cli; spincg.cli.build_parser()")
    cmd = [sys.executable, "-c", code, str(SRC)]
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        factor = slowdown()
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        if i:  # the first one also writes the bytecode cache
            samples.append((time.perf_counter() - t0) / factor)
    return statistics.median(samples)


def measure(workload: str, seed: int, seconds: float, trace: bool,
            smoke: bool) -> tuple[dict, dict]:
    import jobs as workloads
    import layers

    rounds = 3 if smoke else max(1, round(seconds * ROUNDS_PER_SECOND[workload]))
    job_list = workloads.build(workload, seed, rounds, smoke)
    workloads.warm_up(workload)
    tracer = layers.Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    try:
        answers, durations, slowdowns = run_jobs(job_list)
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    errors, bits = check_answers(job_list, answers)
    scaled = [d / s for d, s in zip(durations, slowdowns)]
    latencies = [t for t, a in zip(scaled, answers) if not isinstance(a, Exception)]
    typical = statistics.median(slowdowns)
    failures = [f"job {i} ({job.kind}): {type(a).__name__}: {str(a)[:120]}"
                for i, (job, a) in enumerate(zip(job_list, answers))
                if isinstance(a, Exception)]
    for line in errors + failures:
        print(f"bench: {line}", file=sys.stderr)

    if tracer is None:
        metrics = {
            "setup_s": (setup_seconds(), "s"),
            "throughput_jobs_s": (len(latencies) / sum(scaled), "1/s"),
            "latency_p50_ms": (statistics.median(latencies) * 1000, "ms"),
            "latency_p90_ms": (statistics.quantiles(latencies, n=10)[8] * 1000, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        metrics = tracer.metrics(typical)
        metrics["qpoly.max_coeff_bits"] = (bits, "bits")
        metrics["jobs.outside_layers_ms"] = (
            (sum(durations) - tracer.top_level_seconds) * 1000 / typical, "ms")
    result = {
        "correct": not errors,
        "attempted": len(job_list),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    detail = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "smoke": smoke, "rounds": rounds, "timed_cpu_s": sum(durations),
        "slowdown_median": typical, "slowdown_range": [min(slowdowns), max(slowdowns)],
        "python": sys.version.split()[0], "result": result,
        "failures": failures, "errors": errors,
    }
    if tracer is not None:
        detail["functions"] = {
            name: {"calls": calls, "self_ms": secs * 1000}
            for name, (calls, secs) in sorted(tracer.by_function.items())
        }
    print(f"bench: {workload} seed {seed}: {len(job_list)} jobs, {len(failures)} failed, "
          f"timed phase {sum(durations):.3f} s of CPU, slowdown {typical:.3f}", file=sys.stderr)
    return result, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(ROUNDS_PER_SECOND))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny job lists")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    _import_spincg()
    result, detail = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                             args.smoke)
    out = BENCH / "results"
    out.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    (out / f"{name}.json").write_text(json.dumps(detail, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
