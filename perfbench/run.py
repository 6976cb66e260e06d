"""fockcheck benchmark: wall time, set-up time, peak memory and pass share.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload {neutral-grid,charged-iso,verify-all} \
        --seed N --seconds S --trace {0,1}

The workloads are listed in ``inputs.py`` and ``BENCHMARK.json``.  The run
is a closed loop with one client: each repetition is a fresh interpreter
(``child.py``), started only after the previous one has exited, so no
module-level cache survives from one repetition into the next.  Repetitions
are started until the next one would end after ``--seconds``; at least one
always runs.  Each child is timed from spawn to exit; its set-up time runs
from spawn until ``import fockcheck`` has finished, and its peak RSS is read
from its own ``wait4`` rusage (for ``verify-all`` the largest of the CLI
process and its pool workers).  Import-only children, spawned between the
repetitions, add set-up samples from across the run.

A repetition counts only if every check passes with exactly the case count
recorded in ``expected.json`` and the child exits with status 0.  Any other
repetition adds its checks to ``failed`` and its timings are discarded.

With ``--trace 1`` the run adds one traced repetition of the in-process
workloads (the wrappers of ``layers.py``) and prints the per-layer metrics
instead of the end-to-end ones.  A layer a workload never enters reads 0,
and so do the module layers of ``verify-all``, whose work runs in pool
workers that the trace does not reach.

stdout ends with a run record, one line per metric and, last, the result
``{"correct", "attempted", "failed", "metrics"}`` as one JSON line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from inputs import WORKLOADS, describe_params, suite_params
from layers import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEADLINE_S = 170  # a run must end within 180 s
SETUP_PROBES = 4  # import-only children before each repetition and after the last


@dataclass
class Child:
    status: int
    wall_s: float
    setup_s: float | None
    peak_rss_mb: float
    lines: list[str]  # stdout before the child's own closing line
    record: dict | None  # that closing line, parsed


def spawn(args: list[str], timeout: float) -> Child:
    """Run ``child.py ARGS`` to completion and measure it."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    start = time.monotonic()
    with subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), *args],
        stdout=subprocess.PIPE,
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=path),
        start_new_session=True,
        text=True,
    ) as proc:
        killer = threading.Timer(max(timeout, 1.0), os.killpg, (proc.pid, signal.SIGKILL))
        killer.start()
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        end = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
    lines = out.splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, ValueError):
        record = None
    setup = record["import_done"] - start if isinstance(record, dict) and "import_done" in record else None
    return Child(proc.returncode, end - start, setup, usage.ru_maxrss / 1024, lines[:-1], record)


def failed_checks(expected: list, got: list, status: int) -> int:
    """Checks of one repetition that fail the output check; 0 means it counts.

    ``expected`` holds ``[check, cases_run]`` in run order and ``got`` holds
    ``[check, cases_run, passed]``.  A repetition that passes every check but
    exits non-zero or reports extra checks loses all of its checks.
    """
    failed = sum(1 for i, (check, cases) in enumerate(expected) if i >= len(got) or list(got[i]) != [check, cases, True])
    if failed == 0 and (status != 0 or len(got) != len(expected)):
        failed = len(expected)
    return failed


@dataclass
class Repetition:
    child: Child
    failed: int
    busy_s: float = 0.0  # sum of the reports' elapsed_ms (cli only)


def repetition(workload: dict, expected: list, seed: int, traced: bool, timeout: float) -> Repetition:
    if "cli" in workload:
        child = spawn(["cli", *workload["cli"]], timeout)
        try:
            records = [json.loads(line) for line in child.lines]
            got = [[r["check"], r["cases_run"], not r["failures"]] for r in records]
            busy = sum(r["elapsed_ms"] for r in records) / 1000
        except (ValueError, KeyError, TypeError):
            got, busy = [], 0.0
    else:
        child = spawn(["suites", str(seed), "1" if traced else "0", *workload["suites"]], timeout)
        got = child.record.get("reports", []) if isinstance(child.record, dict) else []
        busy = 0.0
    return Repetition(child, failed_checks(expected, got, child.status), busy)


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30, check=True
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def layer_names() -> dict:
    """Every per-layer metric the benchmark produces, each at 0."""
    suites = [s for w in WORKLOADS.values() for s in w.get("suites", ())]
    values = {f"suites.{s}.wall_s": 0 for s in suites}
    values.update(dict.fromkeys(Tracer().values, 0))
    for name in ("virasoro.sugawara_hit_ratio", "virasoro.sugawara_entries", "cli.busy_s", "cli.idle_share"):
        values[name] = 0
    values["trace.overhead_share"] = 0
    return values


def layer_metrics(workload: dict, counted: list[Repetition], traced: Repetition | None) -> dict:
    """Every per-layer metric; a layer this workload does not enter reads 0."""
    values = layer_names()
    untraced_wall = statistics.median(r.child.wall_s for r in counted)
    if "cli" in workload:
        values["cli.busy_s"] = statistics.median(r.busy_s for r in counted)
        values["cli.idle_share"] = statistics.median(1 - r.busy_s / (workload["jobs"] * r.child.wall_s) for r in counted)
        return values
    for suite in workload["suites"]:
        values[f"suites.{suite}.wall_s"] = statistics.median(r.child.record["suite_wall_s"][suite] for r in counted)
    memo = counted[0].child.record["sugawara"]
    lookups = memo["hits"] + memo["misses"]
    values["virasoro.sugawara_hit_ratio"] = memo["hits"] / lookups if lookups else 0
    values["virasoro.sugawara_entries"] = memo["entries"]
    if traced is not None:
        values.update(traced.child.record["layers"])
        values["trace.overhead_share"] = traced.child.wall_s / untraced_wall - 1
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    deadline = started + DEADLINE_S

    if not (ROOT / "src" / "fockcheck" / "__init__.py").is_file():
        print(f"error: no fockcheck sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = json.loads((HERE / "expected.json").read_text())[args.workload]
    workload = WORKLOADS[args.workload]
    params = suite_params(args.seed) if "suites" in workload else {}

    probe = ["probe", "fockcheck.cli" if "cli" in workload else "fockcheck"]
    spawn(probe, deadline - time.monotonic())  # byte-compiles a fresh checkout; not counted
    setups: list[float | None] = []

    def sample_setup() -> None:
        setups.extend(spawn(probe, deadline - time.monotonic()).setup_s for _ in range(SETUP_PROBES))

    reps: list[Repetition] = []
    measure_start = time.monotonic()
    while True:
        sample_setup()
        reps.append(repetition(workload, expected, args.seed, False, deadline - time.monotonic()))
        typical = statistics.median(r.child.wall_s for r in reps)
        now = time.monotonic()
        if now - measure_start + typical > args.seconds or now + 2 * typical > deadline:
            break
    sample_setup()
    traced = None
    if args.trace and "suites" in workload:
        traced = repetition(workload, expected, args.seed, True, deadline - time.monotonic())

    everything = reps + ([traced] if traced else [])
    problems = [f"repetition {i} failed {r.failed} checks" for i, r in enumerate(everything) if r.failed]
    counted = [r for r in reps if not r.failed]
    if traced is not None and traced.failed:
        traced = None
    if traced is not None:
        silent = [b for b in workload["layers"] if not traced.child.record["spans"][b]]
        problems += [f"traced boundary {b} recorded no calls" for b in silent]
    attempted = len(expected) * len(everything)
    failed = sum(r.failed for r in everything)

    if args.trace:
        spec = bench["per_layer"]
        values = layer_metrics(workload, counted, traced) if counted else layer_names()
    else:
        spec = bench["end_to_end"]
        timed = counted or reps  # with no counted repetition the result is already not correct
        values = {
            "wall_s": statistics.median(r.child.wall_s for r in timed),
            "setup_s": statistics.median(s for s in setups + [r.child.setup_s for r in everything] if s is not None),
            "peak_rss_mb": statistics.median(r.child.peak_rss_mb for r in timed),
            "passed_share": 1 - failed / attempted,
        }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seed_used": "suites" in workload,
        "inputs": describe_params(params, workload["suites"]) if params else "defaults" if args.seed == 0 else "none",
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "src_sha256": src_sha256(),
        "checks": len(expected),
        "cases": sum(cases for _, cases in expected),
        "repetition_wall_s": [r.child.wall_s for r in reps],
        "traced_repetitions": int(traced is not None),
        "run_s": time.monotonic() - started,
    }
    print(json.dumps({"run_record": record}, sort_keys=True))
    for problem in problems:
        print(f"output check: {problem}", file=sys.stderr)
    for name, metric in metrics.items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
