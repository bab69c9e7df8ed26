#!/usr/bin/env python3
"""mobikit benchmark: `mobi` commands end to end, and per layer when traced.

    python3 bench/run.py --workload catalog|finite|dsl --seed N \
        --seconds S --trace 0|1

Run it from the repository root.  Every op is a `mobi` command passed to
mobikit.cli.run_cli in this process, except `zmod-algebra m=101`, which
runs in a fresh interpreter under a memory cap.  Each outcome is checked
against the hand-written table in answers.py.

A run makes max(1, round(S / nominal pass seconds)) passes over the
workload's ops, so the work done depends on S, never on the clock.  Times
are reported in reference seconds (see Clock), with wall times alongside.
It prints one line per metric (name, value, unit), a sha256 of the report
output of the first pass, and, last, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones.  With --trace 1 the
run adds one traced pass and reports the per-layer metrics of tracing.py;
it writes the spans to bench/_work/.  `correct` is false when an op other
than a known defect (answers.KNOWN_DEFECTS) fails its known answer.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "data" / "projectile.mobi"
WORK = HERE / "_work"

WORKLOADS = ("catalog", "finite", "dsl")
# Seconds one pass takes on a 2-core x86-64 sandbox with CPython 3.11.
NOMINAL_PASS_S = {"catalog": 47.0, "finite": 6.5, "dsl": 3.5}
SETUP_RUNS = 7
CHILD_MEMORY_MB = 512
CHILD_TIMEOUT_S = 120

END_TO_END = {
    "workload_s": "s",
    "verdict_p50_ms": "ms",
    "verdict_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

MAIN = "from mobikit.cli import main; main()"

# A nominal time of calibrate(), about its time on the reference sandbox;
# it fixes the unit of reported times ("reference seconds").
CAL_REF_S = 0.010


def calibrate(steps: int = 1000) -> float:
    """Seconds for a fixed loop of small-Fraction arithmetic, tuples and a
    dict, the kind of work law checks do, with no mobikit code in it."""
    start = time.perf_counter()
    seen = {}
    for i in range(steps):
        a = Fraction(i % 17 - 8, i % 7 + 1)
        b = Fraction(i % 5 + 1, 3)
        seen[(a + b * (a - b), a * b)] = i
    return time.perf_counter() - start


class Clock:
    """Times calls in reference seconds.

    The sandbox this was built on shares its cores, and its speed drifts by
    20-30 % over minutes, which swamps wall times taken minutes apart.  So
    calibrate() runs between timed calls, and each call's wall time is scaled
    by CAL_REF_S over the mean of the loop times just before and after it: a
    slower machine slows both and cancels, a slower mobikit does not.
    """

    def __init__(self):
        self.loops = [calibrate()]

    def time(self, fn):
        """(result, wall seconds, reference seconds) of fn()."""
        start = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - start
        self.loops.append(calibrate())
        return result, wall, wall * CAL_REF_S * 2 / sum(self.loops[-2:])


def _child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def _cap_memory():
    cap = CHILD_MEMORY_MB * 2 ** 20
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))


def measure_setup(clock: Clock, runs: int = SETUP_RUNS) -> list:
    """(wall, reference) seconds of fresh interpreters running
    `mobi catalog list`."""
    times = []
    for _ in range(runs):
        proc, wall, ref = clock.time(lambda: subprocess.run(
            [sys.executable, "-c", MAIN, "catalog", "list"], env=_child_env(),
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT))
        if proc.returncode != 0 or "zmod-algebra" not in proc.stdout:
            raise RuntimeError(f"`mobi catalog list` failed: {proc.stderr[-300:]}")
        times.append((wall, ref))
    return times


class Runner:
    """Runs ops, checks them, and keeps one record per op run."""

    def __init__(self, cli, verify, clock):
        self.cli = cli
        self.verify = verify
        self.clock = clock
        self.records = []      # dicts: key, wall, seconds, failure, pass
        self.first_out = {}    # op position in pass -> stdout of pass 1
        self.hash = hashlib.sha256()

    def _call(self, op):
        out, err = io.StringIO(), io.StringIO()
        if op.child:
            try:
                proc = subprocess.run([sys.executable, "-c", MAIN, *op.argv],
                                      env=_child_env(), capture_output=True,
                                      text=True, timeout=CHILD_TIMEOUT_S,
                                      preexec_fn=_cap_memory, cwd=ROOT)
                code, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
            except subprocess.TimeoutExpired as exc:
                code, stdout, stderr = exc, "", ""
            return code, stdout, stderr
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.run_cli(list(op.argv))
        except Exception as exc:  # a crash is an outcome to record
            code = exc
        return code, out.getvalue(), err.getvalue()

    def run(self, op, label, position=None):
        (code, out, err), wall, seconds = self.clock.time(lambda: self._call(op))
        failure = self.verify(op.key, op.argv, code, out, err)
        if position is not None:
            if position not in self.first_out:
                self.first_out[position] = out
                self.hash.update(out.encode())
            elif failure is None and out != self.first_out[position]:
                failure = "report differs from the first pass"
        self.records.append({"key": op.key, "wall": wall, "seconds": seconds,
                             "failure": failure, "pass": label})
        return len(self.records) - 1

    def run_pass(self, ops, label):
        for position, op in enumerate(ops):
            self.run(op, label, position)


def tail(times):
    """(value, percentile): the highest percentile with ten ops beyond it."""
    xs = sorted(times)
    k = max(0, len(xs) - 11)
    return xs[k], 100.0 * (k + 1) / len(xs)


def pin_to_one_cpu():
    """Keep this process and its children on one CPU, so that calibrate()
    measures the core the timed work runs on."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def use_checkout() -> bool:
    """Put src/ on the import path; False, with a message, outside a checkout."""
    if not (SRC / "mobikit" / "cli.py").is_file() or not GOLDEN.is_file():
        print(f"error: run from a mobikit checkout; {SRC / 'mobikit'} or "
              f"{GOLDEN} is missing", file=sys.stderr)
        return False
    sys.path.insert(0, str(SRC))
    return True


def build_ops(workload: str, seed: int, workdir: Path):
    import workloads
    if workload == "catalog":
        return workloads.catalog_ops(seed), {}
    if workload == "finite":
        return workloads.finite_ops(seed), {}
    golden = GOLDEN.read_text(encoding="utf-8")
    return workloads.dsl_ops(seed, workdir, golden)


def run_workload(workload, seed, seconds, trace, select=None,
                 setup_runs=SETUP_RUNS, emit=print):
    """One benchmark run; emits text lines and returns the result object.

    select, when given, keeps only the ops whose key it accepts.
    """
    from mobikit import cli
    from answers import KNOWN_DEFECTS
    from verify import verify

    workdir = WORK / f"{workload}-{seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    ops, twins = build_ops(workload, seed, workdir)
    if select is not None:
        ops = [op for op in ops if select(op.key)]
        twins = {name: group for name, group in twins.items()
                 if select(f"check {name}")}
    clock = Clock()
    setup = measure_setup(clock, setup_runs)

    passes = max(1, round(seconds / NOMINAL_PASS_S[workload]))
    runner = Runner(cli, verify, clock)
    for i in range(passes):
        runner.run_pass(ops, f"untraced {i + 1}")
    untraced = list(runner.records)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if trace:
        from tracing import Tracer
        tracer = Tracer()
        traced = {}     # op position -> record index of its traced run
        twin_runs = {}  # transcription name -> record indices of its twins
        tracer.install()
        try:
            for position, op in enumerate(ops):
                tracer.op = len(runner.records)
                traced[position] = runner.run(op, "traced", position)
            pass_counts = Counter(tracer.counts)
            for name, group in twins.items():
                twin_runs[name] = []
                for op in group:
                    tracer.op = len(runner.records)
                    twin_runs[name].append(runner.run(op, "twin"))
        finally:
            tracer.uninstall()

    counted = [r for r in runner.records if r["pass"] != "twin"]
    failures = [r for r in runner.records if r["failure"]]
    failed = sum(1 for r in counted if r["failure"])
    correct = all(r["key"] in KNOWN_DEFECTS for r in failures)

    def latency(field):
        times = [r[field] for r in untraced]
        tail_s, tail_pct = tail(times)
        return {"workload_s": sum(times) / passes,
                "verdict_p50_ms": statistics.median(times) * 1000.0,
                "verdict_tail_ms": tail_s * 1000.0}, tail_pct

    e2e, tail_pct = latency("seconds")
    e2e.update(peak_rss_mb=peak_rss_mb,
               setup_s=statistics.median(ref for _, ref in setup))
    wall, _ = latency("wall")
    wall["setup_s"] = statistics.median(w for w, _ in setup)
    emit(f"workload {workload} seed {seed} passes {passes} "
         f"ops_per_pass {len(ops)}")
    emit(f"report_sha256 {runner.hash.hexdigest()}")
    emit(f"calibration loop median {statistics.median(clock.loops)!r} s, "
         f"reference {CAL_REF_S} s; times below are in reference seconds, "
         f"wall time in brackets")
    n = len(untraced)
    notes = {"workload_s": f"mean over {passes} pass(es)",
             "verdict_p50_ms": f"of {n} ops",
             "verdict_tail_ms": f"p{tail_pct:.1f} of {n} ops",
             "setup_s": f"median of {setup_runs} cold starts"}
    for name, unit in END_TO_END.items():
        note = f" [wall {wall[name]!r}]" if name in wall else ""
        if name in notes:
            note += f" ({notes[name]})"
        emit(f"{name} {e2e[name]!r} {unit}{note}")
    emit(f"failed_ratio {failed / len(counted)!r} ratio "
         f"({failed} failed of {len(counted)} attempted)")
    for r in failures:
        known = KNOWN_DEFECTS.get(r["key"])
        tag = f" [known defect: {known}]" if known else ""
        emit(f"failed op: {r['key']} ({r['pass']}): {r['failure']}{tag}")

    if trace:
        traced_s = sum(runner.records[i]["seconds"] for i in traced.values())
        # law time of each transcription over that of its catalog twins
        interp, closure = 0.0, 0.0
        for position, op in enumerate(ops):
            name = op.key.removeprefix("check ")
            if name in twin_runs:
                mine = tracer.law_s({traced[position]})
                theirs = tracer.law_s(set(twin_runs[name]))
                emit(f"dsl.interp_over_closure[{name}] {mine / theirs!r} ratio")
                interp, closure = interp + mine, closure + theirs
        layer = tracer.per_layer(set(traced.values()), pass_counts,
                                 interp / closure if closure else 0.0,
                                 traced_s / e2e["workload_s"])
        for name, m in layer.items():
            emit(f"{name} {m['value']!r} {m['unit']}")
        trace_path = workdir / "trace.json"
        tracer.dump(trace_path, [r["key"] for r in runner.records])
        emit(f"spans {len(tracer.spans)} written to "
             f"{trace_path.relative_to(ROOT)}")
        metrics = layer
    else:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    return {"correct": correct, "attempted": len(counted), "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not use_checkout():
        return 2
    pin_to_one_cpu()
    result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
