#!/usr/bin/env python3
"""Quick self-check of the benchmark harness.

    python3 bench/selfcheck.py

Run it from the repository root.  It asserts that BENCHMARK.json names
the metrics that run.py and tracing.py print, that the table of known
answers covers every op of every workload for seeds 0 to 49, and, on a
few cheap ops of each workload, that a run prints every metric with its
unit, untraced and traced.  It takes about ten seconds.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
from answers import PERTURBED, TABLE
from tracing import PER_LAYER
from workloads import PROJECTILE_SLOTS, TEMPLATES

CHEAP = {
    "catalog": {"catalog check zmod-algebra", "roundtrip canonical-space",
                "catalog check damped-space alpha=1000"},
    "finite": {"catalog check zmod-algebra m=3 exhaustive", "search size=3"},
    "dsl": {"check line", "check malformed syntax"},
}


def check_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert e2e == run.END_TO_END, e2e
    layer = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert layer == PER_LAYER, layer
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def check_table_coverage():
    slots = {(name, slot) for name, (_, values) in TEMPLATES.items()
             for slot in values}
    slots |= {("projectile", slot) for slot in PROJECTILE_SLOTS}
    assert slots == set(PERTURBED), slots ^ set(PERTURBED)
    workdir = run.WORK / "selfcheck"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for seed in range(50):
            for workload in run.WORKLOADS:
                ops, twins = run.build_ops(workload, seed, workdir)
                ops += [op for group in twins.values() for op in group]
                missing = {op.key for op in ops} - set(TABLE)
                assert not missing, (workload, seed, missing)
    finally:
        shutil.rmtree(workdir)


def check_printed_metrics():
    for workload, keys in CHEAP.items():
        for trace, names in ((0, run.END_TO_END),
                             (1, {n: u for n, (u, _) in PER_LAYER.items()})):
            lines = []
            result = run.run_workload(workload, 0, 0, trace, keys.__contains__,
                                      setup_runs=1, emit=lines.append)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"], (workload, lines)
            got = {n: m["unit"] for n, m in result["metrics"].items()}
            assert got == names, (workload, trace, got)
            for name, unit in names.items():
                assert any(line.startswith(f"{name} ")
                           and line.split()[2] == unit for line in lines), \
                    (workload, trace, name)
            assert any(line.startswith("report_sha256 ") for line in lines)
            assert any(line.startswith("failed_ratio ") for line in lines)
        print(f"ok: {workload} prints every metric with its unit")


def main() -> int:
    if not run.use_checkout():
        return 2
    check_benchmark_json()
    print("ok: BENCHMARK.json matches the printed metrics")
    check_table_coverage()
    print("ok: the known answers cover every op for seeds 0-49")
    check_printed_metrics()
    return 0


if __name__ == "__main__":
    sys.exit(main())
