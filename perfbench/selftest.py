"""Toy-size self-test of the benchmark harness.

Runs every workload once untraced and once traced at a tiny input
size, checks that the metric names and units each run prints are the
ones ``BENCHMARK.json`` declares and that every answer was correct,
then plants a wrong reference answer and checks that the run reports
it as a failure.  Usage, from the root of a checkout::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import sys

import run

TINY_NODES = 3000


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"self-test FAILED: {message}")


def check_spec() -> dict:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expect(
        [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES),
        "BENCHMARK.json workloads differ from the harness's",
    )
    for key, table in (("end_to_end", run.E2E), ("per_layer", run.LAYERS)):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        printed = {name: unit for name, (unit, *_) in table.items()}
        expect(declared == printed, f"{key} names/units differ: {declared} vs {printed}")
    return spec


def check_result(outcome: dict, spec_metrics: list, label: str) -> None:
    declared = {m["name"]: m["unit"] for m in spec_metrics}
    printed = {name: m["unit"] for name, m in outcome["metrics"].items()}
    expect(printed == declared, f"{label}: printed metrics {printed} != {declared}")
    expect(outcome["correct"] and outcome["failed"] == 0, f"{label}: wrong answers")
    expect(outcome["attempted"] >= 1, f"{label}: nothing attempted")
    for name, m in outcome["metrics"].items():
        expect(m["value"] == m["value"], f"{label}: {name} is NaN")


def main() -> int:
    spec = check_spec()
    ctx = run.make_context("selftest")
    from workloads import SIZES

    try:
        for name in run.WORKLOAD_NAMES:
            sizes = (TINY_NODES, SIZES[name][1])
            for trace, key in ((False, "end_to_end"), (True, "per_layer")):
                outcome = run.run_workload(ctx, name, 7, 0.5, trace, sizes=sizes)
                check_result(outcome, spec[key], f"{name} trace={int(trace)}")
        for name in run.WORKLOAD_NAMES:
            outcome = run.run_workload(
                ctx, name, 7, 0.5, False, sizes=(TINY_NODES, SIZES[name][1]),
                corrupt_reference=True,
            )
            expect(
                not outcome["correct"] and outcome["failed"] >= 1,
                f"{name}: a wrong reference answer was not caught",
            )
    finally:
        shutil.rmtree(ctx.work, ignore_errors=True)
    print("self-test ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
