"""Self-test of the benchmark: seeding, trace determinism, layer claims.

Usage, from the root of a checkout (about two minutes)::

    python3 perfbench/selftest.py [workload ...]

For each workload (all four by default) it checks that

* two seeds give different inputs, and one seed gives the same inputs;
* two traced runs with the same seed report identical counts, and both
  pass every correctness check;
* the per-layer self times of the traced ops add up to their traced
  duration, and the time left to the benchmark's own glue is within the
  tracing overhead;
* the workload stresses the layer it claims to (see README.md).

Exits 1 and names the first failed check.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

import run

COUNT_UNITS = ("count",)


def traced_run(workload: str, seed: int) -> tuple[dict, dict]:
    """The result line and the ``# key=value`` summary of one traced run."""
    command = [
        sys.executable, os.path.join(os.path.dirname(__file__), "run.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", "1",
    ]
    lines = subprocess.run(
        command, capture_output=True, text=True, check=True
    ).stdout.splitlines()
    summary = {}
    for line in lines[:-1]:
        if line.startswith("# ") and not line.startswith("# wrong"):
            for field in line[2:].split():
                key, _, value = field.partition("=")
                summary[key] = value
    return json.loads(lines[-1]), summary


def check(condition: bool, message: str) -> None:
    if not condition:
        sys.exit(f"selftest failed: {message}")


def check_inputs(workload: str) -> None:
    import workloads

    with tempfile.TemporaryDirectory(dir=os.path.join(run.ROOT, ".bench_out")) as tmp:
        first = workloads.WORKLOADS[workload](1, os.path.join(tmp, "a")).digest
        again = workloads.WORKLOADS[workload](1, os.path.join(tmp, "b")).digest
        other = workloads.WORKLOADS[workload](2, os.path.join(tmp, "c")).digest
    check(first == again, f"{workload}: seed 1 gave two different inputs")
    check(first != other, f"{workload}: seeds 1 and 2 gave the same inputs")


def check_layers(workload: str, metrics: dict, result: dict, summary: dict) -> None:
    value = {name: m["value"] for name, m in metrics.items()}
    check(result["failed"] == 0, f"{workload}: {result['failed']} ops failed")
    if workload == "repair-blocks":
        tables = result["attempted"]
        check(value["simplify.classify_calls"] > 100 * tables,
              "repair-blocks: classify is not re-run per block")
        layer_ms = sum(v for k, v in value.items() if k.endswith("_ms"))
        check(value["repair.matching_ms"] < 0.2 * layer_ms,
              "repair-blocks: matching is not a minor share")
    elif workload == "repair-matching":
        times = {k: v for k, v in value.items() if k.endswith("_ms")}
        check(max(times, key=times.get) == "repair.matching_ms",
              f"repair-matching: largest self time is not matching: {times}")
    elif workload == "oracle-sweep":
        check(value["repair.calls"] == 0, "oracle-sweep: repair was called")
    elif workload == "verdict-check":
        check(int(summary["witness-gaps"]) == value["gadgets.gap_schemas"],
              "verdict-check: witness gaps seen by the ops and the trace differ")


def main(names) -> int:
    run.import_program()
    os.makedirs(os.path.join(run.ROOT, ".bench_out"), exist_ok=True)
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        units = {m["name"]: m["unit"] for m in json.load(handle)["per_layer"]}
    for workload in names or run.WORKLOAD_NAMES:
        check_inputs(workload)
        (first, summary), (second, _) = traced_run(workload, 1), traced_run(workload, 1)
        for result in (first, second):
            check(result["correct"], f"{workload}: a traced run failed its checks")
        counts = {
            name: (first["metrics"][name]["value"], second["metrics"][name]["value"])
            for name, unit in units.items()
            if unit in COUNT_UNITS
        }
        differ = {name: pair for name, pair in counts.items() if pair[0] != pair[1]}
        check(not differ, f"{workload}: counts differ between same-seed runs: {differ}")
        check(abs(float(summary["self-sum/duration"]) - 1) < 1e-6,
              f"{workload}: self times do not add up to the op durations")
        overhead = first["metrics"]["trace.overhead"]["value"]
        check(float(summary["unattributed"]) <= max(overhead - 1, 0) + 0.01,
              f"{workload}: glue time exceeds the tracing overhead")
        check_layers(workload, first["metrics"], first, summary)
        print(f"ok {workload}: {len(counts)} counts repeat, trace overhead {overhead:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
