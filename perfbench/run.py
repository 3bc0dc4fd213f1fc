"""Seeded benchmark of fdrepair: one workload per process, closed loop.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload repair-blocks --seed 1 --seconds 25 --trace 0

One caller runs the workload's ops back to back (a closed loop), in
whole passes over the seeded inputs, and stops before a pass that would
end past ``--seconds``. Every op's output is checked against an
independent reference, outside the timed region. Times are calibrated
to a nominal machine speed (see :mod:`speed`). With ``--trace 0`` the
last stdout line holds the end-to-end metrics; with ``--trace 1`` one
untraced pass is followed by one traced pass, whose spans go to
``.bench_out/`` and whose per-layer table makes up the last line.
``--workload all`` runs every workload in a fresh process of its own.
BENCHMARK.json names the metrics and their units.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

from speed import SpeedProbe

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("repair-blocks", "repair-matching", "oracle-sweep", "verdict-check")
SETUP_REPEATS = 3


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program() -> None:
    """Import fdrepair from this checkout's ``src``, and nowhere else."""
    if not os.path.isfile(os.path.join(SOURCE, "fdrepair", "__init__.py")):
        sys.exit(f"error: no fdrepair sources under {SOURCE}")
    sys.path.insert(0, SOURCE)
    package = importlib.import_module("fdrepair")
    importlib.import_module("fdrepair.cli")
    if not os.path.abspath(package.__file__).startswith(SOURCE + os.sep):
        sys.exit(f"error: fdrepair imported from {package.__file__}, not {SOURCE}")


class Tally:
    """Op intervals per input, facts per input, and failures."""

    def __init__(self, probe: SpeedProbe):
        self.probe = probe
        self.intervals: dict[str, list[tuple[float, float, float]]] = {}
        self.facts: dict[str, int] = {}
        self.failures: dict[str, int] = {}
        self.wrong: list[str] = []

    def run(self, op, wrap=None) -> None:
        """Time one op, then check its output outside the timed region."""
        stop = self.probe.interval()
        try:
            output = op.run() if wrap is None else wrap(op.run)
            error = None
        except Exception as exc:  # every op failure is counted, none is fatal
            error = exc
        self.intervals.setdefault(op.label, []).append(stop())
        self.facts[op.label] = op.facts
        if error is not None:
            kind = type(error).__name__
            self.failures[kind] = self.failures.get(kind, 0) + 1
            self.wrong.append(f"{op.label}: raised {kind}: {error}")
            return
        problem = op.check(output)
        if problem is not None:
            self.failures["check"] = self.failures.get("check", 0) + 1
            self.wrong.append(f"{op.label}: {problem}")

    def samples(self) -> dict[str, list[float]]:
        """Calibrated seconds of every op, per input label."""
        return {
            label: [self.probe.calibrated(*interval) for interval in intervals]
            for label, intervals in self.intervals.items()
        }

    @property
    def attempted(self) -> int:
        return sum(len(intervals) for intervals in self.intervals.values())

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    @property
    def raw_busy(self) -> float:
        return sum(i[2] for intervals in self.intervals.values() for i in intervals)


def measure(ops, seconds: float, tally: Tally) -> tuple[int, float]:
    """Whole passes until the next one would end after ``seconds``.

    Returns the pass count and the peak resident memory in MB after the
    first pass, before the op records of later passes add to it.
    """
    started = time.perf_counter()
    passes = 0
    while True:
        gc.collect()
        for op in ops:
            tally.run(op)
        passes += 1
        if passes == 1:
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        elapsed = time.perf_counter() - started
        if elapsed * (passes + 1) / passes > seconds:
            return passes, peak_mb


def end_to_end(tally: Tally, setup_s: float, peak_mb: float) -> dict[str, float]:
    """Metrics over each input's median calibrated op time."""
    medians = {label: statistics.median(t) for label, t in tally.samples().items()}
    busy = sum(medians.values())
    quantiles = statistics.quantiles(medians.values(), n=10, method="inclusive")
    return {
        "setup_s": setup_s,
        "facts_per_s": sum(tally.facts.values()) / busy,
        "ops_per_s": len(medians) / busy,
        "op_ms_p50": quantiles[4] * 1e3,
        "op_ms_p90": quantiles[8] * 1e3,
        "peak_rss_mb": peak_mb,
    }


def traced(name: str, seed: int, ops, tally: Tally, untraced: Tally) -> dict:
    """One untraced and one traced pass; the per-layer metrics and spans."""
    import fdrepair
    from tracing import Tracer, layer_metrics

    gc.collect()
    for op in ops:
        untraced.run(op)
    tracer = Tracer(fdrepair)
    tracer.install()
    try:
        gc.collect()
        for index, op in enumerate(ops):
            tally.run(op, wrap=lambda run, index=index: tracer.op(index, run))
    finally:
        tracer.remove()
    time.sleep(0.02)  # let the probe sample past the last op
    busy = sum(sum(t) for t in tally.samples().values())
    overhead = busy / sum(sum(t) for t in untraced.samples().values())
    metrics = layer_metrics(tracer, overhead)
    metrics["fail_ratio"] = tally.failed / tally.attempted
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    tracer.save(os.path.join(ROOT, ".bench_out", f"spans-{name}-seed{seed}.npz"))
    by_bucket, op_duration, op_self = tracer.self_times()
    print(
        f"# spans={len(tracer.starts)} self-sum/duration="
        f"{op_self.sum() / op_duration.sum():.6f} unattributed="
        f"{by_bucket.get('bench.op', 0.0) / op_duration.sum():.4f}"
    )
    return metrics


def run_workload(args, declared: dict) -> dict:
    name = args.workload
    workdir = os.path.join(ROOT, ".bench_out", f"{name}-seed{args.seed}-{os.getpid()}")
    with SpeedProbe() as probe:
        stop = probe.interval()
        import_program()
        import workloads

        imported = stop()
        setup = []
        try:
            for _ in range(1 if args.trace else SETUP_REPEATS):
                stop = probe.interval()
                shutil.rmtree(workdir, ignore_errors=True)
                inputs = workloads.WORKLOADS[name](args.seed, workdir)
                warm = Tally(probe)
                for op in inputs.warmup:
                    warm.run(op)
                setup.append(stop())
            tally = Tally(probe)
            if args.trace:
                untraced = Tally(probe)
                metrics = traced(name, args.seed, inputs.ops, tally, untraced)
                wrong = warm.wrong + untraced.wrong + tally.wrong
                passes = 1
            else:
                passes, peak_mb = measure(inputs.ops, args.seconds, tally)
                time.sleep(0.02)  # let the probe sample past the last op
                setup_s = probe.calibrated(*imported) + statistics.median(
                    probe.calibrated(*interval) for interval in setup
                )
                metrics = end_to_end(tally, setup_s, peak_mb)
                wrong = warm.wrong + tally.wrong
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    for line in wrong[:10]:
        print(f"# wrong: {line}")
    failures = ",".join(f"{k}={v}" for k, v in sorted(tally.failures.items()))
    print(
        f"# workload={name} seed={args.seed} inputs={inputs.digest} "
        f"passes={passes} ops={tally.attempted} failures={failures or 'none'} "
        f"witness-gaps={len(workloads.WITNESS_GAPS)} "
        f"raw-busy-s={tally.raw_busy:.3f} probe-loop-ms={probe.median_loop_ms():.4f}"
    )
    kind = "per_layer" if args.trace else "end_to_end"
    return {
        "correct": not wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in declared[kind]
        },
    }


def run_all(args) -> dict:
    """Every workload in a fresh process; relays their output."""
    results = {}
    for name in WORKLOAD_NAMES:
        command = [
            sys.executable, os.path.abspath(__file__), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        child = subprocess.run(command, capture_output=True, text=True, check=True)
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    return results


def main(argv=None) -> int:
    args = parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args, declared)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
