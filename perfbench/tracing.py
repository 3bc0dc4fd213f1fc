"""Per-layer tracing of fdrepair, installed from outside the package.

:class:`Tracer` rebinds the public functions of the fdrepair modules to
wrappers that record spans in memory (name, start, end, parent span, op
id) and count calls, and restores the originals on :meth:`Tracer.remove`.
Each wrapped function belongs to a *bucket*: the layer its time is
charged to. A call whose caller is already in the same bucket is only
counted, not spanned, which keeps the span count down without changing
any bucket's self time. Hot pairwise helpers are counted, never spanned.

Self time is a span's duration minus that of its direct children, so the
self times of one op's spans add up to the op's traced duration.
"""

from __future__ import annotations

import inspect
import time
from collections import Counter

import numpy as np

LAYER_MODULES = ("cli", "textio", "simplify", "fds", "repair", "oracle", "gadgets")

# Bucket of a function when it is not its module's default. A bucket of
# None counts the call and leaves its time with the caller.
BUCKET_OVERRIDES = {
    "textio.write_instance_csv": "textio.write",
    "textio.format_schema": "textio.write",
    "textio.format_dimacs": "textio.write",
    "repair.max_weight_matching": "repair.matching",
    "oracle.is_s_repair": "oracle.check",
    "fds.pair_consistent": None,
    "fds.violating_pairs": None,
    "fds.is_consistent": None,
    "gadgets.gadget_2fd": "gadgets.build",
    "gadgets.gadget_rl": "gadgets.build",
    "gadgets.gadget_2r": "gadgets.build",
    "gadgets.gadget_tr": "gadgets.build",
    "gadgets.hard_case_witness": "gadgets.witness",
    "gadgets.verify_reduction": "gadgets.verify",
}
DEFAULT_BUCKET = {
    "cli": "cli",
    "textio": "textio.read",
    "simplify": "simplify",
    "fds": "fds",
    "repair": "repair",
    "oracle": "oracle.search",
    "gadgets": None,
}
# Called per sort key: left alone.
UNWRAPPED = {"fds.constant_key", "fds.fact_key"}

OP_BUCKET = "bench.op"

# Self-time buckets reported as per-layer metrics, in milliseconds.
TIME_METRICS = {
    "textio.read_ms": "textio.read",
    "textio.write_ms": "textio.write",
    "cli.self_ms": "cli",
    "simplify.classify_ms": "simplify",
    "fds.schema_ms": "fds",
    "repair.self_ms": "repair",
    "repair.matching_ms": "repair.matching",
    "oracle.conflict_graph_ms": "oracle.conflict_graph",
    "oracle.search_ms": "oracle.search",
    "oracle.check_ms": "oracle.check",
    "gadgets.build_ms": "gadgets.build",
    "gadgets.witness_ms": "gadgets.witness",
    "gadgets.verify_ms": "gadgets.verify",
}


def _pairs(instance) -> int:
    n = len(instance)
    return n * (n - 1) // 2


def _rows_read(ingest) -> int:
    return len(ingest.instance) + ingest.dropped_duplicates


# Counters fed from a call's arguments or result: (metric, amount).
ARG_COUNTERS = {
    "fds.pair_consistent": ("fds.pair_checks", lambda args: 1),
    "fds.violating_pairs": ("fds.pair_checks", lambda args: _pairs(args[1])),
    "fds.is_consistent": ("fds.pair_checks", lambda args: _pairs(args[1])),
    "repair.max_weight_matching": (
        "repair.matching_edges",
        lambda args: len(args[0].edges),
    ),
}
RESULT_COUNTERS = {
    "textio.read_instance_csv": ("textio.rows", _rows_read),
    "oracle.ConflictGraph.build": (
        "oracle.conflict_edges",
        lambda graph: graph.edge_count,
    ),
    "gadgets.verify_reduction": (
        "gadgets.pairs_checked",
        lambda report: report.pairs_checked,
    ),
}
CALL_COUNTERS = {
    "simplify.classify": "simplify.classify_calls",
    "fds.normalize": "fds.normalize_calls",
    "fds.project": "fds.project_calls",
    "repair.find_crep": "repair.calls",
    "repair.max_weight_matching": "repair.matching_calls",
    "repair.linear_sum_assignment": "repair.matching_solves",
    "oracle.brute_force_crep": "oracle.calls",
}


class Tracer:
    """Spans and counters for one traced pass; see the module docstring."""

    def __init__(self, package):
        self.package = package
        self.bucket_names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.buckets: list[int] = []
        self.names: list[str] = []
        self.ops: list[int] = []
        self.counts: Counter = Counter()
        self._open = [-1]
        self._open_bucket = [-1]
        self._op = -1
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _bucket_id(self, bucket: str) -> int:
        if bucket not in self.bucket_names:
            self.bucket_names.append(bucket)
        return self.bucket_names.index(bucket)

    def _begin(self, name: str, bucket: int) -> int:
        index = len(self.starts)
        self.parents.append(self._open[-1])
        self.buckets.append(bucket)
        self.names.append(name)
        self.ops.append(self._op)
        self.ends.append(0)
        self._open.append(index)
        self._open_bucket.append(bucket)
        self.starts.append(time.perf_counter_ns())
        return index

    def _finish(self, index: int) -> None:
        self.ends[index] = time.perf_counter_ns()
        self._open.pop()
        self._open_bucket.pop()

    def op(self, op_id: int, run):
        """Run one benchmark op as a root span and return its result."""
        self._op = op_id
        index = self._begin("bench.op", self._bucket_id(OP_BUCKET))
        try:
            return run()
        finally:
            self._finish(index)
            self._op = -1

    def wrap(self, name: str, bucket: str | None, fn):
        """A stand-in for ``fn`` that counts it and spans it into ``bucket``."""
        counts = self.counts
        call_counter = CALL_COUNTERS.get(name)
        arg_counter = ARG_COUNTERS.get(name)
        result_counter = RESULT_COUNTERS.get(name)
        bucket_id = None if bucket is None else self._bucket_id(bucket)
        gap = name == "gadgets.hard_case_witness"
        gap_error = getattr(self.package.gadgets, "ReductionGapError", ())

        def traced(*args, **kwargs):
            if call_counter:
                counts[call_counter] += 1
            if arg_counter:
                counts[arg_counter[0]] += arg_counter[1](args)
            spanned = bucket_id is not None and self._open_bucket[-1] != bucket_id
            index = self._begin(name, bucket_id) if spanned else None
            try:
                result = fn(*args, **kwargs)
            except gap_error:
                if gap:
                    counts["gadgets.gap_schemas"] += 1
                raise
            finally:
                if spanned:
                    self._finish(index)
            if result_counter:
                counts[result_counter[0]] += result_counter[1](result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installing --------------------------------------------------------

    def _rebind(self, wrappers: dict) -> None:
        """Point every module-level name bound to an original at its wrapper."""
        modules = [self.package] + [
            getattr(self.package, m) for m in LAYER_MODULES
        ]
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def install(self) -> None:
        wrappers = {}
        for module_name in LAYER_MODULES:
            module = getattr(self.package, module_name)
            for attr, fn in vars(module).items():
                name = f"{module_name}.{attr}"
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__
                    or name in UNWRAPPED
                ):
                    continue
                bucket = BUCKET_OVERRIDES.get(name, DEFAULT_BUCKET[module_name])
                wrappers[id(fn)] = self.wrap(name, bucket, fn)
        repair = self.package.repair
        solver = repair.linear_sum_assignment
        wrappers[id(solver)] = self.wrap("repair.linear_sum_assignment", None, solver)
        self._rebind(wrappers)
        graph_cls = self.package.oracle.ConflictGraph
        build = vars(graph_cls)["build"]
        self._restore.append((graph_cls, "build", build))
        graph_cls.build = classmethod(
            self.wrap("oracle.ConflictGraph.build", "oracle.conflict_graph", build.__func__)
        )

    def remove(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- analysis ----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        starts = np.asarray(self.starts, dtype=np.int64)
        origin = starts.min() if len(starts) else 0
        return {
            "start_ns": starts - origin,
            "end_ns": np.asarray(self.ends, dtype=np.int64) - origin,
            "parent": np.asarray(self.parents, dtype=np.int64),
            "bucket": np.asarray(self.buckets, dtype=np.int32),
            "op": np.asarray(self.ops, dtype=np.int64),
        }

    def save(self, path: str) -> None:
        """Write every span (and the name tables) to an ``.npz`` file."""
        names = sorted(set(self.names))
        name_index = {n: i for i, n in enumerate(names)}
        np.savez(
            path,
            **self.arrays(),
            name=np.asarray([name_index[n] for n in self.names], dtype=np.int32),
            names=np.asarray(names),
            buckets=np.asarray(self.bucket_names),
        )

    def self_times(self) -> tuple[dict[str, float], np.ndarray, np.ndarray]:
        """Self seconds per bucket, plus each op's duration and self sum."""
        spans = self.arrays()
        duration = (spans["end_ns"] - spans["start_ns"]).astype(np.float64)
        parent = spans["parent"]
        child = np.zeros_like(duration)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], duration[has_parent])
        own = duration - child
        per_bucket = np.bincount(
            spans["bucket"], weights=own, minlength=len(self.bucket_names)
        )
        by_bucket = {
            name: per_bucket[i] / 1e9 for i, name in enumerate(self.bucket_names)
        }
        in_op = spans["op"] >= 0
        roots = ~has_parent & in_op
        op_ids = spans["op"][roots]
        op_duration = np.zeros(op_ids.max() + 1 if len(op_ids) else 0)
        np.add.at(op_duration, op_ids, duration[roots] / 1e9)
        op_self = np.zeros_like(op_duration)
        np.add.at(op_self, spans["op"][in_op], own[in_op] / 1e9)
        return by_bucket, op_duration, op_self


def layer_metrics(tracer: Tracer, overhead: float) -> dict[str, float]:
    """The per-layer table: self times in ms, counters, derived ratios."""
    by_bucket, _, _ = tracer.self_times()
    metrics = {
        metric: by_bucket.get(bucket, 0.0) * 1e3
        for metric, bucket in TIME_METRICS.items()
    }
    counted = set(CALL_COUNTERS.values()) | {"gadgets.gap_schemas"}
    counted |= {m for m, _ in ARG_COUNTERS.values()}
    counted |= {m for m, _ in RESULT_COUNTERS.values()}
    for metric in sorted(counted):
        metrics[metric] = float(tracer.counts[metric])
    edges = tracer.counts["repair.matching_edges"]
    metrics["repair.solves_per_edge"] = (
        tracer.counts["repair.matching_solves"] / edges if edges else 0.0
    )
    metrics["trace.overhead"] = overhead
    return metrics
