"""Names that code outside the package binds by name.

The benchmark (``perfbench/tracing.py`` and ``perfbench/workloads.py``)
wraps and reads these; renaming one silently breaks its traces.
``repair.linear_sum_assignment`` is kept only for ``perfbench/tracing.py``:
the matcher calls no solver, so the name is resolved lazily, and only a
read of it imports scipy.
"""

import dataclasses
import inspect

import scipy.optimize

import fdrepair
from fdrepair import fds, gadgets, oracle, repair


def test_public_names_resolve():
    for name in fdrepair.__all__:
        assert hasattr(fdrepair, name), name
    for name in ("pair_consistent", "is_consistent"):
        assert callable(getattr(fds, name)), name
    assert callable(oracle.ConflictGraph.build)
    fields = {f.name for f in dataclasses.fields(gadgets.ReductionReport)}
    assert {"pairs_checked", "exhaustive"} <= fields


def test_benchmark_contract_names():
    assert set(gadgets.HARD_SCHEMAS) == {"2fd", "rl", "2r", "tr"}
    for key in gadgets.HARD_SCHEMAS:
        assert inspect.isfunction(getattr(gadgets, f"gadget_{key}")), key
    # a result is its value: no input facts, no per-block view
    fields = {f.name for f in dataclasses.fields(repair.RepairResult)}
    assert fields == {"repair", "size", "trace"}
    assert callable(repair.linear_sum_assignment)
    # the tracer wraps the real solver
    assert repair.linear_sum_assignment is scipy.optimize.linear_sum_assignment
    # the tracer wraps exactly the module-level names that pass this test
    assert inspect.isfunction(oracle.brute_force_crep)
    # it also counts matchings and ``len(problem.edges)`` per matching
    matcher = repair.max_weight_matching
    assert inspect.isfunction(matcher) and matcher.__module__ == repair.__name__
    fields = {f.name for f in dataclasses.fields(repair.BipartiteMatchProblem)}
    assert "edges" in fields
