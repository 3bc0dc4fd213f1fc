"""Names that code outside the package binds by name.

The benchmark (``perfbench/tracing.py`` and ``perfbench/workloads.py``)
wraps and reads these; renaming one silently breaks its traces.
"""

import dataclasses

import fdrepair
from fdrepair import fds, gadgets, oracle


def test_public_names_resolve():
    for name in fdrepair.__all__:
        assert hasattr(fdrepair, name), name
    for name in ("pair_consistent", "violating_pairs", "is_consistent"):
        assert callable(getattr(fds, name)), name
    assert callable(oracle.ConflictGraph.build)
    fields = {f.name for f in dataclasses.fields(gadgets.ReductionReport)}
    assert {"pairs_checked", "exhaustive"} <= fields
