"""Exact cardinality repair for tractable FD schemas.

:func:`find_crep` runs :func:`fdrepair.simplify.classify` once and
compiles its trace into a *plan*: one step per applied rewrite, each
naming the columns of the original signature that the rewrite removes.
The plan then runs on the raw fact tuples. Each step splits the facts
into blocks that agree on its columns, repairs every block with the
rest of the plan, and recombines: a plain union for S1, a best-block
choice for S2, and a maximum-weight bipartite matching over block repair
sizes for S3.

No fact is ever projected: inside a block all facts agree on the
columns removed so far, so the remaining steps can read the original
columns directly, and a block's repair is already a set of original
facts.

Every tie is broken canonically (block-key order, or the
lexicographically smallest optimal edge set), so repeated runs return
the same repair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from .fds import (
    Constant,
    Fact,
    FdSchema,
    Instance,
    SchemaError,
    Signature,
    constant_key,
)
from .simplify import SimplificationTrace, classify


@dataclass(frozen=True)
class RepairResult:
    """A repair, its size, the schema trace, and per-block diagnostics.

    ``trace`` is the classify trace the repair followed; it is None from
    the oracle, which does not classify. ``block_sizes`` pairs each block of the first rewrite step with the
    size of its repair, in block-key order; it is empty when the schema
    has no FDs.
    """

    repair: Instance
    size: int
    trace: Optional[SimplificationTrace]
    block_sizes: tuple[tuple[tuple[Constant, ...], int], ...] = ()

    @property
    def per_block_sizes(self) -> dict[tuple[Constant, ...], int]:
        return dict(self.block_sizes)


@dataclass(frozen=True)
class BipartiteMatchProblem:
    """Weighted bipartite graph between realized left/right value tuples.

    Nodes and edges are stored canonically sorted; weights must be
    non-negative and at most one edge may join a given node pair.
    """

    left: tuple
    right: tuple
    edges: tuple[tuple[Constant, Constant, int], ...]

    def __init__(self, left: Iterable, right: Iterable, edges: Iterable):
        left = tuple(sorted(set(left), key=constant_key))
        right = tuple(sorted(set(right), key=constant_key))
        edges = tuple(
            sorted(
                (tuple(e) for e in edges),
                key=lambda e: (constant_key(e[0]), constant_key(e[1])),
            )
        )
        left_set, right_set = set(left), set(right)
        seen = set()
        for x, y, w in edges:
            if x not in left_set or y not in right_set:
                raise SchemaError(f"edge ({x!r}, {y!r}) endpoint unknown")
            if not isinstance(w, int) or w < 0:
                raise SchemaError(f"edge weight must be a non-negative int: {w!r}")
            if (x, y) in seen:
                raise SchemaError(f"duplicate edge ({x!r}, {y!r})")
            seen.add((x, y))
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        object.__setattr__(self, "edges", edges)


# One compiled rewrite: its kind and the block key of a fact. The key is
# the tuple of the fact's values on the removed columns (S1, S2), or the
# pair of such tuples on X1 and X2 (S3).
PlanStep = tuple[str, Callable[[Fact], tuple]]


def _compile(signature: Signature, trace: SimplificationTrace) -> list[PlanStep]:
    """Turn the trace into steps over columns of the original signature.

    Projection keeps the surviving attributes in signature order, so
    "signature order" means the same thing at every step.
    """
    plan: list[PlanStep] = []
    for step in trace.steps:
        if step.kind == "S1":
            plan.append(("S1", signature.getter([step.witness])))
        elif step.kind == "S2":
            plan.append(("S2", signature.getter(step.witness.rhs)))
        else:
            x1, x2 = map(signature.getter, step.witness)
            plan.append(("S3", lambda fact, x1=x1, x2=x2: (x1(fact), x2(fact))))
    return plan


def _solve(
    plan: list[PlanStep], facts: list[Fact], depth: int
) -> tuple[list[Fact], dict[tuple, int]]:
    """Repair ``facts`` under ``plan[depth:]``.

    Returns the repair and the repair size of every block of
    ``plan[depth]`` (empty once the plan is used up).
    """
    if depth == len(plan) or not facts:
        return facts, {}
    kind, key_of = plan[depth]
    blocks: dict[tuple, list[Fact]] = {}
    for fact in facts:
        blocks.setdefault(key_of(fact), []).append(fact)
    if len(blocks) == 1:
        # a lone block is its own optimum under every recombination rule
        ((key, block),) = blocks.items()
        repair = _solve(plan, block, depth + 1)[0]
        return repair, {key: len(repair)}
    repairs = {
        key: _solve(plan, block, depth + 1)[0] for key, block in blocks.items()
    }
    sizes = {key: len(repair) for key, repair in repairs.items()}
    if kind == "S1":
        # every lhs holds the witness column: blocks never conflict
        chosen = [fact for repair in repairs.values() for fact in repair]
    elif kind == "S2":
        # facts differing on an empty lhs's rhs conflict: one block survives
        best = max(sizes.values())
        chosen = repairs[
            min((k for k, size in sizes.items() if size == best), key=constant_key)
        ]
    else:
        # a repair joins each X1 value and each X2 value at most once
        problem = BipartiteMatchProblem(
            left=(k[0] for k in sizes),
            right=(k[1] for k in sizes),
            edges=((k[0], k[1], size) for k, size in sizes.items()),
        )
        chosen = []
        total = 0
        for edge in max_weight_matching(problem):
            chosen.extend(repairs[edge])
            total += sizes[edge]
        assert len(chosen) == total, "matching weight must equal repair size"
    return chosen, sizes


def find_crep(schema: FdSchema, instance: Instance) -> Optional[RepairResult]:
    """Compute a cardinality repair, or None when the schema is hard.

    Returns None exactly when :func:`fdrepair.simplify.classify` reports
    the schema intractable; otherwise the result is a consistent,
    maximum-size subinstance. The classifier runs once; its trace is
    compiled into a plan that repairs the facts block by block (see the
    module docstring). ``block_sizes`` describes the blocks of the first
    step only.
    """
    if schema.signature != instance.signature:
        raise SchemaError("instance signature does not match schema")
    trace = classify(schema)
    if not trace.tractable:
        return None
    chosen, sizes = _solve(
        _compile(schema.signature, trace), list(instance.facts), 0
    )
    repaired = Instance(schema.signature, chosen)
    return RepairResult(
        repair=repaired,
        size=len(repaired),
        trace=trace,
        block_sizes=tuple(
            sorted(sizes.items(), key=lambda kv: constant_key(kv[0]))
        ),
    )


def _max_matching_weight(
    edges: Sequence[tuple[Constant, Constant, int]]
) -> int:
    """Maximum total weight of any matching among the given edges."""
    if not edges:
        return 0
    lefts = sorted({e[0] for e in edges}, key=constant_key)
    rights = sorted({e[1] for e in edges}, key=constant_key)
    lindex = {x: i for i, x in enumerate(lefts)}
    rindex = {y: j for j, y in enumerate(rights)}
    weight = np.zeros((len(lefts), len(rights)), dtype=np.int64)
    for x, y, w in edges:
        weight[lindex[x], rindex[y]] = max(weight[lindex[x], rindex[y]], w)
    rows, cols = linear_sum_assignment(weight, maximize=True)
    return int(weight[rows, cols].sum())


def max_weight_matching(
    problem: BipartiteMatchProblem,
) -> tuple[tuple[Constant, Constant], ...]:
    """A maximum-weight matching, deterministically tie-broken.

    Among all maximum-weight matchings, returns the one whose canonically
    sorted edge list is lexicographically smallest (so a zero-weight edge
    is left out rather than matched). The weight maximization itself is
    delegated to an assignment solver; this wrapper only pins the choice
    of edge set.
    """
    edges = problem.edges
    target = _max_matching_weight(edges)
    chosen: list[tuple[Constant, Constant]] = []
    chosen_weight = 0
    used_left: set = set()
    used_right: set = set()
    for i, (x, y, w) in enumerate(edges):
        if chosen_weight == target:
            break
        if x in used_left or y in used_right:
            continue
        rest = [
            e
            for e in edges[i + 1 :]
            if e[0] not in used_left
            and e[0] != x
            and e[1] not in used_right
            and e[1] != y
        ]
        if chosen_weight + w + _max_matching_weight(rest) == target:
            chosen.append((x, y))
            chosen_weight += w
            used_left.add(x)
            used_right.add(y)
    assert chosen_weight == target
    return tuple(chosen)
