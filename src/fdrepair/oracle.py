"""Brute-force ground truth for small inputs.

A cardinality repair is a maximum independent set of the conflict graph
(facts as nodes, violating pairs as edges), since FD violations are
always pairwise. This module computes that set exactly, by one branch
and bound search that returns the lexicographically first maximum set,
without classifying the schema (its ``RepairResult.trace`` is None). It
also validates repair maximality. Inputs above the configured cap are
refused rather than ground through slowly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fds import (
    Fact,
    FdSchema,
    Instance,
    SchemaError,
    _check_same_signature,
    _conflict_masks,
    _positions,
    _rhs_by_lhs,
)
from .repair import RepairResult

DEFAULT_FACT_CAP = 20


class CapExceededError(ValueError):
    """Input too large for exhaustive search; raise, never crawl."""


@dataclass(frozen=True)
class ConflictGraph:
    """Facts as nodes, adjacency as bitmasks over the canonical order.

    The adjacency is the package's one conflict index
    (:func:`fdrepair.fds._conflict_masks`), read directly: per FD and
    lhs group, one OR per member and rhs value, with no per-pair work.
    Bit ``j`` of ``adjacency[i]`` is set exactly when ``facts[i]`` and
    ``facts[j]`` conflict.
    """

    facts: tuple[Fact, ...]
    adjacency: tuple[int, ...]

    @classmethod
    def build(cls, schema: FdSchema, instance: Instance) -> "ConflictGraph":
        _check_same_signature(schema, instance)
        facts = instance.sorted_facts
        return cls(facts=facts, adjacency=tuple(_conflict_masks(schema, facts)))

    @property
    def edge_count(self) -> int:
        return sum(mask.bit_count() for mask in self.adjacency) // 2


def _clique_cover(adjacency: tuple[int, ...], mask: int) -> int:
    """Cliques in a greedy cover of ``mask``, a bound on its independent sets."""
    cliques = 0
    while mask:
        low = mask & -mask
        mask ^= low
        grow = mask & adjacency[low.bit_length() - 1]
        while grow:
            low = grow & -grow
            mask ^= low
            grow &= adjacency[low.bit_length() - 1]
        cliques += 1
    return cliques


def _first_maximum_independent_set(adjacency: tuple[int, ...]) -> tuple[int, ...]:
    """Lexicographically first maximum independent set, by branch and bound.

    Branches on the lowest remaining vertex, taking it before leaving it
    out, so maximum sets are met in lexicographic order; only a strictly
    larger set replaces the best one. A branch is cut when the remaining
    vertices, and then a clique cover of them, cannot beat the best set.
    Leaving out a vertex with no neighbour left cannot lead to a maximum
    set, so that branch is cut too.

    The search runs with an explicit stack, not one call per vertex, so
    its depth is not bounded by Python's recursion limit. A branch is
    the remaining vertices and the chosen ones, both as bitmasks, and
    the chosen count. The loop follows the take branch at once and
    stacks the leave-out branch, so branches are met in the same order
    as by recursion, deepest leave-out first.
    """
    best = best_count = 0
    stack = [((1 << len(adjacency)) - 1, 0, 0)]
    while stack:
        mask, chosen, count = stack.pop()
        while count + mask.bit_count() > best_count:
            if not mask:
                best, best_count = chosen, count
                break
            if count + _clique_cover(adjacency, mask) <= best_count:
                break
            low = mask & -mask
            neighbours = adjacency[low.bit_length() - 1]
            mask ^= low
            if neighbours & mask:
                stack.append((mask, chosen, count))
                mask &= ~neighbours
            chosen |= low
            count += 1
    return _positions(best)


def brute_force_crep(
    schema: FdSchema, instance: Instance, cap: int = DEFAULT_FACT_CAP
) -> RepairResult:
    """Exact cardinality repair via maximum independent set.

    Works on any schema, tractable or not, up to ``cap`` facts. Among the
    maximum repairs, returns the one whose sorted fact list is
    lexicographically smallest. The schema is not classified, so
    ``trace`` is None.
    """
    if len(instance) > cap:
        raise CapExceededError(
            f"instance has {len(instance)} facts, brute-force cap is {cap}"
        )
    graph = ConflictGraph.build(schema, instance)
    chosen = _first_maximum_independent_set(graph.adjacency)
    repaired = Instance._of_checked(
        schema.signature, [graph.facts[i] for i in chosen]
    )
    return RepairResult(repair=repaired, size=len(repaired), trace=None)


def is_s_repair(schema: FdSchema, instance: Instance, candidate: Instance) -> bool:
    """Whether the candidate is a maximal consistent subinstance.

    True exactly when no two kept facts conflict and every dropped fact
    conflicts with some kept one. Reads one lhs -> rhs map of the kept
    facts per FD (:func:`fdrepair.fds._rhs_by_lhs`), in O(facts x FDs),
    and builds no conflicting pair: a map that meets two rhs values for
    one lhs value makes the candidate inconsistent, and a dropped fact is
    covered when its lhs value maps to another rhs value.
    """
    if candidate.signature != instance.signature:
        raise SchemaError("candidate signature does not match instance")
    kept = candidate._rows
    uncovered = set(instance._rows)
    uncovered.difference_update(kept)
    # a subinstance takes len(kept) facts out of the instance, any other set fewer
    if len(uncovered) != len(instance) - len(kept):
        raise SchemaError("candidate is not a subinstance")
    _check_same_signature(schema, instance)
    for lhs, rhs in schema._keys:
        mapped = _rhs_by_lhs(lhs, rhs, kept)
        if mapped is None:
            return False
        # still uncovered: no kept fact has its lhs value, or one has its rhs
        uncovered = [f for f in uncovered if mapped.get(lhs(f), rhs(f)) == rhs(f)]
    return not uncovered
