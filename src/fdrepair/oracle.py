"""Brute-force ground truth for small inputs.

A cardinality repair is a maximum independent set of the conflict graph
(facts as nodes, violating pairs as edges), since FD violations are
always pairwise. This module computes that set exactly, by one branch
and bound search that returns the lexicographically first maximum set,
without classifying the schema (its ``RepairResult.trace`` is None). It
also enumerates maximum-weight matchings exhaustively and validates
repair maximality. Inputs above the configured caps are refused rather
than ground through slowly.
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
    _conflicts,
    constant_key,
    fact_key,
)
from .repair import BipartiteMatchProblem, RepairResult

DEFAULT_FACT_CAP = 20
DEFAULT_EDGE_CAP = 16


class CapExceededError(ValueError):
    """Input too large for exhaustive search; raise, never crawl."""


@dataclass(frozen=True)
class ConflictGraph:
    """Facts as nodes, adjacency as bitmasks over the canonical order.

    The adjacency is the mask view of the conflict index
    (:func:`fdrepair.fds._conflict_masks`): per FD and lhs group, one OR
    per member, with no per-pair work. Bit ``j`` of ``adjacency[i]`` is
    set exactly when ``facts[i]`` and ``facts[j]`` conflict.
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


def _first_maximum_independent_set(adjacency: tuple[int, ...]) -> list[int]:
    """Lexicographically first maximum independent set, by branch and bound.

    Branches on the lowest remaining vertex, taking it before leaving it
    out, so maximum sets are met in lexicographic order; only a strictly
    larger set replaces the best one. A branch is cut when the remaining
    vertices, and then a clique cover of them, cannot beat the best set.
    Leaving out a vertex with no neighbour left cannot lead to a maximum
    set, so that branch is cut too.
    """
    best: list[int] = []
    chosen: list[int] = []

    def search(mask: int) -> None:
        nonlocal best
        if len(chosen) + mask.bit_count() <= len(best):
            return
        if not mask:
            best = chosen.copy()
            return
        if len(chosen) + _clique_cover(adjacency, mask) <= len(best):
            return
        low = mask & -mask
        i = low.bit_length() - 1
        rest = mask ^ low
        chosen.append(i)
        search(rest & ~adjacency[i])
        chosen.pop()
        if adjacency[i] & rest:
            search(rest)

    search((1 << len(adjacency)) - 1)
    return best


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


def brute_force_matching(
    problem: BipartiteMatchProblem, cap: int = DEFAULT_EDGE_CAP
) -> tuple:
    """Maximum-weight matching by exhausting edge subsets.

    Same tie-break as :func:`fdrepair.repair.max_weight_matching`:
    among the maximum-weight matchings, the lexicographically smallest
    canonically sorted edge list wins.
    """
    edges = problem.edges
    if len(edges) > cap:
        raise CapExceededError(
            f"problem has {len(edges)} edges, enumeration cap is {cap}"
        )
    suffix_weight = [0] * (len(edges) + 1)
    for i in range(len(edges) - 1, -1, -1):
        suffix_weight[i] = suffix_weight[i + 1] + edges[i][2]

    best_weight = -1
    best_seq: tuple = ()
    best_key: tuple = ()

    def search(i: int, current: list, weight: int, used_l: set, used_r: set):
        nonlocal best_weight, best_seq, best_key
        if weight + suffix_weight[i] < best_weight:
            return
        if i == len(edges):
            key = tuple(
                (constant_key(x), constant_key(y)) for x, y in current
            )
            if weight > best_weight or (weight == best_weight and key < best_key):
                best_weight = weight
                best_seq = tuple(current)
                best_key = key
            return
        x, y, w = edges[i]
        if x not in used_l and y not in used_r:
            current.append((x, y))
            search(i + 1, current, weight + w, used_l | {x}, used_r | {y})
            current.pop()
        search(i + 1, current, weight, used_l, used_r)

    search(0, [], 0, set(), set())
    return best_seq


def is_s_repair(schema: FdSchema, instance: Instance, candidate: Instance) -> bool:
    """Whether the candidate is a maximal consistent subinstance.

    True exactly when no conflict pair of the instance lies inside the
    candidate and every excluded fact conflicts with some kept one.
    """
    if candidate.signature != instance.signature:
        raise SchemaError("candidate signature does not match instance")
    if not candidate.facts <= instance.facts:
        raise SchemaError("candidate is not a subinstance")
    _check_same_signature(schema, instance)
    facts = tuple(instance.facts)
    kept = [fact in candidate.facts for fact in facts]
    covered = {i for i, keep in enumerate(kept) if keep}
    for i, j, _ in _conflicts(schema, facts):
        if kept[i] and kept[j]:
            return False
        if kept[i] or kept[j]:
            covered.update((i, j))
    return len(covered) == len(facts)


def greedy_s_repair(
    schema: FdSchema, instance: Instance, order: tuple[Fact, ...] | None = None
) -> Instance:
    """A maximal consistent subinstance grown greedily in the given order.

    Not maximum in general; useful as a lower bound when sampling repair
    sizes.
    """
    graph = ConflictGraph.build(schema, instance)
    index = {fact: i for i, fact in enumerate(graph.facts)}
    facts = graph.facts if order is None else tuple(order)
    if sorted(facts, key=fact_key) != sorted(graph.facts, key=fact_key):
        raise SchemaError("order must enumerate exactly the instance's facts")
    chosen_mask = 0
    chosen = []
    for fact in facts:
        i = index[fact]
        if not graph.adjacency[i] & chosen_mask:
            chosen_mask |= 1 << i
            chosen.append(fact)
    return Instance(schema.signature, chosen)
