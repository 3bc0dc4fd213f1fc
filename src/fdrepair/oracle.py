"""Brute-force ground truth for small inputs.

A cardinality repair is a maximum independent set of the conflict graph
(facts as nodes, violating pairs as edges), since FD violations are
always pairwise. This module computes that set exactly by branch and
bound, enumerates maximum-weight matchings exhaustively, and validates
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
    _conflicts,
    constant_key,
    fact_key,
)
from .repair import BipartiteMatchProblem, RepairResult
from .simplify import classify

DEFAULT_FACT_CAP = 20
DEFAULT_EDGE_CAP = 16


class CapExceededError(ValueError):
    """Input too large for exhaustive search; raise, never crawl."""


@dataclass(frozen=True)
class ConflictGraph:
    """Facts as nodes, adjacency as bitmasks over the canonical order."""

    facts: tuple[Fact, ...]
    adjacency: tuple[int, ...]

    @classmethod
    def build(cls, schema: FdSchema, instance: Instance) -> "ConflictGraph":
        _check_same_signature(schema, instance)
        facts = instance.sorted_facts
        adjacency = [0] * len(facts)
        for i, j, _ in _conflicts(schema, facts):
            adjacency[i] |= 1 << j
            adjacency[j] |= 1 << i
        return cls(facts=facts, adjacency=tuple(adjacency))

    @property
    def edge_count(self) -> int:
        return sum(bin(mask).count("1") for mask in self.adjacency) // 2


def _mis_size(adjacency: tuple[int, ...], mask: int, best_so_far: int = 0) -> int:
    """Maximum independent set size within ``mask``, by branch and bound."""
    best = best_so_far

    def search(chosen: int, mask: int) -> None:
        nonlocal best
        if chosen + bin(mask).count("1") <= best:
            return
        if mask == 0:
            best = max(best, chosen)
            return
        pivot, pivot_degree = -1, -1
        m = mask
        while m:
            low = m & -m
            i = low.bit_length() - 1
            degree = bin(adjacency[i] & mask).count("1")
            if degree > pivot_degree:
                pivot, pivot_degree = i, degree
            m ^= low
        if pivot_degree == 0:
            best = max(best, chosen + bin(mask).count("1"))
            return
        bit = 1 << pivot
        search(chosen + 1, mask & ~bit & ~adjacency[pivot])
        search(chosen, mask & ~bit)

    search(0, mask)
    return best


def brute_force_crep(
    schema: FdSchema, instance: Instance, cap: int = DEFAULT_FACT_CAP
) -> RepairResult:
    """Exact cardinality repair via maximum independent set.

    Works on any schema, tractable or not, up to ``cap`` facts. Among the
    maximum repairs, returns the one whose sorted fact list is
    lexicographically smallest.
    """
    if len(instance) > cap:
        raise CapExceededError(
            f"instance has {len(instance)} facts, brute-force cap is {cap}"
        )
    graph = ConflictGraph.build(schema, instance)
    n = len(graph.facts)
    full = (1 << n) - 1
    alpha = _mis_size(graph.adjacency, full)
    chosen: list[Fact] = []
    available = full
    for i in range(n):
        if len(chosen) == alpha:
            break
        bit = 1 << i
        if not available & bit:
            continue
        upper = ~((bit << 1) - 1)
        with_i = (available & ~bit & ~graph.adjacency[i]) & upper
        if len(chosen) + 1 + _mis_size(graph.adjacency, with_i) == alpha:
            chosen.append(graph.facts[i])
            available &= ~bit & ~graph.adjacency[i]
        else:
            available &= ~bit
    assert len(chosen) == alpha
    repaired = Instance(schema.signature, chosen)
    return RepairResult(
        repair=repaired, size=len(repaired), trace=classify(schema)
    )


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
