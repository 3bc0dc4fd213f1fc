"""Correctness references that never call the code under test.

Everything here works on plain Python values: a schema is a tuple of
attribute names plus FDs given as ``(lhs, rhs)`` pairs of attribute-name
tuples, and a fact is a tuple of cell values aligned with the attribute
names. Nothing imports ``fdrepair``, so a defect in the program cannot
also hide in its own check.
"""

from __future__ import annotations

import csv
import itertools
from collections import defaultdict

import numpy as np
from scipy.optimize import linear_sum_assignment


def parse_fds(attrs: tuple[str, ...], specs: tuple[str, ...]):
    """``("AB->C", "->A")`` over single-letter attributes, as index tuples."""
    position = {a: i for i, a in enumerate(attrs)}
    fds = []
    for spec in specs:
        lhs, rhs = spec.split("->")
        fds.append(
            (tuple(position[a] for a in lhs), tuple(position[a] for a in rhs))
        )
    return tuple(fds)


def repair_violation(fds, facts: set, chosen: set) -> str | None:
    """Why ``chosen`` is not a maximal consistent subset of ``facts``.

    Hash-grouped: per FD, the chosen facts are grouped by their lhs values
    and every group must hold one rhs value (consistency); every fact left
    out must then meet a chosen fact with its lhs values and other rhs
    values under some FD (maximality). Returns None when both hold.
    """
    if not chosen <= facts:
        return "repair holds facts that are not in the input"
    groups = []
    for lhs, rhs in fds:
        group: dict[tuple, tuple] = {}
        for fact in chosen:
            key = tuple(fact[i] for i in lhs)
            value = tuple(fact[i] for i in rhs)
            if group.setdefault(key, value) != value:
                return f"repair violates an FD on lhs values {key!r}"
        groups.append(group)
    for fact in facts - chosen:
        if not any(
            group.get(tuple(fact[i] for i in lhs), None)
            not in (None, tuple(fact[i] for i in rhs))
            for (lhs, rhs), group in zip(fds, groups)
        ):
            return f"repair is not maximal: {fact!r} could be added"
    return None


def read_csv_facts(path: str, attrs: tuple[str, ...]) -> list[tuple]:
    """Rows of a CSV with a header, realigned to ``attrs``."""
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        order = [header.index(a) for a in attrs]
        return [tuple(row[i] for i in order) for row in reader]


# ---------------------------------------------------------------------------
# Closed forms for the repair-blocks and repair-matching schemas


def max_repair_ab_c_a_d(facts: set) -> int:
    """``AB->C, A->D`` over (A,B,C,D): Σ_a max_d #{b : some c exists}."""
    bs: dict[tuple, set] = defaultdict(set)
    for a, b, _, d in facts:
        bs[(a, d)].add(b)
    best: dict = defaultdict(int)
    for (a, _), values in bs.items():
        best[a] = max(best[a], len(values))
    return sum(best.values())


def _matching_size(edges: set) -> int:
    """Maximum cardinality of a bipartite matching, by augmenting paths."""
    adjacency: dict = defaultdict(list)
    for left, right in sorted(edges):
        adjacency[left].append(right)
    owner: dict = {}

    def augment(left, seen: set) -> bool:
        for right in adjacency[left]:
            if right in seen:
                continue
            seen.add(right)
            if right not in owner or augment(owner[right], seen):
                owner[right] = left
                return True
        return False

    return sum(augment(left, set()) for left in adjacency)


def max_repair_worked_example(facts: set) -> int:
    """``->A; DB->ACE; DC->B; DB->F`` over (A..F).

    One A value survives; inside it each D value keeps a B–C matching with
    one fact per matched pair: max_a Σ_d (unweighted B–C matching size).
    """
    edges: dict[tuple, set] = defaultdict(set)
    for a, b, c, d, _, _ in facts:
        edges[(a, d)].add((b, c))
    per_a: dict = defaultdict(int)
    for (a, _), pairs in edges.items():
        per_a[a] += _matching_size(pairs)
    return max(per_a.values(), default=0)


def max_repair_a_b_b_a(facts: set) -> int:
    """``A->B, B->A`` over (A,B,C): one assignment solve on fact counts."""
    counts: dict[tuple, int] = defaultdict(int)
    for a, b, _ in facts:
        counts[(a, b)] += 1
    if not counts:
        return 0
    lefts = {a: i for i, a in enumerate(sorted({a for a, _ in counts}))}
    rights = {b: j for j, b in enumerate(sorted({b for _, b in counts}))}
    weight = np.zeros((len(lefts), len(rights)), dtype=np.int64)
    for (a, b), count in counts.items():
        weight[lefts[a], rights[b]] = count
    rows, cols = linear_sum_assignment(weight, maximize=True)
    return int(weight[rows, cols].sum())


# ---------------------------------------------------------------------------
# Ground truth for the hardness gadgets


def satisfiable(num_vars: int, clauses: list[tuple[int, ...]]) -> bool:
    """Truth-table satisfiability of signed-literal clauses."""
    for bits in itertools.product((False, True), repeat=num_vars):
        if all(any(bits[abs(l) - 1] == (l > 0) for l in c) for c in clauses):
            return True
    return False


def max_triangle_packing(triangles: list[tuple[str, str, str]]) -> int:
    """Most pairwise edge-disjoint triangles (no two share two corners)."""
    n = len(triangles)
    clash = [
        sum(
            1 << j
            for j in range(n)
            if j != i
            and sum(u == v for u, v in zip(triangles[i], triangles[j])) >= 2
        )
        for i in range(n)
    ]

    def best(free: int) -> int:
        if not free:
            return 0
        low = free & -free
        i = low.bit_length() - 1
        rest = free & ~low
        return max(1 + best(rest & ~clash[i]), best(rest))

    return best((1 << n) - 1)
