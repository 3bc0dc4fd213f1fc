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
facts. A one-fact block conflicts with nothing, so it is its own repair
and the rest of the plan never runs on it; most blocks of a wide table
end there.

Each step keys a fact with one C ``itemgetter``. For S3 that key is
flat, the X1 columns followed by the X2 columns; every X1 part has the
same length, so the flat keys sort in the order of the ``(x, y)`` pairs.
The S3 step sorts its block keys once and splits each into ``(x, y)``
once. Small connected components of the S3 graph are matched in pure
Python and larger ones with scipy's assignment solver (see
:func:`max_weight_matching`). ``RepairResult.block_sizes`` is sorted
only when first read.

Every tie is broken canonically (block-key order, or the
lexicographically smallest optimal edge set), so repeated runs return
the same repair.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter
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
    canonical_sorted,
    constant_key,
)
from .simplify import SimplificationTrace, classify


@dataclass(frozen=True)
class RepairResult:
    """A repair, its size, the schema trace, and per-block diagnostics.

    ``trace`` is the classify trace the repair followed; it is None from
    the oracle, which does not classify. ``block_sizes`` pairs each block
    of the first rewrite step with the size of its repair, in block-key
    order (an S3 block key is the pair ``(x, y)`` of its X1 and X2
    values); it is empty when the schema has no FDs. It is computed when
    first read, from the sizes by flat block key that the repair kept
    and the split point of that key, so a caller that never reads it
    never sorts the blocks.
    """

    repair: Instance
    size: int
    trace: Optional[SimplificationTrace]
    _sizes: dict[tuple, int] = field(default_factory=dict, repr=False, hash=False)
    _split: int = field(default=0, repr=False)

    @cached_property
    def block_sizes(self) -> tuple[tuple[tuple, int], ...]:
        sizes, split = self._sizes, self._split
        keys = canonical_sorted(sizes)
        if split:
            return tuple(((k[:split], k[split:]), sizes[k]) for k in keys)
        return tuple((k, sizes[k]) for k in keys)

    @property
    def per_block_sizes(self) -> dict[tuple, int]:
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

    @classmethod
    def _of_sorted_edges(cls, edges: tuple) -> "BipartiteMatchProblem":
        """A problem over valid edges already in canonical order.

        Its nodes are the edge endpoints. The S3 step sorts its block keys
        once and builds its problem here, with no second sort or check.
        """
        problem = object.__new__(cls)
        left = tuple(dict.fromkeys(e[0] for e in edges))
        right = tuple(canonical_sorted({e[1] for e in edges}))
        object.__setattr__(problem, "left", left)
        object.__setattr__(problem, "right", right)
        object.__setattr__(problem, "edges", edges)
        return problem


# One compiled rewrite: its kind, the block key of a fact, and the split
# point of that key. The key is the tuple of the fact's values on the
# removed columns (S1, S2; split 0), or on the X1 columns followed by the
# X2 columns (S3; split ``len(X1)``), one C ``itemgetter`` either way.
PlanStep = tuple[str, Callable[[Fact], tuple], int]


def _compile(signature: Signature, trace: SimplificationTrace) -> list[PlanStep]:
    """Turn the trace into steps over columns of the original signature.

    Projection keeps the surviving attributes in signature order, so
    "signature order" means the same thing at every step.
    """
    plan: list[PlanStep] = []
    for step in trace.steps:
        if step.kind == "S3":
            # the witness is the lhs marriage (X1, X2); they may overlap
            x1, x2 = (
                [signature.position(a) for a in signature.sorted_attrs(lhs)]
                for lhs in step.witness
            )
            plan.append(("S3", itemgetter(*x1, *x2), len(x1)))
        else:
            plan.append((step.kind, signature.getter(step.removed_attributes), 0))
    return plan


def _solve(
    plan: list[PlanStep], facts: list[Fact], depth: int
) -> tuple[list[Fact], dict[tuple, int]]:
    """Repair ``facts`` under ``plan[depth:]``.

    Returns the repair and the repair size of every block of
    ``plan[depth]``, keyed by its flat block key (empty once the plan is
    used up).
    """
    if depth == len(plan) or not facts:
        return facts, {}
    kind, key_of, split = plan[depth]
    blocks: dict[tuple, list[Fact]] = {}
    for fact in facts:
        blocks.setdefault(key_of(fact), []).append(fact)
    # a one-fact block conflicts with nothing: it is its own repair
    repairs = {
        key: block if len(block) == 1 else _solve(plan, block, depth + 1)[0]
        for key, block in blocks.items()
    }
    sizes = {key: len(repair) for key, repair in repairs.items()}
    if len(repairs) == 1:
        # a lone block is its own optimum under every recombination rule
        (chosen,) = repairs.values()
    elif kind == "S1":
        # every lhs holds the witness column: blocks never conflict
        chosen = [fact for repair in repairs.values() for fact in repair]
    elif kind == "S2":
        # facts differing on an empty lhs's rhs conflict: one block survives
        best = max(sizes.values())
        chosen = repairs[
            min((k for k, size in sizes.items() if size == best), key=constant_key)
        ]
    else:
        # a repair joins each X1 value and each X2 value at most once.
        # Every X1 part has the same length, so flat key order is (x, y)
        # order, and one sort gives the edges in canonical order
        problem = BipartiteMatchProblem._of_sorted_edges(
            tuple(
                (key[:split], key[split:], sizes[key])
                for key in canonical_sorted(sizes)
            )
        )
        chosen = []
        total = 0
        for x, y in max_weight_matching(problem):
            chosen.extend(repairs[x + y])
            total += sizes[x + y]
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
    plan = _compile(schema.signature, trace)
    chosen, sizes = _solve(plan, list(instance.facts), 0)
    repaired = Instance._of_checked(schema.signature, chosen)
    return RepairResult(
        repair=repaired,
        size=len(repaired),
        trace=trace,
        _sizes=sizes,
        _split=plan[0][2] if plan else 0,
    )


def max_weight_matching(
    problem: BipartiteMatchProblem,
) -> tuple[tuple[Constant, Constant], ...]:
    """A maximum-weight matching, deterministically tie-broken.

    Among all maximum-weight matchings, returns the one whose canonically
    sorted edge list is lexicographically smallest. A list that is a
    prefix of another is the smaller, so a zero-weight edge is kept when
    it comes before the last edge the optimum needs and left out when it
    comes after: edges ``(a,b,0), (c,d,5)`` give ``((a,b), (c,d))`` and
    ``(a,b,5), (c,d,0)`` give ``((a,b),)``.

    That list is the lex greedy: take the edges in canonical order, keep
    an edge when its endpoints are free and the edges after it can still
    complete an optimum with it, and stop once the optimum is reached.
    Optimal weight adds up over the connected components, so each
    component runs its own greedy (:func:`_component_greedy`), and the
    merged list stops at the edge where the last component reached its
    optimum. When no two edges share an endpoint, every component is one
    edge, and the answer is every edge up to the last positive one.

    A component of at most :data:`SMALL_COMPONENT` edges needs no solver.
    Its matchings, as increasing lists of edge positions, form a tree in
    which a child adds one later edge, and pre-order visits that tree in
    exactly the lex order above, a prefix first. So the first matching of
    maximum weight a pre-order search meets is the greedy's list up to
    its optimum (:func:`_first_optimum`). A larger component takes one
    assignment solve and its LP duals.
    """
    edges = problem.edges
    if len({x for x, _, _ in edges}) == len(edges) == len({y for _, y, _ in edges}):
        # every component is one edge: all of them up to the last positive one
        stop = max((i for i, (_, _, w) in enumerate(edges) if w), default=-1)
        return tuple(edge[:2] for edge in edges[: stop + 1])
    accepted: list[int] = []
    stop = -1
    for component in _components(edges):
        taken, reached = _component_greedy([edges[i] for i in component])
        accepted.extend(component[k] for k in taken)
        if reached >= 0:
            stop = max(stop, component[reached])
    return tuple(edges[i][:2] for i in sorted(accepted) if i <= stop)


def _components(edges: Sequence[tuple]) -> list[list[int]]:
    """Positions of the edges of each connected component, in edge order.

    A breadth-first search over the edges at each endpoint; an endpoint's
    edge list is popped when first reached, so each is read once.
    """
    at_left: dict = {}
    at_right: dict = {}
    for i, (x, y, _) in enumerate(edges):
        at_left.setdefault(x, []).append(i)
        at_right.setdefault(y, []).append(i)
    seen = [False] * len(edges)
    components = []
    for start in range(len(edges)):
        if seen[start]:
            continue
        seen[start] = True
        component = [start]
        for i in component:
            x, y, _ = edges[i]
            for j in (*at_left.pop(x, ()), *at_right.pop(y, ())):
                if not seen[j]:
                    seen[j] = True
                    component.append(j)
        component.sort()
        components.append(component)
    return components


# Components of at most this many edges are matched by a pre-order
# search in pure Python (:func:`_first_optimum`), larger ones by the
# LP-dual greedy. The search grows with the number of matchings; the
# greedy pays numpy and scipy set-up on every component. Measured on one
# CPython 3.11 process of a shared 2-core VM: on the one-to-one tables'
# components of 3-10 edges the search took 9-25 us and the greedy
# 34-50 us, and on a complete 2x5 graph, the 10-edge shape with the most
# matchings, the two broke even. The benchmark has components on both
# sides: the worked example and the sparse one-to-one tables have many
# small ones, the dense 40x40 and 60x60 tables one large one each.
SMALL_COMPONENT = 10


def _component_greedy(edges: Sequence[tuple]) -> tuple[list[int], int]:
    """The lex greedy on the edges of one connected component.

    Returns the positions of the accepted edges and the position at which
    their weight reached the component's optimum (-1 when that is 0).
    After that point it still accepts every zero-weight edge with free
    endpoints; the caller keeps those that come before its stop.

    A component of at most :data:`SMALL_COMPONENT` edges goes to
    :func:`_first_optimum`. On a larger one, one assignment solve gives
    the optimum and LP duals (:func:`_duals`). By complementary slackness
    every optimum uses only tight edges, so an edge that is not tight is
    rejected at once. ``current`` is an optimum that holds the accepted
    edges and otherwise only later ones, so an edge in it is accepted at
    once. Any other edge needs a solve over the later tight edges with
    free endpoints, and refreshes ``current`` when it is accepted.
    """
    lefts: dict = {}
    rights: dict = {}
    ls = [lefts.setdefault(x, len(lefts)) for x, _, _ in edges]
    rs = [rights.setdefault(y, len(rights)) for _, y, _ in edges]
    ws = [w for _, _, w in edges]
    if len(edges) <= SMALL_COMPONENT:
        return _first_optimum(ls, rs, ws)
    ls_array, rs_array, ws_array = np.array(ls), np.array(rs), np.array(ws)
    shape = (len(lefts), len(rights))
    target, optimum = _assignment(ls_array, rs_array, ws_array, shape)
    u, v = _duals(ls, rs, ws, optimum.tolist(), *shape)
    assert sum(u) + sum(v) == target, "the duals must certify the optimum"
    tight = u[ls_array] + v[rs_array] == ws_array
    current = set(optimum.tolist())
    free_left = [True] * shape[0]
    free_right = [True] * shape[1]
    accepted: list[int] = []
    weight = 0
    reached = -1
    for i, (x, y, w) in enumerate(zip(ls, rs, ws)):
        if not (free_left[x] and free_right[y]):
            continue
        if weight == target:
            take = w == 0
        elif i in current:
            take = True
        elif not tight[i]:
            take = False
        else:
            later = slice(i + 1, None)
            rest = i + 1 + np.flatnonzero(
                tight[later]
                & np.array(free_left)[ls_array[later]]
                & np.array(free_right)[rs_array[later]]
                & (ls_array[later] != x)
                & (rs_array[later] != y)
            )
            best, completion = _assignment(
                ls_array[rest], rs_array[rest], ws_array[rest], shape
            )
            take = weight + w + best == target
            if take:
                current = {*accepted, i, *rest[completion].tolist()}
        if take:
            accepted.append(i)
            free_left[x] = free_right[y] = False
            weight += w
            if w and weight == target:
                reached = i
    assert weight == target
    return accepted, reached


def _first_optimum(
    ls: list[int], rs: list[int], ws: list[int]
) -> tuple[list[int], int]:
    """:func:`_component_greedy` on a small component, with no solver.

    Visits the matchings of the edges ``(ls[k], rs[k], ws[k])`` in the
    pre-order of :func:`max_weight_matching` and keeps the first one of
    maximum weight. A branch is cut once even all of its later edges
    could not beat the best so far. Vertex ids index bits of the ``used``
    masks.
    """
    n = len(ws)
    bound = [0] * (n + 1)
    for k in range(n - 1, -1, -1):
        bound[k] = bound[k + 1] + ws[k]
    best: tuple = ()
    best_weight = 0

    def visit(chosen: tuple, start: int, weight: int, used_l: int, used_r: int):
        nonlocal best, best_weight
        if weight > best_weight:
            best, best_weight = chosen, weight
        for k in range(start, n):
            if weight + bound[k] <= best_weight:
                return
            x, y = 1 << ls[k], 1 << rs[k]
            if not (used_l & x or used_r & y):
                visit((*chosen, k), k + 1, weight + ws[k], used_l | x, used_r | y)

    visit((), 0, 0, 0, 0)
    # a parent comes before its children, so the last edge of ``best`` is
    # positive; past it only free zero-weight edges remain to take
    reached = best[-1] if best else -1
    accepted = list(best)
    used_l = used_r = 0
    for k in best:
        used_l |= 1 << ls[k]
        used_r |= 1 << rs[k]
    for k in range(reached + 1, n):
        x, y = 1 << ls[k], 1 << rs[k]
        if not (used_l & x or used_r & y):
            accepted.append(k)
            used_l |= x
            used_r |= y
    return accepted, reached


def _assignment(
    ls: np.ndarray, rs: np.ndarray, ws: np.ndarray, shape: tuple[int, int]
) -> tuple[int, np.ndarray]:
    """One maximum-weight matching of the edges ``(ls[k], rs[k], ws[k])``.

    ``shape`` bounds the vertex ids. Returns the matching's weight and
    the positions ``k`` of its positive-weight edges. The dense matrix
    holds 0 at non-edges, so they never count.
    """
    if not len(ws):
        return 0, np.zeros(0, dtype=np.intp)
    weight = np.zeros(shape, dtype=np.int64)
    weight[ls, rs] = ws
    position = np.zeros(weight.shape, dtype=np.intp)
    position[ls, rs] = np.arange(len(ws))
    r, c = linear_sum_assignment(weight, maximize=True)
    matched = weight[r, c]
    return int(matched.sum()), position[r, c][matched > 0]


def _duals(
    ls: list[int],
    rs: list[int],
    ws: list[int],
    matched: list[int],
    n_left: int,
    n_right: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Integer LP duals ``u, v >= 0`` of an optimal matching.

    ``u[x] + v[y] >= w`` on every edge, with equality on the matched
    edges, and ``u`` or ``v`` is 0 on every unmatched vertex, so
    ``Σu + Σv`` is the matching's weight. With ``p = u`` and ``q = -v``
    these are difference constraints, and shortest paths from a virtual
    source solve them: arcs of length 0 to every right vertex and every
    unmatched left vertex, ``-w`` along each edge ``x -> y`` and ``+w``
    back along each matched edge ``y -> x``. An optimal matching leaves no
    negative cycle, so the queue-based Bellman-Ford (SPFA) below ends.
    """
    mate = [-1] * n_right
    mate_weight = [0] * n_right
    p = [0] * n_left
    for k in matched:
        mate[rs[k]], mate_weight[rs[k]], p[ls[k]] = ls[k], ws[k], ws[k]
    q = [0] * n_right
    adjacency: list[list[tuple[int, int]]] = [[] for _ in range(n_left)]
    for x, y, w in zip(ls, rs, ws):
        adjacency[x].append((y, w))
    queue = deque(range(n_left))
    queued = [True] * n_left
    budget = n_left * (n_left + n_right + 1)
    while queue:
        budget -= 1
        assert budget >= 0, "negative cycle: the matching is not optimal"
        x = queue.popleft()
        queued[x] = False
        for y, w in adjacency[x]:
            d = p[x] - w
            if d < q[y]:
                q[y] = d
                m = mate[y]
                if m >= 0 and d + mate_weight[y] < p[m]:
                    p[m] = d + mate_weight[y]
                    if not queued[m]:
                        queued[m] = True
                        queue.append(m)
    return np.array(p), -np.array(q)
