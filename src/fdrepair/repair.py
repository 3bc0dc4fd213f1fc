"""Exact cardinality repair for tractable FD schemas.

:func:`find_crep` runs :func:`fdrepair.simplify.classify` once and
compiles its trace's mask plan into a *plan*: one step per applied
rewrite, each naming the columns of the original signature that the
rewrite removes, read straight off the plan's position masks.
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
end there. No FD is left below the last step, so each of its blocks is
its own repair too, and only its size matters. The last step therefore
collects no blocks: it counts the facts per flat block key in a plain
dict and recombines from the counts. A lone block, or S3 blocks that
share no endpoint, keep the input list as it stands; otherwise the
kept facts come out of one C-level filter over the facts' keys.

Each step keys a fact with one C ``itemgetter``. An S1 or S2 step that
removes one column keys a block by the bare value, not a 1-tuple;
``RepairResult.block_sizes`` wraps the first step's keys when it is
read. For S3 that key is flat, the X1 columns followed by the X2
columns; every X1 part has the same length, so the flat keys sort in
the order of the ``(x, y)`` pairs. When X1 and X2 are one column each,
the endpoints are the key's two bare values, and a matched edge is its
own flat key; otherwise they are the key's two slices, and a matched
edge joins back into its key. When no two block keys share an X1 or an
X2 value, every block is an edge of its own, and the matching takes
them all, since a non-empty block repairs to at least one fact; such a
step returns the union of its block repairs, as S1 does, with no sort,
no problem and no matcher call, so the matcher only gets graphs with
two edges that share an endpoint. Otherwise the S3 step sorts its block
keys once and splits them into ``(x, y)`` with the two endpoint getters
compiled with the plan, in C-level ``zip`` and ``map`` calls. The
matching runs in pure Python: one optimum with its LP duals, then one
lex greedy over the whole graph, with no solver and no split into
components (see :func:`max_weight_matching`).

Block sizes are kept only where they are read: at the first step, for
``block_sizes`` (sorted only when first read), and where S2 chooses a
block or S3 matches blocks. The last step's counts are its sizes. Below
the first step and above the last, an S1 step, and an S3 step whose
blocks share no endpoint, returns the union of its block repairs and
nothing else, and when all its blocks hold one fact, that union is its
input list as it stands.

Every tie is broken canonically (block-key order, or the
lexicographically smallest optimal edge set), so repeated runs return
the same repair.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from heapq import heappop, heappush
from itertools import compress, count
from operator import itemgetter
from typing import Callable, Iterable, Optional

from .fds import (
    Constant,
    Fact,
    FdSchema,
    Instance,
    SchemaError,
    canonical_sorted,
    constant_key,
)
from .simplify import SimplificationTrace, _positions, classify


def __getattr__(name: str):
    # Unused by the matcher. The benchmark's tracer (perfbench/tracing.py)
    # reads ``repair.linear_sum_assignment`` to count solver calls and
    # fails without it. Resolving the name here, on first read, keeps
    # scipy out of every other process; ROADMAP item 1 drops that binding
    # and then this hook
    if name == "linear_sum_assignment":
        from scipy.optimize import linear_sum_assignment

        return linear_sum_assignment
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class RepairResult:
    """A repair, its size, the schema trace, and per-block diagnostics.

    ``trace`` is the classify trace the repair followed; it is None from
    the oracle, which does not classify. ``block_sizes`` pairs each block
    of the first rewrite step with the size of its repair, in block-key
    order: an S1 or S2 block key is the tuple of the block's values on
    the removed columns, and an S3 block key is the pair ``(x, y)`` of
    its X1 and X2 values. It is empty when the schema has no FDs. It is
    computed when first read, from the sizes by flat block key that the
    repair kept and the step's map from a flat key to its block key, so
    a caller that never reads it never sorts the blocks.
    """

    repair: Instance
    size: int
    trace: Optional[SimplificationTrace]
    _sizes: dict = field(default_factory=dict, repr=False, hash=False)
    _block_key: Callable = field(default=tuple, repr=False, compare=False)

    @cached_property
    def block_sizes(self) -> tuple[tuple[tuple, int], ...]:
        sizes, block_key = self._sizes, self._block_key
        return tuple((block_key(k), sizes[k]) for k in canonical_sorted(sizes))


@dataclass(frozen=True)
class BipartiteMatchProblem:
    """Weighted bipartite graph, given as its edges ``(x, y, w)``.

    The nodes are the edge endpoints: ``x`` on the left, ``y`` on the
    right. Edges are stored canonically sorted by ``(x, y)``; weights
    must be non-negative ints and at most one edge may join a given pair.
    """

    edges: tuple[tuple[Constant, Constant, int], ...]

    def __init__(self, edges: Iterable):
        edges = tuple(
            sorted(
                (tuple(e) for e in edges),
                key=lambda e: (constant_key(e[0]), constant_key(e[1])),
            )
        )
        seen = set()
        for x, y, w in edges:
            if not isinstance(w, int) or w < 0:
                raise SchemaError(f"edge weight must be a non-negative int: {w!r}")
            if (x, y) in seen:
                raise SchemaError(f"duplicate edge ({x!r}, {y!r})")
            seen.add((x, y))
        object.__setattr__(self, "edges", edges)

    @classmethod
    def _of_sorted_edges(cls, edges: tuple) -> "BipartiteMatchProblem":
        """A problem over valid edges already in canonical order.

        The S3 step sorts its block keys once and builds its problem here,
        with no second sort or check.
        """
        problem = object.__new__(cls)
        object.__setattr__(problem, "edges", edges)
        return problem


# One compiled rewrite: its kind, the flat block key of a fact, the map
# from a flat key to the block key that ``block_sizes`` reports, and, for
# S3, the getters of the key's two endpoints and the map from a matched
# edge back to its flat key. The flat key is the fact's value on the one
# removed column, or the tuple of its values on several (S1, S2; block
# key ``(value,)`` or the tuple itself), or on the X1 columns followed
# by the X2 columns (S3; block key ``(x, y)``). An S3 endpoint is the
# bare value when its lhs is one column, and otherwise the key's slice
# ``x = key[:len(X1)]`` or ``y = key[len(X1):]``. Every key getter is a
# C ``itemgetter``.
PlanStep = tuple[
    str,
    Callable[[Fact], object],
    Callable,
    Optional[Callable],
    Optional[Callable],
    Optional[Callable],
]


def _one_tuple(value: Constant) -> tuple:
    return (value,)


def _one_tuple_pair(key: tuple) -> tuple:
    return ((key[0],), (key[1],))


def _pair(x_of: Callable, y_of: Callable) -> Callable[[tuple], tuple]:
    return lambda key: (x_of(key), y_of(key))


def _joined(edge: tuple) -> tuple:
    return edge[0] + edge[1]


def _compile(trace: SimplificationTrace) -> list[PlanStep]:
    """Turn the trace's mask plan into steps over columns of the original
    signature: its masks are over the input signature's positions."""
    plan: list[PlanStep] = []
    for kind, witness, removed in trace._plan:
        if kind == "S3":
            # the witness is the lhs marriage (X1, X2); they may overlap
            x1, x2 = map(_positions, witness)
            key_of = itemgetter(*x1, *x2)
            if len(x1) == len(x2) == 1:
                # bare endpoints, as for one-column S1/S2 keys: the flat
                # key is the edge (x, y), so a matched edge is its own key,
                # which ``tuple`` returns as it is
                plan.append(
                    ("S3", key_of, _one_tuple_pair, itemgetter(0), itemgetter(1), tuple)
                )
            else:
                x_of = itemgetter(slice(len(x1)))
                y_of = itemgetter(slice(len(x1), None))
                plan.append(("S3", key_of, _pair(x_of, y_of), x_of, y_of, _joined))
        else:
            # on one column the key is the bare value, which groups faster
            # than a 1-tuple, and sorts (by constant_key) in the same order
            columns = _positions(removed)
            block_key = _one_tuple if len(columns) == 1 else tuple
            plan.append((kind, itemgetter(*columns), block_key, None, None, None))
    return plan


def _shares_no_endpoint(keys: dict, x_of: Callable, y_of: Callable) -> bool:
    """Whether no two flat S3 block keys share an X1 or an X2 value."""
    return len(set(map(x_of, keys))) == len(keys) == len(set(map(y_of, keys)))


def _kept(step: PlanStep, sizes: dict) -> set:
    """The flat keys of the blocks an S2 or S3 step keeps, given the
    repair size of each of its blocks."""
    kind, _, _, x_of, y_of, edge_key = step
    if kind == "S2":
        # facts differing on an empty lhs's rhs conflict: one block survives
        best = max(sizes.values())
        largest = (key for key, size in sizes.items() if size == best)
        return {min(largest, key=constant_key)}
    # a repair joins each X1 value and each X2 value at most once. Every
    # X1 part has the same length, so flat key order is (x, y) order, and
    # one sort gives the edges in canonical order
    keys = canonical_sorted(sizes)
    problem = BipartiteMatchProblem._of_sorted_edges(
        tuple(zip(map(x_of, keys), map(y_of, keys), map(sizes.__getitem__, keys)))
    )
    return set(map(edge_key, max_weight_matching(problem)))


def _solve(
    plan: list[PlanStep], facts: list[Fact], depth: int
) -> tuple[list[Fact], dict]:
    """Repair ``facts`` under ``plan[depth:]``.

    Returns the repair and the repair size of every block of
    ``plan[depth]``, keyed by its flat block key. Only the sizes at
    depth 0 are read. The last step returns the fact counts it
    recombines from; a step above it builds sizes only at depth 0 and
    where S2 chooses a block or S3 matches blocks, and elsewhere they
    are empty.
    """
    if depth == len(plan) or not facts:
        return facts, {}
    step = plan[depth]
    kind, key_of, _, x_of, y_of, _ = step
    if depth + 1 == len(plan):
        # no FD is left below the last step, an S2 or S3 step (S1 never
        # is): every block is its own repair, so its fact count is all
        # the recombination reads
        sizes: dict = {}
        get = sizes.get
        for key in map(key_of, facts):
            sizes[key] = get(key, 0) + 1
        if len(sizes) == 1 or (
            kind == "S3" and _shares_no_endpoint(sizes, x_of, y_of)
        ):
            # a lone block is its own optimum under every recombination
            # rule, and S3 blocks that share no X1 or X2 value are edges
            # of their own, each taken by the matching
            return facts, sizes
        keep = _kept(step, sizes)
        chosen = list(compress(facts, map(keep.__contains__, map(key_of, facts))))
        assert kind == "S2" or len(chosen) == sum(
            map(sizes.__getitem__, keep)
        ), "matching weight must equal repair size"
        return chosen, sizes
    blocks: dict = {}
    for fact in facts:
        blocks.setdefault(key_of(fact), []).append(fact)
    if kind == "S1" and depth:
        # every lhs holds the witness column: blocks never conflict, and
        # the repair is the union of the block repairs. S1 is never the
        # last step: each FD keeps its rhs when a lhs column goes
        if len(blocks) == len(facts):
            # one fact per block, each its own repair: the union is facts
            return facts, {}
        chosen = []
        for block in blocks.values():
            chosen += block if len(block) == 1 else _solve(plan, block, depth + 1)[0]
        return chosen, {}
    # a one-fact block conflicts with nothing: it is its own repair
    repairs = {
        key: block if len(block) == 1 else _solve(plan, block, depth + 1)[0]
        for key, block in blocks.items()
    }
    if len(repairs) == 1:
        # a lone block is its own optimum under every recombination rule
        (chosen,) = repairs.values()
        return chosen, {} if depth else dict.fromkeys(repairs, len(chosen))
    if kind == "S1" or (kind == "S3" and _shares_no_endpoint(repairs, x_of, y_of)):
        # the union of the block repairs. S1 blocks never conflict (an S1
        # step gets here only as the first step), and S3 blocks that share
        # no X1 or X2 value are edges of their own, each taken by the
        # matching, as each block's repair holds a fact
        if len(repairs) == len(facts):
            chosen = facts
        else:
            chosen = [fact for repair in repairs.values() for fact in repair]
        if depth:
            return chosen, {}
        return chosen, {key: len(repair) for key, repair in repairs.items()}
    sizes = {key: len(repair) for key, repair in repairs.items()}
    chosen = []
    for key in _kept(step, sizes):
        chosen += repairs[key]
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
    return _find_crep(schema, classify(schema), instance)


def _find_crep(
    schema: FdSchema, trace: SimplificationTrace, instance: Instance
) -> Optional[RepairResult]:
    """:func:`find_crep` of the schema that ``trace`` classified."""
    if schema.signature != instance.signature:
        raise SchemaError("instance signature does not match schema")
    if not trace.tractable:
        return None
    plan = _compile(trace)
    chosen, sizes = _solve(plan, list(instance.facts), 0)
    repaired = Instance._of_checked(schema.signature, chosen)
    return RepairResult(
        repair=repaired,
        size=len(repaired),
        trace=trace,
        _sizes=sizes,
        _block_key=plan[0][2] if plan else tuple,
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

    :func:`_optimum` gives one optimum ``mate`` and LP duals
    ``y >= 0``. By complementary slackness the optima are exactly the
    matchings of tight edges (``y[a] + y[b] == w``) that cover every
    vertex of positive dual. So an edge that is not tight is rejected at
    once. ``mate`` stays an optimum that holds the accepted edges and
    otherwise only later ones, so an edge in it is accepted at once. Any
    other tight edge ``(a, b)`` is matched in ``mate``, and the old mates
    of ``a`` and ``b`` that have a positive dual are covered again by at
    most two :func:`_augment` searches. The edge is accepted when they
    succeed; otherwise ``mate`` is restored.
    """
    edges = problem.edges
    if not edges:
        return ()
    xs, ys, weights = zip(*edges)
    # left and right vertices are numbered in one range, lefts first
    lefts = dict(zip(dict.fromkeys(xs), count()))
    rights = dict(zip(dict.fromkeys(ys), count(len(lefts))))
    ends = list(zip(map(lefts.__getitem__, xs), map(rights.__getitem__, ys), weights))
    target, mate, duals = _optimum(ends, len(lefts), len(lefts) + len(rights))
    tight: list[list[tuple[int, int]]] = [[] for _ in duals]
    for i, (a, b, w) in enumerate(ends):
        if duals[a] + duals[b] == w:
            tight[a].append((i, b))
            tight[b].append((i, a))
    free = [True] * len(duals)
    accepted: list[int] = []
    weight = 0
    for i, (a, b, w) in enumerate(ends):
        if weight == target:
            break
        if not (free[a] and free[b]) or duals[a] + duals[b] != w:
            continue
        free[a] = free[b] = False
        if mate[a] != b:
            lost = [v for v in (mate[a], mate[b]) if v >= 0]
            changed = [(v, mate[v]) for v in (a, b, *lost)]
            for v in lost:
                mate[v] = -1
            mate[a], mate[b] = b, a
            if not all(
                _augment(v, i, tight, mate, free, duals, changed)
                for v in lost
                if duals[v] and mate[v] < 0
            ):
                for v, m in reversed(changed):
                    mate[v] = m
                free[a] = free[b] = True
                continue
        accepted.append(i)
        weight += w
    assert weight == target
    return tuple(edges[i][:2] for i in accepted)


def _optimum(
    ends: list[tuple[int, int, int]], n_left: int, n: int
) -> tuple[int, list[int], list[int]]:
    """One maximum-weight matching of ``ends`` and integer LP duals.

    Vertices ``0 .. n_left - 1`` are the lefts and ``n_left .. n - 1``
    the rights. Returns the optimum weight, ``mate`` (the matched vertex,
    or -1) and duals ``y >= 0`` with ``y[a] + y[b] >= w`` on every edge,
    equality on the matched edges and ``Σy`` equal to the optimum.

    Every left starts at its largest weight and every right at 0, and
    tight edges are matched greedily. From then on matched edges stay
    tight and exposed rights keep dual 0, so the duals certify the
    matching once every exposed left has dual 0 too. Each left still
    exposed with a positive dual runs one Dijkstra phase over
    alternating paths from it: an unmatched edge costs its slack, a
    matched one nothing. The phase ends at distance ``delta`` at the
    first of two events. A free right is reached, and the path to it
    augments the matching. Or a reached left's dual, less ``delta`` minus
    its distance, hits 0, and the path to that left shifts the matching
    so that it is the exposed one. Then every reached vertex moves its
    dual by ``delta`` minus its distance, lefts down and rights up. That
    keeps every edge feasible and makes the path tight.
    """
    duals = [0] * n
    out: list[list[tuple[int, int]]] = [[] for _ in range(n_left)]
    for a, b, w in ends:
        out[a].append((b, w))
        if w > duals[a]:
            duals[a] = w
    mate = [-1] * n
    for a in range(n_left):
        for b, w in out[a]:
            if w == duals[a] and mate[b] < 0:
                mate[a], mate[b] = b, a
                break
    for root in range(n_left):
        if mate[root] >= 0 or not duals[root]:
            continue
        # distances of the reached lefts, and tentative ones of the rights;
        # ``before`` maps each reached right to the left it came from
        at_left: dict[int, int] = {}
        reach: dict[int, int] = {}
        before: dict[int, int] = {}
        # (distance, vertex, -1) is the event that a left's dual hits 0
        heap = [(duals[root], root, -1)]
        x, d = root, 0
        while True:
            at_left[x] = d
            base = d + duals[x]
            for y, w in out[x]:
                e = base + duals[y] - w
                if e < reach.get(y, e + 1):  # the first or a shorter reach
                    reach[y] = e
                    heappush(heap, (e, y, x))
            delta, end, via = heappop(heap)
            while via >= 0 and end in before:
                delta, end, via = heappop(heap)
            if via < 0:
                y = mate[end]
                mate[end] = -1
                break
            before[end] = via
            if mate[end] < 0:
                y = end
                break
            x, d = mate[end], delta
            heappush(heap, (d + duals[x], x, -1))
        for x, d in at_left.items():
            duals[x] -= delta - d
        for z in before:
            duals[z] += delta - reach[z]
        while y >= 0:
            x = before[y]
            mate[x], mate[y], y = y, x, mate[x]
    weight = sum(w for a, b, w in ends if mate[a] == b)
    assert sum(duals) == weight, "the duals must certify the optimum"
    return weight, mate, duals


def _augment(
    s: int,
    i: int,
    tight: list[list[tuple[int, int]]],
    mate: list[int],
    free: list[bool],
    duals: list[int],
    changed: list[tuple[int, int]],
) -> bool:
    """Cover the exposed vertex ``s`` by one alternating path in ``mate``.

    Breadth-first over the tight edges after edge ``i`` with free
    endpoints. The path ends at an exposed vertex, or at a matched one
    whose mate has dual 0 and may be left exposed. Lefts and rights share
    one range of ids, so the search runs the same from either side. Every
    overwritten ``mate`` entry is appended to ``changed``.
    """
    via = {}
    queue = [s]
    for x in queue:
        for k, z in tight[x]:
            if k <= i or not free[z] or z in via:
                continue
            via[z] = x
            m = mate[z]
            if m >= 0 and duals[m]:
                queue.append(m)
                continue
            if m >= 0:
                changed.append((m, z))
                mate[m] = -1
            while z >= 0:
                x = via[z]
                changed += ((z, mate[z]), (x, mate[x]))
                mate[z], mate[x], z = x, z, mate[x]
            return True
    return False
