"""Exact cardinality repair for tractable FD schemas.

:func:`find_crep` runs :func:`fdrepair.simplify.classify` once and
compiles its trace's mask plan into a *plan*: one step per applied
rewrite, each naming the columns of the original signature that the
rewrite removes, read straight off the plan's position masks.
The plan runs on the instance's rows in read order: the raw fact tuples,
distinct and in first-seen order, walked as they sit in memory, with no
fact frozenset built on the way in or out. Each step splits the facts
into blocks that agree on its columns, repairs every block with the
rest of the plan, and recombines: a plain union for S1, a best-block
choice for S2, and a maximum-weight bipartite matching over block repair
sizes for S3.

No fact is ever projected: inside a block all facts agree on the
columns removed so far, so the remaining steps can read the original
columns directly, and a block's repair is already a set of original
facts. A one-fact block conflicts with nothing, so it is its own repair
and the rest of the plan never runs on it; most blocks of a wide table
end there. A lone block is its own optimum under every recombination
rule, so facts that a step keeps in one block go on to the next step in
the same call, and only a step that splits its facts recurses. No FD is
left below the last step, so each of its blocks is its own repair too,
and only its size matters. The last step therefore collects no blocks:
it keys each fact once, counts the keys with one C-level count into a
plain dict, and recombines from the counts. An S2 block is counted by
its key, and an S3 block by an int code in place of its pair. The step
ranks the facts' ``nx`` distinct X1 values and ``ny`` distinct X2 values
once each, in canonical order, and the ranks *are* the matcher's vertex
ids: X1 value ``x`` is left ``rank(x)`` and X2 value ``y`` is right
``nx + rank(y)``. A fact's code is its left id times ``nx + ny`` plus
its right id. The ranks are dense, so the blocks share no endpoint
exactly when there are as many blocks as X1 values and as X2 values,
and int order is canonical ``(x, y)`` order, so the codes sort as plain
ints. The matcher gets each code split back into its two ids, int
endpoints that it takes as they are, and numbers nothing. A lone block,
or S3 blocks that share no endpoint, keep the input list as it stands;
otherwise the kept facts come out of one C-level filter over the same
list of keys.

Each step before the last keys a fact with one getter. An S1 or S2 step
that removes one column keys a block by the bare value, not a 1-tuple.
An S3 block, at every depth, is the edge ``(x, y)`` of its X1 and X2
values, each the bare value on one column and a tuple on several; the
key is one C ``itemgetter`` when both sides are one column. So a matched
edge is its own block key. When no two block keys share an X1 or an X2
value, every block is an edge of its own, and the matching takes them
all, since a non-empty block repairs to at least one fact; such a step
returns the union of its block repairs, as S1 does, with no sort, no
problem and no matcher call, so the matcher only gets graphs with two
edges that share an endpoint. A union of one-fact blocks is the step's
input list as it stands. Otherwise the S3 step sorts its block keys once
and splits them into ``(x, y)`` in C-level ``zip`` and ``map`` calls.
The matching runs in pure Python: one optimum with its LP duals, then
one lex greedy over the whole graph, with no solver and no split into
components (see :func:`max_weight_matching`).

Every tie is broken canonically (block-key order, or the
lexicographically smallest optimal edge set), so repeated runs return
the same repair.
"""

from __future__ import annotations

from collections import _count_elements
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import compress, count, repeat
from operator import add, floordiv, itemgetter, mod
from typing import Callable, Iterable, Optional, Sequence

from .fds import (
    Constant,
    Fact,
    FdSchema,
    Instance,
    SchemaError,
    _check_same_signature,
    _positions,
    canonical_sorted,
    constant_key,
)
from .simplify import SimplificationTrace, classify


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
    """A repair, its size, and the schema trace it followed.

    ``trace`` is the classify trace the repair followed; it is None from
    the oracle, which does not classify. The result is these three
    values and nothing else: it keeps no input facts and no per-block
    view, so it compares, hashes and pickles as its value.
    """

    repair: Instance
    size: int
    trace: Optional[SimplificationTrace]


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
        with no second sort or check. The last step's endpoints are not
        constants but int vertex ids, lefts ``0 .. nx - 1`` then rights
        ``nx + rank(y)``, in canonical order as ints: ``max_weight_matching``
        takes them as they are. Only this constructor can build such a
        problem, since the checked one's ``constant_key`` refuses ints.
        """
        problem = object.__new__(cls)
        object.__setattr__(problem, "edges", edges)
        return problem


# One compiled rewrite: its kind, the block key of a fact and, for S3,
# the getters of a fact's X1 and X2 values. An S1 or S2 key is the
# fact's value on the one removed column, or the tuple of its values on
# several. An S3 key is the pair ``(x, y)`` of the fact's X1 and X2
# values, each the bare value on one column and a tuple on several, so a
# matched edge is its own block key. Every getter but the pair of a
# multi-column S3 side is a C ``itemgetter``.
PlanStep = tuple[str, Callable, Optional[Callable], Optional[Callable]]

_x_of, _y_of = itemgetter(0), itemgetter(1)


def _pair_of(x_of: Callable, y_of: Callable) -> Callable:
    return lambda fact: (x_of(fact), y_of(fact))


def _compile(trace: SimplificationTrace) -> list[PlanStep]:
    """Turn the trace's mask plan into steps over columns of the original
    signature: its masks are over the input signature's positions."""
    plan: list[PlanStep] = []
    for kind, witness, removed in trace._plan:
        if kind == "S3":
            # the witness is the lhs marriage (X1, X2); they may overlap
            x1, x2 = map(_positions, witness)
            x_of, y_of = itemgetter(*x1), itemgetter(*x2)
            if len(x1) == len(x2) == 1:
                # the same pair, built in C
                key_of = itemgetter(*x1, *x2)
            else:
                key_of = _pair_of(x_of, y_of)
            plan.append(("S3", key_of, x_of, y_of))
        else:
            # on one column the key is the bare value, which groups faster
            # than a 1-tuple, and sorts (by constant_key) in the same order
            plan.append((kind, itemgetter(*_positions(removed)), None, None))
    return plan


def _shares_no_endpoint(keys: dict) -> bool:
    """Whether no two S3 block keys ``(x, y)`` share an X1 or an X2 value."""
    return len(set(map(_x_of, keys))) == len(keys) == len(set(map(_y_of, keys)))


def _kept(step: PlanStep, sizes: dict) -> set:
    """The keys of the blocks an S2 or S3 step keeps, given the repair
    size of each of its blocks."""
    if step[0] == "S2":
        # facts differing on an empty lhs's rhs conflict: one block survives
        best = max(sizes.values())
        largest = (key for key, size in sizes.items() if size == best)
        return {min(largest, key=constant_key)}
    # a repair joins each X1 value and each X2 value at most once; one
    # sort gives the edges (x, y) in canonical order
    keys = canonical_sorted(sizes)
    problem = BipartiteMatchProblem._of_sorted_edges(
        tuple(zip(map(_x_of, keys), map(_y_of, keys), map(sizes.__getitem__, keys)))
    )
    return set(max_weight_matching(problem))


def _solve(plan: list[PlanStep], facts: list[Fact], depth: int) -> list[Fact]:
    """Repair two or more ``facts`` under ``plan[depth:]``.

    Facts that a step keeps in one block go on to the next step in this
    call. A step that splits them recurses into its multi-fact blocks, at
    a later step and on fewer facts, so calls nest at most min(steps,
    facts - 1) deep.
    """
    last = len(plan) - 1
    while depth < last:
        kind, key_of, _, _ = step = plan[depth]
        depth += 1
        blocks: dict = {}
        for fact in facts:
            blocks.setdefault(key_of(fact), []).append(fact)
        if len(blocks) == 1:
            # a lone block is its own optimum under every recombination rule
            continue
        if kind == "S1" or (kind == "S3" and _shares_no_endpoint(blocks)):
            # the union of the block repairs: S1 blocks never conflict, and
            # the matching takes all S3 blocks when no two share an endpoint
            if len(blocks) == len(facts):
                return facts
            chosen = []
            for block in blocks.values():
                chosen += block if len(block) == 1 else _solve(plan, block, depth)
            return chosen
        # a one-fact block conflicts with nothing: it is its own repair
        repairs = {
            key: block if len(block) == 1 else _solve(plan, block, depth)
            for key, block in blocks.items()
        }
        chosen = []
        for key in _kept(step, {key: len(repair) for key, repair in repairs.items()}):
            chosen += repairs[key]
        return chosen
    return _last_step(plan[last], facts)


def _last_step(step: PlanStep, facts: list[Fact]) -> list[Fact]:
    """Repair two or more ``facts`` at the plan's last step.

    No FD is left below it, an S2 or S3 step (S1 never is: each FD keeps
    its rhs when a lhs column goes). Every block is its own repair, so
    its fact count is all the recombination reads. An S2 block is keyed
    by the step's key, and an S3 block by the int code of its endpoints'
    vertex ids, which are their ranks (see the module docstring).
    """
    kind, key_of, x_of, y_of = step
    if kind == "S3":
        # the ranks are the matcher's vertex ids: X1 value x is rank(x) and
        # X2 value y is nx + rank(y). A fact's code is its left id times
        # n = nx + ny plus its right id, so x_code maps each X1 value to
        # its id times n, and one add per fact gives the code
        xs, ys = list(map(x_of, facts)), list(map(y_of, facts))
        x_values, y_values = canonical_sorted(set(xs)), canonical_sorted(set(ys))
        nx, ny = len(x_values), len(y_values)
        n = nx + ny
        x_code = dict(zip(x_values, count(0, n)))
        y_code = dict(zip(y_values, count(nx)))
        keys = list(map(add, map(x_code.__getitem__, xs), map(y_code.__getitem__, ys)))
    else:
        keys = list(map(key_of, facts))
    sizes: dict = {}
    _count_elements(sizes, keys)
    if len(sizes) == 1 or (kind == "S3" and len(sizes) == nx == ny):
        # a lone block is its own optimum under every recombination rule,
        # and the matching takes all S3 blocks when no two share an
        # endpoint: the ranks are dense, so then each rank has one block
        return facts
    if kind == "S2":
        keep = _kept(step, sizes)
        return list(compress(facts, map(keep.__contains__, keys)))
    codes = sorted(sizes)
    problem = BipartiteMatchProblem._of_sorted_edges(
        tuple(
            zip(
                map(floordiv, codes, repeat(n)),
                map(mod, codes, repeat(n)),
                map(sizes.__getitem__, codes),
            )
        )
    )
    keep = {x * n + y for x, y in max_weight_matching(problem)}
    chosen = list(compress(facts, map(keep.__contains__, keys)))
    assert len(chosen) == sum(
        map(sizes.__getitem__, keep)
    ), "matching weight must equal repair size"
    return chosen


def find_crep(schema: FdSchema, instance: Instance) -> Optional[RepairResult]:
    """Compute a cardinality repair, or None when the schema is hard.

    Returns None exactly when :func:`fdrepair.simplify.classify` reports
    the schema intractable; otherwise the result is a consistent,
    maximum-size subinstance. The classifier runs once; its trace is
    compiled into a plan that repairs the facts block by block, once
    (see the module docstring).
    """
    _check_same_signature(schema, instance)
    trace = classify(schema)
    if not trace.tractable:
        return None
    chosen = rows = instance._rows
    if trace._plan and len(rows) > 1:
        chosen = _solve(_compile(trace), list(rows), 0)
    repaired = Instance._of_checked(schema.signature, chosen)
    return RepairResult(repaired, len(repaired), trace)


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
    succeed; otherwise ``mate`` is restored. The per-vertex tight-edge
    lists those searches walk are built on the first search, so a run
    that needs none builds none.

    Constant endpoints are numbered in one range of vertex ids, lefts
    first. Int endpoints, which only the last S3 step builds (see
    :meth:`BipartiteMatchProblem._of_sorted_edges`), already are those
    ids and are taken as they are.
    """
    edges = problem.edges
    if not edges:
        return ()
    if type(edges[0][0]) is int:
        # the last S3 step's ranks, already vertex ids: lefts 0 .. nx - 1,
        # then rights (the checked constructor refuses int endpoints)
        ends = edges
        n_left = edges[-1][0] + 1
        n = max(map(itemgetter(1), edges)) + 1
    else:
        xs, ys, weights = zip(*edges)
        # left and right vertices are numbered in one range, lefts first
        lefts = dict(zip(dict.fromkeys(xs), count()))
        rights = dict(zip(dict.fromkeys(ys), count(len(lefts))))
        ends = list(
            zip(map(lefts.__getitem__, xs), map(rights.__getitem__, ys), weights)
        )
        n_left, n = len(lefts), len(lefts) + len(rights)
    target, mate, duals = _optimum(ends, n_left, n)
    tight: Optional[list[list[tuple[int, int]]]] = None
    free = [True] * n
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
            if tight is None and any(duals[v] for v in lost):
                tight = _tight(ends, duals)
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


def _tight(
    ends: Sequence[tuple[int, int, int]], duals: list[int]
) -> list[list[tuple[int, int]]]:
    """Per vertex, ``(i, z)`` for each tight edge ``i`` that joins it to ``z``."""
    tight: list[list[tuple[int, int]]] = [[] for _ in duals]
    for i, (a, b, w) in enumerate(ends):
        if duals[a] + duals[b] == w:
            tight[a].append((i, b))
            tight[b].append((i, a))
    return tight


def _optimum(
    ends: Sequence[tuple[int, int, int]], n_left: int, n: int
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
