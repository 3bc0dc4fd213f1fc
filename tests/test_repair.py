import hashlib
import random
import time
from collections import Counter

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from conftest import inst_of, schema_of
from generators import (
    connected_match_problem,
    disjoint_match_problems,
    large_match_problem,
    one_to_one_rows,
    random_instance,
    random_match_problem,
    random_schema,
    random_tractable_schema,
    worked_example_rows,
)
from oracles import (
    brute_force_matching,
    collecting_last_step,
    max_repair_size_by_subsets,
)

import fdrepair.repair
from fdrepair.fds import (
    DOT,
    FdSchema,
    Instance,
    SchemaError,
    Signature,
    constant_key,
    is_consistent,
)
from fdrepair.gadgets import HARD_SCHEMAS
from fdrepair.oracle import brute_force_crep, is_s_repair
from fdrepair.repair import (
    BipartiteMatchProblem,
    _find_crep,
    find_crep,
    max_weight_matching,
)
from fdrepair.simplify import classify


# -- find_crep ---------------------------------------------------------------

def test_no_fds_returns_instance_whole():
    sig = Signature("R", ("A", "B"))
    schema = FdSchema(sig)
    inst = Instance(sig, [("1", "a"), ("2", "b")])
    result = find_crep(schema, inst)
    assert result.repair == inst and result.size == 2


def test_single_fd_repair():
    schema = schema_of("AB", "A->B")
    inst = inst_of(schema, "1a", "1b", "2c")
    result = find_crep(schema, inst)
    # independently derived: one fact per conflicting pair survives
    assert max_repair_size_by_subsets(schema, inst) == 2
    assert result.size == 2
    assert result.repair.sorted_facts == (("1", "a"), ("2", "c"))


def test_hard_schema_returns_none_for_any_instance():
    schema = HARD_SCHEMAS["2fd"]
    conflicted = inst_of(schema, "110", "111")
    assert find_crep(schema, conflicted) is None
    assert find_crep(schema, Instance(schema.signature, [])) is None


def test_signature_mismatch():
    schema = schema_of("AB", "A->B")
    with pytest.raises(SchemaError):
        find_crep(schema, Instance(Signature("R", ("A", "C")), []))


def test_empty_instance_tractable_schema():
    schema = schema_of("AB", "A->B")
    result = find_crep(schema, Instance(schema.signature, []))
    assert result.size == 0


# -- blocks of the first plan step --------------------------------------------
#
# ``block_sizes`` pairs each block of the first rewrite step with its repair
# size: an S1 repair is the union of the blocks, so their sizes add up; an S2
# repair is the best block alone; an S3 repair is a maximum-weight matching
# with the block sizes as edge weights.


def _matching_weight(result):
    """Weight of the brute-force matching over the top-level S3 blocks."""
    weights = dict(result.block_sizes)
    edges = [(x, y, w) for (x, y), w in weights.items()]
    return sum(weights[edge] for edge in brute_force_matching(edges))


def test_split_s1_grouping():
    schema = schema_of("AB", "A->B")
    inst = inst_of(schema, "1a", "1b", "2c")
    result = find_crep(schema, inst)
    assert result.trace.kinds[0] == "S1"
    assert result.block_sizes == ((("1",), 1), (("2",), 1))
    assert sum(dict(result.block_sizes).values()) == result.size


def test_split_s1_empty_and_single_block():
    schema = schema_of("AB", "A->B")
    empty = find_crep(schema, Instance(schema.signature, []))
    assert empty.block_sizes == () and empty.size == 0
    inst = inst_of(schema, "1a", "1b")
    result = find_crep(schema, inst)
    assert result.block_sizes == ((("1",), 1),)
    assert result.repair.facts <= inst.facts


def test_blocks_partition_instance():
    # the blocks are exactly the realized values of the first step's
    # columns, and recombine by the rule of its kind
    rng = random.Random(30)
    kinds = set()
    for _ in range(60):
        schema = random_tractable_schema(rng, max_attrs=4)
        inst = random_instance(rng, schema.signature, max_facts=8)
        result = find_crep(schema, inst)
        assert result.size == max_repair_size_by_subsets(schema, inst)
        if not result.trace.steps:
            assert result.block_sizes == () and result.repair == inst
            continue
        step = result.trace.steps[0]
        kinds.add(step.kind)
        if step.kind == "S3":
            # the witness is the lhs marriage (X1, X2) itself
            x1, x2 = step.witness
            assert x1 | x2 == step.removed_attributes and x1 != x2
            first, second = map(inst.signature.getter, (x1, x2))
            keys = {(first(f), second(f)) for f in inst.facts}
        else:
            key = inst.signature.getter(step.removed_attributes)
            keys = {key(f) for f in inst.facts}
        assert set(dict(result.block_sizes)) == keys
        assert len(result.block_sizes) == len(keys)
        sizes = dict(result.block_sizes).values()
        if step.kind == "S1":
            assert sum(sizes) == result.size
        elif step.kind == "S2":
            assert result.size == max(sizes, default=0)
        else:
            assert _matching_weight(result) == result.size
    assert kinds == {"S1", "S2", "S3"}


# -- the three recombination routes -------------------------------------------

def test_repair_s1_union_of_blocks():
    schema = schema_of("AB", "A->B")
    inst = inst_of(schema, "1a", "1b", "2c")
    result = find_crep(schema, inst)
    assert result.size == 2
    assert result.repair.sorted_facts == (("1", "a"), ("2", "c"))
    assert dict(result.block_sizes) == {("1",): 1, ("2",): 1}
    assert sum(dict(result.block_sizes).values()) == result.size


def test_repair_s1_consistent_instance_unchanged():
    schema = schema_of("AB", "A->B")
    inst = inst_of(schema, "1a", "2b", "3c")
    assert find_crep(schema, inst).repair == inst


def test_repair_s1_propagates_absent():
    # removing D exposes a hard three-column core
    schema = schema_of("DABC", "DAB->C", "DC->B")
    inst = inst_of(schema, "d010", "d011")
    assert find_crep(schema, inst) is None


def test_repair_s2_single_column():
    schema = schema_of("A", "->A")
    inst = inst_of(schema, "1", "1", "2")
    result = find_crep(schema, inst)
    assert max_repair_size_by_subsets(schema, inst) == 1
    assert result.size == 1
    assert result.repair.sorted_facts == (("1",),)
    assert dict(result.block_sizes) == {("1",): 1, ("2",): 1}
    assert result.size == max(dict(result.block_sizes).values())


def test_repair_s2_largest_block_wins():
    schema = schema_of("AB", "->A")
    inst = inst_of(schema, "1a", "1b", "2c")
    result = find_crep(schema, inst)
    assert result.size == 2
    assert result.repair.sorted_facts == (("1", "a"), ("1", "b"))
    assert dict(result.block_sizes) == {("1",): 2, ("2",): 1}
    assert result.size == max(dict(result.block_sizes).values())


def test_repair_s2_single_block_is_its_repair():
    schema = schema_of("AB", "->A")
    inst = inst_of(schema, "1a", "1b")
    result = find_crep(schema, inst)
    assert result.repair == inst
    assert dict(result.block_sizes) == {("1",): 2}


def test_build_match_problem_weights():
    schema = schema_of("ABC", "A->B", "B->A")
    inst = inst_of(schema, "1ax", "1ay", "1bz", "2bw")
    # blocks: (1,a) has two consistent facts after projection, others one
    result = find_crep(schema, inst)
    assert dict(result.block_sizes) == {
        (("1",), ("a",)): 2,
        (("1",), ("b",)): 1,
        (("2",), ("b",)): 1,
    }
    assert _matching_weight(result) == result.size == 3
    assert result.repair.sorted_facts == (
        ("1", "a", "x"),
        ("1", "a", "y"),
        ("2", "b", "w"),
    )


def test_build_match_problem_empty_instance():
    schema = schema_of("AB", "A->B", "B->A")
    result = find_crep(schema, Instance(schema.signature, []))
    assert result.trace.kinds == ("S3",)
    assert result.block_sizes == () and result.size == 0


def test_build_match_problem_propagates_absent():
    # after removing the mutual pair, a hard triangle core remains
    schema = schema_of(
        "ABCDE", "A->B", "B->A", "ACD->E", "ACE->D", "ADE->C"
    )
    inst = inst_of(schema, "1a012", "1a013")
    assert find_crep(schema, inst) is None


def test_repair_s3_path_plus_isolated_fact():
    schema = schema_of("AB", "A->B", "B->A")
    inst = inst_of(schema, "1a", "1b", "2b", "3c")
    # conflict graph is a path on the first three facts plus an isolated
    # one; independent enumeration gives 3, not 2
    assert max_repair_size_by_subsets(schema, inst) == 3
    result = find_crep(schema, inst)
    assert result.size == 3
    assert result.repair.sorted_facts == (
        ("1", "a"),
        ("2", "b"),
        ("3", "c"),
    )
    assert len(dict(result.block_sizes)) == 4
    assert _matching_weight(result) == result.size


def test_repair_s3_consistent_instance_kept_whole():
    schema = schema_of("AB", "A->B", "B->A")
    inst = inst_of(schema, "1a", "2b", "3c")
    result = find_crep(schema, inst)
    assert result.repair == inst
    assert _matching_weight(result) == result.size


def test_repair_s3_two_lefts_one_right():
    schema = schema_of("AB", "A->B", "B->A")
    inst = inst_of(schema, "1a", "2a")
    result = find_crep(schema, inst)
    assert result.size == 1
    assert result.repair.sorted_facts == (("1", "a"),)
    assert dict(result.block_sizes) == {(("1",), ("a",)): 1, (("2",), ("a",)): 1}
    assert _matching_weight(result) == result.size


def test_s3_flat_key_splits_into_x1_and_x2():
    # X1 = AB and X2 = CD: the one flat key (a, b, c, d) splits at 2. DOT
    # and tuple cells make the plain sort fail, so the keyed sort runs.
    # Two X1 values share their A value, so a split at 1 would join them
    # into one left node and lose the optimum
    t1, t2 = ("0",), ("0", "1")
    schema = schema_of("ABCDE", "AB->CD", "CD->AB")
    inst = inst_of(
        schema,
        (DOT, "0", DOT, DOT, "e0"),
        (DOT, "0", DOT, DOT, "e1"),
        (DOT, "0", "1", t1, "e0"),
        (DOT, t1, DOT, DOT, "e2"),
        (DOT, t1, t2, "1", "e0"),
        (DOT, t1, t2, "1", "e1"),
        (DOT, t1, t2, "1", "e2"),
        (t1, t2, "1", t1, "e0"),
        (t1, t2, "1", t1, "e3"),
        (t1, t2, DOT, DOT, "e1"),
        (t1, t2, t2, "1", "e4"),
    )
    result = find_crep(schema, inst)
    assert result.trace.kinds == ("S3",)
    # block sizes are sorted on first read, not by find_crep
    assert "block_sizes" not in vars(result)
    keys = [key for key, _ in result.block_sizes]
    assert all(len(x) == len(y) == 2 for x, y in keys)
    assert keys == sorted(keys, key=constant_key)
    assert {x + y for x, y in keys} == {f[:4] for f in inst.facts}
    assert [size for _, size in result.block_sizes] == [2, 1, 1, 3, 1, 2, 1]
    assert result.size == brute_force_crep(schema, inst).size == 7
    # pinned: the output of the nested-key engine
    assert result.repair.sorted_facts == (
        (DOT, "0", DOT, DOT, "e0"),
        (DOT, "0", DOT, DOT, "e1"),
        (DOT, t1, t2, "1", "e0"),
        (DOT, t1, t2, "1", "e1"),
        (DOT, t1, t2, "1", "e2"),
        (t1, t2, "1", t1, "e0"),
        (t1, t2, "1", t1, "e3"),
    )


def test_plan_is_compiled_once(worked_example, monkeypatch):
    # steps: S2 on A, S1 on D, S3 on B/C, S2 on E, S2 on F; three
    # blocks at every level
    calls = []
    original = fdrepair.repair.classify

    def counting(schema):
        calls.append(schema)
        return original(schema)

    monkeypatch.setattr(fdrepair.repair, "classify", counting)
    pairs = [("b0", "c0"), ("b0", "c1"), ("b1", "c1")]
    facts = [
        (a, b, c, d, e, f)
        for a in "012"
        for b, c in pairs
        for d in "012"
        for e in "012"
        for f in "012"
    ]
    inst = Instance(worked_example.signature, facts)
    result = find_crep(worked_example, inst)
    assert len(calls) == 1
    assert result.trace.kinds == ("S2", "S1", "S3", "S2", "S2")
    # per A block: three D blocks, each a two-edge matching of one fact
    assert dict(result.block_sizes) == {("0",): 6, ("1",): 6, ("2",): 6}
    assert result.size == 6
    assert is_s_repair(worked_example, inst, result.repair)


def test_no_solve_call_below_the_last_step(monkeypatch):
    # no FD is left below the plan's last step, so its blocks are their
    # own repairs: _solve runs at depth 0 and then only on multi-fact
    # blocks of the steps before the last
    depths = []
    solve = fdrepair.repair._solve

    def recording(plan, facts, depth):
        depths.append(depth)
        return solve(plan, facts, depth)

    monkeypatch.setattr(fdrepair.repair, "_solve", recording)
    # A -> B: S1 on A, then S2 on B. The A blocks 1 and 3 hold B blocks of
    # two and three facts, which used to get a call each; A block 2 is one
    # fact and gets none
    schema = schema_of("ABC", "A->B")
    inst = inst_of(schema, "1x1", "1x2", "1y1", "2x1", "3z1", "3z2", "3z3")
    result = find_crep(schema, inst)
    assert depths == [0, 1, 1]
    assert result.repair == inst_of(schema, "1x1", "1x2", "2x1", "3z1", "3z2", "3z3")
    rng = random.Random(41)
    recursed = 0
    for _ in range(80):
        schema = random_tractable_schema(rng)
        inst = random_instance(rng, schema.signature, max_facts=10)
        depths.clear()
        result = find_crep(schema, inst)
        steps = len(result.trace.steps)
        assert depths[0] == 0 and all(0 < d < steps for d in depths[1:])
        assert result.size == brute_force_crep(schema, inst).size
        recursed += len(depths) > 1
    assert recursed > 10


def test_block_sizes_keys_stay_tuples_for_one_column_steps(worked_example):
    # a step that removes one column groups by the bare value; the keys
    # block_sizes reports are still 1-tuples, DOT and tuple values too
    t = ("x", DOT)
    schema = schema_of("AB", "A->B")
    inst = inst_of(schema, (DOT, "a"), (DOT, "b"), ("1", "a"), (t, "a"), (t, "c"))
    result = find_crep(schema, inst)
    assert result.trace.kinds == ("S1", "S2")
    assert result.block_sizes == (((DOT,), 1), (("1",), 1), ((t,), 1))
    rows = [("0", "b0", "c0", "d0", "e0", "f0"), ("1", "b0", "c0", "d1", "e0", "f0"),
            ("1", "b1", "c1", "d0", "e0", "f0"), (t, "b0", "c0", "d0", "e0", "f0")]
    result = find_crep(worked_example, Instance(worked_example.signature, rows))
    assert result.trace.kinds[0] == "S2"
    assert result.block_sizes == ((("0",), 1), (("1",), 2), ((t,), 1))
    assert result.repair.sorted_facts == tuple(sorted(rows[1:3]))


def test_s2_tie_among_dot_str_and_tuple_blocks_is_pinned():
    # S2 keeps the first of the largest blocks in constant_key order, DOT
    # before str before tuple; a bare value orders as its 1-tuple did
    schema = schema_of("AB", "->A")
    t, u = ("a",), ("a", "b")
    blocks = {
        DOT: ["1", "2"],
        "a": ["1", "2"],
        "b": ["1", "2", "3"],
        t: ["1", "2", "3"],
        u: ["1", "2", "3"],
    }

    def repair_of(*values):
        rows = [(v, b) for v in values for b in blocks[v]]
        return find_crep(schema, inst_of(schema, *rows)).repair.sorted_facts

    assert repair_of(DOT, "a") == ((DOT, "1"), (DOT, "2"))
    assert repair_of("a", DOT, t) == ((t, "1"), (t, "2"), (t, "3"))
    assert repair_of(u, t, "b") == (("b", "1"), ("b", "2"), ("b", "3"))
    assert repair_of(u, t) == ((t, "1"), (t, "2"), (t, "3"))


def test_s1_below_the_top_returns_the_union(monkeypatch):
    # below the first step an S1 repair is the union of its blocks'
    # repairs; when each block is one fact that union is the input list
    # itself. No plan ends in S1: an FD keeps its rhs when S1 removes a
    # column of its lhs
    calls = []
    solve = fdrepair.repair._solve

    def recording(plan, facts, depth):
        chosen, sizes = solve(plan, facts, depth)
        if depth and plan[depth][0] == "S1":
            singles = len(set(map(plan[depth][1], facts))) == len(facts)
            calls.append((singles, chosen is facts, sizes))
        return chosen, sizes

    monkeypatch.setattr(fdrepair.repair, "_solve", recording)
    rng = random.Random(43)
    for _ in range(150):
        schema = random_tractable_schema(rng)
        inst = random_instance(rng, schema.signature, max_facts=10)
        result = find_crep(schema, inst)
        assert result.trace.kinds[-1:] != ("S1",)
        assert result.size == brute_force_crep(schema, inst).size
        assert is_s_repair(schema, inst, result.repair)
    assert all(singles == same and sizes == {} for singles, same, sizes in calls)
    assert sum(singles for singles, _, _ in calls) > 10
    assert sum(not singles for singles, _, _ in calls) > 10


def test_many_small_s3_components_repair_fast():
    # about 12k facts in 2000 clusters of two key pairs; one global greedy
    # with a re-solve per edge took minutes here
    schema = schema_of("ABC", "A->B", "B->A")
    facts = set(one_to_one_rows(random.Random(6), keys=4000, cluster=2))
    started = time.perf_counter()
    result = find_crep(schema, Instance(schema.signature, facts))
    elapsed = time.perf_counter() - started
    # reference: one assignment solve per cluster on the fact counts
    weight = np.zeros((2000, 2, 2), dtype=np.int64)
    for a, b, _ in facts:
        i, j = int(a[1:]), int(b[1:])
        weight[i // 2, i % 2, j % 2] += 1
    expected = sum(
        int(block[linear_sum_assignment(block, maximize=True)].sum())
        for block in weight
    )
    assert len(facts) > 12000
    assert result.size == expected
    assert is_consistent(schema, result.repair)
    assert elapsed < 10.0, f"{elapsed:.1f}s"


# -- matching ----------------------------------------------------------------

def test_matching_single_edge():
    problem = BipartiteMatchProblem([("x", "y", 5)])
    assert max_weight_matching(problem) == (("x", "y"),)


def test_matching_crossing_weights():
    problem = BipartiteMatchProblem(
        [("x1", "y1", 3), ("x1", "y2", 1), ("x2", "y1", 1), ("x2", "y2", 3)]
    )
    matching = max_weight_matching(problem)
    assert matching == (("x1", "y1"), ("x2", "y2"))


def test_matching_path_weights():
    problem = BipartiteMatchProblem(
        [("x1", "y1", 4), ("x2", "y1", 3), ("x2", "y2", 2)]
    )
    assert max_weight_matching(problem) == (("x1", "y1"), ("x2", "y2"))


def test_matching_prefers_leaving_zero_weight_edges_out():
    problem = BipartiteMatchProblem([("x", "y", 0)])
    assert max_weight_matching(problem) == ()
    assert brute_force_matching(problem) == ()


def test_zero_weight_edges_before_the_last_needed_edge_are_kept():
    # the lex-first optimal list: a prefix beats its extensions, and a
    # smaller first edge beats a larger one
    before = BipartiteMatchProblem([("a", "b", 0), ("c", "d", 5)])
    after = BipartiteMatchProblem([("a", "b", 5), ("c", "d", 0)])
    for matcher in (max_weight_matching, brute_force_matching):
        assert matcher(before) == (("a", "b"), ("c", "d"))
        assert matcher(after) == (("a", "b"),)


def test_matching_of_disjoint_edges_agrees_with_enumeration():
    # no two edges share an endpoint: the lex-first optimum is the edges
    # up to the last positive one
    rng = random.Random(7)
    zero_tails = 0
    for _ in range(2500):
        count = rng.randint(0, 8)
        ends = zip(rng.sample(range(20), count), rng.sample(range(20), count))
        edges = [(f"x{x}", f"y{y}", rng.randint(0, 5)) for x, y in ends]
        problem = BipartiteMatchProblem(edges)
        matching = max_weight_matching(problem)
        assert matching == brute_force_matching(problem)
        zero_tails += len(matching) < count
    assert zero_tails > 300


def _nodes(problem):
    """The left and the right endpoints of the edges, canonically sorted."""
    return tuple(
        sorted({edge[side] for edge in problem.edges}, key=constant_key)
        for side in (0, 1)
    )


def _certify(problem, best):
    """Assert that the duals of ``_optimum`` certify the optimum ``best``.

    ``u, v >= 0``, ``u + v >= w`` on every edge with equality on the
    matched edges, and ``Σu + Σv`` equal to ``best``.
    """
    left, right = _nodes(problem)
    lefts = {x: k for k, x in enumerate(left)}
    rights = {y: k for k, y in enumerate(right, len(lefts))}
    ends = [(lefts[x], rights[y], w) for x, y, w in problem.edges]
    target, mate, duals = fdrepair.repair._optimum(
        ends, len(lefts), len(lefts) + len(rights)
    )
    assert target == best == sum(duals)
    assert min(duals, default=0) >= 0
    for a, b, w in ends:
        assert duals[a] + duals[b] >= w
        if mate[a] == b:
            assert duals[a] + duals[b] == w
    assert sum(w for a, b, w in ends if mate[a] == b) == best


def test_component_split_agrees_with_enumeration():
    # disjoint unions of small graphs, whose components' edges interleave
    # in canonical order; one global greedy must stop where the last
    # component reaches its optimum
    rng = random.Random(2026)
    for max_weight in (9, 1):
        for _ in range(1000):
            problem = disjoint_match_problems(rng, max_weight)
            expected = brute_force_matching(problem)
            assert max_weight_matching(problem) == expected
            weights = {(x, y): w for x, y, w in problem.edges}
            _certify(problem, sum(weights[e] for e in expected))


def test_connected_problems_agree_with_enumeration():
    # one connected component of 9 to 12 edges per problem
    rng = random.Random(909)
    for edge_count in range(9, 13):
        for max_weight in (0, 1, 3):
            for _ in range(12):
                problem = connected_match_problem(rng, edge_count, max_weight)
                assert max_weight_matching(problem) == brute_force_matching(
                    problem
                ), problem.edges


def test_matching_needs_no_solver():
    # many small components, then one dense one, with no assignment solver
    # (test_cli.py runs the CLI where scipy cannot be imported)
    schema = schema_of("ABC", "A->B", "B->A")
    facts = set(one_to_one_rows(random.Random(8), keys=400, cluster=2))
    result = find_crep(schema, Instance(schema.signature, facts))
    # clusters of two keys: at most four edges per component
    assert result.size < len(facts)
    assert is_consistent(schema, result.repair)
    # one dense 10x10 component; cells with i + j odd hold two facts
    dense = [
        (f"a{i}", f"b{j}", c)
        for i in range(10)
        for j in range(10)
        for c in "xy"[: 1 + (i + j) % 2]
    ]
    result = find_crep(schema, Instance(schema.signature, dense))
    assert result.size == 20


def test_matching_agrees_with_enumeration():
    rng = random.Random(6)
    for _ in range(40):
        problem = random_match_problem(rng, max_side=5, max_edges=10)
        assert max_weight_matching(problem) == brute_force_matching(problem)


def _large_problems():
    rng = random.Random(1010)
    return [large_match_problem(rng, max_side=60) for _ in range(200)]


def test_matching_past_the_enumeration_cap():
    # graphs up to 60x60, far past what brute_force_matching enumerates:
    # the output is a matching, its weight is the assignment solver's
    # optimum, and the duals certify it
    for problem in _large_problems():
        matching = max_weight_matching(problem)
        assert len({x for x, _ in matching}) == len(matching)
        assert len({y for _, y in matching}) == len(matching)
        weights = {(x, y): w for x, y, w in problem.edges}
        left, right = _nodes(problem)
        index = {x: k for k, x in enumerate(left)}
        index_right = {y: k for k, y in enumerate(right)}
        matrix = np.zeros((len(index), len(index_right)), dtype=np.int64)
        for x, y, w in problem.edges:
            matrix[index[x], index_right[y]] = w
        best = int(matrix[linear_sum_assignment(matrix, maximize=True)].sum())
        assert sum(weights[e] for e in matching) == best
        _certify(problem, best)


def test_matching_tie_break_is_pinned():
    # sha256 of the outputs on the same graphs, recorded with the
    # per-component matcher this one replaced
    digest = hashlib.sha256()
    for problem in _large_problems():
        digest.update(repr(max_weight_matching(problem)).encode())
    assert digest.hexdigest() == (
        "baa82f2ec684a39a6ea20d842093e0a89ffc6c1f200ec1dba0ba4fe06f186cda"
    )


def test_match_problem_validation():
    with pytest.raises(SchemaError):
        BipartiteMatchProblem([("x", "y", -1)])
    for weight in (1.0, "1", None):
        with pytest.raises(SchemaError):
            BipartiteMatchProblem([("x", "y", weight)])
    with pytest.raises(SchemaError):
        BipartiteMatchProblem([("x", "y", 1), ("x", "y", 2)])


def test_s3_step_builds_the_checked_problem(worked_example, monkeypatch):
    # the S3 step builds its problems without the public constructor's
    # sort and checks; each must equal the checked problem on its edges
    seen = []
    original = fdrepair.repair.max_weight_matching

    def recording(problem):
        seen.append(problem)
        return original(problem)

    monkeypatch.setattr(fdrepair.repair, "max_weight_matching", recording)
    rng = random.Random(31)
    a_b_b_a = schema_of("ABC", "A->B", "B->A")
    # DOT and tuple cells make the plain sort fail, so the keyed sort runs
    cells = (DOT, "0", "1", ("0",), ("0", "1"))
    cases = [
        (worked_example, worked_example_rows(rng, 300)),
        (a_b_b_a, one_to_one_rows(rng, keys=400, cluster=3)),
        (a_b_b_a, one_to_one_rows(rng, keys=60, cluster=60)),
        (
            a_b_b_a,
            [
                (f"a{i}", f"b{j}", c)
                for i in range(15)
                for j in range(15)
                for c in "xyz"[: 1 + (i * j) % 3]
            ],
        ),
        (a_b_b_a, [tuple(rng.choice(cells) for _ in "ABC") for _ in range(80)]),
        # S1 on C, then S3 as the last step: per C value three rows over
        # four A and four B values, whose blocks share an endpoint or not
        (
            schema_of("ABC", "CA->B", "CB->A"),
            [
                (f"a{rng.randrange(4)}", f"b{rng.randrange(4)}", f"c{c}")
                for c in range(200)
                for _ in range(3)
            ],
        ),
        # four rows per D value over three B and three C values: the S3
        # blocks of most D values share an endpoint, so the matching runs
        (
            worked_example,
            [
                ("a0", f"b{rng.randrange(3)}", f"c{rng.randrange(3)}", f"d{d}", "e", "f")
                for d in range(100)
                for _ in range(4)
            ],
        ),
    ]
    for schema, rows in cases:
        before = len(seen)
        find_crep(schema, Instance(schema.signature, rows))
        assert len(seen) > before
    assert sum(len(problem.edges) > 1 for problem in seen) > 100
    for problem in seen:
        assert problem == BipartiteMatchProblem(problem.edges)
        # blocks that share no endpoint are a union, never a matching
        xs, ys, _ = zip(*problem.edges)
        assert len(set(xs)) < len(xs) or len(set(ys)) < len(ys), problem


def test_s3_union_equals_the_matching(worked_example):
    # an S3 level whose blocks share no X1 and no X2 value is recombined
    # as a union; forced through max_weight_matching instead, it must give
    # the same repair, size and block_sizes
    gate = fdrepair.repair._shares_no_endpoint
    levels = Counter()

    def counted(*args):
        shares_none = gate(*args)
        levels[shares_none] += 1
        return shares_none

    rng = random.Random(47)
    schemas = [worked_example, schema_of("ABC", "A->B", "B->A"),
               schema_of("ABCD", "A->B", "B->A", "AC->D")]
    while len(schemas) < 12:
        schema = random_tractable_schema(rng)
        if "S3" in classify(schema).kinds:
            schemas.append(schema)
    traces = [classify(schema) for schema in schemas]
    cells = ("0", "1", "2", DOT, ("0",), ("0", DOT))
    for n in range(5000):
        schema, trace = schemas[n % len(schemas)], traces[n % len(schemas)]
        inst = random_instance(rng, schema.signature, max_facts=12, pool=cells)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(fdrepair.repair, "_shares_no_endpoint", counted)
            union = _find_crep(schema, trace, inst)
            patch.setattr(fdrepair.repair, "_shares_no_endpoint", lambda *args: False)
            matched = _find_crep(schema, trace, inst)
        assert union.repair == matched.repair
        assert union.size == matched.size
        assert union.block_sizes == matched.block_sizes
    assert levels[True] > 1000 and levels[False] > 1000


def test_last_step_counts_agree_with_collected_blocks(worked_example, monkeypatch):
    # the last step recombines from fact counts and keeps facts by their
    # block keys; forced through one list per block instead, every
    # repair, size, block_sizes and trace must be the same. DOT, str and
    # tuple cells tie S2 blocks across types, where a filter on the
    # chosen key's own __eq__ would keep every fact of another type
    shipped, matcher = fdrepair.repair._solve, fdrepair.repair.max_weight_matching
    forced = Counter()
    steps = ()

    def matching(problem):
        forced["matchings"] += 1
        return matcher(problem)

    def collecting(plan, facts, depth):
        if facts and depth + 1 == len(plan):
            step = steps[depth]
            bare = step.kind == "S3" and all(len(lhs) == 1 for lhs in step.witness)
            forced[step.kind, bare, depth > 0] += 1
            return collecting_last_step(plan, facts, depth)
        return shipped(plan, facts, depth)

    monkeypatch.setattr(fdrepair.repair, "max_weight_matching", matching)
    rng = random.Random(53)
    schemas = [
        worked_example,
        schema_of("AB", "->A"),
        schema_of("ABC", "->AB"),
        schema_of("ABC", "A->B"),
        schema_of("ABC", "A->B", "B->A"),
        schema_of("ABCD", "A->B", "B->A"),
        schema_of("ABC", "AB->C", "AC->B"),
        schema_of("ABCD", "->A", "B->C", "C->B"),
        schema_of("ABCD", "A->BC", "BC->A"),
        schema_of("ABCD", "AB->C", "C->AB"),
        schema_of("ABCDE", "AB->CD", "CD->AB"),
        schema_of("ABCD", "ABC->D", "AD->BC"),
        schema_of("ABCDE", "->A", "BC->DE", "DE->BC"),
    ]
    while len(schemas) < 24:
        schema = random_tractable_schema(rng)
        if classify(schema).steps:
            schemas.append(schema)
    traces = [classify(schema) for schema in schemas]
    cells = ("0", "1", "2", DOT, ("0",), ("0", DOT))
    for n in range(6000):
        schema, trace = schemas[n % len(schemas)], traces[n % len(schemas)]
        inst = random_instance(rng, schema.signature, max_facts=14, pool=cells)
        counted = _find_crep(schema, trace, inst)
        steps = trace.steps
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(fdrepair.repair, "_solve", collecting)
            collected = _find_crep(schema, trace, inst)
        assert counted.repair == collected.repair
        assert counted.size == collected.size
        assert counted.block_sizes == collected.block_sizes
        assert counted.trace == collected.trace
    # S2 and S3 last steps, at the top and below it; S3 with one-column
    # (bare) endpoints and with multi-column ones
    assert all(
        forced[kind, bare, below] > 300
        for kind, bare in (("S2", False), ("S3", True), ("S3", False))
        for below in (False, True)
    )
    assert forced["matchings"] > 1000


# -- cross-cutting invariants --------------------------------------------------

def test_repair_is_consistent_maximal_subinstance():
    rng = random.Random(14)
    for _ in range(60):
        schema = random_tractable_schema(rng)
        inst = random_instance(rng, schema.signature, max_facts=10)
        result = find_crep(schema, inst)
        assert result.repair.facts <= inst.facts
        assert is_consistent(schema, result.repair)
        assert is_s_repair(schema, inst, result.repair)


def test_absent_iff_intractable():
    rng = random.Random(15)
    for _ in range(40):
        schema = random_schema(rng, max_attrs=4)
        inst = random_instance(rng, schema.signature, max_facts=6)
        absent = find_crep(schema, inst) is None
        assert absent == (not classify(schema).tractable)


def test_repair_deterministic_across_fact_order():
    rng = random.Random(16)
    for _ in range(20):
        schema = random_tractable_schema(rng)
        facts = list(random_instance(rng, schema.signature, max_facts=9).facts)
        baseline = find_crep(schema, Instance(schema.signature, facts))
        rng.shuffle(facts)
        again = find_crep(schema, Instance(schema.signature, facts))
        assert baseline.repair == again.repair
