import hashlib
import pickle
import random
import re
import time
from collections import Counter

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from conftest import inst_of, schema_of
from generators import (
    connected_match_problem,
    dense_rows,
    disjoint_match_problems,
    large_match_problem,
    long_plan_relations,
    one_to_one_rows,
    random_instance,
    random_match_problem,
    random_schema,
    random_tractable_schema,
    worked_example_rows,
)
from oracles import (
    block_key_of,
    brute_force_matching,
    collecting_last_step,
    first_step_block_sizes,
    first_step_blocks,
    max_repair_size_by_subsets,
    tuple_key_last_step,
)

import fdrepair.repair
from fdrepair.fds import (
    DOT,
    Fd,
    FdSchema,
    Instance,
    SchemaError,
    Signature,
    _getter_at,
    canonical_sorted,
    constant_key,
    is_consistent,
)
from fdrepair.gadgets import HARD_SCHEMAS
from fdrepair.oracle import brute_force_crep, is_s_repair
from fdrepair.repair import (
    BipartiteMatchProblem,
    RepairResult,
    _find_crep,
    find_crep,
    max_weight_matching,
)
from fdrepair.simplify import SimplificationTrace, classify
from fdrepair.textio import parse_schema


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
    # the error names both relations, as the other checks' errors do, on
    # a tractable schema and on a hard one
    for fds in (["A->B"], ["A->B", "B->A", "A->A"], ["AB->C", "C->B"]):
        schema = schema_of("ABC", *fds)
        other = Instance(Signature("S", ("A", "B", "C")), [("a", "b", "c")])
        message = "instance over S('A', 'B', 'C') does not match schema R('A', 'B', 'C')"
        with pytest.raises(SchemaError, match=re.escape(message)):
            find_crep(schema, other)


def test_empty_instance_tractable_schema():
    schema = schema_of("AB", "A->B")
    result = find_crep(schema, Instance(schema.signature, []))
    assert result.size == 0


# -- blocks of the first plan step --------------------------------------------
#
# The blocks of the first rewrite step, each sized by subset enumeration
# (``tests/oracles.py::first_step_block_sizes``), recombine to the repair
# size: an S1 repair is the union of the blocks, so their sizes add up; an
# S2 repair is the best block alone; an S3 repair is a maximum-weight
# matching with the block sizes as edge weights.


def _matching_weight(sizes):
    """Weight of the brute-force matching over S3 blocks ``(x, y) -> size``."""
    edges = [(x, y, w) for (x, y), w in sizes.items()]
    return sum(sizes[edge] for edge in brute_force_matching(edges))


def _recombined(result, inst):
    """The reference sizes of ``result``'s first-step blocks, after checking
    that they recombine to ``result.size`` by the rule of the step's kind."""
    sizes = first_step_block_sizes(result.trace, inst)
    kinds = result.trace.kinds
    if not kinds:
        assert sizes == {}
    elif kinds[0] == "S1":
        assert sum(sizes.values()) == result.size
    elif kinds[0] == "S2":
        assert max(sizes.values(), default=0) == result.size
    else:
        assert _matching_weight(sizes) == result.size
    return sizes


def test_split_s1_grouping():
    schema = schema_of("AB", "A->B")
    inst = inst_of(schema, "1a", "1b", "2c")
    result = find_crep(schema, inst)
    assert result.trace.kinds[0] == "S1"
    assert _recombined(result, inst) == {("1",): 1, ("2",): 1}
    # DOT, str and tuple blocks of a one-column step
    t = ("x", DOT)
    inst = inst_of(schema, (DOT, "a"), (DOT, "b"), ("1", "a"), (t, "a"), (t, "c"))
    result = find_crep(schema, inst)
    assert result.trace.kinds == ("S1", "S2")
    assert _recombined(result, inst) == {(DOT,): 1, ("1",): 1, (t,): 1}
    assert result.size == 3


def test_split_s1_empty_and_single_block():
    schema = schema_of("AB", "A->B")
    empty_inst = Instance(schema.signature, [])
    empty = find_crep(schema, empty_inst)
    assert _recombined(empty, empty_inst) == {} and empty.size == 0
    inst = inst_of(schema, "1a", "1b")
    result = find_crep(schema, inst)
    assert _recombined(result, inst) == {("1",): 1}
    assert result.repair.facts <= inst.facts


def _getter(signature, attrs):
    """A fact's values on ``attrs``, in signature order."""
    return _getter_at([i for i, a in enumerate(signature.attributes) if a in attrs])


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
        sizes = _recombined(result, inst)
        if not result.trace.steps:
            assert sizes == {} and result.repair == inst
            continue
        step = result.trace.steps[0]
        kinds.add(step.kind)
        if step.kind == "S3":
            # the witness is the lhs marriage (X1, X2) itself
            x1, x2 = step.witness
            assert x1 | x2 == step.removed_attributes and x1 != x2
            first, second = (_getter(inst.signature, lhs) for lhs in (x1, x2))
            keys = {(first(f), second(f)) for f in inst.facts}
        else:
            key = _getter(inst.signature, step.removed_attributes)
            keys = {key(f) for f in inst.facts}
        assert set(sizes) == keys
    assert kinds == {"S1", "S2", "S3"}


# -- the three recombination routes -------------------------------------------

def test_repair_s1_union_of_blocks():
    schema = schema_of("AB", "A->B")
    inst = inst_of(schema, "1a", "1b", "2c")
    result = find_crep(schema, inst)
    assert result.size == 2
    assert result.repair.sorted_facts == (("1", "a"), ("2", "c"))
    assert _recombined(result, inst) == {("1",): 1, ("2",): 1}


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
    assert _recombined(result, inst) == {("1",): 1, ("2",): 1}


def test_repair_s2_largest_block_wins(worked_example):
    schema = schema_of("AB", "->A")
    inst = inst_of(schema, "1a", "1b", "2c")
    result = find_crep(schema, inst)
    assert result.size == 2
    assert result.repair.sorted_facts == (("1", "a"), ("1", "b"))
    assert _recombined(result, inst) == {("1",): 2, ("2",): 1}
    # the worked example's first step, S2 on A, over str blocks and a
    # tuple block holding DOT
    t = ("x", DOT)
    rows = [("0", "b0", "c0", "d0", "e0", "f0"), ("1", "b0", "c0", "d1", "e0", "f0"),
            ("1", "b1", "c1", "d0", "e0", "f0"), (t, "b0", "c0", "d0", "e0", "f0")]
    inst = Instance(worked_example.signature, rows)
    result = find_crep(worked_example, inst)
    assert result.trace.kinds[0] == "S2"
    assert _recombined(result, inst) == {("0",): 1, ("1",): 2, (t,): 1}
    assert result.repair.sorted_facts == tuple(sorted(rows[1:3]))


def test_repair_s2_single_block_is_its_repair():
    schema = schema_of("AB", "->A")
    inst = inst_of(schema, "1a", "1b")
    result = find_crep(schema, inst)
    assert result.repair == inst
    assert _recombined(result, inst) == {("1",): 2}


def test_build_match_problem_weights():
    schema = schema_of("ABC", "A->B", "B->A")
    inst = inst_of(schema, "1ax", "1ay", "1bz", "2bw")
    # blocks: (1,a) has two consistent facts after projection, others one
    result = find_crep(schema, inst)
    assert _recombined(result, inst) == {
        (("1",), ("a",)): 2,
        (("1",), ("b",)): 1,
        (("2",), ("b",)): 1,
    }
    assert result.size == 3
    assert result.repair.sorted_facts == (
        ("1", "a", "x"),
        ("1", "a", "y"),
        ("2", "b", "w"),
    )


def test_build_match_problem_empty_instance():
    schema = schema_of("AB", "A->B", "B->A")
    inst = Instance(schema.signature, [])
    result = find_crep(schema, inst)
    assert result.trace.kinds == ("S3",)
    assert _recombined(result, inst) == {} and result.size == 0


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
    assert len(_recombined(result, inst)) == 4


def test_repair_s3_consistent_instance_kept_whole():
    schema = schema_of("AB", "A->B", "B->A")
    inst = inst_of(schema, "1a", "2b", "3c")
    result = find_crep(schema, inst)
    assert result.repair == inst
    _recombined(result, inst)


def test_repair_s3_two_lefts_one_right():
    schema = schema_of("AB", "A->B", "B->A")
    inst = inst_of(schema, "1a", "2a")
    result = find_crep(schema, inst)
    assert result.size == 1
    assert result.repair.sorted_facts == (("1", "a"),)
    assert _recombined(result, inst) == {(("1",), ("a",)): 1, (("2",), ("a",)): 1}


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
    sizes = _recombined(result, inst)
    keys = canonical_sorted(sizes)
    assert all(len(x) == len(y) == 2 for x, y in keys)
    assert {x + y for x, y in keys} == {f[:4] for f in inst.facts}
    assert [sizes[key] for key in keys] == [2, 1, 1, 3, 1, 2, 1]
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
    # per A block: three D blocks, each a two-edge matching of one fact;
    # 81 facts a block are past subset enumeration, so each block is
    # repaired on its own
    blocks = first_step_blocks(result.trace, inst)
    sizes = {key: find_crep(worked_example, block).size for key, block in blocks.items()}
    assert sizes == {("0",): 6, ("1",): 6, ("2",): 6}
    assert result.size == max(sizes.values()) == 6
    assert is_s_repair(worked_example, inst, result.repair)


def test_no_solve_call_below_the_last_step(monkeypatch):
    # no FD is left below the plan's last step, so its blocks are their
    # own repairs: _solve runs at depth 0 and then only on multi-fact
    # blocks of the steps before the last, and _last_step runs the last
    # step's counts. Neither runs on fewer than two facts, and _solve
    # does not run for a plan with no step
    depths, lasts = [], []
    solve, last_step = fdrepair.repair._solve, fdrepair.repair._last_step

    def recording(plan, facts, depth):
        assert len(facts) > 1 and depth < len(plan)
        depths.append(depth)
        return solve(plan, facts, depth)

    def recording_last(step, facts):
        assert len(facts) > 1 and step[0] != "S1"
        lasts.append(step[0])
        return last_step(step, facts)

    monkeypatch.setattr(fdrepair.repair, "_solve", recording)
    monkeypatch.setattr(fdrepair.repair, "_last_step", recording_last)
    # A -> B: S1 on A, then S2 on B. The A blocks 1 and 3 hold B blocks of
    # two and three facts, which used to get a call each; A block 2 is one
    # fact and gets none
    schema = schema_of("ABC", "A->B")
    inst = inst_of(schema, "1x1", "1x2", "1y1", "2x1", "3z1", "3z2", "3z3")
    result = find_crep(schema, inst)
    assert depths == [0, 1, 1] and lasts == ["S2", "S2"]
    assert result.repair == inst_of(schema, "1x1", "1x2", "2x1", "3z1", "3z2", "3z3")
    rng = random.Random(41)
    recursed = 0
    for _ in range(80):
        schema = random_tractable_schema(rng)
        inst = random_instance(rng, schema.signature, max_facts=10)
        depths.clear()
        lasts.clear()
        result = find_crep(schema, inst)
        steps = len(result.trace.steps)
        assert depths[:1] == ([0] if steps and len(inst) > 1 else [])
        assert all(0 < d < steps for d in depths[1:])
        # the last step runs once per call at most, and only from a call
        assert len(lasts) <= len(depths)
        assert result.size == brute_force_crep(schema, inst).size
        recursed += len(depths) > 1
    assert recursed > 10


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


def test_s1_below_the_top_returns_the_union(worked_example, monkeypatch):
    # at every depth, an S1 repair, and an S3 repair whose blocks share no
    # X1 and no X2 value, is the union of its blocks' repairs, and it is
    # the input list itself when each block is one fact. A call goes on
    # past the steps that keep its facts in one block, so the step that
    # recombines is the first that splits them. No plan ends in S1: an FD
    # keeps its rhs when S1 removes a column of its lhs. A last S3 step
    # keys no block itself (its blocks are the facts' (x, y) pairs), and
    # each of its blocks is its own repair, so its union is the input
    # list itself whatever the block sizes
    calls = Counter()
    solve = fdrepair.repair._solve

    def recording(plan, facts, depth):
        chosen = solve(plan, facts, depth)
        assert type(chosen) is list
        while depth < len(plan) and len(set(map(block_key_of(plan[depth]), facts))) == 1:
            depth += 1
        if depth == len(plan):
            return chosen
        step = plan[depth]
        kind, key_of, x_of, y_of, _ = step
        last = depth + 1 == len(plan)
        assert (key_of is None) == (last and kind == "S3")
        block_of = block_key_of(step)
        blocks = {}
        for fact in facts:
            blocks.setdefault(block_of(fact), []).append(fact)
        union_step = kind == "S1"
        if kind == "S3":
            ends = list(blocks) if last else [(x_of(k), y_of(k)) for k in blocks]
            xs, ys = zip(*ends)
            union_step = len(set(xs)) == len(set(ys)) == len(blocks)
        if union_step:
            singles = len(blocks) == len(facts)
            assert (chosen is facts) == (singles or last)
            union = set().union(
                *(b if len(b) == 1 else solve(plan, b, depth + 1) for b in blocks.values())
            )
            assert len(chosen) == len(union) and set(chosen) == union
            calls[kind, last, depth > 0, singles] += 1
        return chosen

    monkeypatch.setattr(fdrepair.repair, "_solve", recording)
    rng = random.Random(43)
    # S3 above the last step: at the top, and below S2 and S1 steps; S3
    # as the last step: alone, and below an S1 step
    s3_first = [schema_of("ABCD", "A->B", "B->A", "AC->D"), worked_example]
    s3_last = [schema_of("ABC", "A->B", "B->A"), schema_of("ABCD", "CA->B", "CB->A")]
    for n in range(1200):
        if n % 4 == 2:
            schema = s3_first[n // 4 % 2]
        elif n % 4 == 3:
            schema = s3_last[n // 4 % 2]
        else:
            schema = random_tractable_schema(rng)
        # few facts for one-fact blocks, two values for multi-fact ones
        pool = ("0", "1", "2")[: 2 + n % 2]
        inst = random_instance(rng, schema.signature, rng.choice((4, 10)), pool)
        if n % 8 == 3:
            # B copies A, so no two of the last S3 step's blocks share an
            # endpoint, and the other columns make multi-fact blocks
            rows = [(a, a, *rest) for a, _, *rest in inst.facts]
            inst = Instance(schema.signature, rows)
        result = find_crep(schema, inst)
        assert result.trace.kinds[-1:] != ("S1",)
        assert result.size == brute_force_crep(schema, inst).size
        assert is_s_repair(schema, inst, result.repair)
    for below in (False, True):
        for singles in (False, True):
            assert calls["S1", False, below, singles] > 10, (below, singles)
        # a last S3 step at the top, and below an S1 step
        assert calls["S3", True, below, False] + calls["S3", True, below, True] > 10
    for singles in (False, True):
        assert calls["S3", False, True, singles] + calls["S3", False, False, singles] > 10
    # a last S3 union of multi-fact blocks is the input list too
    assert calls["S3", True, False, False] + calls["S3", True, True, False] > 10


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


def test_equal_traces_and_results_pickle_to_the_same_bytes(worked_example):
    # a trace's steps, terminal and hash key are cached on first read but
    # are no part of the value: an equal trace pickles to the same bytes
    # whatever views were read. A result is its repair, size and trace and
    # nothing else: it keeps no input facts, so it pickles as the result
    # built from those three, and on a 7,200-fact table to under twice its
    # repair's own bytes
    a_b_b_a = schema_of("ABC", "A->B", "B->A")
    cases = [
        (worked_example, worked_example_rows(random.Random(7), 20)),
        (a_b_b_a, [("a", "b", "1"), ("a", "c", "2"), ("d", "b", "3")]),
        (HARD_SCHEMAS["tr"], [("a", "b", "c")]),
        (a_b_b_a, dense_rows(random.Random(1), 60)),
    ]
    for schema, rows in cases:
        inst = Instance(schema.signature, rows)
        fresh, read = classify(schema), classify(schema)
        read.steps, read.terminal, hash(read), repr(read)
        assert pickle.dumps(fresh) == pickle.dumps(read)
        restored = pickle.loads(pickle.dumps(read))
        assert restored == read and restored.steps == read.steps
        fresh, read = find_crep(schema, inst), find_crep(schema, inst)
        if read is None:
            continue
        hash(read), read.trace.steps, read.trace.terminal
        data = pickle.dumps(read)
        assert pickle.dumps(fresh) == data
        assert data == pickle.dumps(RepairResult(read.repair, read.size, read.trace))
        restored = pickle.loads(data)
        assert restored == read and restored.repair.facts == read.repair.facts
    # the last result is the dense one: 7,200 facts, a 180-fact repair
    assert len(inst) == 7200 and read.size == 180
    assert len(data) < 2 * len(pickle.dumps(read.repair))


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
    # int endpoints are the last S3 step's vertex ids, which only the
    # engine builds: max_weight_matching reads an int endpoint as an id,
    # so the checked constructor must refuse int and bool endpoints
    for end in (0, 1, True, False, (0,), ("x", 1)):
        for edges in (
            [(end, "y", 1)],
            [("y", end, 1)],
            [("x", "y", 1), (end, "y", 2)],
            [("x", "y", 1), ("x", end, 2)],
        ):
            with pytest.raises(SchemaError):
                BipartiteMatchProblem(edges)


def _rank_id_problem(problem):
    """``problem`` in the last S3 step's form, and its vertex names.

    A left's id is its rank among the lefts in constant_key order, and a
    right's is the left count plus its rank among the rights; the names
    list maps each id back to its endpoint.
    """
    left, right = _nodes(problem)
    ids = {x: k for k, x in enumerate(left)}
    rights = {y: k for k, y in enumerate(right, len(ids))}
    edges = tuple((ids[x], rights[y], w) for x, y, w in problem.edges)
    return BipartiteMatchProblem._of_sorted_edges(edges), left + right


def _band_problem(rng, size, width, max_weight):
    """Left ``i`` joined to rights ``i .. i + width - 1``; right ``j`` is
    named so that the rights sort in the reverse of ``j``."""
    return BipartiteMatchProblem(
        (f"L{i:02d}", f"R{99 - j:02d}", rng.randint(1, max_weight))
        for i in range(size)
        for j in range(i, min(i + width, size))
    )


def test_rank_id_problems_match_as_their_constants(monkeypatch):
    # a seeded differential of the matcher's two input forms: int
    # endpoints, which it reads as vertex ids, and the checked problem's
    # constants, which it numbers. On unit-weight random graphs, weights
    # 0-3 and band graphs whose rights sort in reverse, the rank-id
    # problem's matching, mapped back, must be the constant problem's,
    # and the enumeration's where the graph is small. The lex greedy
    # builds its tight lists only for its first augment: both the runs
    # that never build them and the runs that do must occur
    tight = fdrepair.repair._tight
    built = []

    def counted(*args):
        built[-1] += 1
        return tight(*args)

    monkeypatch.setattr(fdrepair.repair, "_tight", counted)

    def matched(problem):
        built.append(0)
        matching = max_weight_matching(problem)
        assert built[-1] <= 1
        return matching, built.pop()

    rng = random.Random(3303)
    seen = Counter()
    for n in range(3000):
        family = ("unit", "mixed", "band")[n % 3]
        if family == "unit":
            problem = random_match_problem(
                rng, max_side=rng.choice((4, 9)), max_edges=30
            )
            problem = BipartiteMatchProblem((x, y, 1) for x, y, _ in problem.edges)
        elif family == "mixed":
            problem = random_match_problem(
                rng, max_side=rng.choice((4, 9)), max_edges=30, max_weight=3
            )
        else:
            size = rng.randint(2, 12)
            problem = _band_problem(rng, size, rng.randint(2, 4), rng.choice((1, 3)))
        ids, names = _rank_id_problem(problem)
        assert list(ids.edges) == sorted(ids.edges)
        by_ids, id_builds = matched(ids)
        by_names, name_builds = matched(problem)
        mapped = tuple((names[x], names[y]) for x, y in by_ids)
        assert mapped == by_names, problem.edges
        if len(problem.edges) <= 12:
            assert by_names == brute_force_matching(problem), problem.edges
            seen["enumerated"] += 1
        # the two forms number the vertices apart, so their optima (and
        # so their augments) may differ
        seen[family, "ids", id_builds] += 1
        seen[family, "names", name_builds] += 1
    assert seen["enumerated"] > 1000
    assert all(
        seen[family, form, builds] > 50
        for family in ("unit", "mixed", "band")
        for form in ("ids", "names")
        for builds in (0, 1)
    )


def test_s3_step_builds_the_checked_problem(worked_example, monkeypatch):
    # the S3 step builds its problems without the public constructor's
    # sort and checks. An inner step's problem must equal the checked
    # problem on its edges. The last step's problem has int endpoints,
    # the matcher's vertex ids: an X1 value's id is its rank among the
    # step's nx distinct X1 values in constant_key order, and an X2
    # value's id is nx plus its rank among the distinct X2 values. The
    # left ids must be exactly 0 .. nx - 1 and the right ids exactly
    # nx .. nx + ny - 1, its edges must come sorted, and mapped back
    # through those ranks they must be, in the same order, the edges of
    # the checked problem of the facts' (x, y) block counts
    seen = []
    at_last = []
    original = fdrepair.repair.max_weight_matching
    last_step = fdrepair.repair._last_step

    def recording(problem):
        seen.append((problem, at_last[-1] if at_last else None))
        return original(problem)

    def recording_last(step, facts):
        at_last.append((step, facts))
        try:
            return last_step(step, facts)
        finally:
            at_last.pop()

    monkeypatch.setattr(fdrepair.repair, "max_weight_matching", recording)
    monkeypatch.setattr(fdrepair.repair, "_last_step", recording_last)
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
        # two columns a side, with DOT and tuple cells
        (
            schema_of("ABCDE", "AB->CD", "CD->AB"),
            [tuple(rng.choice(cells[:3]) for _ in "ABCDE") for _ in range(200)],
        ),
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
    checked = Counter()
    for problem, last in seen:
        # blocks that share no endpoint are a union, never a matching
        xs, ys, _ = zip(*problem.edges)
        assert len(set(xs)) < len(xs) or len(set(ys)) < len(ys), problem
        checked[last is not None, len(problem.edges) > 1] += 1
        if last is None:
            assert problem == BipartiteMatchProblem(problem.edges)
            continue
        (_, _, x_of, y_of, _), facts = last
        x_values = sorted(set(map(x_of, facts)), key=constant_key)
        y_values = sorted(set(map(y_of, facts)), key=constant_key)
        nx, ny = len(x_values), len(y_values)
        assert all(type(v) is int for edge in problem.edges for v in edge)
        assert list(problem.edges) == sorted(problem.edges)
        assert {x for x, _, _ in problem.edges} == set(range(nx))
        assert {y for _, y, _ in problem.edges} == set(range(nx, nx + ny))
        counts = Counter(zip(map(x_of, facts), map(y_of, facts)))
        expected = BipartiteMatchProblem((x, y, n) for (x, y), n in counts.items())
        mapped = tuple(
            (x_values[x], y_values[y - nx], w) for x, y, w in problem.edges
        )
        assert mapped == expected.edges
    assert checked[False, True] > 100 and checked[True, True] > 100


def test_s3_union_equals_the_matching(worked_example):
    # an S3 level whose blocks share no X1 and no X2 value is recombined
    # as a union; forced through max_weight_matching instead, it must give
    # the same repair and size. An inner level is forced
    # through its gate, and the last step through the block-list
    # reference, which has no such gate; the last step keeps its input
    # list exactly when no two of its blocks share an endpoint
    gate = fdrepair.repair._shares_no_endpoint
    last_step = fdrepair.repair._last_step
    levels = Counter()

    def counted(*args):
        shares_none = gate(*args)
        levels["inner", shares_none] += 1
        return shares_none

    def counted_last(step, facts):
        chosen = last_step(step, facts)
        if step[0] == "S3":
            pairs = set(map(block_key_of(step), facts))
            xs, ys = zip(*pairs)
            shares_none = len(set(xs)) == len(pairs) == len(set(ys))
            assert (chosen is facts) == shares_none
            levels["last", shares_none] += 1
        return chosen

    rng = random.Random(47)
    schemas = [worked_example, schema_of("ABC", "A->B", "B->A"),
               schema_of("ABCD", "A->B", "B->A", "AC->D"),
               schema_of("ABCDE", "AB->CD", "CD->AB")]
    while len(schemas) < 12:
        schema = random_tractable_schema(rng)
        if "S3" in classify(schema).kinds:
            schemas.append(schema)
    traces = [classify(schema) for schema in schemas]
    cells = ("0", "1", "2", DOT, ("0",), ("0", DOT))
    for n in range(7000):
        schema, trace = schemas[n % len(schemas)], traces[n % len(schemas)]
        inst = random_instance(rng, schema.signature, max_facts=12, pool=cells)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(fdrepair.repair, "_shares_no_endpoint", counted)
            patch.setattr(fdrepair.repair, "_last_step", counted_last)
            union = _find_crep(schema, trace, inst)
            patch.setattr(fdrepair.repair, "_shares_no_endpoint", lambda *args: False)
            patch.setattr(fdrepair.repair, "_last_step", collecting_last_step)
            matched = _find_crep(schema, trace, inst)
        assert union.repair == matched.repair
        assert union.size == matched.size
        if n % 10 == 0:
            # every tenth size also recombines from the reference's blocks
            _recombined(union, inst)
    assert min(levels.values()) > 300 and len(levels) == 4
    assert levels["inner", True] + levels["last", True] > 1000
    assert levels["inner", False] + levels["last", False] > 1000


def test_last_step_counts_agree_with_collected_blocks(worked_example, monkeypatch):
    # the last step recombines from fact counts and keeps facts by their
    # block keys (an S3 block by the int code of its endpoints' ranks);
    # forced through one list per block instead, every repair, size and
    # trace must be the same, and so must each last step
    # on its own input. DOT, str and tuple cells tie S2 blocks across
    # types, where a filter on the chosen key's own __eq__ would keep
    # every fact of another type
    matcher = fdrepair.repair.max_weight_matching
    last_step = fdrepair.repair._last_step
    forced = Counter()
    steps = ()

    def matching(problem):
        forced["matchings"] += 1
        return matcher(problem)

    def collecting(step, facts):
        # the class of the plan's last step: its kind, whether its S3
        # endpoints are bare values, and whether steps run before it
        last = steps[-1]
        assert step[0] == last.kind
        bare = last.kind == "S3" and all(len(lhs) == 1 for lhs in last.witness)
        forced[last.kind, bare, len(steps) > 1] += 1
        collected = collecting_last_step(step, facts)
        counted = last_step(step, facts)
        assert Counter(counted) == Counter(collected)
        return collected

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
            patch.setattr(fdrepair.repair, "_last_step", collecting)
            collected = _find_crep(schema, trace, inst)
        assert counted.repair == collected.repair
        assert counted.size == collected.size
        assert counted.trace == collected.trace
        if n % 10 == 0:
            # every tenth size also recombines from the reference's blocks
            _recombined(counted, inst)
    # S2 and S3 last steps, at the top and below it; S3 with one-column
    # (bare) endpoints and with multi-column ones
    assert all(
        forced[kind, bare, below] > 300
        for kind, bare in (("S2", False), ("S3", True), ("S3", False))
        for below in (False, True)
    )
    assert forced["matchings"] > 1000


def test_int_coded_last_step_equals_the_tuple_key_route():
    # a seeded differential over 5,000 schemas whose plan ends in S3: the
    # marriage X1 <-> X2 of one to three columns a side, alone, below an
    # S1 step (a column on every lhs) or below an S2 step (a constant
    # column), with free columns. X1 and X2 that share a column never
    # reach S3 through classify, whose S1 removes the shared column
    # first, so a fifth of the steps are compiled from a one-step plan
    # whose X1 and X2 overlap. On random facts, DOT and tuple cells among
    # them, the int-coded last step must return the tuple-key route's
    # list, and the input list itself exactly when that route does
    rng = random.Random(59)
    names = "ABCDEFG"
    pools = (("0", "1"), ("0", "1", "2"), ("0", "1", DOT, ("0",), ("0", DOT)))
    seen = Counter()

    def mask(positions):
        return sum(1 << p for p in positions)

    def sorts_plainly(values):
        try:
            sorted(set(values))
        except TypeError:
            return False
        return True

    while seen["schemas"] < 5000:
        arity = rng.randint(2, 7)
        signature = Signature("R", tuple(names[:arity]))
        x1 = rng.sample(range(arity), rng.randint(1, min(3, arity - 1)))
        rest = [p for p in range(arity) if p not in x1]
        x2 = rng.sample(rest, rng.randint(1, min(3, len(rest))))
        rest = [p for p in rest if p not in x2]
        shape = rng.choice(("alone", "S1", "S2", "overlap"))
        if shape == "overlap":
            x2.append(rng.choice(x1))
            plan = (("S3", (mask(x1), mask(x2)), mask(x1) | mask(x2)),)
            trace = SimplificationTrace(FdSchema(signature), plan, frozenset())
        else:
            lhs1, lhs2 = ([signature.attributes[p] for p in x] for x in (x1, x2))
            fds = [Fd(lhs1, lhs2), Fd(lhs2, lhs1)]
            if shape != "alone" and rest:
                z = signature.attributes[rest.pop()]
                if shape == "S1":
                    fds = [Fd([*fd.lhs, z], fd.rhs) for fd in fds]
                else:
                    fds.append(Fd((), [z]))
            trace = classify(FdSchema(signature, fds))
            if trace.kinds[-1:] != ("S3",):
                continue
        step = fdrepair.repair._compile(trace)[-1]
        _, _, x_of, y_of, _ = step
        pool = pools[seen["schemas"] % 3]
        rows = [tuple(rng.choice(pool) for _ in names[:arity]) for _ in range(rng.randint(2, 14))]
        facts = list(dict.fromkeys(rows))
        if len(facts) < 2:
            continue
        got = fdrepair.repair._last_step(step, facts)
        want = tuple_key_last_step(step, facts)
        assert got == want and (got is facts) == (want is facts), (trace._plan, facts)
        seen["schemas"] += 1
        seen[shape, len(trace._plan) > 1] += 1
        seen["matched"] += got is not facts
        seen["multi", any(x & (x - 1) for x in trace._plan[-1][1])] += 1
        seen["keyed"] += not (sorts_plainly(map(x_of, facts)) and sorts_plainly(map(y_of, facts)))
    assert seen["matched"] > 1000 and seen["keyed"] > 500
    assert seen["multi", True] > 1000 and seen["multi", False] > 1000
    assert seen["overlap", False] > 500
    assert seen["S1", True] > 500 and seen["S2", True] > 500 and seen["alone", False] > 500


def test_long_plans_repair_in_one_call(monkeypatch):
    # a step that keeps its facts in one block hands them to the next step
    # in the same call: plans of 700 and 1,101 steps over two facts run in
    # one _solve call, with the oracle's size
    calls = []
    solve = fdrepair.repair._solve

    def recording(plan, facts, depth):
        calls.append(depth)
        return solve(plan, facts, depth)

    monkeypatch.setattr(fdrepair.repair, "_solve", recording)
    for text, rows in long_plan_relations().values():
        schema = parse_schema(text).relations[0]
        inst = Instance(schema.signature, rows)
        calls.clear()
        result = find_crep(schema, inst)
        assert len(result.trace.steps) >= 700 and calls == [0]
        assert result.size == brute_force_crep(schema, inst).size == 1
        assert is_s_repair(schema, inst, result.repair)
        assert _recombined(result, inst) == {("0",): 1}


def test_solve_nesting_is_bounded_by_steps_and_facts(worked_example, monkeypatch):
    # a nested _solve call repairs a multi-fact block of a step that split
    # its caller's facts, at a later step: calls nest at most as deep as
    # the plan has steps, and one less than the number of facts
    solve = fdrepair.repair._solve
    stack = []
    deepest = 0

    def nesting(plan, facts, depth):
        nonlocal deepest
        if stack:
            assert len(facts) < stack[-1][0] and depth > stack[-1][1]
        stack.append((len(facts), depth))
        deepest = max(deepest, len(stack))
        try:
            return solve(plan, facts, depth)
        finally:
            stack.pop()

    monkeypatch.setattr(fdrepair.repair, "_solve", nesting)
    rng = random.Random(59)
    fixed = [worked_example, schema_of("ABCD", "A->B", "B->A", "AC->D")]
    reached = Counter()
    for n in range(1500):
        if n % 3:
            schema = random_tractable_schema(rng, max_attrs=8, max_fds=6)
        else:
            schema = fixed[n % 2]
        pool = ("0", "1", "2", DOT, ("0",))[: 2 + n % 4]
        inst = random_instance(rng, schema.signature, rng.choice((3, 8, 30)), pool)
        deepest = 0
        result = find_crep(schema, inst)
        bound = min(len(result.trace.steps), max(len(inst) - 1, 0))
        assert deepest <= bound
        reached[deepest] += deepest == bound
        assert not stack
    # the bound is met, also three to five calls deep
    assert reached[1] > 100 and reached[2] > 50
    assert reached[3] + reached[4] + reached[5] > 20


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
