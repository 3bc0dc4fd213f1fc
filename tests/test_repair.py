import random

import pytest

from conftest import inst_of, schema_of
from generators import (
    random_instance,
    random_match_problem,
    random_schema,
    random_tractable_schema,
)
from oracles import max_repair_size_by_subsets

import fdrepair.repair
from fdrepair.fds import (
    FdSchema,
    Instance,
    SchemaError,
    Signature,
    is_consistent,
)
from fdrepair.gadgets import HARD_SCHEMAS
from fdrepair.oracle import brute_force_matching, is_s_repair
from fdrepair.repair import (
    BipartiteMatchProblem,
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
    weights = result.per_block_sizes
    problem = BipartiteMatchProblem(
        left=(x for x, _ in weights),
        right=(y for _, y in weights),
        edges=((x, y, w) for (x, y), w in weights.items()),
    )
    return sum(weights[edge] for edge in brute_force_matching(problem))


def test_split_s1_grouping():
    schema = schema_of("AB", "A->B")
    inst = inst_of(schema, "1a", "1b", "2c")
    result = find_crep(schema, inst)
    assert result.trace.kinds[0] == "S1"
    assert result.block_sizes == ((("1",), 1), (("2",), 1))
    assert sum(result.per_block_sizes.values()) == result.size


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
            keys = {
                (inst.value_of(f, x1), inst.value_of(f, x2))
                for f in inst.facts
            }
        else:
            keys = {
                inst.value_of(f, step.removed_attributes) for f in inst.facts
            }
        assert set(result.per_block_sizes) == keys
        assert len(result.block_sizes) == len(keys)
        sizes = result.per_block_sizes.values()
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
    assert result.per_block_sizes == {("1",): 1, ("2",): 1}
    assert sum(result.per_block_sizes.values()) == result.size


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
    assert result.per_block_sizes == {("1",): 1, ("2",): 1}
    assert result.size == max(result.per_block_sizes.values())


def test_repair_s2_largest_block_wins():
    schema = schema_of("AB", "->A")
    inst = inst_of(schema, "1a", "1b", "2c")
    result = find_crep(schema, inst)
    assert result.size == 2
    assert result.repair.sorted_facts == (("1", "a"), ("1", "b"))
    assert result.per_block_sizes == {("1",): 2, ("2",): 1}
    assert result.size == max(result.per_block_sizes.values())


def test_repair_s2_single_block_is_its_repair():
    schema = schema_of("AB", "->A")
    inst = inst_of(schema, "1a", "1b")
    result = find_crep(schema, inst)
    assert result.repair == inst
    assert result.per_block_sizes == {("1",): 2}


def test_build_match_problem_weights():
    schema = schema_of("ABC", "A->B", "B->A")
    inst = inst_of(schema, "1ax", "1ay", "1bz", "2bw")
    # blocks: (1,a) has two consistent facts after projection, others one
    result = find_crep(schema, inst)
    assert result.per_block_sizes == {
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
    assert len(result.per_block_sizes) == 4
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
    assert result.per_block_sizes == {(("1",), ("a",)): 1, (("2",), ("a",)): 1}
    assert _matching_weight(result) == result.size


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
    assert result.per_block_sizes == {("0",): 6, ("1",): 6, ("2",): 6}
    assert result.size == 6
    assert is_s_repair(worked_example, inst, result.repair)


# -- matching ----------------------------------------------------------------

def test_matching_single_edge():
    problem = BipartiteMatchProblem(["x"], ["y"], [("x", "y", 5)])
    assert max_weight_matching(problem) == (("x", "y"),)


def test_matching_crossing_weights():
    problem = BipartiteMatchProblem(
        ["x1", "x2"],
        ["y1", "y2"],
        [("x1", "y1", 3), ("x1", "y2", 1), ("x2", "y1", 1), ("x2", "y2", 3)],
    )
    matching = max_weight_matching(problem)
    assert matching == (("x1", "y1"), ("x2", "y2"))


def test_matching_path_weights():
    problem = BipartiteMatchProblem(
        ["x1", "x2"],
        ["y1", "y2"],
        [("x1", "y1", 4), ("x2", "y1", 3), ("x2", "y2", 2)],
    )
    assert max_weight_matching(problem) == (("x1", "y1"), ("x2", "y2"))


def test_matching_prefers_leaving_zero_weight_edges_out():
    problem = BipartiteMatchProblem(["x"], ["y"], [("x", "y", 0)])
    assert max_weight_matching(problem) == ()
    assert brute_force_matching(problem) == ()


def test_matching_agrees_with_enumeration():
    rng = random.Random(6)
    for _ in range(40):
        problem = random_match_problem(rng, max_side=5, max_edges=10)
        assert max_weight_matching(problem) == brute_force_matching(problem)


def test_match_problem_validation():
    with pytest.raises(SchemaError):
        BipartiteMatchProblem(["x"], ["y"], [("x", "z", 1)])
    with pytest.raises(SchemaError):
        BipartiteMatchProblem(["x"], ["y"], [("x", "y", -1)])
    with pytest.raises(SchemaError):
        BipartiteMatchProblem(["x"], ["y"], [("x", "y", 1), ("x", "y", 2)])


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
