import itertools
import random

import pytest

from conftest import inst_of, schema_of
from generators import random_instance, random_schema
from oracles import (
    conflict_by_definition,
    consistent_by_definition,
    max_repair_size_by_subsets,
    s_repair_by_definition,
)

from fdrepair.fds import DOT, Instance, SchemaError, fact_key
from fdrepair.gadgets import (
    TripartiteGraph,
    gadget_tr,
    max_edge_disjoint_triangles,
    schema_tr,
)
from fdrepair.oracle import (
    CapExceededError,
    ConflictGraph,
    brute_force_crep,
    brute_force_matching,
    greedy_s_repair,
    is_s_repair,
)
from fdrepair.repair import BipartiteMatchProblem


def test_consistent_instance_returned_whole():
    schema = schema_of("AB", "A->B")
    inst = inst_of(schema, "1a", "2b")
    assert brute_force_crep(schema, inst).repair == inst


def test_single_conflicting_pair():
    schema = schema_of("AB", "A->B")
    inst = inst_of(schema, "1a", "1b")
    result = brute_force_crep(schema, inst)
    assert result.size == 1
    assert result.repair.sorted_facts == (("1", "a"),)


def test_triangle_gadget_matches_packing():
    # four triangles, some sharing edges: repair size equals the largest
    # edge-disjoint packing (independently enumerated)
    graph = TripartiteGraph(
        ("a1", "a2"),
        ("b1", "b2"),
        ("c1", "c2"),
        [
            ("a1", "b1", "c1"),
            ("a1", "b1", "c2"),  # shares edge (a1, b1)
            ("a2", "b1", "c1"),  # shares edge (b1, c1)
            ("a2", "b2", "c2"),
        ],
    )
    inst = gadget_tr(graph)
    packing = max_edge_disjoint_triangles(graph)
    assert packing == 3
    assert brute_force_crep(schema_tr(), inst).size == packing


def test_cap_enforced_and_configurable():
    schema = schema_of("A")
    inst = Instance(schema.signature, [(str(i),) for i in range(5)])
    with pytest.raises(CapExceededError):
        brute_force_crep(schema, inst, cap=4)
    assert brute_force_crep(schema, inst, cap=5).size == 5


def test_returns_lexicographically_smallest_maximum():
    rng = random.Random(23)
    for _ in range(25):
        schema = random_schema(rng, max_attrs=3, max_fds=3)
        inst = random_instance(rng, schema.signature, max_facts=7)
        result = brute_force_crep(schema, inst)
        # independent reference: enumerate all subsets
        facts = inst.sorted_facts
        best = None
        for r in range(len(facts), -1, -1):
            for combo in itertools.combinations(facts, r):
                if consistent_by_definition(schema, combo):
                    key = tuple(fact_key(f) for f in combo)
                    if best is None or len(combo) > len(best) or (
                        len(combo) == len(best)
                        and key < tuple(fact_key(f) for f in best)
                    ):
                        best = combo
            if best is not None and len(best) == r:
                break
        assert result.repair.sorted_facts == best


def test_size_invariant_under_renaming_and_reordering():
    rng = random.Random(24)
    for _ in range(20):
        schema = random_schema(rng, max_attrs=4)
        inst = random_instance(rng, schema.signature, max_facts=8)
        size = brute_force_crep(schema, inst).size
        renamed = Instance(
            schema.signature,
            [tuple(f"v{v}" for v in fact) for fact in inst.facts],
        )
        assert brute_force_crep(schema, renamed).size == size


def test_matching_examples_by_enumeration():
    single = BipartiteMatchProblem(["x"], ["y"], [("x", "y", 5)])
    assert brute_force_matching(single) == (("x", "y"),)
    crossing = BipartiteMatchProblem(
        ["x1", "x2"],
        ["y1", "y2"],
        [("x1", "y1", 3), ("x1", "y2", 1), ("x2", "y1", 1), ("x2", "y2", 3)],
    )
    assert brute_force_matching(crossing) == (("x1", "y1"), ("x2", "y2"))
    path = BipartiteMatchProblem(
        ["x1", "x2"],
        ["y1", "y2"],
        [("x1", "y1", 4), ("x2", "y1", 3), ("x2", "y2", 2)],
    )
    assert brute_force_matching(path) == (("x1", "y1"), ("x2", "y2"))


def test_matching_cap():
    edges = [(f"x{i}", f"y{i}", 1) for i in range(17)]
    problem = BipartiteMatchProblem(
        [e[0] for e in edges], [e[1] for e in edges], edges
    )
    with pytest.raises(CapExceededError):
        brute_force_matching(problem)
    assert len(brute_force_matching(problem, cap=17)) == 17


def test_is_s_repair():
    schema = schema_of("AB", "A->B")
    inst = inst_of(schema, "1a", "1b", "2c")
    maximum = brute_force_crep(schema, inst).repair
    assert is_s_repair(schema, inst, maximum)
    assert not is_s_repair(schema, inst, Instance(schema.signature, []))
    # missing a conflict-free fact breaks maximality
    partial = Instance(schema.signature, [("1", "a")])
    assert not is_s_repair(schema, inst, partial)
    with pytest.raises(SchemaError):
        is_s_repair(schema, inst, inst_of(schema, "9z"))


def test_greedy_s_repairs_never_beat_the_maximum():
    rng = random.Random(25)
    for _ in range(30):
        schema = random_schema(rng, max_attrs=4)
        inst = random_instance(rng, schema.signature, max_facts=9)
        maximum = brute_force_crep(schema, inst).size
        order = list(inst.sorted_facts)
        rng.shuffle(order)
        sampled = greedy_s_repair(schema, inst, tuple(order))
        assert is_s_repair(schema, inst, sampled)
        assert len(sampled) <= maximum


def test_conflict_graph_rejects_other_signature():
    schema = schema_of("AB", "A->B")
    other = inst_of(schema_of("AC", "A->C"), "1a")
    with pytest.raises(SchemaError):
        ConflictGraph.build(schema, other)
    with pytest.raises(SchemaError):
        is_s_repair(schema, other, other)


def test_conflict_graph_edges_match_violations():
    schema = schema_of("AB", "A->B")
    inst = inst_of(schema, "1a", "1b", "2c")
    graph = ConflictGraph.build(schema, inst)
    assert graph.edge_count == 1
    assert max_repair_size_by_subsets(schema, inst) == len(inst) - 1


def test_conflict_graph_and_s_repair_match_the_definition():
    rng = random.Random(43)
    pool = ("0", "1", DOT, ("0", "1"))
    verdicts = set()
    for _ in range(300):
        schema = random_schema(rng, max_attrs=5)
        inst = random_instance(rng, schema.signature, max_facts=10, pool=pool)
        facts = inst.sorted_facts
        graph = ConflictGraph.build(schema, inst)
        assert graph.facts == facts
        assert graph.adjacency == tuple(
            sum(
                1 << j
                for j, g in enumerate(facts)
                if conflict_by_definition(schema, f, g)
            )
            for f in facts
        )
        # random subsets, plus a maximal one grown by the definition
        # and that one less a fact
        subsets = [[f for f in facts if rng.random() < 0.5] for _ in range(3)]
        grown = []
        for f in rng.sample(facts, len(facts)):
            if not any(conflict_by_definition(schema, f, g) for g in grown):
                grown.append(f)
        subsets += [grown, grown[1:]]
        for kept in subsets:
            expected = s_repair_by_definition(schema, facts, kept)
            candidate = Instance(schema.signature, kept)
            assert is_s_repair(schema, inst, candidate) == expected
            verdicts.add(expected)
    assert verdicts == {True, False}
