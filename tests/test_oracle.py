import collections
import itertools
import pickle
import random
import sys

import pytest

from conftest import inst_of, schema_of
from generators import dense_rows, random_instance, random_schema
from oracles import (
    _conflicting_pairs,
    brute_force_matching,
    cnf_satisfiable,
    conflict_by_definition,
    consistent_by_definition,
    greedy_s_repair,
    lex_first_max_repair_by_subsets,
    max_edge_disjoint_triangles,
    max_repair_size_by_subsets,
    max_triangle_packing_by_subsets,
    s_repair_by_definition,
    s_repair_by_pairs,
    wide_lhs_groups,
)

import fdrepair.fds
from fdrepair import simplify
from fdrepair.fds import (
    DOT,
    Fd,
    FdSchema,
    Instance,
    SchemaError,
    Signature,
    _conflict_masks,
    constant_key,
    is_consistent,
    normalize,
)
from fdrepair.gadgets import (
    HARD_SCHEMAS,
    CnfFormula,
    TripartiteGraph,
    gadget_2fd,
    gadget_2r,
    gadget_rl,
    gadget_tr,
)
from fdrepair.oracle import (
    CapExceededError,
    ConflictGraph,
    brute_force_crep,
    is_s_repair,
)
from fdrepair.repair import BipartiteMatchProblem, find_crep


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
    assert brute_force_crep(HARD_SCHEMAS["tr"], inst).size == packing


def test_cap_enforced_and_configurable():
    schema = schema_of("A")
    inst = Instance(schema.signature, [(str(i),) for i in range(5)])
    with pytest.raises(CapExceededError):
        brute_force_crep(schema, inst, cap=4)
    assert brute_force_crep(schema, inst, cap=5).size == 5


def test_returns_lexicographically_smallest_maximum():
    rng = random.Random(23)
    conflicted = 0
    for _ in range(100):
        schema = random_schema(rng, max_attrs=3, max_fds=3)
        while not normalize(schema).fds:
            schema = random_schema(rng, max_attrs=3, max_fds=3)
        inst = random_instance(rng, schema.signature, max_facts=12)
        result = brute_force_crep(schema, inst)
        # independent reference: enumerate subsets in constant_key order
        best = lex_first_max_repair_by_subsets(
            schema, sorted(inst.facts, key=constant_key)
        )
        assert result.repair.sorted_facts == best
        assert result.size == len(best)
        conflicted += len(best) < len(inst)
    assert conflicted >= 60


def test_oracle_does_not_classify(monkeypatch):
    def refuse(schema):
        raise AssertionError("the oracle must not classify")

    classify, bound = simplify.classify, 0
    for name, module in list(sys.modules.items()):
        if name == "fdrepair" or name.startswith("fdrepair."):
            for attr, value in list(vars(module).items()):
                if value is classify:
                    monkeypatch.setattr(module, attr, refuse)
                    bound += 1
    assert bound >= 3  # at least simplify, repair and the package
    inst = gadget_rl(CnfFormula(2, [[1, 2], [-1], [-2]]))
    result = brute_force_crep(HARD_SCHEMAS["rl"], inst)
    assert result.trace is None
    assert result.size == 2  # unsatisfiable: one clause short of 3


def test_search_scales_past_the_default_cap():
    # 48-fact gadgets: the repair covers all 16 clauses iff satisfiable
    rng = random.Random(41)
    # every sign pattern over x1..x3 makes the last formula unsatisfiable
    unsat = [[a, 2 * b, 3 * c] for a, b, c in itertools.product((1, -1), repeat=3)]
    for prefix in ([], [], unsat):
        clauses = prefix + [
            [v * rng.choice((1, -1)) for v in rng.sample(range(1, 11), 3)]
            for _ in range(16 - len(prefix))
        ]
        formula = CnfFormula(10, clauses)
        for build, kind in ((gadget_rl, "rl"), (gadget_2r, "2r")):
            schema, inst = HARD_SCHEMAS[kind], build(formula)
            result = brute_force_crep(schema, inst, cap=48)
            assert (result.size == 16) == cnf_satisfiable(formula)
            assert is_s_repair(schema, inst, result.repair)


def test_cnf_satisfiable_truth_table():
    assert cnf_satisfiable(CnfFormula(2, [[1, 2], [-1]]))
    assert not cnf_satisfiable(CnfFormula(1, [[1], [-1]]))
    assert cnf_satisfiable(CnfFormula(0, []))


def test_triangle_packing_matches_subset_enumeration():
    # names repeat across sides, so only side-aware edge tests pass
    names = ("0", "1", "2", "3")
    universe = list(itertools.product(names, repeat=3))
    rng = random.Random(31)
    for _ in range(200):
        chosen = rng.sample(universe, rng.randint(6, 12))
        graph = TripartiteGraph(names, names, names, chosen)
        assert max_edge_disjoint_triangles(graph) == (
            max_triangle_packing_by_subsets(chosen)
        ), chosen


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
    single = BipartiteMatchProblem([("x", "y", 5)])
    assert brute_force_matching(single) == (("x", "y"),)
    crossing = BipartiteMatchProblem(
        [("x1", "y1", 3), ("x1", "y2", 1), ("x2", "y1", 1), ("x2", "y2", 3)]
    )
    assert brute_force_matching(crossing) == (("x1", "y1"), ("x2", "y2"))
    path = [("x2", "y2", 2), ("x1", "y1", 4), ("x2", "y1", 3)]
    # an edge list in any order gives the same answer as its problem
    assert brute_force_matching(path) == (("x1", "y1"), ("x2", "y2"))
    assert brute_force_matching(BipartiteMatchProblem(path)) == (
        ("x1", "y1"),
        ("x2", "y2"),
    )


def test_is_s_repair():
    schema = schema_of("AB", "A->B")
    inst = inst_of(schema, "1a", "1b", "2c")
    maximum = brute_force_crep(schema, inst).repair
    assert is_s_repair(schema, inst, maximum)
    assert not is_s_repair(schema, inst, Instance(schema.signature, []))
    # missing a conflict-free fact breaks maximality
    partial = Instance(schema.signature, [("1", "a")])
    assert not is_s_repair(schema, inst, partial)
    for outside in (inst_of(schema, "9z"), inst_of(schema, "1a", "9z")):
        with pytest.raises(SchemaError):
            is_s_repair(schema, inst, outside)


def test_greedy_s_repairs_never_beat_the_maximum():
    rng = random.Random(25)
    for _ in range(30):
        schema = random_schema(rng, max_attrs=4)
        inst = random_instance(rng, schema.signature, max_facts=9)
        maximum = brute_force_crep(schema, inst).size
        order = list(inst.sorted_facts)
        rng.shuffle(order)
        sampled = Instance(schema.signature, greedy_s_repair(schema, order))
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


def test_conflict_masks_match_the_pairs_and_the_definition():
    # up to 40 facts over 2-3 values, so lhs groups of 3+ facts meet 3+
    # rhs values; every schema gains an empty-lhs FD and an FD whose rhs
    # overlaps its lhs, which normalize would rewrite
    rng = random.Random(47)
    wide_groups = 0
    for _ in range(100):
        schema = random_schema(rng, max_attrs=4, max_fds=2)
        attrs = schema.signature.attributes
        overlap = frozenset(rng.sample(attrs, rng.randint(1, len(attrs))))
        extra = (
            Fd(frozenset(), frozenset(rng.sample(attrs, 1))),
            Fd(overlap, overlap | {rng.choice(attrs)}),
        )
        schema = FdSchema(schema.signature, schema.fds + extra)
        pool = rng.choice((("0", "1"), ("0", "1", "2")))
        inst = random_instance(rng, schema.signature, max_facts=40, pool=pool)
        facts = inst.sorted_facts
        by_definition = tuple(
            sum(
                1 << j
                for j, g in enumerate(facts)
                if conflict_by_definition(schema, f, g)
            )
            for f in facts
        )
        graph = ConflictGraph.build(schema, inst)
        assert graph.facts == facts and graph.adjacency == by_definition
        assert graph.edge_count == len(_conflicting_pairs(schema, facts))
        wide_groups += wide_lhs_groups(schema, facts)
    assert wide_groups >= 40


def test_s_repair_and_consistency_match_the_pairs_and_the_definition():
    # up to 16 facts over DOT, str and tuple cells of 3-4 values, so lhs
    # groups of 3+ facts meet 3+ rhs values; every schema gains an
    # empty-lhs FD and an FD whose rhs overlaps its lhs
    rng = random.Random(53)
    pools = (("0", DOT, ("0", DOT)), ("0", "1", DOT, ("0", "1")))
    verdicts = collections.Counter()
    wide_groups = 0
    for _ in range(150):
        schema = random_schema(rng, max_attrs=4, max_fds=2)
        attrs = schema.signature.attributes
        overlap = frozenset(rng.sample(attrs, rng.randint(1, len(attrs))))
        extra = (
            Fd(frozenset(), frozenset(rng.sample(attrs, 1))),
            Fd(overlap, overlap | {rng.choice(attrs)}),
        )
        schema = FdSchema(schema.signature, schema.fds + extra)
        pool = rng.choice(pools)
        inst = random_instance(rng, schema.signature, max_facts=16, pool=pool)
        facts = inst.sorted_facts
        # the oracle's repair, it less one fact and plus one dropped
        # fact, random subsets and the empty set
        repair = list(brute_force_crep(schema, inst).repair.sorted_facts)
        dropped = [f for f in facts if f not in repair]
        candidates = [repair, []]
        candidates += [[f for f in facts if rng.random() < 0.5] for _ in range(3)]
        if repair:
            candidates.append(rng.sample(repair, len(repair) - 1))
        if dropped:
            candidates.append(repair + [rng.choice(dropped)])
        for kept in candidates:
            candidate = Instance(schema.signature, kept)
            expected = s_repair_by_definition(schema, facts, kept)
            assert s_repair_by_pairs(schema, inst, candidate) == expected
            assert is_s_repair(schema, inst, candidate) == expected
            consistent = consistent_by_definition(schema, kept)
            assert is_consistent(schema, candidate) == consistent
            verdicts[expected, consistent] += 1
        assert is_consistent(schema, inst) == consistent_by_definition(schema, facts)
        wide_groups += wide_lhs_groups(schema, facts)
    # S-repairs, consistent but not maximal, and inconsistent candidates
    assert min(verdicts[True, True], verdicts[False, True]) >= 100
    assert verdicts[False, False] >= 100 and len(verdicts) == 3
    assert wide_groups >= 100


def test_s_repair_and_consistency_build_no_pair(monkeypatch):
    # A -> B, B -> A over 80 x 80 cells of 1-3 facts: 12,800 facts in one
    # dense component, so millions of conflicting pairs
    schema = FdSchema(
        Signature("R", ("A", "B", "C")),
        [Fd({"A"}, {"B"}), Fd({"B"}, {"A"})],
    )
    inst = Instance(schema.signature, dense_rows(random.Random(3), 80))
    # per FD, the pairs that share its lhs value less those sharing a cell
    per_cell = collections.Counter(f[:2] for f in inst.facts).values()
    pairs = 0
    for side in (0, 1):
        per_key = collections.Counter(f[side] for f in inst.facts).values()
        pairs += sum(n * (n - 1) // 2 for n in per_key)
        pairs -= sum(n * (n - 1) // 2 for n in per_cell)
    assert len(inst) >= 5000 and pairs >= 2_000_000
    repair = find_crep(schema, inst).repair

    def refuse(*args):
        raise AssertionError("consistency and maximality must build no pair")

    bound = 0
    for name, module in list(sys.modules.items()):
        if name == "fdrepair" or name.startswith("fdrepair."):
            for attr, value in list(vars(module).items()):
                if value is _conflict_masks:
                    monkeypatch.setattr(module, attr, refuse)
                    bound += 1
    assert bound >= 2  # at least fds's own and the oracle's
    kept = repair.sorted_facts
    dropped = sorted(inst.facts - repair.facts, key=constant_key)
    less = Instance(schema.signature, kept[1:])
    more = Instance(schema.signature, kept + (dropped[0],))
    assert is_s_repair(schema, inst, repair) and is_consistent(schema, repair)
    assert not is_s_repair(schema, inst, less) and is_consistent(schema, less)
    assert not is_s_repair(schema, inst, more) and not is_consistent(schema, more)
    assert not is_consistent(schema, inst)


def test_fd_keys_compile_once_per_schema(monkeypatch):
    # every getter is compiled by fds._getter_at; the FDs' own getters
    # skip the signature's attribute check, because the FDs were checked
    # when the schema was built
    calls = []
    compile_getter = fdrepair.fds._getter_at

    def counting(positions):
        calls.append(positions)
        return compile_getter(positions)

    def refuse(self, attrs):
        raise AssertionError("FD getters must not re-check their attributes")

    monkeypatch.setattr(fdrepair.fds, "_getter_at", counting)
    hard = HARD_SCHEMAS["2fd"]
    schema = FdSchema(hard.signature, hard.fds)  # fresh, so not yet compiled
    fresh = FdSchema(hard.signature, hard.fds)
    inst = gadget_2fd(CnfFormula(3, [[1, 2], [-1, -3], [2, 3], [-2]]))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Signature, "check_attrs", refuse)
        first = brute_force_crep(schema, inst)
        assert len(calls) == 2 * len(schema.fds)
        assert brute_force_crep(schema, inst) == first
        assert is_s_repair(schema, inst, first.repair)
        assert is_s_repair(schema, inst, first.repair)
    assert len(calls) == 2 * len(schema.fds)
    # the compiled getters read the FD's attributes in signature order
    names = schema.signature.attributes
    for fd, lhs, rhs in schema._keys:
        for attrs, compiled in ((fd.lhs, lhs), (fd.rhs, rhs)):
            by_name = [tuple(v for a, v in zip(names, f) if a in attrs) for f in inst.facts]
            assert [compiled(f) for f in inst.facts] == by_name
    # the compiled keys are no part of the value
    restored = pickle.loads(pickle.dumps(schema))
    facts = inst.sorted_facts
    for other in (fresh, restored):
        assert other == schema and hash(other) == hash(schema)
        assert repr(other) == repr(schema)
        assert _conflict_masks(other, facts) == _conflict_masks(schema, facts)
