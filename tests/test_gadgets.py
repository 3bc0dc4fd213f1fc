import random

import pytest

from conftest import schema_of
from generators import random_cnf, random_instance, random_intractable_schema

from fdrepair.fds import DOT
from fdrepair.gadgets import (
    CnfFormula,
    FactWiseReduction,
    GadgetError,
    HARD_SCHEMAS,
    ReductionError,
    TripartiteGraph,
    cnf_satisfiable,
    compose,
    gadget_2fd,
    gadget_2r,
    gadget_rl,
    gadget_tr,
    hard_case_witness,
    lift_through_simplification,
    max_edge_disjoint_triangles,
    schema_2fd,
    schema_2r,
    schema_rl,
    schema_tr,
    verify_reduction,
)
from fdrepair.oracle import brute_force_crep
from fdrepair.repair import find_crep
from fdrepair.simplify import apply_step, classify


# -- CNF basics ----------------------------------------------------------------

def test_cnf_validation():
    with pytest.raises(GadgetError):
        CnfFormula(2, [[]])
    with pytest.raises(GadgetError):
        CnfFormula(2, [[3]])
    with pytest.raises(GadgetError):
        CnfFormula(2, [[0]])
    formula = CnfFormula(3, [[1, 2], [-1, -3]])
    assert formula.non_mixed
    assert not CnfFormula(2, [[1, -2]]).non_mixed


def test_cnf_satisfiable_truth_table():
    assert cnf_satisfiable(CnfFormula(2, [[1, 2], [-1]]))
    assert not cnf_satisfiable(CnfFormula(1, [[1], [-1]]))
    assert cnf_satisfiable(CnfFormula(0, []))


# -- SAT gadgets -----------------------------------------------------------------

def test_gadget_2fd_published_shape():
    formula = CnfFormula(2, [[1, 2], [-1]])
    inst = gadget_2fd(formula)
    assert inst.facts == {
        ("c1", "1", "x1"),
        ("c1", "1", "x2"),
        ("c2", "0", "x1"),
    }
    # satisfiable, so the repair covers every clause
    assert brute_force_crep(schema_2fd(), inst).size == 2


def test_gadget_2fd_unit_clause():
    inst = gadget_2fd(CnfFormula(1, [[1]]))
    assert len(inst) == 1
    assert brute_force_crep(schema_2fd(), inst).size == 1


def test_gadget_2fd_contradiction_falls_short():
    inst = gadget_2fd(CnfFormula(1, [[1], [-1]]))
    assert brute_force_crep(schema_2fd(), inst).size == 1  # below m = 2


def test_gadget_2fd_rejects_mixed_clause():
    with pytest.raises(GadgetError):
        gadget_2fd(CnfFormula(2, [[1, -2]]))


def test_gadget_rl_columns_and_sizes():
    formula = CnfFormula(2, [[1, -2], [-1]])
    inst = gadget_rl(formula)
    assert inst.facts == {
        ("c1", "x1", "1"),
        ("c1", "x2", "0"),
        ("c2", "x1", "0"),
    }
    assert brute_force_crep(schema_rl(), inst).size == 2  # satisfiable


def test_gadget_2r_structural_third_column():
    inst = gadget_2r(CnfFormula(1, [[1, -1]]))
    assert inst.facts == {
        ("c1", "x1", ("x1", "1")),
        ("c1", "x1", ("x1", "0")),
    }
    assert brute_force_crep(schema_2r(), inst).size == 1


def test_gadget_size_tracks_satisfiability_on_random_formulas():
    rng = random.Random(31)
    for _ in range(40):
        formula = random_cnf(rng, max_vars=5, max_clauses=4)
        sat = cnf_satisfiable(formula)
        m = len(formula.clauses)
        for build, schema in (
            (gadget_rl, schema_rl()),
            (gadget_2r, schema_2r()),
        ):
            size = brute_force_crep(schema, build(formula)).size
            assert size <= m
            assert (size == m) == sat


# -- triangle gadget ------------------------------------------------------------

def test_gadget_tr_single_triangle():
    graph = TripartiteGraph(("a",), ("b",), ("c",), [("a", "b", "c")])
    assert brute_force_crep(schema_tr(), gadget_tr(graph)).size == 1


def test_gadget_tr_shared_edge_vs_shared_node():
    shared_edge = TripartiteGraph(
        ("a1",), ("b1",), ("c1", "c2"),
        [("a1", "b1", "c1"), ("a1", "b1", "c2")],
    )
    assert max_edge_disjoint_triangles(shared_edge) == 1
    assert brute_force_crep(schema_tr(), gadget_tr(shared_edge)).size == 1

    shared_node = TripartiteGraph(
        ("a1", "a2"), ("b1", "b2"), ("c1",),
        [("a1", "b1", "c1"), ("a2", "b2", "c1")],
    )
    assert max_edge_disjoint_triangles(shared_node) == 2
    assert brute_force_crep(schema_tr(), gadget_tr(shared_node)).size == 2


def test_tripartite_validation():
    with pytest.raises(GadgetError):
        TripartiteGraph(("a", "a"), ("b",), ("c",), [])
    with pytest.raises(GadgetError):
        TripartiteGraph(("a",), ("b",), ("c",), [("a", "b", "z")])


# -- hard-case witnesses ----------------------------------------------------------

def test_witness_cases_for_the_four_cores():
    expected = {"2fd": 5, "rl": 3, "2r": 2, "tr": 4}
    for name, schema in HARD_SCHEMAS.items():
        case_id, reduction = hard_case_witness(schema)
        assert case_id == expected[name], name
        report = verify_reduction(reduction)
        assert report.exhaustive and report.ok, (name, report.violations[:3])


def test_witness_for_tr_is_the_identity_map():
    _, reduction = hard_case_witness(schema_tr())
    assert reduction.rules == ("A", "B", "C")


def test_witness_case1_needs_separated_closures():
    # two keys whose closures stay apart: the two-relation-like shape
    schema = schema_of("ABCD", "A->C", "B->D")
    case_id, reduction = hard_case_witness(schema)
    assert case_id == 1
    assert reduction.rules == ("A", "B", ("A", "C"), ("B", "C"))
    assert verify_reduction(reduction).ok


def test_witness_rejects_tractable_schema(worked_example):
    with pytest.raises(ReductionError):
        hard_case_witness(worked_example)


def test_witness_lifts_through_applied_rewrites():
    # one S1 layer over the two-fd core
    schema = schema_of("DABC", "DAB->C", "DC->B")
    case_id, reduction = hard_case_witness(schema)
    assert case_id == 5
    assert reduction.target.signature.attributes == ("D", "A", "B", "C")
    assert reduction.rules[0] is DOT
    report = verify_reduction(reduction)
    assert report.ok and report.exhaustive


def test_former_gap_schema_is_tractable(gap_schema):
    """{A->B, AB->C, BC->A} once had neither a rewrite nor a witness.

    A and BC have the same closure and every lhs contains one of them,
    so S3 removes all three attributes, and the exact repair agrees
    with brute force.
    """
    trace = classify(gap_schema)
    assert trace.tractable
    assert trace.kinds == ("S3",)
    assert trace.removed_sets == (frozenset("ABC"),)
    assert trace.steps[0].witness == (frozenset("A"), frozenset("BC"))
    with pytest.raises(ReductionError):
        hard_case_witness(gap_schema)
    rng = random.Random(19)
    for _ in range(40):
        instance = random_instance(rng, gap_schema.signature, max_facts=10)
        result = find_crep(gap_schema, instance)
        assert result.size == brute_force_crep(gap_schema, instance).size


def test_witness_or_proven_gap_on_random_stuck_schemas():
    """Every rejected schema carries a verified hardness witness."""
    rng = random.Random(33)
    cases = set()
    for _ in range(60):
        schema = random_intractable_schema(rng)
        case_id, reduction = hard_case_witness(schema)
        report = verify_reduction(reduction)
        assert report.ok and report.exhaustive, (schema, report.violations[:2])
        cases.add(case_id)
    assert len(cases) >= 3


# -- lifting and composition ------------------------------------------------------

def test_lift_pads_removed_columns():
    step = apply_step(schema_of("ABC", "AB->C", "AC->B"), "S1")
    lifted = lift_through_simplification(step)
    assert lifted.rules == (DOT, "B", "C")
    assert lifted.apply(("b", "c")) == (DOT, "b", "c")
    assert verify_reduction(lifted).ok


def test_lift_requires_surviving_fds():
    step = apply_step(schema_of("AB", "A->B", "B->A"), "S3")
    with pytest.raises(ReductionError):
        lift_through_simplification(step)


def test_composed_lifts_across_worked_example(worked_example):
    steps = classify(worked_example).steps
    reduction = None
    for step in reversed(steps):
        if not step.schema_after.fds:
            continue
        lift = lift_through_simplification(step)
        reduction = lift if reduction is None else compose(lift, reduction)
    assert reduction is not None
    assert reduction.target.signature.attributes == ("A", "B", "C", "D", "E", "F")
    report = verify_reduction(reduction)
    assert report.ok and report.exhaustive


def test_compose_requires_matching_schemas():
    _, first = hard_case_witness(schema_2fd())
    _, second = hard_case_witness(schema_rl())
    with pytest.raises(ReductionError):
        compose(first, second)


# -- the empirical verifier --------------------------------------------------------

def test_verify_identity_map_clean():
    schema = schema_rl()
    identity = FactWiseReduction(schema, schema, ("A", "B", "C"))
    report = verify_reduction(identity, domain=("0", "1"))
    assert report.ok and report.facts_checked == 8


def test_verify_catches_corrupted_rules():
    _, reduction = hard_case_witness(schema_2fd())
    broken_rules = list(reduction.rules)
    broken_rules[-1] = "A"  # drop one case row's distinction
    broken = FactWiseReduction(
        reduction.source, reduction.target, tuple(broken_rules)
    )
    report = verify_reduction(broken)
    assert not report.ok
    kinds = {v.kind for v in report.violations}
    assert kinds & {"injectivity", "consistency", "inconsistency"}


def test_verify_sampling_mode_above_pair_budget():
    schema = schema_rl()
    identity = FactWiseReduction(schema, schema, ("A", "B", "C"))
    domain = tuple(str(i) for i in range(6))  # 216 facts, 23k pairs
    report = verify_reduction(identity, domain=domain, max_pairs=1000, seed=1)
    assert not report.exhaustive
    assert report.pairs_checked == 1000
    assert report.ok


def test_rule_validation():
    with pytest.raises(ReductionError):
        FactWiseReduction(schema_rl(), schema_rl(), ("A", "B"))
    with pytest.raises(ReductionError):
        FactWiseReduction(schema_rl(), schema_rl(), ("A", "B", "Z"))
