import itertools
import pickle
import random
from collections import Counter

import pytest

from conftest import schema_of
from generators import (
    random_cnf,
    random_instance,
    random_intractable_schema,
    random_schema,
    redundant_basis,
)
from oracles import (
    cnf_satisfiable,
    image_by_name,
    max_edge_disjoint_triangles,
    projection_steps,
    reduction_violations_by_pairs,
    terminal_witness_by_closures,
    witness_by_closures,
)

from fdrepair.fds import DOT, Fd, FdSchema, Signature, normalize
from fdrepair.gadgets import (
    CnfFormula,
    FactWiseReduction,
    GadgetError,
    HARD_SCHEMAS,
    ReductionError,
    TripartiteGraph,
    gadget_2fd,
    gadget_2r,
    gadget_rl,
    gadget_tr,
    hard_case_witness,
    verify_reduction,
)
from fdrepair.oracle import CapExceededError, brute_force_crep
from fdrepair.repair import find_crep
from fdrepair.simplify import classify


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
    assert brute_force_crep(HARD_SCHEMAS["2fd"], inst).size == 2


def test_gadget_2fd_unit_clause():
    inst = gadget_2fd(CnfFormula(1, [[1]]))
    assert len(inst) == 1
    assert brute_force_crep(HARD_SCHEMAS["2fd"], inst).size == 1


def test_gadget_2fd_contradiction_falls_short():
    inst = gadget_2fd(CnfFormula(1, [[1], [-1]]))
    assert brute_force_crep(HARD_SCHEMAS["2fd"], inst).size == 1  # below m = 2


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
    assert brute_force_crep(HARD_SCHEMAS["rl"], inst).size == 2  # satisfiable


def test_gadget_2r_structural_third_column():
    inst = gadget_2r(CnfFormula(1, [[1, -1]]))
    assert inst.facts == {
        ("c1", "x1", ("x1", "1")),
        ("c1", "x1", ("x1", "0")),
    }
    assert brute_force_crep(HARD_SCHEMAS["2r"], inst).size == 1


def test_gadget_size_tracks_satisfiability_on_random_formulas():
    rng = random.Random(31)
    for _ in range(40):
        formula = random_cnf(rng, max_vars=5, max_clauses=4)
        sat = cnf_satisfiable(formula)
        m = len(formula.clauses)
        for build, schema in (
            (gadget_rl, HARD_SCHEMAS["rl"]),
            (gadget_2r, HARD_SCHEMAS["2r"]),
        ):
            size = brute_force_crep(schema, build(formula)).size
            assert size <= m
            assert (size == m) == sat


# -- triangle gadget ------------------------------------------------------------

def test_gadget_tr_single_triangle():
    graph = TripartiteGraph(("a",), ("b",), ("c",), [("a", "b", "c")])
    assert brute_force_crep(HARD_SCHEMAS["tr"], gadget_tr(graph)).size == 1


def test_gadget_tr_shared_edge_vs_shared_node():
    shared_edge = TripartiteGraph(
        ("a1",), ("b1",), ("c1", "c2"),
        [("a1", "b1", "c1"), ("a1", "b1", "c2")],
    )
    assert max_edge_disjoint_triangles(shared_edge) == 1
    assert brute_force_crep(HARD_SCHEMAS["tr"], gadget_tr(shared_edge)).size == 1

    shared_node = TripartiteGraph(
        ("a1", "a2"), ("b1", "b2"), ("c1",),
        [("a1", "b1", "c1"), ("a2", "b2", "c1")],
    )
    assert max_edge_disjoint_triangles(shared_node) == 2
    assert brute_force_crep(HARD_SCHEMAS["tr"], gadget_tr(shared_node)).size == 2


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
    _, reduction = hard_case_witness(HARD_SCHEMAS["tr"])
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
    assert [s.removed_attributes for s in trace.steps] == [frozenset("ABC")]
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


# -- padding through the applied rewrites ----------------------------------------

def test_witness_pads_every_removed_column():
    """The witness is the stuck schema's map, DOT-padded onto the input:
    the reference's case and rules on the terminal schema, and the
    reference's whole reduction."""
    rng = random.Random(41)
    checked = 0
    while checked < 200:
        schema = random_intractable_schema(rng, max_attrs=6, max_fds=5)
        trace = classify(schema)
        if not trace.steps:
            continue
        witness = hard_case_witness(schema)
        assert witness == witness_by_closures(schema), schema
        case_id, reduction = witness
        terminal_case, core, rules = terminal_witness_by_closures(trace.terminal)
        assert case_id == terminal_case
        assert reduction.source == HARD_SCHEMAS[core]
        assert reduction.target is schema
        removed = frozenset().union(*(s.removed_attributes for s in trace.steps))
        kept = dict(zip(trace.terminal.signature.attributes, rules))
        assert removed.isdisjoint(kept)
        attrs = reduction.target.signature.attributes
        assert removed | kept.keys() == set(attrs)
        for attr, rule in zip(attrs, reduction.rules):
            if attr in removed:
                assert rule is DOT, (schema, attr)
            else:
                assert rule == kept[attr], (schema, attr)
        report = verify_reduction(reduction)
        assert report.ok and report.exhaustive, (schema, report.violations[:2])
        checked += 1


def _spellings_not_normal(rng: random.Random, schema: FdSchema) -> list:
    """Two equivalent spellings of ``schema``, neither of them normal: one
    with an added FD whose rhs overlaps its lhs, implied by augmenting
    some FD with one attribute, and a trivial FD ``X -> X``; and the
    :func:`redundant_basis` spelling of that one, whose split of
    ``X -> X`` puts every rhs inside its lhs."""
    attrs = schema.signature.attributes
    fd = rng.choice(schema.fds)
    extra = {rng.choice(attrs)}
    trivial = frozenset(rng.sample(attrs, rng.randint(1, len(attrs))))
    added = (Fd(fd.lhs | extra, fd.rhs | extra), Fd(trivial, trivial))
    augmented = FdSchema(schema.signature, schema.fds + added)
    return [augmented, redundant_basis(rng, augmented)]


def test_witness_onto_a_schema_that_is_not_normal_checks_as_onto_its_normal_form():
    """Normalizing changes no conflicting pair, so the witness's report
    onto the input as given equals, field by field, the report of the
    same rules onto the normalized input, and both are ok."""
    rng = random.Random(29)
    checked = 0
    cases = Counter()
    while checked < 1000:
        for spelling in _spellings_not_normal(rng, random_intractable_schema(rng)):
            normal = normalize(spelling)
            assert normal is not spelling and normal != spelling, spelling
            case_id, reduction = hard_case_witness(spelling)
            assert reduction.target is spelling
            onto_normal = FactWiseReduction(reduction.source, normal, reduction.rules)
            # one trace, so one case and one rule table, for both forms
            assert hard_case_witness(normal) == (case_id, onto_normal)
            report = verify_reduction(reduction)
            expected = verify_reduction(onto_normal)
            assert report.pairs_checked == expected.pairs_checked == 7
            assert report.exhaustive == expected.exhaustive
            assert report.violations == expected.violations == (), spelling
            assert report == expected and report.ok
            cases[case_id] += 1
        checked += 1
    assert set(cases) == {1, 2, 3, 4, 5}, cases


def test_witness_equals_the_closure_loop():
    """On seeded random hard schemas of up to 7 attributes, the witness is
    the reference's: case id, source, target and rules."""
    rng = random.Random(97)
    cases = Counter()
    stepped = 0
    for _ in range(1500):
        schema = random_intractable_schema(rng, max_attrs=7, max_fds=6)
        witness = hard_case_witness(schema)
        assert witness == witness_by_closures(schema), schema
        cases[witness[0]] += 1
        stepped += bool(classify(schema).kinds)
    assert set(cases) == {1, 2, 3, 4, 5}, cases
    # some schemas lose columns to the rewrites before they get stuck
    assert min(cases.values()) >= 20 and stepped >= 100, (cases, stepped)


def _wide_hard_schema(rng: random.Random, arity: int, count: int):
    """A schema over ``arity`` attributes that S2 and then S1 shrink before
    the rewrites get stuck: ``count`` random FDs, each with a shared
    attribute added to its lhs, and one FD with an empty lhs."""
    attrs = [f"A{i}" for i in range(arity)]
    rng.shuffle(attrs)
    shared, constant, *rest = attrs
    fds = [Fd(frozenset(), {constant})]
    for _ in range(count):
        lhs = set(rng.sample(rest, rng.randint(1, 3))) | {shared}
        fds.append(Fd(lhs, rng.sample(rest, rng.randint(1, 3))))
    return FdSchema(Signature("R", tuple(attrs)), fds)


def test_witness_on_a_wide_schema_equals_the_closure_loop():
    schema = _wide_hard_schema(random.Random(7), arity=64, count=300)
    trace = classify(schema)
    assert not trace.tractable and trace.kinds == ("S2", "S1")
    case_id, reduction = hard_case_witness(schema)
    assert (case_id, reduction) == witness_by_closures(schema)
    assert sum(rule is DOT for rule in reduction.rules) >= 2
    report = verify_reduction(reduction)
    assert report.ok, report.violations[:2]


def test_padding_map_reduces_each_step(worked_example):
    """Each rewrite reduces the schema after it to the schema before it.

    The paper's lemma: while FDs remain, copying the kept columns and
    putting DOT on the removed ones is injective and preserves conflicts.
    """
    rng = random.Random(43)
    schemas = [worked_example]
    schemas += [random_schema(rng, max_attrs=6, max_fds=5) for _ in range(1000)]
    kinds = Counter()
    for schema in schemas:
        steps = projection_steps(schema)[0]
        assert tuple(step.view for step in steps) == classify(schema).steps
        for step in steps:
            if not step.schema_after.fds:
                continue
            rules = tuple(
                DOT if attr in step.removed_attributes else attr
                for attr in step.schema_before.signature.attributes
            )
            padding = FactWiseReduction(step.schema_after, step.schema_before, rules)
            report = verify_reduction(padding)
            assert report.ok and report.exhaustive, (step, report.violations[:2])
            kinds[step.kind] += 1
    assert min(kinds[kind] for kind in ("S1", "S2", "S3")) >= 20, kinds


# -- the empirical verifier --------------------------------------------------------

def test_verify_identity_map_clean():
    schema = HARD_SCHEMAS["rl"]
    identity = FactWiseReduction(schema, schema, ("A", "B", "C"))
    report = verify_reduction(identity)
    assert report.ok and report.exhaustive and report.pairs_checked == 7


def _corrupted_2fd_witness():
    _, reduction = hard_case_witness(HARD_SCHEMAS["2fd"])
    broken_rules = list(reduction.rules)
    broken_rules[-1] = "A"  # drop one case row's distinction
    return FactWiseReduction(
        reduction.source, reduction.target, tuple(broken_rules)
    )


def test_verify_catches_corrupted_rules():
    report = verify_reduction(_corrupted_2fd_witness())
    assert not report.ok
    kinds = {v.kind for v in report.violations}
    assert kinds & {"injectivity", "consistency", "inconsistency"}


def _domain(size):
    return tuple(str(i) for i in range(size))


def _chain_identity(width):
    """The identity map of A->B, B->C, ... over ``width`` columns."""
    attrs = "ABCDEFGHIJ"[:width]
    chain = schema_of(attrs, *(f"{a}->{b}" for a, b in zip(attrs, attrs[1:])))
    return FactWiseReduction(chain, chain, tuple(attrs))


def test_verify_is_exhaustive_up_to_the_cap():
    """Sources up to 9 columns are checked on every agreement pattern;
    a 10-column source, 1024 facts over two values, is refused."""
    report = verify_reduction(_chain_identity(9))
    assert report.exhaustive and report.ok and report.pairs_checked == 511
    with pytest.raises(CapExceededError, match="1024 source facts"):
        verify_reduction(_chain_identity(10))


def _corrupted(reduction, rng):
    """The reduction with one rule replaced by DOT, a copied source
    attribute, a tuple of two, the empty tuple or a nested tuple."""
    source = reduction.source.signature.attributes
    a, b = rng.sample(source, 2)
    rules = list(reduction.rules)
    rules[rng.randrange(len(rules))] = rng.choice(
        [DOT, rng.choice(source), (a, b), (), (a, (DOT, b))]
    )
    return FactWiseReduction(reduction.source, reduction.target, tuple(rules))


def _patterns(violations) -> set:
    """Each violation's kind and the columns its pair agrees on."""
    return {
        (kind, tuple(u == v for u, v in zip(first, second)))
        for kind, first, second in violations
    }


def test_verify_violations_equal_the_pairwise_reference():
    """One pair per agreement pattern finds what every pair finds.

    On the witnesses of the four cores and of 150 random rejected
    schemas, and on four corrupted copies of each (770 maps), the kinds
    and agreement patterns that fail are those of every pair over 2, 3
    and 4 values. Over two values, the violations are the reference's
    pairs whose first fact is all "0", in the same order.
    """
    rng = random.Random(53)
    schemas = list(HARD_SCHEMAS.values())
    schemas += [random_intractable_schema(rng, 6, 5) for _ in range(150)]
    maps = 0
    kinds = set()
    for schema in schemas:
        _, reduction = hard_case_witness(schema)
        for fact_map in [reduction] + [_corrupted(reduction, rng) for _ in range(4)]:
            report = verify_reduction(fact_map)
            got = tuple((v.kind, v.first, v.second) for v in report.violations)
            zero = ("0",) * fact_map.source.signature.arity
            by_pairs = reduction_violations_by_pairs(fact_map, _domain(2))
            assert got == tuple(v for v in by_pairs if v[1] == zero)
            assert _patterns(got) == _patterns(by_pairs)
            for size in (3, 4):
                expected = reduction_violations_by_pairs(fact_map, _domain(size))
                assert _patterns(got) == _patterns(expected), (fact_map, size)
            kinds |= {kind for kind, _, _ in got}
            maps += 1
    assert maps == 770
    assert kinds == {"injectivity", "consistency", "inconsistency"}


def test_compiled_rules_equal_the_by_name_reference():
    """``apply`` evaluates the rules as the by-name reference does, on
    witnesses, on the corrupted rules above and on deeper tuples; and
    the compiled rules are no part of the reduction's value."""
    rng = random.Random(59)
    schemas = list(HARD_SCHEMAS.values())
    schemas += [random_intractable_schema(rng, 6, 5) for _ in range(40)]
    reductions = [hard_case_witness(schema)[1] for schema in schemas]
    for reduction in list(reductions):
        reductions += [_corrupted(reduction, rng) for _ in range(3)]
        a, b, c = reduction.source.signature.attributes
        deeper = ((a, (DOT, b)), (c,), (), ((a, b), (c, (b, DOT))))
        rules = tuple(rng.choice(deeper) for _ in reduction.rules)
        reductions.append(
            FactWiseReduction(reduction.source, reduction.target, rules)
        )
    facts = list(itertools.product(_domain(3), repeat=3))
    for reduction in reductions:
        images = [reduction.apply(fact) for fact in facts]
        assert images == [image_by_name(reduction, fact) for fact in facts]
        assert "_compiled" in vars(reduction)
        fresh = FactWiseReduction(
            reduction.source, reduction.target, reduction.rules
        )
        restored = pickle.loads(pickle.dumps(reduction))
        for other in (fresh, restored):
            assert other == reduction and hash(other) == hash(reduction)
            assert repr(other) == repr(reduction)
            assert [other.apply(fact) for fact in facts] == images


def test_rule_validation():
    """Bad rules raise when the reduction is built, at any depth, and a
    built reduction holds its compiled rules."""
    schema = HARD_SCHEMAS["rl"]
    with pytest.raises(ReductionError):
        FactWiseReduction(schema, schema, ("A", "B"))
    bad = [
        ("A", "B", "Z"),
        ("A", ("B", "Z"), "C"),
        ("A", ("B", (DOT, "Z")), "C"),
        ("A", ("B", 3), "C"),
        ("A", ["B"], "C"),
        ("A", (("B",), ["C"]), "C"),
        ("A", None, "C"),
    ]
    for rules in bad:
        with pytest.raises(ReductionError):
            FactWiseReduction(schema, schema, rules)
    reduction = FactWiseReduction(schema, schema, ("A", ("B", (DOT, "C")), DOT))
    assert "_compiled" in vars(reduction)
    assert reduction.apply(("a", "b", "c")) == ("a", ("b", (DOT, "c")), DOT)
