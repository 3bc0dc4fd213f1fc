import random

import pytest

from conftest import schema_of
from generators import random_chain_schema, random_schema, random_tractable_schema

from fdrepair.fds import (
    Fd,
    FdSchema,
    closure,
    equivalent,
    normalize,
    project,
    saturate,
)
from fdrepair.gadgets import HARD_SCHEMAS
from fdrepair.simplify import (
    NotApplicableError,
    apply_step,
    classify,
    find_s1,
    find_s2,
    find_s3,
    next_kind,
)


# -- rule detection ----------------------------------------------------------

def test_find_s1_common_attribute():
    assert find_s1(schema_of("BCDEF", "DB->CE", "DC->B", "DB->F")) == "D"


def test_find_s1_absent_for_hard_schema():
    assert find_s1(HARD_SCHEMAS["rl"]) is None


def test_find_s1_breaks_ties_by_signature_position():
    assert find_s1(schema_of("ABC", "AB->C")) == "A"


def test_find_s2_first_in_canonical_order():
    schema = schema_of("ABCDEF", "->A", "DB->ACE", "DC->B", "DB->F")
    assert find_s2(schema) == Fd(frozenset(), {"A"})
    assert find_s2(schema_of("AB", "A->B")) is None
    assert find_s2(schema_of("EF", "->E", "->F")) == Fd(frozenset(), {"E"})


def test_find_s3_worked_example_pair():
    # the witness is the lhs pair, not the FDs that spell it
    schema = schema_of("BCEF", "B->CE", "C->B", "B->F")
    assert find_s3(schema) == (frozenset("B"), frozenset("C"))


def test_find_s3_rejects_one_way_determination():
    assert find_s3(schema_of("ABC", "A->B", "B->C")) is None
    # equal closures are not enough: every lhs must contain X1 or X2
    assert find_s3(schema_of("ABCD", "A->B", "B->A", "CD->A")) is None
    assert find_s3(schema_of("ABCD", "A->B", "B->A", "AC->D")) == (
        frozenset("A"),
        frozenset("B"),
    )


def test_find_s3_mutual_pair():
    schema = schema_of("AB", "A->B", "B->A")
    assert find_s3(schema) == (frozenset("A"), frozenset("B"))


def test_find_s3_reads_closures_not_rhs(gap_schema):
    # A reaches B,C only through A -> B and then AB -> C, so no FD's rhs
    # holds BC, yet cl(A) = cl(BC)
    assert find_s3(gap_schema) == (frozenset("A"), frozenset("BC"))
    for spelling in (
        schema_of("ABC", "A->BC", "BC->A"),
        schema_of("ABC", "A->B", "A->C", "BC->A"),
    ):
        assert find_s3(spelling) == (frozenset("A"), frozenset("BC"))


def test_find_s3_is_the_lhs_marriage_definition():
    # first pair of distinct lhs (canonical FD order) that covers every
    # lhs and has equal closures, checked against a direct reading
    rng = random.Random(5)
    found = 0
    for _ in range(300):
        schema = normalize(random_schema(rng))
        sites = list(dict.fromkeys(fd.lhs for fd in schema.fds))
        expected = next(
            (
                (x1, x2)
                for i, x1 in enumerate(sites)
                for x2 in sites[i + 1 :]
                if all(x1 <= fd.lhs or x2 <= fd.lhs for fd in schema.fds)
                and closure(schema, x1).closure == closure(schema, x2).closure
            ),
            None,
        )
        assert find_s3(schema) == expected, schema
        found += expected is not None
    assert found >= 20


# -- applying steps ----------------------------------------------------------

def test_apply_step_s1_removes_the_attribute():
    step = apply_step(schema_of("ABC", "AB->C"), "S1")
    assert step.removed_attributes == {"A"}
    assert step.schema_after == schema_of("BC", "B->C")


def test_apply_step_s3_can_empty_the_schema():
    step = apply_step(schema_of("AB", "A->B", "B->A"), "S3")
    assert step.removed_attributes == {"A", "B"}
    assert step.schema_after.fds == ()
    assert step.schema_after.signature.arity == 0


def test_apply_step_not_applicable():
    with pytest.raises(NotApplicableError):
        apply_step(schema_of("AB", "A->B"), "S2")
    with pytest.raises(NotApplicableError):
        apply_step(schema_of("AB", "A->B"), "S3")


def test_apply_step_normalizes_before_matching():
    # the trivial FD must not block S2
    step = apply_step(schema_of("AB", "->A", "B->B"), "S2")
    assert step.schema_before == schema_of("AB", "->A")


# -- classification ----------------------------------------------------------

def test_classify_worked_example_full_trace(worked_example):
    trace = classify(worked_example)
    assert trace.tractable
    assert trace.kinds == ("S2", "S1", "S3", "S2", "S2")
    assert [sorted(s) for s in trace.removed_sets] == [
        ["A"],
        ["D"],
        ["B", "C"],
        ["E"],
        ["F"],
    ]
    assert trace.terminal.fds == ()


def test_classify_hard_schemas_stuck_immediately():
    for schema in HARD_SCHEMAS.values():
        trace = classify(schema)
        assert not trace.tractable
        assert trace.steps == ()
        assert trace.terminal == normalize(schema)


def test_classify_chain_schemas_always_tractable():
    rng = random.Random(2)
    for _ in range(60):
        assert classify(random_chain_schema(rng)).tractable


def test_classify_progress_and_replay():
    rng = random.Random(8)
    for _ in range(60):
        schema = random_schema(rng)
        trace = classify(schema)
        arity = normalize(schema).signature.arity
        current = normalize(schema)
        for step in trace.steps:
            assert step.schema_before == current
            assert step.schema_after.signature.arity < arity
            arity = step.schema_after.signature.arity
            # replaying the recorded removal reproduces the next schema
            assert project(step.schema_before, step.removed_attributes) == (
                step.schema_after
            )
            current = step.schema_after
        assert current == trace.terminal
        assert trace.tractable == (not trace.terminal.fds)
        assert next_kind(trace.terminal) is None


def test_classify_step_witnesses_recheck():
    rng = random.Random(12)
    for _ in range(40):
        trace = classify(random_tractable_schema(rng))
        for step in trace.steps:
            if step.kind == "S1":
                assert find_s1(step.schema_before) == step.witness
            elif step.kind == "S2":
                assert find_s2(step.schema_before) == step.witness
            else:
                assert find_s3(step.schema_before) == step.witness


def _split_rhs(schema: FdSchema) -> FdSchema:
    """One FD per rhs attribute; equivalent to the input."""
    return FdSchema(
        schema.signature,
        [Fd(fd.lhs, {a}) for fd in schema.fds for a in fd.rhs],
    )


def test_classifier_is_invariant_under_equivalence(gap_schema):
    """Equivalent spellings of one FD set get one verdict."""
    rng = random.Random(41)
    schemas = [gap_schema] + [
        random_schema(rng, max_attrs=6, max_fds=5) for _ in range(2000)
    ]
    verdicts = set()
    for schema in schemas:
        verdict = classify(schema).tractable
        verdicts.add(verdict)
        for rewriting in (normalize, saturate, _split_rhs):
            other = rewriting(schema)
            assert equivalent(schema, other)
            assert classify(other).tractable == verdict, (schema, other)
    assert verdicts == {True, False}
    assert classify(gap_schema).tractable


def test_alternative_rule_orders_agree():
    """Any order of the three rules reaches the same verdict."""
    rng = random.Random(4)
    orders = [("S3", "S2", "S1"), ("S2", "S3", "S1")]
    divergences = 0
    for _ in range(80):
        schema = random_schema(rng)
        fixed = classify(schema).tractable
        for order in orders:
            current = normalize(schema)
            for _ in range(current.signature.arity + 1):
                if not current.fds:
                    break
                kind = next(
                    (
                        k
                        for k in order
                        if (
                            k == "S1"
                            and find_s1(current) is not None
                            or k == "S2"
                            and find_s2(current) is not None
                            or k == "S3"
                            and find_s3(current) is not None
                        )
                    ),
                    None,
                )
                if kind is None:
                    break
                current = apply_step(current, kind).schema_after
            if (not current.fds) != fixed:
                divergences += 1
    assert divergences == 0
