import importlib
import os
import pickle
import pkgutil
import random
import subprocess
import sys
from collections import Counter

import pytest

from conftest import schema_of
from generators import (
    random_chain_schema,
    random_intractable_schema,
    random_schema,
    random_tractable_schema,
)
from oracles import classify_by_projection, project, projection_steps, saturate

import fdrepair
from fdrepair import fds, simplify
from fdrepair.fds import (
    Fd,
    FdSchema,
    Instance,
    SchemaError,
    Signature,
    closure,
    equivalent,
    normalize,
)
from fdrepair.gadgets import HARD_SCHEMAS, hard_case_witness
from fdrepair.repair import find_crep
from fdrepair.simplify import (
    SimplificationStep,
    classify,
    find_s1,
    find_s2,
    find_s3,
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
# A step is its finder's witness and the removal of the witness's
# attributes, as classify records it; the reference's projection builds
# the schema after it.

def test_s1_step_removes_the_attribute():
    schema = schema_of("ABC", "AB->C")
    assert find_s1(schema) == "A"
    assert project(schema, {"A"}) == schema_of("BC", "B->C")
    step = classify(schema).steps[0]
    assert step == SimplificationStep("S1", frozenset("A"), "A")
    reference = projection_steps(schema)[0][0]
    assert reference.view == step
    assert reference.schema_after == schema_of("BC", "B->C")


def test_s3_step_can_empty_the_schema():
    schema = schema_of("AB", "A->B", "B->A")
    x1, x2 = find_s3(schema)
    assert x1 | x2 == {"A", "B"}
    after = project(schema, x1 | x2)
    assert after.fds == ()
    assert after.signature.arity == 0
    trace = classify(schema)
    (step,) = trace.steps
    assert (step.kind, step.removed_attributes) == ("S3", {"A", "B"})
    assert trace.terminal == after


def test_no_rule_applies_where_its_precondition_fails():
    schema = normalize(schema_of("AB", "A->B"))
    assert find_s2(schema) is None
    assert find_s3(schema) is None


def test_s2_matches_after_normalizing():
    # the trivial FD must not block S2
    schema = normalize(schema_of("AB", "->A", "B->B"))
    assert schema == schema_of("AB", "->A")
    assert find_s2(schema) == Fd(set(), {"A"})
    step = classify(schema_of("AB", "->A", "B->B")).steps[0]
    assert (step.kind, step.witness) == ("S2", Fd(set(), {"A"}))
    reference = projection_steps(schema_of("AB", "->A", "B->B"))[0][0]
    assert reference.view == step
    assert reference.schema_before == schema_of("AB", "->A")
    assert reference.schema_after == project(schema, {"A"})


# -- classification ----------------------------------------------------------

def test_classify_worked_example_full_trace(worked_example):
    trace = classify(worked_example)
    assert trace.tractable
    assert trace.kinds == ("S2", "S1", "S3", "S2", "S2")
    assert [sorted(s.removed_attributes) for s in trace.steps] == [
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
        steps = projection_steps(schema)[0]
        assert tuple(step.view for step in steps) == trace.steps
        for step in steps:
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
        # the terminal schema is normalized, and no rule applies to it
        assert normalize(trace.terminal) == trace.terminal
        for find in (find_s1, find_s2, find_s3):
            assert find(trace.terminal) is None


def test_classify_step_witnesses_recheck():
    rng = random.Random(12)
    for _ in range(40):
        schema = random_tractable_schema(rng)
        steps = projection_steps(schema)[0]
        assert tuple(step.view for step in steps) == classify(schema).steps
        for step in steps:
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
    # each rule's finder, and the attributes its witness removes
    rules = {
        "S1": (find_s1, lambda attr: {attr}),
        "S2": (find_s2, lambda fd: fd.rhs),
        "S3": (find_s3, lambda pair: pair[0] | pair[1]),
    }
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
                found = next(
                    (
                        (witness, rules[k][1])
                        for k in order
                        if (witness := rules[k][0](current)) is not None
                    ),
                    None,
                )
                if found is None:
                    break
                witness, removes = found
                after = project(current, removes(witness))
                assert after.signature.arity < current.signature.arity
                current = after
            if (not current.fds) != fixed:
                divergences += 1
    assert divergences == 0


# -- the schemas classify derives ------------------------------------------------

def test_trace_schemas_equal_the_checked_construction():
    """The one schema a trace builds, its terminal, and every schema of
    the reference's projection loop are the values that the validating
    constructors build from their attributes and FDs, down to FD order,
    hash, ``repr`` and pickle. The public constructors and ``project``
    still check what they are given."""
    rng = random.Random(71)
    schemas = [random_tractable_schema(rng, 6, 5) for _ in range(150)]
    schemas += [random_intractable_schema(rng, 6, 5) for _ in range(150)]
    seen = 0
    for schema in schemas:
        trace = classify(schema)
        derived = [trace.terminal]
        for step in projection_steps(schema)[0]:
            derived += [step.schema_before, step.schema_after]
        for got in derived:
            sig = got.signature
            checked = FdSchema(Signature(sig.relation, sig.attributes), got.fds)
            assert got == checked and hash(got) == hash(checked)
            assert repr(got) == repr(checked)
            assert pickle.dumps(got) == pickle.dumps(checked)
            restored = pickle.loads(pickle.dumps(got))
            assert restored == checked and hash(restored) == hash(checked)
            seen += 1
    assert seen > 900
    with pytest.raises(SchemaError):
        Signature("R", ("A", "B", "A"))
    with pytest.raises(SchemaError):
        FdSchema(Signature("R", ("A", "B")), [Fd({"A"}, {"C"})])
    with pytest.raises(SchemaError):
        project(schema_of("ABC", "A->B"), {"D"})


# -- the mask plan and its lazy views --------------------------------------------

def assert_same_trace(trace, schema):
    """The trace's fields are the values, hashes and ``repr`` that the
    step-by-step projection gives, before and after a pickle round trip
    of the trace."""
    expected = classify_by_projection(schema)
    fields = (trace.steps, trace.terminal, trace.tractable)
    assert fields == expected, schema
    assert hash(fields) == hash(expected)
    assert repr(trace) == (
        "SimplificationTrace(steps=%r, terminal=%r, tractable=%r)" % expected
    )
    restored = pickle.loads(pickle.dumps(trace))
    assert restored == trace and hash(restored) == hash(trace)
    assert (restored.steps, restored.terminal, restored.tractable) == expected
    assert repr(restored) == repr(trace)
    assert trace.kinds == tuple(step.kind for step in expected[0])
    # equal exactly when the normalized inputs are
    assert trace == classify(normalize(schema))
    assert (trace == classify(expected[1])) == (normalize(schema) == expected[1])
    return expected


def test_classify_equals_the_projection_loop():
    rng = random.Random(73)
    kinds = Counter()
    for _ in range(3000):
        schema = random_schema(rng, max_attrs=7, max_fds=6)
        steps, _, tractable = assert_same_trace(classify(schema), schema)
        kinds.update(step.kind for step in steps)
        kinds[tractable] += 1
    # every rule and both verdicts are exercised
    assert min(kinds[k] for k in ("S1", "S2", "S3", True, False)) >= 100, kinds


def test_trace_round_trips_through_pickle(worked_example, gap_schema):
    for schema in (worked_example, gap_schema, HARD_SCHEMAS["tr"]):
        trace = classify(schema)
        restored = pickle.loads(pickle.dumps(trace))
        assert restored == trace and hash(restored) == hash(trace)
        assert restored._plan == trace._plan


# the worked example, with an S3 step on one-column sites, and a schema
# whose S3 step joins two two-column sites
REPR_SCHEMAS = (
    "relation R(A,B,C,D,E,F)\nfd R: -> A\nfd R: D,B -> A,C,E\n"
    "fd R: D,C -> B\nfd R: D,B -> F\n"
    "relation S(A,B,C,D,E)\nfd S: A,B -> C,D\nfd S: C,D -> A,B\nfd S: A,B,C -> E\n"
)


def test_trace_repr_is_the_same_under_every_hash_seed():
    # attribute sets are frozensets, whose own repr follows string hashing
    program = (
        "from fdrepair.simplify import classify\n"
        "from fdrepair.textio import parse_schema\n"
        f"for schema in parse_schema({REPR_SCHEMAS!r}).relations:\n"
        "    print(repr(classify(schema)))\n"
    )
    src = os.path.dirname(os.path.dirname(fdrepair.__file__))
    reprs = set()
    for seed in ("0", "1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        run = subprocess.run(
            [sys.executable, "-c", program],
            env=env, capture_output=True, text=True, check=True,
        )
        reprs.add(run.stdout)
    assert len(reprs) == 1
    (text,) = reprs
    assert "removed_attributes=frozenset({'B', 'C'})" in text
    assert "witness=(frozenset({'A', 'B'}), frozenset({'C', 'D'}))" in text


def _package_modules() -> list:
    """The package and every module in it, imported."""
    names = [f"fdrepair.{info.name}" for info in pkgutil.iter_modules(fdrepair.__path__)]
    return [fdrepair, *map(importlib.import_module, names)]


@pytest.fixture
def schema_builds(monkeypatch):
    """Counts the ``normalize`` calls and the schemas built by
    ``FdSchema``, wherever the library calls them from."""
    counts = Counter()

    def counted(name, function):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return function(*args, **kwargs)

        return wrapper

    wrapper = counted("normalize", normalize)
    for module in _package_modules():
        if getattr(module, "normalize", None) is normalize:
            monkeypatch.setattr(module, "normalize", wrapper)
    monkeypatch.setattr(FdSchema, "__init__", counted("FdSchema", FdSchema.__init__))
    return counts


def test_find_crep_builds_no_schema(worked_example, schema_builds):
    rows = [tuple(f"{a}{i % 3}" for a in "ABCDEF") for i in range(9)]
    instance = Instance(worked_example.signature, rows)
    result = find_crep(worked_example, instance)
    assert result.trace.kinds == ("S2", "S1", "S3", "S2", "S2")
    assert result.size > 0
    # results compare and hash their traces by the input's masks
    again = find_crep(worked_example, instance)
    assert again == result and hash(again) == hash(result)
    assert len(result.trace.steps) == 5
    assert schema_builds == {}


def test_trace_views_are_built_once(worked_example, schema_builds):
    trace = classify(worked_example)
    steps = trace.steps
    assert len(steps) == 5 and trace.steps is steps
    again = classify(worked_example)
    assert trace == again and hash(trace) == hash(again)
    assert repr(trace) == repr(again)
    assert schema_builds == {}
    # the terminal is the one schema a trace builds, and it is kept
    terminal = trace.terminal
    assert terminal.fds == () and terminal.signature.attributes == ()
    assert trace.terminal is terminal
    assert schema_builds == {"FdSchema": 1}
    # the terminal of a hard schema with no step is the normalized input
    hard = classify(HARD_SCHEMAS["2fd"])
    assert hard.terminal == HARD_SCHEMAS["2fd"]
    assert schema_builds == {"FdSchema": 2}
    # and no module of the package has a projection to call
    assert not any(hasattr(module, "project") for module in _package_modules())


def test_hard_case_witness_builds_no_schema(schema_builds):
    # S1 removes D before the rewrites get stuck on the two-fd core; the
    # witness reads the stuck FD set's masks, not the terminal schema.
    # D,C -> B,C and A -> A make the input not normal
    schema = schema_of("DABC", "DAB->C", "DC->BC", "A->A")
    assert normalize(schema) != schema
    schema_builds.clear()
    case_id, reduction = hard_case_witness(schema)
    assert case_id == 5 and reduction.rules[0] is fds.DOT
    # the reduction targets the input as given
    assert reduction.target is schema
    assert schema_builds == {}


def test_traces_of_different_inputs_differ_on_one_plan():
    # both remove B by S2, then C by S1 and D by S2: only their inputs,
    # and so the first step's schema before it, differ
    first = classify(schema_of("BCD", "->B", "C->B", "C->D"))
    second = classify(schema_of("BCD", "->B", "C->D"))
    assert first._plan == second._plan and first.kinds == ("S2", "S1", "S2")
    assert first.tractable and second.tractable
    before = [
        projection_steps(schema_of("BCD", *fds))[0][0].schema_before
        for fds in (("->B", "C->B", "C->D"), ("->B", "C->D"))
    ]
    assert before[0] != before[1]
    assert first != second
    assert first == classify(schema_of("BCD", "C->B", "->B", "C->D"))
