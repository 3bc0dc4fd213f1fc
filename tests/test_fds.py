import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import inst_of, schema_of
from generators import random_instance, random_schema
from oracles import (
    closure_by_closed_sets,
    consistent_by_definition,
    entails_by_two_fact_models,
)

from fdrepair.fds import (
    DOT,
    Fd,
    FdSchema,
    Instance,
    SchemaError,
    Signature,
    closure,
    constant_key,
    entails,
    equivalent,
    fact_key,
    is_chain,
    is_consistent,
    local_minima,
    minima_sites,
    normalize,
    project,
    project_instance,
    saturate,
    violating_pairs,
)


# -- construction and canonical form ----------------------------------------

def test_signature_rejects_duplicates_and_empty_names():
    with pytest.raises(SchemaError):
        Signature("R", ("A", "A"))
    with pytest.raises(SchemaError):
        Signature("R", ("A", ""))
    with pytest.raises(SchemaError):
        Signature("", ("A",))


def test_arity_zero_signature_allowed():
    sig = Signature("R", ())
    assert Instance(sig, [()]).sorted_facts == ((),)
    assert len(Instance(sig, [])) == 0


def test_schema_rejects_unknown_attributes():
    sig = Signature("R", ("A", "B"))
    with pytest.raises(SchemaError):
        FdSchema(sig, [Fd({"A"}, {"C"})])


def test_fds_stored_canonically_regardless_of_input_order():
    first = schema_of("ABC", "C->B", "AB->C")
    second = schema_of("ABC", "AB->C", "C->B")
    assert first == second
    assert [fd.render(first.signature) for fd in first.fds] == [
        "A,B -> C",
        "C -> B",
    ]


def test_instance_dedupes_and_checks_arity():
    sig = Signature("R", ("A", "B"))
    inst = Instance(sig, [("1", "a"), ("1", "a"), ("2", "b")])
    assert len(inst) == 2
    with pytest.raises(SchemaError):
        Instance(sig, [("1",)])


def test_instance_rejects_unsupported_cell_values():
    sig = Signature("R", ("A", "B"))
    for bad in (1, 2.5, None, ("a", 1), (("a",), None)):
        with pytest.raises(SchemaError):
            Instance(sig, [("1", "2"), ("1", bad)])
    with pytest.raises(SchemaError):
        Instance(sig, [(1, "2"), (1, "3")])
    accepted = Instance(
        sig, [(DOT, "a"), ("x", ("a", DOT)), (("p", ("q", "r")), "b")]
    )
    assert len(accepted) == 3


def test_constant_order_dot_then_strings_then_tuples():
    values = [("x", "1"), "z", DOT, "a", ("a",)]
    ordered = sorted(values, key=constant_key)
    assert ordered == [DOT, "a", "z", ("a",), ("x", "1")]


def _random_constant(rng, depth=0):
    roll = rng.random()
    if roll < 0.15:
        return DOT
    if roll < 0.3 and depth < 2:
        return tuple(
            _random_constant(rng, depth + 1) for _ in range(rng.randint(0, 3))
        )
    return rng.choice(["", "0", "1", "10", "a", "b", "~"])


def test_sorted_facts_is_canonical_order():
    rng = random.Random(41)
    sig = Signature("R", ("A", "B", "C"))
    str_only = [
        tuple(rng.choice(["", "0", "1", "10", "a"]) for _ in range(3))
        for _ in range(40)
    ]
    # gadget facts: nested tuples of strings and DOT
    gadget = [
        (("1", ("a", DOT)), ("2",), DOT),
        (("1", ("a", "b")), ("2",), DOT),
        (("1",), ("2", "3"), DOT),
        (("0", ("b",)), (), DOT),
        ((), ("1",), DOT),
    ]
    with_dot = [(DOT, "1", "a"), ("0", "1", "a"), (DOT, DOT, "b"), ("0", DOT, "a")]
    # str, tuple and DOT mixed in one column
    mixed = [("1", "x", "y"), (("1",), "x", "y"), (DOT, "x", "y"), ("0", "x", "z")]
    drawn = [
        tuple(_random_constant(rng) for _ in range(3)) for _ in range(60)
    ]
    for facts in (str_only, gadget, with_dot, mixed, drawn):
        inst = Instance(sig, facts)
        assert inst.sorted_facts == tuple(sorted(inst.facts, key=fact_key))


# -- closure / entailment / equivalence -------------------------------------

def test_closure_no_fds_is_identity():
    schema = schema_of("A")
    result = closure(schema, {"A"})
    assert result.closure == {"A"} and result.proper == frozenset()


def test_closure_follows_chains():
    schema = schema_of("ABC", "A->B", "B->C")
    result = closure(schema, {"A"})
    assert result.closure == {"A", "B", "C"}
    assert result.proper == {"B", "C"}
    assert result.closure == closure_by_closed_sets(schema, frozenset("A"))


def test_closure_requires_full_lhs():
    schema = schema_of("ABC", "AB->C", "C->B")
    result = closure(schema, {"C"})
    assert result.closure == {"B", "C"} and result.proper == {"B"}
    assert result.closure == closure_by_closed_sets(schema, frozenset("C"))


def test_closure_rejects_unknown_attribute():
    with pytest.raises(SchemaError):
        closure(schema_of("AB"), {"Z"})


def test_closure_matches_closed_set_oracle_on_random_schemas():
    rng = random.Random(11)
    for _ in range(40):
        schema = random_schema(rng, max_attrs=4)
        attrs = schema.signature.attributes
        base = frozenset(a for a in attrs if rng.random() < 0.5)
        assert closure(schema, base).closure == closure_by_closed_sets(
            schema, base
        )


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_closure_laws(data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    schema = random_schema(rng, max_attrs=5)
    attrs = schema.signature.attributes
    small = frozenset(a for a in attrs if rng.random() < 0.4)
    large = small | frozenset(a for a in attrs if rng.random() < 0.4)
    assert small <= closure(schema, small).closure  # extensive
    assert closure(schema, small).closure <= closure(schema, large).closure
    once = closure(schema, small).closure
    assert closure(schema, once).closure == once  # idempotent


def test_entails_transitivity_and_trivial_cases():
    schema = schema_of("ABC", "A->B", "B->C")
    assert entails(schema, Fd({"A"}, {"C"}))
    assert entails(schema_of("A"), Fd({"A"}, {"A"}))
    assert not entails(schema_of("AB", "A->B"), Fd({"B"}, {"A"}))


def test_entails_matches_two_fact_model_oracle():
    rng = random.Random(5)
    for _ in range(25):
        schema = random_schema(rng, max_attrs=4, max_fds=3)
        attrs = schema.signature.attributes
        fd = Fd(
            frozenset(a for a in attrs if rng.random() < 0.4),
            frozenset(a for a in attrs if rng.random() < 0.5) or {attrs[0]},
        )
        assert entails(schema, fd) == entails_by_two_fact_models(schema, fd)


def test_equivalent_published_pair():
    first = schema_of("ABC", "A->BC", "C->A")
    second = schema_of("ABC", "A->C", "C->AB")
    assert equivalent(first, second)
    assert equivalent(first, first)
    assert not equivalent(schema_of("AB", "A->B"), schema_of("AB", "B->A"))


def test_equivalent_requires_same_signature():
    with pytest.raises(SchemaError):
        equivalent(schema_of("AB"), schema_of("BA"))


def test_equivalent_is_symmetric_and_transitive_spotcheck():
    rng = random.Random(3)
    for _ in range(20):
        s1 = random_schema(rng, max_attrs=3, max_fds=3)
        s2 = FdSchema(s1.signature, random_schema(rng, max_attrs=3).fds and s1.fds)
        s3 = normalize(s1)
        assert equivalent(s1, s1)
        assert equivalent(s1, s3) == equivalent(s3, s1)
        if equivalent(s1, s2) and equivalent(s2, s3):
            assert equivalent(s1, s3)


# -- normalize ---------------------------------------------------------------

def test_normalize_drops_lhs_attributes_from_rhs():
    assert normalize(schema_of("ABCD", "AB->ACD")) == schema_of("ABCD", "AB->CD")


def test_normalize_drops_fully_trivial_fds():
    assert normalize(schema_of("AB", "A->A")).fds == ()


def test_normalize_drops_empty_rhs_only():
    schema = schema_of("EF", "->", "->E", "->F")
    assert normalize(schema) == schema_of("EF", "->E", "->F")


def test_normalize_idempotent_and_equivalence_preserving():
    rng = random.Random(9)
    for _ in range(50):
        schema = random_schema(rng)
        norm = normalize(schema)
        assert normalize(norm) == norm
        assert equivalent(schema, norm)


def test_saturate_is_equivalent():
    rng = random.Random(13)
    for _ in range(30):
        schema = random_schema(rng)
        assert equivalent(schema, saturate(schema))


# -- minima and chains -------------------------------------------------------

def test_local_minima_incomparable_pair():
    schema = schema_of("ABC", "AB->C", "C->B")
    assert set(local_minima(schema)) == set(schema.fds)


def test_local_minima_empty_lhs_dominates():
    schema = schema_of("ABC", "->A", "B->C")
    assert local_minima(schema) == (Fd(frozenset(), {"A"}),)


def test_local_minima_single_fd():
    schema = schema_of("AB", "A->B")
    assert local_minima(schema) == schema.fds


def test_minima_sites_collapse_equal_lhs():
    schema = schema_of("ABC", "A->B", "A->C", "BC->A")
    assert minima_sites(schema) == (frozenset("A"), frozenset("BC"))


def test_is_chain():
    assert is_chain(schema_of("ABC", "->A", "B->C"))
    assert not is_chain(schema_of("ABC", "AB->C", "C->B"))
    assert is_chain(schema_of("AB"))


# -- projection --------------------------------------------------------------

def test_project_worked_example_first_step():
    schema = schema_of("ABCDEF", "->A", "DB->ACE", "DC->B", "DB->F")
    assert project(schema, {"A"}) == schema_of("BCDEF", "DB->CE", "DC->B", "DB->F")


def test_project_nothing_is_normalization():
    schema = schema_of("ABC", "AB->AC")
    assert project(schema, set()) == normalize(schema)


def test_project_worked_example_final_step():
    schema = schema_of("BCEF", "B->CE", "C->B", "B->F")
    assert project(schema, {"B", "C"}) == schema_of("EF", "->E", "->F")


def test_project_composes_over_disjoint_sets():
    rng = random.Random(21)
    for _ in range(40):
        schema = random_schema(rng, max_attrs=5)
        attrs = schema.signature.attributes
        first = frozenset(a for a in attrs if rng.random() < 0.3)
        second = frozenset(
            a for a in attrs if a not in first and rng.random() < 0.3
        )
        assert project(project(schema, first), second) == project(
            schema, first | second
        )


def test_project_instance_drops_columns_and_dedupes():
    sig = Signature("R", ("A", "B"))
    inst = Instance(sig, [("v", "1"), ("v", "2")])
    assert project_instance(inst, {"A"}).sorted_facts == (("1",), ("2",))
    merged = Instance(sig, [("u", "1"), ("v", "1")])
    assert len(project_instance(merged, {"A"})) == 1


def test_project_instance_block_preserves_count():
    sig = Signature("R", ("A", "B", "C"))
    block = Instance(sig, [("v", "1", "x"), ("v", "2", "y")])
    assert len(project_instance(block, {"A"})) == 2


# -- consistency -------------------------------------------------------------

def test_consistency_no_fds():
    sig = Signature("R", ("A",))
    schema = FdSchema(sig)
    assert is_consistent(schema, Instance(sig, [("1",), ("2",)]))


def test_consistency_direct_violation():
    schema = schema_of("AB", "A->B")
    assert not is_consistent(schema, inst_of(schema, "1a", "1b"))


def test_consistency_agreeing_pair():
    schema = schema_of("ABC", "AB->C", "C->B")
    assert is_consistent(schema, inst_of(schema, "123", "223"))


def test_violating_pairs_counts():
    schema = schema_of("AB", "A->B")
    assert violating_pairs(schema, inst_of(schema, "1a", "2b")) == frozenset()
    pairs = violating_pairs(schema, inst_of(schema, "1a", "1b", "2a"))
    assert len(pairs) == 1
    ((f, g, fd),) = pairs
    assert fact_key(f) < fact_key(g)
    assert fd == Fd({"A"}, {"B"})


def test_violating_pairs_all_pairs_conflict():
    schema = schema_of("A", "->A")
    inst = inst_of(schema, "1", "2", "3")
    assert len(violating_pairs(schema, inst)) == 3


def test_consistent_iff_no_violating_pairs_random():
    rng = random.Random(17)
    for _ in range(60):
        schema = random_schema(rng, max_attrs=4)
        inst = random_instance(rng, schema.signature, max_facts=6)
        empty = not violating_pairs(schema, inst)
        assert is_consistent(schema, inst) == empty
        assert empty == consistent_by_definition(schema, inst.sorted_facts)


def test_signature_mismatch_raises():
    schema = schema_of("AB", "A->B")
    other = Instance(Signature("R", ("A", "C")), [("1", "2")])
    with pytest.raises(SchemaError):
        is_consistent(schema, other)
