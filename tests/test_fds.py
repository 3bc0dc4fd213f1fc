import collections
import functools
import itertools
import pickle
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import inst_of, schema_of
from generators import random_instance, random_schema
from oracles import (
    closure_by_closed_sets,
    closure_by_fixpoint,
    canonical_fds_by_name,
    conflict_by_definition,
    consistent_by_definition,
    entails_by_two_fact_models,
    first_violated_fd,
    graph_pairs,
    local_minima,
    masks_by_name,
    minima_sites,
    project,
    render_fd_by_name,
    render_fds_by_name,
)

from fdrepair.fds import (
    DOT,
    Fd,
    FdSchema,
    Instance,
    SchemaError,
    Signature,
    _positions,
    closure,
    constant_key,
    entails,
    equivalent,
    is_consistent,
    normalize,
    pair_consistent,
)
from fdrepair.oracle import ConflictGraph
from fdrepair.simplify import classify, find_s3
from fdrepair.textio import SchemaDocument, format_schema


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
    assert first.render_fds() == "A,B -> C; C -> B"


def test_schema_checks_its_attributes_only_when_one_is_unknown(monkeypatch):
    """Building a schema converts its FDs' names to masks in one pass, so
    a wide schema costs O(FDs + arity), not O(FDs x arity). A valid build
    never calls ``check_attrs``; an unknown name calls it once, over the
    union of all FD attributes, and the error names every unknown one."""
    calls = []
    check_attrs = Signature.check_attrs

    def counting(signature, attrs):
        calls.append(signature)
        return check_attrs(signature, attrs)

    monkeypatch.setattr(Signature, "check_attrs", counting)
    for width in (2, 30, 300):
        attrs = tuple(f"A{i}" for i in range(width))
        fds = [Fd(set(), {"A0"})]
        fds += [Fd({f"A{i - 1}"}, {f"A{i}"}) for i in range(1, width)]
        calls.clear()
        schema = FdSchema(Signature("R", attrs), fds)
        assert calls == [] and len(schema.fds) == width
        for bad, unknown in (
            ([Fd({"A0"}, {"Z"})], "['Z']"),
            ([Fd({"Y"}, {"A0"}), Fd({"A0"}, {"Z", "A1"})], "['Y', 'Z']"),
        ):
            calls.clear()
            with pytest.raises(SchemaError) as caught:
                FdSchema(Signature("R", attrs), [*fds, *bad])
            assert str(caught.value) == f"attributes {unknown} not in relation R"
            assert len(calls) == 1


def test_instance_rejects_unhashable_cells():
    # a list, a set and a tuple that holds a list: each is no constant,
    # and the error names its type rather than failing to hash it
    sig = Signature("R", ("A", "B"))
    for bad, kind in ((["b"], "list"), ({"b"}, "set"), (("b", ["c"]), "list")):
        for facts in ([("a", bad)], [("a", "b"), ("a", bad), ("a", "b")]):
            with pytest.raises(SchemaError, match=f"unsupported constant type: {kind}$"):
                Instance(sig, facts)
            with pytest.raises(SchemaError, match=f"unsupported constant type: {kind}$"):
                Instance(sig, iter(facts))
    accepted = Instance(sig, iter([["a", "b"], ("a", "b"), ("a", ("b", DOT))]))
    assert accepted.facts == frozenset({("a", "b"), ("a", ("b", DOT))})


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
        assert inst.sorted_facts == tuple(sorted(inst.facts, key=constant_key))


# -- masks and rendering -----------------------------------------------------

def test_positions_walks_the_set_bits():
    """``_positions`` equals the walk over every bit below the highest,
    on small masks and on masks over 5,000 bits with few bits set."""
    rng = random.Random(83)
    masks = [0, 1, 2, 3, 1 << 4999, (1 << 5000) - 1]
    masks += [rng.getrandbits(rng.randint(1, 70)) for _ in range(2000)]
    for _ in range(300):
        bits = rng.sample(range(rng.randint(5000, 6000)), rng.randint(1, 6))
        masks.append(sum(1 << bit for bit in bits))
    for mask in masks:
        walked = tuple(i for i in range(mask.bit_length()) if mask >> i & 1)
        assert _positions(mask) == walked


def test_fd_renderers_equal_the_by_name_reference():
    """The one mask renderer gives the by-name reference's text for a
    schema's ``render_fds``, for a trace's terminal FDs and for every
    ``format_schema`` line, which raises on an empty rhs instead."""
    rng = random.Random(47)
    seen = collections.Counter()
    for _ in range(1500):
        schema = random_schema(rng, max_attrs=6, max_fds=5)
        sig = schema.signature
        assert schema.render_fds() == render_fds_by_name(schema)
        trace = classify(schema)
        assert trace._render_fds() == render_fds_by_name(trace.terminal)
        texts = [render_fd_by_name(sig, fd) for fd in schema.fds]
        empty = [text for fd, text in zip(schema.fds, texts) if not fd.rhs]
        document = SchemaDocument(relations=(schema,))
        if empty:
            message = f"fd R: {empty[0].rstrip()} has an empty rhs"
            with pytest.raises(SchemaError, match=re.escape(message)):
                format_schema(document)
        else:
            expected = [f"relation R({','.join(sig.attributes)})"]
            expected += [f"fd R: {text}" for text in texts]
            assert format_schema(document) == "\n".join(expected) + "\n"
        seen["empty lhs"] += any(not fd.lhs for fd in schema.fds)
        seen["rhs overlaps lhs"] += any(fd.lhs & fd.rhs for fd in schema.fds)
        seen["empty rhs"] += bool(empty)
        seen["stuck"] += bool(trace._fds)
    assert min(seen.values()) > 100, seen


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


def test_closure_converts_the_fds_to_masks_once_per_schema(monkeypatch):
    # closure, entails, equivalent and the classifier read the masks that
    # building the schema converted: none of them converts or builds again
    assert not isinstance(vars(FdSchema).get("_masks"), functools.cached_property)
    # B -> A, C -> D: B and C on the 2nd and 3rd positions of A, B, C, D
    assert schema_of("ABCD", "B->A", "C->D")._masks == ((2, 1), (4, 8))
    schema = schema_of("ABCDE", "A->B", "B->C", "CD->E", "->D")
    other = schema_of("ABCDE", "A->BC", "CD->E", "->D")
    masks = {s: vars(s)["_masks"] for s in (schema, other)}
    builds = collections.Counter()
    build = FdSchema.__init__

    def counting(self, signature, fds=()):
        builds[signature] += 1
        build(self, signature, fds)

    monkeypatch.setattr(FdSchema, "__init__", counting)
    attrs = schema.signature.attributes
    bases = [c for k in range(6) for c in itertools.combinations(attrs, k)]
    for base in itertools.islice(itertools.cycle(bases), 100):
        assert closure(schema, base).closure == closure_by_closed_sets(
            schema, frozenset(base)
        )
    assert schema._masks is masks[schema]
    for _ in range(25):
        assert entails(schema, Fd(frozenset("AD"), frozenset("E")))
        assert equivalent(schema, other) is equivalent(other, schema) is False
        classify(schema)
        find_s3(other)
    assert schema._masks is masks[schema] and other._masks is masks[other]
    assert builds == {}
    # a pickled schema rebuilds its masks, equal to the original's
    restored = pickle.loads(pickle.dumps(schema))
    assert vars(restored)["_masks"] == schema._masks and restored == schema
    assert builds == {schema.signature: 1}


def test_schema_order_and_masks_equal_the_by_name_reference():
    """2,000 seeded schemas, their FDs permuted and duplicated, often with
    an empty lhs, over attribute names whose order is not the signature's:
    ``fds``, ``_masks``, ``repr``, ``hash`` and a pickle round trip follow
    the canonical order found by name (``canonical_fds_by_name``), and of
    equal FDs the first given is the one kept."""
    rng = random.Random(30)
    seen = collections.Counter()
    for n in range(2000):
        # past ten columns, position order differs from digit-string order
        arity = rng.randint(1, 14 if n % 4 else 6)
        names = [f"{rng.choice('PQRS')}{i}" for i in range(arity)]
        rng.shuffle(names)
        signature = Signature(f"T{n}", tuple(names))
        fds = [
            Fd(
                rng.sample(names, rng.choice([0, 0, 1, 1, 2, 3]) % (arity + 1)),
                rng.sample(names, rng.randint(0, min(arity, 3))),
            )
            for _ in range(rng.randint(0, 8))
        ]
        given_fds = [Fd(fd.lhs, fd.rhs) for fd in fds + rng.choices(fds, k=len(fds))]
        rng.shuffle(given_fds)
        schema = FdSchema(signature, given_fds)
        expected = canonical_fds_by_name(signature, fds)
        seen["empty lhs"] += any(not fd.lhs for fd in expected)
        seen["duplicated"] += len(given_fds) > len(expected)
        seen["two or more"] += len(expected) > 1
        assert schema.fds == expected
        # of equal FDs the first given is kept, as a set keeps it: equal
        # frozensets may iterate differently, and so pickle differently
        first = {}
        for fd in given_fds:
            first.setdefault(fd, fd)
        assert all(fd is first[fd] for fd in schema.fds)
        assert vars(schema)["_masks"] == masks_by_name(signature, expected)
        rendered = "; ".join(render_fd_by_name(signature, fd) for fd in expected)
        assert repr(schema) == f"FdSchema(T{n}, [{rendered or '(none)'}])"
        assert hash(schema) == hash((signature, expected))
        reversed_schema = FdSchema(signature, reversed(given_fds))
        assert reversed_schema == schema and reversed_schema._masks == schema._masks
        restored = pickle.loads(pickle.dumps(schema))
        assert restored == schema and restored.fds == expected
        assert vars(restored)["_masks"] == schema._masks
        # the pickle holds the value only: no masks, no compiled getters
        schema._keys
        assert pickle.dumps(schema) == pickle.dumps(FdSchema(signature, schema.fds))
    assert min(seen.values()) > 500, seen


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


def _wide_chain(rng: random.Random, arity: int) -> FdSchema:
    """``-> A0; A0 -> A1; ...`` over ``arity`` shuffled columns, plus
    random FDs of up to three attributes a side."""
    attrs = [f"A{i}" for i in range(arity)]
    fds = [Fd(frozenset(), {"A0"})]
    fds += [Fd({attrs[i - 1]}, {attrs[i]}) for i in range(1, arity)]
    for _ in range(arity // 4):
        fds.append(Fd(rng.sample(attrs, rng.randint(0, 3)), rng.sample(attrs, 3)))
    rng.shuffle(attrs)
    return FdSchema(Signature("R", tuple(attrs)), fds)


def test_closure_and_entails_equal_the_references(monkeypatch):
    """Seeded schemas, one of them 400 columns wide: ``closure`` equals the
    fixpoint on names, ``entails`` the two-fact models (the fixpoint's
    entailment on the wide one), and each side of an FD is checked once."""
    rng = random.Random(29)
    schemas = [random_schema(rng, max_attrs=6, max_fds=5) for _ in range(300)]
    for schema in schemas:
        attrs = schema.signature.attributes
        for _ in range(3):
            base = frozenset(a for a in attrs if rng.random() < 0.4)
            assert closure(schema, base).closure == closure_by_fixpoint(schema, base)
            fd = Fd(base, frozenset(a for a in attrs if rng.random() < 0.4))
            assert entails(schema, fd) == entails_by_two_fact_models(schema, fd)
    wide = _wide_chain(rng, 400)
    attrs = wide.signature.attributes
    checks = collections.Counter()
    check_attrs = Signature.check_attrs

    def counting(signature, names):
        checks[signature] += 1
        return check_attrs(signature, names)

    monkeypatch.setattr(Signature, "check_attrs", counting)
    for base in (attrs[::2], attrs[1::2], attrs[:3], (), attrs):
        assert closure(wide, base).closure == closure_by_fixpoint(wide, base)
    for _ in range(40):
        fd = Fd(rng.sample(attrs, rng.randint(0, 3)), rng.sample(attrs, 2))
        expected = fd.rhs <= closure_by_fixpoint(wide, fd.lhs)
        assert entails(wide, fd) == expected
    # one check per closure, two per entailment: its lhs and its rhs
    assert checks == {wide.signature: 5 + 2 * 40}


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


# -- projection (the reference's, which the classifier's trace is checked against)

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


def test_project_equals_the_checked_construction():
    # every removed subset of seeded schemas: the one-pass projection
    # equals, hashes and reprs like the projected signature and FDs built
    # through the public constructors and then normalized
    rng = random.Random(22)
    projections = 0
    for _ in range(500):
        schema = random_schema(rng, max_attrs=6, max_fds=5)
        sig = schema.signature
        for r in range(sig.arity + 1):
            for removed in itertools.combinations(sig.attributes, r):
                gone = frozenset(removed)
                kept = tuple(a for a in sig.attributes if a not in gone)
                fds = [Fd(fd.lhs - gone, fd.rhs - gone) for fd in schema.fds]
                expected = normalize(FdSchema(Signature(sig.relation, kept), fds))
                projected = project(schema, removed)
                assert projected == expected
                assert hash(projected) == hash(expected)
                assert repr(projected) == repr(expected)
                projections += 1
    assert projections > 10000


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
    assert graph_pairs(schema, inst_of(schema, "1a", "2b")) == set()
    pairs = graph_pairs(schema, inst_of(schema, "1a", "1b", "2a"))
    assert pairs == {(("1", "a"), ("1", "b"))}


def test_violating_pairs_all_pairs_conflict():
    schema = schema_of("A", "->A")
    inst = inst_of(schema, "1", "2", "3")
    assert len(graph_pairs(schema, inst)) == 3
    assert ConflictGraph.build(schema, inst).edge_count == 3


def test_conflict_index_matches_the_definition():
    """Pairs and pair checks against a pairwise reading."""
    rng = random.Random(41)
    pool = ("0", "1", DOT, ("0", "1"))
    conflicts = multi = 0
    for _ in range(300):
        schema = random_schema(rng, max_attrs=5, max_fds=4)
        inst = random_instance(rng, schema.signature, max_facts=10, pool=pool)
        expected = set()
        for f, g in itertools.combinations(inst.sorted_facts, 2):
            fd = first_violated_fd(schema, f, g)
            assert pair_consistent(schema, f, g) == (fd is None)
            if fd is not None:
                expected.add((f, g))
                # also violating a later FD: the index joins the pair once
                rest = FdSchema(schema.signature, schema.fds[1:])
                multi += first_violated_fd(rest, f, g) not in (None, fd)
        assert graph_pairs(schema, inst) == expected
        assert is_consistent(schema, inst) == (not expected)
        conflicts += len(expected)
    assert conflicts > 300 and multi > 20


def test_pair_consistent_matches_the_definition():
    # seeded pairs over DOT, str and tuple cells (a tuple holding DOT
    # too), few enough values that pairs often agree; every schema gains
    # an empty-lhs FD and an FD whose rhs overlaps its lhs
    rng = random.Random(59)
    pool = ("0", "1", DOT, ("0",), ("0", DOT))
    outcomes = collections.Counter()
    for _ in range(400):
        schema = random_schema(rng, max_attrs=5, max_fds=3)
        attrs = schema.signature.attributes
        overlap = frozenset(rng.sample(attrs, rng.randint(1, len(attrs))))
        empty_lhs = Fd(frozenset(), frozenset(rng.sample(attrs, 1)))
        overlapping = Fd(overlap, overlap | {rng.choice(attrs)})
        added = FdSchema(schema.signature, (empty_lhs, overlapping))
        schema = FdSchema(schema.signature, schema.fds + added.fds)
        for _ in range(10):
            f, g = (tuple(rng.choice(pool) for _ in attrs) for _ in "fg")
            if rng.random() < 0.2:
                g = f
            expected = not conflict_by_definition(schema, f, g)
            assert pair_consistent(schema, f, g) == expected
            assert pair_consistent(schema, g, f) == expected
            outcomes[expected, conflict_by_definition(added, f, g)] += 1
    # consistent pairs, and conflicts with and without the added FDs
    assert outcomes[True, False] > 300
    assert outcomes[False, False] > 60 and outcomes[False, True] > 300


def test_consistent_iff_no_violating_pairs_random():
    rng = random.Random(17)
    for _ in range(60):
        schema = random_schema(rng, max_attrs=4)
        inst = random_instance(rng, schema.signature, max_facts=6)
        expected = consistent_by_definition(schema, inst.sorted_facts)
        assert is_consistent(schema, inst) == expected
        assert (not graph_pairs(schema, inst)) == expected


def test_signature_mismatch_raises():
    schema = schema_of("AB", "A->B")
    other = Instance(Signature("R", ("A", "C")), [("1", "2")])
    with pytest.raises(SchemaError):
        is_consistent(schema, other)
