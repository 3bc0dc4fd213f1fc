"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside pytest's own pass/fail output.
"""

import itertools
import random
import time

from conftest import schema_of
from generators import (
    random_cnf,
    random_instance,
    random_match_problem,
    random_schema,
    random_tractable_schema,
)

from fdrepair.cli import main
from fdrepair.fds import equivalent, is_consistent
from fdrepair.gadgets import (
    CnfFormula,
    HARD_SCHEMAS,
    TripartiteGraph,
    cnf_satisfiable,
    gadget_2fd,
    gadget_2r,
    gadget_rl,
    gadget_tr,
    hard_case_witness,
    max_edge_disjoint_triangles,
    schema_2fd,
    schema_2r,
    schema_rl,
    schema_tr,
    verify_reduction,
)
from fdrepair.oracle import brute_force_crep, brute_force_matching, is_s_repair
from fdrepair.repair import find_crep, max_weight_matching
from fdrepair.simplify import classify
from fdrepair.textio import parse_schema, read_instance_csv


def _verdict(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number} failed: {detail}"


def test_criterion_1_dichotomy_regression():
    started = time.perf_counter()
    ok = True
    for schema in HARD_SCHEMAS.values():
        trace = classify(schema)
        ok = ok and not trace.tractable and trace.steps == ()
    worked = schema_of("ABCDEF", "->A", "DB->ACE", "DC->B", "DB->F")
    trace = classify(worked)
    ok = ok and trace.tractable
    ok = ok and [sorted(s) for s in trace.removed_sets[:3]] == [
        ["A"],
        ["D"],
        ["B", "C"],
    ]
    ok = ok and trace.kinds[:3] == ("S2", "S1", "S3")
    ok = ok and all(kind == "S2" for kind in trace.kinds[3:])
    ok = ok and not trace.terminal.fds
    elapsed = time.perf_counter() - started
    _verdict(
        1,
        "dichotomy regression",
        ok and elapsed < 1.0,
        f"4 hard cores stuck, worked example tractable, {elapsed:.2f}s",
    )


def test_criterion_2_oracle_equivalence():
    started = time.perf_counter()
    rng = random.Random(2024)
    checked = 0
    for _ in range(200):
        schema = random_tractable_schema(rng, max_attrs=5, max_fds=4)
        instance = random_instance(rng, schema.signature, max_facts=12)
        result = find_crep(schema, instance)
        reference = brute_force_crep(schema, instance)
        assert result is not None
        assert result.size == reference.size, (schema, instance.sorted_facts)
        assert is_s_repair(schema, instance, result.repair)
        checked += 1
    elapsed = time.perf_counter() - started
    _verdict(
        2,
        "oracle equivalence",
        checked >= 200 and elapsed < 30.0,
        f"{checked} schema/instance pairs, exact size match, {elapsed:.1f}s",
    )


def test_criterion_3_negative_side_alignment():
    """Hard-side triangulation: every rejected schema is witnessed.

    Random rejected schemas are streamed until 100 are drawn. Each must
    make the repair engine abstain and must carry a hardness witness
    that the exhaustive reduction check accepts.
    """
    started = time.perf_counter()
    rng = random.Random(777)
    witnessed = 0
    drawn = 0
    cases = set()
    while drawn < 100:
        schema = random_schema(rng, max_attrs=5, max_fds=4)
        if classify(schema).tractable:
            continue
        drawn += 1
        instance = random_instance(rng, schema.signature, max_facts=6)
        assert find_crep(schema, instance) is None
        case_id, reduction = hard_case_witness(schema)
        assert case_id in {1, 2, 3, 4, 5}
        report = verify_reduction(reduction, domain=("0", "1", "2"))
        assert report.exhaustive and report.ok, (schema, report.violations[:2])
        cases.add(case_id)
        witnessed += 1
    elapsed = time.perf_counter() - started
    _verdict(
        3,
        "negative-side alignment",
        witnessed == drawn == 100 and cases == {1, 2, 3, 4, 5} and elapsed < 60.0,
        f"{witnessed} of {drawn} rejected schemas carry verified "
        f"witnesses, cases {sorted(cases)}, {elapsed:.1f}s",
    )


def test_criterion_4_gadgets_iff_satisfiable():
    started = time.perf_counter()
    variables = range(1, 5)
    positive = [
        clause
        for size in range(1, 5)
        for clause in itertools.combinations(variables, size)
    ]
    universe = positive + [tuple(-v for v in clause) for clause in positive]
    routes = (
        (gadget_2fd, schema_2fd()),
        (gadget_rl, schema_rl()),
        (gadget_2r, schema_2r()),
    )
    exhaustive_count = 0
    for count in range(1, 5):
        for clause_set in itertools.combinations(universe, count):
            formula = CnfFormula(4, clause_set)
            satisfiable = cnf_satisfiable(formula)
            m = len(formula.clauses)
            for build, schema in routes:
                size = brute_force_crep(schema, build(formula)).size
                assert (size == m) == satisfiable, (formula, build.__name__)
            exhaustive_count += 1
    rng = random.Random(4040)
    mixed_count = 0
    for _ in range(100):
        formula = random_cnf(rng, max_vars=8, max_clauses=5, mixed=True)
        satisfiable = cnf_satisfiable(formula)
        m = len(formula.clauses)
        for build, schema in ((gadget_rl, schema_rl()), (gadget_2r, schema_2r())):
            size = brute_force_crep(schema, build(formula)).size
            assert (size == m) == satisfiable, (formula, build.__name__)
        mixed_count += 1
    elapsed = time.perf_counter() - started
    _verdict(
        4,
        "gadget iff satisfiable",
        exhaustive_count == 31930 and mixed_count == 100 and elapsed < 60.0,
        f"{exhaustive_count} non-mixed formulas x3 routes, "
        f"{mixed_count} mixed x2 routes, {elapsed:.1f}s",
    )


def test_criterion_5_gadget_iff_triangle_packing():
    started = time.perf_counter()
    a_side, b_side, c_side = ("a1", "a2", "a3"), ("b1", "b2", "b3"), ("c1", "c2", "c3")
    universe = [(a, b, c) for a in a_side for b in b_side for c in c_side]
    schema = schema_tr()
    count = 0
    for size in range(0, 6):
        for chosen in itertools.combinations(universe, size):
            graph = TripartiteGraph(a_side, b_side, c_side, chosen)
            repair_size = brute_force_crep(schema, gadget_tr(graph)).size
            assert repair_size == max_edge_disjoint_triangles(graph), chosen
            count += 1
    elapsed = time.perf_counter() - started
    _verdict(
        5,
        "gadget iff triangle packing",
        count == 101584 and elapsed < 30.0,
        f"{count} triangle sets, exact packing match, {elapsed:.1f}s",
    )


def test_criterion_6_matching_correctness():
    started = time.perf_counter()
    rng = random.Random(606)
    for _ in range(100):
        problem = random_match_problem(rng, max_side=7, max_edges=16, max_weight=9)
        fast = max_weight_matching(problem)
        slow = brute_force_matching(problem)
        assert fast == slow, problem.edges
    elapsed = time.perf_counter() - started
    _verdict(
        6,
        "matching correctness",
        elapsed < 10.0,
        f"100 problems, identical weight and edge set, {elapsed:.1f}s",
    )


def test_criterion_7_fd_algebra_laws():
    from fdrepair.fds import closure, normalize, project

    started = time.perf_counter()
    rng = random.Random(707)
    checked = 0
    for _ in range(500):
        schema = random_schema(rng, max_attrs=6, max_fds=4)
        attrs = schema.signature.attributes
        small = frozenset(a for a in attrs if rng.random() < 0.4)
        large = small | frozenset(a for a in attrs if rng.random() < 0.4)
        assert small <= closure(schema, small).closure
        assert closure(schema, small).closure <= closure(schema, large).closure
        once = closure(schema, small).closure
        assert closure(schema, once).closure == once
        norm = normalize(schema)
        assert normalize(norm) == norm
        assert equivalent(schema, norm)
        first = frozenset(a for a in attrs if rng.random() < 0.3)
        second = frozenset(a for a in attrs if a not in first and rng.random() < 0.3)
        assert project(project(schema, first), second) == project(
            schema, first | second
        )
        checked += 1
    elapsed = time.perf_counter() - started
    _verdict(
        7,
        "fd algebra laws",
        checked == 500 and elapsed < 10.0,
        f"{checked} schemas, closure/normalize/project laws, {elapsed:.1f}s",
    )


def test_criterion_8_cli_round_trip(tmp_path, capsys):
    started = time.perf_counter()
    schema_text = (
        "relation R(A,B)\nfd R: A -> B\n"
        "relation S(X,Y,Z)\nfd S: X -> Y\nfd S: Y -> X\n"
    )
    schema_path = tmp_path / "schema.fd"
    schema_path.write_text(schema_text, encoding="utf-8")
    data = tmp_path / "data"
    data.mkdir()
    (data / "R.csv").write_text(
        "A,B\n1,a\n1,b\n2,c\n2,c\n3,a\n", encoding="utf-8"
    )
    (data / "S.csv").write_text(
        "X,Y,Z\n1,u,0\n1,v,0\n2,v,1\n3,w,0\n", encoding="utf-8"
    )
    out1, out2 = tmp_path / "out1", tmp_path / "out2"
    assert main([
        "repair", "--schema", str(schema_path), "--data", str(data),
        "--out", str(out1), "--stable",
    ]) == 0
    first_report = capsys.readouterr().out
    assert main([
        "repair", "--schema", str(schema_path), "--data", str(data),
        "--out", str(out2), "--stable",
    ]) == 0
    second_report = capsys.readouterr().out
    stable = first_report.replace(str(out1), "@OUT@") == second_report.replace(
        str(out2), "@OUT@"
    )
    files_identical = all(
        (out1 / name).read_text() == (out2 / name).read_text()
        for name in ("R.csv", "S.csv")
    )
    round_trip = True
    for schema in parse_schema(schema_text).relations:
        name = schema.signature.relation
        original = read_instance_csv(str(data / f"{name}.csv"), schema.signature)
        repaired = read_instance_csv(str(out1 / f"{name}.csv"), schema.signature)
        round_trip = round_trip and is_consistent(schema, repaired.instance)
        round_trip = round_trip and is_s_repair(
            schema, original.instance, repaired.instance
        )
    elapsed = time.perf_counter() - started
    _verdict(
        8,
        "cli round trip",
        stable and files_identical and round_trip,
        f"re-ingested repairs consistent and maximal, stable output "
        f"byte-identical, {elapsed:.1f}s",
    )
