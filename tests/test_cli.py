import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
from collections import Counter

import pytest
from generators import (
    A_B_B_A_SCHEMA,
    WORKED_EXAMPLE_SCHEMA,
    ab_c_a_d_rows,
    dense_rows,
    one_to_one_rows,
    worked_example_rows,
)

import fdrepair.repair
from fdrepair import cli, simplify
from fdrepair.cli import main
from fdrepair.fds import is_consistent
from fdrepair.oracle import is_s_repair
from fdrepair.textio import parse_schema, read_instance_csv

TRACTABLE_SCHEMA = "relation R(A,B)\nfd R: A -> B\n"
HARD_SCHEMA = "relation R(A,B,C)\nfd R: A,B -> C\nfd R: C -> B\n"
TWO_RELATIONS = (
    "relation R(A,B)\nfd R: A -> B\n"
    "relation S(X,Y)\nfd S: X -> Y\n"
)
GAP_SCHEMA = (
    "relation R(A,B,C)\nfd R: A -> B\nfd R: A,B -> C\nfd R: B,C -> A\n"
)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.fixture
def data_dir(tmp_path):
    d = tmp_path / "data"
    d.mkdir()
    (d / "R.csv").write_text("A,B\n1,a\n1,b\n2,c\n2,c\n", encoding="utf-8")
    return d


# -- classify -------------------------------------------------------------------

def test_classify_exit_zero_and_report(tmp_path, capsys):
    schema = write(tmp_path, "s.fd", TRACTABLE_SCHEMA)
    assert main(["classify", "--schema", schema]) == 0
    out = capsys.readouterr().out
    assert "tractable: true" in out
    assert "steps: S1:{A} S2:{B}" in out


def test_classify_exit_two_on_hard_relation(tmp_path, capsys):
    schema = write(tmp_path, "s.fd", TRACTABLE_SCHEMA + HARD_SCHEMA.replace("R", "T"))
    assert main(["classify", "--schema", schema]) == 2
    out = capsys.readouterr().out
    assert "tractable: false" in out and "tractable: true" in out


def test_classify_json(tmp_path, capsys):
    schema = write(tmp_path, "s.fd", HARD_SCHEMA)
    assert main(["classify", "--schema", schema, "--json"]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload[0]["relation"] == "R"
    assert payload[0]["tractable"] is False
    assert payload[0]["steps"] == []


def test_classify_missing_file_is_error(capsys):
    assert main(["classify", "--schema", "/nonexistent/x.fd"]) == 1
    assert "error:" in capsys.readouterr().err


def test_missing_schema_and_gadget_input_files_are_named_by_kind(tmp_path, capsys):
    missing = str(tmp_path / "missing.txt")
    for argv, kind in (
        (["classify", "--schema", missing], "schema"),
        (["gadget", "--type", "tr", "--in", missing, "--out", str(tmp_path / "o")], "input"),
    ):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read {kind} file: ") and missing in err
    assert not (tmp_path / "o").exists()


def test_classify_stable_is_deterministic(tmp_path, capsys):
    schema = write(tmp_path, "s.fd", TWO_RELATIONS)
    main(["classify", "--schema", schema, "--stable"])
    first = capsys.readouterr().out
    main(["classify", "--schema", schema, "--stable"])
    second = capsys.readouterr().out
    assert first == second
    assert "elapsed" not in first


# -- repair ----------------------------------------------------------------------

def test_repair_round_trip(tmp_path, data_dir, capsys):
    schema_path = write(tmp_path, "s.fd", TRACTABLE_SCHEMA)
    out_dir = tmp_path / "out"
    assert main([
        "repair", "--schema", schema_path, "--data", str(data_dir),
        "--out", str(out_dir), "--stable",
    ]) == 0
    report = capsys.readouterr().out
    assert "input-facts: 3" in report
    assert "dropped-duplicates: 1" in report
    assert "repair-size: 2" in report
    schema = parse_schema(TRACTABLE_SCHEMA).relations[0]
    original = read_instance_csv(str(data_dir / "R.csv"), schema.signature)
    repaired = read_instance_csv(str(out_dir / "R.csv"), schema.signature)
    assert is_consistent(schema, repaired.instance)
    assert is_s_repair(schema, original.instance, repaired.instance)



def test_repair_reads_byte_order_marked_files(tmp_path, capsys):
    # a schema file and a CSV saved with a leading UTF-8 BOM repair as
    # their plain copies do
    reports = []
    for encoding in ("utf-8", "utf-8-sig"):
        work = tmp_path / encoding
        (work / "data").mkdir(parents=True)
        schema_path = work / "s.fd"
        schema_path.write_text(TRACTABLE_SCHEMA, encoding=encoding)
        (work / "data" / "R.csv").write_text("A,B\n1,a\n1,b\n2,c\n", encoding=encoding)
        assert main([
            "repair", "--schema", str(schema_path), "--data", str(work / "data"),
            "--out", str(work / "out"), "--stable",
        ]) == 0
        reports.append(capsys.readouterr().out.replace(str(work), ""))
    assert "repair-size: 2" in reports[0]
    assert reports[0] == reports[1]
    plain, marked = (
        (tmp_path / encoding / "out" / "R.csv").read_bytes()
        for encoding in ("utf-8", "utf-8-sig")
    )
    assert plain == marked

# sha256 of the repaired CSV, pinned from the per-edge matcher the
# component split and the LP duals replaced: same repair, same bytes.
# The AB->C, A->D digest is from the engine that still recursed into
# one-fact blocks.
@pytest.mark.parametrize(
    "schema, attrs, rows, digest",
    [
        (
            WORKED_EXAMPLE_SCHEMA,
            "ABCDEF",
            lambda: worked_example_rows(random.Random(7), 1000),
            "55be6773e63c32e0763f671cd04429e34a57253abb31ee17c600e124203c6415",
        ),
        (
            A_B_B_A_SCHEMA,
            "ABC",
            lambda: one_to_one_rows(random.Random(6), keys=4000, cluster=2),
            "8df4c3cae71ebbc46e17038424e3e53c7a8c9c8e9f05ff87bd9dcd2f1e40f431",
        ),
        (
            "relation R(A,B,C,D)\nfd R: A,B -> C\nfd R: A -> D\n",
            "ABCD",
            lambda: ab_c_a_d_rows(random.Random(5), 500),
            "6f788dd3c583668ab8d3dd275378cc8073f39bb27f07be55dab67f099080e6b2",
        ),
    ],
    ids=["worked-example", "a-b-b-a-small-components", "ab-c-a-d-s1-s2"],
)
def test_repair_output_is_pinned(tmp_path, capsys, schema, attrs, rows, digest):
    schema_path = write(tmp_path, "s.fd", schema)
    data = tmp_path / "d"
    data.mkdir()
    (data / "R.csv").write_text(
        ",".join(attrs) + "\n" + "".join(",".join(r) + "\n" for r in rows()),
        encoding="utf-8",
    )
    out_dir = tmp_path / "o"
    assert main([
        "repair", "--schema", schema_path, "--data", str(data),
        "--out", str(out_dir), "--stable",
    ]) == 0
    capsys.readouterr()
    assert hashlib.sha256((out_dir / "R.csv").read_bytes()).hexdigest() == digest


def test_repair_intractable_without_fallback(tmp_path, capsys):
    schema_path = write(tmp_path, "s.fd", HARD_SCHEMA)
    data = tmp_path / "d"
    data.mkdir()
    (data / "R.csv").write_text("A,B,C\n1,1,0\n1,1,1\n", encoding="utf-8")
    code = main([
        "repair", "--schema", schema_path, "--data", str(data),
        "--out", str(tmp_path / "o"),
    ])
    assert code == 1
    assert "intractable" in capsys.readouterr().err


def test_repair_fallback_oracle(tmp_path, capsys):
    schema_path = write(tmp_path, "s.fd", HARD_SCHEMA)
    data = tmp_path / "d"
    data.mkdir()
    (data / "R.csv").write_text("A,B,C\n1,1,0\n1,1,1\n", encoding="utf-8")
    out_dir = tmp_path / "o"
    code = main([
        "repair", "--schema", schema_path, "--data", str(data),
        "--out", str(out_dir), "--fallback-oracle", "10", "--stable",
    ])
    assert code == 0
    report = capsys.readouterr().out
    assert "  tractable: false\n  steps: (none)\n  method: oracle\n" in report
    assert "repair-size: 1" in report
    assert (out_dir / "R.csv").read_text(encoding="utf-8") == "A,B,C\n1,1,0\n"


def test_repair_fallback_oracle_reports_the_applied_rewrites(tmp_path, capsys):
    # S1 removes D, then {A,B -> C; C -> B} is stuck
    schema_path = write(
        tmp_path, "s.fd", "relation R(A,B,C,D)\nfd R: D,A,B -> C\nfd R: D,C -> B\n"
    )
    data = tmp_path / "d"
    data.mkdir()
    (data / "R.csv").write_text(
        "A,B,C,D\n1,1,1,0\n1,1,0,0\n2,0,0,0\n1,1,1,1\n", encoding="utf-8"
    )
    out_dir = tmp_path / "o"
    code = main([
        "repair", "--schema", schema_path, "--data", str(data),
        "--out", str(out_dir), "--fallback-oracle", "10", "--stable",
    ])
    assert code == 0
    report = capsys.readouterr().out
    assert "  tractable: false\n  steps: S1:{D}\n  method: oracle\n" in report
    assert "repair-size: 3" in report
    assert (out_dir / "R.csv").read_text(encoding="utf-8") == (
        "A,B,C,D\n1,1,1,0\n1,1,1,1\n2,0,0,0\n"
    )


def test_repair_fallback_cap_exceeded(tmp_path, capsys):
    schema_path = write(tmp_path, "s.fd", HARD_SCHEMA)
    data = tmp_path / "d"
    data.mkdir()
    rows = "".join(f"{i},1,{i % 2}\n" for i in range(5))
    (data / "R.csv").write_text("A,B,C\n" + rows, encoding="utf-8")
    code = main([
        "repair", "--schema", schema_path, "--data", str(data),
        "--out", str(tmp_path / "o"), "--fallback-oracle", "3",
    ])
    assert code == 1
    assert "above the oracle cap" in capsys.readouterr().err


def test_repair_former_gap_schema_is_exact(tmp_path, capsys):
    # cl(A) = cl(B,C) = ABC: an lhs marriage, so S3 repairs it exactly
    schema_path = write(tmp_path, "s.fd", GAP_SCHEMA)
    data = tmp_path / "d"
    data.mkdir()
    (data / "R.csv").write_text(
        "A,B,C\n1,1,1\n1,2,1\n2,1,1\n3,3,3\n", encoding="utf-8"
    )
    code = main([
        "repair", "--schema", schema_path, "--data", str(data),
        "--out", str(tmp_path / "o"), "--stable",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "tractable: true" in out
    assert "steps: S3:{A,B,C}" in out
    assert "method: exact" in out
    # (1,1,1) conflicts with (1,2,1) on A->B and with (2,1,1) on B,C->A
    assert "repair-size: 3" in out
    schema = parse_schema(GAP_SCHEMA).relations[0]
    repaired = read_instance_csv(str(tmp_path / "o" / "R.csv"), schema.signature)
    original = read_instance_csv(str(data / "R.csv"), schema.signature)
    assert is_s_repair(schema, original.instance, repaired.instance)


def test_repair_missing_data_file(tmp_path, capsys):
    schema_path = write(tmp_path, "s.fd", TRACTABLE_SCHEMA)
    data = tmp_path / "d"
    data.mkdir()
    code = main([
        "repair", "--schema", schema_path, "--data", str(data),
        "--out", str(tmp_path / "o"),
    ])
    assert code == 1
    assert "no data file" in capsys.readouterr().err


def _fails_cleanly(capsys, argv, path):
    """One ``error:`` line naming ``path`` on stderr, and exit code 1.

    An exception escaping ``main`` fails the calling test outright.
    """
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert str(path) in err and "Traceback" not in err
    return err


def _repair_argv(tmp_path, data, out=None):
    schema_path = write(tmp_path, "s.fd", TRACTABLE_SCHEMA)
    return [
        "repair", "--schema", schema_path, "--data", str(data),
        "--out", str(out or tmp_path / "o"),
    ]


def test_repair_data_file_is_a_directory(tmp_path, capsys):
    data = tmp_path / "d"
    (data / "R.csv").mkdir(parents=True)
    _fails_cleanly(capsys, _repair_argv(tmp_path, data), data / "R.csv")


def test_repair_cell_past_the_csv_field_limit(tmp_path, capsys):
    data = tmp_path / "d"
    data.mkdir()
    (data / "R.csv").write_text("A,B\n" + "x" * 131073 + ",1\n", encoding="utf-8")
    err = _fails_cleanly(capsys, _repair_argv(tmp_path, data), data / "R.csv")
    assert "field limit" in err


def test_repair_non_utf8_csv_names_the_file(tmp_path, capsys):
    data = tmp_path / "d"
    data.mkdir()
    (data / "R.csv").write_bytes(b"A,B\n\xff,1\n")
    _fails_cleanly(capsys, _repair_argv(tmp_path, data), data / "R.csv")


@pytest.mark.parametrize(
    "command", ["classify", "repair", "oracle", "verify-reduction"]
)
def test_non_utf8_schema_names_the_file(tmp_path, data_dir, capsys, command):
    schema_path = tmp_path / "s.fd"
    schema_path.write_bytes(b"relation R(A,B)\nfd R: A -> B  # \xff\n")
    argv = [command, "--schema", str(schema_path)]
    if command in ("repair", "oracle"):
        argv += ["--data", str(data_dir), "--out", str(tmp_path / "o")]
    _fails_cleanly(capsys, argv, schema_path)
    assert not (tmp_path / "o").exists()


BAD_GADGET_INPUTS = {
    "2fd-non-utf8": b"p cnf 2 1\n1 2 0 c \xff\n",
    "tr-non-utf8": b"a1 b1 c\xff\n",
    "2fd-problem-line": b"p cnf 2\n1 2 0\n",
    "2r-out-of-range": b"p cnf 2 1\n1 -3 0\n",
    "tr-two-names": b"a1 b1 c1\na2 b2\n",
}


@pytest.mark.parametrize("case", sorted(BAD_GADGET_INPUTS))
def test_bad_gadget_input_names_the_file(tmp_path, capsys, case):
    kind = case.split("-")[0]
    source = tmp_path / "in.txt"
    source.write_bytes(BAD_GADGET_INPUTS[case])
    argv = ["gadget", "--type", kind, "--in", str(source), "--out", str(tmp_path / "o")]
    _fails_cleanly(capsys, argv, source)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["repair", "oracle", "gadget"])
def test_out_names_an_existing_file(tmp_path, data_dir, capsys, command):
    out = tmp_path / "taken"
    out.write_text("", encoding="utf-8")
    if command == "repair":
        argv = _repair_argv(tmp_path, data_dir, out)
    elif command == "oracle":
        schema_path = write(tmp_path, "s.fd", TRACTABLE_SCHEMA)
        argv = ["oracle", "--schema", schema_path, "--data", str(data_dir),
                "--out", str(out)]
    else:
        cnf = write(tmp_path, "f.cnf", "p cnf 1 1\n1 0\n")
        argv = ["gadget", "--type", "rl", "--in", cnf, "--out", str(out)]
    _fails_cleanly(capsys, argv, out)


def test_repair_multi_relation_independence(tmp_path, capsys):
    both_path = write(tmp_path, "both.fd", TWO_RELATIONS)
    data = tmp_path / "d"
    data.mkdir()
    (data / "R.csv").write_text("A,B\n1,a\n1,b\n", encoding="utf-8")
    (data / "S.csv").write_text("X,Y\n1,a\n2,b\n", encoding="utf-8")
    out_both = tmp_path / "both_out"
    assert main([
        "repair", "--schema", both_path, "--data", str(data),
        "--out", str(out_both), "--stable",
    ]) == 0
    capsys.readouterr()
    only_r = write(tmp_path, "r.fd", "relation R(A,B)\nfd R: A -> B\n")
    out_r = tmp_path / "r_out"
    assert main([
        "repair", "--schema", only_r, "--data", str(data),
        "--out", str(out_r), "--stable",
    ]) == 0
    capsys.readouterr()
    assert (out_both / "R.csv").read_text() == (out_r / "R.csv").read_text()


# -- one parser per process -------------------------------------------------------

def test_main_builds_its_parser_once(tmp_path, data_dir, capsys):
    # a bad-argument exit, a repair and a classify, called over and over
    # in one process, print what each prints with a freshly built parser
    schema_path = write(tmp_path, "s.fd", TRACTABLE_SCHEMA)
    out_dir = tmp_path / "out"
    calls = [
        ["repair", "--schema", schema_path, "--bogus"],
        ["repair", "--schema", schema_path, "--data", str(data_dir),
         "--out", str(out_dir), "--stable"],
        ["classify", "--schema", schema_path, "--stable"],
    ]

    def run(argv):
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            code = main(argv)
        except SystemExit as exc:
            code = ("exit", exc.code)
        printed = capsys.readouterr()
        written = out_dir / "R.csv"
        csv = written.read_bytes() if written.exists() else None
        return code, printed.out, printed.err, csv

    fresh = []
    for argv in calls:
        cli._parser.cache_clear()
        fresh.append(run(argv))
    assert fresh[0][0] == ("exit", 2) and "usage: fdrepair repair" in fresh[0][2]
    assert fresh[1][0] == 0 and fresh[1][3] == b"A,B\n1,a\n2,c\n"
    assert fresh[2][0] == 0 and "tractable: true" in fresh[2][1]
    cli._parser.cache_clear()
    for _ in range(3):
        assert [run(argv) for argv in calls] == fresh
    info = cli._parser.cache_info()
    assert (info.misses, info.hits) == (1, 3 * len(calls) - 1)


# -- oracle ----------------------------------------------------------------------

def test_oracle_command(tmp_path, data_dir, capsys):
    schema_path = write(tmp_path, "s.fd", TRACTABLE_SCHEMA)
    assert main([
        "oracle", "--schema", schema_path, "--data", str(data_dir),
        "--cap", "10", "--stable",
    ]) == 0
    assert "repair-size: 2" in capsys.readouterr().out


def test_oracle_cap_error(tmp_path, data_dir, capsys):
    schema_path = write(tmp_path, "s.fd", TRACTABLE_SCHEMA)
    assert main([
        "oracle", "--schema", schema_path, "--data", str(data_dir),
        "--cap", "2",
    ]) == 1
    captured = capsys.readouterr()
    # main prints the oracle's own error as one line, with no traceback
    assert captured.err == "error: instance has 3 facts, brute-force cap is 2\n"
    assert captured.out == ""


@pytest.mark.parametrize("command", ["oracle", "repair"])
def test_oracle_search_deeper_than_the_recursion_limit(tmp_path, capsys, command):
    # A -> B, B -> C on 1,000 independent rows and one row in conflict
    # with two of them: the search takes one fact per level, 1,000 deep
    chain = "relation R(A,B,C)\nfd R: A -> B\nfd R: B -> C\n"
    schema_path = write(tmp_path, "s.fd", chain)
    data = tmp_path / "d"
    data.mkdir()
    rows = [f"a{i},b{i},c{i}" for i in range(1000)]
    (data / "R.csv").write_text(
        "A,B,C\n" + "\n".join(rows) + "\na0,b1,c5\n", encoding="utf-8"
    )
    out = tmp_path / "out"
    argv = [command, "--schema", schema_path, "--data", str(data), "--out", str(out)]
    argv += ["--cap", "5000"] if command == "oracle" else ["--fallback-oracle", "5000"]
    code = main([*argv, "--stable"])
    captured = capsys.readouterr()
    # a repair, or one error line and no traceback: here the repair
    assert (code, captured.err) == (0, "")
    assert "input-facts: 1001" in captured.out
    assert "repair-size: 1000" in captured.out
    assert (out / "R.csv").read_text(encoding="utf-8") == "A,B,C\n" + "\n".join(
        sorted(rows)
    ) + "\n"


# -- gadget ----------------------------------------------------------------------

def test_gadget_cnf_to_instance(tmp_path, capsys):
    cnf = write(tmp_path, "f.cnf", "p cnf 2 2\n1 2 0\n-1 0\n")
    out = tmp_path / "g"
    assert main(["gadget", "--type", "2fd", "--in", cnf, "--out", str(out)]) == 0
    report = capsys.readouterr().out
    assert "facts: 3" in report
    document = parse_schema((out / "schema.fd").read_text())
    schema = document.relations[0]
    instance = read_instance_csv(str(out / "R.csv"), schema.signature).instance
    assert len(instance) == 3
    assert main(["classify", "--schema", str(out / "schema.fd")]) == 2
    capsys.readouterr()


def test_gadget_mixed_clause_rejected_for_2fd(tmp_path, capsys):
    cnf = write(tmp_path, "f.cnf", "p cnf 2 1\n1 -2 0\n")
    assert main([
        "gadget", "--type", "2fd", "--in", cnf, "--out", str(tmp_path / "g"),
    ]) == 1
    assert "mixed" in capsys.readouterr().err


def test_gadget_triangles(tmp_path, capsys):
    tri = write(tmp_path, "t.txt", "a1 b1 c1\na1 b1 c2\n")
    out = tmp_path / "g"
    assert main(["gadget", "--type", "tr", "--in", tri, "--out", str(out)]) == 0
    assert "triangles: 2" in capsys.readouterr().out
    schema = parse_schema((out / "schema.fd").read_text()).relations[0]
    assert len(schema.fds) == 3



def test_gadget_input_with_byte_order_mark(tmp_path, capsys):
    # a BOM before "p cnf" would hide the problem line
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 2 2\n1 2 0\n-1 0\n", encoding="utf-8-sig")
    out = tmp_path / "g"
    assert main(["gadget", "--type", "2fd", "--in", str(cnf), "--out", str(out)]) == 0
    assert "facts: 3" in capsys.readouterr().out

# -- verify-reduction ---------------------------------------------------------------

def test_verify_reduction_on_hard_core(tmp_path, capsys):
    schema_path = write(tmp_path, "s.fd", HARD_SCHEMA)
    assert main([
        "verify-reduction", "--schema", schema_path, "--stable",
    ]) == 0
    out = capsys.readouterr().out
    assert "witness: case 5" in out
    assert "violations: 0" in out
    assert "exhaustive: true" in out


def test_verify_reduction_skips_tractable(tmp_path, capsys):
    schema_path = write(tmp_path, "s.fd", TRACTABLE_SCHEMA)
    assert main(["verify-reduction", "--schema", schema_path]) == 0
    assert "witness: none" in capsys.readouterr().out


def test_verify_reduction_surfaces_gap(tmp_path, capsys):
    # the former gap schema is tractable, so there is nothing to witness
    schema_path = write(tmp_path, "s.fd", GAP_SCHEMA)
    assert main(["verify-reduction", "--schema", schema_path]) == 0
    out = capsys.readouterr().out
    assert "tractable: true" in out
    assert "witness: none (tractable schema)" in out
    assert "witness: error" not in out


def test_verify_reduction_checks_one_pair_per_agreement_pattern(tmp_path, capsys):
    schema_path = write(tmp_path, "s.fd", HARD_SCHEMA)
    assert main([
        "verify-reduction", "--schema", schema_path, "--stable",
    ]) == 0
    out = capsys.readouterr().out
    # the core's 3 columns agree on 2**3 - 1 proper subsets
    assert "\n  pairs-checked: 7\n" in out
    # the value domain is no option
    with pytest.raises(SystemExit) as exit_info:
        main(["verify-reduction", "--schema", schema_path, "--domain", "2"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --domain 2" in capsys.readouterr().err


# -- classify calls per relation ------------------------------------------------

def test_each_command_classifies_each_relation_once(
    tmp_path, data_dir, capsys, monkeypatch
):
    calls = []
    classify = simplify.classify

    def counted(schema):
        calls.append(schema.signature.relation)
        return classify(schema)

    # every package module that binds classify calls the counted one
    bound = set()
    for name, module in list(sys.modules.items()):
        if name == "fdrepair" or name.startswith("fdrepair."):
            for attr, value in list(vars(module).items()):
                if value is classify:
                    monkeypatch.setattr(module, attr, counted)
                    bound.add(name)
    assert {"fdrepair.cli", "fdrepair.repair", "fdrepair.gadgets"} <= bound

    # R is tractable, H is not
    both = write(tmp_path, "both.fd", TRACTABLE_SCHEMA + HARD_SCHEMA.replace("R", "H"))
    tractable = write(tmp_path, "tractable.fd", TRACTABLE_SCHEMA)
    (data_dir / "H.csv").write_text("A,B,C\n1,1,1\n1,1,2\n2,1,1\n", encoding="utf-8")
    out = str(tmp_path / "out")
    runs = {
        "classify": ["classify", "--schema", both],
        "verify-reduction": ["verify-reduction", "--schema", both],
        "repair": ["repair", "--schema", tractable, "--data", str(data_dir),
                   "--out", out],
        "repair --fallback-oracle": [
            "repair", "--schema", both, "--data", str(data_dir), "--out", out,
            "--fallback-oracle", "10",
        ],
    }
    counts = {}
    for command, argv in runs.items():
        calls.clear()
        assert main(argv) in (0, 2), command
        counts[command] = Counter(calls)
    assert "method: oracle" in capsys.readouterr().out
    assert counts == {
        "classify": {"R": 1, "H": 1},
        "verify-reduction": {"R": 1, "H": 1},
        "repair": {"R": 1},
        "repair --fallback-oracle": {"R": 1, "H": 1},
    }


# -- a runtime with only the standard library -----------------------------------

# Runs ``main`` once per argv list given as JSON, then prints the exit codes
# and the third-party modules loaded, as JSON on the last line
STDLIB_ONLY_PROGRAM = """
import json, sys
from fdrepair.cli import main
codes = [main(argv) for argv in json.loads(sys.argv[1])]
loaded = sorted(m for m in ("numpy", "scipy") if m in sys.modules)
print(json.dumps({"codes": codes, "loaded": loaded}))
"""


def test_every_command_runs_on_the_standard_library_alone(
    tmp_path, monkeypatch, capsys
):
    # one dense A -> B, B -> A component whose matching runs _optimum and
    # _augment; a hard relation for the oracle; a triangle gadget
    data = tmp_path / "data"
    data.mkdir()
    rows = dense_rows(random.Random(3), 5)
    (data / "R.csv").write_text(
        "A,B,C\n" + "".join(",".join(row) + "\n" for row in rows), encoding="utf-8"
    )
    (data / "H.csv").write_text(
        "A,B,C\na2,b1,c1\na1,b1,c2\na1,b1,c1\na1,b2,c1\na2,b2,c2\n",
        encoding="utf-8",
    )
    s3 = write(tmp_path, "s3.fd", A_B_B_A_SCHEMA)
    hard = write(tmp_path, "hard.fd", HARD_SCHEMA.replace("R", "H"))
    tri = write(tmp_path, "t.txt", "a1 b1 c1\na1 b1 c2\na2 b1 c1\n")

    def runs(out):
        return [
            ["repair", "--schema", s3, "--data", str(data),
             "--out", str(out / "s3"), "--stable"],
            ["repair", "--schema", hard, "--data", str(data),
             "--out", str(out / "oracle"), "--fallback-oracle", "10", "--stable"],
            ["classify", "--schema", hard, "--stable"],
            ["verify-reduction", "--schema", hard, "--stable"],
            ["gadget", "--type", "tr", "--in", tri, "--out", str(out / "gadget")],
        ]

    def written(out):
        return {
            path.relative_to(out).as_posix(): path.read_bytes()
            for path in sorted(out.rglob("*")) if path.is_file()
        }

    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    run = subprocess.run(
        [sys.executable, "-S", "-c", STDLIB_ONLY_PROGRAM,
         json.dumps(runs(tmp_path / "alone"))],
        env=env, cwd=tmp_path, capture_output=True, text=True,
    )
    assert run.returncode == 0, run.stderr
    *reports, last = run.stdout.splitlines(keepends=True)
    result = json.loads(last)
    assert result["loaded"] == []

    calls = Counter()
    for name in ("_optimum", "_augment"):
        original = getattr(fdrepair.repair, name)

        def counted(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(fdrepair.repair, name, counted)
    assert result["codes"] == [main(argv) for argv in runs(tmp_path / "here")]
    assert calls["_optimum"] and calls["_augment"]
    here = capsys.readouterr().out
    alone, here_dir = str(tmp_path / "alone"), str(tmp_path / "here")
    assert "".join(reports).replace(alone, here_dir) == here
    files = written(tmp_path / "alone")
    assert {"s3/R.csv", "oracle/H.csv", "gadget/R.csv"} <= set(files)
    assert files == written(tmp_path / "here")
