import json

import pytest

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
    assert "method: oracle" in report and "repair-size: 1" in report


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
    assert "cap" in capsys.readouterr().err


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


def test_verify_reduction_domain_flag(tmp_path, capsys):
    schema_path = write(tmp_path, "s.fd", HARD_SCHEMA)
    assert main([
        "verify-reduction", "--schema", schema_path, "--domain", "2",
    ]) == 0
    out = capsys.readouterr().out
    assert "pairs-checked: 28" in out  # 8 facts over a 2-symbol domain
