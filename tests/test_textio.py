import csv
import io
import os
import random
import tempfile
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fdrepair.textio
from fdrepair.fds import DOT, Fd, FdSchema, Instance, SchemaError, Signature
from fdrepair.gadgets import HARD_SCHEMAS
from fdrepair.textio import (
    DataError,
    SchemaDocument,
    SchemaParseError,
    format_dimacs,
    format_schema,
    parse_dimacs,
    parse_schema,
    parse_triangles,
    read_instance_csv,
    render_constant,
    write_instance_csv,
)


# -- schema DSL ---------------------------------------------------------------

def test_parse_two_fd_core():
    text = """
    # the two-dependency core
    relation R(A,B,C)
    fd R: A,B -> C
    fd R: C -> B
    """
    document = parse_schema(text)
    assert document.relations == (HARD_SCHEMAS["2fd"],)


def test_parse_empty_file():
    assert parse_schema("").relations == ()


def test_parse_empty_lhs():
    document = parse_schema("relation R(A,B)\nfd R: -> A\n")
    (schema,) = document.relations
    ((fd),) = schema.fds
    assert fd.lhs == frozenset() and fd.rhs == {"A"}


def test_parse_errors_carry_line_numbers():
    with pytest.raises(SchemaParseError) as err:
        parse_schema("relation R(A)\nrelation R(B)\n")
    assert err.value.line == 2
    with pytest.raises(SchemaParseError) as err:
        parse_schema("relation R(A)\nfd R: A -> Z\n")
    assert err.value.line == 2
    with pytest.raises(SchemaParseError):
        parse_schema("fd R: A -> B\n")  # undeclared relation
    with pytest.raises(SchemaParseError):
        parse_schema("relation R(A,A)\n")
    with pytest.raises(SchemaParseError):
        parse_schema("nonsense\n")
    with pytest.raises(SchemaParseError):
        parse_schema("relation R(A)\nfd R: A ->\n")  # empty rhs


def test_attribute_list_errors_point_into_the_line():
    # columns count on the raw line: an empty rhs at the place it should
    # start, a bad name where it stands
    cases = {
        "relation R(A)\nfd R: A ->\n": (2, 11),
        "relation R(A)\n  fd R: A ->   # no rhs\n": (2, 13),
        "relation R(A,B)\nfd R: A -> B!\n": (2, 12),
        "relation R(A,B)\nfd R: A, B! -> A\n": (2, 10),
        "  relation R(A, B!)\n": (1, 17),
        "relation R(A1, 1)\n": (1, 16),
        "relation R(A,,B)\n": (1, 14),
    }
    for text, position in cases.items():
        with pytest.raises(SchemaParseError) as caught:
            parse_schema(text)
        assert (caught.value.line, caught.value.column) == position, text


def test_format_schema_rejects_an_empty_rhs():
    sig = Signature("R", ("A", "B"))
    document = SchemaDocument(
        relations=(FdSchema(sig, [Fd({"A"}, {"B"}), Fd({"B"}, set())]),)
    )
    with pytest.raises(SchemaError, match=r"fd R: B -> has an empty rhs"):
        format_schema(document)


def test_schema_round_trip():
    document = parse_schema(
        "relation R(A,B,C)\nfd R: A,B -> C\nfd R: C -> B\n"
        "relation S(X,Y)\nfd S: -> X\n"
    )
    assert parse_schema(format_schema(document)) == document


# -- constant rendering ---------------------------------------------------------

def test_render_reserved_and_escaped_strings():
    assert render_constant(DOT) == "~o"
    assert render_constant("plain") == "plain"
    assert render_constant("~o") == "~s~o"
    assert render_constant("~anything") == "~s~anything"


def test_render_tuples_and_nesting():
    assert render_constant(("x1", "1")) == "~t(x1,1)"
    assert render_constant((DOT, "a")) == "~t(~~o,a)"
    assert render_constant((("a", "b"), "c")) == "~t(~~t~(a~,b~),c)"


def test_render_is_injective_over_awkward_values():
    pool = [
        DOT,
        "",
        "a",
        "~",
        "~o",
        "~t(a,b)",
        "a,b",
        "(",
        ")",
        ("a", "b"),
        ("a,b",),
        (("a",), "b"),
        ("a", ("b",)),
        (DOT,),
        ("~o",),
    ]
    rendered = [render_constant(v) for v in pool]
    assert len(set(rendered)) == len(pool)


# -- CSV ----------------------------------------------------------------------

def test_csv_round_trip_with_duplicates(tmp_path):
    sig = Signature("R", ("A", "B"))
    path = tmp_path / "R.csv"
    path.write_text("A,B\n1,a\n1,a\n2,b\n", encoding="utf-8")
    result = read_instance_csv(str(path), sig)
    assert len(result.instance) == 2
    assert result.dropped_duplicates == 1


def test_csv_header_realignment(tmp_path):
    sig = Signature("R", ("A", "B"))
    path = tmp_path / "R.csv"
    path.write_text("B,A\nb,1\n", encoding="utf-8")
    result = read_instance_csv(str(path), sig)
    assert result.instance.sorted_facts == (("1", "b"),)



def test_csv_leading_byte_order_mark(tmp_path):
    # spreadsheet exports start with a UTF-8 BOM; it is not part of the
    # first column's name
    sig = Signature("R", ("A", "B"))
    path = tmp_path / "R.csv"
    path.write_text("A,B\n1,a\n", encoding="utf-8-sig")
    assert path.read_bytes().startswith(b"\xef\xbb\xbfA,B")
    result = read_instance_csv(str(path), sig)
    assert result.instance.sorted_facts == (("1", "a"),)

def test_csv_header_only(tmp_path):
    sig = Signature("R", ("A", "B"))
    path = tmp_path / "R.csv"
    path.write_text("A,B\n", encoding="utf-8")
    assert len(read_instance_csv(str(path), sig).instance) == 0


def test_csv_shape_errors(tmp_path):
    sig = Signature("R", ("A", "B"))
    missing = tmp_path / "m.csv"
    missing.write_text("A\n1\n", encoding="utf-8")
    with pytest.raises(DataError):
        read_instance_csv(str(missing), sig)
    extra = tmp_path / "e.csv"
    extra.write_text("A,B,C\n1,2,3\n", encoding="utf-8")
    with pytest.raises(DataError):
        read_instance_csv(str(extra), sig)
    ragged = tmp_path / "r.csv"
    ragged.write_text("A,B\n1\n", encoding="utf-8")
    with pytest.raises(DataError):
        read_instance_csv(str(ragged), sig)
    empty = tmp_path / "x.csv"
    empty.write_text("", encoding="utf-8")
    with pytest.raises(DataError):
        read_instance_csv(str(empty), sig)


def test_csv_write_then_read_preserves_string_instances(tmp_path):
    sig = Signature("R", ("A", "B"))
    inst = Instance(sig, [("2", "y"), ("1", "x")])
    path = tmp_path / "out.csv"
    write_instance_csv(str(path), inst)
    assert path.read_text(encoding="utf-8") == "A,B\n1,x\n2,y\n"
    assert read_instance_csv(str(path), sig).instance == inst


def test_csv_write_renders_structured_constants(tmp_path):
    sig = Signature("R", ("A", "B"))
    inst = Instance(sig, [("1", ("x1", "1")), ("2", DOT)])
    path = tmp_path / "out.csv"
    write_instance_csv(str(path), inst)
    back = read_instance_csv(str(path), sig).instance
    # re-ingested cells are opaque strings, but distinctness is preserved
    assert len(back) == 2
    assert {fact[1] for fact in back.facts} == {"~t(x1,1)", "~o"}


def test_csv_ragged_row_names_its_row(tmp_path):
    sig = Signature("R", ("A", "B"))
    short, long = "1,a\n2\n3,c\n", "1,a\n2,b\n3,c,x\n"
    for body, message in ((short, "row 3 has 1 cells"), (long, "row 4 has 3 cells")):
        path = tmp_path / "r.csv"
        path.write_text("A,B\n" + body, encoding="utf-8")
        with pytest.raises(DataError, match=message + ", expected 2"):
            read_instance_csv(str(path), sig)


@pytest.mark.parametrize("attrs", ["BCA", "A"])
def test_csv_read_equals_fully_checked_instance(tmp_path, attrs):
    rng = random.Random(len(attrs))
    sig = Signature("R", tuple(sorted(attrs)))
    pool = ("1", "~1", "", " x", "a,b", '"q"')
    rows = [tuple(rng.choice(pool) for _ in attrs) for _ in range(200)]
    path = tmp_path / "R.csv"
    with open(path, "w", newline="", encoding="utf-8") as handle:
        csv.writer(handle).writerows([tuple(attrs), *rows])
    result = read_instance_csv(str(path), sig)
    order = [attrs.index(a) for a in sig.attributes]
    expected = Instance(sig, (tuple(row[i] for i in order) for row in rows))
    assert result.instance == expected
    assert result.dropped_duplicates == len(rows) - len(expected)
    assert result.dropped_duplicates > 0


def _reference_csv(inst):
    """The writer's contract cell by cell: the header, then the facts in
    canonical order with every value rendered."""
    expected = io.StringIO(newline="")
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(inst.signature.attributes)
    for fact in inst.sorted_facts:
        writer.writerow([render_constant(v) for v in fact])
    return expected.getvalue().encode("utf-8")


def _written_csv(directory, inst):
    path = os.path.join(directory, "out.csv")
    write_instance_csv(path, inst)
    with open(path, "rb") as handle:
        return handle.read()


def _outcome(write, *args):
    """The bytes written, or the csv error: the Python 3.10 writer refuses
    a NUL in a cell, and later ones write it."""
    try:
        return write(*args)
    except csv.Error as exc:
        return type(exc)


# awkward str cells: the empty str, prefixes, the lowest characters after
# NUL, and what csv must quote
PLAIN_CELLS = ["", "a", "ab", "b", "\x01", "a\x01", "a,b", 'q"t', "l\nm", "z"]


def test_csv_write_equals_cell_by_cell_rendering(tmp_path, monkeypatch):
    sig = Signature("R", ("A", "B", "C"))
    values = ["x", "~x", "~", "~~t(", DOT, ("a", DOT), ("~b", ("c,d", ")")), ""]
    rng = random.Random(3)
    inst = Instance(
        sig, (tuple(rng.choice(values) for _ in range(3)) for _ in range(60))
    )
    assert _written_csv(tmp_path, inst) == _reference_csv(inst)
    # a NUL or a leading ``~`` in any one str cell sends the whole instance
    # down the rendering path; the NUL pair sorts apart under a NUL-joined
    # key ("a" before "a\x00b" column-wise, after it joined)
    plain = [tuple(rng.choice(PLAIN_CELLS) for _ in range(3)) for _ in range(80)]
    for odd in (
        [("a", "z", "c"), ("a\x00b", "c", "c")],
        [("~x", "a", "b"), ("a", "~", "~~")],
    ):
        inst = Instance(sig, plain + odd)
        assert _outcome(_written_csv, tmp_path, inst) == _outcome(
            _reference_csv, inst
        )
    # str cells with no NUL and no leading ``~`` are written as they are,
    # with no per-value rendering
    inst = Instance(sig, plain)
    expected = _reference_csv(inst)

    def refuse(value):
        pytest.fail(f"rendered {value!r}")

    monkeypatch.setattr(fdrepair.textio, "render_constant", refuse)
    assert _written_csv(tmp_path, inst) == expected


CELLS = st.sampled_from(PLAIN_CELLS + ["a\x00b", "~a"]) | st.text()


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(CELLS, CELLS, CELLS), max_size=12))
def test_csv_write_of_str_cells_equals_the_reference(facts):
    # arbitrary Unicode str cells, NUL and a leading ``~`` included: the
    # bytes are the reference's, so the NUL-joined sort key gives the
    # canonical order whenever the writer uses it
    inst = Instance(Signature("R", ("A", "B", "C")), facts)
    with tempfile.TemporaryDirectory() as directory:
        written = _outcome(_written_csv, directory, inst)
    assert written == _outcome(_reference_csv, inst)


def _csv_writer_bytes(inst):
    """The header and the canonically sorted facts through ``csv.writer``
    as they are, with no rendering: the writer's bytes whenever no cell
    needs a ``~`` escape."""
    expected = io.StringIO(newline="")
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(inst.signature.attributes)
    writer.writerows(inst.sorted_facts)
    return expected.getvalue().encode("utf-8")


def _written_and_routed(directory, inst):
    """The writer's outcome, and whether its rows went through
    ``csv.writer`` rather than out as one text."""
    routed = []

    def writer(handle, **options):
        real = csv.writer(handle, **options)

        def writerows(rows):
            routed.append(True)
            real.writerows(rows)

        return SimpleNamespace(writerow=real.writerow, writerows=writerows)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fdrepair.textio, "csv", SimpleNamespace(writer=writer))
        written = _outcome(_written_csv, directory, inst)
    return written, bool(routed)


def _one_text(inst):
    """Whether the facts may be written as one text: some fact, every
    cell a str with no NUL, no leading ``~`` and nothing csv quotes
    (``,`` ``"`` ``\\r`` ``\\n``), and no row of one empty cell."""
    cells = [cell for fact in inst.facts for cell in fact]
    return (
        bool(cells)
        and all(
            isinstance(cell, str)
            and not cell.startswith("~")
            and not any(c in cell for c in ',"\r\n\x00')
            for cell in cells
        )
        and not (inst.signature.arity == 1 and "" in cells)
    )


# cells that csv quotes, or that must leave the one-text path for another
# reason; each may sit anywhere in a row
ODD_CELLS = [",", '"', "\r", "\n", "a,b", 'q"t', "x\ry", "l\nm", "\n~", "\r\n"]


def test_csv_write_quoting_and_fallbacks(tmp_path):
    # no row of a plain instance is rendered, so csv.writer on the sorted
    # facts gives the same bytes as the cell-by-cell reference
    rng = random.Random(5)
    plain = [tuple(rng.choice(["", "a", "b", "ab", "k1", "k10"]) for _ in "ABC")
             for _ in range(40)]
    sig = Signature("R", ("A", "B", "C"))
    one = Signature("R", ("A",))
    cases = [
        (Instance(sig, plain), True),
        (Instance(sig, []), False),
        (Instance(one, []), False),
        (Instance(one, [("b",), ("a",), ("c",)]), True),
        # a row of one empty cell is written as "", which csv does
        (Instance(one, [("",), ("a",)]), False),
        (Instance(Signature("R", ()), [()]), False),
    ]
    for cell in ODD_CELLS:
        cases.append((Instance(sig, plain + [("k2", cell, "c")]), False))
        cases.append((Instance(one, [("a",), (cell,)]), False))
    for odd in ("~x", "a\x00b", DOT, ("t", "u")):
        cases.append((Instance(sig, plain + [(odd, "b", "c")]), False))
    for inst, one_text in cases:
        written, routed = _written_and_routed(tmp_path, inst)
        assert written == _outcome(_reference_csv, inst), inst
        assert _one_text(inst) == one_text and routed == (not one_text), inst
        if all(isinstance(c, str) and c[:1] != "~" for f in inst.facts for c in f):
            assert written == _outcome(_csv_writer_bytes, inst), inst


def test_csv_write_of_plain_cells_is_one_text(tmp_path, monkeypatch):
    # str cells that csv writes as they are leave the writer as one text:
    # csv.writer sees the header and no row, and nothing is rendered
    sig = Signature("R", ("A", "B", "C"))
    facts = [("k2", "b", "c3"), ("k10", "a", "c5"), ("k1", "x", ""),
             ("k1", "y", "c2"), ("k2", "b", "c4")]
    inst = Instance(sig, facts)

    def refuse(value):
        pytest.fail(f"rendered {value!r}")

    monkeypatch.setattr(fdrepair.textio, "render_constant", refuse)
    written, routed = _written_and_routed(tmp_path, inst)
    assert not routed
    assert written == (
        b"A,B,C\nk1,x,\nk1,y,c2\nk10,a,c5\nk2,b,c3\nk2,b,c4\n"
    ) == _csv_writer_bytes(inst)
    # one cell that csv may quote sends every row through csv.writer
    monkeypatch.undo()
    for cell in ODD_CELLS:
        inst = Instance(sig, facts + [("k3", cell, "c6")])
        written, routed = _written_and_routed(tmp_path, inst)
        assert routed and written == _csv_writer_bytes(inst), repr(cell)


ROUTED_CELLS = st.sampled_from(
    ["", "a", "ab", "b", "~a", "a\x00b"] + ODD_CELLS
) | st.text(max_size=4)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 3).flatmap(
        lambda arity: st.tuples(
            st.just(arity),
            st.lists(st.lists(ROUTED_CELLS, min_size=arity, max_size=arity),
                     max_size=10),
        )
    )
)
def test_csv_write_routes_and_bytes_equal_the_references(case):
    # arities 1-3, cells that csv quotes, empty cells and the fallbacks:
    # the bytes are the references', and the rows go through csv.writer
    # exactly when they cannot leave as one text
    arity, rows = case
    inst = Instance(Signature("R", ("A", "B", "C")[:arity]), map(tuple, rows))
    with tempfile.TemporaryDirectory() as directory:
        written, routed = _written_and_routed(directory, inst)
    assert written == _outcome(_reference_csv, inst)
    assert routed == (not _one_text(inst))
    if not any(c.startswith("~") for fact in inst.facts for c in fact):
        assert written == _outcome(_csv_writer_bytes, inst)


# -- DIMACS and triangles --------------------------------------------------------

DIMACS = """c example
p cnf 3 2
1 -2 0
2
3 0
"""


def test_parse_dimacs_multiline_clauses():
    formula = parse_dimacs(DIMACS)
    assert formula.num_vars == 3
    assert formula.clauses == ((1, -2), (2, 3))


def test_parse_dimacs_round_trip():
    formula = parse_dimacs(DIMACS)
    assert parse_dimacs(format_dimacs(formula)) == formula


def test_parse_dimacs_errors():
    with pytest.raises(DataError):
        parse_dimacs("1 2 0\n")  # clause before header
    with pytest.raises(DataError):
        parse_dimacs("p cnf 2 1\nfoo 0\n")
    with pytest.raises(DataError):
        parse_dimacs("p cnf 2 1\n0\n")  # empty clause
    with pytest.raises(DataError):
        parse_dimacs("p cnf 2 2\n1 0\n")  # clause count mismatch
    with pytest.raises(DataError):
        parse_dimacs("p cnf 1 1\n2 0\n")  # literal out of range


def test_parse_triangles():
    graph = parse_triangles("# comment\na1 b1 c1\na1 b1 c1\na2 b1 c2\n")
    assert graph.triangles == (("a1", "b1", "c1"), ("a2", "b1", "c2"))
    assert graph.a_nodes == ("a1", "a2")
    with pytest.raises(DataError):
        parse_triangles("a b\n")
