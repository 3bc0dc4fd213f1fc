import csv
import io
import os
import random
import string
import tempfile
import time
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import read_csv_by_csv_module

import fdrepair.textio
from fdrepair.fds import DOT, Fd, FdSchema, Instance, SchemaError, Signature
from fdrepair.gadgets import (
    HARD_SCHEMAS,
    CnfFormula,
    TripartiteGraph,
    gadget_2r,
    gadget_tr,
)
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
    text = format_schema(document)
    assert text == (
        "relation R(A,B,C)\nfd R: A,B -> C\nfd R: C -> B\n"
        "relation S(X,Y)\nfd S:  -> X\n"
    )
    assert parse_schema(text) == document


# the DSL's names, keywords among them
_NAME_HEAD = string.ascii_letters + "_"
DSL_NAMES = st.one_of(
    st.sampled_from(("relation", "fd", "fdR", "relation_1")),
    st.builds(
        str.__add__,
        st.sampled_from(_NAME_HEAD),
        st.text(alphabet=_NAME_HEAD + string.digits, max_size=4),
    ),
)


@st.composite
def schema_documents(draw):
    """Documents of up to four relations over DSL names; an FD's lhs may
    be empty, and its rhs may overlap it but is never empty."""
    relations = []
    for name in draw(st.lists(DSL_NAMES, max_size=4, unique=True)):
        attrs = draw(st.lists(DSL_NAMES, max_size=5, unique=True))
        fds = []
        if attrs:
            subsets = st.frozensets(st.sampled_from(attrs))
            lhs_sets = st.one_of(st.just(frozenset()), subsets)
            rhs_sets = st.frozensets(st.sampled_from(attrs), min_size=1)
            fds = draw(st.lists(st.builds(Fd, lhs_sets, rhs_sets), max_size=4))
        relations.append(FdSchema(Signature(name, tuple(attrs)), fds))
    return SchemaDocument(tuple(relations))


@settings(max_examples=150, deadline=None)
@given(schema_documents())
def test_schema_round_trip_property(document):
    assert parse_schema(format_schema(document)) == document


@settings(max_examples=100, deadline=None)
@given(schema_documents(), st.data())
def test_format_schema_rejects_an_empty_rhs_property(document, data):
    # one FD with an empty rhs, anywhere in any relation with attributes
    relations = document.relations
    targets = [i for i, schema in enumerate(relations) if schema.signature.arity]
    if not targets:
        return
    i = data.draw(st.sampled_from(targets))
    schema = relations[i]
    lhs = data.draw(st.frozensets(st.sampled_from(schema.signature.attributes)))
    broken = FdSchema(schema.signature, schema.fds + (Fd(lhs, frozenset()),))
    with pytest.raises(SchemaError, match="has an empty rhs"):
        format_schema(SchemaDocument(relations[:i] + (broken,) + relations[i + 1:]))


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



def test_csv_wide_shuffled_header_is_realigned_on_both_routes(tmp_path, monkeypatch):
    # 5,600 columns in a shuffled order, split at commas when the text is
    # plain, and read by csv when one header name is quoted
    routes = []
    split_lines = fdrepair.textio._split_lines

    def recorded(text):
        lines = split_lines(text)
        routes.append(lines is not None)
        return lines

    monkeypatch.setattr(fdrepair.textio, "_split_lines", recorded)
    rng = random.Random(5600)
    signature = Signature("R", tuple(f"C{i}" for i in range(5600)))
    order = list(range(5600))
    rng.shuffle(order)
    facts = [tuple(f"v{i}r{row}" for i in range(5600)) for row in range(3)]
    body = "".join(",".join(fact[i] for i in order) + "\n" for fact in facts)
    header = [f"C{i}" for i in order]
    path = tmp_path / "R.csv"
    for quoted, plain in ((None, True), (rng.randrange(5600), False)):
        names = list(header)
        if quoted is not None:
            names[quoted] = f'"{names[quoted]}"'
        path.write_text(",".join(names) + "\n" + body + body, encoding="utf-8")
        result = read_instance_csv(str(path), signature)
        assert routes.pop() is plain
        assert result.instance == Instance(signature, facts)
        assert result.dropped_duplicates == 3
        assert (result.instance, 3) == read_csv_by_csv_module(str(path), signature)


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


def _csv_bytes(rows):
    """The rows as csv writes them, one row at a time, each ended by
    ``"\\n"``, with a cell holding ``"\\r"`` quoted. csv quotes a cell
    that holds a character of its line terminator (and Python 3.13 a
    ``"\\r"`` with any terminator), so each row is written with
    ``"\\r\\n"`` and that end is cut back."""
    row_text = io.StringIO(newline="")
    writer = csv.writer(row_text, lineterminator="\r\n")
    lines = []
    for row in rows:
        row_text.seek(0)
        row_text.truncate()
        writer.writerow(row)
        lines.append(row_text.getvalue()[:-2] + "\n")
    return "".join(lines).encode("utf-8")


def _reference_csv(inst):
    """The writer's contract cell by cell: the header, then the facts in
    canonical order with every value rendered."""
    return _csv_bytes(
        [inst.signature.attributes]
        + [[render_constant(v) for v in fact] for fact in inst.sorted_facts]
    )


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
    # str cells with no NUL and no leading ``~`` are written as they are:
    # with cells that csv quotes, through the rendering route with the
    # same bytes; without, as one text with no per-value rendering
    quoted = Instance(sig, plain)
    assert not _one_text(quoted)
    assert _written_csv(tmp_path, quoted) == _reference_csv(quoted)
    assert _written_csv(tmp_path, quoted) == _csv_writer_bytes(quoted)
    inst = Instance(sig, [fact for fact in plain if _one_text(Instance(sig, [fact]))])
    assert len(inst) > 20 and _one_text(inst)
    expected = _reference_csv(inst)

    def refuse(value):
        pytest.fail(f"rendered {value!r}")

    monkeypatch.setattr(fdrepair.textio, "render_constant", refuse)
    written, routed = _written_and_routed(tmp_path, inst)
    assert written == expected and not routed


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
    return _csv_bytes([inst.signature.attributes, *inst.sorted_facts])


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


def test_csv_header_holding_a_carriage_return_is_quoted(tmp_path):
    # on both routes the "\r" decision covers the header names: the name
    # is quoted, as Python 3.13 writes it, and the file reads back
    sig = Signature("R", ("A\rB", "C"))
    for row, one_text, expected in [
        (("x", "y"), True, b'"A\rB",C\nx,y\n'),
        ((DOT, "y"), False, b'"A\rB",C\n~o,y\n'),
    ]:
        inst = Instance(sig, [row])
        written, routed = _written_and_routed(tmp_path, inst)
        assert written == expected == _reference_csv(inst), row
        assert _one_text(inst) == one_text and routed == (not one_text), row
        path = str(tmp_path / "R.csv")
        write_instance_csv(path, inst)
        read = read_instance_csv(path, sig).instance
        assert read == Instance(sig, [tuple(map(render_constant, row))])


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


# -- CSV reading against the csv module ------------------------------------------

FIELD_LIMIT = csv.field_size_limit()
# cells the csv module reads as a split at commas does
SPLIT_CELLS = st.sampled_from(["", "a", "b", " a", "a b", "~x", "é", "\ufeff"])
# and cells it reads differently, or that send the text to it: quotes,
# line breaks and NUL
READ_CELLS = SPLIT_CELLS | st.sampled_from(
    [",", '"', '"a"', '"a,b"', 'a"b', "\r", "\n", "\r\n", "\x00"]
) | st.text(max_size=3)


@st.composite
def csv_texts(draw):
    """The text of a CSV file for R(A..C)[:arity], and the arity.

    The header names the columns in any order, or is broken. Each row
    has about the header's width of cells: exactly, one less or more, or
    a pair of one less and one more, whose commas add up to the header's
    count. Lines end in ``\n``, ``\r\n`` or ``\r``, with or without a
    final one; there may be a leading BOM, blank lines, or a cell one
    past the csv module's field size limit. Some texts are arbitrary.
    (Hypothesis draws the bounds of a range often, so a rare case is
    one inner value of it.)
    """
    arity = draw(st.integers(1, 3))
    if draw(st.integers(0, 9)) == 7:
        return draw(st.text(st.sampled_from("AB,\"\r\n\x00a\ufeff"))), arity
    header = list(draw(st.permutations("ABC"[:arity])))
    if draw(st.integers(0, 9)) == 7:
        header = draw(st.lists(st.sampled_from(["A", "B", "C", " A", "D"]), max_size=4))
    width = len(header)
    cell = READ_CELLS if draw(st.integers(0, 3)) == 2 else SPLIT_CELLS
    shapes = {"width": [width], "less": [width - 1], "more": [width + 1],
              "pair": [width - 1, width + 1], "blank": [0]}
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        shape = draw(st.sampled_from(["width"] * 4 + ["less", "more", "pair", "blank"]))
        for size in shapes[shape]:
            rows.append(draw(st.lists(cell, min_size=max(size, 0),
                                      max_size=max(size, 0))))
    cells = [(row, i) for row in rows for i in range(len(row))]
    if cells and draw(st.integers(0, 19)) == 7:
        row, i = draw(st.sampled_from(cells))
        row[i] = "x" * (FIELD_LIMIT + 1)
    end = draw(st.sampled_from(["\n", "\n", "\n", "\r\n", "\r"]))
    text = end.join(map(",".join, [header, *rows]))
    if draw(st.booleans()):
        text += end
    if draw(st.booleans()):
        text = "\ufeff" + text
    return text, arity


def _read_outcome(read, path, signature):
    """The instance and its dropped duplicates, or the error message."""
    try:
        return read(path, signature)
    except DataError as exc:
        return str(exc)


def _read(path, signature):
    result = read_instance_csv(path, signature)
    return result.instance, result.dropped_duplicates


@settings(max_examples=500, deadline=None)
@given(csv_texts())
def test_csv_read_equals_the_csv_module(case):
    # plain texts are split at commas and others go to the csv module:
    # either way the facts, the duplicate count and every error are those
    # of the csv module read row by row
    text, arity = case
    signature = Signature("R", ("A", "B", "C")[:arity])
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "R.csv")
        with open(path, "w", newline="", encoding="utf-8") as handle:
            handle.write(text)
        got = _read_outcome(_read, path, signature)
        assert got == _read_outcome(read_csv_by_csv_module, path, signature)


def test_csv_read_of_awkward_texts_equals_the_csv_module(tmp_path):
    # each reason to leave the split path, the width checks on it, and a
    # pair of rows whose commas add up to the header's count
    signature = Signature("R", ("A", "B"))
    big = "x" * (FIELD_LIMIT + 1)
    texts = [
        "", "\n", "A,B", "A,B\n", "B,A\n1,a", "A,B\n1,a\n\n2,b\n", "\nA,B\n1,a\n",
        "A,B\r\n1,a\r\n", "A,B\r1,a\r", "A,B\n1,\"a\"\n", "A,B\n1,\"a\nb\"\n",
        "A,B\n1,a\x00\n", "A,B\n1\n2,b,c\n", "A,B\n1,a,b\n2\n", "A,B\n1,a,b\n",
        "A,B\n1\n", "A,B\n,\n", "A,B,\n1,a,\n", "A,A\n1,2\n", "A\n1\n",
        f"A,B\n{big},1\n", f"A,B\n{big[1:]},1\n", f"A,B\n{big[1:]},1\n2,\"q\"\n",
    ]
    for text in texts:
        path = tmp_path / "R.csv"
        path.write_text(text, encoding="utf-8", newline="")
        got = _read_outcome(_read, str(path), signature)
        assert got == _read_outcome(read_csv_by_csv_module, str(path), signature), text


def test_csv_read_splits_plain_texts_only(tmp_path, monkeypatch):
    # LF, a leading BOM (which the decoder drops) and no final newline
    # are split at commas; CRLF and the other awkward texts go to csv
    routes = []
    split_lines = fdrepair.textio._split_lines

    def recorded(text):
        lines = split_lines(text)
        routes.append(lines)
        return lines

    monkeypatch.setattr(fdrepair.textio, "_split_lines", recorded)
    signature = Signature("R", ("A", "B"))
    path = tmp_path / "R.csv"
    big = "x" * (FIELD_LIMIT + 1)
    for text, lines in [
        ("A,B\n1,a\n", ["A,B", "1,a"]),
        ("\ufeffA,B\n1,a\n", ["A,B", "1,a"]),
        ("A,B\n1,a", ["A,B", "1,a"]),
        # a line of the limit's length, and one longer
        (f"A,B\n{big[3:]},a\n", ["A,B", f"{big[3:]},a"]),
        (f"A,B\n{big[2:]},a\n", None),
        ("A,B\r\n1,a\r\n", None),
        ("A,B\n\n1,a\n", None),
        ('A,B\n1,"a"\n', None),
        (f"A,B\n{big},a\n", None),
    ]:
        path.write_text(text, encoding="utf-8", newline="")
        _read_outcome(_read, str(path), signature)
        assert routes.pop() == lines, text


# -- CSV write, read, write --------------------------------------------------------

VALUES = st.recursive(
    st.text(max_size=3) | st.sampled_from(["", "~", "~o", "a,b", 'q"t', "\r\n"])
    | st.just(DOT),
    lambda parts: st.lists(parts, min_size=1, max_size=3).map(tuple),
    max_leaves=4,
)


def _check_write_read_write(inst):
    """Write, read and write ``inst``. The reader returns each written
    cell as its rendered str, so the second write gives the first one's
    bytes exactly when no rendered cell starts with ``~``; otherwise the
    writer escapes that ``~`` again (DOT's ``~o`` is written back as
    ``~s~o``). Returns whether the bytes were the same."""
    signature = inst.signature
    rendered = Instance(
        signature, (tuple(map(render_constant, fact)) for fact in inst.facts)
    )
    with tempfile.TemporaryDirectory() as directory:
        first = _outcome(_written_csv, directory, inst)
        if first is csv.Error:
            # Python 3.10's csv writer refuses a NUL in a cell
            return None
        back = read_instance_csv(os.path.join(directory, "out.csv"), signature)
        second = _written_csv(directory, back.instance)
    assert back.instance == rendered and back.dropped_duplicates == 0
    assert second == _reference_csv(rendered)
    plain = all(cell[:1] != "~" for fact in rendered.facts for cell in fact)
    assert (second == first) == plain
    if plain:
        # every cell is a str that the writer leaves as it is
        assert back.instance == inst
    return plain


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 3).flatmap(
        lambda arity: st.tuples(
            st.just(arity),
            st.lists(st.lists(VALUES, min_size=arity, max_size=arity), max_size=8),
        )
    )
)
def test_csv_write_read_write(case):
    # arbitrary str cells, DOT and nested tuples, quoted cells and "\r"
    arity, rows = case
    _check_write_read_write(
        Instance(Signature("R", ("A", "B", "C")[:arity]), map(tuple, rows))
    )


def test_csv_write_read_write_of_gadgets_and_str_cells():
    # the 2r gadget holds tuple constants; a str cell of "\r" alone was
    # once written unquoted, and read back as a line break
    formula = CnfFormula(3, [(1, 2), (-1, -3), (2, 3)])
    gadget = gadget_2r(formula)
    plain = Instance(gadget.signature, [("a", "\r", "b,c"), ("", 'q"t', "x\ny")])
    outcomes = [
        _check_write_read_write(inst)
        for inst in (
            gadget,
            Instance(gadget.signature, [*gadget.facts, (DOT, "d", "e")]),
            plain,
        )
    ]
    assert outcomes == [False, False, True]


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


@st.composite
def cnf_formulas(draw):
    num_vars = draw(st.integers(0, 12))
    clauses = []
    if num_vars:
        literals = st.integers(-num_vars, num_vars).filter(bool)
        clauses = draw(st.lists(st.lists(literals, min_size=1, max_size=6), max_size=8))
    return CnfFormula(num_vars, clauses)


@settings(max_examples=200, deadline=None)
@given(cnf_formulas())
def test_parse_dimacs_round_trip_property(formula):
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
    # each side keeps its nodes in order of first appearance
    graph = parse_triangles("a2 b2 c1\na1 b1 c2\na2 b1 c1\n")
    assert (graph.a_nodes, graph.b_nodes, graph.c_nodes) == (
        ("a2", "a1"), ("b2", "b1"), ("c1", "c2"),
    )
    assert parse_triangles("# no triangles\n") == TripartiteGraph((), (), (), [])
    with pytest.raises(DataError):
        parse_triangles("a b\n")


# Lines and pieces of the three formats, and characters that trip up
# parsers: non-ASCII digits and spaces, a digit string past int()'s
# limit, NUL
_PIECES = (
    "relation R(A,B)", "fd R: A -> B", "fd R: -> A", "p cnf 2 1\n1 -2 0",
    "p cnf 2 0", "p cnf 2", "p cnf x 1", "1 -2 0", "a1 b1 c1",
    "relation", "fd", "R", "S", "(", ")", "A", "B", ",", ":", "->", "#",
    "p", "cnf", "c", "%", "0", "1", "-1", "2", "-3", "1_0", "+1", "1e3",
    "\u0663", "\u00e9", "9" * 5000, " ", "\t", "\r", "\x0b", "\x00",
    "\u2028", "\ufeff",
)
_hostile_lines = st.one_of(
    st.sampled_from(_PIECES),
    st.lists(st.sampled_from(_PIECES), max_size=10).map("".join),
    st.lists(st.sampled_from(_PIECES), max_size=10).map(" ".join),
)
_hostile_texts = st.one_of(st.text(), st.lists(_hostile_lines, max_size=6).map("\n".join))


@pytest.mark.parametrize("parse", [parse_schema, parse_dimacs, parse_triangles])
@settings(max_examples=200, deadline=None)
@given(text=_hostile_texts)
@example(text="p cnf x 1")
@example(text="p cnf 2 1\n1 x 0")
@example(text="p cnf -1 0")
@example(text="relation R(A,A)\nfd S: A -> B")
@example(text="a1 b1\n")
def test_readers_return_or_raise_their_error_on_any_text(parse, text):
    """Any text is read, or refused with the reader's own error."""
    try:
        parse(text)
    except (SchemaParseError, DataError):
        pass


def test_triangle_parsing_scales_with_the_file():
    # every node is new, so a membership test over the nodes seen so
    # far, or over one side's node tuple, would make this quadratic
    n = 40_000
    text = "".join(f"a{i} b{i} c{i}\n" for i in range(n))
    started = time.perf_counter()
    graph = parse_triangles(text)
    instance = gadget_tr(graph)
    elapsed = time.perf_counter() - started
    assert len(graph.a_nodes) == len(graph.c_nodes) == len(instance) == n
    assert graph.b_nodes[:3] == ("b0", "b1", "b2")
    assert elapsed < 5.0, f"{n} triangles took {elapsed:.2f} s"
