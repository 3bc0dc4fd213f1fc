"""File formats: the schema DSL, CSV instances, DIMACS CNF, triangle lists.

Schema files look like::

    # comment
    relation R(A, B, C)
    fd R: A,B -> C
    fd R: -> A          # empty lhs

CSV files carry a header row naming the relation's attributes in any
order; cells are opaque strings and equality is the only operation ever
applied to them. The reader splits plain text at line breaks and commas
with C string methods and hands any other text to ``csv.reader``; both
give the same rows (see :func:`read_instance_csv`).

On output, structured constants are rendered with a tilde escape so the
written strings stay pairwise distinct from every user string:

* the reserved padding constant becomes ``~o``,
* a tuple becomes ``~t(part,part,...)`` with ``~(``, ``~)``, ``~,`` and
  ``~~`` escaping inside the parts,
* a user string starting with ``~`` gets an ``~s`` prefix.

Re-ingesting rendered output treats the cells as opaque strings again,
which preserves all equalities and therefore all conflicts. A second
write escapes each leading ``~`` again (``~o`` becomes ``~s~o``), so
write, read, write gives the same bytes only when no written cell
starts with ``~``.

The CSV writer puts the facts in canonical (column-wise) order, by one
of two routes. When every cell is a str with no NUL, no leading ``~``
and no character that csv quotes (``,`` ``"`` ``\\r`` ``\\n``), and no
row is a single empty cell, which csv writes as ``""``, as on most
input the CSV reader gives, each fact becomes one line, its cells
joined with NUL, and the lines are sorted. NUL sorts below every other
character, so that orders the facts column-wise too, and the lines are
written as one text with each NUL turned into a comma. Any other
instance renders each distinct value once, sorts by the per-column
tuple order of :attr:`Instance.sorted_facts`, and goes through
``csv.writer``. On both routes a cell or header name holding ``\\r`` is
quoted on every Python version, as 3.13 does.
"""

from __future__ import annotations

import csv
import io
import os
import re
import tempfile
from dataclasses import dataclass
from itertools import chain, islice, repeat
from operator import itemgetter
from types import SimpleNamespace
from typing import Optional

from .fds import Constant, DOT, Fd, FdSchema, Instance, SchemaError, Signature
from .fds import _render_fds
from .gadgets import CnfFormula, GadgetError, TripartiteGraph


class SchemaParseError(ValueError):
    """Schema DSL syntax or reference error, with position."""

    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class DataError(ValueError):
    """CSV or gadget input file does not fit the expected shape."""


# ---------------------------------------------------------------------------
# Constant rendering


def render_constant(value: Constant) -> str:
    if value is DOT:
        return "~o"
    if isinstance(value, str):
        return "~s" + value if value.startswith("~") else value
    if isinstance(value, tuple):
        return "~t(" + ",".join(_render_part(v) for v in value) + ")"
    raise DataError(f"cannot render constant {value!r}")


def _render_part(value: Constant) -> str:
    rendered = render_constant(value)
    return (
        rendered.replace("~", "~~")
        .replace("(", "~(")
        .replace(")", "~)")
        .replace(",", "~,")
    )


# ---------------------------------------------------------------------------
# Schema DSL


@dataclass(frozen=True)
class SchemaDocument:
    """Relation schemas in declaration order."""

    relations: tuple[FdSchema, ...]


_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_RELATION_RE = re.compile(
    rf"^relation\s+(?P<name>{_NAME})\s*\(\s*(?P<attrs>[^)]*)\s*\)\s*$"
)
_FD_RE = re.compile(
    rf"^fd\s+(?P<name>{_NAME})\s*:\s*(?P<lhs>[^>]*?)\s*->\s*(?P<rhs>.*?)\s*$"
)


def _split_attrs(
    text: str, line_no: int, allow_empty: bool, column: int
) -> tuple[str, ...]:
    """The attribute names in ``text``, which starts at ``column`` of its line."""
    if not text.strip():
        if allow_empty:
            return ()
        raise SchemaParseError("expected at least one attribute", line_no, column)
    parts = []
    for piece in text.split(","):
        part = piece.strip()
        if not re.fullmatch(_NAME, part):
            lead = len(piece) - len(piece.lstrip())
            raise SchemaParseError(
                f"bad attribute name {part!r}", line_no, column + lead
            )
        parts.append(part)
        column += len(piece) + 1
    return tuple(parts)


def parse_schema(text: str) -> SchemaDocument:
    """Parse the schema DSL; declaration order is preserved."""
    signatures: dict[str, Signature] = {}
    known: dict[str, set[str]] = {}
    fds: dict[str, list[Fd]] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        indent = len(raw) - len(raw.lstrip())
        if not line:
            continue
        if line.startswith("relation"):
            match = _RELATION_RE.match(line)
            if not match:
                raise SchemaParseError("malformed relation declaration", line_no)
            name = match.group("name")
            if name in signatures:
                raise SchemaParseError(f"duplicate relation {name!r}", line_no)
            attrs = _split_attrs(
                match.group("attrs"),
                line_no,
                allow_empty=True,
                column=indent + match.start("attrs") + 1,
            )
            if len(set(attrs)) != len(attrs):
                raise SchemaParseError(f"duplicate attribute in {name!r}", line_no)
            signatures[name] = Signature(name, attrs)
            known[name] = set(attrs)
            fds[name] = []
        elif line.startswith("fd"):
            match = _FD_RE.match(line)
            if not match:
                raise SchemaParseError("malformed fd declaration", line_no)
            name = match.group("name")
            if name not in signatures:
                raise SchemaParseError(f"unknown relation {name!r}", line_no)
            lhs = _split_attrs(
                match.group("lhs"),
                line_no,
                allow_empty=True,
                column=indent + match.start("lhs") + 1,
            )
            rhs = _split_attrs(
                match.group("rhs"),
                line_no,
                allow_empty=False,
                column=indent + match.start("rhs") + 1,
            )
            for attr in (*lhs, *rhs):
                if attr not in known[name]:
                    raise SchemaParseError(
                        f"attribute {attr!r} not declared in {name!r}", line_no
                    )
            fds[name].append(Fd(frozenset(lhs), frozenset(rhs)))
        else:
            raise SchemaParseError(
                f"expected 'relation' or 'fd', got {line.split()[0]!r}", line_no
            )
    relations = tuple(FdSchema(sig, fds[name]) for name, sig in signatures.items())
    return SchemaDocument(relations=relations)


def format_schema(document: SchemaDocument) -> str:
    """The schema DSL text that :func:`parse_schema` reads back.

    An FD with an empty rhs has no such text, so it raises
    :class:`SchemaError`.
    """
    lines = []
    for schema in document.relations:
        sig = schema.signature
        lines.append(f"relation {sig.relation}({','.join(sig.attributes)})")
        for lhs, rhs in schema._masks:
            text = _render_fds(sig.attributes, [(lhs, rhs)])
            if not rhs:
                raise SchemaError(
                    f"fd {sig.relation}: {text.rstrip()} has an empty rhs,"
                    " which a schema file cannot express"
                )
            lines.append(f"fd {sig.relation}: {text}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# CSV instances


@dataclass(frozen=True)
class IngestResult:
    instance: Instance
    dropped_duplicates: int


def _split_lines(text: str) -> Optional[list[str]]:
    """The lines of ``text`` when splitting each at ``,`` gives exactly
    the csv module's rows; otherwise None.

    That holds when the text holds no ``"``, ``\\r`` or ``\\x00`` (NUL is
    an error to Python 3.10's csv and a plain character to 3.11's), no
    blank line (csv reads one as a row of no cells) and no line longer
    than ``csv.field_size_limit()`` (csv raises on a longer cell). An
    empty text has no header row, and csv reports that.
    """
    if (
        not text
        or text.startswith("\n")
        or "\n\n" in text
        or '"' in text
        or "\r" in text
        or "\x00" in text
    ):
        return None
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()
    limit = csv.field_size_limit()
    if len(text) > limit and max(map(len, lines)) > limit:
        return None
    return lines


def read_instance_csv(path: str, signature: Signature) -> IngestResult:
    """Load a CSV with a header matching the signature's attributes.

    Column order is free: one name-to-column map realigns the values.
    Duplicate rows collapse and are counted: one ``dict.fromkeys`` pass
    keeps each fact once, in first-seen order, and those are the
    instance's rows. No frozenset is built; ``facts`` is built on its
    first read, and equality, hashing and pickles use that set.

    The file is read as one text. Plain text (see :func:`_split_lines`)
    is split at line breaks and commas with C string methods; any other
    text goes through ``csv.reader``. Both give the same rows, so the
    same facts and the same errors.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as handle:
            text = handle.read()
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: {exc}") from exc
    lines = _split_lines(text)
    rows: Optional[list[list[str]]] = None
    if lines is None:
        try:
            reader = csv.reader(io.StringIO(text, newline=""))
            header = next(reader, None)
            rows = list(reader)
        except csv.Error as exc:
            # a cell past the csv module's field size limit, or a NUL
            raise DataError(f"{path}: {exc}") from exc
        if header is None:
            raise DataError(f"{path}: missing header row")
    else:
        header = lines[0].split(",")
    column = {name.strip(): i for i, name in enumerate(header)}
    if len(column) != len(header):
        raise DataError(f"{path}: duplicate column in header")
    missing = set(signature.attributes).difference(column)
    extra = column.keys() - signature.attributes
    if missing or extra:
        parts = []
        if missing:
            parts.append(f"missing columns {sorted(missing)}")
        if extra:
            parts.append(f"unexpected columns {sorted(extra)}")
        raise DataError(f"{path}: {'; '.join(parts)}")
    positions = list(map(column.__getitem__, signature.attributes))
    width = len(header)
    # a header of one column or none is already in signature order
    realign = itemgetter(*positions) if len(positions) > 1 else tuple
    if rows is None:
        # realign reads every column, so it raises on a row of fewer than
        # width cells; then a row has more only if the commas add up to more
        try:
            facts = list(
                map(realign, map(str.split, islice(lines, 1, None), repeat(",")))
            )
        except IndexError:
            facts = None
        if facts is None or text.count(",") != (width - 1) * len(lines):
            rows = [line.split(",") for line in islice(lines, 1, None)]
    if rows is not None:
        if not set(map(len, rows)) <= {width}:
            row_no, row = next(
                (n, row) for n, row in enumerate(rows, start=2) if len(row) != width
            )
            raise DataError(
                f"{path}: row {row_no} has {len(row)} cells, expected {width}"
            )
        # csv cells are str and every row has the signature's width
        facts = list(map(realign, rows))
    instance = Instance._of_checked(signature, dict.fromkeys(facts))
    return IngestResult(
        instance=instance, dropped_duplicates=len(facts) - len(instance)
    )


def _plain_text(instance: Instance) -> Optional[str]:
    """The facts as one text in canonical order, one line per fact with
    its cells joined by commas and no final newline; None unless every
    cell is a str that csv writes as it is, with no NUL and no leading
    ``~``, and no row is a single empty cell, which csv writes as ``""``.

    The instance's rows, in first-seen order, are joined with NUL and
    sorted, and no fact frozenset is built: NUL sorts below every other
    character and is in no cell, so the lines sort in column-wise order,
    whatever order the rows were read in.
    The check runs on the joined text with C-level string operations:
    ``join`` raises on DOT and tuples, a NUL or a ``"\\n"`` inside a cell
    adds to the separators' count, and a leading ``~`` sits at the
    start, after a NUL or after a line break.
    """
    try:
        lines = sorted(map("\x00".join, instance._rows))
    except TypeError:
        return None
    text = "\n".join(lines)
    if (
        not lines
        or lines[0] == ""
        or text.count("\x00") != (instance.signature.arity - 1) * len(lines)
        or text.count("\n") != len(lines) - 1
        or text.startswith("~")
        or "\x00~" in text
        or "\n~" in text
        or "," in text
        or '"' in text
        or "\r" in text
    ):
        return None
    return text.replace("\x00", ",")


def _csv_writer(handle, carriage_return: bool):
    """A ``csv.writer`` that ends each row with ``"\\n"`` and quotes every
    cell holding ``,`` ``"`` ``\\r`` or ``\\n``.

    csv quotes a cell that holds a character of its line terminator, and
    Python 3.13 quotes a ``"\\r"`` too. So when some cell or header name
    holds ``"\\r"``, the rows are written with ``"\\r\\n"`` ends, one
    per ``write`` call, and each end is written as ``"\\n"``; unquoted,
    the ``"\\r"`` would end the row for every CSV reader.
    """
    if not carriage_return:
        return csv.writer(handle, lineterminator="\n")
    write = handle.write
    lines = SimpleNamespace(write=lambda line: write(line[:-2] + "\n"))
    return csv.writer(lines, lineterminator="\r\n")


def write_instance_csv(path: str, instance: Instance) -> None:
    """Write header plus facts in canonical order; the write is atomic."""
    sig = instance.signature
    directory = os.path.dirname(os.path.abspath(path))
    descriptor, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(descriptor, "w", newline="", encoding="utf-8") as handle:
            text = _plain_text(instance)
            cells = ()  # the plain text holds no "\r"
            if text is None:
                values = set(chain.from_iterable(instance._rows))
                rendered = {value: render_constant(value) for value in values}
                rows = instance.sorted_facts
                if any(value != text for value, text in rendered.items()):
                    rows = (map(rendered.__getitem__, fact) for fact in rows)
                cells = rendered.values()
            carriage_return = any("\r" in t for t in chain(sig.attributes, cells))
            writer = _csv_writer(handle, carriage_return)
            writer.writerow(sig.attributes)
            if text is None:
                writer.writerows(rows)
            else:
                handle.writelines((text, "\n"))
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


# ---------------------------------------------------------------------------
# DIMACS CNF and triangle lists


def parse_dimacs(text: str) -> CnfFormula:
    """Parse DIMACS CNF: a ``p cnf`` line, then 0-terminated clauses."""
    num_vars = None
    declared_clauses = None
    literals: list[int] = []
    clauses: list[tuple[int, ...]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c") or line.startswith("%"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise DataError(f"line {line_no}: malformed problem line")
            try:
                num_vars, declared_clauses = int(parts[2]), int(parts[3])
            except ValueError:
                raise DataError(f"line {line_no}: malformed problem line") from None
            continue
        if num_vars is None:
            raise DataError(f"line {line_no}: clause before 'p cnf' line")
        for token in line.split():
            try:
                lit = int(token)
            except ValueError:
                raise DataError(f"line {line_no}: bad literal {token!r}") from None
            if lit == 0:
                if not literals:
                    raise DataError(f"line {line_no}: empty clause")
                clauses.append(tuple(literals))
                literals = []
            else:
                literals.append(lit)
    if num_vars is None:
        raise DataError("missing 'p cnf' line")
    if literals:
        clauses.append(tuple(literals))
    if declared_clauses is not None and declared_clauses != len(clauses):
        raise DataError(
            f"header declares {declared_clauses} clauses, found {len(clauses)}"
        )
    try:
        return CnfFormula(num_vars, clauses)
    except GadgetError as exc:
        raise DataError(str(exc)) from None


def format_dimacs(formula: CnfFormula) -> str:
    lines = [f"p cnf {formula.num_vars} {len(formula.clauses)}"]
    for clause in formula.clauses:
        lines.append(" ".join(str(lit) for lit in clause) + " 0")
    return "\n".join(lines) + "\n"


def parse_triangles(text: str) -> TripartiteGraph:
    """Parse one triangle per line: three node names, whitespace separated."""
    triangles = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3:
            raise DataError(
                f"line {line_no}: expected three node names, got {len(parts)}"
            )
        triangles.append(tuple(parts))
    # each side's nodes in order of first appearance
    a_nodes, b_nodes, c_nodes = (
        dict.fromkeys(tri[side] for tri in triangles) for side in range(3)
    )
    return TripartiteGraph(a_nodes, b_nodes, c_nodes, triangles)
