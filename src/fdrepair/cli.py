"""Command-line front end.

Subcommands: ``classify`` (tractability verdict per relation), ``repair``
(exact repair, optional brute-force fallback), ``oracle`` (brute force
regardless of tractability), ``gadget`` (hardness instance generators),
and ``verify-reduction`` (hardness witness construction and empirical
check).

Exit codes: 0 on success, 1 on any error, and 2 from ``classify`` when
at least one relation is intractable. Reports are plain ``key: value``
text with a stable field order; ``--stable`` drops the timing fields so
two runs on identical inputs are byte-identical.

:func:`main` builds the argument parser on its first call and reuses it,
so a caller that runs many commands in one process pays for it once.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from functools import cache
from typing import Callable, Optional

from .fds import FdSchema, _names
from .gadgets import (
    HARD_SCHEMAS,
    ReductionError,
    _witness,
    gadget_2fd,
    gadget_2r,
    gadget_rl,
    gadget_tr,
    verify_reduction,
)
from .oracle import DEFAULT_FACT_CAP, brute_force_crep
from .repair import find_crep
from .simplify import SimplificationTrace, classify
from .textio import (
    SchemaDocument,
    SchemaParseError,
    format_schema,
    parse_dimacs,
    parse_schema,
    parse_triangles,
    read_instance_csv,
    write_instance_csv,
)


class CliError(Exception):
    """Fatal condition reported to stderr; maps to exit code 1."""


def _read_text(path: str, what: str) -> str:
    """The text of a UTF-8 file (a leading BOM dropped); ``what`` names
    the file in the error when it cannot be read."""
    try:
        with open(path, encoding="utf-8-sig") as handle:
            return handle.read()
    except OSError as exc:
        raise CliError(f"cannot read {what} file: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise CliError(f"{path}: {exc}") from exc


def _load_schema_file(path: str) -> SchemaDocument:
    text = _read_text(path, "schema")
    try:
        document = parse_schema(text)
    except SchemaParseError as exc:
        raise CliError(f"{path}: {exc}") from exc
    if not document.relations:
        raise CliError(f"{path}: no relations declared")
    return document


def _steps(trace: SimplificationTrace) -> list[dict]:
    """Each applied rewrite's kind and removed columns, in signature order."""
    attrs = trace._schema.signature.attributes
    return [
        {"kind": kind, "removed": list(_names(attrs, removed))}
        for kind, _, removed in trace._plan
    ]


def _format_steps(steps: list[dict]) -> str:
    parts = [f"{step['kind']}:{{{','.join(step['removed'])}}}" for step in steps]
    return " ".join(parts) or "(none)"


def _emit(lines: list[str]) -> None:
    sys.stdout.write("\n".join(lines) + "\n")


def _load_relation_csv(data_dir: str, schema: FdSchema):
    path = os.path.join(data_dir, f"{schema.signature.relation}.csv")
    if not os.path.exists(path):
        raise CliError(f"no data file for relation: {path}")
    return read_instance_csv(path, schema.signature)


def _report(args: argparse.Namespace, relation: Callable, out=None) -> list[str]:
    """The report lines of each relation in the ``--schema`` file, which
    is loaded before ``out`` is created: its header, the lines that
    ``relation(schema)`` gives with a repair or None, the repair written
    to ``out`` and named, and ``elapsed-ms`` unless ``--stable``."""
    document = _load_schema_file(args.schema)
    if out is not None:
        os.makedirs(out, exist_ok=True)
    lines: list[str] = []
    for schema in document.relations:
        started = time.perf_counter()
        body, repair = relation(schema)
        sig = schema.signature
        lines.append(f"relation: {sig.relation}")
        lines.append(f"  attributes: {','.join(sig.attributes)}")
        lines.append(f"  fds: {schema.render_fds()}")
        lines.extend(body)
        if out is not None and repair is not None:
            out_path = os.path.join(out, f"{sig.relation}.csv")
            write_instance_csv(out_path, repair)
            lines.append(f"  output: {out_path}")
        if not args.stable:
            lines.append(f"  elapsed-ms: {(time.perf_counter() - started) * 1000:.2f}")
    return lines


def cmd_classify(args: argparse.Namespace) -> int:
    records = []

    def relation(schema: FdSchema):
        trace = classify(schema)
        record = {
            "relation": schema.signature.relation,
            "attributes": list(schema.signature.attributes),
            "tractable": trace.tractable,
            "steps": _steps(trace),
            "terminal_fds": trace._render_fds(),
        }
        records.append(record)
        return [
            f"  tractable: {str(record['tractable']).lower()}",
            f"  steps: {_format_steps(record['steps'])}",
            f"  terminal-fds: {record['terminal_fds']}",
        ], None

    lines = _report(args, relation)
    if args.json:
        sys.stdout.write(json.dumps(records, indent=2) + "\n")
    else:
        _emit(lines)
    return 0 if all(record["tractable"] for record in records) else 2


def cmd_repair(args: argparse.Namespace) -> int:
    def relation(schema: FdSchema):
        ingest = _load_relation_csv(args.data, schema)
        result = find_crep(schema, ingest.instance)
        if result is not None:
            method, trace = "exact", result.trace
        elif args.fallback_oracle is not None:
            if len(ingest.instance) > args.fallback_oracle:
                raise CliError(
                    f"relation {schema.signature.relation} is intractable and "
                    f"has {len(ingest.instance)} facts, above the oracle cap "
                    f"{args.fallback_oracle}"
                )
            # the report shows the hard trace, which find_crep does not return
            method, trace = "oracle", classify(schema)
            result = brute_force_crep(
                schema, ingest.instance, cap=args.fallback_oracle
            )
        else:
            raise CliError(
                f"relation {schema.signature.relation} is intractable; "
                "rerun with --fallback-oracle CAP to brute-force small inputs"
            )
        return [
            f"  tractable: {str(trace.tractable).lower()}",
            f"  steps: {_format_steps(_steps(trace))}",
            f"  method: {method}",
            f"  input-facts: {len(ingest.instance)}",
            f"  dropped-duplicates: {ingest.dropped_duplicates}",
            f"  repair-size: {result.size}",
            f"  removed-facts: {len(ingest.instance) - result.size}",
        ], result.repair

    _emit(_report(args, relation, args.out))
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    def relation(schema: FdSchema):
        ingest = _load_relation_csv(args.data, schema)
        result = brute_force_crep(schema, ingest.instance, cap=args.cap)
        return [
            f"  input-facts: {len(ingest.instance)}",
            f"  dropped-duplicates: {ingest.dropped_duplicates}",
            f"  repair-size: {result.size}",
        ], result.repair

    _emit(_report(args, relation, args.out))
    return 0


_GADGET_BUILDERS: dict[str, Callable] = {
    "2fd": gadget_2fd,
    "rl": gadget_rl,
    "2r": gadget_2r,
    "tr": gadget_tr,
}


def cmd_gadget(args: argparse.Namespace) -> int:
    text = _read_text(args.infile, "input")
    schema = HARD_SCHEMAS[args.type]
    try:
        if args.type == "tr":
            source = parse_triangles(text)
            instance = gadget_tr(source)
            size_note = f"  triangles: {len(source.triangles)}"
        else:
            formula = parse_dimacs(text)
            instance = _GADGET_BUILDERS[args.type](formula)
            size_note = (
                f"  variables: {formula.num_vars}\n"
                f"  clauses: {len(formula.clauses)}"
            )
    except ValueError as exc:
        raise CliError(f"{args.infile}: {exc}") from exc
    os.makedirs(args.out, exist_ok=True)
    csv_path = os.path.join(args.out, f"{schema.signature.relation}.csv")
    schema_path = os.path.join(args.out, "schema.fd")
    write_instance_csv(csv_path, instance)
    with open(schema_path, "w", encoding="utf-8") as handle:
        handle.write(format_schema(SchemaDocument(relations=(schema,))))
    _emit(
        [
            f"gadget: {args.type}",
            size_note,
            f"  facts: {len(instance)}",
            f"  instance: {csv_path}",
            f"  schema: {schema_path}",
        ]
    )
    return 0


def cmd_verify_reduction(args: argparse.Namespace) -> int:
    failures = 0

    def relation(schema: FdSchema):
        nonlocal failures
        trace = classify(schema)
        lines = [f"  tractable: {str(trace.tractable).lower()}"]
        if trace.tractable:
            return [*lines, "  witness: none (tractable schema)"], None
        try:
            case_id, reduction = _witness(trace)
        except ReductionError as exc:
            failures += 1
            return [*lines, f"  witness: error ({exc})"], None
        report = verify_reduction(reduction)
        lines.append(f"  witness: case {case_id}")
        lines.append(
            f"  source: {reduction.source.signature.relation}"
            f" [{reduction.source.render_fds()}]"
        )
        lines.append(f"  pairs-checked: {report.pairs_checked}")
        lines.append(f"  exhaustive: {str(report.exhaustive).lower()}")
        lines.append(f"  violations: {len(report.violations)}")
        for violation in report.violations[:5]:
            lines.append(
                f"    {violation.kind}: {violation.first!r} vs {violation.second!r}"
            )
        if report.violations:
            failures += 1
        return lines, None

    _emit(_report(args, relation))
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fdrepair",
        description=(
            "Classify functional-dependency schemas for repair tractability "
            "and compute cardinality repairs."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser(
        "classify", help="tractability verdict and rewrite trace per relation"
    )
    p_classify.add_argument("--schema", required=True)
    p_classify.add_argument("--json", action="store_true")
    p_classify.add_argument("--stable", action="store_true")
    p_classify.set_defaults(func=cmd_classify)

    p_repair = sub.add_parser(
        "repair", help="write a cardinality repair per relation"
    )
    p_repair.add_argument("--schema", required=True)
    p_repair.add_argument("--data", required=True, help="directory of <relation>.csv files")
    p_repair.add_argument("--out", required=True, help="output directory")
    p_repair.add_argument(
        "--fallback-oracle",
        type=int,
        metavar="CAP",
        help="brute-force intractable relations up to CAP facts",
    )
    p_repair.add_argument("--stable", action="store_true")
    p_repair.set_defaults(func=cmd_repair)

    p_oracle = sub.add_parser(
        "oracle", help="brute-force repair regardless of tractability"
    )
    p_oracle.add_argument("--schema", required=True)
    p_oracle.add_argument("--data", required=True)
    p_oracle.add_argument(
        "--cap",
        type=int,
        default=DEFAULT_FACT_CAP,
        metavar="CAP",
        help="refuse relations above CAP facts (default %(default)s)",
    )
    p_oracle.add_argument("--out", help="optional output directory")
    p_oracle.add_argument("--stable", action="store_true")
    p_oracle.set_defaults(func=cmd_oracle)

    p_gadget = sub.add_parser(
        "gadget", help="build a hardness instance from CNF or triangles"
    )
    p_gadget.add_argument("--type", required=True, choices=sorted(_GADGET_BUILDERS))
    p_gadget.add_argument("--in", dest="infile", required=True)
    p_gadget.add_argument("--out", required=True)
    p_gadget.set_defaults(func=cmd_gadget)

    p_verify = sub.add_parser(
        "verify-reduction",
        help="build and empirically check a hardness witness per relation",
    )
    p_verify.add_argument("--schema", required=True)
    p_verify.add_argument("--stable", action="store_true")
    p_verify.set_defaults(func=cmd_verify_reduction)

    return parser


# Built on the first call of ``main`` and reused by every later call in the
# process: ``parse_args`` never changes the parser, and building it takes
# about 1 ms, a third of a small in-process repair
_parser = cache(build_parser)


def main(argv: Optional[list[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    # DataError and SchemaParseError are ValueErrors; an OSError names the
    # path it failed on (an unreadable input, an --out that is a file)
    except (CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
