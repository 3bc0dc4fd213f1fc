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
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Callable, Optional

from .fds import FdSchema
from .gadgets import (
    HARD_SCHEMAS,
    ReductionError,
    gadget_2fd,
    gadget_2r,
    gadget_rl,
    gadget_tr,
    hard_case_witness,
    verify_reduction,
)
from .oracle import CapExceededError, brute_force_crep
from .repair import find_crep
from .simplify import SimplificationTrace, classify
from .textio import (
    DataError,
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


def _load_schema_file(path: str) -> SchemaDocument:
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise CliError(f"cannot read schema file: {exc}") from exc
    try:
        document = parse_schema(text)
    except SchemaParseError as exc:
        raise CliError(f"{path}: {exc}") from exc
    if not document.relations:
        raise CliError(f"{path}: no relations declared")
    return document


def _format_steps(trace: SimplificationTrace) -> str:
    if not trace.steps:
        return "(none)"
    parts = []
    for step in trace.steps:
        attrs = step.schema_before.signature.sorted_attrs(
            step.removed_attributes
        )
        parts.append(f"{step.kind}:{{{','.join(attrs)}}}")
    return " ".join(parts)


def _emit(lines: list[str]) -> None:
    sys.stdout.write("\n".join(lines) + "\n")


def _relation_header(schema: FdSchema) -> list[str]:
    sig = schema.signature
    return [
        f"relation: {sig.relation}",
        f"  attributes: {','.join(sig.attributes)}",
        f"  fds: {schema.render_fds()}",
    ]


def _timing_line(started: float) -> str:
    return f"  elapsed-ms: {(time.perf_counter() - started) * 1000.0:.2f}"


def cmd_classify(args: argparse.Namespace) -> int:
    document = _load_schema_file(args.schema)
    lines: list[str] = []
    payload = []
    any_hard = False
    for schema in document.relations:
        started = time.perf_counter()
        trace = classify(schema)
        any_hard = any_hard or not trace.tractable
        lines.extend(_relation_header(schema))
        lines.append(f"  tractable: {str(trace.tractable).lower()}")
        lines.append(f"  steps: {_format_steps(trace)}")
        lines.append(f"  terminal-fds: {trace.terminal.render_fds()}")
        if not args.stable:
            lines.append(_timing_line(started))
        payload.append(
            {
                "relation": schema.signature.relation,
                "attributes": list(schema.signature.attributes),
                "tractable": trace.tractable,
                "steps": [
                    {
                        "kind": step.kind,
                        "removed": list(
                            step.schema_before.signature.sorted_attrs(
                                step.removed_attributes
                            )
                        ),
                    }
                    for step in trace.steps
                ],
                "terminal_fds": trace.terminal.render_fds(),
            }
        )
    if args.json:
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    else:
        _emit(lines)
    return 2 if any_hard else 0


def _load_relation_csv(data_dir: str, schema: FdSchema):
    path = os.path.join(data_dir, f"{schema.signature.relation}.csv")
    if not os.path.exists(path):
        raise CliError(f"no data file for relation: {path}")
    try:
        return read_instance_csv(path, schema.signature)
    except DataError as exc:
        raise CliError(str(exc)) from exc


def cmd_repair(args: argparse.Namespace) -> int:
    document = _load_schema_file(args.schema)
    os.makedirs(args.out, exist_ok=True)
    lines: list[str] = []
    for schema in document.relations:
        started = time.perf_counter()
        ingest = _load_relation_csv(args.data, schema)
        result = find_crep(schema, ingest.instance)
        if result is not None:
            method = "exact"
        elif args.fallback_oracle is not None:
            if len(ingest.instance) > args.fallback_oracle:
                raise CliError(
                    f"relation {schema.signature.relation} is intractable and "
                    f"has {len(ingest.instance)} facts, above the oracle cap "
                    f"{args.fallback_oracle}"
                )
            result = brute_force_crep(
                schema, ingest.instance, cap=args.fallback_oracle
            )
            method = "oracle"
        else:
            raise CliError(
                f"relation {schema.signature.relation} is intractable; "
                "rerun with --fallback-oracle CAP to brute-force small inputs"
            )
        out_path = os.path.join(args.out, f"{schema.signature.relation}.csv")
        write_instance_csv(out_path, result.repair)
        lines.extend(_relation_header(schema))
        lines.append(f"  tractable: {str(result.trace.tractable).lower()}")
        lines.append(f"  steps: {_format_steps(result.trace)}")
        lines.append(f"  method: {method}")
        lines.append(f"  input-facts: {len(ingest.instance)}")
        lines.append(f"  dropped-duplicates: {ingest.dropped_duplicates}")
        lines.append(f"  repair-size: {result.size}")
        lines.append(f"  removed-facts: {len(ingest.instance) - result.size}")
        lines.append(f"  output: {out_path}")
        if not args.stable:
            lines.append(_timing_line(started))
    _emit(lines)
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    document = _load_schema_file(args.schema)
    if args.out is not None:
        os.makedirs(args.out, exist_ok=True)
    lines: list[str] = []
    for schema in document.relations:
        started = time.perf_counter()
        ingest = _load_relation_csv(args.data, schema)
        try:
            result = brute_force_crep(schema, ingest.instance, cap=args.cap)
        except CapExceededError as exc:
            raise CliError(str(exc)) from exc
        lines.extend(_relation_header(schema))
        lines.append(f"  input-facts: {len(ingest.instance)}")
        lines.append(f"  dropped-duplicates: {ingest.dropped_duplicates}")
        lines.append(f"  repair-size: {result.size}")
        if args.out is not None:
            out_path = os.path.join(args.out, f"{schema.signature.relation}.csv")
            write_instance_csv(out_path, result.repair)
            lines.append(f"  output: {out_path}")
        if not args.stable:
            lines.append(_timing_line(started))
    _emit(lines)
    return 0


_GADGET_BUILDERS: dict[str, Callable] = {
    "2fd": gadget_2fd,
    "rl": gadget_rl,
    "2r": gadget_2r,
    "tr": gadget_tr,
}


def cmd_gadget(args: argparse.Namespace) -> int:
    try:
        with open(args.infile, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise CliError(f"cannot read input file: {exc}") from exc
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
    except (DataError, ValueError) as exc:
        raise CliError(str(exc)) from exc
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
    document = _load_schema_file(args.schema)
    domain = tuple(str(i) for i in range(args.domain))
    lines: list[str] = []
    failures = 0
    for schema in document.relations:
        started = time.perf_counter()
        trace = classify(schema)
        lines.extend(_relation_header(schema))
        lines.append(f"  tractable: {str(trace.tractable).lower()}")
        if trace.tractable:
            lines.append("  witness: none (tractable schema)")
        else:
            try:
                case_id, reduction = hard_case_witness(schema)
            except ReductionError as exc:
                failures += 1
                lines.append(f"  witness: error ({exc})")
                if not args.stable:
                    lines.append(_timing_line(started))
                continue
            report = verify_reduction(reduction, domain=domain)
            lines.append(f"  witness: case {case_id}")
            lines.append(
                f"  source: {reduction.source.signature.relation}"
                f" [{reduction.source.render_fds()}]"
            )
            lines.append(f"  pairs-checked: {report.pairs_checked}")
            lines.append(
                f"  exhaustive: {str(report.exhaustive).lower()}"
            )
            lines.append(f"  violations: {len(report.violations)}")
            for violation in report.violations[:5]:
                lines.append(
                    f"    {violation.kind}: {violation.first!r} vs "
                    f"{violation.second!r}"
                )
            if report.violations:
                failures += 1
        if not args.stable:
            lines.append(_timing_line(started))
    _emit(lines)
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
    p_oracle.add_argument("--cap", type=int, default=20)
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
    p_verify.add_argument(
        "--domain", type=int, default=3, help="value domain size (default 3)"
    )
    p_verify.add_argument("--stable", action="store_true")
    p_verify.set_defaults(func=cmd_verify_reduction)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DataError, SchemaParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
