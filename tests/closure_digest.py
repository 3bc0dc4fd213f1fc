"""Two digests of every closure system's outcome on up to four attributes.

The library digest: for each family the lines are the ``repr`` of its
trace, then, for a hard family, its witness's case id and rules, and
for a tractable family ``find_crep``'s repair of one seeded instance,
as its sorted facts.

The CLI digest: every family is one relation ``R0``, ``R1``, ... of one
schema file, with the same seeded instance as its CSV. It hashes what
``fdrepair classify --stable``, ``classify --stable --json`` and
``repair --stable --fallback-oracle 10`` print, then each CSV that
``repair`` writes, run in-process in a temporary directory with
``--out out``.

The script prints the family counts and the SHA-256 of the library
lines on one line, and the CLI digest on a second, so runs under two
``PYTHONHASHSEED`` values can be compared with ``cmp``:

    PYTHONHASHSEED=0 PYTHONPATH=src python tests/closure_digest.py > d0
    PYTHONHASHSEED=1 PYTHONPATH=src python tests/closure_digest.py > d1
    cmp d0 d1
"""

import contextlib
import hashlib
import io
import os
import random
import tempfile
from collections import Counter

from generators import random_instance
from test_closure_systems import basis, closure_systems

from fdrepair.cli import main as cli_main
from fdrepair.fds import Signature
from fdrepair.gadgets import hard_case_witness
from fdrepair.repair import find_crep
from fdrepair.simplify import classify
from fdrepair.textio import SchemaDocument, format_schema, write_instance_csv


def families():
    """Each family's basis schema and seeded instance, in one order."""
    rng = random.Random(10)
    for n in (3, 4):
        signature = Signature("R", tuple("ABCD"[:n]))
        for family in closure_systems(n):
            instance = random_instance(rng, signature, max_facts=10)
            yield n, family, basis(signature, family), instance


def library_digest() -> str:
    digest = hashlib.sha256()
    counts = Counter()
    for n, family, schema, instance in families():
        digest.update(f"{classify(schema)!r}\n".encode())
        result = find_crep(schema, instance)
        if result is None:
            case_id, reduction = hard_case_witness(schema)
            line = f"{family} hard {case_id} {reduction.rules!r}"
        else:
            line = f"{family} tractable {result.repair.sorted_facts!r}"
        counts[n, result is not None] += 1
        digest.update(line.encode() + b"\n")
    tally = " ".join(
        f"n={n}:{'tractable' if tractable else 'hard'}={count}"
        for (n, tractable), count in sorted(counts.items())
    )
    return f"{tally} sha256={digest.hexdigest()}"


def _run(argv: list[str]) -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(argv)
    return f"exit {code}\n{out.getvalue()}".encode()


def cli_digest() -> str:
    digest = hashlib.sha256()
    relations = []
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            os.mkdir("data")
            for i, (_, _, schema, instance) in enumerate(families()):
                signature = Signature(f"R{i}", schema.signature.attributes)
                relations.append(type(schema)(signature, schema.fds))
                write_instance_csv(
                    f"data/R{i}.csv", type(instance)(signature, instance.facts)
                )
            with open("schema.fd", "w", encoding="utf-8") as handle:
                handle.write(format_schema(SchemaDocument(tuple(relations))))
            classify_args = ["classify", "--schema", "schema.fd", "--stable"]
            digest.update(_run(classify_args))
            digest.update(_run(classify_args + ["--json"]))
            digest.update(_run([
                "repair", "--schema", "schema.fd", "--data", "data",
                "--out", "out", "--stable", "--fallback-oracle", "10",
            ]))
            for schema in relations:
                with open(f"out/{schema.signature.relation}.csv", "rb") as handle:
                    digest.update(handle.read())
        finally:
            os.chdir(cwd)
    return f"cli sha256={digest.hexdigest()}"


def main() -> None:
    print(library_digest())
    print(cli_digest())


if __name__ == "__main__":
    main()
