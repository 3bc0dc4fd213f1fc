"""The four benchmark workloads: seeded inputs, timed ops and their checks.

An *op* is one unit of timed work with its own correctness check. Every
input is generated here from the workload seed; fdrepair only ever sees
the generated CSV files, formulas, triangle sets, schemas and instances.
Checks use :mod:`reference`, which does not import fdrepair, and run
outside the timed region. References are computed on first use, so they
count neither as op time nor as set-up time.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import os
import random
from dataclasses import dataclass
from typing import Callable, Optional

import fdrepair
import fdrepair.cli
import fdrepair.fds
import fdrepair.gadgets
import fdrepair.oracle
import fdrepair.repair
import fdrepair.simplify

import reference

# Schemas as (attributes, FDs) in the notation of reference.parse_fds.
AB_C_A_D = ("ABCD", ("AB->C", "A->D"))
WORKED_EXAMPLE = ("ABCDEF", ("->A", "DB->ACE", "DC->B", "DB->F"))
A_B_B_A = ("ABC", ("A->B", "B->A"))
HARD_CORES = {
    "2fd": ("ABC", ("AB->C", "C->B")),
    "rl": ("ABC", ("A->B", "B->C")),
    "2r": ("ABC", ("A->C", "B->C")),
    "tr": ("ABC", ("AB->C", "AC->B", "BC->A")),
}

DIRTY_SHARE = 0.04
DUPLICATE_SHARE = 0.01
# The worked example at 16k rows (about 6 s per op) would leave too few
# repeats per run for a stable median; it joins once the recursion is fast.
BLOCK_SIZES = {"ab_c-a_d": (1000, 4000, 16000), "worked": (1000, 4000)}
ORACLE_INSTANCES = 5000
VERDICT_SCHEMAS = 8000
WARMUP_OPS = 20


@dataclass
class Op:
    """One timed unit of work and the check of what it returned."""

    label: str
    facts: int
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]


@dataclass
class Inputs:
    """A workload's ops for one seed, warm-up ops, and an input digest."""

    ops: list[Op]
    warmup: list[Op]
    digest: str


def _digest(*parts) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


def _fd_schema(spec) -> fdrepair.FdSchema:
    attrs, fds = spec
    parsed = []
    for fd in fds:
        lhs, rhs = fd.split("->")
        parsed.append(fdrepair.Fd(frozenset(lhs), frozenset(rhs)))
    return fdrepair.FdSchema(fdrepair.Signature("R", tuple(attrs)), parsed)


def _schema_text(spec) -> str:
    attrs, fds = spec
    lines = [f"relation R({', '.join(attrs)})"]
    for fd in fds:
        lhs, rhs = fd.split("->")
        lines.append(f"fd R: {','.join(lhs)} -> {','.join(rhs)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# repair-blocks and repair-matching: `fdrepair repair` on one CSV per op


def _with_noise(rng, clean, n, mutate):
    """Exactly ``n`` rows: clean rows, a dirty share, a few duplicates.

    ``mutate(rng, row, i)`` makes the i-th dirty row from a clean one.
    """
    dirty = round(n * DIRTY_SHARE)
    duplicates = round(n * DUPLICATE_SHARE)
    rows = clean[: n - dirty - duplicates]
    rows += [mutate(rng, list(rng.choice(rows)), i) for i in range(dirty)]
    rows += [rng.choice(rows) for _ in range(duplicates)]
    rng.shuffle(rows)
    return rows


def _ab_c_a_d_rows(rng: random.Random, n: int) -> list[tuple]:
    """Per A value one D value and 4-28 distinct B values, one C each.

    Block sizes cycle instead of being drawn, so every seed gives a table
    of the same shape and cost; the seed picks the values.
    """
    clean = []
    a = 0
    while len(clean) < n:
        d = f"d{rng.randrange(1000)}"
        for b in rng.sample(range(40), 4 + a % 25):
            clean.append((f"a{a}", f"b{b}", f"c{rng.randrange(1000)}", d))
        a += 1

    def mutate(rng, row, i):
        if i % 2:
            row[2] = f"c{1000 + rng.randrange(1000)}"
        else:
            row[3] = f"d{1000 + rng.randrange(1000)}"
        return tuple(row)

    return _with_noise(rng, clean, n, mutate)


def _worked_example_rows(rng: random.Random, n: int) -> list[tuple]:
    """One A value; per D value a one-to-one B-C pairing of 2-14 pairs."""
    clean = []
    d = 0
    while len(clean) < n:
        k = 2 + d % 13
        for b, c in zip(rng.sample(range(40), k), rng.sample(range(40), k)):
            clean.append(
                ("a0", f"b{b}", f"c{c}", f"d{d}",
                 f"e{rng.randrange(9)}", f"f{rng.randrange(9)}")
            )
        d += 1

    def mutate(rng, row, i):
        kind = i % 4
        if kind == 0:
            row[0] = f"a{rng.randint(1, 3)}"
        elif kind == 1:
            row[1] = f"b{rng.randrange(40)}"
        elif kind == 2:
            row[2] = f"c{rng.randrange(40)}"
        else:
            row[4] = f"e{9 + rng.randrange(9)}"
        return tuple(row)

    return _with_noise(rng, clean, n, mutate)


def _one_to_one_rows(rng: random.Random, keys: int, cluster: int) -> list[tuple]:
    """Key pairs (a_i, b_i) with 1-4 facts each, plus 20% noise rows.

    A noise row pairs a_i with some b_j from the same cluster of
    ``cluster`` keys, so small clusters give many small components and
    one cluster spanning all keys gives one large component.
    """
    clean = [(f"a{i}", f"b{i}", f"c{c}") for i in range(keys) for c in range(1 + i % 4)]
    noise = []
    for _ in range(round(len(clean) * 0.25)):
        i = rng.randrange(keys)
        j = i - i % cluster + rng.randrange(min(cluster, keys - i + i % cluster))
        noise.append((f"a{i}", f"b{j}", f"c{rng.randrange(9)}"))
    rows = clean + noise
    rng.shuffle(rows)
    return rows


def _dense_rows(rng: random.Random, keys: int) -> list[tuple]:
    """Every (a_i, b_j) pair occupied by 1-3 facts: one dense component.

    The counts keep one histogram for every seed; the seed places them.
    """
    counts = [1 + cell % 3 for cell in range(keys * keys)]
    rng.shuffle(counts)
    return [
        (f"a{cell // keys}", f"b{cell % keys}", f"c{c}")
        for cell, count in enumerate(counts)
        for c in range(count)
    ]


def _write_csv(path: str, attrs: str, rows: list[tuple]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(",".join(attrs) + "\n")
        handle.writelines(",".join(row) + "\n" for row in rows)


def _cli_repair_op(workdir: str, label: str, spec, rows, closed_form) -> Op:
    """Write one relation's CSV and schema; the op repairs it via the CLI."""
    base = os.path.join(workdir, label)
    data, out = os.path.join(base, "data"), os.path.join(base, "out")
    os.makedirs(data)
    schema_path = os.path.join(base, "schema.fd")
    with open(schema_path, "w", encoding="utf-8") as handle:
        handle.write(_schema_text(spec))
    _write_csv(os.path.join(data, "R.csv"), spec[0], rows)
    facts = set(rows)
    argv = ["repair", "--schema", schema_path, "--data", data, "--out", out]

    def run():
        with contextlib.redirect_stdout(io.StringIO()):
            return fdrepair.cli.main(argv)

    fds = reference.parse_fds(tuple(spec[0]), spec[1])
    expected = functools.cache(lambda: closed_form(facts))

    def check(status) -> Optional[str]:
        if status != 0:
            return f"fdrepair repair exited with {status}"
        chosen = reference.read_csv_facts(
            os.path.join(out, "R.csv"), tuple(spec[0])
        )
        if len(set(chosen)) != len(chosen):
            return "repair output repeats a row"
        if len(chosen) != expected():
            return f"repair size {len(chosen)}, reference {expected()}"
        return reference.repair_violation(fds, facts, set(chosen))

    return Op(label=label, facts=len(facts), run=run, check=check)


def repair_blocks(seed: int, workdir: str) -> Inputs:
    rng = random.Random(seed)
    shapes = (
        ("ab_c-a_d", AB_C_A_D, _ab_c_a_d_rows, reference.max_repair_ab_c_a_d),
        ("worked", WORKED_EXAMPLE, _worked_example_rows,
         reference.max_repair_worked_example),
    )
    tables = [
        (f"{name}-{size}", spec, generate(rng, size), closed_form)
        for name, spec, generate, closed_form in shapes
        for size in BLOCK_SIZES[name]
    ]
    ops = [_cli_repair_op(workdir, *table) for table in tables]
    warmup = [
        _cli_repair_op(workdir, f"warmup-{name}", spec, generate(rng, 64), form)
        for name, spec, generate, form in shapes
    ]
    return Inputs(ops, warmup, _digest([table[2] for table in tables]))


def repair_matching(seed: int, workdir: str) -> Inputs:
    rng = random.Random(seed)
    tables = [
        ("local-400", _one_to_one_rows(rng, 400, 8)),
        ("local-500", _one_to_one_rows(rng, 500, 8)),
        *((f"global-{k}", _one_to_one_rows(rng, k, k)) for k in (100, 150, 200, 250, 300)),
        ("dense-40", _dense_rows(rng, 40)),
        ("dense-60", _dense_rows(rng, 60)),
    ]
    ops = [
        _cli_repair_op(workdir, label, A_B_B_A, rows, reference.max_repair_a_b_b_a)
        for label, rows in tables
    ]
    warmup = [
        _cli_repair_op(workdir, "warmup", A_B_B_A,
                       _one_to_one_rows(rng, 20, 20), reference.max_repair_a_b_b_a)
    ]
    return Inputs(ops, warmup, _digest(tables))


# ---------------------------------------------------------------------------
# oracle-sweep: one brute-force repair of one hard-core gadget per op

TRIANGLE_UNIVERSE = [
    (f"a{a}", f"b{b}", f"c{c}") for a in "123" for b in "123" for c in "123"
]


def _random_cnf(rng: random.Random, mixed: bool, shape: int) -> tuple[int, list[tuple]]:
    """3-6 variables and 2-5 clauses of 1-3 literals.

    The variable and clause counts cycle with ``shape``; the seed draws
    the clauses.
    """
    num_vars = 3 + shape % 4
    clauses = []
    for _ in range(2 + shape // 4 % 4):
        variables = rng.sample(range(1, num_vars + 1), rng.randint(1, 3))
        sign = 1 if rng.random() < 0.5 else -1
        clauses.append(
            tuple(
                v * (sign if not mixed else rng.choice((1, -1)))
                for v in variables
            )
        )
    return num_vars, clauses


def _oracle_op(index: int, kind: str, source) -> Op:
    fds = reference.parse_fds(("A", "B", "C"), HARD_CORES[kind][1])
    if kind == "tr":
        graph = fdrepair.TripartiteGraph(
            ("a1", "a2", "a3"), ("b1", "b2", "b3"), ("c1", "c2", "c3"), source
        )
        arg, facts = graph, len(source)
        target = functools.cache(lambda: reference.max_triangle_packing(source))
    else:
        num_vars, clauses = source
        arg = fdrepair.CnfFormula(num_vars, clauses)
        facts = sum(len(c) for c in clauses)
        sat = functools.cache(lambda: reference.satisfiable(num_vars, clauses))

    def run():
        gadgets = fdrepair.gadgets
        instance = getattr(gadgets, f"gadget_{kind}")(arg)
        schema = gadgets.HARD_SCHEMAS[kind]
        return instance, fdrepair.oracle.brute_force_crep(schema, instance)

    def check(output) -> Optional[str]:
        instance, result = output
        if len(instance) != facts or (kind == "tr" and instance.facts != set(source)):
            return f"gadget has {len(instance)} facts, expected {facts}"
        chosen = set(result.repair.facts)
        if len(chosen) != result.size:
            return "reported size differs from the repair"
        wrong = reference.repair_violation(fds, set(instance.facts), chosen)
        if wrong:
            return wrong
        if kind == "tr":
            if result.size != target():
                return f"repair size {result.size}, packing {target()}"
        elif result.size > len(clauses) or (result.size == len(clauses)) != sat():
            return f"repair size {result.size} of {len(clauses)}, sat={sat()}"
        return None

    return Op(label=f"{kind}-{index}", facts=facts, run=run, check=check)


def oracle_sweep(seed: int, workdir: str) -> Inputs:
    """Gadget kinds and sizes (3-10 triangles; CNF shapes) cycle, so each
    seed has the same mix, which keeps op_ms_p50 off the seed; the seed
    draws the triangles and clauses."""
    rng = random.Random(seed)
    sources = []
    for i in range(ORACLE_INSTANCES):
        kind = ("tr", "rl", "2r", "2fd")[i % 4]
        if kind == "tr":
            source = sorted(rng.sample(TRIANGLE_UNIVERSE, 3 + i // 4 % 8))
        else:
            source = _random_cnf(rng, kind != "2fd", i // 4)
        sources.append((kind, source))
    ops = [_oracle_op(i, kind, source) for i, (kind, source) in enumerate(sources)]
    return Inputs(ops, ops[:WARMUP_OPS], _digest(sources))


# ---------------------------------------------------------------------------
# verdict-check: classify a random schema, then witness it or repair it

# Labels of the verdict-check schemas that hit the witness gap.
WITNESS_GAPS: set[str] = set()


def _random_schema(rng: random.Random, arity: int, fd_count: int):
    """``fd_count`` FDs over ``arity`` attributes; sides drawn independently."""
    attrs = list("ABCDEF"[:arity])
    rng.shuffle(attrs)
    fds = []
    for _ in range(fd_count):
        lhs = "".join(a for a in attrs if rng.random() < 0.4)
        rhs = "".join(a for a in attrs if rng.random() < 0.4)
        fds.append(f"{lhs}->{rhs}")
    return "".join(attrs), tuple(fds)


def _verdict_op(index: int, spec, rows: list[tuple]) -> Op:
    label = f"schema-{index}"
    schema = _fd_schema(spec)
    instance = fdrepair.Instance(schema.signature, rows)
    fds = reference.parse_fds(tuple(spec[0]), spec[1])
    facts = set(instance.facts)

    def repair(target):
        pkg = fdrepair
        result = pkg.repair.find_crep(target, instance)
        oracle = pkg.oracle.brute_force_crep(schema, instance)
        return result, oracle, pkg.oracle.is_s_repair(schema, instance, result.repair)

    def run():
        pkg = fdrepair
        if pkg.simplify.classify(schema).tractable:
            return repair(schema)
        try:
            _, reduction = pkg.gadgets.hard_case_witness(schema)
        except getattr(pkg.gadgets, "ReductionGapError", ()):
            # The classifier's syntactic-S3 blind spot: no witness exists,
            # and the error says an equivalent rewriting is tractable. Take
            # the rewriting the CLI names (each lhs once, with its closure)
            # and repair the instance under it, checked like any repair.
            WITNESS_GAPS.add(label)
            return repair(pkg.fds.saturate(schema))
        return pkg.gadgets.verify_reduction(reduction)

    def check(output) -> Optional[str]:
        if isinstance(output, tuple):
            result, oracle, maximal = output
            if result.size != oracle.size:
                return f"find_crep size {result.size}, oracle {oracle.size}"
            if not maximal:
                return "is_s_repair rejects the find_crep repair"
            return reference.repair_violation(fds, facts, set(result.repair.facts))
        if not (output.ok and output.exhaustive):
            return f"reduction check failed: {output.violations[:1]}"
        return None

    return Op(label=label, facts=len(facts), run=run, check=check)


def verdict_check(seed: int, workdir: str) -> Inputs:
    """Schema shapes (1-6 attributes, 0-4 FDs, 0-12 facts) cycle through
    every combination, so each seed has the same mix; the seed draws the
    FDs and the facts."""
    rng = random.Random(seed)
    stream = []
    for i in range(VERDICT_SCHEMAS):
        attrs, fds = _random_schema(rng, 1 + i % 6, i // 6 % 5)
        rows = [
            tuple(rng.choice("012") for _ in attrs)
            for _ in range(i // 30 % 13)
        ]
        stream.append(((attrs, fds), rows))
    ops = [_verdict_op(i, spec, rows) for i, (spec, rows) in enumerate(stream)]
    return Inputs(ops, ops[:WARMUP_OPS], _digest(stream))


WORKLOADS = {
    "repair-blocks": repair_blocks,
    "repair-matching": repair_matching,
    "oracle-sweep": oracle_sweep,
    "verdict-check": verdict_check,
}
