"""Seeded random generators shared by the test modules."""

from __future__ import annotations

import random

from fdrepair.fds import Fd, FdSchema, Instance, Signature
from fdrepair.repair import BipartiteMatchProblem
from fdrepair.gadgets import CnfFormula
from fdrepair.simplify import classify

NAMES = "ABCDEFGH"


def random_schema(
    rng: random.Random, max_attrs: int = 5, max_fds: int = 4
) -> FdSchema:
    """Arbitrary small schema; FDs may be trivial or share attributes."""
    arity = rng.randint(1, max_attrs)
    attrs = list(NAMES[:arity])
    rng.shuffle(attrs)
    sig = Signature("R", tuple(attrs))
    fds = []
    for _ in range(rng.randint(0, max_fds)):
        lhs = frozenset(a for a in attrs if rng.random() < 0.4)
        rhs = frozenset(a for a in attrs if rng.random() < 0.4)
        fds.append(Fd(lhs, rhs))
    return FdSchema(sig, fds)


def random_intractable_schema(
    rng: random.Random, max_attrs: int = 5, max_fds: int = 4
) -> FdSchema:
    while True:
        schema = random_schema(rng, max_attrs, max_fds)
        if not classify(schema).tractable:
            return schema


def random_tractable_schema(
    rng: random.Random, max_attrs: int = 5, max_fds: int = 4
) -> FdSchema:
    """Schema built by inverting a random rewrite sequence.

    Starting from an empty FD set, each inverse step adds the attributes a
    forward rewrite would remove, so the forward classifier can always
    unwind the construction (checked, since the fixed rule order may pick
    a different path).
    """
    while True:
        schema = _inverted_build(rng, max_attrs, max_fds)
        if (
            schema is not None
            and len(schema.fds) <= max_fds
            and classify(schema).tractable
        ):
            return schema


def _inverted_build(rng, max_attrs, max_fds):
    pool = list(NAMES[:max_attrs])
    rng.shuffle(pool)

    def take(k):
        if len(pool) < k:
            return None
        return [pool.pop() for _ in range(k)]

    fds: list[tuple[set, set]] = []
    used: list[str] = []
    for _ in range(rng.randint(1, 3)):
        kinds = ["S2"]
        if fds:
            kinds.append("S1")
        if len(fds) + 2 <= max_fds:
            kinds.append("S3")
        kind = rng.choice(kinds)
        if kind == "S1":
            got = take(1)
            if got is None:
                break
            (attr,) = got
            used.append(attr)
            for lhs, _ in fds:
                lhs.add(attr)
        elif kind == "S2":
            got = take(rng.randint(1, 2))
            if got is None:
                break
            used.extend(got)
            for lhs, rhs in fds:
                for attr in got:
                    if rng.random() < 0.3:
                        lhs.add(attr)
                    elif rng.random() < 0.3:
                        rhs.add(attr)
            fds.append((set(), set(got)))
            if len(fds) > max_fds:
                return None
        else:
            got = take(2)
            if got is None:
                break
            x1, x2 = got
            used.extend(got)
            for lhs, rhs in fds:
                lhs.add(rng.choice((x1, x2)))
                if rng.random() < 0.3:
                    rhs.add(rng.choice((x1, x2)))
            fds.append(({x1}, {x2}))
            fds.append(({x2}, {x1}))
            if len(fds) > max_fds:
                return None
    if not fds:
        return None
    if pool and rng.random() < 0.3:
        used.append(pool.pop())
    attrs = sorted(used, key=lambda a: NAMES.index(a))
    sig = Signature("R", tuple(attrs))
    return FdSchema(sig, [Fd(frozenset(l), frozenset(r)) for l, r in fds])


def random_chain_schema(
    rng: random.Random, max_attrs: int = 6, max_fds: int = 4
) -> FdSchema:
    """FDs whose left-hand sides form an inclusion chain."""
    arity = rng.randint(1, max_attrs)
    attrs = tuple(NAMES[:arity])
    sig = Signature("R", attrs)
    chain: list[set] = []
    current: set = set()
    for _ in range(rng.randint(1, max_fds)):
        chain.append(set(current))
        growth = [a for a in attrs if a not in current and rng.random() < 0.4]
        current |= set(growth)
    fds = []
    for lhs in chain[: rng.randint(1, len(chain))]:
        rhs = frozenset(a for a in attrs if rng.random() < 0.4)
        fds.append(Fd(frozenset(lhs), rhs))
    return FdSchema(sig, fds)


def random_instance(
    rng: random.Random,
    signature: Signature,
    max_facts: int = 12,
    pool: tuple[str, ...] = ("0", "1", "2"),
) -> Instance:
    count = rng.randint(0, max_facts)
    facts = [
        tuple(rng.choice(pool) for _ in range(signature.arity))
        for _ in range(count)
    ]
    return Instance(signature, facts)


def random_match_problem(
    rng: random.Random,
    max_side: int = 7,
    max_edges: int = 16,
    max_weight: int = 9,
) -> BipartiteMatchProblem:
    lefts = [f"L{i}" for i in range(rng.randint(1, max_side))]
    rights = [f"R{i}" for i in range(rng.randint(1, max_side))]
    pairs = [(x, y) for x in lefts for y in rights]
    rng.shuffle(pairs)
    edges = [
        (x, y, rng.randint(0, max_weight))
        for x, y in pairs[: rng.randint(0, min(max_edges, len(pairs)))]
    ]
    return BipartiteMatchProblem(edges)


def disjoint_match_problems(
    rng: random.Random, max_weight: int, max_edges: int = 4
) -> BipartiteMatchProblem:
    """The disjoint union of 2-4 :func:`random_match_problem` graphs.

    Part ``k`` relabels ``L0`` as ``L0_k``, so the parts' edges interleave
    in canonical order instead of following one another.
    """
    edges = []
    for k in range(rng.randint(2, 4)):
        part = random_match_problem(
            rng, max_side=4, max_edges=max_edges, max_weight=max_weight
        )
        edges += [(f"{x}_{k}", f"{y}_{k}", w) for x, y, w in part.edges]
    return BipartiteMatchProblem(edges)


def connected_match_problem(
    rng: random.Random, edge_count: int, max_weight: int
) -> BipartiteMatchProblem:
    """One connected bipartite graph of ``edge_count`` edges.

    Each new edge touches a vertex already placed, with a new or an old
    vertex at its other end, so the graph stays connected. Weights are
    0 to ``max_weight``, so zero-weight edges occur.
    """
    lefts, rights, pairs = ["L0"], ["R0"], {("L0", "R0")}
    while len(pairs) < edge_count:
        if rng.random() < 0.5:
            x = rng.choice(lefts)
            y = rng.choice([*rights, f"R{len(rights)}"])
        else:
            y = rng.choice(rights)
            x = rng.choice([*lefts, f"L{len(lefts)}"])
        if (x, y) in pairs:
            continue
        pairs.add((x, y))
        if x not in lefts:
            lefts.append(x)
        if y not in rights:
            rights.append(y)
    edges = [(x, y, rng.randint(0, max_weight)) for x, y in sorted(pairs)]
    return BipartiteMatchProblem(edges)


def large_match_problem(rng: random.Random, max_side: int) -> BipartiteMatchProblem:
    """A bipartite graph of up to ``max_side`` lefts and rights.

    Density is 0.05 to 1 and weights are 0-3 or 0-1000, so both many
    ties with zero-weight edges and nearly distinct weights occur.
    """
    lefts = [f"L{i:02d}" for i in range(rng.randint(1, max_side))]
    rights = [f"R{i:02d}" for i in range(rng.randint(1, max_side))]
    density = rng.choice((0.05, 0.1, 0.25, 0.5, 1.0))
    max_weight = rng.choice((3, 1000))
    edges = [
        (x, y, rng.randint(0, max_weight))
        for x in lefts
        for y in rights
        if rng.random() < density
    ]
    return BipartiteMatchProblem(edges)

A_B_B_A_SCHEMA = "relation R(A,B,C)\nfd R: A -> B\nfd R: B -> A\n"
WORKED_EXAMPLE_SCHEMA = (
    "relation R(A,B,C,D,E,F)\nfd R: -> A\nfd R: D,B -> A,C,E\n"
    "fd R: D,C -> B\nfd R: D,B -> F\n"
)


def one_to_one_rows(rng: random.Random, keys: int, cluster: int) -> list[tuple]:
    """Rows of R(A,B,C) for ``A -> B, B -> A``.

    Key pairs (a_i, b_i) with 1-4 facts each, plus 25 % noise rows. A
    noise row pairs a_i with some b_j of the same cluster of ``cluster``
    keys, so each cluster holds its own S3 components.
    """
    rows = [(f"a{i}", f"b{i}", f"c{c}") for i in range(keys) for c in range(1 + i % 4)]
    for _ in range(len(rows) // 4):
        i = rng.randrange(keys)
        j = i - i % cluster + rng.randrange(cluster)
        rows.append((f"a{i}", f"b{j}", f"c{rng.randrange(9)}"))
    return rows


def dense_rows(rng: random.Random, keys: int) -> list[tuple]:
    """Rows of R(A,B,C) for ``A -> B, B -> A``: one dense S3 component.

    Every (a_i, b_j) cell holds 1-3 facts, so each a_i and each b_j meets
    about ``2 * keys`` facts over ``keys`` partners.
    """
    counts = [1 + cell % 3 for cell in range(keys * keys)]
    rng.shuffle(counts)
    return [
        (f"a{cell // keys}", f"b{cell % keys}", f"c{c}")
        for cell, count in enumerate(counts)
        for c in range(count)
    ]


def worked_example_rows(rng: random.Random, d_values: int) -> list[tuple]:
    """Rows of R(A..F) for the worked example.

    Per D value a B-C pairing of 2-8 pairs; a fifth of the rows get a
    noisy A, B, C or E value.
    """
    rows = []
    for d in range(d_values):
        k = 2 + d % 7
        for b, c in zip(rng.sample(range(12), k), rng.sample(range(12), k)):
            row = ["a0", f"b{b}", f"c{c}", f"d{d}", f"e{rng.randrange(3)}", "f0"]
            if rng.random() < 0.2:
                spot = rng.randrange(4)
                row[(0, 1, 2, 4)[spot]] = f"{'abce'[spot]}{rng.randrange(12)}"
            rows.append(tuple(row))
    return rows


def ab_c_a_d_rows(rng: random.Random, a_values: int) -> list[tuple]:
    """Rows of R(A,B,C,D) for ``AB -> C, A -> D``.

    Per A value one D value and 1-12 B values with one C each; a fifth
    of the rows get a noisy copy with another C or D value. Most AB
    blocks hold one fact, the rest two.
    """
    rows = []
    for a in range(a_values):
        d = f"d{rng.randrange(50)}"
        for b in rng.sample(range(20), 1 + a % 12):
            row = (f"a{a}", f"b{b}", f"c{rng.randrange(50)}", d)
            rows.append(row)
            if rng.random() < 0.2:
                spot = rng.choice((2, 3))
                noisy = list(row)
                noisy[spot] = f"{'cd'[spot - 2]}{50 + rng.randrange(3)}"
                rows.append(tuple(noisy))
    return rows


def long_plan_relations() -> dict[str, tuple[str, list[tuple]]]:
    """Two tractable relations whose plans are hundreds of steps long, as
    schema text with two conflicting rows each.

    ``s2-chain``: ``-> A0; A0 -> A1; ...; A698 -> A699`` over 700 columns,
    700 S2 steps, rows that differ on the last column only. ``s1-run``:
    ``A0,...,A1099 -> B``, 1,100 S1 steps and then S2, rows that differ on
    B only. Each repairs to one fact.
    """
    chain = [f"A{i}" for i in range(700)]
    fds = "".join(f"fd R: {lhs} -> {rhs}\n" for lhs, rhs in zip(["", *chain], chain))
    run = [f"A{i}" for i in range(1100)]
    return {
        "s2-chain": (
            f"relation R({','.join(chain)})\n{fds}",
            [("0",) * 700, ("0",) * 699 + ("1",)],
        ),
        "s1-run": (
            f"relation R({','.join(run)},B)\nfd R: {','.join(run)} -> B\n",
            [("0",) * 1101, ("0",) * 1100 + ("1",)],
        ),
    }


def random_cnf(
    rng: random.Random,
    max_vars: int = 8,
    max_clauses: int = 5,
    max_clause_size: int = 3,
    mixed: bool = True,
) -> CnfFormula:
    num_vars = rng.randint(1, max_vars)
    clauses = []
    for _ in range(rng.randint(1, max_clauses)):
        size = rng.randint(1, max_clause_size)
        variables = rng.sample(range(1, num_vars + 1), min(size, num_vars))
        if mixed:
            clause = [v if rng.random() < 0.5 else -v for v in variables]
        else:
            sign = 1 if rng.random() < 0.5 else -1
            clause = [sign * v for v in variables]
        clauses.append(clause)
    return CnfFormula(num_vars, clauses)


def redundant_basis(rng: random.Random, schema: FdSchema) -> FdSchema:
    """An equivalent spelling: the basis split into one-attribute rhs,
    widened lhs and rhs that repeat lhs attributes, plus implied FDs."""
    fds = []
    for fd in schema.fds:
        for attr in fd.rhs:
            extra = frozenset(rng.sample(sorted(fd.lhs), len(fd.lhs) // 2))
            fds.append(Fd(fd.lhs, extra | {attr}))
    for fd in rng.sample(schema.fds, min(3, len(schema.fds))):
        wider = fd.lhs | {rng.choice(schema.signature.attributes)}
        fds.append(Fd(wider, fd.rhs))
    rng.shuffle(fds)
    return FdSchema(schema.signature, fds)
