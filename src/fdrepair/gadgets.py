"""Hardness gadgets: instance generators and fact-wise reductions.

Four fixed three-column schemas are the hard cores of the repair
problem; this module builds the instances that tie them to satisfiability
and to edge-disjoint triangle packing, and constructs the injective,
conflict-preserving fact maps that transfer hardness into any schema the
classifier rejects.

The witness dispatcher (:func:`hard_case_witness`) analyses the closure
structure of two (or three) minimal FDs of the stuck schema, picks one
of five construction templates, and composes the result with a padding
map per applied rewrite, yielding a fact map into the schema that was
actually asked about. :func:`verify_reduction` checks any such map
empirically over a small value domain.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Iterable, Mapping, Union

from .fds import (
    DOT,
    Constant,
    Fact,
    Fd,
    FdSchema,
    Instance,
    Signature,
    _DotType,
    closure,
    fact_key,
    minima_sites,
    pair_consistent,
)
from .oracle import CapExceededError
from .simplify import SimplificationStep, classify


class GadgetError(ValueError):
    """Input unsuitable for the requested gadget."""


class ReductionError(ValueError):
    """No hardness witness can be built for the given schema."""


# ---------------------------------------------------------------------------
# CNF formulas and tripartite triangle sets


@dataclass(frozen=True)
class CnfFormula:
    """A CNF formula as clauses of signed variable indices (1-based)."""

    num_vars: int
    clauses: tuple[tuple[int, ...], ...]

    def __init__(self, num_vars: int, clauses: Iterable[Iterable[int]]):
        if num_vars < 0:
            raise GadgetError("variable count must be non-negative")
        cleaned = []
        for clause in clauses:
            lits = tuple(sorted(set(clause), key=lambda l: (abs(l), l < 0)))
            if not lits:
                raise GadgetError("empty clause")
            for lit in lits:
                if lit == 0 or abs(lit) > num_vars:
                    raise GadgetError(f"literal {lit} out of range")
            cleaned.append(lits)
        object.__setattr__(self, "num_vars", num_vars)
        object.__setattr__(self, "clauses", tuple(cleaned))

    @property
    def non_mixed(self) -> bool:
        """True when every clause is all-positive or all-negative."""
        return all(
            all(l > 0 for l in clause) or all(l < 0 for l in clause)
            for clause in self.clauses
        )


def cnf_satisfiable(formula: CnfFormula, cap: int = 22) -> bool:
    """Truth-table satisfiability check; refuses beyond ``cap`` variables."""
    if formula.num_vars > cap:
        raise CapExceededError(
            f"{formula.num_vars} variables exceeds truth-table cap {cap}"
        )
    for bits in range(1 << formula.num_vars):
        if all(
            any(
                (bits >> (abs(l) - 1)) & 1 == (1 if l > 0 else 0)
                for l in clause
            )
            for clause in formula.clauses
        ):
            return True
    return False


@dataclass(frozen=True)
class TripartiteGraph:
    """Node names on three sides, plus triangles drawn one node per side."""

    a_nodes: tuple[str, ...]
    b_nodes: tuple[str, ...]
    c_nodes: tuple[str, ...]
    triangles: tuple[tuple[str, str, str], ...]

    def __init__(self, a_nodes, b_nodes, c_nodes, triangles):
        a_nodes, b_nodes, c_nodes = tuple(a_nodes), tuple(b_nodes), tuple(c_nodes)
        for side in (a_nodes, b_nodes, c_nodes):
            if len(set(side)) != len(side):
                raise GadgetError("duplicate node names within one side")
        seen = set()
        cleaned = []
        for tri in triangles:
            a, b, c = tri
            if a not in a_nodes or b not in b_nodes or c not in c_nodes:
                raise GadgetError(f"triangle {tri!r} uses unknown nodes")
            if (a, b, c) not in seen:
                seen.add((a, b, c))
                cleaned.append((a, b, c))
        object.__setattr__(self, "a_nodes", a_nodes)
        object.__setattr__(self, "b_nodes", b_nodes)
        object.__setattr__(self, "c_nodes", c_nodes)
        object.__setattr__(self, "triangles", tuple(sorted(cleaned)))


def _share_edge(t1: tuple[str, str, str], t2: tuple[str, str, str]) -> bool:
    # A shared edge means agreeing on two of the three sides.
    return sum(u == v for u, v in zip(t1, t2)) >= 2


def max_edge_disjoint_triangles(graph: TripartiteGraph, cap: int = 14) -> int:
    """Largest pairwise edge-disjoint triangle subset, by exhaustion."""
    triangles = graph.triangles
    n = len(triangles)
    if n > cap:
        raise CapExceededError(f"{n} triangles exceeds enumeration cap {cap}")
    conflict = [
        [ _share_edge(triangles[i], triangles[j]) for j in range(n) ]
        for i in range(n)
    ]
    best = 0

    def grow(i: int, picked: list[int]) -> None:
        nonlocal best
        if len(picked) + (n - i) <= best:
            return
        if i == n:
            best = max(best, len(picked))
            return
        if all(not conflict[i][j] for j in picked):
            picked.append(i)
            grow(i + 1, picked)
            picked.pop()
        grow(i + 1, picked)

    grow(0, [])
    return best


# ---------------------------------------------------------------------------
# The four hard three-column schemas and their instance generators


def _abc_signature() -> Signature:
    return Signature("R", ("A", "B", "C"))


def schema_2fd() -> FdSchema:
    return FdSchema(_abc_signature(), [Fd({"A", "B"}, {"C"}), Fd({"C"}, {"B"})])


def schema_rl() -> FdSchema:
    return FdSchema(_abc_signature(), [Fd({"A"}, {"B"}), Fd({"B"}, {"C"})])


def schema_2r() -> FdSchema:
    return FdSchema(_abc_signature(), [Fd({"A"}, {"C"}), Fd({"B"}, {"C"})])


def schema_tr() -> FdSchema:
    return FdSchema(
        _abc_signature(),
        [Fd({"A", "B"}, {"C"}), Fd({"A", "C"}, {"B"}), Fd({"B", "C"}, {"A"})],
    )


HARD_SCHEMAS: Mapping[str, FdSchema] = {
    "2fd": schema_2fd(),
    "rl": schema_rl(),
    "2r": schema_2r(),
    "tr": schema_tr(),
}


def _clause_id(j: int) -> str:
    return f"c{j}"


def _var_id(i: int) -> str:
    return f"x{i}"


def gadget_2fd(formula: CnfFormula) -> Instance:
    """One fact per clause literal: (clause, polarity, variable).

    Needs a non-mixed formula (each clause all-positive or all-negative).
    The repair size reaches the clause count exactly when the formula is
    satisfiable.
    """
    if not formula.non_mixed:
        raise GadgetError("formula has a mixed clause; this gadget needs "
                          "all-positive or all-negative clauses")
    facts = []
    for j, clause in enumerate(formula.clauses, start=1):
        polarity = "1" if clause[0] > 0 else "0"
        for lit in clause:
            facts.append((_clause_id(j), polarity, _var_id(abs(lit))))
    return Instance(schema_2fd().signature, facts)


def gadget_rl(formula: CnfFormula) -> Instance:
    """One fact per clause literal: (clause, variable, polarity)."""
    facts = []
    for j, clause in enumerate(formula.clauses, start=1):
        for lit in clause:
            facts.append(
                (_clause_id(j), _var_id(abs(lit)), "1" if lit > 0 else "0")
            )
    return Instance(schema_rl().signature, facts)


def gadget_2r(formula: CnfFormula) -> Instance:
    """One fact per clause literal: (clause, variable, (variable, polarity)).

    The third column carries a structural pair so that two facts agree on
    it only when they agree on both the variable and its polarity.
    """
    facts = []
    for j, clause in enumerate(formula.clauses, start=1):
        for lit in clause:
            var = _var_id(abs(lit))
            facts.append(
                (_clause_id(j), var, (var, "1" if lit > 0 else "0"))
            )
    return Instance(schema_2r().signature, facts)


def gadget_tr(graph: TripartiteGraph) -> Instance:
    """One fact per triangle; repairs are edge-disjoint triangle packings."""
    return Instance(schema_tr().signature, graph.triangles)


# ---------------------------------------------------------------------------
# Fact-wise reductions

# A rule says how one target column is produced from a source fact:
# DOT for the reserved padding constant, an attribute name for a copied
# source value, or a tuple of rules for a structural tuple.
Rule = Union[_DotType, str, tuple]


def _eval_rule(rule, values: Mapping[str, Constant]) -> Constant:
    if rule is DOT:
        return DOT
    if isinstance(rule, str):
        return values[rule]
    return tuple(_eval_rule(part, values) for part in rule)


def _subst_rule(rule, replacements: Mapping[str, Rule]) -> Rule:
    if rule is DOT:
        return DOT
    if isinstance(rule, str):
        return replacements[rule]
    return tuple(_subst_rule(part, replacements) for part in rule)


def _check_rule(rule, source_attrs: frozenset[str]) -> None:
    if rule is DOT:
        return
    if isinstance(rule, str):
        if rule not in source_attrs:
            raise ReductionError(f"rule references unknown attribute {rule!r}")
        return
    if isinstance(rule, tuple):
        for part in rule:
            _check_rule(part, source_attrs)
        return
    raise ReductionError(f"bad rule: {rule!r}")


@dataclass(frozen=True)
class FactWiseReduction:
    """A per-column fact map between two schemas.

    ``rules`` is aligned with the target signature's attributes. A valid
    reduction is injective and maps a fact pair to a conflicting pair
    exactly when the originals conflict; both properties are checked
    empirically by :func:`verify_reduction`.
    """

    source: FdSchema
    target: FdSchema
    rules: tuple[Rule, ...]

    def __post_init__(self):
        if len(self.rules) != self.target.signature.arity:
            raise ReductionError(
                "need exactly one rule per target attribute"
            )
        source_attrs = frozenset(self.source.signature.attributes)
        for rule in self.rules:
            _check_rule(rule, source_attrs)

    def apply(self, fact: Fact) -> Fact:
        values = dict(zip(self.source.signature.attributes, fact))
        return tuple(_eval_rule(rule, values) for rule in self.rules)

    def map_instance(self, instance: Instance) -> Instance:
        if instance.signature != self.source.signature:
            raise ReductionError("instance is not over the source signature")
        return Instance(
            self.target.signature, (self.apply(f) for f in instance.facts)
        )


def compose(
    outer: FactWiseReduction, inner: FactWiseReduction
) -> FactWiseReduction:
    """The map applying ``inner`` first, then ``outer``."""
    if inner.target != outer.source:
        raise ReductionError(
            "inner reduction's target must be outer reduction's source"
        )
    replacements = dict(zip(outer.source.signature.attributes, inner.rules))
    return FactWiseReduction(
        source=inner.source,
        target=outer.target,
        rules=tuple(_subst_rule(rule, replacements) for rule in outer.rules),
    )


def lift_through_simplification(step: SimplificationStep) -> FactWiseReduction:
    """Pad the removed columns with the reserved constant, copy the rest.

    Maps facts over the simplified schema back into the schema the step
    started from; only meaningful while the simplified schema still has
    FDs.
    """
    if not step.schema_after.fds:
        raise ReductionError(
            "simplified schema has no FDs; nothing to lift"
        )
    rules = tuple(
        DOT if attr in step.removed_attributes else attr
        for attr in step.schema_before.signature.attributes
    )
    return FactWiseReduction(
        source=step.schema_after, target=step.schema_before, rules=rules
    )


def _rules_from_2r(attrs, x1, x2, x1_star, x2_star) -> tuple[Rule, ...]:
    rules = []
    for a in attrs:
        if a in x1 and a in x2:
            rules.append(DOT)
        elif a in x1:
            rules.append("A")
        elif a in x2:
            rules.append("B")
        elif a in x1_star:
            rules.append(("A", "C"))
        elif a in x2_star:
            rules.append(("B", "C"))
        else:
            rules.append(("A", "B"))
    return tuple(rules)


def _rules_from_rl(attrs, x1, x2, x1_star, x2_plus, x2_star) -> tuple[Rule, ...]:
    rules = []
    for a in attrs:
        if a in x1 and a in x2:
            rules.append(DOT)
        elif a in x1:
            rules.append("A")
        elif a in x2:
            rules.append("B")
        elif a in x1_star and a not in x2_plus:
            rules.append(("A", "C"))
        elif a in x2_star:
            rules.append(("B", "C"))
        else:
            rules.append("A")
    return tuple(rules)


def _rules_from_tr(attrs, x1, x2, x3) -> tuple[Rule, ...]:
    rules = []
    for a in attrs:
        inside = (a in x1, a in x2, a in x3)
        if inside == (True, True, True):
            rules.append(DOT)
        elif inside == (True, True, False):
            rules.append("A")
        elif inside == (True, False, True):
            rules.append("B")
        elif inside == (False, True, True):
            rules.append("C")
        elif inside == (True, False, False):
            rules.append(("A", "B"))
        elif inside == (False, True, False):
            rules.append(("A", "C"))
        elif inside == (False, False, True):
            rules.append(("B", "C"))
        else:
            rules.append(("A", "B", "C"))
    return tuple(rules)


def _rules_from_2fd(attrs, x1, x2, x1_star) -> tuple[Rule, ...]:
    rules = []
    for a in attrs:
        if a in x1 and a in x2:
            rules.append(DOT)
        elif a in x1:
            rules.append("C")
        elif a in x2 and a in x1_star:
            rules.append("B")
        elif a in x2:
            rules.append(("A", "B"))
        elif a in x1_star:
            rules.append(("B", "C"))
        else:
            rules.append(("A", "B", "C"))
    return tuple(rules)


def _terminal_witness(terminal: FdSchema) -> tuple[int, FactWiseReduction]:
    """Pick the first matching closure-structure case over minima pairs."""
    attrs = terminal.signature.attributes
    sites = minima_sites(terminal)
    closures = {site: closure(terminal, site) for site in sites}
    for x1, x2 in itertools.permutations(sites, 2):
        x1_plus, x1_star = closures[x1].closure, closures[x1].proper
        x2_plus, x2_star = closures[x2].closure, closures[x2].proper
        if not (x1_star & x2_plus) and not (x2_star & x1_plus):
            rules = _rules_from_2r(attrs, x1, x2, x1_star, x2_star)
            return 1, FactWiseReduction(schema_2r(), terminal, rules)
        if (x1_star & x2_star) and not (x1_star & x2) and not (x2_star & x1):
            rules = _rules_from_rl(attrs, x1, x2, x1_star, x2_plus, x2_star)
            return 2, FactWiseReduction(schema_rl(), terminal, rules)
        if (x1_star & x2) and not (x2_star & x1):
            rules = _rules_from_rl(attrs, x1, x2, x1_star, x2_plus, x2_star)
            return 3, FactWiseReduction(schema_rl(), terminal, rules)
        if (x1_star & x2) and (x2_star & x1):
            if (x1 - x2) <= x2_star and (x2 - x1) <= x1_star:
                # a stuck schema has a third minimum here: were x1 and x2
                # the only minima, they would be an lhs marriage for S3
                third = next((s for s in sites if s not in (x1, x2)), None)
                if third is not None:
                    rules = _rules_from_tr(attrs, x1, x2, third)
                    return 4, FactWiseReduction(schema_tr(), terminal, rules)
            elif not (x2 - x1) <= x1_star:
                rules = _rules_from_2fd(attrs, x1, x2, x1_star)
                return 5, FactWiseReduction(schema_2fd(), terminal, rules)
    raise ReductionError(
        "no closure-structure case matched; this should be unreachable "
        "for a stuck schema with FDs left"
    )


def hard_case_witness(schema: FdSchema) -> tuple[int, FactWiseReduction]:
    """Case id (1..5) and a fact map from a hard core into the schema.

    The schema must be one the classifier rejects. Rewrites that do apply
    are run first; the witness is built against the stuck schema and then
    lifted back through each applied rewrite, so the returned reduction
    targets the (normalized) input schema itself.
    """
    trace = classify(schema)
    if trace.tractable:
        raise ReductionError(
            "schema is tractable; there is no hardness witness"
        )
    case_id, reduction = _terminal_witness(trace.terminal)
    for step in reversed(trace.steps):
        reduction = compose(lift_through_simplification(step), reduction)
    return case_id, reduction


# ---------------------------------------------------------------------------
# Empirical verification


@dataclass(frozen=True)
class Violation:
    """One observed failure of injectivity or conflict preservation."""

    kind: str  # "injectivity" | "consistency" | "inconsistency"
    first: Fact
    second: Fact


@dataclass(frozen=True)
class ReductionReport:
    facts_checked: int
    pairs_checked: int
    exhaustive: bool
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_reduction(
    reduction: FactWiseReduction,
    domain: Iterable[str] = ("0", "1", "2"),
    max_pairs: int = 10_000,
    seed: int = 0,
) -> ReductionReport:
    """Check a fact map over all facts built from a small value domain.

    Every distinct fact pair must map to a distinct pair, and the images
    must conflict under the target FDs exactly when the originals conflict
    under the source FDs. Beyond ``max_pairs`` pairs the check samples
    (seeded) instead of exhausting; violations are reported, not raised.
    """
    values = tuple(sorted(set(domain)))
    arity = reduction.source.signature.arity
    facts = [tuple(comb) for comb in itertools.product(values, repeat=arity)]
    images = {fact: reduction.apply(fact) for fact in facts}
    n = len(facts)
    total_pairs = n * (n - 1) // 2
    if total_pairs <= max_pairs:
        pairs = itertools.combinations(range(n), 2)
        exhaustive = True
        pairs_checked = total_pairs
    else:
        rng = random.Random(seed)
        pairs = (
            tuple(sorted(rng.sample(range(n), 2))) for _ in range(max_pairs)
        )
        exhaustive = False
        pairs_checked = max_pairs
    violations = []
    for i, j in pairs:
        f, g = facts[i], facts[j]
        fi, gi = images[f], images[g]
        if fi == gi:
            violations.append(Violation("injectivity", f, g))
            continue
        before = pair_consistent(reduction.source, f, g)
        after = pair_consistent(reduction.target, fi, gi)
        if before and not after:
            violations.append(Violation("consistency", f, g))
        elif not before and after:
            violations.append(Violation("inconsistency", f, g))
    violations.sort(key=lambda v: (v.kind, fact_key(v.first), fact_key(v.second)))
    return ReductionReport(
        facts_checked=n,
        pairs_checked=pairs_checked,
        exhaustive=exhaustive,
        violations=tuple(violations),
    )
