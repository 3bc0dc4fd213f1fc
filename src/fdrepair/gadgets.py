"""Hardness gadgets: instance generators and fact-wise reductions.

Four fixed three-column schemas over one signature R(A,B,C), built once
in :data:`HARD_SCHEMAS`, are the hard cores of the repair problem; this
module builds the instances that tie them to satisfiability
and to edge-disjoint triangle packing, and constructs the injective,
conflict-preserving fact maps that transfer hardness into any schema the
classifier rejects.

The witness dispatcher (:func:`hard_case_witness`) reads the FD set the
classifier got stuck on, as attribute bitmasks, and picks one of five
construction templates from the mask closures of two (or three) of its
minimal lhs sites. A template is a table: a column's rule depends only
on which of those sites and closures hold it, so each case is a list of
``(mask, rule)`` rows, and a column takes the rule of the first row
whose mask holds it. Each applied rewrite reduces the schema after it to
the schema before it by padding its removed columns with the reserved
constant; composed, those reductions put that constant on every column
the rewrites removed. So the removed columns are the table's first row,
and the rules are built once over the input columns, for one reduction
onto the input schema as given. A reduction need only keep which fact
pairs conflict, and normalizing changes no such pair: two facts that
agree on X agree on every attribute of Y inside X, so X -> Y splits the
pairs that X -> (Y minus X) splits, and an FD with Y inside X splits
none.
A reduction's rules are checked and compiled in one walk when the
reduction is built, so a bad rule raises there and ``apply`` only runs
the compiled getter. :func:`verify_reduction` checks any such map on
one source fact pair per agreement pattern.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Iterable, Mapping, Union

from .fds import (
    DOT,
    Fact,
    Fd,
    FdSchema,
    Instance,
    Signature,
    _DotType,
    _closures,
    _getter_at,
    _positions,
    pair_consistent,
)
from .oracle import CapExceededError
from .simplify import SimplificationTrace, classify


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
        a_set, b_set, c_set = set(a_nodes), set(b_nodes), set(c_nodes)
        seen = set()
        cleaned = []
        for tri in triangles:
            a, b, c = tri
            if a not in a_set or b not in b_set or c not in c_set:
                raise GadgetError(f"triangle {tri!r} uses unknown nodes")
            if (a, b, c) not in seen:
                seen.add((a, b, c))
                cleaned.append((a, b, c))
        object.__setattr__(self, "a_nodes", a_nodes)
        object.__setattr__(self, "b_nodes", b_nodes)
        object.__setattr__(self, "c_nodes", c_nodes)
        object.__setattr__(self, "triangles", tuple(sorted(cleaned)))


# ---------------------------------------------------------------------------
# The four hard three-column schemas and their instance generators
#
# The CNF gadgets build every cell themselves, as a str or a pair of
# strs, so they skip Instance's per-cell check. gadget_tr keeps it:
# TripartiteGraph takes node names without checking their type.


_ABC = Signature("R", ("A", "B", "C"))

HARD_SCHEMAS: Mapping[str, FdSchema] = {
    "2fd": FdSchema(_ABC, [Fd({"A", "B"}, {"C"}), Fd({"C"}, {"B"})]),
    "rl": FdSchema(_ABC, [Fd({"A"}, {"B"}), Fd({"B"}, {"C"})]),
    "2r": FdSchema(_ABC, [Fd({"A"}, {"C"}), Fd({"B"}, {"C"})]),
    "tr": FdSchema(
        _ABC,
        [Fd({"A", "B"}, {"C"}), Fd({"A", "C"}, {"B"}), Fd({"B", "C"}, {"A"})],
    ),
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
    return Instance._of_checked(_ABC, facts)


def gadget_rl(formula: CnfFormula) -> Instance:
    """One fact per clause literal: (clause, variable, polarity)."""
    facts = []
    for j, clause in enumerate(formula.clauses, start=1):
        for lit in clause:
            facts.append(
                (_clause_id(j), _var_id(abs(lit)), "1" if lit > 0 else "0")
            )
    return Instance._of_checked(_ABC, facts)


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
    return Instance._of_checked(_ABC, facts)


def gadget_tr(graph: TripartiteGraph) -> Instance:
    """One fact per triangle; repairs are edge-disjoint triangle packings."""
    return Instance(_ABC, graph.triangles)


# ---------------------------------------------------------------------------
# Fact-wise reductions

# A rule says how one target column is produced from a source fact:
# DOT for the reserved padding constant, an attribute name for a copied
# source value, or a tuple of rules for a structural tuple.
Rule = Union[_DotType, str, tuple]


class _Parts:
    """A getter of the tuple of its part getters' values."""

    def __init__(self, parts: tuple[Callable, ...]):
        self.parts = parts

    def __call__(self, fact: Fact) -> tuple:
        return tuple([part(fact) for part in self.parts])


def _compile_rule(rule, positions: Mapping) -> Callable[[Fact], object]:
    """A getter of the rule's value, ``positions`` giving each attribute's
    (and DOT's) place in the fact. A tuple of attributes and DOTs is one
    itemgetter; a tuple with a tuple inside takes one getter per part.
    Raises ReductionError on a name not in ``positions`` or a part that
    is no rule.
    """
    if not isinstance(rule, tuple):
        if rule is not DOT and not isinstance(rule, str):
            raise ReductionError(f"bad rule: {rule!r}")
        if rule not in positions:
            raise ReductionError(f"rule references unknown attribute {rule!r}")
        return itemgetter(positions[rule])
    parts = tuple(_compile_rule(part, positions) for part in rule)
    if any(isinstance(part, tuple) for part in rule):
        return _Parts(parts)
    return _getter_at([positions[part] for part in rule])


@dataclass(frozen=True)
class FactWiseReduction:
    """A per-column fact map between two schemas.

    ``rules`` is aligned with the target signature's attributes. A valid
    reduction is injective and maps a fact pair to a conflicting pair
    exactly when the originals conflict; both properties are checked
    empirically by :func:`verify_reduction`.

    The rules are checked and compiled in one walk when the reduction is
    built, into ``_compiled``: one getter over a source fact followed by
    DOT. It is no field, so equality, hashing and ``repr`` ignore it,
    and it pickles, being itemgetters and :class:`_Parts`, not lambdas.
    """

    source: FdSchema
    target: FdSchema
    rules: tuple[Rule, ...]

    def __post_init__(self):
        if len(self.rules) != self.target.signature.arity:
            raise ReductionError(
                "need exactly one rule per target attribute"
            )
        attrs = self.source.signature.attributes
        positions = {a: i for i, a in enumerate(attrs)}
        positions[DOT] = len(attrs)
        object.__setattr__(self, "_compiled", _compile_rule(self.rules, positions))

    def apply(self, fact: Fact) -> Fact:
        """The image of a source fact: a tuple of the target's arity."""
        return self._compiled(fact + (DOT,))


def _rules(columns, cases, default) -> tuple[Rule, ...]:
    """One rule per column (a bit): the rule of the first ``(mask, rule)``
    case whose mask holds the column, or ``default`` when none does."""
    rules = []
    for a in columns:
        for mask, rule in cases:
            if a & mask:
                break
        else:
            rule = default
        rules.append(rule)
    return tuple(rules)


def _terminal_witness(fds) -> tuple[int, str, list[tuple[int, Rule]], Rule]:
    """Case id, hard core, and the case's rule table as ``(mask, rule)``
    rows and a default for :func:`_rules`, by the first closure-structure
    case that matches a pair of minimal sites of the stuck FD set ``fds``
    (masks), the sites in canonical order.

    In ascending mask order, which puts every subset of an lhs before it,
    an lhs is a minimal site exactly when no site kept before it lies
    inside it. Each closure is computed at most once, when a pair first
    needs it.
    """
    sites: list[int] = []
    for lhs in sorted({lhs for lhs, _ in fds}):
        if all(site & ~lhs for site in sites):
            sites.append(lhs)
    sites.sort(key=_positions)
    cl = _closures(fds)
    for x1, x2 in itertools.permutations(sites, 2):
        x1_plus, x2_plus = cl(x1), cl(x2)
        x1_star, x2_star = x1_plus & ~x1, x2_plus & ~x2
        if not x1_star & x2_plus and not x2_star & x1_plus:
            cases = [(x1 & x2, DOT), (x1, "A"), (x2, "B"),
                     (x1_star, ("A", "C")), (x2_star, ("B", "C"))]
            return 1, "2r", cases, ("A", "B")
        case_2 = x1_star & x2_star and not x1_star & x2 and not x2_star & x1
        case_3 = x1_star & x2 and not x2_star & x1
        if case_2 or case_3:
            cases = [(x1 & x2, DOT), (x1, "A"), (x2, "B"),
                     (x1_star & ~x2_plus, ("A", "C")), (x2_star, ("B", "C"))]
            return 2 if case_2 else 3, "rl", cases, "A"
        if x1_star & x2 and x2_star & x1:
            if not x1 & ~x2 & ~x2_star and not x2 & ~x1 & ~x1_star:
                # a stuck schema has a third minimum here: were x1 and x2
                # the only minima, they would be an lhs marriage for S3
                x3 = next((s for s in sites if s not in (x1, x2)), None)
                if x3 is not None:
                    cases = [(x1 & x2 & x3, DOT), (x1 & x2, "A"), (x1 & x3, "B"),
                             (x2 & x3, "C"), (x1, ("A", "B")), (x2, ("A", "C")),
                             (x3, ("B", "C"))]
                    return 4, "tr", cases, ("A", "B", "C")
            elif x2 & ~x1 & ~x1_star:
                cases = [(x1 & x2, DOT), (x1, "C"), (x2 & x1_star, "B"),
                         (x2, ("A", "B")), (x1_star, ("B", "C"))]
                return 5, "2fd", cases, ("A", "B", "C")
    raise ReductionError(
        "no closure-structure case matched; this should be unreachable "
        "for a stuck schema with FDs left"
    )


def hard_case_witness(schema: FdSchema) -> tuple[int, FactWiseReduction]:
    """Case id (1..5) and a fact map from a hard core into the schema.

    The schema must be one the classifier rejects. The witness is built
    against the stuck schema that the rewrites leave; the columns they
    removed get the reserved constant, so the returned reduction targets
    the input schema itself, as given: an rhs attribute that is also on
    its lhs splits no fact pair, so normalizing would change nothing.
    """
    return _witness(classify(schema))


def _witness(trace: SimplificationTrace) -> tuple[int, FactWiseReduction]:
    """:func:`hard_case_witness` of the schema that ``trace`` classified:
    the case of the FD set it stopped on, with DOT on the removed columns."""
    if trace.tractable:
        raise ReductionError(
            "schema is tractable; there is no hardness witness"
        )
    target = trace._schema
    columns = [1 << i for i in range(target.signature.arity)]
    case_id, core, cases, default = _terminal_witness(trace._fds)
    removed = sum(removed for _, _, removed in trace._plan)  # disjoint masks
    rules = _rules(columns, [(removed, DOT), *cases], default)
    return case_id, FactWiseReduction(HARD_SCHEMAS[core], target, rules)


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
    pairs_checked: int
    exhaustive: bool
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


# A map can come from outside the program: a source with more facts over
# two values than this, wider than 9 columns, is refused
VERIFY_FACT_CAP = 1000


def verify_reduction(reduction: FactWiseReduction) -> ReductionReport:
    """Check a fact map on one source fact pair per agreement pattern.

    A rule-built map decides image equality, and so conflict, from the
    set of columns two facts agree on, and two values realize every such
    set. So the all-``"0"`` fact is paired with each other fact over
    ``"0"`` and ``"1"``: 2**arity - 1 pairs, 7 on the cores. Every pair
    must map to distinct images that conflict under the target FDs
    exactly when the pair conflicts under the source FDs. Violations are
    reported, not raised, sorted by kind and then by pair. A source with
    more than ``VERIFY_FACT_CAP`` facts over two values raises
    CapExceededError.
    """
    source, target = reduction.source, reduction.target
    arity = source.signature.arity
    if 2**arity > VERIFY_FACT_CAP:
        raise CapExceededError(
            f"{2**arity} source facts over two values from {arity} columns, "
            f"exhaustive-check cap is {VERIFY_FACT_CAP}"
        )
    # product order is the canonical fact order
    first, *others = itertools.product(("0", "1"), repeat=arity)
    image = reduction.apply(first)
    violations = []
    for second in others:
        other = reduction.apply(second)
        if other == image:
            kind = "injectivity"
        else:
            before = not pair_consistent(source, first, second)
            after = not pair_consistent(target, image, other)
            if before == after:
                continue
            kind = "inconsistency" if before else "consistency"
        violations.append(Violation(kind, first, second))
    # stable: each kind keeps its pairs in product order
    violations.sort(key=lambda violation: violation.kind)
    return ReductionReport(
        pairs_checked=len(others),
        exhaustive=True,
        violations=tuple(violations),
    )
