"""Independent reference computations used to derive expected test values.

These deliberately avoid the library's algorithms: closures come from
intersecting closed supersets, entailment from quantifying over two-fact
models, repair sizes from plain subset enumeration, reduction images
from evaluating each rule by attribute name. Maximum-weight matchings
come from exhausting edge subsets (:func:`brute_force_matching`), and
maximal but not maximum repairs from a greedy pass over the pairwise
conflict definition (:func:`greedy_s_repair`). Repair maximality is
also read off the pairs of the oracle's conflict graph
(:func:`graph_pairs`, :func:`s_repair_by_pairs`): they read the
library's conflict index, but not its per-FD maps. Lhs groups are
formed by attribute name (:func:`wide_lhs_groups`). The blocks of a plan's first step are
grouped by the step's attribute names (:func:`first_step_blocks`) and
sized by subset enumeration (:func:`first_step_block_sizes`). A repair
plan's last step is recombined from one list per block
(:func:`collecting_last_step`), and by counts per tuple block key
(:func:`tuple_key_last_step`), not per int code: both call the
library's matcher, but not its counting. The hardness gadgets' ground truths come from a
truth table (:func:`cnf_satisfiable`) and from exhausting triangle
subsets (:func:`max_edge_disjoint_triangles`).
:func:`saturate` is one more spelling of an FD set, for checking that
equivalent spellings get one verdict. :func:`classify_by_projection`
runs the rewrite loop on ``FdSchema`` values, each rule by its set
definition and each step by :func:`project`, not on attribute bitmasks;
:func:`projection_steps` keeps the schemas before and after each step,
which the library's trace does not build. :func:`witness_by_closures`
picks the hardness witness on its terminal
schema: minimal sites by comparing every pair of FDs
(:func:`local_minima`), closures on attribute names
(:func:`closure_by_fixpoint`, the classifier's fixpoint without masks),
rules by attribute name.
CSV files are read row by row with the csv module
(:func:`read_csv_by_csv_module`). FDs are rendered by scanning the
signature for each side's names (:func:`render_fd_by_name`), not from
masks; canonical FD order sorts by each side's looked-up positions
(:func:`canonical_fds_by_name`), and masks come from scanning the
signature (:func:`masks_by_name`).
"""

from __future__ import annotations

import csv
import functools
import itertools
from dataclasses import dataclass

from fdrepair.fds import (
    DOT,
    Fd,
    FdSchema,
    Instance,
    Signature,
    constant_key,
    normalize,
)
from fdrepair.gadgets import (
    HARD_SCHEMAS,
    CnfFormula,
    FactWiseReduction,
    TripartiteGraph,
)
from fdrepair.oracle import ConflictGraph
from fdrepair.repair import BipartiteMatchProblem, max_weight_matching
from fdrepair.simplify import SimplificationStep
from fdrepair.textio import DataError


def closure_by_closed_sets(schema: FdSchema, base: frozenset) -> frozenset:
    """Intersection of every closed attribute superset of ``base``."""
    attrs = tuple(schema.signature.attributes)
    result = None
    for r in range(len(attrs) + 1):
        for combo in itertools.combinations(attrs, r):
            candidate = frozenset(combo)
            if not base <= candidate:
                continue
            if any(
                fd.lhs <= candidate and not fd.rhs <= candidate
                for fd in schema.fds
            ):
                continue
            result = candidate if result is None else result & candidate
    assert result is not None  # the full attribute set is always closed
    return result


def closure_by_fixpoint(schema: FdSchema, base) -> frozenset:
    """The closure of ``base`` by adding, until nothing changes, the rhs of
    every FD whose lhs is already inside: on attribute names, not masks."""
    current = set(base)
    changed = True
    while changed:
        changed = False
        for fd in schema.fds:
            if fd.lhs <= current and not fd.rhs <= current:
                current |= fd.rhs
                changed = True
    return frozenset(current)


def saturate(schema: FdSchema) -> FdSchema:
    """Replace the FDs on each left-hand side with one FD to its closure.

    The result is always equivalent to the input, and so gets the same
    classifier verdict.
    """
    sites = []
    for fd in schema.fds:
        if fd.lhs not in sites:
            sites.append(fd.lhs)
    fds = []
    for lhs in sites:
        proper = closure_by_fixpoint(schema, lhs) - lhs
        if proper:
            fds.append(Fd(lhs, proper))
    return FdSchema(schema.signature, fds)


def _s1_by_sets(schema: FdSchema):
    """The attribute on every FD's lhs, lowest signature position first."""
    shared = frozenset.intersection(*(fd.lhs for fd in schema.fds))
    return next((a for a in schema.signature.attributes if a in shared), None)


def _s2_by_sets(schema: FdSchema):
    """The first FD, in canonical order, with an empty lhs."""
    return next((fd for fd in schema.fds if not fd.lhs), None)


def _s3_by_sets(schema: FdSchema):
    """The first lhs marriage: distinct lhs X1, X2 in canonical FD order,
    one of them inside every lhs, with equal closures."""
    sites = list(dict.fromkeys(fd.lhs for fd in schema.fds))
    for i, x1 in enumerate(sites):
        for x2 in sites[i + 1 :]:
            if all(x1 <= lhs or x2 <= lhs for lhs in sites) and (
                closure_by_fixpoint(schema, x1) == closure_by_fixpoint(schema, x2)
            ):
                return (x1, x2)
    return None


def project(schema: FdSchema, removed) -> FdSchema:
    """Remove the given attributes from the signature and from every FD.

    Surviving attributes keep their order; the resulting FD set is
    normalized, in the same pass.
    """
    removed = schema.signature.check_attrs(removed)
    attrs = tuple(a for a in schema.signature.attributes if a not in removed)
    new_sig = Signature(schema.signature.relation, attrs)
    fds = []
    for fd in schema.fds:
        lhs = fd.lhs - removed
        rhs = fd.rhs - removed - lhs
        if rhs:
            fds.append(Fd(lhs, rhs))
    return FdSchema(new_sig, fds)


def canonical_fds_by_name(signature: Signature, fds) -> tuple[Fd, ...]:
    """The distinct FDs in canonical order, sorted by the list of their
    lhs attributes' signature positions, then of their rhs's: found by
    looking up each name, not from masks."""
    position = {a: i for i, a in enumerate(signature.attributes)}.__getitem__

    def key(fd: Fd) -> tuple:
        return sorted(map(position, fd.lhs)), sorted(map(position, fd.rhs))

    return tuple(sorted(set(fds), key=key))


def masks_by_name(signature: Signature, fds) -> tuple[tuple[int, int], ...]:
    """Each FD as ``(lhs, rhs)`` bitmasks, bit ``i`` for the signature's
    ``i``-th attribute, found by scanning the signature for each side."""

    def mask(attrs) -> int:
        return sum(1 << i for i, a in enumerate(signature.attributes) if a in attrs)

    return tuple((mask(fd.lhs), mask(fd.rhs)) for fd in fds)


def render_fd_by_name(signature: Signature, fd: Fd) -> str:
    """``lhs -> rhs``, each side's names in signature order, found by
    scanning every attribute of the signature for each side."""

    def side(attrs) -> str:
        return ",".join(a for a in signature.attributes if a in attrs)

    return f"{side(fd.lhs)} -> {side(fd.rhs)}"


def render_fds_by_name(schema: FdSchema) -> str:
    """The schema's FDs, in their canonical order, by
    :func:`render_fd_by_name`, joined by ``"; "``; ``"(none)"`` if none."""
    texts = [render_fd_by_name(schema.signature, fd) for fd in schema.fds]
    return "; ".join(texts) or "(none)"


# kind -> (finder, attributes its witness removes), in the order that
# the rules are tried
_RULES = {
    "S1": (_s1_by_sets, lambda attr: frozenset([attr])),
    "S2": (_s2_by_sets, lambda fd: fd.rhs),
    "S3": (_s3_by_sets, lambda pair: pair[0] | pair[1]),
}


@dataclass(frozen=True)
class ProjectionStep:
    """One step of the projection loop: the rewrite, as ``classify``'s
    trace shows it, and the schemas before and after it."""

    kind: str
    removed_attributes: frozenset
    witness: object
    schema_before: FdSchema
    schema_after: FdSchema

    @property
    def view(self) -> SimplificationStep:
        return SimplificationStep(self.kind, self.removed_attributes, self.witness)


def projection_steps(schema: FdSchema) -> tuple:
    """``(steps, terminal)`` of the rewrite loop on ``FdSchema`` values:
    each step tries S1, S2 and S3 in that order on the current schema,
    by their set definitions, and ``project`` removes the first witness
    found."""
    current = normalize(schema)
    steps = []
    while current.fds:
        for kind, (find, removes) in _RULES.items():
            witness = find(current)
            if witness is not None:
                break
        else:
            break
        removed = removes(witness)
        after = project(current, removed)
        assert after.signature.arity < current.signature.arity
        steps.append(ProjectionStep(kind, removed, witness, current, after))
        current = after
    return tuple(steps), current


def classify_by_projection(schema: FdSchema) -> tuple:
    """``(steps, terminal, tractable)`` of ``fdrepair.simplify.classify``,
    by :func:`projection_steps`."""
    steps, terminal = projection_steps(schema)
    return tuple(step.view for step in steps), terminal, not terminal.fds


def local_minima(schema: FdSchema) -> tuple[Fd, ...]:
    """The FDs whose lhs strictly contains no other FD's lhs.

    FDs sharing the same lhs count as one minimal "site"; callers that
    need sites should deduplicate on lhs.
    """
    minima = []
    for fd in schema.fds:
        if not any(other.lhs < fd.lhs for other in schema.fds):
            minima.append(fd)
    return tuple(minima)


def minima_sites(schema: FdSchema) -> tuple[frozenset[str], ...]:
    """Distinct lhs sets of the local minima, in canonical order."""
    sites: list[frozenset[str]] = []
    for fd in local_minima(schema):
        if fd.lhs not in sites:
            sites.append(fd.lhs)
    return tuple(sites)


def _rules_from_2r(attrs, x1, x2, x1_star, x2_star) -> tuple:
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


def _rules_from_rl(attrs, x1, x2, x1_star, x2_plus, x2_star) -> tuple:
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


def _rules_from_tr(attrs, x1, x2, x3) -> tuple:
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


def _rules_from_2fd(attrs, x1, x2, x1_star) -> tuple:
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


def terminal_witness_by_closures(terminal: FdSchema) -> tuple:
    """``(case id, core, rules)`` by the first matching closure-structure
    case over ordered pairs of the terminal schema's minimal sites."""
    attrs = terminal.signature.attributes
    sites = minima_sites(terminal)
    closures = {site: closure_by_fixpoint(terminal, site) for site in sites}
    for x1, x2 in itertools.permutations(sites, 2):
        x1_plus, x1_star = closures[x1], closures[x1] - x1
        x2_plus, x2_star = closures[x2], closures[x2] - x2
        if not (x1_star & x2_plus) and not (x2_star & x1_plus):
            return 1, "2r", _rules_from_2r(attrs, x1, x2, x1_star, x2_star)
        if (x1_star & x2_star) and not (x1_star & x2) and not (x2_star & x1):
            return 2, "rl", _rules_from_rl(attrs, x1, x2, x1_star, x2_plus, x2_star)
        if (x1_star & x2) and not (x2_star & x1):
            return 3, "rl", _rules_from_rl(attrs, x1, x2, x1_star, x2_plus, x2_star)
        if (x1_star & x2) and (x2_star & x1):
            if (x1 - x2) <= x2_star and (x2 - x1) <= x1_star:
                third = next((s for s in sites if s not in (x1, x2)), None)
                if third is not None:
                    return 4, "tr", _rules_from_tr(attrs, x1, x2, third)
            elif not (x2 - x1) <= x1_star:
                return 5, "2fd", _rules_from_2fd(attrs, x1, x2, x1_star)
    raise AssertionError(f"no closure-structure case matched on {terminal}")


def witness_by_closures(schema: FdSchema, terminal: FdSchema = None) -> tuple:
    """``(case id, reduction)`` of ``fdrepair.gadgets.hard_case_witness``,
    on ``FdSchema`` values: the terminal schema of the projection loop
    (or ``terminal``, when the caller has it), its minimal sites by
    comparing every pair of FDs, their closures on attribute names, the
    five cases' rules by attribute name, and DOT on every input column
    that the terminal schema lost, onto ``schema`` as given."""
    if terminal is None:
        terminal = classify_by_projection(schema)[1]
    assert terminal.fds, schema
    case_id, core, rules = terminal_witness_by_closures(terminal)
    kept = dict(zip(terminal.signature.attributes, rules))
    padded = tuple(kept.get(a, DOT) for a in schema.signature.attributes)
    return case_id, FactWiseReduction(HARD_SCHEMAS[core], schema, padded)


def _agreement(schema: FdSchema, f, g) -> set:
    """The attributes on which two facts have equal values."""
    return {a for a, u, v in zip(schema.signature.attributes, f, g) if u == v}


def _violates(fd: Fd, agreement: set) -> bool:
    """Whether two facts agreeing exactly on ``agreement`` violate ``fd``."""
    return fd.lhs <= agreement and not fd.rhs <= agreement


def entails_by_two_fact_models(schema: FdSchema, fd: Fd) -> bool:
    """FD entailment by exhausting all two-fact 0/1 instances."""
    facts = list(itertools.product("01", repeat=schema.signature.arity))
    for f, g in itertools.combinations_with_replacement(facts, 2):
        agreement = _agreement(schema, f, g)
        if _violates(fd, agreement) and not any(
            _violates(known, agreement) for known in schema.fds
        ):
            return False
    return True


def consistent_by_definition(schema: FdSchema, facts) -> bool:
    return not any(
        conflict_by_definition(schema, f, g)
        for f, g in itertools.combinations(facts, 2)
    )


def max_repair_size_by_subsets(schema: FdSchema, instance: Instance) -> int:
    """Largest consistent subset size, by enumerating all subsets."""
    facts = instance.sorted_facts
    assert len(facts) <= 16, "subset enumeration oracle capped at 16 facts"
    best = 0
    for r in range(len(facts), 0, -1):
        if r <= best:
            break
        for combo in itertools.combinations(facts, r):
            if consistent_by_definition(schema, combo):
                best = r
                break
    return best


def lex_first_max_repair_by_subsets(schema: FdSchema, facts) -> tuple:
    """The first largest consistent subset of ``facts``, as a tuple.

    "First" is lexicographic in the given fact order: combinations of one
    size come in that order, and sizes are tried from the largest down.
    """
    facts = list(facts)
    assert len(facts) <= 16, "subset enumeration oracle capped at 16 facts"
    clash = {
        (f, g)
        for f, g in itertools.combinations(facts, 2)
        if conflict_by_definition(schema, f, g)
    }
    for r in range(len(facts), -1, -1):
        for combo in itertools.combinations(facts, r):
            if not any(p in clash for p in itertools.combinations(combo, 2)):
                return combo
    raise AssertionError("unreachable: the empty set is consistent")


def max_triangle_packing_by_subsets(triangles) -> int:
    """Largest set of triangles no two of which share an edge.

    Triangles are (a, b, c) node triples, one node per side; two share an
    edge when they agree on two of the three sides.
    """
    triangles = list(triangles)
    assert len(triangles) <= 16, "subset enumeration oracle capped at 16"
    for r in range(len(triangles), 0, -1):
        for combo in itertools.combinations(triangles, r):
            if all(
                sum(u == v for u, v in zip(s, t)) < 2
                for s, t in itertools.combinations(combo, 2)
            ):
                return r
    return 0


def first_violated_fd(schema: FdSchema, f, g):
    """The first FD of ``schema.fds`` that the two facts violate, or None."""
    agreement = _agreement(schema, f, g)
    return next((fd for fd in schema.fds if _violates(fd, agreement)), None)


def conflict_by_definition(schema: FdSchema, f, g) -> bool:
    return first_violated_fd(schema, f, g) is not None


def greedy_s_repair(schema: FdSchema, facts) -> tuple:
    """A maximal consistent subset of ``facts``, grown in their order.

    Each fact is kept when it conflicts with no fact kept before it. Not
    maximum in general; a lower bound on the repair size.
    """
    kept = []
    for f in facts:
        if not any(conflict_by_definition(schema, f, g) for g in kept):
            kept.append(f)
    return tuple(kept)


def s_repair_by_definition(schema: FdSchema, facts, kept) -> bool:
    """Kept facts are consistent and every other fact conflicts with one."""
    kept = set(kept)
    return consistent_by_definition(schema, kept) and all(
        any(conflict_by_definition(schema, f, g) for g in kept)
        for f in facts
        if f not in kept
    )


def graph_pairs(schema: FdSchema, instance: Instance) -> set:
    """The pairs ``(f, g)``, ``f`` before ``g`` canonically, that the
    oracle's ``ConflictGraph`` joins: the library's conflict index."""
    graph = ConflictGraph.build(schema, instance)
    facts = graph.facts
    return {
        (facts[i], facts[j])
        for i, mask in enumerate(graph.adjacency)
        for j in range(i + 1, len(facts))
        if mask >> j & 1
    }


def s_repair_by_pairs(
    schema: FdSchema, instance: Instance, candidate: Instance
) -> bool:
    """Maximality and consistency over the conflict graph's pairs.

    No pair of :func:`graph_pairs` may lie inside the candidate, and
    each fact outside it must be in a pair with a kept fact. The package
    checks the same with one lhs -> rhs map per FD and no pair.
    """
    pairs = graph_pairs(schema, instance)
    kept = candidate.facts
    if any(f in kept and g in kept for f, g in pairs):
        return False
    covered = kept | {fact for pair in pairs if kept.intersection(pair) for fact in pair}
    return covered >= instance.facts


def _values_by_name(signature: Signature, names):
    """A fact's values on the attributes ``names``, in signature order."""
    attrs = signature.attributes
    return lambda fact: tuple(v for a, v in zip(attrs, fact) if a in names)


def wide_lhs_groups(schema: FdSchema, facts) -> int:
    """Per FD, the groups of 3+ ``facts`` that agree on its lhs and meet
    3+ rhs values, grouped by attribute name."""
    wide = 0
    for fd in schema.fds:
        lhs, rhs = (_values_by_name(schema.signature, x) for x in (fd.lhs, fd.rhs))
        groups: dict = {}
        for fact in facts:
            groups.setdefault(lhs(fact), []).append(fact)
        wide += sum(
            len(members) >= 3 and len(set(map(rhs, members))) >= 3
            for members in groups.values()
        )
    return wide


def first_step_blocks(trace, instance: Instance) -> dict:
    """The blocks of ``trace``'s first step, grouped by attribute name.

    An S1 or S2 block's key is the tuple of its facts' values on the
    step's removed attributes; an S3 block's key is the pair ``(x, y)``
    of their values on X1 and on X2, each in signature order. Each block
    is an ``Instance``. Empty when the plan has no step.
    """
    if not trace.steps:
        return {}
    step, signature = trace.steps[0], instance.signature
    if step.kind == "S3":
        x_of, y_of = (_values_by_name(signature, x) for x in step.witness)
        key_of = lambda fact: (x_of(fact), y_of(fact))
    else:
        key_of = _values_by_name(signature, step.removed_attributes)
    blocks: dict = {}
    for fact in instance.facts:
        blocks.setdefault(key_of(fact), []).append(fact)
    return {key: Instance(signature, block) for key, block in blocks.items()}


def first_step_block_sizes(trace, instance: Instance) -> dict:
    """Each block of ``trace``'s first step (:func:`first_step_blocks`)
    with the size of its repair under the traced schema, by subset
    enumeration."""
    schema = trace._schema
    return {
        key: max_repair_size_by_subsets(schema, block)
        for key, block in first_step_blocks(trace, instance).items()
    }


def rule_by_name(rule, values: dict):
    """A reduction rule evaluated on a fact given as attribute -> value."""
    if rule is DOT:
        return DOT
    if isinstance(rule, str):
        return values[rule]
    return tuple(rule_by_name(part, values) for part in rule)


def image_by_name(reduction, fact) -> tuple:
    """A fact's image under a fact-wise reduction, rule by rule."""
    values = dict(zip(reduction.source.signature.attributes, fact))
    return tuple(rule_by_name(rule, values) for rule in reduction.rules)


@functools.lru_cache(maxsize=16)
def _conflicting_pairs(schema: FdSchema, facts: tuple) -> frozenset:
    """The pairs of ``facts``, in their order, that conflict.

    Cached: the maps checked against one hard core over one domain share
    its pairs, and four cores over a few domains fit the cache.
    """
    return frozenset(
        (f, g)
        for f, g in itertools.combinations(facts, 2)
        if conflict_by_definition(schema, f, g)
    )


def reduction_violations_by_pairs(reduction, domain) -> tuple:
    """``(kind, first, second)`` per failing source pair, pair by pair.

    The same report a fact-wise reduction check should give: equal images
    are an injectivity failure; otherwise a pair whose images conflict
    exactly when it does not is a consistency (images conflict) or an
    inconsistency (images agree) failure.
    """
    arity = reduction.source.signature.arity
    facts = sorted(itertools.product(sorted(set(domain)), repeat=arity))
    images = {fact: image_by_name(reduction, fact) for fact in facts}
    conflicting = _conflicting_pairs(reduction.source, tuple(facts))
    found = []
    for f, g in itertools.combinations(facts, 2):
        fi, gi = images[f], images[g]
        before = (f, g) in conflicting
        after = conflict_by_definition(reduction.target, fi, gi)
        if fi == gi:
            found.append(("injectivity", f, g))
        elif after and not before:
            found.append(("consistency", f, g))
        elif before and not after:
            found.append(("inconsistency", f, g))
    return tuple(sorted(found))


def brute_force_matching(problem) -> tuple:
    """Maximum-weight matching by exhausting edge subsets.

    ``problem`` is a ``BipartiteMatchProblem`` or its ``(x, y, w)`` edge
    list. Same tie-break as ``fdrepair.repair.max_weight_matching``:
    among the maximum-weight matchings, the lexicographically smallest
    canonically sorted edge list wins.
    """
    edges = sorted(
        getattr(problem, "edges", problem),
        key=lambda e: (constant_key(e[0]), constant_key(e[1])),
    )
    assert len(edges) <= 16, "edge subset enumeration oracle capped at 16 edges"
    suffix_weight = [0] * (len(edges) + 1)
    for i in range(len(edges) - 1, -1, -1):
        suffix_weight[i] = suffix_weight[i + 1] + edges[i][2]

    best_weight = -1
    best_seq: tuple = ()
    best_key: tuple = ()

    def search(i: int, current: list, weight: int, used_l: set, used_r: set):
        nonlocal best_weight, best_seq, best_key
        if weight + suffix_weight[i] < best_weight:
            return
        if i == len(edges):
            key = tuple(
                (constant_key(x), constant_key(y)) for x, y in current
            )
            if weight > best_weight or (weight == best_weight and key < best_key):
                best_weight = weight
                best_seq = tuple(current)
                best_key = key
            return
        x, y, w = edges[i]
        if x not in used_l and y not in used_r:
            current.append((x, y))
            search(i + 1, current, weight + w, used_l | {x}, used_r | {y})
            current.pop()
        search(i + 1, current, weight, used_l, used_r)

    search(0, [], 0, set(), set())
    return best_seq


def collecting_last_step(step, facts) -> list:
    """``fdrepair.repair._last_step`` on two or more facts, by block lists.

    Collects one list per block, then recombines the lists by their
    lengths: a lone block is kept whole, S2 keeps the first of the
    largest blocks in ``constant_key`` order, and S3 keeps the blocks
    that ``max_weight_matching`` takes, built through the checked
    ``BipartiteMatchProblem`` constructor on the blocks' ``(x, y)``
    values, and with no shortcut for blocks that share no endpoint.
    Returns the repair, as ``_last_step`` does.
    """
    kind, key_of = step[:2]
    assert kind != "S1" and len(facts) > 1
    blocks: dict = {}
    for fact in facts:
        blocks.setdefault(key_of(fact), []).append(fact)
    if len(blocks) == 1:
        return list(facts)
    if kind == "S2":
        best = max(map(len, blocks.values()))
        pick = min((k for k, b in blocks.items() if len(b) == best), key=constant_key)
        return blocks[pick]
    problem = BipartiteMatchProblem((x, y, len(b)) for (x, y), b in blocks.items())
    chosen = []
    for edge in max_weight_matching(problem):
        chosen += blocks[edge]
    return chosen


def tuple_key_last_step(step, facts) -> list:
    """``fdrepair.repair._last_step`` on two or more facts, by tuple keys.

    The route the last step took before it coded S3 blocks as ints:
    count the facts per block key in a dict (an S3 block keyed by its
    ``(x, y)`` values), keep the input list as it stands for a lone
    block or for S3 blocks that share no endpoint, else pick the kept
    keys (S2: the first largest block in ``constant_key`` order; S3:
    ``max_weight_matching`` over the checked ``BipartiteMatchProblem``
    of the counts) and keep the facts with those keys, in input order.
    """
    key_of = step[1]
    sizes: dict = {}
    for key in map(key_of, facts):
        sizes[key] = sizes.get(key, 0) + 1
    if len(sizes) == 1:
        return facts
    if step[0] == "S2":
        best = max(sizes.values())
        keep = {min((k for k, n in sizes.items() if n == best), key=constant_key)}
    else:
        xs, ys = zip(*sizes)
        if len(set(xs)) == len(sizes) == len(set(ys)):
            return facts
        problem = BipartiteMatchProblem((x, y, n) for (x, y), n in sizes.items())
        keep = set(max_weight_matching(problem))
    return [fact for fact in facts if key_of(fact) in keep]


def cnf_satisfiable(formula: CnfFormula, cap: int = 22) -> bool:
    """Truth-table satisfiability check, capped at ``cap`` variables."""
    assert formula.num_vars <= cap, f"truth-table oracle capped at {cap} variables"
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


def max_edge_disjoint_triangles(graph: TripartiteGraph, cap: int = 14) -> int:
    """Largest pairwise edge-disjoint triangle subset, by exhaustion."""
    triangles = graph.triangles
    n = len(triangles)
    assert n <= cap, f"triangle enumeration oracle capped at {cap} triangles"
    # clash[i]: the earlier triangles sharing an edge with triangle i,
    # found by indexing each triangle under its three side-tagged edges
    clash = []
    by_edge: dict[tuple, int] = {}
    for i, (a, b, c) in enumerate(triangles):
        mask = 0
        for edge in (("AB", a, b), ("AC", a, c), ("BC", b, c)):
            mask |= by_edge.get(edge, 0)
            by_edge[edge] = by_edge.get(edge, 0) | 1 << i
        clash.append(mask)
    best = 0

    def grow(i: int, picked: int, count: int) -> None:
        nonlocal best
        if count + (n - i) <= best:
            return
        if i == n:
            best = max(best, count)
            return
        if not clash[i] & picked:
            grow(i + 1, picked | 1 << i, count + 1)
        grow(i + 1, picked, count)

    grow(0, 0, 0)
    return best


def read_csv_by_csv_module(path: str, signature) -> tuple[Instance, int]:
    """The instance in a CSV file and its count of duplicate rows.

    Every row comes from ``csv.reader`` over the file handle, and the
    header and each row are checked cell by cell; a file that does not
    fit raises :class:`DataError` with the reader's message.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as handle:
            rows = list(csv.reader(handle))
    except (csv.Error, UnicodeDecodeError) as exc:
        raise DataError(f"{path}: {exc}") from exc
    if not rows:
        raise DataError(f"{path}: missing header row")
    header = [cell.strip() for cell in rows[0]]
    if len(set(header)) != len(header):
        raise DataError(f"{path}: duplicate column in header")
    missing = set(signature.attributes) - set(header)
    extra = set(header) - set(signature.attributes)
    if missing or extra:
        parts = []
        if missing:
            parts.append(f"missing columns {sorted(missing)}")
        if extra:
            parts.append(f"unexpected columns {sorted(extra)}")
        raise DataError(f"{path}: {'; '.join(parts)}")
    facts = []
    for row_no, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise DataError(
                f"{path}: row {row_no} has {len(row)} cells, expected {len(header)}"
            )
        by_name = dict(zip(header, row))
        facts.append(tuple(by_name[attr] for attr in signature.attributes))
    instance = Instance(signature, facts)
    return instance, len(facts) - len(instance)
