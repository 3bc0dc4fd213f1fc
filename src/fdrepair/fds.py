"""Core algebra for functional dependencies over single-relation tables.

Everything here is an immutable value: signatures, FD sets, instances.
All operations are pure functions, so sharing across threads is safe.

A *constant* (cell value) is one of:

* a plain ``str`` (what CSV ingestion produces),
* the reserved marker :data:`DOT`, distinct from every user string,
* a tuple of constants (structured values built by the gadget layer).

Facts are plain tuples of constants, positionally aligned with the
signature's attribute list.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Union


class SchemaError(ValueError):
    """Malformed schema, or a value that does not fit its schema."""


class _DotType:
    """Reserved constant, distinct from every user-supplied string."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "DOT"

    def __reduce__(self):
        return (_DotType, ())


DOT = _DotType()

Constant = Union[str, _DotType, tuple]
Fact = tuple


def constant_key(value: Constant):
    """Total order over constants: DOT, then strings, then tuples."""
    if value is DOT:
        return (0, "")
    if isinstance(value, str):
        return (1, value)
    if isinstance(value, tuple):
        return (2, tuple(map(constant_key, value)))
    raise SchemaError(f"unsupported constant type: {type(value).__name__}")


def fact_key(fact: Fact):
    """Sort key giving the canonical (column-wise) order of facts."""
    return tuple(constant_key(value) for value in fact)


@dataclass(frozen=True)
class Signature:
    """A relation name with an ordered list of distinct attribute names."""

    relation: str
    attributes: tuple[str, ...]

    def __post_init__(self):
        if not self.relation:
            raise SchemaError("relation name must be non-empty")
        object.__setattr__(self, "attributes", tuple(self.attributes))
        for attr in self.attributes:
            if not attr or not isinstance(attr, str):
                raise SchemaError(f"bad attribute name: {attr!r}")
        if len(set(self.attributes)) != len(self.attributes):
            raise SchemaError(f"duplicate attributes in {self.relation}")

    @property
    def arity(self) -> int:
        return len(self.attributes)

    def position(self, attr: str) -> int:
        try:
            return self.attributes.index(attr)
        except ValueError:
            raise SchemaError(
                f"attribute {attr!r} not in relation {self.relation}"
            ) from None

    def check_attrs(self, attrs: Iterable[str]) -> frozenset[str]:
        attrs = frozenset(attrs)
        unknown = attrs - set(self.attributes)
        if unknown:
            raise SchemaError(
                f"attributes {sorted(unknown)} not in relation {self.relation}"
            )
        return attrs

    def sorted_attrs(self, attrs: Iterable[str]) -> tuple[str, ...]:
        """The given attributes, ordered by their signature position."""
        attrs = self.check_attrs(attrs)
        return tuple(a for a in self.attributes if a in attrs)


@dataclass(frozen=True)
class Fd:
    """A functional dependency ``lhs -> rhs`` between attribute sets."""

    lhs: frozenset[str]
    rhs: frozenset[str]

    def __post_init__(self):
        object.__setattr__(self, "lhs", frozenset(self.lhs))
        object.__setattr__(self, "rhs", frozenset(self.rhs))

    def is_trivial(self) -> bool:
        return self.rhs <= self.lhs

    def render(self, signature: Signature | None = None) -> str:
        if signature is not None:
            lhs = ",".join(signature.sorted_attrs(self.lhs))
            rhs = ",".join(signature.sorted_attrs(self.rhs))
        else:
            lhs = ",".join(sorted(self.lhs))
            rhs = ",".join(sorted(self.rhs))
        return f"{lhs} -> {rhs}"

    def __repr__(self) -> str:
        return f"Fd({self.render()})"


@dataclass(frozen=True)
class FdSchema:
    """A signature together with a set of FDs over it.

    FDs are stored deduplicated in a canonical order (sorted by the
    signature positions of the lhs, then of the rhs), so every
    "pick the first one" downstream is deterministic.
    """

    signature: Signature
    fds: tuple[Fd, ...]

    def __init__(self, signature: Signature, fds: Iterable[Fd] = ()):
        fds = tuple(fds)
        for fd in fds:
            signature.check_attrs(fd.lhs)
            signature.check_attrs(fd.rhs)
        object.__setattr__(self, "signature", signature)
        object.__setattr__(self, "fds", _canonical_fds(signature, fds))

    def render_fds(self) -> str:
        return "; ".join(fd.render(self.signature) for fd in self.fds) or "(none)"

    def __repr__(self) -> str:
        return f"FdSchema({self.signature.relation}, [{self.render_fds()}])"


def _canonical_fds(signature: Signature, fds: tuple[Fd, ...]) -> tuple[Fd, ...]:
    pos = signature.position
    key = lambda fd: (
        tuple(sorted(pos(a) for a in fd.lhs)),
        tuple(sorted(pos(a) for a in fd.rhs)),
    )
    return tuple(sorted(set(fds), key=key))


@dataclass(frozen=True)
class Instance:
    """A deduplicated set of facts over a signature.

    Every cell must be a constant; anything else raises
    :class:`SchemaError` here rather than at some later sort.
    """

    signature: Signature
    facts: frozenset[Fact]

    def __init__(self, signature: Signature, facts: Iterable[Fact] = ()):
        facts = frozenset(tuple(f) for f in facts)
        for fact in facts:
            if len(fact) != signature.arity:
                raise SchemaError(
                    f"fact {fact!r} has arity {len(fact)}, "
                    f"expected {signature.arity}"
                )
            for value in fact:
                if type(value) is not str:
                    constant_key(value)
        object.__setattr__(self, "signature", signature)
        object.__setattr__(self, "facts", facts)

    def __len__(self) -> int:
        return len(self.facts)

    def __iter__(self) -> Iterator[Fact]:
        return iter(self.sorted_facts)

    @property
    def sorted_facts(self) -> tuple[Fact, ...]:
        """The facts in canonical (:func:`fact_key`) order.

        Plain tuple order is the same order wherever it is defined, that
        is while every compared pair of values is str/str or tuple/tuple,
        and it needs no per-value key. A comparison that meets DOT or
        mixed types raises TypeError, and the keyed sort takes over.
        """
        try:
            return tuple(sorted(self.facts))
        except TypeError:
            return tuple(sorted(self.facts, key=fact_key))

    def value_of(self, fact: Fact, attrs: Iterable[str]) -> tuple[Constant, ...]:
        """The fact's values on the given attributes, in signature order."""
        pos = self.signature.position
        return tuple(fact[pos(a)] for a in self.signature.sorted_attrs(attrs))


@dataclass(frozen=True)
class ClosureResult:
    """An attribute set, its closure under the FDs, and the difference."""

    base: frozenset[str]
    closure: frozenset[str]
    proper: frozenset[str] = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "proper", self.closure - self.base)


def closure(schema: FdSchema, attrs: Iterable[str]) -> ClosureResult:
    """Least fixpoint of ``attrs`` under the schema's FDs.

    Repeatedly adds the rhs of every FD whose lhs is already contained,
    until nothing changes.
    """
    base = schema.signature.check_attrs(attrs)
    current = set(base)
    changed = True
    while changed:
        changed = False
        for fd in schema.fds:
            if fd.lhs <= current and not fd.rhs <= current:
                current |= fd.rhs
                changed = True
    return ClosureResult(base=base, closure=frozenset(current))


def entails(schema: FdSchema, fd: Fd) -> bool:
    """Whether every instance satisfying the schema's FDs satisfies ``fd``."""
    schema.signature.check_attrs(fd.lhs)
    rhs = schema.signature.check_attrs(fd.rhs)
    return rhs <= closure(schema, fd.lhs).closure


def equivalent(first: FdSchema, second: FdSchema) -> bool:
    """Whether two FD sets over the same signature entail each other."""
    if first.signature != second.signature:
        raise SchemaError("cannot compare FD sets over different signatures")
    return all(entails(second, fd) for fd in first.fds) and all(
        entails(first, fd) for fd in second.fds
    )


def normalize(schema: FdSchema) -> FdSchema:
    """Drop redundant attributes from each rhs and discard empty FDs.

    Attributes occurring on both sides of an FD are removed from the rhs;
    FDs whose rhs becomes empty disappear. The result is deduplicated and
    canonically ordered. Idempotent, and preserves entailment.
    """
    if all(fd.rhs and fd.rhs.isdisjoint(fd.lhs) for fd in schema.fds):
        return schema
    kept = []
    for fd in schema.fds:
        rhs = fd.rhs - fd.lhs
        if rhs:
            kept.append(Fd(fd.lhs, rhs))
    return FdSchema(schema.signature, kept)


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
        proper = closure(schema, lhs).proper
        if proper:
            fds.append(Fd(lhs, proper))
    return FdSchema(schema.signature, fds)


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


def is_chain(schema: FdSchema) -> bool:
    """Whether the lhs sets are totally ordered by inclusion."""
    lhss = [fd.lhs for fd in schema.fds]
    return all(
        a <= b or b <= a for i, a in enumerate(lhss) for b in lhss[i + 1 :]
    )


def project(schema: FdSchema, removed: Iterable[str]) -> FdSchema:
    """Remove the given attributes from the signature and from every FD.

    Surviving attributes keep their order; the resulting FD set is
    normalized.
    """
    removed = schema.signature.check_attrs(removed)
    attrs = tuple(a for a in schema.signature.attributes if a not in removed)
    new_sig = Signature(schema.signature.relation, attrs)
    fds = [Fd(fd.lhs - removed, fd.rhs - removed) for fd in schema.fds]
    return normalize(FdSchema(new_sig, fds))


def project_instance(instance: Instance, removed: Iterable[str]) -> Instance:
    """Drop the given columns from every fact; deduplicates the result."""
    removed = instance.signature.check_attrs(removed)
    sig = instance.signature
    keep = [i for i, a in enumerate(sig.attributes) if a not in removed]
    new_sig = Signature(sig.relation, tuple(sig.attributes[i] for i in keep))
    return Instance(new_sig, (tuple(f[i] for i in keep) for f in instance.facts))


def _pair_violates(fd: Fd, sig: Signature, f: Fact, g: Fact) -> bool:
    pos = sig.position
    return all(f[pos(a)] == g[pos(a)] for a in fd.lhs) and any(
        f[pos(a)] != g[pos(a)] for a in fd.rhs
    )


def pair_consistent(schema: FdSchema, f: Fact, g: Fact) -> bool:
    """Whether the two facts jointly satisfy every FD of the schema."""
    return not any(
        _pair_violates(fd, schema.signature, f, g) for fd in schema.fds
    )


def is_consistent(schema: FdSchema, instance: Instance) -> bool:
    """Whether no two facts agree on some FD's lhs but differ on its rhs."""
    _check_same_signature(schema, instance)
    facts = instance.sorted_facts
    for i, f in enumerate(facts):
        for g in facts[i + 1 :]:
            for fd in schema.fds:
                if _pair_violates(fd, schema.signature, f, g):
                    return False
    return True


def violating_pairs(
    schema: FdSchema, instance: Instance
) -> frozenset[tuple[Fact, Fact, Fd]]:
    """All unordered fact pairs in conflict, with the first FD they violate.

    Facts within a pair are ordered canonically; the FD reported is the
    first violated one in the schema's canonical FD order. Empty exactly
    when the instance is consistent.
    """
    _check_same_signature(schema, instance)
    facts = instance.sorted_facts
    found = set()
    for i, f in enumerate(facts):
        for g in facts[i + 1 :]:
            for fd in schema.fds:
                if _pair_violates(fd, schema.signature, f, g):
                    found.add((f, g, fd))
                    break
    return frozenset(found)


def _check_same_signature(schema: FdSchema, instance: Instance) -> None:
    if schema.signature != instance.signature:
        raise SchemaError(
            f"instance over {instance.signature.relation}"
            f"{instance.signature.attributes} does not match schema "
            f"{schema.signature.relation}{schema.signature.attributes}"
        )
