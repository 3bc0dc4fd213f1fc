"""Core algebra for functional dependencies over single-relation tables.

Everything here is an immutable value: signatures, FD sets, instances.
All operations are pure functions, so sharing across threads is safe.

A *constant* (cell value) is one of:

* a plain ``str`` (what CSV ingestion produces),
* the reserved marker :data:`DOT`, distinct from every user string,
* a tuple of constants (structured values built by the gadget layer).

Facts are plain tuples of constants, positionally aligned with the
signature's attribute list.

The one closure fixpoint in the package, :func:`_closure`, runs on FDs
as ``(lhs, rhs)`` bitmask pairs over a signature's positions;
:func:`_closures` memoizes it for callers that ask for many closures
under one FD set.

Two facts conflict when they agree on an FD's lhs and differ on its
rhs. Every conflict check reads each FD through (lhs, rhs) getters
compiled once per :class:`FdSchema`. :func:`pair_consistent` applies
them to its two facts directly. Consistency, and the oracle's
maximality check, read one lhs -> rhs map per FD, :func:`_rhs_by_lhs`,
in O(facts x FDs): facts are consistent exactly when each FD's map
meets one rhs value per lhs value. The checks that need the conflicts
themselves read one hash index, :func:`_lhs_groups`: per FD, the facts
grouped by lhs values. The index has two views, which split each group
by rhs values.
:func:`_conflicts` yields each conflicting pair, in O(facts x FDs +
conflicts), for :func:`violating_pairs`.
:func:`_conflict_masks` gives each fact the bitmask of its conflicts,
with no per-pair work, for the oracle's conflict graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations, product
from operator import itemgetter
from typing import Callable, Collection, Iterable, Iterator, Sequence, Union


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


def canonical_sorted(values: Iterable, key: Callable = constant_key) -> list:
    """``values`` in canonical order, ``key`` being the canonical sort key.

    Plain tuple order is the same order wherever it is defined, that is
    while every compared pair of values is str/str or tuple/tuple, and it
    needs no per-value key. A comparison that meets DOT or mixed types
    raises TypeError, and the keyed sort takes over.
    """
    values = list(values)
    try:
        values.sort()
    except TypeError:
        values.sort(key=key)
    return values


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

    @classmethod
    def _of_checked(cls, relation: str, attributes: tuple[str, ...]) -> "Signature":
        """A signature of names known to be valid, such as a subsequence
        of a checked signature's attributes under its relation name.
        """
        signature = object.__new__(cls)
        object.__setattr__(signature, "relation", relation)
        object.__setattr__(signature, "attributes", attributes)
        return signature

    @property
    def arity(self) -> int:
        return len(self.attributes)

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

    def getter(self, attrs: Iterable[str]) -> Callable[[Fact], tuple]:
        """Map a fact to its values on ``attrs``, in signature order.

        The fact must be a tuple (as every :class:`Instance` fact is): on
        zero or one column the getter slices it, and a slice of a list
        would be a list, which is no dict key.
        """
        attrs = self.check_attrs(attrs)
        return _getter_at([i for i, a in enumerate(self.attributes) if a in attrs])


def _getter_at(positions: list[int]) -> Callable[[Fact], tuple]:
    """Map a fact tuple to its values at ``positions``."""
    if len(positions) > 1:
        return itemgetter(*positions)
    # a slice of zero or one column keeps the value a tuple, in C
    start = positions[0] if positions else 0
    return itemgetter(slice(start, start + len(positions)))


@dataclass(frozen=True)
class Fd:
    """A functional dependency ``lhs -> rhs`` between attribute sets."""

    lhs: frozenset[str]
    rhs: frozenset[str]

    def __post_init__(self):
        object.__setattr__(self, "lhs", frozenset(self.lhs))
        object.__setattr__(self, "rhs", frozenset(self.rhs))

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

    @classmethod
    def _of_checked(cls, signature: Signature, fds: Iterable[Fd]) -> "FdSchema":
        """A schema of FDs known to be over the signature's attributes,
        such as FDs derived from a checked schema's, in canonical order.
        """
        schema = object.__new__(cls)
        object.__setattr__(schema, "signature", signature)
        object.__setattr__(schema, "fds", _canonical_fds(signature, fds))
        return schema

    def render_fds(self) -> str:
        return "; ".join(fd.render(self.signature) for fd in self.fds) or "(none)"

    @cached_property
    def _keys(self) -> tuple[tuple[Fd, Callable, Callable], ...]:
        """Each FD with its (lhs, rhs) getters, compiled on first use.

        Lazy, because most schemas (such as the projections ``classify``
        makes) are never asked about conflicts. Not a field: equality,
        hashing and ``repr`` ignore it. The FDs were checked against the
        signature when the schema was built, so their attributes are read
        straight off a position map.
        """
        position = {a: i for i, a in enumerate(self.signature.attributes)}.__getitem__

        def getter(attrs: frozenset[str]) -> Callable[[Fact], tuple]:
            return _getter_at(sorted(map(position, attrs)))

        return tuple((fd, getter(fd.lhs), getter(fd.rhs)) for fd in self.fds)

    def __repr__(self) -> str:
        return f"FdSchema({self.signature.relation}, [{self.render_fds()}])"


def _canonical_fds(signature: Signature, fds: Iterable[Fd]) -> tuple[Fd, ...]:
    """The distinct FDs, sorted by the signature positions of the lhs,
    then of the rhs. Every attribute must be in the signature.
    """
    fds = set(fds)
    if len(fds) < 2:
        return tuple(fds)
    pos = {a: i for i, a in enumerate(signature.attributes)}.__getitem__
    key = lambda fd: (sorted(map(pos, fd.lhs)), sorted(map(pos, fd.rhs)))
    return tuple(sorted(fds, key=key))


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

    @classmethod
    def _of_checked(cls, signature: Signature, facts: Iterable[Fact]) -> "Instance":
        """An instance of facts known to fit: tuples of the signature's
        arity whose cells are constants, such as facts taken from a
        checked instance or rows of ``str`` cells of the right width.
        """
        instance = object.__new__(cls)
        object.__setattr__(instance, "signature", signature)
        object.__setattr__(instance, "facts", frozenset(facts))
        return instance

    @property
    def sorted_facts(self) -> tuple[Fact, ...]:
        """The facts in canonical (:func:`fact_key`) order."""
        return tuple(canonical_sorted(self.facts, key=fact_key))


@dataclass(frozen=True)
class ClosureResult:
    """An attribute set, its closure under the FDs, and the difference."""

    base: frozenset[str]
    closure: frozenset[str]
    proper: frozenset[str] = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "proper", self.closure - self.base)


# An FD as the bitmasks of its lhs and rhs over a signature's positions
MaskFd = tuple[int, int]


def _mask_fds(schema: FdSchema) -> list[MaskFd]:
    """The schema's FDs as ``(lhs, rhs)`` masks over its signature."""
    bit = {a: 1 << i for i, a in enumerate(schema.signature.attributes)}.__getitem__
    return [(sum(map(bit, fd.lhs)), sum(map(bit, fd.rhs))) for fd in schema.fds]


def _closure(fds: Collection[MaskFd], closed: int) -> int:
    """Least fixpoint of ``closed`` under the FDs."""
    changed = True
    while changed:
        changed = False
        for lhs, rhs in fds:
            if not lhs & ~closed and rhs & ~closed:
                closed |= rhs
                changed = True
    return closed


def _closures(fds: Collection[MaskFd]) -> Callable[[int], int]:
    """:func:`_closure` under ``fds`` as a function that computes each
    closure at most once."""
    closures: dict[int, int] = {}

    def cl(closed: int) -> int:
        if closed not in closures:
            closures[closed] = _closure(fds, closed)
        return closures[closed]

    return cl


def closure(schema: FdSchema, attrs: Iterable[str]) -> ClosureResult:
    """Least fixpoint of ``attrs`` under the schema's FDs.

    Repeatedly adds the rhs of every FD whose lhs is already contained,
    until nothing changes: :func:`_closure` on the FDs' masks.
    """
    base = schema.signature.check_attrs(attrs)
    names = schema.signature.attributes
    closed = _closure(_mask_fds(schema), sum(1 << names.index(a) for a in base))
    found = frozenset(a for i, a in enumerate(names) if closed >> i & 1)
    return ClosureResult(base, found)


def entails(schema: FdSchema, fd: Fd) -> bool:
    """Whether every instance satisfying the schema's FDs satisfies ``fd``."""
    schema.signature.check_attrs(fd.lhs)
    rhs = schema.signature.check_attrs(fd.rhs)
    return rhs <= closure(schema, fd.lhs).closure


def equivalent(first: FdSchema, second: FdSchema) -> bool:
    """Whether two FD sets over the same signature entail each other: each
    FD's rhs lies in the closure of its lhs under the other set."""
    if first.signature != second.signature:
        raise SchemaError("cannot compare FD sets over different signatures")
    one, two = _mask_fds(first), _mask_fds(second)
    return all(not rhs & ~_closure(two, lhs) for lhs, rhs in one) and all(
        not rhs & ~_closure(one, lhs) for lhs, rhs in two
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
    return FdSchema._of_checked(schema.signature, kept)


def project(schema: FdSchema, removed: Iterable[str]) -> FdSchema:
    """Remove the given attributes from the signature and from every FD.

    Surviving attributes keep their order; the resulting FD set is
    normalized, in the same pass.
    """
    removed = schema.signature.check_attrs(removed)
    attrs = tuple(a for a in schema.signature.attributes if a not in removed)
    new_sig = Signature._of_checked(schema.signature.relation, attrs)
    fds = []
    for fd in schema.fds:
        lhs = fd.lhs - removed
        rhs = fd.rhs - removed - lhs
        if rhs:
            fds.append(Fd(lhs, rhs))
    return FdSchema._of_checked(new_sig, fds)


def _lhs_groups(
    schema: FdSchema, facts: Sequence[Fact]
) -> Iterator[tuple[Fd, Callable[[Fact], tuple], list[int]]]:
    """``(fd, rhs, members)`` for each FD, in canonical order, and lhs group.

    ``members`` are the ascending indices of two or more facts that
    agree on the FD's lhs, and ``rhs`` is the FD's compiled rhs getter.
    Two facts conflict exactly when they are members of one group and
    ``rhs`` tells them apart; a group of one fact conflicts with nothing
    and is skipped.
    """
    for fd, lhs, rhs in schema._keys:
        groups: dict[tuple, list[int]] = {}
        for i, key in enumerate(map(lhs, facts)):
            groups.setdefault(key, []).append(i)
        for members in groups.values():
            if len(members) > 1:
                yield fd, rhs, members


def _conflicts(schema: FdSchema, facts: Sequence[Fact]) -> Iterator[tuple]:
    """``(i, j, fd)`` for each FD, in canonical order, and pair it splits.

    The pair view of :func:`_lhs_groups`: each group is split by rhs
    values, and every two of its parts give their cross pairs. Always
    ``i < j``.
    """
    for fd, rhs, members in _lhs_groups(schema, facts):
        by_rhs: dict[tuple, list[int]] = {}
        for i in members:
            by_rhs.setdefault(rhs(facts[i]), []).append(i)
        for first, second in combinations(by_rhs.values(), 2):
            for i, j in product(first, second):
                yield (i, j, fd) if i < j else (j, i, fd)


def _conflict_masks(schema: FdSchema, facts: Sequence[Fact]) -> list[int]:
    """Per fact, the bitmask of the facts it conflicts with (bit ``j`` for
    ``facts[j]``): the mask view of :func:`_lhs_groups`.

    Each group's members are ORed into one mask per rhs value; a member
    conflicts with the group's total mask XOR its own rhs mask. Masks
    grow with the instance, so this view is for small ones.
    """
    adjacency = [0] * len(facts)
    for _, rhs, members in _lhs_groups(schema, facts):
        by_rhs: dict[tuple, int] = {}
        for i in members:
            value = rhs(facts[i])
            by_rhs[value] = by_rhs.get(value, 0) | 1 << i
        if len(by_rhs) > 1:
            group = sum(by_rhs.values())
            for i in members:
                adjacency[i] |= group ^ by_rhs[rhs(facts[i])]
    return adjacency


def _rhs_by_lhs(
    lhs: Callable[[Fact], tuple], rhs: Callable[[Fact], tuple], facts: Iterable[Fact]
) -> dict[tuple, tuple] | None:
    """The facts' map from lhs values to rhs values under one FD's getters,
    or None as soon as two of them agree on the lhs and differ on the rhs.

    One pass, with no pair and no group built. (A plain loop: building
    the map and the set of (lhs, rhs) pairs from zipped getters in C, and
    comparing their sizes, measured slower on small and large inputs.)
    """
    mapped: dict[tuple, tuple] = {}
    for fact in facts:
        value = rhs(fact)
        if mapped.setdefault(lhs(fact), value) != value:
            return None
    return mapped


def pair_consistent(schema: FdSchema, f: Fact, g: Fact) -> bool:
    """Whether the two facts jointly satisfy every FD of the schema.

    Reads each FD's compiled getters on the pair directly: the facts
    conflict when they agree on some lhs and differ on its rhs.
    """
    for _, lhs, rhs in schema._keys:
        if lhs(f) == lhs(g) and rhs(f) != rhs(g):
            return False
    return True


def is_consistent(schema: FdSchema, instance: Instance) -> bool:
    """Whether no two facts agree on some FD's lhs but differ on its rhs.

    Reads one lhs -> rhs map per FD (:func:`_rhs_by_lhs`), in
    O(facts x FDs); no conflicting pair is built.
    """
    _check_same_signature(schema, instance)
    facts = instance.facts
    return all(
        _rhs_by_lhs(lhs, rhs, facts) is not None for _, lhs, rhs in schema._keys
    )


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
    first: dict[tuple[int, int], Fd] = {}
    for i, j, fd in _conflicts(schema, facts):
        first.setdefault((i, j), fd)
    return frozenset((facts[i], facts[j], fd) for (i, j), fd in first.items())


def _check_same_signature(schema: FdSchema, instance: Instance) -> None:
    if schema.signature != instance.signature:
        raise SchemaError(
            f"instance over {instance.signature.relation}"
            f"{instance.signature.attributes} does not match schema "
            f"{schema.signature.relation}{schema.signature.attributes}"
        )
