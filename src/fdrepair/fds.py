"""Core algebra for functional dependencies over single-relation tables.

Everything here is an immutable value: signatures, FD sets, instances.
All operations are pure functions, so sharing across threads is safe.

A *constant* (cell value) is one of:

* a plain ``str`` (what CSV ingestion produces),
* the reserved marker :data:`DOT`, distinct from every user string,
* a tuple of constants (structured values built by the gadget layer).

Facts are plain tuples of constants, positionally aligned with the
signature's attribute list. An :class:`Instance` keeps its distinct
facts as one tuple of rows in first-seen order, and the repair path, the
CSV writer and the consistency checks walk those rows, in the order
they sit in memory. Its ``facts``, the frozenset view, is built on first
read and then kept; equality, hashing and pickles use that set, so the
rows' order is no part of the value.

The one closure fixpoint in the package, :func:`_closure`, runs on FDs
as ``(lhs, rhs)`` bitmask pairs over a signature's positions, which each
schema converts once, when it is built (``FdSchema._masks``);
:func:`_closures` memoizes it for callers that ask for many closures
under one FD set.

The mask helpers live here, one of each: :func:`_positions` walks a
mask's set bits, :func:`_mask_order` keys canonical FD order by them,
:func:`_names` reads the attributes at them, and :func:`_render_fds`
renders FD masks for ``FdSchema.render_fds``, the classifier's trace
and the schema file writer.

Two facts conflict when they agree on an FD's lhs and differ on its
rhs. Every conflict check reads each FD through (lhs, rhs) getters
compiled once per :class:`FdSchema`. :func:`pair_consistent` applies
them to its two facts directly. Consistency, and the oracle's
maximality check, read one lhs -> rhs map per FD, :func:`_rhs_by_lhs`,
in O(facts x FDs): facts are consistent exactly when each FD's map
meets one rhs value per lhs value. The oracle's conflict graph needs the
conflicts themselves, and reads them off one hash index,
:func:`_conflict_masks`: per FD, the facts grouped by lhs values, each
group split by rhs values, and each fact given the bitmask of its
conflicts, with no per-pair work.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
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


def canonical_sorted(values: Iterable) -> list:
    """``values`` in canonical (:func:`constant_key`) order; facts, being
    tuple constants, in column-wise order.

    Plain tuple order is the same order wherever it is defined, that is
    while every compared pair of values is str/str or tuple/tuple, and it
    needs no per-value key. A comparison that meets DOT or mixed types
    raises TypeError, and the keyed sort takes over.
    """
    values = list(values)
    try:
        values.sort()
    except TypeError:
        values.sort(key=constant_key)
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


def _getter_at(positions: Sequence[int]) -> Callable[[Fact], tuple]:
    """Map a fact tuple (not a list, whose slice is no dict key) to its
    values at ``positions``."""
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

    def __repr__(self) -> str:
        return f"Fd({','.join(sorted(self.lhs))} -> {','.join(sorted(self.rhs))})"


@dataclass(frozen=True)
class FdSchema:
    """A signature together with a set of FDs over it.

    FDs are stored deduplicated in canonical order (:func:`_mask_order`),
    so every "pick the first one" downstream is deterministic. ``_masks``,
    no field, holds them as masks, from the same pass over their names.
    """

    signature: Signature
    fds: tuple[Fd, ...]

    def __init__(self, signature: Signature, fds: Iterable[Fd] = ()):
        # reversed: of equal FDs (equal masks) the dict keeps the first given
        fds = tuple(fds)[::-1]
        bit = {a: 1 << i for i, a in enumerate(signature.attributes)}.__getitem__
        try:
            by_mask = {(sum(map(bit, fd.lhs)), sum(map(bit, fd.rhs))): fd for fd in fds}
        except KeyError:  # an unknown name: the check raises, naming each
            signature.check_attrs(chain.from_iterable(fd.lhs | fd.rhs for fd in fds))
        masks = tuple(sorted(by_mask, key=_mask_order))
        object.__setattr__(self, "signature", signature)
        object.__setattr__(self, "fds", tuple(map(by_mask.__getitem__, masks)))
        object.__setattr__(self, "_masks", masks)

    def render_fds(self) -> str:
        return _render_fds(self.signature.attributes, self._masks)

    @cached_property
    def _keys(self) -> tuple[tuple[Callable, Callable], ...]:
        """Each FD's (lhs, rhs) getters, in ``fds`` order, compiled on
        first use.

        Lazy, because most schemas (such as a ``classify`` trace's
        terminal) are never asked about conflicts. Not a field: equality,
        hashing, ``repr`` and pickle ignore it. The getters read the
        positions of the FDs' masks.
        """
        return tuple(
            (_getter_at(_positions(lhs)), _getter_at(_positions(rhs)))
            for lhs, rhs in self._masks
        )

    def __getstate__(self) -> dict:
        # the masks and the cached getters are no part of the value
        return {"signature": self.signature, "fds": self.fds}

    def __setstate__(self, state: dict) -> None:
        FdSchema.__init__(self, state["signature"], state["fds"])

    def __repr__(self) -> str:
        return f"FdSchema({self.signature.relation}, [{self.render_fds()}])"


@dataclass(frozen=True, repr=False)
class Instance:
    """A deduplicated set of facts over a signature.

    The value is the signature and the set ``facts``: equality, hashing
    and pickles use them and nothing else, and ``repr`` prints the set in
    canonical order. ``_rows``, no field, like ``FdSchema._masks``, holds
    the distinct facts as one tuple in first-seen order; the repair path,
    the writer and the consistency checks walk it, in the order the facts
    sit in memory. ``facts``, the frozenset view of the rows, is built on
    first read and then kept in the instance dict.

    Every cell must be a constant; anything else, unhashable cells
    included, raises :class:`SchemaError` here rather than at some later sort.
    """

    signature: Signature
    facts: frozenset[Fact]

    def __init__(self, signature: Signature, facts: Iterable[Fact] = ()):
        facts = list(map(tuple, facts))
        try:
            facts = dict.fromkeys(facts)
        except TypeError:
            pass  # an unhashable cell, which the checks below name
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
        # a copy of the dedup, unless the checks let an unhashable cell
        # through (a str subclass with no hash), which raises TypeError here
        object.__setattr__(self, "_rows", tuple(dict.fromkeys(facts)))

    def __getattr__(self, name: str):
        # only a missing attribute gets here: ``facts`` before its first
        # read. A plain hook, not cached_property, which takes a lock on
        # every first read on CPython 3.11
        if name != "facts":
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}"
            )
        facts = frozenset(self._rows)
        object.__setattr__(self, "facts", facts)
        return facts

    def __getstate__(self) -> dict:
        # the value alone: the rows' order is no part of it
        return {"signature": self.signature, "facts": self.facts}

    def __setstate__(self, state: dict) -> None:
        object.__setattr__(self, "signature", state["signature"])
        object.__setattr__(self, "facts", state["facts"])
        object.__setattr__(self, "_rows", tuple(state["facts"]))

    def __repr__(self) -> str:
        # a dataclass's, with the facts in canonical order: the same text
        # whatever the rows' order or the hash seed
        facts = ", ".join(map(repr, self.sorted_facts))
        facts = f"frozenset({{{facts}}})" if facts else "frozenset()"
        return f"Instance(signature={self.signature!r}, facts={facts})"

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Fact]:
        return iter(self.sorted_facts)

    @classmethod
    def _of_checked(cls, signature: Signature, facts: Iterable[Fact]) -> "Instance":
        """An instance of facts known to fit and to be distinct: tuples of
        the signature's arity whose cells are constants, no two equal.

        The callers: the repair engine and the oracle (subsets of a
        checked instance's rows), the CNF gadgets (one fact per literal of
        a clause, and :class:`fdrepair.gadgets.CnfFormula` dedups each
        clause's literals) and the CSV reader (rows of ``str`` cells of
        the right width, deduped in first-seen order). The facts become
        the rows as given, with no dedup and no frozenset built.
        """
        instance = object.__new__(cls)
        object.__setattr__(instance, "signature", signature)
        object.__setattr__(instance, "_rows", tuple(facts))
        return instance

    @property
    def sorted_facts(self) -> tuple[Fact, ...]:
        """The facts in canonical (column-wise) order."""
        return tuple(canonical_sorted(self._rows))


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


def _positions(mask: int) -> tuple[int, ...]:
    """The set bits of ``mask``, ascending: an attribute set's sort key in
    canonical FD order. Walks the set bits only, lowest first."""
    positions = []
    while mask:
        low = mask & -mask
        positions.append(low.bit_length() - 1)
        mask ^= low
    return tuple(positions)


def _mask_order(fd: MaskFd) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """An FD mask's key in canonical FD order: its lhs's positions, then its rhs's."""
    return tuple(map(_positions, fd))


def _names(attrs: tuple[str, ...], mask: int) -> tuple[str, ...]:
    """The attributes at ``mask``'s positions, in signature order."""
    return tuple(map(attrs.__getitem__, _positions(mask)))


def _render_fds(attrs: tuple[str, ...], fds: Iterable[MaskFd]) -> str:
    """FD masks over ``attrs`` as ``lhs -> rhs`` texts in canonical order
    (by the positions of the lhs, then of the rhs), each side's names in
    signature order, joined by ``"; "``; ``"(none)"`` when there are none."""
    text = "; ".join(
        f"{','.join(_names(attrs, lhs))} -> {','.join(_names(attrs, rhs))}"
        for lhs, rhs in sorted(fds, key=_mask_order)
    )
    return text or "(none)"


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
    until nothing changes: :func:`_closure` on the FDs' masks, from the
    base's mask, converted in one pass over the signature.
    """
    base = schema.signature.check_attrs(attrs)
    names = schema.signature.attributes
    mask = sum(1 << i for i, a in enumerate(names) if a in base)
    closed = _closure(schema._masks, mask)
    return ClosureResult(base, frozenset(_names(names, closed)))


def entails(schema: FdSchema, fd: Fd) -> bool:
    """Whether every instance satisfying the schema's FDs satisfies ``fd``."""
    closed = closure(schema, fd.lhs).closure
    return schema.signature.check_attrs(fd.rhs) <= closed


def equivalent(first: FdSchema, second: FdSchema) -> bool:
    """Whether two FD sets over the same signature entail each other: each
    FD's rhs lies in the closure of its lhs under the other set."""
    if first.signature != second.signature:
        raise SchemaError("cannot compare FD sets over different signatures")
    one, two = first._masks, second._masks
    return all(not rhs & ~_closure(two, lhs) for lhs, rhs in one) and all(
        not rhs & ~_closure(one, lhs) for lhs, rhs in two
    )


def normalize(schema: FdSchema) -> FdSchema:
    """Drop redundant attributes from each rhs and discard empty FDs.

    Attributes occurring on both sides of an FD are removed from the rhs;
    FDs whose rhs becomes empty disappear. The result is deduplicated and
    canonically ordered. Idempotent, and preserves entailment.
    """
    kept = []
    for fd in schema.fds:
        rhs = fd.rhs - fd.lhs
        if rhs:
            kept.append(Fd(fd.lhs, rhs))
    return FdSchema(schema.signature, kept)


def _conflict_masks(schema: FdSchema, facts: Sequence[Fact]) -> list[int]:
    """Per fact, the bitmask of the facts it conflicts with (bit ``j`` for
    ``facts[j]``).

    Per FD, in canonical order, the facts are grouped by lhs values; a
    group of one fact conflicts with nothing and is skipped. Each other
    group's members are ORed into one mask per rhs value, and a member
    conflicts with the group's total mask XOR its own rhs mask. Masks
    grow with the instance, so this index is for small ones.
    """
    adjacency = [0] * len(facts)
    for lhs, rhs in schema._keys:
        groups: dict[tuple, list[int]] = {}
        for i, key in enumerate(map(lhs, facts)):
            groups.setdefault(key, []).append(i)
        for members in groups.values():
            if len(members) == 1:
                continue
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
    for lhs, rhs in schema._keys:
        if lhs(f) == lhs(g) and rhs(f) != rhs(g):
            return False
    return True


def is_consistent(schema: FdSchema, instance: Instance) -> bool:
    """Whether no two facts agree on some FD's lhs but differ on its rhs.

    Reads one lhs -> rhs map per FD (:func:`_rhs_by_lhs`), in
    O(facts x FDs); no conflicting pair is built.
    """
    _check_same_signature(schema, instance)
    facts = instance._rows
    return all(
        _rhs_by_lhs(lhs, rhs, facts) is not None for lhs, rhs in schema._keys
    )


def _check_same_signature(schema: FdSchema, instance: Instance) -> None:
    if schema.signature != instance.signature:
        raise SchemaError(
            f"instance over {instance.signature.relation}"
            f"{instance.signature.attributes} does not match schema "
            f"{schema.signature.relation}{schema.signature.attributes}"
        )
