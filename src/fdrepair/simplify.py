"""Schema rewrite rules and the tractability classifier.

Three rewrites shrink an FD schema by projecting attributes away:

* S1: some attribute occurs on the left-hand side of every FD;
  remove that attribute.
* S2: some FD has an empty left-hand side; remove its right-hand side.
* S3: an *lhs marriage*, two distinct left-hand sides X1 and X2 with
  the same closure, where every FD's lhs contains X1 or X2; remove
  the union of X1 and X2.

:func:`classify` applies them greedily (S1, then S2, then S3, lowest
canonical witness first) until none fits. A schema admits an exact
polynomial-time cardinality repair exactly when the surviving FD set is
empty; the returned trace is the witness either way. Equivalent FD sets
get the same verdict, as the dichotomy requires: S3 compares closures,
not the FDs' right-hand sides.

The rules are set tests on attributes, so they run on int bitmasks over
the input signature's positions (bit ``i`` for attribute ``i``). An FD
is a ``(lhs, rhs)`` mask pair; normalizing drops the lhs bits from the
rhs and discards an empty rhs, and projecting clears the removed bits.
Projection keeps the surviving attributes in signature order, so sorted
position lists order attribute sets the same way at every step, and
canonical FD order matters only where a rule picks "first":

* S1 takes the lowest set bit of the AND of the lhs masks;
* S2 takes, among the empty-lhs FDs, the rhs whose sorted position list
  is smallest;
* S3 orders the distinct lhs masks by their sorted position lists, and
  computes each closure at most once, by :func:`~fdrepair.fds._closures`.

No step builds a schema or sorts the whole FD set. The trace is the
*mask plan*: each step's kind, witness and removed positions over the
input signature, the verdict and the FD set it stopped on, as masks.
The repair engine and the CLI read column positions off the plan, and
the hardness witness reads the stopped FD set. The mask helpers live
in :mod:`fdrepair.fds`: ``_names`` names a mask's attributes for
``steps``, ``terminal`` and the CLI's report, and ``_render_fds``
renders the stopped FD set for ``repr`` and the CLI, so only
``terminal`` builds a schema. Equality and hashing compare the
signature and the normalized input FD set, as masks, which fix
everything else. :func:`find_s1`, :func:`find_s2` and :func:`find_s3`
apply the same mask rules to one schema, and name their witnesses as
the trace's steps do. Nothing is cached across calls.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property
from typing import Callable, Collection, Optional, Union

from .fds import (
    Fd,
    FdSchema,
    MaskFd,
    Signature,
    _closures,
    _names,
    _positions,
    _render_fds,
)

Witness = Union[str, Fd, tuple[frozenset[str], frozenset[str]]]


@dataclass(frozen=True, repr=False)
class SimplificationStep:
    """One applied rewrite: its kind, what it removed, and its witness.

    ``repr`` is a dataclass's with each attribute set's members sorted,
    so it is the same under every hash seed.
    """

    kind: str
    removed_attributes: frozenset[str]
    witness: Witness

    def __repr__(self) -> str:
        parts = (f"{f.name}={_sorted_repr(getattr(self, f.name))}" for f in fields(self))
        return f"SimplificationStep({', '.join(parts)})"


def _sorted_repr(value) -> str:
    """``repr`` of a value with each non-empty attribute set's members,
    in it or in a tuple, in sorted order."""
    if isinstance(value, tuple):
        return f"({', '.join(map(_sorted_repr, value))})"
    if isinstance(value, frozenset) and value:
        return f"frozenset({{{', '.join(map(repr, sorted(value)))}}})"
    return repr(value)


@dataclass(frozen=True, eq=False, repr=False)
class SimplificationTrace:
    """The full rewrite run: applied steps, final schema, and the verdict.

    ``_plan`` holds one ``(kind, witness, removed)`` per step, as masks
    over the input signature's positions: the witness is the S1
    attribute's bit, the S2 rhs or the S3 pair ``(X1, X2)``, and
    ``removed`` the positions the step removes. ``_fds`` is the FD set
    the rewrites stopped on, as masks over the same positions: empty
    exactly when the schema is tractable. ``steps`` and ``terminal``
    render the plan and ``_fds`` on first read. Two traces are equal
    when their signatures and normalized input FD sets are, and
    ``repr`` prints ``steps``, ``terminal`` and ``tractable``. A pickle
    holds ``_schema``, ``_plan`` and ``_fds`` only.
    """

    _schema: FdSchema
    _plan: tuple[tuple[str, Union[int, tuple[int, int]], int], ...]
    _fds: frozenset[MaskFd]

    @property
    def tractable(self) -> bool:
        return not self._fds

    @cached_property
    def terminal(self) -> FdSchema:
        """The schema the rewrites stopped on: the kept attributes and the
        stopped FD set."""
        signature = self._schema.signature
        attrs = signature.attributes
        # the steps remove disjoint sets of the input's positions
        kept = (1 << signature.arity) - 1 - sum(removed for _, _, removed in self._plan)
        return FdSchema(
            Signature(signature.relation, _names(attrs, kept)),
            [Fd(_names(attrs, lhs), _names(attrs, rhs)) for lhs, rhs in self._fds],
        )

    @cached_property
    def steps(self) -> tuple[SimplificationStep, ...]:
        """The plan's steps, their masks rendered as attribute names."""
        attrs = self._schema.signature.attributes
        return tuple(
            SimplificationStep(
                kind,
                frozenset(_names(attrs, removed)),
                _named_witness(attrs, kind, witness),
            )
            for kind, witness, removed in self._plan
        )

    @property
    def kinds(self) -> tuple[str, ...]:
        return tuple(kind for kind, _, _ in self._plan)

    @cached_property
    def _key(self) -> tuple:
        """The signature and the normalized input FD set: the plan, the
        verdict and the stopped FD set are functions of them."""
        return (self._schema.signature, frozenset(_normal_masks(self._schema)))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __getstate__(self) -> dict:
        # the cached views and the hash key are no part of the value
        return {"_schema": self._schema, "_plan": self._plan, "_fds": self._fds}

    def _render_fds(self) -> str:
        """``terminal.render_fds()``, rendered from the stopped FD set's masks."""
        return _render_fds(self._schema.signature.attributes, self._fds)

    def __repr__(self) -> str:
        relation = self._schema.signature.relation
        return (
            f"SimplificationTrace(steps={self.steps!r}, "
            f"terminal=FdSchema({relation}, [{self._render_fds()}]), "
            f"tractable={self.tractable!r})"
        )


def _normal_masks(schema: FdSchema) -> set[MaskFd]:
    """The schema's FDs as masks, each rhs without its lhs, none empty."""
    return {(lhs, rhs & ~lhs) for lhs, rhs in schema._masks if rhs & ~lhs}


def _named_witness(attrs: tuple[str, ...], kind: str, witness) -> Witness:
    """A rule's mask witness by attribute name: the S1 attribute, the S2
    FD with an empty lhs, or the S3 pair of lhs."""
    if kind == "S1":
        return _names(attrs, witness)[0]
    if kind == "S2":
        return Fd(frozenset(), _names(attrs, witness))
    return tuple(frozenset(_names(attrs, x)) for x in witness)


def _s1(fds: Collection[MaskFd]) -> Optional[int]:
    """S1's witness: the lowest position on every lhs, as its bit."""
    if not fds:
        return None
    shared = -1
    for lhs, _ in fds:
        shared &= lhs
    return shared & -shared or None


def _s2(fds: Collection[MaskFd]) -> Optional[int]:
    """S2's witness: the rhs of the first empty-lhs FD in canonical order."""
    found = [rhs for lhs, rhs in fds if not lhs]
    if len(found) > 1:
        return min(found, key=_positions)
    return found[0] if found else None


def _s3(fds: Collection[MaskFd]) -> Optional[tuple[int, int]]:
    """S3's witness: the first lhs marriage (X1, X2), distinct lhs in
    canonical order.

    X1 and X2 marry when every FD's lhs contains X1 or X2 and
    cl(X1) = cl(X2), that is X2 is in cl(X1) and X1 in cl(X2). Cheap
    tests run first: containment, then whether every attribute in one
    lhs but not the other is on some rhs (a closure adds nothing else).
    Each closure is computed at most once.
    """
    sites = {lhs for lhs, _ in fds}
    if len(sites) < 2:
        return None
    sites = sorted(sites, key=_positions)
    determined = 0
    for _, rhs in fds:
        determined |= rhs
    cl = _closures(fds)
    for i, x1 in enumerate(sites):
        for x2 in sites[i + 1 :]:
            for lhs in sites:
                if x1 & ~lhs and x2 & ~lhs:
                    break
            else:
                if (
                    not (x1 ^ x2) & ~determined
                    and not x2 & ~cl(x1)
                    and not x1 & ~cl(x2)
                ):
                    return (x1, x2)
    return None


def _find(schema: FdSchema, kind: str, rule: Callable) -> Optional[Witness]:
    """``rule``'s witness on the schema's FD masks, by attribute name."""
    witness = rule(schema._masks)
    attrs = schema.signature.attributes
    return None if witness is None else _named_witness(attrs, kind, witness)


def find_s1(schema: FdSchema) -> Optional[str]:
    """Attribute on every FD's lhs, lowest signature position first."""
    return _find(schema, "S1", _s1)


def find_s2(schema: FdSchema) -> Optional[Fd]:
    """First FD (canonical order) with an empty lhs, if any."""
    return _find(schema, "S2", _s2)


def find_s3(schema: FdSchema) -> Optional[tuple[frozenset[str], frozenset[str]]]:
    """First lhs marriage (X1, X2), distinct lhs in canonical FD order."""
    return _find(schema, "S3", _s3)


def classify(schema: FdSchema) -> SimplificationTrace:
    """Run the rewrite loop to completion and report tractability.

    Each step applies the first of S1, S2 and S3 that has a witness,
    and strictly removes at least one attribute, so the loop ends within
    arity steps. The schema is tractable exactly when the terminal FD
    set is empty.
    """
    fds = _normal_masks(schema)
    plan = []
    while fds:
        witness = _s1(fds)
        if witness is not None:
            kind, removed = "S1", witness
        elif (witness := _s2(fds)) is not None:
            kind, removed = "S2", witness
        elif (witness := _s3(fds)) is not None:
            kind, removed = "S3", witness[0] | witness[1]
        else:
            break
        assert removed, "a rewrite removes at least one attribute"
        plan.append((kind, witness, removed))
        kept = ~removed
        fds = {(lhs & kept, rhs & kept) for lhs, rhs in fds if rhs & kept}
    return SimplificationTrace(_schema=schema, _plan=tuple(plan), _fds=frozenset(fds))
