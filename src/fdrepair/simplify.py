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

No step builds a schema or sorts the whole FD set. The trace keeps the
*mask plan*, each step's kind, witness and removed positions over the
input signature, the verdict and the FD set it stopped on, as masks;
the repair engine and the CLI read column positions off the plan, and
the hardness witness reads the stopped FD set. ``steps``, ``terminal`` and
``normalized`` (the normalized input, step 0's ``schema_before``) are
built the first time they are read, as cached properties: the plan is
replayed with :func:`~fdrepair.fds.normalize` and
:func:`~fdrepair.fds.project`, each witness taken from the FDs of the
schema before its step. So they are the objects a step-by-step
projection builds, equal, with the same hash, ``repr`` and pickle, and a
caller that reads only the verdict or the plan builds none of them.
:func:`find_s1`, :func:`find_s2` and :func:`find_s3` apply the same mask
rules to one schema. Nothing is cached across calls.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property
from typing import Collection, Optional, Union

from .fds import Fd, FdSchema, MaskFd, _closures, _mask_fds, normalize, project

Witness = Union[str, Fd, tuple[frozenset[str], frozenset[str]]]


@dataclass(frozen=True, repr=False)
class SimplificationStep:
    """One applied rewrite: what was removed, and the schemas around it.

    ``repr`` is a dataclass's with each attribute set's members sorted,
    so it is the same under every hash seed.
    """

    kind: str
    removed_attributes: frozenset[str]
    witness: Witness
    schema_before: FdSchema
    schema_after: FdSchema

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
    exactly when the schema is tractable. ``steps``, ``terminal`` and
    ``normalized`` are built from the plan on first read. Equality,
    hashing and ``repr`` read ``(steps, terminal, tractable)``, as those
    of a dataclass of these three fields would.
    """

    tractable: bool
    _schema: FdSchema
    _plan: tuple[tuple[str, Union[int, tuple[int, int]], int], ...]
    _fds: frozenset[MaskFd]

    @cached_property
    def normalized(self) -> FdSchema:
        """The normalized input: step 0's ``schema_before``, or the
        terminal schema when no step applies."""
        return normalize(self._schema)

    @cached_property
    def terminal(self) -> FdSchema:
        return self.steps[-1].schema_after if self._plan else self.normalized

    @cached_property
    def steps(self) -> tuple[SimplificationStep, ...]:
        """The plan replayed on schemas, ``project`` removing each step's
        witness. A witness is read off the schema before its step: the S2
        FD and the S3 lhs are that schema's own objects (the first FD in
        canonical order that holds them), so every set iterates, prints
        and pickles as a step-by-step projection's does."""
        attrs = self._schema.signature.attributes
        steps = []
        before = self.normalized
        for kind, witness, _ in self._plan:
            if kind == "S1":
                witness = attrs[witness.bit_length() - 1]
                removed = frozenset([witness])
            elif kind == "S2":
                rhs = _attr_set(attrs, witness)
                witness = next(fd for fd in before.fds if not fd.lhs and fd.rhs == rhs)
                removed = witness.rhs
            else:
                sites: dict = {}
                for fd in before.fds:
                    sites.setdefault(fd.lhs, fd.lhs)
                witness = tuple(sites[_attr_set(attrs, lhs)] for lhs in witness)
                removed = witness[0] | witness[1]
            after = project(before, removed)
            steps.append(SimplificationStep(kind, removed, witness, before, after))
            before = after
        return tuple(steps)

    @property
    def removed_sets(self) -> tuple[frozenset[str], ...]:
        return tuple(step.removed_attributes for step in self.steps)

    @property
    def kinds(self) -> tuple[str, ...]:
        return tuple(kind for kind, _, _ in self._plan)

    def _fields(self) -> tuple:
        return (self.steps, self.terminal, self.tractable)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        return (
            f"SimplificationTrace(steps={self.steps!r}, "
            f"terminal={self.terminal!r}, tractable={self.tractable!r})"
        )


def _positions(mask: int) -> tuple[int, ...]:
    """The set bits of ``mask``, ascending: an attribute set's sort key in
    canonical FD order."""
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def _attr_set(attrs: tuple[str, ...], mask: int) -> frozenset[str]:
    return frozenset(a for i, a in enumerate(attrs) if mask >> i & 1)


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


def find_s1(schema: FdSchema) -> Optional[str]:
    """Attribute on every FD's lhs, lowest signature position first."""
    bit = _s1(_mask_fds(schema))
    return None if bit is None else schema.signature.attributes[bit.bit_length() - 1]


def find_s2(schema: FdSchema) -> Optional[Fd]:
    """First FD (canonical order) with an empty lhs, if any."""
    rhs = _s2(_mask_fds(schema))
    if rhs is None:
        return None
    return Fd(frozenset(), _attr_set(schema.signature.attributes, rhs))


def find_s3(
    schema: FdSchema,
) -> Optional[tuple[frozenset[str], frozenset[str]]]:
    """First lhs marriage (X1, X2), distinct lhs in canonical FD order."""
    pair = _s3(_mask_fds(schema))
    if pair is None:
        return None
    attrs = schema.signature.attributes
    return (_attr_set(attrs, pair[0]), _attr_set(attrs, pair[1]))


def classify(schema: FdSchema) -> SimplificationTrace:
    """Run the rewrite loop to completion and report tractability.

    Each step applies the first of S1, S2 and S3 that has a witness,
    and strictly removes at least one attribute, so the loop ends within
    arity steps. The schema is tractable exactly when the terminal FD
    set is empty.
    """
    fds = {(lhs, rhs & ~lhs) for lhs, rhs in _mask_fds(schema) if rhs & ~lhs}
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
    return SimplificationTrace(
        tractable=not fds, _schema=schema, _plan=tuple(plan), _fds=frozenset(fds)
    )
