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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .fds import Fd, FdSchema, closure, normalize, project

Witness = Union[str, Fd, tuple[frozenset[str], frozenset[str]]]


@dataclass(frozen=True)
class SimplificationStep:
    """One applied rewrite: what was removed, and the schemas around it."""

    kind: str
    removed_attributes: frozenset[str]
    witness: Witness
    schema_before: FdSchema
    schema_after: FdSchema


@dataclass(frozen=True)
class SimplificationTrace:
    """The full rewrite run: applied steps, final schema, and the verdict."""

    steps: tuple[SimplificationStep, ...]
    terminal: FdSchema
    tractable: bool

    @property
    def removed_sets(self) -> tuple[frozenset[str], ...]:
        return tuple(step.removed_attributes for step in self.steps)

    @property
    def kinds(self) -> tuple[str, ...]:
        return tuple(step.kind for step in self.steps)


def find_s1(schema: FdSchema) -> Optional[str]:
    """Attribute on every FD's lhs, lowest signature position first."""
    if not schema.fds:
        return None
    shared = frozenset.intersection(*(fd.lhs for fd in schema.fds))
    for attr in schema.signature.attributes:
        if attr in shared:
            return attr
    return None


def find_s2(schema: FdSchema) -> Optional[Fd]:
    """First FD (canonical order) with an empty lhs, if any."""
    for fd in schema.fds:
        if not fd.lhs:
            return fd
    return None


def find_s3(
    schema: FdSchema,
) -> Optional[tuple[frozenset[str], frozenset[str]]]:
    """First lhs marriage (X1, X2), distinct lhs in canonical FD order.

    X1 and X2 marry when every FD's lhs contains X1 or X2 and
    cl(X1) = cl(X2), that is X2 is in cl(X1) and X1 in cl(X2). Cheap
    tests run first: containment, then whether every attribute in one
    lhs but not the other is on some rhs (a closure adds nothing else).
    Each closure is computed at most once.
    """
    sites = list(dict.fromkeys([fd.lhs for fd in schema.fds]))
    determined = frozenset().union(*[fd.rhs for fd in schema.fds])
    closures: dict[frozenset[str], frozenset[str]] = {}

    def cl(lhs: frozenset[str]) -> frozenset[str]:
        if lhs not in closures:
            closures[lhs] = closure(schema, lhs).closure
        return closures[lhs]

    for i, x1 in enumerate(sites):
        for x2 in sites[i + 1 :]:
            for lhs in sites:
                if not (x1 <= lhs or x2 <= lhs):
                    break
            else:
                if x1 ^ x2 <= determined and x2 <= cl(x1) and x1 <= cl(x2):
                    return (x1, x2)
    return None


# kind -> (finder, attributes its witness removes), in the order that
# classify tries them
_RULES = {
    "S1": (find_s1, lambda attr: frozenset([attr])),
    "S2": (find_s2, lambda fd: fd.rhs),
    "S3": (find_s3, lambda pair: pair[0] | pair[1]),
}


def _step(before: FdSchema, kind: str, witness: Witness) -> SimplificationStep:
    removed = _RULES[kind][1](witness)
    return SimplificationStep(
        kind=kind,
        removed_attributes=removed,
        witness=witness,
        schema_before=before,
        schema_after=project(before, removed),
    )


def classify(schema: FdSchema) -> SimplificationTrace:
    """Run the rewrite loop to completion and report tractability.

    Each step applies the first rule in ``_RULES`` order that has a
    witness, and strictly removes at least one attribute, so the loop
    ends within arity steps. The schema is tractable exactly when the
    terminal FD set is empty.
    """
    current = normalize(schema)
    steps: list[SimplificationStep] = []
    while current.fds:
        for kind, (find, _) in _RULES.items():
            witness = find(current)
            if witness is not None:
                break
        else:
            break
        step = _step(current, kind, witness)
        assert step.schema_after.signature.arity < current.signature.arity
        steps.append(step)
        current = step.schema_after
    return SimplificationTrace(
        steps=tuple(steps), terminal=current, tractable=not current.fds
    )
