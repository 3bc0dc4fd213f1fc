import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from fdrepair.fds import Fd, FdSchema, Instance, Signature


def schema_of(attrs: str, *fd_specs: str, relation: str = "R") -> FdSchema:
    """Compact builder for single-letter-attribute schemas.

    schema_of("ABC", "AB->C", "C->B"); "->A" denotes an empty lhs.
    """
    sig = Signature(relation, tuple(attrs))
    fds = []
    for spec in fd_specs:
        lhs, rhs = spec.replace(" ", "").split("->")
        fds.append(Fd(frozenset(lhs), frozenset(rhs)))
    return FdSchema(sig, fds)


def inst_of(schema_or_sig, *rows) -> Instance:
    sig = getattr(schema_or_sig, "signature", schema_or_sig)
    return Instance(sig, [tuple(row) for row in rows])


@pytest.fixture
def worked_example() -> FdSchema:
    # six attributes, reduces to empty via one step of each rewrite kind
    return schema_of("ABCDEF", "->A", "DB->ACE", "DC->B", "DB->F")


@pytest.fixture
def gap_schema() -> FdSchema:
    # A determines B,C only through a chain of FDs: S3 must compare closures
    return schema_of("ABC", "A->B", "AB->C", "BC->A")
