"""Every closure system on up to four attributes, checked exhaustively.

A verdict depends only on the closure system of the FD set, and there
are 61 closure systems (Moore families) on three attributes and 2,480
on four. So the whole space fits in the suite: each family is built as
an FD basis, classified under three equivalent spellings (each trace
equal to the projection loop's, and each hard spelling's witness to the
closure loop's) and under one seeded renaming of its attributes, and
then checked against ground truth: when it is hard, a verified
hardness witness for each spelling, and when it is tractable, the
brute-force oracle's repair size and the maximality of ``find_crep``'s
repair.
"""

import random
from collections import Counter

from generators import random_instance, redundant_basis
from oracles import classify_by_projection, witness_by_closures

from fdrepair.fds import Fd, FdSchema, Signature, equivalent, normalize
from fdrepair.gadgets import _witness, verify_reduction
from fdrepair.oracle import brute_force_crep, is_s_repair
from fdrepair.repair import find_crep
from fdrepair.simplify import classify


def closure_systems(n: int) -> list[tuple[int, ...]]:
    """Every family of subsets of ``n`` attributes (as bitmasks) that holds
    the full set and is closed under intersection, as sorted tuples."""
    full = (1 << n) - 1
    found = []
    for chosen in range(1 << full):
        members = [s for s in range(full) if chosen >> s & 1] + [full]
        present = set(members)
        if all(a & b in present for a in members for b in members if a < b):
            found.append(tuple(members))
    return found


def _attrs(signature: Signature, mask: int) -> frozenset:
    return frozenset(a for i, a in enumerate(signature.attributes) if mask >> i & 1)


def basis(signature: Signature, family: tuple[int, ...]) -> FdSchema:
    """The FDs ``X -> cl(X) \\ X`` over every attribute set X it moves."""
    fds = []
    for x in range(1 << signature.arity):
        closed = -1
        for member in family:
            if member & x == x:
                closed &= member
        if closed != x:
            fds.append(Fd(_attrs(signature, x), _attrs(signature, closed & ~x)))
    return FdSchema(signature, fds)


def permute(family: tuple[int, ...], order: list[int]) -> tuple[int, ...]:
    """The family with attribute ``i`` renamed to attribute ``order[i]``."""
    return tuple(
        sorted(
            sum(1 << order[i] for i in range(len(order)) if member >> i & 1)
            for member in family
        )
    )


def test_every_closure_system_on_up_to_four_attributes():
    rng = random.Random(61)
    renamings = random.Random(24)
    verdicts = {}
    cases = Counter()
    for n in (3, 4):
        signature = Signature("R", tuple("ABCD"[:n]))
        families = closure_systems(n)
        assert len(families) == {3: 61, 4: 2480}[n]
        enumerated = set(families)
        tally = Counter()
        for family in families:
            schema = basis(signature, family)
            redundant = redundant_basis(rng, schema)
            assert equivalent(redundant, schema)
            trace = classify(schema)
            witnesses = []
            for spelling in (schema, normalize(schema), redundant):
                # the mask classifier's trace is the projection loop's
                expected = classify_by_projection(spelling)
                assert expected[2] == trace.tractable, family
                spelled = trace if spelling is schema else classify(spelling)
                assert (spelled.steps, spelled.terminal, spelled.tractable) == expected
                if not trace.tractable:
                    # and so is the witness: case id, source, target and rules
                    witness = _witness(spelled)
                    assert witness == witness_by_closures(spelling, expected[1]), family
                    witnesses.append(witness)
            if n == 4:
                # renaming the attributes keeps the verdict
                permuted = permute(family, renamings.sample(range(n), n))
                assert permuted in enumerated
                assert classify(basis(signature, permuted)).tractable == trace.tractable
            tally[trace.tractable] += 1
            if not trace.tractable:
                # each spelling's witness targets that spelling as given,
                # and every one of them checks the same
                reports = [verify_reduction(reduction) for _, reduction in witnesses]
                assert all(report.ok for report in reports), family
                assert len({(r.pairs_checked, r.violations) for r in reports}) == 1
                cases[n, witnesses[0][0]] += 1
                continue
            for _ in range(2):
                inst = random_instance(rng, signature, max_facts=10)
                result = find_crep(schema, inst)
                assert result.size == brute_force_crep(schema, inst).size, family
                assert is_s_repair(schema, inst, result.repair), family
        verdicts[n] = (tally[True], tally[False])
    # pinned: a change that moves a count must say why
    assert verdicts == {3: (41, 20), 4: (331, 2149)}
    assert cases == {
        (3, 2): 3, (3, 3): 7, (3, 4): 4, (3, 5): 6,
        (4, 1): 72, (4, 2): 403, (4, 3): 616, (4, 4): 558, (4, 5): 500,
    }
