"""One digest of every closure system's outcome on up to four attributes.

For each family the lines are the ``repr`` of its trace, then, for a
hard family, its witness's case id and rules, and for a tractable
family ``find_crep``'s repair of one seeded instance, as its sorted
facts. The script prints the family counts and the SHA-256 of those
lines, so runs under two ``PYTHONHASHSEED`` values can be compared with
``cmp``:

    PYTHONHASHSEED=0 PYTHONPATH=src python tests/closure_digest.py > d0
    PYTHONHASHSEED=1 PYTHONPATH=src python tests/closure_digest.py > d1
    cmp d0 d1
"""

import hashlib
import random
from collections import Counter

from generators import random_instance
from test_closure_systems import basis, closure_systems

from fdrepair.fds import Signature
from fdrepair.gadgets import hard_case_witness
from fdrepair.repair import find_crep
from fdrepair.simplify import classify


def main() -> None:
    rng = random.Random(10)
    digest = hashlib.sha256()
    counts = Counter()
    for n in (3, 4):
        signature = Signature("R", tuple("ABCD"[:n]))
        for family in closure_systems(n):
            schema = basis(signature, family)
            digest.update(f"{classify(schema)!r}\n".encode())
            instance = random_instance(rng, signature, max_facts=10)
            result = find_crep(schema, instance)
            if result is None:
                case_id, reduction = hard_case_witness(schema)
                line = f"{family} hard {case_id} {reduction.rules!r}"
            else:
                line = f"{family} tractable {result.repair.sorted_facts!r}"
            counts[n, result is not None] += 1
            digest.update(line.encode() + b"\n")
    tally = " ".join(
        f"n={n}:{'tractable' if tractable else 'hard'}={count}"
        for (n, tractable), count in sorted(counts.items())
    )
    print(f"{tally} sha256={digest.hexdigest()}")


if __name__ == "__main__":
    main()
