"""Cardinality repairs for tables constrained by functional dependencies.

Given a relation schema with FDs, :func:`classify` decides whether an
exact maximum consistent subset (a cardinality repair) is computable in
polynomial time, and :func:`find_crep` computes one when it is. Small
instances of any schema can be repaired exactly with the brute-force
:mod:`fdrepair.oracle`; :mod:`fdrepair.gadgets` builds the hardness-side
artifacts (SAT and triangle-packing instances, fact-wise reductions).
"""

from .fds import (
    DOT,
    ClosureResult,
    Fd,
    FdSchema,
    Instance,
    SchemaError,
    Signature,
    closure,
    entails,
    equivalent,
    is_consistent,
    normalize,
    pair_consistent,
)
from .gadgets import (
    CnfFormula,
    FactWiseReduction,
    TripartiteGraph,
    hard_case_witness,
    verify_reduction,
)
from .oracle import brute_force_crep, is_s_repair
from .repair import (
    BipartiteMatchProblem,
    RepairResult,
    find_crep,
    max_weight_matching,
)
from .simplify import SimplificationStep, SimplificationTrace, classify

__version__ = "0.1.0"

__all__ = [
    "DOT",
    "BipartiteMatchProblem",
    "ClosureResult",
    "CnfFormula",
    "FactWiseReduction",
    "Fd",
    "FdSchema",
    "Instance",
    "RepairResult",
    "SchemaError",
    "Signature",
    "SimplificationStep",
    "SimplificationTrace",
    "TripartiteGraph",
    "brute_force_crep",
    "classify",
    "closure",
    "entails",
    "equivalent",
    "find_crep",
    "hard_case_witness",
    "is_consistent",
    "is_s_repair",
    "max_weight_matching",
    "normalize",
    "pair_consistent",
    "verify_reduction",
    "__version__",
]
