"""Equivalence checking for semiring-weighted transition systems.

Strong, weak and delay weighted bisimilarity by partition refinement;
saturated weights are least solutions of linear equation systems over the
active semiring, solved by best-first search where the star is always the
unit and in closed form through star elimination elsewhere.
"""

from .semiring import (
    INF,
    NEG_INF,
    SEMIRING_NAMES,
    AxiomReport,
    Semiring,
    by_name,
    check_axioms,
)
from .wlts import (
    DocumentError,
    ParseError,
    Partition,
    SemanticError,
    WLTS,
    check_fully_probabilistic,
    check_reactive,
    load,
    serialize,
    to_dot,
)
from .solver import ConvergenceError, Saturator
from .bisim import (
    QuotientError,
    RefinementTrace,
    bisimilar,
    check_is_weak_bisimulation,
    emit_quotient,
    refine_partition,
    split_block_sorted,
)
from .oracle import (
    FinitePath,
    TraceSelector,
    TruncationError,
    brute_coarsest_partition,
    brute_weight,
    cones_nested_or_disjoint,
    enumerate_admissible,
    milner_weak_oracle,
    minimal_support,
)
from . import cli  # noqa: F401  (wbisim.cli stays reachable as an attribute)

__version__ = "0.1.0"

__all__ = [
    "INF",
    "NEG_INF",
    "SEMIRING_NAMES",
    "AxiomReport",
    "Semiring",
    "by_name",
    "check_axioms",
    "DocumentError",
    "ParseError",
    "Partition",
    "SemanticError",
    "WLTS",
    "check_fully_probabilistic",
    "check_reactive",
    "load",
    "serialize",
    "ConvergenceError",
    "Saturator",
    "RefinementTrace",
    "bisimilar",
    "check_is_weak_bisimulation",
    "refine_partition",
    "split_block_sorted",
    "FinitePath",
    "TraceSelector",
    "TruncationError",
    "brute_coarsest_partition",
    "brute_weight",
    "cones_nested_or_disjoint",
    "enumerate_admissible",
    "milner_weak_oracle",
    "minimal_support",
    "QuotientError",
    "emit_quotient",
    "to_dot",
]
