"""Unit-consistent completion of sparse positive tensors.

Ratings (or any strictly positive sparse tensor) are rescaled to a
canonical form in which every slice's known-entry product is 1; missing
entries then have exactly one value that preserves that form, and
transforming back yields predictions that scale with the data, preserve
unanimous rankings, and give every slice equal influence.
"""

from .canonical_scaling import (
    ConvergenceReport,
    ScalingFamily,
    ScalingState,
    apply_scaling,
    csa,
    csa_many,
    residual,
    sweep,
)
from .completion import (
    CompletionModel,
    complete_all,
    mca,
    predict,
    predict_many,
    tca,
)
from .errors import (
    CapacityError,
    ConvergenceError,
    DuplicateRecordError,
    IngestError,
    OrderingSpecError,
    ParseError,
    RecordError,
    UnknownIdError,
)
from .ingest import IdMap, Schema, parse_ratings, write_idmap, write_ratings
from .lcsp_oracle import (
    ConstraintSystem,
    build_constraints,
    gauge_check,
    oracle_complete,
    solve_lcsp,
)
from .properties import (
    OrderingSpec,
    PropertyReport,
    check_consensus_ordering,
    check_gauge_uniqueness,
    check_oracle_equivalence,
    check_scale_fairness,
    check_unit_consistency,
    find_consensus_sets,
)
from .sparse_tensor import SparseTensor, flat_index
from .support import SupportWitness, is_fully_supported, witness

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "CompletionModel",
    "ConstraintSystem",
    "ConvergenceError",
    "ConvergenceReport",
    "DuplicateRecordError",
    "IdMap",
    "IngestError",
    "OrderingSpec",
    "OrderingSpecError",
    "ParseError",
    "PropertyReport",
    "RecordError",
    "ScalingFamily",
    "ScalingState",
    "Schema",
    "SparseTensor",
    "SupportWitness",
    "UnknownIdError",
    "apply_scaling",
    "build_constraints",
    "check_consensus_ordering",
    "check_gauge_uniqueness",
    "check_oracle_equivalence",
    "check_scale_fairness",
    "check_unit_consistency",
    "complete_all",
    "csa",
    "csa_many",
    "find_consensus_sets",
    "flat_index",
    "gauge_check",
    "is_fully_supported",
    "mca",
    "oracle_complete",
    "parse_ratings",
    "predict",
    "predict_many",
    "residual",
    "solve_lcsp",
    "sweep",
    "tca",
    "witness",
    "write_idmap",
    "write_ratings",
]
