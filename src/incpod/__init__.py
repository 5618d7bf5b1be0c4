"""Streaming POD/SVD in a weighted inner product with a running error bound.

The package updates the singular value decomposition of a growing snapshot
matrix one column at a time, with orthonormality measured in a symmetric
positive definite weight matrix (an FEM mass matrix in the shipped
FitzHugh-Nagumo pipeline). Two truncations keep the rank low; the scalar
``e`` carried by the state provably dominates the weighted operator-norm
distance between the true data matrix and the matrix the decomposition
represents. Exact-SVD oracles and singular value/vector perturbation
bounds are included for validation.
"""

from .errors import (
    AmbiguousAlignmentError,
    CorruptCheckpointError,
    CorruptStreamError,
    FormatError,
    IntegrationFailureError,
    InvalidInputError,
    NotPositiveDefiniteError,
    PreconditionViolationError,
    RankDeficientError,
)
from .fhn import (
    FhnParams,
    Mesh1D,
    SnapshotSet,
    assemble_fem,
    build_weight_matrix,
    simulate,
)
from .incremental import (
    SvdState,
    Tolerances,
    UpdateReport,
    flush,
    pod_output,
    reconstruct,
    run_stream,
    update,
)
from .oracle import ExactSvd, SweepRow, exact_error, exact_weighted_svd, tolerance_sweep
from .perturbation import (
    BoundSequence,
    align_singular_pair,
    bound_sequence,
    singular_value_gap_check,
    vector_bound_check,
)
from .weighted_linalg import (
    WeightMatrix,
    m_orthonormality_defect,
    modified_gram_schmidt_weighted,
    small_svd,
    weighted_operator_norm,
)

__version__ = "0.1.0"
