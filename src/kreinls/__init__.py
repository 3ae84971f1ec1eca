"""Finite-dimensional Krein-space linear algebra.

Indefinite adjoints and subspace geometry, indefinite inverses, min/max and
min-max operator least squares, and Moore-Penrose / normal-projection
generalized inverses, with report-based solvers and independent
verification oracles.
"""

from .core import (
    KreinSpace,
    Operator,
    Subspace,
    SubspaceClass,
    SubspaceKind,
    Tolerances,
    adjoint,
    classify,
    contains_columns,
    decompose_subspace,
    full_subspace,
    indefinite_inner,
    isotropic_part,
    make_space,
    neutral_range,
    nullspace_of,
    orthogonal_companion,
    principal_angles,
    range_inclusion,
    range_of,
    solve_douglas,
    subspace_equal,
    subspace_from_spanning,
    subspace_intersection,
    subspace_sum,
    subspace_within,
    zero_subspace,
)
from .errors import (
    BadProjection,
    DimensionMismatch,
    InfeasibleInstance,
    KreinError,
    NoFactorization,
    NotComplementary,
    NotHermitian,
    NotRegular,
    NotSelfadjoint,
    ParseError,
    SingularGram,
    SpaceMismatch,
)
from .ils import (
    SolutionManifold,
    SolveReport,
    has_indefinite_inverse,
    indefinite_inverse,
    indefinite_inverse_in_range,
    regular_range_rank_check,
    solve_imax,
    solve_ims,
    verify_ims,
)
from .minmax import (
    OperatorSplit,
    minmax_value_identity,
    random_fundamental_symmetry,
    solve_immso,
    split_operator,
    verify_immso,
)
from .oracle import (
    Certificate,
    certify_min,
    hilbert_limit_check,
    is_krein_positive,
    operator_leq,
)
from .pinv import (
    GeneralizedInverse,
    GeneralizedInverseKind,
    canonical_pair,
    generalized_inverse,
    krein_moore_penrose,
    mp_variational_check,
    one_two_inverse,
    one_two_pair,
    rebuild_generalized_inverse,
    reduced_generalized_inverse,
    solve_min_ims_norm,
)
from .projections import (
    Projection,
    ProjectionKind,
    ando_split,
    companion_identity_check,
    normal_projection,
    oblique_projection,
    projection_from_matrix,
    selfadjoint_projection,
)

__version__ = "0.1.0"
