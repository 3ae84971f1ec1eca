"""Finite-dimensional Krein-space linear algebra.

Indefinite adjoints and subspace geometry, indefinite inverses, min/max and
min-max operator least squares, and Moore-Penrose / normal-projection
generalized inverses, with report-based solvers and independent
verification oracles.

The public names below load on first use (PEP 562): `import kreinls` imports
neither numpy nor any submodule, and `kreinls.solve_ims` imports `ils` then.
"""

import importlib

# module -> the public names it exports
_EXPORTS = {
    "core": """KreinSpace Operator Subspace SubspaceClass SubspaceKind Tolerances classify
        contains_columns decompose_subspace full_subspace isotropic_part
        make_space neutral_range nullspace_of orthogonal_companion principal_angles
        range_inclusion range_of solve_douglas subspace_equal subspace_from_spanning
        subspace_intersection subspace_sum subspace_within zero_subspace""",
    "errors": """BadProjection DimensionMismatch InfeasibleInstance KreinError NoFactorization
        NotComplementary NotHermitian NotRegular NotSelfadjoint ParseError SingularGram
        SpaceMismatch""",
    "ils": """SolutionManifold SolveReport indefinite_inverse indefinite_inverse_in_range
        regular_range_rank_check solve_imax solve_ims verify_ims""",
    "minmax": """OperatorSplit minmax_value_identity random_fundamental_symmetry solve_immso
        split_operator verify_immso""",
    "oracle": "Certificate certify_min hilbert_limit_check is_krein_positive",
    "pinv": """GeneralizedInverse GeneralizedInverseKind canonical_pair generalized_inverse
        krein_moore_penrose mp_variational_check one_two_inverse one_two_pair
        rebuild_generalized_inverse reduced_generalized_inverse solve_min_ims_norm""",
    "projections": """Projection ProjectionKind ando_split companion_identity_check
        normal_projection oblique_projection projection_from_matrix selfadjoint_projection""",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__version__ = "0.1.0"


def __getattr__(name):
    """Import the module that exports `name`; later lookups read the stored global."""
    if name not in _MODULE_OF:  # also a submodule not imported yet: `from kreinls import cli`
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(importlib.import_module("." + _MODULE_OF[name], __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_MODULE_OF})
