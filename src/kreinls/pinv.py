"""Generalized inverses: {1,2}-inverses, the Krein Moore-Penrose inverse,
normal-projection inverse pairs, and the minimal-X#X solution of BX = C.

The central object is the factorization D = (I-P) Btilde Q: picking normal
projections Q onto R(B) and P onto N(B) yields a {1,2}-inverse with BD = Q
and DB = I-P, independent of the {1,2}-inverse Btilde used to build it.
Selfadjoint choices recover the Moore-Penrose inverse when it exists.
"""

import functools
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import (
    Operator,
    herm,
    hilbert_pinv,
    isotropic_part,
    krein_orthogonal,
    negligible,
    normal_equation,
    normal_equation_residual,
    normal_nullspace,
    nullspace_of,
    per_instance,
    pseudo_inverse,
    pseudo_inverse_factors,
    range_of,
    regular_part,
    same_space,
    subspace_from_spanning,
    zero_subspace,
)
from .errors import BadProjection
from .ils import (
    RANGE_NONNEGATIVE,
    RANGE_REGULAR,
    Problem,
    SolveReport,
    has_sign,
    krein_square,
    normal_equation_solution,
    solve_problem,
    value_spectrum,
)
from .projections import Projection, ProjectionKind, normal_projection, projection_kind


class GeneralizedInverseKind(str, Enum):
    MOORE_PENROSE = "MoorePenrose"
    NORMAL_PAIR = "NormalPair"
    ONE_TWO = "OneTwo"


@dataclass(frozen=True)
class GeneralizedInverse:
    d: Operator
    q: Projection
    p: Projection
    kind: GeneralizedInverseKind


one_two_inverse = pseudo_inverse  # the metric pseudoinverse, B's canonical {1,2}-inverse


def one_two_pair(b):
    """Wrap the canonical {1,2}-inverse with its projection pair.

    BD = BB+ and I - DB = I - B+B are the metric-orthogonal projections onto the kept
    range_of(b) and nullspace_of(b); in general they fail normality in the indefinite
    product, hence the OneTwo kind.
    """
    d = one_two_inverse(b)
    q, p = b @ d, b.space.eye() - d @ b
    q = Projection(q, range_of(b), projection_kind(q))
    p = Projection(p, nullspace_of(b), projection_kind(p))
    return GeneralizedInverse(d, q, p, GeneralizedInverseKind.ONE_TWO)


def _require_normal_onto(proj, target, label):
    """Validate Q (Projection, Operator or matrix) as normal by projection_kind, and as onto
    target by trace Q = dim T and QT - T negligible, T target's kept basis; Q onto target."""
    op = proj.op if isinstance(proj, Projection) else proj
    op = op if isinstance(op, Operator) else Operator(target.space, op)
    same_space(op, target)
    if (kind := projection_kind(op)) is ProjectionKind.OBLIQUE:
        raise BadProjection(f"{label} does not commute with its adjoint")
    q, t = op.matrix, target.basis
    if round(q.trace().real) != target.dim or not negligible(q @ t - t, (op, t), (t,)):
        raise BadProjection(f"{label} projects onto the wrong subspace")
    return Projection(op, target, kind)


def generalized_inverse(b, q, p):
    """D = (I-P) Btilde Q for validated normal projections Q, P.

    Solves the four-identity system BDB = B, DBD = D with BD and DB both
    normal; the factorization does not depend on which {1,2}-inverse
    Btilde is used. BD = Q and DB = I - P: D is the Moore-Penrose inverse iff
    both validated projections are selfadjoint.
    """
    q = _require_normal_onto(q, range_of(b), "Q")
    p = _require_normal_onto(p, nullspace_of(b), "P")
    return _pair_inverse(b, q, p)


def _pair_inverse(b, q, p):
    """generalized_inverse for projections Q, P this module built itself: no validation.

    With Btilde = L R_t (pseudo_inverse_factors), D = (L - P L)(R_t Q): rank r throughout."""
    left, right = pseudo_inverse_factors(b)
    d = Operator(b.space, (left - p.matrix @ left) @ (right @ q.matrix), _copy=False)
    selfadjoint = {q.kind, p.kind} == {ProjectionKind.SELFADJOINT}
    kinds = GeneralizedInverseKind
    return GeneralizedInverse(d, q, p, kinds.MOORE_PENROSE if selfadjoint else kinds.NORMAL_PAIR)


def rebuild_generalized_inverse(b, d):
    """Recover (Q, P) = (BD, I-DB) from a pair solution and rebuild D."""
    return generalized_inverse(b, (b @ d).matrix, (b.space.eye() - d @ b).matrix)


@per_instance
def canonical_pair(b):
    """Generalized inverse from the canonical normal projections; kept on B.

    Always defined in finite dimension; reduces to the Moore-Penrose
    inverse when R(B) and N(B) are regular, where the normal projections
    are the selfadjoint ones: their kinds are read off the kept classifications.
    """
    return _pair_inverse(b, normal_projection(range_of(b)), normal_projection(nullspace_of(b)))


def _moore_penrose_certificates(b, c, bdag, value, seed):
    """The four defining identities of B† = canonical_pair(b).d, the projection
    matches, and the uniqueness rebuild; the residual is identity_bdb."""
    sp = b.space
    pair = canonical_pair(b)
    q, p_prime = pair.q.op, sp.eye() - pair.p.op

    bd = b @ bdag
    db = bdag @ b
    certs = {
        "identity_bdb": (bd @ b - b).norm(),
        "identity_dbd": (db @ bdag - bdag).norm(),
        "selfadjoint_bd": (bd.adjoint() - bd).norm(),
        "selfadjoint_db": (db.adjoint() - db).norm(),
        "projection_q": (bd - q).norm(),
        "projection_p": (db - p_prime).norm(),
    }

    rng = np.random.default_rng(seed)
    n = sp.dim
    w = np.eye(n) + 0.25 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    other_metric = herm(w.conj().T @ sp.metric @ w)
    bt2 = Operator(sp, hilbert_pinv(sp, b.matrix, range_of(b).dim, metric=other_metric))
    bdag2 = p_prime @ bt2 @ q
    certs["uniqueness_rebuild_dev"] = (bdag2 - bdag).norm() / max(1.0, bdag.norm())
    return certs["identity_bdb"], certs


# regular R(B) and N(B): the canonical normal projections are selfadjoint, D is B†
MOORE_PENROSE = Problem(
    (
        RANGE_REGULAR,
        ("nullspace_regular", "NullspaceNotRegular", has_sign(nullspace_of, "regular")),
    ),
    lambda b, c: (canonical_pair(b).d, zero_subspace(b.space), None),
    _moore_penrose_certificates,
)


def krein_moore_penrose(b, seed=0):
    """B† = P' Btilde Q with selfadjoint Q onto R(B), P' = I - P onto N(B)^[⊥].

    Exists iff both R(B) and N(B) are regular. The report's certificates
    carry the four defining residuals, the projection matches, and a
    uniqueness check that rebuilds B† from a {1,2}-inverse taken in a
    randomly perturbed positive metric.
    """
    return solve_problem(MOORE_PENROSE, b, None, seed)


def reduced_generalized_inverse(b, q, p_prime):
    """D = (I-P') Btilde' Q#Q from the reduced operator B' = Q#B.

    Q must be normal onto R(B) and P' normal onto N(B#B); then B'DB' = B',
    DB'D = D and B'D = Q#Q.
    """
    q_op = _require_normal_onto(q, range_of(b), "Q").op
    p_op = _require_normal_onto(p_prime, normal_nullspace(b), "P'").op
    return _reduced_inverse(b, q_op, p_op)


def _reduced_inverse(b, q_op, p_op):
    """reduced_generalized_inverse for Q, P' this module built itself: no validation."""
    sp = b.space
    b_red = q_op.adjoint() @ b  # rank dim S_reg for any projection Q onto R(B): N(Q#) = R(B)^[⊥]
    bt = Operator(sp, hilbert_pinv(sp, b_red.matrix, regular_part(range_of(b)).dim))
    return (sp.eye() - p_op) @ bt @ (q_op.adjoint() @ q_op)


@per_instance
def _min_norm_inverse(b):
    """The reduced inverse D of solve_min_ims_norm, from the canonical normal projections."""
    q, p_prime = normal_projection(range_of(b)), normal_projection(normal_nullspace(b))
    return _reduced_inverse(b, q.op, p_prime.op)


@per_instance
def _min_norm_unreachable(b):
    """W* G for a metric-orthonormal basis W of T^[⊥], T = B(N(B#B)^[⊥]) + R(B)^[⊥].

    T^[⊥] = {y ∈ R(B) : B#y ∈ N(B#B)} = S_iso ⊕ {y ∈ S_reg : B#y ∈ iso N(B#B)},
    as B# kills S_iso and B#(R(B)) ∩ N(B#B) = iso N(B#B). Each w there is B#y
    for y = U_reg a, a = pinv* G w (G^-1 K* a = w); the dimension is stated.
    """
    eq = normal_equation(b)
    s_iso = isotropic_part(range_of(b)).basis
    w = isotropic_part(eq.nullspace).basis
    y = regular_part(range_of(b)).basis @ (eq.pinv.conj().T @ (b.space.gram @ w))
    # Y ⊆ S_reg is metric-orthogonal to S_iso, so the bases stack as they are
    basis = np.hstack([s_iso, subspace_from_spanning(b.space, y, rank=w.shape[1]).basis])
    return basis.conj().T @ b.space.gram


def _min_norm_answer(b, c):
    """X1 = (I - P')X0 for P' the normal projection onto N(B#B), its isotropic part, X1#X1."""
    null_bb = normal_nullspace(b)
    x1 = (b.space.eye() - normal_projection(null_bb).op) @ normal_equation_solution(b, c)
    return x1, isotropic_part(null_bb), functools.partial(krein_square, x1)


def _min_norm_certificates(b, c, x1, value, seed):
    """R(X1) ⊆ N(B#B)^[⊥], the value's spectrum and X1 = DC; the normal-equation residual."""
    return normal_equation_residual(b, x1, c), {
        "range_constraint": krein_orthogonal(normal_nullspace(b).frame, x1),
        "value_spectrum": value_spectrum(value()),
        "ims_consistency": (_min_norm_inverse(b) @ c - x1).norm() / max(1.0, x1.norm()),
    }


NULLSPACE_NONNEGATIVE = (
    "nullspace_nonnegative", "NullspaceNotNonnegative", has_sign(normal_nullspace, "nonnegative")
)
MIN_NORM = Problem(
    (
        RANGE_NONNEGATIVE,
        NULLSPACE_NONNEGATIVE,
        (
            "range_inclusion",
            "RangeInclusionFails",
            lambda b, c: krein_orthogonal(_min_norm_unreachable(b), c),
        ),
    ),
    _min_norm_answer,
    _min_norm_certificates,
)


def solve_min_ims_norm(b, c, seed=0):
    """Minimize X#X over the indefinite-least-squares solutions of BX = C.

    Solvable iff R(B) and N(B#B) are nonnegative and R(C) lies inside
    T = B(N(B#B)^[⊥]) + R(B)^[⊥], i.e. iff C is Krein-orthogonal to T^[⊥].
    The minimizer is X1 = (I-P')X0 for the normal-equation solution X0 and
    the canonical normal projection P' onto N(B#B); the ims_consistency
    certificate compares it with DC for the reduced generalized inverse D.
    """
    return solve_problem(MIN_NORM, b, c, seed)


def _variational_certificates(b, mp, mn, agree, solvable, seed):
    """The ladder's agreement and, when both problems are solvable, B† against the
    variational solution and against B†C for 10 random C; the residual is the
    first of these deviations."""
    certs = {"ladder_agrees": agree}
    if not solvable:
        return 0.0, certs
    sp = b.space
    bdag = mp.solution
    dev = (mn.solution - bdag).norm() / max(1.0, bdag.norm())
    certs["variational_equals_moore_penrose"] = dev
    certs["minimizer_unique"] = mn.manifold.perturbation_space.dim == 0
    rng = np.random.default_rng(seed)
    n = sp.dim
    worst = 0.0
    for _ in range(10):
        c = Operator(sp, rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        got = solve_min_ims_norm(b, c, seed=seed)
        ref = bdag @ c
        worst = max(worst, (got.solution - ref).norm() / max(1.0, ref.norm()))
    certs["random_rhs_max_dev"] = worst
    return dev, certs


def mp_variational_check(b, seed=0):
    """Audit the equivalence ladder behind the Moore-Penrose inverse.

    The three conditions (minimal-X#X problem solvable for C = I),
    (R(B) and N(B) uniformly positive), and (B† exists with R(B), N(B)
    nonnegative) must agree; when they all hold, the variational solution,
    B†, and B†C for random C are cross-checked for equality and uniqueness.
    """
    r_cls = range_of(b).classification
    n_cls = nullspace_of(b).classification
    mp = krein_moore_penrose(b, seed=seed)
    mn = solve_min_ims_norm(b, b.space.eye(), seed=seed)

    cond_min = mn.feasible
    cond_unif = r_cls.uniformly_positive and n_cls.uniformly_positive
    cond_mp = mp.feasible and r_cls.nonnegative and n_cls.nonnegative
    conditions = {
        "min_problem_solvable": cond_min,
        "subspaces_uniformly_positive": cond_unif,
        "moore_penrose_nonnegative": cond_mp,
    }
    agree = cond_min == cond_unif == cond_mp
    manifold = mp.manifold if mp.feasible else (mn.manifold if mn.feasible else None)
    reason = None if agree else "EquivalenceLadderBroken"
    certify = functools.partial(
        _variational_certificates, b, mp, mn, agree, cond_min and cond_mp, seed
    )
    return SolveReport(agree, reason, conditions, manifold, mn.evaluate, certify, seed)
