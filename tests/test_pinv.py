"""Generalized inverses: {1,2}-pairs, Moore-Penrose, reduced form, min norm."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

import kreinls as k
from conftest import (
    SIGNATURES,
    gaussian,
    make_signature_space,
    operator_with_range_and_kernel,
    random_subspace,
)
from kreinls.ils import normal_equation_solution
from kreinls.pinv import _require_normal_onto

B1 = np.diag([1.0, 0.0])
B3 = np.array([[1.0, 1.0], [0.0, 0.0]])
P_NEUTRAL = 0.5 * np.array([[1.0, -1.0], [-1.0, 1.0]])


# ---------------------------------------------------------------------------
# {1,2}-inverse
# ---------------------------------------------------------------------------

def test_one_two_inverse_fixture(m2):
    bt = k.one_two_inverse(m2.operator(B3))
    assert_allclose(bt.matrix, 0.5 * np.array([[1.0, 0.0], [1.0, 0.0]]), atol=1e-12)
    assert k.one_two_inverse(m2.zero()).norm() == 0.0


def test_one_two_pair(m2):
    pair = k.one_two_pair(m2.operator(B3))
    assert pair.kind is k.GeneralizedInverseKind.ONE_TWO
    b = m2.operator(B3)
    assert (b @ pair.d @ b - b).norm() < 1e-12
    assert (pair.d @ b @ pair.d - pair.d).norm() < 1e-12


# ---------------------------------------------------------------------------
# Moore-Penrose
# ---------------------------------------------------------------------------

def test_moore_penrose_fixture(m2):
    rep = k.krein_moore_penrose(m2.operator(B1))
    assert rep.feasible
    assert rep.conditions == {"range_regular": True, "nullspace_regular": True}
    assert_allclose(rep.solution.matrix, np.diag([1.0, 0.0]), atol=1e-12)
    for key in ("identity_bdb", "identity_dbd", "selfadjoint_bd", "selfadjoint_db"):
        assert rep.certificates[key] < 1e-12
    assert rep.certificates["uniqueness_rebuild_dev"] < 1e-10


def test_moore_penrose_neutral_nullspace(m2):
    rep = k.krein_moore_penrose(m2.operator(B3))
    assert not rep.feasible
    assert rep.reason == "NullspaceNotRegular"
    assert rep.conditions == {"range_regular": True, "nullspace_regular": False}


def test_moore_penrose_joint_reason(m2):
    b = m2.operator([[1.0, -1.0], [1.0, -1.0]])
    rep = k.krein_moore_penrose(b)
    assert rep.reason == "RangeNotRegular+NullspaceNotRegular"


def test_moore_penrose_hilbert_case_matches_classical():
    space = k.make_space(np.eye(4))
    rng = np.random.default_rng(12)
    for trial in range(25):
        mat = gaussian(rng, (4, 4))
        if trial % 3 == 0:
            mat[:, 0] = mat[:, 1]  # force rank deficiency
        rep = k.krein_moore_penrose(space.operator(mat))
        assert rep.feasible
        assert_allclose(rep.solution.matrix, np.linalg.pinv(mat), atol=1e-10)


# ---------------------------------------------------------------------------
# generalized (normal-pair) inverse
# ---------------------------------------------------------------------------

def test_generalized_inverse_fixture(m2):
    b = m2.operator(B3)
    gi = k.generalized_inverse(b, np.diag([1.0, 0.0]), P_NEUTRAL)
    assert gi.kind is k.GeneralizedInverseKind.NORMAL_PAIR
    assert_allclose(gi.d.matrix, [[0.5, 0.0], [0.5, 0.0]], atol=1e-12)
    assert_allclose((b @ gi.d).matrix, np.diag([1.0, 0.0]), atol=1e-12)
    assert_allclose((gi.d @ b).matrix, 0.5 * np.ones((2, 2)), atol=1e-12)
    assert (b @ gi.d @ b - b).norm() < 1e-12
    assert (gi.d @ b @ gi.d - gi.d).norm() < 1e-12


def test_generalized_inverse_identity(m2):
    gi = k.generalized_inverse(m2.eye(), m2.eye(), m2.zero())
    assert_allclose(gi.d.matrix, np.eye(2), atol=1e-14)
    assert gi.kind is k.GeneralizedInverseKind.MOORE_PENROSE


def test_generalized_inverse_rejects_bad_projections(m2):
    b = m2.operator(B3)
    with pytest.raises(k.BadProjection, match="Q projects onto the wrong subspace"):
        k.generalized_inverse(b, np.diag([0.0, 1.0]), P_NEUTRAL)
    with pytest.raises(k.BadProjection, match="not idempotent"):
        k.generalized_inverse(b, 2 * np.diag([1.0, 0.0]), P_NEUTRAL)
    # oblique onto N(B): idempotent with the right range but not normal
    oblique = np.array([[0.0, 1.0], [0.0, 1.0]])  # onto span((1,1)) along e1
    with pytest.raises(k.BadProjection, match="P does not commute with its adjoint"):
        k.generalized_inverse(m2.operator([[1.0, -1.0], [0.0, 0.0]]), np.diag([1.0, 0.0]), oblique)
    # hand-built Projection objects are validated by their matrices: the stated
    # range and kind are right, the operators are not
    onto_range = k.range_of(b)
    bad_q = [
        k.Projection(m2.operator(2 * np.diag([1.0, 0.0])), onto_range, k.ProjectionKind.SELFADJOINT),
        # onto span(e1) along span((1, -1)): idempotent but not normal
        k.Projection(m2.operator([[1.0, 1.0], [0.0, 0.0]]), onto_range, k.ProjectionKind.NORMAL),
    ]
    p_ok = k.normal_projection(k.nullspace_of(b))  # N(B) = N(B#B) for this B
    for q in bad_q:
        with pytest.raises(k.BadProjection):
            k.generalized_inverse(b, q, p_ok)
        with pytest.raises(k.BadProjection):
            k.reduced_generalized_inverse(b, q, p_ok)


@pytest.mark.parametrize(
    "delta, num, onto",
    [(1e-12, None, True), (1e-9, None, False), (1e-9, 1e-6, True), (1e-5, 1e-6, False)],
)
def test_onto_is_decided_at_the_residual_tolerance(delta, num, onto):
    """Q, the selfadjoint projection onto span(e1 + delta e2), projects onto R(B) = span(e1)
    iff QT - T is negligible at tol.num: about delta against 2 tol.num. The principal-angle
    rule accepted every delta up to ANGLE_TOL = 1e-8 whatever the tolerances."""
    tol = k.Tolerances() if num is None else k.Tolerances(num=num)
    sp = k.make_space(np.diag([1.0, 1.0, -1.0, -1.0]), tol)
    b = sp.operator(np.diag([1.0, 0.0, 0.0, 0.0]))
    v = np.array([1.0, delta, 0.0, 0.0])
    q, p = np.outer(v, v) / (v @ v), np.diag([0.0, 1.0, 1.0, 1.0])
    if not onto:
        with pytest.raises(k.BadProjection, match="Q projects onto the wrong subspace"):
            k.generalized_inverse(b, q, p)
        return
    gi = k.generalized_inverse(b, q, p)
    assert gi.kind is k.GeneralizedInverseKind.MOORE_PENROSE
    assert gi.q.range_sub is k.range_of(b)


@pytest.mark.parametrize("name", ["b3", "b1", "diag4", "invertible"])
def test_validated_projections_carry_the_kept_subspaces(name, m2, m4):
    """Q, P and P' validated, and the pair one_two_pair wraps, project onto the kept range,
    null space and N(B#B) themselves, each with its kept eigh: nothing is re-spanned."""
    sp, mat = {
        "b3": (m2, B3),
        "b1": (m2, B1),
        "diag4": (m4, np.diag([1.0, 2.0, 0.0, 0.0])),
        "invertible": (m2, np.array([[2.0, 1.0], [0.0, 1.0]])),
    }[name]
    b = sp.operator(mat)
    gi = k.canonical_pair(b)
    for pair in (k.generalized_inverse(b, gi.q.matrix, gi.p.matrix), k.one_two_pair(b)):
        assert pair.q.range_sub is k.range_of(b)
        assert pair.p.range_sub is k.nullspace_of(b)
    null_bb = k.core.normal_nullspace(b)
    p_prime = k.normal_projection(null_bb).matrix
    assert _require_normal_onto(p_prime, null_bb, "P'").range_sub is null_bb


def test_rebuild_round_trip(m2, m4):
    cases = [
        (m2, B3),
        (m2, B1),
        (m4, np.diag([1.0, 2.0, 0.0, 0.0])),
        # invertible: I - DB is a formed zero matrix, pure roundoff
        (m2, np.array([[2.0, 1.0], [0.0, 1.0]])),
    ]
    for sp, mat in cases:
        b = sp.operator(mat)
        gi = k.canonical_pair(b)
        back = k.rebuild_generalized_inverse(b, gi.d)
        assert (back.d - gi.d).norm() <= 1e-9 * max(1.0, gi.d.norm())
        assert back.kind == gi.kind


def test_canonical_pair_with_selfadjoint_projections_is_mp(m2):
    b = m2.operator(B1)
    gi = k.canonical_pair(b)
    assert gi.kind is k.GeneralizedInverseKind.MOORE_PENROSE
    assert_allclose(gi.d.matrix, np.diag([1.0, 0.0]), atol=1e-12)


def test_canonical_pair_random_identities(m4):
    rng = np.random.default_rng(19)
    for _ in range(10):
        r_sub = random_subspace(m4, rng, n_pos=1, n_neg=0, n_neutral=1)
        b = m4.operator(r_sub.basis @ gaussian(rng, (2, 4)))
        gi = k.canonical_pair(b)
        scale = max(1.0, b.norm() * gi.d.norm()) * max(1.0, b.norm())
        assert (b @ gi.d @ b - b).norm() <= 1e-9 * scale
        assert (gi.d @ b @ gi.d - gi.d).norm() <= 1e-9 * scale
        bd = b @ gi.d
        db = gi.d @ b
        assert (bd @ bd.adjoint() - bd.adjoint() @ bd).norm() <= 1e-9 * scale
        assert (db @ db.adjoint() - db.adjoint() @ db).norm() <= 1e-9 * scale


# ---------------------------------------------------------------------------
# reduced generalized inverse
# ---------------------------------------------------------------------------

def test_reduced_fixture(m2):
    b = m2.operator(B3)
    d = k.reduced_generalized_inverse(b, np.diag([1.0, 0.0]), P_NEUTRAL)
    assert_allclose(d.matrix, [[0.5, 0.0], [0.5, 0.0]], atol=1e-12)


def test_reduced_identities(m2):
    b = m2.operator(B3)
    q = k.normal_projection(k.range_of(b))
    p_prime = k.normal_projection(k.nullspace_of(b.adjoint() @ b))
    d = k.reduced_generalized_inverse(b, q, p_prime)
    b_red = q.op.adjoint() @ b
    assert (b_red @ d @ b_red - b_red).norm() < 1e-10
    assert (d @ b_red @ d - d).norm() < 1e-10
    assert (b_red @ d - q.op.adjoint() @ q.op).norm() < 1e-10


def test_reduced_zero_operator(m2):
    d = k.reduced_generalized_inverse(m2.zero(), m2.zero(), m2.eye())
    assert d.norm() == 0.0


# ---------------------------------------------------------------------------
# minimum-norm minimizer
# ---------------------------------------------------------------------------

def test_min_norm_hilbert_fixture(h2):
    b = h2.operator(B1)
    rep = k.solve_min_ims_norm(b, h2.eye())
    assert rep.feasible
    assert_allclose(rep.solution.matrix, np.diag([1.0, 0.0]), atol=1e-12)
    assert rep.certificates["range_constraint"]
    assert rep.certificates["ims_consistency"] < 1e-10
    # any other minimizer has X#X at least as large (here: Frobenius norm)
    competitor = h2.operator([[1.0, 0.0], [0.0, 1.0]])
    diff = competitor.adjoint() @ competitor - rep.value
    assert k.is_krein_positive(diff).verdict


def test_min_norm_neutral_nullspace_rejected(m2):
    rep = k.solve_min_ims_norm(m2.operator(B1), m2.eye())
    assert not rep.feasible
    assert rep.reason == "NullspaceNotNonnegative"


def test_min_norm_negative_range_rejected(m2):
    rep = k.solve_min_ims_norm(m2.operator(np.diag([0.0, 1.0])), m2.eye())
    assert rep.reason.startswith("RangeNotNonnegative")


def test_min_norm_zero_rhs(h2):
    rep = k.solve_min_ims_norm(h2.operator(B1), h2.zero())
    assert rep.feasible
    assert rep.solution.norm() < 1e-12
    assert rep.value.norm() < 1e-12


def test_min_norm_isotropic_manifold(m2):
    b = m2.operator(B3)
    c = m2.operator(np.diag([0.0, 1.0]))
    rep = k.solve_min_ims_norm(b, c)
    assert rep.feasible
    assert rep.solution.norm() < 1e-10
    null_bb = k.nullspace_of(b.adjoint() @ b)
    assert k.subspace_equal(rep.manifold.perturbation_space, k.isotropic_part(null_bb))
    # every manifold member attains the common value
    rng = np.random.default_rng(5)
    for _ in range(5):
        x = rep.manifold.sample(rng)
        assert (x.adjoint() @ x - rep.value).norm() < 1e-10 * max(1.0, x.norm()) ** 2


def test_min_norm_beats_sampled_minimizers(h2):
    rng = np.random.default_rng(29)
    b = h2.operator(B1)
    c = h2.operator(gaussian(rng, (2, 2)))
    rep = k.solve_min_ims_norm(b, c)
    assert rep.feasible
    ims = k.solve_ims(b, c)
    for _ in range(25):
        y = ims.manifold.sample(rng)
        diff = y.adjoint() @ y - rep.value
        eigs = np.linalg.eigvalsh(0.5 * ((h2.gram @ diff.matrix) + (h2.gram @ diff.matrix).conj().T))
        assert eigs.min() > -1e-9 * max(1.0, y.norm()) ** 2


def _degenerate_normal_nullspace_draws(count):
    """(B, N, C reachable, C Gaussian): R(B) regular, N = N(B) = N(B#B) nonnegative degenerate.

    A reachable C is B·(a part in N^[⊥]) + (a part in R(B)^[⊥]).  The spaces
    decide ranks at 1e-12.  At a cutoff of dim * eps * s_1 alone, a roundoff
    singular value of the formed R B R^-1 survived on draws 0, 80 and 200 of
    these 300 and R(B) came out one too large; the default cutoff's floor
    kappa * ||B|| removes it (test_normal_equation_at_the_default_cutoff).
    """
    rng = np.random.default_rng(71)
    tol = k.Tolerances(rank=1e-12)
    spaces = [
        k.make_space(make_signature_space(p, q, seed=11 + p + 2 * q).gram, tol)
        for p, q in SIGNATURES
    ]
    shapes = []
    for sp in spaces:
        p, q = sp.signature
        for t in range(1, min(p, q) + 1):
            for a in range(p - t + 1):
                rest = sp.dim - a - t  # dim R(B)
                for rp in range(max(0, rest - q), min(p, rest) + 1):
                    if rest:
                        shapes.append((sp, (a, 0, t), (rp, rest - rp, 0)))
    for i in range(count):
        sp, n_in, r_in = shapes[i % len(shapes)]
        n_sub = random_subspace(sp, rng, *n_in)
        r_sub = random_subspace(sp, rng, *r_in)
        b = operator_with_range_and_kernel(sp, r_sub, n_sub, rng)
        n = sp.dim
        free = k.orthogonal_companion(n_sub).basis
        comp = k.orthogonal_companion(k.range_of(b)).basis
        reach = b.matrix @ free @ gaussian(rng, (free.shape[1], n))
        reach = reach + comp @ gaussian(rng, (comp.shape[1], n))
        yield b, n_sub, reach, gaussian(rng, (n, n))


def test_min_norm_inclusion_with_degenerate_normal_nullspace():
    """R(C) ⊆ B(N(B#B)^[⊥]) + R(B)^[⊥] is decided against the construction."""
    for b, _, reach, unreachable in _degenerate_normal_nullspace_draws(300):
        sp = b.space
        for c, want in ((reach, True), (unreachable, False)):
            for bs, cs in ((1.0, 1.0), (1.0, 1e100), (1e-100, 1.0)):
                rep = k.solve_min_ims_norm(sp.operator(bs * b.matrix), sp.operator(cs * c))
                assert rep.conditions["range_inclusion"] == want, (bs, cs)


def test_normal_equation_at_the_default_cutoff():
    """N(B#B) = N(B) and X0 solves the normal equation on all 300 draws above at the default cutoff.

    Were R(B) to come out regular and one too large, K = U_reg* G B would keep
    a singular value of roundoff size and X0 would be that roundoff inverted.
    """
    wrong = []
    for index, (b, n_sub, reach, _) in enumerate(_degenerate_normal_nullspace_draws(300)):
        sp = k.make_space(b.space.gram)
        b, c = sp.operator(b.matrix), sp.operator(reach)
        residual = (b.adjoint() @ (b @ normal_equation_solution(b, c) - c)).norm()
        if (
            k.core.normal_nullspace(b).dim != n_sub.dim
            or residual > sp.tol.num * max(1.0, b.norm() * c.norm())
        ):
            wrong.append(index)
    assert not wrong, wrong


# ---------------------------------------------------------------------------
# variational audit
# ---------------------------------------------------------------------------

def test_variational_audit_hilbert(h2):
    rep = k.mp_variational_check(h2.operator(B1))
    assert rep.feasible
    assert all(rep.conditions.values())
    assert rep.certificates["variational_equals_moore_penrose"] < 1e-10
    assert rep.certificates["minimizer_unique"]
    assert rep.certificates["random_rhs_max_dev"] < 1e-9


def test_variational_audit_indefinite_agrees_negative(m2):
    for mat in (B1, np.array([[1.0, 0.0], [1.0, 0.0]])):
        rep = k.mp_variational_check(m2.operator(mat))
        assert rep.feasible  # the three conditions agree (all false)
        assert not any(rep.conditions.values())
        assert rep.reason is None


def test_variational_audit_krein_positive_case(m4):
    rng = np.random.default_rng(47)
    r_sub = k.subspace_from_spanning(m4, np.eye(4)[:, :2])
    graph = np.array(
        [[1.0, 0.0], [0.0, 1.0], [0.4, 0.0], [0.0, -0.3]]
    )
    n_sub = k.subspace_from_spanning(m4, graph)
    assert n_sub.classification.uniformly_positive
    b = operator_with_range_and_kernel(m4, r_sub, n_sub, rng)
    rep = k.mp_variational_check(b)
    assert rep.feasible
    assert all(rep.conditions.values())
    assert rep.certificates["variational_equals_moore_penrose"] < 1e-8
    assert rep.certificates["random_rhs_max_dev"] < 1e-8
