"""Selfadjoint, oblique, Ando-split and normal projections."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import kreinls as k
from conftest import (
    SIGNATURES,
    degenerate_choices,
    gaussian,
    make_signature_space,
    random_subspace,
)
from kreinls.core import isotropic_part, nullspace_matrix, regular_part
from test_analysis import _count_factorizations


def test_selfadjoint_fixture(m2):
    s = k.subspace_from_spanning(m2, np.array([[1.0], [0.0]]))
    q = k.selfadjoint_projection(s)
    assert q.kind is k.ProjectionKind.SELFADJOINT
    assert_allclose(q.matrix, np.diag([1.0, 0.0]), atol=1e-14)


def test_selfadjoint_requires_regular(m2):
    neutral = k.subspace_from_spanning(m2, np.array([[1.0], [1.0]]))
    with pytest.raises(k.NotRegular):
        k.selfadjoint_projection(neutral)


@pytest.mark.parametrize("p,q", SIGNATURES)
def test_selfadjoint_properties(p, q):
    sp = make_signature_space(p, q, seed=2 * p + 7 * q)
    rng = np.random.default_rng(40 + p + q)
    for n_pos in range(p + 1):
        for n_neg in range(q + 1):
            if n_pos + n_neg == 0:
                continue
            s = random_subspace(sp, rng, n_pos, n_neg, 0)
            proj = k.selfadjoint_projection(s)
            op = proj.op
            assert (op @ op - op).norm() < 1e-10
            assert (op.adjoint() - op).norm() < 1e-10
            assert k.subspace_equal(k.range_of(op), s)
            # null space is the orthogonal companion
            null = k.nullspace_of(op)
            assert k.subspace_equal(null, k.orthogonal_companion(s))


def test_oblique_fixture(m2):
    m = k.subspace_from_spanning(m2, np.array([[1.0], [0.0]]))
    n = k.subspace_from_spanning(m2, np.array([[1.0], [1.0]]))
    p = k.oblique_projection(m, n)
    assert p.kind is k.ProjectionKind.OBLIQUE
    assert_allclose(p.matrix, [[1.0, -1.0], [0.0, 0.0]], atol=1e-14)


def test_oblique_errors(m2, m4):
    e1 = k.subspace_from_spanning(m2, np.array([[1.0], [0.0]]))
    with pytest.raises(k.NotComplementary):
        k.oblique_projection(e1, k.zero_subspace(m2))
    with pytest.raises(k.NotComplementary):
        # same line twice: dimensions fit but the sum does not span
        k.oblique_projection(e1, e1)


def test_ando_split(m4):
    rng = np.random.default_rng(9)
    s = random_subspace(m4, rng, n_pos=1, n_neg=1, n_neutral=0)
    q = k.selfadjoint_projection(s)
    q_plus, q_minus = k.ando_split(q)
    assert_allclose((q_plus.op + q_minus.op).matrix, q.matrix, atol=1e-10)
    assert (q_plus.op @ q_minus.op).norm() < 1e-10
    assert (q_minus.op @ q_plus.op).norm() < 1e-10
    assert q_plus.range_sub.classification.uniformly_positive
    assert q_minus.range_sub.classification.uniformly_negative
    for part in (q_plus, q_minus):
        assert (part.op.adjoint() - part.op).norm() < 1e-10


def test_ando_rejects_non_selfadjoint(m2):
    m = k.subspace_from_spanning(m2, np.array([[1.0], [0.0]]))
    n = k.subspace_from_spanning(m2, np.array([[1.0], [1.0]]))
    with pytest.raises(k.NotSelfadjoint):
        k.ando_split(k.oblique_projection(m, n))


def test_normal_projection_neutral_fixture(m2):
    s = k.subspace_from_spanning(m2, np.array([[1.0], [-1.0]]))
    q = k.normal_projection(s)
    assert q.kind is k.ProjectionKind.NORMAL
    assert_allclose(q.matrix, 0.5 * np.array([[1.0, -1.0], [-1.0, 1.0]]), atol=1e-12)


def test_normal_projection_onto_a_regular_subspace_is_labelled_selfadjoint(m2, m4):
    e1 = k.subspace_from_spanning(m2, np.array([[1.0], [0.0]]))
    assert k.normal_projection(e1).kind is k.ProjectionKind.SELFADJOINT
    # R(B) = span(e1, e3) and N(B) = span(e2, e4) are both regular
    b = m4.operator(np.diag([1.0, 0.0, 2.0, 0.0]))
    gi = k.canonical_pair(b)
    again = k.generalized_inverse(b, gi.q, gi.p)
    assert gi.kind is again.kind is k.GeneralizedInverseKind.MOORE_PENROSE
    assert gi.q.kind is again.q.kind is k.ProjectionKind.SELFADJOINT
    assert gi.p.kind is again.p.kind is k.ProjectionKind.SELFADJOINT


def test_normal_projection_mixed_fixture(m4):
    cols = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0], [0.0, 0.0]])
    s = k.subspace_from_spanning(m4, cols)
    q = k.normal_projection(s)
    op = q.op
    adj = op.adjoint()
    assert (op @ op - op).norm() < 1e-9
    assert (op @ adj - adj @ op).norm() < 1e-9
    assert k.subspace_equal(k.range_of(op), s)


def test_normal_projection_collapses_on_regular(m4):
    rng = np.random.default_rng(14)
    s = random_subspace(m4, rng, n_pos=1, n_neg=1, n_neutral=0)
    q = k.normal_projection(s)
    assert_allclose(q.matrix, k.selfadjoint_projection(s).matrix, atol=1e-10)


@pytest.mark.parametrize("p,q", SIGNATURES)
def test_normal_projection_random_degenerate(p, q):
    sp = make_signature_space(p, q, seed=100 + 3 * p + q)
    rng = np.random.default_rng(70 + p * q)
    choices = degenerate_choices(sp)
    for trial in range(40):
        n_pos, n_neg, n_neutral = choices[trial % len(choices)]
        s = random_subspace(sp, rng, n_pos, n_neg, n_neutral)
        proj = k.normal_projection(s)
        op = proj.op
        adj = op.adjoint()
        scale = max(1.0, op.norm()) ** 2
        assert (op @ op - op).norm() <= 1e-9 * scale
        assert (op @ adj - adj @ op).norm() <= 1e-9 * scale
        assert k.subspace_equal(k.range_of(op), s)


@pytest.mark.parametrize("p,q", SIGNATURES)
def test_normal_projection_of_a_user_subspace_factors_nothing_more(p, q, monkeypatch):
    """On a degenerate subspace_from_spanning subspace, the normal projection runs
    S's own kept eigh and reads both of its terms off it: no solve, no SVD, no
    companion."""
    sp = make_signature_space(p, q, seed=200 + 3 * p + q)
    rng = np.random.default_rng(p * q)
    for choice in degenerate_choices(sp):
        s = random_subspace(sp, rng, *choice)
        counts = _count_factorizations(monkeypatch)
        k.normal_projection(s)
        assert counts == {"eigh": 1}, counts
        counts.clear()
        k.normal_projection(s)
        assert not counts, counts


def _conditioned_space(rng, p, q, cond):
    """Inertia (p, q), Gram condition cond, eigenvalues log-spaced in a random basis."""
    n = p + q
    w = np.concatenate([np.ones(p), -np.ones(q)]) * np.logspace(-0.5, 0.5, n, base=cond)
    u, _ = np.linalg.qr(gaussian(rng, (n, n)))
    g = (u * rng.permutation(w)) @ u.conj().T
    return k.make_space((g + g.conj().T) / 2.0)


def _companion_construction(s):
    """The normal projection as built before from the regular companion
    K = S_reg^[⊥] (by SVD here): Q_reg + S^o (N* G S^o)^-1 N* G (I - Q_reg) with
    the neutral partner N = J_K S^o, J_K read off an eigh of K's Gram."""
    sp = s.space
    s_reg = regular_part(s)
    q1 = k.selfadjoint_projection(s_reg).matrix
    iso = isotropic_part(s).basis
    roundoff = np.linalg.norm(s_reg.basis) * np.linalg.norm(sp.gram)
    comp = k.subspace_from_spanning(sp, nullspace_matrix(sp, s_reg.frame, roundoff))
    wk, vk = np.linalg.eigh(comp.gram_restricted)
    local = vk.conj().T @ (comp.basis.conj().T @ (sp.metric @ iso))
    partner = comp.basis @ (vk @ (np.sign(wk)[:, None] * local))
    paired = partner.conj().T @ sp.gram
    coeff = np.linalg.solve(paired @ iso, paired)
    return q1 + iso @ (coeff - coeff @ q1)


SHAPES = [(1, 1), (2, 1), (2, 2), (3, 1), (3, 3), (4, 2)]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**20),
    shape=st.sampled_from(SHAPES),
    cond=st.sampled_from([1.0, 1e4, 1e8]),
)
def test_normal_projection_is_the_companion_construction(seed, shape, cond):
    """Q_reg + P^o (I - Q_reg) is a normal projection onto S and the operator the
    companion construction gives, because J S^o is Krein-orthogonal to S_reg.

    Roundoff scales with cond(G): the restricted Gram of a metric-orthonormal
    basis S is formed with error of order eps ||S||^2 ||G|| <= eps cond(G), so Q
    carries an error of order eps cond(G) ||Q||, and a product with Q one more ||Q||."""
    rng = np.random.default_rng(seed)
    sp = _conditioned_space(rng, *shape, cond)
    choices = degenerate_choices(sp)
    s = random_subspace(sp, rng, *choices[int(rng.integers(len(choices)))])
    assert not s.classification.regular
    q = k.normal_projection(s).op
    adj = q.adjoint()
    bound = sp.tol.num * cond * max(1.0, q.norm())
    assert (q @ q - q).norm() <= bound * max(1.0, q.norm())
    assert (q @ adj - adj @ q).norm() <= bound * max(1.0, q.norm())
    # the rank of an idempotent is its trace: a roundoff singular value of order
    # eps cond(G) ||Q|| can survive the default rank cutoff
    assert round(q.matrix.trace().real) == s.dim
    assert k.subspace_equal(k.subspace_from_spanning(sp, q.matrix, rank=s.dim), s)
    assert np.linalg.norm(q.matrix - _companion_construction(s), 2) <= bound
    # [J x, y] = <x, y> = 0 for x in S^o, y in S_reg, at the roundoff of the product
    reg, iso = regular_part(s).basis, isotropic_part(s).basis
    cross = reg.conj().T @ sp.gram @ (sp.j @ iso)
    scale = np.linalg.norm(reg, 2) * sp.gram_norm * np.linalg.norm(iso, 2)
    assert np.linalg.norm(cross, 2) <= 8 * sp.dim * np.finfo(float).eps * scale


def test_companion_identity_membership(m4):
    rng = np.random.default_rng(21)
    s = random_subspace(m4, rng, n_pos=1, n_neg=0, n_neutral=1)
    q = k.normal_projection(s)
    inside = k.subspace_sum(s, k.orthogonal_companion(s))
    for _ in range(50):
        y_in = inside.basis @ gaussian(rng, (inside.dim,))
        assert k.companion_identity_check(q, y_in)
        y_any = gaussian(rng, (4,))
        assert k.companion_identity_check(q, y_any) == k.contains_columns(inside, y_any)


@pytest.mark.parametrize("square", [1e-1, 1e-5, 1e-7])
@pytest.mark.parametrize("size", [1e-100, 3.0, 1e100])
def test_companion_identity_holds_on_a_nearly_neutral_regular_line(square, size):
    """A regular line S spanned by v with [v, v] = square in diag(1, -1) has
    S + S^[⊥] = C^2, so y = size v passes: forming Q#(I - Q)y leaves roundoff
    of order eps ||Q||^2 ||y||, and ||Q|| grows as 1 / square."""
    sp = k.make_space(np.diag([1.0, -1.0]))
    v = np.array([1.0, np.sqrt(1.0 - square)])
    s = k.subspace_from_spanning(sp, v)
    assert s.classification.regular
    assert k.companion_identity_check(k.selfadjoint_projection(s), size * v)


@pytest.mark.parametrize("shape", [(2,), (3, 2), (4, 1)])
def test_companion_identity_rejects_a_malformed_y(shape):
    """A y without one entry per coordinate is a DimensionMismatch, not a numpy error."""
    sp = k.make_space(np.diag([1.0, 1.0, -1.0]))
    q = k.normal_projection(k.subspace_from_spanning(sp, np.eye(3)[:, :1]))
    assert k.companion_identity_check(q, np.ones((1, 3)))  # a row is one entry per coordinate
    with pytest.raises(k.DimensionMismatch):
        k.companion_identity_check(q, np.ones(shape))


def test_projection_from_matrix_kinds(m2, m4):
    sa = k.projection_from_matrix(m2, np.diag([1.0, 0.0]))
    assert sa.kind is k.ProjectionKind.SELFADJOINT
    nm = k.projection_from_matrix(m2, 0.5 * np.array([[1.0, -1.0], [-1.0, 1.0]]))
    assert nm.kind is k.ProjectionKind.NORMAL
    ob = k.projection_from_matrix(m2, np.array([[1.0, -1.0], [0.0, 0.0]]))
    assert ob.kind is k.ProjectionKind.OBLIQUE
    with pytest.raises(k.BadProjection):
        k.projection_from_matrix(m2, np.array([[1.0, 1.0], [1.0, 1.0]]))
