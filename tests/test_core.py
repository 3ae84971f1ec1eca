"""Spaces, adjoints, subspace geometry and classification."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import kreinls as k
from conftest import (
    SIGNATURES,
    feasible_rhs,
    gaussian,
    infeasible_rhs,
    make_signature_space,
    operator_with_range,
    random_subspace,
    random_unitary_columns,
    subspace_choices,
)
from kreinls.core import (
    _spectral_bracket,
    contains_columns,
    herm,
    krein_orthogonal,
    negligible,
    norm_at_most,
    spectral_norm,
)
from test_analysis import _count_factorizations
from test_oracle import _oracle_instance
from test_projections import SHAPES, _conditioned_space
from test_properties import degenerate_instance


# ---------------------------------------------------------------------------
# space construction
# ---------------------------------------------------------------------------

def test_space_rejects_non_hermitian():
    with pytest.raises(k.NotHermitian):
        k.make_space(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_space_rejects_singular():
    with pytest.raises(k.SingularGram):
        k.make_space(np.diag([1.0, 0.0]))


def test_space_rejects_non_square():
    with pytest.raises(k.DimensionMismatch):
        k.make_space(np.ones((2, 3)))


def test_space_rejects_empty():
    with pytest.raises(k.DimensionMismatch, match="empty"):
        k.make_space(np.zeros((0, 0)))


def test_space_rejects_non_finite():
    with pytest.raises(k.KreinError, match="non-finite"):
        k.make_space(np.diag([1.0, np.nan]))


def test_space_rejects_zero_gram():
    with pytest.raises(k.NotHermitian):
        k.make_space(np.zeros((3, 3)))


@pytest.mark.parametrize("factor", [10.0, 1.25, 0.8, 0.1])
@pytest.mark.parametrize("p,q", SIGNATURES)
def test_gram_hermitian_test_follows_the_skew_part(p, q, factor):
    """G = H + K with K* = -K and ||G - G*||_2 = factor * SYM_TOL * ||G||_2: rejected
    above the cutoff, accepted below it, with the space of herm(G)."""
    h = make_signature_space(p, q, seed=7 * p + q).gram
    n = p + q
    rng = np.random.default_rng(13 * p + q)
    frame = random_unitary_columns(rng, n, 2)
    skew = frame[:, [0]] @ frame[:, [1]].conj().T
    skew = (skew - skew.conj().T) / 2.0  # rank 2, ||skew||_2 = 1/2
    cutoff = k.core.SYM_TOL * spectral_norm(h)
    g = h + factor * cutoff * skew
    if factor > 1.0:
        with pytest.raises(k.NotHermitian):
            k.make_space(g)
    else:
        assert_allclose(k.make_space(g).gram, h, rtol=0, atol=1e-15 * spectral_norm(h))


def test_make_space_runs_three_factorizations(monkeypatch):
    """The eigh, the Cholesky factor and its inverse: G^-1 is read off the eigh,
    and no SVD runs."""
    g = make_signature_space(3, 1, seed=4).gram
    counts = _count_factorizations(monkeypatch)
    k.make_space(g)
    assert counts == {"eigh": 1, "inv": 1, "cholesky": 1}, counts


@pytest.mark.parametrize("p,q", SIGNATURES)
def test_fundamental_decomposition(p, q):
    sp = make_signature_space(p, q, seed=11 * p + q)
    n = p + q
    assert sp.signature == (p, q)
    assert_allclose(sp.j @ sp.j, np.eye(n), atol=1e-12)
    assert_allclose(sp.gram @ sp.j, sp.metric, atol=1e-12)
    assert np.linalg.eigvalsh(sp.metric)[0] > 0
    # frames: Hilbert-orthonormal, indefinite-Gram restricted to +/- 1
    bp, bm = sp.basis_plus, sp.basis_minus
    assert_allclose(bp.conj().T @ sp.metric @ bp, np.eye(p), atol=1e-12)
    assert_allclose(bm.conj().T @ sp.metric @ bm, np.eye(q), atol=1e-12)
    assert_allclose(bp.conj().T @ sp.gram @ bp, np.eye(p), atol=1e-12)
    assert_allclose(bm.conj().T @ sp.gram @ bm, -np.eye(q), atol=1e-12)


def test_ordered_eigh_is_deterministic():
    rng = np.random.default_rng(4)
    a = gaussian(rng, (5, 5))
    a = a + a.conj().T
    w1, v1 = k.core.ordered_eigh(a)
    w2, v2 = k.core.ordered_eigh(a.copy())
    assert np.array_equal(w1, w2) and np.array_equal(v1, v2)
    assert np.all(np.diff(w1) <= 0)


def _ordered_eigh_loop(a):
    """Reference: ordered_eigh with the phase fixed one column at a time."""
    w, v = np.linalg.eigh(a)
    order = np.argsort(-w, kind="stable")
    w = w[order]
    v = v[:, order]
    for j in range(v.shape[1]):
        col = v[:, j]
        nz = np.flatnonzero(np.abs(col) > 1e-8)
        if nz.size:
            pivot = col[nz[0]]
            v[:, j] = col * (abs(pivot) / pivot)
    return w, v


def test_ordered_eigh_matches_column_loop():
    rng = np.random.default_rng(12)
    cases = [np.zeros((0, 0)), np.zeros((3, 3)), np.diag([2.0, -1.0, 2.0])]
    for n in range(1, 8):
        for scale in (0.0, 1e-12, 1.0):
            # the off-diagonal block sets how far eigenvectors of one block
            # leak into the leading entries: none, below 1e-8, or fully
            a = gaussian(rng, (n, n))
            a = a + a.conj().T
            a[: n // 2, n // 2 :] *= scale
            a[n // 2 :, : n // 2] *= scale
            cases.append(a)
    for a in cases:
        w_ref, v_ref = _ordered_eigh_loop(a)
        w, v = k.core.ordered_eigh(a)
        assert w.tobytes() == w_ref.tobytes()
        assert v.tobytes() == v_ref.tobytes()
        assert v.flags.f_contiguous == v_ref.flags.f_contiguous


# ---------------------------------------------------------------------------
# adjoints
# ---------------------------------------------------------------------------

def test_adjoint_fixture(m2):
    t = m2.operator([[1.0, 2.0], [3.0, 4.0]])
    assert_allclose(t.adjoint().matrix, [[1.0, -3.0], [-2.0, 4.0]], atol=1e-14)


@pytest.mark.parametrize("p,q", SIGNATURES)
def test_adjoint_axioms(p, q):
    sp = make_signature_space(p, q, seed=3 * p + 5 * q)
    rng = np.random.default_rng(p * 10 + q)
    n = p + q
    for _ in range(25):
        s = sp.operator(gaussian(rng, (n, n)))
        t = sp.operator(gaussian(rng, (n, n)))
        assert_allclose(s.adjoint().adjoint().matrix, s.matrix, atol=1e-12)
        assert_allclose((s @ t).adjoint().matrix, (t.adjoint() @ s.adjoint()).matrix, atol=1e-12)
        # defining property on random vectors
        x = gaussian(rng, (n,))
        y = gaussian(rng, (n,))
        lhs = np.vdot(y, sp.gram @ (t.matrix @ x))
        rhs = np.vdot(t.adjoint().matrix @ y, sp.gram @ x)
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))


def test_operator_space_mismatch(m2, m4):
    with pytest.raises(k.SpaceMismatch):
        m2.eye() @ m4.eye()
    with pytest.raises(k.DimensionMismatch):
        m2.operator(np.eye(3))


# calls whose operands are bound to two spaces built from one Gram: B and its kept
# subspaces in the first, the operand far(...) moves in the second
ACROSS_SPACES = {
    "solve_ims": lambda b, far: k.solve_ims(b, far(b)),
    "solve_imax": lambda b, far: k.solve_imax(b, far(b)),
    "solve_immso": lambda b, far: k.solve_immso(b, far(b)),
    "solve_min_ims_norm": lambda b, far: k.solve_min_ims_norm(b, far(b)),
    "certify_min": lambda b, far: k.certify_min(b, far(b), b, trials=3),
    "verify_immso": lambda b, far: k.verify_immso(b, b, far(b)),
    "verify_immso_symmetry": lambda b, far: k.verify_immso(
        b, b, b, j=far(b.space.operator(b.space.j))
    ),
    "oblique_projection": lambda b, far: k.oblique_projection(
        k.range_of(b), k.nullspace_of(far(b))
    ),
    "subspace_sum": lambda b, far: k.subspace_sum(k.range_of(b), k.nullspace_of(far(b))),
    "subspace_intersection": lambda b, far: k.subspace_intersection(
        k.range_of(b), k.range_of(far(b))
    ),
    "generalized_inverse": lambda b, far: k.generalized_inverse(
        b, far(k.canonical_pair(b).q.op), k.canonical_pair(b).p
    ),
}


@pytest.mark.parametrize("name", ACROSS_SPACES)
def test_operands_bound_to_two_spaces_raise_space_mismatch(name, m2):
    """Every operand is checked against one space, also when the Grams are equal."""
    other = k.make_space(m2.gram)
    b = m2.operator(np.diag([1.0, 0.0]))
    with pytest.raises(k.SpaceMismatch):
        ACROSS_SPACES[name](b, lambda t: other.operator(t.matrix))


def test_operator_rejects_non_finite(m2):
    with pytest.raises(k.KreinError, match="non-finite"):
        m2.operator(np.full((2, 2), np.nan))
    with pytest.raises(k.KreinError, match="non-finite"):
        k.solve_ims(m2.operator([[np.inf, 0.0], [0.0, 1.0]]), m2.eye())


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_spanning_columns_reject_non_finite(m2, bad):
    cols = np.array([[1.0, bad], [0.0, 1.0]])
    with pytest.raises(k.KreinError, match="non-finite"):
        k.subspace_from_spanning(m2, cols)
    with pytest.raises(k.KreinError, match="non-finite"), np.errstate(invalid="ignore"):
        contains_columns(k.range_of(m2.eye()), cols)


def test_operator_matrix_read_only(m2):
    t = m2.operator(np.eye(2))
    with pytest.raises(ValueError):
        t.matrix[0, 0] = 5.0


def test_operator_copies_the_callers_array_only(m2):
    """sp.operator copies what it is given; arithmetic keeps its own fresh results,
    still checked and read-only."""
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    t = m2.operator(a)
    a[0, 0] = 9.0
    assert t.matrix[0, 0] == 1.0 and t.matrix.dtype == complex
    for made in (t @ t, t + t, t - t, -t, 2.0 * t, t * 2j, t.adjoint()):
        assert made.matrix.dtype == complex and not made.matrix.flags.writeable
    with pytest.raises(k.KreinError, match="non-finite"), np.errstate(all="ignore"):
        t * np.inf
    with pytest.raises(k.DimensionMismatch):
        k.Operator(m2, np.eye(3, dtype=complex), _copy=False)


def test_operators_and_subspaces_compare_by_identity(m2):
    t = m2.eye()
    assert (t == m2.eye()) is False
    assert (t == t) is True
    s = k.range_of(t)
    assert (s == k.range_of(m2.eye())) is False
    assert (s == k.range_of(t)) is True


def test_space_tolerances_are_read_only():
    """A kept analysis cannot go stale: the tolerances it was decided at stay."""
    sp = k.make_space(np.diag([1.0, 1.0, -1.0]))
    b = sp.operator(np.diag([1.0, 1e-9, 0.0]))
    assert k.range_of(b).dim == 2
    with pytest.raises(AttributeError):
        sp.tol = k.Tolerances(rank=1e-6)
    assert sp.tol == k.Tolerances()


@pytest.mark.parametrize("field", ["num", "rank"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -1.0, -1e-300])
def test_tolerances_reject_malformed_values(field, value):
    with pytest.raises(k.KreinError):
        k.Tolerances(**{field: value})


def test_tolerances_are_the_two_knobs():
    """num and rank are all a caller sets; zero is a valid value of each."""
    assert [f.name for f in dataclasses.fields(k.Tolerances)] == ["num", "rank"]
    assert k.Tolerances(num=0.0, rank=0.0).rank == 0.0


# ---------------------------------------------------------------------------
# subspaces: canonical form and classification
# ---------------------------------------------------------------------------

def test_subspace_canonicalization(m4):
    rng = np.random.default_rng(7)
    cols = gaussian(rng, (4, 2))
    s1 = k.subspace_from_spanning(m4, cols)
    # same span, redundantly and differently presented
    s2 = k.subspace_from_spanning(m4, np.hstack([cols @ gaussian(rng, (2, 3)), cols]))
    assert s1.dim == s2.dim == 2
    assert k.subspace_equal(s1, s2)
    assert_allclose(s1.basis.conj().T @ m4.metric @ s1.basis, np.eye(2), atol=1e-12)


def test_classification_fixtures(m2, m4):
    cases = [
        (m2, [[1.0], [0.0]], k.SubspaceKind.UNIFORMLY_POSITIVE, True),
        (m2, [[0.0], [1.0]], k.SubspaceKind.UNIFORMLY_NEGATIVE, True),
        (m2, [[1.0], [1.0]], k.SubspaceKind.NEUTRAL, False),
        (m4, np.eye(4), k.SubspaceKind.INDEFINITE, True),
        (m4, [[1.0, 0.0], [0.0, 1.0], [0.0, 1.0], [0.0, 0.0]],
         k.SubspaceKind.NONNEGATIVE_DEGENERATE, False),
    ]
    for sp, cols, kind, regular in cases:
        cls = k.classify(k.subspace_from_spanning(sp, np.asarray(cols, dtype=float)))
        assert cls.kind is kind
        assert cls.regular is regular
        assert cls.pseudo_regular is True


def test_zero_subspace_class(m2):
    cls = k.classify(k.zero_subspace(m2))
    assert cls.kind is k.SubspaceKind.ZERO
    assert cls.regular and cls.nonnegative and cls.nonpositive
    assert cls.uniformly_positive  # by the regular-and-nonnegative convention


@pytest.mark.parametrize("p,q", SIGNATURES)
def test_generated_inertia_matches(p, q):
    sp = make_signature_space(p, q, seed=60 + p - q)
    rng = np.random.default_rng(17 * p + q)
    for n_pos, n_neg, n_neutral in subspace_choices(sp):
        cls = k.classify(random_subspace(sp, rng, n_pos, n_neg, n_neutral))
        assert (cls.n_positive, cls.n_negative, cls.n_zero) == (n_pos, n_neg, n_neutral)


def test_isotropic_part(m2, m4):
    neutral = k.subspace_from_spanning(m2, np.array([[1.0], [1.0]]))
    iso = k.isotropic_part(neutral)
    assert iso.dim == 1 and k.subspace_equal(iso, neutral)
    regular = k.subspace_from_spanning(m4, np.eye(4, 2))
    assert k.isotropic_part(regular).dim == 0
    mixed = k.subspace_from_spanning(
        m4, np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0], [0.0, 0.0]])
    )
    iso = k.isotropic_part(mixed)
    assert iso.dim == 1
    assert k.subspace_within(iso, mixed)


def test_decompose_subspace(m4):
    rng = np.random.default_rng(23)
    s = random_subspace(m4, rng, n_pos=1, n_neg=1, n_neutral=1)
    s_plus, s_minus = k.decompose_subspace(s)
    assert s_plus.classification.kind is k.SubspaceKind.UNIFORMLY_POSITIVE
    assert s_minus.classification.nonpositive
    assert s_plus.dim + s_minus.dim == s.dim
    assert k.subspace_equal(k.subspace_sum(s_plus, s_minus), s)
    # doubly orthogonal by construction
    cross_g = s_plus.basis.conj().T @ m4.gram @ s_minus.basis
    cross_m = s_plus.basis.conj().T @ m4.metric @ s_minus.basis
    assert np.linalg.norm(cross_g) < 1e-12
    assert np.linalg.norm(cross_m) < 1e-12


def test_orthogonal_companion(m2, m4):
    s = k.subspace_from_spanning(m2, np.array([[1.0], [1.0]]))
    comp = k.orthogonal_companion(s)
    # a neutral line is its own companion on M2
    assert k.subspace_equal(comp, s)
    rng = np.random.default_rng(31)
    for n_pos, n_neg, n_neutral in subspace_choices(m4):
        sub = random_subspace(m4, rng, n_pos, n_neg, n_neutral)
        comp = k.orthogonal_companion(sub)
        assert comp.dim == 4 - sub.dim
        assert np.linalg.norm(sub.basis.conj().T @ m4.gram @ comp.basis) < 1e-10
        assert k.subspace_equal(k.orthogonal_companion(comp), sub)


def test_companion_of_zero_and_full(m4):
    assert k.orthogonal_companion(k.zero_subspace(m4)).dim == 4
    assert k.orthogonal_companion(k.full_subspace(m4)).dim == 0


def test_companion_of_a_spanned_subspace_runs_one_svd(monkeypatch):
    """With no kept metric complement, a degenerate subspace finds its companion
    by one SVD, whose columns are metric-orthonormal and G-orthogonal to it."""
    sp = make_signature_space(6, 6, seed=3)
    sub = random_subspace(sp, np.random.default_rng(38), 3, 2, 2)
    counts = _count_factorizations(monkeypatch)
    comp = k.orthogonal_companion(sub)
    assert dict(counts) == {"svd": 1}
    assert comp.dim == sp.dim - sub.dim
    gram_m = comp.basis.conj().T @ sp.metric @ comp.basis
    assert np.linalg.norm(gram_m - np.eye(comp.dim)) < 1e-12
    assert np.linalg.norm(sub.basis.conj().T @ sp.gram @ comp.basis) < 1e-12


@pytest.mark.parametrize("cond", [1.0, 1e4, 1e8])
def test_companion_of_a_kept_subspace(cond):
    """The companion J S^⊥ of a kept range or null space, made G-orthogonal to S,
    is metric-orthonormal to 10 n eps cond(G) and G-orthogonal to S to n eps ||G||."""
    eps = np.finfo(float).eps
    for seed in range(60):
        rng = np.random.default_rng(seed)
        sp = _conditioned_space(rng, *SHAPES[seed % len(SHAPES)], cond)
        choices = subspace_choices(sp)
        sub = random_subspace(sp, rng, *choices[int(rng.integers(len(choices)))])
        b = operator_with_range(sp, sub, rng)
        n = sp.dim
        for s in (k.range_of(b), k.nullspace_of(b)):
            assert s._complement is not None
            comp = k.orthogonal_companion(s).basis
            gram_m = comp.conj().T @ sp.metric @ comp
            assert np.linalg.norm(gram_m - np.eye(comp.shape[1]), 2) <= 10 * n * eps * cond, seed
            cross = s.basis.conj().T @ sp.gram @ comp
            assert np.linalg.norm(cross, 2) <= n * eps * sp.gram_norm, seed


def test_principal_angles_limits(m4):
    e12 = k.subspace_from_spanning(m4, np.eye(4, 2))
    e34 = k.subspace_from_spanning(m4, np.eye(4)[:, 2:])
    assert_allclose(k.principal_angles(e12, e12), [0.0, 0.0], atol=1e-12)
    assert_allclose(k.principal_angles(e12, e34), [np.pi / 2] * 2, atol=1e-12)
    assert k.subspace_within(e12, k.full_subspace(m4))
    assert not k.subspace_within(e12, e34)


def test_sum_intersection_dimension_formula(m4):
    rng = np.random.default_rng(5)
    for _ in range(20):
        s1 = k.subspace_from_spanning(m4, gaussian(rng, (4, rng.integers(1, 4))))
        s2 = k.subspace_from_spanning(m4, gaussian(rng, (4, rng.integers(1, 4))))
        total = k.subspace_sum(s1, s2)
        inter = k.subspace_intersection(s1, s2)
        assert total.dim + inter.dim == s1.dim + s2.dim
        assert k.subspace_within(inter, s1) and k.subspace_within(inter, s2)


def test_neutral_line_plus_its_companion_is_the_line():
    """A neutral line S in a (1, 1) space is its own companion, so S + S^[⊥] = S.

    subspace_sum decides the rank of [S | S^[⊥]] above the roundoff scale of forming
    R [S | S^[⊥]], ||R||_2 ||[S | S^[⊥]]||_F. The trailing singular value, roundoff
    of the metric factor R^-1, stays below that cutoff on all 1000 seeds; at
    dim eps s_1 alone it reached past it on a few.
    """
    sp = make_signature_space(1, 1, seed=21)
    wrong = []
    for seed in range(1000):
        rng = np.random.default_rng(seed)
        s = k.range_of(operator_with_range(sp, random_subspace(sp, rng, 0, 0, 1), rng))
        if k.subspace_sum(s, k.orthogonal_companion(s)).dim != 1:
            wrong.append(seed)
    assert not wrong, wrong


def test_shared_intersection_is_found(m4):
    rng = np.random.default_rng(6)
    common = gaussian(rng, (4, 1))
    s1 = k.subspace_from_spanning(m4, np.hstack([common, gaussian(rng, (4, 1))]))
    s2 = k.subspace_from_spanning(m4, np.hstack([common, gaussian(rng, (4, 1))]))
    inter = k.subspace_intersection(s1, s2)
    assert inter.dim == 1
    assert k.subspace_within(inter, k.subspace_from_spanning(m4, common))


@pytest.mark.parametrize("delta", [1e-3, 1e-5, 1e-7, 1e-12])
def test_intersection_of_near_lines_agrees_with_their_sum_in_an_ill_conditioned_space(delta):
    """G = diag(1e12, -1), cond G = 1e12: two metric-unit lines at pi/2 -+ delta
    have standard bases (+-1e-6 sin delta, cos delta). Sum and intersection decide
    the rank of the same stacked frame at the same scale, so their dimensions add
    up to 2 however small delta is, and a line found lies in both."""
    sp = k.make_space(np.diag([1e12, -1.0]))
    s1 = k.subspace_from_spanning(sp, np.array([1e-6 * np.sin(delta), np.cos(delta)]))
    s2 = k.subspace_from_spanning(sp, np.array([-1e-6 * np.sin(delta), np.cos(delta)]))
    total, inter = k.subspace_sum(s1, s2), k.subspace_intersection(s1, s2)
    assert total.dim + inter.dim == 2
    assert total.dim == (2 if delta > 1e-9 else 1)
    assert k.subspace_within(inter, s1) and k.subspace_within(inter, s2)


# ---------------------------------------------------------------------------
# range inclusion, factorization, neutrality
# ---------------------------------------------------------------------------

def test_range_nullspace(m4):
    b = m4.operator(np.diag([1.0, 1.0, 0.0, 0.0]))
    assert k.range_of(b).dim == 2
    null = k.nullspace_of(b)
    assert null.dim == 2
    assert np.linalg.norm(b.matrix @ null.basis) < 1e-12
    assert k.nullspace_of(m4.zero()).dim == 4
    assert k.range_of(m4.zero()).dim == 0


def test_douglas_factorization(m4):
    rng = np.random.default_rng(12)
    y = m4.operator(np.diag([1.0, 2.0, 0.0, 0.0]))
    z = m4.operator(y.matrix @ gaussian(rng, (4, 4)))
    assert k.range_inclusion(z, y)
    d = k.solve_douglas(y, z)
    assert_allclose((y @ d).matrix, z.matrix, atol=1e-12)
    outside = m4.operator(np.diag([0.0, 0.0, 1.0, 0.0]))
    assert not k.range_inclusion(outside, y)
    with pytest.raises(k.NoFactorization):
        k.solve_douglas(y, outside)


def test_neutral_range(m2):
    b2 = m2.operator([[1.0, 0.0], [1.0, 0.0]])
    assert k.neutral_range(b2)
    assert k.neutral_range(m2.zero())
    assert not k.neutral_range(m2.operator(np.diag([1.0, 0.0])))


def _small_eigenvalue_range(seed, n, cond):
    """(space, T): Gram condition 10^(2 cond), R(T) the line of G's smallest |eigenvalue|."""
    rng = np.random.default_rng(seed)
    d = np.concatenate([np.ones(n // 2), -np.ones(n - n // 2)]) * np.logspace(-cond, cond, n)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    sp = k.make_space(herm(q @ np.diag(d) @ q.T))
    return sp, sp.operator(np.outer(q[:, np.argmin(abs(d))], rng.standard_normal(n)))


@pytest.mark.parametrize("cond", (0.0, 3.0, 4.0, 5.0, 5.5, 6.0))
def test_neutral_range_holds_at_every_gram_condition(cond):
    """B onto neutral directions (B#B = 0 by construction) is neutral and a Gaussian B is
    not, at Gram condition up to 1e12: the classical form U* G U carries no G^-1, whose
    roundoff in U#U read as a non-neutral part from cond(G) = 1e8 on. A range on the line
    of G's smallest |eigenvalue| is not neutral either: it is told by its own size in the
    metric, not by ||G|| ||T||^2, which it falls under by more than tol.num from 1e10 on."""
    for sign in (1.0, -1.0):
        sp = k.make_space(np.diag([1.0, sign * 10.0 ** (-2 * cond)]))
        assert not k.neutral_range(sp.operator(np.diag([0.0, 1.0]))), sign
    for n in (2, 3, 4):
        for seed in range(60):
            neutral = _oracle_instance(seed, n, n // 2, cond, None, False, 0.0, True)[0]
            assert k.neutral_range(neutral), (n, seed)
            assert not k.neutral_range(_oracle_instance(seed, n, n // 2, cond)[0]), (n, seed)
            assert not k.neutral_range(_small_eigenvalue_range(seed, n, cond)[1]), (n, seed)


def test_rank_override():
    # a tiny but honest direction survives only with a tighter rank cutoff
    g = np.diag([1.0, -1.0])
    loose = k.make_space(g, k.Tolerances(rank=1e-3))
    strict = k.make_space(g)
    cols = np.array([[1.0, 0.0], [0.0, 1e-6]])
    assert k.subspace_from_spanning(loose, cols).dim == 1
    assert k.subspace_from_spanning(strict, cols).dim == 2


# ---------------------------------------------------------------------------
# thresholds on spectral norms, decided by a Frobenius bracket
# ---------------------------------------------------------------------------

def _extreme_matrix(kind, shape, rng):
    """Rank one (||.||_2 = ||.||_F) or a scaled isometry (||.||_2 = ||.||_F / sqrt(min(shape)))."""
    t, n = shape
    if kind == "rank_one":
        return np.outer(gaussian(rng, t), gaussian(rng, n))
    q = random_unitary_columns(rng, max(t, n), min(t, n))
    return 3.0 * (q if t >= n else q.conj().T)


@pytest.mark.parametrize("shape", [(1, 1), (2, 2), (4, 4), (128, 128), (3, 128), (128, 2), (1, 4)])
@pytest.mark.parametrize("kind", ["rank_one", "isometry"])
@pytest.mark.parametrize("factor", [0.5, 0.999, 1.001, 2.0])
def test_norm_at_most_decides_as_the_spectral_norm(shape, kind, factor, monkeypatch):
    """Both ends of the bracket are attained; the answer is the SVD's, and an SVD
    runs exactly when the bracket straddles the bound."""
    a = _extreme_matrix(kind, shape, np.random.default_rng(sum(shape)))
    bound = factor * spectral_norm(a)
    lo, hi = _spectral_bracket(a)
    straddles = lo <= bound < hi
    if (kind == "rank_one") == (factor > 1.0):  # the attained end decides
        assert not straddles
    counts = _count_factorizations(monkeypatch)
    assert norm_at_most(a, bound, (1.0,)) == (factor >= 1.0)
    assert counts["norm2"] + counts["svd"] == int(straddles), counts


@pytest.mark.parametrize("shape", [(4, 4), (3, 128), (0, 4)])
def test_norm_at_most_of_a_zero_matrix_factors_nothing(shape, monkeypatch):
    counts = _count_factorizations(monkeypatch)
    a = np.zeros(shape, dtype=complex)
    assert norm_at_most(a, 0.0, (1.0,)) and norm_at_most(a, 1.0, (1.0,))
    assert not counts, counts


def test_norm_at_most_forms_a_representable_cutoff_without_overflow(m2):
    """A cutoff that is a float is one, whatever its partial products: 1e90 and 1e-110
    below, and 0 for a zero factor beside a norm whose square overflows."""
    ones = np.ones((2, 2))
    assert not norm_at_most(2e95 * ones, 1e-10, (1e200, 1e200, 1e-300))
    assert norm_at_most(1e-120 * ones, 1e-10, (1e-200, 1e-200, 1e300))
    b = m2.operator(np.diag([1e200, 0.0]))
    assert negligible(np.zeros((2, 2)), (b, b, m2.zero()))
    assert not negligible(np.ones((2, 2)), (b, b, m2.zero()))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**20),
    c_exp=st.floats(-100.0, 100.0),
    mix_exp=st.floats(-14.0, 2.0),
)
def test_krein_orthogonal_decides_as_the_spectral_norms(seed, c_exp, mix_exp):
    """On C reachable up to a part of relative size 10^mix_exp, scaled by 10^c_exp,
    the feasibility test gives the verdict of the two spectral norms."""
    b, _, _ = degenerate_instance(seed)
    sp = b.space
    rng = np.random.default_rng(seed)
    inside, outside = feasible_rhs(sp, b, rng), infeasible_rhs(sp, b, rng)
    assume(outside is not None)
    c = sp.operator(10.0**c_exp * (inside.matrix + 10.0**mix_exp * outside.matrix))
    iso = k.isotropic_part(k.range_of(b))
    residual = spectral_norm(iso.basis.conj().T @ sp.gram @ c.matrix)
    want = residual <= sp.neutral_cutoff() * spectral_norm(c.matrix)
    assert krein_orthogonal(iso.frame, c) == want
