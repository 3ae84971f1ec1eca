"""Indefinite inverses and min/max operator least squares."""

import numpy as np
import pytest
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
    subspace_choices,
)
from test_properties import degenerate_instance

B1 = np.diag([1.0, 0.0])
B2 = np.array([[1.0, 0.0], [1.0, 0.0]])


# ---------------------------------------------------------------------------
# indefinite inverse
# ---------------------------------------------------------------------------

def test_inverse_regular_fixture(m2):
    rep = k.indefinite_inverse(m2.operator(B1))
    assert rep.feasible and rep.reason is None
    assert_allclose(rep.solution.matrix, np.diag([1.0, 0.0]), atol=1e-12)
    assert_allclose(rep.value.matrix, np.diag([0.0, 1.0]), atol=1e-12)
    assert rep.conditions == {"range_regular": True}
    assert rep.certificates["inner_inverse_residual"] < 1e-12
    assert rep.certificates["projection_selfadjoint_residual"] < 1e-12
    assert rep.certificates["projection_match_residual"] < 1e-12
    # solution set {[[1,0],[a,b]]}: spot-check a member
    member = rep.manifold.member(np.array([[7.0, -2.0]]))
    assert_allclose(member.matrix, [[1.0, 0.0], [7.0, -2.0]], atol=1e-12)
    bx = m2.operator(B1) @ member
    assert (bx - m2.operator(B1) @ rep.solution).norm() < 1e-12


def test_inverse_neutral_range_infeasible(m2):
    rep = k.indefinite_inverse(m2.operator(B2))
    assert not rep.feasible
    assert rep.reason == "RangeNotRegular"
    assert rep.conditions == {"range_regular": False}
    assert rep.solution is None and rep.value is None


def test_inverse_of_invertible_is_inverse(m4):
    rng = np.random.default_rng(3)
    b = m4.operator(gaussian(rng, (4, 4)) + 3 * np.eye(4))
    rep = k.indefinite_inverse(b)
    assert rep.feasible
    assert_allclose((b @ rep.solution).matrix, np.eye(4), atol=1e-9)
    assert rep.value.norm() < 1e-9
    assert rep.manifold.perturbation_space.dim == 0


@pytest.mark.parametrize("p,q", SIGNATURES)
def test_inverse_feasible_iff_range_regular(p, q):
    sp = make_signature_space(p, q, seed=5 * p + q)
    rng = np.random.default_rng(80 + p + 2 * q)
    for n_pos, n_neg, n_neutral in subspace_choices(sp):
        if n_pos + n_neg + n_neutral == 0:
            continue
        s = random_subspace(sp, rng, n_pos, n_neg, n_neutral)
        b = operator_with_range(sp, s, rng)
        rep = k.indefinite_inverse(b)
        assert rep.feasible == s.classification.regular
        assert k.has_indefinite_inverse(b) == rep.feasible
        assert k.regular_range_rank_check(b) == rep.feasible
        if rep.feasible:
            bx = b @ rep.solution
            assert (bx @ b - b).norm() <= 1e-9 * max(1.0, b.norm()) ** 2
            assert (bx.adjoint() - bx).norm() <= 1e-9 * max(1.0, bx.norm())


def test_inverse_in_range(m2):
    b = m2.operator(B2)
    c = m2.operator(B2)
    ok = k.indefinite_inverse_in_range(b, c)
    assert ok.feasible
    r = b @ ok.solution - c
    assert (ok.value - r.adjoint() @ r).norm() == 0.0
    bad = k.indefinite_inverse_in_range(b, m2.eye())
    assert not bad.feasible and bad.reason == "RangeInclusionFails"


def test_inverse_in_range_regular_residual(m4):
    rng = np.random.default_rng(11)
    s = random_subspace(m4, rng, n_pos=1, n_neg=1, n_neutral=0)
    b = operator_with_range(m4, s, rng)
    c = feasible_rhs(m4, b, rng)
    rep = k.indefinite_inverse_in_range(b, c)
    assert rep.feasible
    assert rep.certificates["projected_equation_residual"] <= 1e-8 * max(
        1.0, b.norm() * c.norm()
    )


# ---------------------------------------------------------------------------
# minimum problem
# ---------------------------------------------------------------------------

def test_ims_regular_fixture(m2):
    rep = k.solve_ims(m2.operator(B1), m2.eye())
    assert rep.feasible
    assert_allclose(rep.value.matrix, np.diag([0.0, 1.0]), atol=1e-12)
    assert rep.conditions == {"range_inclusion": True, "range_nonnegative": True}
    assert rep.certificates["value_formula_residual"] < 1e-10
    assert rep.residual_normal_eq < 1e-12


def test_ims_inclusion_fails(m2):
    rep = k.solve_ims(m2.operator(B2), m2.eye())
    assert not rep.feasible
    assert rep.reason == "RangeInclusionFails"
    assert rep.conditions == {"range_inclusion": False, "range_nonnegative": True}


def test_ims_neutral_range_consistent(m2):
    b = m2.operator(B2)
    rep = k.solve_ims(b, b)
    assert rep.feasible
    assert rep.value.norm() < 1e-12
    assert rep.manifold.perturbation_space.dim == 2
    assert rep.certificates["isotropic_containment"]


def test_ims_negative_range_rejected(m2):
    rep = k.solve_ims(m2.operator(np.diag([0.0, 1.0])), m2.eye())
    assert not rep.feasible
    assert rep.reason == "RangeNotNonnegative"


def test_ims_joint_reason(m4):
    rng = np.random.default_rng(17)
    s = random_subspace(m4, rng, n_pos=0, n_neg=1, n_neutral=1)
    assert s.classification.kind is k.SubspaceKind.NONPOSITIVE_DEGENERATE
    b = operator_with_range(m4, s, rng)
    c = infeasible_rhs(m4, b, rng)
    rep = k.solve_ims(b, c)
    assert not rep.feasible
    assert rep.reason == "RangeInclusionFails+RangeNotNonnegative"
    assert rep.conditions == {"range_inclusion": False, "range_nonnegative": False}


def test_ims_zero_operator_contract(m2):
    zero = m2.zero()
    ok = k.solve_ims(zero, zero)
    assert ok.feasible
    assert ok.reason is None
    assert ok.conditions == {"zero_operator": True, "rhs_zero": True}
    assert ok.solution.norm() == 0.0
    assert ok.value.norm() == 0.0
    assert ok.manifold.perturbation_space.dim == 2

    bad = k.solve_ims(zero, m2.eye())
    assert not bad.feasible
    assert bad.reason == "ZeroOperator"
    assert bad.conditions == {"zero_operator": True, "rhs_zero": False}


def test_imax_mirror(m2):
    neg = m2.operator(np.diag([0.0, 1.0]))
    rep = k.solve_imax(neg, neg)
    assert rep.feasible
    assert rep.value.norm() < 1e-12
    rejected = k.solve_imax(m2.operator(B1), m2.eye())
    assert not rejected.feasible
    assert rejected.reason == "RangeNotNonpositive"
    assert rejected.conditions == {"range_inclusion": True, "range_nonpositive": False}


@pytest.mark.parametrize("p,q", SIGNATURES)
def test_ims_random_feasible_instances(p, q):
    sp = make_signature_space(p, q, seed=9 * p + 4 * q)
    rng = np.random.default_rng(55 + p)
    for n_pos in range(1, p + 1):
        for n_neutral in (0, 1) if min(p, q) >= 1 else (0,):
            if n_pos + n_neutral > p or n_neutral > q:
                continue
            s = random_subspace(sp, rng, n_pos, 0, n_neutral)
            b = operator_with_range(sp, s, rng)
            c = feasible_rhs(sp, b, rng)
            rep = k.solve_ims(b, c)
            assert rep.feasible, rep.reason
            scale = max(1.0, b.norm() * (b.norm() * rep.solution.norm() + c.norm()))
            assert rep.residual_normal_eq <= 1e-9 * scale
            # the attained value is what the report claims
            r = b @ rep.solution - c
            assert (r.adjoint() @ r - rep.value).norm() <= 1e-9 * scale
            # manifold members attain the same value
            other = rep.manifold.sample(rng)
            r2 = b @ other - c
            assert (r2.adjoint() @ r2 - rep.value).norm() <= 1e-8 * max(
                1.0, scale * max(1.0, other.norm())
            )


def test_verify_ims_accepts_and_rejects(m2):
    b = m2.operator(B1)
    c = m2.eye()
    rep = k.solve_ims(b, c)
    assert k.verify_ims(rep.solution, b, c)
    # not stationary: normal equation violated
    assert not k.verify_ims(m2.operator([[5.0, 0.0], [0.0, 0.0]]), b, c)
    # stationary point of a maximum instance is not a minimum
    neg = m2.operator(np.diag([0.0, 1.0]))
    x_stat = m2.operator([[0.0, 0.0], [0.0, 1.0]])
    assert not k.verify_ims(x_stat, neg, neg @ m2.eye())


def _perturbed_minimizers():
    """(B, C, X0 + 1e-6 Gaussian) on the feasible solve_ims draws of degenerate seeds 0-199."""
    for seed in range(200):
        b, c, _ = degenerate_instance(seed)
        if c is not None and (rep := k.solve_ims(b, c)).feasible:
            x0 = rep.solution.matrix
            delta = 1e-6 * gaussian(np.random.default_rng(seed), x0.shape)
            yield b, c, b.space.operator(x0 + delta)


@pytest.mark.parametrize("scale", [1e-6, 1e6])
def test_verify_ims_verdict_is_scale_invariant(scale):
    """Scaling B and C together leaves each verify_ims verdict: X0 + 1e-6 Gaussian is
    a minimizer on a neutral range, where every X is one, and fails the gate elsewhere."""
    verdicts = []
    for b, c, x in _perturbed_minimizers():
        sp = b.space
        want = k.verify_ims(x, b, c)
        assert k.verify_ims(x, sp.operator(scale * b.matrix), sp.operator(scale * c.matrix)) == want
        verdicts.append(want)
    assert any(verdicts) and not all(verdicts)


@pytest.mark.parametrize("p,q", SIGNATURES)
def test_verify_ims_gate_follows_the_spectral_norm(p, q):
    """At 10x and 0.1x the cutoff, verify_ims's normal-equation gate (trials=0
    leaves it alone) decides as the SVD of the residual does."""
    sp = make_signature_space(p, q, seed=3 * p + q)
    rng = np.random.default_rng(71 + 5 * p + q)
    num = sp.tol.num

    def cutoff(x, b, c):
        return num * max(1.0, b.norm() * (b.norm() * x.norm() + c.norm()))

    for n_pos in range(1, p + 1):
        for n_neutral in (0, 1) if min(p, q) >= 1 else (0,):
            if n_pos + n_neutral > p or n_neutral > q:
                continue
            b = operator_with_range(sp, random_subspace(sp, rng, n_pos, 0, n_neutral), rng)
            c = feasible_rhs(sp, b, rng)
            x0 = k.solve_immso(b, c).solution
            y = sp.operator(gaussian(rng, (sp.dim, sp.dim)))
            step = (b.adjoint() @ b @ y).norm() / cutoff(x0, b, c)
            for ratio in (10.0, 0.1):
                x = x0 + y * (ratio / step)
                measured = (b.adjoint() @ (b @ x - c)).norm() / cutoff(x, b, c)
                assert ratio / 2 <= measured <= 2 * ratio
                assert k.verify_ims(x, b, c, trials=0) == (measured <= 1.0)


def test_report_records_seed(m2):
    rep = k.solve_ims(m2.operator(B1), m2.eye(), seed=42)
    assert rep.seed == 42
