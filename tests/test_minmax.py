"""Range splitting, the stationary problem and min-max value identities."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

import kreinls as k
from conftest import feasible_rhs, gaussian, operator_with_range, random_subspace

B1 = np.diag([1.0, 0.0])
B2 = np.array([[1.0, 0.0], [1.0, 0.0]])


def test_split_positive_range(m2):
    split = k.split_operator(m2.operator(B1))
    assert_allclose(split.b_plus.matrix, B1, atol=1e-12)
    assert split.b_minus.norm() < 1e-12
    assert split.s_minus.dim == 0


def test_split_neutral_range_lands_minus(m2):
    split = k.split_operator(m2.operator(B2))
    assert split.b_plus.norm() < 1e-12
    assert_allclose(split.b_minus.matrix, B2, atol=1e-12)


def test_split_invariants(m4):
    rng = np.random.default_rng(23)
    s = random_subspace(m4, rng, n_pos=1, n_neg=1, n_neutral=0)
    b = operator_with_range(m4, s, rng)
    split = k.split_operator(b)
    assert (split.b_plus + split.b_minus - b).norm() < 1e-10
    assert (split.b_plus.adjoint() @ split.b_minus).norm() < 1e-10
    assert (split.b_minus.adjoint() @ split.b_plus).norm() < 1e-10
    assert split.s_plus.classification.uniformly_positive
    assert split.s_minus.classification.uniformly_negative
    assert k.subspace_within(k.range_of(split.b_plus), split.s_plus)
    assert k.subspace_within(k.range_of(split.b_minus), split.s_minus)


def test_immso_fixture(m2):
    b = m2.operator(B2)
    rep = k.solve_immso(b, b)
    assert rep.feasible
    assert rep.value.norm() < 1e-10

    bad = k.solve_immso(b, m2.eye())
    assert not bad.feasible
    assert bad.reason == "RangeInclusionFails"


def test_immso_regular_value_formula(m4):
    rng = np.random.default_rng(31)
    s = random_subspace(m4, rng, n_pos=1, n_neg=1, n_neutral=0)
    b = operator_with_range(m4, s, rng)
    c = feasible_rhs(m4, b, rng)
    rep = k.solve_immso(b, c)
    assert rep.feasible
    assert rep.certificates["value_formula_residual"] < 1e-9
    q = k.selfadjoint_projection(s).op
    closed = c.adjoint() @ (m4.eye() - q) @ c
    assert (rep.value - closed).norm() <= 1e-9 * max(1.0, closed.norm())


def test_verify_immso_fixture(m2):
    b = m2.operator(B2)
    z1 = k.solve_immso(b, b).solution
    z0 = m2.operator(z1.matrix + np.array([[1.0, 0.0], [0.0, 0.0]]))
    assert k.verify_immso(z0, b, b)


def test_verify_immso_rejects(m4):
    b = m4.operator(np.diag([1.0, 1.0, 0.0, 0.0]))
    c = m4.eye()
    z_good = k.solve_immso(b, c).solution
    assert k.verify_immso(z_good, b, c)
    assert not k.verify_immso(m4.operator(2 * np.eye(4)), b, c)


@pytest.mark.parametrize("scale", [1e-12, 1e12])
def test_verify_immso_rejects_at_every_scale(m4, scale):
    """Z0 + I leaves the gap B, which is not neutral, however small or large B and C are;
    Z0 = 0 leaves the positive gap B Z1, however small C is against B."""
    b = m4.operator(scale * np.diag([1.0, 1.0, 0.0, 0.0]))
    c = m4.operator(scale * np.eye(4))
    z_good = k.solve_immso(b, c).solution
    assert k.verify_immso(z_good, b, c)
    assert not k.verify_immso(z_good + m4.eye(), b, c)
    assert not k.verify_immso(m4.zero(), b, c)
    assert not k.verify_immso(m4.zero(), b, c * 1e-12)


def test_verify_immso_infeasible_raises(m2):
    with pytest.raises(k.InfeasibleInstance):
        k.verify_immso(m2.eye(), m2.operator(B2), m2.eye())


def test_verify_immso_symmetry_independent(m4):
    rng = np.random.default_rng(37)
    s = random_subspace(m4, rng, n_pos=1, n_neg=1, n_neutral=0)
    b = operator_with_range(m4, s, rng)
    c = feasible_rhs(m4, b, rng)
    z_good = k.solve_immso(b, c).solution
    z_bad = m4.operator(z_good.matrix + gaussian(rng, (4, 4)))
    for _ in range(20):
        j = k.random_fundamental_symmetry(m4, rng)
        assert k.verify_immso(z_good, b, c, j=j)
        assert not k.verify_immso(z_bad, b, c, j=j)


def test_random_fundamental_symmetry_properties(m4):
    rng = np.random.default_rng(41)
    for _ in range(10):
        j = k.random_fundamental_symmetry(m4, rng)
        assert (j @ j - m4.eye()).norm() < 1e-9
        assert (j.adjoint() - j).norm() < 1e-9
        metric = m4.gram @ j.matrix
        assert np.abs(metric - metric.conj().T).max() < 1e-9
        assert np.linalg.eigvalsh(0.5 * (metric + metric.conj().T)).min() > 0


def test_minmax_values_agree(m4):
    rng = np.random.default_rng(43)
    s = random_subspace(m4, rng, n_pos=1, n_neg=1, n_neutral=0)
    b = operator_with_range(m4, s, rng)
    c = feasible_rhs(m4, b, rng)
    vmm, vmx = k.minmax_value_identity(b, c)
    scale = max(1.0, c.norm()) ** 2
    assert (vmm - vmx).norm() <= 1e-9 * scale
    stationary = k.solve_immso(b, c)
    assert (vmm - stationary.value).norm() <= 1e-9 * scale


def test_minmax_vacuous_negative_part(m2):
    b = m2.operator(B1)
    c = m2.eye()
    vmm, vmx = k.minmax_value_identity(b, c)
    want = k.solve_ims(b, c).value
    assert (vmm - want).norm() < 1e-10
    assert (vmx - want).norm() < 1e-10


def test_minmax_errors(m2, m4):
    with pytest.raises(k.InfeasibleInstance):
        k.minmax_value_identity(m2.operator(B2), m2.eye())
    with pytest.raises(k.SpaceMismatch):
        k.minmax_value_identity(m2.operator(B1), m4.eye())
