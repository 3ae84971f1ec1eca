"""Range splitting, the stationary problem and min-max value identities."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

import kreinls as k
from conftest import (
    feasible_rhs,
    gaussian,
    operator_with_range,
    random_subspace,
    stationary_in_other_metrics,
)
from test_core import _small_eigenvalue_range
from test_oracle import _oracle_instance

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


@pytest.mark.parametrize("cond", (0.0, 3.0, 4.0, 5.0, 5.5, 6.0))
def test_verify_immso_accepts_every_z_on_a_neutral_range(cond):
    """B onto neutral directions and C = B Γ give B#B = 0 and B#C = 0, so every Z is
    stationary: a Gaussian Z passes at Gram condition up to 1e12."""
    for n in (2, 3, 4):
        for seed in range(60):
            b, c, z = _oracle_instance(seed, n, n // 2, cond, None, False, 0.0, True)
            assert k.verify_immso(z, b, c), (n, seed)


@pytest.mark.parametrize("cond", (5.0, 5.5, 6.0))
def test_verify_immso_rejects_a_gap_along_a_small_eigenvalue_of_g(cond):
    """B = I and C = 0 leave Z = 0 alone stationary: Z0 = T on the line of G's smallest
    |eigenvalue| has a definite gap R(Z0), rejected at Gram condition 1e10 to 1e12."""
    for n in (2, 3, 4):
        for seed in range(60):
            sp, t = _small_eigenvalue_range(seed, n, cond)
            assert not k.verify_immso(t, sp.eye(), sp.zero()), (n, seed)


@pytest.mark.parametrize("cond", (0.0, 3.0, 4.0))
def test_verify_immso_rejects_a_neutral_gap_that_is_not_isotropic(cond):
    """Z1 + y w* with By = (f+ + f-)/sqrt 2, f+ and f- the first columns of the space's
    definite frames, leaves the gap B y w*: a neutral line of the regular R(B) = C^n of a
    Gaussian B, which is not Krein-orthogonal to R(B), so Z1 + y w* is not stationary."""
    for n in (2, 3, 4):
        for seed in range(60):
            b, c, _ = _oracle_instance(seed, n, n // 2, cond)
            sp = b.space
            y = np.linalg.solve(b.matrix, (sp.basis_plus[:, 0] + sp.basis_minus[:, 0]) / np.sqrt(2))
            w = gaussian(np.random.default_rng(seed), n)
            z = k.solve_immso(b, c).solution + sp.operator(np.outer(y, w.conj()))
            assert not k.verify_immso(z, b, c), (n, seed)


def test_verify_immso_infeasible_raises(m2):
    with pytest.raises(k.InfeasibleInstance):
        k.verify_immso(m2.eye(), m2.operator(B2), m2.eye())


def test_verify_immso_symmetry_independent(m4):
    """The minimum-norm solution in the metric of any fundamental symmetry J' is stationary
    and Z1 plus a Gaussian matrix is not. On a degenerate R(B) it differs from the library's
    Z1 by a gap B(Z1' - Z1) in the isotropic part of R(B), well above roundoff."""
    rng = np.random.default_rng(37)
    for shape in ((1, 1, 0), (1, 0, 1)):  # regular, then degenerate
        b, c, z1, z_bad, others = stationary_in_other_metrics(m4, rng, shape)
        assert k.verify_immso(z1, b, c) and not k.verify_immso(z_bad, b, c)
        for z in others:
            assert k.verify_immso(z, b, c)
            assert ((b @ (z - z1)).norm() > 1e-3) == (shape[2] > 0)


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
