"""Indefinite inverses and min/max operator least squares."""

import numpy as np
import pytest
from hypothesis import given, settings
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
    subspace_choices,
)
from test_oracle import _oracle_instance
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
        assert k.range_of(b).classification.regular == rep.feasible
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
    # B = diag(1e200, 0): B* G B overflows while U* G U does not; X = 0 is a minimum
    huge = m2.operator(np.diag([1e200, 0.0]))
    assert k.verify_ims(m2.zero(), huge, m2.operator(np.diag([0.0, 1.0])))
    # B* G R0 = diag(1e100, 0) against a cutoff of 1e90, which ||B||^2 ||X|| overflows on the way to
    assert not k.verify_ims(m2.operator(np.diag([1e-300, 0.0])), huge, 1e-300 * m2.eye())


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
    """On a nonnegative range, at 10x and 0.1x the cutoff tol.num ||G|| ||B|| (||B|| ||X||
    + ||C||), verify_ims decides as the SVD of the gradient B* G (BX - C) does."""
    sp = make_signature_space(p, q, seed=3 * p + q)
    rng = np.random.default_rng(71 + 5 * p + q)
    g, num = sp.gram, sp.tol.num

    def gradient(x, b, c):
        return np.linalg.norm(b.matrix.conj().T @ g @ (b @ x - c).matrix, 2)

    def cutoff(x, b, c):
        return num * sp.gram_norm * b.norm() * (b.norm() * x.norm() + c.norm())

    for n_pos in range(1, p + 1):
        for n_neutral in (0, 1) if min(p, q) >= 1 else (0,):
            if n_pos + n_neutral > p or n_neutral > q:
                continue
            b = operator_with_range(sp, random_subspace(sp, rng, n_pos, 0, n_neutral), rng)
            c = feasible_rhs(sp, b, rng)
            x0 = k.solve_immso(b, c).solution
            y = sp.operator(gaussian(rng, (sp.dim, sp.dim)))
            step = np.linalg.norm(b.matrix.conj().T @ g @ (b @ y).matrix, 2) / cutoff(x0, b, c)
            for ratio in (10.0, 0.1):
                x = x0 + y * (ratio / step)
                measured = gradient(x, b, c) / cutoff(x, b, c)
                assert ratio / 2 <= measured <= 2 * ratio
                assert k.verify_ims(x, b, c) == (measured <= 1.0)


def _maximal(x, b, c):
    """X maximizes (BX - C)#(BX - C) in (C^n, G) iff it minimizes it in (C^n, -G)."""
    neg = k.make_space(-b.space.gram)
    return k.verify_ims(*(neg.operator(t.matrix) for t in (x, b, c)))


# (solver, inertia p of a draw not onto neutral directions, the library check of its row):
# the minimum on a positive definite space, the maximum on a negative definite one (read
# as the minimum of the negated form), and the stationary problem on an indefinite one
ROWS = (
    (k.solve_ims, lambda n: n, k.verify_ims),
    (k.solve_imax, lambda n: 0, _maximal),
    (k.solve_immso, lambda n: n // 2, k.verify_immso),
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**20),
    n=st.integers(2, 4),
    cond=st.floats(0.0, 5.0),
    rank=st.none() | st.integers(1, 4),
    neutral=st.booleans(),
    ill=st.booleans(),
    exp=st.integers(-100, 100),
)
def test_verify_ims_accepts_minimizers_and_rejects_perturbed_ones(
    seed, n, cond, rank, neutral, ill, exp
):
    """Gram condition up to 1e10, B rank-deficient or with a column scaled by 1e-6, on the
    row's space (ROWS) or onto neutral directions, B and C scaled together by 10^exp: each
    row's solution passes its library check (verify_ims for the minimum and, on -G, the
    maximum; verify_immso for the stationary problem), and X0 + 1e-6 max(1, ||X0||)
    Gaussian fails unless R(B) is neutral by construction, where every X solves every row."""
    for solve, inertia, check in ROWS:
        p = n // 2 if neutral else inertia(n)
        b, c, _ = _oracle_instance(seed, n, p, cond, rank, False, 0.0, neutral)
        sp = b.space
        if ill:
            b = sp.operator(b.matrix * np.r_[1e-6, np.ones(n - 1)])
        rep = solve(b, c)
        assert rep.feasible, solve.__name__
        x0 = rep.solution
        b, c = sp.operator(10.0**exp * b.matrix), sp.operator(10.0**exp * c.matrix)
        assert check(x0, b, c), solve.__name__
        delta = 1e-6 * max(1.0, x0.norm()) * gaussian(np.random.default_rng(seed), (n, n))
        assert check(x0 + sp.operator(delta), b, c) == neutral, solve.__name__


def test_report_records_seed(m2):
    rep = k.solve_ims(m2.operator(B1), m2.eye(), seed=42)
    assert rep.seed == 42
