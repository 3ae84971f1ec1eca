"""Properties of the verdicts: what leaves the mathematics unchanged leaves them unchanged."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import kreinls as k
from conftest import (
    SIGNATURES,
    degenerate_choices,
    feasible_rhs,
    gaussian,
    infeasible_rhs,
    make_signature_space,
    operator_with_range,
    operator_with_range_and_kernel,
    random_subspace,
    random_unitary_columns,
    subspace_choices,
)
from kreinls.core import _norm_bracket, metric_svd
from kreinls.ils import regular_range_rank_check
from test_pinv import _degenerate_normal_nullspace_draws

SPACES = [make_signature_space(p, q, seed=29 + 3 * p + q) for p, q in SIGNATURES]


def degenerate_factors(seed):
    """(S, Γ, B, C, reachable) of degenerate_instance(seed), with B = S Γ and S
    the metric-orthonormal basis of R(B)."""
    rng = np.random.default_rng(seed)
    sp = SPACES[seed % len(SPACES)]
    choices = degenerate_choices(sp)
    sub = random_subspace(sp, rng, *choices[int(rng.integers(len(choices)))])
    gamma = gaussian(rng, (sub.dim, sp.dim))  # as operator_with_range draws it
    b = sp.operator(sub.basis @ gamma)
    reachable = bool(rng.integers(2))
    c = feasible_rhs(sp, b, rng) if reachable else infeasible_rhs(sp, b, rng)
    return sub.basis, gamma, b, c, reachable


def degenerate_instance(seed):
    """(B, C, reachable): R(B) has neutral directions, C is built in or out of reach.

    C is None when infeasible_rhs finds no excluded direction, which happens
    only when R(B) comes out regular.
    """
    return degenerate_factors(seed)[2:]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**20),
    b_exp=st.floats(-100.0, 100.0),
    c_exp=st.floats(-100.0, 100.0),
)
def test_verdicts_are_scale_invariant(seed, b_exp, c_exp):
    b, c, reachable = degenerate_instance(seed)
    assume(c is not None)
    sp = b.space
    b_scaled = sp.operator(10.0**b_exp * b.matrix)
    c_scaled = sp.operator(10.0**c_exp * c.matrix)
    for solve in (k.solve_ims, k.solve_imax, k.solve_immso):
        conditions = solve(b, c).conditions
        assert conditions["range_inclusion"] == reachable, solve.__name__
        assert solve(b_scaled, c_scaled).conditions == conditions, solve.__name__


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**20), a=st.floats(0.1, 1.0))
def test_verdicts_are_congruence_invariant(seed, a):
    """G -> W*GW, B -> W^-1 B W, C -> W^-1 C W, W = I + a Gaussian, is a change
    of coordinates: every verdict and reason stays.

    B' = (W^-1 S)(Γ W) is formed from B's thin factors: a dense W^-1 B W would
    put roundoff of order eps cond(W) ||B|| into the data, and change its rank.
    """
    s, gamma, b, c, _ = degenerate_factors(seed)
    assume(c is not None)
    n = b.space.dim
    w = np.eye(n) + a * gaussian(np.random.default_rng((seed, 7)), (n, n))
    w_inv = np.linalg.inv(w)
    sp = k.make_space(w.conj().T @ b.space.gram @ w)
    b_moved, c_moved = sp.operator((w_inv @ s) @ (gamma @ w)), sp.operator(w_inv @ c.matrix @ w)
    for solve in (k.solve_ims, k.solve_imax, k.solve_immso, k.solve_min_ims_norm):
        want, got = solve(b, c), solve(b_moved, c_moved)
        assert (got.feasible, got.reason) == (want.feasible, want.reason), solve.__name__
    want, got = k.krein_moore_penrose(b), k.krein_moore_penrose(b_moved)
    assert (got.feasible, got.reason) == (want.feasible, want.reason)


def _boolean_certificates(rep):
    return {name: v for name, v in rep.certificates.items() if isinstance(v, bool)}


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**20), exp=st.floats(-100.0, 100.0))
def test_certificates_are_scale_invariant(seed, exp):
    """Scaling B and C together by 10^exp leaves every boolean certificate unchanged."""
    b, c, _ = degenerate_instance(seed)
    assume(c is not None)
    sp = b.space
    b_scaled, c_scaled = sp.operator(10.0**exp * b.matrix), sp.operator(10.0**exp * c.matrix)
    for solve in (k.solve_ims, k.solve_imax, k.solve_min_ims_norm):
        want, got = solve(b, c), solve(b_scaled, c_scaled)
        assert got.feasible == want.feasible, solve.__name__
        if want.feasible:
            assert _boolean_certificates(got) == _boolean_certificates(want), solve.__name__


def test_verify_immso_is_scale_invariant():
    """Scaling C and the candidate together by 2^e (exact) leaves verify_immso's verdict on
    X0, X0 + 1e-3 Gaussian and 0 unchanged: its zero-gap test is negligible against the
    roundoff of forming B (Z0 - Z1), which scales with them."""
    changed, checked = [], 0
    for seed in range(100):
        b, c, _ = degenerate_instance(seed)
        if c is None or not k.solve_immso(b, c).feasible:
            continue
        sp, x0 = b.space, k.solve_immso(b, c).solution.matrix
        noise = 1e-3 * gaussian(np.random.default_rng(seed), x0.shape)
        for z in (x0, x0 + noise, np.zeros_like(x0)):
            want = k.verify_immso(sp.operator(z), b, c)
            for e in (-80, -40, -20, 20, 40):
                f = 2.0**e
                checked += 1
                if k.verify_immso(sp.operator(f * z), b, sp.operator(f * c.matrix)) != want:
                    changed.append((seed, e))
    assert (checked, changed) == (825, [])


@pytest.mark.parametrize("exp, checked", ((-100, 412), (-8, 424)))
def test_verify_immso_is_gram_scale_invariant(exp, checked):
    """G -> 10^exp G leaves B# and the stationary problem alone, and no verdict of
    verify_immso on X0 or X0 + 1e-6 Gaussian changes, on the draws feasible at both
    scales. There the absolute neutral cutoff (ROADMAP direction 7) moves the library's Z1
    by an isotropic gap, and the gap of X0 + 1e-6 Gaussian is that part plus a non-stationary
    one: not Krein-orthogonal to R(B) to first order, but neutral to second, which a
    neutrality test took for roundoff (99 and 79 verdicts changed). exp > 0 is left out: at
    G x 1e100 that cutoff reads R(B) as Neutral, which moves Z1 off the solutions and
    changes 102 of 424 verdicts."""
    changed, count = [], 0
    for seed in range(400):
        b, c, _ = degenerate_instance(seed)
        if c is None or not k.solve_immso(b, c).feasible:
            continue
        sp, far = b.space, k.make_space(10.0**exp * b.space.gram)
        b_far, c_far = far.operator(b.matrix), far.operator(c.matrix)
        if not k.solve_immso(b_far, c_far).feasible:
            continue
        x0 = k.solve_immso(b, c).solution.matrix
        for z in (x0, x0 + 1e-6 * gaussian(np.random.default_rng(seed), x0.shape)):
            count += 1
            want = k.verify_immso(sp.operator(z), b, c)
            if k.verify_immso(far.operator(z), b_far, c_far) != want:
                changed.append(seed)
    assert (count, changed) == (checked, [])


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**20),
    y_exp=st.floats(-150.0, 150.0),
    z_exp=st.floats(-150.0, 150.0),
)
def test_range_inclusion_is_scale_invariant(seed, y_exp, z_exp):
    """R(Z) ⊆ R(Y) for Z = Y X with Y and Z at any scales, and not once Z gains a
    direction off R(Y); solve_douglas factors the first and refuses the second."""
    rng = np.random.default_rng(seed)
    sp = SPACES[seed % len(SPACES)]
    n = sp.dim
    r = int(rng.integers(1, n))
    frame = random_unitary_columns(rng, n, r + 1)  # R(Y), and a direction off it last
    y0 = frame[:, :r] @ gaussian(rng, (r, n))
    z0 = y0 @ gaussian(rng, (n, n))
    off = np.outer(frame[:, r], gaussian(rng, (n,)))
    y = sp.operator(10.0**y_exp * y0)
    z = sp.operator(10.0**z_exp * z0)
    outside = sp.operator(10.0**z_exp * (z0 + off))
    assert k.range_inclusion(z, y)
    d = k.solve_douglas(y, z)
    assert (y @ d - z).norm() <= 1e-10 * y.norm() * d.norm()
    assert not k.range_inclusion(outside, y)
    with pytest.raises(k.NoFactorization):
        k.solve_douglas(y, outside)


def _solve_ims_feasible(seed):
    b, c, _ = degenerate_instance(seed)
    return c is not None and k.solve_ims(b, c).feasible


FEASIBLE_SEEDS = [seed for seed in range(60) if _solve_ims_feasible(seed)]


@pytest.mark.parametrize("seed", FEASIBLE_SEEDS)
def test_solution_is_scale_invariant(seed):
    """Scaling B and C together by 10^±50 and 10^±100 leaves X0 unchanged."""
    b, c, _ = degenerate_instance(seed)
    sp = b.space
    x0 = k.solve_ims(b, c).solution.matrix
    for exp in (-100, -50, 50, 100):
        scale = 10.0**exp
        rep = k.solve_ims(sp.operator(scale * b.matrix), sp.operator(scale * c.matrix))
        assert rep.feasible, exp
        assert np.linalg.norm(rep.solution.matrix - x0) <= 1e-6 * np.linalg.norm(x0), exp


def _instances(seeds):
    for seed in seeds:
        b, c, _ = degenerate_instance(seed)
        if c is not None:
            yield seed, b, c


def test_solution_manifold_has_exact_dimension():
    """N(B#B) = N(B) + (the preimage of the isotropic part of R(B)), on every feasible report."""
    checked = 0
    for seed, b, c in _instances(range(400)):
        rep = k.solve_ims(b, c)
        if rep.feasible:
            want = k.nullspace_of(b).dim + k.range_of(b).classification.n_zero
            assert rep.manifold.perturbation_space.dim == want, seed
            checked += 1
    assert checked > 100


def test_min_norm_solution_solves_the_normal_equation():
    checked = 0
    for seed, b, c in _instances(range(400)):
        rep = k.solve_min_ims_norm(b, c)
        if rep.feasible:
            x = rep.solution
            scale = max(1.0, b.norm() * (b.norm() * x.norm() + c.norm()))
            assert (b.adjoint() @ (b @ x - c)).norm() <= b.space.tol.num * scale, seed
            checked += 1
    assert checked > 0


def test_huge_operator_keeps_the_conditions():
    """B scaled by 1e160: nothing overflows, because no solver forms B#B and
    indefinite_inverse's rank remark is read off the kept range analysis."""
    for seed, b, c in _instances(range(60)):
        huge = b.space.operator(1e160 * b.matrix)
        for solve in (k.solve_ims, k.solve_min_ims_norm):
            assert solve(huge, c).conditions == solve(b, c).conditions, (seed, solve.__name__)
        got, want = k.indefinite_inverse(huge), k.indefinite_inverse(b)
        assert got.conditions == want.conditions, seed
        remark = "regularity_rank_remark"
        assert got.certificates[remark] == want.certificates[remark], seed


def _seeded_operators():
    """Every range inertia, full and zero rank, prescribed kernels, and the two
    draws of test_pinv whose R(B) the default cutoff found one too large."""
    rng = np.random.default_rng(97)
    for sp in SPACES:
        for choice in subspace_choices(sp):
            r_sub = random_subspace(sp, rng, *choice)
            yield operator_with_range(sp, r_sub, rng)
            if sp.dim - r_sub.dim <= sp.signature[0]:
                n_sub = random_subspace(sp, rng, n_pos=sp.dim - r_sub.dim)
                yield operator_with_range_and_kernel(sp, r_sub, n_sub, rng)
        yield sp.operator(gaussian(rng, (sp.dim, sp.dim)))
        yield sp.zero()
    draws = list(_degenerate_normal_nullspace_draws(81))
    for index in (0, 80):
        b = draws[index][0]
        yield k.make_space(b.space.gram).operator(b.matrix)


def _assert_rank_nullity(b):
    assert k.range_of(b).dim + k.nullspace_of(b).dim == b.space.dim


def test_rank_nullity_on_seeded_operators():
    """range_of and nullspace_of decide one rank."""
    for b in _seeded_operators():
        _assert_rank_nullity(b)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**20), exp=st.floats(-100.0, 100.0))
def test_rank_nullity_on_degenerate_ranges(seed, exp):
    b, _, _ = degenerate_instance(seed)
    _assert_rank_nullity(b.space.operator(10.0**exp * b.matrix))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**20), n=st.integers(1, 6), exp=st.floats(-50.0, 50.0))
def test_pseudo_inverse_is_the_classical_one_when_g_is_identity(seed, n, exp):
    """With G = I the metric pseudoinverse is numpy's, on a rank with a clear gap."""
    rng = np.random.default_rng(seed)
    rank = int(rng.integers(n + 1))
    u, v = random_unitary_columns(rng, n, rank), random_unitary_columns(rng, n, rank)
    m = 10.0**exp * (u * rng.uniform(1.0, 2.0, rank)) @ v.conj().T
    got = k.core.pseudo_inverse(k.make_space(np.eye(n)).operator(m)).matrix
    want = np.linalg.pinv(m)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def _scaled(t, e):
    """T times 2^e, exact while every entry stays normal."""
    return t.space.operator(math.ldexp(1.0, e) * t.matrix)


def test_subnormal_operands_reach_every_reader_of_the_scaling_rule():
    """At B times 1e-310 the largest entry is subnormal, where 2^-e of the largest
    entry's exponent overflows; scaled_to_unit clamps e, so every reader answers.

    The entries themselves lose bits there, so the answers are not compared with
    the unscaled ones; at 2^+-1000 every entry stays normal and they are.
    """
    wrong = []
    for seed in range(40):
        b, c, _ = degenerate_instance(seed)
        sp = b.space
        tiny = sp.operator(1e-310 * b.matrix)
        answers = [
            k.range_inclusion(tiny, b),
            k.neutral_range(tiny),
            regular_range_rank_check(tiny),
            k.certify_min(tiny, b, sp.eye(), trials=12).verdict,
        ]
        if not all(isinstance(a, bool) for a in answers):
            wrong.append((seed, "1e-310"))
        for e in (1000, -1000):
            big = _scaled(b, e)
            pairs = [
                (k.neutral_range(big), k.neutral_range(b)),
                (regular_range_rank_check(big), regular_range_rank_check(b)),
            ]
            if c is not None:
                pairs.append((k.range_inclusion(c, big), k.range_inclusion(c, b)))
                pairs.append((k.range_inclusion(_scaled(c, e), b), k.range_inclusion(c, b)))
            if any(got != want for got, want in pairs):
                wrong.append((seed, e))
    assert not wrong, wrong


def test_rank_margins_are_positive_on_degenerate_factors():
    """B = S Γ has rank r = columns of S: metric_svd's s_r lies above the cutoff
    _rank_of_singulars forms from its floor kappa ||B||_F, and s_(r+1) below it, at
    B, 2^1000 B and 2^-1000 B. Both margins are in decades; neither may be 0."""
    above, below = [], []
    for seed in range(400):
        s, _, b, _, _ = degenerate_factors(seed)
        sp, r = b.space, s.shape[1]
        for t in (b, _scaled(b, 1000), _scaled(b, -1000)):
            sv = metric_svd(t)[1]
            cutoff = sp._rank_tol * max(sv[0], sp._kappa * _norm_bracket(t)[1])
            above.append((np.log10(sv[r - 1] / cutoff), seed))
            if r < sp.dim:
                with np.errstate(divide="ignore"):  # s_(r+1) may be an exact 0
                    below.append((np.log10(cutoff / sv[r]), seed))
    assert min(above)[0] > 0.0, min(above)
    assert min(below)[0] > 0.0, min(below)


def _near_cutoff_subspace(rng, sp):
    """x = cos t b+0 + sin t b-0 with [x, x] = cos 2t within 4e-16 of the neutral
    cutoff, with b+1 and/or b-1 added and mixed by a random complex matrix.

    The frame columns are metric-orthonormal and G-orthogonal, so the restricted
    Gram has the eigenvalue cos 2t next to ±1: its sign decision is roundoff.
    """
    plus, minus = sp.basis_plus, sp.basis_minus
    cos2t = sp.neutral_cutoff() * rng.choice([-1.0, 1.0]) + rng.uniform(-4e-16, 4e-16)
    t = np.arccos(cos2t) / 2.0
    cols = [np.cos(t) * plus[:, 0] + np.sin(t) * minus[:, 0]]
    extras = [f[:, 1] for f in (plus, minus) if f.shape[1] > 1]
    cols += [e for e in extras if rng.integers(2)] or extras[:1]
    a = np.column_stack(cols)
    return k.subspace_from_spanning(sp, a @ gaussian(rng, (a.shape[1], a.shape[1])))


def _near_cutoff_draws():
    """2000 near-cutoff subspaces (rng 61), each with its space."""
    rng = np.random.default_rng(61)
    spaces = [sp for sp in SPACES if max(sp.signature) > 1]
    for trial in range(2000):
        sp = spaces[trial % len(spaces)]
        yield sp, _near_cutoff_subspace(rng, sp)


def test_inertia_agrees_with_the_parts_near_the_neutral_cutoff():
    """classification, isotropic_part, regular_part and decompose_subspace decide one sign."""
    for trial, (_, s) in enumerate(_near_cutoff_draws()):
        cls = s.classification
        s_plus, s_minus = k.decompose_subspace(s)
        n_zero = k.isotropic_part(s).dim
        inertia = (s_plus.dim, s_minus.dim - n_zero, n_zero)
        assert (cls.n_positive, cls.n_negative, cls.n_zero) == inertia, trial
        assert cls.n_positive + cls.n_negative == k.core.regular_part(s).dim, trial


def test_selfadjoint_projection_near_the_neutral_cutoff_is_selfadjoint():
    """On every draw that classifies as regular, the selfadjoint projection is the kept
    normal projection, idempotent and G-selfadjoint within n eps max(1, ||Q||)^2, and
    projection_from_matrix reads it back as Selfadjoint.

    The restricted Gram has an eigenvalue at the neutral cutoff, so it is ill
    conditioned: Q read off its eigh is G-selfadjoint by construction, where a
    solve against it is not.
    """
    regular = 0
    for sp, s in _near_cutoff_draws():
        if not s.classification.regular:
            continue
        regular += 1
        q = k.selfadjoint_projection(s)
        assert q.op is k.normal_projection(s).op
        bound = sp.dim * np.finfo(float).eps * max(1.0, q.op.norm()) ** 2
        assert (q.op @ q.op - q.op).norm() <= bound, regular
        assert (q.op.adjoint() - q.op).norm() <= bound, regular
        assert k.projection_from_matrix(sp, q.matrix).kind is k.ProjectionKind.SELFADJOINT, regular
    assert regular == 942


@pytest.mark.xfail(
    strict=True, reason="S^o is decided at NEUTRAL_TOL, normality at tol.num (see CHANGES.md)"
)
def test_normal_projection_near_the_neutral_cutoff_is_read_back_as_normal():
    """The library accepts its own normal projections onto the draws that classify
    as degenerate: generalized_inverse takes them for B = S Γ, and
    projection_from_matrix does not read them as Oblique.

    The neutral cutoff keeps as isotropic an eigenvalue of about 1e-8 ||G||; the
    commutator QQ# - Q#Q of the projection built on it is of that order, against
    the tol.num = 1e-10 normality test.
    """
    draws = list(_near_cutoff_draws())
    sp, s = next((sp, s) for sp, s in draws if not s.classification.regular)
    b = sp.operator(s.basis @ gaussian(np.random.default_rng(0), (s.dim, sp.dim)))
    k.generalized_inverse(
        b, k.normal_projection(k.range_of(b)), k.normal_projection(k.nullspace_of(b))
    )
    oblique = [
        index
        for index, (space, sub) in enumerate(draws)
        if not sub.classification.regular
        and k.projection_from_matrix(space, k.normal_projection(sub).matrix).kind
        is k.ProjectionKind.OBLIQUE
    ]
    assert oblique == []
