"""Acceptance suite.

One test per criterion; each prints a single `criterion N PASS/FAIL` line
(run with -s to see the lines as they appear). The random suites are fully
seeded; signatures covered are (1,1), (2,2), (3,1), (2,1).
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import kreinls as k
from conftest import (
    SIGNATURES,
    cli_env,
    degenerate_choices,
    feasible_rhs,
    gaussian,
    infeasible_rhs,
    make_signature_space,
    operator_with_range,
    operator_with_range_and_kernel,
    random_subspace,
    stationary_in_other_metrics,
    subspace_choices,
)

DATA = Path(__file__).parent / "data"

SPACES = {
    (p, q): make_signature_space(p, q, seed=17 + 3 * p + q) for p, q in SIGNATURES
}


@pytest.fixture(scope="module", autouse=True)
def acceptance_start():
    """Criterion 10's clock: starts when this module's first test starts, not at
    collection, so tests of other modules run before it are not charged to it."""
    return time.monotonic()


class criterion:
    """Context manager that prints the one-line verdict and re-raises."""

    def __init__(self, number, title):
        self.number = number
        self.title = title

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        print("criterion %2d %s: %s" % (self.number, status, self.title), flush=True)
        return False


def rel(got, want):
    return (got - want).norm() / max(1.0, want.norm())


def random_operator(space, rng):
    """Operator with a random prescribed range inertia (or full rank)."""
    choices = subspace_choices(space)
    pick = int(rng.integers(len(choices) + 1))
    if pick == len(choices):
        return space.operator(gaussian(rng, (space.dim, space.dim)))
    sub = random_subspace(space, rng, *choices[pick])
    return operator_with_range(space, sub, rng)


def test_criterion_1_adjoint_axioms():
    with criterion(1, "adjoint axioms, 100 operators per signature, < 5 s"):
        start = time.monotonic()
        rng = np.random.default_rng(101)
        for sp in SPACES.values():
            n = sp.dim
            for _ in range(100):
                t = sp.operator(gaussian(rng, (n, n)))
                s = sp.operator(gaussian(rng, (n, n)))
                assert rel(t.adjoint().adjoint(), t) <= 1e-10
                assert rel((s @ t).adjoint(), t.adjoint() @ s.adjoint()) <= 1e-10
        assert time.monotonic() - start < 5.0


def test_criterion_2_inverse_biconditional():
    with criterion(2, "inverse feasibility iff regular range, 500 B per signature"):
        rng = np.random.default_rng(202)
        for sp in SPACES.values():
            for _ in range(500):
                b = random_operator(sp, rng)
                rep = k.indefinite_inverse(b)
                assert rep.feasible == k.classify(k.range_of(b)).regular


def test_criterion_3_ims_biconditional_with_certification():
    with criterion(3, "min-problem feasibility iff inclusion and nonnegativity, 500 pairs"):
        rng = np.random.default_rng(303)
        feasible_seen = infeasible_seen = 0
        for i in range(500):
            sp = SPACES[SIGNATURES[i % len(SIGNATURES)]]
            mode = i % 3
            if mode == 0:
                # nonnegative range and compatible right-hand side
                nonneg = [c for c in subspace_choices(sp) if c[1] == 0]
                sub = random_subspace(sp, rng, *nonneg[int(rng.integers(len(nonneg)))])
                b = operator_with_range(sp, sub, rng)
                c = feasible_rhs(sp, b, rng)
            elif mode == 1:
                b = random_operator(sp, rng)
                c = feasible_rhs(sp, b, rng)
            else:
                b = random_operator(sp, rng)
                c = infeasible_rhs(sp, b, rng)
                if c is None:
                    c = sp.operator(gaussian(rng, (sp.dim, sp.dim)))
            rep = k.solve_ims(b, c, seed=i)
            range_sub = k.range_of(b)
            inclusion = k.contains_columns(
                k.subspace_sum(range_sub, k.orthogonal_companion(range_sub)), c.matrix
            )
            nonnegative = k.classify(range_sub).nonnegative
            assert rep.feasible == (inclusion and nonnegative)
            if rep.feasible:
                feasible_seen += 1
                x = rep.solution
                scale = max(1.0, b.norm() * (b.norm() * x.norm() + c.norm()))
                assert rep.residual_normal_eq <= 1e-9 * scale
                assert k.certify_min(b, c, x, trials=1000, seed=i).verdict
            else:
                infeasible_seen += 1
        assert feasible_seen >= 100 and infeasible_seen >= 100


def test_criterion_4_closed_form_value():
    with criterion(4, "attained value equals C#(I-Q)C; degenerate gap inside isotropic part"):
        rng = np.random.default_rng(404)
        regular_seen = degenerate_seen = 0
        for sp in SPACES.values():
            for n_pos, n_neg, n_neutral in subspace_choices(sp):
                if n_neg:
                    continue
                for _ in range(10):
                    s = random_subspace(sp, rng, n_pos, n_neg, n_neutral)
                    b = operator_with_range(sp, s, rng)
                    c = feasible_rhs(sp, b, rng)
                    rep = k.solve_ims(b, c)
                    assert rep.feasible, rep.reason
                    if s.classification.regular:
                        regular_seen += 1
                        q = k.selfadjoint_projection(s).op
                    else:
                        degenerate_seen += 1
                        q = k.normal_projection(s).op
                        gap = (b @ rep.solution - q @ c).matrix
                        # gap component outside the isotropic part, i.e. the
                        # sine of the largest principal angle scaled by the gap
                        iso_on, _ = np.linalg.qr(k.isotropic_part(s).basis)
                        outside = gap - iso_on @ (iso_on.conj().T @ gap)
                        assert np.linalg.norm(outside) <= 1e-8 * max(
                            1.0, np.linalg.norm(gap)
                        )
                    closed = c.adjoint() @ (sp.eye() - q) @ c
                    assert (rep.value - closed).norm() <= 1e-9 * max(
                        1.0, c.norm() ** 2, closed.norm()
                    )
        assert regular_seen and degenerate_seen


def test_criterion_5_minmax_suite():
    with criterion(5, "split invariants, min-max equals max-min, symmetry-independent verify"):
        rng = np.random.default_rng(505)
        for sp in SPACES.values():
            choices = subspace_choices(sp)
            for i in range(15):
                s = random_subspace(sp, rng, *choices[i % len(choices)])
                b = operator_with_range(sp, s, rng)
                split = k.split_operator(b)
                scale = max(1.0, b.norm())
                assert (split.b_plus + split.b_minus - b).norm() <= 1e-10 * scale
                assert (split.b_plus.adjoint() @ split.b_minus).norm() <= 1e-10 * scale**2
                c = feasible_rhs(sp, b, rng)
                vmm, vmx = k.minmax_value_identity(b, c)
                cscale = max(1.0, c.norm()) ** 2
                assert (vmm - vmx).norm() <= 1e-9 * cscale
                if s.classification.regular and s.dim:
                    q = k.selfadjoint_projection(s).op
                    closed = c.adjoint() @ (sp.eye() - q) @ c
                    q_plus = k.selfadjoint_projection(split.s_plus).op
                    q_minus = k.selfadjoint_projection(split.s_minus).op
                    factored = (
                        c.adjoint() @ (sp.eye() - q_minus) @ (sp.eye() - q_plus) @ c
                    )
                    assert (vmm - closed).norm() <= 1e-9 * cscale
                    assert (closed - factored).norm() <= 1e-9 * cscale

        for shape in ((1, 1, 0), (1, 0, 1)):  # regular, then degenerate
            b, c, z_good, z_bad, others = stationary_in_other_metrics(SPACES[(2, 2)], rng, shape)
            assert k.verify_immso(z_good, b, c)
            assert not k.verify_immso(z_bad, b, c)
            assert all(k.verify_immso(z, b, c) for z in others)


def test_criterion_6_moore_penrose():
    with criterion(6, "Moore-Penrose fixtures to 1e-12; 200 classical matches with G = I"):
        m2 = k.make_space(np.diag([1.0, -1.0]))
        b1 = m2.operator(np.diag([1.0, 0.0]))
        rep = k.krein_moore_penrose(b1)
        assert rep.feasible
        assert np.abs(rep.solution.matrix - np.diag([1.0, 0.0])).max() <= 1e-12

        b3 = m2.operator([[1.0, 1.0], [0.0, 0.0]])
        rep3 = k.krein_moore_penrose(b3)
        assert not rep3.feasible
        gi = k.canonical_pair(b3)
        assert np.abs(gi.d.matrix - np.array([[0.5, 0.0], [0.5, 0.0]])).max() <= 1e-12
        assert np.abs((b3 @ gi.d).matrix - np.diag([1.0, 0.0])).max() <= 1e-12
        assert np.abs((gi.d @ b3).matrix - 0.5 * np.ones((2, 2))).max() <= 1e-12

        h4 = k.make_space(np.eye(4))
        rng = np.random.default_rng(606)
        for i in range(200):
            mat = gaussian(rng, (4, 4))
            if i % 4 == 0:
                mat[:, 1] = mat[:, 2]
            if i % 7 == 0:
                mat[0] = 0.0
            rep = k.krein_moore_penrose(h4.operator(mat))
            assert rep.feasible
            assert np.abs(rep.solution.matrix - np.linalg.pinv(mat)).max() <= 1e-10


def test_criterion_7_variational_characterization():
    with criterion(7, "min-norm minimizer equals Moore-Penrose; 1000 competitors; ladder agrees"):
        rng = np.random.default_rng(707)
        sp = SPACES[(2, 2)]
        competitors = 0
        for _ in range(10):
            r_sub = random_subspace(sp, rng, 2, 0, 0)
            n_sub = random_subspace(sp, rng, 2, 0, 0)
            b = operator_with_range_and_kernel(sp, r_sub, n_sub, rng)
            assert k.classify(k.range_of(b)).uniformly_positive
            assert k.classify(k.nullspace_of(b)).uniformly_positive
            mn = k.solve_min_ims_norm(b, sp.eye())
            mp = k.krein_moore_penrose(b)
            assert mn.feasible and mp.feasible
            assert (mn.solution - mp.solution).norm() <= 1e-9 * max(1.0, mp.solution.norm())
            x1 = mn.solution
            v1 = (x1.adjoint() @ x1).matrix
            ims = k.solve_ims(b, sp.eye())
            for _ in range(100):
                y = ims.manifold.sample(rng)
                dev = (y.adjoint() @ y).matrix - v1
                gd = 0.5 * (sp.gram @ dev + (sp.gram @ dev).conj().T)
                scale = max(1.0, np.abs(gd).max(), y.norm() ** 2)
                assert np.linalg.eigvalsh(gd).min() >= -1e-9 * scale
                competitors += 1
        assert competitors == 1000

        for space in SPACES.values():
            for _ in range(25):
                audit = k.mp_variational_check(random_operator(space, rng))
                assert audit.feasible, audit.reason
                assert audit.reason != "EquivalenceLadderBroken"


def test_criterion_8_round_trip_and_normality():
    with criterion(8, "generalized-inverse identities, normality, rebuild round trip"):
        rng = np.random.default_rng(808)
        built = []
        for sp in SPACES.values():
            for _ in range(25):
                b = random_operator(sp, rng)
                built.append((b, k.canonical_pair(b)))
        m2 = k.make_space(np.diag([1.0, -1.0]))
        b3 = m2.operator([[1.0, 1.0], [0.0, 0.0]])
        built.append((b3, k.canonical_pair(b3)))
        for b, gi in built:
            d = gi.d
            scale = max(1.0, b.norm()) ** 2 * max(1.0, d.norm()) ** 2
            assert (b @ d @ b - b).norm() <= 1e-9 * scale
            assert (d @ b @ d - d).norm() <= 1e-9 * scale
            bd = b @ d
            db = d @ b
            assert (bd @ bd.adjoint() - bd.adjoint() @ bd).norm() <= 1e-9 * scale
            assert (db @ db.adjoint() - db.adjoint() @ db).norm() <= 1e-9 * scale
            rebuilt = k.rebuild_generalized_inverse(b, d)
            assert (rebuilt.d - d).norm() <= 1e-9 * max(1.0, d.norm())


def test_criterion_9_normal_projection_recipe():
    with criterion(9, "normal projections on 200 degenerate subspaces per signature"):
        rng = np.random.default_rng(909)
        failures = 0
        for sp in SPACES.values():
            degen = degenerate_choices(sp)
            for i in range(200):
                s = random_subspace(sp, rng, *degen[i % len(degen)])
                proj = k.normal_projection(s)
                op = proj.op
                adj = op.adjoint()
                scale = max(1.0, op.norm()) ** 2
                ok = (
                    (op @ op - op).norm() <= 1e-9 * scale
                    and (op @ adj - adj @ op).norm() <= 1e-9 * scale
                    and k.subspace_equal(k.range_of(op), s)
                )
                failures += not ok
        assert failures == 0

        sp = SPACES[(2, 2)]
        degen = degenerate_choices(sp)
        samples = 0
        while samples < 1000:
            s = random_subspace(sp, rng, *degen[samples % len(degen)])
            proj = k.normal_projection(s)
            inside = k.subspace_sum(s, k.orthogonal_companion(s))
            for _ in range(20):
                if samples % 2:
                    y = inside.basis @ gaussian(rng, (inside.dim,))
                else:
                    y = gaussian(rng, (sp.dim,))
                member = k.contains_columns(inside, y)
                assert k.companion_identity_check(proj, y) == member
                samples += 1


def test_criterion_10_runtime_and_cli_stability(acceptance_start):
    with criterion(10, "acceptance runtime under 60 s; CLI reports byte-stable"):
        stable_cases = [
            ["pinv", "--space", "m2.json", "--b", "b1.json"],
            ["solve-ils", "--space", "m2.json", "--b", "b1.json", "--c", "eye2.json", "--seed", "7"],
            ["oracle", "--space", "m2.json", "--b", "b1.json", "--c", "eye2.json", "--x", "b1.json", "--seed", "7"],
        ]
        for argv in stable_cases:
            cmd = [sys.executable, "-m", "kreinls.cli", *argv]
            first = subprocess.run(cmd, cwd=DATA, env=cli_env(), capture_output=True)
            second = subprocess.run(cmd, cwd=DATA, env=cli_env(), capture_output=True)
            assert first.returncode == second.returncode
            assert first.stdout == second.stdout
            json.loads(first.stdout)  # well-formed report
        assert time.monotonic() - acceptance_start < 60.0
