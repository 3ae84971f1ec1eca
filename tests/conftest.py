"""Shared fixtures: spaces per signature and controlled-class generators.

Subspaces with a prescribed inertia are built from the space's definite
frames: positive directions from the plus frame, negative from the minus
frame, and neutral directions as normalized sums of one of each. The
resulting columns are orthonormal in the cached Hilbert product with
restricted Gram exactly diag(+1,...,-1,...,0,...), so the class of the
generated subspace is known by construction, not by re-classification.
"""

import os
from pathlib import Path

import numpy as np
import pytest

import kreinls as k

SRC = Path(k.__file__).resolve().parent.parent

SIGNATURES = [(1, 1), (2, 2), (3, 1), (2, 1)]


def make_signature_space(p, q, seed=None):
    """A space with inertia (p, q); seed=None gives the diagonal Gram."""
    n = p + q
    d = np.diag(np.concatenate([np.ones(p), -np.ones(q)]))
    if seed is None:
        return k.make_space(d)
    rng = np.random.default_rng(seed)
    w = np.eye(n) + 0.3 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    g = w.conj().T @ d @ w
    return k.make_space((g + g.conj().T) / 2.0)


def cli_env():
    """Environment for `python -m kreinls.cli` subprocesses.

    The CLI tests run the child with cwd=tests/data, where a relative
    PYTHONPATH such as `src` no longer resolves; put the absolute source
    directory of the imported kreinls first and keep the caller's path after it.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


@pytest.fixture
def m2():
    return k.make_space(np.diag([1.0, -1.0]))


@pytest.fixture
def m4():
    return k.make_space(np.diag([1.0, 1.0, -1.0, -1.0]))


@pytest.fixture
def h2():
    return k.make_space(np.eye(2))


def gaussian(rng, shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def random_unitary_columns(rng, rows, cols):
    q, _ = np.linalg.qr(gaussian(rng, (rows, max(cols, 1))))
    return q[:, :cols]


def random_subspace(space, rng, n_pos=0, n_neg=0, n_neutral=0):
    """Subspace with restricted-Gram inertia exactly (n_pos, n_neg, n_neutral)."""
    p_avail = space.basis_plus.shape[1]
    m_avail = space.basis_minus.shape[1]
    assert n_pos + n_neutral <= p_avail and n_neg + n_neutral <= m_avail
    up = random_unitary_columns(rng, p_avail, n_pos + n_neutral)
    um = random_unitary_columns(rng, m_avail, n_neg + n_neutral)
    plus = space.basis_plus @ up
    minus = space.basis_minus @ um
    cols = [plus[:, :n_pos], minus[:, :n_neg]]
    if n_neutral:
        cols.append((plus[:, n_pos:] + minus[:, n_neg:]) / np.sqrt(2.0))
    return k.subspace_from_spanning(space, np.hstack(cols))


def subspace_choices(space):
    """All inertia triples (n_pos, n_neg, n_neutral) realizable in the space."""
    p_avail = space.basis_plus.shape[1]
    m_avail = space.basis_minus.shape[1]
    out = []
    for t in range(min(p_avail, m_avail) + 1):
        for p in range(p_avail - t + 1):
            for m in range(m_avail - t + 1):
                if p + m + t:
                    out.append((p, m, t))
    return out


def degenerate_choices(space):
    return [c for c in subspace_choices(space) if c[2] > 0]


def operator_with_range(space, sub, rng):
    """Random operator whose range is exactly the given subspace."""
    if sub.dim == 0:
        return space.zero()
    return space.operator(sub.basis @ gaussian(rng, (sub.dim, space.dim)))


def operator_with_range_and_kernel(space, r_sub, n_sub, rng):
    """Random operator with prescribed range and null space (dims must add up)."""
    assert r_sub.dim + n_sub.dim == space.dim
    roundoff = np.linalg.norm(n_sub.basis) * np.linalg.norm(space.metric)
    comp = k.core.nullspace_matrix(space, n_sub.basis.conj().T @ space.metric, roundoff)
    a = gaussian(rng, (r_sub.dim, comp.shape[1]))
    a += 2.0 * np.eye(r_sub.dim)  # keep it comfortably full-rank
    return space.operator(r_sub.basis @ a @ comp.conj().T @ space.metric)


def feasible_rhs(space, b, rng):
    """C with R(C) inside R(B) + R(B)^[⊥]."""
    comp = k.orthogonal_companion(k.range_of(b))
    c = b.matrix @ gaussian(rng, (space.dim, space.dim))
    if comp.dim:
        c = c + comp.basis @ gaussian(rng, (comp.dim, space.dim))
    return space.operator(c)


def excluded_direction(space, b):
    """A vector outside R(B) + R(B)^[⊥], or None when that sum is everything.

    R(B) + R(B)^[⊥] = (S°)^[⊥] for the isotropic part S° of R(B). For the first
    basis vector s° of S°, [J s°, s°] = <s°, s°> = 1, so J s° lies outside.
    """
    iso = k.isotropic_part(k.range_of(b))
    if iso.dim == 0:
        return None
    return space.j @ iso.basis[:, 0]


def infeasible_rhs(space, b, rng):
    """C violating the range inclusion (requires a degenerate range)."""
    v = excluded_direction(space, b)
    if v is None:
        return None
    c = feasible_rhs(space, b, rng)
    return space.operator(c.matrix + np.outer(v, gaussian(rng, (space.dim,))))


def stationary_in_other_metrics(space, rng, shape, trials=20):
    """(B, C, Z1, Z_bad, [Z1' per J']): R(B) of inertia `shape`, a feasible C, the library's
    stationary solution Z1, Z1 plus a Gaussian matrix, and for each of `trials` random
    fundamental symmetries J' the normal-equation solution of least Frobenius norm in the
    metric M' = G J': Z1 less its M'-orthogonal projection onto N(B#B)."""
    b = operator_with_range(space, random_subspace(space, rng, *shape), rng)
    c = feasible_rhs(space, b, rng)
    z1 = k.solve_immso(b, c).solution
    z_bad = space.operator(z1.matrix + gaussian(rng, (space.dim, space.dim)))
    n = k.core.normal_nullspace(b).basis
    others = []
    for _ in range(trials):
        metric = space.gram @ k.random_fundamental_symmetry(space, rng).matrix
        metric = (metric + metric.conj().T) / 2.0
        step = np.linalg.solve(n.conj().T @ metric @ n, n.conj().T @ metric @ z1.matrix)
        others.append(space.operator(z1.matrix - n @ step))
    return b, c, z1, z_bad, others
