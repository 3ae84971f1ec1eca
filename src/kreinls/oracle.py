"""Independent checks: Krein positivity, operator order, minimality sampling.

Everything here is computed from the Gram matrix and classical dense linear
algebra; the solver modules are never imported at module level, so the
verdicts cannot inherit a solver bug. hilbert_limit_check imports the public
solver entry points lazily because there the solvers are the objects under
test, while the reference values stay classical.
"""

from dataclasses import dataclass

import numpy as np

from .core import herm, nullspace_matrix, spectral_norm
from .errors import KreinError, SpaceMismatch


@dataclass(frozen=True)
class Certificate:
    """Outcome of an oracle check.

    witness is present whenever verdict is False and can be fed back into the
    defining scalar inequality to reproduce the violation. min_eigen_seen is
    the smallest order-defining eigenvalue encountered (for the sampling
    checks) or the worst relative deviation (for hilbert_limit_check).
    """

    verdict: bool
    witness: object
    trials: int
    min_eigen_seen: float


def is_krein_positive(t):
    """[Tx, x] >= 0 for all x: G T Hermitian with nonnegative spectrum."""
    sp = t.space
    gt = sp.gram @ t.matrix
    scale = spectral_norm(gt)
    if scale == 0.0:
        return Certificate(True, None, 0, 0.0)
    skew = (gt - gt.conj().T) / 2.0
    w, v = np.linalg.eigh(herm(gt))
    lam_min = float(w[0])
    if spectral_norm(skew) > sp.tol.sym * scale:
        # the form [Tx, x] is not even real-valued; witness the worst direction
        ws, vs = np.linalg.eigh(skew / 1j)
        pick = int(np.argmax(np.abs(ws)))
        return Certificate(False, vs[:, pick].copy(), 0, lam_min)
    if lam_min >= -sp.tol.num * scale:
        return Certificate(True, None, 0, lam_min)
    return Certificate(False, v[:, 0].copy(), 0, lam_min)


def operator_leq(s, t):
    """S <= T in the positive-operator order: T - S is Krein positive."""
    return is_krein_positive(t - s)


_CHUNK_ENTRIES = 1 << 16  # entries in one stacked (T, n, n) array of competitors


def _ims_value(b, c, x):
    r = b @ x - c
    return r.adjoint() @ r


def certify_min(b, c, x0, trials=1000, seed=0):
    """Sample competitors and certify that x0 attains the operator minimum.

    Competitors cycle through unstructured Gaussian matrices, coordinate
    perturbations of x0, and members of the normal-equation manifold
    (tangent directions with range inside N(B#B)). Deterministic for a
    fixed seed.

    Competitors are drawn one trial at a time but evaluated in chunks, as
    stacked (T, n, n) arrays: chunks start at one trial and double, up to
    2^16 matrix entries per stack. The random stream and the certificate
    (verdict, first failing trial, its witness, min_eigen_seen) are those of
    testing each competitor in turn and stopping at the first failure;
    min_eigen_seen is 0.0 when no eigenvalue was seen. A competitor whose
    value is not finite raises KreinError.
    """
    if trials < 0:
        raise KreinError("trials must be nonnegative, got %d" % trials)
    sp = b.space
    n = sp.dim
    rng = np.random.default_rng(seed)
    v0 = _ims_value(b, c, x0)
    g = sp.gram
    base = max(spectral_norm(g @ v0.matrix), 1.0)
    kernel = nullspace_matrix(sp, (b.adjoint() @ b).matrix)
    cap = max(1, _CHUNK_ENTRIES // (n * n))

    def gaussian(shape):
        return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)

    min_seen = np.inf
    witness = None
    done = 0
    size = 1
    while done < trials:
        count = min(size, cap, trials - done)
        xs = np.empty((count, n, n), dtype=complex)
        for i in range(count):
            mode = (done + i) % 3
            if mode == 0:
                xs[i] = gaussian((n, n))
            elif mode == 1:
                bump = np.zeros((n, n), dtype=complex)
                bump[rng.integers(n), rng.integers(n)] = gaussian(())
                xs[i] = x0.matrix + bump
            else:
                coeff = gaussian((kernel.shape[1], n)) if kernel.shape[1] else np.zeros((0, n))
                xs[i] = x0.matrix + kernel @ coeff
        # the products of _ims_value(b, c, x) - v0 and G @ delta, in the same
        # order, so each stack entry carries the bits of the per-trial value
        r = b.matrix @ xs - c.matrix
        delta = sp._gram_inv @ r.conj().swapaxes(-1, -2) @ g @ r - v0.matrix
        gd = g @ delta
        # LAPACK fails on a NaN anywhere in the stack; zero those entries
        # so that a failure before them is still the one reported
        finite = np.isfinite(gd).all(axis=(1, 2))
        gd[~finite] = 0.0
        scale = np.maximum(_stacked_norm(gd), base)
        skewed = _stacked_norm(gd - gd.conj().swapaxes(-1, -2)) > sp.tol.sym * scale
        lam = np.linalg.eigvalsh(herm(gd))[:, 0]
        failed = np.flatnonzero(~finite | skewed | (lam < -sp.tol.num * scale))
        if failed.size:
            i = int(failed[0])
            if not finite[i]:
                raise KreinError("competitor %d has a non-finite value" % (done + i + 1))
            min_seen = lam[i] if not skewed[i] else min(min_seen, lam[:i].min(initial=np.inf))
            witness, done = xs[i].copy(), done + i + 1
            break
        min_seen = min(min_seen, lam.min())
        done += count
        size *= 2
    # no eigenvalue seen (no trials, or a skew failure at the first one)
    seen = float(min_seen) if np.isfinite(min_seen) else 0.0
    return Certificate(witness is None, witness, done, seen)


def _stacked_norm(a):
    """Spectral norm of each matrix in a (T, n, n) stack."""
    return np.linalg.svd(a, compute_uv=False)[:, 0]


def hilbert_limit_check(b, c=None, seed=0):
    """Cross-validate the library against classical formulas when G = I.

    With the identity Gram the adjoint must be the conjugate transpose, the
    indefinite Moore-Penrose inverse the classical pseudoinverse, and the
    attained least-squares value the classical residual Gram matrix.
    """
    sp = b.space
    eye = np.eye(sp.dim)
    if spectral_norm(sp.gram - eye) > sp.tol.sym:
        raise SpaceMismatch("hilbert_limit_check requires gram = I")
    from .ils import solve_ims
    from .pinv import krein_moore_penrose

    if c is None:
        c = sp.eye()

    worst = 0.0
    witness = None
    checks = 0

    def record(name, got, ref):
        nonlocal worst, witness, checks
        checks += 1
        dev = spectral_norm(got - ref) / max(1.0, spectral_norm(ref))
        if dev > worst:
            worst = dev
            witness = (name, got, ref)
        return dev

    record("adjoint", b.adjoint().matrix, b.matrix.conj().T)

    classical_pinv = np.linalg.pinv(b.matrix)
    mp = krein_moore_penrose(b)
    if not mp.feasible:
        return Certificate(False, ("moore_penrose_feasibility", None, None), checks, worst)
    record("moore_penrose", mp.solution.matrix, classical_pinv)

    if spectral_norm(b.matrix) > 0.0:
        report = solve_ims(b, c, seed=seed)
        if not report.feasible:
            return Certificate(False, ("ims_feasibility", None, None), checks, worst)
        residual = b.matrix @ (classical_pinv @ c.matrix) - c.matrix
        record("ims_value", report.value.matrix, residual.conj().T @ residual)

    verdict = worst <= 1e-10
    return Certificate(verdict, None if verdict else witness, checks, worst)
