"""Independent checks: Krein positivity, and a sampled audit of minimality (certify_min,
the `oracle` command's; ils.verify_ims decides minimality from B* G B without it).

Everything here is computed from the Gram matrix and classical dense linear
algebra; the solver modules are never imported at module level, so the
verdicts cannot inherit a solver bug. hilbert_limit_check imports the public
solver entry points lazily because there the solvers are the objects under
test, while the reference values stay classical.
"""

from dataclasses import dataclass

import numpy as np

from .core import SYM_TOL, classical_form, herm, negligible, norm_at_most, nullspace_matrix
from .core import same_space, spectral_norm
from .errors import KreinError, SpaceMismatch


@dataclass(frozen=True)
class Certificate:
    """Outcome of an oracle check.

    witness is present whenever verdict is False and can be fed back into the
    defining scalar inequality to reproduce the violation. min_eigen_seen is
    the smallest order-defining eigenvalue (is_krein_positive, and certify_min
    on accept), the failing competitor's (certify_min on reject), or the
    worst relative deviation (hilbert_limit_check).
    """

    verdict: bool
    witness: object
    trials: int
    min_eigen_seen: float


def is_krein_positive(t):
    """[Tx, x] >= 0 for all x: G T Hermitian with nonnegative spectrum.

    Both tests scale with ||G|| ||T||, that of the roundoff in forming G T: the
    skew part at SYM_TOL, the smallest eigenvalue through negligible."""
    sp = t.space
    if not t.matrix.any():
        return Certificate(True, None, 0, 0.0)
    gt = sp.gram @ t.matrix
    skew = (gt - gt.conj().T) / 2.0
    w, v = np.linalg.eigh(herm(gt))
    lam_min = float(w[0])
    if not norm_at_most(skew, SYM_TOL, (t, sp.gram_norm)):
        # the form [Tx, x] is not even real-valued; witness the worst direction
        ws, vs = np.linalg.eigh(skew / 1j)
        pick = int(np.argmax(np.abs(ws)))
        return Certificate(False, vs[:, pick].copy(), 0, lam_min)
    if lam_min >= 0.0 or negligible(np.array([lam_min]), (t, sp.gram_norm)):
        return Certificate(True, None, 0, lam_min)
    return Certificate(False, v[:, 0].copy(), 0, lam_min)


_CHUNK_ENTRIES = 1 << 16  # entries in one stacked (T, n, n) array of competitors


def certify_min(b, c, x0, trials=1000, seed=0):
    """Sample competitors and certify that x0 attains the operator minimum.

    X0 is a minimum iff G(V(X) - V(X0)) is positive semidefinite for every X,
    where V(X) = (BX - C)#(BX - C). With R = BX - C this is evaluated as
    herm(R* G R) - herm(R0* G R0): Hermitian by construction, no inverse of G.
    Competitor t (counted from 0) is a Gaussian matrix when t % 3 == 0, x0
    plus one Gaussian entry when t % 3 == 1, and x0 plus a tangent direction
    with range inside N(B#B) = N(H), H = U* G U the classical form of B
    (core.classical_form), when t % 3 == 2. Deterministic for a fixed seed.

    Competitors come in chunks of stacked (T, n, n) arrays: chunks start at
    one trial and double, up to 2^16 matrix entries per stack. A chunk takes
    one rng call per draw, in the order Gaussian stack, bump positions, bump
    values, tangent coefficients, and one batched eigvalsh. The values are
    formed in row form, R* = X* B* - C*: the rows of every X_t* stacked into
    one (T n, n) matrix times B*, those rows times G, then (R* G)_t R_t
    batched. A gemm with a fixed right factor gives each row the bits it has
    in its own n x n product, so a chunk's values equal those of one
    competitor evaluated at a time (tests/test_oracle.py checks this; the
    wide form B [X_1 | ... | X_T] moves the last bits). A competitor
    fails when its smallest eigenvalue is below -tol.num times the larger of
    its largest |eigenvalue| and the floor ||G|| (||B|| ||X0|| + ||C||)^2,
    which is of degree 2 in (B, C) like the values, so scaling B and C
    together leaves the verdict alone.

    The certificate stops at the first failing competitor: its witness, its
    trial number, and min_eigen_seen its smallest eigenvalue. On accept,
    min_eigen_seen is the smallest eigenvalue over all competitors; it is
    0.0 only when trials is 0. A non-finite value or floor raises KreinError
    naming the competitor.
    """
    if trials < 0:
        raise KreinError("trials must be nonnegative, got %d" % trials)
    if seed is not None and seed < 0:
        raise KreinError("seed must be nonnegative, got %d" % seed)
    sp = same_space(b, c, x0)
    n = sp.dim
    g = sp.gram
    rng = np.random.default_rng(seed)
    bm, cm, x0m = b.matrix, c.matrix, x0.matrix
    r0 = bm @ x0m - cm
    v0 = herm(r0.conj().T @ g @ r0)
    # ||G V0|| <= floor, so the floor also covers the value at x0
    with np.errstate(over="ignore"):
        floor = sp.gram_norm * np.square(np.float64(b.norm()) * x0.norm() + c.norm())
    u, _, h = classical_form(b)
    # H = U* G U: two products, twice one's roundoff ||G||_F ||U||_F^2, ||G||_F <= sqrt(n) ||G||_2
    kernel = nullspace_matrix(sp, h, 2 * np.sqrt(n) * sp.gram_norm * np.linalg.norm(u.matrix) ** 2)
    cap = max(1, _CHUNK_ENTRIES // (n * n))

    def gaussian(out):
        out.real, out.imag = rng.standard_normal((2, *out.shape))
        out /= np.sqrt(2.0)
        return out

    bh, ch = bm.conj().T, cm.conj().T
    min_seen = np.inf
    done = 0
    size = 1
    while done < trials:
        count = min(size, cap, trials - done)
        xs = np.empty((count, n, n), dtype=complex)
        drawn, bumped, tangent = (xs[(mode - done) % 3 :: 3] for mode in range(3))
        gaussian(drawn)
        rows, cols = rng.integers(n, size=(2, len(bumped)))
        bumped[...] = x0m
        bumped[np.arange(len(bumped)), rows, cols] += gaussian(np.empty(len(bumped), complex))
        coef = gaussian(np.empty((len(tangent), kernel.shape[1], n), complex))
        tangent[...] = x0m + kernel @ coef
        # row form (see above): each row keeps the bits of its own n x n product
        rh = (xs.conj().swapaxes(1, 2).reshape(-1, n) @ bh).reshape(count, n, n) - ch
        gd = (rh.reshape(-1, n) @ g).reshape(count, n, n) @ rh.conj().swapaxes(1, 2)
        gd += gd.conj().swapaxes(1, 2)
        gd /= 2.0
        gd -= v0
        # LAPACK fails on a NaN anywhere in the stack; zero those entries
        # so that a failure before them is still the one reported
        finite = np.isfinite(gd).all(axis=(1, 2)) & np.isfinite(floor)
        if not finite.all():
            gd[~finite] = 0.0
        lam = np.linalg.eigvalsh(gd)
        scale = np.maximum(np.maximum(-lam[:, 0], lam[:, -1]), floor)  # max |λ| = ||G Δ||
        failed = np.flatnonzero(~finite | (lam[:, 0] < -sp.tol.num * scale))
        if failed.size:
            i = int(failed[0])
            if not finite[i]:
                raise KreinError(
                    "competitor %d has a non-finite value or scale floor" % (done + i + 1)
                )
            return Certificate(False, xs[i].copy(), done + i + 1, float(lam[i, 0]))
        min_seen = min(min_seen, lam[:, 0].min())
        done += count
        size *= 2
    return Certificate(True, None, done, float(min_seen) if done else 0.0)


def hilbert_limit_check(b, c=None, seed=0):
    """Cross-validate the library against classical formulas when G = I.

    With the identity Gram the adjoint must be the conjugate transpose, the
    indefinite Moore-Penrose inverse the classical pseudoinverse, and the
    attained least-squares value the classical residual Gram matrix.
    """
    sp = b.space
    if not norm_at_most(sp.gram - np.eye(sp.dim), SYM_TOL, (1.0,)):
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

    if b.matrix.any():
        report = solve_ims(b, c, seed=seed)
        if not report.feasible:
            return Certificate(False, ("ims_feasibility", None, None), checks, worst)
        residual = b.matrix @ (classical_pinv @ c.matrix) - c.matrix
        record("ims_value", report.value.matrix, residual.conj().T @ residual)

    verdict = worst <= 1e-10
    return Certificate(verdict, None if verdict else witness, checks, worst)
