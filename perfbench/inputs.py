"""Seeded input generators for the in-process workloads, in plain numpy.

Every instance is built so that its verdicts are known from the
construction alone; nothing here calls kreinls.

A space with signature (p, q) has Gram G = W* D W with D = diag(I_p, -I_q)
and W a random perturbation of the identity, as in the acceptance suite.
The columns of F = W^-1 then satisfy F* G F = D: the first p are positive,
the last q negative, all mutually G-orthogonal.  Mixing each half with a
random unitary keeps that property, so a subspace spanned by a positive
columns, b negative columns and t sums (positive + negative) / sqrt 2 has
restricted Gram diag(I_a, -I_b, 0_t) exactly: inertia (a, b, t) by
construction.

An operator B is built from a domain basis V = [V_free | V_iso | V_null]:
B maps V_free onto the a + b definite range columns, V_iso onto the t
neutral ones and V_null to zero.  V_iso and V_null are taken together from
a second subspace N2 with only definite columns, so
    N(B) = span V_null             (regular),
    N(B#B) = span [V_iso, V_null] = N2   (regular, inertia known).
With that:
    R(B) + R(B)^[⊥]  misses exactly the t directions (pos - neg) / sqrt 2,
    solve_ims        feasible iff C is reachable and b = 0,
    krein_moore_penrose  feasible iff t = 0,
    solve_min_ims_norm   feasible iff C is reachable, b = 0 and N2 has no
                         negative column,
    solve_immso      feasible iff C is reachable.
"""

from dataclasses import dataclass

import numpy as np

# Redraw a congruence W whose condition number exceeds this.  A definite
# column of F then has [x, x] / <x, x> >= 1 / cond(W)^2 = 4e-4, far above the
# library's 1e-8 neutral cutoff, so the constructed inertia is unambiguous.
MAX_CONDITION = 50.0


@dataclass(frozen=True)
class Shape:
    """One item template: the space, the item class and the inertias.

    kind     "a": nonnegative range with a positive direction, reachable C
             "b": indefinite range, reachable C
             "c": degenerate range, C not reachable
    rng_in   inertia (pos, neg, neutral) of R(B)
    ker_in   inertia (pos, neg) of N(B#B); it has no neutral direction
    """

    signature: tuple
    kind: str
    rng_in: tuple
    ker_in: tuple

    def __post_init__(self):
        p, q = self.signature
        a, b, t = self.rng_in
        kp, kn = self.ker_in
        ok = (
            a + t <= p
            and b + t <= q
            and a + b + t >= 1
            and kp <= p
            and kn <= q
            and kp + kn == p + q - a - b
            and kp + kn >= t
            and (self.kind != "a" or (a >= 1 and b == 0))
            and (self.kind != "b" or (a >= 1 and b >= 1))
            and (self.kind != "c" or t >= 1)
        )
        if not ok:
            raise ValueError("inconsistent shape %r" % (self,))


def gaussian(rng, shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def unitary(rng, k):
    q, r = np.linalg.qr(gaussian(rng, (k, k)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def space_gram(rng, p, q):
    """Gram W* D W of signature (p, q) and the frame F = W^-1."""
    n = p + q
    scale = 0.3 * min(1.0, 2.0 / np.sqrt(n))
    d = np.concatenate([np.ones(p), -np.ones(q)])
    while True:
        w = np.eye(n) + scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        if np.linalg.cond(w) <= MAX_CONDITION:
            break
    g = w.conj().T @ (d[:, None] * w)
    return (g + g.conj().T) / 2.0, np.linalg.inv(w)


@dataclass(frozen=True)
class Instance:
    """Inputs of one item plus everything the checks need."""

    shape: Shape
    b: np.ndarray
    c: np.ndarray
    delta: np.ndarray  # BΔ is definite, so X0 + Δ is strictly worse than X0
    range_basis: np.ndarray


def instance(rng, frame, shape):
    p, q = shape.signature
    n = p + q
    a, b, t = shape.rng_in
    kp, kn = shape.ker_in
    fp = frame[:, :p] @ unitary(rng, p)
    fm = frame[:, p:] @ unitary(rng, q)
    free = np.hstack([fp[:, :a], fm[:, :b]])
    iso = (fp[:, a:a + t] + fm[:, b:b + t]) / np.sqrt(2.0)
    companion = np.hstack([fp[:, a + t:], fm[:, b + t:], iso])

    n2 = np.hstack([frame[:, :p] @ unitary(rng, p)[:, :kp], frame[:, p:] @ unitary(rng, q)[:, :kn]])
    n2 = n2[:, rng.permutation(kp + kn)]
    # V_free spans the Euclidean complement of N2, which keeps cond(V) near
    # cond(F) instead of leaving it to a random draw.
    basis, _ = np.linalg.qr(np.hstack([n2, gaussian(rng, (n, a + b))]))
    v_free = basis[:, kp + kn:] @ unitary(rng, a + b)
    v = np.hstack([v_free, n2])
    rng_cols = np.hstack([free, iso])
    bmat = rng_cols @ np.linalg.inv(v)[: a + b + t]

    c = bmat @ gaussian(rng, (n, n)) + companion @ gaussian(rng, (companion.shape[1], n))
    if shape.kind == "c":
        excluded = (fp[:, a] - fm[:, b]) / np.sqrt(2.0)
        c = c + np.outer(excluded, gaussian(rng, n))
    delta = v_free @ gaussian(rng, (a + b, n))
    return Instance(shape, bmat, c, delta, rng_cols)


def expected(shape):
    """Verdicts and reasons implied by the construction."""
    p, q = shape.signature
    a, b, t = shape.rng_in
    reachable = shape.kind != "c"
    nonneg = b == 0
    null_nonneg = shape.ker_in[1] == 0

    def reason(checks):
        failed = [name for ok, name in checks if not ok]
        return "+".join(failed) if failed else None

    return {
        "range": (a, b, t),
        "companion": (p - a - t, q - b - t, t),
        "solve_ims": reason(
            [(reachable, "RangeInclusionFails"), (nonneg, "RangeNotNonnegative")]
        ),
        "krein_moore_penrose": reason([(t == 0, "RangeNotRegular")]),
        "solve_min_ims_norm": reason(
            [
                (nonneg, "RangeNotNonnegative"),
                (null_nonneg, "NullspaceNotNonnegative"),
                (reachable, "RangeInclusionFails"),
            ]
        ),
        "solve_immso": reason([(reachable, "RangeInclusionFails")]),
    }
