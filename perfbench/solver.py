"""In-process workloads: verdict-small and solve-wide.

One item is one verdict request: the public calls a user makes to learn
whether (B, C) is feasible and to get the solutions.  The item's latency is
the wall time of those calls; the checks that follow are not timed.
"""

import time

import numpy as np

from inputs import Shape, expected, instance, space_gram
from tracing import Untraced

S = Shape

# verdict-small: n in {2, 3, 4}.  The oracle does most of the class-(a) work,
# the median item is solver-only and dominated by Python overhead, and the
# reject path stops a batched oracle from hiding waste behind early
# witnesses.  Items rotate through the classes a, b, c.
VERDICT_SMALL = (
    S((1, 1), "a", (1, 0, 0), (1, 0)),
    S((1, 1), "b", (1, 1, 0), (0, 0)),
    S((1, 1), "c", (0, 0, 1), (1, 1)),
    S((2, 1), "a", (1, 0, 1), (2, 0)),
    S((2, 1), "b", (1, 1, 0), (0, 1)),
    S((2, 1), "c", (1, 0, 1), (1, 1)),
    S((3, 1), "a", (2, 0, 0), (1, 1)),
    S((3, 1), "b", (2, 1, 0), (1, 0)),
    S((3, 1), "c", (1, 0, 1), (2, 1)),
    S((2, 2), "a", (1, 0, 1), (2, 1)),
    S((2, 2), "b", (1, 1, 1), (1, 1)),
    S((2, 2), "c", (0, 0, 2), (2, 2)),
)

# solve-wide: n = 128, the same classes and calls, no oracle.  LAPACK-bound:
# factoring an operator once must show here, a change to the oracle must not.
# Classes b and c stop at the feasibility test, so work moved ahead of that
# test shows on them.
SOLVE_WIDE = (
    S((64, 64), "a", (48, 0, 0), (56, 24)),
    S((64, 64), "b", (24, 24, 8), (40, 40)),
    S((64, 64), "c", (16, 16, 16), (48, 48)),
    S((96, 32), "a", (48, 0, 8), (80, 0)),
    S((96, 32), "b", (40, 16, 8), (56, 16)),
    S((96, 32), "c", (24, 0, 16), (80, 24)),
)

ORACLE_TRIALS = 1000
# Relative singular-value cutoff for the spaces.  With the default dim * eps
# the seed code misjudges a few percent of the degenerate instances at n <= 4
# (a roundoff singular value of R(B) + R(B)^[⊥] lands above 4 * eps), so the
# verdict would hinge on roundoff.  At 1e-12 every constructed rank is at
# least 1e3 away from the cutoff on both sides; at n = 128 the default and
# this cutoff give the same verdicts.
RANK_TOL = 1e-12
ID_TOL = 1e-9  # identity residuals, as in the acceptance suite


def norm2(a):
    return float(np.linalg.norm(a, 2)) if a.size else 0.0


class SolverWorkload:
    """A fixed cycle of item shapes; the seed draws the matrices.

    Every cycle runs each shape once, on one of `draws` pre-built instances
    per shape, so all runs see the same mix whatever their seed.
    """

    def __init__(self, shapes, draws, oracle, warm_items):
        self.shapes = shapes
        self.draws = draws
        self.oracle = oracle
        self.warm_items = warm_items

    def setup(self, k, seed):
        self.k = k
        self.tol = k.Tolerances(rank=RANK_TOL)
        rng = np.random.default_rng(seed)
        self.grams = {}
        self.spaces = {}
        frames = {}
        for shape in self.shapes:
            sig = shape.signature
            if sig not in self.grams:
                self.grams[sig], frames[sig] = space_gram(rng, *sig)
                self.spaces[sig] = k.make_space(self.grams[sig], self.tol)
        self.gram_inv = {sig: np.linalg.inv(g) for sig, g in self.grams.items()}
        self.pool = [
            [instance(rng, frames[s.signature], s) for s in self.shapes]
            for _ in range(self.draws)
        ]
        untraced = Untraced()
        for j in range(self.warm_items):
            self.item(0, j, untraced)

    def make_spaces(self, tracer):
        """Traced space construction on the workload's own Grams."""
        for gram in self.grams.values():
            tracer.call("core.make_space", self.k.make_space, gram, self.tol)

    def cycle(self, index, tracer):
        return [self.item(index, j, tracer) for j in range(len(self.shapes))]

    layer_cycle = cycle  # the traced run measures the same cycle

    def item(self, index, j, tracer):
        draw = index % self.draws
        inst = self.pool[draw][j]
        shape = inst.shape
        sp = self.spaces[shape.signature]
        seed = draw * len(self.shapes) + j
        tracer.item = (index, j)

        start = time.perf_counter()
        try:
            results = self.calls(sp, inst, seed, tracer.call)
        except Exception as exc:  # the library raised: a failed item
            latency = time.perf_counter() - start
            return latency, ["%s %s: raised %r" % (shape.signature, shape.kind, exc)]
        latency = time.perf_counter() - start

        failures = []
        try:
            self.check(inst, *results, failures)
        except Exception as exc:  # a malformed result is a failed item
            failures.append("check raised %r" % (exc,))
        return latency, ["%s %s: %s" % (shape.signature, shape.kind, f) for f in failures]

    def calls(self, sp, inst, seed, call):
        """The public calls of one item, in the order a user makes them."""
        k = self.k
        b = sp.operator(inst.b)
        c = sp.operator(inst.c)
        rng_sub = call("core.range_of", k.range_of, b)
        cls = k.classify(rng_sub)
        comp = call("core.orthogonal_companion", k.orthogonal_companion, rng_sub)
        proj = call("projections.normal_projection", k.normal_projection, rng_sub)
        ims = call("ils.solve_ims", k.solve_ims, b, c, seed=seed)
        mp = call("pinv.krein_moore_penrose", k.krein_moore_penrose, b, seed=seed)
        gi = call("pinv.canonical_pair", k.canonical_pair, b)
        mn = call("pinv.solve_min_ims_norm", k.solve_min_ims_norm, b, c, seed=seed)
        mm = call("minmax.solve_immso", k.solve_immso, b, c, seed=seed)
        accept = reject = x_bad = None
        if self.oracle and inst.shape.kind == "a" and ims.feasible:
            x_bad = sp.operator(ims.solution.matrix + inst.delta)
            accept = call(
                "oracle.certify_min.accept", k.certify_min, b, c, ims.solution,
                trials=ORACLE_TRIALS, seed=seed,
            )
            reject = call(
                "oracle.certify_min.reject", k.certify_min, b, c, x_bad,
                trials=ORACLE_TRIALS, seed=seed,
            )
        return cls, rng_sub, comp, proj, ims, mp, gi, mn, mm, accept, reject, x_bad

    def check(self, inst, cls, rng_sub, comp, proj, ims, mp, gi, mn, mm,
              accept, reject, x_bad, failures):
        shape = inst.shape
        want = expected(shape)
        g = self.grams[shape.signature]
        ginv = self.gram_inv[shape.signature]
        b, c = inst.b, inst.c
        nb = norm2(b)

        def fail(ok, what):
            if not ok:
                failures.append(what)

        def sharp(a):
            return ginv @ a.conj().T @ g

        def residual_ok(x):
            r = sharp(b) @ (b @ x - c)
            scale = max(1.0, nb * (nb * norm2(x) + norm2(c)))
            return norm2(r) <= 1e-10 * scale  # tol.num

        inertia = (cls.n_positive, cls.n_negative, cls.n_zero)
        fail(inertia == want["range"], "range inertia %s" % (inertia,))
        q, _ = np.linalg.qr(rng_sub.basis)
        span = inst.range_basis
        fail(norm2(span - q @ (q.conj().T @ span)) <= 1e-8 * norm2(span), "range span")

        cc = comp.classification
        inertia = (cc.n_positive, cc.n_negative, cc.n_zero)
        fail(inertia == want["companion"], "companion inertia %s" % (inertia,))
        cross = span.conj().T @ g @ comp.basis
        fail(norm2(cross) <= ID_TOL * norm2(span) * norm2(g) * max(1.0, norm2(comp.basis)),
             "companion not G-orthogonal")

        pm = proj.matrix
        s2 = max(1.0, norm2(pm)) ** 2
        fail(norm2(pm @ pm - pm) <= ID_TOL * s2, "projection idempotency")
        ps = sharp(pm)
        fail(norm2(pm @ ps - ps @ pm) <= ID_TOL * s2, "projection normality")
        fail(norm2(pm @ span - span) <= ID_TOL * max(1.0, norm2(pm)) * norm2(span), "projection range")
        fail(abs(np.trace(pm).real - span.shape[1]) <= 1e-6, "projection trace")

        for name, rep in (("solve_ims", ims), ("solve_min_ims_norm", mn), ("solve_immso", mm)):
            # solve_min_ims_norm is held to its verdict only: on a fully
            # neutral range B#B is pure roundoff, the seed code finds
            # N(B#B) = {0} instead of the whole space and drops the
            # NullspaceNotNonnegative reason (the verdict is still right).
            same = rep.reason == want[name] or name == "solve_min_ims_norm"
            fail(same and rep.feasible == (want[name] is None),
                 "%s verdict %s/%s" % (name, rep.feasible, rep.reason))
            if rep.feasible:
                fail(residual_ok(rep.solution.matrix), "%s normal-equation residual" % name)

        fail(mp.reason == want["krein_moore_penrose"] and mp.feasible == (mp.reason is None),
             "krein_moore_penrose verdict %s/%s" % (mp.feasible, mp.reason))
        pairs = [("canonical_pair", gi.d.matrix, "normal")]
        if mp.feasible:
            pairs.append(("krein_moore_penrose", mp.solution.matrix, "selfadjoint"))
        for name, d, kind in pairs:
            scale = max(1.0, nb) ** 2 * max(1.0, norm2(d)) ** 2
            fail(norm2(b @ d @ b - b) <= ID_TOL * scale, "%s BDB = B" % name)
            fail(norm2(d @ b @ d - d) <= ID_TOL * scale, "%s DBD = D" % name)
            for m in (b @ d, d @ b):
                ms = sharp(m)
                gap = m @ ms - ms @ m if kind == "normal" else ms - m
                fail(norm2(gap) <= ID_TOL * scale, "%s %s" % (name, kind))

        if self.oracle and shape.kind == "a":
            fail(accept is not None and accept.verdict and accept.trials == ORACLE_TRIALS,
                 "certify_min rejected the solution")
            fail(reject is not None and not reject.verdict and reject.witness is not None,
                 "certify_min accepted X0 + delta")
            if reject is not None and reject.witness is not None:
                # the witness must really beat X0 + delta in the Krein order
                def value(x):
                    r = b @ x - c
                    return r.conj().T @ g @ r

                gap = value(np.asarray(reject.witness)) - value(x_bad.matrix)
                lam = np.linalg.eigvalsh((gap + gap.conj().T) / 2.0)[0]
                fail(lam < 0.0, "certify_min witness does not improve on X0 + delta")


def verdict_small():
    return SolverWorkload(VERDICT_SMALL, draws=4, oracle=True, warm_items=len(VERDICT_SMALL))


def solve_wide():
    return SolverWorkload(SOLVE_WIDE, draws=2, oracle=False, warm_items=3)
