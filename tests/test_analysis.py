"""An operator is analysed once: what it keeps changes no answer and makes no cycle.

Operators and subspaces keep what depends on them alone (ranges, null
spaces, companions, projections, inverses) on first use. These tests pin the
three promises that make that safe: every answer equals the one a fresh
operator gives, the projections the library builds for itself pass the
public validators it no longer runs on them, and nothing kept refers back to
its owner.
"""

import collections
import gc

import numpy as np
import pytest

import kreinls as k
from conftest import (
    SIGNATURES,
    feasible_rhs,
    make_signature_space,
    operator_with_range,
    operator_with_range_and_kernel,
    random_subspace,
    subspace_choices,
)
from kreinls.core import normal_nullspace, spectral_norm
from kreinls.pinv import _min_norm_inverse
from test_properties import degenerate_instance


def _regular_instances():
    """Regular ranges (conftest frames), half of them with a regular null space too."""
    out = []
    rng = np.random.default_rng(83)
    for p, q in SIGNATURES:
        sp = make_signature_space(p, q, seed=5 * p + q)
        for n_pos, n_neg, t in subspace_choices(sp):
            if t:
                continue
            r_sub = random_subspace(sp, rng, n_pos, n_neg)
            b = operator_with_range(sp, r_sub, rng)
            out.append((b, feasible_rhs(sp, b, rng)))
            rest = sp.dim - r_sub.dim
            if 0 < rest <= p:
                n_sub = random_subspace(sp, rng, n_pos=rest)
                b = operator_with_range_and_kernel(sp, r_sub, n_sub, rng)
                out.append((b, feasible_rhs(sp, b, rng)))
    return out


def _degenerate_instances(count):
    out = []
    seed = 0
    while len(out) < count:
        b, c, _ = degenerate_instance(seed)
        if c is not None:
            out.append((b, c))
        seed += 1
    return out


INSTANCES = _degenerate_instances(40) + _regular_instances()

# the public calls of a benchmark item, and the variational audit
CALLS = {
    "range_of": lambda b, c: k.range_of(b),
    "classify": lambda b, c: k.classify(k.range_of(b)),
    "orthogonal_companion": lambda b, c: k.orthogonal_companion(k.range_of(b)),
    "normal_projection": lambda b, c: k.normal_projection(k.range_of(b)),
    "solve_ims": lambda b, c: k.solve_ims(b, c, seed=4),
    "krein_moore_penrose": lambda b, c: k.krein_moore_penrose(b, seed=4),
    "canonical_pair": lambda b, c: k.canonical_pair(b),
    "solve_min_ims_norm": lambda b, c: k.solve_min_ims_norm(b, c, seed=4),
    "solve_immso": lambda b, c: k.solve_immso(b, c, seed=4),
    "mp_variational_check": lambda b, c: k.mp_variational_check(b, seed=4),
}


def _leaves(x, path=""):
    """(path, value) pairs of every array, verdict and number in a result."""
    if isinstance(x, k.Operator):
        yield path, x.matrix
    elif isinstance(x, k.Subspace):
        yield path + ".basis", x.basis
        yield path + ".gram", x.gram_restricted
        yield path + ".class", x.classification
    elif isinstance(x, k.Projection):
        yield from _leaves(x.op, path + ".op")
        yield from _leaves(x.range_sub, path + ".range")
        yield path + ".kind", x.kind
    elif isinstance(x, k.GeneralizedInverse):
        for name in ("d", "q", "p"):
            yield from _leaves(getattr(x, name), path + "." + name)
        yield path + ".kind", x.kind
    elif isinstance(x, k.SolveReport):
        yield path + ".head", (x.feasible, x.reason, x.conditions, x.residual_normal_eq, x.seed)
        if x.manifold is not None:
            yield from _leaves(x.manifold.particular, path + ".solution")
            yield from _leaves(x.manifold.perturbation_space, path + ".perturbation")
        if x.value is not None:
            yield from _leaves(x.value, path + ".value")
        for name, value in x.certificates.items():
            yield path + ".cert." + name, value
    else:
        yield path, x


def _same(got, want):
    got, want = list(_leaves(got)), list(_leaves(want))
    assert [p for p, _ in got] == [p for p, _ in want]
    for (path, a), (_, b) in zip(got, want):
        if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
            assert a.shape == b.shape and np.array_equal(a, b), path
        else:
            assert a == b, path


def _fresh(b, c):
    sp = b.space
    return sp.operator(b.matrix), sp.operator(c.matrix)


def _certified(result):
    """Read a report's certificates and residual, which it computes on first read."""
    if isinstance(result, k.SolveReport):
        result.certificates
        result.residual_normal_eq
    return result


@pytest.mark.parametrize("index", range(len(INSTANCES)))
def test_kept_analysis_changes_no_answer(index):
    """One shared operator, in either call order, answers as a fresh one per call,
    also when each report's certificates are read only after every call ran."""
    b, c = INSTANCES[index]
    fresh = {name: _certified(call(*_fresh(b, c))) for name, call in CALLS.items()}
    for order in (list(CALLS), list(reversed(CALLS))):
        shared_b, shared_c = _fresh(b, c)
        got = {name: CALLS[name](shared_b, shared_c) for name in order}
        for name in reversed(order):
            _certified(got[name])
        for name in order:
            _same(got[name], fresh[name])


FACTORIZATIONS = ("svd", "eigh", "eigvalsh", "cholesky", "inv", "solve", "pinv", "qr")


def _count_factorizations(monkeypatch):
    """Count calls into numpy.linalg's factorizations, and its spectral norms
    (each a full SVD) as "norm2", as perfbench/tracing.py does."""
    counts = collections.Counter()
    for name in FACTORIZATIONS:

        def counted(*args, _name=name, _fn=getattr(np.linalg, name), **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)

    def norm(x, ord=None, *args, _fn=np.linalg.norm, **kwargs):
        if ord == 2:
            counts["norm2"] += 1
        return _fn(x, ord, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", norm)
    return counts


@pytest.mark.parametrize("index", range(len(INSTANCES)))
def test_one_svd_analyses_an_operator(index, monkeypatch):
    """Range, null space, pseudoinverse and both companions read one SVD; a kept
    projection costs nothing the second time."""
    b, _ = _fresh(*INSTANCES[index])
    counts = _count_factorizations(monkeypatch)
    k.range_of(b)
    k.nullspace_of(b)
    k.core.pseudo_inverse(b)
    k.orthogonal_companion(k.range_of(b))
    k.orthogonal_companion(k.nullspace_of(b))
    assert counts["svd"] == 1, counts
    k.normal_projection(k.range_of(b))
    counts.clear()
    k.normal_projection(k.range_of(b))
    assert not counts, counts


@pytest.mark.parametrize("p,q", SIGNATURES)
def test_the_full_subspace_is_a_stated_span(p, q, monkeypatch):
    """The columns of R^-1 are metric-orthonormal: no factorization, no rank decision."""
    sp = make_signature_space(p, q, seed=3)
    counts = _count_factorizations(monkeypatch)
    full = k.full_subspace(sp)
    assert not counts, counts
    assert full.dim == sp.dim
    gram = full.basis.conj().T @ sp.metric @ full.basis
    assert np.abs(gram - np.eye(sp.dim)).max() <= 1e-12


@pytest.mark.parametrize("index", range(len(INSTANCES)))
def test_one_eigh_analyses_a_subspace(index, monkeypatch):
    """A range's inertia and parts read one eigh; its normal projection and the
    Moore-Penrose inverse add no SVD, pinv or companion of N(B)."""
    b, _ = _fresh(*INSTANCES[index])
    r = k.range_of(b)
    counts = _count_factorizations(monkeypatch)
    r.classification
    k.isotropic_part(r)
    k.core.regular_part(r)
    k.decompose_subspace(r)
    assert counts["eigh"] == 1 and counts["eigvalsh"] == 0, counts
    counts.clear()
    k.normal_projection(r)
    assert counts["svd"] == 0 and counts["pinv"] == 0, counts
    k.krein_moore_penrose(b)
    memo = k.nullspace_of(b).__dict__.get("_memo", {})
    assert k.orthogonal_companion.__wrapped__ not in memo


@pytest.mark.parametrize("index", range(len(INSTANCES)))
def test_norm_budget_of_a_verdict(index, monkeypatch):
    """Once the range is kept, an infeasible verdict runs no spectral norm, and
    canonical_pair is kept: after krein_moore_penrose it costs nothing."""
    b, c = _fresh(*INSTANCES[index])
    k.range_of(b)
    counts = _count_factorizations(monkeypatch)
    if not k.solve_ims(b, c).feasible:
        assert counts["norm2"] == 0, counts
    counts.clear()
    mp = k.krein_moore_penrose(b)
    if not mp.feasible:
        assert counts["norm2"] == 0, counts
    counts.clear()
    gi = k.canonical_pair(b)
    if mp.feasible:
        assert not counts, counts
        assert gi.d is mp.solution
    counts.clear()
    assert k.canonical_pair(b) is gi
    assert not counts, counts


SOLVERS = ("solve_ims", "solve_immso", "solve_min_ims_norm", "krein_moore_penrose")


@pytest.mark.parametrize("index", range(len(INSTANCES)))
def test_certificates_cost_nothing_until_read(index, monkeypatch):
    """Once the range is kept, a feasible verdict runs no spectral norm, and once
    the rest of the analysis is kept, no SVD or eigvalsh, until a certificate is
    read; a second read costs nothing."""
    b, c = _fresh(*INSTANCES[index])
    k.range_of(b)
    counts = _count_factorizations(monkeypatch)
    for name in SOLVERS:
        counts.clear()
        rep = CALLS[name](b, c)
        if not rep.feasible:
            continue
        assert counts["norm2"] == 0, (name, counts)
        counts.clear()
        CALLS[name](b, c)  # every per-operator analysis is kept by now
        assert counts["norm2"] == counts["svd"] == counts["eigvalsh"] == 0, (name, counts)
        _certified(rep)
        counts.clear()
        _certified(rep)
        assert not counts, (name, counts)


# the nine public calls of a benchmark item, in its order (perfbench/solver.py)
ITEM_CALLS = tuple(CALLS)[:9]

# what each call factors, summed over INSTANCES, each run on a fresh operator in
# ITEM_CALLS order: measured before B+ and D came from thin factors and the
# values and Grams were formed on first read, which left every count as it was;
# normal_projection then dropped the eigh and the solve of the regular companion;
# normal_equation then read the kept metric SVD: it runs no SVD on a neutral R(B)
# (22 of the 80), and on a regular R(B) (40) N(B#B) is N(B), whose eigh
# krein_moore_penrose has kept (solve_ims svd 32 -> 23, solve_min_ims_norm
# eigh 80 -> 40 and svd 48 -> 35)
FACTORIZATION_BUDGET = {
    "range_of": {"svd": 80},
    "classify": {"eigh": 80},
    "orthogonal_companion": {},
    "normal_projection": {},
    "solve_ims": {"svd": 23},
    "krein_moore_penrose": {"eigh": 80},
    "canonical_pair": {},
    "solve_min_ims_norm": {"eigh": 40, "svd": 35},
    "solve_immso": {},
}


def test_factorization_budget_of_a_benchmark_item(monkeypatch):
    """A verdict item factors what it factored when the budget was pinned: a change
    that adds a factorization or spectral norm to one of its calls fails here."""
    counts = _count_factorizations(monkeypatch)
    got = {name: collections.Counter() for name in ITEM_CALLS}
    for b, c in INSTANCES:
        b, c = _fresh(b, c)
        for name in ITEM_CALLS:
            counts.clear()
            CALLS[name](b, c)
            got[name].update(counts)
    assert {name: dict(spent) for name, spent in got.items()} == FACTORIZATION_BUDGET


# the calls that validate what they are given, or wrap what they build, as projections
# onto a kept subspace; the canonical pair and P1, the normal projection onto N(B#B),
# are read first, so each count is that of the validation and what it builds
VALIDATED = {
    "generalized_inverse": lambda b, gi, p1: k.generalized_inverse(b, gi.q.matrix, gi.p.matrix),
    "rebuild_generalized_inverse": lambda b, gi, p1: k.rebuild_generalized_inverse(b, gi.d),
    "reduced_generalized_inverse": lambda b, gi, p1: k.reduced_generalized_inverse(
        b, gi.q.matrix, p1.matrix
    ),
    "one_two_pair": lambda b, gi, p1: k.one_two_pair(b),
}

# what the VALIDATED calls and reading indefinite_inverse's certificates factor, summed
# over INSTANCES. Deciding "onto" by re-spanning Q's range and comparing principal
# angles, and the remark by two re-spanned ranks, cost 472, 472, 552, 160 and 160 SVDs;
# reading the kept subspaces leaves the SVD of the reduced inverse's hilbert_pinv (80)
# and the certificates' printed norms (160): every QT - T test is decided by Frobenius
# brackets, with no spectral norm
VALIDATION_BUDGET = {
    "generalized_inverse": {},
    "rebuild_generalized_inverse": {},
    "reduced_generalized_inverse": {"svd": 80},
    "one_two_pair": {},
    "indefinite_inverse_certificates": {"norm2": 160},
}


def test_validation_budget(monkeypatch):
    """Validating a projection reads the kept subspace it must project onto: no span,
    no principal angle; the rank remark reads the kept range analysis."""
    counts = _count_factorizations(monkeypatch)
    got = {name: collections.Counter() for name in VALIDATION_BUDGET}
    for b, c in INSTANCES:
        b, _ = _fresh(b, c)
        gi, p1 = k.canonical_pair(b), k.normal_projection(normal_nullspace(b))
        for name, call in VALIDATED.items():
            counts.clear()
            call(b, gi, p1)
            got[name].update(counts)
        rep = k.indefinite_inverse(b)
        counts.clear()
        _certified(rep)
        got["indefinite_inverse_certificates"].update(counts)
    assert {name: dict(spent) for name, spent in got.items()} == VALIDATION_BUDGET


CERTIFIED = {
    "solve_ims": lambda b, c: k.solve_ims(b, c, seed=4),
    "solve_imax": lambda b, c: k.solve_imax(b, c, seed=4),
    "solve_min_ims_norm": CALLS["solve_min_ims_norm"],
}

# what reading a report's certificates factors, summed over INSTANCES, each
# solver on a fresh operator: per feasible report the value's eigvalsh and the
# three printed norms; the one SVD is that of ims_consistency's reduced inverse.
# The projection onto R(B) is read off the kept restricted eigh, and
# isotropic_containment and range_constraint are products against the kept
# analysis: they factor nothing.
CERTIFICATE_BUDGET = {
    "solve_ims": {"eigvalsh": 32, "norm2": 96},
    "solve_imax": {"eigvalsh": 19, "norm2": 57},
    "solve_min_ims_norm": {"eigvalsh": 14, "norm2": 42, "svd": 14},
}


def test_certificate_budget(monkeypatch):
    """Reading the certificates factors what it factored when the budget was pinned."""
    counts = _count_factorizations(monkeypatch)
    got = {name: collections.Counter() for name in CERTIFIED}
    for b, c in INSTANCES:
        for name, call in CERTIFIED.items():
            rep = call(*_fresh(b, c))
            counts.clear()
            _certified(rep)
            got[name].update(counts)
    assert {name: dict(spent) for name, spent in got.items()} == CERTIFICATE_BUDGET


def _certificate_sweep(scale):
    """INSTANCES, then the degenerate draws of seeds 0-399 that have a C, with B
    and C scaled together."""
    draws = (degenerate_instance(seed)[:2] for seed in range(400))
    for b, c in [*INSTANCES, *draws]:
        if c is not None:
            yield b.space.operator(scale * b.matrix), c.space.operator(scale * c.matrix)


@pytest.mark.parametrize("exp", (-100, 0, 100))
def test_boolean_certificates_hold_on_every_feasible_report(exp):
    """BX0 - QC lies in the isotropic part of a degenerate R(B), and R(X1) in
    N(B#B)^[⊥], on every feasible report of the sweep and at every scale."""
    read = collections.Counter()
    for b, c in _certificate_sweep(10.0**exp):
        for solve, name in (
            (k.solve_ims, "isotropic_containment"),
            (k.solve_imax, "isotropic_containment"),
            (k.solve_min_ims_norm, "range_constraint"),
        ):
            rep = solve(b, c)
            if rep.feasible and name in rep.certificates:
                assert rep.certificates[name] is True, (exp, solve.__name__)
                read[name] += 1
    assert read == {"isotropic_containment": 337, "range_constraint": 31}


VALUED =("solve_ims", "solve_immso", "solve_min_ims_norm")


# INSTANCES, then the degenerate draws on which the remark, when it decided its two
# ranks by the rank rule, disagreed with the classification at the neutral cutoff; it
# now reads the classification, so these guard against a second rule coming back
REMARK_CASES = [b for b, _ in INSTANCES] + [
    degenerate_instance(seed)[0] for seed in (67, 137, 221, 323, 351)
]


@pytest.mark.parametrize("index", range(len(REMARK_CASES)))
def test_regularity_rank_remark_agrees_with_the_classification(index):
    """The remark R(B#) = R(B#B) is the kept classification of R(B), no second rule."""
    b = REMARK_CASES[index]
    remark = k.indefinite_inverse(b).certificates["regularity_rank_remark"]
    assert remark == k.range_of(b).classification.regular


REMARK_SCALES = (0, 100, -100, 300, -300)
REMARK_OPERATORS = [b for b, _ in INSTANCES] + [degenerate_instance(s)[0] for s in range(400)]


def _ill_conditioned(b, factor, exp):
    """B with its first column times factor, and all of it times 10^exp."""
    return b.space.operator(b.matrix * np.r_[factor, np.ones(b.space.dim - 1)] * 10.0**exp)


@pytest.mark.parametrize("exp", REMARK_SCALES)
@pytest.mark.parametrize("factor", (1e-3, 1e-6))
def test_regularity_rank_remark_ignores_the_conditioning_of_b(factor, exp):
    """The 480 analysis operators (INSTANCES, degenerate_instance seeds 0-399) with a
    column scaled down and B scaled by 10^exp have the same range, and the remark says
    the same: it reads the kept classification, not the eigenvalues of B* G B, which
    carry sigma_min(B)^2 and put a regular range's below any fixed cutoff."""
    for b in REMARK_OPERATORS:
        scaled = _ill_conditioned(b, factor, exp)
        assert k.regular_range_rank_check(scaled) == k.regular_range_rank_check(b)


@pytest.mark.parametrize("cond", (0.0, 3.0, 4.0, 5.0))
def test_regularity_rank_remark_at_every_gram_condition(cond):
    """Gram condition up to 1e10: a Gaussian B, of full rank or of rank one, has a regular
    range and B onto neutral directions a neutral one; the remark and the classification
    say so. So does B = I beside G's eigenvalue -10^(-2 cond)."""
    from test_oracle import _oracle_instance  # test_oracle imports this module

    draws = ((None, False, True), (1, False, True), (None, True, False))
    for n in (2, 3, 4):
        for seed in range(60):
            for rank, neutral, regular in draws:
                b = _oracle_instance(seed, n, n // 2, cond, rank, False, 0.0, neutral)[0]
                assert k.range_of(b).classification.regular == regular, (n, seed, rank)
                assert k.regular_range_rank_check(b) == regular, (n, seed, rank)
    sp = k.make_space(np.diag([1.0, -(10.0 ** (-2 * cond))]))
    certificates = k.indefinite_inverse(sp.eye()).certificates
    assert certificates["regularity_rank_remark"] and k.range_of(sp.eye()).classification.regular


@pytest.mark.parametrize("index", range(len(INSTANCES)))
def test_value_is_formed_on_first_read(index):
    """A feasible report forms its value when .value or a certificate is first read,
    once for both; two reads return one Operator, bit-identical to R#R."""
    b, c = _fresh(*INSTANCES[index])
    for name in VALUED:
        for value_first in (True, False):
            rep = CALLS[name](b, c)
            if not rep.feasible:
                break
            assert rep.evaluate.cache_info().misses == 0, name
            if value_first:
                value = rep.value
                _certified(rep)
            else:
                _certified(rep)
                value = rep.value
            assert rep.value is value
            assert rep.evaluate.cache_info().misses == 1, name
            r = rep.solution if name == "solve_min_ims_norm" else b @ rep.solution - c
            assert np.array_equal(value.matrix, (r.adjoint() @ r).matrix), name


@pytest.mark.parametrize("index", range(len(INSTANCES)))
def test_unasked_signs_form_no_gram(index):
    """After the verdicts, a kept part or companion whose sign no verdict reads
    holds no restricted Gram; classifying it forms one."""
    b, c = _fresh(*INSTANCES[index])
    for name in ("orthogonal_companion", *SOLVERS, "canonical_pair"):
        CALLS[name](b, c)
    unasked = (
        k.isotropic_part(k.range_of(b)),
        k.isotropic_part(normal_nullspace(b)),
        k.orthogonal_companion(k.range_of(b)),
    )
    for s in unasked:
        assert "gram_restricted" not in vars(s)
    companion = unasked[-1]
    companion.classification
    assert "gram_restricted" in vars(companion)


ID_TOL = 1e-9  # identity residuals, as in the acceptance suite


def _three_product_pseudo_inverse(b):
    """R^-1 (V_r s_r^-1 U_r*) R: the reference for pseudo_inverse's thin factors."""
    sp = b.space
    u, s, vh, r = k.core.metric_svd(b)
    return sp._chol_rinv @ ((vh[:r].conj().T / s[:r]) @ u[:, :r].conj().T) @ sp._chol_r


def _relative_gap(got, want):
    return spectral_norm(got - want) / max(spectral_norm(want), np.finfo(float).tiny)


@pytest.mark.parametrize("index", range(len(INSTANCES)))
def test_thin_factors_match_the_three_product_forms(index):
    """B+ = L R_t and D = (L - P L)(R_t Q) agree with R^-1 B+_M R and (I - P) B+ Q."""
    b, _ = _fresh(*INSTANCES[index])
    btilde = _three_product_pseudo_inverse(b)
    assert _relative_gap(k.core.pseudo_inverse(b).matrix, btilde) <= 1e-12
    gi = k.canonical_pair(b)
    d = (np.eye(b.space.dim) - gi.p.matrix) @ btilde @ gi.q.matrix
    assert _relative_gap(gi.d.matrix, d) <= 1e-12
    d = gi.d
    scale = max(1.0, b.norm()) ** 2 * max(1.0, d.norm()) ** 2
    assert (b @ d @ b - b).norm() <= ID_TOL * scale
    assert (d @ b @ d - d).norm() <= ID_TOL * scale


def _normal_equation_cases():
    """INSTANCES, then degenerate_instance seeds 0-399 (C = B where it has none)."""
    yield from INSTANCES
    for seed in range(400):
        b, c, _ = degenerate_instance(seed)
        yield b, (b if c is None else c)


def _formed_normal_solution(b, c):
    """X0 = R^-1 (K R^-1)^+ U_reg* G C with K R^-1 = U_reg* G B R^-1 formed and
    factored in full: the reference for the normal equation read off the kept SVD."""
    sp = b.space
    coupling = k.core.regular_part(k.range_of(b)).basis.conj().T @ sp.gram
    u, s, vh = np.linalg.svd(coupling @ b.matrix @ sp._chol_rinv)
    pinv = sp._chol_rinv @ (vh[: s.size].conj().T / s) @ u.conj().T
    return pinv @ (coupling @ c.matrix)


@pytest.mark.parametrize("start", range(0, 480, 120))
def test_normal_equation_reads_the_kept_analysis(start):
    """N(B#B) is N(B) itself on a regular nonzero R(B), and E ⊕ N(B) of dimension
    n - dim S_reg otherwise; X0 matches the formed K R^-1 to 1e-13 relative."""
    for b, c in list(_normal_equation_cases())[start : start + 120]:
        b, c = _fresh(b, c)
        r, null_bb = k.range_of(b), normal_nullspace(b)
        reg = k.core.regular_part(r).dim
        if r.dim and r.classification.regular:
            assert null_bb is k.nullspace_of(b)
        else:
            assert null_bb.dim == b.space.dim - reg
            assert k.core.contains_columns(null_bb, k.nullspace_of(b).basis)
        got = k.ils.normal_equation_solution(b, c).matrix
        assert _relative_gap(got, _formed_normal_solution(b, c)) <= 1e-13


def _residual_pair_kind(b, d):
    """The kind rule canonical_pair used before it read the kept classifications:
    BD and DB selfadjoint at tol.num * max(1, ||B|| ||D||)."""
    bd, db = b @ d, d @ b
    tol = b.space.tol.num * max(1.0, b.norm() * d.norm())
    selfadj = (bd.adjoint() - bd).norm() <= tol and (db.adjoint() - db).norm() <= tol
    return k.GeneralizedInverseKind.MOORE_PENROSE if selfadj else k.GeneralizedInverseKind.NORMAL_PAIR


def _kinds_agree(b):
    gi = k.canonical_pair(b)
    assert gi.kind is _residual_pair_kind(b, gi.d)
    return gi.kind is k.GeneralizedInverseKind.MOORE_PENROSE


def test_pair_kind_matches_the_residual_rule_on_the_instances():
    """Regularity of R(B) and N(B) decides the kind exactly as the residuals did."""
    assert sum(_kinds_agree(_fresh(b, c)[0]) for b, c in INSTANCES) > 0


@pytest.mark.parametrize("start", range(0, 600, 100))
def test_pair_kind_matches_the_residual_rule_on_degenerate_draws(start):
    for seed in range(start, start + 100):
        _kinds_agree(degenerate_instance(seed)[0])


@pytest.mark.parametrize("index", range(len(INSTANCES)))
def test_caller_supplied_projections_keep_their_validated_kind(index):
    """A Projection passed in is validated and relabelled as its matrix would be."""
    b, _ = _fresh(*INSTANCES[index])
    gi = k.canonical_pair(b)
    as_projections = k.generalized_inverse(b, gi.q, gi.p)
    as_matrices = k.generalized_inverse(b, gi.q.matrix, gi.p.matrix)
    assert as_projections.kind is as_matrices.kind is gi.kind
    for name in ("q", "p"):
        got, want = getattr(as_projections, name), getattr(as_matrices, name)
        assert got.kind is want.kind
        regular = getattr(gi, name).range_sub.classification.regular
        assert (got.kind is k.ProjectionKind.SELFADJOINT) == regular


def test_stated_rank_neither_returns_nor_replaces_the_kept_range(m4):
    b = m4.operator(np.diag([1.0, 1.0, 1.0, 0.0]))
    stated = k.subspace_from_spanning(m4, b.matrix, rank=2)
    kept = k.range_of(b)
    assert stated.dim == 2 and kept.dim == 3
    assert k.subspace_from_spanning(m4, b.matrix, rank=1).dim == 1
    assert k.range_of(b) is kept


@pytest.mark.parametrize("index", range(len(INSTANCES)))
def test_public_validators_accept_the_built_projections(index):
    """The projections canonical_pair and solve_min_ims_norm trust pass validation."""
    b, c = _fresh(*INSTANCES[index])
    gi = k.canonical_pair(b)
    again = k.generalized_inverse(b, gi.q.matrix, gi.p.matrix)
    assert np.array_equal(again.d.matrix, gi.d.matrix)
    assert again.kind is gi.kind

    rep = k.solve_min_ims_norm(b, c)
    q, p_prime = k.normal_projection(k.range_of(b)), k.normal_projection(normal_nullspace(b))
    d = k.reduced_generalized_inverse(b, q.matrix, p_prime.matrix)
    assert np.array_equal(d.matrix, _min_norm_inverse(b).matrix)
    if rep.feasible:  # the validated D reproduces X1 = (I - P')X0
        x1 = rep.solution
        dev = (d @ c - x1).norm() / max(1.0, x1.norm())
        assert rep.certificates["ims_consistency"] == dev
        assert dev <= 1e-8


def _every_public_call(b, c):
    sp = b.space
    for call in CALLS.values():
        _certified(call(b, c))
    r = k.range_of(b)
    k.isotropic_part(r)
    k.decompose_subspace(r)
    k.nullspace_of(b)
    _certified(k.solve_imax(b, c))
    _certified(k.indefinite_inverse(b))
    k.one_two_pair(b)
    gi = k.canonical_pair(b)
    k.generalized_inverse(b, gi.q, gi.p)
    k.rebuild_generalized_inverse(b, gi.d)
    k.reduced_generalized_inverse(
        b, k.normal_projection(k.range_of(b)), k.normal_projection(normal_nullspace(b))
    )
    k.split_operator(b)
    ims = _certified(k.solve_ims(b, c))
    if ims.feasible:
        k.certify_min(b, c, ims.solution, trials=20)
        k.verify_ims(ims.solution, b, c)
    if k.solve_immso(b, c).feasible:
        z0 = k.solve_immso(b, c).solution
        k.verify_immso(z0, b, c, j=k.random_fundamental_symmetry(sp, np.random.default_rng(0)))
        k.minmax_value_identity(b, c)


def test_no_reference_cycles():
    """Nothing an operator, subspace or report keeps refers back to it; every
    report's certificates are read, so their builders run here too."""
    picks = INSTANCES[:3] + INSTANCES[-2:]
    _every_public_call(*_fresh(*picks[0]))  # warm up
    gc.collect()
    gc.disable()
    try:
        for b, c in picks:
            _every_public_call(*_fresh(b, c))
        found = gc.collect()
    finally:
        gc.enable()
    assert found == 0
