"""The verification oracles, checked against hand values and re-derivations."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kreinls as k
from conftest import cli_env, gaussian
from kreinls import matio
from kreinls.core import herm, nullspace_matrix, scaled_to_unit
from kreinls.oracle import _CHUNK_ENTRIES, Certificate
from test_analysis import _count_factorizations


def test_positivity_fixtures(m2):
    # G.I = diag(1,-1) is indefinite
    cert = k.is_krein_positive(m2.eye())
    assert not cert.verdict
    assert cert.min_eigen_seen < 0
    # the fundamental symmetry is the canonical positive operator
    assert k.is_krein_positive(m2.operator(m2.j)).verdict
    assert k.is_krein_positive(m2.zero()).verdict


def test_positivity_witness_reproduces_violation(m2):
    cert = k.is_krein_positive(m2.eye())
    x = cert.witness
    assert k.indefinite_inner(m2, m2.eye().matrix @ x, x).real < 0


def test_positivity_skew_witness(m2):
    t = m2.operator([[0.0, 1.0], [1.0, 0.0]])  # G T skew
    cert = k.is_krein_positive(t)
    assert not cert.verdict
    x = cert.witness
    assert abs(k.indefinite_inner(m2, t.matrix @ x, x).imag) > 1e-3


def test_operator_leq(m2):
    j = m2.operator(m2.j)
    assert k.operator_leq(m2.zero(), j).verdict
    assert not k.operator_leq(j, m2.zero()).verdict


def test_certify_min_accepts_solver_output(m2):
    b = m2.operator(np.diag([1.0, 0.0]))
    c = m2.eye()
    x0 = k.solve_ims(b, c).solution
    cert = k.certify_min(b, c, x0, trials=300)
    assert cert.verdict
    assert cert.trials == 300
    assert cert.min_eigen_seen > -1e-10


def test_certify_min_rejects_maximum_point(m2):
    # uniformly negative range: every stationary point is a maximum
    b = m2.operator(np.diag([0.0, 1.0]))
    c = b
    x_stat = m2.operator([[0.0, 0.0], [0.0, 1.0]])
    cert = k.certify_min(b, c, x_stat, trials=300)
    assert not cert.verdict
    assert cert.witness is not None
    # the witness really attains a Krein-smaller value
    w = m2.operator(cert.witness)
    val = lambda x: (b @ x - c).adjoint() @ (b @ x - c)
    diff = (val(w) - val(x_stat)).matrix
    assert np.linalg.eigvalsh(0.5 * (m2.gram @ diff + (m2.gram @ diff).conj().T)).min() < 0


def test_certify_min_deterministic(m4):
    rng = np.random.default_rng(8)
    b = m4.operator(gaussian(rng, (4, 4)))
    c = m4.operator(gaussian(rng, (4, 4)))
    x0 = m4.operator(gaussian(rng, (4, 4)))
    c1 = k.certify_min(b, c, x0, trials=50, seed=3)
    c2 = k.certify_min(b, c, x0, trials=50, seed=3)
    assert c1.verdict == c2.verdict
    assert c1.trials == c2.trials
    assert c1.min_eigen_seen == c2.min_eigen_seen
    if c1.witness is not None:
        assert np.array_equal(c1.witness, c2.witness)


def _tangent_kernel(b):
    """N(B#B) = N(U* G U) as certify_min finds it, U = B scaled to a unit largest entry, above
    twice the roundoff scale ||G||_F ||U||_F^2 of forming one product, with
    ||G||_F bounded by sqrt(n) ||G||_2."""
    sp = b.space
    unit = scaled_to_unit(b.matrix)[0]
    roundoff = 2 * np.sqrt(sp.dim) * sp.gram_norm * np.linalg.norm(unit) ** 2
    return nullspace_matrix(sp, unit.conj().T @ sp.gram @ unit, roundoff)


def _certify_min_loop(b, c, x0, trials=1000, seed=0):
    """Reference: certify_min with the same per-chunk draws, one competitor tested at a time."""
    sp = b.space
    n = sp.dim
    g = sp.gram
    rng = np.random.default_rng(seed)
    r0 = b.matrix @ x0.matrix - c.matrix
    v0 = herm(r0.conj().T @ g @ r0)
    floor = sp.gram_norm * (b.norm() * x0.norm() + c.norm()) ** 2
    kernel = _tangent_kernel(b)
    cap = max(1, 65536 // (n * n))

    def draw(shape):
        z = rng.standard_normal((2, *shape))
        return (z[0] + 1j * z[1]) / np.sqrt(2.0)

    competitors = []
    done, size, min_seen = 0, 1, np.inf
    while done < trials:
        # one chunk of draws: Gaussian stack, bump positions, bump values, tangent coefficients
        count = min(size, cap, trials - done)
        modes = [t % 3 for t in range(done, done + count)]
        gauss = iter(draw((modes.count(0), n, n)))
        rows, cols = rng.integers(n, size=(2, modes.count(1)))
        bumps = iter(zip(rows, cols, draw((modes.count(1),))))
        coeffs = iter(draw((modes.count(2), kernel.shape[1], n)))
        for mode in modes:
            if mode == 0:
                x = next(gauss)
            elif mode == 1:
                row, col, value = next(bumps)
                x = x0.matrix.copy()
                x[row, col] += value
            else:
                x = x0.matrix + kernel @ next(coeffs)
            competitors.append(x)
        done += count
        size *= 2
    for trial, x in enumerate(competitors):
        rh = x.conj().T @ b.matrix.conj().T - c.matrix.conj().T
        lam = np.linalg.eigvalsh(herm(rh @ g @ rh.conj().T) - v0)
        min_seen = min(min_seen, lam[0])
        if lam[0] < -sp.tol.num * max(-lam[0], lam[-1], floor):
            return Certificate(False, x, trial + 1, float(lam[0]))
    return Certificate(True, None, trials, float(min_seen) if trials else 0.0)


def _oracle_instance(seed, n, p, cond=0.0, rank=None, solve=False, plant=0.0, neutral=False):
    """(B, C, X0) in a space of inertia (p, n - p) with Gram condition 10^(2 cond).

    Columns of B from `rank` on are zero. With neutral=True, B maps onto the
    min(p, n - p) neutral directions (F+ + F-)/sqrt 2 of the frame F = Q |D|^(-1/2)
    of G = Q D Q*, and C = B Gamma: B#B = 0 and B#C = 0, so every X is a minimum,
    while U* G U is pure roundoff. With solve=True, X0 is the
    solve_ims solution (ValueError naming the reason when there is none),
    otherwise a Gaussian matrix. A nonzero `plant` adds that multiple of a
    Gaussian matrix to X0, which makes it non-minimal.
    """
    rng = np.random.default_rng(seed)
    d = np.concatenate([np.ones(p), -np.ones(n - p)]) * np.logspace(-cond, cond, n)
    q, _ = np.linalg.qr(gaussian(rng, (n, n)))
    g = q @ np.diag(d) @ q.conj().T
    sp = k.make_space((g + g.conj().T) / 2.0)
    m = gaussian(rng, (n, n))
    if rank is not None:
        m[:, rank:] = 0.0
    if neutral:
        frame, t = q / np.sqrt(np.abs(d)), min(p, n - p)
        m = (frame[:, :t] + frame[:, p : p + t]) / np.sqrt(2.0) @ m[:t]
    b = sp.operator(m)
    c = gaussian(rng, (n, n))
    c = sp.operator(m @ c if neutral else c)
    if solve:
        rep = k.solve_ims(b, c)
        if not rep.feasible:
            raise ValueError("solve_ims has no solution on this draw: %s" % rep.reason)
        x0 = rep.solution
    else:
        x0 = sp.operator(gaussian(rng, (n, n)))
    if plant:
        x0 = sp.operator(x0.matrix + plant * gaussian(rng, (n, n)))
    return b, c, x0


def test_oracle_instance_names_an_infeasible_draw():
    """B = 0 with C != 0 has no solve_ims solution, also in a definite space."""
    with pytest.raises(ValueError, match="ZeroOperator"):
        _oracle_instance(0, 2, 2, rank=0, solve=True, plant=1.0)


# (instance, trials, what the reference gives: "accept" or the failing trial);
# chunks cover trials 1, 2-3, 4-7, 8-15, ... and at n = 40 at most
# 65536 // 40**2 = 40 trials. The planted rejects sit inside plant windows
# about 0.1 decades wide, where the failing trial does not move.
ORACLE_REFERENCE_CASES = [
    *[((1, 3, 3, 0.0, 2, True), t, "accept") for t in (0, 1, 2, 3, 7, 8, 1000)],
    ((2, 3, 3, 0.0, None, True), 1000, "accept"),  # N(B#B) = {0}
    ((2, 3, 2, 0.0, 0, False), 1000, "accept"),  # B = 0: N(B#B) is everything
    ((5, 4, 2, 0.0, None, False, 0.0, True), 1000, "accept"),  # neutral R(B): so is N(B#B)
    ((3, 3, 1, 0.0, None, False), 1000, 1),
    ((4, 2, 2, 3.0, None, True, 1.0), 60, 1),  # nothing seen before the reject
    ((2, 2, 2, 3.0, None, True, 1e-4), 60, 2),  # first of the second chunk
    ((14, 2, 2, 0.0, 1, True, 10.0**-4.53), 60, 4),  # first of a chunk
    ((8, 3, 3, 0.0, None, True, 10.0**-4.44), 60, 8),  # first of a chunk
    ((3, 2, 2, 0.0, 1, True, 10.0**-4.41), 60, 7),  # inside a chunk, its last
    ((36, 2, 2, 0.0, 1, True, 10.0**-4.67), 60, 11),  # inside a chunk
    ((4, 40, 40, 0.0, 30, True), 300, "accept"),  # the chunk cap binds
]
_REFERENCE_IDS = ["seed%d-n%d-trials%d" % (a[0], a[1], t) for a, t, _ in ORACLE_REFERENCE_CASES]


@pytest.mark.parametrize("args,trials,outcome", ORACLE_REFERENCE_CASES, ids=_REFERENCE_IDS)
def test_certify_min_matches_per_trial_reference(args, trials, outcome):
    b, c, x0 = _oracle_instance(*args)
    ref = _certify_min_loop(b, c, x0, trials=trials, seed=0)
    got = k.certify_min(b, c, x0, trials=trials, seed=0)
    if outcome == "accept":
        assert ref.verdict and ref.trials == trials
    else:
        assert not ref.verdict and ref.trials == outcome
    _assert_same_certificate(got, ref)


def _assert_same_certificate(got, ref):
    assert got.verdict == ref.verdict
    assert got.trials == ref.trials
    assert got.min_eigen_seen == ref.min_eigen_seen
    if ref.witness is None:
        assert got.witness is None
    else:
        assert np.array_equal(got.witness, ref.witness)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**20), n=st.integers(2, 8), cond=st.floats(0.0, 3.0))
def test_tangent_competitors_span_the_kernel_of_a_neutral_range(seed, n, cond):
    """R(B) neutral: B#B = 0, so N(B#B) is the whole space, while U* G U is pure
    roundoff. Decided above that roundoff's scale, the kernel certify_min draws its
    tangent competitors from has all n columns; against U* G U's own s_1 it had none."""
    b, _, _ = _oracle_instance(seed, n, n - n // 2, cond, neutral=True)
    assert _tangent_kernel(b).shape[1] == n


def test_the_tangent_kernel_floor_survives_a_huge_gram(monkeypatch):
    """||G||_F of G = 1e200 diag(1, 2, 3) overflows a plain sum of squares, and an
    infinite floor would make the tangent kernel everything. certify_min bounds it
    by sqrt(n) ||G||_2 instead, so an invertible B#B leaves no tangent direction."""
    sp = k.make_space(1e200 * np.diag([1.0, 2.0, 3.0]))
    kernels = []

    def spy(space, a, floor):
        kernels.append(nullspace_matrix(space, a, floor))
        return kernels[-1]

    monkeypatch.setattr(k.oracle, "nullspace_matrix", spy)
    assert k.certify_min(sp.eye(), sp.eye(), sp.eye(), trials=8).verdict
    assert [kernel.shape[1] for kernel in kernels] == [0]


@pytest.mark.parametrize("n", range(1, 9))
def test_row_form_products_match_per_matrix_products(n):
    """What certify_min's exactness rests on: a gemm of row-stacked n x n
    matrices by a fixed right factor, and numpy's batched product, give every
    matrix the bits of its own n x n product, for every chunk size up to the cap.

    If this fails, the BLAS build rounds a row differently with the stack
    height, and certify_min no longer equals the per-trial reference."""
    cap = max(1, _CHUNK_ENTRIES // (n * n))
    rng = np.random.default_rng(n)
    xs, ps = gaussian(rng, (2, cap, n, n))
    f = gaussian(rng, (n, n))
    sizes = {*range(1, 65), 489, cap, *(2**e + d for e in range(17) for d in (-1, 0, 1))}
    for right in (f, f.conj().T):  # G as stored, and B* as a transposed view
        alone = np.array([x.conj().T @ right for x in xs])
        for count in sorted(t for t in sizes if 1 <= t <= cap):
            rows = (xs[:count].conj().swapaxes(1, 2).reshape(-1, n) @ right).reshape(count, n, n)
            assert np.array_equal(rows, alone[:count]), ("row-stacked gemm", n, count)
    alone = np.array([p @ x.conj().T for p, x in zip(ps, xs)])
    for count in sorted(t for t in sizes if 1 <= t <= cap):
        batched = ps[:count] @ xs[:count].conj().swapaxes(1, 2)
        assert np.array_equal(batched, alone[:count]), ("batched product", n, count)


# trial counts at the chunk boundaries 2^j - 1 and one either side (no cap binds at n <= 6)
_BOUNDARY_TRIALS = sorted({max(0, 2**j - 1 + d) for j in range(11) for d in (-1, 0, 1)})


@st.composite
def _oracle_cases(draw):
    n = draw(st.integers(1, 6))
    # solve_ims is feasible for B != 0 in a positive definite space; a Gaussian
    # X0 mostly fails at the first trial, so it gets one draw in four
    solve = draw(st.integers(0, 3)) > 0
    args = (
        draw(st.integers(0, 2**20)),
        n,
        n if solve else draw(st.integers(0, n)),
        draw(st.floats(0.0, 3.0)),
        draw(st.one_of(st.none(), st.integers(int(solve), n))),
        solve,
        draw(st.one_of(st.just(0.0), st.floats(-6.0, 1.0).map(lambda e: 10.0**e))),
    )
    return args, draw(st.sampled_from(_BOUNDARY_TRIALS)), draw(st.integers(0, 2**20))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(case=_oracle_cases())
def test_certify_min_equals_per_trial_reference(case):
    args, trials, seed = case
    b, c, x0 = _oracle_instance(*args)
    ref = _certify_min_loop(b, c, x0, trials=trials, seed=seed)
    _assert_same_certificate(k.certify_min(b, c, x0, trials=trials, seed=seed), ref)


def test_certify_min_runs_one_eigvalsh_per_chunk(monkeypatch):
    """A 1000-trial accept at n = 3: chunks of 1, 2, ..., 256 and 489 trials, one
    eigvalsh each, after the prologue's three norms and the SVD of U* G U."""
    b, c, x0 = _oracle_instance(1, 3, 3, 0.0, 2, True)
    b, c, x0 = (b.space.operator(t.matrix) for t in (b, c, x0))  # nothing kept yet
    counts = _count_factorizations(monkeypatch)
    assert k.certify_min(b, c, x0, trials=1000).verdict
    assert counts == {"eigvalsh": 10, "norm2": 3, "svd": 1}


@pytest.mark.parametrize("args,trials,outcome", ORACLE_REFERENCE_CASES, ids=_REFERENCE_IDS)
def test_certify_min_verdict_is_scale_invariant(args, trials, outcome):
    """B and C scaled together by 10^a: the same verdict at the same trial."""
    b, c, x0 = _oracle_instance(*args)
    sp = b.space
    want = k.certify_min(b, c, x0, trials=trials, seed=0)
    for exp in (-50, -8, 0, 8, 50):
        scale = 10.0**exp
        got = k.certify_min(
            sp.operator(scale * b.matrix), sp.operator(scale * c.matrix), x0,
            trials=trials, seed=0,
        )
        assert (got.verdict, got.trials) == (want.verdict, want.trials), exp


def test_certify_min_accepts_minimizers_of_ill_conditioned_grams():
    """Gram condition 1e6: solve_ims minimizers pass, Gaussian matrices do not."""
    for n in (2, 3, 4):
        for seed in range(60):
            b, c, x0 = _oracle_instance(seed, n, n, 3.0, None, True)
            cert = k.certify_min(b, c, x0, trials=300)
            assert cert.verdict and cert.trials == 300, (n, seed, cert.min_eigen_seen)
    for seed in range(60):
        b, c, x0 = _oracle_instance(seed, 2, 2, 3.0, None, False)
        assert not k.certify_min(b, c, x0, trials=300).verdict, seed


def test_is_krein_positive_on_ill_conditioned_grams():
    """Gram condition 1e6: V(X0) = R#R passes, the Gaussian B fails the skew test.
    Gram condition 1e8: every V that passes the skew test passes, and -V fails.

    Forming G T costs roundoff of order ||G|| ||T||, far above ||G T|| when G
    is ill-conditioned; the skew test measured against ||G T|| rejected 116 of
    the 180 values at 1e6, the eigenvalue test 40 of the 180 at 1e8.
    """
    for n in (2, 3, 4):
        for seed in range(60):
            b, c, x0 = _oracle_instance(seed, n, n, 3.0, None, True)
            r = b @ x0 - c
            cert = k.is_krein_positive(r.adjoint() @ r)
            assert cert.verdict, (n, seed, cert.min_eigen_seen)
            cert = k.is_krein_positive(b)
            assert not cert.verdict, (n, seed)
            form = k.indefinite_inner(b.space, b.matrix @ cert.witness, cert.witness)
            assert abs(form.imag) > k.core.SYM_TOL * b.space.gram_norm * b.norm(), (n, seed)
    hermitian = 0
    for n in (2, 3, 4):
        for seed in range(60):
            b, c, x0 = _oracle_instance(seed, n, n, 4.0, None, True)
            r = b @ x0 - c
            v = r.adjoint() @ r
            sp = v.space
            gv = sp.gram @ v.matrix
            if np.linalg.norm(gv - gv.conj().T, 2) / 2.0 <= k.core.SYM_TOL * sp.gram_norm * v.norm():
                hermitian += 1
                cert = k.is_krein_positive(v)
                assert cert.verdict, (n, seed, cert.min_eigen_seen)
            assert not k.is_krein_positive(-v).verdict, (n, seed)
    assert hermitian >= 150


def test_cli_oracle_eigenvalue_reject_at_first_trial(tmp_path):
    """A reject at the first competitor reports that competitor's eigenvalue."""
    b, c, x0 = _oracle_instance(4, 2, 2, 3.0, None, True, 1.0)
    files = {"space.json": {"gram": matio.matrix_to_json(b.space.gram)}}
    for name, op in (("b", b), ("c", c), ("x", x0)):
        files[name + ".json"] = matio.matrix_to_json(op.matrix)
    for name, obj in files.items():
        (tmp_path / name).write_text(matio.canonical_dumps(obj) + "\n")
    argv = ["oracle", "--space", "space.json", "--b", "b.json", "--c", "c.json", "--x", "x.json"]
    proc = subprocess.run(
        [sys.executable, "-m", "kreinls.cli", *argv],
        cwd=tmp_path, env=cli_env(), capture_output=True, text=True,
    )
    assert proc.returncode == 2, proc.stderr
    report = json.loads(proc.stdout)
    assert report["verdict"] is False and report["trials"] == 1
    assert report["witness"] is not None
    # the first competitor is the same Gaussian draw whatever the trial budget
    first = k.certify_min(b, c, x0, trials=1)
    assert not first.verdict
    assert report["min_eigen_seen"] == first.min_eigen_seen < 0.0


def test_certify_min_rejects_negative_trials(m2):
    b = m2.operator(np.diag([1.0, 0.0]))
    c = m2.eye()
    x0 = k.solve_ims(b, c).solution
    with pytest.raises(k.KreinError):
        k.certify_min(b, c, x0, trials=-5)
    with pytest.raises(k.KreinError):
        k.verify_ims(x0, b, c, trials=-1)
    assert k.certify_min(b, c, x0, trials=0) == k.Certificate(True, None, 0, 0.0)


def test_a_negative_seed_is_an_error(m2):
    """np.random.default_rng refuses a negative seed with a ValueError; the oracle and
    every seeded report refuse it first, with a KreinError."""
    b = m2.operator(np.diag([1.0, 0.0]))
    c = m2.eye()
    x0 = k.solve_ims(b, c).solution
    with pytest.raises(k.KreinError, match="seed"):
        k.certify_min(b, c, x0, trials=5, seed=-1)
    with pytest.raises(k.KreinError, match="seed"):
        k.krein_moore_penrose(b, seed=-1)


def test_certify_min_non_finite_competitor_is_an_error(m2):
    # (B X - B)#(B X - B) overflows for every competitor X != I
    b = m2.operator(1e160 * np.array([[1.0, 0.5], [0.0, 1.0]]))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(k.KreinError):
        k.certify_min(b, b, m2.eye(), trials=50)


def test_certify_min_names_the_non_finite_competitor(m2):
    # the floor ||G|| (||B|| ||X0|| + ||C||)^2 overflows, so competitor 1 cannot be tested
    b = m2.operator(1e154 * np.array([[1.0, 0.5], [0.0, 1.0]]))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(k.KreinError, match="competitor"):
        k.certify_min(b, b, m2.eye(), trials=50)


def test_hilbert_limit_random_suite():
    space = k.make_space(np.eye(3))
    rng = np.random.default_rng(61)
    for _ in range(10):
        b = space.operator(gaussian(rng, (3, 3)))
        c = space.operator(gaussian(rng, (3, 3)))
        cert = k.hilbert_limit_check(b, c)
        assert cert.verdict
        assert cert.min_eigen_seen <= 1e-10


def test_hilbert_limit_zero_operator():
    space = k.make_space(np.eye(2))
    assert k.hilbert_limit_check(space.zero()).verdict


def test_hilbert_limit_requires_identity_gram(m2):
    b = m2.eye()
    try:
        k.hilbert_limit_check(b)
    except k.SpaceMismatch:
        return
    raise AssertionError("expected SpaceMismatch")


def test_oracle_runs_without_solver_modules():
    """The oracle must deliver verdicts with only core + errors importable."""
    pkg_dir = Path(k.__file__).resolve().parent
    script = f"""
import importlib.util, sys, types
import numpy as np

pkg = types.ModuleType("kreinls")
pkg.__path__ = [{str(pkg_dir)!r}]
sys.modules["kreinls"] = pkg
for name in ("errors", "core", "oracle"):
    spec = importlib.util.spec_from_file_location(
        "kreinls." + name, {str(pkg_dir)!r} + "/" + name + ".py")
    mod = importlib.util.module_from_spec(spec)
    sys.modules["kreinls." + name] = mod
    spec.loader.exec_module(mod)

for solver in ("kreinls.ils", "kreinls.pinv", "kreinls.projections", "kreinls.minmax"):
    assert solver not in sys.modules, solver

core = sys.modules["kreinls.core"]
oracle = sys.modules["kreinls.oracle"]
sp = core.make_space(np.diag([1.0, -1.0]))
assert oracle.is_krein_positive(sp.operator(sp.j)).verdict
assert not oracle.is_krein_positive(sp.eye()).verdict
"""
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
