"""Indefinite inverses and operator least squares in the Krein order.

Each solver is a row of one problem table (Problem), answered by one body,
solve_problem, in the paper's shape: solvability conditions, each with the
reason a report prints when it fails; then the particular solution, the
perturbation space and the attained value; then certificates, cross-checks of
that answer formed on first read, as the value is. The particular solution is
the minimum Hilbert-Frobenius-norm solution of the normal equation
B#(BX - C) = 0, read off the kept range analysis (core.NormalEquation): no
solver forms B#B, whose zero part is roundoff.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .core import (
    Operator,
    full_subspace,
    herm,
    isotropic_part,
    negligible,
    normal_equation,
    normal_nullspace,
    nullspace_of,
    pseudo_inverse_factors,
    range_of,
    same_space,
    sum_with_companion_contains,
)
from .errors import KreinError
from .oracle import certify_min
from .projections import normal_projection, selfadjoint_projection


# ---------------------------------------------------------------------------
# reports and the problem table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SolutionManifold:
    """Affine solution set: particular + {Y : R(Y) ⊆ perturbation_space}."""

    particular: Operator
    perturbation_space: object

    def member(self, coeff):
        """particular + basis @ coeff, coeff of shape (dim, n)."""
        basis = self.perturbation_space.basis
        coeff = np.asarray(coeff, dtype=complex).reshape(basis.shape[1], -1)
        return Operator(self.particular.space, self.particular.matrix + basis @ coeff)

    def sample(self, rng, scale=1.0):
        k = self.perturbation_space.dim
        n = self.particular.space.dim
        coeff = scale * (rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n)))
        return self.member(coeff)


@dataclass(frozen=True)
class SolveReport:
    """A solver's answer: the verdict, its conditions, the solutions and the value.

    evaluate is a zero-argument callable returning the value (None when there
    is none), and certify one returning (residual_normal_eq, certificates).
    Each runs the first time what it builds is read, and its result is kept:
    a caller that never reads the value or a certificate never pays for it.
    """

    feasible: bool
    reason: str | None
    conditions: dict
    manifold: SolutionManifold | None
    evaluate: object  # () -> value
    certify: object  # () -> (residual_normal_eq, certificates)
    seed: int | None = None

    @property
    def solution(self):
        return self.manifold.particular if self.manifold is not None else None

    @functools.cached_property
    def value(self):
        return self.evaluate()

    @functools.cached_property
    def _certified(self):
        return self.certify()

    residual_normal_eq = property(lambda self: self._certified[0])
    certificates = property(lambda self: self._certified[1])


@dataclass(frozen=True)
class Problem:
    """One row of the problem table.

    conditions  (report name, reason, test(b, c)), in report order
    solve       (b, c) -> (particular solution, perturbation space, value builder or None)
    certify     (b, c, particular, value builder, seed) -> (residual_normal_eq, certificates)
    refuted     (b, c) -> the same pair for an infeasible report, if it has any
    """

    conditions: tuple
    solve: object
    certify: object
    refuted: object = None


def _no_certificates(*_):
    """The certificates of a report that has none."""
    return 0.0, {}


def _no_value():
    """The value builder of a report that has none."""
    return None


def solve_problem(problem, b, c, seed=0):
    """Decide every condition (none short-circuits), join the failed ones' reasons by "+",
    and keep the value builder once: a report and its certificates share one value."""
    if seed is not None and seed < 0:
        raise KreinError("seed must be nonnegative, got %d" % seed)
    same_space(b, c)
    conditions = {name: test(b, c) for name, _, test in problem.conditions}
    reason = "+".join(why for name, why, _ in problem.conditions if not conditions[name])
    if reason:
        refuted = functools.partial(problem.refuted or _no_certificates, b, c)
        return SolveReport(False, reason, conditions, None, _no_value, refuted, seed)
    x0, perturbation, value = problem.solve(b, c)
    value = functools.cache(value or _no_value)
    certify = functools.partial(problem.certify, b, c, x0, value, seed)
    manifold = SolutionManifold(x0, perturbation)
    return SolveReport(True, None, conditions, manifold, value, certify, seed)


def normal_equation_solution(b, c, metric=None):
    """Minimum-norm solution X0 = R^-1 (K R^-1)^+ U_reg* G C of B#(BX - C) = 0.

    C must pass the feasibility test. The norm being minimized is the
    Hilbert-Frobenius norm of the metric: the space's cached one, or another
    positive-definite metric (e.g. from an alternative fundamental
    decomposition), whose minimizer drops X0's part along N(B#B).
    """
    eq = normal_equation(b)
    x0 = eq.pinv @ (eq.coupling @ c.matrix)
    if metric is not None:
        n = eq.nullspace.basis
        x0 = x0 - n @ np.linalg.solve(n.conj().T @ metric @ n, n.conj().T @ metric @ x0)
    return Operator(b.space, x0)


def krein_square(r):
    """R#R: the value at a residual R, and X#X for the minimal-X#X problem."""
    return r.adjoint() @ r


def _attained_value(b, x, c):
    """The value R#R at the residual R = BX - C."""
    return krein_square(b @ x - c)


def value_spectrum(value):
    """The eigenvalues of G V for a value V."""
    return np.linalg.eigvalsh(herm(value.space.gram @ value.matrix))


def _value_formula_residual(value, c, q):
    closed = c.adjoint() @ (c.space.eye() - q) @ c
    return (value - closed).norm() / max(1.0, value.norm())


def _normal_equation_answer(b, c):
    """X0 from the kept normal equation, N(B#B), and the value at X0."""
    x0 = normal_equation_solution(b, c)
    return x0, normal_nullspace(b), functools.partial(_attained_value, b, x0, c)


def has_sign(subspace, sign):
    """The test that subspace(B) is `sign` ("regular", ...) by its kept classification."""
    return lambda b, c: getattr(subspace(b).classification, sign)


RANGE_INCLUSION = (
    "range_inclusion",
    "RangeInclusionFails",
    lambda b, c: sum_with_companion_contains(range_of(b), c),
)
RANGE_REGULAR = ("range_regular", "RangeNotRegular", has_sign(range_of, "regular"))
RANGE_NONNEGATIVE = ("range_nonnegative", "RangeNotNonnegative", has_sign(range_of, "nonnegative"))
RANGE_NONPOSITIVE = ("range_nonpositive", "RangeNotNonpositive", has_sign(range_of, "nonpositive"))


def _extremal_certificates(b, c, x0, value, seed):
    """Closed-form cross-checks of a min/max report, with its normal-equation residual."""
    value = value()
    certs = {"value_spectrum": value_spectrum(value)}
    range_sub = range_of(b)
    regular = range_sub.classification.regular
    q = normal_projection(range_sub).op
    certs["value_formula_residual"] = _value_formula_residual(value, c, q)
    if not regular:  # Y = BX0 - QC lies in S^o: (I - S^o S^o* M) Y is roundoff
        y, iso = (b @ x0 - q @ c).matrix, isotropic_part(range_sub).basis
        residual = y - iso @ (iso.conj().T @ (b.space.metric @ y))
        certs["isotropic_containment"] = negligible(residual, (b, x0), (q, c))
    return (b.adjoint() @ (b @ x0 - c)).norm(), certs


MINIMUM = Problem(
    (RANGE_INCLUSION, RANGE_NONNEGATIVE), _normal_equation_answer, _extremal_certificates
)
MAXIMUM = Problem(
    (RANGE_INCLUSION, RANGE_NONPOSITIVE), _normal_equation_answer, _extremal_certificates
)
# the min and max problems of B = 0 (an exact test on the entries): solved by every X iff C = 0
ZERO_OPERATOR = Problem(
    (
        ("zero_operator", None, lambda b, c: not b.matrix.any()),  # holds: the row is chosen on it
        ("rhs_zero", "ZeroOperator", lambda b, c: not c.matrix.any()),
    ),
    lambda b, c: (b.space.zero(), full_subspace(b.space), b.space.zero),
    _no_certificates,
)


def _stationary_certificates(b, c, x0, value, seed):
    """The value spectrum, and on a regular range the closed forms of Q; the residual."""
    value = value()
    certs = {"value_spectrum": value_spectrum(value)}
    range_sub = range_of(b)
    if range_sub.classification.regular:
        q = selfadjoint_projection(range_sub).op
        certs["value_formula_residual"] = _value_formula_residual(value, c, q)
        certs["projected_equation_residual"] = (b @ x0 - q @ c).norm()
    return (b.adjoint() @ (b @ x0 - c)).norm(), certs


STATIONARY = Problem((RANGE_INCLUSION,), _normal_equation_answer, _stationary_certificates)


def regular_range_rank_check(b):
    """The remark R(B#) = R(B#B) on dimensions: rank B = dim S and dim R(B#B) = dim S_reg
    for S = R(B), as B# kills S's isotropic part and is injective on S_reg. They agree
    exactly when S is regular, so the remark is the classification of R(B), not a check."""
    return range_of(b).classification.regular


def _inverse_answer(b, c):
    """X0 = B+ Q for the selfadjoint projection Q onto R(B), N(B), and the value; C = I."""
    q = selfadjoint_projection(range_of(b)).op
    left, right = pseudo_inverse_factors(b)
    x0 = Operator(b.space, left @ (right @ q.matrix), _copy=False)
    return x0, nullspace_of(b), functools.partial(_attained_value, b, x0, c)


def _inverse_certificates(b, c, x0=None, value=None, seed=None):
    """The rank remark, and for a feasible report the identities of BX0 and its residual."""
    certs = {"regularity_rank_remark": regular_range_rank_check(b)}
    if x0 is None:
        return 0.0, certs
    bx = b @ x0
    certs["inner_inverse_residual"] = (bx @ b - b).norm()
    certs["projection_selfadjoint_residual"] = (bx.adjoint() - bx).norm()
    certs["projection_match_residual"] = (bx - selfadjoint_projection(range_of(b)).op).norm()
    return (b.adjoint() @ (bx - c)).norm(), certs


INVERSE = Problem((RANGE_REGULAR,), _inverse_answer, _inverse_certificates, _inverse_certificates)


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def has_indefinite_inverse(b):
    """B#(BX - I) = 0 is solvable exactly when R(B) is regular."""
    return range_of(b).classification.regular


def indefinite_inverse(b, seed=0):
    """Solve B#(BX - I) = 0; solutions are X0 + {Y : R(Y) ⊆ N(B)}."""
    return solve_problem(INVERSE, b, b.space.eye(), seed)


def indefinite_inverse_in_range(b, c, seed=0):
    """Solve B#(BX - C) = 0 with no sign condition; minmax.solve_immso is this solver.

    Feasible iff R(C) ⊆ R(B) + R(B)^[⊥] = (R(B) ∩ R(B)^[⊥])^[⊥], i.e. iff C is
    Krein-orthogonal to the isotropic part of R(B). X0 is the min-max Z1 part.
    """
    return solve_problem(STATIONARY, b, c, seed)


def solve_ims(b, c, seed=0):
    """Minimum of (BX-C)#(BX-C) in the Krein operator order.

    Feasible iff R(C) ⊆ R(B) + R(B)^[⊥] and R(B) is nonnegative; the
    minimizers are exactly the normal-equation solutions, and the attained
    value matches C#(I-Q)C whenever the closed form applies (selfadjoint Q
    for regular ranges, any normal Q for degenerate nonnegative ones).
    """
    return solve_problem(ZERO_OPERATOR if not b.matrix.any() else MINIMUM, b, c, seed)


def solve_imax(b, c, seed=0):
    """Maximum counterpart of solve_ims: R(B) must be nonpositive."""
    return solve_problem(ZERO_OPERATOR if not b.matrix.any() else MAXIMUM, b, c, seed)


def verify_ims(x, b, c, trials=200, seed=0):
    """Accept X iff the normal equation holds and sampling finds no better competitor.

    The normal equation holds when B#(BX - C) is negligible against the roundoff scale
    of forming it, ||B|| ||B|| ||X|| + ||B|| ||C||; a norm is factored only near the cutoff.
    """
    residual = (b.adjoint() @ (b @ x - c)).matrix
    if not negligible(residual, (b, b, x), (b, c)):
        return False
    return certify_min(b, c, x, trials=trials, seed=seed).verdict
