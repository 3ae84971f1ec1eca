"""Indefinite inverses and operator least squares in the Krein order.

Solvers report rather than raise: a SolveReport carries feasibility, the
violated condition names when infeasible, the particular solution plus the
admissible perturbation space when feasible, and the attained value
operator. The value and the residual certificates, cross-checks of that
answer, are computed the first time they are read and then kept. The particular
solution is always the minimum Hilbert-Frobenius-norm solution of the normal
equation B#(BX - C) = 0, which reduces to the classical least-squares choice
when G = I. No solver forms
B#B, whose zero part is roundoff: X0 and N(B#B) come from the kept range
analysis (core.NormalEquation).
"""

import functools
from dataclasses import dataclass

import numpy as np

from .core import (
    Operator,
    full_subspace,
    herm,
    isotropic_part,
    norm_at_most,
    normal_equation,
    normal_nullspace,
    nullspace_of,
    pseudo_inverse_factors,
    range_of,
    scaled_to_unit,
    subspace_within,
    sum_with_companion_contains,
)
from .oracle import certify_min
from .projections import normal_projection, selfadjoint_projection

REASON_NOT_REGULAR = "RangeNotRegular"
REASON_NOT_NONNEGATIVE = "RangeNotNonnegative"
REASON_NOT_NONPOSITIVE = "RangeNotNonpositive"
REASON_INCLUSION = "RangeInclusionFails"
REASON_ZERO_OPERATOR = "ZeroOperator"


# ---------------------------------------------------------------------------
# result types
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


def _no_certificates():
    """The certificate builder of a report that has none."""
    return 0.0, {}


def _no_value():
    """The value builder of a report that has none."""
    return None


def _kept(build, *args):
    """A zero-argument builder of build(*args) that runs it at most once, so a
    report and its certificate builder share one value."""
    return functools.cache(functools.partial(build, *args))


def _join_reasons(checks):
    failed = [reason for ok, reason in checks if not ok]
    return "+".join(failed) if failed else None


# ---------------------------------------------------------------------------
# shared solver pieces
# ---------------------------------------------------------------------------

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


def _square(r):
    """R#R."""
    return r.adjoint() @ r


def _attained_value(b, x, c):
    """The value R#R at the residual R = BX - C."""
    return _square(b @ x - c)


def _value_spectrum(value):
    return np.linalg.eigvalsh(herm(value.space.gram @ value.matrix))


def _value_formula_residual(value, c, q):
    closed = c.adjoint() @ (c.space.eye() - q) @ c
    return (value - closed).norm() / max(1.0, value.norm())


def _extremal_certificates(b, c, x0, value, inclusion):
    """Closed-form cross-checks of a min/max report, with its normal-equation residual;
    value is the report's kept value builder."""
    value = value()
    certs = {"value_spectrum": _value_spectrum(value)}
    range_sub = range_of(b)
    regular = range_sub.classification.regular
    if not regular:
        # R(B) + R(B)^[⊥] is the isotropic part's companion: the feasibility condition
        certs["isotropic_companion_contains_rhs"] = inclusion
    q = normal_projection(range_sub).op
    certs["value_formula_residual"] = _value_formula_residual(value, c, q)
    if not regular:
        certs["isotropic_containment"] = subspace_within(
            range_of(b @ x0 - q @ c), isotropic_part(range_sub)
        )
    return (b.adjoint() @ (b @ x0 - c)).norm(), certs


def _solve_extremal(b, c, sign_condition, sign_reason, seed):
    """Common body of solve_ims / solve_imax; zero B and C are exact tests on the entries."""
    sp = b.space
    if not b.matrix.any():
        # zero operator contract: solvable only against a zero right-hand side
        conditions = {"zero_operator": True, "rhs_zero": not c.matrix.any()}
        if conditions["rhs_zero"]:
            manifold = SolutionManifold(sp.zero(), full_subspace(sp))
            return SolveReport(True, None, conditions, manifold, sp.zero, _no_certificates, seed)
        return SolveReport(
            False, REASON_ZERO_OPERATOR, conditions, None, _no_value, _no_certificates, seed
        )

    range_sub = range_of(b)
    inclusion = sum_with_companion_contains(range_sub, c)
    sign_ok = sign_condition(range_sub.classification)
    conditions = {"range_inclusion": inclusion, sign_reason[0]: sign_ok}
    reason = _join_reasons([(inclusion, REASON_INCLUSION), (sign_ok, sign_reason[1])])
    if reason is not None:
        return SolveReport(False, reason, conditions, None, _no_value, _no_certificates, seed)

    x0 = normal_equation_solution(b, c)
    value = _kept(_attained_value, b, x0, c)
    manifold = SolutionManifold(x0, normal_nullspace(b))
    certify = functools.partial(_extremal_certificates, b, c, x0, value, inclusion)
    return SolveReport(True, None, conditions, manifold, value, certify, seed)


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def has_indefinite_inverse(b):
    """B#(BX - I) = 0 is solvable exactly when R(B) is regular."""
    return range_of(b).classification.regular


def regular_range_rank_check(b):
    """Independent regularity test: R(B#) = R(B#B) as a rank statement.

    Both ranks are read off B scaled to unit norm (scaled_to_unit), whose B#B
    cannot overflow.
    """
    sp = b.space
    unit = sp.operator(scaled_to_unit(b.matrix, b.norm()))
    return sp.rank(unit.adjoint().matrix) == sp.rank((unit.adjoint() @ unit).matrix)


def _inverse_certificates(b, q, x0):
    """The rank remark, and for a feasible report the identities of BX0 and its residual."""
    certs = {"regularity_rank_remark": regular_range_rank_check(b)}
    if x0 is None:
        return 0.0, certs
    bx = b @ x0
    residual = (b.adjoint() @ (bx - b.space.eye())).norm()
    certs["inner_inverse_residual"] = (bx @ b - b).norm()
    certs["projection_selfadjoint_residual"] = (bx.adjoint() - bx).norm()
    certs["projection_match_residual"] = (bx - q).norm()
    return residual, certs


def indefinite_inverse(b, seed=0):
    """Solve B#(BX - I) = 0; solutions are X0 + {Y : R(Y) ⊆ N(B)}."""
    sp = b.space
    range_sub = range_of(b)
    regular = range_sub.classification.regular
    conditions = {"range_regular": regular}
    if not regular:
        certify = functools.partial(_inverse_certificates, b, None, None)
        return SolveReport(False, REASON_NOT_REGULAR, conditions, None, _no_value, certify, seed)

    q = selfadjoint_projection(range_sub).op
    left, right = pseudo_inverse_factors(b)
    x0 = Operator(sp, left @ (right @ q.matrix), _copy=False)
    manifold = SolutionManifold(x0, nullspace_of(b))
    value = _kept(_attained_value, b, x0, sp.eye())
    certify = functools.partial(_inverse_certificates, b, q, x0)
    return SolveReport(True, None, conditions, manifold, value, certify, seed)


def _stationary_certificates(b, c, x0, value):
    """The value spectrum, and on a regular range the closed forms of Q; the residual.
    value is the report's kept value builder."""
    value = value()
    certs = {"value_spectrum": _value_spectrum(value)}
    range_sub = range_of(b)
    if range_sub.classification.regular:
        q = selfadjoint_projection(range_sub).op
        certs["value_formula_residual"] = _value_formula_residual(value, c, q)
        certs["projected_equation_residual"] = (b @ x0 - q @ c).norm()
    return (b.adjoint() @ (b @ x0 - c)).norm(), certs


def indefinite_inverse_in_range(b, c, seed=0):
    """Solve B#(BX - C) = 0 with no sign condition; minmax.solve_immso is this solver.

    Feasible iff R(C) ⊆ R(B) + R(B)^[⊥] = (R(B) ∩ R(B)^[⊥])^[⊥], i.e. iff C is
    Krein-orthogonal to the isotropic part of R(B). X0 is the min-max Z1 part.
    """
    inclusion = sum_with_companion_contains(range_of(b), c)
    conditions = {"range_inclusion": inclusion}
    if not inclusion:
        return SolveReport(
            False, REASON_INCLUSION, conditions, None, _no_value, _no_certificates, seed
        )

    x0 = normal_equation_solution(b, c)
    value = _kept(_attained_value, b, x0, c)
    manifold = SolutionManifold(x0, normal_nullspace(b))
    certify = functools.partial(_stationary_certificates, b, c, x0, value)
    return SolveReport(True, None, conditions, manifold, value, certify, seed)


def solve_ims(b, c, seed=0):
    """Minimum of (BX-C)#(BX-C) in the Krein operator order.

    Feasible iff R(C) ⊆ R(B) + R(B)^[⊥] and R(B) is nonnegative; the
    minimizers are exactly the normal-equation solutions, and the attained
    value matches C#(I-Q)C whenever the closed form applies (selfadjoint Q
    for regular ranges, any normal Q for degenerate nonnegative ones).
    """
    return _solve_extremal(
        b, c, lambda cls: cls.nonnegative, ("range_nonnegative", REASON_NOT_NONNEGATIVE), seed
    )


def solve_imax(b, c, seed=0):
    """Maximum counterpart of solve_ims: R(B) must be nonpositive."""
    return _solve_extremal(
        b, c, lambda cls: cls.nonpositive, ("range_nonpositive", REASON_NOT_NONPOSITIVE), seed
    )


def verify_ims(x, b, c, trials=200, seed=0):
    """Accept X iff the normal equation holds and sampling finds no better competitor.

    The normal equation holds when ||B#(BX - C)|| <= tol.num max(1, ||B||(||B|| ||X|| + ||C||)),
    decided by norm_at_most: a spectral norm is factored only near the cutoff.
    """
    num = b.space.tol.num
    residual = (b.adjoint() @ (b @ x - c)).matrix
    if not norm_at_most(residual, lambda nb, nx, nc: num * max(1.0, nb * (nb * nx + nc)), b, x, c):
        return False
    return certify_min(b, c, x, trials=trials, seed=seed).verdict
