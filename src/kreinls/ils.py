"""Indefinite inverses and operator least squares in the Krein order.

Solvers report rather than raise: a SolveReport carries feasibility, the
violated condition names when infeasible, the particular solution plus the
admissible perturbation space when feasible, the attained value operator,
and residual certificates. The particular solution is always the minimum
Hilbert-Frobenius-norm solution of the normal equation B#(BX - C) = 0, which
reduces to the classical least-squares choice when G = I. No solver forms
B#B, whose zero part is roundoff: X0 and N(B#B) come from the kept range
analysis (core.NormalEquation).
"""

from dataclasses import dataclass, field

import numpy as np

from .core import (
    Operator,
    full_subspace,
    herm,
    isotropic_part,
    normal_equation,
    normal_nullspace,
    nullspace_of,
    pseudo_inverse,
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
    feasible: bool
    reason: str | None
    conditions: dict
    manifold: SolutionManifold | None
    value: Operator | None
    residual_normal_eq: float
    certificates: dict = field(default_factory=dict)
    seed: int | None = None

    @property
    def solution(self):
        return self.manifold.particular if self.manifold is not None else None


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


def _attained_value(b, c, x0):
    r = b @ x0 - c
    return r.adjoint() @ r


def _value_spectrum(value):
    return np.linalg.eigvalsh(herm(value.space.gram @ value.matrix))


def _value_certificates(b, c, x0, value, inclusion):
    """Closed-form cross-checks attached to min/max reports."""
    certs = {"value_spectrum": _value_spectrum(value)}
    range_sub = range_of(b)
    regular = range_sub.classification.regular
    if not regular:
        # R(B) + R(B)^[⊥] is the isotropic part's companion: the feasibility condition
        certs["isotropic_companion_contains_rhs"] = inclusion
    q = normal_projection(range_sub).op
    closed = c.adjoint() @ (c.space.eye() - q) @ c
    certs["value_formula_residual"] = (value - closed).norm() / max(1.0, value.norm())
    if not regular:
        certs["isotropic_containment"] = subspace_within(
            range_of(b @ x0 - q @ c), isotropic_part(range_sub)
        )
    return certs


def _solve_extremal(b, c, sign_condition, sign_reason, seed):
    """Common body of solve_ims / solve_imax; zero B and C are exact tests on the entries."""
    sp = b.space
    if not b.matrix.any():
        # zero operator contract: solvable only against a zero right-hand side
        conditions = {"zero_operator": True, "rhs_zero": not c.matrix.any()}
        if conditions["rhs_zero"]:
            manifold = SolutionManifold(sp.zero(), full_subspace(sp))
            return SolveReport(True, None, conditions, manifold, sp.zero(), 0.0, {}, seed)
        return SolveReport(False, REASON_ZERO_OPERATOR, conditions, None, None, 0.0, {}, seed)

    range_sub = range_of(b)
    inclusion = sum_with_companion_contains(range_sub, c)
    sign_ok = sign_condition(range_sub.classification)
    conditions = {"range_inclusion": inclusion, sign_reason[0]: sign_ok}
    reason = _join_reasons([(inclusion, REASON_INCLUSION), (sign_ok, sign_reason[1])])
    if reason is not None:
        return SolveReport(False, reason, conditions, None, None, 0.0, {}, seed)

    x0 = normal_equation_solution(b, c)
    value = _attained_value(b, c, x0)
    manifold = SolutionManifold(x0, normal_nullspace(b))
    certs = _value_certificates(b, c, x0, value, inclusion)
    residual = (b.adjoint() @ (b @ x0 - c)).norm()
    return SolveReport(True, None, conditions, manifold, value, residual, certs, seed)


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


def indefinite_inverse(b, seed=0):
    """Solve B#(BX - I) = 0; solutions are X0 + {Y : R(Y) ⊆ N(B)}."""
    sp = b.space
    range_sub = range_of(b)
    regular = range_sub.classification.regular
    conditions = {"range_regular": regular}
    certs = {"regularity_rank_remark": regular_range_rank_check(b)}
    if not regular:
        return SolveReport(False, REASON_NOT_REGULAR, conditions, None, None, 0.0, certs, seed)

    q = selfadjoint_projection(range_sub).op
    x0 = Operator(sp, pseudo_inverse(b).matrix @ q.matrix)
    eye = sp.eye()
    bx = b @ x0
    residual = (b.adjoint() @ (bx - eye)).norm()
    certs["inner_inverse_residual"] = (bx @ b - b).norm()
    certs["projection_selfadjoint_residual"] = (bx.adjoint() - bx).norm()
    certs["projection_match_residual"] = (bx - q).norm()
    manifold = SolutionManifold(x0, nullspace_of(b))
    value = _attained_value(b, eye, x0)
    return SolveReport(True, None, conditions, manifold, value, residual, certs, seed)


def indefinite_inverse_in_range(b, c, seed=0):
    """Solve B#(BX - C) = 0 with no sign condition; minmax.solve_immso is this solver.

    Feasible iff R(C) ⊆ R(B) + R(B)^[⊥] = (R(B) ∩ R(B)^[⊥])^[⊥], i.e. iff C is
    Krein-orthogonal to the isotropic part of R(B). X0 is the min-max Z1 part.
    """
    range_sub = range_of(b)
    inclusion = sum_with_companion_contains(range_sub, c)
    conditions = {"range_inclusion": inclusion}
    if not inclusion:
        return SolveReport(False, REASON_INCLUSION, conditions, None, None, 0.0, {}, seed)

    x0 = normal_equation_solution(b, c)
    residual = (b.adjoint() @ (b @ x0 - c)).norm()
    value = _attained_value(b, c, x0)
    certs = {"value_spectrum": _value_spectrum(value)}
    if range_sub.classification.regular:
        q = selfadjoint_projection(range_sub).op
        closed = c.adjoint() @ (c.space.eye() - q) @ c
        certs["value_formula_residual"] = (value - closed).norm() / max(1.0, value.norm())
        certs["projected_equation_residual"] = (b @ x0 - q @ c).norm()
    manifold = SolutionManifold(x0, normal_nullspace(b))
    return SolveReport(True, None, conditions, manifold, value, residual, certs, seed)


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
    """Accept X iff the normal equation holds and sampling finds no better competitor."""
    residual = (b.adjoint() @ (b @ x - c)).norm()
    scale = max(1.0, b.norm() * (b.norm() * x.norm() + c.norm()))
    if residual > b.space.tol.num * scale:
        return False
    return certify_min(b, c, x, trials=trials, seed=seed).verdict
