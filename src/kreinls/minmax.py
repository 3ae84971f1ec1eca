"""Min-max operator approximation via range splitting.

An operator with indefinite range splits as B = B+ + B-, where the parts
are the compressions of B to the positive and negative halves of a
fundamental decomposition of R(B). The mixed problem min-max over (X, Y)
of (B+X + B-Y - C)#(...) decouples because B+#B- = 0, and both orders of
optimization attain the same value.
"""

from dataclasses import dataclass

import numpy as np

from .core import (
    Operator,
    decompose_subspace,
    negligible,
    range_of,
    range_orthogonal,
    same_space,
    sum_with_companion_contains,
)
from .errors import InfeasibleInstance
from .ils import indefinite_inverse_in_range, krein_square, normal_equation_solution


@dataclass(frozen=True)
class OperatorSplit:
    """B = b_plus + b_minus with R(b_plus) ⊆ s_plus, R(b_minus) ⊆ s_minus."""

    b_plus: Operator
    b_minus: Operator
    s_plus: object
    s_minus: object


def split_operator(b):
    """Split B along a fundamental decomposition of its range.

    The parts are P± B where P± is the metric-orthogonal projection onto
    the corresponding half; by construction b_plus#b_minus = 0 and the two
    ranges are both indefinitely and metrically orthogonal.
    """
    sp = b.space
    s_plus, s_minus = decompose_subspace(range_of(b))
    m = sp.metric

    def compress(sub):
        p = sub.basis @ sub.basis.conj().T @ m
        return Operator(sp, p @ b.matrix)

    return OperatorSplit(compress(s_plus), compress(s_minus), s_plus, s_minus)


solve_immso = indefinite_inverse_in_range  # the stationary problem B#(BZ - C) = 0


def verify_immso(z0, b, c):
    """Accept Z0 iff B#(BZ0 - C) = 0. With Z1 the library's solution this is B#B(Z0 - Z1) = 0:
    the gap B(Z0 - Z1), which lies in R(B), must be Krein-orthogonal to R(B), i.e. lie in its
    isotropic part; on an indefinite R(B) a neutral gap need not. Any two solutions differ by
    such a gap, so the choice of Z1 decides nothing."""
    same_space(z0, b, c)
    if not sum_with_companion_contains(range_of(b), c):
        raise InfeasibleInstance("stationary problem has no solution for this right-hand side")
    z1 = normal_equation_solution(b, c)
    gap = b @ (z0 - z1)
    # a gap within the roundoff of forming B (Z0 - Z1) is a zero gap
    return negligible(gap.matrix, (b, z0), (b, z1)) or range_orthogonal(b, gap)


def random_fundamental_symmetry(space, rng, scale=0.3):
    """A random J' = U J U# with U = (I - A/2)^-1 (I + A/2), A = W - W#.

    A is Krein-skew (A# = -A), so its Cayley transform U is Krein-unitary:
    U# = (I - A/2)(I + A/2)^-1 = U^-1, because the two factors commute. Then
    J' is again a fundamental symmetry (Higham, "J-orthogonal matrices:
    properties and generation", SIAM Review 45(3), 2003).
    """
    n = space.dim
    w = scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    w_op = Operator(space, w)
    half = 0.5 * (w_op - w_op.adjoint()).matrix
    eye = np.eye(n)
    u = np.linalg.solve(eye - half, eye + half)
    u_sharp = Operator(space, u).adjoint().matrix
    return Operator(space, u @ space.j @ u_sharp)


def minmax_value_identity(b, c):
    """Attained values of both optimization orders over the split of B.

    Returns (value_minmax, value_maxmin): first minimize over the positive
    part then maximize over the negative one, and the reverse. A zero part
    makes its stage vacuous (the corresponding variable is fixed at 0).
    """
    same_space(b, c)
    if not sum_with_companion_contains(range_of(b), c):
        raise InfeasibleInstance("min-max problem has no solution for this right-hand side")

    split = split_operator(b)

    def attained(x, y):
        return krein_square(split.b_plus @ x + split.b_minus @ y - c)

    # max over Y of (min over X): the inner minimizer does not depend on Y
    x0 = normal_equation_solution(split.b_plus, c)
    y0 = normal_equation_solution(split.b_minus, c - split.b_plus @ x0)
    value_maxmin = attained(x0, y0)

    # min over X of (max over Y), mirrored
    y1 = normal_equation_solution(split.b_minus, c)
    x1 = normal_equation_solution(split.b_plus, c - split.b_minus @ y1)
    value_minmax = attained(x1, y1)

    return value_minmax, value_maxmin
