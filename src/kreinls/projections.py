"""Projections in an indefinite metric: selfadjoint, oblique, split, normal.

A normal projection onto a subspace S = S_reg [+] S^o adds to the selfadjoint
projection Q_reg onto the regular part the metric-orthogonal projection
P^o = S^o S^o* M onto the isotropic part, applied to I - Q_reg. Both are read
off S's kept restricted eigh: no companion is built and nothing is factored.
When S is regular, S^o = 0 and the one operator is the selfadjoint projection.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import (
    Operator,
    decompose_subspace,
    isotropic_part,
    neutral_mask,
    negligible,
    per_instance,
    pseudo_inverse,
    range_of,
    restricted_eigh,
    same_space,
    subspace_from_spanning,
)
from .errors import BadProjection, DimensionMismatch, NotComplementary, NotRegular, NotSelfadjoint


class ProjectionKind(str, Enum):
    SELFADJOINT = "Selfadjoint"
    NORMAL = "Normal"
    OBLIQUE = "Oblique"


@dataclass(frozen=True)
class Projection:
    op: Operator
    range_sub: object
    kind: ProjectionKind

    @property
    def matrix(self):
        return self.op.matrix


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------

def selfadjoint_projection(s):
    """The selfadjoint projection onto a regular subspace, with null space S^[⊥];
    the one operator normal_projection(s) keeps."""
    if not s.classification.regular:
        raise NotRegular("selfadjoint projection needs a regular subspace")
    return Projection(_normal_operator(s), s, ProjectionKind.SELFADJOINT)


def oblique_projection(m, n):
    """P with range M and null space N, for complementary M and N."""
    sp = same_space(m, n)
    if m.dim + n.dim != sp.dim:
        raise NotComplementary("dimensions do not add up to the space")
    w = Operator(sp, np.hstack([m.basis, n.basis]), _copy=False)
    if range_of(w).dim != sp.dim:
        raise NotComplementary("M + N does not span the space")
    coeff = pseudo_inverse(w).matrix[: m.dim]  # W^-1, read off the one metric SVD
    return Projection(Operator(sp, m.basis @ coeff), m, ProjectionKind.OBLIQUE)


def ando_split(q):
    """Split a selfadjoint projection into definite selfadjoint parts.

    Q = Q+ + Q- with R(Q+) uniformly positive, R(Q-) uniformly negative and
    Q+Q- = Q-Q+ = 0; the parts are pinned by the space's cached fundamental
    decomposition.
    """
    if not negligible((q.op.adjoint() - q.op).matrix, (q.op,), (1.0,)):
        raise NotSelfadjoint("ando_split needs a selfadjoint projection")
    s_plus, s_minus = decompose_subspace(q.range_sub)
    return selfadjoint_projection(s_plus), selfadjoint_projection(s_minus)


def normal_projection(s):
    """One normal projection (QQ# = Q#Q) onto an arbitrary subspace; onto a
    regular subspace it is the selfadjoint projection, and labelled so."""
    kind = ProjectionKind.SELFADJOINT if s.classification.regular else ProjectionKind.NORMAL
    return Projection(_normal_operator(s), s, kind)


@per_instance
def _normal_operator(s):
    """Q_reg + P^o (I - Q_reg) off S's kept restricted eigh (w, U): S_reg = S U_reg has
    Gram diag(w_reg), so Q_reg = S_reg diag(1/w_reg) S_reg* G, and S^o = 0 on a regular S.
    P^o = S^o S^o* M projects onto S^o along N^[⊥] for its neutral partner
    N = J_K S^o in K = S_reg^[⊥] (J_K the signature operator of K), as J_K S^o = J S^o:
    - S^o is metric-orthogonal to S_reg (one kept eigh), so [Jx, s] = <x, s> = 0
      for x in S^o, s in S_reg: J S^o lies in K;
    - J_K = sign(C) for the compression C = P_K J|_K, and Cx = Jx, C(Jx) = x, so
      x lies in C's +-1 eigenspaces, where sign(C) = C: J_K x = Jx;
    - with N = J S^o, N* G = S^o* M and N* G S^o = I, so S^o (N* G S^o)^-1 N* G = P^o.
    """
    (w, u), reg = restricted_eigh(s), ~neutral_mask(s)
    q1 = (s.basis @ (u[:, reg] / w[reg])) @ (u[:, reg].conj().T @ s.frame)
    iso = isotropic_part(s).basis
    coeff = iso.conj().T @ s.space.metric
    return Operator(s.space, q1 + iso @ (coeff - coeff @ q1), _copy=False)


def companion_identity_check(q, y):
    """Whether Q#(I - Q)y = 0, negligible against ||Q||^2 ||y|| + ||y||, the roundoff
    scale of forming it; equivalent to y ∈ S + S^[⊥] for normal Q."""
    sp, y = q.op.space, np.asarray(y, dtype=complex)
    if y.size != sp.dim:
        raise DimensionMismatch("y has %d entries in a space of dim %d" % (y.size, sp.dim))
    y, size = y.reshape(sp.dim, 1), float(np.linalg.norm(y))
    residual = q.op.adjoint().matrix @ (y - q.matrix @ y)
    return negligible(residual, (q.op, q.op, size), (size,))


def projection_kind(op):
    """The one projection validator: BadProjection unless op is idempotent, else its kind."""
    if not negligible((op @ op - op).matrix, (op, op), (1.0,)):
        raise BadProjection("matrix is not idempotent")
    adj = op.adjoint()
    # normality is tested on every matrix: a selfadjointness residual within
    # tolerance does not bound the commutator within its own
    if not negligible((op @ adj - adj @ op).matrix, (op, op), (1.0,)):
        return ProjectionKind.OBLIQUE
    if negligible((adj - op).matrix, (op,), (1.0,)):
        return ProjectionKind.SELFADJOINT
    return ProjectionKind.NORMAL


def projection_from_matrix(space, matrix):
    """Wrap a hand-built idempotent of projection_kind's kind, its range spanned at its trace."""
    op = Operator(space, matrix)
    kind, rank = projection_kind(op), min(max(int(round(op.matrix.trace().real)), 0), space.dim)
    return Projection(op, subspace_from_spanning(space, op.matrix, rank=rank), kind)
