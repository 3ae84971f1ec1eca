"""Finite-dimensional Krein spaces: Gram metrics, indefinite adjoints, subspaces.

A space is a pair (C^n, G) with G Hermitian and invertible; the indefinite
form is [x, y] = y* G x. Eigendecomposing G = V diag(w) V* yields the fixed
fundamental decomposition used everywhere: the signature operator
J = V sign(w) V*, and the positive-definite matrix M = G J of the associated
Hilbert inner product <x, y> = [Jx, y] = y* M x. Subspaces are stored with
<.,.>-orthonormal bases, which makes restricted Grams and principal angles
directly assertable; one kept eigh of a subspace's restricted Gram decides
its inertia and its parts.
"""

import functools
import math
from dataclasses import InitVar, dataclass
from enum import Enum

import numpy as np

from .errors import (
    DimensionMismatch,
    KreinError,
    NoFactorization,
    NotHermitian,
    SingularGram,
    SpaceMismatch,
)

_EPS, _TINY = float(np.finfo(float).eps), float(np.finfo(float).tiny)  # tiny: least normal
ANGLE_TOL = 1e-8  # the largest principal angle between a subspace and one containing it
SYM_TOL = 1e-10  # relative Hermitian asymmetry of a Gram, or of G T in is_krein_positive
NEUTRAL_TOL = 1e-8  # relative eigenvalue cutoff of restricted Grams (KreinSpace.neutral_cutoff)


# ---------------------------------------------------------------------------
# tolerances
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Tolerances:
    """The numerical policy a caller sets for a space and everything built on it.

    num   relative tolerance for operator identities / residuals
    rank  relative singular-value cutoff for rank decisions;
          None means dim * machine_eps
    """

    num: float = 1e-10
    rank: float | None = None

    def __post_init__(self):
        for name, value in (("num", self.num), ("rank", self.rank)):
            if value is not None and not 0.0 <= value < math.inf:
                raise KreinError("tolerance %s must be finite and nonnegative, got %r" % (name, value))


# ---------------------------------------------------------------------------
# small linear-algebra helpers
# ---------------------------------------------------------------------------

def herm(a):
    """Hermitian part (a + a*)/2, of each matrix in a stack."""
    return (a + a.conj().swapaxes(-1, -2)) / 2.0


def spectral_norm(a):
    if a.size == 0:
        return 0.0
    return float(np.linalg.norm(a, 2))


def _spectral_bracket(a):
    """(lo, hi) around ||a||_2, from ||a||_F / sqrt(min(shape)) <= ||a||_2 <= ||a||_F.
    The sum runs on scaled_to_unit(a) (exact), and the bracket is widened by 4 ulps
    per entry, more than its roundoff or an SVD's: it never contradicts the SVD."""
    b, e = scaled_to_unit(a)
    fro = float(np.ldexp(math.sqrt(np.vdot(b, b).real), e))  # inf above the largest float
    if not fro:  # a is zero or empty: a nonzero b has an entry of magnitude >= 1/2
        return 0.0, 0.0
    slack = 4 * a.size * _EPS
    return fro * (1.0 - slack) / math.sqrt(min(a.shape)), fro * (1.0 + slack)


def _product(factors):
    """The product of nonnegative numbers, 0 or inf only when it is: left to right while each
    partial product is a normal float, else from each factor's scaled_to_unit form."""
    p = 1.0
    for f in factors:
        p *= f
        if not _TINY <= p < math.inf:  # a partial product left the normal floats
            parts = [scaled_to_unit(f) for f in factors]
            mantissa, exponent = scaled_to_unit(math.prod(m for m, _ in parts))
            exponent += sum(e for _, e in parts)
            return math.ldexp(mantissa, exponent) if exponent <= 1024 or not mantissa else math.inf
    return p


def norm_at_most(a, coefficient, *terms):
    """||a||_2 <= coefficient * sum over terms of the product of their factors' norms, the
    roundoff scale of a sum of products (Higham, Accuracy and Stability, §3.5). A factor is
    an Operator or an array (its bracket, then its norm; an Operator's are kept) or a number;
    no norm is factored far from the cutoff, and a representable term is formed as one."""
    lo, hi = _spectral_bracket(a)
    low = high = 0.0
    for term in terms:
        f_lo, f_hi = zip(*(_norm_bracket(f) if isinstance(f, Operator) else
                           _spectral_bracket(f) if isinstance(f, np.ndarray) else (f, f)
                           for f in term))
        low, high = low + _product((coefficient, *f_lo)), high + _product((coefficient, *f_hi))
    if hi <= low or lo > high:
        return hi <= low
    norms = ([f.norm() if isinstance(f, Operator) else
              spectral_norm(f) if isinstance(f, np.ndarray) else f for f in term] for term in terms)
    cutoff = sum(_product((coefficient, *term)) for term in norms)
    return hi <= cutoff or (lo <= cutoff and spectral_norm(a) <= cutoff)


def negligible(residual, *terms):
    """norm_at_most at tol.num of the first factor's space: the one norm test of tol.num."""
    return norm_at_most(residual, terms[0][0].space.tol.num, *terms)


def scaled_to_unit(a):
    """(a / 2^e, e) with 2^(e-1) <= max |a_ij| < 2^e, e >= -1021 so that 2^-e is
    finite, and e = 0 for a zero a: the library's only choice of a power of two.
    Scaling by one is exact, so a rank, zero or norm test read off the result is
    that of a, while its products cannot overflow."""
    e = max(math.frexp(float(np.abs(a).max(initial=0.0)))[1], -1021)
    return a * math.ldexp(1.0, -e), e


def ordered_eigh(a):
    """eigh with eigenvalues sorted descending and deterministic phases.

    Each eigenvector is rotated so that its first component of magnitude
    above 1e-8 is real and positive; with the stable descending sort this
    pins the output bit-for-bit for a given input.
    """
    w, v = np.linalg.eigh(a)
    order = np.argsort(-w, kind="stable")
    w = w[order]
    v = v[:, order]
    if v.size:  # unit columns: each has an entry of magnitude >= n^(-1/2) > 1e-8
        first = (np.abs(v) > 1e-8).argmax(axis=0)
        pivot = v[first, np.arange(v.shape[1])]
        # hypot rounds like abs() of a complex scalar (np.abs does not always),
        # and v is Fortran-ordered, so each column meets its phase as one
        # scalar factor: the bits are those of the per-column product
        v = v * (np.hypot(pivot.real, pivot.imag) / pivot)
    return w, v


def per_instance(build):
    """Decorate build(obj) so that it runs once per obj; obj keeps the value.

    Operators and subspaces are immutable, and a space's tolerances are fixed
    when it is built, so what is derived from one of them alone never goes
    stale: every solver reads the one analysis instead of repeating it.  The
    value lives on the instance and dies with it (nothing is shared between
    equal matrices), and it must not refer back to the instance, which would
    make a reference cycle that only the garbage collector can free.
    """

    @functools.wraps(build)
    def once(obj):
        memo = obj.__dict__.setdefault("_memo", {})
        if build not in memo:
            memo[build] = build(obj)
        return memo[build]

    return once


# ---------------------------------------------------------------------------
# spaces
# ---------------------------------------------------------------------------

class KreinSpace:
    """(C^n, G) together with its cached fundamental decomposition.

    Attributes of interest: gram, dim, signature (p, q), j (signature
    operator), metric (M = G J, positive definite), basis_plus / basis_minus
    (Hilbert-orthonormal frames of the definite halves; [b, b] = +1 resp. -1
    on their columns), tol.
    """

    def __init__(self, gram, tol=None):
        self._tol = tol if tol is not None else Tolerances()
        gram = np.asarray(gram, dtype=complex)
        if gram.ndim != 2 or gram.shape[0] != gram.shape[1]:
            raise DimensionMismatch("gram matrix must be square")
        n = gram.shape[0]
        if n == 0:
            raise DimensionMismatch("gram matrix is empty; a space needs dimension at least 1")
        if not np.isfinite(gram).all():
            raise KreinError("gram matrix has non-finite entries")
        if not gram.any():
            raise NotHermitian("gram matrix is not Hermitian within tolerance")
        hermitian = herm(gram)
        w, v = ordered_eigh(hermitian)
        scale = float(np.max(np.abs(w)))  # ||G||_2, read off the eigh of its Hermitian part
        if not norm_at_most(gram - gram.conj().T, SYM_TOL, (scale,)):
            raise NotHermitian("gram matrix is not Hermitian within tolerance")
        gram = hermitian
        self._rank_tol = self.tol.rank if self.tol.rank is not None else n * _EPS
        if np.min(np.abs(w)) < self._rank_tol * scale:
            raise SingularGram("gram matrix is numerically singular")
        # kappa = ||R|| ||R^-1|| for the metric's factor R, = sqrt(cond G)
        self._kappa = math.sqrt(scale / np.min(np.abs(w)))

        pos = w > 0.0
        self.dim = n
        self.gram = gram
        self.gram_norm = scale
        self.signature = (int(np.count_nonzero(pos)), int(np.count_nonzero(~pos)))
        self.j = herm((v * np.sign(w)) @ v.conj().T)
        self.metric = herm((v * np.abs(w)) @ v.conj().T)
        self.basis_plus = v[:, pos] / np.sqrt(np.abs(w[pos]))
        self.basis_minus = v[:, ~pos] / np.sqrt(np.abs(w[~pos]))
        self._gram_inv = herm((v / w) @ v.conj().T)
        self._chol_r, self._chol_rinv = metric_factors(self.metric)
        for a in (self.gram, self.j, self.metric, self.basis_plus, self.basis_minus):
            a.setflags(write=False)

    # read-only: an analysis kept on an operator must not go stale
    tol = property(lambda self: self._tol)

    def eye(self):
        return Operator(self, np.eye(self.dim, dtype=complex))

    def zero(self):
        return Operator(self, np.zeros((self.dim, self.dim), dtype=complex))

    def operator(self, matrix):
        return Operator(self, matrix)

    def neutral_cutoff(self):
        """Absolute eigenvalue cutoff for sign decisions on restricted Grams.

        Relative to the ambient Gram's norm, not to the restricted Gram's:
        a neutral subspace has restricted eigenvalues that are pure
        roundoff, so its own scale carries no information.
        """
        return NEUTRAL_TOL * self.gram_norm

    def _rank_of_singulars(self, s, floor):
        """How many descending singular values s exceed max(s_1, floor) times the
        rank factor (tol.rank, or dim * eps), floor the roundoff scale of forming the
        factored matrix: the library's only rank count, made where a span enters
        (metric_svd, subspace_from_spanning, nullspace_matrix)."""
        return int(np.count_nonzero(s > self._rank_tol * max(s[0], floor))) if s.size else 0

    def __repr__(self):
        return "KreinSpace(dim=%d, signature=%s)" % (self.dim, self.signature)


def make_space(gram, tol=None):
    """Validate a Hermitian invertible Gram matrix and build the space."""
    return KreinSpace(gram, tol)


def metric_factors(metric):
    """Upper-triangular R with metric = R* R, plus its inverse.

    R maps the metric's Hilbert geometry isometrically onto the standard one;
    every metric-aware computation funnels through this factor.
    """
    metric = herm(np.asarray(metric, dtype=complex))
    try:
        lower = np.linalg.cholesky(metric)
    except np.linalg.LinAlgError:
        raise SingularGram("metric is not positive definite")
    r = lower.conj().T
    return r, np.linalg.inv(r)


def hilbert_pinv(space, a, k, metric=None):
    """Pseudoinverse of a matrix of stated rank k with respect to a Hilbert metric (the
    space's by default): conjugated with the metric's Cholesky factor, the classical
    pseudoinverse of its k leading singular values; nothing is cut here."""
    r, rinv = (space._chol_r, space._chol_rinv) if metric is None else metric_factors(metric)
    u, sing, vh = np.linalg.svd(r @ a @ rinv)
    return rinv @ ((vh[:k].conj().T / sing[:k]) @ u[:, :k].conj().T) @ r


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Operator:
    """Dense complex matrix bound to a space.

    What depends on the operator alone (its norm, adjoint, range, null space,
    the analysis of its normal equation, metric pseudoinverse, and the
    projections and inverses the solvers build from them) is computed on
    first use and kept on the instance (see per_instance).  Operators compare
    by identity.
    """

    space: KreinSpace
    matrix: np.ndarray
    _copy: InitVar[bool] = True  # False for an array the library has just made

    def __post_init__(self, _copy):
        m = (np.array if _copy else np.asarray)(self.matrix, dtype=complex)
        n = self.space.dim
        if m.shape != (n, n):
            raise DimensionMismatch("operator shape %s does not match space dim %d" % (m.shape, n))
        if not np.isfinite(m).all():
            raise KreinError("operator has non-finite entries")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    def _check(self, other):
        if self.space is not other.space:
            raise SpaceMismatch("operators bound to different spaces")

    def __matmul__(self, other):
        self._check(other)
        return Operator(self.space, self.matrix @ other.matrix, _copy=False)

    def __add__(self, other):
        self._check(other)
        return Operator(self.space, self.matrix + other.matrix, _copy=False)

    def __sub__(self, other):
        self._check(other)
        return Operator(self.space, self.matrix - other.matrix, _copy=False)

    def __neg__(self):
        return Operator(self.space, -self.matrix, _copy=False)

    def __mul__(self, scalar):
        return Operator(self.space, self.matrix * scalar, _copy=False)

    __rmul__ = __mul__

    @per_instance
    def adjoint(self):
        """Indefinite adjoint: the unique T# with [Tx, y] = [x, T#y]."""
        sp = self.space
        return Operator(sp, sp._gram_inv @ self.matrix.conj().T @ sp.gram, _copy=False)

    @per_instance
    def norm(self):
        return spectral_norm(self.matrix)


def same_space(first, *items):
    """first's space, which every other item but None must be bound to (SpaceMismatch)."""
    for x in items:
        if x is not None and x.space is not first.space:
            raise SpaceMismatch("operands bound to different spaces")
    return first.space


@per_instance
def _norm_bracket(t):
    return _spectral_bracket(t.matrix)


@per_instance
def metric_svd(t):
    """(U, s, V*, rank): R T R^-1 = U diag(s) V*, R the metric's Cholesky factor.

    T's range, null space, companions and pseudoinverse all read this one SVD
    and its rank, decided at the space's cutoff.  Forming R T R^-1 leaves
    roundoff of order eps ||R|| ||T|| ||R^-1||, so the cutoff's scale is at
    least kappa times the upper end of T's kept norm bracket.
    """
    sp = t.space
    m = sp._chol_r @ t.matrix @ sp._chol_rinv
    if not np.isfinite(m).all():
        raise KreinError("R T R^-1 overflows: the operator is too large for the metric")
    u, s, vh = np.linalg.svd(m)
    for a in (u, s, vh):
        a.setflags(write=False)
    return u, s, vh, sp._rank_of_singulars(s, sp._kappa * _norm_bracket(t)[1])


@per_instance
def pseudo_inverse_factors(t):
    """(L, R_t), n x r and r x n, with T's metric pseudoinverse L R_t:
    L = R^-1 V_r s_r^-1 and R_t = U_r* R, r = rank T."""
    (u, s, vh, k), sp = metric_svd(t), t.space
    left = sp._chol_rinv @ (vh[:k].conj().T / s[:k])
    right = u[:, :k].conj().T @ sp._chol_r
    for a in (left, right):
        a.setflags(write=False)
    return left, right


@per_instance
def pseudo_inverse(t):
    """The metric pseudoinverse of T, its canonical {1,2}-inverse: R^-1 V_r s_r^-1 U_r* R."""
    left, right = pseudo_inverse_factors(t)
    return Operator(t.space, left @ right, _copy=False)


def classical_form(t):
    """(U, U* G, H = (U* G) U), U = T / 2^e an Operator (scaled_to_unit): T* G T = 4^e H, read
    with no inverse of G and no overflow. The only code that forms T* G T; H is not symmetrized."""
    unit = Operator(t.space, scaled_to_unit(t.matrix)[0], _copy=False)
    ug = unit.matrix.conj().T @ t.space.gram
    return unit, ug, ug @ unit.matrix


# ---------------------------------------------------------------------------
# subspaces
# ---------------------------------------------------------------------------

class SubspaceKind(str, Enum):
    ZERO = "Zero"
    UNIFORMLY_POSITIVE = "UniformlyPositive"
    UNIFORMLY_NEGATIVE = "UniformlyNegative"
    NONNEGATIVE_DEGENERATE = "NonnegativeDegenerate"
    NONPOSITIVE_DEGENERATE = "NonpositiveDegenerate"
    NEUTRAL = "Neutral"
    INDEFINITE = "Indefinite"


@dataclass(frozen=True)
class SubspaceClass:
    """Sign classification of a subspace via its restricted Gram's inertia.

    `pseudo_regular` is always true: in finite dimension every subspace S is
    pseudo-regular (S + S^[⊥] is closed). The field stays because the
    `classify` report carries it.
    """

    kind: SubspaceKind
    regular: bool
    pseudo_regular: bool
    n_positive: int
    n_negative: int
    n_zero: int

    @property
    def nonnegative(self):
        return self.n_negative == 0

    @property
    def nonpositive(self):
        return self.n_positive == 0

    @property
    def uniformly_positive(self):
        return self.regular and self.nonnegative

    @property
    def uniformly_negative(self):
        return self.regular and self.nonpositive


def _classify_gram(w, neutral):
    """Inertia of a restricted Gram from its eigenvalues and their neutral mask."""
    k = w.size
    if k == 0:
        return SubspaceClass(SubspaceKind.ZERO, True, True, 0, 0, 0)
    n_pos = int(np.count_nonzero(~neutral & (w > 0)))
    n_zero = int(np.count_nonzero(neutral))
    n_neg = k - n_pos - n_zero
    if n_zero == k:
        kind = SubspaceKind.NEUTRAL
    elif n_pos == k:
        kind = SubspaceKind.UNIFORMLY_POSITIVE
    elif n_neg == k:
        kind = SubspaceKind.UNIFORMLY_NEGATIVE
    elif n_neg == 0:
        kind = SubspaceKind.NONNEGATIVE_DEGENERATE
    elif n_pos == 0:
        kind = SubspaceKind.NONPOSITIVE_DEGENERATE
    else:
        kind = SubspaceKind.INDEFINITE
    return SubspaceClass(kind, n_zero == 0, True, n_pos, n_neg, n_zero)


@dataclass(frozen=True, eq=False)
class Subspace:
    """Column span with a canonical Hilbert-orthonormal basis.

    frame is the row frame basis* G, and gram_restricted = frame basis is
    basis* G basis exactly as stored; each is formed on first read and kept,
    unless inherited: a part S U of S has frame U* (S's frame), and N(T#T) stacks
    its rows over N(T)'s.  One eigh of the Gram, kept on first use, decides every
    sign question at the space's neutral cutoff: the classification and the
    isotropic, regular, positive and nonpositive parts.  Subspaces compare by
    identity.
    """

    space: KreinSpace
    basis: np.ndarray

    @property
    def dim(self):
        return self.basis.shape[1]

    @functools.cached_property
    def frame(self):
        f = self.basis.conj().T @ self.space.gram
        f.setflags(write=False)
        return f

    @functools.cached_property
    def gram_restricted(self):
        g = herm(self.frame @ self.basis)
        g.setflags(write=False)
        return g

    @functools.cached_property
    def classification(self):
        return _classify_gram(restricted_eigh(self)[0], neutral_mask(self))


def _subspace_direct(space, basis, complement=None, **formed):
    """Wrap columns that are already <.,.>-orthonormal (no re-spanning).

    complement: orthonormal columns spanning R S^⊥, when the construction has them;
    formed: its frame and gram_restricted, kept as if read, when it has those.
    """
    basis = np.array(basis, dtype=complex).reshape(space.dim, -1)
    basis.setflags(write=False)
    s = Subspace(space, basis)
    object.__setattr__(s, "_complement", complement)
    for value in formed.values():
        value.setflags(write=False)
    s.__dict__.update(formed)
    return s


def subspace_from_spanning(space, columns, rank=None):
    """Canonical subspace spanned by the given columns.

    The span is orthonormalized in the cached Hilbert product; the rank is
    decided at the space's cutoff, scaled by at least ||R|| ||A|| (the roundoff
    scale of forming R A, ||R||_2 = sqrt(||G||_2)), unless the caller states it
    (e.g. the trace of an idempotent, when a formed product carries borderline roundoff).
    """
    a = np.asarray(columns, dtype=complex)
    if a.ndim == 1:
        a = a[:, None]
    if a.shape[0] != space.dim:
        raise DimensionMismatch("spanning columns have wrong height")
    if not np.isfinite(a).all():
        raise KreinError("spanning columns have non-finite entries")
    if a.shape[1] == 0:
        return _subspace_direct(space, np.zeros((space.dim, 0)))
    b = space._chol_r @ a
    u, s, _ = np.linalg.svd(b, full_matrices=False)
    if rank is None:
        rank = space._rank_of_singulars(s, math.sqrt(space.gram_norm) * _spectral_bracket(a)[1])
    return _subspace_direct(space, space._chol_rinv @ u[:, :rank])


def zero_subspace(space):
    return _subspace_direct(space, np.zeros((space.dim, 0)))


def full_subspace(space):
    """The whole space, spanned by the metric-orthonormal columns of R^-1."""
    return _subspace_direct(space, space._chol_rinv, np.zeros((space.dim, 0)))


def classify(s):
    """Sign classification of a subspace, read off its kept restricted eigh."""
    return s.classification


@per_instance
def restricted_eigh(s):
    """(w, U): the kept ordered_eigh of the restricted Gram; every sign question reads it."""
    w, u = ordered_eigh(s.gram_restricted)
    w.setflags(write=False)
    u.setflags(write=False)
    return w, u


def neutral_mask(s):
    """The eigenvalues of restricted_eigh(s) that the neutral cutoff decides are zero:
    the only comparison of restricted eigenvalues with that cutoff."""
    return np.abs(restricted_eigh(s)[0]) <= s.space.neutral_cutoff()


def _eigen_part(s, mask, complement=None):
    """The span S U_part of the restricted eigenvectors in mask; its frame is U_part* (S's frame)."""
    u = restricted_eigh(s)[1][:, mask]
    return _subspace_direct(s.space, s.basis @ u, complement, frame=u.conj().T @ s.frame)


@per_instance
def isotropic_part(s):
    """S ∩ S^[⊥], read off the zero eigenvalues of the restricted Gram."""
    return _eigen_part(s, neutral_mask(s))


@per_instance
def regular_part(s):
    """The span of the nonzero eigenvectors of the restricted Gram: S = S_reg [+] S^o.

    S_reg's metric complement is S^⊥ ⊕ S^o, kept when S keeps S^⊥."""
    complement = getattr(s, "_complement", None)
    if complement is not None:
        complement = np.hstack([complement, s.space._chol_r @ isotropic_part(s).basis])
    return _eigen_part(s, ~neutral_mask(s), complement)


def decompose_subspace(s):
    """Split S into a positive part and a nonpositive part.

    Eigenvectors of the restricted Gram with a positive eigenvalue outside
    neutral_mask span S+; the rest (including neutral directions) span S-.
    Both [S+, S-] = 0 and <S+, S-> = 0 hold by construction.
    """
    pos = ~neutral_mask(s) & (restricted_eigh(s)[0] > 0)
    return _eigen_part(s, pos), _eigen_part(s, ~pos)


@per_instance
def orthogonal_companion(s):
    """S^[⊥] = null(basis* G); dim = n - dim S.

    With a kept metric complement S^⊥, S^[⊥] = J S^⊥, made G-orthogonal to the
    stored basis by one Gram-Schmidt pass; otherwise R^-1 null(frame R^-1), one SVD.
    """
    sp = s.space
    complement = getattr(s, "_complement", None)
    if complement is not None:
        c = sp.j @ (sp._chol_rinv @ complement)
        c -= (sp.j @ s.basis) @ (s.frame @ c)
        return _subspace_direct(sp, c)
    _, _, vh = np.linalg.svd(s.frame @ sp._chol_rinv)  # of rank dim S: G is invertible
    return _subspace_direct(sp, sp._chol_rinv @ vh[s.dim :].conj().T)


@per_instance
def range_of(t):
    """Range of an operator as a canonical subspace, read off its kept metric SVD.
    A span of stated rank goes through subspace_from_spanning(..., rank=)."""
    u, _, _, r = metric_svd(t)
    return _subspace_direct(t.space, t.space._chol_rinv @ u[:, :r], u[:, r:])


def nullspace_matrix(space, a, floor):
    """Orthonormal (standard) basis of null(a); raw ndarray, n x k. The caller
    states floor, the roundoff scale of forming a: pure roundoff has rank 0."""
    a = np.asarray(a, dtype=complex)
    if not a.any():
        return np.eye(space.dim, dtype=complex)
    _, sv, vh = np.linalg.svd(a)
    return vh[space._rank_of_singulars(sv, floor):].conj().T


@per_instance
def nullspace_of(t):
    """Null space of an operator as a canonical subspace; dim = n - dim R(T)."""
    _, _, vh, r = metric_svd(t)
    return _subspace_direct(t.space, t.space._chol_rinv @ vh[r:].conj().T, vh[:r].conj().T)


@dataclass(frozen=True, eq=False)
class NormalEquation:
    """T#(TX - C) = 0 read off the range analysis of T; T#T is never formed.

    With U_reg the kept basis of the regular part of R(T) and K = U_reg* G T,
    a C Krein-orthogonal to the isotropic part of R(T) gives T#(TX - C) = 0
    iff K X = U_reg* G C, and N(T#T) = N(K).  On the rank-r part of the kept
    R T R^-1 = U s V* (metric_svd), K R^-1 = A V_r* for the dim S_reg x r matrix
    A = coupling (R^-1 U_r, the kept basis of R(T)) diag(s_r), of full row rank.
    One SVD of A, its rank stated, gives pinv = R^-1 V_r A^+, X0 = pinv coupling C
    of minimum norm, and N(T#T) = E ⊕ N(T) for E = R^-1 V_r null(A): N(T) itself
    on a regular R(T), the whole space on a neutral one.
    """

    coupling: np.ndarray  # U_reg* G: K = coupling T
    pinv: np.ndarray
    nullspace: Subspace


@per_instance
def normal_equation(t):
    sp, rng, (_, s, vh, r) = t.space, range_of(t), metric_svd(t)
    coupling, k = regular_part(rng).frame, regular_part(rng).dim
    if not k:
        return NormalEquation(coupling, np.zeros((sp.dim, 0), dtype=complex), full_subspace(sp))
    u, sv, qh = np.linalg.svd((coupling @ rng.basis) * s[:r])  # A = U_A sv Q*, rank k stated
    vq = vh[:r].conj().T @ qh.conj().T
    rvq = sp._chol_rinv @ vq  # [R^-1 V_r Q_k | E]
    pinv = (rvq[:, :k] / sv) @ u.conj().T
    pinv.setflags(write=False)
    null = nullspace_of(t)
    if k < r:  # E is metric-orthogonal to N(T): only E's rows of frame and Gram are formed
        frame, basis = rvq[:, k:].conj().T @ sp.gram, np.hstack([rvq[:, k:], null.basis])
        top = frame @ basis
        gram = herm(np.vstack([top, np.hstack([top[:, r - k :].conj().T, null.gram_restricted])]))
        frame = np.vstack([frame, null.frame])
        null = _subspace_direct(sp, basis, vq[:, :k], frame=frame, gram_restricted=gram)
    return NormalEquation(coupling, pinv, null)


def normal_nullspace(t):
    """N(T#T): the directions the normal equation leaves free."""
    return normal_equation(t).nullspace


# ---------------------------------------------------------------------------
# subspace comparisons
# ---------------------------------------------------------------------------

def principal_angles(s1, s2):
    """Principal angles w.r.t. the cached Hilbert product, ascending.

    Cosines come from the cross Gram, sines from the projected residual
    (the arccos of a cosine loses half the digits near zero; the combined
    form stays accurate at both ends).
    """
    r = same_space(s1, s2)._chol_r
    k = min(s1.dim, s2.dim)
    if k == 0:
        return np.zeros(0)
    u1 = r @ s1.basis
    u2 = r @ s2.basis
    f = u1.conj().T @ u2
    cos = np.clip(np.linalg.svd(f, compute_uv=False)[:k], 0.0, 1.0)
    sin = np.linalg.svd(u2 - u1 @ f, compute_uv=False)
    sin = np.clip(np.sort(sin)[:k], 0.0, 1.0)
    return np.sort(np.arctan2(sin, cos))


def subspace_equal(s1, s2):
    return s1.dim == s2.dim and subspace_within(s1, s2)


def subspace_within(inner, outer):
    """inner ⊆ outer decided by principal angles."""
    if inner.dim == 0:
        return True
    if inner.dim > outer.dim:
        return False
    return bool(np.max(principal_angles(inner, outer)) <= ANGLE_TOL)


def contains_columns(s, columns):
    """Columns lie in S: [basis | cols] spans dim S, with the block of columns scaled
    to a unit largest entry (scaled_to_unit, exact), so no scale of cols changes it."""
    unit = scaled_to_unit(np.asarray(columns, dtype=complex))[0]
    return subspace_from_spanning(s.space, np.column_stack([s.basis, unit])).dim == s.dim


def krein_orthogonal(frame, c):
    """R(C) is Krein-orthogonal to the span of a metric-orthonormal basis W, given
    as its row frame W* G, up to the neutral cutoff times ||C||_2, which is
    factored only within sqrt(n) of the cutoff."""
    return norm_at_most(frame @ c.matrix, c.space.neutral_cutoff(), (c,))


def sum_with_companion_contains(s, c):
    """R(C) lies in S + S^[⊥] = (S ∩ S^[⊥])^[⊥]: the solvers' feasibility test."""
    return krein_orthogonal(isotropic_part(s).frame, c)


def subspace_sum(s1, s2):
    return subspace_from_spanning(same_space(s1, s2), np.hstack([s1.basis, s2.basis]))


def subspace_intersection(s1, s2):
    """S1 ∩ S2 from N(R [S1 | -S2]), decided at subspace_sum's floor for that frame."""
    sp, a = same_space(s1, s2), np.hstack([s1.basis, -s2.basis])
    if s1.dim == 0 or s2.dim == 0:
        return zero_subspace(sp)
    coeff = nullspace_matrix(sp, sp._chol_r @ a, math.sqrt(sp.gram_norm) * _spectral_bracket(a)[1])
    return subspace_from_spanning(sp, s1.basis @ coeff[: s1.dim])


# ---------------------------------------------------------------------------
# range inclusion / factorization / neutrality
# ---------------------------------------------------------------------------

def range_inclusion(z, y):
    """R(Z) ⊆ R(Y): Z's columns lie in Y's kept range."""
    same_space(z, y)
    return contains_columns(range_of(y), z.matrix)


def solve_douglas(y, z):
    """Factor Z = Y D when R(Z) ⊆ R(Y), both read off Y's kept metric SVD; D is the
    minimum-Hilbert-norm factor."""
    if not range_inclusion(z, y):
        raise NoFactorization("R(Z) is not contained in R(Y)")
    return Operator(y.space, pseudo_inverse(y).matrix @ z.matrix)


def neutral_range(t):
    """R(T) is neutral: herm(H) of the classical form is negligible against R(T)'s own metric
    size ||U|| ||M U|| >= ||U* M U||, or is H's roundoff (certify_min's floor): ||G|| ||U||^2
    alone would read a definite range along G's small eigenvalues as neutral."""
    (unit, _, h), sp = classical_form(t), t.space
    floor = (2 * sp.dim**1.5 * _EPS, sp.gram_norm, float(np.linalg.norm(unit.matrix)) ** 2)
    return negligible(herm(h), (unit, sp.metric @ unit.matrix)) or norm_at_most(herm(h), 1, floor)
