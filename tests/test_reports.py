"""Every public solver's report has its problem's shape: named conditions in a
fixed order, and the reasons of the failed ones, in that order, joined by "+".

The names and reasons are written out here rather than read from the library's
problem table, so that a change to either fails a test. mp_variational_check
is left out: it audits whether three conditions agree, so its verdict is not
"every condition holds".
"""

import collections

import numpy as np
import pytest

import kreinls as k
from conftest import make_signature_space, operator_with_range_and_kernel, random_subspace
from test_analysis import INSTANCES

INCLUSION = ("range_inclusion", "RangeInclusionFails")
STATIONARY = (INCLUSION,)

# solver -> ((condition name, reason when it fails), ...) in report order
SHAPES = {
    "solve_ims": (INCLUSION, ("range_nonnegative", "RangeNotNonnegative")),
    "solve_imax": (INCLUSION, ("range_nonpositive", "RangeNotNonpositive")),
    "solve_immso": STATIONARY,
    "indefinite_inverse_in_range": STATIONARY,
    "indefinite_inverse": (("range_regular", "RangeNotRegular"),),
    "krein_moore_penrose": (
        ("range_regular", "RangeNotRegular"),
        ("nullspace_regular", "NullspaceNotRegular"),
    ),
    "solve_min_ims_norm": (
        ("range_nonnegative", "RangeNotNonnegative"),
        ("nullspace_nonnegative", "NullspaceNotNonnegative"),
        INCLUSION,
    ),
}
# solve_ims and solve_imax on B = 0: B = 0 holds whenever this shape applies
ZERO_SHAPE = (("zero_operator", None), ("rhs_zero", "ZeroOperator"))

SOLVERS = {
    "solve_ims": lambda b, c: k.solve_ims(b, c),
    "solve_imax": lambda b, c: k.solve_imax(b, c),
    "solve_immso": lambda b, c: k.solve_immso(b, c),
    "indefinite_inverse_in_range": lambda b, c: k.indefinite_inverse_in_range(b, c),
    "indefinite_inverse": lambda b, c: k.indefinite_inverse(b),
    "krein_moore_penrose": lambda b, c: k.krein_moore_penrose(b),
    "solve_min_ims_norm": lambda b, c: k.solve_min_ims_norm(b, c),
}


def _extra_pairs():
    """B = 0 against C = 0 and against C = I, and a B whose null space alone is
    degenerate (the instances' null spaces are regular where their ranges are)."""
    sp = make_signature_space(2, 2, seed=3)
    rng = np.random.default_rng(3)
    b = operator_with_range_and_kernel(
        sp, random_subspace(sp, rng, n_pos=1), random_subspace(sp, rng, 1, 1, 1), rng
    )
    return [(sp.zero(), sp.zero()), (sp.zero(), sp.eye()), (b, sp.eye())]


PAIRS = INSTANCES + _extra_pairs()


def _shape(name, b):
    if name in ("solve_ims", "solve_imax") and not b.matrix.any():
        return ZERO_SHAPE
    return SHAPES[name]


def _reports(b, c):
    sp = b.space
    b, c = sp.operator(b.matrix), sp.operator(c.matrix)
    return {name: solve(b, c) for name, solve in SOLVERS.items()}


@pytest.mark.parametrize("index", range(len(PAIRS)))
def test_report_shape_of_every_solver(index):
    """Names in order; feasible iff there is no reason; the reason is the "+"-join of
    the reasons of the False conditions, in order."""
    b, _ = PAIRS[index]
    for name, rep in _reports(*PAIRS[index]).items():
        shape = _shape(name, b)
        assert list(rep.conditions) == [cond for cond, _ in shape], name
        assert rep.feasible == (rep.reason is None), name
        failed = [why for cond, why in shape if not rep.conditions[cond]]
        assert rep.reason == ("+".join(failed) if failed else None), name


def test_the_pairs_reach_every_reason():
    """Each reason above fails some report, and some report fails two conditions."""
    seen = collections.Counter()
    for b, c in PAIRS:
        for rep in _reports(b, c).values():
            if rep.reason is not None:
                seen.update(rep.reason.split("+"))
                seen["joined"] += "+" in rep.reason
    reasons = {why for shape in (*SHAPES.values(), ZERO_SHAPE) for _, why in shape} - {None}
    assert reasons <= {why for why, count in seen.items() if count}, seen
    assert seen["joined"] > 0, seen
