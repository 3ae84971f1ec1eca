"""Properties of the verdicts: what leaves the mathematics unchanged leaves them unchanged."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import kreinls as k
from conftest import (
    SIGNATURES,
    degenerate_choices,
    feasible_rhs,
    infeasible_rhs,
    make_signature_space,
    operator_with_range,
    random_subspace,
)

SPACES = [make_signature_space(p, q, seed=29 + 3 * p + q) for p, q in SIGNATURES]


def degenerate_instance(seed):
    """(B, C, reachable): R(B) has neutral directions, C is built in or out of reach.

    C is None when infeasible_rhs finds no excluded direction: its rank test
    on R(B) + R(B)^[⊥] keeps a roundoff singular value on a few percent of
    these ranges.
    """
    rng = np.random.default_rng(seed)
    sp = SPACES[seed % len(SPACES)]
    choices = degenerate_choices(sp)
    sub = random_subspace(sp, rng, *choices[int(rng.integers(len(choices)))])
    b = operator_with_range(sp, sub, rng)
    reachable = bool(rng.integers(2))
    c = feasible_rhs(sp, b, rng) if reachable else infeasible_rhs(sp, b, rng)
    return b, c, reachable


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**20),
    b_exp=st.floats(-100.0, 100.0),
    c_exp=st.floats(-100.0, 100.0),
)
def test_verdicts_are_scale_invariant(seed, b_exp, c_exp):
    b, c, reachable = degenerate_instance(seed)
    assume(c is not None)
    sp = b.space
    b_scaled = sp.operator(10.0**b_exp * b.matrix)
    c_scaled = sp.operator(10.0**c_exp * c.matrix)
    for solve in (k.solve_ims, k.solve_imax, k.solve_immso):
        conditions = solve(b, c).conditions
        assert conditions["range_inclusion"] == reachable, solve.__name__
        assert solve(b_scaled, c_scaled).conditions == conditions, solve.__name__
