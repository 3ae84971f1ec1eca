"""Properties of the verdicts: what leaves the mathematics unchanged leaves them unchanged."""

import numpy as np
import pytest
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



def _solve_ims_feasible(seed):
    b, c, _ = degenerate_instance(seed)
    return c is not None and k.solve_ims(b, c).feasible


# R(B) of seed 20 is fully neutral: B#B is pure roundoff, at 1.09x the noise floor
# of normal_equation_solution, so X0 is inverted noise of norm about 1 (exactly 0
# in exact arithmetic) and differs from one scaling to the next.
NOISE_AT_FLOOR = pytest.mark.xfail(
    strict=True, reason="fully neutral R(B): B#B roundoff just above the noise floor"
)
FEASIBLE_SEEDS = [
    pytest.param(seed, marks=NOISE_AT_FLOOR) if seed == 20 else seed
    for seed in range(60)
    if _solve_ims_feasible(seed)
]


@pytest.mark.parametrize("seed", FEASIBLE_SEEDS)
def test_solution_is_scale_invariant(seed):
    """Scaling B and C together by 10^±50 and 10^±100 leaves X0 unchanged."""
    b, c, _ = degenerate_instance(seed)
    sp = b.space
    x0 = k.solve_ims(b, c).solution.matrix
    for exp in (-100, -50, 50, 100):
        scale = 10.0**exp
        rep = k.solve_ims(sp.operator(scale * b.matrix), sp.operator(scale * c.matrix))
        assert rep.feasible, exp
        assert np.linalg.norm(rep.solution.matrix - x0) <= 1e-6 * np.linalg.norm(x0), exp
