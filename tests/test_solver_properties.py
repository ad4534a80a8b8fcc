"""Solver invariants on small random diagonally dominant systems.

Every run, whatever its scheme and stopping rule, must report a status
that a recomputed residual confirms, one residual per sweep plus the
initial one, and cycle boundaries exactly one cycle length apart.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from srj import (
    BUDGET_EXHAUSTED,
    CONVERGED,
    DIVERGED,
    STAGNATED,
    CsrMatrix,
    Scheme,
    SolveConfig,
    residual_norm,
    run_srj,
)

finite = dict(allow_nan=False, allow_infinity=False)


@st.composite
def dd_systems(draw):
    n = draw(st.integers(1, 6))
    dense = draw(arrays(np.float64, (n, n), elements=st.floats(-1.0, 1.0, **finite)))
    margin = draw(arrays(np.float64, n, elements=st.floats(0.05, 2.0, **finite)))
    off_diagonal = np.abs(dense).sum(axis=1) - np.abs(np.diag(dense))
    np.fill_diagonal(dense, off_diagonal + margin)
    b = draw(arrays(np.float64, n, elements=st.floats(-10.0, 10.0, **finite)))
    return CsrMatrix.from_dense(dense), b


schemes = st.lists(st.floats(0.05, 3.0, **finite), min_size=1, max_size=6).map(
    lambda factors: Scheme(factors=tuple(factors))
)

configs = st.builds(
    SolveConfig,
    tolerance=st.floats(-10.0, -1.0).map(lambda e: 10.0**e),
    max_cycles=st.integers(1, 200),
    stagnation_window=st.integers(2, 8),
    divergence_factor=st.floats(10.0, 1e6),
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(system=dd_systems(), scheme=schemes, config=configs)
def test_reported_run_is_consistent(system, scheme, config):
    A, b = system
    with np.errstate(over="ignore", invalid="ignore"):
        x, history = run_srj(A, b, scheme, config)
        recomputed = residual_norm(A, x, b)
    residuals = history.residuals
    m = scheme.m

    assert len(residuals) == history.iterations + 1
    # The carried residual is the one a fresh b - A x gives, bit for bit.
    assert recomputed == history.final_residual or (math.isnan(recomputed) and math.isnan(history.final_residual))

    # Converged exactly when the recomputed residual meets the tolerance,
    # and at the first sweep that does.
    assert (history.status == CONVERGED) == (recomputed <= config.tolerance)
    assert not np.any(residuals[:-1] <= config.tolerance)
    if history.status == DIVERGED:
        assert not math.isfinite(recomputed) or recomputed > config.divergence_factor * residuals[0]
    elif history.status == STAGNATED:
        # Armed by a real improvement, then a full window without one.
        assert config.stagnation_window <= history.cycles_used <= config.max_cycles
        assert residuals[history.cycle_boundaries].min() < 0.99 * residuals[0]
    elif history.status == BUDGET_EXHAUSTED:
        assert history.cycles_used == config.max_cycles
    else:
        assert history.status == CONVERGED

    # Boundaries sit at the end of every completed cycle, m sweeps apart.
    boundaries = history.cycle_boundaries
    np.testing.assert_array_equal(boundaries, m * np.arange(1, len(boundaries) + 1))
    if history.iterations:
        assert len(boundaries) in (history.cycles_used - 1, history.cycles_used)
        assert history.cycles_used == -(-history.iterations // m)
