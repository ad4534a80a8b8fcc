import numpy as np
import pytest

from srj import (
    BUDGET_EXHAUSTED,
    CONVERGED,
    DIVERGED,
    STAGNATED,
    AdvectionDiffusionSpec1D,
    AdvectionDiffusionSpec2D,
    ConvergenceHistory,
    CsrMatrix,
    Scheme,
    SolveConfig,
    build_1d,
    build_2d,
    jacobi_split,
    lookup,
    relaxed_step,
    residual_norm,
    run_jacobi,
    run_srj,
    srj_spectral_radius,
)

# Four-cycle residual histories recorded with the two-spmv sweep loop
# (relaxed_step, then a fresh b - A x for the norm).  The solver must
# reproduce them bit for bit.
GOLDEN_1D_A150_C1_3 = (
    "0x1.abff39a718924p+13", "0x1.8ff5f3728feecp+14", "0x1.c23b3f691de63p+17",
    "0x1.eb6986c290e07p+15", "0x1.3f5a2bc992f71p+15", "0x1.130bdbd9b4aa3p+14",
    "0x1.c9d4a2d362793p+14", "0x1.d6fc1c81a703bp+17", "0x1.371e2012d5357p+16",
    "0x1.84679d6399892p+15", "0x1.5e76fa71981d6p+14", "0x1.154ee0cf3a7d5p+15",
    "0x1.0d48b1ff4c3b0p+18", "0x1.8d7cf8da7b32ap+16", "0x1.e5a93f7d3de1cp+15",
    "0x1.c5c90106b7bddp+14", "0x1.5b35bec6cfc48p+15", "0x1.4362d7420d180p+18",
    "0x1.00bbf5cfd968bp+17", "0x1.34d73a2c38cc5p+16", "0x1.289426534b941p+15",
)
GOLDEN_2D_A40_C0 = (
    "0x1.24772a507f328p+14", "0x1.cd5b544c9bba9p+13", "0x1.075be17691f90p+13",
    "0x1.cfd240ab224c6p+12", "0x1.07f1e44aaaba3p+14", "0x1.6c035194152f3p+13",
    "0x1.0d0ed3d651e39p+13", "0x1.89b52e27f2ab6p+12", "0x1.65b8725fee294p+12",
    "0x1.63e2f39f457bep+13", "0x1.fa4acfdda5b7ap+12", "0x1.a0b6debbd78cbp+12",
    "0x1.4019dd3d63505p+12", "0x1.244e9529cfe8fp+12", "0x1.271b8c868bcfep+13",
    "0x1.98af758e88fbdp+12", "0x1.70c8bf74cbdecp+12", "0x1.16f62025de384p+12",
    "0x1.f9376ecd6f0bep+11", "0x1.1791642adc72ep+13", "0x1.71c7db91c0ff4p+12",
)
FOUR_CYCLES = SolveConfig(tolerance=1e-300, max_cycles=4, stagnation_window=10**9)


def test_relaxed_step_diagonal_exact():
    A = CsrMatrix.from_dense(np.diag([2.0, 4.0]))
    inv_diag = jacobi_split(A)
    x = relaxed_step(A, inv_diag, np.zeros(2), np.array([2.0, 8.0]), 1.0)
    np.testing.assert_array_equal(x, [1.0, 2.0])


def test_relaxed_step_zero_omega_is_identity():
    A = CsrMatrix.from_dense(np.diag([2.0, 4.0]))
    inv_diag = jacobi_split(A)
    x0 = np.array([0.3, -0.7])
    np.testing.assert_array_equal(relaxed_step(A, inv_diag, x0, np.ones(2), 0.0), x0)


def test_relaxed_step_hand_computed():
    A = CsrMatrix.from_dense(np.array([[2.0, 1.0], [1.0, 2.0]]))
    inv_diag = jacobi_split(A)
    x = relaxed_step(A, inv_diag, np.zeros(2), np.array([3.0, 3.0]), 1.0)
    np.testing.assert_allclose(x, [1.5, 1.5])


def test_run_srj_identity_converges_at_unit_step():
    A = CsrMatrix.from_dense(np.eye(4))
    b = np.array([1.0, -2.0, 0.5, 3.0])
    scheme = Scheme(factors=(0.5, 1.0, 2.0))
    x, history = run_srj(A, b, scheme, SolveConfig(tolerance=1e-12))
    assert history.status == CONVERGED
    assert history.iterations == 2  # converges exactly at the omega=1 sweep
    np.testing.assert_allclose(x, b, atol=1e-12)


def test_run_jacobi_diagonal_single_iteration():
    A = CsrMatrix.from_dense(np.diag([2.0, 5.0]))
    b = np.array([4.0, 10.0])
    x, history = run_jacobi(A, b, SolveConfig(tolerance=1e-12))
    assert history.status == CONVERGED
    assert history.iterations == 1
    np.testing.assert_allclose(x, [2.0, 2.0])


def test_converged_run_meets_tolerance(system_1d_n128, m5_schemes):
    A, b, _ = system_1d_n128(50.0)
    config = SolveConfig(tolerance=1e-6, max_cycles=5000)
    _, history = run_srj(A, b, m5_schemes["0"], config)
    assert history.status == CONVERGED
    assert history.final_residual <= 1e-6
    assert history.residuals[0] > 1e-6


def test_cycle_boundaries_are_m_apart(system_1d_n128, m5_schemes):
    A, b, _ = system_1d_n128(50.0)
    _, history = run_srj(A, b, m5_schemes["1/5"], SolveConfig(tolerance=1e-6))
    gaps = np.diff(history.cycle_boundaries)
    assert np.all(gaps == 5)
    assert history.cycle_boundaries[0] == 5


def test_histories_bitwise_reproducible(system_1d_n128, m5_schemes):
    A, b, _ = system_1d_n128(150.0)
    config = SolveConfig(tolerance=1e-6)
    _, first = run_srj(A, b, m5_schemes["1/10"], config)
    _, second = run_srj(A, b, m5_schemes["1/10"], config)
    np.testing.assert_array_equal(first.residuals, second.residuals)
    assert first.status == second.status


def test_jacobi_monotone_decay_on_symmetric_system(system_1d_n128):
    A, b, _ = system_1d_n128(0.0)
    config = SolveConfig(tolerance=1e-300, max_cycles=200, stagnation_window=10**9)
    _, history = run_jacobi(A, b, config)
    ratios = history.residuals[2:] / history.residuals[1:-1]
    assert np.all(ratios <= 1.0 + 1e-12)


def random_dd_system(rng, n=8):
    dense = rng.normal(size=(n, n))
    dense += np.diag(np.abs(dense).sum(axis=1) + rng.uniform(1.0, 2.0, n))
    b = rng.normal(size=n)
    return dense, b


def cycle_matrix(dense, factors):
    n = dense.shape[0]
    inv_diag = 1.0 / np.diag(dense)
    jacobi = -inv_diag[:, None] * dense
    np.fill_diagonal(jacobi, 0.0)
    total = np.eye(n)
    for w in factors:
        total = ((1.0 - w) * np.eye(n) + w * jacobi) @ total
    return total


def test_cycle_equals_dense_iteration_matrix_product():
    # Propagating the error through one cycle must match multiplication
    # by the assembled per-cycle matrix.
    rng = np.random.default_rng(101)
    scheme = Scheme(factors=(2.0, 0.9, 0.5))
    for _ in range(25):
        dense, b = random_dd_system(rng)
        A = CsrMatrix.from_dense(dense)
        inv_diag = jacobi_split(A)
        exact = np.linalg.solve(dense, b)
        x = rng.normal(size=8)
        error_before = x - exact
        for w in scheme.factors:
            x = relaxed_step(A, inv_diag, x, b, w)
        np.testing.assert_allclose(
            x - exact, cycle_matrix(dense, scheme.factors) @ error_before, atol=1e-10
        )


def test_cycle_order_permutation_invariant_error_map():
    rng = np.random.default_rng(55)
    dense, _ = random_dd_system(rng)
    forward = cycle_matrix(dense, (2.0, 0.9, 0.5, 1.3))
    shuffled = cycle_matrix(dense, (0.5, 1.3, 2.0, 0.9))
    np.testing.assert_allclose(forward, shuffled, atol=1e-8)


def test_ordering_c1_10_beats_c0_at_a150(system_1d_n128, m5_schemes):
    A, b, _ = system_1d_n128(150.0)
    config = SolveConfig(tolerance=1e-6, max_cycles=2000, stagnation_window=60)
    _, c0 = run_srj(A, b, m5_schemes["0"], config)
    _, c10 = run_srj(A, b, m5_schemes["1/10"], config)
    assert c0.status == CONVERGED and c10.status == CONVERGED
    assert c10.iterations < c0.iterations


def test_c0_does_no_better_than_jacobi_at_a300(system_1d_n128, m5_schemes):
    A, b, _ = system_1d_n128(300.0)
    config = SolveConfig(tolerance=1e-6, max_cycles=4000, stagnation_window=60)
    _, c0 = run_srj(A, b, m5_schemes["0"], config)
    _, jacobi = run_jacobi(A, b, config)
    assert jacobi.status == CONVERGED
    c0_cost = c0.iterations if c0.status == CONVERGED else np.inf
    assert c0_cost >= 0.9 * jacobi.iterations


def test_stagnation_classification():
    # Jacobi eigenvalues are +-0.9999; under-relaxation at 0.5 maps them
    # to a fast mode (5e-5) and a slow mode (0.99995).  The fast mode
    # dies in the first cycles (arming the detector), then the slow mode
    # plateaus below 1% improvement per window.
    dense = np.array([[1.0, 0.9999], [0.9999, 1.0]])
    A = CsrMatrix.from_dense(dense)
    b = np.array([1.0, 0.0])
    scheme = Scheme(factors=(0.5,))
    config = SolveConfig(tolerance=1e-12, max_cycles=500, stagnation_window=10)
    _, history = run_srj(A, b, scheme, config)
    assert history.status == STAGNATED
    assert history.cycles_used < 500


def test_contraction_matches_spectral_prediction(system_1d_n128):
    # Pre-floor window of an m=5 run: measured per-cycle contraction
    # tracks the predicted spectral radius within 10%.
    from srj import lookup

    A, b, eig = system_1d_n128(150.0)
    scheme = lookup(5, "1/10")
    predicted = srj_spectral_radius(scheme, eig)
    config = SolveConfig(tolerance=1e-300, max_cycles=60, stagnation_window=10**9,
                         divergence_factor=np.inf)
    _, history = run_srj(A, b, scheme, config)
    ends = history.residuals[history.cycle_boundaries]
    measured = (ends[59] / ends[39]) ** (1.0 / 20.0)
    assert measured == pytest.approx(predicted, rel=0.10)


def test_initial_guess_handling():
    A = CsrMatrix.from_dense(np.diag([2.0, 2.0]))
    b = np.array([2.0, 2.0])
    x, history = run_srj(A, b, Scheme(factors=(1.0,)), SolveConfig(initial_guess="zeros"))
    assert history.status == CONVERGED
    x, history = run_srj(A, b, Scheme(factors=(1.0,)), SolveConfig(initial_guess=np.array([1.0, 1.0])))
    assert history.iterations == 0  # already at the solution
    with pytest.raises(ValueError):
        run_srj(A, b, Scheme(factors=(1.0,)), SolveConfig(initial_guess="junk"))
    with pytest.raises(ValueError):
        SolveConfig(tolerance=0.0)
    with pytest.raises(ValueError):
        SolveConfig(stagnation_window=1)


def test_history_dataclass_properties():
    history = ConvergenceHistory(
        residuals=np.array([4.0, 2.0, 0.5]),
        cycle_boundaries=np.array([2]),
        status=CONVERGED,
        cycles_used=1,
    )
    assert history.iterations == 2
    assert history.final_residual == 0.5


@pytest.mark.parametrize(
    "build, scheme_key, golden",
    [
        (lambda: build_1d(AdvectionDiffusionSpec1D(n=64, nu=1.0, a=150.0)), "1/3", GOLDEN_1D_A150_C1_3),
        (lambda: build_2d(AdvectionDiffusionSpec2D(nx=32, ny=32, nu=1.0, ax=40.0, ay=40.0)), "0", GOLDEN_2D_A40_C0),
    ],
    ids=["1d-n64-a150-c1_3", "2d-32-a40-c0"],
)
def test_residual_history_matches_recorded_bits(build, scheme_key, golden):
    A, b = build()
    _, history = run_srj(A, b, lookup(5, scheme_key), FOUR_CYCLES)
    assert history.status == BUDGET_EXHAUSTED
    assert [float(r).hex() for r in history.residuals] == list(golden)


def reference_run(A, b, scheme, cycles):
    """Fixed-length SRJ run built from the public per-sweep kernels."""
    inv_diag = jacobi_split(A)
    x = np.ones(A.n_rows)
    residuals = [residual_norm(A, x, b)]
    for _ in range(cycles):
        for omega in scheme.factors:
            x = relaxed_step(A, inv_diag, x, b, omega)
            residuals.append(residual_norm(A, x, b))
    return x, np.array(residuals)


@pytest.mark.parametrize("scheme_key", ["0", "1/10", "1/2"])
def test_run_srj_bitwise_equals_reference_loop(system_1d_n128, m5_schemes, scheme_key):
    A, b, _ = system_1d_n128(150.0)
    scheme = m5_schemes[scheme_key]
    x, history = run_srj(A, b, scheme, SolveConfig(tolerance=1e-300, max_cycles=6, stagnation_window=10**9))
    x_ref, residuals_ref = reference_run(A, b, scheme, 6)
    assert np.array_equal(history.residuals, residuals_ref)
    assert np.array_equal(x, x_ref)


def test_run_srj_leaves_inputs_untouched(system_1d_n128, m5_schemes):
    A, b, _ = system_1d_n128(50.0)
    b_before = b.copy()
    guess = np.linspace(0.0, 1.0, A.n_rows)
    guess_before = guess.copy()
    run_srj(A, b, m5_schemes["1/5"], SolveConfig(initial_guess=guess, max_cycles=3))
    assert np.array_equal(b, b_before)
    assert np.array_equal(guess, guess_before)


def test_non_finite_residual_diverges_at_once():
    # Thirty mild sweeps, then two huge factors: the iterate overflows at
    # sweep 31.  The run must stop there rather than sweep on to the end
    # of the cycle budget.
    A, b = build_1d(AdvectionDiffusionSpec1D(n=64, nu=1.0, a=10.0))
    with np.errstate(over="ignore", invalid="ignore"):
        _, history = run_srj(A, b, Scheme(factors=(0.9,) * 30 + (1e300, 1e300)))
    assert history.status == DIVERGED
    assert history.iterations <= 32
    assert len(history.residuals) == history.iterations + 1
