import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from srj import (
    amp_eval,
    chebyshev_scheme,
    constraint_jacobian,
    constraint_value,
    derive_scheme,
    ellipse_test_points,
    lambda_max,
    make_region,
    objective,
    objective_gradient,
    real_test_points,
)

C_GRID = (0.0, 1 / 10, 1 / 5, 1 / 3, 1 / 2)
SRC = str(Path(__file__).resolve().parents[1] / "src")


def fd_gradient(fun, x, h=1e-6):
    grad = np.empty(x.size)
    for i in range(x.size):
        up, down = x.copy(), x.copy()
        up[i] += h
        down[i] -= h
        grad[i] = (fun(up) - fun(down)) / (2.0 * h)
    return grad


def random_sample(rng, m_range=(2, 8)):
    m = int(rng.integers(*m_range))
    factors = rng.uniform(0.4, 10.0, m)
    g_bar = rng.uniform(0.1, 1.0)
    c = rng.uniform(0.05, 0.9)
    points = ellipse_test_points(make_region(m, c))
    z = points[rng.integers(0, len(points))]
    return np.concatenate((factors, [g_bar])), z


def test_objective_and_gradient():
    x = np.array([1.0, 2.0, 1.0 / 3.0])
    assert objective(x) == pytest.approx(1.0 / 9.0)
    np.testing.assert_allclose(objective_gradient(x), [0.0, 0.0, 2.0 / 3.0])
    assert objective(np.array([5.0, 0.0])) == 0.0
    np.testing.assert_array_equal(objective_gradient(np.array([5.0, 0.0])), [0.0, 0.0])
    assert objective(np.array([1.0, 0.5])) == 0.25


def test_objective_gradient_matches_finite_difference():
    rng = np.random.default_rng(3)
    for _ in range(10):
        x = np.concatenate((rng.uniform(0.4, 10.0, 4), [rng.uniform(0.1, 1.0)]))
        np.testing.assert_allclose(objective_gradient(x), fd_gradient(objective, x), atol=1e-8)


def test_constraint_value_examples():
    # All-ones factors at z = 0: amplification is 0, slack is g_bar^2.
    x = np.array([1.0, 1.0, 1.0, 1.0 / 3.0])
    assert constraint_value(x, 0.0 + 0.0j) == pytest.approx(1.0 / 9.0)
    # At z = 1 the amplification is exactly 1, so any g_bar < 1 violates.
    assert constraint_value(x, 1.0 + 0.0j) == pytest.approx(1.0 / 9.0 - 1.0)
    # The analytic scheme has an active constraint at the right extremum.
    scheme = chebyshev_scheme(2)
    x = np.concatenate((scheme.factors, [1.0 / 3.0]))
    assert constraint_value(x, complex(lambda_max(2))) == pytest.approx(0.0, abs=1e-6)


def test_constraint_value_matches_amp_eval():
    from srj import Scheme

    rng = np.random.default_rng(5)
    for _ in range(20):
        x, z = random_sample(rng)
        expected = x[-1] ** 2 - abs(amp_eval(Scheme(factors=tuple(x[:-1])), z)) ** 2
        assert constraint_value(x, z) == pytest.approx(expected, rel=1e-12)


def test_constraint_jacobian_final_entry_and_real_axis():
    rng = np.random.default_rng(9)
    x, _ = random_sample(rng)
    jac = constraint_jacobian(x, complex(0.4))
    assert jac[-1] == 2.0 * x[-1]
    # On the real axis with all factor parts positive, the angle terms
    # vanish; the jacobian must equal the purely real derivative.
    factors = np.array([0.6, 0.7, 0.9])
    x = np.concatenate((factors, [0.5]))
    z = complex(0.9)
    g = np.prod((1.0 - factors) + factors * z.real)
    d_g = np.array(
        [
            (z.real - 1.0) * np.prod([(1.0 - w) + w * z.real for j, w in enumerate(factors) if j != i])
            for i in range(3)
        ]
    )
    np.testing.assert_allclose(constraint_jacobian(x, z)[:3], -2.0 * g * d_g, rtol=1e-12)


def test_constraint_jacobian_matches_finite_difference():
    # >= 100 randomized samples; scale-aware comparison because the slack
    # and its derivatives span many orders of magnitude.
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(120):
        x, z = random_sample(rng)
        analytic = constraint_jacobian(x, z)
        numeric = fd_gradient(lambda v: constraint_value(v, z), x)
        scale = max(np.abs(numeric).max(), 1e-8)
        worst = max(worst, np.abs(analytic - numeric).max() / scale)
    assert worst < 1e-5


def test_constraint_jacobian_degenerate_factor():
    from srj import DegenerateFactorError

    # (1 - w) + w*z = 0 at w = 0.5, z = -1: polar angle undefined.
    x = np.array([0.5, 0.4])
    with pytest.raises(DegenerateFactorError):
        constraint_jacobian(x, complex(-1.0))


@pytest.fixture(scope="module")
def derived_grid():
    results = {}
    for m in range(2, 6):
        for c in C_GRID:
            results[(m, c)] = derive_scheme(m, c)
    return results


def test_derive_scheme_published_values(derived_grid):
    published = {
        (2, 0.0): ([1.70710678, 0.56903559], 1e-4),
        (2, 1 / 10): ([1.6985778, 0.56998629], 1e-4),
        (5, 1 / 2): ([4.31270705, 1.86254896, 0.97045902, 0.65617569, 0.54674459], 1e-3),
        (5, 1 / 3): ([6.20847021, 2.02782132, 0.97045899, 0.63786058, 0.52636836], 1e-3),
    }
    for (m, c), (expected, tol) in published.items():
        result = derived_grid[(m, c)]
        assert result.converged
        got = np.array(result.scheme.factors)
        want = np.sort(expected)[::-1]
        assert np.max(np.abs(got - want) / want) < tol


def test_derive_c0_g_bar_is_one_third(derived_grid):
    assert derived_grid[(2, 0.0)].g_bar == pytest.approx(1.0 / 3.0, abs=1e-4)


def test_derive_matches_analytic_scheme_at_c0(derived_grid):
    for m in range(2, 6):
        derived = np.array(derived_grid[(m, 0.0)].scheme.factors)
        analytic = np.sort(chebyshev_scheme(m).factors)[::-1]
        assert np.max(np.abs(derived - analytic) / analytic) < 1e-4


def test_derived_schemes_feasible_on_test_points_and_dense_boundary(derived_grid):
    for (m, c), result in derived_grid.items():
        scheme, g_bar = result.scheme, result.g_bar
        if c == 0.0:
            from srj import real_test_points

            points = real_test_points(m).astype(complex)
            dense = np.linspace(-1.0, lambda_max(m), 720).astype(complex)
        else:
            region = make_region(m, c)
            points = ellipse_test_points(region)
            theta = np.linspace(0.0, 2.0 * np.pi, 720, endpoint=False)
            dense = region.x_c + region.a * np.cos(theta) + 1j * region.b * np.sin(theta)
        assert np.abs(amp_eval(scheme, points)).max() <= g_bar + 1e-6
        assert np.abs(amp_eval(scheme, dense)).max() <= g_bar + 1e-3


def test_g_bar_monotone_in_m_and_c():
    # True optimum at c=0 is exactly 1/3 for every m, so allow solver
    # jitter when asserting monotonicity.
    jitter = 1e-5
    grid = {}
    for m in range(2, 11):
        for c in C_GRID:
            grid[(m, c)] = derive_scheme(m, c).g_bar
    for m in range(2, 11):
        row = [grid[(m, c)] for c in C_GRID]
        assert all(b >= a - jitter for a, b in zip(row, row[1:]))
        assert all(value < 1.0 for value in row)
    for c in C_GRID:
        column = [grid[(m, c)] for m in range(2, 11)]
        assert all(b >= a - jitter for a, b in zip(column, column[1:]))


def test_derive_scheme_validates_inputs():
    with pytest.raises(ValueError):
        derive_scheme(1, 0.0)
    with pytest.raises(ValueError):
        derive_scheme(3, 1.5)


def test_boundary_certificate_brackets_g_bar(derived_grid):
    for (m, c), result in derived_grid.items():
        if c == 0.0:
            points = real_test_points(m).astype(complex)
        else:
            points = ellipse_test_points(make_region(m, c))
        at_points = np.abs(amp_eval(result.scheme, points)).max()
        assert at_points <= result.boundary_max <= result.g_bar * (1.0 + 1e-6), (m, c)


def test_derive_at_c1_is_the_disk_closed_form():
    for m in range(2, 21):
        region = make_region(m, 1.0)
        w = 1.0 / (1.0 - region.x_c)
        result = derive_scheme(m, 1.0)
        assert result.converged, m
        np.testing.assert_allclose(result.scheme.factors, w, rtol=0.0, atol=1e-12)
        assert result.g_bar == pytest.approx((region.a / (1.0 - region.x_c)) ** m, rel=0.0, abs=1e-12)


def test_closed_form_equioscillates_on_the_distinct_test_points():
    for m in (2, 5, 10, 20, 32, 64):
        for c in (0.0, 1 / 10, 1 / 2, 0.9, 0.99, 1.0):
            points = real_test_points(m).astype(complex) if c == 0.0 else ellipse_test_points(make_region(m, c))
            distinct = points[points.imag >= 0.0]
            assert distinct.size == m + 1
            moduli = np.abs(amp_eval(derive_scheme(m, c).scheme, distinct))
            assert moduli.max() / moduli.min() - 1.0 <= 1e-12, (m, c)


def test_former_gap_inputs_converge():
    # g_bar of the Newton-continuation optimizer with its trust-constr fallback,
    # which stopped unconverged on these inputs after 8-41 s each.
    searched_g_bar = {(16, 0.99): 0.9067582534, (20, 0.99): 0.9246295804,
                      (24, 0.95): 0.9341942422, (28, 0.9): 0.9402614820}
    for (m, c), ceiling in searched_g_bar.items():
        result = derive_scheme(m, c)
        assert result.converged, (m, c)
        assert result.g_bar <= ceiling + 1e-9, (m, c)
        assert result.boundary_max <= result.g_bar * (1.0 + 1e-9), (m, c)


def test_derive_imports_no_scipy_submodule():
    # Each would cost setup time and resident memory in every process that only derives.
    probe = ("import sys, srj, srj.cli; srj.derive_scheme(16, 0.99); "
             "print(sorted({'scipy.optimize', 'scipy.sparse', 'scipy.io'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))}
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "[]"
