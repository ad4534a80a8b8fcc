"""Relaxation schemes from the minimax problem over an ellipse.

A scheme minimizes ``g_bar**2`` subject to ``g_bar**2 - |G(z_j)|**2 >= 0``
at the test points ``z_j`` of its ellipse, over ``x = (w_1 .. w_m, g_bar)``.
At the optimum |G| equioscillates, so the constraints at the m + 1
distinct (Im >= 0) test points are all active: a square system for
damped Newton with the analytic polar Jacobian.  Three paths lead there:

* ``c < 1``: continuation in c (Allgower & Georg, *Numerical Continuation
  Methods*, 1990) from the analytic real-axis scheme, the exact c = 0
  solution, with a Newton solve at every adaptive c-step.
* ``c = 1``: the disk ``|z - x_c| <= a``, whose optimum has every factor
  ``1/(1 - x_c)`` (Saad, *Iterative Methods for Sparse Linear Systems*,
  §6.11); the factors coalesce there, so Newton cannot reach it.
* continuation stalls: one trust-constr run (BFGS constraint Hessian)
  warm-started from the last continuation point, then Newton.
"""

from dataclasses import dataclass

import numpy as np

from .amplification import Scheme, amp_eval, chebyshev_scheme
from .region import ellipse_test_points, make_region, real_test_points

# Box bounds keep iterates off the hyperplanes where a factor's polar
# magnitude vanishes; g_bar needs room for feasible seeding.
FACTOR_BOUNDS = (1e-3, 500.0)
G_BAR_BOUNDS = (0.0, 1e4)
BOUNDARY_SAMPLES = 4096  # points behind OptimizationResult.boundary_max


class DegenerateFactorError(ArithmeticError):
    """A factor's polar magnitude underflowed; the angle is undefined there."""


@dataclass(frozen=True)
class OptimizationResult:
    scheme: Scheme
    g_bar: float
    converged: bool
    iterations: int  # Newton iterations, plus trust-constr's when the fallback ran
    max_constraint_violation: float
    # Certificate, reported only: max |G| over the test points and BOUNDARY_SAMPLES
    # points of the upper half boundary (at c = 0, of the segment [-1, lambda_max]).
    boundary_max: float


def objective(x):
    """Squared amplification bound; the thing being minimized."""
    return x[-1] ** 2


def objective_gradient(x):
    grad = np.zeros_like(x)
    grad[-1] = 2.0 * x[-1]
    return grad


def _factor_parts(factors, points, dtype=float):
    """Real/imaginary parts of every linear factor at every test point.

    Returns ``(k, m)`` arrays of ``dtype`` for k points and m factors.
    """
    factors = np.asarray(factors, dtype=dtype)
    points = np.atleast_1d(np.asarray(points, dtype=complex))
    re = (1.0 - factors)[None, :] + factors[None, :] * points.real[:, None]
    im = factors[None, :] * points.imag[:, None]
    return re, im


def _constraint_values(x, points):
    """Slacks ``g_bar**2 - |G(z_j)|**2`` for every test point, vectorized.

    Extended precision (where the platform has it): near coalescing factors
    the Newton system is so ill-conditioned that double rounding of the
    slacks alone stalls Newton near 1e-11, short of the 1e-12 it must reach.
    """
    re, im = _factor_parts(x[:-1], points, np.longdouble)
    return (np.longdouble(x[-1]) ** 2 - np.prod(re * re + im * im, axis=1)).astype(float)


def _constraint_jacobians(x, points):
    """Stacked analytic constraint gradients, one row per test point.

    In polar form ``G = D* exp(i theta*)`` with ``D* = prod C_i``, the slack
    depends on ``|G|**2 = D***2`` alone, so its partial in ``w_j`` is
    ``-2 D* dD*/dw_j = -2 D* (D*/C_j) dC_j/dw_j``.  The last entry is ``2 g_bar``.
    """
    points = np.atleast_1d(np.asarray(points, dtype=complex))
    re, im = _factor_parts(x[:-1], points)
    mags = np.hypot(re, im)
    if np.any(mags < 1e-300):
        point_idx, factor_idx = np.unravel_index(int(np.argmin(mags)), mags.shape)
        raise DegenerateFactorError(f"factor {factor_idx} has vanishing magnitude at test point "
                                    f"{points[point_idx]!r}; polar angle undefined")
    mag_total = np.prod(mags, axis=1)[:, None]
    d_mag = (mag_total / mags) * (re * (points.real[:, None] - 1.0) + im * points.imag[:, None]) / mags
    jac = np.empty((mags.shape[0], mags.shape[1] + 1))
    jac[:, :-1] = -2.0 * mag_total * d_mag
    jac[:, -1] = 2.0 * x[-1]
    return jac


def constraint_value(x, z):
    """Slack ``g_bar**2 - |G(z)|**2`` at one test point (feasible when >= 0)."""
    return float(_constraint_values(np.asarray(x, dtype=float), z)[0])


def constraint_jacobian(x, z):
    """Analytic gradient of :func:`constraint_value` in (factors, g_bar)."""
    return _constraint_jacobians(np.asarray(x, dtype=float), z)[0]


def _test_points(m, c_ratio):
    return real_test_points(m).astype(complex) if c_ratio == 0.0 else ellipse_test_points(make_region(m, c_ratio))


def _bounds(m):
    lower = np.append(np.full(m, FACTOR_BOUNDS[0]), G_BAR_BOUNDS[0])
    return lower, np.append(np.full(m, FACTOR_BOUNDS[1]), G_BAR_BOUNDS[1])


def _polish(x, zs, max_drift=0.05):
    """Damped Newton on the active system ``c_j(x) = 0`` at the distinct test points.

    Backtracking keeps it stable on the flat ridges long cycles produce.
    Returns ``(x, iterations)``, x None when the system is singular, the
    residual stays above 1e-12, x drifts beyond ``max_drift`` or its bounds.
    """
    unique = zs[zs.imag >= 0.0]
    start, iterations = x.copy(), 0
    for _ in range(60):
        values = _constraint_values(x, unique)
        worst = np.abs(values).max()
        if worst < 1e-14:
            break
        try:
            step = np.linalg.solve(_constraint_jacobians(x, unique), -values)
        except (np.linalg.LinAlgError, DegenerateFactorError):
            return None, iterations
        scale = 1.0
        for _ in range(30):
            trial = x + scale * step
            if np.all(trial[:-1] > 0.0) and np.all(np.isfinite(trial)):
                if np.abs(_constraint_values(trial, unique)).max() < worst * (1.0 - 1e-4 * scale):
                    break
            scale *= 0.5
        else:
            break
        x, iterations = x + scale * step, iterations + 1
    lower, upper = _bounds(x.size - 1)
    drift = np.abs(x - start).max() / (1.0 + np.abs(start).max())
    if np.abs(_constraint_values(x, unique)).max() > 1e-12 or drift > max_drift or np.any((x < lower) | (x > upper)):
        return None, iterations
    return x, iterations


def _continue(m, c_ratio):
    """Newton continuation from the exact c = 0 solution toward ``c_ratio``.

    Starts at 20 equal steps; a solved step grows the next by 1.5x (up to
    twice the first), a failed one halves it, down to 1e-6.  Returns
    ``(x, c_reached, iterations)`` for the last solved point.
    """
    x = np.append(chebyshev_scheme(m).factors, 1.0 / 3.0)
    c, iterations = 0.0, 0
    first = step = c_ratio / 20.0
    while c < c_ratio:
        target = min(c + step, c_ratio)
        solved, its = _polish(x, _test_points(m, target), max_drift=0.2)
        iterations += its
        if solved is None:
            step /= 2.0
            if step < 1e-6:
                break
        else:
            x, c, step = solved, target, min(1.5 * step, 2.0 * first)
    return x, c, iterations


def _fallback(m, x, zs):
    """One trust-constr run warm-started from ``x``, then Newton.

    g_bar re-seeds feasible, just above the factors' worst amplification
    over ``zs`` (floored at 0.4): an infeasible bound guess strands the
    interior-point solver.  Returns ``(x, iterations, solved)``.
    """
    from scipy.optimize import BFGS, Bounds, NonlinearConstraint, minimize

    lower, upper = _bounds(m)
    worst = np.sqrt((x[-1] ** 2 - _constraint_values(x, zs)).max())
    x0 = np.clip(np.append(x[:-1], max(0.4, 1.05 * worst)), lower, upper)
    constraint = NonlinearConstraint(lambda v: _constraint_values(v, zs), 0.0, np.inf,
                                     jac=lambda v: _constraint_jacobians(v, zs), hess=BFGS())
    objective_hessian = np.diag(np.append(np.zeros(m), 2.0))
    for attempt in range(3):
        try:
            result = minimize(objective, x0, jac=objective_gradient, hess=lambda v: objective_hessian,
                              method="trust-constr", bounds=Bounds(lower, upper), constraints=[constraint],
                              options={"gtol": 1e-12, "xtol": 1e-14, "barrier_tol": 1e-12, "maxiter": 3000})
            break
        except DegenerateFactorError:
            # Nudge off the singular hyperplane and restart; optima never sit on it.
            x0 = x0.copy()
            x0[:m] += 1e-12 * (attempt + 1)
    else:
        raise DegenerateFactorError(f"optimizer kept hitting degenerate factors for m={m}")

    best = result.x.copy()
    best[-1] = abs(best[-1])  # only g_bar**2 enters the problem; fix the gauge
    polished, its = _polish(best, zs)  # rescues runs that crawled out their budget
    if polished is not None and polished[-1] <= best[-1] + 1e-9:
        return polished, result.niter + its, True
    return best, result.niter + its, result.status in (1, 2)


def derive_scheme(m, c_ratio):
    """Derive the length-m scheme optimized over the (m, c_ratio) ellipse.

    Closed form at ``c_ratio = 1``; below it, continuation in c from the
    analytic c = 0 scheme, then one warm-started trust-constr run only if
    continuation stalls.  Factors are sorted descending; an infeasible result,
    or a fallback that neither converged nor polished, has ``converged=False``.
    """
    if m < 2:
        raise ValueError(f"scheme derivation needs m >= 2, got {m}")
    if not 0.0 <= c_ratio <= 1.0:
        raise ValueError(f"c_ratio must lie in [0, 1], got {c_ratio}")

    zs = _test_points(m, c_ratio)
    region = make_region(m, c_ratio)
    if c_ratio == 1.0:
        w = 1.0 / (1.0 - region.x_c)
        x, iterations, solved = np.append(np.full(m, w), (region.a * w) ** m), 0, True
    else:
        x, c_reached, iterations = _continue(m, c_ratio)
        solved = c_reached == c_ratio
        if not solved:
            x, niter, solved = _fallback(m, x, zs)
            iterations += niter

    theta = np.linspace(0.0, np.pi, BOUNDARY_SAMPLES)
    boundary = region.x_c + region.a * np.cos(theta) + 1j * region.b * np.sin(theta)
    violation = float(max(0.0, -_constraint_values(x, zs).min()))
    g_bar = float(x[-1])
    scheme = Scheme(factors=tuple(np.sort(x[:-1])[::-1]), c_ratio=float(c_ratio), g_bar=g_bar if g_bar < 1.0 else None)
    boundary_max = float(np.abs(amp_eval(scheme, np.concatenate((boundary, zs)))).max())
    converged = bool(solved and violation <= 1e-8 and 0.0 < g_bar < 1.0)
    return OptimizationResult(scheme, g_bar, converged, iterations, violation, boundary_max)
