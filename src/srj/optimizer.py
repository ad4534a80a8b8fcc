"""Relaxation schemes from the minimax problem over an ellipse.

A scheme minimizes ``g_bar**2`` subject to ``g_bar**2 - |G(z_j)|**2 >= 0``
at the test points ``z_j`` of its ellipse, over ``x = (w_1 .. w_m, g_bar)``.
The optimum is in closed form (T. A. Manteuffel, Numer. Math. 28, 1977):
the Chebyshev polynomial of the focal segment ``[x_c - d, x_c + d]``,
``d = a sqrt(1 - c**2)``, scaled to ``G(1) = 1``, whose modulus peaks at
every test point (the lifted Chebyshev extrema).  Its roots fix the
factors through ``w = 1/(1 - root)``; c = 0 gives :func:`chebyshev_scheme`,
c = 1 (d = 0) the disk optimum.  Over the whole ellipse it is not always
the exact minimax (Fischer & Freund, J. Approx. Theory 65, 1991).
"""

from dataclasses import dataclass

import numpy as np

from .amplification import Scheme, amp_eval
from .region import _test_points, make_region

BOUNDARY_SAMPLES = 4096  # points behind OptimizationResult.boundary_max


class DegenerateFactorError(ArithmeticError):
    """A factor's polar magnitude underflowed; the angle is undefined there."""


@dataclass(frozen=True)
class OptimizationResult:
    scheme: Scheme
    g_bar: float
    converged: bool  # always True: the closed form needs no search
    iterations: int  # always 0, for the same reason
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


def _factor_parts(factors, points):
    """Real/imaginary parts of every linear factor at every test point, ``(k, m)``."""
    factors = np.asarray(factors, dtype=float)
    points = np.atleast_1d(np.asarray(points, dtype=complex))
    re = (1.0 - factors)[None, :] + factors[None, :] * points.real[:, None]
    im = factors[None, :] * points.imag[:, None]
    return re, im


def _constraint_values(x, points):
    """Slacks ``g_bar**2 - |G(z_j)|**2`` for every test point, vectorized."""
    re, im = _factor_parts(x[:-1], points)
    return x[-1] ** 2 - np.prod(re * re + im * im, axis=1)


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


def derive_scheme(m, c_ratio):
    """The length-m scheme for the (m, c_ratio) ellipse, in closed form.

    Factors are sorted descending; g_bar is max |G| over the test points.
    """
    if m < 2:
        raise ValueError(f"scheme derivation needs m >= 2, got {m}")
    if not 0.0 <= c_ratio <= 1.0:
        raise ValueError(f"c_ratio must lie in [0, 1], got {c_ratio}")

    region = make_region(m, c_ratio)
    d = region.a * np.sqrt(1.0 - c_ratio**2)
    roots = region.x_c + d * np.cos((2 * np.arange(1, m + 1) - 1) * np.pi / (2 * m))
    factors = np.sort(1.0 / (1.0 - roots))[::-1]
    zs = _test_points(m, c_ratio)
    theta = np.linspace(0.0, np.pi, BOUNDARY_SAMPLES)
    boundary = region.x_c + region.a * np.cos(theta) + 1j * region.b * np.sin(theta)
    moduli = np.abs(amp_eval(Scheme(factors=factors), np.concatenate((zs, boundary))))
    g_bar = float(moduli[:zs.size].max())
    scheme = Scheme(factors=factors, c_ratio=float(c_ratio), g_bar=g_bar if g_bar < 1.0 else None)
    violation = float(max(0.0, -_constraint_values(np.append(factors, g_bar), zs).min()))
    return OptimizationResult(scheme, g_bar, True, 0, violation, float(moduli.max()))
