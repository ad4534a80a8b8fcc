"""Elliptical spectral regions and the constraint test points on them.

Schemes for nonsymmetric systems bound the amplification over an ellipse
in the complex plane whose real diameter is the interval ``[-1,
lambda_max(m)]`` and whose thickness is set by the aspect ratio ``c``.
Constraints are enforced at the images of the Chebyshev extrema: on the
real segment itself when ``c = 0``, otherwise lifted onto the ellipse
boundary where the maximum modulus is attained.
"""

import math
from dataclasses import dataclass

import numpy as np

from .amplification import from_cheb_interval, lambda_max


@dataclass(frozen=True)
class EllipseRegion:
    """Ellipse with semi-axes ``a >= b``, centered at ``(x_c, 0)``."""

    a: float
    b: float
    x_c: float
    c_ratio: float
    m: int


def make_region(m, c_ratio):
    """Ellipse for cycle length m and aspect ratio ``c_ratio`` in [0, 1].

    The semi-major axis spans ``[-1, lambda_max(m)]``; ``x_c`` is derived
    as ``a - 1`` so the left vertex lands on -1 exactly.
    """
    if not 0.0 <= c_ratio <= 1.0:
        raise ValueError(f"c_ratio must lie in [0, 1], got {c_ratio}")
    a = (lambda_max(m) + 1.0) / 2.0
    return EllipseRegion(a=a, b=c_ratio * a, x_c=a - 1.0, c_ratio=float(c_ratio), m=m)


def real_test_points(m):
    """Extrema abscissas of the length-m amplification on the real segment.

    Images of the Chebyshev extrema ``cos(i*pi/m)``, i = 0..m; strictly
    decreasing from ``lambda_max(m)`` down to -1 (the last point is -1
    exactly).
    """
    return np.array([from_cheb_interval(math.cos(i * math.pi / m), m) for i in range(m + 1)])


def ellipse_test_points(region):
    """The 2m constraint points on the boundary of ``region``.

    Each interior real abscissa lifts to a conjugate pair on the upper
    and lower boundary; the two real endpoints stay real and appear once
    each.  Requires a nondegenerate ellipse (``c_ratio > 0``).
    """
    if region.c_ratio == 0.0:
        raise ValueError("degenerate region (c_ratio = 0): use real_test_points")
    xs = real_test_points(region.m)
    points = [complex(xs[0]), complex(xs[-1])]
    for x in xs[1:-1]:
        # Clamp guards round-off for abscissas grazing the vertices.
        y = region.b * math.sqrt(max(0.0, 1.0 - ((x - region.x_c) / region.a) ** 2))
        points.append(complex(x, y))
        points.append(complex(x, -y))
    return np.array(points)


def _test_points(m, c_ratio):
    """Constraint points of the (m, c_ratio) problem: real at c = 0, lifted otherwise."""
    if c_ratio == 0.0:
        return real_test_points(m).astype(complex)
    return ellipse_test_points(make_region(m, c_ratio))
