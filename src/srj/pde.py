"""Steady advection-diffusion systems on the unit interval and square.

Second derivatives use central differences, first derivatives upwind in
the flow direction, so positive advection produces the nonsymmetric
tridiagonal/pentadiagonal operators the schemes are built for.

Grid convention: spacing ``h = 1/n`` with unknowns at ``i*h``,
``i = 1..n``.  The homogeneous Dirichlet value at 0 is not an unknown;
the homogeneous Neumann boundary coincides with the last unknown and is
imposed by ghost-node reflection (``u_{n+1} = u_n``), which folds the
outflow coefficient into the last diagonal.  In 2D, Dirichlet sides are
left/bottom and Neumann sides right/top; unknowns are numbered row-major
with x fastest, so the vertical couplings sit ``nx`` off the diagonal.
"""

from dataclasses import dataclass

import numpy as np

from .sparse import CsrMatrix

FORCING_1D = {
    "sin2pix": lambda x: np.sin(2.0 * np.pi * x),
}
FORCING_2D = {
    "sin2pix_sin2piy": lambda x, y: np.sin(2.0 * np.pi * x) * np.sin(2.0 * np.pi * y),
}


@dataclass(frozen=True)
class AdvectionDiffusionSpec1D:
    n: int
    nu: float
    a: float
    forcing: str = "sin2pix"


@dataclass(frozen=True)
class AdvectionDiffusionSpec2D:
    nx: int
    ny: int
    nu: float
    ax: float
    ay: float
    forcing: str = "sin2pix_sin2piy"


def _forcing(table, name):
    if callable(name):
        return name
    try:
        return table[name]
    except KeyError:
        raise ValueError(f"unknown forcing preset {name!r}; available: {sorted(table)}") from None


def build_1d(spec):
    """Assemble the tridiagonal system for a 1D spec.

    For positive advection the interior stencil is
    ``(-nu/h^2 - a/h, 2 nu/h^2 + a/h, -nu/h^2)``; negative advection
    mirrors the one-sided term onto the upper diagonal.
    """
    if spec.n < 3:
        raise ValueError(f"need at least 3 unknowns, got {spec.n}")
    if spec.nu <= 0.0:
        raise ValueError(f"diffusion coefficient must be positive, got {spec.nu}")
    n, nu, a = spec.n, spec.nu, spec.a
    h = 1.0 / n
    lower = -nu / h**2 - max(a, 0.0) / h
    upper = -nu / h**2 + min(a, 0.0) / h
    diag = 2.0 * nu / h**2 + abs(a) / h

    main = np.full(n, diag)
    main[-1] += upper  # Neumann ghost reflection folds the outflow term
    import scipy.sparse  # here, not at module level; see srj.sparse

    matrix = scipy.sparse.diags(
        [np.full(n - 1, lower), main, np.full(n - 1, upper)], offsets=[-1, 0, 1], format="csr"
    )
    xs = np.arange(1, n + 1) * h
    rhs = np.asarray(_forcing(FORCING_1D, spec.forcing)(xs), dtype=float)
    return CsrMatrix.from_scipy(matrix), rhs


def build_2d(spec):
    """Assemble the pentadiagonal system for a 2D spec."""
    if spec.nx < 3 or spec.ny < 3:
        raise ValueError(f"need at least 3 unknowns per direction, got {spec.nx}x{spec.ny}")
    if spec.nu <= 0.0:
        raise ValueError(f"diffusion coefficient must be positive, got {spec.nu}")
    nx, ny, nu, ax, ay = spec.nx, spec.ny, spec.nu, spec.ax, spec.ay
    hx, hy = 1.0 / nx, 1.0 / ny
    west = -nu / hx**2 - max(ax, 0.0) / hx
    east = -nu / hx**2 + min(ax, 0.0) / hx
    south = -nu / hy**2 - max(ay, 0.0) / hy
    north = -nu / hy**2 + min(ay, 0.0) / hy
    diag = 2.0 * nu / hx**2 + 2.0 * nu / hy**2 + abs(ax) / hx + abs(ay) / hy

    n_unknowns = nx * ny
    cols_i = np.tile(np.arange(nx), ny)  # x index of each unknown
    main = np.full(n_unknowns, diag)
    main[cols_i == nx - 1] += east  # Neumann at x = 1
    main[nx * (ny - 1):] += north   # Neumann at y = 1

    west_band = np.full(n_unknowns - 1, west)
    west_band[cols_i[1:] == 0] = 0.0  # no coupling across the row seam
    east_band = np.full(n_unknowns - 1, east)
    east_band[cols_i[:-1] == nx - 1] = 0.0

    import scipy.sparse

    matrix = scipy.sparse.diags(
        [
            np.full(n_unknowns - nx, south),
            west_band,
            main,
            east_band,
            np.full(n_unknowns - nx, north),
        ],
        offsets=[-nx, -1, 0, 1, nx],
        format="csr",
    )
    xs = np.arange(1, nx + 1) * hx
    ys = np.arange(1, ny + 1) * hy
    force = _forcing(FORCING_2D, spec.forcing)
    rhs = np.asarray(force(xs[None, :], ys[:, None]), dtype=float).ravel()
    return CsrMatrix.from_scipy(matrix), rhs
