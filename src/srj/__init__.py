"""Scheduled Relaxation Jacobi schemes for nonsymmetric linear systems.

Derives relaxation-factor schedules that bound error amplification over
elliptical spectral regions, ships the full catalog of precomputed
schemes, and applies them as an iterative solver to advection-diffusion
finite-difference systems.
"""

from .amplification import (
    BOUNDING_RATIO,
    ChebyshevConstants,
    Scheme,
    amp_eval,
    amp_grid,
    cheb_eval,
    chebyshev_constants,
    chebyshev_scheme,
    from_cheb_interval,
    lambda_max,
    lambda_star,
    slope_at_one,
    to_cheb_interval,
)
from .catalog import (
    SchemeFileError,
    SchemeNotFoundError,
    catalog_keys,
    classic_lookup,
    load_scheme,
    lookup,
    save_scheme,
    slope_table,
)
from .optimizer import (
    DegenerateFactorError,
    OptimizationResult,
    constraint_jacobian,
    constraint_value,
    derive_scheme,
    objective,
    objective_gradient,
)
from .pde import AdvectionDiffusionSpec1D, AdvectionDiffusionSpec2D, build_1d, build_2d
from .region import EllipseRegion, ellipse_test_points, make_region, real_test_points
from .solver import (
    BUDGET_EXHAUSTED,
    CONVERGED,
    DIVERGED,
    STAGNATED,
    ConvergenceHistory,
    SolveConfig,
    relaxed_step,
    run_jacobi,
    run_srj,
)
from .sparse import (
    CsrMatrix,
    SingularSplittingError,
    jacobi_split,
    read_matrix_market,
    residual_norm,
    spmv,
    write_matrix_market,
)
from .spectral import (
    DENSE_EIG_CAP,
    SpectrumReport,
    jacobi_eigenvalues,
    rank_schemes,
    spectrum_report,
    srj_spectral_radius,
)

__version__ = "0.1.0"
