"""Relaxed Jacobi sweeps and full scheduled-relaxation cycles.

A run applies the scheme's factors cyclically in stored order, records
the residual norm after every sweep, and classifies the outcome.  Large
over-relaxation factors make residuals overshoot mid-cycle by design, so
divergence and stagnation bookkeeping look at cycle-end residuals only.
Stagnation additionally arms itself only after the first real
improvement: highly nonsymmetric systems show long cycle-end transients
(growth over tens of cycles) before the asymptotic decay sets in, and
those must not be misread as a plateau.  A non-finite residual is
divergence at once, whatever the point in the cycle.

The run carries the residual ``r = b - A x`` from sweep to sweep: the
vector whose norm is recorded after one sweep is the one the next sweep
applies, so each sweep costs a single sparse product.  The scaled
inverse diagonals ``omega * D^-1`` are formed once per run, one per
distinct factor.  Both keep the arithmetic of :func:`relaxed_step`
followed by a fresh residual, so histories are bitwise identical to it.
"""

import math
from dataclasses import dataclass

import numpy as np

from .amplification import Scheme
from .sparse import jacobi_split, spmv

CONVERGED = "converged"
STAGNATED = "stagnated"
DIVERGED = "diverged"
BUDGET_EXHAUSTED = "budget_exhausted"

# Stagnation: the best cycle-end residual fails to improve by at least
# this fraction across a full window of cycles.
STAGNATION_IMPROVEMENT = 0.01


@dataclass(frozen=True)
class SolveConfig:
    tolerance: float = 1e-6
    max_cycles: int = 20000
    initial_guess: object = "ones"
    stagnation_window: int = 10
    divergence_factor: float = 1e6

    def __post_init__(self):
        if self.tolerance <= 0.0:
            raise ValueError("tolerance must be positive")
        if self.stagnation_window < 2:
            raise ValueError("stagnation_window must be >= 2")
        if self.max_cycles < 1:
            raise ValueError("max_cycles must be >= 1")


@dataclass
class ConvergenceHistory:
    residuals: np.ndarray          # one entry per sweep, residuals[0] is initial
    cycle_boundaries: np.ndarray   # indices into residuals at each completed cycle end
    status: str
    cycles_used: int

    @property
    def iterations(self):
        return len(self.residuals) - 1

    @property
    def final_residual(self):
        return float(self.residuals[-1])


def _initial_vector(config, n):
    guess = config.initial_guess
    if isinstance(guess, str):
        if guess == "ones":
            return np.ones(n)
        if guess == "zeros":
            return np.zeros(n)
        raise ValueError(f"unknown initial guess preset {guess!r}")
    vector = np.asarray(guess, dtype=float)
    if vector.shape != (n,):
        raise ValueError(f"initial guess has shape {vector.shape}, expected ({n},)")
    return vector.copy()


def relaxed_step(A, inv_diag, x, b, omega):
    """One relaxed Jacobi sweep in residual form.

    ``x + omega * inv_diag * (b - A x)`` equals the weighted average of
    the current iterate and the unrelaxed Jacobi update.
    """
    return x + omega * inv_diag * (b - spmv(A, x))


def run_srj(A, b, scheme, config=None):
    """Run scheduled-relaxation cycles until a termination condition.

    Returns ``(solution, ConvergenceHistory)``.  Termination: residual at
    or below tolerance (converged); a non-finite residual after any
    sweep, or a cycle-end residual exceeding ``divergence_factor`` times
    the initial residual (diverged); best cycle-end residual improving by
    less than 1% across a window of ``stagnation_window`` cycles, once
    the run has improved on its initial residual at all (stagnated); or
    the cycle budget running out.  Neither ``b`` nor the initial guess
    is written to.
    """
    config = config or SolveConfig()
    b = np.asarray(b, dtype=float)
    inv_diag = jacobi_split(A)
    x = _initial_vector(config, A.n_rows)

    # sqrt(r . r) is what np.linalg.norm evaluates for a real vector,
    # without its argument handling.
    residual = b - spmv(A, x)
    initial = math.sqrt(residual.dot(residual))
    residuals = [initial]
    boundaries = []
    if initial <= config.tolerance:
        return x, ConvergenceHistory(np.array(residuals), np.array(boundaries, dtype=int), CONVERGED, 0)

    # (omega * inv_diag) * r is the association relaxed_step evaluates.
    scaled = {omega: omega * inv_diag for omega in set(scheme.factors)}
    steps = [scaled[omega] for omega in scheme.factors]
    update = np.empty_like(x)

    best_by_cycle = [initial]
    armed = False       # becomes True once the run has actually improved
    status = None
    cycles = 0
    while status is None and cycles < config.max_cycles:
        cycles += 1
        for step in steps:
            np.multiply(step, residual, out=update)
            x += update
            np.subtract(b, spmv(A, x), out=residual)
            current = math.sqrt(residual.dot(residual))
            residuals.append(current)
            if current <= config.tolerance:
                status = CONVERGED
                break
            if not math.isfinite(current):
                status = DIVERGED
                break
        if status is not None:
            break
        boundaries.append(len(residuals) - 1)
        if current > config.divergence_factor * initial:
            status = DIVERGED
            continue
        best = min(best_by_cycle[-1], current)
        best_by_cycle.append(best)
        if best < initial * (1.0 - STAGNATION_IMPROVEMENT):
            armed = True
        window = config.stagnation_window
        if (
            armed
            and cycles >= window
            and best_by_cycle[-1] > best_by_cycle[-1 - window] * (1.0 - STAGNATION_IMPROVEMENT)
        ):
            status = STAGNATED
    if status is None:
        status = BUDGET_EXHAUSTED

    history = ConvergenceHistory(
        residuals=np.array(residuals),
        cycle_boundaries=np.array(boundaries, dtype=int),
        status=status,
        cycles_used=cycles,
    )
    return x, history


def run_jacobi(A, b, config=None):
    """Plain Jacobi iteration: a single unit relaxation factor per cycle."""
    return run_srj(A, b, Scheme(factors=(1.0,)), config)
