"""Oracles shared by the tests: quadrature and dynamics checks of ensembles."""

import numpy as np

from ctrlflow.ode import pl_stage_values, rk4_stage_controls


def integrate_samples(y: np.ndarray, t_grid: np.ndarray) -> np.ndarray:
    """Integral of sampled values over the grid, composite Simpson rule.

    ``y`` has shape (..., K + 1); an odd number of steps falls back to
    trapezoid on the final interval. The grid must be uniform.
    """
    y = np.asarray(y, dtype=float)
    t_grid = np.asarray(t_grid, dtype=float)
    K = len(t_grid) - 1
    h = (t_grid[-1] - t_grid[0]) / K
    n_simpson = K if K % 2 == 0 else K - 1
    total = np.zeros(y.shape[:-1])
    if n_simpson >= 2:
        w = np.ones(n_simpson + 1)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        total = total + (h / 3.0) * np.tensordot(y[..., : n_simpson + 1], w, axes=([-1], [0]))
    if n_simpson != K:
        total = total + 0.5 * h * (y[..., -2] + y[..., -1])
    return total


def control_energy(ens) -> np.ndarray:
    """(n,) integrals of |u(t)|^2 over the horizon (Simpson on the grid)."""
    return integrate_samples(np.sum(ens.controls**2, axis=2), ens.t_grid)


def residual_error(ens, sys) -> np.ndarray:
    """(n,) consistency of each row of an ensemble with the dynamics.

    Re-integrates the stored controls (piecewise-linear convention) from
    ``states[:, 0]`` with RK4 on the same grid and returns each row's max
    state deviation relative to its trajectory scale.
    """
    states, _ = rk4_stage_controls(
        sys.rhs, ens.states[:, 0], ens.t_grid, pl_stage_values(ens.controls), blowup=None
    )
    dev = np.abs(states - ens.states).max(axis=(1, 2))
    return dev / (1.0 + np.abs(ens.states).max(axis=(1, 2)))
