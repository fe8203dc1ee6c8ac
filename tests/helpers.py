"""Oracles shared by the tests: quadrature and dynamics checks of ensembles."""

import numpy as np

from ctrlflow.ode import rk4, rk4_node_controls


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
    states, _ = rk4_node_controls(
        sys.rhs, ens.states[:, 0], ens.t_grid, ens.controls, blowup=None
    )
    dev = np.abs(states - ens.states).max(axis=(1, 2))
    return dev / (1.0 + np.abs(ens.states).max(axis=(1, 2)))


def _rk4_nodes(field, x0: np.ndarray, t_grid: np.ndarray, substeps: int) -> np.ndarray:
    # one uniform fine grid per interval, so every node of t_grid is a fine node
    fine = np.concatenate(
        [np.linspace(a, b, substeps + 1)[:-1] for a, b in zip(t_grid[:-1], t_grid[1:])]
        + [t_grid[-1:]]
    )
    states, _ = rk4(lambda k, stage, t, x: field(k // substeps, t, x), x0, fine, blowup=None)
    return states[:, ::substeps]


def fine_rk4(field, x0: np.ndarray, t_grid: np.ndarray, substeps: int):
    """RK4 states at the nodes of ``t_grid``, with each row's error bound.

    Integrates ``x' = field(j, t, x)``, j the interval of ``t_grid`` that
    holds t, from ``x0`` with ``substeps`` and with 2 * ``substeps`` uniform
    RK4 steps per interval.  Returns the finer run's (n, K + 1, d) node
    states and each row's largest difference between the two runs.  RK4 is
    fourth order, so the finer run's error is about 1/15 of that difference.
    """
    coarse = _rk4_nodes(field, x0, t_grid, substeps)
    fine = _rk4_nodes(field, x0, t_grid, 2 * substeps)
    return fine, np.abs(coarse - fine).max(axis=(1, 2))
