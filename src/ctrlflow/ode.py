"""Fixed-step RK4 integration, batched over trajectories.

:func:`rk4` is the one step loop: every integration in the package
(noising's open loop with stored controls and its extremal flows, and the
learned closed loop) supplies a field callback that is told the step index
and RK4 stage, and :func:`rk4` owns the update and the blow-up policy.
Steering integrates nothing: :mod:`ctrlflow.interpolants` takes its exact
flows in closed form.  A whole batch of trajectories advances at once
(states are (n, d) arrays), which keeps per-sample arithmetic identical to
the single-trajectory path while avoiding Python-level loops over samples.
Trajectories that leave the finite regime (or exceed the blow-up threshold)
are frozen at their last good state and flagged, so one bad sample cannot
poison a batch.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import BlowUpError, ConfigurationError

DEFAULT_BLOWUP = 1.0e6


def uniform_grid(T: float, n_steps: int) -> np.ndarray:
    """Time grid with ``n_steps`` RK4 steps on [0, T] (n_steps + 1 nodes)."""
    if n_steps < 1:
        raise ConfigurationError(f"n_steps must be >= 1, got {n_steps}")
    if not np.isfinite(T) or T <= 0:
        raise ConfigurationError(f"horizon must be positive and finite, got {T}")
    return np.linspace(0.0, float(T), int(n_steps) + 1)


def pl_stage_values(samples: np.ndarray) -> np.ndarray:
    """Node samples (..., K+1, m) -> stage values (..., 2K+1, m).

    Midpoints are the piecewise-linear interpolants, i.e. neighbour averages.
    """
    samples = np.asarray(samples, dtype=float)
    K = samples.shape[-2] - 1
    out = np.empty(samples.shape[:-2] + (2 * K + 1, samples.shape[-1]))
    out[..., 0::2, :] = samples
    out[..., 1::2, :] = 0.5 * (samples[..., :-1, :] + samples[..., 1:, :])
    return out


def _check_blowup(x: np.ndarray, threshold: float) -> np.ndarray:
    """Rows of (n, d) that are non-finite or larger than the threshold."""
    size = np.abs(x).max(axis=-1)
    # one reduction: a NaN row fails the comparison, an inf row is caught
    # even when the threshold itself is inf
    return ~(size <= threshold) | (size == np.inf)


def rk4(
    field: Callable[[int, int, float, np.ndarray], np.ndarray],
    x0: np.ndarray,
    t_grid: np.ndarray,
    blowup: float | None = DEFAULT_BLOWUP,
) -> tuple[np.ndarray, np.ndarray]:
    """Integrate ``x' = field(k, stage, t, x)`` for a batch of initial states.

    Parameters
    ----------
    field : callable mapping (step index k, RK4 stage 0..3, t, states (n, d))
        to derivatives (n, d).  Stage 0 is evaluated at the node t_k with
        the node states, stages 1 and 2 at the midpoint, stage 3 at t_{k+1}.
    x0 : (n, d) initial states.
    t_grid : (K + 1,) strictly increasing times.
    blowup : freeze trajectories whose sup-norm exceeds this; None keeps
        only the non-finite check.

    Returns
    -------
    states : (n, K + 1, d) array; frozen rows repeat their last good state.
    bad_time : (n,) array, NaN for clean rows, else the first bad node time.
    """
    x0 = np.atleast_2d(np.asarray(x0, dtype=float))
    t_grid = np.asarray(t_grid, dtype=float)
    threshold = np.inf if blowup is None else blowup
    n, d = x0.shape
    K = len(t_grid) - 1
    states = np.empty((n, K + 1, d))
    states[:, 0] = x0
    bad_time = np.full(n, np.nan)
    active = ~_check_blowup(x0, threshold)
    bad_time[~active] = t_grid[0]
    x = x0.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(K):
            t, t1 = t_grid[k], t_grid[k + 1]
            h = t1 - t
            k1 = field(k, 0, t, x)
            k2 = field(k, 1, t + 0.5 * h, x + 0.5 * h * k1)
            k3 = field(k, 2, t + 0.5 * h, x + 0.5 * h * k2)
            k4 = field(k, 3, t1, x + h * k3)
            x_new = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            newly_bad = active & _check_blowup(x_new, threshold)
            bad_time[newly_bad] = t1
            active &= ~newly_bad
            x = np.where(active[:, None], x_new, x)
            states[:, k + 1] = x
    return states, bad_time


# u_stages index offset of each RK4 stage within step k (2k + offset)
_STAGE_OFFSET = (0, 1, 1, 2)


def rk4_stage_controls(
    rhs: Callable[[np.ndarray, np.ndarray], np.ndarray],
    x0: np.ndarray,
    t_grid: np.ndarray,
    u_stages: np.ndarray,
    blowup: float | None = DEFAULT_BLOWUP,
) -> tuple[np.ndarray, np.ndarray]:
    """Integrate ``x' = rhs(x, u(t))`` with control values given per RK4 stage.

    ``u_stages`` has shape (n, 2K + 1, m): even indices are the node values,
    odd indices the midpoint values.
    """
    u_stages = np.asarray(u_stages, dtype=float)
    K = len(t_grid) - 1
    if u_stages.shape[1] != 2 * K + 1:
        raise ConfigurationError(
            f"u_stages has {u_stages.shape[1]} stages, expected {2 * K + 1}"
        )

    def field(k, stage, t, x):
        return rhs(x, u_stages[:, 2 * k + _STAGE_OFFSET[stage]])

    return rk4(field, x0, t_grid, blowup)


def raise_on_blowup(bad_time: np.ndarray) -> None:
    """Raise :class:`BlowUpError` for the first flagged trajectory, if any."""
    bad = np.where(np.isfinite(bad_time))[0]
    if len(bad):
        raise BlowUpError(float(bad_time[bad[0]]))

