"""Closed-loop integration of learned feedback laws and marginal extraction.

:func:`integrate_closed_loop_batch` integrates z' = f(z, u(t, z)) from
t = 0 to T, reproducing the training-time flow.  Every experiment kind
rolls out this way: a stabilizing law is fitted on noising rows that
:func:`ctrlflow.noising.generate_noising_dataset` has already re-timed into
forward trajectories of +f, so its closed loop needs no reversal.

The rollout is a field callback for :func:`ctrlflow.ode.rk4`, which owns
the step loop and the blow-up policy; the callback queries the law at each
RK4 stage and keeps the node controls and extrapolation flags.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigurationError
from .measures import EmpiricalMeasure
from .ode import DEFAULT_BLOWUP, rk4, uniform_grid
from .regression import FeedbackLaw
from .systems import ControlAffineSystem


@dataclass
class FlowInfo:
    """Diagnostics from a closed-loop integration batch."""

    bad_time: np.ndarray
    extrapolation_count: int = 0

    @property
    def excluded(self) -> np.ndarray:
        return np.where(np.isfinite(self.bad_time))[0]

    @property
    def excluded_count(self) -> int:
        return int(np.isfinite(self.bad_time).sum())


def _coerce_u(u, n: int) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    if u.ndim == 1:
        u = u[None, :]
    if u.shape[0] == 1 and n > 1:
        u = np.broadcast_to(u, (n, u.shape[1]))
    return u


def integrate_closed_loop_batch(
    sys: ControlAffineSystem,
    law: FeedbackLaw | Callable[[float, np.ndarray], np.ndarray],
    z0s: np.ndarray,
    T: float,
    n_grid: int,
    blowup: float | None = DEFAULT_BLOWUP,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, FlowInfo]:
    """RK4 closed-loop rollout for a batch of starts.

    The law is queried at every RK4 stage with the stage time.  ``law`` may
    also be any batch-aware callable (t, states (n, d)) -> controls (n, m),
    useful for synthetic checks.

    Returns (t_grid, states (n, K+1, d), controls (n, K+1, m), info) where
    controls are the commanded values at the grid nodes.  Extrapolation
    flags are counted once per (trajectory, node) for live trajectories.
    Blown-up trajectories freeze at their last good state and are flagged
    in ``info.bad_time``.
    """
    z0s = np.atleast_2d(np.asarray(z0s, dtype=float))
    if z0s.shape[1] != sys.d:
        raise ConfigurationError(f"starts have dimension {z0s.shape[1]}, expected {sys.d}")
    t_grid = uniform_grid(T, n_grid)
    n = z0s.shape[0]
    is_law = isinstance(law, FeedbackLaw)
    controls = None
    flags = np.zeros((n, n_grid + 1), dtype=bool)

    def query(t: float, x: np.ndarray, node: int | None):
        # node controls (and extrapolation flags) are kept; stage queries are not
        nonlocal controls
        if is_law:
            u, node_flags = law.predict(t, x, return_flag=True)
        else:
            u, node_flags = law(t, x), None
        u = _coerce_u(u, n)
        if node is not None:
            if controls is None:
                controls = np.empty((n, n_grid + 1, u.shape[1]))
            controls[:, node] = u
            if node_flags is not None:
                flags[:, node] = node_flags
        return u

    def field(k, stage, t, x):
        return sys.rhs(x, query(t, x, k if stage == 0 else None))

    states, bad_time = rk4(field, z0s, t_grid, blowup)
    with np.errstate(over="ignore", invalid="ignore"):
        query(t_grid[-1], states[:, -1], n_grid)
    # a row is live at a node until the node time reaches its first bad time
    live = ~(bad_time[:, None] <= t_grid[None, :])
    info = FlowInfo(bad_time=bad_time, extrapolation_count=int(np.count_nonzero(flags & live)))
    return t_grid, states, controls, info


def snapshots_from_arrays(
    t_grid: np.ndarray, states: np.ndarray, times
) -> list[EmpiricalMeasure]:
    """Marginal point clouds of (n, K+1, d) states at the requested times.

    Interpolates linearly with the arithmetic of :func:`numpy.interp`
    (node values at node times, else slope times offset plus the left
    node), so each coordinate equals ``np.interp`` on that trajectory.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    out = []
    for t in np.atleast_1d(np.asarray(times, dtype=float)):
        if t < t_grid[0] - 1e-12 or t > t_grid[-1] + 1e-12:
            raise ConfigurationError(
                f"snapshot time {t} outside [{t_grid[0]}, {t_grid[-1]}]"
            )
        t = float(np.clip(t, t_grid[0], t_grid[-1]))
        k = int(np.searchsorted(t_grid, t, side="right") - 1)
        if t == t_grid[k]:
            pts = states[:, k].copy()
        else:
            slope = (states[:, k + 1] - states[:, k]) / (t_grid[k + 1] - t_grid[k])
            pts = slope * (t - t_grid[k]) + states[:, k]
        out.append(EmpiricalMeasure(points=pts))
    return out
