"""Noising dynamics: extremal flows and randomized controls, run backward.

To stabilize onto a target set, trajectories are generated FROM the target
by integrating the time-reversed dynamics omega' = -f(omega, u) driven
either by extremal controls of the reversed optimal control problem (kind
``pmp``, :func:`pmp_extremal_batch`, whose Hamiltonian conservation
:func:`hamiltonian_drift` measures per extremal) or by Brownian control
paths (kind ``randomized``: :func:`sample_brownian_control` arrays driving
:func:`endpoint_map_batch`).  Either run is one
:class:`~ctrlflow.trajectory.PairEnsemble`; :func:`generate_noising_dataset`
drops its blown-up rows, flattens the rest at the dataset's time samples
(:func:`~ctrlflow.trajectory.grid_nodes`, as
:func:`ctrlflow.regression.dataset_from_pairs` does) and re-times each
(t, X_t, U_t) triple as (T - t, X_t, U_t).  That re-timing is the time
reversal: x(s) = omega(T - s) solves x' = f(x, u(T - s)), so the re-timed
rows are forward trajectories of +f, from the noised cloud onto the target
set, under the same controls.  The law fitted on them is rolled forward
like any other (:mod:`ctrlflow.flow`), and it carries mass onto the target
set.

The per-node arrays of an extremal run (its controls and Hamiltonians) are
built one row tile (:func:`~ctrlflow.linalg.row_tiles`) at a time, a
randomized run's RK4 reads its Brownian node controls as they are
(:func:`~ctrlflow.ode.rk4_node_controls` forms each step's midpoint), and
the dataset copies only the kept rows at its time samples, so no temporary
of the ensemble's size is made.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import ConfigurationError
from .ode import DEFAULT_BLOWUP, rk4, rk4_node_controls, uniform_grid
from .linalg import row_tiles
from .regression import RegressionDataset
from .seeding import derived_seed, generator_from_seed, substream
from .systems import ControlAffineSystem
from .trajectory import PairEnsemble, grid_nodes


@dataclass(frozen=True)
class QuadraticCost:
    """Running cost L(x, u) = theta * |u|^2."""

    theta: float = 1.0

    def __post_init__(self):
        if not np.isfinite(self.theta) or self.theta <= 0.0:
            raise ConfigurationError(f"theta must be positive, got {self.theta}")

    def value(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        return self.theta * np.sum(u**2, axis=-1)


def pmp_optimal_control(
    sys: ControlAffineSystem, cost: QuadraticCost, x: np.ndarray, p: np.ndarray
) -> np.ndarray:
    """Minimizing control alpha_i = <p, f_i(x)> / (2 theta).

    This is the argmin over u of -<p, f(x, u)> + L(x, u) for the quadratic
    cost; batched over (n, d) states/costates.
    """
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    single = x.ndim == 1
    xb = x[None, :] if single else x
    pb = p[None, :] if single else p
    G = sys.G(xb)
    alpha = np.einsum("ndm,nd->nm", G, pb) / (2.0 * cost.theta)
    return alpha[0] if single else alpha


def hamiltonian(
    sys: ControlAffineSystem, cost: QuadraticCost, omega: np.ndarray, p: np.ndarray
) -> np.ndarray:
    """H(omega, p) = -<p, f(omega, alpha)> + L(alpha) at the minimizing alpha."""
    omega = np.asarray(omega, dtype=float)
    p = np.asarray(p, dtype=float)
    single = omega.ndim == 1
    wb = omega[None, :] if single else omega
    pb = p[None, :] if single else p
    alpha = pmp_optimal_control(sys, cost, wb, pb)
    f = sys.rhs(wb, alpha)
    H = -np.einsum("nd,nd->n", pb, f) + cost.value(alpha)
    return float(H[0]) if single else H


def _pmp_field(sys, cost):
    d = sys.d

    def fld(k, stage, t, Y):
        w = Y[:, :d]
        p = Y[:, d:]
        G = sys.G(w)
        alpha = np.einsum("ndm,nd->nm", G, p) / (2.0 * cost.theta)
        f = sys.f0(w) + np.einsum("ndm,nm->nd", G, alpha)
        Jf = sys.rhs_jac_x(w, alpha)
        # L = theta |u|^2 has no state dependence, so p' has no cost term
        pdot = np.einsum("nij,ni->nj", Jf, p)
        return np.hstack([-f, pdot])

    return fld


def _node_tiles(sys: ControlAffineSystem, states: np.ndarray) -> list[slice]:
    """Row tiles of (n, K+1, d) states for per-node work on ``sys``.

    A tile's nodes hold G, f0 and f, d (m + 2) entries each, in about
    ``TILE_ENTRIES``.
    """
    return row_tiles(len(states), states.shape[1] * sys.d * (sys.m + 2))


def pmp_extremal_batch(
    sys: ControlAffineSystem,
    cost: QuadraticCost,
    x0s: np.ndarray,
    p0s: np.ndarray,
    T: float,
    n_grid: int,
    blowup: float | None = DEFAULT_BLOWUP,
) -> tuple[PairEnsemble, np.ndarray, np.ndarray]:
    """Batched extremal flow of the time-reversed system.

    Integrates omega' = -f(omega, alpha), p' = (D_x f)' p with alpha the
    minimizing control (the quadratic cost has no state gradient).
    Returns (ensemble of states and controls, costates (n, K+1, d),
    bad_time (n,)); blown-up rows are frozen and flagged in ``bad_time``.
    """
    x0s = np.atleast_2d(np.asarray(x0s, dtype=float))
    p0s = np.atleast_2d(np.asarray(p0s, dtype=float))
    if x0s.shape != p0s.shape or x0s.shape[1] != sys.d:
        raise ConfigurationError(
            f"x0s and p0s must both be (n, {sys.d}), got {x0s.shape} and {p0s.shape}"
        )
    t_grid = uniform_grid(T, n_grid)
    Y0 = np.hstack([x0s, p0s])
    traj, bad_time = rk4(_pmp_field(sys, cost), Y0, t_grid, blowup)
    states = traj[:, :, : sys.d]
    costates = traj[:, :, sys.d :]
    controls = np.empty(states.shape[:2] + (sys.m,))
    for rows in _node_tiles(sys, states):
        w, p = states[rows].reshape(-1, sys.d), costates[rows].reshape(-1, sys.d)
        controls[rows] = pmp_optimal_control(sys, cost, w, p).reshape(-1, len(t_grid), sys.m)
    return PairEnsemble(t_grid, states, controls), costates, bad_time


def hamiltonian_drift(
    sys: ControlAffineSystem,
    cost: QuadraticCost,
    states: np.ndarray,
    costates: np.ndarray,
) -> np.ndarray:
    """max_t |H(t) - H(0)| / (1 + |H(0)|) per extremal, shape (n,).

    ``states`` and ``costates`` are (n, K+1, d), as from
    :func:`pmp_extremal_batch`; H is evaluated one row tile at a time.
    """
    drift = np.empty(len(states))
    for rows in _node_tiles(sys, states):
        w, p = states[rows].reshape(-1, sys.d), costates[rows].reshape(-1, sys.d)
        H = hamiltonian(sys, cost, w, p).reshape(-1, states.shape[1])
        drift[rows] = np.abs(H - H[:, :1]).max(axis=1) / (1.0 + np.abs(H[:, 0]))
    return drift


def endpoint_map_batch(
    sys: ControlAffineSystem,
    x0s: np.ndarray,
    t_grid: np.ndarray,
    u_samples: np.ndarray,
    blowup: float | None = DEFAULT_BLOWUP,
) -> tuple[np.ndarray, np.ndarray]:
    """Integrate the noising dynamics omega' = -f(omega, u(t)) for a batch
    of control sample paths.

    ``u_samples`` is (n, K+1, m), one path per row of the (n, d) starts
    ``x0s``, interpreted piecewise-linearly
    (:func:`~ctrlflow.ode.rk4_node_controls`).  Returns (states, bad_time).
    """

    def rhs(x, u):
        return -sys.rhs(x, u)

    return rk4_node_controls(rhs, x0s, t_grid, u_samples, blowup)


def sample_brownian_control(
    m: int, T: float, n_grid: int, sigma: float, seed: int
) -> np.ndarray:
    """Brownian path B with B(0) = 0 and increments N(0, sigma^2 dt).

    Returns the (n_grid+1, m) path values at the nodes of
    ``uniform_grid(T, n_grid)``.

    The generator is counter-based and keyed by the seed, so equal seeds
    give bit-identical paths and distinct seeds give independent paths.
    """
    if sigma < 0.0:
        raise ConfigurationError(f"sigma must be nonnegative, got {sigma}")
    t_grid = uniform_grid(T, n_grid)
    values = np.zeros((n_grid + 1, m))
    if sigma > 0.0:
        rng = generator_from_seed(seed)
        dt = np.diff(t_grid)
        incs = rng.standard_normal((n_grid, m)) * (sigma * np.sqrt(dt))[:, None]
        values[1:] = np.cumsum(incs, axis=0)
    return values


# ---------------------------------------------------------------------------
# dataset generation


@dataclass(frozen=True)
class NoisingConfig:
    """Parameters of a noising run; see :func:`generate_noising_dataset`."""

    kind: str  # "pmp" | "randomized"
    T: float
    n_grid: int
    n_samples: int
    n_time_samples: int = 25
    theta: float = 1.0
    sigma: float = 1.0
    p_scale: float = 1.0
    blowup: float = DEFAULT_BLOWUP
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("pmp", "randomized"):
            raise ConfigurationError(f"unknown noising kind '{self.kind}'")
        if self.n_samples < 1:
            raise ConfigurationError("n_samples must be >= 1")
        if not 2 <= self.n_time_samples:
            raise ConfigurationError("n_time_samples must be >= 2")


@dataclass
class NoisingReport:
    """Bookkeeping from a noising run."""

    n_requested: int
    n_kept: int
    excluded: list = field(default_factory=list)  # (sample index, first bad time)
    warnings: list = field(default_factory=list)
    hamiltonian_drift_max: Optional[float] = None
    endpoints: Optional[np.ndarray] = None

    @property
    def excluded_count(self) -> int:
        return len(self.excluded)


def generate_noising_dataset(
    sys: ControlAffineSystem,
    config: NoisingConfig,
    mu0_sampler: Callable[[int, int], np.ndarray],
    p_sampler: Callable[[int, int], np.ndarray] | None = None,
):
    """Noising trajectories from the target measure, re-timed for regression.

    ``mu0_sampler(n, seed)`` draws starting states on the target set.  For
    kind ``pmp``, initial costates come from ``p_sampler`` (default
    N(0, p_scale^2 I)); for kind ``randomized``, each sample gets an
    independent Brownian control path with the configured sigma.  Blown-up
    trajectories are dropped and reported with a warning entry.

    Returns ``(dataset, report)`` where dataset flattens the kept rows at
    the nodes :func:`ctrlflow.regression.dataset_from_pairs` would keep,
    tagged by their sample index, with each noising time t replaced
    by the rollout time T - t (see the module docstring).  The report's
    ``endpoints`` are the noised states omega(T), where rollouts start.
    """
    n = config.n_samples
    x0s = np.asarray(mu0_sampler(n, derived_seed(config.seed, "noising", "x0")))
    x0s = np.atleast_2d(x0s.astype(float))
    if x0s.shape != (n, sys.d):
        raise ConfigurationError(
            f"mu0_sampler returned shape {x0s.shape}, expected ({n}, {sys.d})"
        )

    if config.kind == "pmp":
        if p_sampler is None:
            rng = substream(config.seed, "noising", "p0")
            p0s = config.p_scale * rng.standard_normal((n, sys.d))
        else:
            p0s = np.atleast_2d(
                np.asarray(p_sampler(n, derived_seed(config.seed, "noising", "p0")), dtype=float)
            )
        cost = QuadraticCost(theta=config.theta)
        ens, costates, bad = pmp_extremal_batch(
            sys, cost, x0s, p0s, config.T, config.n_grid, config.blowup
        )
        keep = ~np.isfinite(bad)
        drift = None
        if keep.any():
            drift = float(hamiltonian_drift(sys, cost, ens.states, costates)[keep].max())
    else:
        # independent Brownian path per sample, stream keyed by sample index
        t_grid = uniform_grid(config.T, config.n_grid)
        u_all = np.zeros((n, config.n_grid + 1, sys.m))
        for i in range(n):
            u_all[i] = sample_brownian_control(
                sys.m, config.T, config.n_grid, config.sigma,
                derived_seed(config.seed, "noising", "brownian", i),
            )
        states, bad = endpoint_map_batch(sys, x0s, t_grid, u_all, blowup=config.blowup)
        ens = PairEnsemble(t_grid, states, u_all)
        keep = ~np.isfinite(bad)
        drift = None

    report = NoisingReport(n_requested=n, n_kept=int(keep.sum()))
    for i in np.where(~keep)[0]:
        report.excluded.append((int(i), float(bad[i])))
    if report.excluded:
        report.warnings.append(
            f"excluded {report.excluded_count} blown-up trajectories "
            f"out of {n}"
        )
    report.hamiltonian_drift_max = drift
    if report.n_kept == 0:
        raise ConfigurationError("all noising trajectories blew up; nothing to fit")
    kept = np.where(keep)[0]
    report.endpoints = ens.states[kept, -1]
    # the kept rows at the dataset's time samples only
    nodes = grid_nodes(config.n_grid, config.n_time_samples)
    picked = np.ix_(kept, nodes)
    sampled = PairEnsemble(ens.t_grid[nodes], ens.states[picked], ens.controls[picked])
    ids, t, x, u = sampled.rows(traj_id=kept)
    return RegressionDataset(t=config.T - t, x=x, u=u, traj_id=ids), report
