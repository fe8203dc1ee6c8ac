"""Trajectory/control pairs on a shared time grid, and the one CSV table format.

Every CSV of a run directory is written by :func:`write_table` and read by
:func:`read_table`: a header row, then comma-separated ``%.17g`` values (id
columns ``%d``), so floats read back bit for bit; lines end in ``\\r\\n``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigurationError
from .ode import integrate_samples, pl_stage_values, rk4_stage_controls


@dataclass(frozen=True)
class TrajectoryControlPair:
    """Sampled state trajectory with the open-loop control that generated it.

    ``controls[k]`` is the control at ``t_grid[k]``; between grid points the
    control is understood as the piecewise-linear interpolant.  ``meta`` holds
    construction diagnostics such as endpoint errors.
    """

    t_grid: np.ndarray
    states: np.ndarray
    controls: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        t = np.asarray(self.t_grid, dtype=float)
        x = np.asarray(self.states, dtype=float)
        u = np.asarray(self.controls, dtype=float)
        if t.ndim != 1 or len(t) < 2:
            raise ConfigurationError("t_grid must be 1-D with at least two nodes")
        if np.any(np.diff(t) <= 0.0):
            raise ConfigurationError("t_grid must be strictly increasing")
        if x.ndim != 2 or u.ndim != 2:
            raise ConfigurationError("states and controls must be 2-D arrays")
        if x.shape[0] != len(t) or u.shape[0] != len(t):
            raise ConfigurationError(
                f"grid has {len(t)} nodes but states/controls have "
                f"{x.shape[0]}/{u.shape[0]} rows"
            )
        object.__setattr__(self, "t_grid", t)
        object.__setattr__(self, "states", x)
        object.__setattr__(self, "controls", u)

    @property
    def horizon(self) -> float:
        return float(self.t_grid[-1] - self.t_grid[0])

    @property
    def d(self) -> int:
        return self.states.shape[1]

    @property
    def m(self) -> int:
        return self.controls.shape[1]

    def state_at(self, t: float) -> np.ndarray:
        """Piecewise-linear state interpolant."""
        t = float(np.clip(t, self.t_grid[0], self.t_grid[-1]))
        out = np.empty(self.d)
        for j in range(self.d):
            out[j] = np.interp(t, self.t_grid, self.states[:, j])
        return out

    def control_energy(self) -> float:
        """Integral of |u(t)|^2 over the horizon (Simpson on the grid)."""
        sq = np.sum(self.controls**2, axis=1)
        return float(integrate_samples(sq, self.t_grid))

    def residual_error(self, sys) -> float:
        """Consistency of the pair with the dynamics.

        Re-integrates the stored controls (piecewise-linear convention)
        from ``states[0]`` with RK4 on the same grid and returns the max
        state deviation relative to the trajectory scale.
        """
        u_stages = pl_stage_values(self.controls[None, :, :])
        states, _ = rk4_stage_controls(
            sys.rhs, self.states[None, 0], self.t_grid, u_stages, blowup=None
        )
        dev = np.abs(states[0] - self.states).max()
        scale = 1.0 + np.abs(self.states).max()
        return float(dev / scale)


def columns(prefix: str, n: int) -> list[str]:
    """Column names ``prefix_1 .. prefix_n``."""
    return [f"{prefix}_{j + 1}" for j in range(n)]


def write_table(path: str | Path, header: list[str], table, int_cols: int = 0) -> None:
    """Write ``table`` (rows x len(header)) in the run-directory CSV format.

    The first ``int_cols`` columns are integer ids written as ``%d``.
    """
    table = np.asarray(table, dtype=float).reshape(len(table), len(header))
    fmt = ",".join(["%d"] * int_cols + ["%.17g"] * (len(header) - int_cols)) + "\r\n"
    text = ",".join(header) + "\r\n" + "".join(fmt % tuple(row) for row in table.tolist())
    Path(path).write_text(text, newline="")


def read_table(path: str | Path) -> tuple[list[str], np.ndarray]:
    """Inverse of :func:`write_table`: the header and a (rows, columns) array.

    A header-only file reads as a ``(0, len(header))`` array.
    """
    header, *lines = Path(path).read_text().splitlines()
    header = header.split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines]
    return header, np.array(rows, dtype=float).reshape(len(rows), len(header))


def save_pair_csv(pair: TrajectoryControlPair, path: str | Path) -> None:
    """Write one pair as CSV columns t, x_1..x_d, u_1..u_m."""
    header = ["t", *columns("x", pair.d), *columns("u", pair.m)]
    write_table(path, header, np.column_stack([pair.t_grid, pair.states, pair.controls]))


def load_pair_csv(path: str | Path) -> TrajectoryControlPair:
    """Inverse of :func:`save_pair_csv` (meta is not kept; a header-only file raises)."""
    header, table = read_table(path)
    d = sum(1 for h in header if h.startswith("x_"))
    m = sum(1 for h in header if h.startswith("u_"))
    return TrajectoryControlPair(table[:, 0], table[:, 1 : 1 + d], table[:, 1 + d : 1 + d + m])


def save_pair_bundle(
    pairs: list[TrajectoryControlPair],
    directory: str | Path,
    prefix: str,
) -> list[str]:
    """One CSV per pair plus ``<prefix>_index.json`` (count, file and scalar meta per pair).

    Returns the list of written file names (relative to ``directory``).
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    entries = []
    for i, pair in enumerate(pairs):
        fname = f"{prefix}_{i:04d}.csv"
        save_pair_csv(pair, directory / fname)
        written.append(fname)
        scalars = {k: v for k, v in pair.meta.items() if isinstance(v, (int, float, str, bool))}
        entries.append({"file": fname, **scalars})
    index = {"count": len(pairs), "pairs": entries}
    index_name = f"{prefix}_index.json"
    with (directory / index_name).open("w") as fh:
        json.dump(index, fh, indent=2, sort_keys=True)
    written.append(index_name)
    return written
