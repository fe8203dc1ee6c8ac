"""Trajectory/control ensembles on one shared time grid, and the run-directory tables.

A :class:`PairEnsemble` holds n trajectory/control pairs as ``(n, K+1, .)``
arrays on one ``(K+1,)`` grid: the unit that the steering constructions and
noising runs produce and that the feedback regression consumes.  Its
consistency checks run once per ensemble.

Every CSV of a run directory is written by :func:`write_table` and read by
:func:`read_table`: a header row, then comma-separated ``%.17g`` values (id
columns ``%d``), so floats read back bit for bit; lines end in ``\\r\\n``.
Rows are stacked, formatted and written a block of ``WRITE_BLOCK_ROWS`` at
a time, so no whole-table text (nor trajectory-table array) is ever held.

The trajectory table is the one layout of (trajectory, t, x, u) rows:
columns ``traj_id, t, x_1..x_d, u_1..u_m``, the rows of one trajectory
consecutive, zero rows allowed.  A run's regression dataset, saved rollouts
and saved steering pairs are such tables, written by
:func:`write_trajectories` and read by :func:`read_trajectories`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigurationError

WRITE_BLOCK_ROWS = 1024


@dataclass(frozen=True)
class PairEnsemble:
    """n state trajectories with the open-loop controls that generated them.

    ``states[i, k]`` and ``controls[i, k]`` belong to row i at ``t_grid[k]``;
    between grid points the control is understood as the piecewise-linear
    interpolant.  ``meta`` maps a name to an (n,) array of per-row
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
        if x.ndim != 3 or u.ndim != 3:
            raise ConfigurationError("states and controls must be (n, K+1, .) arrays")
        if x.shape[1] != len(t) or u.shape[:2] != x.shape[:2]:
            raise ConfigurationError(
                f"grid has {len(t)} nodes but states/controls have shapes "
                f"{x.shape}/{u.shape}"
            )
        meta = {k: np.asarray(v) for k, v in self.meta.items()}
        for k, v in meta.items():
            if v.shape != (len(x),):
                raise ConfigurationError(f"meta '{k}' has shape {v.shape}, expected ({len(x)},)")
        object.__setattr__(self, "t_grid", t)
        object.__setattr__(self, "states", x)
        object.__setattr__(self, "controls", u)
        object.__setattr__(self, "meta", meta)

    @property
    def n(self) -> int:
        return self.states.shape[0]

    @property
    def d(self) -> int:
        return self.states.shape[2]

    @property
    def m(self) -> int:
        return self.controls.shape[2]

    @property
    def horizon(self) -> float:
        return float(self.t_grid[-1] - self.t_grid[0])

    def select(self, rows) -> "PairEnsemble":
        """The ensemble of the given rows (index array, boolean mask or slice)."""
        meta = {k: v[rows] for k, v in self.meta.items()}
        return PairEnsemble(self.t_grid, self.states[rows], self.controls[rows], meta)

    def rows(self, nodes=slice(None), traj_id=None):
        """Trajectory-table rows ``(traj_id, t, x, u)`` at the grid ``nodes``.

        Row by row, in grid order; row i is tagged ``traj_id[i]`` (default i).
        """
        t = self.t_grid[nodes]
        ids = np.arange(self.n) if traj_id is None else np.asarray(traj_id)
        return (
            np.repeat(ids, len(t)),
            np.tile(t, self.n),
            self.states[:, nodes].reshape(-1, self.d),
            self.controls[:, nodes].reshape(-1, self.m),
        )


def grid_nodes(K: int, n: int) -> np.ndarray:
    """Indices of the nodes of a ``(K+1,)`` grid nearest n evenly spaced times.

    Rounded half to even, duplicates dropped: strictly increasing, from 0 to K.
    """
    return np.unique(np.round(np.linspace(0, K, n)).astype(int))


def columns(prefix: str, n: int) -> list[str]:
    """Column names ``prefix_1 .. prefix_n``."""
    return [f"{prefix}_{j + 1}" for j in range(n)]


def _write_rows(path: str | Path, header: list[str], int_cols: int, n_rows: int, block) -> None:
    # block(rows) stacks the table rows of a slice; one % of the row format
    # repeated over its flattened values writes the same bytes as one
    # ``fmt % tuple(row)`` per row, without a tuple per row
    fmt = ",".join(["%d"] * int_cols + ["%.17g"] * (len(header) - int_cols)) + "\r\n"
    with Path(path).open("w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for lo in range(0, n_rows, WRITE_BLOCK_ROWS):
            rows = block(slice(lo, lo + WRITE_BLOCK_ROWS))
            fh.write((fmt * len(rows)) % tuple(rows.ravel().tolist()))


def write_table(path: str | Path, header: list[str], table, int_cols: int = 0) -> None:
    """Write ``table`` (rows x len(header)) in the run-directory CSV format.

    The first ``int_cols`` columns are integer ids written as ``%d``.
    """
    table = np.asarray(table, dtype=float).reshape(len(table), len(header))
    _write_rows(path, header, int_cols, len(table), lambda s: table[s])


def read_table(path: str | Path) -> tuple[list[str], np.ndarray]:
    """Inverse of :func:`write_table`: the header and a (rows, columns) array.

    A header-only file reads as a ``(0, len(header))`` array.
    """
    header, *lines = Path(path).read_text().splitlines()
    header = header.split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines]
    return header, np.array(rows, dtype=float).reshape(len(rows), len(header))


def write_trajectories(path: str | Path, traj_id, t, x, u) -> None:
    """Write the trajectory table of rows ``(traj_id[r], t[r], x[r], u[r])``.

    ``traj_id`` and ``t`` are (rows,) arrays, ``x`` (rows, d) and ``u``
    (rows, m); zero rows write the header alone.
    """
    header = ["traj_id", "t", *columns("x", x.shape[1]), *columns("u", u.shape[1])]
    _write_rows(path, header, 1, len(t), lambda s: np.column_stack([traj_id[s], t[s], x[s], u[s]]))


def read_trajectories(path: str | Path):
    """Inverse of :func:`write_trajectories`: ``(traj_id, t, x, u)`` arrays."""
    header, table = read_table(path)
    d = sum(1 for h in header if h.startswith("x_"))
    return table[:, 0].astype(int), table[:, 1], table[:, 2 : 2 + d], table[:, 2 + d :]
