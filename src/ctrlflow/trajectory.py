"""Trajectory/control ensembles on one shared time grid, and the one CSV table format.

A :class:`PairEnsemble` holds n trajectory/control pairs as ``(n, K+1, .)``
arrays on one ``(K+1,)`` grid: the unit that the steering constructions and
noising runs produce and that the feedback regression consumes.  Its
consistency checks run once per ensemble.

Every CSV of a run directory is written by :func:`write_table` and read by
:func:`read_table`: a header row, then comma-separated ``%.17g`` values (id
columns ``%d``), so floats read back bit for bit; lines end in ``\\r\\n``.
:func:`save_pair_bundle` writes one such CSV per ensemble row plus an index.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigurationError
from .ode import integrate_samples, pl_stage_values, rk4_stage_controls

WRITE_BLOCK_ROWS = 1024


@dataclass(frozen=True)
class PairEnsemble:
    """n state trajectories with the open-loop controls that generated them.

    ``states[i, k]`` and ``controls[i, k]`` belong to row i at ``t_grid[k]``;
    between grid points the control is understood as the piecewise-linear
    interpolant.  ``meta`` maps a name to an (n,) array of per-row
    construction diagnostics such as endpoint errors; a scalar value is
    shared by every row.
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
            if v.ndim and v.shape != (len(x),):
                raise ConfigurationError(
                    f"meta '{k}' has shape {v.shape}, expected ({len(x)},) or a scalar"
                )
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
        meta = {k: v[rows] if v.ndim else v for k, v in self.meta.items()}
        return PairEnsemble(self.t_grid, self.states[rows], self.controls[rows], meta)

    def control_energy(self) -> np.ndarray:
        """(n,) integrals of |u(t)|^2 over the horizon (Simpson on the grid)."""
        return integrate_samples(np.sum(self.controls**2, axis=2), self.t_grid)

    def residual_error(self, sys) -> np.ndarray:
        """(n,) consistency of each row with the dynamics.

        Re-integrates the stored controls (piecewise-linear convention)
        from ``states[:, 0]`` with RK4 on the same grid and returns each
        row's max state deviation relative to its trajectory scale.
        """
        states, _ = rk4_stage_controls(
            sys.rhs, self.states[:, 0], self.t_grid, pl_stage_values(self.controls),
            blowup=None,
        )
        dev = np.abs(states - self.states).max(axis=(1, 2))
        return dev / (1.0 + np.abs(self.states).max(axis=(1, 2)))


def columns(prefix: str, n: int) -> list[str]:
    """Column names ``prefix_1 .. prefix_n``."""
    return [f"{prefix}_{j + 1}" for j in range(n)]


def write_table(path: str | Path, header: list[str], table, int_cols: int = 0) -> None:
    """Write ``table`` (rows x len(header)) in the run-directory CSV format.

    The first ``int_cols`` columns are integer ids written as ``%d``.  Rows
    are formatted a block of ``WRITE_BLOCK_ROWS`` at a time, by one ``%``
    of the row format repeated over the block's flattened values: the same
    bytes as one ``fmt % tuple(row)`` per row, without a tuple per row, and
    with the flat tuple's temporary memory bounded by the block.
    """
    table = np.asarray(table, dtype=float).reshape(len(table), len(header))
    fmt = ",".join(["%d"] * int_cols + ["%.17g"] * (len(header) - int_cols)) + "\r\n"
    parts = [",".join(header) + "\r\n"]
    for lo in range(0, len(table), WRITE_BLOCK_ROWS):
        block = table[lo : lo + WRITE_BLOCK_ROWS]
        parts.append((fmt * len(block)) % tuple(block.ravel().tolist()))
    Path(path).write_text("".join(parts), newline="")


def read_table(path: str | Path) -> tuple[list[str], np.ndarray]:
    """Inverse of :func:`write_table`: the header and a (rows, columns) array.

    A header-only file reads as a ``(0, len(header))`` array.
    """
    header, *lines = Path(path).read_text().splitlines()
    header = header.split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines]
    return header, np.array(rows, dtype=float).reshape(len(rows), len(header))


def load_pair_csv(path: str | Path) -> PairEnsemble:
    """One CSV of :func:`save_pair_bundle` as a one-row ensemble (meta is not kept).

    A header-only file raises :class:`ConfigurationError`.
    """
    header, table = read_table(path)
    d = sum(1 for h in header if h.startswith("x_"))
    m = sum(1 for h in header if h.startswith("u_"))
    return PairEnsemble(table[:, 0], table[None, :, 1 : 1 + d], table[None, :, 1 + d : 1 + d + m])


def save_pair_bundle(ens: PairEnsemble, directory: str | Path, prefix: str) -> list[str]:
    """One CSV (columns t, x_1..x_d, u_1..u_m) per row plus ``<prefix>_index.json``.

    The index holds the row count and, per row, its file and meta values.
    Returns the list of written file names (relative to ``directory``).
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    header = ["t", *columns("x", ens.d), *columns("u", ens.m)]
    meta = {k: np.broadcast_to(v, (ens.n,)) for k, v in ens.meta.items()}
    written = []
    entries = []
    for i in range(ens.n):
        fname = f"{prefix}_{i:04d}.csv"
        write_table(
            directory / fname, header, np.column_stack([ens.t_grid, ens.states[i], ens.controls[i]])
        )
        written.append(fname)
        entries.append({"file": fname, **{k: v[i].item() for k, v in meta.items()}})
    index = {"count": ens.n, "pairs": entries}
    index_name = f"{prefix}_index.json"
    with (directory / index_name).open("w") as fh:
        json.dump(index, fh, indent=2, sort_keys=True)
    written.append(index_name)
    return written
