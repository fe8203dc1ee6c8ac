"""Feedback-law regression: u(t, x) as a conditional mean of dataset controls.

The training set is a :class:`RegressionDataset` of (t, x, u) rows tagged
by trajectory id, its times in rollout time: a fitted law is queried at
the times of the forward closed loop it drives.  :func:`dataset_from_pairs`
is the one flattening of a trajectory/control ensemble into such rows:
transport runs call it on their steering ensemble, noising runs on their
kept rows before flipping each time t to T - t
(:func:`ctrlflow.noising.generate_noising_dataset`).

Each estimator is a :class:`FeedbackLaw` subclass in ``LAWS``:
:class:`KernelLaw` (Nadaraya-Watson, the default), :class:`KnnLaw` and
:class:`MLPLaw` (a small network trained in-repo).  Queries live in the
scaled feature space z = (time_scale * t, x), so one metric serves both
time and state.

The kernel and knn laws build one k-d tree on z (Friedman, Bentley & Finkel
1977) and take every neighbour question from it: the knn mean, the kernel
law's nearest-row rule (below) and the extrapolation flags that a law's own
pass leaves open.  Neighbour sets break distance ties by the lower
canonical training index, the order of a stable argsort.  The
extrapolation spacing ``ref_nn_dist`` is the median distance from a
training row to its nearest other row, from a k=2 self-query of the same
tree.

A kernel law takes the dense Nadaraya-Watson weights over the training
rows of a time window (below), one row tile
(:func:`ctrlflow.linalg.tile_rows`) at a time.  A tile's
kernel arguments -|q - z|^2/2 of scaled rows q and z are one matrix product
of [q, 1, -|q|^2/2] with the law's cached [z; -|z|^2/2; 1], written as one
contiguous block to the start of a workspace that the law allocates once,
and become weights in place; one product of the block with the cached
[u, 1] gives each row's numerator and denominator.  The largest argument
of a row is -emin/2, where emin is its smallest squared scaled distance;
the row's argmax gives both, and the row of its top weight.  A row with
emin above ``FAR_EMIN`` = 1200 has that maximum subtracted first.

A row tile sums only its time window: one contiguous range of columns
that holds every training row whose time alone can still carry weight for
it.  Let th_j be row j's scaled time and delta_j its distance to the span
of the tile's scaled query times: every argument in column j is at most
-delta_j^2/2.  The tile first writes the core, the columns at the training
times nearest its first and last query times and all columns between.  The
core's smallest row maximum A is at most every row's top argument, so a
column with delta_j^2 > 2(L - A), L = ``WINDOW_MARGIN`` + ln n = 42 + ln n,
weighs below e^-L of its row's top weight, and all such columns together
below e^-42 (about 6e-19) of it, far under a double's rounding.  The tile
then writes the columns [a, b) that 2(L - A), widened by the rounding
slack below, keeps, the core's again among them, as one contiguous block,
and sums those columns alone.  Every later pass over the block (argmax,
exp, the product with [u, 1]) then runs on contiguous memory, which saves
more than the core's second product costs.  A row's nearest training row
carries its top argument, at least A, so it is kept: emin, and with it the
far shift, the degenerate rule and the flags, are exact.  A tile whose
columns all lie within sqrt(2L) of its times could drop none even at a top
argument of 0, and takes one product over every column.  The window needs
the training rows in nondecreasing time order; every fitted law is
(``_canonical_order`` sorts t first), and so every saved one.  A law built
by hand out of that order is checked once and keeps every column; it is
not sorted, since the column order fixes the bits of its sums.  A rollout call queries one t, and the fit loss pass
sends training rows in t order, so a tile's times span few time samples.

Every kernel weight comes from :func:`ctrlflow.linalg.floored_exp`: an
argument below ``EXP_FLOOR`` = -700 is clamped to it, where numpy's exp
would take its slow path for the tiny result, and weighs e^-700.  A row's
top weight is at least e^-600 (1 for a shifted row), so each clamped
weight is below e^-100 of it, and together they move a row's denominator
by at most n e^-100 of its top weight and its numerator by as much times
max |u|, far under a double's rounding; they are not masked to 0.  No row
is floored whole: past ``FAR_EMIN`` its top weight is 1.  A row with emin
above -2 ``EXP_FLOOR`` = 1400 takes the control of its nearest training
row instead of its kernel mean.  That is a policy, not a numerical
necessity: so far from every training row the shifted mean rests on the few rows
nearest in the scaled metric, and on the reduced stabilize_random example
it steered rollouts worse (larger p90 terminal distance, more
extrapolating nodes) than the nearest row's control.

A row is flagged as an extrapolation when its nearest distance in z
exceeds ``EXTRAPOLATION_FACTOR * ref_nn_dist``.  The flag is a diagnostic:
a flagged row keeps the control its law's own mean gave it.  A kernel law
bounds that distance from its own pass.  Each feature is scaled by its own
bandwidth, so the distance is at least h_min sqrt(emin); and it is at most
the z distance to the row of the top weight, the kernel's own nearest row
in the scaled metric.  Each bound is widened by a slack that holds its
rounding and that of the z tree's own distance: several times
eps (|q/h|^2 + max |z/h|^2) inside the lower root, and several eps of the
squared upper distance plus as many of the smallest subnormal, the error
of squares that underflow.  A bracket that lies on one side of the
threshold decides the flag as the z tree would.  Only rows whose bracket
straddles it, or whose bounds are not finite (an overflowing query), ask
the z tree; a row near the training rows has its top row near too, and
asks it nothing.  A knn law's neighbour query returns the nearest
distance itself, a bracket of zero width.

:func:`crossval_loss` selects hyperparameters on trajectory-grouped folds.
:func:`save_dataset` / :func:`load_dataset` write and read a run's
``dataset.csv``: the dataset's rows as a trajectory table of
:mod:`ctrlflow.trajectory` (the table of the run's saved rollouts and
steering pairs too), tagged with their ``traj_id``.  Dataset rows and saved
steering pairs sample a construction grid by one node rule,
:func:`ctrlflow.trajectory.grid_nodes`: the dataset at ``n_time_samples``
times, the saved pairs at the evaluation grid's times.

The mlp law's network runs in float32 (weights, activations and its SGD),
between a float64 standardization of z and u; ``predict`` returns float64
for every law.  A v2 mlp document written with float64 weights loads with
them rounded to float32.

Rows are canonicalized (lexicographically sorted) when a law is fitted,
which makes fitting and prediction invariant to dataset row order and
bit-stable for a fixed seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from numbers import Integral, Real
from pathlib import Path
from typing import Optional, Sequence

import numpy as np
from scipy.spatial import cKDTree

from .errors import (
    ConfigurationError,
    EmptyDatasetError,
    TrainingDivergedError,
)
from .linalg import EXP_FLOOR, floored_exp, row_tiles, tile_rows
from .seeding import substream
from .trajectory import grid_nodes, read_trajectories, write_trajectories

EXTRAPOLATION_FACTOR = 10.0
# entries of a 2-D array that FeedbackLaw.save turns into JSON at once (at
# least one row)
JSON_CHUNK_ENTRIES = 2**10
# a row whose smallest squared scaled distance exceeds this is weighed
# relative to its top weight (see KernelLaw._mean)
FAR_EMIN = 1200.0
# a row tile keeps the training rows whose time alone leaves them within
# e^-(WINDOW_MARGIN + ln n) of the tile's smallest top weight (see
# KernelLaw._tile_args)
WINDOW_MARGIN = 42.0

LAW_FORMAT = "ctrlflow.feedback_law.v2"


@dataclass(frozen=True)
class RegressionDataset:
    """Flattened (t, x, u) triples with trajectory provenance ids."""

    t: np.ndarray
    x: np.ndarray
    u: np.ndarray
    traj_id: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        x = np.atleast_2d(np.asarray(self.x, dtype=float))
        u = np.atleast_2d(np.asarray(self.u, dtype=float))
        ids = np.asarray(self.traj_id, dtype=int)
        n = len(t)
        if n == 0:
            raise EmptyDatasetError("dataset has no rows")
        if x.shape[0] != n or u.shape[0] != n or ids.shape != (n,):
            raise ConfigurationError(
                f"row counts disagree: t {n}, x {x.shape[0]}, u {u.shape[0]}, "
                f"ids {ids.shape}"
            )
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(x)) and np.all(np.isfinite(u))):
            raise ConfigurationError("dataset entries must be finite")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "traj_id", ids)

    @property
    def n(self) -> int:
        return len(self.t)

    @property
    def d(self) -> int:
        return self.x.shape[1]

    @property
    def m(self) -> int:
        return self.u.shape[1]

    def subset(self, mask: np.ndarray) -> "RegressionDataset":
        return RegressionDataset(self.t[mask], self.x[mask], self.u[mask], self.traj_id[mask])


def dataset_from_pairs(ens, n_time_samples: int = 25, traj_id=None) -> RegressionDataset:
    """Flatten a :class:`~ctrlflow.trajectory.PairEnsemble` into (t, x, u) triples.

    Keeps the grid nodes nearest ``n_time_samples`` evenly spaced times
    (:func:`~ctrlflow.trajectory.grid_nodes`) of every row, row by row
    (:meth:`PairEnsemble.rows`).  Row i is tagged ``traj_id[i]`` (default i).
    """
    nodes = grid_nodes(len(ens.t_grid) - 1, n_time_samples)
    ids, t, x, u = ens.rows(nodes, traj_id)
    return RegressionDataset(t=t, x=x, u=u, traj_id=ids)


def _canonical_order(t, x, u):
    keys = [u[:, j] for j in range(u.shape[1] - 1, -1, -1)]
    keys += [x[:, j] for j in range(x.shape[1] - 1, -1, -1)]
    keys += [t]
    return np.lexsort(keys)


def _median_pairwise(z: np.ndarray, rng: np.random.Generator, n_pairs: int = 4096):
    n = z.shape[0]
    if n == 1:
        return np.zeros(z.shape[1])
    i = rng.integers(0, n, size=n_pairs)
    j = rng.integers(0, n, size=n_pairs)
    neq = i != j
    if not neq.any():
        return np.zeros(z.shape[1])
    diffs = np.abs(z[i[neq]] - z[j[neq]])
    return np.median(diffs, axis=0)


def _listed(value):
    """``value`` as JSON would hold it: a numpy array becomes nested lists."""
    return value.tolist() if isinstance(value, np.ndarray) else value


def _check_positive(where: str, key: str, value, kind=Real) -> None:
    """``value`` must be a ``kind`` number (not a bool), positive and finite."""
    if isinstance(value, bool) or not isinstance(value, kind) or not 0 < value < math.inf:
        noun = "integer" if kind is Integral else "finite number"
        raise ConfigurationError(f"'{where}.{key}' must be a positive {noun}, got {value!r}")


class FeedbackLaw:
    """Fitted feedback law u(t, x); query it with :meth:`predict`.

    A subclass supplies ``method``, ``HYPERPARAMS`` (name -> default),
    :meth:`fit`, ``_predict_rows`` and ``_state``, the keyword arguments of
    its constructor that :meth:`from_json_dict` rebuilds it from (numpy
    arrays or JSON values; :meth:`to_json_dict` lists the arrays).
    """

    def __init__(self, time_scale: float, hyperparams: Optional[dict] = None,
                 final_loss: Optional[float] = None):
        self.time_scale = float(time_scale)
        self.hyperparams = dict(hyperparams or {})
        self.final_loss = final_loss

    @classmethod
    def check_hyperparams(cls, hp: dict, where: str = "hyperparams",
                          z_dim: Optional[int] = None) -> None:
        """Reject unknown names and bad values before any compute.

        A value is None where its default is, else positive, finite and of
        its default's kind: int, tuple (a list of ints) or number.
        ``z_dim``, when known, is the length of a per-feature bandwidth.
        """
        unknown = set(hp) - set(cls.HYPERPARAMS)
        if unknown:
            raise ConfigurationError(
                f"unknown key(s) in '{where}': {sorted(unknown)}; "
                f"allowed: {sorted(cls.HYPERPARAMS)}"
            )
        for key, value in hp.items():
            default = cls.HYPERPARAMS[key]
            if isinstance(default, tuple):
                if not isinstance(value, (list, tuple)):
                    raise ConfigurationError(f"'{where}.{key}' must be a list, got {value!r}")
                for entry in value:
                    _check_positive(where, key, entry, Integral)
            elif value is not None or default is not None:
                _check_positive(where, key, value, Integral if isinstance(default, int) else Real)

    def _features(self, t, x: np.ndarray) -> np.ndarray:
        """The feature rows [time_scale * t, x] of float states ``x``."""
        x = np.atleast_2d(x)
        z = np.empty((x.shape[0], x.shape[1] + 1))
        z[:, 0] = t
        z[:, 0] *= self.time_scale
        z[:, 1:] = x
        return z

    def predict(self, t, x: np.ndarray, return_flag: bool = False):
        """Control estimate at query time(s) and state(s).

        Accepts a single state (d,) or a batch (n, d); ``t`` may be a scalar
        or per-row array.  With ``return_flag=True`` also returns a boolean
        extrapolation mask: for kernel and knn laws, queries whose nearest
        training point is more than 10x the in-sample spacing away; mlp
        flags none.  A flag changes no control.
        """
        x = np.asarray(x, dtype=float)
        out, flags = self._predict_rows(self._features(t, x))
        if x.ndim == 1:
            out, flags = out[0], bool(flags[0])
        return (out, flags) if return_flag else out

    def _document(self) -> dict:
        """The law's document, its arrays still numpy arrays."""
        return {
            "format": LAW_FORMAT,
            "method": self.method,
            "time_scale": self.time_scale,
            "hyperparams": self.hyperparams,
            "final_loss": self.final_loss,
            **self._state(),
        }

    def to_json_dict(self) -> dict:
        return {key: _listed(value) for key, value in self._document().items()}

    @classmethod
    def from_json_dict(cls, doc: dict) -> "FeedbackLaw":
        if doc.get("format") != LAW_FORMAT or doc.get("method") not in LAWS:
            raise ConfigurationError("not a feedback-law document")
        state = {k: v for k, v in doc.items() if k not in ("format", "method")}
        return LAWS[doc["method"]](**state)

    def save(self, path) -> None:
        """Write ``json.dumps(self.to_json_dict())`` to ``path``, byte for byte,
        a 2-D array (a neighbour law's rows) ``JSON_CHUNK_ENTRIES`` entries at
        a time: no list or string of a whole array is made.  ``json.dumps``
        runs the C encoder, ``json.dump`` to a file handle the Python one."""
        with Path(path).open("w") as fh:
            sep = "{"
            for key, value in self._document().items():
                fh.write(f"{sep}{json.dumps(key)}: ")
                sep = ", "
                if not (isinstance(value, np.ndarray) and value.ndim == 2 and len(value)):
                    fh.write(json.dumps(_listed(value)))
                    continue
                step = max(1, JSON_CHUNK_ENTRIES // max(1, value.shape[1]))
                for lo in range(0, len(value), step):
                    # the rows of a chunk without the brackets of its outer list
                    fh.write(("[" if lo == 0 else ", ")
                             + json.dumps(value[lo : lo + step].tolist())[1:-1])
                fh.write("]")
            fh.write("}")

    @classmethod
    def load(cls, path) -> "FeedbackLaw":
        with Path(path).open() as fh:
            return cls.from_json_dict(json.load(fh))


class _NeighbourLaw(FeedbackLaw):
    """A law that answers from its training rows z, u through a k-d tree on z.

    A subclass supplies ``_mean(zq) -> (means, nn_lo, nn_hi)`` for finite
    feature rows: the law's mean control of each row, and bounds
    nn_lo <= nn <= nn_hi on the row's nearest distance nn as this tree
    computes it (``inf``/NaN bounds where the subclass cannot bound it).
    A loaded law builds its trees too; ``ref_nn_dist=None`` takes the
    median nearest-row spacing of z.
    """

    def __init__(self, time_scale: float, z, u, ref_nn_dist: Optional[float] = None, **shared):
        super().__init__(time_scale, **shared)
        self._z = np.asarray(z, dtype=float)
        self._u = np.asarray(u, dtype=float)
        self._tree = cKDTree(self._z)
        if ref_nn_dist is None:  # median distance from a row to its nearest other row
            nearest = self._tree.query(self._z, k=2)[0][:, 1] if self.n_train > 1 else 0.0
            ref_nn_dist = np.median(nearest)
        self.ref_nn_dist = float(ref_nn_dist)

    @property
    def m(self) -> int:
        return self._u.shape[1]

    @property
    def n_train(self) -> int:
        return self._z.shape[0]

    def _state(self) -> dict:
        return {"z": self._z, "u": self._u, "ref_nn_dist": self.ref_nn_dist}

    def _neighbour_mean(self, zq: np.ndarray, k: int):
        """Mean control of each row's k nearest training rows in z, and the
        row's nearest distance.

        Among equal distances the lower (canonical) training index comes
        first, the order of a stable argsort.  A tie across the k-th place
        may hide lower indices beyond the tree's answer, so such rows are
        queried again with twice the width until the last distance is larger.
        A row with fewer than k training rows at a finite distance (an
        overflowing query) gets a NaN mean.
        """
        n = self.n_train
        k = min(k, n)
        means = np.full((len(zq), self.m), np.nan)
        nn = np.empty(len(zq))
        rows = np.arange(len(zq))
        width = min(k + 1, n)
        while rows.size:
            dist, idx = self._tree.query(zq[rows], k=width)
            dist = dist.reshape(len(rows), width)
            idx = idx.reshape(len(rows), width)
            reached = dist[:, k - 1] < np.inf
            open_tie = (dist[:, -1] == dist[:, k - 1]) & reached & (width < n)
            done = ~open_tie
            nn[rows[done]] = dist[done, 0]
            found = done & reached
            order = np.lexsort((idx[found], dist[found]))[:, :k]
            nearest = np.take_along_axis(idx[found], order, axis=1)
            means[rows[found]] = self._u[nearest].mean(axis=1)
            rows = rows[open_tie]
            width = min(2 * width, n)
        return means, nn

    def _predict_rows(self, zq: np.ndarray):
        """Means of feature rows from the subclass's ``_mean``, and their
        extrapolation flags.  Rows whose nearest distance is finite neither
        by the bounds nor by the tree (a blown-up rollout stage) get NaN and
        no flag.

        A row is flagged when its nearest distance exceeds the threshold
        ``EXTRAPOLATION_FACTOR * ref_nn_dist``.  ``_mean`` bounds that
        distance for every finite row; only rows whose bounds do not settle
        the threshold, or are not finite, ask the tree.
        """
        threshold = EXTRAPOLATION_FACTOR * max(self.ref_nn_dist, 1.0e-300)
        finite = np.isfinite(zq).all(axis=1)
        every = finite.all()
        zr = zq if every else zq[finite]
        # an overflowing row's arguments and bounds may be inf or NaN
        with np.errstate(over="ignore", invalid="ignore"):
            means, nn_lo, nn_hi = self._mean(zr)
        inside = nn_hi <= threshold
        outside = (nn_lo > threshold) & (nn_hi < np.inf)
        ask = ~(inside | outside)
        if ask.any():
            nn = self._tree.query(zr[ask])[0]
            inside[ask] = nn <= threshold
            outside[ask] = (nn > threshold) & (nn < np.inf)
            means[~(inside | outside)] = np.nan
        if every:
            return means, outside
        out = np.full((len(zq), self.m), np.nan)
        out[finite] = means
        flags = np.zeros(len(zq), dtype=bool)
        flags[finite] = outside
        return out, flags


class KnnLaw(_NeighbourLaw):
    """Mean control of the ``k`` nearest training rows."""

    method = "knn"
    HYPERPARAMS = {"time_scale": None, "k": 8}

    def __init__(self, time_scale: float, z, u, k: int, ref_nn_dist=None, **shared):
        super().__init__(time_scale, z, u, ref_nn_dist, **shared)
        self.k = int(k)

    @classmethod
    def fit(cls, time_scale, z, u, hp, seed):
        return cls(time_scale, z, u, k=int(hp["k"]))

    def _state(self) -> dict:
        return {"k": self.k, **super()._state()}

    def _mean(self, zq: np.ndarray):
        # the neighbour query's nearest distance is the tree's own
        means, nn = self._neighbour_mean(zq, self.k)
        return means, nn, nn


class KernelLaw(_NeighbourLaw):
    """Nadaraya-Watson mean with Gaussian weights at per-feature bandwidth h.

    Dense, one row tile at a time, as the module docstring describes; a
    law whose rows are in time order, as every fitted or loaded law is,
    sums each tile over its certified time window only.  The tile workspace
    makes a law unsafe to query from two threads at once.
    """

    method = "kernel"
    HYPERPARAMS = {"time_scale": None, "bandwidth": None, "bandwidth_scale": 1.0}

    def __init__(self, time_scale: float, z, u, bandwidth, ref_nn_dist=None, **shared):
        super().__init__(time_scale, z, u, ref_nn_dist, **shared)
        self.bandwidth = np.asarray(bandwidth, dtype=float)
        self._h = np.maximum(self.bandwidth, 1.0e-300)
        # the operands [z/h; -|z/h|^2/2; 1], stored transposed (the faster
        # layout for its product), and [u, 1], and the workspace of one row
        # tile that the first product is written to (see _mean)
        zh = self._z / self._h
        zh_sq = np.einsum("nd,nd->n", zh, zh)
        self._za = np.vstack([zh.T, -0.5 * zh_sq, np.ones(self.n_train)])
        self._u1 = np.column_stack([self._u, np.ones(self.n_train)])
        self._work = np.empty(tile_rows(self.n_train) * self.n_train)
        # the nearest-distance bracket: the smallest bandwidth, the rounding
        # slack per unit of |q/h|^2 + max |z/h|^2 or of a squared distance,
        # several times the error bound of a (D + 2)-term dot product, and
        # as many of the smallest subnormal, the error of squares that
        # underflow (see _mean)
        self._h_min = float(self._h.min())
        self._slack = 8.0 * (self._z.shape[1] + 2) * np.finfo(float).eps
        self._d2_floor = 8.0 * (self._z.shape[1] + 2) * np.finfo(float).smallest_subnormal
        self._zh_sq_max = float(zh_sq.max())
        # the time window: 2L with L = WINDOW_MARGIN + ln n, for rows in
        # nondecreasing scaled time only (see _tile_args)
        self._reach = 2.0 * (WINDOW_MARGIN + math.log(self.n_train))
        self._t_sorted = bool(np.all(np.diff(self._za[0]) >= 0.0))

    @classmethod
    def check_hyperparams(cls, hp, where="hyperparams", z_dim=None):
        bw = hp.get("bandwidth")
        if isinstance(bw, (list, tuple, np.ndarray)):
            if z_dim is not None and len(bw) != z_dim:
                raise ConfigurationError(
                    f"'{where}.bandwidth' has {len(bw)} entries, expected {z_dim} (t and x)"
                )
            for entry in bw:
                _check_positive(where, "bandwidth", entry)
            hp = {**hp, "bandwidth": None}
        super().check_hyperparams(hp, where, z_dim)

    @classmethod
    def fit(cls, time_scale, z, u, hp, seed):
        """Bandwidth: the given one, or median pairwise distance / sqrt(2) per feature."""
        bw = hp["bandwidth"]
        if bw is None:
            bw = _median_pairwise(z, substream(seed, "fit", cls.method)) / np.sqrt(2.0)
        else:
            bw = np.broadcast_to(np.asarray(bw, dtype=float), (z.shape[1],))
        bw = bw * float(hp["bandwidth_scale"])
        # a feature with no spread has a median distance of 0: it gets 1.0
        return cls(time_scale, z, u, bandwidth=np.where(bw > 0, bw, 1.0))

    def _state(self) -> dict:
        return {"bandwidth": self.bandwidth, **super()._state()}

    def _tile_args(self, q: np.ndarray, work: np.ndarray):
        """Write the kernel arguments of the augmented query rows ``q`` over
        the columns [a, b) that their time window keeps to the start of the
        flat workspace ``work``, as one (len(q), b - a) block, and return
        (a, b); see the module docstring."""
        n, th = self.n_train, self._za[0]
        t0, t1 = q[:, 0].min(), q[:, 0].max()
        # 2L, widened by the rounding of an argument and of a time distance
        reach = self._reach + self._slack * (self._zh_sq_max - 2.0 * q[:, -1].min())
        # (NaN compares false: an overflowing tile takes the full range)
        gap = max(t0 - th[0], th[-1] - t1, 0.0)
        if not (self._t_sorted and gap * gap > reach):
            np.matmul(q, self._za, out=work[: len(q) * n].reshape(len(q), n))
            return 0, n
        # the core: the columns at the training times nearest t0 and t1,
        # and all between; its smallest row maximum bounds every row's top
        c0 = th.searchsorted(self._nearest_time(t0), "left")
        c1 = th.searchsorted(self._nearest_time(t1), "right")
        core = work[: len(q) * (c1 - c0)].reshape(len(q), c1 - c0)
        np.matmul(q, self._za[:, c0:c1], out=core)
        width = math.sqrt(reach - 2.0 * core.max(axis=1).min())
        a = min(th.searchsorted(t0 - width, "left"), c0)
        b = max(th.searchsorted(t1 + width, "right"), c1)
        # the block over [a, b), the core's entries again: a contiguous
        # block makes every later pass over it a fast one
        np.matmul(q, self._za[:, a:b], out=work[: len(q) * (b - a)].reshape(len(q), b - a))
        return a, b

    def _nearest_time(self, tau):
        """The training time nearest ``tau``, the earlier one on a tie."""
        th = self._za[0]
        i = th.searchsorted(tau)
        below, above = th[max(i - 1, 0)], th[min(i, len(th) - 1)]
        return below if tau - below <= above - tau else above

    def _mean(self, zq: np.ndarray):
        """Means of finite feature rows over the training rows their time
        window keeps, and the bracket on their nearest distance, as the
        module docstring describes."""
        n_q, dim = zq.shape
        # the augmented rows [q/h, 1, -|q/h|^2/2]
        qa = np.empty((n_q, dim + 2))
        qh = np.divide(zq, self._h, out=qa[:, :dim])
        qh_sq = np.einsum("nd,nd->n", qh, qh)
        qa[:, dim] = 1.0
        np.multiply(qh_sq, -0.5, out=qa[:, dim + 1])
        out = np.empty((n_q, self.m))
        top = np.empty(n_q)
        top_row = np.empty(n_q, dtype=np.intp)
        for rows in row_tiles(n_q, self.n_train):
            q = qa[rows]
            a, b = self._tile_args(q, self._work)
            tile = self._work[: len(q) * (b - a)].reshape(len(q), b - a)
            j = tile.argmax(axis=1)
            tops = tile[np.arange(len(q)), j]
            top[rows], top_row[rows] = tops, j + a
            far = tops < -0.5 * FAR_EMIN
            if far.any():
                np.subtract(tile, tops[:, None], out=tile, where=far[:, None])
            floored_exp(tile)
            sums = tile @ self._u1[a:b]
            np.divide(sums[:, :-1], sums[:, -1:], out=out[rows])
        emin = -2.0 * top
        # the nearest-row policy for rows past -2 EXP_FLOOR (module docstring)
        degenerate = emin > -2.0 * EXP_FLOOR
        if degenerate.any():
            out[degenerate] = self._neighbour_mean(zq[degenerate], 1)[0]
        slack = self._slack * (qh_sq + self._zh_sq_max)
        nn_lo = self._h_min * np.sqrt(np.maximum(emin - slack, 0.0))
        # the distance to the row of the top weight bounds the nearest one
        diff = self._z[top_row]
        diff -= zq
        d2 = np.einsum("nd,nd->n", diff, diff)
        nn_hi = np.sqrt(d2 * (1.0 + self._slack) + self._d2_floor)
        return out, nn_lo, nn_hi


def _mlp_layers(W, b, z: np.ndarray) -> list:
    """Input and activations of each layer of a tanh network, the last linear."""
    acts = [z]
    for i, (Wi, bi) in enumerate(zip(W, b)):
        z = z @ Wi + bi
        if i < len(W) - 1:
            z = np.tanh(z)
        acts.append(z)
    return acts


class MLPLaw(FeedbackLaw):
    """Tanh network on standardized features, trained in-repo by minibatch SGD.

    The law holds the layer weights ``W``, biases ``b``, the standardization
    of z and u and the number of rows it was fitted on; no training rows.

    The network runs in float32: weights, biases, activations, errors,
    gradients and the SGD updates.  Its fit error sits far above float32
    rounding, and single precision halves the cost of its products and
    vectorizes its tanh.  The standardization stays in float64, and so does
    every control ``predict`` returns: a query is standardized in float64,
    cast to float32 for the network, and its output cast back before it is
    de-standardized.  The constructor casts ``W`` and ``b`` to float32, so a
    saved law (its float32 values written as exact JSON doubles) loads bit
    for bit, and a v2 document written with float64 weights loads with them
    rounded to float32.
    """

    method = "mlp"
    HYPERPARAMS = {
        "time_scale": None, "hidden": (64, 64), "steps": 3000, "batch_size": 64,
        "lr": 0.05, "lr_decay": 1000.0,
    }

    def __init__(self, time_scale: float, W, b, z_mean, z_std, u_mean, u_std, n_train: int,
                 **shared):
        super().__init__(time_scale, **shared)
        self.W = [np.asarray(w, dtype=np.float32) for w in W]
        self.b = [np.asarray(v, dtype=np.float32) for v in b]
        self.z_mean = np.asarray(z_mean, dtype=float)
        self.z_std = np.asarray(z_std, dtype=float)
        self.u_mean = np.asarray(u_mean, dtype=float)
        self.u_std = np.asarray(u_std, dtype=float)
        self.n_train = int(n_train)

    @classmethod
    def fit(cls, time_scale, z, u, hp, seed):
        """Seeded uniform init, then SGD steps; a non-finite loss raises.

        The initial weights are drawn in float64 and rounded to float32; the
        standardized rows are rounded once.  Python-float scalars keep every
        update in float32.
        """
        sizes = [z.shape[1], *hp["hidden"], u.shape[1]]
        rng = substream(seed, "mlp_init")
        W, b = [], []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            bound = 1.0 / np.sqrt(fan_in)
            W.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)).astype(np.float32))
            b.append(np.zeros(fan_out, dtype=np.float32))
        z_mean, z_std = z.mean(axis=0), np.where(z.std(axis=0) > 0, z.std(axis=0), 1.0)
        u_mean, u_std = u.mean(axis=0), np.where(u.std(axis=0) > 0, u.std(axis=0), 1.0)
        zs = ((z - z_mean) / z_std).astype(np.float32)
        us = ((u - u_mean) / u_std).astype(np.float32)
        n, lr0, lr_decay = len(zs), float(hp["lr"]), float(hp["lr_decay"])
        rng = substream(seed, "mlp_batches")
        for step in range(int(hp["steps"])):
            idx = rng.integers(0, n, size=min(int(hp["batch_size"]), n))
            acts = _mlp_layers(W, b, zs[idx])
            err = acts[-1] - us[idx]
            # overflow here is the divergence signal, not a numerics bug
            with np.errstate(over="ignore"):
                loss = float(np.mean(err**2))
            if not np.isfinite(loss):
                raise TrainingDivergedError(
                    f"loss became non-finite at step {step}; lower the step size"
                )
            lr = lr0 / (1.0 + step / lr_decay)
            grad = (2.0 / err.size) * err
            for layer in range(len(W) - 1, -1, -1):
                gW = acts[layer].T @ grad
                gb = grad.sum(axis=0)
                if layer > 0:
                    grad = (grad @ W[layer].T) * (1.0 - acts[layer] ** 2)
                W[layer] -= lr * gW
                b[layer] -= lr * gb
        return cls(time_scale, W, b, z_mean, z_std, u_mean, u_std, n_train=n)

    def _state(self) -> dict:
        state = {key: getattr(self, key) for key in ("z_mean", "z_std", "u_mean", "u_std")}
        W, b = [w.tolist() for w in self.W], [v.tolist() for v in self.b]
        return {"W": W, "b": b, "n_train": self.n_train, **state}

    def _predict_rows(self, zq: np.ndarray):
        zs = ((zq - self.z_mean) / self.z_std).astype(np.float32)
        out = _mlp_layers(self.W, self.b, zs)[-1].astype(float)
        return out * self.u_std + self.u_mean, np.zeros(len(zq), dtype=bool)


LAWS = {cls.method: cls for cls in (KernelLaw, KnnLaw, MLPLaw)}


def fit_feedback(
    data: RegressionDataset,
    method: str = "kernel",
    hyperparams: Optional[dict] = None,
    seed: int = 0,
) -> FeedbackLaw:
    """Fit a feedback law of one of the ``LAWS`` methods to the dataset.

    ``hyperparams`` are checked by the method's class, then merged over its
    ``HYPERPARAMS`` defaults; the law keeps them as given.  ``time_scale``
    defaults to the state-cloud diagonal divided by the time span.

    ``final_loss`` on the result is the mean squared training error,
    estimated on a seeded subsample of at most 8192 rows when the dataset
    is larger than that.
    """
    if method not in LAWS:
        raise ConfigurationError(f"unknown regression method '{method}'")
    law_cls = LAWS[method]
    given = dict(hyperparams or {})
    law_cls.check_hyperparams(given, z_dim=1 + data.d)
    hp = {**law_cls.HYPERPARAMS, **given}
    order = _canonical_order(data.t, data.x, data.u)
    t = data.t[order]
    x = data.x[order]
    u = data.u[order]

    time_scale = hp["time_scale"]
    if time_scale is None:
        span = float(t.max() - t.min())
        diam = float(np.linalg.norm(x.max(axis=0) - x.min(axis=0)))
        time_scale = diam / span if span > 0 and diam > 0 else 1.0
    z = np.column_stack([time_scale * t, x])
    law = law_cls.fit(time_scale, z, u, hp, seed)
    law.hyperparams = given

    # training loss, estimated on a seeded subsample once the dataset is
    # large; one predict call, whose dense weights go one row tile at a time
    loss_cap = 8192
    if data.n > loss_cap:
        pick = np.sort(substream(seed, "fit", "loss_rows").choice(
            data.n, size=loss_cap, replace=False))
        t_l, x_l, u_l = t[pick], x[pick], u[pick]
    else:
        t_l, x_l, u_l = t, x, u
    law.final_loss = float(np.sum((law.predict(t_l, x_l) - u_l) ** 2)) / len(t_l)
    return law


def crossval_loss(
    data: RegressionDataset,
    method: str,
    grid: Sequence[dict],
    folds: int = 4,
    seed: int = 0,
) -> tuple[dict, list]:
    """Select hyperparameters by trajectory-grouped cross-validation.

    Folds split whole trajectories so a trajectory never straddles the
    train/test boundary.  Returns ``(best_params, table)`` where the table
    lists (params, mean held-out loss) per grid entry; ties go to the first
    entry in grid order.
    """
    if folds < 2:
        raise ConfigurationError("need at least 2 folds")
    if not grid:
        raise ConfigurationError("hyperparameter grid is empty")
    ids = np.unique(data.traj_id)
    if len(ids) < folds:
        raise ConfigurationError(
            f"{folds} folds need at least {folds} distinct trajectories, got {len(ids)}"
        )
    rng = substream(seed, "crossval")
    perm = ids[rng.permutation(len(ids))]
    fold_sets = np.array_split(perm, folds)

    table = []
    for params in grid:
        losses = []
        for fold in fold_sets:
            test_mask = np.isin(data.traj_id, fold)
            train = data.subset(~test_mask)
            test = data.subset(test_mask)
            law = fit_feedback(train, method=method, hyperparams=params, seed=seed)
            pred = law.predict(test.t, test.x)
            losses.append(float(np.mean(np.sum((pred - test.u) ** 2, axis=1))))
        table.append((params, float(np.mean(losses))))
    best = table[0]
    for entry in table[1:]:
        if entry[1] < best[1]:
            best = entry
    return best[0], table


# ---------------------------------------------------------------------------
# dataset persistence


def save_dataset(data: RegressionDataset, path) -> None:
    """The dataset as a trajectory table; provenance lives in the run manifest."""
    write_trajectories(path, data.traj_id, data.t, data.x, data.u)


def load_dataset(path) -> RegressionDataset:
    """Inverse of :func:`save_dataset`; a header-only file raises ``EmptyDatasetError``."""
    traj_id, t, x, u = read_trajectories(path)
    return RegressionDataset(t=t, x=x, u=u, traj_id=traj_id)
