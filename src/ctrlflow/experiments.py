"""End-to-end experiment pipeline, reports, plot emission, and verification.

Every experiment runs one five-stage skeleton: sample the marginals,
construct trajectory/control ensembles, fit the conditional-mean feedback
law, integrate the learned closed loop forward on the configured system,
and evaluate (then persist).  Two hook classes supply what differs:
``_Transport`` (steering interpolants) and ``_Stabilize`` (noising runs,
whose rows :func:`~ctrlflow.noising.generate_noising_dataset` returns
re-timed into forward trajectories).  The skeleton writes the artifacts
common to all kinds, including the header-only snapshots of an empty or
all-blown-up rollout.  A stage failure aborts with
:class:`~ctrlflow.errors.StageError` naming the stage; the partially
written run directory is flagged in its manifest.

``construct`` hands the later stages copies of what they read, and no
stage after it holds a steering ensemble: fit reads the hook's one
regression dataset ``data``.  A transport hook keeps, besides ``data``
(:func:`~ctrlflow.regression.dataset_from_pairs` of the pairs), the
constructed snapshot points, the pairs' endpoints and endpoint errors,
and the saved pairs of ``train_pairs.csv``; a stabilize hook keeps the
noising dataset and its report, whose noised endpoints seed bootstrap
rollout starts.

A run directory holds files only, no subdirectories: ``config.json``,
``snapshot_*.csv`` point clouds, ``eval_trajectories.csv``,
``dataset.csv``, ``law.json``, ``train_pairs.csv`` (transport runs),
``report.json`` and ``manifest.json``.  CSVs use the one table format of
:mod:`ctrlflow.trajectory`; the three trajectory files are its trajectory
table (``traj_id, t, x_*, u_*``).  ``eval_trajectories.csv`` holds up to
32 rollouts, ``traj_id`` i being sample i of ``snapshot_initial.csv`` and
``snapshot_achieved.csv``.  ``train_pairs.csv`` holds the first 32
steering pairs, ``traj_id`` i being coupled pair i, the id its rows carry
in ``dataset.csv``.  It keeps each pair at the construction nodes nearest
the ``evaluation.n_grid + 1`` rollout times
(:func:`~ctrlflow.trajectory.grid_nodes`, the node rule of the dataset's
time samples): a constructed node per row, at the construction grid's own
time, and as many rows per pair as a saved rollout has when the
construction grid is at least as fine.  Times in every CSV and in
``law.json`` are rollout times, t = 0 at the rollout start.  In a
stabilize run the ``dataset.csv`` row at time s holds the noising state
and control at noising time T - s, so ``law.json`` drives the configured
system itself forward from the noised cloud.
The manifest (``ctrlflow.manifest.v2``) is the only provenance record: the
config hash, ``files`` in write order, a ``sha256`` map with the digest of
every listed file, and ``partial``/``failed_stage`` for an aborted run.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .config import KIND_SPECS, TRANSPORT_KINDS, ExperimentConfig, fraction_label
from .config import validate_config
from .errors import ConfigurationError, StageError
from .flow import FlowInfo, integrate_closed_loop_batch, snapshots_from_arrays
from .interpolants import (
    BROCKETT_HORIZON,
    brockett_steer_pair_batch,
    feedback_steer_pair_batch,
    gramian,
    min_energy_pair_batch,
    place_poles,
)
from .linalg import sq_dists
from .measures import (
    EXACT_W2_MAX_N,
    EmpiricalMeasure,
    build_coupling,
    sample_measure,
    set_distance,
    sliced_wasserstein2,
    wasserstein2,
)
from .noising import (
    NoisingConfig,
    QuadraticCost,
    generate_noising_dataset,
    hamiltonian_drift,
    pmp_extremal_batch,
)
from .ode import raise_on_blowup
from .regression import RegressionDataset, dataset_from_pairs, fit_feedback, save_dataset
from .seeding import derived_seed, substream
from .systems import builtin_system, six_state_matrices, six_state_output
from .trajectory import PairEnsemble, columns, grid_nodes, read_table, read_trajectories
from .trajectory import write_table, write_trajectories

MAX_SAVED_TRAJECTORIES = 32
TARGET_REF_N = 512

MANIFEST_FORMAT = "ctrlflow.manifest.v2"


@dataclass
class ExperimentReport:
    """Outcome of one experiment run; every metric is a finite number."""

    kind: str
    name: str
    config_hash: str
    wall_clock_s: float
    metrics: dict
    notes: list = field(default_factory=list)
    manifest: list = field(default_factory=list)
    output_dir: str = ""

    def __post_init__(self):
        bad = [
            k
            for k, v in self.metrics.items()
            if not isinstance(v, (int, float)) or not np.isfinite(v)
        ]
        if bad:
            raise ConfigurationError(f"non-finite metric(s): {bad}")

    def to_json_dict(self) -> dict:
        return {
            "format": "ctrlflow.report.v1",
            "kind": self.kind,
            "name": self.name,
            "config_hash": self.config_hash,
            "wall_clock_s": self.wall_clock_s,
            "metrics": self.metrics,
            "notes": list(self.notes),
            "manifest": list(self.manifest),
            "output_dir": self.output_dir,
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ExperimentReport":
        if doc.get("format") != "ctrlflow.report.v1":
            raise ConfigurationError("not an experiment report document")
        return cls(
            kind=doc["kind"],
            name=doc["name"],
            config_hash=doc["config_hash"],
            wall_clock_s=doc["wall_clock_s"],
            metrics=doc["metrics"],
            notes=doc.get("notes", []),
            manifest=doc.get("manifest", []),
            output_dir=doc.get("output_dir", ""),
        )

    @classmethod
    def load(cls, path) -> "ExperimentReport":
        with Path(path).open() as fh:
            return cls.from_json_dict(json.load(fh))


class _RunDir:
    """Written artifacts -> sha256, in first-write order (the manifest's ``files``)."""

    def __init__(self, out_dir: Path, cfg_hash: str, sha256: Optional[dict] = None):
        self.dir = out_dir
        self.hash = cfg_hash
        self.sha256: dict[str, str] = dict(sha256 or {})
        self.dir.mkdir(parents=True, exist_ok=True)

    @property
    def files(self) -> list[str]:
        return list(self.sha256)

    def add(self, rel: str) -> None:
        path = self.dir / rel
        if not path.exists():
            raise ConfigurationError(f"artifact '{rel}' was not written")
        digest = hashlib.sha256()
        with path.open("rb") as fh:
            while chunk := fh.read(1 << 16):
                digest.update(chunk)
        self.sha256[rel] = digest.hexdigest()

    def write_json(self, rel: str, doc: dict) -> None:
        (self.dir / rel).write_text(json.dumps(doc, indent=2, sort_keys=True))
        self.add(rel)

    def write_snapshot(self, rel: str, points: np.ndarray, dim: int) -> None:
        points = np.asarray(points, dtype=float).reshape(-1, dim)
        table = np.column_stack([np.arange(len(points)), points])
        write_table(self.dir / rel, ["sample_id", *columns("x", dim)], table, int_cols=1)
        self.add(rel)

    def write_ensemble(self, rel: str, ens: PairEnsemble) -> None:
        write_trajectories(self.dir / rel, *ens.rows())
        self.add(rel)

    def write_manifest(self, partial: bool = False, failed_stage: Optional[str] = None):
        doc = {
            "format": MANIFEST_FORMAT,
            "config_hash": self.hash,
            "files": self.files,
            "sha256": self.sha256,
            "partial": bool(partial),
        }
        if failed_stage is not None:
            doc["failed_stage"] = failed_stage
        (self.dir / "manifest.json").write_text(json.dumps(doc, indent=2, sort_keys=True))


def _stage(name: str, fn: Callable, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except StageError:
        raise
    except Exception as exc:
        raise StageError(name, exc) from exc


def _sample_points(spec: dict, n: int, seed: int) -> EmpiricalMeasure:
    return sample_measure(spec["kind"], spec["params"], n, seed)


def _w2(a: np.ndarray, b: np.ndarray, seed: int) -> float:
    """W2 between two point clouds: exact for equal counts up to
    ``EXACT_W2_MAX_N``, else sliced (default projections, seeded by ``seed``)."""
    a, b = EmpiricalMeasure(points=a), EmpiricalMeasure(points=b)
    if a.n == b.n <= EXACT_W2_MAX_N:
        return wasserstein2(a, b)
    return sliced_wasserstein2(a, b, seed=seed)


def _subsample(points: np.ndarray, n: int, seed: int) -> np.ndarray:
    """Without-replacement reduction for count-matched exact W2."""
    if len(points) <= n:
        return points
    rng = substream(seed, "subsample")
    idx = rng.choice(len(points), size=n, replace=False)
    return points[np.sort(idx)]


def _snapshot_times(fractions, T: float, t_grid: np.ndarray) -> list[float]:
    """Snapshot time f*T per fraction, or the node t_grid[k] itself when f*K = k.

    f*T can miss its node by an ulp (T = 4*pi, K = 200, f = 0.5), which turns
    a node snapshot into an interpolation.
    """
    K = len(t_grid) - 1
    return [float(t_grid[int(f * K)]) if (f * K).is_integer() else f * T for f in fractions]


def _mean_pair_distance(x0: np.ndarray, x1: np.ndarray) -> float:
    return float(np.linalg.norm(x1 - x0, axis=1).mean())


def _distance_to_target(
    points: np.ndarray, spec: Optional[dict], ref_points: Optional[np.ndarray]
) -> np.ndarray:
    """Distance from each row to the target set.

    The closed-form :func:`~ctrlflow.measures.set_distance` where the target
    family has one, else the distance to the nearest reference sample.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    exact = None if spec is None else set_distance(spec["kind"], spec["params"], points)
    if exact is not None:
        return exact
    if ref_points is None or len(ref_points) == 0:
        raise ConfigurationError("no target reference points available")
    return np.sqrt(sq_dists(points, ref_points).min(axis=1))


def _lift_output_targets(ys: np.ndarray) -> np.ndarray:
    """Zero-velocity lift of output-space targets into the six-state space."""
    ys = np.atleast_2d(np.asarray(ys, dtype=float))
    lifted = np.zeros((ys.shape[0], 6))
    lifted[:, 0] = ys[:, 0]
    lifted[:, 2] = ys[:, 1]
    return lifted


def _transport_matrices(cfg: ExperimentConfig):
    if cfg.system["name"] == "linear":
        A = np.asarray(cfg.system["params"]["A"], dtype=float)
        B = np.asarray(cfg.system["params"]["B"], dtype=float)
    else:
        A, B = six_state_matrices()
    return A, B


# ----------------------------------------------------------------------
# pipeline


def run_experiment(config, output_root=None) -> ExperimentReport:
    """Execute the five-stage pipeline for the configured experiment kind.

    ``config`` may be an :class:`ExperimentConfig` or a raw dict (validated
    first; nothing is written for an invalid document).  Deterministic for
    a fixed config: all randomness flows from the master seed through named
    sub-streams.
    """
    if not isinstance(config, ExperimentConfig):
        config = validate_config(config)
    cfg = config
    cfg_hash = cfg.hash

    root = Path(output_root) if output_root is not None else Path.cwd()
    rel = Path(cfg.output_dir) if cfg.output_dir else Path(f"{cfg.name}_{cfg_hash[:8]}")
    out_dir = rel if rel.is_absolute() else root / rel

    t0 = time.perf_counter()
    run = _RunDir(out_dir, cfg_hash)
    run.write_json("config.json", cfg.to_canonical_dict())
    try:
        metrics, notes = _run_pipeline(cfg, run)
    except StageError as exc:
        run.write_manifest(partial=True, failed_stage=exc.stage)
        raise
    wall = time.perf_counter() - t0

    report = ExperimentReport(
        kind=cfg.kind,
        name=cfg.name,
        config_hash=cfg_hash,
        wall_clock_s=wall,
        metrics=metrics,
        notes=notes,
        manifest=run.files + ["report.json"],
        output_dir=str(out_dir),
    )
    run.write_json("report.json", report.to_json_dict())
    run.write_manifest(partial=False)
    return report


def _run_pipeline(cfg: ExperimentConfig, run: _RunDir):
    """sample -> construct -> fit -> integrate -> evaluate (with persistence).

    The kind hooks supply the marginals, the ensemble, the rollout starts
    and the kind-specific metrics; everything else happens here once.
    """
    seed = cfg.master_seed
    sys = _stage("sample", builtin_system, cfg.system["name"], **cfg.system["params"])
    kind = (_Transport if cfg.kind in TRANSPORT_KINDS else _Stabilize)(cfg, sys)
    _stage("sample", kind.sample)
    _stage("construct", kind.construct)

    def fit():
        return fit_feedback(
            kind.data,
            method=cfg.regression["method"],
            hyperparams=cfg.regression["hyperparams"],
            seed=derived_seed(seed, "fit"),
        )

    law = _stage("fit", fit)

    def integrate():
        if cfg.n_eval == 0:
            return None
        return integrate_closed_loop_batch(
            sys, law, kind.starts(), kind.T, cfg.evaluation["n_grid"]
        )

    rollout = _stage("integrate", integrate)

    def evaluate():
        metrics: dict = {}
        if law.final_loss is not None and np.isfinite(law.final_loss):
            metrics["fit_loss"] = float(law.final_loss)
        notes = kind.evaluate_ensemble(run, metrics)

        # n_eval = 0 reads as a rollout without rows
        t_grid, states, controls, info = rollout or (
            np.array([0.0, kind.T]), np.empty((0, 2, sys.d)), np.empty((0, 2, sys.m)),
            FlowInfo(bad_time=np.empty(0)),
        )
        kept = ~np.isfinite(info.bad_time)
        if info.excluded_count:
            notes.append(f"{info.excluded_count} evaluation rollout(s) blew up and were excluded")
        if rollout is not None and not kept.any():
            notes.append(f"all evaluation rollouts blew up; {kind.scored} metrics skipped")
        metrics["excluded_eval"] = info.excluded_count
        metrics["extrapolation_count"] = info.extrapolation_count

        run.write_snapshot("snapshot_initial.csv", states[kept, 0], sys.d)
        run.write_snapshot("snapshot_achieved.csv", states[kept, -1], sys.d)
        if kept.any():
            kind.evaluate_rollout(run, metrics, t_grid, states[kept])
        else:
            # no surviving rollout: the kind's rollout snapshots hold headers only
            for rel, dim in kind.empty_snapshots:
                run.write_snapshot(rel, np.empty((0, dim)), dim)
        # the first kept rollouts, so traj_id i is snapshot sample i
        saved = np.where(kept)[0][:MAX_SAVED_TRAJECTORIES]
        run.write_ensemble(
            "eval_trajectories.csv", PairEnsemble(t_grid, states[saved], controls[saved])
        )

        save_dataset(kind.data, run.dir / "dataset.csv")
        run.add("dataset.csv")
        law.save(run.dir / "law.json")
        run.add("law.json")
        if kind.saved_pairs is not None:
            run.write_ensemble("train_pairs.csv", kind.saved_pairs)
        return metrics, notes

    return _stage("evaluate", evaluate)


class _Transport:
    """Steering interpolants between coupled samples of mu0 and muT.

    ``data`` is the regression dataset of the steered pairs; ``construct``
    drops the pairs themselves once it has taken what evaluate reads.
    """

    scored = "transport"

    def __init__(self, cfg: ExperimentConfig, sys):
        self.cfg = cfg
        self.sys = sys
        self.seed = cfg.master_seed
        self.output = KIND_SPECS[cfg.kind].output
        # what evaluate_rollout writes besides the common snapshots, as (name, dim)
        self.empty_snapshots = (("snapshot_target.csv", sys.output_dim if self.output else sys.d),)

    def sample(self):
        cfg, seed = self.cfg, self.seed
        # validate_config has matched both measures to the system's dimensions
        mu0_s = _sample_points(cfg.mu0, cfg.n_train, derived_seed(seed, "mu0"))
        muT_s = _sample_points(cfg.muT, cfg.n_train, derived_seed(seed, "muT"))
        if self.output:
            muT_s = EmpiricalMeasure(points=_lift_output_targets(muT_s.points))
        coupling_seed = derived_seed(seed, "coupling")
        self.x0, self.x1 = build_coupling(mu0_s, muT_s, cfg.coupling, coupling_seed)

    def construct(self):
        """Steer the coupled pairs and keep what the later stages read of them."""
        cfg, x0, x1, interp = self.cfg, self.x0, self.x1, self.cfg.interpolant
        if cfg.kind == "transport_linear":
            A, B = _transport_matrices(cfg)
            self.T = interp["T"]
            pairs = min_energy_pair_batch(A, B, x0, x1, self.T, n_grid=interp["n_grid"])
        elif self.output:
            A, B = _transport_matrices(cfg)
            self.T = interp["T"]
            K = place_poles(A, B, interp["poles"], seed=derived_seed(self.seed, "poles"))
            pairs = feedback_steer_pair_batch(
                A, B, K, ys=x1, x0s=x0, T=self.T, n_grid=interp["n_grid"]
            )
        else:
            self.T = BROCKETT_HORIZON
            pairs = brockett_steer_pair_batch(x0, x1, n_grid=interp["n_grid"])

        # copies only: a view such as states[:, -1] would keep the ensemble alive
        self.data = dataset_from_pairs(pairs)
        self.fractions = cfg.evaluation["snapshot_fractions"]
        self.constructed = snapshots_from_arrays(
            pairs.t_grid, pairs.states, _snapshot_times(self.fractions, self.T, pairs.t_grid)
        )
        self.endpoints = pairs.states[:, -1].copy()
        self.endpoint_error = pairs.meta["endpoint_error"]
        # the first pairs at the construction nodes nearest the rollout grid
        nodes = grid_nodes(len(pairs.t_grid) - 1, cfg.evaluation["n_grid"] + 1)
        saved = slice(MAX_SAVED_TRAJECTORIES)
        self.saved_pairs = PairEnsemble(
            pairs.t_grid[nodes], pairs.states[saved, nodes], pairs.controls[saved, nodes]
        )

    def starts(self) -> np.ndarray:
        cfg = self.cfg
        return _sample_points(cfg.mu0, cfg.n_eval, derived_seed(self.seed, "eval_start")).points

    def evaluate_ensemble(self, run: _RunDir, metrics: dict) -> list:
        """Construction-level metrics and the constructed marginal snapshots."""
        seed = self.seed
        metrics["mean_pair_distance"] = _mean_pair_distance(self.x0, self.x1)
        metrics["max_endpoint_error"] = float(np.max(self.endpoint_error))
        # construction-level quality: endpoints of the training ensemble
        metrics["w2_construction_terminal"] = _w2(
            self.endpoints, self.x1, derived_seed(seed, "w2", "construction")
        )
        if self.output:
            # sample-level output identity: push the constructed endpoints
            # through h and compare with the coupled target draws themselves
            metrics["w2_construction_output"] = _w2(
                six_state_output(self.endpoints),
                six_state_output(self.x1),
                derived_seed(seed, "w2", "construction_output"),
            )

        for frac, meas in zip(self.fractions, self.constructed):
            label = fraction_label(frac)
            run.write_snapshot(f"snapshot_constructed_t{label}.csv", meas.points, self.sys.d)
        return []

    def evaluate_rollout(self, run: _RunDir, metrics: dict, t_grid, states) -> None:
        """Terminal and along-the-flow W2 of the surviving rollouts."""
        cfg, sys, seed = self.cfg, self.sys, self.seed
        n_kept = len(states)
        achieved_T = states[:, -1]

        # terminal comparison against fresh target draws
        target = _sample_points(cfg.muT, n_kept, derived_seed(seed, "eval_target")).points
        run.write_snapshot("snapshot_target.csv", target, target.shape[1])
        if self.output:
            metrics["w2_output"] = _w2(
                six_state_output(achieved_T), target, derived_seed(seed, "w2", "output")
            )
            target = _subsample(self.x1, n_kept, derived_seed(seed, "state_ref"))
        metrics["w2_terminal"] = _w2(achieved_T, target, derived_seed(seed, "w2", "term"))

        # learned-vs-constructed marginals along the flow
        learned = snapshots_from_arrays(
            t_grid, states, _snapshot_times(self.fractions, self.T, t_grid)
        )
        for frac, l_meas, c_meas in zip(self.fractions, learned, self.constructed):
            label = fraction_label(frac)
            c_pts = _subsample(c_meas.points, l_meas.n, derived_seed(seed, "marg", label))
            l_pts = _subsample(l_meas.points, len(c_pts), derived_seed(seed, "marg_l", label))
            metrics[f"w2_t{label}"] = _w2(l_pts, c_pts, derived_seed(seed, "w2", f"marg{label}"))
            run.write_snapshot(f"snapshot_learned_t{label}.csv", l_meas.points, sys.d)


class _Stabilize:
    """Noising runs from the target set, re-timed to flow back onto it.

    ``data`` is the re-timed noising dataset, built in ``construct``.
    """

    scored = "distance"
    saved_pairs = None
    empty_snapshots = ()

    def __init__(self, cfg: ExperimentConfig, sys):
        self.cfg = cfg
        self.sys = sys
        self.seed = cfg.master_seed
        self.T = cfg.noising["T"]

    def sample(self):
        seed = derived_seed(self.seed, "target_ref")
        self.target_ref = _sample_points(self.cfg.target, TARGET_REF_N, seed)

    def construct(self):
        cfg = self.cfg
        ncfg = NoisingConfig(
            kind="pmp" if cfg.kind == "stabilize_pmp" else "randomized",
            n_samples=cfg.n_train,
            seed=derived_seed(self.seed, "noising"),
            **cfg.noising,
        )

        def target_sampler(n, s):
            return _sample_points(cfg.target, n, s).points

        self.data, self.nreport = generate_noising_dataset(self.sys, ncfg, target_sampler)

    def starts(self) -> np.ndarray:
        cfg = self.cfg
        start = cfg.evaluation["start"]
        s = derived_seed(self.seed, "eval_start")
        if start["kind"] != "bootstrap":
            return _sample_points(start, cfg.n_eval, s).points
        endpoints = self.nreport.endpoints
        if endpoints is None or len(endpoints) == 0:
            raise ConfigurationError("no noising endpoints available to bootstrap")
        rng = substream(s, "bootstrap_start")
        pts = endpoints[rng.integers(0, len(endpoints), size=cfg.n_eval)]
        jitter = float(start["params"].get("jitter", 0.0))
        if jitter > 0.0:
            pts = pts + jitter * rng.standard_normal(pts.shape)
        return pts

    def evaluate_ensemble(self, run: _RunDir, metrics: dict) -> list:
        """Noising diagnostics and the noised/target snapshots."""
        cfg, sys, nreport = self.cfg, self.sys, self.nreport
        notes = list(nreport.warnings)
        metrics["excluded_noising"] = int(nreport.excluded_count)
        if nreport.hamiltonian_drift_max is not None:
            metrics["hamiltonian_drift_max"] = float(nreport.hamiltonian_drift_max)
        if nreport.endpoints is not None and len(nreport.endpoints):
            run.write_snapshot("snapshot_noised.csv", nreport.endpoints, sys.d)
            spread = _distance_to_target(nreport.endpoints, cfg.target, self.target_ref.points)
            metrics["noised_median_distance"] = float(np.median(spread))
        run.write_snapshot("snapshot_target.csv", self.target_ref.points, sys.d)
        if cfg.kind == "stabilize_random":
            notes.append(
                "trajectories do not exactly converge to the origin: the reversed "
                "randomized flow contracts to a neighborhood of the target set, "
                "not to a point"
            )
        return notes

    def evaluate_rollout(self, run: _RunDir, metrics: dict, t_grid, states) -> None:
        """Distances to the target set at the start and end of the rollouts."""
        cfg, target_ref = self.cfg, self.target_ref.points
        d0 = _distance_to_target(states[:, 0], cfg.target, target_ref)
        dT = _distance_to_target(states[:, -1], cfg.target, target_ref)
        metrics["median_initial_distance"] = float(np.median(d0))
        metrics["median_terminal_distance"] = float(np.median(dT))
        metrics["p90_terminal_distance"] = float(np.quantile(dT, 0.9))
        radius = cfg.evaluation["success_radius"]
        metrics["frac_within_radius"] = float(np.mean(dT <= radius))
        denom = max(float(np.median(d0)), 1.0e-12)
        metrics["distance_ratio"] = float(np.median(dT)) / denom


# ----------------------------------------------------------------------
# plot emission


def _read_snapshot(path: Path) -> np.ndarray:
    """Points of a snapshot written by ``_RunDir.write_snapshot`` (sample id dropped)."""
    return read_table(path)[1][:, 1:]


def emit_plot_data(run_dir) -> list[str]:
    """Write gnuplot-ready whitespace-delimited files into a run directory.

    Produces scatter overlays (initial/target/achieved), per-trajectory
    polyline blocks separated by blank lines, and a distance-to-target time
    series (in output space for ``output_transport`` runs).  Requires a
    manifest (i.e. a completed or flagged run); the plot files are added to
    it with their sha256.
    """
    run_dir = Path(run_dir)
    manifest_path = run_dir / "manifest.json"
    if not manifest_path.exists():
        raise ConfigurationError(f"missing manifest in {run_dir}; not a run directory")
    manifest = json.loads(manifest_path.read_text())
    if manifest.get("format") != MANIFEST_FORMAT:
        raise ConfigurationError(f"{manifest_path} is not a {MANIFEST_FORMAT} manifest")
    sha256 = {rel: manifest["sha256"][rel] for rel in manifest["files"]}  # keep write order
    run = _RunDir(run_dir, manifest["config_hash"], sha256)

    target_spec, output = None, False
    cfg_path = run_dir / "config.json"
    if cfg_path.exists():
        doc = json.loads(cfg_path.read_text())
        target_spec, kind = doc.get("target"), doc.get("kind")
        # a missing or unknown kind reads as not output
        output = isinstance(kind, str) and kind in KIND_SPECS and KIND_SPECS[kind].output

    written: list[str] = []

    def emit(rel: str, header: str, blocks: list[np.ndarray], labelled: bool = False):
        lines = [header]
        for bi, block in enumerate(blocks):
            lines += ["", ""] if bi else []  # gnuplot index: blocks split by two blank lines
            lines += [f"# trajectory {bi}"] if labelled else []
            lines += [" ".join(f"{v:.17g}" for v in row) for row in block]
        (run_dir / rel).write_text("\n".join(lines) + "\n")
        run.add(rel)
        written.append(rel)

    # scatter overlays
    for role in ("initial", "target", "achieved"):
        snap = run_dir / f"snapshot_{role}.csv"
        pts = _read_snapshot(snap) if snap.exists() else np.empty((0, 0))
        dim = pts.shape[1]
        cols = " ".join(f"x_{j + 1}" for j in range(dim)) if dim else "x_*"
        emit(f"plot_scatter_{role}.dat", f"# {role} scatter: {cols}", [pts])

    # trajectory polylines (t, x): a new block wherever traj_id changes
    traj_path = run_dir / "eval_trajectories.csv"
    polylines = []
    if traj_path.exists():
        ids, t, x, _ = read_trajectories(traj_path)
        if len(ids):
            polylines = np.split(np.column_stack([t, x]), np.flatnonzero(np.diff(ids)) + 1)
    emit(
        "plot_trajectories.dat",
        "# closed-loop trajectories: t x_1 .. x_d (blank-line separated blocks)",
        polylines,
        labelled=True,
    )

    # distance-to-target series over the saved trajectories
    target_snap = run_dir / "snapshot_target.csv"
    ref_points = _read_snapshot(target_snap) if target_snap.exists() else np.empty((0, 0))
    series = np.empty((0, 4))
    if polylines and len(ref_points):
        # output-transport targets live in output space
        space = six_state_output if output else np.asarray
        dists = np.stack(
            [_distance_to_target(space(p[:, 1:]), target_spec, ref_points) for p in polylines]
        )
        stats = (np.median(dists, axis=0), np.quantile(dists, 0.9, axis=0), dists.mean(axis=0))
        series = np.column_stack([polylines[0][:, 0], *stats])
    emit(
        "plot_distance.dat",
        "# distance to target over the saved rollouts: t median p90 mean",
        [series],
    )

    run.write_manifest(manifest["partial"], manifest.get("failed_stage"))
    return written


# ----------------------------------------------------------------------
# example configs and verification suites


def example_config(kind: str) -> dict:
    """A runnable default config document for each experiment kind."""
    if kind == "transport_linear":
        return {
            "schema_version": 1,
            "kind": "transport_linear",
            "name": "double_integrator_transport",
            "master_seed": 7,
            "n_train": 512,
            "n_eval": 256,
            "system": {
                "name": "linear",
                "params": {"A": [[0.0, 1.0], [0.0, 0.0]], "B": [[0.0], [1.0]]},
            },
            "mu0": {"kind": "gaussian", "params": {"mean": [-2.0, -2.0], "cov": 0.25}},
            "muT": {"kind": "gaussian", "params": {"mean": [2.0, 2.0], "cov": 0.25}},
            "coupling": "independent",
            "interpolant": {"T": 1.0, "n_grid": 1000},
            "regression": {"method": "kernel", "hyperparams": {"bandwidth_scale": 0.1}},
            "evaluation": {"n_grid": 200},
        }
    if kind == "output_transport":
        return {
            "schema_version": 1,
            "kind": "output_transport",
            "name": "six_state_output_transport",
            "master_seed": 11,
            "n_train": 256,
            "n_eval": 256,
            "system": {"name": "six_state_default", "params": {}},
            "mu0": {
                "kind": "gaussian",
                "params": {"mean": [0.0, 0.0, 0.0, 0.0, 0.0, 0.0], "cov": 1.0},
            },
            "muT": {"kind": "gaussian", "params": {"mean": [3.0, 3.0], "cov": 0.25}},
            "coupling": "independent",
            "interpolant": {
                "T": 6.0,
                "n_grid": 1200,
                "poles": [-2.0, -2.0, -2.0, -2.4, -2.4, -2.4],
            },
            "regression": {"method": "mlp", "hyperparams": {"steps": 6000, "hidden": [96, 96]}},
            "evaluation": {"n_grid": 200},
        }
    if kind == "brockett":
        return {
            "schema_version": 1,
            "kind": "brockett",
            "name": "brockett_transport",
            "master_seed": 3,
            "n_train": 256,
            "n_eval": 128,
            "system": {"name": "brockett", "params": {}},
            "mu0": {"kind": "gaussian", "params": {"mean": [0.0, 0.0, 0.0], "cov": 0.25}},
            "muT": {"kind": "gaussian", "params": {"mean": [1.0, 1.0, 1.0], "cov": 0.25}},
            "coupling": "independent",
            "interpolant": {"n_grid": 2000},
            "regression": {"method": "kernel", "hyperparams": {}},
            "evaluation": {"n_grid": 400},
        }
    if kind == "stabilize_pmp":
        return {
            "schema_version": 1,
            "kind": "stabilize_pmp",
            "name": "unicycle_origin",
            "master_seed": 5,
            "n_train": 800,
            "n_eval": 100,
            "system": {"name": "unicycle", "params": {}},
            "target": {"kind": "dirac", "params": {"point": [0.0, 0.0, 0.0]}},
            "noising": {
                "T": 2.0,
                "n_grid": 600,
                "n_time_samples": 50,
                "theta": 1.0,
                "p_scale": 6.0,
            },
            "regression": {"method": "kernel", "hyperparams": {"bandwidth_scale": 0.05}},
            "evaluation": {
                "n_grid": 150,
                "start": {
                    "kind": "gaussian",
                    "params": {"mean": [0.0, 0.0, 0.0], "cov": 1.0},
                },
                "success_radius": 0.2,
            },
        }
    if kind == "stabilize_random":
        return {
            "schema_version": 1,
            "kind": "stabilize_random",
            "name": "martinet_stabilize",
            "master_seed": 13,
            "n_train": 800,
            "n_eval": 100,
            "system": {"name": "martinet", "params": {}},
            "target": {"kind": "dirac", "params": {"point": [0.0, 0.0, 0.0]}},
            "noising": {"T": 1.0, "n_grid": 600, "n_time_samples": 25, "sigma": 1.0},
            "regression": {"method": "kernel", "hyperparams": {"bandwidth_scale": 0.1}},
            "evaluation": {
                "n_grid": 300,
                "start": {"kind": "bootstrap", "params": {"jitter": 0.0}},
                "success_radius": 0.2,
            },
        }
    raise ConfigurationError(f"no example config for kind '{kind}'")


def _check(name: str, value: float, tolerance: float, larger_ok: bool = False) -> dict:
    passed = bool(value >= tolerance) if larger_ok else bool(value <= tolerance)
    return {
        "check": name,
        "value": float(value),
        "tolerance": float(tolerance),
        "comparison": ">=" if larger_ok else "<=",
        "passed": passed,
    }


def _verify_fast() -> list[dict]:
    results = []

    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    B = np.array([[0.0], [1.0]])
    W = gramian(A, B, 1.0)
    W_exact = np.array([[1.0 / 3.0, 0.5], [0.5, 1.0]])
    results.append(_check("gramian_closed_form", np.abs(W - W_exact).max(), 1.0e-8))

    ens = min_energy_pair_batch(A, B, np.zeros((1, 2)), np.array([[1.0, 0.0]]), 1.0, n_grid=400)
    u_exact = 6.0 - 12.0 * ens.t_grid
    u_err = np.abs(ens.controls[0, :, 0] - u_exact).max()
    results.append(_check("min_energy_canonical_control", u_err, 1.0e-12))

    rng = substream(123, "verify", "min_energy")
    x0s = rng.uniform(-1.0, 1.0, size=(100, 2))
    xTs = rng.uniform(-1.0, 1.0, size=(100, 2))
    ens = min_energy_pair_batch(A, B, x0s, xTs, 1.0, n_grid=400)
    results.append(_check("min_energy_terminal_error", ens.meta["endpoint_error"].max(), 1.0e-12))

    ys = np.array([[0.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
    ens = brockett_steer_pair_batch(np.zeros((2, 3)), ys, n_grid=4000)
    results.append(_check("brockett_canonical_cases", ens.meta["endpoint_error"].max(), 1.0e-12))

    rng = substream(123, "verify", "brockett")
    xs = rng.uniform(-1.0, 1.0, size=(100, 3))
    ys = rng.uniform(-1.0, 1.0, size=(100, 3))
    ens = brockett_steer_pair_batch(xs, ys, n_grid=4000)
    results.append(_check("brockett_random_endpoints", ens.meta["endpoint_error"].max(), 1.0e-12))

    unicycle = builtin_system("unicycle")
    cost = QuadraticCost()
    rng = substream(123, "verify", "pmp")
    starts = rng.uniform(-1.0, 1.0, size=(10, 2, 3))  # (x0, p0) per extremal
    ens, costates, bad = pmp_extremal_batch(
        unicycle, cost, starts[:, 0], starts[:, 1], T=1.0, n_grid=4000
    )
    raise_on_blowup(bad)
    drift_rel = hamiltonian_drift(unicycle, cost, ens.states, costates).max()
    results.append(_check("hamiltonian_conservation", drift_rel, 1.0e-8))

    rng = substream(123, "verify", "w2")
    X = rng.standard_normal((64, 3))
    shift = np.array([1.0, -2.0, 0.5])
    a = EmpiricalMeasure(points=X)
    b = EmpiricalMeasure(points=X + shift)
    w2_err = abs(wasserstein2(a, b) - np.linalg.norm(shift))
    results.append(_check("w2_translation_identity", w2_err, 1.0e-10))

    # linear law u = c x on a 1-D grid, bandwidth = grid spacing,
    # queried at interior training points
    x = np.linspace(-1.0, 1.0, 101)[:, None]
    spacing = 0.02
    data = RegressionDataset(
        t=np.zeros(101), x=x, u=2.0 * x, traj_id=np.arange(101)
    )
    law = fit_feedback(data, method="kernel", hyperparams={"bandwidth": spacing}, seed=0)
    interior = x[10:91]
    pred = law.predict(0.0, interior)
    reg_err = float(np.abs(pred - 2.0 * interior).max())
    results.append(_check("kernel_linear_law_recovery", reg_err, 1.0e-2))
    return results


def _verify_full(output_root=None) -> list[dict]:
    import tempfile

    results = _verify_fast()
    root = Path(output_root) if output_root else Path(tempfile.mkdtemp(prefix="ctrlflow_verify_"))

    rng = substream(99, "verify", "identity")
    pts = rng.standard_normal((128, 2))
    doc = example_config("transport_linear")
    doc.update(
        {
            "name": "verify_identity_transport",
            "n_train": 128,
            "n_eval": 128,
            "mu0": {"kind": "empirical", "params": {"points": pts.tolist()}},
            "muT": {"kind": "empirical", "params": {"points": pts.tolist()}},
            "coupling": "paired",
            "system": {
                "name": "linear",
                "params": {"A": [[0.0, 0.0], [0.0, 0.0]], "B": [[1.0, 0.0], [0.0, 1.0]]},
            },
        }
    )
    report = run_experiment(doc, output_root=root)
    results.append(
        _check("identity_transport_w2", report.metrics["w2_terminal"], 1.0e-3)
    )

    pilot = example_config("stabilize_pmp")
    report = run_experiment(pilot, output_root=root)
    results.append(
        _check(
            "unicycle_origin_within_radius",
            report.metrics["frac_within_radius"],
            0.9,
            larger_ok=True,
        )
    )

    pilot = example_config("stabilize_random")
    report = run_experiment(pilot, output_root=root)
    results.append(
        _check("martinet_distance_ratio", report.metrics["distance_ratio"], 0.2)
    )
    return results


def verify(suite: str, output_root=None) -> list[dict]:
    """Run a verification suite; failures are results, not errors.

    ``fast`` exercises the numeric oracles (seconds); ``full`` additionally
    runs pilot-scale experiments (minutes) and writes ``verify_full.json``
    under ``output_root`` (or the working directory).
    """
    if suite == "fast":
        return _verify_fast()
    if suite == "full":
        results = _verify_full(output_root)
        root = Path(output_root) if output_root else Path.cwd()
        root.mkdir(parents=True, exist_ok=True)
        (root / "verify_full.json").write_text(
            json.dumps({"suite": "full", "results": results}, indent=2, sort_keys=True)
        )
        return results
    raise ConfigurationError(f"unknown verify suite '{suite}' (expected fast or full)")
