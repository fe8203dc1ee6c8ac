"""Golden metrics: every report metric of reduced example configs, bit for bit.

Each case is ``example_config(kind)`` scaled down so that all of them run in
a few seconds.  ``golden_metrics.json`` holds the metrics of each case as
``float.hex`` strings; a run must reproduce every one exactly.  A change
that alters the numerics on purpose regenerates the file with

    PYTHONPATH=src python tests/test_golden.py

and says why in its description.

Each case's saved ``law.json`` is also a feedback law of its configured
system in rollout time: rolled forward from ``snapshot_initial.csv`` over
the run's horizon, it reproduces ``snapshot_achieved.csv`` bit for bit.

Each case's run directory is checked once, when the fixture runs it: its
files are exactly the manifest's, the rollouts in ``eval_trajectories.csv``
run from the ``snapshot_initial.csv`` to the ``snapshot_achieved.csv``
sample of their ``traj_id``, and a transport case's ``train_pairs.csv``
holds each saved pair i at the construction nodes nearest the evaluation
grid: its times are the construction grid at ``grid_nodes(K, n_grid + 1)``
(K construction steps, n_grid evaluation steps), its first row is the
coupled start, its last row is sample i of ``snapshot_constructed_t1.csv``,
and at each time that is also one of the dataset's time samples its row is
the ``dataset.csv`` row of ``traj_id`` i.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from ctrlflow.config import TRANSPORT_KINDS
from ctrlflow.experiments import MAX_SAVED_TRAJECTORIES, example_config, run_experiment
from ctrlflow.flow import integrate_closed_loop_batch
from ctrlflow.interpolants import BROCKETT_HORIZON
from ctrlflow.ode import uniform_grid
from ctrlflow.regression import FeedbackLaw
from ctrlflow.systems import builtin_system
from ctrlflow.trajectory import grid_nodes, read_table, read_trajectories

GOLDEN = Path(__file__).with_name("golden_metrics.json")

_STABILIZE = {
    "n_train": 48,
    "n_eval": 16,
    "noising": {"n_grid": 100, "n_time_samples": 10},
    "evaluation": {"n_grid": 40},
}

# case name -> (kind, overrides merged one level deep into the example)
CASES = {
    "transport_linear": (
        "transport_linear",
        {
            "n_train": 32,
            "n_eval": 16,
            "interpolant": {"n_grid": 200},
            "evaluation": {"n_grid": 40},
        },
    ),
    "output_transport": (
        "output_transport",
        {
            "n_train": 32,
            "n_eval": 16,
            "interpolant": {"n_grid": 200},
            "regression": {"method": "mlp", "hyperparams": {"steps": 200, "hidden": [16]}},
            "evaluation": {"n_grid": 40},
        },
    ),
    "brockett": (
        "brockett",
        {
            "n_train": 24,
            "n_eval": 16,
            "interpolant": {"n_grid": 200},
            "evaluation": {"n_grid": 40},
        },
    ),
    "stabilize_pmp": ("stabilize_pmp", _STABILIZE),
    # starts far outside the noised cloud, so the law extrapolates
    "stabilize_pmp_wide": (
        "stabilize_pmp",
        {
            **_STABILIZE,
            "evaluation": {
                "n_grid": 40,
                "start": {"kind": "gaussian", "params": {"mean": [0.0, 0.0, 0.0], "cov": 16.0}},
            },
        },
    ),
    "stabilize_random": ("stabilize_random", _STABILIZE),
}


def case_config(name: str) -> dict:
    kind, overrides = CASES[name]
    doc = example_config(kind)
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(doc.get(key), dict):
            doc[key] = {**doc[key], **value}
        else:
            doc[key] = value
    doc["name"] = f"golden_{name}"
    return doc


def hex_metrics(metrics: dict) -> dict:
    return {key: float(value).hex() for key, value in sorted(metrics.items())}


def check_run_dir(run: Path) -> None:
    """The run directory's files and trajectory tables (see module docstring)."""
    manifest = json.loads((run / "manifest.json").read_text())
    assert all(path.is_file() for path in run.iterdir())
    assert {path.name for path in run.iterdir()} == {*manifest["files"], "manifest.json"}

    ids, _, x, _ = read_trajectories(run / "eval_trajectories.csv")
    starts = read_table(run / "snapshot_initial.csv")[1][:, 1:]
    achieved = read_table(run / "snapshot_achieved.csv")[1][:, 1:]
    assert np.array_equal(np.unique(ids), np.arange(min(len(starts), MAX_SAVED_TRAJECTORIES)))
    for i in np.unique(ids):
        assert np.array_equal(x[ids == i][0], starts[i])
        assert np.array_equal(x[ids == i][-1], achieved[i])

    cfg = json.loads((run / "config.json").read_text())
    assert (run / "train_pairs.csv").exists() == (cfg["kind"] in TRANSPORT_KINDS)
    if cfg["kind"] in TRANSPORT_KINDS:
        K = cfg["interpolant"]["n_grid"]  # even in every case, as brockett needs
        nodes = grid_nodes(K, cfg["evaluation"]["n_grid"] + 1)
        pair_t_want = uniform_grid(_horizon(cfg), K)[nodes]
        ends = read_table(run / "snapshot_constructed_t1.csv")[1][:, 1:]
        pair_ids, pair_t, pair_x, pair_u = read_trajectories(run / "train_pairs.csv")
        data_ids, data_t, data_x, data_u = read_trajectories(run / "dataset.csv")
        n_saved = min(cfg["n_train"], MAX_SAVED_TRAJECTORIES)
        assert np.array_equal(np.unique(pair_ids), np.arange(n_saved))
        for i in np.unique(pair_ids):
            rows, data_rows = pair_ids == i, data_ids == i
            assert np.array_equal(pair_t[rows], pair_t_want)
            # the dataset's first row of a pair is its coupled start, at t = 0
            assert data_t[data_rows][0] == 0.0
            assert np.array_equal(pair_x[rows][0], data_x[data_rows][0])
            assert np.array_equal(pair_x[rows][-1], ends[i])
            shared = np.isin(data_t[data_rows], pair_t[rows])
            assert shared.sum() >= 2  # t = 0 and t = T at least
            in_pair = np.isin(pair_t[rows], data_t[data_rows])
            assert np.array_equal(pair_t[rows][in_pair], data_t[data_rows][shared])
            assert np.array_equal(pair_x[rows][in_pair], data_x[data_rows][shared])
            assert np.array_equal(pair_u[rows][in_pair], data_u[data_rows][shared])


@pytest.fixture(scope="module")
def golden_run(tmp_path_factory):
    """The report of a case, run and its run directory checked once per module."""
    reports = {}

    def run(name):
        if name not in reports:
            root = tmp_path_factory.mktemp(name)
            reports[name] = run_experiment(case_config(name), output_root=root)
            check_run_dir(Path(reports[name].output_dir))
        return reports[name]

    return run


def _horizon(cfg: dict) -> float:
    if cfg["kind"] == "brockett":
        return BROCKETT_HORIZON
    return cfg["interpolant" if cfg["kind"] in TRANSPORT_KINDS else "noising"]["T"]


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_metrics_bit_equal(name, golden_run):
    want = json.loads(GOLDEN.read_text())[name]
    assert hex_metrics(golden_run(name).metrics) == want


@pytest.mark.parametrize("name", sorted(CASES))
def test_saved_law_replays_rollout(name, golden_run):
    report = golden_run(name)
    # no golden rollout is excluded, so the snapshots hold the whole batch
    assert report.metrics["excluded_eval"] == 0
    run = Path(report.output_dir)
    cfg = json.loads((run / "config.json").read_text())
    sys = builtin_system(cfg["system"]["name"], **cfg["system"]["params"])
    law = FeedbackLaw.load(run / "law.json")
    starts = read_table(run / "snapshot_initial.csv")[1][:, 1:]
    achieved = read_table(run / "snapshot_achieved.csv")[1][:, 1:]
    _, states, _, _ = integrate_closed_loop_batch(
        sys, law, starts, _horizon(cfg), cfg["evaluation"]["n_grid"]
    )
    assert np.array_equal(states[:, -1], achieved)


def test_wide_start_case_extrapolates():
    # keeps the extrapolation counter covered by a nonzero golden value
    golden = json.loads(GOLDEN.read_text())
    assert float.fromhex(golden["stabilize_pmp_wide"]["extrapolation_count"]) > 0


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as root:
        doc = {
            name: hex_metrics(run_experiment(case_config(name), output_root=root).metrics)
            for name in sorted(CASES)
        }
    GOLDEN.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
