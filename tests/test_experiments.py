"""End-to-end runner: artifacts, determinism, stage failures, CLI, verify."""

import csv
import gc
import hashlib
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

import ctrlflow
from ctrlflow import experiments
from ctrlflow.cli import main
from ctrlflow.config import validate_config
from ctrlflow.errors import ConfigurationError, StageError
from ctrlflow.experiments import (
    ExperimentReport,
    _read_snapshot,
    _RunDir,
    _snapshot_times,
    emit_plot_data,
    example_config,
    run_experiment,
    verify,
)
from ctrlflow.flow import snapshots_from_arrays
from ctrlflow.interpolants import BROCKETT_HORIZON
from ctrlflow.ode import uniform_grid
from ctrlflow.seeding import derived_seed, substream
from ctrlflow.trajectory import read_trajectories


def cheap_brockett(**over):
    doc = example_config("brockett")
    doc.update(
        {
            "name": "tiny_brockett",
            "n_train": 24,
            "n_eval": 12,
            "interpolant": {"n_grid": 300},
            "evaluation": {"n_grid": 80},
        }
    )
    doc.update(over)
    return doc


def cheap_output(**over):
    doc = example_config("output_transport")
    doc.update(
        {
            "name": "tiny_output",
            "n_train": 16,
            "n_eval": 8,
            "interpolant": {**doc["interpolant"], "n_grid": 100},
            "regression": {"method": "mlp", "hyperparams": {"steps": 50, "hidden": [8]}},
            "evaluation": {"n_grid": 30},
        }
    )
    doc.update(over)
    return doc


def assert_hashes_match(run_dir: Path, manifest: dict):
    assert manifest["format"] == "ctrlflow.manifest.v2"
    assert set(manifest["sha256"]) == set(manifest["files"])
    for rel in manifest["files"]:
        digest = hashlib.sha256((run_dir / rel).read_bytes()).hexdigest()
        assert manifest["sha256"][rel] == digest, rel


def cheap_stabilize(**over):
    doc = example_config("stabilize_pmp")
    doc.update(
        {
            "name": "tiny_unicycle",
            "n_train": 48,
            "n_eval": 6,
            "noising": {
                "T": 1.0,
                "n_grid": 200,
                "n_time_samples": 10,
                "theta": 1.0,
                "p_scale": 2.0,
            },
            "regression": {"method": "kernel", "hyperparams": {"bandwidth_scale": 0.1}},
            "evaluation": {
                "n_grid": 60,
                "start": {"kind": "gaussian", "params": {"mean": [0.0, 0.0, 0.0], "cov": 0.25}},
                "success_radius": 0.2,
            },
        }
    )
    doc.update(over)
    return doc


def test_identity_transport_near_zero_w2(tmp_path):
    # mu0 = muT as literal sample lists with a paired coupling: the fitted
    # law sees only zero controls, so the flow must stay put
    pts = substream(21, "identity").standard_normal((48, 2)).tolist()
    doc = {
        "schema_version": 1,
        "kind": "transport_linear",
        "name": "identity",
        "master_seed": 2,
        "n_train": 48,
        "n_eval": 48,
        "system": {"name": "linear", "params": {"A": [[0.0, 0.0], [0.0, 0.0]],
                                                "B": [[1.0, 0.0], [0.0, 1.0]]}},
        "mu0": {"kind": "empirical", "params": {"points": pts}},
        "muT": {"kind": "empirical", "params": {"points": pts}},
        "coupling": "paired",
        "interpolant": {"T": 1.0, "n_grid": 200},
        "regression": {"method": "kernel", "hyperparams": {}},
        "evaluation": {"n_grid": 100},
    }
    report = run_experiment(doc, output_root=tmp_path)
    assert report.metrics["w2_terminal"] <= 1.0e-3
    assert report.metrics["max_endpoint_error"] <= 1.0e-8


def _spy_w2(monkeypatch) -> list:
    """Record which W2 the pipeline takes, as ("exact" | "sliced", seed)."""
    calls = []
    exact, sliced = experiments.wasserstein2, experiments.sliced_wasserstein2

    def spy_exact(a, b):
        calls.append(("exact", None))
        return exact(a, b)

    def spy_sliced(a, b, seed):
        calls.append(("sliced", seed))
        return sliced(a, b, seed=seed)

    monkeypatch.setattr(experiments, "wasserstein2", spy_exact)
    monkeypatch.setattr(experiments, "sliced_wasserstein2", spy_sliced)
    return calls


def test_w2_is_exact_for_equal_counts_within_the_cap(tmp_path, monkeypatch):
    calls = _spy_w2(monkeypatch)
    report = run_experiment(cheap_brockett(), output_root=tmp_path)
    w2_metrics = [key for key in report.metrics if key.startswith("w2_")]
    # construction terminal, rollout terminal and four snapshot fractions
    assert len(w2_metrics) == 6
    assert calls == [("exact", None)] * 6


def test_output_run_with_more_rollouts_than_pairs_scores_terminal_w2_sliced(
    tmp_path, monkeypatch
):
    # the rollouts' state-space W2 compares n_eval end states with the n_train
    # coupled states, so unequal counts take the sliced path instead of failing
    calls = _spy_w2(monkeypatch)
    doc = cheap_output(n_train=8, n_eval=16)
    report = run_experiment(doc, output_root=tmp_path)
    assert np.isfinite(report.metrics["w2_terminal"])
    term_seed = derived_seed(doc["master_seed"], "w2", "term")
    assert [call for call in calls if call[0] == "sliced"] == [("sliced", term_seed)]
    # construction (state and output), output terminal and every marginal
    assert len(calls) == sum(key.startswith("w2_") for key in report.metrics)


def test_run_writes_manifest_report_and_hashes(tmp_path):
    doc = cheap_brockett()
    report = run_experiment(doc, output_root=tmp_path)
    run_dir = Path(report.output_dir)
    assert run_dir.parent == tmp_path

    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["partial"] is False
    assert manifest["config_hash"] == validate_config(doc).hash
    assert manifest["files"] == report.manifest
    assert manifest["files"][0] == "config.json" and manifest["files"][-1] == "report.json"
    assert_hashes_match(run_dir, manifest)
    # the manifest is the only provenance record: no per-file sidecars
    assert not list(run_dir.rglob("*.sidecar.json"))
    assert not list(run_dir.rglob("*.meta.json"))
    on_disk = {str(p.relative_to(run_dir)) for p in run_dir.rglob("*") if p.is_file()}
    assert on_disk == set(manifest["files"]) | {"manifest.json"}

    assert all(np.isfinite(v) for v in report.metrics.values())
    assert report.wall_clock_s > 0
    loaded = ExperimentReport.load(run_dir / "report.json")
    assert loaded.metrics == report.metrics
    assert loaded.config_hash == report.config_hash


def test_run_determinism_bit_equal(tmp_path):
    a = run_experiment(cheap_brockett(), output_root=tmp_path / "a")
    b = run_experiment(cheap_brockett(), output_root=tmp_path / "b")
    assert a.metrics == b.metrics  # exact float equality, not approx
    assert a.config_hash == b.config_hash


def _broken_sample_points(spec, n, seed):
    # validation draws its own points, so a measure that fails only here
    # is a failure of the sample stage
    raise ValueError("sampling failed")


def cheap_linear(**over):
    doc = example_config("transport_linear")
    doc.update(
        {
            "name": "tiny_linear",
            "n_train": 16,
            "n_eval": 8,
            "interpolant": {"T": 1.0, "n_grid": 100},
            "evaluation": {"n_grid": 20},
        }
    )
    doc.update(over)
    return doc


@pytest.mark.parametrize(
    "steer, doc",
    [
        ("brockett_steer_pair_batch", cheap_brockett),
        ("feedback_steer_pair_batch", cheap_output),
        ("min_energy_pair_batch", cheap_linear),
    ],
)
def test_construct_keeps_no_steering_ensemble(steer, doc, tmp_path, monkeypatch):
    # construct takes copies of what the later stages read; from fit on,
    # neither the steering ensemble nor its arrays are alive
    refs, alive = [], []
    steer_fn, fit_fn = getattr(experiments, steer), experiments.fit_feedback

    def recording_steer(*args, **kwargs):
        ens = steer_fn(*args, **kwargs)
        refs.extend(weakref.ref(obj) for obj in (ens, ens.states, ens.controls))
        return ens

    def checking_fit(*args, **kwargs):
        gc.collect()
        alive.extend(ref() is not None for ref in refs)
        return fit_fn(*args, **kwargs)

    monkeypatch.setattr(experiments, steer, recording_steer)
    monkeypatch.setattr(experiments, "fit_feedback", checking_fit)
    run_experiment(doc(), output_root=tmp_path)
    assert alive == [False, False, False]


def test_stage_failure_flags_partial_manifest(tmp_path, monkeypatch):
    monkeypatch.setattr(experiments, "_sample_points", _broken_sample_points)
    with pytest.raises(StageError) as err:
        run_experiment(cheap_brockett(), output_root=tmp_path)
    assert err.value.stage == "sample"
    run_dirs = list(tmp_path.iterdir())
    assert len(run_dirs) == 1
    manifest = json.loads((run_dirs[0] / "manifest.json").read_text())
    assert manifest["partial"] is True
    assert manifest["failed_stage"] == "sample"
    assert manifest["files"] == ["config.json"]
    assert_hashes_match(run_dirs[0], manifest)


def test_partial_manifest_hashes_files_written_before_failure(tmp_path, monkeypatch):
    def broken_save_dataset(data, path):
        raise OSError("disk full")

    monkeypatch.setattr(experiments, "save_dataset", broken_save_dataset)
    with pytest.raises(StageError) as err:
        run_experiment(cheap_brockett(), output_root=tmp_path)
    assert err.value.stage == "evaluate"
    (run_dir,) = tmp_path.iterdir()
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["partial"] is True and manifest["failed_stage"] == "evaluate"
    # everything up to the dataset is listed with its digest
    assert "snapshot_achieved.csv" in manifest["files"]
    assert "eval_trajectories.csv" in manifest["files"]
    assert "dataset.csv" not in manifest["files"]
    assert_hashes_match(run_dir, manifest)


def test_invalid_config_writes_nothing(tmp_path):
    doc = cheap_brockett()
    doc["interpolant"] = {"n_grid": -5}
    with pytest.raises(ConfigurationError):
        run_experiment(doc, output_root=tmp_path)
    assert list(tmp_path.iterdir()) == []


def test_n_eval_zero_headers_only(tmp_path):
    report = run_experiment(cheap_brockett(n_eval=0), output_root=tmp_path)
    run_dir = Path(report.output_dir)
    assert report.metrics["excluded_eval"] == 0
    assert report.metrics["extrapolation_count"] == 0
    assert "w2_terminal" not in report.metrics
    for name in ("snapshot_initial.csv", "snapshot_achieved.csv"):
        rows = (run_dir / name).read_text().strip().splitlines()
        assert len(rows) == 1 and rows[0].startswith("sample_id")
    rows = (run_dir / "eval_trajectories.csv").read_text().strip().splitlines()
    assert rows == ["traj_id,t,x_1,x_2,x_3,u_1,u_2"]
    # plot files degrade to headers as well
    for rel in emit_plot_data(run_dir):
        lines = (run_dir / rel).read_text().splitlines()
        assert lines[0].startswith("#")


def test_write_snapshot_csv_round_trip(tmp_path):
    pts = substream(41, "csv").standard_normal((4, 2))
    run = _RunDir(tmp_path, "abc")
    run.write_snapshot("snap.csv", pts, 2)
    with (tmp_path / "snap.csv").open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["sample_id", "x_1", "x_2"]
    got = np.array([[float(v) for v in r[1:]] for r in rows[1:]])
    assert np.array_equal(got, pts)
    assert np.array_equal(_read_snapshot(tmp_path / "snap.csv"), pts)
    assert run.files == ["snap.csv"]

    # an empty snapshot is header-only and reads back as (0, d)
    run.write_snapshot("empty.csv", np.empty((0, 3)), 3)
    assert (tmp_path / "empty.csv").read_bytes() == b"sample_id,x_1,x_2,x_3\r\n"
    assert _read_snapshot(tmp_path / "empty.csv").shape == (0, 3)


def test_half_horizon_snapshot_is_the_grid_node():
    # 0.5 * 4pi is one ulp off the middle node of the 200-step grid
    t_grid = uniform_grid(BROCKETT_HORIZON, 200)
    assert 0.5 * BROCKETT_HORIZON != t_grid[100]
    states = substream(43, "snap").standard_normal((5, 201, 3))
    times = _snapshot_times([0.25, 0.5, 0.123], BROCKETT_HORIZON, t_grid)
    assert times[:2] == [t_grid[50], t_grid[100]] and times[2] == 0.123 * BROCKETT_HORIZON
    quarter, half, _ = snapshots_from_arrays(t_grid, states, times)
    assert np.array_equal(quarter.points, states[:, 50])
    assert np.array_equal(half.points, states[:, 100])


def test_emit_plot_data_formats(tmp_path):
    doc = cheap_brockett()
    report = run_experiment(doc, output_root=tmp_path)
    run_dir = Path(report.output_dir)
    written = emit_plot_data(run_dir)
    scatter = (run_dir / "plot_scatter_achieved.dat").read_text().splitlines()
    assert len(scatter) - 1 == doc["n_eval"]  # one row per evaluation sample

    # plot files are appended to the manifest with their sha256
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["files"] == report.manifest + written
    assert_hashes_match(run_dir, manifest)
    assert not list(run_dir.glob("*.sidecar.json"))
    # emitting again rewrites the files without listing them twice
    assert emit_plot_data(run_dir) == written
    assert json.loads((run_dir / "manifest.json").read_text()) == manifest

    with pytest.raises(ConfigurationError, match="manifest"):
        emit_plot_data(tmp_path / "not_a_run")


def test_output_transport_run_plots(tmp_path):
    # trajectories are six-state, targets are 2-D outputs: the distance
    # series is measured in output space
    doc = cheap_output()
    report = run_experiment(doc, output_root=tmp_path)
    run_dir = Path(report.output_dir)
    assert main(["plot", str(run_dir)]) == 0
    dist = (run_dir / "plot_distance.dat").read_text().splitlines()
    assert len(dist) - 1 == doc["evaluation"]["n_grid"] + 1


def test_stabilize_run_plots_and_distance_series(tmp_path):
    doc = cheap_stabilize()
    report = run_experiment(doc, output_root=tmp_path)
    run_dir = Path(report.output_dir)
    emit_plot_data(run_dir)

    # gnuplot index convention: blocks split by a double blank line
    text = (run_dir / "plot_trajectories.dat").read_text()
    blocks = [b for b in text.split("\n\n\n") if b.strip()]
    n_kept = doc["n_eval"] - report.metrics["excluded_eval"]
    assert len(blocks) == min(n_kept, 32)
    for block in blocks:
        rows = [r for r in block.splitlines() if r and not r.startswith("#")]
        assert len(rows) == doc["evaluation"]["n_grid"] + 1

    dist = (run_dir / "plot_distance.dat").read_text().splitlines()
    assert dist[0].startswith("#")
    assert dist[0].split(":")[-1].split() == ["t", "median", "p90", "mean"]
    assert len(dist) - 1 == doc["evaluation"]["n_grid"] + 1


def test_stabilize_pilot_report_contract(tmp_path):
    # pilot-sized run: the report carries the distance metrics and the
    # manifest points at the stored dataset and evaluation trajectory tables
    doc = example_config("stabilize_pmp")
    doc["n_train"] = 400
    doc["n_eval"] = 100
    report = run_experiment(doc, output_root=tmp_path)
    for key in (
        "median_initial_distance",
        "median_terminal_distance",
        "p90_terminal_distance",
        "frac_within_radius",
        "distance_ratio",
        "hamiltonian_drift_max",
        "fit_loss",
    ):
        assert key in report.metrics
    run_dir = Path(report.output_dir)
    for name in ("eval_trajectories.csv", "dataset.csv", "law.json"):
        assert name in report.manifest and (run_dir / name).exists()
    ids = read_trajectories(run_dir / "eval_trajectories.csv")[0]
    assert np.array_equal(np.unique(ids), np.arange(32))
    assert "train_pairs.csv" not in report.manifest  # stabilize runs steer no pairs


def test_cli_run_plot_and_exit_codes(tmp_path, capsys, monkeypatch):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cheap_brockett(n_train=16, n_eval=8)))
    root = tmp_path / "out"
    assert main(["run", str(cfg_path), "--output-root", str(root)]) == 0
    out = capsys.readouterr().out
    assert "run complete" in out and "w2_terminal" in out
    run_dir = next(p for p in root.iterdir() if p.is_dir())
    assert main(["plot", str(run_dir)]) == 0

    # config errors exit 2 (spec: schema error, nothing written)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cheap_brockett(n_train=0)))
    assert main(["run", str(bad), "--output-root", str(tmp_path / "none")]) == 2
    assert not (tmp_path / "none").exists()
    assert main(["run", str(tmp_path / "missing.json")]) == 2
    assert main(["verify", "bogus"]) == 2

    # a measure that does not match the system is a config error
    bad_dim = cheap_brockett()
    bad_dim["mu0"] = {"kind": "gaussian", "params": {"mean": [0.0, 0.0], "cov": 1.0}}
    bad.write_text(json.dumps(bad_dim))
    assert main(["run", str(bad), "--output-root", str(tmp_path / "none")]) == 2
    assert not (tmp_path / "none").exists()

    # stage failures exit 3 and leave the partial marker
    with monkeypatch.context() as patch:
        patch.setattr(experiments, "_sample_points", _broken_sample_points)
        assert main(["run", str(cfg_path), "--output-root", str(tmp_path / "s")]) == 3
    capsys.readouterr()

    # env var supplies the output root when the flag is absent
    env_root = tmp_path / "env_root"
    monkeypatch.setenv("CTRLFLOW_OUTPUT_ROOT", str(env_root))
    assert main(["run", str(cfg_path)]) == 0
    assert any(env_root.iterdir())
    capsys.readouterr()


def test_cli_overrides_and_describe(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cheap_brockett(n_train=16, n_eval=8)))
    assert main([
        "run", str(cfg_path), "--output-root", str(tmp_path),
        "--n-eval", "4", "--name", "renamed", "--master-seed", "9",
    ]) == 0
    out = capsys.readouterr().out
    assert "name=renamed" in out
    assert (tmp_path / "cfg.json").exists()

    assert main(["describe-systems"]) == 0
    out = capsys.readouterr().out
    for name in ("brockett", "unicycle", "martinet", "linear", "six_state_default"):
        assert name in out

    assert main(["example-config", "brockett"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "brockett"


def test_module_entry_point():
    # the child interpreter finds the package where this one imported it from
    package_parent = str(Path(ctrlflow.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [package_parent, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "ctrlflow", "describe-systems"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "unicycle" in proc.stdout


def test_verify_fast_all_pass(capsys):
    results = verify("fast")
    assert results
    for row in results:
        assert set(row) >= {"check", "value", "tolerance", "comparison", "passed"}
        assert row["passed"], row
    assert main(["verify", "fast"]) == 0
    out = capsys.readouterr().out
    assert "checks passed" in out


def test_verify_exits_1_when_a_check_fails(capsys, monkeypatch):
    failing = {"check": "broken", "value": 1.0, "tolerance": 0.0, "comparison": "<=",
               "passed": False}
    passing = dict(failing, check="fine", value=0.0, passed=True)
    monkeypatch.setattr("ctrlflow.cli.verify", lambda suite, output_root=None: [passing, failing])
    assert main(["verify", "fast"]) == 1
    assert "1/2 checks passed" in capsys.readouterr().out


def test_verify_full_writes_results_json(tmp_path):
    results = verify("full", output_root=tmp_path)
    doc = json.loads((tmp_path / "verify_full.json").read_text())
    assert doc["suite"] == "full"
    assert [r["check"] for r in doc["results"]] == [r["check"] for r in results]
    for row in results:
        assert row["passed"], row
