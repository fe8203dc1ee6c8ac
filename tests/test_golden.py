"""Golden metrics: every report metric of reduced example configs, bit for bit.

Each case is ``example_config(kind)`` scaled down so that all of them run in
a few seconds.  ``golden_metrics.json`` holds the metrics of each case as
``float.hex`` strings; a run must reproduce every one exactly.  A change
that alters the numerics on purpose regenerates the file with

    PYTHONPATH=src python tests/test_golden.py

and says why in its description.
"""

import json
from pathlib import Path

import pytest

from ctrlflow.experiments import example_config, run_experiment

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
            "interpolant": {"n_grid": 200, "n_quad": 64},
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


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_metrics_bit_equal(name, tmp_path):
    want = json.loads(GOLDEN.read_text())[name]
    report = run_experiment(case_config(name), output_root=tmp_path)
    assert hex_metrics(report.metrics) == want


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
