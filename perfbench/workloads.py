"""Benchmark workloads: an example config kind plus overrides, and an accuracy gate.

Each workload is ``example_config(kind)`` with the overrides below merged in
(one level deep: a dict override updates the example's dict) and
``master_seed`` set to the benchmark's ``--seed``.  The gate is a sanity
bound on the report's accuracy metric that every seed must meet; a run
that misses it counts its evaluation rollouts as failed.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str
    why: str
    overrides: dict
    acc_metric: str  # report metric printed as acc.<name> and gated
    gate: float
    higher_is_better: bool
    tiny: dict = field(default_factory=dict)  # smoke-check overrides on top

    def passes(self, value: float) -> bool:
        return value >= self.gate if self.higher_is_better else value <= self.gate


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="stabilize_pmp",
            kind="stabilize_pmp",
            why=(
                "unicycle PMP noising, kernel law: many training rows, few queries per "
                "call, so dense predict (rollout and fit loss pass) dominates run time "
                "and peak memory"
            ),
            overrides={
                "n_train": 160,
                "n_eval": 32,
                "noising": {"n_grid": 300, "n_time_samples": 25},
                "evaluation": {"n_grid": 75},
            },
            acc_metric="frac_within_radius",
            # N(0, I) starts lie within 0.2 of the origin with probability ~1e-3
            gate=0.25,
            higher_is_better=True,
            tiny={
                "n_train": 8,
                "n_eval": 4,
                "noising": {"n_grid": 40, "n_time_samples": 5},
                "evaluation": {"n_grid": 5},
            },
        ),
        Workload(
            name="brockett_transport",
            kind="brockett",
            why=(
                "Brockett kernel transport: many queries against few training rows, "
                "the other side of the predict layer, plus steering and rhs calls"
            ),
            overrides={
                "n_train": 40,
                "n_eval": 256,
                "interpolant": {"n_grid": 1000},
                "evaluation": {"n_grid": 100},
            },
            acc_metric="w2_terminal",
            # W2(mu0, muT) is |(1, 1, 1)| = 1.73 before transport
            gate=1.4,
            higher_is_better=False,
            tiny={"n_train": 6, "n_eval": 8, "interpolant": {"n_grid": 60},
                  "evaluation": {"n_grid": 5}},
        ),
        Workload(
            name="output_mlp_wide",
            kind="output_transport",
            why=(
                "six-state output transport, MLP law, wide eval batch: bypasses the "
                "kernel path; exact W2, MLP fit/rollout and persistence carry the run"
            ),
            overrides={
                "n_train": 512,
                "n_eval": 512,
                "interpolant": {"n_grid": 400},
                "regression": {"method": "mlp", "hyperparams": {"steps": 2000, "hidden": [96, 96]}},
                "evaluation": {"n_grid": 100},
            },
            acc_metric="w2_terminal",
            # the output targets sit |(3, 3)| = 4.2 away from the start cloud
            gate=1.5,
            higher_is_better=False,
            tiny={
                "n_train": 8,
                "n_eval": 8,
                "interpolant": {"n_grid": 60},
                "regression": {"method": "mlp", "hyperparams": {"steps": 20, "hidden": [8]}},
                "evaluation": {"n_grid": 5},
            },
        ),
    )
}


def _merge(doc: dict, overrides: dict) -> None:
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(doc.get(key), dict):
            doc[key] = {**doc[key], **copy.deepcopy(value)}
        else:
            doc[key] = copy.deepcopy(value)


def make_config(workload: Workload, seed: int, example_config, tiny: bool = False) -> dict:
    """The config document a workload runs at ``seed``."""
    doc = example_config(workload.kind)
    _merge(doc, workload.overrides)
    if tiny:
        _merge(doc, workload.tiny)
    doc["master_seed"] = int(seed)
    doc["name"] = f"bench_{workload.name}"
    return doc
