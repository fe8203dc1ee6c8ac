"""Config schema: strict validation, defaults, overrides, hashing."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctrlflow import config as config_module
from ctrlflow.config import (
    KINDS,
    SCHEMA_VERSION,
    KIND_SPECS,
    TRANSPORT_KINDS,
    apply_overrides,
    config_hash,
    fraction_label,
    load_config,
    validate_config,
)
from ctrlflow.errors import ConfigurationError
from ctrlflow.experiments import example_config, run_experiment
from ctrlflow.interpolants import BROCKETT_MIN_GRID
from ctrlflow.measures import COUPLING_KINDS, EXACT_W2_MAX_N, sample_measure
from ctrlflow.regression import LAWS, RegressionDataset, fit_feedback


def test_example_configs_validate():
    for kind in KINDS:
        cfg = validate_config(example_config(kind))
        assert cfg.kind == kind
        assert len(cfg.hash) == 64
        assert int(cfg.hash, 16) >= 0


def test_unknown_top_level_key_rejected():
    doc = example_config("brockett")
    doc["surprise"] = 1
    with pytest.raises(ConfigurationError, match="surprise"):
        validate_config(doc)


def test_unknown_nested_keys_rejected():
    for section, key in [
        ("system", "order"),
        ("interpolant", "dt"),
        ("regression", "loss"),
        ("evaluation", "plots"),
    ]:
        doc = example_config("transport_linear")
        doc[section][key] = 1
        with pytest.raises(ConfigurationError, match=key):
            validate_config(doc)
    doc = example_config("stabilize_pmp")
    doc["noising"]["gamma"] = 0.5
    with pytest.raises(ConfigurationError, match="gamma"):
        validate_config(doc)


def test_schema_version_required_and_checked():
    doc = example_config("brockett")
    del doc["schema_version"]
    with pytest.raises(ConfigurationError, match="schema_version"):
        validate_config(doc)
    doc["schema_version"] = SCHEMA_VERSION + 1
    with pytest.raises(ConfigurationError, match="unsupported"):
        validate_config(doc)


def test_bool_rejected_where_int_expected():
    doc = example_config("brockett")
    doc["n_train"] = True
    with pytest.raises(ConfigurationError, match="n_train"):
        validate_config(doc)


def test_negative_horizon_rejected():
    for bad in (-1.0, math.nan, math.inf, -math.inf):
        doc = example_config("transport_linear")
        doc["interpolant"]["T"] = bad
        with pytest.raises(ConfigurationError, match="positive"):
            validate_config(doc)
        doc = example_config("stabilize_pmp")
        doc["noising"]["T"] = bad
        with pytest.raises(ConfigurationError, match="positive"):
            validate_config(doc)
    doc = example_config("stabilize_pmp")
    doc["evaluation"]["success_radius"] = math.nan
    with pytest.raises(ConfigurationError, match="success_radius"):
        validate_config(doc)
    doc = example_config("stabilize_pmp")
    doc["noising"]["blowup"] = math.inf  # no size threshold
    assert validate_config(doc).noising["blowup"] == math.inf
    doc["noising"]["blowup"] = math.nan
    with pytest.raises(ConfigurationError, match="blowup"):
        validate_config(doc)


def test_sample_counts_validated():
    doc = example_config("brockett")
    doc["n_train"] = 0
    with pytest.raises(ConfigurationError, match="n_train"):
        validate_config(doc)
    doc = example_config("brockett")
    doc["n_eval"] = -1
    with pytest.raises(ConfigurationError, match="n_eval"):
        validate_config(doc)
    doc["n_eval"] = 0  # allowed: construction-only run
    assert validate_config(doc).n_eval == 0


def test_transport_rejects_stabilize_sections():
    doc = example_config("transport_linear")
    doc["target"] = {"kind": "dirac", "params": {"point": [0.0, 0.0]}}
    with pytest.raises(ConfigurationError, match="target"):
        validate_config(doc)
    doc = example_config("brockett")
    doc["noising"] = {"T": 1.0}
    with pytest.raises(ConfigurationError, match="noising"):
        validate_config(doc)


def test_stabilize_rejects_transport_sections():
    for key, value in [
        ("mu0", {"kind": "gaussian", "params": {}}),
        ("muT", {"kind": "gaussian", "params": {}}),
        ("coupling", "independent"),
        ("interpolant", {"T": 1.0}),
    ]:
        doc = example_config("stabilize_pmp")
        doc[key] = value
        with pytest.raises(ConfigurationError, match=key):
            validate_config(doc)


def test_system_allow_list_per_kind():
    doc = example_config("brockett")
    doc["system"] = {"name": "unicycle", "params": {}}
    with pytest.raises(ConfigurationError, match="supports systems"):
        validate_config(doc)
    doc = example_config("stabilize_pmp")
    doc["system"] = {"name": "six_state_default", "params": {}}
    with pytest.raises(ConfigurationError, match="supports systems"):
        validate_config(doc)
    doc = example_config("stabilize_pmp")
    doc["system"] = {"name": "not_a_system", "params": {}}
    with pytest.raises(ConfigurationError, match="system.name"):
        validate_config(doc)


def test_linear_system_params():
    doc = example_config("transport_linear")
    doc["system"] = {"name": "linear", "params": {"A": [[0.0]]}}
    with pytest.raises(ConfigurationError, match="A and B"):
        validate_config(doc)
    doc["system"] = {"name": "six_state_default", "params": {"extra": 1}}
    with pytest.raises(ConfigurationError, match="takes no params"):
        validate_config(doc)


def test_poles_must_be_negative():
    doc = example_config("output_transport")
    doc["interpolant"]["poles"] = [-2.0, 1.0]
    with pytest.raises(ConfigurationError, match="negative"):
        validate_config(doc)
    doc["interpolant"]["poles"] = []
    with pytest.raises(ConfigurationError, match="negative"):
        validate_config(doc)
    doc["interpolant"]["poles"] = [-2.0, -math.inf]
    with pytest.raises(ConfigurationError, match="negative"):
        validate_config(doc)


def test_noising_schema_per_kind():
    doc = example_config("stabilize_pmp")
    doc["noising"]["sigma"] = 1.0  # randomized-only key
    with pytest.raises(ConfigurationError, match="sigma"):
        validate_config(doc)
    doc = example_config("stabilize_random")
    doc["noising"]["theta"] = 1.0  # extremal-only key
    with pytest.raises(ConfigurationError, match="theta"):
        validate_config(doc)
    doc = example_config("stabilize_random")
    doc["noising"]["sigma"] = -0.5
    with pytest.raises(ConfigurationError, match="sigma"):
        validate_config(doc)
    doc["noising"]["sigma"] = math.inf
    with pytest.raises(ConfigurationError, match="sigma"):
        validate_config(doc)
    doc["noising"]["sigma"] = 0.0  # degenerate but legal
    assert validate_config(doc).noising["sigma"] == 0.0
    doc = example_config("stabilize_pmp")
    doc["noising"]["adjoint_sign"] = "canonical"  # removed knob: now an unknown key
    with pytest.raises(ConfigurationError, match="unknown key.*adjoint_sign"):
        validate_config(doc)
    doc = example_config("transport_linear")
    doc["interpolant"]["n_quad"] = 256  # removed knob: the Gramian is exact
    with pytest.raises(ConfigurationError, match="unknown key.*n_quad"):
        validate_config(doc)
    # removed knobs: the sample counts pick exact or sliced W2
    for key, value in (("w2", "exact"), ("n_projections", 128)):
        doc = example_config("transport_linear")
        doc["evaluation"][key] = value
        with pytest.raises(ConfigurationError, match=f"unknown key.*{key}"):
            validate_config(doc)
    doc = example_config("stabilize_pmp")
    doc["noising"]["n_time_samples"] = 1
    with pytest.raises(ConfigurationError, match="n_time_samples"):
        validate_config(doc)


def test_evaluation_defaults_and_ranges():
    doc = example_config("transport_linear")
    del doc["evaluation"]
    cfg = validate_config(doc)
    ev = cfg.evaluation
    assert ev["n_grid"] == 300
    assert ev["snapshot_fractions"] == [0.25, 0.5, 0.75, 1.0]
    assert "start" not in ev and "success_radius" not in ev

    doc = example_config("stabilize_pmp")
    del doc["evaluation"]
    ev = validate_config(doc).evaluation
    assert ev["start"]["kind"] == "gaussian"
    assert ev["success_radius"] == 0.2
    doc = example_config("stabilize_random")
    del doc["evaluation"]
    ev = validate_config(doc).evaluation
    assert ev["start"] == {"kind": "bootstrap", "params": {"jitter": 0.0}}

    # entries that are not real numbers, bools included, fail here too
    for fracs in ([0.5, 1.5], ["x"], [{}], ["0.5"], [True], [0.5, None]):
        doc = example_config("transport_linear")
        doc["evaluation"]["snapshot_fractions"] = fracs
        with pytest.raises(ConfigurationError, match=r"evaluation\.snapshot_fractions"):
            validate_config(doc)
    doc = example_config("transport_linear")
    doc["evaluation"]["snapshot_fractions"] = [0, 0.5, 1]
    assert validate_config(doc).evaluation["snapshot_fractions"] == [0.0, 0.5, 1.0]
    doc = example_config("transport_linear")
    doc["evaluation"]["start"] = {"kind": "dirac", "params": {"point": [0.0, 0.0]}}
    with pytest.raises(ConfigurationError, match="start"):
        validate_config(doc)


def test_snapshot_fractions_with_one_label_rejected():
    # metric keys and snapshot file names carry fraction_label(f): two
    # fractions with one label would report one metric and write one file
    for fracs in ([0.1234561, 0.1234564, 0.5, 0.5], [0.5, 0.5], [1, 1.0], [0.3, 0.30000001]):
        for kind in ("brockett", "stabilize_pmp"):
            doc = example_config(kind)
            doc["evaluation"]["snapshot_fractions"] = fracs
            with pytest.raises(ConfigurationError, match=r"evaluation\.snapshot_fractions"):
                validate_config(doc)
    doc = example_config("brockett")
    doc["evaluation"]["snapshot_fractions"] = [0.123456, 0.123457, 0.5]
    cfg = validate_config(doc)
    assert [fraction_label(f) for f in cfg.evaluation["snapshot_fractions"]] == [
        "0.123456", "0.123457", "0.5"]


def test_bootstrap_start_jitter_validated():
    doc = example_config("stabilize_random")
    for bad in (-1.0, math.nan):
        doc["evaluation"]["start"] = {"kind": "bootstrap", "params": {"jitter": bad}}
        with pytest.raises(ConfigurationError, match="jitter"):
            validate_config(doc)


def test_coupling_kind_checked():
    doc = example_config("transport_linear")
    doc["coupling"] = "sorted"
    with pytest.raises(ConfigurationError, match="coupling"):
        validate_config(doc)


def test_measure_kind_checked():
    doc = example_config("transport_linear")
    doc["mu0"] = {"kind": "lebesgue", "params": {}}
    with pytest.raises(ConfigurationError, match="mu0.kind"):
        validate_config(doc)


def test_unknown_hyperparams_rejected_per_method():
    doc = example_config("stabilize_pmp")
    doc["regression"]["hyperparams"] = {"bandwith_scale": 0.05}
    with pytest.raises(ConfigurationError, match="bandwith_scale"):
        validate_config(doc)
    doc["regression"] = {"method": "knn", "hyperparams": {"steps": 10}}
    with pytest.raises(ConfigurationError, match="steps"):
        validate_config(doc)
    doc["regression"] = {"method": "knn", "hyperparams": {"k": 4, "time_scale": 2.0}}
    assert validate_config(doc).regression["hyperparams"] == {"k": 4, "time_scale": 2.0}


# (method, hyperparams, key named in the error); transport_linear's system
# has two states, so a per-feature bandwidth has three entries (t and x)
BAD_HYPERPARAMS = [
    ("kernel", {"bandwidth_scale": -1.0}, "bandwidth_scale"),
    ("kernel", {"bandwidth_scale": 0}, "bandwidth_scale"),
    ("kernel", {"bandwidth": 0.0}, "bandwidth"),
    ("kernel", {"bandwidth": [0.1, 0.1]}, "bandwidth"),
    ("kernel", {"bandwidth": [0.1, -0.1, 0.1]}, "bandwidth"),
    ("kernel", {"time_scale": 0.0}, "time_scale"),
    ("knn", {"k": 0}, "k"),
    ("knn", {"k": -3}, "k"),
    ("knn", {"k": 2.5}, "k"),
    ("knn", {"k": True}, "k"),
    ("knn", {"time_scale": math.nan}, "time_scale"),
    ("mlp", {"hidden": [16, 0]}, "hidden"),
    ("mlp", {"hidden": 16}, "hidden"),
    ("mlp", {"steps": 0}, "steps"),
    ("mlp", {"batch_size": -1}, "batch_size"),
    ("mlp", {"lr": math.inf}, "lr"),
    ("mlp", {"lr_decay": 0.0}, "lr_decay"),
]


@pytest.mark.parametrize("method, hp, key", BAD_HYPERPARAMS)
def test_bad_hyperparameter_values_rejected_before_compute(method, hp, key, monkeypatch):
    doc = example_config("transport_linear")
    doc["regression"] = {"method": method, "hyperparams": hp}
    with pytest.raises(ConfigurationError, match=rf"'regression\.hyperparams\.{key}'"):
        validate_config(doc)
    # fit_feedback runs the same check before it fits anything
    def fit(*args):
        raise AssertionError("fit ran")

    monkeypatch.setattr(LAWS[method], "fit", fit)
    rng = np.random.default_rng(0)
    data = RegressionDataset(t=rng.uniform(size=20), x=rng.standard_normal((20, 2)),
                             u=rng.standard_normal((20, 1)), traj_id=np.arange(20))
    with pytest.raises(ConfigurationError, match=rf"'hyperparams\.{key}'"):
        fit_feedback(data, method=method, hyperparams=hp)


def test_good_hyperparameter_values_pass_as_given():
    for method, hp in [
        ("kernel", {"bandwidth": [0.1, 0.2, 0.3], "bandwidth_scale": 2, "time_scale": 1.5}),
        ("kernel", {"bandwidth": 0.5, "time_scale": None}),
        ("knn", {"k": 1}),
        ("mlp", {"hidden": [], "steps": 1, "batch_size": 1, "lr": 1e-3, "lr_decay": 10}),
    ]:
        doc = example_config("transport_linear")
        doc["regression"] = {"method": method, "hyperparams": hp}
        assert validate_config(doc).regression == {"method": method, "hyperparams": hp}


def test_uniform_sphere_dim_checked():
    for params, ok in [
        ({"dim": 2, "center": [0.0, 0.0, 0.0]}, False),
        ({"dim": 2.5}, False),
        ({"dim": 0}, False),
        ({"dim": True}, False),
        ({"dim": 2, "center": [1.0, 1.0], "radius": 0.5}, True),
        ({"dim": 2}, True),
        ({"center": [1.0, 1.0]}, True),
    ]:
        doc = example_config("transport_linear")
        doc["mu0"] = {"kind": "uniform_sphere", "params": params}
        if ok:
            assert validate_config(doc).mu0["params"] == params
        else:
            with pytest.raises(ConfigurationError, match=r"mu0\.params\.dim"):
                validate_config(doc)


def test_uniform_sphere_radius_and_center_checked_before_sample():
    # each of these used to pass validation and fail in stage sample
    for params, word in [
        ({"radius": -1.0}, r"mu0\.params\.radius"),
        ({"dim": 2, "radius": -0.5}, r"mu0\.params\.radius"),
        ({"radius": [1.0]}, r"mu0\.params\.radius"),
        ({"center": 1.0}, r"mu0\.params\.center"),
        ({"center": 1.0, "radius": 2.0}, r"mu0\.params\.center"),
    ]:
        doc = example_config("transport_linear")
        doc["mu0"] = {"kind": "uniform_sphere", "params": params}
        with pytest.raises(ConfigurationError, match=word):
            validate_config(doc)
    # a scalar center with a dim broadcasts; radius 0 is a point
    for params in ({"dim": 2, "center": 1.0}, {"center": [0.0, 0.0], "radius": 0}):
        doc = example_config("transport_linear")
        doc["mu0"] = {"kind": "uniform_sphere", "params": params}
        assert validate_config(doc).mu0["params"] == params
        points = sample_measure("uniform_sphere", params, 8, seed=0).points
        assert points.shape == (8, 2) and np.all(np.isfinite(points))


def test_measures_are_drawn_from_before_compute():
    # each of these used to pass validation and fail in stage sample or integrate
    gauss = {"kind": "gaussian", "params": {"mean": [0.0, 0.0]}}
    for kind, section, spec, word in [
        ("stabilize_pmp", "start", {"kind": "gaussian", "params": {"mean": [0.0, 0.0]}},
         r"evaluation\.start"),
        ("stabilize_pmp", "target", {"kind": "dirac", "params": {"point": [0.0, 0.0]}}, "target"),
        ("transport_linear", "muT", {"kind": "dirac", "params": {"point": [0.0, 0.0, 0.0]}}, "muT"),
        ("output_transport", "muT", {"kind": "gaussian", "params": {"mean": [0.0] * 6}}, "muT"),
        ("transport_linear", "mu0", {"kind": "mixture", "params": {"components": [
            {**gauss, "weight": -1.0}, gauss]}}, "mu0"),
        ("transport_linear", "mu0", {"kind": "mixture", "params": {"components": [
            {**gauss, "weight": 0.0}]}}, "mu0"),
        ("transport_linear", "mu0", {"kind": "mixture", "params": {"components": [
            gauss, {"kind": "dirac", "params": {"point": [0.0]}}]}}, r"mu0\.params\.components\[1\]"),
        ("transport_linear", "mu0", {"kind": "uniform_box", "params": {
            "low": [0.0, 1.0], "high": [1.0, 0.0]}}, "mu0"),
        ("transport_linear", "mu0", {"kind": "uniform_box", "params": {
            "low": [0.0, 0.0], "high": [1.0, 1.0, 1.0]}}, "mu0"),
        ("transport_linear", "mu0", {"kind": "gaussian", "params": {
            "mean": [0.0, 0.0], "cov": [[1.0, 0.0, 0.0]]}}, "mu0"),
        ("transport_linear", "mu0", {"kind": "gaussian", "params": {
            "mean": [0.0, 0.0], "cov": [[1.0, 2.0], [2.0, 1.0]]}}, "mu0"),
        ("transport_linear", "mu0", {"kind": "gaussian", "params": {"mean": 0.0}}, "mu0"),
        ("transport_linear", "mu0", {"kind": "empirical", "params": {"points": []}}, "mu0"),
        ("transport_linear", "mu0", {"kind": "empirical", "params": {
            "points": [[0.0, 0.0], [1.0]]}}, "mu0"),
        ("transport_linear", "mu0", {"kind": "uniform_sphere", "params": {"dim": 3}}, "mu0"),
        ("transport_linear", "mu0", {"kind": "uniform_sphere", "params": {"center": []}},
         r"mu0\.params\.center"),
    ]:
        doc = example_config(kind)
        if section == "start":
            doc["evaluation"]["start"] = spec
        else:
            doc[section] = spec
        with pytest.raises(ConfigurationError, match=word):
            validate_config(doc)


def test_linear_system_matrices_checked_before_compute():
    doc = example_config("transport_linear")
    doc["system"] = {"name": "linear", "params": {"A": [[0.0, 1.0], [0.0]], "B": [[0.0], [1.0]]}}
    with pytest.raises(ConfigurationError, match="system.params"):
        validate_config(doc)
    doc["system"]["params"]["A"] = [[0.0, 1.0]]
    with pytest.raises(ConfigurationError, match="square"):
        validate_config(doc)


def test_measure_params_checked_per_kind():
    gauss = {"kind": "gaussian", "params": {"mean": [0.0, 0.0], "cov": 1.0}}
    for spec, word in [
        ({"kind": "gaussian", "params": {"cov": 1.0}}, "mean"),
        ({"kind": "gaussian", "params": {"mean": [0.0, 0.0], "std": 1.0}}, "std"),
        ({"kind": "dirac", "params": {}}, "point"),
        ({"kind": "uniform_box", "params": {"low": [0.0, 0.0]}}, "high"),
        ({"kind": "mixture", "params": {"components": []}}, "components"),
        ({"kind": "mixture", "params": {"components": [{"params": {}}]}}, r"components\[0\].*kind"),
        ({"kind": "mixture", "params": {"components": [gauss, {"kind": "dirac"}]}},
         r"components\[1\].*point"),
        ({"kind": "mixture", "params": {"components": [{**gauss, "weight": "x"}]}}, "weight"),
        # non-finite numbers fail here, not in fit or sample
        ({"kind": "gaussian", "params": {"mean": [float("nan"), 0.0]}}, r"mu0\.params\.mean\[0\]"),
        ({"kind": "gaussian", "params": {"mean": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0, math.inf]]}},
         r"cov\[1\]\[1\]"),
        ({"kind": "uniform_box", "params": {"low": [0.0, 0.0], "high": [1.0, -math.inf]}}, "high"),
        ({"kind": "empirical", "params": {"points": [[0.0, 0.0], [float("nan"), 1.0]]}}, "points"),
        ({"kind": "mixture", "params": {"components": [{**gauss, "weight": float("nan")}]}},
         r"components\[0\]\.weight"),
        ({"kind": "mixture", "params": {"components": [
            gauss, {"kind": "uniform_sphere", "params": {"radius": math.inf}}]}},
         r"components\[1\]\.params\.radius"),
        ({"kind": "gaussian", "params": {"mean": [0.0, "0"]}}, "mean"),
    ]:
        doc = example_config("transport_linear")
        doc["mu0"] = spec
        with pytest.raises(ConfigurationError, match=word):
            validate_config(doc)
    doc = example_config("transport_linear")
    doc["mu0"] = {"kind": "mixture", "params": {"components": [
        {**gauss, "weight": 2.0},
        {"kind": "uniform_sphere", "params": {"center": [1.0, 1.0], "radius": 0.5}},
    ]}}
    assert validate_config(doc).mu0 == doc["mu0"]
    doc = example_config("stabilize_pmp")
    doc["target"] = {"kind": "dirac", "params": {"pt": [0.0, 0.0, 0.0]}}
    with pytest.raises(ConfigurationError, match="pt"):
        validate_config(doc)


def test_brockett_interpolant_defaulted():
    doc = example_config("brockett")
    del doc["interpolant"]
    assert validate_config(doc).interpolant == {"n_grid": 4000}
    doc = example_config("transport_linear")
    del doc["interpolant"]
    with pytest.raises(ConfigurationError, match="interpolant"):
        validate_config(doc)


def test_name_and_seed_defaults():
    doc = example_config("brockett")
    del doc["name"]
    del doc["master_seed"]
    cfg = validate_config(doc)
    assert cfg.name == "brockett"
    assert cfg.master_seed == 0


def test_apply_overrides_scalar_fields_only():
    doc = example_config("brockett")
    out = apply_overrides(
        doc, {"master_seed": 99, "n_eval": 16, "name": "alt", "output_dir": "x"}
    )
    assert (out["master_seed"], out["n_eval"], out["name"]) == (99, 16, "alt")
    assert doc["master_seed"] == 3  # input doc untouched
    out = apply_overrides(doc, {"n_train": None})
    assert out["n_train"] == doc["n_train"]
    with pytest.raises(ConfigurationError, match="cannot be overridden"):
        apply_overrides(doc, {"kind": "brockett"})
    with pytest.raises(ConfigurationError, match="cannot be overridden"):
        apply_overrides(doc, {"noising": {}})


def test_hash_canonicalization():
    doc = example_config("stabilize_pmp")
    cfg = validate_config(doc)
    again = validate_config(example_config("stabilize_pmp"))
    assert cfg.hash == again.hash

    # raw-dict hashing sorts keys, so insertion order is irrelevant
    a = {"b": 1, "a": {"y": 2, "x": 3}}
    b = {"a": {"x": 3, "y": 2}, "b": 1}
    assert config_hash(a) == config_hash(b)

    # canonical dict re-validates to the same hash and drops unset fields
    canon = cfg.to_canonical_dict()
    assert "mu0" not in canon and "output_dir" not in canon
    assert validate_config(canon).hash == cfg.hash

    other = apply_overrides(doc, {"master_seed": 1234})
    assert validate_config(other).hash != cfg.hash


def test_load_config_roundtrip(tmp_path):
    doc = example_config("brockett")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    cfg = load_config(path)
    assert cfg.hash == validate_config(doc).hash
    cfg = load_config(path, overrides={"master_seed": 77})
    assert cfg.master_seed == 77

    with pytest.raises(ConfigurationError, match="not found"):
        load_config(tmp_path / "absent.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigurationError, match="not valid JSON"):
        load_config(bad)


# sha256 of each example config's canonical form: the run directory name and
# every stored config.json depend on it, so a schema change that moves one
# of these must be deliberate
EXAMPLE_HASHES = {
    "transport_linear": "1d5eb9fe9dc71ce212992bef1414250f95e7b53f39eda351bc71a12575529f83",
    "output_transport": "ce08d36c1ce0f8b0ec535d09aae27660723b99cfb692f619bd681d412fdeba6a",
    "brockett": "bf0d27e46448fbb69019b32fe77ac4ab582de6e767f9f76c95e5951f6c1a5a0a",
    "stabilize_pmp": "d39279c73977ec5a230d7beaa15f037a95ce073a6cb3ed0c49b3be517d091544",
    "stabilize_random": "03da9da1898a5e559b3b7d929d79991da4ea9d5f7e372639be9a83db9501996c",
}


def test_example_config_hashes_pinned():
    assert {kind: validate_config(example_config(kind)).hash for kind in KINDS} == EXAMPLE_HASHES


def _edit_in_place(value):
    # every dict gets a new key and every scalar in it a new value; every
    # list gets a new entry, after its own entries are edited
    if isinstance(value, dict):
        for key in list(value):
            if isinstance(value[key], (dict, list)):
                _edit_in_place(value[key])
            else:
                value[key] = 9.0
        value["edited"] = 9.0
    elif isinstance(value, list):
        for entry in value:
            if isinstance(entry, (dict, list)):
                _edit_in_place(entry)
        value.append(9.0)


def test_validated_config_shares_nothing_with_its_document():
    # the run directory name and config.json come from cfg.hash, so an edit
    # of the caller's document after validation must not reach the config:
    # the edit reaches every nested section, system.params,
    # regression.hyperparams and each measure's params among them
    for kind in KINDS:
        doc = example_config(kind)
        cfg = validate_config(doc)
        before, canon = cfg.hash, json.dumps(cfg.to_canonical_dict(), sort_keys=True)
        _edit_in_place(doc)
        assert cfg.hash == before, kind
        assert json.dumps(cfg.to_canonical_dict(), sort_keys=True) == canon, kind


def test_steering_preconditions_checked_before_construct(tmp_path):
    # each of these used to pass validation and fail in stage construct
    uncontrollable = {"A": [[0.0, 0.0], [0.0, 0.0]], "B": [[0.0], [1.0]]}
    for kind, section, key, value, word in [
        ("brockett", "interpolant", "n_grid", 4, r"'interpolant\.n_grid' must be >= 8"),
        ("output_transport", "interpolant", "poles", [-2.0, -2.4, -3.0],
         r"'interpolant\.poles'.*exactly 6 poles"),
        ("output_transport", "interpolant", "poles", [-2.0] * 6,
         r"'interpolant\.poles'.*multiplicity 6 exceeds input count 3"),
        ("transport_linear", "system", "params", uncontrollable,
         r"'system\.params'.*not controllable"),
    ]:
        doc = example_config(kind)
        doc[section][key] = value
        with pytest.raises(ConfigurationError, match=word):
            validate_config(doc)
        with pytest.raises(ConfigurationError, match=word):
            run_experiment(doc, tmp_path)
    assert list(tmp_path.iterdir()) == []
    # the bounds themselves pass
    doc = example_config("brockett")
    doc["interpolant"]["n_grid"] = 8
    assert validate_config(doc).interpolant == {"n_grid": 8}
    doc = example_config("output_transport")
    doc["interpolant"]["poles"] = [-1.0, -1.0, -1.0, -2.0, -2.0, -3]
    assert validate_config(doc).interpolant["poles"] == [-1.0, -1.0, -1.0, -2.0, -2.0, -3.0]


def _sections(kind):
    """(section, key) of every key the kind's own sections take."""
    spec = KIND_SPECS[kind]
    out = [("config", key) for key in ("name", *config_module._SCALARS)]
    if kind in TRANSPORT_KINDS:
        out.append(("config", "coupling"))
    for section in ("evaluation", "interpolant", "noising"):
        out += [(section, key) for key in getattr(spec, section) or {}]
    return out


def _set(doc, section, key, value):
    (doc if section == "config" else doc.setdefault(section, {}))[key] = value


# valid values for every section key; no rule ties n_eval to n_train or to
# the exact-W2 cap, since the sample counts pick the W2 a run reports
_POSITIVE = st.floats(1e-6, 1e6) | st.integers(1, 10**6)
_VALID = {
    "name": st.text(max_size=8),
    "master_seed": st.integers(-(2**62), 2**62),
    "output_dir": st.none() | st.text(min_size=1, max_size=8),
    "n_train": st.integers(1, 4 * EXACT_W2_MAX_N),
    "n_eval": st.integers(0, 4 * EXACT_W2_MAX_N),
    "coupling": st.sampled_from(COUPLING_KINDS),
    "T": _POSITIVE,
    "n_grid": st.integers(BROCKETT_MIN_GRID, 10**6),
    "poles": st.lists(st.integers(1, 1000), min_size=6, max_size=6, unique=True).map(
        lambda ps: [-p / 100 for p in ps]),
    "n_time_samples": st.integers(2, 10**4),
    "blowup": _POSITIVE | st.just(math.inf),
    "theta": _POSITIVE,
    "p_scale": _POSITIVE,
    "sigma": st.floats(0.0, 1e6) | st.integers(0, 10**6),
    "snapshot_fractions": st.lists(
        st.floats(0.0, 1.0) | st.integers(0, 1), max_size=6, unique_by=fraction_label),
    "start": st.floats(0.0, 10.0).map(lambda j: {"kind": "bootstrap", "params": {"jitter": j}})
    | st.just({"kind": "dirac", "params": {"point": [0.5, -0.5, 0.0]}}),
    "success_radius": _POSITIVE,
}


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(KINDS), data=st.data())
def test_walker_round_trips_drawn_sections(kind, data):
    doc = example_config(kind)
    for section, key in _sections(kind):
        if key in ("n_train", "n_eval") or data.draw(st.booleans(), label=f"set {section}.{key}"):
            _set(doc, section, key, data.draw(_VALID[key], label=f"{section}.{key}"))
    cfg = validate_config(doc)
    canon = cfg.to_canonical_dict()
    again = validate_config(json.loads(json.dumps(canon)))
    assert again == cfg and again.hash == cfg.hash
    # canonical types: reals are floats, counts ints
    for section in ("interpolant", "noising", "evaluation"):
        for key, value in (canon.get(section) or {}).items():
            if key in ("T", "theta", "p_scale", "sigma", "blowup", "success_radius"):
                assert type(value) is float
            elif key.startswith("n_"):
                assert type(value) is int
    assert all(type(f) is float for f in cfg.evaluation["snapshot_fractions"])
    assert all(type(p) is float for p in (cfg.interpolant or {}).get("poles", []))


def _just_outside(rule):
    """Values one step past a number rule's bounds."""
    if rule.integral:
        out = [rule.low - 1 if rule.low_ok else rule.low]
    else:
        out = [math.nextafter(rule.low, -math.inf) if rule.low_ok else float(rule.low), math.nan]
        out += [] if rule.inf_ok else [math.inf]
    return out


def test_number_rules_reject_values_just_outside_their_bounds():
    checked = set()
    for kind in KINDS:
        for section, key in _sections(kind):
            rule = config_module._RULES[key]
            if not isinstance(rule, config_module._Num) or rule.low == -math.inf:
                continue
            for bad in _just_outside(rule):
                doc = example_config(kind)
                _set(doc, section, key, bad)
                with pytest.raises(ConfigurationError, match=rf"'{section}\.{key}' must be"):
                    validate_config(doc)
            checked.add(key)
    # the bootstrap start params go through the same walker
    for bad in _just_outside(config_module._RULES["jitter"]):
        doc = example_config("stabilize_random")
        doc["evaluation"]["start"] = {"kind": "bootstrap", "params": {"jitter": bad}}
        with pytest.raises(ConfigurationError, match=r"'evaluation\.start\.params\.jitter'"):
            validate_config(doc)
    checked.add("jitter")
    numbers = {k for k, r in config_module._RULES.items()
               if isinstance(r, config_module._Num) and r.low > -math.inf}
    assert checked == numbers


def test_every_rule_is_taken_by_some_section():
    # a rule that no top-level scalar, kind section or bootstrap param takes
    # checks nothing: the key it names has gone from the schema
    taken = {key for kind in KINDS for _, key in _sections(kind)} | {"jitter"}
    assert set(config_module._RULES) == taken
