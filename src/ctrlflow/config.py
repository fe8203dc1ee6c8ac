"""Experiment configuration: schema validation, defaults, hashing.

A config is a single JSON document with a versioned schema.  Validation is
strict: unknown keys anywhere (regression hyperparameters and measure
params included, per method and per measure kind) are rejected, required
keys must be present, and scalar ranges are checked before any compute
happens; hyperparameter values by the method's law class
(``regression.LAWS``).  Each measure section is drawn from once: its params
must sample, and its points must have the dimension of the system's state
(its output, for an ``output_transport`` muT).  CLI flags may override the
top-level scalar fields (master_seed, n_train, n_eval, name, output_dir)
prior to validation.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .errors import ConfigurationError
from .measures import COUPLING_KINDS, EXACT_W2_MAX_N, MEASURE_PARAMS, sample_measure
from .ode import DEFAULT_BLOWUP
from .regression import LAWS
from .systems import ControlAffineSystem, builtin_names, builtin_system

SCHEMA_VERSION = 1

KINDS = (
    "transport_linear",
    "output_transport",
    "brockett",
    "stabilize_pmp",
    "stabilize_random",
)
TRANSPORT_KINDS = ("transport_linear", "output_transport", "brockett")

MEASURE_KINDS = tuple(MEASURE_PARAMS)

# top-level scalar fields the CLI may override
OVERRIDABLE = ("master_seed", "n_train", "n_eval", "name", "output_dir")

_REQUIRED = object()


def _expect_mapping(name: str, value) -> dict:
    if not isinstance(value, dict):
        raise ConfigurationError(f"section '{name}' must be a JSON object")
    return value


def _check_keys(section: str, doc: dict, allowed) -> None:
    unknown = set(doc) - set(allowed)
    if unknown:
        raise ConfigurationError(
            f"unknown key(s) in '{section}': {sorted(unknown)}; allowed: {sorted(allowed)}"
        )


def _get(section: str, doc: dict, key: str, types, default=_REQUIRED):
    if key not in doc:
        if default is _REQUIRED:
            raise ConfigurationError(f"'{section}' is missing required key '{key}'")
        return default
    value = doc[key]
    if types is not None:
        # bool is an int subclass; reject it unless bool is explicitly allowed
        bad = not isinstance(value, types) or (
            isinstance(value, bool) and bool not in types
        )
        if bad:
            raise ConfigurationError(
                f"'{section}.{key}' has wrong type {type(value).__name__}"
            )
    return value


def _positive(section: str, key: str, value):
    if not 0 < value < math.inf:
        raise ConfigurationError(
            f"'{section}.{key}' must be positive and finite, got {value}"
        )
    return value


# measure params that hold numbers or (nested) lists of numbers
_NUMERIC_PARAMS = ("mean", "cov", "low", "high", "point", "points", "center", "radius")


def _finite(path: str, value) -> None:
    if isinstance(value, list):
        for i, v in enumerate(value):
            _finite(f"{path}[{i}]", v)
    elif isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ConfigurationError(f"'{path}' must hold finite numbers, got {value!r}")


def _check_measure_dim(path: str, got: int, dim: int, space: str) -> None:
    if got != dim:
        raise ConfigurationError(
            f"'{path}' has dimension {got}, expected the {space} dimension {dim}"
        )


def _validate_measure(path: str, doc, dim: int, space: str = "state", extra_keys=()) -> dict:
    """Check a measure section's keys and numbers, then draw one point from
    it: the draw must succeed and have dimension ``dim``, the ``space``
    dimension of the system."""
    doc = _expect_mapping(path, doc)
    _check_keys(path, doc, ("kind", "params") + tuple(extra_keys))
    kind = _get(path, doc, "kind", (str,))
    if kind not in MEASURE_KINDS:
        raise ConfigurationError(
            f"'{path}.kind' must be one of {list(MEASURE_KINDS)}, got '{kind}'"
        )
    params = _expect_mapping(f"{path}.params", _get(path, doc, "params", (dict,), {}))
    required, optional = MEASURE_PARAMS[kind]
    _check_keys(f"{path}.params", params, required + optional)
    for key in required:
        _get(f"{path}.params", params, key, None)
    for key in set(_NUMERIC_PARAMS) & set(params):
        _finite(f"{path}.params.{key}", params[key])
    if kind == "uniform_sphere":
        radius = params.get("radius", 1.0)
        if isinstance(radius, list) or radius < 0:
            raise ConfigurationError(
                f"'{path}.params.radius' must be a number >= 0, got {radius!r}"
            )
        center = params.get("center")
        if "dim" in params:
            sphere_dim = _get(f"{path}.params", params, "dim", (int,))
            if sphere_dim < 1 or (isinstance(center, list) and len(center) != sphere_dim):
                raise ConfigurationError(
                    f"'{path}.params.dim' must be a positive integer that agrees with "
                    f"center, got {sphere_dim} and center {center!r}"
                )
            # before the draw, which would allocate a row of this length
            _check_measure_dim(path, sphere_dim, dim, space)
        elif center is not None and not (isinstance(center, list) and center):
            # an empty center would be a sphere in R^0, which no draw leaves
            raise ConfigurationError(
                f"'{path}.params.center' must be a non-empty list when 'dim' is absent, "
                f"got {center!r}"
            )
    if kind == "mixture":
        comps = _get(f"{path}.params", params, "components", (list,))
        if not comps:
            raise ConfigurationError(f"'{path}.params.components' must not be empty")
        for i, comp in enumerate(comps):
            where = f"{path}.params.components[{i}]"
            _validate_measure(where, comp, dim, space, ("weight",))
            _finite(f"{where}.weight", _get(where, comp, "weight", (int, float), 1.0))
    # the shapes and values that only sampling reads: cov, box bounds,
    # mixture weights, empirical points
    try:
        drawn = sample_measure(kind, params, 1, 0)
    except (ConfigurationError, ValueError, TypeError) as exc:
        raise ConfigurationError(f"'{path}' cannot be sampled: {exc}") from exc
    _check_measure_dim(path, drawn.dim, dim, space)
    return {"kind": kind, "params": params}


def _validate_eval_start(path: str, doc, dim: int) -> dict:
    doc = _expect_mapping(path, doc)
    if doc.get("kind") == "bootstrap":
        _check_keys(path, doc, ("kind", "params"))
        params = _expect_mapping(f"{path}.params", doc.get("params", {}))
        _check_keys(f"{path}.params", params, ("jitter",))
        jitter = float(_get(f"{path}.params", params, "jitter", (int, float), 0.0))
        if not 0 <= jitter < math.inf:
            raise ConfigurationError(f"'{path}.params.jitter' must be finite and >= 0")
        return {"kind": "bootstrap", "params": {"jitter": jitter}}
    return _validate_measure(path, doc, dim)


def _validate_system(kind: str, doc) -> dict:
    doc = _expect_mapping("system", doc)
    _check_keys("system", doc, ("name", "params"))
    name = _get("system", doc, "name", (str,))
    if name not in builtin_names():
        raise ConfigurationError(f"'system.name' must be one of {builtin_names()}")
    params = _expect_mapping("system.params", _get("system", doc, "params", (dict,), {}))
    if name == "linear":
        _check_keys("system.params", params, ("A", "B"))
        if "A" not in params or "B" not in params:
            raise ConfigurationError("'system.params' needs matrices A and B for 'linear'")
    elif params:
        raise ConfigurationError(f"system '{name}' takes no params")
    allowed = {
        "transport_linear": ("linear", "six_state_default"),
        "output_transport": ("six_state_default",),
        "brockett": ("brockett",),
        "stabilize_pmp": ("unicycle", "brockett", "martinet"),
        "stabilize_random": ("unicycle", "brockett", "martinet"),
    }[kind]
    if name not in allowed:
        raise ConfigurationError(
            f"experiment kind '{kind}' supports systems {list(allowed)}, got '{name}'"
        )
    return {"name": name, "params": params}


def _build_system(system: dict) -> ControlAffineSystem:
    """A validated system section, built here so A and B are checked."""
    try:
        return builtin_system(system["name"], **system["params"])
    except ValueError as exc:  # a ragged A or B
        raise ConfigurationError(f"'system.params' must hold matrices: {exc}") from exc


def _validate_regression(doc, state_dim: int) -> dict:
    doc = _expect_mapping("regression", doc)
    _check_keys("regression", doc, ("method", "hyperparams"))
    method = _get("regression", doc, "method", (str,), "kernel")
    if method not in LAWS:
        raise ConfigurationError(
            f"'regression.method' must be one of {list(LAWS)}"
        )
    hp = _expect_mapping(
        "regression.hyperparams", _get("regression", doc, "hyperparams", (dict,), {})
    )
    LAWS[method].check_hyperparams(hp, "regression.hyperparams", z_dim=1 + state_dim)
    return {"method": method, "hyperparams": hp}


def _validate_interpolant(kind: str, doc) -> dict:
    doc = _expect_mapping("interpolant", doc)
    if kind == "brockett":
        _check_keys("interpolant", doc, ("n_grid",))
        n_grid = int(_get("interpolant", doc, "n_grid", (int,), 4000))
        _positive("interpolant", "n_grid", n_grid)
        return {"n_grid": n_grid}
    if kind == "transport_linear":
        _check_keys("interpolant", doc, ("T", "n_grid", "n_quad"))
        T = float(_get("interpolant", doc, "T", (int, float)))
        _positive("interpolant", "T", T)
        n_grid = int(_get("interpolant", doc, "n_grid", (int,), 2000))
        n_quad = int(_get("interpolant", doc, "n_quad", (int,), 256))
        _positive("interpolant", "n_grid", n_grid)
        _positive("interpolant", "n_quad", n_quad)
        return {"T": T, "n_grid": n_grid, "n_quad": n_quad}
    # output_transport: pole-placement steering toward lifted targets
    _check_keys("interpolant", doc, ("T", "n_grid", "poles"))
    T = float(_get("interpolant", doc, "T", (int, float)))
    _positive("interpolant", "T", T)
    n_grid = int(_get("interpolant", doc, "n_grid", (int,), 2000))
    _positive("interpolant", "n_grid", n_grid)
    poles = _get("interpolant", doc, "poles", (list,))
    if not poles or not all(
        isinstance(p, (int, float)) and -math.inf < p < 0 for p in poles
    ):
        raise ConfigurationError("'interpolant.poles' must be a list of negative reals")
    return {"T": T, "n_grid": n_grid, "poles": [float(p) for p in poles]}


def _validate_noising(kind: str, doc) -> dict:
    doc = _expect_mapping("noising", doc)
    common = ("T", "n_grid", "n_time_samples", "blowup")
    if kind == "stabilize_pmp":
        _check_keys("noising", doc, common + ("theta", "p_scale"))
    else:
        _check_keys("noising", doc, common + ("sigma",))
    T = float(_get("noising", doc, "T", (int, float)))
    _positive("noising", "T", T)
    n_grid = int(_get("noising", doc, "n_grid", (int,), 2000))
    _positive("noising", "n_grid", n_grid)
    n_time = int(_get("noising", doc, "n_time_samples", (int,), 25))
    if n_time < 2:
        raise ConfigurationError("'noising.n_time_samples' must be >= 2")
    blowup = float(_get("noising", doc, "blowup", (int, float), DEFAULT_BLOWUP))
    if not blowup > 0:  # +inf is allowed: no size threshold
        raise ConfigurationError(f"'noising.blowup' must be positive, got {blowup}")
    out = {"T": T, "n_grid": n_grid, "n_time_samples": n_time, "blowup": blowup}
    if kind == "stabilize_pmp":
        out["theta"] = _positive(
            "noising", "theta", float(_get("noising", doc, "theta", (int, float), 1.0))
        )
        out["p_scale"] = _positive(
            "noising", "p_scale", float(_get("noising", doc, "p_scale", (int, float), 1.0))
        )
    else:
        sigma = float(_get("noising", doc, "sigma", (int, float), 1.0))
        if not 0 <= sigma < math.inf:
            raise ConfigurationError(f"'noising.sigma' must be finite and >= 0, got {sigma}")
        out["sigma"] = sigma
    return out


def _validate_evaluation(kind: str, doc, state_dim: int) -> dict:
    doc = _expect_mapping("evaluation", doc)
    transport = kind in TRANSPORT_KINDS
    allowed = ["n_grid", "snapshot_fractions", "w2", "n_projections"]
    if not transport:
        allowed += ["start", "success_radius"]
    _check_keys("evaluation", doc, allowed)
    n_grid = int(_get("evaluation", doc, "n_grid", (int,), 300))
    _positive("evaluation", "n_grid", n_grid)
    fracs = _get("evaluation", doc, "snapshot_fractions", (list,), [0.25, 0.5, 0.75, 1.0])
    if any(isinstance(f, bool) or not isinstance(f, (int, float)) or not 0.0 <= f <= 1.0
           for f in fracs):
        raise ConfigurationError(
            f"'evaluation.snapshot_fractions' must be numbers in [0, 1], got {fracs!r}"
        )
    fracs = [float(f) for f in fracs]
    w2 = _get("evaluation", doc, "w2", (str,), "auto")
    if w2 not in ("auto", "exact", "sliced"):
        raise ConfigurationError("'evaluation.w2' must be auto, exact, or sliced")
    n_proj = int(_get("evaluation", doc, "n_projections", (int,), 128))
    _positive("evaluation", "n_projections", n_proj)
    out = {
        "n_grid": n_grid,
        "snapshot_fractions": fracs,
        "w2": w2,
        "n_projections": n_proj,
    }
    if not transport:
        default_start = (
            {"kind": "gaussian", "params": {"mean": [0.0, 0.0, 0.0], "cov": 1.0}}
            if kind == "stabilize_pmp"
            else {"kind": "bootstrap", "params": {"jitter": 0.0}}
        )
        out["start"] = _validate_eval_start(
            "evaluation.start", doc.get("start", default_start), state_dim
        )
        radius = float(_get("evaluation", doc, "success_radius", (int, float), 0.2))
        out["success_radius"] = _positive("evaluation", "success_radius", radius)
    return out


def _check_exact_w2_counts(kind: str, n_train: int, n_eval: int) -> None:
    """Reject the sample counts an exact-W2 transport evaluation would fail on.

    Construction-level W2 compares n_train points, the rollout scores up to
    n_eval, and both are capped at ``EXACT_W2_MAX_N``.  An output run scores
    its rollouts against a subsample of the n_train coupled target states,
    which needs n_eval <= n_train.
    """
    if max(n_train, n_eval) > EXACT_W2_MAX_N:
        raise ConfigurationError(
            f"'evaluation.w2' exact is capped at N={EXACT_W2_MAX_N}, got n_train "
            f"{n_train} and n_eval {n_eval}; use auto or sliced"
        )
    if kind == "output_transport" and n_eval > n_train:
        raise ConfigurationError(
            f"'evaluation.w2' exact scores output_transport rollouts against the "
            f"n_train coupled states, so it needs n_eval <= n_train, got n_eval "
            f"{n_eval} and n_train {n_train}; use auto or sliced"
        )


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated, fully-defaulted experiment description."""

    kind: str
    name: str
    master_seed: int
    output_dir: Optional[str]
    n_train: int
    n_eval: int
    system: dict
    regression: dict
    evaluation: dict
    mu0: Optional[dict] = None
    muT: Optional[dict] = None
    coupling: Optional[str] = None
    interpolant: Optional[dict] = None
    target: Optional[dict] = None
    noising: Optional[dict] = field(default=None)

    def to_canonical_dict(self) -> dict:
        doc = {
            "schema_version": SCHEMA_VERSION,
            "kind": self.kind,
            "name": self.name,
            "master_seed": self.master_seed,
            "n_train": self.n_train,
            "n_eval": self.n_eval,
            "system": self.system,
            "regression": self.regression,
            "evaluation": self.evaluation,
        }
        if self.output_dir is not None:
            doc["output_dir"] = self.output_dir
        for key in ("mu0", "muT", "coupling", "interpolant", "target", "noising"):
            value = getattr(self, key)
            if value is not None:
                doc[key] = value
        return doc

    @property
    def hash(self) -> str:
        return config_hash(self)


def config_hash(cfg: "ExperimentConfig | dict") -> str:
    """sha256 of the canonical (sorted-key, compact) JSON form."""
    doc = cfg.to_canonical_dict() if isinstance(cfg, ExperimentConfig) else cfg
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


_TOP_KEYS = (
    "schema_version",
    "kind",
    "name",
    "master_seed",
    "output_dir",
    "n_train",
    "n_eval",
    "system",
    "regression",
    "evaluation",
    "mu0",
    "muT",
    "coupling",
    "interpolant",
    "target",
    "noising",
)


def validate_config(doc: dict) -> ExperimentConfig:
    """Validate a raw JSON document and fill in defaults."""
    doc = _expect_mapping("config", doc)
    _check_keys("config", doc, _TOP_KEYS)
    version = _get("config", doc, "schema_version", (int,))
    if version != SCHEMA_VERSION:
        raise ConfigurationError(
            f"schema_version {version} unsupported (expected {SCHEMA_VERSION})"
        )
    kind = _get("config", doc, "kind", (str,))
    if kind not in KINDS:
        raise ConfigurationError(f"'kind' must be one of {list(KINDS)}, got '{kind}'")
    name = _get("config", doc, "name", (str,), kind)
    master_seed = _get("config", doc, "master_seed", (int,), 0)
    output_dir = doc.get("output_dir")
    if output_dir is not None and not isinstance(output_dir, str):
        raise ConfigurationError("'output_dir' must be a string")
    n_train = int(_get("config", doc, "n_train", (int,)))
    if n_train < 1:
        raise ConfigurationError(f"'n_train' must be >= 1, got {n_train}")
    n_eval = int(_get("config", doc, "n_eval", (int,)))
    if n_eval < 0:
        raise ConfigurationError(f"'n_eval' must be >= 0, got {n_eval}")

    system = _validate_system(kind, _get("config", doc, "system", (dict,)))
    built = _build_system(system)
    regression = _validate_regression(doc.get("regression", {}), built.d)
    evaluation = _validate_evaluation(kind, doc.get("evaluation", {}), built.d)

    transport = kind in TRANSPORT_KINDS
    if transport and evaluation["w2"] == "exact":
        _check_exact_w2_counts(kind, n_train, n_eval)
    fields = dict(
        kind=kind,
        name=name,
        master_seed=master_seed,
        output_dir=output_dir,
        n_train=n_train,
        n_eval=n_eval,
        system=system,
        regression=regression,
        evaluation=evaluation,
    )
    if transport:
        for key in ("target", "noising"):
            if key in doc:
                raise ConfigurationError(f"'{key}' is not valid for kind '{kind}'")
        fields["mu0"] = _validate_measure("mu0", _get("config", doc, "mu0", (dict,)), built.d)
        muT = _get("config", doc, "muT", (dict,))
        if kind == "output_transport":
            fields["muT"] = _validate_measure("muT", muT, built.output_dim, "output")
        else:
            fields["muT"] = _validate_measure("muT", muT, built.d)
        coupling = _get("config", doc, "coupling", (str,), "independent")
        if coupling not in COUPLING_KINDS:
            raise ConfigurationError(f"'coupling' must be one of {list(COUPLING_KINDS)}")
        fields["coupling"] = coupling
        raw_interp = doc.get("interpolant")
        if raw_interp is None:
            if kind != "brockett":
                raise ConfigurationError(f"'interpolant' is required for kind '{kind}'")
            raw_interp = {}
        fields["interpolant"] = _validate_interpolant(kind, raw_interp)
    else:
        for key in ("mu0", "muT", "coupling", "interpolant"):
            if key in doc:
                raise ConfigurationError(f"'{key}' is not valid for kind '{kind}'")
        fields["target"] = _validate_measure(
            "target", _get("config", doc, "target", (dict,)), built.d
        )
        fields["noising"] = _validate_noising(kind, _get("config", doc, "noising", (dict,)))
    return ExperimentConfig(**fields)


def apply_overrides(doc: dict, overrides: dict) -> dict:
    """Overlay CLI-style overrides of top-level scalar fields onto a raw doc."""
    out = dict(doc)
    for key, value in overrides.items():
        if value is None:
            continue
        if key not in OVERRIDABLE:
            raise ConfigurationError(f"field '{key}' cannot be overridden")
        out[key] = value
    return out


def load_config(path, overrides: Optional[dict] = None) -> ExperimentConfig:
    """Read, overlay overrides, and validate a JSON config file."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except FileNotFoundError:
        raise ConfigurationError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config file {path} is not valid JSON: {exc}")
    if overrides:
        doc = apply_overrides(doc, overrides)
    return validate_config(doc)
