"""Experiment configuration: schema validation, defaults, hashing.

A config is a single JSON document with a versioned schema, validated
strictly before any compute: unknown keys anywhere are rejected, required
keys must be present, and every value is checked.  Two tables say what is
accepted.  ``KIND_SPECS`` gives each experiment kind its systems and the keys
and defaults of its own sections (a transport kind's ``interpolant``, a
stabilize kind's ``noising`` and default ``evaluation.start``).  ``_RULES``
gives each section key its one check, and a key means the same thing in
every section it appears in.  ``_section`` walks a section with both.
Measure params are checked per measure kind, hyperparameters by the
method's law class (``regression.LAWS``), and each measure is drawn from
once: it must sample, in the dimension of the system's state (its output,
for an output kind's muT).  Steering preconditions (a controllable linear
pair, placeable poles, the Brockett grid minimum) come from
``interpolants``.  CLI flags may override the top-level scalar fields
(master_seed, n_train, n_eval, name, output_dir) prior to validation.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable, NamedTuple, Optional

from .errors import ConfigurationError, UncontrollablePairError
from .interpolants import BROCKETT_MIN_GRID, check_controllable, check_poles
from .measures import COUPLING_KINDS, EXACT_W2_MAX_N, MEASURE_PARAMS, sample_measure
from .ode import DEFAULT_BLOWUP
from .regression import LAWS
from .systems import ControlAffineSystem, builtin_names, builtin_system

SCHEMA_VERSION = 1

MEASURE_KINDS = tuple(MEASURE_PARAMS)

_REQUIRED = object()

# top-level scalar fields every kind takes, with their defaults, beside name
# (whose default is the kind); the CLI may override each of them
_SCALARS = {"master_seed": 0, "output_dir": None, "n_train": _REQUIRED, "n_eval": _REQUIRED}
OVERRIDABLE = ("name", *_SCALARS)


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


def _typed(path: str, value, types):
    # bool is an int subclass; reject it unless bool is explicitly allowed
    if not isinstance(value, types) or (isinstance(value, bool) and bool not in types):
        raise ConfigurationError(f"'{path}' has wrong type {type(value).__name__}")
    return value


def _get(section: str, doc: dict, key: str, types, default=_REQUIRED):
    if key not in doc:
        if default is _REQUIRED:
            raise ConfigurationError(f"'{section}' is missing required key '{key}'")
        return default
    return doc[key] if types is None else _typed(f"{section}.{key}", doc[key], types)


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
    measure = _get(path, doc, "kind", (str,))
    if measure not in MEASURE_KINDS:
        raise ConfigurationError(
            f"'{path}.kind' must be one of {list(MEASURE_KINDS)}, got '{measure}'"
        )
    params = _expect_mapping(f"{path}.params", _get(path, doc, "params", (dict,), {}))
    required, optional = MEASURE_PARAMS[measure]
    _check_keys(f"{path}.params", params, required + optional)
    for key in required:
        _get(f"{path}.params", params, key, None)
    for key in set(_NUMERIC_PARAMS) & set(params):
        _finite(f"{path}.params.{key}", params[key])
    if measure == "uniform_sphere":
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
    if measure == "mixture":
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
        drawn = sample_measure(measure, params, 1, 0)
    except (ConfigurationError, ValueError, TypeError) as exc:
        raise ConfigurationError(f"'{path}' cannot be sampled: {exc}") from exc
    _check_measure_dim(path, drawn.dim, dim, space)
    return {"kind": measure, "params": params}


def _validate_eval_start(path: str, doc, system: ControlAffineSystem) -> dict:
    doc = _expect_mapping(path, doc)
    if doc.get("kind") == "bootstrap":
        _check_keys(path, doc, ("kind", "params"))
        params = _section(f"{path}.params", doc.get("params", {}), {"jitter": 0.0})
        return {"kind": "bootstrap", "params": params}
    return _validate_measure(path, doc, system.d)


def _at(path: str, check, *args):
    """Run a steering precondition of ``interpolants``, naming ``path`` in its error."""
    try:
        check(*args)
    except (ConfigurationError, UncontrollablePairError) as exc:
        raise ConfigurationError(f"'{path}': {exc}") from exc


class _Num(NamedTuple):
    """A number key: an int if ``integral``, else a real returned as float;
    at least ``low`` (``low_ok``) or above it; finite unless ``inf_ok``."""

    integral: bool
    low: float
    low_ok: bool
    inf_ok: bool = False

    def __call__(self, path: str, value, system=None):
        if self.integral:
            value = int(_typed(path, value, (int,)))
        else:
            value = float(_typed(path, value, (int, float)))
        above = value >= self.low if self.low_ok else value > self.low  # False for nan
        if not (above and (value < math.inf or self.inf_ok)):
            bound = f">= {self.low}" if self.low_ok else "positive"
            finite = "" if self.inf_ok or self.integral else " and finite"
            raise ConfigurationError(f"'{path}' must be {bound}{finite}, got {value}")
        return value


class _Str(NamedTuple):
    """A string key, one of ``options`` if any; None passes if ``optional``."""

    options: tuple = ()
    optional: bool = False

    def __call__(self, path: str, value, system=None):
        if value is None and self.optional:
            return None
        _typed(path, value, (str,))
        if self.options and value not in self.options:
            raise ConfigurationError(
                f"'{path}' must be one of {list(self.options)}, got {value!r}"
            )
        return value


def _fractions(path: str, value, system=None) -> list:
    if not isinstance(value, list) or any(
        isinstance(f, bool) or not isinstance(f, (int, float)) or not 0.0 <= f <= 1.0
        for f in value
    ):
        raise ConfigurationError(f"'{path}' must be a list of numbers in [0, 1], got {value!r}")
    return [float(f) for f in value]


def _poles(path: str, value, system: ControlAffineSystem) -> list:
    if not isinstance(value, list) or not value or not all(
        isinstance(p, (int, float)) and -math.inf < p < 0 for p in value
    ):
        raise ConfigurationError(f"'{path}' must be a list of negative reals, got {value!r}")
    poles = [float(p) for p in value]
    _at(path, check_poles, poles, system.d, system.m)
    return poles


# the one check of each key, wherever it appears; a rule takes the key's
# dotted path, its value and the built system, and returns the canonical value
_RULES = {
    # top-level scalars
    "name": _Str(),
    "master_seed": _Num(True, -math.inf, True),
    "output_dir": _Str(optional=True),
    "n_train": _Num(True, 1, True),
    "n_eval": _Num(True, 0, True),
    "coupling": _Str(COUPLING_KINDS),
    # interpolant, noising and evaluation keys
    "T": _Num(False, 0, False),
    "n_grid": _Num(True, 0, False),
    "poles": _poles,
    "n_time_samples": _Num(True, 2, True),
    "blowup": _Num(False, 0, False, inf_ok=True),  # +inf: no size threshold
    "theta": _Num(False, 0, False),
    "p_scale": _Num(False, 0, False),
    "sigma": _Num(False, 0, True),
    "snapshot_fractions": _fractions,
    "w2": _Str(("auto", "exact", "sliced")),
    "n_projections": _Num(True, 0, False),
    "start": _validate_eval_start,
    "success_radius": _Num(False, 0, False),
    # bootstrap evaluation.start params
    "jitter": _Num(False, 0, True),
}


def _section(path: str, doc, defaults: dict, system: Optional[ControlAffineSystem] = None) -> dict:
    """Walk one section: reject keys without a default, require the
    ``_REQUIRED`` ones, fill in the others, and run each key's rule."""
    doc = _expect_mapping(path, doc)
    _check_keys(path, doc, defaults)
    out = {}
    for key, default in defaults.items():
        if key in doc:
            value = doc[key]
        elif default is _REQUIRED:
            raise ConfigurationError(f"'{path}' is missing required key '{key}'")
        else:
            value = copy.deepcopy(default)
        out[key] = _RULES[key](f"{path}.{key}", value, system)
    return out


def _validate_system(kind: str, doc) -> tuple[dict, ControlAffineSystem]:
    """The system section and the system it builds, so A and B are checked:
    a linear pair must be controllable for its steering."""
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
    allowed = KIND_SPECS[kind].systems
    if name not in allowed:
        raise ConfigurationError(
            f"experiment kind '{kind}' supports systems {list(allowed)}, got '{name}'"
        )
    try:
        built = builtin_system(name, **params)
    except ValueError as exc:  # a ragged A or B
        raise ConfigurationError(f"'system.params' must hold matrices: {exc}") from exc
    if name == "linear":
        _at("system.params", check_controllable, params["A"], params["B"])
    return {"name": name, "params": params}, built


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


def _check_exact_w2_counts(output: bool, n_train: int, n_eval: int) -> None:
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
    if output and n_eval > n_train:
        raise ConfigurationError(
            f"'evaluation.w2' exact scores output_transport rollouts against the "
            f"n_train coupled states, so it needs n_eval <= n_train, got n_eval "
            f"{n_eval} and n_train {n_train}; use auto or sliced"
        )


_EVALUATION = {"n_grid": 300, "snapshot_fractions": [0.25, 0.5, 0.75, 1.0], "w2": "auto",
               "n_projections": 128}
_NOISING = {"T": _REQUIRED, "n_grid": 2000, "n_time_samples": 25, "blowup": DEFAULT_BLOWUP}


@dataclass(frozen=True)
class KindSpec:
    """What one experiment kind accepts; see ``KIND_SPECS``.  Sections map
    each key to its default or ``_REQUIRED``."""

    systems: tuple  # the system names it runs on
    interpolant: Optional[dict] = None  # a transport kind's interpolant section
    noising: Optional[dict] = None  # a stabilize kind's noising section
    evaluation: dict = field(default_factory=_EVALUATION.copy)
    # muT lives in output space, and exact W2 scores rollouts against the
    # n_train coupled states
    output: bool = False
    # a steering precondition on the validated interpolant section
    check: Optional[Callable[[dict], None]] = None


def _stabilize(noising: dict, start: dict) -> KindSpec:
    return KindSpec(("unicycle", "brockett", "martinet"), noising={**_NOISING, **noising},
                    evaluation={**_EVALUATION, "start": start, "success_radius": 0.2})


# What each experiment kind accepts.  A new kind adds an entry here: its
# systems and the keys and defaults of its own sections (an interpolant for
# a transport kind; noising and evaluation start for a stabilize kind).
# Each key it names needs a rule in _RULES (a key it shares with another
# section takes that rule as it is), and experiments.py needs its pipeline.
KIND_SPECS = {
    "transport_linear": KindSpec(
        systems=("linear", "six_state_default"),
        interpolant={"T": _REQUIRED, "n_grid": 2000},
    ),
    "output_transport": KindSpec(
        systems=("six_state_default",),
        interpolant={"T": _REQUIRED, "n_grid": 2000, "poles": _REQUIRED},
        output=True,
    ),
    "brockett": KindSpec(
        systems=("brockett",),
        interpolant={"n_grid": 4000},
        check=lambda interp: _Num(True, BROCKETT_MIN_GRID, True)(
            "interpolant.n_grid", interp["n_grid"]
        ),
    ),
    "stabilize_pmp": _stabilize(
        {"theta": 1.0, "p_scale": 1.0},
        {"kind": "gaussian", "params": {"mean": [0.0, 0.0, 0.0], "cov": 1.0}},
    ),
    "stabilize_random": _stabilize(
        {"sigma": 1.0}, {"kind": "bootstrap", "params": {"jitter": 0.0}}
    ),
}
KINDS = tuple(KIND_SPECS)
TRANSPORT_KINDS = tuple(k for k, spec in KIND_SPECS.items() if spec.interpolant is not None)


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
    noising: Optional[dict] = None

    def to_canonical_dict(self) -> dict:
        values = ((f.name, getattr(self, f.name)) for f in fields(self))
        return {"schema_version": SCHEMA_VERSION, **{k: v for k, v in values if v is not None}}

    @property
    def hash(self) -> str:
        return config_hash(self)


_FIELDS = tuple(f.name for f in fields(ExperimentConfig))


def config_hash(cfg: "ExperimentConfig | dict") -> str:
    """sha256 of the canonical (sorted-key, compact) JSON form."""
    doc = cfg.to_canonical_dict() if isinstance(cfg, ExperimentConfig) else cfg
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def validate_config(doc: dict) -> ExperimentConfig:
    """Validate a raw JSON document and fill in defaults.

    The result shares no object with ``doc``: a later edit of the caller's
    document leaves the config, and so its hash, unchanged.
    """
    doc = copy.deepcopy(_expect_mapping("config", doc))
    _check_keys("config", doc, ("schema_version",) + _FIELDS)
    version = _get("config", doc, "schema_version", (int,))
    if version != SCHEMA_VERSION:
        raise ConfigurationError(
            f"schema_version {version} unsupported (expected {SCHEMA_VERSION})"
        )
    kind = _get("config", doc, "kind", (str,))
    if kind not in KIND_SPECS:
        raise ConfigurationError(f"'kind' must be one of {list(KINDS)}, got '{kind}'")
    spec = KIND_SPECS[kind]
    transport = spec.interpolant is not None
    scalars = {"name": kind, **_SCALARS, **({"coupling": "independent"} if transport else {})}
    out = _section("config", {k: doc[k] for k in scalars if k in doc}, scalars)
    out["kind"] = kind
    out["system"], built = _validate_system(kind, _get("config", doc, "system", (dict,)))
    out["regression"] = _validate_regression(doc.get("regression", {}), built.d)
    out["evaluation"] = _section("evaluation", doc.get("evaluation", {}), spec.evaluation, built)
    if transport:
        if out["evaluation"]["w2"] == "exact":
            _check_exact_w2_counts(spec.output, out["n_train"], out["n_eval"])
        out["mu0"] = _validate_measure("mu0", _get("config", doc, "mu0", (dict,)), built.d)
        muT_space = (built.output_dim, "output") if spec.output else (built.d, "state")
        out["muT"] = _validate_measure("muT", _get("config", doc, "muT", (dict,)), *muT_space)
        interp = _section("interpolant", doc.get("interpolant", {}), spec.interpolant, built)
        if spec.check is not None:
            spec.check(interp)
        out["interpolant"] = interp
    else:
        target = _get("config", doc, "target", (dict,))
        out["target"] = _validate_measure("target", target, built.d)
        out["noising"] = _section("noising", doc.get("noising", {}), spec.noising)
    for key in sorted(set(doc) & set(_FIELDS) - set(out)):
        raise ConfigurationError(f"'{key}' is not valid for kind '{kind}'")
    return ExperimentConfig(**out)


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
