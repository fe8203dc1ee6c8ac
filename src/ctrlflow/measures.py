"""Empirical measures, couplings, and Wasserstein-2 distances.

:func:`sample_measure` draws the builtin families as an
:class:`EmpiricalMeasure`; :func:`build_coupling` pairs two of them
(independent, by index, or by an optimal assignment); :func:`wasserstein2`
is the exact assignment distance and :func:`sliced_wasserstein2` the
projected one for large or unequal clouds.  Assignment costs are
:func:`ctrlflow.linalg.sq_dists` blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import ConfigurationError
from .linalg import sq_dists
from .seeding import stream_key, substream

EXACT_W2_MAX_N = 2048
_WEIGHT_TOL = 1.0e-12

# measure kind -> (required params, optional params) read by sample_measure
MEASURE_PARAMS = {
    "gaussian": (("mean",), ("cov",)),
    "uniform_box": (("low", "high"), ()),
    "uniform_sphere": ((), ("center", "radius", "dim")),
    "dirac": (("point",), ()),
    "empirical": (("points",), ()),
    "mixture": (("components",), ()),
}


@dataclass(frozen=True)
class EmpiricalMeasure:
    """Weighted point cloud.

    Weights must be nonnegative and sum to one within 1e-12; the uniform
    default is used when none are given.
    """

    points: np.ndarray
    weights: Optional[np.ndarray] = None

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise ConfigurationError(f"points must be (N, k) with N >= 1, got {pts.shape}")
        if self.weights is None:
            w = np.full(pts.shape[0], 1.0 / pts.shape[0])
        else:
            w = np.asarray(self.weights, dtype=float)
            if w.shape != (pts.shape[0],):
                raise ConfigurationError(
                    f"weights have shape {w.shape}, expected ({pts.shape[0]},)"
                )
            if np.any(w < 0.0):
                raise ConfigurationError("weights must be nonnegative")
            if abs(w.sum() - 1.0) > _WEIGHT_TOL:
                raise ConfigurationError(
                    f"weights sum to {w.sum():.17g}, expected 1 within {_WEIGHT_TOL}"
                )
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def uniform(self) -> bool:
        return bool(np.allclose(self.weights, 1.0 / self.n, atol=_WEIGHT_TOL, rtol=0.0))


@dataclass(frozen=True)
class Coupling:
    """Paired samples (x0_i, x1_i) with weights; kind records the builder."""

    x0: np.ndarray
    x1: np.ndarray
    weights: np.ndarray
    kind: str = "independent"

    def __post_init__(self):
        x0 = np.asarray(self.x0, dtype=float)
        x1 = np.asarray(self.x1, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if x0.ndim != 2 or x1.ndim != 2 or x0.shape[0] != x1.shape[0]:
            raise ConfigurationError("coupling marginals must share the sample count")
        if w.shape != (x0.shape[0],) or abs(w.sum() - 1.0) > _WEIGHT_TOL:
            raise ConfigurationError("coupling weights must sum to 1")
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "x1", x1)
        object.__setattr__(self, "weights", w)

    @property
    def n(self) -> int:
        return self.x0.shape[0]


# ---------------------------------------------------------------------------
# sampling


def _gaussian_cov(params: dict, k: int) -> np.ndarray:
    cov = params.get("cov", 1.0)
    cov = np.asarray(cov, dtype=float)
    if cov.ndim == 0:
        return float(cov) * np.eye(k)
    if cov.ndim == 1:
        if cov.shape != (k,):
            raise ConfigurationError(f"diagonal cov has shape {cov.shape}, expected ({k},)")
        return np.diag(cov)
    if cov.shape != (k, k):
        raise ConfigurationError(f"cov has shape {cov.shape}, expected ({k}, {k})")
    return cov


def sample_measure(kind: str, params: dict, n: int, seed: int) -> EmpiricalMeasure:
    """Draw an empirical measure of one of the builtin families.

    Kinds: ``gaussian`` (mean, cov), ``uniform_box`` (low, high),
    ``uniform_sphere`` (center, radius; points lie on the sphere),
    ``dirac`` (point), ``mixture`` (components with weights), and
    ``empirical`` (explicit points; returned as-is when n matches,
    bootstrap-resampled otherwise).
    """
    if n < 1:
        raise ConfigurationError(f"sample count must be >= 1, got {n}")
    rng = substream(seed, "measure", kind)

    if kind == "gaussian":
        mean = np.asarray(params["mean"], dtype=float)
        cov = _gaussian_cov(params, len(mean))
        L = np.linalg.cholesky(cov + 0.0)
        pts = mean + rng.standard_normal((n, len(mean))) @ L.T
    elif kind == "uniform_box":
        low = np.asarray(params["low"], dtype=float)
        high = np.asarray(params["high"], dtype=float)
        if low.shape != high.shape or np.any(high < low):
            raise ConfigurationError("uniform_box needs low <= high of equal shape")
        pts = rng.uniform(size=(n, len(low))) * (high - low) + low
    elif kind == "uniform_sphere":
        dim = int(params.get("dim", len(params.get("center", [0.0, 0.0, 0.0]))))
        center = np.asarray(params.get("center", np.zeros(dim)), dtype=float)
        radius = float(params.get("radius", 1.0))
        if radius < 0.0:
            raise ConfigurationError(f"sphere radius must be >= 0, got {radius}")
        raw = rng.standard_normal((n, dim))
        norms = np.linalg.norm(raw, axis=1, keepdims=True)
        # resample the (measure-zero) degenerate rows rather than dividing by 0
        while np.any(norms == 0.0):
            bad = norms[:, 0] == 0.0
            raw[bad] = rng.standard_normal((bad.sum(), dim))
            norms = np.linalg.norm(raw, axis=1, keepdims=True)
        pts = center + radius * raw / norms
    elif kind == "dirac":
        point = np.asarray(params["point"], dtype=float)
        pts = np.tile(point, (n, 1))
    elif kind == "empirical":
        base = np.asarray(params["points"], dtype=float)
        if base.ndim == 1:
            base = base[:, None]
        if n == base.shape[0]:
            pts = base.copy()
        else:
            idx = rng.integers(0, base.shape[0], size=n)
            pts = base[idx]
    elif kind == "mixture":
        comps = params["components"]
        if not comps:
            raise ConfigurationError("mixture needs at least one component")
        w = np.array([float(c.get("weight", 1.0)) for c in comps])
        if np.any(w < 0) or w.sum() <= 0:
            raise ConfigurationError("mixture weights must be nonnegative, not all zero")
        w = w / w.sum()
        counts = rng.multinomial(n, w)
        parts = []
        for i, comp in enumerate(comps):
            if counts[i] == 0:
                continue
            sub = sample_measure(
                comp["kind"], comp.get("params", {}), int(counts[i]), stream_mix(seed, i)
            )
            parts.append(sub.points)
        pts = np.vstack(parts)
        perm = rng.permutation(n)
        pts = pts[perm]
    else:
        raise ConfigurationError(f"unknown measure kind '{kind}'")

    return EmpiricalMeasure(points=pts)


def stream_mix(seed: int, i: int) -> int:
    """Derived component seed for mixture sampling."""
    return stream_key(seed, "mixture", i) % (2**63)


# ---------------------------------------------------------------------------
# couplings


def build_coupling(
    mu0: EmpiricalMeasure, mu1: EmpiricalMeasure, kind: str = "independent", seed: int = 0
) -> Coupling:
    """Pair samples of two marginals.

    ``independent`` resamples both sides to a common count (bootstrap by
    weight if the counts differ) and pairs them through a random
    permutation.  ``paired`` requires equal counts and pairs by index.
    ``ot_matched`` solves the squared-Euclidean assignment problem; it
    requires equal counts, uniform weights, and equal dimensions.
    """
    rng = substream(seed, "coupling", kind)
    if kind == "independent":
        n = max(mu0.n, mu1.n)
        a = _resample_to(mu0, n, rng)
        b = _resample_to(mu1, n, rng)
        perm = rng.permutation(n)
        return Coupling(a, b[perm], np.full(n, 1.0 / n), kind=kind)
    if kind == "paired":
        if mu0.n != mu1.n:
            raise ConfigurationError(
                f"paired coupling requires equal counts, got {mu0.n} and {mu1.n}"
            )
        if not np.allclose(mu0.weights, mu1.weights, atol=_WEIGHT_TOL, rtol=0.0):
            raise ConfigurationError("paired coupling requires matching weights")
        return Coupling(mu0.points.copy(), mu1.points.copy(), mu0.weights.copy(), kind=kind)
    if kind == "ot_matched":
        if mu0.n != mu1.n:
            raise ConfigurationError(
                f"ot_matched requires equal counts, got {mu0.n} and {mu1.n}"
            )
        if not (mu0.uniform and mu1.uniform):
            raise ConfigurationError("ot_matched requires uniform weights")
        if mu0.dim != mu1.dim:
            raise ConfigurationError("ot_matched requires equal dimensions")
        cost = sq_dists(mu0.points, mu1.points)
        rows, cols = linear_sum_assignment(cost)
        order = np.argsort(rows)
        return Coupling(
            mu0.points.copy(),
            mu1.points[cols[order]],
            np.full(mu0.n, 1.0 / mu0.n),
            kind=kind,
        )
    raise ConfigurationError(f"unknown coupling kind '{kind}'")


def _resample_to(mu: EmpiricalMeasure, n: int, rng: np.random.Generator) -> np.ndarray:
    if mu.n == n and mu.uniform:
        return mu.points.copy()
    idx = rng.choice(mu.n, size=n, replace=True, p=mu.weights)
    return mu.points[idx]


# ---------------------------------------------------------------------------
# distances


def wasserstein2(a: EmpiricalMeasure, b: EmpiricalMeasure) -> float:
    """Exact W2 between uniform empirical measures of equal size.

    Solves the squared-Euclidean assignment problem (shortest augmenting
    path); the size is capped so the cubic solve stays a desk-scale
    computation.  Mismatched sizes are rejected with a pointer to
    :func:`sliced_wasserstein2`, which has no such restriction.
    """
    if a.dim != b.dim:
        raise ConfigurationError(f"dimension mismatch: {a.dim} vs {b.dim}")
    if a.n != b.n:
        raise ConfigurationError(
            f"exact W2 requires equal sample counts, got {a.n} and {b.n}; "
            "use sliced_wasserstein2 for unequal counts"
        )
    if not (a.uniform and b.uniform):
        raise ConfigurationError("exact W2 requires uniform weights")
    if a.n > EXACT_W2_MAX_N:
        raise ConfigurationError(
            f"exact W2 capped at N={EXACT_W2_MAX_N}, got N={a.n}; "
            "use sliced_wasserstein2 for larger clouds"
        )
    # canonical operand order makes the result bit-symmetric in (a, b)
    pa, pb = a.points, b.points
    if (pb.tobytes(), pb.shape) < (pa.tobytes(), pa.shape):
        pa, pb = pb, pa
    cost = sq_dists(pa, pb)
    rows, cols = linear_sum_assignment(cost)
    # re-evaluate the matched cost from direct differences: the inner-product
    # expansion used for the solve carries O(|x|^2 eps) noise that would keep
    # identical multisets from scoring an exact zero
    matched = float(np.mean(np.sum((pa[rows] - pb[cols]) ** 2, axis=1)))
    return float(np.sqrt(matched))


def _quantile_w2_sq_1d(xa: np.ndarray, wa: np.ndarray, xb: np.ndarray, wb: np.ndarray) -> float:
    """Squared 1-D W2 between weighted samples via quantile matching.

    Integrates (Fa^-1 - Fb^-1)^2 over [0, 1] exactly on the common
    refinement of the two cumulative-weight partitions.
    """
    ia = np.argsort(xa, kind="stable")
    ib = np.argsort(xb, kind="stable")
    xa, wa = xa[ia], wa[ia]
    xb, wb = xb[ib], wb[ib]
    ca = np.cumsum(wa)
    cb = np.cumsum(wb)
    grid = np.union1d(ca, cb)
    edges = np.concatenate([[0.0], grid])
    dq = np.diff(edges)
    # quantile value on (edges[i], edges[i+1]] is the first sample whose
    # cumulative weight strictly exceeds the left edge
    qa = xa[np.minimum(np.searchsorted(ca, edges[:-1], side="right"), len(xa) - 1)]
    qb = xb[np.minimum(np.searchsorted(cb, edges[:-1], side="right"), len(xb) - 1)]
    return float(np.sum(dq * (qa - qb) ** 2))


def sliced_wasserstein2(
    a: EmpiricalMeasure,
    b: EmpiricalMeasure,
    n_projections: int = 128,
    seed: int = 0,
) -> float:
    """Sliced W2: dimension-scaled root mean of 1-D projected distances.

    For each random unit direction the exact 1-D W2 is computed by quantile
    matching (any sample counts and weights).  The mean of the squared 1-D
    distances is multiplied by the ambient dimension so that measures
    differing by a translation keep their exact W2; in dimension one the
    estimate coincides with the exact distance for every direction.
    """
    if a.dim != b.dim:
        raise ConfigurationError(f"dimension mismatch: {a.dim} vs {b.dim}")
    if n_projections < 1:
        raise ConfigurationError("need at least one projection")
    k = a.dim
    rng = substream(seed, "sliced_w2")
    total = 0.0
    for _ in range(n_projections):
        v = rng.standard_normal(k)
        nv = np.linalg.norm(v)
        while nv == 0.0:
            v = rng.standard_normal(k)
            nv = np.linalg.norm(v)
        v /= nv
        total += _quantile_w2_sq_1d(a.points @ v, a.weights, b.points @ v, b.weights)
    return float(np.sqrt(k * total / n_projections))

