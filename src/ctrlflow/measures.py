"""Empirical measures, couplings, and Wasserstein-2 distances.

Every measure is a uniform point cloud: an :class:`EmpiricalMeasure` holds
N samples of mass 1/N.  :func:`sample_measure` draws the builtin families;
:func:`set_distance` gives the closed-form distance to the support of those
that have one.  :func:`build_coupling` pairs two clouds of equal count
(independently, by index, or by an optimal assignment) and returns the
paired arrays.  :func:`wasserstein2` is the exact assignment distance and
:func:`sliced_wasserstein2` the projected one for large or unequal clouds.
Assignment costs are :func:`ctrlflow.linalg.sq_dists` blocks, the one
squared-distance block they share with the distance to a target sample.

Both assignment sites, the ``ot_matched`` coupling and the exact W2, solve
their block C through :func:`_assignment`.  It hands scipy's shortest
augmenting path solver C - f - g instead of C, with row and column
potentials f, g from a few entropic (Sinkhorn) sweeps (Cuturi 2013, in the
row-stabilized form of Schmitzer 2019).  A shift by potentials adds the
same constant to every assignment's total, so the optimal assignment is
unchanged; near-optimal potentials leave the solver short augmenting
paths.  Where there are no usable potentials (n = 1, a block whose rows
are each constant, or a potential that is not finite, as for a column
whose entropic kernel entries all lie past ``EXP_FLOOR`` and are held as
0) C is solved as it is.  A block whose row minima lie in distinct columns
needs no solve at all: that matching is optimal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import ConfigurationError
from .linalg import EXP_FLOOR, floored_exp, sq_dists
from .seeding import derived_seed, substream

EXACT_W2_MAX_N = 2048
# dual shift of the assignment solve: entropic temperature as a fraction of
# the mean row-reduced cost, and the number of Sinkhorn sweeps
SINKHORN_EPS = 0.05
SINKHORN_SWEEPS = 20
COUPLING_KINDS = ("independent", "paired", "ot_matched")

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
    """Uniform point cloud: N >= 1 samples in R^k, each of mass 1/N."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise ConfigurationError(f"points must be (N, k) with N >= 1, got {pts.shape}")
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


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
        center, radius, dim = _sphere(params)
        raw, norms = _nonzero_normal_rows(rng, n, dim)
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
                comp["kind"], comp.get("params", {}), int(counts[i]),
                derived_seed(seed, "mixture", i),
            )
            parts.append(sub.points)
        pts = np.vstack(parts)
        perm = rng.permutation(n)
        pts = pts[perm]
    else:
        raise ConfigurationError(f"unknown measure kind '{kind}'")

    return EmpiricalMeasure(points=pts)


def _nonzero_normal_rows(rng: np.random.Generator, n: int, k: int):
    """(n, k) standard normal rows and their (n, 1) norms; zero rows are redrawn."""
    raw = rng.standard_normal((n, k))
    norms = np.linalg.norm(raw, axis=1, keepdims=True)
    while np.any(norms == 0.0):
        bad = norms[:, 0] == 0.0
        raw[bad] = rng.standard_normal((bad.sum(), k))
        norms = np.linalg.norm(raw, axis=1, keepdims=True)
    return raw, norms


def _sphere(params: dict) -> tuple[np.ndarray, float, int]:
    """Center, radius and dimension of a uniform_sphere (default: unit sphere about 0 in R^3)."""
    dim = int(params["dim"]) if "dim" in params else len(params.get("center", [0.0, 0.0, 0.0]))
    center = np.asarray(params.get("center", np.zeros(dim)), dtype=float)
    radius = float(params.get("radius", 1.0))
    if radius < 0.0:
        raise ConfigurationError(f"sphere radius must be >= 0, got {radius}")
    return center, radius, dim


def set_distance(kind: str, params: dict, points: np.ndarray) -> Optional[np.ndarray]:
    """Distance from each row of ``points`` to the support of a builtin family.

    Closed form for ``dirac`` (the point) and ``uniform_sphere`` (the
    sphere); None for the other kinds, whose support has no closed form.
    """
    if kind == "dirac":
        return np.linalg.norm(points - np.asarray(params["point"], dtype=float), axis=1)
    if kind == "uniform_sphere":
        center, radius, _ = _sphere(params)
        return np.abs(np.linalg.norm(points - center, axis=1) - radius)
    return None


# ---------------------------------------------------------------------------
# couplings


def build_coupling(
    mu0: EmpiricalMeasure, mu1: EmpiricalMeasure, kind: str = "independent", seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Paired samples ``(x0, x1)`` of two clouds of equal count.

    ``independent`` pairs them through a random permutation of mu1,
    ``paired`` by index, and ``ot_matched`` by the squared-Euclidean
    assignment (which also requires equal dimensions).  Row i of ``x0`` is
    always sample i of mu0.
    """
    if kind not in COUPLING_KINDS:
        raise ConfigurationError(f"unknown coupling kind '{kind}'")
    if mu0.n != mu1.n:
        raise ConfigurationError(
            f"{kind} coupling requires equal counts, got {mu0.n} and {mu1.n}"
        )
    x0 = mu0.points.copy()
    if kind == "independent":
        return x0, mu1.points[substream(seed, "coupling", kind).permutation(mu1.n)]
    if kind == "paired":
        return x0, mu1.points.copy()
    if mu0.dim != mu1.dim:
        raise ConfigurationError("ot_matched requires equal dimensions")
    rows, cols = _assignment(mu0.points, mu1.points)
    return x0, mu1.points[cols[np.argsort(rows)]]


def _assignment(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``linear_sum_assignment(sq_dists(a, b))``, solved on a dual shift.

    Subtracting a row potential f_i and a column potential g_j from every
    entry of the cost block C changes each assignment's total by the same
    sum(f) + sum(g), so C - f - g has the optimal assignments of C.
    ``SINKHORN_SWEEPS`` row-stabilized Sinkhorn sweeps on
    K = exp(-(C - rmin)/eps), eps = ``SINKHORN_EPS`` mean(C - rmin), give
    near-optimal potentials f = rmin + eps log u, g = eps log v, on which
    the shortest augmenting paths are short.  K is written over C, and C is
    then recomputed and shifted in place, so one block is held at a time.
    With eps = 0 (n = 1, or every row of C constant) or a potential that is
    not finite (a column whose kernel arguments all fall below
    ``EXP_FLOOR``: K holds such entries as 0), C is solved as it is.  When
    the row argmins of C are a permutation, that matching is returned
    unsolved: its total, the sum of the row minima, is a lower bound on
    every matching's.
    """
    kernel = sq_dists(a, b)
    rows = np.arange(len(a))
    cols = kernel.argmin(axis=1)
    rmin = kernel[rows, cols]
    kernel -= rmin[:, None]
    eps = SINKHORN_EPS * float(kernel.mean())
    if eps == 0.0:
        return linear_sum_assignment(sq_dists(a, b))
    if np.unique(cols).size == len(cols):
        return rows, cols
    kernel *= -1.0 / eps
    # entries past the floor are 0, so a column that is floored whole has
    # no finite potential and the block is solved as it is
    keep = kernel >= EXP_FLOOR
    floored_exp(kernel)
    kernel *= keep
    del keep
    v = np.ones(len(a))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for _ in range(SINKHORN_SWEEPS):
            u = 1.0 / (kernel @ v)
            v = 1.0 / (u @ kernel)
        f = rmin + eps * np.log(u)
        g = eps * np.log(v)
    del kernel
    cost = sq_dists(a, b)
    if np.all(np.isfinite(f)) and np.all(np.isfinite(g)):
        cost -= f[:, None]
        cost -= g
    return linear_sum_assignment(cost)


# ---------------------------------------------------------------------------
# distances


def wasserstein2(a: EmpiricalMeasure, b: EmpiricalMeasure) -> float:
    """Exact W2 between clouds of equal size.

    Solves the squared-Euclidean assignment problem (shortest augmenting
    path); the size is capped so the cubic solve stays a desk-scale
    computation.  The solve runs on the cost block less Sinkhorn
    potentials (see :func:`_assignment`): every assignment's total moves by
    the same constant, so the optimal assignment, and with it the distance,
    is that of the block itself, and the solver's search is shorter.  It
    falls back to the unshifted block when the potentials are not finite
    or the block is degenerate.  Mismatched sizes are rejected with a
    pointer to :func:`sliced_wasserstein2`, which has no such restriction.
    """
    if a.dim != b.dim:
        raise ConfigurationError(f"dimension mismatch: {a.dim} vs {b.dim}")
    if a.n != b.n:
        raise ConfigurationError(
            f"exact W2 requires equal sample counts, got {a.n} and {b.n}; "
            "use sliced_wasserstein2 for unequal counts"
        )
    if a.n > EXACT_W2_MAX_N:
        raise ConfigurationError(
            f"exact W2 capped at N={EXACT_W2_MAX_N}, got N={a.n}; "
            "use sliced_wasserstein2 for larger clouds"
        )
    # canonical operand order makes the result bit-symmetric in (a, b)
    pa, pb = a.points, b.points
    if (pb.tobytes(), pb.shape) < (pa.tobytes(), pa.shape):
        pa, pb = pb, pa
    rows, cols = _assignment(pa, pb)
    # re-evaluate the matched cost from direct differences: the inner-product
    # expansion used for the solve carries O(|x|^2 eps) noise that would keep
    # identical multisets from scoring an exact zero
    matched = float(np.mean(np.sum((pa[rows] - pb[cols]) ** 2, axis=1)))
    return float(np.sqrt(matched))


def sliced_wasserstein2(
    a: EmpiricalMeasure,
    b: EmpiricalMeasure,
    n_projections: int = 128,
    seed: int = 0,
) -> float:
    """Sliced W2: dimension-scaled root mean of 1-D projected distances.

    Both clouds are projected onto the random unit directions at once and
    sorted along the sample axis.  The exact 1-D W2 of each direction
    integrates (Fa^-1 - Fb^-1)^2 over [0, 1] on the common refinement of
    the quantile grids i/Na and j/Nb, which is the same for every direction
    and any sample counts.  The mean of the squared 1-D distances is
    multiplied by the ambient dimension so that measures differing by a
    translation keep their exact W2; in dimension one the estimate
    coincides with the exact distance for every direction.
    """
    if a.dim != b.dim:
        raise ConfigurationError(f"dimension mismatch: {a.dim} vs {b.dim}")
    if n_projections < 1:
        raise ConfigurationError("need at least one projection")
    k = a.dim
    rng = substream(seed, "sliced_w2")
    V, norms = _nonzero_normal_rows(rng, n_projections, k)
    V /= norms
    qa = np.sort(a.points @ V.T, axis=0)
    qb = np.sort(b.points @ V.T, axis=0)
    ca = np.cumsum(np.full(a.n, 1.0 / a.n))
    cb = np.cumsum(np.full(b.n, 1.0 / b.n))
    edges = np.concatenate([[0.0], np.union1d(ca, cb)])
    # the quantile on (edges[i], edges[i+1]] is the first sample whose
    # cumulative mass strictly exceeds the left edge
    ia = np.minimum(np.searchsorted(ca, edges[:-1], side="right"), a.n - 1)
    ib = np.minimum(np.searchsorted(cb, edges[:-1], side="right"), b.n - 1)
    per_direction = np.diff(edges) @ (qa[ia] - qb[ib]) ** 2
    return float(np.sqrt(k * per_direction.sum() / n_projections))
