"""Measure sampling, couplings, and Wasserstein distances.

The W2 oracle here is exhaustive: enumerate every bijection between the
two point sets and take the cheapest. Cubic assignment must agree with it
to near machine precision on small instances.  The dual-shifted solve
behind both assignment sites is checked against scipy's plain solve of the
same block: the same assignment where the optimum is unique, the same cost
where lattice clouds tie, one cost block of extra memory at most; a block
whose row argmins are a permutation returns them unsolved.  Sliced
W2 is checked against a per-direction quantile-matching loop kept here as
the reference.
"""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from ctrlflow import measures
from ctrlflow.errors import ConfigurationError
from ctrlflow.linalg import sq_dists
from ctrlflow.measures import (
    EXACT_W2_MAX_N,
    EmpiricalMeasure,
    _assignment,
    build_coupling,
    sample_measure,
    sliced_wasserstein2,
    wasserstein2,
)
from ctrlflow.seeding import substream


def brute_force_w2(a: np.ndarray, b: np.ndarray) -> float:
    n = len(a)
    best = np.inf
    for perm in itertools.permutations(range(n)):
        cost = np.mean(np.sum((a - b[list(perm)]) ** 2, axis=1))
        best = min(best, cost)
    return float(np.sqrt(best))


# ---------------------------------------------------------------------------
# samplers


def test_dirac_sampler():
    mu = sample_measure("dirac", {"point": [1.0, -2.0]}, 5, seed=0)
    assert mu.points.shape == (5, 2)
    assert np.all(mu.points == np.array([1.0, -2.0]))


def test_uniform_sphere_radius_exact():
    mu = sample_measure("uniform_sphere", {"dim": 3, "radius": 1.0}, 256, seed=1)
    norms = np.linalg.norm(mu.points, axis=1)
    assert np.abs(norms - 1.0).max() <= 1e-12


def test_uniform_sphere_center_offset():
    mu = sample_measure(
        "uniform_sphere", {"dim": 2, "radius": 2.0, "center": [5.0, 0.0]}, 64, seed=2
    )
    norms = np.linalg.norm(mu.points - np.array([5.0, 0.0]), axis=1)
    assert np.abs(norms - 2.0).max() <= 1e-12


def test_gaussian_sampler_moments():
    mu = sample_measure("gaussian", {"mean": [0.0, 0.0], "cov": 1.0}, 10000, seed=3)
    assert np.abs(mu.points.mean(axis=0)).max() < 0.05


def test_gaussian_full_cov():
    cov = [[2.0, 0.5], [0.5, 1.0]]
    mu = sample_measure("gaussian", {"mean": [0.0, 0.0], "cov": cov}, 40000, seed=4)
    emp = np.cov(mu.points.T)
    assert np.abs(emp - np.array(cov)).max() < 0.1


def test_uniform_box():
    mu = sample_measure(
        "uniform_box", {"low": [-1.0, 0.0], "high": [1.0, 2.0]}, 512, seed=5
    )
    assert mu.points[:, 0].min() >= -1.0 and mu.points[:, 0].max() <= 1.0
    assert mu.points[:, 1].min() >= 0.0 and mu.points[:, 1].max() <= 2.0


def test_empirical_exact_when_count_matches():
    pts = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]])
    mu = sample_measure("empirical", {"points": pts.tolist()}, 3, seed=6)
    assert np.array_equal(mu.points, pts)


def test_mixture_components():
    spec = {
        "components": [
            {"kind": "dirac", "params": {"point": [0.0]}, "weight": 1.0},
            {"kind": "dirac", "params": {"point": [10.0]}, "weight": 3.0},
        ]
    }
    mu = sample_measure("mixture", spec, 2000, seed=7)
    frac_far = np.mean(mu.points[:, 0] > 5.0)
    assert 0.70 < frac_far < 0.80


def test_sampler_determinism():
    a = sample_measure("gaussian", {"mean": [0.0], "cov": 1.0}, 32, seed=8)
    b = sample_measure("gaussian", {"mean": [0.0], "cov": 1.0}, 32, seed=8)
    assert np.array_equal(a.points, b.points)


def test_invalid_params_rejected():
    with pytest.raises(ConfigurationError):
        sample_measure("gaussian", {"mean": [0.0]}, 0, seed=0)
    with pytest.raises(ConfigurationError):
        sample_measure("uniform_sphere", {"dim": 3, "radius": -1.0}, 8, seed=0)
    with pytest.raises(ConfigurationError):
        sample_measure("how_about_no", {}, 8, seed=0)


# ---------------------------------------------------------------------------
# couplings


def test_paired_coupling_single_pair():
    mu0 = EmpiricalMeasure(np.array([[0.0, 0.0]]))
    mu1 = EmpiricalMeasure(np.array([[1.0, 1.0]]))
    x0, x1 = build_coupling(mu0, mu1, kind="paired", seed=0)
    assert np.allclose(x0, [[0.0, 0.0]])
    assert np.allclose(x1, [[1.0, 1.0]])


@pytest.mark.parametrize("kind", ["independent", "paired", "ot_matched"])
def test_paired_requires_equal_sizes(kind):
    mu0 = EmpiricalMeasure(np.zeros((3, 1)))
    mu1 = EmpiricalMeasure(np.ones((4, 1)))
    with pytest.raises(ConfigurationError, match="equal counts"):
        build_coupling(mu0, mu1, kind=kind, seed=0)


def test_independent_coupling_preserves_marginal_multisets():
    rng = np.random.default_rng(0)
    mu0 = EmpiricalMeasure(rng.standard_normal((16, 2)))
    mu1 = EmpiricalMeasure(rng.standard_normal((16, 2)))
    x0, x1 = build_coupling(mu0, mu1, kind="independent", seed=1)
    assert np.array_equal(np.sort(x0.ravel()), np.sort(mu0.points.ravel()))
    assert np.array_equal(np.sort(x1.ravel()), np.sort(mu1.points.ravel()))


def test_independent_coupling_reproducible():
    rng = np.random.default_rng(0)
    mu0 = EmpiricalMeasure(rng.standard_normal((8, 2)))
    mu1 = EmpiricalMeasure(rng.standard_normal((8, 2)))
    a = build_coupling(mu0, mu1, kind="independent", seed=5)
    b = build_coupling(mu0, mu1, kind="independent", seed=5)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def test_ot_matched_crossing_pairs():
    mu0 = EmpiricalMeasure(np.array([[0.0], [1.0]]))
    mu1 = EmpiricalMeasure(np.array([[1.0], [0.0]]))
    x0, x1 = build_coupling(mu0, mu1, kind="ot_matched", seed=0)
    # identity-cost matching: each point pairs with itself
    assert np.allclose(x0, x1)


def test_ot_matched_cost_equals_w2():
    rng = np.random.default_rng(3)
    mu0 = EmpiricalMeasure(rng.standard_normal((24, 3)))
    mu1 = EmpiricalMeasure(rng.standard_normal((24, 3)) + 1.0)
    x0, x1 = build_coupling(mu0, mu1, kind="ot_matched", seed=0)
    match_cost = np.mean(np.sum((x0 - x1) ** 2, axis=1))
    w2 = wasserstein2(mu0, mu1)
    assert abs(match_cost - w2**2) <= 1e-10


# ---------------------------------------------------------------------------
# exact W2


def test_w2_identical_sets_zero():
    rng = np.random.default_rng(4)
    pts = rng.standard_normal((12, 3))
    mu = EmpiricalMeasure(pts)
    nu = EmpiricalMeasure(pts[::-1].copy())
    assert wasserstein2(mu, nu) == 0.0


def test_w2_singletons():
    a = EmpiricalMeasure(np.array([[0.0, 0.0]]))
    b = EmpiricalMeasure(np.array([[3.0, 4.0]]))
    assert abs(wasserstein2(a, b) - 5.0) <= 1e-12


def test_w2_two_point_example():
    a = EmpiricalMeasure(np.array([[0.0, 0.0], [1.0, 0.0]]))
    b = EmpiricalMeasure(np.array([[0.0, 1.0], [1.0, 1.0]]))
    assert abs(wasserstein2(a, b) - 1.0) <= 1e-12


def test_w2_matches_brute_force():
    rng = np.random.default_rng(123)
    for _ in range(100):
        n = int(rng.integers(2, 7))
        a = rng.standard_normal((n, 3))
        b = rng.standard_normal((n, 3))
        got = wasserstein2(EmpiricalMeasure(a), EmpiricalMeasure(b))
        want = brute_force_w2(a, b)
        assert abs(got - want) <= 1e-12


def test_w2_translation_identity():
    rng = np.random.default_rng(9)
    pts = rng.standard_normal((64, 2))
    shift = np.array([2.0, -1.0])
    d = wasserstein2(EmpiricalMeasure(pts), EmpiricalMeasure(pts + shift))
    assert abs(d - np.linalg.norm(shift)) <= 1e-9


def test_w2_metric_properties():
    rng = np.random.default_rng(10)
    for _ in range(100):
        a = EmpiricalMeasure(rng.standard_normal((16, 3)))
        b = EmpiricalMeasure(rng.standard_normal((16, 3)))
        c = EmpiricalMeasure(rng.standard_normal((16, 3)))
        dab = wasserstein2(a, b)
        dba = wasserstein2(b, a)
        assert dab == dba
        assert dab <= wasserstein2(a, c) + wasserstein2(c, b) + 1e-9


def test_w2_size_mismatch_directs_to_sliced():
    a = EmpiricalMeasure(np.zeros((3, 1)))
    b = EmpiricalMeasure(np.zeros((4, 1)))
    with pytest.raises(ConfigurationError, match="sliced"):
        wasserstein2(a, b)


def test_w2_cap():
    n = EXACT_W2_MAX_N + 1
    a = EmpiricalMeasure(np.zeros((n, 1)))
    with pytest.raises(ConfigurationError):
        wasserstein2(a, a)


# ---------------------------------------------------------------------------
# dual-shifted assignment


def _assignment_clouds(seed, n, d, offset, lattice):
    rng = substream(seed, "assignment_property")
    shift = offset * rng.choice([-1.0, 1.0], size=d)
    if lattice:
        # small integer points: repeated rows, exact costs, tied assignments
        a = rng.integers(-3, 4, size=(n, d)).astype(float)
        b = rng.integers(-3, 4, size=(n, d)) + np.round(shift)
    else:
        a = rng.standard_normal((n, d)) * rng.uniform(0.1, 10.0)
        b = rng.standard_normal((n, d)) + shift
    return a, b, rng.permutation(n)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 300),
    d=st.integers(1, 6),
    offset=st.one_of(
        st.sampled_from([0.0, 30.0, 1.0e4]), st.floats(0.0, 30.0), st.floats(0.0, 1.0e4)
    ),
    lattice=st.booleans(),
)
def test_dual_shifted_assignment_is_the_plain_assignment(seed, n, d, offset, lattice):
    a, b, perm = _assignment_clouds(seed, n, d, offset, lattice)
    cost = sq_dists(a, b)
    rows, cols = _assignment(a, b)
    plain_rows, plain_cols = linear_sum_assignment(cost)
    assert np.array_equal(rows, plain_rows)
    assert np.array_equal(np.sort(cols), np.arange(n))
    # the same cost on the block, whether or not it ties
    gap = abs(cost[rows, cols].sum() - cost[plain_rows, plain_cols].sum())
    assert gap <= 4 * n * np.finfo(float).eps * cost.max()
    # the same assignment where the optimum is unique: continuous clouds near
    # the origin.  Lattice clouds tie; far from it the block's expansion
    # noise, about |offset|^2 eps, can pass the gap between the two best
    # assignments (at seed=260, n=260, d=1, offset=1e4 the block ties, and
    # the plain solve is the one 7.5e-9 above the sorted 1-D optimum)
    if not lattice and offset <= 30.0:
        assert np.array_equal(cols, plain_cols)
        x0, x1 = build_coupling(EmpiricalMeasure(a), EmpiricalMeasure(b), "ot_matched")
        assert np.array_equal(x0, a) and np.array_equal(x1, b[plain_cols])
    mu, nu = EmpiricalMeasure(a), EmpiricalMeasure(b)
    assert wasserstein2(mu, nu) == wasserstein2(nu, mu)
    assert wasserstein2(mu, EmpiricalMeasure(a[perm])) == 0.0


def test_assignment_fallbacks_solve_the_block_as_it_is(monkeypatch):
    solved = []

    def spy(cost):
        solved.append(cost.copy())
        return linear_sum_assignment(cost)

    monkeypatch.setattr(measures, "linear_sum_assignment", spy)
    cluster = substream(0, "assignment_fallback").standard_normal((64, 2))
    far = cluster + 0.5
    far[0] = 1.0e3
    cases = {
        "n = 1": (cluster[:1], cluster[1:2]),
        # every row of the block is constant
        "eps = 0": (cluster[:8], np.ones((8, 2))),
        # every kernel entry of the far column is floored: v is infinite
        "not finite": (cluster, far),
    }
    for name, (a, b) in cases.items():
        solved.clear()
        rows, cols = _assignment(a, b)
        assert len(solved) == 1 and np.array_equal(solved[0], sq_dists(a, b)), name
        assert np.array_equal(cols, linear_sum_assignment(sq_dists(a, b))[1]), name
    solved.clear()
    _assignment(cluster, cluster[::-1] + 0.5)
    assert not np.array_equal(solved[0], sq_dists(cluster, cluster[::-1] + 0.5))


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 300),
    d=st.integers(1, 6),
    noise=st.one_of(st.just(0.0), st.floats(1.0e-9, 1.0), st.just(np.inf)),
)
def test_argmin_matching_is_the_plain_assignment(seed, n, d, noise):
    # near-identity clouds (b a permuted, jittered copy of a), whose row
    # argmins are mostly a permutation, and independent random clouds
    # (noise inf), whose argmins rarely are: where they are, that matching
    # is returned and it is the solver's unique optimum
    rng = substream(seed, "argmin_matching")
    a = rng.standard_normal((n, d))
    if np.isinf(noise):
        b = rng.standard_normal((n, d)) + 0.5
    else:
        b = a[rng.permutation(n)] + noise * rng.standard_normal((n, d))
    cost = sq_dists(a, b)
    rows, cols = _assignment(a, b)
    plain_rows, plain_cols = linear_sum_assignment(cost)
    assert np.array_equal(rows, plain_rows)
    assert np.array_equal(cols, plain_cols)
    argmin = cost.argmin(axis=1)
    if np.unique(argmin).size == n:
        assert np.array_equal(cols, argmin)


def test_argmin_permutation_skips_the_solver(monkeypatch):
    solved = []

    def spy(cost):
        solved.append(cost)
        return linear_sum_assignment(cost)

    monkeypatch.setattr(measures, "linear_sum_assignment", spy)
    rng = substream(0, "argmin_skip")
    a = rng.standard_normal((256, 6))
    perm = rng.permutation(256)
    rows, cols = _assignment(a, a[perm] + 1.0e-4 * rng.standard_normal((256, 6)))
    assert solved == []
    assert np.array_equal(rows, np.arange(256)) and np.array_equal(perm[cols], np.arange(256))
    # one shared nearest column: the block is solved
    b = a[perm].copy()
    b[0] = b[1]
    _assignment(a, b)
    assert len(solved) == 1


def test_w2_solve_holds_one_block_above_the_cost_block():
    rng = substream(0, "assignment_memory")
    a = EmpiricalMeasure(rng.standard_normal((512, 6)))
    b = EmpiricalMeasure(rng.standard_normal((512, 6)) + 1.0)
    want = wasserstein2(a, b)
    tracemalloc.start()
    try:
        got = wasserstein2(a, b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == want
    block = 512 * 512 * 8
    assert peak <= 2 * block


# ---------------------------------------------------------------------------
# sliced W2


def test_sliced_identical_zero():
    rng = np.random.default_rng(12)
    pts = rng.standard_normal((50, 3))
    assert sliced_wasserstein2(EmpiricalMeasure(pts), EmpiricalMeasure(pts), 64, 0) == 0.0


def test_sliced_equals_exact_in_1d():
    rng = np.random.default_rng(13)
    a = EmpiricalMeasure(rng.standard_normal((32, 1)))
    b = EmpiricalMeasure(rng.standard_normal((32, 1)) + 0.7)
    exact = wasserstein2(a, b)
    sliced = sliced_wasserstein2(a, b, n_projections=8, seed=3)
    assert abs(sliced - exact) <= 1e-9


def test_sliced_close_to_exact_for_shifted_gaussians():
    rng = np.random.default_rng(14)
    big_a = rng.standard_normal((2048, 2))
    big_b = rng.standard_normal((2048, 2)) + np.array([2.0, 0.0])
    sliced = sliced_wasserstein2(
        EmpiricalMeasure(big_a), EmpiricalMeasure(big_b), n_projections=128, seed=0
    )
    small_a = EmpiricalMeasure(big_a[:512])
    small_b = EmpiricalMeasure(big_b[:512])
    exact = wasserstein2(small_a, small_b)
    assert abs(sliced - exact) <= 0.15 * exact


def test_sliced_deterministic():
    rng = np.random.default_rng(15)
    a = EmpiricalMeasure(rng.standard_normal((40, 3)))
    b = EmpiricalMeasure(rng.standard_normal((36, 3)))
    d1 = sliced_wasserstein2(a, b, 32, seed=7)
    d2 = sliced_wasserstein2(a, b, 32, seed=7)
    assert d1 == d2


def _sliced_reference(a: np.ndarray, b: np.ndarray, n_projections: int, seed: int) -> float:
    # one direction at a time: exact 1-D W2 by quantile matching on the
    # common refinement of the cumulative-mass grids i/Na and j/Nb
    rng = substream(seed, "sliced_w2")
    total = 0.0
    for _ in range(n_projections):
        v = rng.standard_normal(a.shape[1])
        v /= np.linalg.norm(v)
        xa, xb = np.sort(a @ v), np.sort(b @ v)
        ca = np.cumsum(np.full(len(xa), 1.0 / len(xa)))
        cb = np.cumsum(np.full(len(xb), 1.0 / len(xb)))
        edges = np.concatenate([[0.0], np.union1d(ca, cb)])
        qa = xa[np.minimum(np.searchsorted(ca, edges[:-1], side="right"), len(xa) - 1)]
        qb = xb[np.minimum(np.searchsorted(cb, edges[:-1], side="right"), len(xb) - 1)]
        total += float(np.sum(np.diff(edges) * (qa - qb) ** 2))
    return float(np.sqrt(a.shape[1] * total / n_projections))


@settings(max_examples=200, deadline=None)
@given(
    na=st.integers(1, 64),
    nb=st.integers(1, 64),
    k=st.integers(1, 4),
    n_projections=st.integers(1, 16),
    seed=st.integers(0, 2**32 - 1),
)
def test_sliced_matches_per_direction_reference(na, nb, k, n_projections, seed):
    rng = substream(seed, "sliced_property")
    a = rng.standard_normal((na, k)) * rng.uniform(0.1, 10.0)
    b = rng.standard_normal((nb, k)) + rng.uniform(-3.0, 3.0, size=k)
    got = sliced_wasserstein2(EmpiricalMeasure(a), EmpiricalMeasure(b), n_projections, seed)
    want = _sliced_reference(a, b, n_projections, seed)
    assert abs(got - want) <= 1e-12 * want
    # identical multisets, in another order, score an exact zero
    same = sliced_wasserstein2(
        EmpiricalMeasure(a), EmpiricalMeasure(a[rng.permutation(na)]), n_projections, seed
    )
    assert same == 0.0


def test_empty_cloud_rejected():
    with pytest.raises(ConfigurationError):
        EmpiricalMeasure(np.zeros((0, 1)))
