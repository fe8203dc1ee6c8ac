"""Oracle tests for the noising module.

Closed forms used as oracles:

* quadratic cost theta*|u|^2 has minimizer alpha_i = <p, f_i(x)> / (2 theta)
  of -<p, f(x,u)> + L(u); for the unicycle this reads
  alpha = ((p1 cos h + p2 sin h) / (2 theta), p3 / (2 theta)).
* single integrator (A = 0, B = I): costate is constant, the control is
  p0 / 2, and the reversed state is omega(t) = x0 - p0 t / 2 with
  H = -|p0|^2 / 4.
* the extremal system is canonically Hamiltonian, so H is conserved.
* Brockett fields f1 = (1, 0, x2), f2 = (0, 1, 0) give exact endpoints
  under constant controls.
* the noising dataset re-times noising time t as rollout time s = T - t, so
  a single-integrator row at s sits at x = -(T - s) p0 / 2.
* for LTI dynamics the extremal through (x0, p0) is the minimum-energy
  control between its own endpoints, so its energy must equal the Gramian
  quadratic form of the reversed system.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from ctrlflow import (
    ConfigurationError,
    NoisingConfig,
    QuadraticCost,
    builtin_system,
    endpoint_map_batch,
    generate_noising_dataset,
    gramian,
    hamiltonian,
    hamiltonian_drift,
    min_energy_pair_batch,
    pmp_extremal_batch,
    pmp_optimal_control,
    sample_brownian_control,
)
from ctrlflow.linalg import TILE_ENTRIES, tile_rows
from ctrlflow.ode import raise_on_blowup, rk4_node_controls, uniform_grid
from ctrlflow.seeding import substream
from helpers import control_energy


def test_quadratic_cost_validation():
    for bad in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ConfigurationError):
            QuadraticCost(theta=bad)
    cost = QuadraticCost(theta=2.0)
    u = np.array([[1.0, 2.0], [0.0, -3.0]])
    assert np.allclose(cost.value(u), [10.0, 18.0])


def test_optimal_control_closed_form_unicycle():
    sys = builtin_system("unicycle")
    rng = substream(7, "alpha")
    for theta in (1.0, 2.5):
        cost = QuadraticCost(theta=theta)
        x = rng.standard_normal((40, 3))
        p = rng.standard_normal((40, 3))
        alpha = pmp_optimal_control(sys, cost, x, p)
        h = x[:, 2]
        want = np.column_stack(
            [
                (p[:, 0] * np.cos(h) + p[:, 1] * np.sin(h)) / (2.0 * theta),
                p[:, 2] / (2.0 * theta),
            ]
        )
        assert np.allclose(alpha, want, atol=1e-12)
    # single (d,) input round-trips through the batch path
    a1 = pmp_optimal_control(sys, QuadraticCost(), x[0], p[0])
    assert a1.shape == (2,)
    assert np.allclose(a1, alpha[0] * 2.5, atol=1e-12)


def test_optimal_control_minimizes_pre_hamiltonian():
    # alpha must beat random candidate controls pointwise
    sys = builtin_system("brockett")
    cost = QuadraticCost(theta=1.7)
    rng = substream(11, "argmin")
    for _ in range(20):
        x = rng.standard_normal(3)
        p = rng.standard_normal(3)
        alpha = pmp_optimal_control(sys, cost, x, p)

        def pre_h(u):
            f = sys.rhs(x[None, :], np.asarray(u, dtype=float)[None, :])[0]
            return -float(p @ f) + cost.value(np.asarray(u, dtype=float))

        best = pre_h(alpha)
        for _ in range(50):
            u = alpha + rng.standard_normal(2)
            assert best <= pre_h(u) + 1e-12


def test_single_integrator_extremal_closed_form():
    A = np.zeros((2, 2))
    B = np.eye(2)
    sys = builtin_system("linear", A=A, B=B)
    cost = QuadraticCost(theta=1.0)
    x0 = np.array([0.4, -1.1])
    p0 = np.array([2.0, -0.6])
    T = 1.3
    ens, costates, bad = pmp_extremal_batch(sys, cost, x0[None], p0[None], T, 400)
    assert np.isnan(bad).all()
    drift = hamiltonian_drift(sys, cost, ens.states, costates)
    states, costates, t = ens.states[0], costates[0], ens.t_grid
    want_states = x0[None, :] - 0.5 * t[:, None] * p0[None, :]
    assert np.allclose(states, want_states, atol=1e-12)
    assert np.allclose(costates, p0[None, :], atol=1e-12)
    assert np.allclose(ens.controls[0], 0.5 * p0[None, :], atol=1e-12)
    H0 = hamiltonian(sys, cost, states[0], costates[0])
    assert abs(H0 - (-0.25 * float(p0 @ p0))) < 1e-12
    assert drift.shape == (1,) and drift[0] < 1e-13


def test_hamiltonian_conserved_unicycle():
    sys = builtin_system("unicycle")
    cost = QuadraticCost(theta=1.0)
    rng = substream(3, "drift")
    x0s = np.empty((10, 3))
    p0s = np.empty((10, 3))
    for i in range(10):  # draw order of the former one-extremal-at-a-time loop
        x0s[i] = rng.standard_normal(3)
        p0s[i] = 2.0 * rng.standard_normal(3)
    ens, costates, bad = pmp_extremal_batch(sys, cost, x0s, p0s, 1.0, 4000)
    raise_on_blowup(bad)
    drift = hamiltonian_drift(sys, cost, ens.states, costates)
    assert drift.shape == (10,) and np.all(drift < 1e-8)


@settings(max_examples=10, deadline=None)
@given(
    st.sampled_from(["1", "tile - 1", "tile", "tile + 1", "3 tiles"]),
    st.integers(0, 2**16),
)
def test_pmp_node_controls_and_drift_match_the_one_shot_formulas(size, seed):
    # both are built one row tile at a time; the reference evaluates every
    # node at once, on contiguous copies of the states and costates
    sys = builtin_system("unicycle")
    cost = QuadraticCost(theta=0.7)
    n_grid = 300
    tile = tile_rows((n_grid + 1) * sys.d * (sys.m + 2))
    n = {"1": 1, "tile - 1": tile - 1, "tile": tile, "tile + 1": tile + 1, "3 tiles": 3 * tile}
    rng = np.random.default_rng(seed)
    x0s, p0s = rng.standard_normal((2, n[size], 3))
    ens, costates, _ = pmp_extremal_batch(sys, cost, x0s, p0s, 1.0, n_grid)
    w = np.ascontiguousarray(ens.states).reshape(-1, 3)
    p = np.ascontiguousarray(costates).reshape(-1, 3)
    want = pmp_optimal_control(sys, cost, w, p).reshape(ens.controls.shape)
    assert np.array_equal(ens.controls, want)
    H = hamiltonian(sys, cost, w, p).reshape(n[size], -1)
    want = np.abs(H - H[:, :1]).max(axis=1) / (1.0 + np.abs(H[:, 0]))
    assert np.array_equal(hamiltonian_drift(sys, cost, ens.states, costates), want)


def test_extremal_batch_shape_errors():
    sys = builtin_system("unicycle")
    cost = QuadraticCost()
    with pytest.raises(ConfigurationError):
        pmp_extremal_batch(sys, cost, np.zeros((2, 3)), np.zeros((3, 3)), 1.0, 50)
    with pytest.raises(ConfigurationError):
        pmp_extremal_batch(sys, cost, np.zeros((2, 4)), np.zeros((2, 4)), 1.0, 50)


def test_exp_map_unicycle_vertical_costate():
    # at p0 = (0, 0, 2) the heading control is 1, the speed control is 0,
    # and that stays self-consistent: omega(t) = (0, 0, -t)
    sys = builtin_system("unicycle")
    cost = QuadraticCost()
    for T in (0.3, 1.0, 2.0):
        ens, _, bad = pmp_extremal_batch(
            sys, cost, np.zeros((1, 3)), np.array([[0.0, 0.0, 2.0]]), T, 500
        )
        raise_on_blowup(bad)
        want = np.column_stack([np.zeros((501, 2)), -ens.t_grid])
        assert np.allclose(ens.states[0], want, atol=1e-10)


def test_exp_map_batch_matches_single():
    # a 6-row extremal batch from a common start equals its one-row calls
    sys = builtin_system("unicycle")
    cost = QuadraticCost()
    rng = substream(5, "expmap")
    x0s = np.tile([0.2, -0.4, 0.6], (6, 1))
    p0s = rng.standard_normal((6, 3))
    ens, costates, bad = pmp_extremal_batch(sys, cost, x0s, p0s, 0.8, 300)
    raise_on_blowup(bad)
    assert ens.states.shape == (6, 301, 3)
    for i in range(6):
        one, one_costates, _ = pmp_extremal_batch(sys, cost, x0s[i][None], p0s[i][None], 0.8, 300)
        assert np.allclose(ens.states[i], one.states[0], atol=1e-12)
        assert np.allclose(ens.controls[i], one.controls[0], atol=1e-12)
        assert np.allclose(costates[i], one_costates[0], atol=1e-12)


def test_endpoint_map_brockett_constant_control():
    sys = builtin_system("brockett")
    c = 0.7
    x0 = np.array([0.0, c, 0.0])
    t_grid = np.linspace(0.0, 1.0, 101)
    u = np.tile(np.array([1.0, 0.0]), (1, 101, 1))
    fwd, bad_f = rk4_node_controls(sys.rhs, x0[None, :], t_grid, u)
    assert np.allclose(fwd[0, -1], [1.0, c, c], atol=1e-12)
    rev, bad_r = endpoint_map_batch(sys, x0[None, :], t_grid, u)
    assert np.allclose(rev[0, -1], [-1.0, c, -c], atol=1e-12)
    assert np.isnan(bad_f[0]) and np.isnan(bad_r[0])


def test_endpoint_map_zero_sigma_is_identity_for_driftless():
    sys = builtin_system("martinet")
    path = sample_brownian_control(2, 1.0, 64, 0.0, seed=4)
    assert path.shape == (65, 2) and np.all(path == 0.0)
    states, _ = endpoint_map_batch(
        sys, np.array([[0.3, -0.5, 0.2]]), uniform_grid(1.0, 64), path[None]
    )
    assert np.allclose(states[0, -1], [0.3, -0.5, 0.2], atol=1e-14)


def test_endpoint_map_forward_reversed_round_trip():
    # integrating +f forward, then the noising dynamics -f with the
    # time-flipped control, must return to the start up to RK4 error
    sys = builtin_system("unicycle")
    path = sample_brownian_control(2, 1.0, 1500, 0.5, seed=21)
    t_grid = uniform_grid(1.0, 1500)
    x0 = np.array([0.4, 0.1, -0.3])
    fwd, _ = rk4_node_controls(sys.rhs, x0[None, :], t_grid, path[None])
    states, bad = endpoint_map_batch(sys, fwd[:, -1], t_grid, path[::-1][None, :, :])
    assert not np.isfinite(bad[0])
    assert np.linalg.norm(states[0, -1] - x0) < 1e-6


def test_brownian_path_statistics():
    with pytest.raises(ConfigurationError):
        sample_brownian_control(2, 1.0, 50, -0.1, seed=0)
    a = sample_brownian_control(3, 2.0, 80, 0.7, seed=42)
    b = sample_brownian_control(3, 2.0, 80, 0.7, seed=42)
    c = sample_brownian_control(3, 2.0, 80, 0.7, seed=43)
    assert a.shape == (81, 3)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert np.all(a[0] == 0.0)
    # endpoint variance sigma^2 T, pooled over 2000 seeds x 4 channels
    sigma, T = 0.7, 2.0
    ends = np.array(
        [sample_brownian_control(4, T, 40, sigma, seed=s)[-1] for s in range(2000)]
    )
    var = float(np.var(ends))
    assert abs(var - sigma**2 * T) < 0.05 * sigma**2 * T


def test_noising_config_validation():
    with pytest.raises(ConfigurationError):
        NoisingConfig(kind="diffusion", T=1.0, n_grid=100, n_samples=10)
    with pytest.raises(ConfigurationError):
        NoisingConfig(kind="pmp", T=1.0, n_grid=100, n_samples=0)
    with pytest.raises(ConfigurationError):
        NoisingConfig(kind="pmp", T=1.0, n_grid=100, n_samples=10, n_time_samples=1)


def test_dataset_single_integrator_closed_form():
    A = np.zeros((2, 2))
    B = np.eye(2)
    sys = builtin_system("linear", A=A, B=B)
    c = np.array([1.2, -0.6])
    cfg = NoisingConfig(kind="pmp", T=2.0, n_grid=100, n_samples=6,
                        n_time_samples=5, seed=9)
    ds, report = generate_noising_dataset(
        sys, cfg,
        mu0_sampler=lambda n, s: np.zeros((n, 2)),
        p_sampler=lambda n, s: np.tile(c, (n, 1)),
    )
    assert report.n_kept == 6 and report.excluded_count == 0
    assert report.hamiltonian_drift_max < 1e-10
    assert np.allclose(report.endpoints, -0.5 * cfg.T * c[None, :], atol=1e-12)
    assert ds.n == 6 * 5
    assert np.allclose(np.unique(ds.t), [0.0, 0.5, 1.0, 1.5, 2.0])
    assert np.allclose(ds.u, 0.5 * c[None, :], atol=1e-12)
    assert np.allclose(ds.x, -0.5 * (cfg.T - ds.t)[:, None] * c[None, :], atol=1e-12)
    assert len(np.unique(ds.traj_id)) == 6
    assert np.all(np.bincount(ds.traj_id) == 5)


def test_noising_memory_is_the_extremals_and_two_tiles():
    # per-node controls and Hamiltonians are built one row tile at a time and
    # the dataset takes the kept rows at its time samples only, so nothing
    # beyond the (n, K+1, 2d) extremal array, the node controls, the outputs
    # and two tiles is alive at once
    sys = builtin_system("unicycle")
    n, n_grid = 160, 300
    cfg = NoisingConfig(kind="pmp", T=2.0, n_grid=n_grid, n_samples=n, p_scale=6.0, seed=5)
    tracemalloc.start()
    try:
        ds, report = generate_noising_dataset(sys, cfg, lambda k, s: np.zeros((k, 3)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.n_kept == n
    extremals = 8 * n * (n_grid + 1) * (2 * sys.d + sys.m)
    outputs = sum(a.nbytes for a in (ds.t, ds.x, ds.u, ds.traj_id, report.endpoints))
    assert peak <= extremals + outputs + 2 * 8 * TILE_ENTRIES


def test_randomized_noising_holds_no_stage_controls():
    # RK4 reads the Brownian node controls as they are and forms each step's
    # midpoint, so no (n, 2K+1, m) array of stage controls is built: beyond
    # the node controls, the states and the outputs, less than half of one
    # such array is alive at once
    sys = builtin_system("martinet")
    n, n_grid = 160, 300
    cfg = NoisingConfig(kind="randomized", T=1.0, n_grid=n_grid, n_samples=n, sigma=0.5, seed=5)
    tracemalloc.start()
    try:
        ds, report = generate_noising_dataset(sys, cfg, lambda k, s: np.zeros((k, 3)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.n_kept == n
    nodes = 8 * n * (n_grid + 1) * (sys.d + sys.m)
    stage_controls = 8 * n * (2 * n_grid + 1) * sys.m
    outputs = sum(a.nbytes for a in (ds.t, ds.x, ds.u, ds.traj_id, report.endpoints))
    assert peak <= nodes + outputs + stage_controls // 2


def test_dataset_determinism_and_seed_sensitivity():
    sys = builtin_system("unicycle")
    mu0 = lambda n, s: substream(s, "mu0").standard_normal((n, 3))
    cfg = NoisingConfig(kind="pmp", T=1.0, n_grid=120, n_samples=8,
                        n_time_samples=6, p_scale=2.0, seed=31)
    ds1, _ = generate_noising_dataset(sys, cfg, mu0)
    ds2, _ = generate_noising_dataset(sys, cfg, mu0)
    assert np.array_equal(ds1.t, ds2.t)
    assert np.array_equal(ds1.x, ds2.x)
    assert np.array_equal(ds1.u, ds2.u)
    assert np.array_equal(ds1.traj_id, ds2.traj_id)
    cfg3 = NoisingConfig(kind="pmp", T=1.0, n_grid=120, n_samples=8,
                         n_time_samples=6, p_scale=2.0, seed=32)
    ds3, _ = generate_noising_dataset(sys, cfg3, mu0)
    assert not np.array_equal(ds1.x, ds3.x)


def test_dataset_p_scale_widens_spread():
    sys = builtin_system("unicycle")
    mu0 = lambda n, s: np.zeros((n, 3))
    spread = {}
    for p_scale in (0.5, 3.0):
        cfg = NoisingConfig(kind="pmp", T=1.0, n_grid=200, n_samples=30,
                            n_time_samples=4, p_scale=p_scale, seed=13)
        _, report = generate_noising_dataset(sys, cfg, mu0)
        spread[p_scale] = float(np.mean(np.linalg.norm(report.endpoints, axis=1)))
    assert spread[3.0] > 2.0 * spread[0.5]
    assert spread[0.5] > 0.05  # noising must actually move the point mass


def test_dataset_randomized_martinet_spreads():
    sys = builtin_system("martinet")
    cfg = NoisingConfig(kind="randomized", T=1.0, n_grid=300, n_samples=40,
                        n_time_samples=5, sigma=1.0, seed=17)
    ds, report = generate_noising_dataset(sys, cfg, lambda n, s: np.zeros((n, 3)))
    assert report.n_kept == 40
    assert report.hamiltonian_drift_max is None
    stds = np.std(report.endpoints, axis=0)
    assert stds[0] > 0.1 and stds[1] > 0.1
    assert float(np.mean(np.linalg.norm(report.endpoints, axis=1))) > 0.1
    # Brownian controls start at zero, so the rows at noising time 0, rollout
    # time T, carry zero control
    at_start = ds.t == cfg.T
    assert at_start.sum() == 40
    assert np.all(ds.u[at_start] == 0.0)


def test_dataset_blowup_exclusion():
    # with p0 = 0 the reversed scalar flow is omega' = 2 omega exactly,
    # so rows starting at 50 cross the 100 threshold at t = ln(2)/2
    A = np.array([[-2.0]])
    B = np.array([[1.0]])
    sys = builtin_system("linear", A=A, B=B)
    x0_rows = np.array([[50.0], [1.0], [50.0], [1.0]])
    cfg = NoisingConfig(kind="pmp", T=1.0, n_grid=400, n_samples=4,
                        n_time_samples=4, blowup=100.0, seed=2)
    ds, report = generate_noising_dataset(
        sys, cfg,
        mu0_sampler=lambda n, s: x0_rows,
        p_sampler=lambda n, s: np.zeros((n, 1)),
    )
    assert report.n_kept == 2
    assert [i for i, _ in report.excluded] == [0, 2]
    for _, t_bad in report.excluded:
        assert abs(t_bad - 0.5 * np.log(2.0)) < 0.05
    assert report.warnings
    assert np.allclose(report.endpoints, np.exp(2.0), atol=1e-6)
    assert set(np.unique(ds.traj_id)) == {1, 3}
    with pytest.raises(ConfigurationError):
        generate_noising_dataset(
            sys, cfg,
            mu0_sampler=lambda n, s: np.full((n, 1), 50.0),
            p_sampler=lambda n, s: np.zeros((n, 1)),
        )


def test_mu0_sampler_shape_rejected():
    sys = builtin_system("unicycle")
    cfg = NoisingConfig(kind="pmp", T=1.0, n_grid=50, n_samples=5)
    with pytest.raises(ConfigurationError):
        generate_noising_dataset(sys, cfg, lambda n, s: np.zeros((n, 2)))


def test_lti_extremal_energy_matches_gramian():
    # dual route: extremal energy integrated along the flow vs the
    # closed-form minimum delta' W^-1 delta of the reversed LTI system
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    B = np.array([[0.0], [1.0]])
    sys = builtin_system("linear", A=A, B=B)
    cost = QuadraticCost(theta=1.0)
    T = 1.5
    W = gramian(-A, -B, T)
    Winv = np.linalg.inv(W)
    EmT = expm(-A * T)
    rng = substream(19, "lti")
    for _ in range(10):
        x0 = rng.standard_normal(2)
        p0 = rng.standard_normal(2)
        ens, _, bad = pmp_extremal_batch(sys, cost, x0[None], p0[None], T, 3000)
        raise_on_blowup(bad)
        xT = ens.states[0, -1]
        energy = control_energy(ens)[0]
        delta = xT - EmT @ x0
        opt = float(delta @ Winv @ delta)
        assert abs(energy - opt) <= 1e-6 * max(1.0, abs(opt))
        # and the constructive minimum-energy route agrees too
        me = min_energy_pair_batch(-A, -B, x0[None], xT[None], T, n_grid=2000)
        assert abs(control_energy(me)[0] - opt) <= 1e-6 * max(1.0, abs(opt))
