"""Interpolant constructions: Gramians, minimum-energy steering,
pole placement, and the two-phase Brockett steering.

Closed-form oracles used here:
  - double integrator Gramian over T=1: [[1/3, 1/2], [1/2, 1]]
  - canonical min-energy control for (0,0) -> (1,0): u(t) = 6 - 12t
  - scalar feedback loop decays like exp(-t)
  - Brockett phase-2 vertical displacement equals pi * c
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import expm, null_space

from ctrlflow.errors import (
    ConfigurationError,
    InfeasibleTargetError,
    UncontrollablePairError,
    UnstableGainError,
)
from ctrlflow.interpolants import (
    BROCKETT_MIN_GRID,
    GRAMIAN_EIG_RATIO,
    brockett_steer_pair_batch,
    equilibrium_control,
    feedback_steer_pair_batch,
    gramian,
    min_energy_pair_batch,
    place_poles,
)
from ctrlflow.linalg import TILE_ENTRIES, tile_rows
from ctrlflow.systems import builtin_system, six_state_matrices
from helpers import control_energy, fine_rk4, integrate_samples, residual_error

A_DI = np.array([[0.0, 1.0], [0.0, 0.0]])
B_DI = np.array([[0.0], [1.0]])

# a rounding floor for the comparisons with fine RK4, relative to a row's
# scale: far above the double rounding that about a thousand steps sum up
RK4_FLOOR = 1e-11


def _assert_exact_flow(ens, field, x0):
    """Each row of ``ens`` agrees at every node with fine RK4 of ``field``
    from ``x0``, within the RK4 run's own error bound plus the rounding
    floor; columns of ``x0`` past the ensemble's states (a costate) ride
    along."""
    K = len(ens.t_grid) - 1
    ref, bound = fine_rk4(field, x0, ens.t_grid, max(4, 512 // K))
    ref = ref[..., : ens.states.shape[2]]
    dev = np.abs(ens.states - ref).max(axis=(1, 2))
    assert np.all(dev <= bound + RK4_FLOOR * (1.0 + np.abs(ref).max(axis=(1, 2))))


def _endpoint_errors(ens, ys):
    errs = np.array([np.linalg.norm(row) for row in ens.states[:, -1] - ys])
    assert np.array_equal(ens.meta["endpoint_error"], errs)
    return errs


# ---------------------------------------------------------------------------
# gramian


def test_gramian_identity_pair():
    W = gramian(np.zeros((2, 2)), np.eye(2), T=1.0)
    assert np.allclose(W, np.eye(2), atol=1e-12)


def test_gramian_double_integrator_closed_form():
    for T in (0.5, 1.0, 6.0):
        W = gramian(A_DI, B_DI, T)
        expected = np.array([[T**3 / 3.0, T**2 / 2.0], [T**2 / 2.0, T]])
        assert np.abs(W - expected).max() <= 1e-13 * np.abs(expected).max()


@st.composite
def _gramian_cases(draw):
    d, m = draw(st.integers(1, 4)), draw(st.integers(1, 2))
    entries = st.floats(-1.0, 1.0, allow_subnormal=False)
    A = draw(arrays(float, (d, d), elements=entries))
    B = draw(arrays(float, (d, m), elements=entries))
    return A, B, draw(st.floats(0.1, 3.0))


# a stable A on which one block exponential over the whole horizon errs by
# 6e-10 relative
_STABLE_4 = (
    np.array([[-1.0, -1, 0, 1], [-1, -1, 1, 1], [-1, -1, -1, 0], [1, 1, 1, -1]]),
    np.array([[1.0, -1], [1, -1], [0, 0], [1, 1]]),
    3.0,
)


@settings(max_examples=60, deadline=None)
@given(_gramian_cases())
@example(_STABLE_4)
def test_gramian_matches_a_fine_simpson_reference(case):
    # reference: 4000-step Simpson sum of exp(At) B B' exp(A't), whose
    # error on these cases is far below the asserted 1e-10 relative
    A, B, T = case
    t = np.linspace(0.0, T, 4001)
    eAtB = expm(t[:, None, None] * A) @ B  # (K+1, d, m)
    ref = integrate_samples(np.einsum("kim,kjm->ijk", eAtB, eAtB), t)
    W = gramian(A, B, T)
    assert np.array_equal(W, W.T)
    assert np.linalg.norm(W - ref) <= 1e-10 * np.linalg.norm(ref)


def test_gramian_bilinear_in_B():
    W1 = gramian(A_DI, B_DI, T=1.0)
    W2 = gramian(A_DI, 2.0 * B_DI, T=1.0)
    assert np.allclose(W2, 4.0 * W1, rtol=1e-12)


def test_gramian_symmetric_positive_definite():
    W = gramian(A_DI, B_DI, T=2.0)
    assert np.abs(W - W.T).max() <= 1e-12
    assert np.linalg.eigvalsh(W).min() > 0.0


def test_gramian_dimension_errors():
    with pytest.raises(ConfigurationError):
        gramian(np.zeros((2, 3)), B_DI, T=1.0)
    with pytest.raises(ConfigurationError):
        gramian(A_DI, np.zeros((3, 1)), T=1.0)


# ---------------------------------------------------------------------------
# minimum-energy steering


def test_min_energy_single_integrator_constant_control():
    ens = min_energy_pair_batch(
        np.zeros((2, 2)), np.eye(2), np.zeros((1, 2)), np.array([[1.0, 0.0]]), 1.0, 200
    )
    assert np.abs(ens.controls - np.array([1.0, 0.0])).max() <= 1e-14
    # straight-line states
    assert np.allclose(ens.states[0, :, 0], ens.t_grid, rtol=0.0, atol=1e-14)


def test_min_energy_canonical_control_formula():
    ens = min_energy_pair_batch(A_DI, B_DI, np.zeros((1, 2)), np.array([[1.0, 0.0]]), 1.0, 2000)
    expected = 6.0 - 12.0 * ens.t_grid
    assert np.abs(ens.controls[0, :, 0] - expected).max() <= 1e-12


def test_min_energy_zero_displacement():
    x = np.array([[0.7, -0.2]])
    ens = min_energy_pair_batch(np.zeros((2, 2)), np.eye(2), x, x, 1.0, 100)
    assert np.abs(ens.controls).max() <= 1e-12


def test_min_energy_random_pairs_terminal():
    rng = np.random.default_rng(21)
    x0s = rng.uniform(-1.0, 1.0, size=(100, 2))
    xTs = rng.uniform(-1.0, 1.0, size=(100, 2))
    ens = min_energy_pair_batch(A_DI, B_DI, x0s, xTs, 1.0, 2000)
    errs = np.linalg.norm(ens.states[:, -1] - xTs, axis=1)
    assert errs.max() <= 1e-12
    assert np.allclose(ens.meta["endpoint_error"], errs, rtol=1e-12, atol=0.0)


def test_min_energy_optimality_among_null_perturbations():
    # u* + v steers to the same endpoint whenever v has zero Gramian image;
    # its cost can only go up
    rng = np.random.default_rng(22)
    T, n_grid = 1.0, 2000
    x0 = np.array([0.3, -0.4])
    xT = np.array([-0.8, 0.5])
    ens = min_energy_pair_batch(A_DI, B_DI, x0[None], xT[None], T, n_grid)
    t = ens.t_grid
    W = gramian(A_DI, B_DI, T)
    base_cost = control_energy(ens)[0]

    # reachability kernel of v: integral of exp(A(T-t)) B v(t) dt
    eAtB = np.stack([expm(A_DI * (T - ti)) @ B_DI for ti in t])  # (K+1, 2, 1)

    for _ in range(20):
        coeffs = rng.uniform(-2.0, 2.0, size=3)
        v0 = (
            coeffs[0] * np.sin(2.0 * np.pi * t)
            + coeffs[1] * np.cos(4.0 * np.pi * t)
            + coeffs[2] * t**2
        )[:, None]
        delta = np.stack(
            [integrate_samples(eAtB[:, i, 0] * v0[:, 0], t) for i in range(2)]
        )
        correction = np.einsum("kij,i->kj", eAtB, np.linalg.solve(W, delta))
        v = v0 - correction
        # endpoint displacement of v vanishes by construction
        resid = np.stack(
            [integrate_samples(eAtB[:, i, 0] * v[:, 0], t) for i in range(2)]
        )
        assert np.abs(resid).max() <= 1e-8
        perturbed = ens.controls[0] + v
        cost = integrate_samples(np.sum(perturbed**2, axis=1), t)
        assert base_cost <= cost + 1e-8


def test_min_energy_controls_own_their_memory():
    # the node controls are one array of their own, not a view of a larger one
    rng = np.random.default_rng(8)
    ens = min_energy_pair_batch(
        A_DI, B_DI, rng.standard_normal((5, 2)), rng.standard_normal((5, 2)), 1.0, n_grid=100
    )
    assert ens.controls.shape == (5, 101, 1)
    assert ens.controls.base is None and ens.controls.flags.c_contiguous


@st.composite
def _min_energy_cases(draw):
    d = draw(st.integers(1, 3))
    m = draw(st.integers(1, d))
    n = draw(st.integers(1, 4))
    entries = st.floats(-1.0, 1.0, allow_subnormal=False)
    A = draw(arrays(float, (d, d), elements=entries))
    B = draw(arrays(float, (d, m), elements=entries))
    ends = draw(arrays(float, (2, n, d), elements=st.floats(-2.0, 2.0, allow_subnormal=False)))
    return A, B, ends[0], ends[1], draw(st.floats(0.5, 2.0)), draw(st.integers(1, 64))


@settings(max_examples=40, deadline=None)
@given(_min_energy_cases())
@example((A_DI, B_DI, np.array([[0.3, -0.4]]), np.array([[-0.8, 0.5]]), 1.0, 8))
def test_min_energy_states_are_the_exact_flow_of_the_controls(case):
    # the returned controls are B' exp(A'(T - t)) c for one c per row; RK4
    # of x' = Ax + BB'p, p' = -A'p from p(0) = exp(A'T) c re-integrates them
    A, B, x0s, xTs, T, n_grid = case
    W = gramian(A, B, T)
    assume(np.linalg.cond(W) <= 1e3)
    # the Gramians the solve accepts: drawn entries near 1e-160 make B B'
    # and W subnormal, which the solve rejects by name
    eigs = np.linalg.eigvalsh(W)
    assume(eigs[0] >= max(GRAMIAN_EIG_RATIO * eigs[-1], np.finfo(float).tiny))
    ens = min_energy_pair_batch(A, B, x0s, xTs, T, n_grid)
    d, m = B.shape
    t = ens.t_grid
    basis = (B.T @ expm((T - t)[:, None, None] * A.T)).reshape(-1, d)  # ((K+1) m, d)
    c = np.linalg.lstsq(basis, ens.controls.reshape(len(x0s), -1).T, rcond=None)[0].T
    fitted = (c @ basis.T).reshape(ens.controls.shape)
    assert np.abs(fitted - ens.controls).max() <= 1e-12 * (1.0 + np.abs(ens.controls).max())
    assert np.array_equal(ens.states[:, 0], x0s)

    def field(j, tt, z):
        x, p = z[:, :d], z[:, d:]
        return np.hstack([x @ A.T + p @ B @ B.T, -p @ A])

    _assert_exact_flow(ens, field, np.hstack([x0s, c @ expm(A * T)]))
    errs = _endpoint_errors(ens, xTs)
    assert np.all(errs <= 1e-12 * (1.0 + np.linalg.norm(xTs, axis=1)))


def test_min_energy_subnormal_gramian_raises():
    # W(T) = 6.8e-310 is subnormal and passed a floor of 1e-10 * 1e-300: the
    # solve then returned NaN states, controls and endpoint errors for two
    # rows, and the terminal check let them through
    A, B = np.array([[1.0]]), np.array([[5.04e-156]])
    assert 0.0 < gramian(A, B, 2.0)[0, 0] < np.finfo(float).tiny
    with pytest.raises(UncontrollablePairError, match="numerically singular"):
        min_energy_pair_batch(A, B, np.zeros((2, 1)), np.zeros((2, 1)), 2.0, 8)


def test_min_energy_uncontrollable_rejected():
    A = np.diag([1.0, 2.0])
    B = np.array([[1.0], [0.0]])
    with pytest.raises(UncontrollablePairError):
        min_energy_pair_batch(A, B, np.zeros((1, 2)), np.ones((1, 2)), 1.0, 100)


# ---------------------------------------------------------------------------
# pole placement


def test_place_poles_double_integrator_closed_form():
    K = place_poles(A_DI, B_DI, [-1.0, -2.0])
    assert np.allclose(K, np.array([[-2.0, -3.0]]), atol=1e-9)


def test_place_poles_scalar():
    K = place_poles(np.zeros((1, 1)), np.ones((1, 1)), [-3.0])
    assert np.allclose(K, [[-3.0]], atol=1e-12)


def test_place_poles_spectrum_matches():
    from ctrlflow.systems import six_state_matrices

    A, B = six_state_matrices()
    poles = np.array([-2.0, -2.0, -2.0, -2.4, -2.4, -2.4])
    K = place_poles(A, B, poles, seed=1)
    eig = np.linalg.eigvals(A + B @ K)
    assert np.abs(np.sort(eig.real) - np.sort(poles)).max() <= 1e-6
    assert np.abs(eig.imag).max() <= 1e-6


def test_place_poles_multiplicity_capped_by_input_count():
    # the diagonalizable assignment cannot repeat a pole more often than m
    from ctrlflow.systems import six_state_matrices

    A, B = six_state_matrices()
    with pytest.raises(ConfigurationError):
        place_poles(A, B, [-2.0] * 6, seed=0)


def test_place_poles_complex_conjugate_pair():
    K = place_poles(A_DI, B_DI, [-1.0 + 1.0j, -1.0 - 1.0j])
    eig = np.linalg.eigvals(A_DI + B_DI @ K)
    assert np.allclose(np.sort_complex(eig), [-1.0 - 1.0j, -1.0 + 1.0j], atol=1e-6)


def test_place_poles_requires_conjugate_closure():
    with pytest.raises(ConfigurationError):
        place_poles(A_DI, B_DI, [-1.0 + 1.0j, -2.0])


def test_place_poles_near_underflow_raises_a_named_error():
    # the rank test is scale-free and passes B = 2.2e-308 (1, 1, 1)'; the
    # Ackermann solve on its controllability matrix is singular in LU, which
    # escaped as numpy's LinAlgError
    A = np.array([[0.0, 0.0, 0.5], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    B = np.full((3, 1), np.finfo(float).tiny)
    with pytest.raises(UncontrollablePairError, match="numerically singular"):
        place_poles(A, B, [-1.0, -2.0, -3.0])


def test_place_poles_uncontrollable():
    A = np.diag([1.0, 2.0])
    B = np.array([[1.0], [0.0]])
    with pytest.raises(UncontrollablePairError):
        place_poles(A, B, [-1.0, -2.0])


# ---------------------------------------------------------------------------
# feedback steering


def test_feedback_steer_scalar_decay():
    ens = feedback_steer_pair_batch(
        np.zeros((1, 1)),
        np.ones((1, 1)),
        np.array([[-1.0]]),
        np.zeros((1, 1)),
        np.array([[1.0]]),
        T=5.0,
        n_grid=2000,
    )
    assert np.allclose(ens.states[0, :, 0], np.exp(-ens.t_grid), rtol=0.0, atol=1e-14)
    terminal = abs(ens.states[0, -1, 0])
    assert abs(terminal - np.exp(-5.0)) <= 1e-14
    assert ens.meta["endpoint_error"][0] == terminal


def test_feedback_steer_from_equilibrium_stays():
    K = place_poles(A_DI, B_DI, [-1.0, -2.0])
    y = np.array([[2.0, 0.0]])  # zero-velocity states are equilibria
    ens = feedback_steer_pair_batch(A_DI, B_DI, K, y, y, T=3.0, n_grid=500)
    assert np.abs(ens.states - y).max() <= 1e-9
    assert np.abs(ens.controls).max() <= 1e-9


def test_feedback_steer_six_state_terminal_error():
    from ctrlflow.systems import six_state_matrices, six_state_output

    A, B = six_state_matrices()
    K = place_poles(A, B, [-2.0, -2.0, -2.0, -2.4, -2.4, -2.4], seed=0)
    rng = np.random.default_rng(24)
    x0 = rng.standard_normal(6)
    y = np.zeros(6)
    y[0], y[2] = 1.5, -0.5
    ens = feedback_steer_pair_batch(A, B, K, y[None], x0[None], T=6.0, n_grid=1200)
    out_err = np.linalg.norm(six_state_output(ens.states[0, -1]) - six_state_output(y))
    assert out_err <= 1e-3


def test_feedback_steer_exponential_envelope():
    # horizons long enough that the slowest closed-loop mode dominates
    K = place_poles(A_DI, B_DI, [-1.0, -2.0])
    lam = np.linalg.eigvals(A_DI + B_DI @ K).real.max()
    x0 = np.array([[3.0, 0.0]])
    y = np.zeros((1, 2))
    e1 = feedback_steer_pair_batch(A_DI, B_DI, K, y, x0, T=6.0, n_grid=1200)
    e2 = feedback_steer_pair_batch(A_DI, B_DI, K, y, x0, T=9.0, n_grid=1800)
    e1, e2 = e1.meta["endpoint_error"][0], e2.meta["endpoint_error"][0]
    assert e2 / e1 <= np.exp(lam * 3.0) * 1.01


def _six_state_steering(n: int, seed: int):
    """Gain, equilibrium targets and starts of n six-state steering rows."""
    A, B = six_state_matrices()
    K = place_poles(A, B, [-2.0, -2.0, -2.0, -2.4, -2.4, -2.4], seed=0)
    rng = np.random.default_rng(seed)
    ys = np.zeros((n, 6))
    ys[:, [0, 2]] = rng.standard_normal((n, 2))  # zero-velocity states are equilibria
    return A, B, K, ys, rng.standard_normal((n, 6))


def test_feedback_steer_memory_is_the_ensemble_and_two_tiles():
    # the node controls are built one row tile of the states at a time, so
    # nothing beyond the returned arrays and two tiles is alive at once (a
    # one-shot (states - y) K' allocates a second copy of the states)
    A, B, K, ys, x0s = _six_state_steering(256, seed=41)
    tracemalloc.start()
    try:
        ens = feedback_steer_pair_batch(A, B, K, ys, x0s, T=6.0, n_grid=400)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = sum(a.nbytes for a in (ens.t_grid, ens.states, ens.controls, *ens.meta.values()))
    assert peak <= held + 2 * 8 * TILE_ENTRIES


@settings(max_examples=10, deadline=None)
@given(
    st.sampled_from(["1", "tile - 1", "tile", "tile + 1", "3 tiles"]),
    st.integers(0, 2**16),
)
def test_feedback_node_controls_match_the_one_shot_formula(size, seed):
    n_grid = 400
    tile = tile_rows((n_grid + 1) * 6)
    n = {"1": 1, "tile - 1": tile - 1, "tile": tile, "tile + 1": tile + 1, "3 tiles": 3 * tile}
    A, B, K, ys, x0s = _six_state_steering(n[size], seed)
    ens = feedback_steer_pair_batch(A, B, K, ys, x0s, T=6.0, n_grid=n_grid)
    alphas = equilibrium_control(A, B, ys)
    assert np.array_equal(ens.controls, (ens.states - ys[:, None, :]) @ K.T + alphas[:, None, :])


@st.composite
def _feedback_cases(draw):
    d = draw(st.integers(1, 3))
    m = draw(st.integers(1, d))
    n = draw(st.integers(1, 4))
    entries = st.floats(-1.0, 1.0, allow_subnormal=False)
    A = draw(arrays(float, (d, d), elements=entries))
    B = draw(arrays(float, (d, m), elements=entries))
    poles = draw(st.lists(st.floats(-3.0, -0.3), min_size=d, max_size=d))
    # equilibria (y, alpha) span the null space of [A, B]
    weights = draw(arrays(float, (n, d + m), elements=st.floats(-2.0, 2.0, allow_subnormal=False)))
    x0s = draw(arrays(float, (n, d), elements=st.floats(-2.0, 2.0, allow_subnormal=False)))
    return A, B, poles, weights, x0s, draw(st.floats(0.5, 3.0)), draw(st.integers(1, 64))


@settings(max_examples=40, deadline=None)
@given(_feedback_cases())
@example((A_DI, B_DI, [-1.0, -2.0], np.array([[1.0, 0.0, 0.0]]), np.array([[3.0, 0.0]]), 6.0, 8))
def test_feedback_states_are_the_exact_flow_of_the_closed_loop(case):
    # the returned controls are K(x - y) + alpha at the returned states; RK4
    # of that closed loop re-integrates them
    A, B, poles, weights, x0s, T, n_grid = case
    assume(np.diff(np.sort(poles)).min(initial=1.0) >= 0.1)
    try:
        K = place_poles(A, B, poles)
    except (ConfigurationError, UncontrollablePairError):
        assume(False)
    # a nearly uncontrollable pair needs a huge gain, whose cancellations
    # swamp the comparison in rounding
    assume(np.abs(K).max() <= 1e2)
    N = null_space(np.hstack([A, B]))
    ys = (weights[:, : N.shape[1]] @ N.T)[:, : A.shape[0]]
    alphas = equilibrium_control(A, B, ys)
    ens = feedback_steer_pair_batch(A, B, K, ys, x0s, T, n_grid)
    assert np.allclose(ens.states[:, 0], x0s, rtol=0.0, atol=1e-14)

    def field(j, tt, x):
        return x @ A.T + ((x - ys) @ K.T + alphas) @ B.T

    _assert_exact_flow(ens, field, x0s)
    _endpoint_errors(ens, ys)


def test_feedback_steer_rejects_unstable_gain():
    with pytest.raises(UnstableGainError):
        feedback_steer_pair_batch(
            A_DI, B_DI, np.array([[1.0, 1.0]]), np.zeros((1, 2)), np.ones((1, 2)), 1.0, 100
        )


def test_feedback_steer_rejects_non_equilibrium():
    with pytest.raises(InfeasibleTargetError):
        feedback_steer_pair_batch(
            A_DI,
            B_DI,
            place_poles(A_DI, B_DI, [-1.0, -2.0]),
            np.array([[0.0, 1.0]]),  # nonzero velocity cannot be held
            np.zeros((1, 2)),
            1.0,
            100,
        )


def test_equilibrium_control_residual():
    from ctrlflow.systems import six_state_matrices

    A, B = six_state_matrices()
    y = np.zeros(6)
    y[0] = 2.0
    alpha = equilibrium_control(A, B, y)
    assert np.linalg.norm(A @ y + B @ alpha) <= 1e-10


def test_equilibrium_control_batch_matches_rows_and_names_first_bad_row():
    from ctrlflow.systems import six_state_matrices

    A, B = six_state_matrices()
    ys = np.zeros((5, 6))
    ys[:, 0] = np.linspace(-2.0, 2.0, 5)
    alphas = equilibrium_control(A, B, ys)
    assert alphas.shape == (5, B.shape[1])
    assert np.array_equal(alphas, np.stack([equilibrium_control(A, B, y) for y in ys]))
    # nonzero velocity cannot be held (double integrator)
    bad = np.zeros((4, 2))
    bad[[2, 3], 1] = 1.0
    with pytest.raises(InfeasibleTargetError, match="target 2 "):
        equilibrium_control(A_DI, B_DI, bad)


# ---------------------------------------------------------------------------
# Brockett steering


def test_brockett_vertical_case():
    ens = brockett_steer_pair_batch(np.zeros((1, 3)), np.array([[0.0, 0.0, 1.0]]))
    # phase 1 controls vanish; phase 2 constant c = 1/pi
    K = len(ens.t_grid) // 2
    assert np.abs(ens.controls[0, : K // 2]).max() <= 1e-12
    assert abs(ens.meta["loop_amplitude"][0] - 1.0 / np.pi) <= 1e-12
    assert np.linalg.norm(ens.states[0, -1] - [0.0, 0.0, 1.0]) <= 1e-12


def test_brockett_diagonal_case():
    ens = brockett_steer_pair_batch(np.zeros((1, 3)), np.array([[1.0, 1.0, 0.0]]))
    assert abs(ens.meta["loop_amplitude"][0] + 1.0 / (2.0 * np.pi)) <= 1e-12
    assert np.linalg.norm(ens.states[0, -1] - [1.0, 1.0, 0.0]) <= 1e-12


def test_brockett_fixed_point_roundtrip():
    ens = brockett_steer_pair_batch(np.zeros((1, 3)), np.zeros((1, 3)))
    assert abs(ens.meta["loop_amplitude"][0]) <= 1e-12
    assert np.linalg.norm(ens.states[0, -1]) <= 1e-12


def test_brockett_random_pairs_terminal():
    rng = np.random.default_rng(25)
    xs = rng.uniform(-1.0, 1.0, size=(100, 3))
    ys = rng.uniform(-1.0, 1.0, size=(100, 3))
    ens = brockett_steer_pair_batch(xs, ys, n_grid=4000)
    errs = np.linalg.norm(ens.states[:, -1] - ys, axis=1)
    assert errs.max() <= 1e-12
    assert np.allclose(ens.meta["endpoint_error"], errs, rtol=1e-12, atol=0.0)


@settings(max_examples=40, deadline=None)
@given(
    arrays(float, st.tuples(st.integers(1, 4), st.just(6)),
           elements=st.floats(-2.0, 2.0, allow_subnormal=False)),
    st.integers(BROCKETT_MIN_GRID, 64),
)
@example(np.array([[0.0, 0.0, 0.0, 0.5, -0.3, 0.8]]), 9)
def test_brockett_states_are_the_exact_flow_of_the_controls(ends, n_grid):
    # the returned controls are phase 1's constant a through node K/2, then
    # (sin t, c cos t); RK4 of x' = (u1, u2, u1 x2) re-integrates them
    xs, ys = ends[:, :3], ends[:, 3:]
    ens = brockett_steer_pair_batch(xs, ys, n_grid=n_grid)
    t = ens.t_grid
    half = (len(t) - 1) // 2
    a, c = ens.controls[:, 0], ens.meta["loop_amplitude"]
    assert len(t) - 1 == n_grid + n_grid % 2
    assert np.array_equal(ens.controls[:, : half + 1], np.repeat(a[:, None], half + 1, axis=1))
    t2 = t[half + 1 :]
    loop = np.stack(np.broadcast_arrays(np.sin(t2), c[:, None] * np.cos(t2)), axis=-1)
    assert np.allclose(ens.controls[:, half + 1 :], loop, rtol=0.0, atol=1e-15)
    assert np.array_equal(ens.states[:, 0], xs)

    def field(j, tt, x):
        u = a if j < half else np.column_stack([np.full(len(x), np.sin(tt)), c * np.cos(tt)])
        return np.column_stack([u[:, 0], u[:, 1], u[:, 0] * x[:, 1]])

    _assert_exact_flow(ens, field, xs)
    errs = _endpoint_errors(ens, ys)
    assert np.all(errs <= 1e-12 * (1.0 + np.linalg.norm(ys, axis=1)))


def test_brockett_horizon_is_4pi():
    ens = brockett_steer_pair_batch(np.zeros((1, 3)), np.ones((1, 3)), n_grid=100)
    assert abs(ens.horizon - 4.0 * np.pi) <= 1e-12


def test_brockett_pair_is_dynamically_consistent():
    # the stored node samples under-resolve the sinusoid, so re-integration
    # under the piecewise-linear convention carries an O(h^2) mismatch; the
    # measured residual at this grid sits near 3e-4
    sys = builtin_system("brockett")
    ys = np.array([[0.5, -0.3, 0.8], [-1.0, 0.2, -0.4]])
    ens = brockett_steer_pair_batch(np.zeros((2, 3)), ys, n_grid=4000)
    assert residual_error(ens, sys).max() <= 1e-3
