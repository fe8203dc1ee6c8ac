"""Fixed-step RK4 integrator checks: order, exactness, blow-up handling."""

import numpy as np
import pytest

from ctrlflow.errors import BlowUpError, ConfigurationError
from ctrlflow.ode import (
    pl_stage_values,
    raise_on_blowup,
    rk4,
    rk4_stage_controls,
    uniform_grid,
)
from helpers import integrate_samples


def test_uniform_grid_endpoints():
    g = uniform_grid(2.0, 8)
    assert len(g) == 9
    assert g[0] == 0.0 and g[-1] == 2.0
    assert np.allclose(np.diff(g), 0.25)


def test_pl_stage_values_midpoint_average():
    u = np.array([[0.0], [2.0], [4.0]])
    st = pl_stage_values(u)
    assert np.allclose(st[:, 0], [0.0, 1.0, 2.0, 3.0, 4.0])


def test_rk4_exponential_decay():
    grid = uniform_grid(1.0, 200)
    states, bad = rk4(lambda k, stage, t, x: -x, np.array([[1.0]]), grid)
    assert np.all(np.isnan(bad))
    assert abs(states[0, -1, 0] - np.exp(-1.0)) < 1e-10


def test_rk4_fourth_order_convergence():
    # halving h must shrink the endpoint error by at least 2^3
    def field(k, stage, t, x):
        return np.sin(t) * x

    exact = np.exp(1.0 - np.cos(1.0))
    errors = []
    for n in (10, 20, 40):
        states, _ = rk4(field, np.array([[1.0]]), uniform_grid(1.0, n))
        errors.append(abs(states[0, -1, 0] - exact))
    assert errors[0] / errors[1] >= 8.0
    assert errors[1] / errors[2] >= 8.0


def test_rk4_batch_matches_loop():
    rng = np.random.default_rng(3)
    x0 = rng.standard_normal((5, 2))
    A = np.array([[0.0, 1.0], [-1.0, 0.0]])

    def field(k, stage, t, x):
        return x @ A.T

    grid = uniform_grid(1.5, 64)
    batch, _ = rk4(field, x0, grid)
    for i in range(5):
        single, _ = rk4(field, x0[i : i + 1], grid)
        assert np.array_equal(batch[i], single[0])


def test_rk4_blowup_freezes_row_and_keeps_others():
    # row 0 explodes in finite time, row 1 decays quietly
    def field(k, stage, t, x):
        return np.stack([x[:, 0] ** 2, -x[:, 1]], axis=1)

    x0 = np.array([[5.0, 1.0], [0.0, 1.0]])
    states, bad = rk4(field, x0, uniform_grid(2.0, 400), blowup=1e6)
    assert np.isfinite(bad[0])
    assert np.isnan(bad[1])
    assert np.all(np.isfinite(states))
    assert abs(states[1, -1, 1] - np.exp(-2.0)) < 1e-8


def test_rk4_field_sees_step_stage_and_time():
    # stages 0..3 of step k run at t_k, the midpoint twice, then t_{k+1}
    calls = []

    def field(k, stage, t, x):
        calls.append((k, stage, t))
        return np.zeros_like(x)

    rk4(field, np.zeros((1, 1)), np.array([0.0, 1.0, 3.0]))
    assert calls == [
        (0, 0, 0.0), (0, 1, 0.5), (0, 2, 0.5), (0, 3, 1.0),
        (1, 0, 1.0), (1, 1, 2.0), (1, 2, 2.0), (1, 3, 3.0),
    ]


def test_rk4_non_finite_rows_freeze_without_threshold():
    # blowup=None drops the size threshold but still freezes non-finite rows
    def field(k, stage, t, x):
        return np.where(t > 0.5, np.inf, 1.0) * np.ones_like(x)

    states, bad = rk4(field, np.array([[0.0], [1.0e9]]), uniform_grid(1.0, 4), blowup=None)
    assert np.all(np.isfinite(states))
    assert list(bad) == [0.75, 0.75]  # first step with an inf stage ends at 0.75
    assert states[0, -1, 0] == states[0, 2, 0]


def test_raise_on_blowup():
    raise_on_blowup(np.array([np.nan, np.nan]))
    with pytest.raises(BlowUpError):
        raise_on_blowup(np.array([np.nan, 0.5]))


def test_rk4_stage_controls_linear_control_exact():
    # x' = u(t) with piecewise-linear u integrates exactly (quadratic x)
    grid = uniform_grid(1.0, 10)
    u_nodes = (2.0 * grid)[:, None]
    stages = pl_stage_values(u_nodes)

    def rhs(x, u):
        return u

    states, bad = rk4_stage_controls(rhs, np.array([[0.0]]), grid, stages[None])
    assert np.all(np.isnan(bad))
    assert np.allclose(states[0, :, 0], grid**2, atol=1e-12)


def test_rk4_stage_controls_stage_count_checked():
    grid = uniform_grid(1.0, 4)
    with pytest.raises(ConfigurationError):
        rk4_stage_controls(
            lambda x, u: u, np.array([[0.0]]), grid, np.zeros((1, 3, 1))
        )


def test_integrate_samples_polynomial_exact():
    # composite Simpson is exact on cubics
    g = np.linspace(0.0, 1.0, 101)
    assert abs(integrate_samples(g**2, g) - 1.0 / 3.0) < 1e-12
    assert abs(integrate_samples(g**3, g) - 1.0 / 4.0) < 1e-12


def test_integrate_samples_odd_step_fallback():
    g = np.linspace(0.0, 1.0, 102)
    assert abs(integrate_samples(g**2, g) - 1.0 / 3.0) < 1e-4
