"""System catalog checks: hand-derived dynamics values, Jacobians against
finite differences, and the control-affine form of ``rhs``."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ctrlflow.errors import ConfigurationError, UnknownSystemError
from ctrlflow.systems import (
    builtin_names,
    builtin_system,
    linear_system,
    six_state_matrices,
    six_state_output,
)

ALL_BUILTINS = ("brockett", "unicycle", "martinet", "six_state_default")


def _rhs(sys, x, u):
    return sys.rhs(np.asarray(x)[None, :], np.asarray(u)[None, :])[0]


def _fd_jacobian(fn, x, h=1e-6):
    d = len(x)
    J = np.zeros((d, d))
    for j in range(d):
        e = np.zeros(d)
        e[j] = h
        J[:, j] = (fn(x + e) - fn(x - e)) / (2.0 * h)
    return J


# ---------------------------------------------------------------------------
# hand-derived dynamics values


def test_brockett_dynamics_value():
    sys = builtin_system("brockett")
    out = _rhs(sys, np.array([0.0, 2.0, 0.0]), np.array([1.0, 0.0]))
    assert np.allclose(out, [1.0, 0.0, 2.0], atol=1e-15)


def test_driftless_zero_control_is_zero():
    for name in ("brockett", "unicycle", "martinet"):
        sys = builtin_system(name)
        out = _rhs(sys, np.array([0.3, -0.7, 1.1]), np.zeros(sys.m))
        assert np.allclose(out, 0.0, atol=1e-15)


def test_single_integrator_passthrough():
    sys = linear_system(np.zeros((3, 3)), np.eye(3))
    u = np.array([3.0, -1.0, 0.5])
    out = _rhs(sys, np.array([9.0, 9.0, 9.0]), u)
    assert np.allclose(out, u, atol=1e-15)


def test_unicycle_fields():
    sys = builtin_system("unicycle")
    assert (sys.d, sys.m) == (3, 2)
    th = 0.7
    x = np.array([[0.0, 0.0, th]])
    assert np.allclose(sys.G(x)[0, :, 0], [np.cos(th), np.sin(th), 0.0])
    assert np.allclose(sys.G(x)[0, :, 1], [0.0, 0.0, 1.0])


def test_martinet_fields():
    sys = builtin_system("martinet")
    x = np.array([[0.0, 3.0, 0.0]])
    assert np.allclose(sys.G(x)[0, :, 0], [1.0, 0.0, 4.5])
    assert np.allclose(sys.G(x)[0, :, 1], [0.0, 1.0, 0.0])


def test_rhs_state_dimension_checked():
    sys = builtin_system("brockett")
    with pytest.raises(ConfigurationError):
        sys.rhs(np.zeros((1, 2)), np.zeros((1, 2)))
    with pytest.raises(ConfigurationError):
        sys.rhs(np.zeros(2), np.zeros(2))


# ---------------------------------------------------------------------------
# Jacobians vs finite differences


def test_jacobians_match_finite_differences():
    rng = np.random.default_rng(42)
    for name in ALL_BUILTINS:
        sys = builtin_system(name)
        # the drift and every column of G, each with its analytic Jacobian
        pairs = [(sys.f0, sys.jac_f0)] + [
            (lambda y, i=i: sys.G(y)[..., i], lambda y, i=i: sys.jac_G(y)[..., i])
            for i in range(sys.m)
        ]
        for _ in range(100):
            x = rng.uniform(-2.0, 2.0, size=sys.d)
            for fn, jac in pairs:
                J = jac(x[None])[0]
                J_fd = _fd_jacobian(lambda y: fn(y[None])[0], x)
                scale = max(1.0, np.abs(J).max())
                assert np.abs(J - J_fd).max() <= 1e-5 * scale, name


def test_fields_finite_at_probes():
    rng = np.random.default_rng(7)
    for name in ALL_BUILTINS:
        sys = builtin_system(name)
        x = rng.uniform(-50.0, 50.0, size=(64, sys.d))
        assert np.all(np.isfinite(sys.f0(x)))
        assert np.all(np.isfinite(sys.G(x)))


# ---------------------------------------------------------------------------
# catalog and helpers


def test_builtin_names_and_unknown():
    names = builtin_names()
    for name in ALL_BUILTINS:
        assert name in names
    with pytest.raises(UnknownSystemError):
        builtin_system("segway")


def test_linear_builtin_requires_matrices():
    sys = builtin_system("linear", A=[[0.0, 1.0], [0.0, 0.0]], B=[[0.0], [1.0]])
    assert (sys.d, sys.m) == (2, 1)
    out = _rhs(sys, np.array([1.0, 2.0]), np.array([0.5]))
    assert np.allclose(out, [2.0, 0.5])


def test_six_state_structure():
    A, B = six_state_matrices()
    assert A.shape == (6, 6) and B.shape == (6, 3)
    sys = builtin_system("six_state_default")
    assert (sys.d, sys.m) == (6, 3)
    x = np.arange(6.0)
    assert np.allclose(six_state_output(x), [0.0, 2.0])
    # output map of the system object agrees
    assert np.allclose(sys.output_map(x[None])[0], [0.0, 2.0])


def test_control_matrix_shapes_checked():
    sys = builtin_system("brockett")
    with pytest.raises(ConfigurationError, match="': G maps"):
        dataclasses.replace(sys, G=lambda x: np.zeros((x.shape[0], 3)))
    with pytest.raises(ConfigurationError, match="': jac_G maps"):
        dataclasses.replace(sys, jac_G=lambda x: np.zeros((x.shape[0], 3, 3)))
    with pytest.raises(ConfigurationError, match="': G maps"):
        dataclasses.replace(sys, m=3)


_entries = st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False)


@st.composite
def _system_states_controls(draw):
    name = draw(st.sampled_from(ALL_BUILTINS + ("linear",)))
    if name == "linear":
        d, m = draw(st.integers(1, 4)), draw(st.integers(1, 3))
        sys = linear_system(
            draw(arrays(float, (d, d), elements=_entries)),
            draw(arrays(float, (d, m), elements=_entries)),
        )
    else:
        sys = builtin_system(name)
    n = draw(st.integers(1, 6))
    x = draw(arrays(float, (n, sys.d), elements=_entries))
    u = draw(arrays(float, (n, sys.m), elements=_entries))
    return sys, x, u


@settings(max_examples=300, deadline=None)
@given(_system_states_controls())
def test_rhs_is_drift_plus_control_fields(case):
    sys, x, u = case
    # rhs is f0 + sum_i u_i f_i, up to the order of the sum
    terms = [sys.f0(x)] + [u[:, i, None] * sys.G(x)[..., i] for i in range(sys.m)]
    scale = sum(np.abs(t) for t in terms)
    assert np.all(np.abs(sys.rhs(x, u) - sum(terms)) <= 1e-13 * scale)
