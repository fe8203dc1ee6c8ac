"""Matrix exponential and controllability rank oracles.

The expm checks compare against closed forms: nilpotent series terminate
exactly, rotations have the textbook cosine/sine form, and diagonal
matrices exponentiate entrywise.
"""

import numpy as np
import pytest

from ctrlflow.errors import ConfigurationError
from ctrlflow.linalg import check_ab, controllability_matrix, expm, kalman_rank


def test_expm_zero_is_identity():
    assert np.allclose(expm(np.zeros((3, 3))), np.eye(3), atol=1e-15)


def test_expm_nilpotent_closed_form():
    # N^2 = 0 so exp(N) = I + N exactly
    N = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert np.allclose(expm(N), np.eye(2) + N, atol=1e-14)


def test_expm_double_integrator_block():
    # A = [[0,1],[0,0]] scaled by t: exp(At) = [[1,t],[0,1]]
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    for t in (0.25, 1.0, 3.7):
        assert np.allclose(expm(A * t), np.array([[1.0, t], [0.0, 1.0]]), atol=1e-12)


def test_expm_rotation():
    w = 1.3
    A = np.array([[0.0, -w], [w, 0.0]])
    expected = np.array([[np.cos(w), -np.sin(w)], [np.sin(w), np.cos(w)]])
    assert np.allclose(expm(A), expected, atol=1e-12)


def test_expm_diagonal():
    d = np.array([-2.0, 0.5, 3.0])
    assert np.allclose(expm(np.diag(d)), np.diag(np.exp(d)), rtol=1e-12)


def test_expm_large_norm_scaling_squaring():
    # norm >> 1 exercises the squaring phase; oracle via eigendecomposition
    rng = np.random.default_rng(5)
    Q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    d = np.array([-8.0, -3.0, 2.0, 6.0])
    A = Q @ np.diag(d) @ Q.T
    expected = Q @ np.diag(np.exp(d)) @ Q.T
    assert np.allclose(expm(A), expected, rtol=1e-10, atol=1e-10)


def test_expm_group_property_random():
    rng = np.random.default_rng(17)
    for _ in range(20):
        A = rng.standard_normal((3, 3))
        one = expm(A)
        half = expm(A / 2.0)
        assert np.allclose(half @ half, one, rtol=1e-9, atol=1e-9)


def test_kalman_rank_double_integrator():
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    B = np.array([[0.0], [1.0]])
    assert kalman_rank(A, B) == 2


def test_kalman_rank_uncontrollable():
    # B excites only the first coordinate and A is diagonal: rank stays 1
    A = np.diag([1.0, 2.0])
    B = np.array([[1.0], [0.0]])
    assert kalman_rank(A, B) == 1


def test_controllability_matrix_shape_and_content():
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    B = np.array([[0.0], [1.0]])
    C = controllability_matrix(A, B)
    assert C.shape == (2, 2)
    assert np.allclose(C, np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_check_ab_shapes():
    A, B = check_ab([[0, 1], [0, 0]], [0, 1])
    assert A.dtype == B.dtype == np.float64
    assert B.shape == (2, 1)
    with pytest.raises(ConfigurationError, match="square"):
        check_ab(np.zeros((2, 3)), np.zeros((2, 1)))
    with pytest.raises(ConfigurationError, match="B has shape"):
        check_ab(np.zeros((2, 2)), np.zeros((3, 1)))
    # the rank test goes through the same check
    with pytest.raises(ConfigurationError, match="B has shape"):
        kalman_rank(np.zeros((2, 2)), np.zeros((3, 1)))
