"""Controllability rank oracles and the squared-distance and tile kernels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ctrlflow.errors import ConfigurationError
from ctrlflow.linalg import (
    check_ab,
    controllability_matrix,
    kalman_rank,
    sq_dists,
    tile_rows,
)


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


@st.composite
def _point_sets(draw):
    # rows of mixed scale: unit-interval entries times a per-row 10^k, |k| <= 4
    n, m, d = draw(st.integers(1, 40)), draw(st.integers(1, 40)), draw(st.integers(1, 6))
    unit = st.floats(-1.0, 1.0, allow_subnormal=False)
    powers = st.integers(-4, 4)
    a = draw(arrays(float, (n, d), elements=unit))
    b = draw(arrays(float, (m, d), elements=unit))
    a *= 10.0 ** draw(arrays(int, (n, 1), elements=powers))
    b *= 10.0 ** draw(arrays(int, (m, 1), elements=powers))
    return a, b


@settings(max_examples=300, deadline=None)
@given(_point_sets())
def test_sq_dists_matches_direct_differences(ab):
    a, b = ab
    d2 = sq_dists(a, b)
    assert d2.shape == (len(a), len(b))
    assert np.all(d2 >= 0.0)
    # each of |a|^2, |b|^2 and 2ab carries at most (d + 2) eps relative to
    # |a|^2 + |b|^2 after the two additions, and the direct sum of squared
    # differences carries d eps of its value <= 2(|a|^2 + |b|^2); the tiny
    # absolute slack covers products that underflow
    d = a.shape[1]
    norms = (a**2).sum(1)[:, None] + (b**2).sum(1)[None, :]
    direct = ((a[:, None] - b[None]) ** 2).sum(-1)
    bound = 4.0 * (d + 2) * np.finfo(float).eps * norms + 1.0e-300
    assert np.all(np.abs(d2 - direct) <= bound)


@pytest.mark.parametrize("rows", ["one", "tile-1", "tile", "tile+1", "several_tiles"])
def test_sq_dists_tiles_are_bit_equal_to_one_block(rows):
    # the in-place row tiles give the bits of the one-shot expansion
    # (|a|^2 + |b|^2) - 2ab, at and around a tile boundary
    rng = np.random.default_rng(7)
    b = rng.standard_normal((1000, 3)) * 10.0 ** rng.integers(-3, 3, size=(1000, 1))
    step = tile_rows(len(b))
    assert 1 < step < 1000
    n = {"one": 1, "tile-1": step - 1, "tile": step, "tile+1": step + 1,
         "several_tiles": 3 * step + 7}[rows]
    a = rng.standard_normal((n, 3)) * 10.0 ** rng.integers(-3, 3, size=(n, 1))
    # rows of a that are rows of b: their expanded distance may round below 0
    a[:10] = b[: len(a[:10])]
    a_sq = np.einsum("nd,nd->n", a, a)
    b_sq = np.einsum("md,md->m", b, b)
    raw = (a_sq[:, None] + b_sq[None]) - 2.0 * (a @ b.T)
    assert n < 10 or (raw < 0.0).any()
    want = np.maximum(raw, 0)
    assert np.array_equal(sq_dists(a, b), want)
