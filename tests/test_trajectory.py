"""Trajectory ensemble invariants and CSV persistence round trips."""

import csv
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ctrlflow.errors import ConfigurationError, EmptyDatasetError
from ctrlflow.interpolants import min_energy_pair_batch
from ctrlflow.regression import dataset_from_pairs
from ctrlflow.systems import builtin_system
from ctrlflow.trajectory import (
    WRITE_BLOCK_ROWS,
    PairEnsemble,
    grid_nodes,
    read_table,
    read_trajectories,
    write_table,
    write_trajectories,
)
from helpers import control_energy, residual_error

A_DI = np.array([[0.0, 1.0], [0.0, 0.0]])
B_DI = np.array([[0.0], [1.0]])


def _simple_ensemble(n_nodes=11, scales=(1.0,)):
    # row a: states (a t, a t^2), control 2 a t
    t = np.linspace(0.0, 1.0, n_nodes)
    a = np.asarray(scales)[:, None, None]
    states = a * np.stack([t, t**2], axis=1)[None]
    controls = a * (2.0 * t)[None, :, None]
    return PairEnsemble(t, states, controls)


def test_lengths_must_agree():
    t = np.linspace(0.0, 1.0, 5)
    with pytest.raises(ConfigurationError):
        PairEnsemble(t, np.zeros((1, 4, 2)), np.zeros((1, 5, 1)))
    with pytest.raises(ConfigurationError):
        PairEnsemble(t, np.zeros((1, 5, 2)), np.zeros((1, 4, 1)))
    with pytest.raises(ConfigurationError):  # row counts differ
        PairEnsemble(t, np.zeros((2, 5, 2)), np.zeros((1, 5, 1)))
    with pytest.raises(ConfigurationError):  # one pair without its batch axis
        PairEnsemble(t, np.zeros((5, 2)), np.zeros((5, 1)))


def test_time_grid_must_increase():
    t = np.array([0.0, 0.5, 0.5, 1.0])
    with pytest.raises(ConfigurationError):
        PairEnsemble(t, np.zeros((1, 4, 1)), np.zeros((1, 4, 1)))
    with pytest.raises(ConfigurationError):
        PairEnsemble(np.zeros(1), np.zeros((1, 1, 1)), np.zeros((1, 1, 1)))


def test_horizon_and_endpoints():
    ens = _simple_ensemble(scales=(1.0, 2.0))
    assert ens.horizon == 1.0
    assert (ens.n, ens.d, ens.m) == (2, 2, 1)
    assert np.allclose(ens.states[:, 0], [[0.0, 0.0], [0.0, 0.0]])
    assert np.allclose(ens.states[:, -1], [[1.0, 1.0], [2.0, 2.0]])
    last = ens.select(slice(1, None))
    assert last.n == 1 and np.array_equal(last.states[0], ens.states[1])


def test_control_energy_simpson_exact():
    # u(t) = 2at so the energy integral is 4a^2/3, exact under Simpson
    ens = _simple_ensemble(21, scales=(1.0, 2.0))
    assert np.allclose(control_energy(ens), [4.0 / 3.0, 16.0 / 3.0], rtol=0.0, atol=1e-12)


def test_residual_error_accepts_consistent_pair():
    # min-energy style oracle: integrate a known control, check residual
    sys = builtin_system("linear", A=A_DI, B=B_DI)
    x0s = np.array([[0.0, 0.0], [0.5, -0.2]])
    ens = min_energy_pair_batch(A_DI, B_DI, x0s, np.array([[1.0, 0.0], [-1.0, 0.3]]), 1.0, 400)
    assert residual_error(ens, sys).shape == (2,)
    assert residual_error(ens, sys).max() <= 1e-6


def test_residual_error_flags_wrong_controls():
    sys = builtin_system("linear", A=A_DI, B=B_DI)
    ens = min_energy_pair_batch(A_DI, B_DI, np.zeros((2, 2)), np.eye(2), 1.0, 400)
    bumped = ens.controls.copy()
    bumped[1] += 1.0
    errors = residual_error(PairEnsemble(ens.t_grid, ens.states, bumped), sys)
    assert errors[0] <= 1e-6 and errors[1] > 1e-2


def test_csv_round_trip(tmp_path):
    ens = _simple_ensemble(scales=(1.0, 2.0))
    path = tmp_path / "pairs.csv"
    write_trajectories(path, *ens.rows())
    ids, t, x, u = read_trajectories(path)
    assert np.array_equal(ids, np.repeat([0, 1], 11))
    assert np.array_equal(t, np.tile(ens.t_grid, 2))
    assert np.array_equal(x, ens.states.reshape(-1, 2))
    assert np.array_equal(u, ens.controls.reshape(-1, 1))

    # a header-only file holds no rows
    path.write_text(path.read_text().splitlines()[0] + "\r\n")
    ids, t, x, u = read_trajectories(path)
    assert (ids.shape, t.shape, x.shape, u.shape) == ((0,), (0,), (0, 2), (0, 1))


def test_csv_header_names_dimensions(tmp_path):
    path = tmp_path / "pairs.csv"
    write_trajectories(path, *_simple_ensemble().rows(traj_id=[7]))
    header, first = path.read_text().splitlines()[:2]
    assert header.split(",") == ["traj_id", "t", "x_1", "x_2", "u_1"]
    assert first.split(",")[0] == "7"  # ids are written as integers


@st.composite
def _ensembles(draw, min_rows=0):
    n = draw(st.integers(min_rows, 6))
    K = draw(st.integers(1, 12))
    d = draw(st.integers(1, 4))
    m = draw(st.integers(1, 3))
    grid = draw(
        st.lists(st.floats(-1e6, 1e6), min_size=K + 1, max_size=K + 1, unique=True).map(sorted)
    )
    values = st.floats(allow_nan=False, allow_infinity=False, width=64)
    states = draw(arrays(np.float64, (n, K + 1, d), elements=values))
    controls = draw(arrays(np.float64, (n, K + 1, m), elements=values))
    errors = draw(arrays(np.float64, (n,), elements=values))
    return PairEnsemble(grid, states, controls, meta={"err": errors})


@settings(max_examples=60, deadline=None)
@given(_ensembles(), st.data())
def test_trajectory_table_round_trip(tmp_path_factory, ens, data):
    ids = data.draw(st.lists(st.integers(0, 2**53), min_size=ens.n, max_size=ens.n))
    path = tmp_path_factory.mktemp("table") / "traj.csv"
    rows = ens.rows(traj_id=np.array(ids, dtype=np.int64))
    write_trajectories(path, *rows)
    back = read_trajectories(path)
    for want, got in zip(rows, back):
        assert got.shape == want.shape and np.array_equal(got, want)
    if ens.n == 0:
        header = ["traj_id", "t", *(f"x_{j + 1}" for j in range(ens.d)),
                  *(f"u_{j + 1}" for j in range(ens.m))]
        assert path.read_bytes() == (",".join(header) + "\r\n").encode()


@settings(max_examples=100, deadline=None)
@given(_ensembles(min_rows=1), st.integers(2, 30), st.booleans(), st.data())
def test_dataset_from_pairs_flattens_row_by_row(ens, n_time_samples, given_ids, data):
    ids = None
    if given_ids:
        ids = np.array(data.draw(st.lists(st.integers(0, 10**6), min_size=ens.n, max_size=ens.n)))
    ds = dataset_from_pairs(ens, n_time_samples, traj_id=ids)
    # reference: half-to-even rounded node of each requested sample, row by row
    K = len(ens.t_grid) - 1
    nodes = sorted({round(k) for k in np.linspace(0, K, n_time_samples).tolist()})
    rows = [(i, k) for i in range(ens.n) for k in nodes]
    want_ids = np.arange(ens.n) if ids is None else ids
    assert np.array_equal(ds.traj_id, [want_ids[i] for i, _ in rows])
    assert np.array_equal(ds.t, [ens.t_grid[k] for _, k in rows])
    assert np.array_equal(ds.x, np.array([ens.states[i, k] for i, k in rows]))
    assert np.array_equal(ds.u, np.array([ens.controls[i, k] for i, k in rows]))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 5000), st.integers(2, 5000), st.integers(1, 500), st.integers(1, 50))
def test_grid_nodes_increase_from_first_to_last_node(K, n, steps, spacing):
    nodes = grid_nodes(K, n)
    assert nodes.dtype.kind == "i"
    assert nodes[0] == 0 and nodes[-1] == K
    assert np.all(np.diff(nodes) > 0)
    assert len(nodes) <= min(n, K + 1)
    # n - 1 = steps divides K = steps * spacing: every spacing-th node
    assert np.array_equal(grid_nodes(steps * spacing, steps + 1), np.arange(steps + 1) * spacing)


@settings(max_examples=40, deadline=None)
@given(_ensembles(), st.integers(0, 11), st.integers(1, 3))
def test_ensemble_rejects_bad_grid_and_meta(ens, at, extra):
    t = ens.t_grid.copy()
    at = at % (len(t) - 1)
    t[at + 1] = t[at]  # one repeated node
    with pytest.raises(ConfigurationError):
        PairEnsemble(t, ens.states, ens.controls)
    with pytest.raises(ConfigurationError):
        PairEnsemble(t[::-1], ens.states, ens.controls)
    with pytest.raises(ConfigurationError):
        PairEnsemble(ens.t_grid, ens.states, ens.controls, meta={"err": np.zeros(ens.n + extra)})
    with pytest.raises(ConfigurationError):  # a meta value is one entry per row, not a scalar
        PairEnsemble(ens.t_grid, ens.states, ens.controls, meta={"direction": "forward"})
    if ens.n == 0:
        with pytest.raises(EmptyDatasetError):
            dataset_from_pairs(ens)


def _reference_csv(header, table, int_cols):
    # the csv-module writer the table format was defined by
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in table:
        ids = [str(int(v)) for v in row[:int_cols]]
        writer.writerow(ids + [f"{v:.17g}" for v in row[int_cols:]])
    return buf.getvalue()


@settings(max_examples=200, deadline=None)
@given(
    arrays(
        np.float64,
        st.tuples(st.integers(0, 6), st.integers(1, 5)),
        elements=st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    ),
    st.lists(st.integers(-(2**53), 2**53), min_size=6, max_size=6),
)
def test_table_round_trip_keeps_every_float(tmp_path_factory, table, ids):
    # the first column doubles as an integer id column (%d)
    path = tmp_path_factory.mktemp("table") / "t.csv"
    header = [f"c_{j}" for j in range(table.shape[1])]
    for int_cols in (0, 1):
        if int_cols:
            table[:, 0] = ids[: len(table)]
        write_table(path, header, table, int_cols=int_cols)
        assert path.read_bytes() == _reference_csv(header, table, int_cols).encode()
        got_header, got = read_table(path)
        assert got_header == header
        assert got.shape == table.shape  # a header-only file reads as (0, columns)
        assert np.array_equal(got, table, equal_nan=True)
        finite = ~np.isnan(table)  # signed zeros and infinities keep their sign
        assert np.array_equal(np.signbit(got[finite]), np.signbit(table[finite]))


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([0, 1, 7, WRITE_BLOCK_ROWS - 1, WRITE_BLOCK_ROWS, WRITE_BLOCK_ROWS + 1,
                     2 * WRITE_BLOCK_ROWS + 3]),
    st.integers(1, 4),
    st.integers(0, 1),
    st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True), max_size=8),
    st.integers(0, 2**32 - 1),
)
def test_write_table_bytes_match_per_row_format(tmp_path_factory, n_rows, n_cols, int_cols,
                                                values, seed):
    # every block of rows is written as the rows one at a time would be
    rng = np.random.default_rng(seed)
    pool = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -2.5e-310, *values])
    table = pool[rng.integers(0, len(pool), size=(n_rows, n_cols))]
    if int_cols:
        table[:, 0] = rng.integers(-(2**53), 2**53, size=n_rows)
    header = [f"c_{j}" for j in range(n_cols)]
    fmt = ",".join(["%d"] * int_cols + ["%.17g"] * (n_cols - int_cols)) + "\r\n"
    want = ",".join(header) + "\r\n" + "".join(fmt % tuple(row) for row in table.tolist())
    path = tmp_path_factory.mktemp("table") / "t.csv"
    write_table(path, header, table, int_cols=int_cols)
    assert path.read_bytes() == want.encode()
