"""Trajectory ensemble invariants and CSV persistence round trips."""

import csv
import io
import json

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
    load_pair_csv,
    read_table,
    save_pair_bundle,
    write_table,
)

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
    assert np.allclose(ens.control_energy(), [4.0 / 3.0, 16.0 / 3.0], rtol=0.0, atol=1e-12)


def test_residual_error_accepts_consistent_pair():
    # min-energy style oracle: integrate a known control, check residual
    sys = builtin_system("linear", A=A_DI, B=B_DI)
    x0s = np.array([[0.0, 0.0], [0.5, -0.2]])
    ens = min_energy_pair_batch(A_DI, B_DI, x0s, np.array([[1.0, 0.0], [-1.0, 0.3]]), 1.0, 400)
    assert ens.residual_error(sys).shape == (2,)
    assert ens.residual_error(sys).max() <= 1e-6


def test_residual_error_flags_wrong_controls():
    sys = builtin_system("linear", A=A_DI, B=B_DI)
    ens = min_energy_pair_batch(A_DI, B_DI, np.zeros((2, 2)), np.eye(2), 1.0, 400)
    bumped = ens.controls.copy()
    bumped[1] += 1.0
    errors = PairEnsemble(ens.t_grid, ens.states, bumped).residual_error(sys)
    assert errors[0] <= 1e-6 and errors[1] > 1e-2


def test_csv_round_trip(tmp_path):
    ens = _simple_ensemble()
    save_pair_bundle(ens, tmp_path, "pair")
    path = tmp_path / "pair_0000.csv"
    back = load_pair_csv(path)
    assert np.array_equal(back.t_grid, ens.t_grid)
    assert np.array_equal(back.states, ens.states)
    assert np.array_equal(back.controls, ens.controls)

    # a header-only file holds no pair
    path.write_text(path.read_text().splitlines()[0] + "\r\n")
    with pytest.raises(ConfigurationError):
        load_pair_csv(path)


def test_csv_header_names_dimensions(tmp_path):
    save_pair_bundle(_simple_ensemble(), tmp_path, "pair")
    header = (tmp_path / "pair_0000.csv").read_text().splitlines()[0]
    assert header.split(",") == ["t", "x_1", "x_2", "u_1"]


def test_bundle_writes_index_and_files(tmp_path):
    ens = _simple_ensemble(7, scales=(1.0, 2.0))
    ens = PairEnsemble(
        ens.t_grid, ens.states, ens.controls,
        meta={"endpoint_error": np.array([1.5e-7, 0.0]), "direction": "forward"},
    )
    names = save_pair_bundle(ens, tmp_path, prefix="train")
    assert names == ["train_0000.csv", "train_0001.csv", "train_index.json"]
    index = json.loads((tmp_path / "train_index.json").read_text())
    assert index["count"] == 2
    assert index["pairs"][0] == {
        "file": "train_0000.csv", "endpoint_error": 1.5e-7, "direction": "forward"
    }
    assert index["pairs"][1]["direction"] == "forward"  # a scalar is shared by every row
    for name in names:
        assert (tmp_path / name).exists()

    # an empty ensemble writes only its count-0 index
    assert save_pair_bundle(ens.select(slice(0)), tmp_path / "empty", "eval") == ["eval_index.json"]
    index = json.loads((tmp_path / "empty" / "eval_index.json").read_text())
    assert index == {"count": 0, "pairs": []}


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
    return PairEnsemble(grid, states, controls, meta={"err": errors, "direction": "forward"})


@settings(max_examples=60, deadline=None)
@given(_ensembles())
def test_bundle_round_trip_keeps_every_row(tmp_path_factory, ens):
    directory = tmp_path_factory.mktemp("bundle")
    names = save_pair_bundle(ens, directory, "eval")
    assert len(names) == ens.n + 1
    index = json.loads((directory / "eval_index.json").read_text())
    assert index["count"] == ens.n
    for i, entry in enumerate(index["pairs"]):
        back = load_pair_csv(directory / entry["file"])
        assert np.array_equal(back.t_grid, ens.t_grid)
        assert np.array_equal(back.states[0], ens.states[i])
        assert np.array_equal(back.controls[0], ens.controls[i])
        assert entry["err"] == ens.meta["err"][i] and entry["direction"] == "forward"


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
