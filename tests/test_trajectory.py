"""Trajectory container invariants and CSV persistence round trips."""

import csv
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ctrlflow.errors import ConfigurationError
from ctrlflow.systems import builtin_system
from ctrlflow.trajectory import (
    TrajectoryControlPair,
    load_pair_csv,
    read_table,
    save_pair_bundle,
    save_pair_csv,
    write_table,
)


def _simple_pair(n=11):
    t = np.linspace(0.0, 1.0, n)
    states = np.stack([t, t**2], axis=1)
    controls = (2.0 * t)[:, None]
    return TrajectoryControlPair(t, states, controls)


def test_lengths_must_agree():
    t = np.linspace(0.0, 1.0, 5)
    with pytest.raises(ConfigurationError):
        TrajectoryControlPair(t, np.zeros((4, 2)), np.zeros((5, 1)))
    with pytest.raises(ConfigurationError):
        TrajectoryControlPair(t, np.zeros((5, 2)), np.zeros((4, 1)))


def test_time_grid_must_increase():
    t = np.array([0.0, 0.5, 0.5, 1.0])
    with pytest.raises(ConfigurationError):
        TrajectoryControlPair(t, np.zeros((4, 1)), np.zeros((4, 1)))


def test_horizon_and_endpoints():
    pair = _simple_pair()
    assert pair.horizon == 1.0
    assert (pair.d, pair.m) == (2, 1)
    assert np.allclose(pair.states[0], [0.0, 0.0])
    assert np.allclose(pair.states[-1], [1.0, 1.0])


def test_control_energy_simpson_exact():
    # u(t) = 2t so the energy integral is 4/3, exact under Simpson
    pair = _simple_pair(21)
    assert abs(pair.control_energy() - 4.0 / 3.0) < 1e-12


def test_state_at_interpolates_linearly():
    pair = _simple_pair(3)  # nodes at t = 0, 0.5, 1
    mid = pair.state_at(0.25)
    expected = 0.5 * (pair.states[0] + pair.states[1])
    assert np.allclose(mid, expected)
    assert np.allclose(pair.state_at(0.0), pair.states[0])
    assert np.allclose(pair.state_at(1.0), pair.states[-1])


def test_residual_error_accepts_consistent_pair():
    # min-energy style oracle: integrate a known control, check residual
    from ctrlflow.interpolants import min_energy_pair

    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    B = np.array([[0.0], [1.0]])
    sys = builtin_system("linear", A=A, B=B)
    pair = min_energy_pair(A, B, np.zeros(2), np.array([1.0, 0.0]), 1.0, 400)
    assert pair.residual_error(sys) <= 1e-6


def test_residual_error_flags_wrong_controls():
    from ctrlflow.interpolants import min_energy_pair

    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    B = np.array([[0.0], [1.0]])
    sys = builtin_system("linear", A=A, B=B)
    pair = min_energy_pair(A, B, np.zeros(2), np.array([1.0, 0.0]), 1.0, 400)
    corrupted = TrajectoryControlPair(pair.t_grid, pair.states, pair.controls + 1.0)
    assert corrupted.residual_error(sys) > 1e-2


def test_csv_round_trip(tmp_path):
    pair = _simple_pair()
    path = tmp_path / "pair.csv"
    save_pair_csv(pair, path)
    back = load_pair_csv(path)
    assert np.array_equal(back.t_grid, pair.t_grid)
    assert np.array_equal(back.states, pair.states)
    assert np.array_equal(back.controls, pair.controls)

    # a header-only file holds no pair
    path.write_text(path.read_text().splitlines()[0] + "\r\n")
    with pytest.raises(ConfigurationError):
        load_pair_csv(path)


def test_csv_header_names_dimensions(tmp_path):
    pair = _simple_pair()
    path = tmp_path / "pair.csv"
    save_pair_csv(pair, path)
    header = path.read_text().splitlines()[0]
    assert header.split(",") == ["t", "x_1", "x_2", "u_1"]


def test_bundle_writes_index_and_files(tmp_path):
    pairs = [_simple_pair(7), _simple_pair(9)]
    pairs[0].meta["endpoint_error"] = 1.5e-7
    names = save_pair_bundle(pairs, tmp_path, prefix="train")
    assert len(names) == 3  # two CSVs plus the index
    index = json.loads((tmp_path / "train_index.json").read_text())
    assert index["count"] == 2
    assert index["pairs"][0]["endpoint_error"] == 1.5e-7
    for name in names:
        assert (tmp_path / name).exists()


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
