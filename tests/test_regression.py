"""Oracle and invariant tests for the feedback-regression module.

The estimator invariants checked here:

* knn and kernel predictions are convex combinations of training controls,
  so they stay inside the per-coordinate hull of the training u rows.
* a fitted law never does worse on its own training rows than the best
  constant predictor (and 1-nn interpolates them exactly).
* fitting is bit-deterministic for a fixed seed and invariant to a
  permutation of the dataset rows (rows are canonically sorted at fit time).
* queries far from the training cloud are flagged, and a flag changes no
  control: a flagged row keeps its law's own mean.
* the k-d tree and the dense kernel path match a dense reference: kernel
  means within the rounding of the augmented product, neighbour sets bit
  for bit, with ties broken by the lower training index.
* kernel weights are np.exp of their arguments, bit for bit, down to
  EXP_FLOOR and e^EXP_FLOOR below it; a dense law whose weights are mostly
  floored predicts the bits of the unfloored dense reference.
* dense kernel means are as accurate as the expanded-distance path they
  replaced, also for rows whose top weight is below e^-600, carry no state
  between calls through the law's row tile, and allocate no
  (queries x training) block.
* extrapolation flags that a law settles from its own pass are the k-d
  tree's, also for queries within rounding of the threshold, and a query
  near the training rows settles its flag without asking the tree.
* a kernel law in time order, which every fitted and loaded law is, sums
  each row tile over its certified time window and still matches the
  dense reference, also where the weight lies a time sample away from
  the query's nearest one.
"""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays
from scipy.spatial import cKDTree

from ctrlflow import (
    ConfigurationError,
    EmptyDatasetError,
    FeedbackLaw,
    RegressionDataset,
    TrainingDivergedError,
    crossval_loss,
    dataset_from_pairs,
    fit_feedback,
    load_dataset,
    save_dataset,
)
from ctrlflow.linalg import EXP_FLOOR, TILE_ENTRIES, floored_exp, sq_dists, tile_rows
from ctrlflow.regression import (
    EXTRAPOLATION_FACTOR,
    FAR_EMIN,
    JSON_CHUNK_ENTRIES,
    KernelLaw,
    KnnLaw,
)
from ctrlflow.seeding import substream
from ctrlflow.trajectory import PairEnsemble


def _mean_control_loss(data):
    # mean squared error of the best constant control, the mean
    return float(np.mean(np.sum((data.u - data.u.mean(axis=0)) ** 2, axis=1)))


def _smooth_dataset(n_traj=12, n_per=10, d=2, seed=0):
    # u is a smooth function of (t, x) plus small noise, grouped by trajectory
    rng = substream(seed, "data")
    t = np.tile(np.linspace(0.0, 1.0, n_per), n_traj)
    x = rng.uniform(-1.0, 1.0, size=(n_traj * n_per, d))
    u = np.column_stack(
        [
            np.sin(2.0 * np.pi * x[:, 0]) + 0.5 * t,
            x[:, 0] * x[:, 1],
        ]
    )
    u += 0.01 * rng.standard_normal(u.shape)
    ids = np.repeat(np.arange(n_traj), n_per)
    return RegressionDataset(t=t, x=x, u=u, traj_id=ids)


def test_dataset_validation():
    with pytest.raises(EmptyDatasetError):
        RegressionDataset(t=np.zeros(0), x=np.zeros((0, 2)), u=np.zeros((0, 1)),
                          traj_id=np.zeros(0, dtype=int))
    with pytest.raises(ConfigurationError):
        RegressionDataset(t=np.zeros(3), x=np.zeros((2, 2)), u=np.zeros((3, 1)),
                          traj_id=np.zeros(3, dtype=int))
    with pytest.raises(ConfigurationError):
        RegressionDataset(t=np.array([0.0, np.nan]), x=np.zeros((2, 2)),
                          u=np.zeros((2, 1)), traj_id=np.zeros(2, dtype=int))


def test_unknown_method_rejected():
    data = _smooth_dataset()
    with pytest.raises(ConfigurationError):
        fit_feedback(data, method="forest")


def test_predictions_stay_in_control_hull():
    data = _smooth_dataset(seed=3)
    rng = substream(5, "queries")
    n_q = 1000
    tq = rng.uniform(-2.0, 3.0, size=n_q)
    xq = np.vstack(
        [
            rng.uniform(-1.5, 1.5, size=(n_q // 2, 2)),
            rng.uniform(-150.0, 150.0, size=(n_q - n_q // 2, 2)),  # far field
        ]
    )
    lo = data.u.min(axis=0) - 1e-10
    hi = data.u.max(axis=0) + 1e-10
    for method, hp in (("kernel", {"bandwidth_scale": 0.5}), ("knn", {"k": 5})):
        law = fit_feedback(data, method=method, hyperparams=hp)
        pred = law.predict(tq, xq)
        assert pred.shape == (n_q, 2)
        assert np.all(pred >= lo[None, :]) and np.all(pred <= hi[None, :])


def test_training_loss_dominates_constant_predictor():
    data = _smooth_dataset(seed=7)
    base = _mean_control_loss(data)
    for method, hp in (("kernel", {}), ("knn", {"k": 4})):
        law = fit_feedback(data, method=method, hyperparams=hp)
        assert law.final_loss < base
    # 1-nn reproduces each training row from itself
    law1 = fit_feedback(data, method="knn", hyperparams={"k": 1})
    assert law1.final_loss < 1e-24


def test_fit_is_bit_deterministic():
    data = _smooth_dataset(seed=11)
    rng = substream(13, "queries")
    tq = rng.uniform(0.0, 1.0, size=64)
    xq = rng.uniform(-1.0, 1.0, size=(64, 2))
    for method in ("kernel", "knn", "mlp"):
        hp = {"steps": 200} if method == "mlp" else {}
        a = fit_feedback(data, method=method, hyperparams=hp, seed=4)
        b = fit_feedback(data, method=method, hyperparams=hp, seed=4)
        assert a.final_loss == b.final_loss
        assert np.array_equal(a.predict(tq, xq), b.predict(tq, xq))
        if method == "mlp":
            for wa, wb in zip(a.W + a.b, b.W + b.b):
                assert wa.tobytes() == wb.tobytes()


def test_fit_invariant_to_row_permutation():
    data = _smooth_dataset(seed=17)
    perm = substream(19, "perm").permutation(data.n)
    shuffled = RegressionDataset(
        t=data.t[perm], x=data.x[perm], u=data.u[perm], traj_id=data.traj_id[perm]
    )
    rng = substream(23, "queries")
    tq = rng.uniform(0.0, 1.0, size=64)
    xq = rng.uniform(-1.0, 1.0, size=(64, 2))
    for method in ("kernel", "knn", "mlp"):
        hp = {"steps": 200} if method == "mlp" else {}
        a = fit_feedback(data, method=method, hyperparams=hp, seed=4)
        b = fit_feedback(shuffled, method=method, hyperparams=hp, seed=4)
        assert np.array_equal(a.predict(tq, xq), b.predict(tq, xq))


def test_knn_exact_neighbour_mean():
    data = RegressionDataset(
        t=np.zeros(3),
        x=np.array([[0.0], [1.0], [10.0]]),
        u=np.array([[0.0], [1.0], [5.0]]),
        traj_id=np.array([0, 1, 2]),
    )
    law = fit_feedback(data, method="knn", hyperparams={"k": 2, "time_scale": 1.0})
    out = law.predict(0.0, np.array([0.4]))
    assert out.shape == (1,)
    assert abs(out[0] - 0.5) < 1e-14


def test_kernel_locality_between_clusters():
    # two well-separated clusters with distinct constant controls
    rng = substream(29, "clusters")
    xa = rng.normal(0.0, 0.05, size=(40, 2))
    xb = rng.normal(0.0, 0.05, size=(40, 2)) + 10.0
    data = RegressionDataset(
        t=np.zeros(80),
        x=np.vstack([xa, xb]),
        u=np.vstack([np.tile([1.0, -1.0], (40, 1)), np.tile([3.0, 2.0], (40, 1))]),
        traj_id=np.repeat([0, 1], 40),
    )
    law = fit_feedback(data, method="kernel",
                       hyperparams={"bandwidth": 0.5, "time_scale": 1.0})
    pa = law.predict(0.0, np.zeros(2))
    pb = law.predict(0.0, np.full(2, 10.0))
    assert np.allclose(pa, [1.0, -1.0], atol=1e-6)
    assert np.allclose(pb, [3.0, 2.0], atol=1e-6)


def test_extrapolation_flags_change_no_control():
    rng = substream(31, "extrap")
    n = 40
    data = RegressionDataset(
        t=rng.uniform(0.0, 1.0, size=n),
        x=rng.standard_normal((n, 2)),
        u=rng.standard_normal((n, 2)),
        traj_id=np.arange(n),
    )
    law = fit_feedback(data, method="kernel", hyperparams={"time_scale": 1.0})
    near, flag_near = law.predict(0.5, np.zeros(2), return_flag=True)
    assert flag_near is False
    far_x = np.array([1000.0, -1000.0])
    far, flag_far = law.predict(0.5, far_x, return_flag=True)
    assert flag_far is True
    # sanity on the flag threshold itself
    zq = np.array([law.time_scale * 0.5, *far_x])
    z = np.column_stack([law.time_scale * data.t, data.x])
    d2 = np.sum((z - zq[None, :]) ** 2, axis=1)
    assert law.ref_nn_dist > 0.0
    assert np.sqrt(d2.min()) > EXTRAPOLATION_FACTOR * law.ref_nn_dist

    # an all-flagged batch and a mixed one: the flags are the threshold's,
    # every row answers as it does alone, and every row, flagged or not,
    # gets the bits of the same law with a threshold nothing crosses
    far_xs = np.array([[1000.0, -1000.0], [-800.0, 50.0], [0.0, 3000.0], [8.0, -8.0]])
    mixed_xs = np.vstack([np.zeros(2), far_xs[0], data.x[3], far_xs[1], far_xs[3]])
    for method in ("kernel", "knn"):
        law = fit_feedback(data, method=method, hyperparams={"time_scale": 1.0})
        unflagged = FeedbackLaw.from_json_dict({**law.to_json_dict(), "ref_nn_dist": 1.0e300})
        for xs, want_flags in ((far_xs, [True] * 4),
                               (mixed_xs, [False, True, False, True, True])):
            out, flags = law.predict(0.5, xs, return_flag=True)
            assert flags.tolist() == want_flags
            alone = np.array([law.predict(0.5, x) for x in xs])
            assert np.allclose(out, alone, rtol=0.0, atol=1e-12)
            want, none = unflagged.predict(0.5, xs, return_flag=True)
            assert not none.any()
            assert np.array_equal(out, want)


def test_mlp_learns_linear_map():
    rng = substream(37, "mlp")
    n = 400
    t = rng.uniform(0.0, 1.0, size=n)
    x = rng.uniform(-1.0, 1.0, size=(n, 2))
    u = np.column_stack([1.5 * x[:, 0] - x[:, 1] + 0.5 * t, x[:, 0] + x[:, 1]])
    data = RegressionDataset(t=t, x=x, u=u, traj_id=np.arange(n))
    law = fit_feedback(
        data, method="mlp",
        hyperparams={"hidden": (16, 16), "steps": 2000, "time_scale": 1.0},
        seed=1,
    )
    assert law.final_loss < 0.1 * _mean_control_loss(data)


def test_mlp_divergence_raises():
    data = _smooth_dataset(seed=41)
    with pytest.raises(TrainingDivergedError):
        fit_feedback(data, method="mlp",
                     hyperparams={"steps": 200, "lr": 1e8}, seed=0)


def test_mlp_network_is_float32_between_float64_standardization(tmp_path):
    data = _smooth_dataset(seed=43)
    rng = substream(45, "queries")
    tq = rng.uniform(0.0, 1.0, size=32)
    xq = rng.uniform(-1.0, 1.0, size=(32, 2))
    law = fit_feedback(data, method="mlp", hyperparams={"steps": 200}, seed=3)
    law.save(tmp_path / "law.json")
    loaded = FeedbackLaw.load(tmp_path / "law.json")
    for fitted in (law, loaded):
        assert all(a.dtype == np.float32 for a in fitted.W + fitted.b)
        assert all(a.dtype == np.float64 for a in (fitted.z_mean, fitted.z_std,
                                                     fitted.u_mean, fitted.u_std))
        assert fitted.predict(tq, xq).dtype == np.float64
        assert fitted.predict(0.5, xq[0]).dtype == np.float64

    # a v2 document with float64 weights loads with them rounded to float32
    # and stays close to their float64 evaluation
    doc = law.to_json_dict()
    W64 = [rng.uniform(-1.0, 1.0, size=np.shape(w)) / np.sqrt(len(w)) for w in doc["W"]]
    b64 = [rng.uniform(-0.5, 0.5, size=np.shape(v)) for v in doc["b"]]
    old = FeedbackLaw.from_json_dict(
        json.loads(json.dumps({**doc, "W": [w.tolist() for w in W64],
                               "b": [v.tolist() for v in b64]})))
    assert all(a.dtype == np.float32 for a in old.W + old.b)
    z = np.column_stack([old.time_scale * tq, xq])
    h = (z - old.z_mean) / old.z_std
    for i, (Wi, bi) in enumerate(zip(W64, b64)):
        h = h @ Wi + bi
        if i < len(W64) - 1:
            h = np.tanh(h)
    want = h * old.u_std + old.u_mean
    got = old.predict(tq, xq)
    assert not np.array_equal(got, want)
    assert np.abs(got - want).max() <= 1e-5 * np.abs(want).max()


def test_default_time_scale_is_diameter_over_span():
    data = _smooth_dataset(seed=47)
    law = fit_feedback(data, method="knn")
    span = float(data.t.max() - data.t.min())
    diam = float(np.linalg.norm(data.x.max(axis=0) - data.x.min(axis=0)))
    assert abs(law.time_scale - diam / span) < 1e-12


def test_law_serialization_round_trip(tmp_path):
    data = _smooth_dataset(seed=53)
    rng = substream(59, "queries")
    tq = rng.uniform(0.0, 1.0, size=32)
    # the last rows are far out: flagged by the neighbour laws
    xq = np.vstack([rng.uniform(-1.0, 1.0, size=(28, 2)), rng.uniform(50.0, 80.0, size=(4, 2))])
    # each document carries what its method reads, and nothing else
    shared = {"format", "method", "time_scale", "hyperparams", "final_loss"}
    state = {
        "kernel": {"bandwidth", "z", "u", "ref_nn_dist"},
        "knn": {"k", "z", "u", "ref_nn_dist"},
        "mlp": {"W", "b", "z_mean", "z_std", "u_mean", "u_std", "n_train"},
    }
    for method in ("kernel", "knn", "mlp"):
        hp = {"steps": 200} if method == "mlp" else {}
        law = fit_feedback(data, method=method, hyperparams=hp, seed=2)
        path = tmp_path / f"law_{method}.json"
        law.save(path)
        doc = law.to_json_dict()
        assert path.read_bytes() == json.dumps(doc).encode()
        assert set(doc) == shared | state[method]
        assert doc["format"] == "ctrlflow.feedback_law.v2" and doc["hyperparams"] == hp
        loaded = FeedbackLaw.load(path)
        assert type(loaded) is type(law) and loaded.method == method
        assert (loaded.n_train, loaded.final_loss) == (data.n, law.final_loss)
        out, flags = loaded.predict(tq, xq, return_flag=True)
        want, want_flags = law.predict(tq, xq, return_flag=True)
        assert np.array_equal(out, want)
        assert np.array_equal(flags, want_flags)
        assert flags[-4:].all() == (method != "mlp") and not flags[:28].any()
    with pytest.raises(ConfigurationError):
        FeedbackLaw.from_json_dict({"format": "something_else"})
    with pytest.raises(ConfigurationError):
        FeedbackLaw.from_json_dict({**doc, "format": "ctrlflow.feedback_law.v1"})
    with pytest.raises(ConfigurationError):
        FeedbackLaw.from_json_dict({**doc, "method": "forest"})


@pytest.mark.parametrize("method", ["kernel", "knn", "mlp"])
def test_saved_law_is_json_dumps_of_its_document_and_loads_bit_for_bit(method, tmp_path):
    # save writes a 2-D array a chunk of rows at a time: the file must still
    # be json.dumps of the whole document, at and around the chunk edges
    step = JSON_CHUNK_ENTRIES // 3  # rows of z = (t, x) per chunk
    for n in (1, 2, step - 1, step, step + 1, 3 * step + 7):
        data = _smooth_dataset(n_traj=n, n_per=1, seed=n)
        if method == "mlp":
            law = fit_feedback(data, method="mlp", hyperparams={"steps": 20}, seed=1)
        else:
            z = np.column_stack([data.t, data.x])
            law = (KernelLaw(1.0, z, data.u, bandwidth=np.full(3, 0.5)) if method == "kernel"
                   else KnnLaw(1.0, z, data.u, k=1))
        path = tmp_path / "law.json"
        law.save(path)
        assert path.read_bytes() == json.dumps(law.to_json_dict()).encode()
        loaded = FeedbackLaw.load(path)
        want, got = law._document(), loaded._document()
        assert list(got) == list(want)
        for key, value in want.items():
            if isinstance(value, np.ndarray):
                assert got[key].dtype == value.dtype and np.array_equal(got[key], value)
            else:
                assert got[key] == value


def test_zero_spread_feature_gets_unit_bandwidth():
    # a fitted bandwidth of 0 (every row at one time) falls back to 1.0;
    # given bandwidths must be positive (see test_config)
    data = _smooth_dataset(seed=89)
    flat = RegressionDataset(t=np.zeros(data.n), x=data.x, u=data.u, traj_id=data.traj_id)
    law = fit_feedback(flat, method="kernel", hyperparams={"bandwidth_scale": 0.5})
    assert law.bandwidth[0] == 1.0 and np.all(law.bandwidth[1:] < 1.0)


def test_crossval_rejects_degenerate_setups():
    data = _smooth_dataset(seed=61)
    with pytest.raises(ConfigurationError):
        crossval_loss(data, "kernel", [{"bandwidth_scale": 1.0}], folds=1)
    with pytest.raises(ConfigurationError):
        crossval_loss(data, "kernel", [], folds=4)
    small = _smooth_dataset(n_traj=3, seed=61)
    with pytest.raises(ConfigurationError):
        crossval_loss(small, "kernel", [{"bandwidth_scale": 1.0}], folds=4)


def test_crossval_rejects_oversmoothing():
    data = _smooth_dataset(n_traj=12, n_per=10, seed=67)
    grid = [
        {"bandwidth_scale": 0.02},
        {"bandwidth_scale": 1.0},
        {"bandwidth_scale": 50.0},
    ]
    best, table = crossval_loss(data, "kernel", grid, folds=4, seed=5)
    assert [params for params, _ in table] == grid
    losses = {params["bandwidth_scale"]: loss for params, loss in table}
    assert all(np.isfinite(v) for v in losses.values())
    # a bandwidth wide enough to average everything loses to the tuned ones
    assert best["bandwidth_scale"] != 50.0
    assert losses[best["bandwidth_scale"]] < losses[50.0]
    # oversmoothing degenerates towards the constant predictor's error
    assert losses[50.0] > 0.5 * _mean_control_loss(data)


def test_crossval_tie_breaks_to_first_entry():
    data = _smooth_dataset(seed=71)
    grid = [{"k": 3}, {"k": 3}]
    best, table = crossval_loss(data, "knn", grid, folds=3, seed=5)
    assert best is grid[0]
    assert table[0][1] == table[1][1]


def test_dataset_from_pairs():
    t_grid = np.linspace(0.0, 1.0, 11)
    a = np.array([1.0, 2.0, 3.0])[:, None]
    states = np.stack([a * t_grid, np.cos(a * t_grid)], axis=2)
    controls = (a * t_grid**2)[:, :, None]
    ens = PairEnsemble(t_grid, states, controls)
    ds = dataset_from_pairs(ens, n_time_samples=5)
    assert ds.n == 15 and ds.d == 2 and ds.m == 1
    assert set(np.unique(ds.traj_id)) == {0, 1, 2}
    # np.round is half-to-even, so index 2.5 lands on 2 (t = 0.2)
    assert np.allclose(np.unique(ds.t), [0.0, 0.2, 0.5, 0.8, 1.0])
    row = (ds.traj_id == 1) & (ds.t == 0.5)
    assert np.allclose(ds.x[row], [[1.0, np.cos(1.0)]])
    assert np.allclose(ds.u[row], [[0.5]])
    with pytest.raises(EmptyDatasetError):
        dataset_from_pairs(ens.select(slice(0)))
    # rows are tagged by the given ids; one id per row
    tagged = dataset_from_pairs(ens, n_time_samples=5, traj_id=[7, 4, 9])
    assert np.array_equal(tagged.traj_id, np.repeat([7, 4, 9], 5))
    assert np.array_equal(tagged.x, ds.x)
    with pytest.raises(ConfigurationError):
        dataset_from_pairs(ens, traj_id=[0, 1])


def test_dataset_csv_round_trip(tmp_path):
    data = _smooth_dataset(seed=73)
    path = tmp_path / "train.csv"
    save_dataset(data, path)
    back = load_dataset(path)
    assert np.array_equal(back.t, data.t)
    assert np.array_equal(back.x, data.x)
    assert np.array_equal(back.u, data.u)
    assert np.array_equal(back.traj_id, data.traj_id)

    # a header-only file is an empty dataset, not an indexing error
    path.write_text(path.read_text().splitlines()[0] + "\r\n")
    with pytest.raises(EmptyDatasetError):
        load_dataset(path)


def _kernel_args(zq, z, h):
    # a dense row's kernel arguments -|q/h - z/h|^2/2, from one product of
    # [q/h, 1, -|q/h|^2/2] with [z/h; -|z/h|^2/2; 1], and the row's smallest
    # squared scaled distance, -2 times its largest argument
    qh, zh = zq / h, z / h
    qa = np.column_stack([qh, np.ones(len(qh)), -0.5 * np.einsum("nd,nd->n", qh, qh)])
    za = np.vstack([zh.T, -0.5 * np.einsum("nd,nd->n", zh, zh), np.ones(len(zh))])
    args = qa @ za
    return args, -2.0 * args.max(axis=1)


def _dense_reference(z, u, h, ref_nn, zq, k=None, d2=None):
    # the dense predict the k-d tree replaced: (queries x training) blocks,
    # neighbours by stable argsort; a knn law when k is given, else kernel
    # weights with no floor.  d2 overrides the unscaled block (exact
    # distances for the tie test)
    if d2 is None:
        d2 = sq_dists(zq, z)

    def knn_mean(rows, kk):
        order = np.argsort(d2[rows], axis=1, kind="stable")[:, : min(kk, len(z))]
        return u[order].mean(axis=1)

    everyone = np.ones(len(zq), dtype=bool)
    flags = np.sqrt(d2.min(axis=1)) > EXTRAPOLATION_FACTOR * max(ref_nn, 1.0e-300)
    if k is not None:
        out = knn_mean(everyone, k)
    else:
        args, emin = _kernel_args(zq, z, np.maximum(h, 1.0e-300))
        # rows past FAR_EMIN are weighed relative to their top weight
        w = np.exp(args + np.where(emin > FAR_EMIN, 0.5 * emin, 0.0)[:, None])
        sums = w @ np.column_stack([u, np.ones(len(u))])
        out = sums[:, :-1] / sums[:, -1:]
        degenerate = emin > 1400.0
        out[degenerate] = knn_mean(degenerate, 1)
    return out, flags


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 400),
    d=st.integers(1, 4),
    m=st.integers(1, 3),
    log_h=st.floats(-6.0, 3.0),
    jitter=st.lists(st.floats(-0.5, 0.5), min_size=5, max_size=5),
    far=st.floats(1.0, 100.0),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=400, d=3, m=2, log_h=-6.0, jitter=[0.0] * 5, far=1.0, seed=1)  # collapsed: 1-nn
@example(n=400, d=3, m=2, log_h=3.0, jitter=[0.0] * 5, far=1.0, seed=2)  # wide
@example(n=400, d=3, m=2, log_h=-4.0, jitter=[0.0] * 5, far=50.0, seed=3)  # narrow, far out
@example(n=400, d=3, m=2, log_h=-3.0, jitter=[0.0] * 5, far=1.0, seed=5)  # narrow
def test_truncated_kernel_matches_dense_reference(n, d, m, log_h, jitter, far, seed):
    rng = np.random.default_rng(seed)
    # rows at log-uniform scales: dense cores and sparse rims, often both
    # under one law
    scale = 10.0 ** rng.uniform(-3.0, 0.0, size=(n, 1))
    z = rng.standard_normal((n, d + 1)) * scale
    u = rng.uniform(-10.0, 10.0, size=(n, m))
    h = 10.0 ** (log_h + np.array(jitter[: d + 1]))
    # queries near training rows, at random, and far out (flagged)
    near = rng.integers(0, n, size=20)
    zq = np.vstack([
        z[near] + 0.1 * scale[near] * rng.standard_normal((20, d + 1)),
        rng.standard_normal((20, d + 1)),
        far * rng.standard_normal((8, d + 1)),
    ])
    law = KernelLaw(1.0, z, u, bandwidth=h)
    got, flags = law.predict(zq[:, 0], zq[:, 1:], return_flag=True)
    want, want_flags = _dense_reference(z, u, h, law.ref_nn_dist, zq)
    assert np.array_equal(flags, want_flags)
    # the law and the reference expand the distances in the same augmented
    # product, which carries eps-relative rounding of the norms of the rows
    # that carry weight, a row's 32 nearest
    qh, zh = zq / h, z / h
    exact = ((qh[:, None] - zh[None]) ** 2).sum(-1)
    order = np.argsort(exact, axis=1)
    norms = (qh**2).sum(1) + (zh**2).sum(1)[order[:, :32]].max(axis=1)
    rounding = 16.0 * (d + 3) * np.finfo(float).eps * norms + 1.0e-13
    tol = rounding * np.abs(u).max()
    assert np.all(np.abs(got - want) <= tol[:, None])
    # the knn law shares the neighbour path: same sets, same order, same bits
    knn = KnnLaw(1.0, z, u, k=7)
    got, flags = knn.predict(zq[:, 0], zq[:, 1:], return_flag=True)
    want, want_flags = _dense_reference(z, u, None, knn.ref_nn_dist, zq, k=7)
    assert np.array_equal(flags, want_flags)
    assert np.array_equal(got, want)


@settings(max_examples=200, deadline=None)
@given(arrays(float, array_shapes(max_dims=2, max_side=40), elements=st.floats(-2000.0, 0.0)))
@example(np.array([EXP_FLOOR, np.nextafter(EXP_FLOOR, 0.0), np.nextafter(EXP_FLOOR, -np.inf),
                   -745.2, -746.0, -0.0, 0.0]))
def test_exp_weights_floor(args):
    # kept entries are np.exp's bits; floored ones weigh e^EXP_FLOOR exactly
    got = floored_exp(args.copy())
    keep = args >= EXP_FLOOR
    assert np.array_equal(got[keep], np.exp(args[keep]))
    assert np.all(got[~keep] == np.exp(EXP_FLOOR))


def test_dense_law_with_floored_weights_matches_reference():
    # clusters far apart in bandwidths, each a tight core of 40 rows and a
    # halo of 10: most of each row's block lies past the floor and the halo
    # gives weights between e^-700 and e^-20 that must count.  Controls from
    # uniform(-10, 10) keep every weighted sum from cancelling, the one case
    # where a floored weight could move a last bit
    rng = np.random.default_rng(11)
    z = np.repeat(100.0 * rng.standard_normal((20, 3)), 50, axis=0)
    z += rng.standard_normal(z.shape) * np.tile(np.repeat([1.0, 8.0], [40, 10]), 20)[:, None]
    u = rng.uniform(-10.0, 10.0, size=(len(z), 2))
    h = np.ones(3)
    law = KernelLaw(1.0, z, u, bandwidth=h)
    zq = z[rng.integers(0, len(z), size=64)] + 0.5 * rng.standard_normal((64, 3))
    args = _kernel_args(zq, z, h)[0]
    assert np.mean(args < EXP_FLOOR) >= 0.5
    assert np.any((args >= EXP_FLOOR) & (args < -20.0))
    got, flags = law.predict(zq[:, 0], zq[:, 1:], return_flag=True)
    want, want_flags = _dense_reference(z, u, h, law.ref_nn_dist, zq)
    assert not flags.any() and not want_flags.any()
    assert np.array_equal(got, want)


def _dense_case(case, seed):
    # "wide": a bandwidth near the median pairwise spread, every row weighs
    # in; "offset": a narrow bandwidth on a cloud far from the origin, where
    # the expanded products are large against the arguments that count
    rng = np.random.default_rng(seed)
    if case == "wide":
        scale = np.array([1.0, 2.0, 1.0, 0.5])
        z = rng.standard_normal((1000, 4)) * scale
        u = rng.standard_normal((1000, 2))
        pairs = rng.integers(0, 1000, size=(2, 4096))
        h = np.median(np.abs(z[pairs[0]] - z[pairs[1]]), axis=0)
        zq = rng.standard_normal((300, 4)) * scale
    else:
        z = rng.uniform(-1.0, 1.0, size=(800, 4)) + np.array([3.0, 30.0, -20.0, 10.0])
        u = rng.standard_normal((800, 3))
        h = np.full(4, 0.3)
        zq = z[rng.integers(0, 800, size=300)] + 0.05 * rng.standard_normal((300, 4))
    return z, u, h, zq


# error / max|u| of the previous dense path (|q|^2 + |z|^2 - 2 q.z blocks,
# then exp) on each case, against the long-double reference below, measured
# on x86-64 with OpenBLAS
PARENT_DENSE_ERROR = {
    ("wide", 0): 1.04e-16, ("wide", 1): 6.27e-17, ("wide", 5): 7.37e-17,
    ("offset", 0): 3.22e-13, ("offset", 1): 3.98e-13, ("offset", 5): 3.44e-13,
}


@pytest.mark.parametrize("case, seed", sorted(PARENT_DENSE_ERROR))
def test_dense_kernel_mean_matches_long_double_differences(case, seed):
    # the augmented product expands the distances as the previous path did,
    # so its error is of the same size: at most twice the previous path's on
    # the same inputs, against direct differences in long double
    z, u, h, zq = _dense_case(case, seed)
    law = KernelLaw(1.0, z, u, bandwidth=h)
    got, flags = law.predict(zq[:, 0], zq[:, 1:], return_flag=True)
    assert not flags.any()
    qh, zh = zq.astype(np.longdouble) / h, z.astype(np.longdouble) / h
    d2 = ((qh[:, None] - zh[None]) ** 2).sum(-1)
    w = np.exp(-0.5 * (d2 - d2.min(axis=1, keepdims=True)))
    want = (w @ u.astype(np.longdouble)) / w.sum(axis=1, keepdims=True)
    err = float(np.abs(got - want).max() / np.abs(u).max())
    assert err <= 2.0 * PARENT_DENSE_ERROR[case, seed]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_far_dense_rows_are_weighed_relative_to_their_top_weight(seed):
    # one tight cloud; queries 34-39 bandwidths out have emin in
    # (FAR_EMIN, -2 EXP_FLOOR], so their top weight is below e^-600.
    # Unshifted, the floor would cut the weights of rows within e^-20 of it
    rng = np.random.default_rng(seed)
    z = rng.uniform(-1.0, 1.0, size=(400, 3))
    u = rng.uniform(-10.0, 10.0, size=(400, 2))
    law = KernelLaw(1.0, z, u, bandwidth=np.ones(3), ref_nn_dist=1.0e9)
    v = rng.standard_normal((400, 3))
    zq = v / np.linalg.norm(v, axis=1, keepdims=True) * rng.uniform(34.0, 39.0, size=(400, 1))
    d2 = ((zq.astype(np.longdouble)[:, None] - z[None]) ** 2).sum(-1)
    emin = d2.min(axis=1)
    keep = (emin > FAR_EMIN) & (emin < -2.0 * EXP_FLOOR - 1.0e-6)
    zq, d2, emin = zq[keep], d2[keep], emin[keep]
    assert len(zq) >= 100 and np.sum(emin > -2.0 * EXP_FLOOR - 20.0) >= 10
    got, flags = law.predict(zq[:, 0], zq[:, 1:], return_flag=True)
    assert not flags.any()
    w = np.exp(-0.5 * (d2 - emin[:, None]))
    want = (w @ u.astype(np.longdouble)) / w.sum(axis=1, keepdims=True)
    # the expanded product's rounding, as in the reference test above
    norms = (zq**2).sum(1) + (z**2).sum(1).max()
    tol = 2.0 * (16.0 * (3 + 3) * np.finfo(float).eps * norms + 1.0e-13) * np.abs(u).max()
    assert np.all(np.abs(got - want) <= tol[:, None])


@settings(max_examples=40, deadline=None)
@given(
    case=st.sampled_from(["wide", "offset", "narrow"]),
    seed=st.integers(0, 2**32 - 1),
    deltas=st.lists(st.floats(-1.0e-9, 1.0e-9), min_size=1, max_size=8),
)
@example(case="offset", seed=0, deltas=[0.0])
@example(case="narrow", seed=1, deltas=[0.0])
def test_flags_at_the_threshold_match_the_tree(case, seed, deltas):
    # queries whose nearest training row sits within 1e-9 relative of the
    # flag threshold, most of them within rounding of it: the bracket must
    # hand every row it cannot settle to the tree, so the flags are the tree's
    # the two _dense_case clouds, and the offset cloud at a narrow bandwidth
    z, u, h, _ = _dense_case("offset" if case == "narrow" else case, seed)
    law = KernelLaw(1.0, z, u, bandwidth=np.full(4, 0.02) if case == "narrow" else h)
    tree = cKDTree(z)
    threshold = EXTRAPOLATION_FACTOR * law.ref_nn_dist
    rng = np.random.default_rng(seed)
    signs = rng.choice([-1.0, 1.0], size=64)
    deltas = np.concatenate([deltas, [0.0] * 4, signs * 10.0 ** rng.uniform(-18.0, -9.0, size=64)])
    # a point three thresholds out from a training row, moved toward its
    # nearest row if that is farther than the threshold: it stays nearest
    v = rng.standard_normal((len(deltas), z.shape[1]))
    start = z[rng.integers(0, len(z), size=len(deltas))]
    start = start + 3.0 * threshold * v / np.linalg.norm(v, axis=1, keepdims=True)
    d0, j = tree.query(start)
    out = d0 > 1.01 * threshold
    assert np.count_nonzero(out) >= len(deltas) // 2
    start, d0, j, deltas = start[out], d0[out], j[out], deltas[out]
    zq = z[j] + (start - z[j]) * (threshold * (1.0 + deltas) / d0)[:, None]
    want = tree.query(zq)[0] > threshold
    assert want.any() and not want.all()
    for fitted in (law, KnnLaw(1.0, z, u, k=7)):
        _, flags = fitted.predict(zq[:, 0], zq[:, 1:], return_flag=True)
        assert np.array_equal(flags, want)


def test_flags_inside_the_support_ask_the_tree_for_no_row():
    # a unit lattice in (t, x1, x2) under bandwidths 1000x apart; each query
    # sits 0.05 from a lattice row, which carries its top weight.  The
    # distance to that row settles every flag; the bound h_max sqrt(emin),
    # about 50 lattice steps here, would settle none
    rng = np.random.default_rng(29)
    z = np.stack(np.meshgrid(*[np.arange(10.0)] * 3, indexing="ij"), axis=-1).reshape(-1, 3)
    u = rng.standard_normal((len(z), 2))
    law = KernelLaw(1.0, z, u, bandwidth=np.array([0.01, 10.0, 10.0]))
    assert law.ref_nn_dist == 1.0
    zq = z[rng.integers(0, len(z), size=200)] + 0.05 * rng.choice([-1.0, 1.0], size=(200, 3))
    asked = []
    tree = law._tree

    class Spy:
        def query(self, x, *args, **kwargs):
            asked.append(len(x))
            return tree.query(x, *args, **kwargs)

    law._tree = Spy()
    _, flags = law.predict(zq[:, 0], zq[:, 1:], return_flag=True)
    assert not flags.any() and asked == []


@pytest.mark.parametrize("size", ["one", "tile+1", "3 tiles"])
def test_dense_workspace_carries_no_state_between_calls(size, tmp_path):
    # the row tile is reused by every call of a law: a call in between, whose
    # tiles hold other weights, must not change the next call's bits
    rng = np.random.default_rng(17)
    z = rng.standard_normal((1000, 4))
    u = rng.standard_normal((1000, 2))
    law = KernelLaw(1.0, z, u, bandwidth=np.full(4, 2.0))
    step = tile_rows(law.n_train)
    n = {"one": 1, "tile+1": step + 1, "3 tiles": 3 * step}[size]
    a = 0.8 * rng.standard_normal((n, 4))
    b = 0.8 * rng.standard_normal((3 * step + 5, 4))
    first = law.predict(a[:, 0], a[:, 1:])
    law.predict(b[:, 0], b[:, 1:])
    again = law.predict(a[:, 0], a[:, 1:])
    assert np.array_equal(first, again)
    law.save(tmp_path / "law.json")
    fresh = FeedbackLaw.load(tmp_path / "law.json")
    assert np.array_equal(fresh.predict(a[:, 0], a[:, 1:]), first)


def test_dense_predict_memory_stays_within_a_few_tiles():
    # 2000 queries against 4000 rows would be a 64 MB block; the tiles reuse
    # the law's workspace, so a call allocates little beyond its outputs
    rng = np.random.default_rng(23)
    z = rng.standard_normal((4000, 3))
    u = rng.standard_normal((4000, 2))
    law = KernelLaw(1.0, z, u, bandwidth=np.full(3, 2.0))
    zq = 0.8 * rng.standard_normal((2000, 3))
    tracemalloc.start()
    try:
        law.predict(zq[:, 0], zq[:, 1:])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * TILE_ENTRIES * 8


def test_neighbour_ties_break_by_lower_index():
    # integer lattice rows, each repeated many times with its own control:
    # squared distances are exact, so equal distances tie exactly, and the
    # neighbour sets must be those of a stable argsort over training rows
    rng = substream(79, "ties")
    z = rng.integers(-2, 3, size=(30, 3)).astype(float)[rng.integers(0, 30, size=600)]
    u = rng.standard_normal((600, 2))
    on = rng.integers(-3, 4, size=(100, 3)).astype(float)
    off = on + 0.5  # never on a training row: at least 0.5 away
    zq = np.vstack([on, off])
    d2 = ((zq[:, None] - z[None]) ** 2).sum(-1)
    srt = np.sort(d2, axis=1)
    for k in (1, 5, 16, 50):
        # the test only bites if ties straddle the k-th place
        assert np.any(srt[:, k - 1] == srt[:, k])

        law = KnnLaw(1.0, z, u, k=k, ref_nn_dist=1.0e9)
        want, _ = _dense_reference(z, u, None, 1.0e9, zq, k=k, d2=d2)
        assert np.array_equal(law.predict(zq[:, 0], zq[:, 1:]), want)

    # off-lattice queries are flagged, and keep the k = 1 mean
    law = KnnLaw(1.0, z, u, k=1, ref_nn_dist=0.01)
    got, flags = law.predict(zq[:, 0], zq[:, 1:], return_flag=True)
    want, want_flags = _dense_reference(z, u, None, 0.01, zq, k=1, d2=d2)
    assert np.array_equal(flags, want_flags) and flags[100:].all()
    assert np.array_equal(got, want)

    # the 1-nn underflow fallback: off-lattice queries sit >= 500 bandwidths
    # from every row, so all their kernel weights underflow
    h = np.full(3, 1.0e-3)
    law = KernelLaw(1.0, z, u, bandwidth=h, ref_nn_dist=1.0e9)
    want, _ = _dense_reference(z, u, h, 1.0e9, off, d2=d2[100:])
    assert np.array_equal(law.predict(off[:, 0], off[:, 1:]), want)


def test_ref_nn_dist_is_the_median_nearest_spacing():
    # the extrapolation threshold uses every training row, not a subsample
    rng = substream(83, "spacing")
    n = 3000
    data = RegressionDataset(
        t=rng.uniform(0.0, 1.0, size=n), x=rng.standard_normal((n, 2)),
        u=rng.standard_normal((n, 1)), traj_id=np.arange(n),
    )
    z = np.column_stack([data.t, data.x])
    nearest = np.empty(n)
    for lo in range(0, n, 500):
        d2 = ((z[lo : lo + 500, None] - z[None]) ** 2).sum(-1)
        d2[np.arange(len(d2)), lo + np.arange(len(d2))] = np.inf
        nearest[lo : lo + 500] = np.sqrt(d2.min(axis=1))
    want = np.median(nearest)
    for method in ("kernel", "knn"):
        law = fit_feedback(data, method=method, hyperparams={"time_scale": 1.0})
        assert abs(law.ref_nn_dist - want) <= 1.0e-12 * want


def _time_ordered_case(n_times, n_per, d, discrete, gap, log_ht, log_hx, seed):
    # training rows in nondecreasing t, as every fitted law holds them: time
    # samples gap*h_t apart (dataset_from_pairs), or continuous t
    rng = np.random.default_rng(seed)
    h = np.array([10.0**log_ht] + [10.0**log_hx] * d)
    n = n_times * n_per
    if discrete:
        t = np.repeat(gap * h[0] * np.arange(n_times), n_per)
    else:
        t = np.sort(rng.uniform(0.0, gap * h[0] * n_times, size=n))
    z = np.column_stack([t, rng.standard_normal((n, d))])
    u = rng.uniform(-10.0, 10.0, size=(n, 2))
    return rng, z, u, h


@settings(max_examples=60, deadline=None)
@given(
    n_times=st.integers(2, 30),
    n_per=st.integers(1, 40),
    d=st.integers(1, 3),
    discrete=st.booleans(),
    gap=st.floats(0.5, 6.0),
    log_ht=st.floats(-3.0, 1.0),
    log_hx=st.floats(-1.5, 0.5),
    seed=st.integers(0, 2**32 - 1),
)
@example(n_times=25, n_per=40, d=3, discrete=True, gap=4.0, log_ht=-2.0, log_hx=-1.0, seed=1)
@example(n_times=25, n_per=40, d=3, discrete=True, gap=0.5, log_ht=0.0, log_hx=0.0, seed=2)
@example(n_times=30, n_per=40, d=2, discrete=False, gap=3.0, log_ht=-1.0, log_hx=-1.5, seed=3)
def test_time_window_matches_dense_reference(n_times, n_per, d, discrete, gap, log_ht, log_hx,
                                             seed):
    # a law in time order sums each tile over its time window: it must match
    # the reference over every row, within the same rounding as
    # test_truncated_kernel_matches_dense_reference, with equal flags
    rng, z, u, h = _time_ordered_case(n_times, n_per, d, discrete, gap, log_ht, log_hx, seed)
    t_samples = np.unique(z[:, 0])
    t_lo, t_hi = t_samples[0], t_samples[-1]
    x_near = z[rng.integers(0, len(z), size=8), 1:] + 0.3 * h[1:] * rng.standard_normal((8, d))
    v = rng.standard_normal((8, d))
    # 30-60 bandwidths from a training state: past FAR_EMIN, some past 1-nn
    x_far = z[rng.integers(0, len(z), size=8), 1:] + (
        v / np.linalg.norm(v, axis=1, keepdims=True) * h[1:] * rng.uniform(30.0, 60.0, (8, 1)))
    mid = 0.5 * (t_samples[:-1] + t_samples[1:])
    times = [
        rng.choice(t_samples),  # on a time sample
        rng.choice(mid),  # between two
        t_lo - h[0] * rng.uniform(0.5, 30.0),  # before the first
        t_hi + h[0] * rng.uniform(0.5, 30.0),  # after the last
        rng.uniform(t_lo, t_hi),
    ]
    # rollout calls share one t; the last call holds training rows in t
    # order, as the fit loss pass sends them
    calls = [np.column_stack([np.full(8, tq), xq]) for tq in times for xq in (x_near, x_far)]
    calls.append(z[np.sort(rng.integers(0, len(z), size=40))] + 0.1 * h * rng.standard_normal((40, d + 1)))
    for ref_nn in (None, 1.0e9):  # flagged far rows, and far rows weighed
        law = KernelLaw(1.0, z, u, bandwidth=h, ref_nn_dist=ref_nn)
        for zq in calls:
            got, flags = law.predict(zq[:, 0], zq[:, 1:], return_flag=True)
            want, want_flags = _dense_reference(z, u, h, law.ref_nn_dist, zq)
            assert np.array_equal(flags, want_flags)
            qh, zh = zq / h, z / h
            exact = ((qh[:, None] - zh[None]) ** 2).sum(-1)
            order = np.argsort(exact, axis=1)
            norms = (qh**2).sum(1) + (zh**2).sum(1)[order[:, :32]].max(axis=1)
            tol = (16.0 * (d + 3) * np.finfo(float).eps * norms + 1.0e-13) * np.abs(u).max()
            assert np.all(np.abs(got - want) <= tol[:, None])


def test_time_window_keeps_weight_a_time_sample_away():
    # time samples 1 h_t apart and one far off.  Every row at t = 1, the
    # sample nearest the query time 0.9, sits 10 bandwidths from the query
    # state; one row at t = 0 sits on it and carries all the weight.  The
    # core is the t = 1 sample alone: the certificate must widen the window
    # to t = 0, and may drop t = 40
    rng = np.random.default_rng(5)
    n_per = 50
    t = np.repeat([0.0, 1.0, 2.0, 40.0], n_per)
    x = 10.0 + rng.standard_normal((len(t), 2))
    x[0] = 0.0
    u = np.repeat([[1.0], [-1.0], [-1.0], [-1.0]], n_per, axis=0)
    u[0] = 5.0
    law = KernelLaw(1.0, np.column_stack([t, x]), u, bandwidth=np.ones(3), ref_nn_dist=1.0e9)
    windows = []
    tile_args = law._tile_args
    law._tile_args = lambda q, tile: windows.append(tile_args(q, tile)) or windows[-1]
    zq = np.array([[0.9, 0.0, 0.0], [0.9, 0.1, -0.1]])
    got = law.predict(zq[:, 0], zq[:, 1:])
    want, _ = _dense_reference(law._z, u, np.ones(3), 1.0e9, zq)
    assert np.all(np.abs(got - want) <= 1.0e-12) and np.all(got > 4.9)
    assert windows == [(0, 3 * n_per)]


def test_fitted_kernel_law_rows_are_in_time_order(tmp_path):
    # the time window needs the rows in nondecreasing t; fitting sorts them
    # (t first) and save/load keeps them, so the window is on for every
    # fitted or loaded law.  A law built out of t order keeps every column
    rng = substream(89, "time order")
    n = 600
    data = RegressionDataset(
        t=rng.choice(np.linspace(0.0, 1.0, 25), size=n), x=rng.standard_normal((n, 2)),
        u=rng.standard_normal((n, 1)), traj_id=np.arange(n),
    )
    assert np.any(np.diff(data.t) < 0.0)
    law = fit_feedback(data, method="kernel", hyperparams={"bandwidth_scale": 0.1})
    law.save(tmp_path / "law.json")
    loaded = FeedbackLaw.load(tmp_path / "law.json")
    for fitted in (law, loaded):
        assert np.all(np.diff(fitted._z[:, 0]) >= 0.0) and fitted._t_sorted
    assert np.array_equal(loaded._z, law._z)
    shuffled = KernelLaw(1.0, law._z[::-1], law._u[::-1], bandwidth=law.bandwidth)
    assert not shuffled._t_sorted
