"""Time the kernel law's predict layer: µs per query row against the training size.

Usage, from the root of a source checkout (it imports ``./src``):

    python3 tools/predict_layer.py                      # 6.4k, 20k and 40k rows
    python3 tools/predict_layer.py --rows 6400 --calls 10 --repeats 3

Each size builds one fixed synthetic law shaped like the stabilize_pmp
example's: ``n_rows / 25`` paths of a three-state system that shrink to
the origin over the horizon, sampled at 25 time samples (so the rows are
in time order and the time window is on), with the controls of a linear
feedback plus noise, and the median bandwidth rule at that example's
``bandwidth_scale`` of 0.05.  A call queries 32 states at one time, near
the law's states at that time, as a closed-loop rollout stage does.

For each size the tool prints the median over ``--repeats`` passes of
``--calls`` calls in µs per query row, the share of the dense (query x
training) entries that the time windows keep, and how many row tiles
hold arguments below ``EXP_FLOOR``; the last line is the same as JSON.
Set ``OPENBLAS_NUM_THREADS=1`` for numbers comparable across machines
with one BLAS thread.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from ctrlflow import regression  # noqa: E402
from ctrlflow.linalg import EXP_FLOOR  # noqa: E402
from ctrlflow.regression import KernelLaw  # noqa: E402

N_TIMES = 25
QUERY_ROWS = 32
HORIZON = 2.0
# per-state spread at t = 0 and the bandwidth scale of the stabilize_pmp
# example config
SPREAD = np.array([3.4, 2.2, 5.7])
BANDWIDTH_SCALE = 0.05


def synthetic_law(n_rows: int, seed: int = 0) -> KernelLaw:
    """A kernel law on ``n_rows`` stabilization-like rows in time order:
    paths that shrink linearly from a wide start to the origin at the
    horizon, with a linear feedback's noisy controls."""
    rng = np.random.default_rng(seed)
    n_paths = max(1, n_rows // N_TIMES)
    t = np.linspace(0.0, HORIZON, N_TIMES)
    x0 = SPREAD * rng.standard_normal((n_paths, 1, 3))
    x = x0 * (1.0 - t / HORIZON)[None, :, None]
    u = -x[..., :2] - 0.5 * x[..., 2:] + 0.1 * rng.standard_normal((n_paths, N_TIMES, 2))
    # rows in time order, path by path within a time sample
    x, u = x.transpose(1, 0, 2).reshape(-1, 3), u.transpose(1, 0, 2).reshape(-1, 2)
    t_rows = np.repeat(t, n_paths)
    time_scale = float(np.linalg.norm(x.max(axis=0) - x.min(axis=0))) / HORIZON
    z = np.column_stack([time_scale * t_rows, x])
    hp = {**KernelLaw.HYPERPARAMS, "bandwidth_scale": BANDWIDTH_SCALE}
    return KernelLaw.fit(time_scale, z, u, hp, seed)


def query_calls(law: KernelLaw, n_calls: int, seed: int = 1) -> list:
    """``n_calls`` (t, states) pairs: 32 states at one time near the law's own."""
    rng = np.random.default_rng(seed)
    t_rows = law._z[:, 0] / law.time_scale
    calls = []
    for t in rng.uniform(0.0, HORIZON, size=n_calls):
        near = np.flatnonzero(np.abs(t_rows - t) == np.abs(t_rows - t).min())
        pick = rng.choice(near, size=QUERY_ROWS)
        x = law._z[pick, 1:] + 0.5 * law.bandwidth[1:] * rng.standard_normal((QUERY_ROWS, 3))
        calls.append((float(t), x))
    return calls


def window_stats(law: KernelLaw, calls: list) -> tuple[float, int, int]:
    """Kept share of the dense entries, floored tiles and tiles over ``calls``."""
    kept, tiles, floored = [0, 0], [0], [0]
    tile_args, exp = law._tile_args, regression.floored_exp

    def spy_args(q, work):
        a, b = tile_args(q, work)
        kept[0] += len(q) * (b - a)
        kept[1] += len(q) * law.n_train
        tiles[0] += 1
        return a, b

    def spy_exp(w):
        floored[0] += bool(w.size and w.min() < EXP_FLOOR)
        return exp(w)

    law._tile_args, regression.floored_exp = spy_args, spy_exp
    try:
        for t, x in calls:
            law.predict(t, x)
    finally:
        del law._tile_args
        regression.floored_exp = exp
    return kept[0] / kept[1], floored[0], tiles[0]


def time_predict(law: KernelLaw, calls: list, repeats: int) -> float:
    """Median over ``repeats`` passes of µs per query row."""
    rows = sum(len(x) for _, x in calls)
    passes = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for t, x in calls:
            law.predict(t, x)
        passes.append((time.perf_counter() - t0) / rows * 1.0e6)
    return float(np.median(passes))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, nargs="+", default=[6400, 20000, 40000],
                        help="training sizes (default: 6400 20000 40000)")
    parser.add_argument("--calls", type=int, default=50, help="32-row calls per pass")
    parser.add_argument("--repeats", type=int, default=5, help="timed passes per size")
    args = parser.parse_args(argv)
    if min(args.rows) < N_TIMES or args.calls < 1 or args.repeats < 1:
        parser.error(f"--rows must be >= {N_TIMES}, --calls and --repeats >= 1")
    threads = os.environ.get("OPENBLAS_NUM_THREADS", "unset")
    print(f"python {platform.python_version()} numpy {np.__version__} "
          f"nproc {os.cpu_count()} OPENBLAS_NUM_THREADS={threads}")
    print(f"{'rows':>7} {'us/row':>9} {'kept':>7} {'floored tiles':>14}")
    results = []
    for n_rows in args.rows:
        law = synthetic_law(n_rows)
        calls = query_calls(law, args.calls)
        law.predict(*calls[0])  # warm-up
        us = time_predict(law, calls, args.repeats)
        kept, floored, tiles = window_stats(law, calls)
        print(f"{law.n_train:>7} {us:>9.2f} {kept:>7.1%} {floored:>7}/{tiles:<6}")
        results.append({"n_train": law.n_train, "us_per_row": round(us, 3),
                        "kept_share": round(kept, 4), "floored_tiles": floored,
                        "tiles": tiles})
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
