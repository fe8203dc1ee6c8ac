"""Spans and counters recorded around the public calls of one experiment run.

The tracer wraps, inside the benchmark's own sample process, the functions
``ctrlflow.experiments`` looks up as module attributes plus a few methods
(``FeedbackLaw.predict``/``save``, ``ControlAffineSystem.rhs``).  Each call
becomes a span ``(name, start, end, parent, run_id)`` kept in memory;
counters (rows, flags, rollouts) are taken from the call's arguments and
results.  :func:`layer_metrics` turns a finished trace into the per-layer
metrics.  Nothing in ``ctrlflow`` is edited.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict

import numpy as np

# span name -> attributes of ctrlflow.experiments recorded under it
EXPERIMENT_CALLS = {
    "measures.sample": ("sample_measure", "build_coupling"),
    "measures.w2_exact": ("wasserstein2",),
    "measures.w2_sliced": ("sliced_wasserstein2",),
    "interpolants.steer": (
        "brockett_steer_pair_batch",
        "feedback_steer_pair_batch",
        "min_energy_pair_batch",
        "min_energy_pair",
        "place_poles",
        "gramian",
    ),
    "noising.generate": ("generate_noising_dataset",),
    "regression.dataset": ("dataset_from_pairs",),
    "regression.fit": ("fit_feedback",),
    "flow.integrate": ("integrate_closed_loop_batch",),
    "flow.snapshots": ("marginal_snapshots", "snapshots_from_arrays"),
    "persist": ("save_pair_bundle", "save_dataset"),
}

# pipeline stage a top-level span belongs to; spans not listed (sampling)
# belong to the stage they feed, see stage_of_top_level
STAGE_OF = {
    "interpolants.steer": "construct",
    "noising.generate": "construct",
    "regression.dataset": "fit",
    "regression.fit": "fit",
    "flow.integrate": "integrate",
    "flow.snapshots": "evaluate",
    "measures.w2_exact": "evaluate",
    "measures.w2_sliced": "evaluate",
    "persist": "evaluate",
}
STAGES = ("sample", "construct", "fit", "integrate", "evaluate")

# fixed ladder for the predict tail; the highest one with >= 10 calls beyond it is used
TAIL_PERCENTILES = (50.0, 90.0, 95.0, 99.0, 99.9)


class Tracer:
    """In-memory span and counter recorder; install() patches, uninstall() restores."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent_index, run_id]
        self.counters: dict = defaultdict(float)
        self.predict_calls_ms: list[float] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        fn = getattr(owner, attr, None)
        if fn is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        tracer = self

        def traced(*args, **kwargs):
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else None
            span = [name, time.perf_counter(), None, parent, tracer.run_id]
            tracer.spans.append(span)
            tracer._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            if count is not None:
                count(tracer, span, args, kwargs, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, fn))

    def install(self) -> None:
        from ctrlflow import experiments
        from ctrlflow.regression import FeedbackLaw
        from ctrlflow.systems import ControlAffineSystem

        counts = {
            "measures.w2_exact": _count_w2_exact,
            "regression.fit": _count_fit,
            "flow.integrate": _count_integrate,
            "noising.generate": _count_noising,
        }
        for name, attrs in EXPERIMENT_CALLS.items():
            for attr in attrs:
                self.wrap(experiments, attr, name, counts.get(name))
        self.wrap(FeedbackLaw, "predict", "regression.predict", _count_predict)
        self.wrap(FeedbackLaw, "save", "persist")
        self.wrap(ControlAffineSystem, "rhs", "systems.rhs")

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()


def _arg(args, kwargs, pos: int, key: str):
    return kwargs[key] if key in kwargs else args[pos]


def _count_predict(tracer, span, args, kwargs, result):
    rows = np.atleast_2d(np.asarray(_arg(args, kwargs, 2, "x"))).shape[0]
    tracer.counters["predict.rows"] += rows
    tracer.predict_calls_ms.append(1e3 * (span[2] - span[1]))
    flagged = kwargs.get("return_flag", args[3] if len(args) > 3 else False)
    if flagged:
        tracer.counters["predict.flag_rows"] += rows
        tracer.counters["predict.flagged"] += int(np.count_nonzero(result[1]))


def _count_w2_exact(tracer, span, args, kwargs, result):
    n = max(args[0].n, args[1].n)
    tracer.counters["w2_exact.max_n"] = max(tracer.counters["w2_exact.max_n"], n)


def _count_fit(tracer, span, args, kwargs, result):
    tracer.counters["law.n_train"] = result.n_train


def _count_integrate(tracer, span, args, kwargs, result):
    n_rollouts = np.atleast_2d(_arg(args, kwargs, 2, "z0s")).shape[0]
    n_grid = int(_arg(args, kwargs, 4, "n_grid"))
    tracer.counters["flow.rollouts"] += n_rollouts
    tracer.counters["flow.steps"] += n_rollouts * n_grid
    tracer.counters["flow.excluded"] += result[3].excluded_count


def _count_noising(tracer, span, args, kwargs, result):
    tracer.counters["noising.samples"] += _arg(args, kwargs, 1, "config").n_samples
    tracer.counters["noising.excluded"] += result[1].excluded_count


def _frac(num: float, den: float) -> float:
    return float(num) / den if den else 0.0


def stage_of_top_level(names: list[str]) -> list[str]:
    """Stage of each top-level span, given in call order.

    Spans with a fixed stage keep it.  A sampling span before any staged
    span is the ``sample`` stage; later ones feed the next staged span
    (evaluation starts feed ``integrate``), or the last one at the end.
    """
    fixed = [STAGE_OF.get(n) for n in names]
    out = []
    seen_stage = False
    for i, stage in enumerate(fixed):
        if stage is not None:
            seen_stage = True
            out.append(stage)
            continue
        if not seen_stage:
            out.append("sample")
            continue
        following = next((s for s in fixed[i + 1:] if s is not None), None)
        out.append(following or out[-1])
    return out


def tail_percentile(n_calls: int) -> float:
    """Highest ladder percentile with at least ten calls beyond it (p50 floor)."""
    best = TAIL_PERCENTILES[0]
    for p in TAIL_PERCENTILES:
        if n_calls * (1.0 - p / 100.0) >= 10.0:
            best = p
    return best


def _percentile(values: list[float], p: float) -> float:
    return float(np.percentile(values, p)) if values else 0.0


def layer_metrics(spans: list, counters: dict, predict_calls_ms: list, run_s: float) -> dict:
    """Per-layer values (plain floats) from one traced run."""
    total = defaultdict(float)
    calls = defaultdict(int)
    child_s = defaultdict(float)
    for name, start, end, parent, _ in spans:
        total[name] += end - start
        calls[name] += 1
        if parent is not None:
            child_s[parent] += end - start

    integrate_self = sum(
        (end - start) - child_s[i]
        for i, (name, start, end, _, _) in enumerate(spans)
        if name == "flow.integrate"
    )
    top = [(s[0], s[2] - s[1]) for s in spans if s[3] is None]
    stage_s = dict.fromkeys(STAGES, 0.0)
    for (name, dur), stage in zip(top, stage_of_top_level([n for n, _ in top])):
        stage_s[stage] += dur

    rows = counters.get("predict.rows", 0.0)
    tail = tail_percentile(len(predict_calls_ms))
    out = {
        "regression.predict.calls": calls["regression.predict"],
        "regression.predict.rows": rows,
        "regression.predict.s": total["regression.predict"],
        "regression.predict.us_per_row": 1e6 * _frac(total["regression.predict"], rows),
        "regression.predict.extrap_frac": _frac(
            counters.get("predict.flagged", 0.0), counters.get("predict.flag_rows", 0.0)
        ),
        "regression.predict.call_ms.p50": _percentile(predict_calls_ms, 50.0),
        "regression.predict.call_ms.ptail": _percentile(predict_calls_ms, tail),
        "regression.predict.call_ms.ptail_pct": tail,
        "regression.fit.s": total["regression.fit"],
        "regression.law.n_train": counters.get("law.n_train", 0.0),
        "flow.integrate.s": total["flow.integrate"],
        "flow.integrate.self_s": integrate_self,
        "flow.steps": counters.get("flow.steps", 0.0),
        "flow.excluded_frac": _frac(
            counters.get("flow.excluded", 0.0), counters.get("flow.rollouts", 0.0)
        ),
        "systems.rhs.calls": calls["systems.rhs"],
        "systems.rhs.s": total["systems.rhs"],
        "noising.generate.s": total["noising.generate"],
        "noising.excluded_frac": _frac(
            counters.get("noising.excluded", 0.0), counters.get("noising.samples", 0.0)
        ),
        "interpolants.steer.s": total["interpolants.steer"],
        "measures.sample.s": total["measures.sample"],
        "measures.w2_exact.calls": calls["measures.w2_exact"],
        "measures.w2_exact.s": total["measures.w2_exact"],
        "measures.w2_exact.max_n": counters.get("w2_exact.max_n", 0.0),
        "measures.w2_sliced.calls": calls["measures.w2_sliced"],
        "measures.w2_sliced.s": total["measures.w2_sliced"],
        "persist.s": total["persist"],
        "experiments.other_s": run_s - sum(d for _, d in top),
    }
    for stage in STAGES:
        out[f"stage.{stage}.s"] = stage_s[stage]
    return {k: float(v) for k, v in out.items()}


def median_metrics(samples: list[dict]) -> dict:
    """Per-key median across traced samples (counts repeat exactly)."""
    return {k: float(statistics.median(s[k] for s in samples)) for k in samples[0]}
