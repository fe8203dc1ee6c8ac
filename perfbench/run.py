"""Pipeline benchmark for ctrlflow: one workload, one seed, one run.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each sample is a fresh interpreter (``sample.py``) that imports ctrlflow
from ``./src``, validates the workload's generated config and calls
``run_experiment`` once, single-threaded, with its run directory under
``./.perfbench``; the directory is measured and deleted after the sample.
Samples repeat until ``--seconds`` is used up (at least three).

``--trace 0`` prints the end-to-end metrics (medians over samples).
``--trace 1`` alternates untraced and traced samples and prints the
per-layer metrics of the traced ones, with the tracing overhead; the spans
are written to ``.perfbench/trace-<workload>-seed<N>.json``.

Every sample is checked: finite report metrics, a complete manifest, the
workload's accuracy gate, and a metrics dict bit-identical to the first
sample's.  Operations are evaluation rollouts; a rollout fails if it was
excluded as blown up or its sample failed a check.  The last stdout line is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracing import median_metrics  # noqa: E402
from workloads import WORKLOADS, make_config  # noqa: E402

END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "regression.predict.calls": "count",
    "regression.predict.rows": "count",
    "regression.predict.s": "s",
    "regression.predict.us_per_row": "us",
    "regression.predict.extrap_frac": "ratio",
    "regression.predict.call_ms.p50": "ms",
    "regression.predict.call_ms.ptail": "ms",
    "regression.predict.call_ms.ptail_pct": "%",
    "regression.fit.s": "s",
    "regression.law.n_train": "count",
    "flow.integrate.s": "s",
    "flow.integrate.self_s": "s",
    "flow.steps": "count",
    "flow.excluded_frac": "ratio",
    "systems.rhs.calls": "count",
    "systems.rhs.s": "s",
    "noising.generate.s": "s",
    "noising.excluded_frac": "ratio",
    "interpolants.steer.s": "s",
    "measures.sample.s": "s",
    "measures.w2_exact.calls": "count",
    "measures.w2_exact.s": "s",
    "measures.w2_exact.max_n": "count",
    "measures.w2_sliced.calls": "count",
    "measures.w2_sliced.s": "s",
    "persist.s": "s",
    "persist.files": "count",
    "persist.bytes": "bytes",
    "config.validate.s": "s",
    "experiments.other_s": "s",
    "stage.sample.s": "s",
    "stage.construct.s": "s",
    "stage.fit.s": "s",
    "stage.integrate.s": "s",
    "stage.evaluate.s": "s",
    "trace.run_s": "s",
    "trace.overhead_s": "s",
}

MIN_SAMPLES = 3
DEADLINE_S = 165.0  # the whole run must end well inside 180 s
# single-threaded BLAS: the plain baseline, and steadier on a shared machine
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def log(msg: str) -> None:
    print(msg, flush=True)


def environment_line() -> str:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    threads = " ".join(f"{k}={v}" for k, v in THREAD_ENV.items())
    return (
        f"env: nproc={os.cpu_count()} python={platform.python_version()} "
        f"numpy={numpy.__version__} scipy={scipy.__version__} blas={blas} {threads}"
    )


class Runner:
    """Runs samples of one workload config and checks each one."""

    def __init__(self, root: Path, workload, config: dict, work: Path, gate: bool = True):
        self.root = root
        self.workload = workload
        self.gate = gate
        self.work = work
        self.config_path = work / "config.json"
        self.config_path.write_text(json.dumps(config))
        self.n_eval = int(config["n_eval"])
        self.env = dict(os.environ, **THREAD_ENV, PYTHONHASHSEED="0")
        src = str(root / "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
        self.samples: list[dict] = []
        self.misses: list[str] = []
        self.attempted = 0
        self.failed = 0
        self._reference_metrics: str | None = None
        self.count = 0

    def run_sample(self, trace: bool, timeout: float) -> None:
        i = self.count
        self.count += 1
        out_root = self.work / f"s{i}"
        out_root.mkdir()
        result_path = self.work / f"s{i}.json"
        cmd = [sys.executable, str(HERE / "sample.py"), str(self.config_path),
               str(out_root), str(result_path), "1" if trace else "0"]
        self.attempted += self.n_eval
        try:
            proc = subprocess.run(
                cmd, cwd=self.root, env=self.env, timeout=timeout,
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            )
        except subprocess.TimeoutExpired:
            self._fail(i, [f"sample timed out after {timeout:.0f} s"])
            return
        finally:
            shutil.rmtree(out_root, ignore_errors=True)
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or [""]
            self._fail(i, [f"sample exited {proc.returncode}: {tail[0]}"])
            return
        res = json.loads(result_path.read_text())
        result_path.unlink()
        res["trace_on"] = trace
        misses = self.check(res)
        if misses:
            self._fail(i, misses)
        else:
            self.failed += int(res["metrics"].get("excluded_eval", 0))
        self.samples.append(res)
        acc = res["metrics"].get(self.workload.acc_metric, float("nan"))
        log(
            f"sample {i}{' traced' if trace else ''}: run_s={res['run_s']:.4f} "
            f"setup_s={res['setup_s']:.4f} peak_rss_mb={res['peak_rss_mb']:.1f} "
            f"acc.{self.workload.acc_metric}={acc:.6g}"
        )

    def _fail(self, i: int, whys: list[str]) -> None:
        """A failed sample fails all of its evaluation rollouts."""
        self.failed += self.n_eval
        self.misses += [f"sample {i}: {why}" for why in whys]

    def check(self, res: dict) -> list[str]:
        misses = []
        src = (self.root / "src").resolve()
        if not Path(res["ctrlflow_file"]).resolve().is_relative_to(src):
            misses.append(f"ctrlflow imported from {res['ctrlflow_file']}, not {src}")
        if res["error"]:
            misses.append(res["error"])
        if res["manifest_partial"]:
            misses.append("run manifest is partial or missing")
        metrics = res["metrics"]
        bad = [k for k, v in metrics.items() if not math.isfinite(v)]
        if bad:
            misses.append(f"non-finite report metrics {bad}")
        acc = metrics.get(self.workload.acc_metric)
        if acc is None or (self.gate and not self.workload.passes(acc)):
            op = ">=" if self.workload.higher_is_better else "<="
            misses.append(
                f"accuracy gate {self.workload.acc_metric} {op} {self.workload.gate} "
                f"missed: {acc}"
            )
        # repr round-trips floats exactly, so equal text means bit-identical values
        text = json.dumps(metrics, sort_keys=True)
        if self._reference_metrics is None:
            self._reference_metrics = text
        elif text != self._reference_metrics:
            misses.append("report metrics differ from the first sample at the same seed")
        return misses


def _median(samples: list[dict], key: str) -> float:
    return float(statistics.median(s[key] for s in samples))


def run_untraced(runner: Runner, seconds: float, started: float) -> dict:
    last_wall = 0.0
    while True:
        elapsed = time.perf_counter() - started
        if runner.count >= MIN_SAMPLES and elapsed + last_wall > seconds:
            break
        if elapsed + last_wall > DEADLINE_S:
            break
        t = time.perf_counter()
        runner.run_sample(False, DEADLINE_S - elapsed)
        last_wall = time.perf_counter() - t
    good = runner.samples
    if not good:
        return {}
    metrics = {key: _median(good, key) for key in END_TO_END}
    log(f"samples: {len(good)} ({runner.count} attempted)")
    return metrics


def run_traced(runner: Runner, seconds: float, started: float, trace_path: Path) -> dict:
    last_wall = 0.0
    pairs = 0
    while True:
        elapsed = time.perf_counter() - started
        if pairs >= 1 and elapsed + last_wall > seconds:
            break
        if elapsed + last_wall > DEADLINE_S:
            break
        t = time.perf_counter()
        runner.run_sample(False, DEADLINE_S - elapsed)
        runner.run_sample(True, DEADLINE_S - (time.perf_counter() - started))
        last_wall = time.perf_counter() - t
        pairs += 1
    traced = [s for s in runner.samples if s["trace_on"]]
    plain = [s for s in runner.samples if not s["trace_on"]]
    if not traced or not plain:
        return {}
    layers = median_metrics([s["layers"] for s in traced])
    layers["trace.run_s"] = _median(traced, "run_s")
    layers["trace.overhead_s"] = layers["trace.run_s"] - _median(plain, "run_s")
    missing = sorted({m for s in traced for m in s["trace"]["missing"]})
    if missing:
        log(f"trace: not found, not traced: {', '.join(missing)}")
    trace_path.write_text(json.dumps(
        {"workload": runner.workload.name, "layers": layers,
         "runs": [s["trace"] for s in traced]}
    ))
    log(f"trace: {len(traced)} traced / {len(plain)} untraced samples, spans in {trace_path}")
    return layers


def run(workload_name: str, seed: int, seconds: float, trace: bool, tiny: bool = False):
    """Run one benchmark run; return the result object (None if nothing ran)."""
    started = time.perf_counter()
    root = Path.cwd()
    if not (root / "src" / "ctrlflow" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no ctrlflow source at {root / 'src'}; run from a checkout")
    sys.path.insert(0, str(root / "src"))
    from ctrlflow.experiments import example_config

    workload = WORKLOADS[workload_name]
    config = make_config(workload, seed, example_config, tiny=tiny)
    log(f"perfbench: workload={workload.name} kind={workload.kind} seed={seed} "
        f"seconds={seconds} trace={int(trace)}{' tiny' if tiny else ''}")
    log(f"why: {workload.why}")
    log(f"overrides: {json.dumps(workload.overrides, sort_keys=True)}")
    if tiny:
        log(f"tiny overrides (accuracy gate not applied): {json.dumps(workload.tiny, sort_keys=True)}")
    log(environment_line())

    base = root / ".perfbench"
    base.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=base))
    try:
        # tiny configs only check the benchmark's plumbing; their laws are poor
        runner = Runner(root, workload, config, work, gate=not tiny)
        if trace:
            trace_path = base / f"trace-{workload.name}-seed{seed}.json"
            metrics = run_traced(runner, seconds, started, trace_path)
            units = PER_LAYER
        else:
            metrics = run_untraced(runner, seconds, started)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for miss in runner.misses:
        log(f"FAILED {miss}")
    if not metrics:
        return None
    accs = sorted({s["metrics"].get(workload.acc_metric) for s in runner.samples} - {None})
    op = ">=" if workload.higher_is_better else "<="
    log(f"acc.{workload.acc_metric} = {', '.join(f'{a!r}' for a in accs)} "
        f"(gate {op} {workload.gate})")
    log(f"operations (evaluation rollouts): attempted={runner.attempted} failed={runner.failed}")
    for name, unit in units.items():
        log(f"  {name} = {metrics[name]:.6g} {unit}")
    return {
        "correct": not runner.misses,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    if result is None:
        print("perfbench: no sample completed", file=sys.stderr)
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
