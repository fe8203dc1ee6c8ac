"""One benchmark sample: a fresh interpreter runs one experiment, like the CLI.

Usage: python3 sample.py CONFIG_JSON OUTPUT_ROOT RESULT_JSON TRACE(0|1)

``CONFIG_JSON`` holds the generated config document.  The run directory
goes under ``OUTPUT_ROOT``.  The sample writes one JSON document to
``RESULT_JSON``: set-up and run seconds, peak RSS, the report metrics, the
manifest state, the run directory's file count and bytes, and with
TRACE=1 the span trace and the per-layer metrics derived from it.
"""

import json
import resource
import sys
import time
from pathlib import Path

t_start = time.perf_counter()


def _dir_usage(path):
    files = [p for p in Path(path).rglob("*") if p.is_file()]
    return len(files), sum(p.stat().st_size for p in files)


def main(argv):
    config_path, output_root, result_path, trace = argv[1], argv[2], argv[3], argv[4] == "1"
    import ctrlflow
    from ctrlflow.config import validate_config
    from ctrlflow.errors import StageError
    from ctrlflow.experiments import run_experiment

    with open(config_path) as fh:
        doc = json.load(fh)
    t_validate = time.perf_counter()
    cfg = validate_config(doc)
    t_ready = time.perf_counter()

    out = {
        "ctrlflow_file": ctrlflow.__file__,
        "setup_s": t_ready - t_start,
        "config_validate_s": t_ready - t_validate,
        "error": None,
    }

    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer(run_id=f"{cfg.name}-{cfg.master_seed}")
        tracer.install()
    t0 = time.perf_counter()
    try:
        report = run_experiment(cfg, output_root=output_root)
    except StageError as exc:
        report = None
        out["error"] = f"{type(exc).__name__}: {exc}"
    out["run_s"] = time.perf_counter() - t0
    if tracer is not None:
        tracer.uninstall()

    # each sample has its own output root, so the run directory is its only child
    out["metrics"] = report.metrics if report else {}
    manifest = {}
    run_dirs = [p for p in Path(output_root).iterdir() if p.is_dir()]
    if run_dirs:
        manifest_path = run_dirs[0] / "manifest.json"
        if manifest_path.is_file():
            manifest = json.loads(manifest_path.read_text())
        out["persist_files"], out["persist_bytes"] = _dir_usage(run_dirs[0])
    out["manifest_partial"] = bool(manifest.get("partial", True))
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is not None:
        from tracing import layer_metrics

        layers = layer_metrics(
            tracer.spans, tracer.counters, tracer.predict_calls_ms, out["run_s"]
        )
        layers["config.validate.s"] = out["config_validate_s"]
        layers["persist.files"] = float(out.get("persist_files", 0))
        layers["persist.bytes"] = float(out.get("persist_bytes", 0))
        out["layers"] = layers
        out["trace"] = {
            "run_id": tracer.run_id,
            "spans": [
                {"name": n, "start": s - t0, "end": e - t0, "parent": p, "run_id": r}
                for n, s, e, p, r in tracer.spans
            ],
            "counters": dict(tracer.counters),
            "missing": tracer.missing,
        }

    with open(result_path, "w") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main(sys.argv)
