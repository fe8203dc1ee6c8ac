"""Command-line entry point.

Subcommands: ``run <config.json>``, ``plot <run-dir>``, ``verify <suite>``,
``describe-systems``, ``example-config <kind>``.  Exit codes: 0 success,
1 a ``verify`` check failed, 2 configuration/usage error, 3 stage failure.
The output root may be set with --output-root or the CTRLFLOW_OUTPUT_ROOT
environment variable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .config import KINDS, load_config
from .errors import CtrlFlowError, StageError
from .experiments import emit_plot_data, example_config, run_experiment, verify
from .systems import builtin_names, builtin_system

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_STAGE = 3
ENV_OUTPUT_ROOT = "CTRLFLOW_OUTPUT_ROOT"


def _output_root(args) -> str | None:
    if getattr(args, "output_root", None):
        return args.output_root
    return os.environ.get(ENV_OUTPUT_ROOT) or None


def _cmd_run(args) -> int:
    overrides = {
        "master_seed": args.master_seed,
        "n_train": args.n_train,
        "n_eval": args.n_eval,
        "name": args.name,
        "output_dir": args.output_dir,
    }
    cfg = load_config(args.config, overrides)
    report = run_experiment(cfg, output_root=_output_root(args))
    print(f"run complete: kind={report.kind} name={report.name}")
    print(f"output dir: {report.output_dir}")
    print(f"config hash: {report.config_hash}")
    print(f"wall clock: {report.wall_clock_s:.2f} s")
    for key in sorted(report.metrics):
        print(f"  {key} = {report.metrics[key]:.6g}")
    for note in report.notes:
        print(f"  note: {note}")
    return EXIT_OK


def _cmd_plot(args) -> int:
    files = emit_plot_data(args.run_dir)
    for name in files:
        print(name)
    return EXIT_OK


def _cmd_verify(args) -> int:
    results = verify(args.suite, output_root=_output_root(args))
    width = max(len(r["check"]) for r in results)
    n_pass = 0
    for r in results:
        status = "PASS" if r["passed"] else "FAIL"
        n_pass += r["passed"]
        print(
            f"{r['check']:<{width}}  {status}  value={r['value']:.3e} "
            f"{r['comparison']} tol={r['tolerance']:.3e}"
        )
    print(f"{n_pass}/{len(results)} checks passed")
    return EXIT_OK if n_pass == len(results) else EXIT_CHECK_FAILED


def _cmd_describe(args) -> int:
    for name in builtin_names():
        if name == "linear":
            print("linear: d, m from user matrices A (d x d), B (d x m); drift Ax")
            continue
        sys_obj = builtin_system(name)
        kind = "driftless" if sys_obj.driftless else "with drift"
        extra = ""
        if sys_obj.output_map is not None:
            extra = f", output dim {sys_obj.output_dim}"
        print(f"{name}: d={sys_obj.d}, m={sys_obj.m}, {kind}{extra}")
    return EXIT_OK


def _cmd_example(args) -> int:
    print(json.dumps(example_config(args.kind), indent=2, sort_keys=True))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctrlflow",
        description="Measure transport and set stabilization for control-affine systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment from a JSON config")
    p_run.add_argument("config", help="path to the config JSON file")
    p_run.add_argument("--output-root", help="directory to place the run directory in")
    p_run.add_argument("--master-seed", type=int, default=None)
    p_run.add_argument("--n-train", type=int, default=None)
    p_run.add_argument("--n-eval", type=int, default=None)
    p_run.add_argument("--name", default=None)
    p_run.add_argument("--output-dir", default=None)
    p_run.set_defaults(func=_cmd_run)

    p_plot = sub.add_parser("plot", help="emit gnuplot-ready files for a finished run")
    p_plot.add_argument("run_dir", help="run directory containing manifest.json")
    p_plot.set_defaults(func=_cmd_plot)

    p_verify = sub.add_parser("verify", help="run a verification suite (fast | full)")
    p_verify.add_argument("suite", help="fast or full")
    p_verify.add_argument("--output-root", help="where the full-suite JSON is written")
    p_verify.set_defaults(func=_cmd_verify)

    p_desc = sub.add_parser("describe-systems", help="list builtin systems")
    p_desc.set_defaults(func=_cmd_describe)

    p_ex = sub.add_parser("example-config", help="print a runnable example config")
    p_ex.add_argument("kind", choices=KINDS)
    p_ex.set_defaults(func=_cmd_example)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STAGE
    except CtrlFlowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
