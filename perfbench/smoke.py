"""Smoke check of the benchmark's own code at tiny scale.

Usage (from the root of a source checkout): python3 perfbench/smoke.py

Runs every workload of BENCHMARK.json with tiny config overrides, untraced
and traced, and asserts that each run passes its checks and emits exactly
the end-to-end or per-layer metrics BENCHMARK.json names, each with its
unit and a finite value.  Accuracy gates are skipped at this scale.
"""

import json
import math
import sys
from pathlib import Path

import run


def check(result, expected: dict, label: str) -> list[str]:
    if result is None:
        return [f"{label}: no result"]
    errors = []
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        errors.append(f"{label}: correct={result['correct']} attempted={result['attempted']} "
                      f"failed={result['failed']}")
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        errors.append(f"{label}: metric names differ: missing {sorted(set(expected) - set(metrics))}, "
                      f"extra {sorted(set(metrics) - set(expected))}")
    for name, unit in expected.items():
        got = metrics.get(name, {})
        if got.get("unit") != unit:
            errors.append(f"{label}: {name} unit {got.get('unit')!r}, expected {unit!r}")
        if not isinstance(got.get("value"), (int, float)) or not math.isfinite(got["value"]):
            errors.append(f"{label}: {name} value {got.get('value')!r} is not a finite number")
    return errors


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    errors = []
    names = [w["name"] for w in spec["workloads"]]
    if sorted(names) != sorted(run.WORKLOADS):
        errors.append(f"BENCHMARK.json workloads {names} != {sorted(run.WORKLOADS)}")
    for name in names:
        for trace, expected in ((False, end_to_end), (True, per_layer)):
            result = run.run(name, seed=1, seconds=0, trace=trace, tiny=True)
            errors += check(result, expected, f"{name} trace={int(trace)}")
    for e in errors:
        print(f"SMOKE FAIL {e}")
    print("smoke: ok" if not errors else f"smoke: {len(errors)} failure(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
