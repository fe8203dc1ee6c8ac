"""The benchmark's own tiny-scale smoke check runs clean against this checkout.

``perfbench`` wraps the functions ``ctrlflow.experiments`` calls by name and
reads some of their results by position (the rollout info, the noising
report), so a refactor that changes such a return shape breaks its counters
without failing any other test.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_smoke_check_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/smoke.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "smoke: ok" in proc.stdout.splitlines()
