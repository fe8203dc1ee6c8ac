"""Smoke test of tools/predict_layer.py, the predict-layer timing tool."""

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "predict_layer.py"


def test_predict_layer_tool_reports_each_size(capsys):
    spec = importlib.util.spec_from_file_location("predict_layer", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert tool.main(["--rows", "400", "1000", "--calls", "3", "--repeats", "1"]) == 0
    results = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert [r["n_train"] for r in results] == [400, 1000]
    for r in results:
        assert r["us_per_row"] > 0.0 and 0.0 < r["kept_share"] <= 1.0
        assert 0 <= r["floored_tiles"] <= r["tiles"] and r["tiles"] >= 3
