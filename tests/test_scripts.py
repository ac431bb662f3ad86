"""The experiment scripts run end to end with their smallest arguments and
write their JSON results."""

import contextlib
import importlib.util
import io
import json
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, args, out):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert module.main([*args, "--out", str(out)]) == 0
    return json.loads(out.read_text())


def test_experiment1_chase(tmp_path):
    doc = run_script("experiment1_chase", ["--seeds", "1"], tmp_path / "chase.json")
    assert doc["seeds"] == 1
    rows = doc["rows"]
    assert [(r["variant"], r["target_speed"]) for r in rows] == [
        (variant, speed)
        for variant in ("gud", "shef")
        for speed in (0.5, 1.0, 1.5, 2.0, 2.5, 3.0)
    ]
    for row in rows:
        assert row["avg_speed"] > 0.0 and row["avg_step_frequency"] > 0.0


def test_experiment2_elastic(tmp_path):
    doc = run_script("experiment2_elastic", [], tmp_path / "elastic.json")
    rows = doc["rows"]
    assert [r["rig"] for r in rows] == [
        "down:12", "down:8", "down:4", "none", "up:2", "up:6", "up:10"
    ]
    heights = [r["avg_step_height"] for r in rows]
    assert heights == sorted(heights)  # downward pull lowers steps, upward raises


def test_experiment3_gains(tmp_path):
    doc = run_script("experiment3_gains", [], tmp_path / "gains.json")
    assert set(doc) == {"slopes"}
    for slope, reference in (("uphill", 0.71), ("downhill", 1.43)):
        result = doc["slopes"][slope]
        assert len(result["landings"]) == 4
        assert result["reference"] == reference
        assert result["mean"] == pytest.approx(sum(result["landings"]) / 4)
