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


# experiment1_chase.py --seeds 1, one row per (variant, target speed):
# avg_step_height, avg_step_frequency, avg_target_distance, avg_speed,
# speed_sd, exactly as the per-run loop wrote them.
EXPERIMENT1_ONE_SEED = [
    ("gud", 0.5, 0.10275799251751354, 1.1093211995868626, 0.006028573548802794, 0.4993559516894359, 0.009600098925800389),
    ("gud", 1.0, 0.10243087586881722, 1.5700641141134548, 0.0070944345459974046, 0.9991385789097045, 0.019053250534100296),
    ("gud", 1.5, 0.10196949288729668, 1.9231004825361904, 0.010604708263890388, 1.4996957691585022, 0.026612938172164854),
    ("gud", 2.0, 0.10306900536840596, 2.200839291168276, 0.351870903074865, 1.9648234435639877, 0.03335748173925725),
    ("gud", 2.5, 0.10735461447225557, 2.2042584022594722, 5.334578302011536, 1.9664260331809407, 0.05529714784680166),
    ("gud", 3.0, 0.10840976784554712, 2.202302200458925, 10.3247113946347, 1.9657803901246365, 0.06099056823257257),
    ("shef", 0.5, 0.08541533272859596, 1.200221965003633, 0.03762105057904732, 0.501771018835813, 0.014866648868460751),
    ("shef", 1.0, 0.10228660633846684, 1.5510935433264634, 0.05209283816994391, 1.00300179695436, 0.021842612005784252),
    ("shef", 1.5, 0.10229240734495994, 1.9000273872581261, 0.07612770948766132, 1.5054923656471535, 0.03291827734705082),
    ("shef", 2.0, 0.10212331708632813, 2.1966412770439994, 0.07787127057391532, 2.0042840373710304, 0.03349026087295988),
    ("shef", 2.5, 0.12734898151303803, 2.200530751154687, 0.08100385955629917, 2.5072365472822478, 0.037675833911041345),
    ("shef", 3.0, 0.15277328554528455, 2.201624665748318, 0.07773532476606239, 3.0057587676299784, 0.0382813296547918),
]


def test_experiment1_chase(tmp_path):
    doc = run_script("experiment1_chase", ["--seeds", "1"], tmp_path / "chase.json")
    assert doc["seeds"] == 1
    keys = ("avg_step_height", "avg_step_frequency", "avg_target_distance", "avg_speed", "speed_sd")
    assert [list(r) for r in doc["rows"]] == [["variant", "target_speed", *keys]] * 12
    got = [(r["variant"], r["target_speed"], *(r[k] for k in keys)) for r in doc["rows"]]
    assert got == EXPERIMENT1_ONE_SEED


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
