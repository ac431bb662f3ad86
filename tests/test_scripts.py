"""The scripts run end to end with their smallest arguments: the
experiments write their JSON results, and the gate profile prints its
table."""

import contextlib
import importlib.util
import io
import json
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_script(name, args, out):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert load_script(name).main([*args, "--out", str(out)]) == 0
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


# The same with --seeds 2: each value is harness._mean over the two runs.
EXPERIMENT1_TWO_SEEDS = [
    ("gud", 0.5, 0.10283134105725246, 1.1096423485905114, 0.004775580853754777, 0.4995014048885944, 0.009326378216687331),
    ("gud", 1.0, 0.10242350260281961, 1.5700982305399545, 0.007825741980682213, 0.9999241464139449, 0.019465204447107483),
    ("gud", 1.5, 0.10231412023083042, 1.922514501087582, 0.00874681863400642, 1.4996900639589414, 0.025001573915768793),
    ("gud", 2.0, 0.10283122409799295, 2.2001382812994885, 0.3568946156234074, 1.9645321374500917, 0.03222142139854807),
    ("gud", 2.5, 0.10706074876776173, 2.2029772476735445, 5.349634914099597, 1.9653981581481026, 0.05391391415523088),
    ("gud", 3.0, 0.10826568112306831, 2.2020905237575628, 10.335595795080737, 1.9651759566611524, 0.05783251073959984),
    ("shef", 0.5, 0.08538777929749444, 1.2001755601407647, 0.037179411708150326, 0.5018558736231211, 0.01375988440890611),
    ("shef", 1.0, 0.10222228919909973, 1.551108978612516, 0.050496716941953845, 1.0024510896349426, 0.02213062616472151),
    ("shef", 1.5, 0.10237723177951459, 1.8983631999440775, 0.07703426677838107, 1.5044041591948258, 0.03221532504299031),
    ("shef", 2.0, 0.10210409931846096, 2.1955473624503687, 0.08252772730265909, 2.0043786575557476, 0.03743790513621955),
    ("shef", 2.5, 0.12724301857493212, 2.200500364638197, 0.0795559053426901, 2.505151676424705, 0.03891701459441904),
    ("shef", 3.0, 0.15267577388942472, 2.200378818572238, 0.07910948339245044, 3.0044078108795986, 0.039541953553131046),
]


def experiment1_rows(tmp_path, seeds):
    doc = run_script("experiment1_chase", ["--seeds", str(seeds)], tmp_path / "chase.json")
    assert doc["seeds"] == seeds
    keys = ("avg_step_height", "avg_step_frequency", "avg_target_distance", "avg_speed", "speed_sd")
    assert [list(r) for r in doc["rows"]] == [["variant", "target_speed", *keys]] * 12
    return [(r["variant"], r["target_speed"], *(r[k] for k in keys)) for r in doc["rows"]]


def test_experiment1_chase(tmp_path):
    assert experiment1_rows(tmp_path, 1) == EXPERIMENT1_ONE_SEED


def test_experiment1_chase_averages_seeds_with_the_report_mean(tmp_path):
    assert experiment1_rows(tmp_path, 2) == EXPERIMENT1_TWO_SEEDS


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


@pytest.mark.parametrize("name, args, message", [
    ("experiment1_chase", ["--seeds", "0"], "--seeds must be at least 1, got 0"),
    ("experiment1_chase", ["--seeds", "-2"], "--seeds must be at least 1, got -2"),
    ("experiment1_chase", ["--noise", "0.5"], "noise_sd must be in [0, 0.01] m, got 0.5"),
    ("experiment1_chase", ["--noise", "nan"], "noise_sd must be finite, got nan"),
    ("experiment1_chase", ["--user-height", "9"], "user_height 9.0 outside [1.0, 2.5] m"),
    ("experiment2_elastic", ["--noise", "0.5"], "noise_sd must be in [0, 0.01] m, got 0.5"),
    ("experiment2_elastic", ["--target", "-1"], "target_speed must be in [0, 100] m/s"),
    ("experiment2_elastic", ["--seed", "-1"], "seed must be an integer >= 0, got -1"),
    ("experiment3_gains", ["--out", "no-such-dir/gains.json"], "No such file or directory"),
    ("gate_profile", ["--rounds", "0"], "--rounds must be at least 1, got 0"),
])
def test_bad_flags_are_usage_errors(name, args, message, tmp_path, monkeypatch):
    """A bad flag exits 2 with one error line, before any run, and writes
    no results."""
    monkeypatch.chdir(tmp_path)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as exit_:
            load_script(name).main(args)
    assert exit_.value.code == 2
    assert out.getvalue() == ""
    assert message in err.getvalue().splitlines()[-1]
    assert list(tmp_path.iterdir()) == []


def test_every_mutant_edit_applies_to_the_sources():
    """Each of scripts/mutants.py's edits occurs exactly once in its module
    (mutated_source raises otherwise); running the mutants is left to CI."""
    mutants = load_script("mutants")
    for m in mutants.MUTANTS:
        mutants.mutated_source(m)
    assert len(mutants.MUTANTS) >= 15


def test_gate_profile_prints_each_check_and_the_stability_layers():
    """scripts/gate_profile.py --rounds 1: the machine line, a time per
    acceptance check, and one per lane layer, none absent; exit 0."""
    script, out = load_script("gate_profile"), io.StringIO()
    with contextlib.redirect_stdout(out):
        assert script.main(["--rounds", "1"]) == 0
    lines = out.getvalue().splitlines()
    assert lines[0].startswith("# python ") and " numpy " in lines[0] and " nproc " in lines[0]
    names = [name for name, _ in script.acceptance.CHECKS]
    assert [line.split()[0] for line in lines[1:1 + len(names)]] == names
    layers = [line.split()[0] for line in lines if line.startswith("  ")]
    assert layers == [f"{m}.{a}" for m, a in script.LAYERS]
    assert not any(line.endswith("absent") for line in lines)
