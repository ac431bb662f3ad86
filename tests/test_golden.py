"""Golden fixed-seed chase reports and frame-loop outputs.

The values below were recorded from short closed-loop runs and are compared
by ``repr``, so any change to the bits of a simulated run fails here. A
performance change must leave them untouched; only a deliberate change of
simulated behaviour may re-record them, and says so in its description.
"""

import contextlib
import hashlib
import io
import json
from dataclasses import asdict, replace

import pytest

from wiplab import acceptance, cli, harness, synth
from wiplab.acceptance import _steady_mean_speeds
from wiplab.core import Variant, WipParams
from wiplab.harness import ChaseScenario, compute_metrics, replay_trace, run_chase
from wiplab.synth import GaitProgram, WalkerAgent, synth_trace
from wiplab.traceio import parse_rig_spec

from frame_rows import rows_of

SHORT = dict(prep_duration=2.0, countdown=1.0, chase_duration=6.0)

# name: (variant, target m/s, noise_sd m, seed, rig, report fields by repr,
#        step events, frames)
GOLDEN = {
    "gud-clean": (
        "gud", 1.2, 0.0, 0, "none",
        {
            "avg_step_height": "0.09998894981150834",
            "avg_step_frequency": "1.7198838896952107",
            "avg_target_distance": "0.0026942105567390293",
            "avg_speed": "1.1996555957971309",
            "speed_sd": "0.01280376292689208",
        },
        21, 1185,
    ),
    "shef-clean": (
        "shef", 1.6, 0.0, 0, "none",
        {
            "avg_step_height": "0.09998516441280303",
            "avg_step_frequency": "1.9881422924901186",
            "avg_target_distance": "0.005515391687876721",
            "avg_speed": "1.5996671297650868",
            "speed_sd": "0.017717603597682863",
        },
        23, 1091,
    ),
    "gud-noisy-past-cap": (
        "gud", 2.9, 0.0035, 11, "none",
        {
            "avg_step_height": "0.10381947657150901",
            "avg_step_frequency": "5.502889921375171",
            "avg_target_distance": "1.3349969197814389",
            "avg_speed": "2.4537984093995786",
            "speed_sd": "1.1852419405027055",
        },
        23, 965,
    ),
    "shef-noisy": (
        "shef", 0.8, 0.004, 3, "none",
        {
            "avg_step_height": "0.1069503696402382",
            "avg_step_frequency": "1.355703595894505",
            "avg_target_distance": "0.10180460929821762",
            "avg_speed": "0.8213657359353822",
            "speed_sd": "0.03462739425868923",
        },
        20, 1372,
    ),
    "shef-noisy-down4": (
        "shef", 1.5, 0.003, 5, "down:4",
        {
            "avg_step_height": "0.08925794696373517",
            "avg_step_frequency": "2.0050430771544843",
            "avg_target_distance": "0.26470717205208943",
            "avg_speed": "1.443792196376654",
            "speed_sd": "0.06452718547969606",
        },
        23, 1110,
    ),
}
# name: sha256 of the run's frames (rows_digest over FRAME_FIELDS). Recorded
# while run_chase still built one row tuple per frame.
GOLDEN_CHASE_FRAMES = {
    "gud-clean": "70b258ab9b78668a63e94a9a8855b0bf7ef7e33be11477338c40e5e1e71e42b4",
    "gud-noisy-past-cap": "458d2082692922cc8b0e63af54b41a499846307d33399e684f89be1ce39b0a21",
    "shef-clean": "63e6cf560b1fa85dddb69b9de2655a3094d0d7d3cd8602e6f761645d363b7433",
    "shef-noisy": "1abf4f01806da76260bd83faad967151a92cb16905ca60d95af26785557089ad",
    "shef-noisy-down4": "638bef99fb5a7ca860d3bf8a408be83da8c0b20f7ca5e8f43e62f0d46d836cd7",
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_chase_report_matches_golden(name):
    variant, target, noise, seed, rig, fields, events, frames = GOLDEN[name]
    params = WipParams(variant=Variant(variant))
    agent = WalkerAgent(params, noise_sd=noise, seed=seed, rig=parse_rig_spec(rig))
    report, log = run_chase(ChaseScenario(target_speed=target, **SHORT), agent, params)
    assert {k: repr(v) for k, v in asdict(report).items()} == fields
    assert (len(log.events), len(log.rows)) == (events, frames)
    assert rows_digest(rows_of(log.rows), FRAME_FIELDS) == GOLDEN_CHASE_FRAMES[name]
    assert compute_metrics(log) == report


# ----------------------------------------------------------------------
# The other frame loops: the acceptance steady-state helper, scenario-less
# replay and the replay CLI's per-frame CSV. Recorded the same way, before the
# loops were merged into one frame step.

FRAME_FIELDS = (
    "time", "stage", "height_left", "height_right", "est_frequency",
    "est_step_height", "raw_speed", "output_speed", "position", "sphere", "error",
)


def rows_digest(rows, names):
    """sha256 over the repr of every named field of every row, in order."""
    h = hashlib.sha256()
    for row in rows:
        h.update(",".join(repr(getattr(row, n)) for n in names).encode())
        h.update(b"\n")
    return h.hexdigest()


def steady_mean_speeds(monkeypatch):
    """The helper's mean output on a noisy walk: the gait it plans gets the
    0.003 m noise SD and seed 1 these goldens were recorded with."""
    def noisy_plan(target, params):
        return replace(synth.plan_gait(target, params), noise_sd=0.003, seed=1)

    monkeypatch.setattr(acceptance, "plan_gait", noisy_plan)
    means = _steady_mean_speeds([(Variant.GUD, 2.5), (Variant.SHEF, 2.5)])
    return {v.value: repr(mean) for v, mean in zip((Variant.GUD, Variant.SHEF), means)}


def scenario_less_replay():
    program = GaitProgram(step_frequency=1.8, apex_height=0.12, noise_sd=0.002, seed=5)
    trace = synth_trace(program, 6.0, 90.0)
    params = WipParams(variant=Variant.GUD, speed_gain=1.3)
    report, log = replay_trace(trace, params)
    fields = {k: repr(v) for k, v in asdict(report).items()}
    return fields, rows_digest(rows_of(log.rows), FRAME_FIELDS), len(log.rows)


def replay_frames_csv(tmp_path):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({
        "target_speed": 1.3, "variant": "gud", "noise_sd": 0.003, "seed": 2,
        "prep_duration": 2.0, "countdown": 1.0, "chase_duration": 4.0,
    }))
    trace, frames = tmp_path / "run.trace", tmp_path / "frames.csv"
    argv = ["record", "--scenario", str(scenario), "--trace-out", str(trace)]
    with contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(argv) == 0
        argv = ["replay", str(trace), "--variant", "shef", "--gain", "1.25",
                "--out", str(tmp_path / "report.json"), "--frames-out", str(frames)]
        assert cli.main(argv) == 0
    return hashlib.sha256(frames.read_bytes()).hexdigest()


GOLDEN_STEADY = {"gud": "1.964251653814834", "shef": "2.5675136656943356"}
# (report fields by repr, digest, frames)
GOLDEN_REPLAY = (
    {
        "avg_step_height": "0.12255930522919109",
        "avg_step_frequency": "1.8045918367346938",
        "avg_target_distance": "0.0",
        "avg_speed": "1.24091475762866",
        "speed_sd": "0.7661299608555477",
    },
    "10d470594776fe5f0b0bf6679935b6077a8392639a3682a6836fbab707e5bff5",
    540,
)
GOLDEN_FRAMES_CSV = "7b82a56399502246c723127f8b83bd1faf2bcf19d2933b4a6ce9532c22cc7653"


def test_steady_mean_speed_matches_golden(monkeypatch):
    assert steady_mean_speeds(monkeypatch) == GOLDEN_STEADY


def test_steady_mean_speed_replays_no_run(monkeypatch):
    """The helper evaluates the law on its frame estimates directly: it
    builds no run log and no MetricsReport that it would throw away."""
    def unused(*args, **kwargs):
        raise AssertionError("the steady-state helper needs no replayed run")

    monkeypatch.setattr(acceptance, "replay_trace", unused)
    monkeypatch.setattr(harness, "compute_metrics", unused)
    assert steady_mean_speeds(monkeypatch) == GOLDEN_STEADY


def test_scenario_less_replay_matches_golden():
    assert scenario_less_replay() == GOLDEN_REPLAY


def test_replay_frames_csv_matches_golden(tmp_path):
    assert replay_frames_csv(tmp_path) == GOLDEN_FRAMES_CSV


# ----------------------------------------------------------------------
# The run schema: what `wiplab record` writes and `wiplab simulate` reports
# for one scenario that sets every key off its default, by sha256, so the
# echoed keys, their order and their values are pinned. Recorded before the
# key lists were derived from the dataclasses, with the retired sphere_radius
# line and key taken out, and the trace's sample_rate_hint and user_height
# lines too once the header carried each value once.

SCHEMA_SCENARIO = {
    "target_speed": 1.4, "variant": "gud", "noise_sd": 0.003, "seed": 7, "rig": "down:4",
    "user_height": 1.8, "natural_visual_gain": 1.05, "prep_distance": 4.0,
    "prep_duration": 1.5, "countdown": 0.5, "chase_duration": 3.0, "circle_lead": 1.2,
    "timestep": 1 / 60,
}  # and --gain 1.1 for speed_gain
GOLDEN_RECORD_TRACE = "a07143308d4dfa8ed8df94bb70fba76507f6dee11c782ddb7fca72de9d612340"
GOLDEN_SIMULATE_REPORT = "2e09db909a1f1c65f437f5b966f8e9e10fd7e1b9489acc4f56a3d3a12c9a1842"


def run_cli(argv):
    with contextlib.redirect_stderr(io.StringIO()) as err:
        code = cli.main(argv)
    return code, err.getvalue()


def schema_scenario(tmp_path, **extra):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({**SCHEMA_SCENARIO, **extra}))
    return str(path)


def test_record_and_simulate_outputs_match_golden(tmp_path):
    scenario = schema_scenario(tmp_path)
    trace, report = tmp_path / "run.trace", tmp_path / "report.json"
    assert run_cli(["record", "--scenario", scenario, "--gain", "1.1",
                    "--trace-out", str(trace)])[0] == 0
    assert run_cli(["simulate", "--scenario", scenario, "--gain", "1.1",
                    "--out", str(report)])[0] == 0
    assert hashlib.sha256(trace.read_bytes()).hexdigest() == GOLDEN_RECORD_TRACE
    assert hashlib.sha256(report.read_bytes()).hexdigest() == GOLDEN_SIMULATE_REPORT


# Two recorded runs and their replay's --frames-out CSV, by sha256: a noisy
# gud run and a shef run on a down:4 rig, each replayed under its own law.
# Recorded before replay carried its samples as columns; the traces' digests
# are of those recordings with their sample_rate_hint and user_height lines
# taken out.

RECORD_REPLAY_RUNS = {
    "gud-noisy": (
        {"target_speed": 1.8, "variant": "gud", "noise_sd": 0.004, "seed": 21},
        "355264fd1bb76b7ebbfbd107d196b3f245663c22ccd4297c927ac94af4bee17e",
        "360e3d49bb454adbf89a996afc10e90c7059ff3dff1c3c2d705ca403f71c6aae",
    ),
    "shef-down4": (
        {"target_speed": 1.5, "variant": "shef", "noise_sd": 0.003, "seed": 9, "rig": "down:4"},
        "56f1c11f0d7b85772b9220abea7846cfcd4b796094de8dd0a12053b048577622",
        "34543a11b3a9b453a3d0175809596537aa35f5186308b0beda74c15b710191fc",
    ),
}


@pytest.mark.parametrize("name", sorted(RECORD_REPLAY_RUNS))
def test_record_trace_and_frames_csv_match_golden(tmp_path, name):
    config, trace_digest, frames_digest = RECORD_REPLAY_RUNS[name]
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({
        **config, "prep_duration": 2.0, "countdown": 1.0, "chase_duration": 4.0,
    }))
    trace, frames = tmp_path / "run.trace", tmp_path / "frames.csv"
    assert run_cli(["record", "--scenario", str(scenario), "--trace-out", str(trace)])[0] == 0
    assert run_cli(["replay", str(trace), "--out", str(tmp_path / "report.json"),
                    "--frames-out", str(frames)])[0] == 0
    assert hashlib.sha256(trace.read_bytes()).hexdigest() == trace_digest
    assert hashlib.sha256(frames.read_bytes()).hexdigest() == frames_digest


def test_a_trace_with_the_retired_sphere_radius_still_replays(tmp_path):
    trace, recorded = tmp_path / "run.trace", tmp_path / "recorded.json"
    replayed = tmp_path / "replayed.json"
    assert run_cli(["record", "--scenario", schema_scenario(tmp_path),
                    "--trace-out", str(trace), "--out", str(recorded)])[0] == 0
    text = trace.read_text()
    at = text.index("# scenario.timestep: ")
    trace.write_text(text[:at] + "# scenario.sphere_radius: 0.25\n" + text[at:])
    assert run_cli(["replay", str(trace), "--out", str(replayed)])[0] == 0
    doc = json.loads(replayed.read_text())
    assert doc["metrics"] == json.loads(recorded.read_text())["metrics"]
    assert doc["scenario"]["sphere_radius"] == 0.25  # echoed as read


def test_a_scenario_file_with_sphere_radius_is_bad_input(tmp_path):
    code, err = run_cli(["simulate", "--scenario", schema_scenario(tmp_path, sphere_radius=0.25)])
    assert code == 2
    assert "unknown scenario keys: sphere_radius" in err


# ----------------------------------------------------------------------
# STABILITY's 40 chase reports (20 seeds per law), by sha256 over their
# reprs in lane order. The check's detail line shows only 3 decimals of the
# two mean SDs; this pins every field of every lane. Recorded before the
# lanes were stepped a re-plan interval at a time.

GOLDEN_STABILITY_REPORTS = "6d1006fe5b7b661eaca808734159d1bb21f9b1ef15bbeb2a645a2787e9e1bc11"


def test_stability_lane_reports_match_golden(monkeypatch):
    reports = []

    def keep(*args):
        reports.extend(harness.run_chase_lanes(*args))
        return reports

    monkeypatch.setattr(acceptance, "run_chase_lanes", keep)
    passed, _ = acceptance.check_stability()
    assert passed and len(reports) == 40
    digest = hashlib.sha256("\n".join(map(repr, reports)).encode()).hexdigest()
    assert digest == GOLDEN_STABILITY_REPORTS


# ----------------------------------------------------------------------
# The acceptance gate's whole stdout: ten check lines and the summary. The
# detail lines print each check's numbers, so a change to any of them shows
# here. Recorded before replay's per-foot state came from the shared swing
# scan.

GOLDEN_GATE_OUTPUT = """\
[PASS] EQ1-ANCHOR: gud(1.57 Hz, 1.72 m) = 1.0 m/s, |err| = 0.00e+00
[PASS] EQ2-IDENTITY: identity max |err| = 0.00e+00 over 1000 draws
[PASS] ROUND-TRIP: 0.5->0.500 (0.0%); 1.0->1.000 (0.0%); 1.5->1.500 (0.0%); 2.5->2.496 (0.2%); 3.0->2.996 (0.1%)
[PASS] CEILING: gud@3.5 = 1.966 (<= 2.1), shef@3.5 = 3.502 (>= 3.0), saturated ceiling ratio = 3.00 (>= 1.8)
[PASS] STABILITY: mean speed SD over 20 seeds: shef = 0.069 <= gud = 1.106
[PASS] ELASTIC-ANCHORS: band(0 cm) = 0.085 kgf, band(25 cm) = 0.36 kgf; upward non-increasing: True, downward non-decreasing: True
[PASS] BAND-CALIBRATION: downward 1/2/3 kgf -> [4, 8, 12] bands; upward 1/3/5 kgf -> [2, 6, 10] bands
[PASS] STAIRCASE: uphill: landings [0.65, 0.72], mean 0.685 (ref 0.71 +/- 0.07); downhill: landings [1.3, 1.45], mean 1.375 (ref 1.43 +/- 0.25)
[PASS] GAIT-ORACLE: 100 traces: step counts equal, apex |err| max = 0.0000 m
[PASS] DETERMINISM: replayed metrics == recorded (avg speed 1.5065589356264706 vs 1.5065589356264706)
10/10 checks passed
"""


def test_acceptance_output_matches_golden(capsys):
    assert cli.main(["acceptance"]) == 0
    assert capsys.readouterr().out == GOLDEN_GATE_OUTPUT
