"""Golden fixed-seed chase reports.

The values below were recorded from short closed-loop runs and are compared
by ``repr``, so any change to the bits of a simulated run fails here. A
performance change must leave them untouched; only a deliberate change of
simulated behaviour may re-record them, and says so in its description.
"""

from dataclasses import asdict

import pytest

from wiplab.core import Variant, WipParams
from wiplab.harness import ChaseScenario, run_chase
from wiplab.synth import WalkerAgent
from wiplab.traceio import parse_rig_spec

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


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_chase_report_matches_golden(name):
    variant, target, noise, seed, rig, fields, events, frames = GOLDEN[name]
    params = WipParams(variant=Variant(variant))
    agent = WalkerAgent(params, noise_sd=noise, seed=seed, rig=parse_rig_spec(rig))
    report, log = run_chase(ChaseScenario(target_speed=target, **SHORT), agent, params)
    assert {k: repr(v) for k, v in asdict(report).items()} == fields
    assert (len(log.events), len(log.rows)) == (events, frames)
