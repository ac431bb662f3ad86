"""Fuzzing the command line's run inputs: scenario files and the simulate
and replay flags.

Every input ends in exactly one of two ways: exit 2 with an error that
names a scenario key or a flag, or exit 0 with a report whose numbers are
all finite. Valid durations and rates are kept short, so a run takes
milliseconds; the out-of-range pool still holds huge and tiny values.
"""

import contextlib
import io
import json
import math

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from wiplab import cli
from wiplab.traceio import RUN_KEYS

FLAGS = {
    "target_speed": "--target", "variant": "--variant", "user_height": "--user-height",
    "speed_gain": "--gain", "natural_visual_gain": "--natural-gain", "noise_sd": "--noise",
    "seed": "--seed", "rig": "--rig", "timestep": "--timestep",
}
REPLAY_FLAGS = ("variant", "user_height", "speed_gain", "natural_visual_gain")
NAMES = (*RUN_KEYS, *FLAGS.values(), "bogus")

# values no key takes: wrong JSON types, non-finite, huge, tiny and out of range
junk = st.sampled_from([
    None, True, False, "1.0", "", [], {}, [1.0], math.nan, math.inf, -math.inf,
    -1.0, 0.0, 5e-324, 1e-300, 1e308, 10**400, -(10**400), 1.5,
])
numbers = {
    "target_speed": st.floats(0.5, 5.0),
    "user_height": st.floats(0.9, 2.6),
    "speed_gain": st.floats(0.01, 20.0),
    "natural_visual_gain": st.floats(0.01, 20.0),
    "prep_distance": st.floats(0.01, 1.0),
    "prep_duration": st.floats(1e-3, 0.5),
    "countdown": st.floats(1e-3, 0.5),
    "chase_duration": st.floats(1e-3, 1.0),
    "circle_lead": st.floats(0.0, 5.0),
    "timestep": st.sampled_from([1 / 90, 1 / 30, 1 / 250]) | st.floats(1 / 250, 0.05),
    "noise_sd": st.floats(0.0, 0.02),
}
# in range or just past a bound, with short durations
plausible = numbers | {
    "variant": st.sampled_from(["gud", "shef", "GUD", "walk"]),
    "seed": st.integers(-3, 2**40),
    "rig": st.sampled_from(["none", "up:6", "down:4", "up:101", "sideways:1", "up:x"]),
}
SHORT = ("target_speed", "prep_distance", "prep_duration", "countdown", "chase_duration")


@st.composite
def scenarios(draw):
    """A short, plausible scenario in which at most one key holds junk."""
    scenario = draw(st.fixed_dictionaries(
        {key: plausible[key] for key in SHORT},
        optional={key: plausible[key] for key in plausible if key not in SHORT},
    ))
    if draw(st.booleans()):
        scenario[draw(st.sampled_from([*sorted(plausible), "bogus"]))] = draw(junk)
    return scenario


flag_text = st.sampled_from(["1.2", "0", "-1", "nan", "inf", "1e300", "1e400", "1e-320", "x", "gud"])


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects a flag value
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def assert_contract(argv):
    code, out, err = run_cli(argv)
    assert code in (0, 2), (argv, code, err)
    if code == 2:
        assert any(name in err for name in NAMES), (argv, err)
    else:
        metrics = json.loads(out)["metrics"]
        assert all(math.isfinite(v) for v in metrics.values()), (argv, metrics)


fuzz = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


@fuzz
@given(
    scenario=scenarios(),
    flags=st.dictionaries(st.sampled_from(sorted(FLAGS)), flag_text, max_size=3),
)
@example(  # a seed too large for a float: the report once failed to convert it
    scenario={"target_speed": 1.0, "prep_distance": 1.0, "prep_duration": 0.5, "countdown": 0.5,
              "chase_duration": 1.0, "seed": 10**400},
    flags={},
)
def test_simulate_ends_in_a_finite_report_or_names_its_bad_input(tmp_path, scenario, flags):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    argv = ["simulate", "--scenario", str(path)]
    for key, text in flags.items():
        argv += [FLAGS[key], text]
    assert_contract(argv)


@pytest.fixture(scope="module")
def trace(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "run.trace"
    code, _, err = run_cli([
        "record", "--target", "1.2", "--noise", "0.003", "--trace-out", str(path),
        "--timestep", repr(1 / 60),
    ])
    assert code == 0, err
    return str(path)


@fuzz
@given(flags=st.dictionaries(st.sampled_from(REPLAY_FLAGS), flag_text, max_size=3))
def test_replay_ends_in_a_finite_report_or_names_its_bad_flag(trace, flags):
    argv = ["replay", trace]
    for key, text in flags.items():
        argv += [FLAGS[key], text]
    assert_contract(argv)
