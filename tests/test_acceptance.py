"""Acceptance gate: every release criterion must hold, one line per check.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-check
pass/fail lines, or ``python3 -m wiplab acceptance`` for the same table
without pytest.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wiplab import acceptance, cli, gait, speed, synth
from wiplab.core import Foot, FootSample, Samples, Variant
from wiplab.gait import GROUND_EPSILON, MIN_STEP_HEIGHT, GaitTracker, estimate_frames
from wiplab.synth import GaitProgram, synth_trace

from boundary_gaits import BOUNDARY_GAITS, as_feet


# Each check's detail line from a passing gate. The gate prints these, so any
# change to the bits a check computes changes `wiplab acceptance`'s output.
GOLDEN_DETAIL = {
    "EQ1-ANCHOR": "gud(1.57 Hz, 1.72 m) = 1.0 m/s, |err| = 0.00e+00",
    "EQ2-IDENTITY": "identity max |err| = 0.00e+00 over 1000 draws",
    "ROUND-TRIP": (
        "0.5->0.500 (0.0%); 1.0->1.000 (0.0%); 1.5->1.500 (0.0%); "
        "2.5->2.496 (0.2%); 3.0->2.996 (0.1%)"
    ),
    "CEILING": (
        "gud@3.5 = 1.966 (<= 2.1), shef@3.5 = 3.502 (>= 3.0), "
        "saturated ceiling ratio = 3.00 (>= 1.8)"
    ),
    "STABILITY": "mean speed SD over 20 seeds: shef = 0.069 <= gud = 1.106",
    "ELASTIC-ANCHORS": (
        "band(0 cm) = 0.085 kgf, band(25 cm) = 0.36 kgf; "
        "upward non-increasing: True, downward non-decreasing: True"
    ),
    "BAND-CALIBRATION": (
        "downward 1/2/3 kgf -> [4, 8, 12] bands; upward 1/3/5 kgf -> [2, 6, 10] bands"
    ),
    "STAIRCASE": (
        "uphill: landings [0.65, 0.72], mean 0.685 (ref 0.71 +/- 0.07); "
        "downhill: landings [1.3, 1.45], mean 1.375 (ref 1.43 +/- 0.25)"
    ),
    "GAIT-ORACLE": "100 traces: step counts equal, apex |err| max = 0.0000 m",
    "DETERMINISM": (
        "replayed metrics == recorded (avg speed 1.5065589356264706 vs 1.5065589356264706)"
    ),
}


@pytest.mark.parametrize("name", acceptance.CHECK_NAMES)
def test_criterion(name):
    results = acceptance.run_all(only=[name])
    assert len(results) == 1
    result = results[0]
    status = "PASS" if result.passed else "FAIL"
    print(f"[{status}] {result.name}: {result.detail}")
    assert result.passed, f"{result.name}: {result.detail}"
    assert result.detail == GOLDEN_DETAIL[name]


def scaled_law(variants, factor):
    """speed.law, with the raw and output speeds of the laws of variants
    scaled by factor."""
    true_law = speed.law

    def broken_law(params):
        evaluate = true_law(params)
        if params.variant not in variants:
            return evaluate
        return lambda f, sh: tuple(factor * v for v in evaluate(f, sh))

    return broken_law


def test_gate_catches_a_broken_speed_law(monkeypatch):
    """The checks must actually exercise the law, not a frozen copy of it."""
    monkeypatch.setattr(speed, "law", scaled_law(set(Variant), 1.001))
    results = acceptance.run_all(only=["EQ1-ANCHOR"])
    assert not results[0].passed


@pytest.mark.parametrize(
    "variants", [{Variant.GUD}, {Variant.SHEF}, set(Variant)], ids=["gud", "shef", "both"]
)
def test_the_law_checks_fail_on_a_broken_law_closure(variants, monkeypatch, capsys):
    """EQ1-ANCHOR and EQ2-IDENTITY evaluate speed.law, the closures every
    frame loop runs, so 5 % off in either law's closure fails the gate."""
    monkeypatch.setattr(speed, "law", scaled_law(variants, 1.05))
    assert cli.main(["acceptance", "--only", "EQ1-ANCHOR", "--only", "EQ2-IDENTITY"]) == 1
    assert "[FAIL]" in capsys.readouterr().out


def test_gate_catches_a_broken_law_in_the_frame_step(monkeypatch):
    """ROUND-TRIP evaluates speed.law, looked up at call time, on the frame
    estimates of its steady-state walk."""
    true_law = speed.law

    def broken_law(params):
        evaluate = true_law(params)
        return lambda f, sh: tuple(1.2 * v for v in evaluate(f, sh))

    monkeypatch.setattr(speed, "law", broken_law)
    results = acceptance.run_all(only=["ROUND-TRIP"])
    assert not results[0].passed


# ----------------------------------------------------------------------
# GAIT-ORACLE's offline segmentation against a sample-by-sample loop


def offline_step_segments(samples):
    """The offline segmentation of one trace: one lane of GAIT-ORACLE's
    _offline_segments, read from the Samples' columns, left samples first."""
    order = np.argsort(~samples.left, kind="stable")
    starts = np.array([0, np.count_nonzero(samples.left), len(samples)])
    return acceptance._offline_segments(samples.time[order], samples.height[order], starts)[0]


def loop_offline_step_segments(samples):
    """offline_step_segments one sample at a time: per foot, a run above the
    ground threshold opens after a grounded sample, its apex moves only on a
    strictly higher sample, and a grounded sample closes it."""
    by_foot = {}
    for s in samples:
        by_foot.setdefault(s.foot, []).append(s)
    segments = []
    for foot, rows in by_foot.items():
        prev_grounded = None
        region = None  # [start, apex_height, apex_time]
        for s in rows:
            if s.height > GROUND_EPSILON:
                if region is None:
                    region = [prev_grounded, s.height, s.time]
                elif s.height > region[1]:
                    region[1], region[2] = s.height, s.time
            else:
                if region is not None and region[0] is not None and region[1] >= MIN_STEP_HEIGHT:
                    segments.append((foot, region[0], region[2], s.time, region[1]))
                region = None
                prev_grounded = s.time
    return sorted(segments, key=lambda seg: (seg[3], seg[0].value))


def assert_segments_equal_the_loop(samples):
    """The offline segments of a Samples equal the loop's over its rows, and
    the streaming tracker's step events, as GAIT-ORACLE compares them, equal
    both."""
    offline = list(map(repr, offline_step_segments(samples)))
    rows = list(map(FootSample._make, samples.tuples()))
    assert offline == list(map(repr, loop_offline_step_segments(rows)))
    tracker = GaitTracker()
    streamed = sorted(
        (ev for s in rows if (ev := tracker.advance(s)) is not None),
        key=lambda e: (e.end, e.foot.value),
    )
    assert offline == [
        repr((e.foot, e.start, e.apex_time, e.end, e.apex_height)) for e in streamed
    ]


@settings(max_examples=60, deadline=None)
@given(
    frequency=st.sampled_from([0.0, 0.6, 2.2]) | st.floats(0.0, 4.0),
    apex=st.sampled_from([MIN_STEP_HEIGHT, 0.1]) | st.floats(0.0, 0.4),
    noise_sd=st.sampled_from([0.0, 0.002, 0.01]),
    seed=st.integers(0, 2**16),
    duration=st.floats(0.0, 6.0),
    rate=st.sampled_from([30.0, 90.0]),
)
def test_offline_segments_of_synthetic_traces_equal_the_loop(
    frequency, apex, noise_sd, seed, duration, rate
):
    program = GaitProgram(frequency, apex, noise_sd, seed)
    assert_segments_equal_the_loop(synth_trace(program, duration, rate))


heights = st.lists(
    st.sampled_from([0.0, GROUND_EPSILON, 0.02, MIN_STEP_HEIGHT, 0.08]) | st.floats(0.0, 0.4),
    max_size=40,
)


@settings(max_examples=100, deadline=None)
@given(left=heights, right=heights)
@example(left=[0.05, 0.08, 0.0, 0.1, 0.0], right=[])  # a run open at the first sample
@example(left=[0.0, 0.1, 0.0, 0.05, 0.08], right=[])  # a run open at the last sample
@example(left=[0.0, 0.05, 0.08, 0.08, 0.04, 0.0], right=[])  # a plateau apex
@example(left=[0.0, MIN_STEP_HEIGHT, 0.02, 0.0], right=[0.0, 0.02, 0.0])  # apex at the minimum
@example(left=[0.0, GROUND_EPSILON, 0.05, GROUND_EPSILON, 0.0], right=[])  # height at the threshold
@example(left=[0.0, 0.05, 0.0], right=[0.0, 0.05, 0.0])  # both feet land on one tick
@example(**as_feet(BOUNDARY_GAITS["height at GROUND_EPSILON"]))
@example(**as_feet(BOUNDARY_GAITS["apex at MIN_STEP_HEIGHT"]))
@example(**as_feet(BOUNDARY_GAITS["velocity at +-VELOCITY_DEADBAND"]))
@example(**as_feet(BOUNDARY_GAITS["footfall gap of RESUME_GAP"]))
@example(**as_feet(BOUNDARY_GAITS["grounded for STOP_WINDOW"]))
@example(**as_feet(BOUNDARY_GAITS["restart past RESUME_GAP, then both feet land on one tick"]))
def test_offline_segments_of_height_sequences_equal_the_loop(left, right):
    """Each foot's heights at 90 Hz, the feet interleaved while both last."""
    samples = [
        FootSample(k / 90.0, foot, series[k])
        for k in range(max(len(left), len(right)))
        for foot, series in ((Foot.LEFT, left), (Foot.RIGHT, right))
        if k < len(series)
    ]
    assert_segments_equal_the_loop(Samples.of(samples))


# ----------------------------------------------------------------------
# GAIT-ORACLE and the steady-state walks, tracked as batches of lanes


def no_streaming(monkeypatch):
    """Make any GaitTracker.advance call raise: the batches make none."""
    def advance(self, sample):
        raise AssertionError("a lane batch streamed a sample through GaitTracker.advance")

    monkeypatch.setattr(GaitTracker, "advance", advance)


def test_gait_oracle_lanes_equal_one_tracker_per_trace(monkeypatch):
    """Each lane's step events are its trace's, streamed through its own
    GaitTracker, for every one of GAIT-ORACLE's 100 programs."""
    traces, batches = [], []

    def keep_trace(*args):
        traces.append(synth_trace(*args))
        return traces[-1]

    class KeptLanes(gait.TrackerLanes):
        def __init__(self, lanes):
            super().__init__(lanes)
            batches.append(self)

    monkeypatch.setattr(acceptance, "synth_trace", keep_trace)
    monkeypatch.setattr(acceptance, "TrackerLanes", KeptLanes)
    no_streaming(monkeypatch)
    assert acceptance.check_gait_oracle() == (True, GOLDEN_DETAIL["GAIT-ORACLE"])
    monkeypatch.undo()
    [lanes] = batches
    assert len(traces) == len(lanes.events) == 100
    for trace, events in zip(traces, lanes.events):
        tracker = GaitTracker()
        streamed = [ev for s in trace.tuples() if (ev := tracker.advance(s)) is not None]
        assert streamed and list(map(repr, events)) == list(map(repr, streamed))


def test_steady_lane_columns_equal_estimate_frames(monkeypatch):
    """The frequency and step-height columns the law gets from the batch, for
    each of ROUND-TRIP's and CEILING's 9 cases, are estimate_frames' of that
    case's trace, bit for bit."""
    true_law, programs, columns = speed.law, [], []

    def keep_plan(target, params):
        programs.append(synth.plan_gait(target, params))
        return programs[-1]

    def keep_law(params):
        evaluate = true_law(params)
        return lambda f, sh: columns.append((f, sh)) or evaluate(f, sh)

    monkeypatch.setattr(acceptance, "plan_gait", keep_plan)
    monkeypatch.setattr(speed, "law", keep_law)
    no_streaming(monkeypatch)
    assert acceptance.check_round_trip()[0] and acceptance.check_ceiling()[0]
    monkeypatch.undo()
    assert len(programs) == len(columns) == 9
    for program, lane in zip(programs, columns):
        trace = synth_trace(program, acceptance.STEADY_DURATION, acceptance.STEADY_RATE)
        frames = estimate_frames(trace)
        for got, want in zip(lane, (frames.step_frequency, frames.step_height)):
            assert list(map(float.hex, got.tolist())) == list(map(float.hex, want.tolist()))


def test_gait_oracle_catches_a_lane_that_loses_a_step(monkeypatch):
    """One step event dropped from one lane fails GAIT-ORACLE, naming its trace."""
    true_advance, dropped = gait.TrackerLanes.advance, []

    def lossy(self, times, heights):
        estimates = true_advance(self, times, heights)
        if self.events[37] and not dropped:
            dropped.append(self.events[37].pop())
        return estimates

    monkeypatch.setattr(gait.TrackerLanes, "advance", lossy)
    [result] = acceptance.run_all(only=["GAIT-ORACLE"])
    assert dropped and not result.passed
    assert result.detail.startswith("trace 37: ")
