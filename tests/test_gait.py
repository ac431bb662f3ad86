"""Gait tracker: phase machine, step events, cadence/apex estimation.

The streaming tracker is checked against a brute-force offline segmenter
written independently here: scan each foot's samples for maximal runs
above the ground threshold that are bracketed by grounded samples, keep
those whose peak clears the step floor.
"""

import math
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wiplab import gait
from wiplab.core import (
    HEIGHT_CEILING,
    HEIGHT_FLOOR,
    Foot,
    FootSample,
    GaitEstimate,
    NonMonotonicTime,
    OutOfRangeHeight,
    Samples,
    WipError,
    validate_sample,
)
from wiplab.gait import (
    GROUND_EPSILON,
    MIN_STEP_HEIGHT,
    PARTIAL_SLACK,
    RESUME_GAP,
    SMOOTHING_TAU,
    STOP_WINDOW,
    SWING_FRACTION,
    GaitTracker,
    StepEvent,
    TrackerLanes,
    estimate_frames,
)
from wiplab.synth import GaitProgram, synth_trace

from boundary_gaits import BOUNDARY_GAITS, as_samples, as_segments
from half_sine import cycle_height

EPS = GROUND_EPSILON
MIN_APEX = MIN_STEP_HEIGHT
RESTART = "restart past RESUME_GAP, then both feet land on one tick"

GROUNDED, ASCENDING, DESCENDING = "grounded", "ascending", "descending"

# Transitions a foot's phase machine may take; anything else is a bug.
LEGAL_TRANSITIONS = frozenset(
    {
        (GROUNDED, ASCENDING),
        (ASCENDING, DESCENDING),
        (DESCENDING, GROUNDED),
        (DESCENDING, ASCENDING),  # re-lift mid-descent
        (ASCENDING, GROUNDED),    # aborted micro-step
    }
)


def phase(track):
    """A track's phase, read from its aerial and descending flags; a
    descending track is always aerial."""
    assert track.aerial or not track.descending
    if not track.aerial:
        return GROUNDED
    return DESCENDING if track.descending else ASCENDING


def tracks(tracker):
    """The tracker's per-foot tracks, for the feet it has seen."""
    return [track for track in (tracker._left, tracker._right) if track.prev_time > -math.inf]


class FootfallState(NamedTuple):
    freq_ema: float | None
    apex_ema: float | None
    active_feet: int
    last_footfall: float | None


def footfall_state(tracker):
    """The tracker's EMA row with None for none yet: the row's 0.0 for no
    cadence or apex EMA and its NaN for no footfall."""
    freq, apex, active_feet, footfall = tracker._ema_row
    return FootfallState(
        None if freq == 0.0 else freq,
        None if apex == 0.0 else apex,
        active_feet,
        None if math.isnan(footfall) else footfall,
    )


def brute_force_steps(samples, eps=EPS, min_apex=MIN_APEX):
    """Offline oracle: (foot, start, apex_time, end, apex) per completed swing."""
    per_foot = {}
    for s in samples:
        per_foot.setdefault(s.foot, []).append(s)
    found = []
    for foot, seq in per_foot.items():
        airborne = [s.height > eps for s in seq]
        i = 0
        while i < len(seq):
            if not airborne[i]:
                i += 1
                continue
            j = i
            while j < len(seq) and airborne[j]:
                j += 1
            # needs a grounded sample on both sides to be a complete swing
            if i > 0 and j < len(seq):
                peak = max(seq[i:j], key=lambda s: s.height)
                if peak.height >= min_apex:
                    found.append((foot, seq[i - 1].time, peak.time, seq[j].time, peak.height))
            i = j
    return sorted(found, key=lambda r: (r[3], r[0].value))


def stream(tracker, samples):
    events = []
    for s in samples:
        ev = tracker.advance(s)
        if ev is not None:
            events.append(ev)
    return events


def make_trace(freq, apex, duration, *, noise=0.0, seed=0, rate=90.0):
    """A synth_trace's rows as FootSamples."""
    trace = synth_trace(
        GaitProgram(step_frequency=freq, apex_height=apex, noise_sd=noise, seed=seed),
        duration,
        rate,
    )
    return list(map(FootSample._make, trace.tuples()))


# ---------------------------------------------------------------------------
# segmentation


def test_clean_gait_produces_expected_steps():
    events = stream(GaitTracker(), make_trace(2.0, 0.15, 6.0))
    # per foot one swing per second over six seconds: the left lands six
    # times (its last swing closes on the final sample), the right loses its
    # leading half-swing, landing five times
    assert len(events) == 11
    for ev in events:
        assert ev.apex_height == pytest.approx(0.15, abs=1e-3)
    feet = [ev.foot for ev in events]
    assert all(a is not b for a, b in zip(feet, feet[1:])), "feet alternate"


def test_event_ordering_invariant():
    events = stream(GaitTracker(), make_trace(2.6, 0.2, 5.0, noise=0.002))
    assert events
    for ev in events:
        assert ev.start < ev.apex_time < ev.end


@pytest.mark.parametrize("freq", [0.5, 1.0, 1.8, 2.6, 3.0])
@pytest.mark.parametrize("noise", [0.0, 0.004])
def test_streaming_matches_offline_oracle(freq, noise):
    trace = make_trace(freq, 0.18, 6.0, noise=noise, seed=int(freq * 10))
    events = stream(GaitTracker(), trace)
    oracle = brute_force_steps(trace)
    assert len(events) == len(oracle)
    events = sorted(events, key=lambda e: (e.end, e.foot.value))
    for ev, (foot, start, apex_time, end, apex) in zip(events, oracle):
        assert ev.foot is foot
        assert ev.start == start
        assert ev.end == end
        assert ev.apex_height == pytest.approx(apex, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(
    freq=st.floats(min_value=0.5, max_value=3.0),
    apex=st.floats(min_value=0.05, max_value=0.35),
    noise=st.sampled_from([0.0, 0.002, 0.004]),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_streaming_matches_offline_oracle_fuzzed(freq, apex, noise, seed):
    trace = make_trace(freq, apex, 5.0, noise=noise, seed=seed)
    events = stream(GaitTracker(), trace)
    oracle = brute_force_steps(trace)
    assert len(events) == len(oracle)
    for ev, row in zip(sorted(events, key=lambda e: (e.end, e.foot.value)), oracle):
        assert abs(ev.apex_height - row[4]) <= 0.005


def test_small_apexes_are_not_steps():
    tracker = GaitTracker()
    events = stream(tracker, make_trace(2.0, 0.02, 4.0))
    assert events == []


def test_foot_first_seen_airborne_yields_no_event():
    tracker = GaitTracker()
    dt = 1.0 / 90.0
    heights = [0.12, 0.08, 0.04, 0.0]  # lands without an observed lift-off
    for k, h in enumerate(heights):
        assert tracker.advance(FootSample(k * dt, Foot.RIGHT, h)) is None
    # the next complete swing counts
    lift = [0.05, 0.1, 0.05, 0.0]
    events = [
        tracker.advance(FootSample((4 + k) * dt, Foot.RIGHT, h)) for k, h in enumerate(lift)
    ]
    assert sum(ev is not None for ev in events) == 1


def test_relift_during_descent_does_not_split_the_step():
    tracker = GaitTracker()
    heights = [0.0, 0.05, 0.10, 0.08, 0.09, 0.12, 0.06, 0.0]
    events = [
        tracker.advance(FootSample(0.1 * k, Foot.LEFT, h)) for k, h in enumerate(heights)
    ]
    produced = [ev for ev in events if ev is not None]
    assert len(produced) == 1
    assert produced[0].apex_height == pytest.approx(0.12)
    assert produced[0].start == 0.0
    assert produced[0].end == pytest.approx(0.7)


def test_velocity_deadband_keeps_phase_through_jitter():
    tracker = GaitTracker()
    for k, h in enumerate([0.0, 0.1, 0.1005, 0.1, 0.1005]):
        tracker.advance(FootSample(0.1 * k, Foot.LEFT, h))
    assert phase(tracker._left) == ASCENDING


def test_advance_validates_its_stream():
    tracker = GaitTracker()
    tracker.advance(FootSample(0.0, Foot.LEFT, 0.0))
    with pytest.raises(NonMonotonicTime):
        tracker.advance(FootSample(0.0, Foot.LEFT, 0.1))
    with pytest.raises(OutOfRangeHeight):
        tracker.advance(FootSample(1.0, Foot.LEFT, 3.0))


def test_advance_accepts_heights_at_the_ends_of_the_range(monkeypatch):
    """After a foot's first sample, heights of exactly HEIGHT_FLOOR and
    HEIGHT_CEILING pass advance's inline check, validate_sample's closed
    range, with no call to validate_sample. (An inline check stricter than
    validate_sample would still accept them, but only by calling it.)"""
    tracker = GaitTracker()
    tracker.advance((0.0, Foot.LEFT, 0.0))
    calls = []
    monkeypatch.setattr(gait, "validate_sample", lambda *args: calls.append(args))
    for k, h in enumerate((HEIGHT_FLOOR, HEIGHT_CEILING, HEIGHT_FLOOR), start=1):
        tracker.advance((0.1 * k, Foot.LEFT, h))
        assert tracker._left.height == h
    assert calls == []


def test_a_foot_first_seen_at_ground_epsilon_starts_grounded():
    tracker = GaitTracker()
    tracker.advance((0.0, Foot.LEFT, GROUND_EPSILON))
    assert phase(tracker._left) == GROUNDED and phase(tracker._right) == GROUNDED


# (time of the left foot's accepted sample or None, the row fed next)
BAD_ROWS = {
    "equal time": (1.0, (1.0, Foot.LEFT, 0.1)),
    "earlier time": (1.0, (0.5, Foot.LEFT, 0.1)),
    "NaN time": (1.0, (math.nan, Foot.LEFT, 0.1)),
    "+inf time": (1.0, (math.inf, Foot.LEFT, 0.1)),
    "-inf time": (1.0, (-math.inf, Foot.LEFT, 0.1)),
    "NaN height": (1.0, (2.0, Foot.LEFT, math.nan)),
    "height over the ceiling": (1.0, (2.0, Foot.LEFT, 2.5)),
    "height under the floor": (1.0, (2.0, Foot.LEFT, -0.01)),
    "first sample, negative time": (None, (-0.5, Foot.LEFT, 0.0)),
    "first sample, NaN height": (None, (0.0, Foot.LEFT, math.nan)),
    "other foot's first sample, inf time": (1.0, (math.inf, Foot.RIGHT, 0.0)),
    "first sample, foot 'L'": (None, (0.0, "L", 0.1)),
    "foot 'R'": (1.0, (2.0, "R", 0.1)),
    "foot None": (1.0, (2.0, None, 0.1)),
}


@pytest.mark.parametrize("accepted, row", BAD_ROWS.values(), ids=BAD_ROWS)
@pytest.mark.parametrize("make", [tuple, FootSample._make], ids=["tuple", "FootSample"])
def test_advance_raises_what_validate_sample_raises(accepted, row, make):
    """A bad row, as a plain tuple or a FootSample, raises validate_sample's
    exception type and message for it, and changes no track."""
    tracker = GaitTracker()
    prev = None
    if accepted is not None:
        tracker.advance((accepted, Foot.LEFT, 0.0))
        prev = accepted if row[1] is Foot.LEFT else None
    with pytest.raises((WipError, ValueError)) as want:
        validate_sample(FootSample(*row), prev)
    with pytest.raises((WipError, ValueError)) as got:
        tracker.advance(make(row))
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)
    assert [track.prev_time for track in tracks(tracker)] == [accepted] * (accepted is not None)


@settings(max_examples=50, deadline=None)
@given(
    heights=st.lists(st.floats(min_value=0.0, max_value=0.4), min_size=2, max_size=60)
)
def test_phase_transitions_stay_legal(heights):
    tracker = GaitTracker()
    seen = []
    for k, h in enumerate(heights):
        tracker.advance(FootSample(k / 90.0, Foot.LEFT, h))
        seen.append(phase(tracker._left))
    for a, b in zip(seen, seen[1:]):
        assert a is b or (a, b) in LEGAL_TRANSITIONS


# ---------------------------------------------------------------------------
# estimation


def run_and_estimate(trace, *, min_events=3):
    """Stream a trace; collect (t, freq, height) after the first min_events."""
    tracker = GaitTracker()
    count = 0
    out = []
    i, n = 0, len(trace)
    while i < n:
        t = trace[i].time
        while i < n and trace[i].time == t:
            if tracker.advance(trace[i]) is not None:
                count += 1
            i += 1
        if count >= min_events:
            out.append((t, *tracker.estimate(t)[:2]))
    return tracker, out


@pytest.mark.parametrize("freq", [0.5, 1.0, 2.0, 3.0])
@pytest.mark.parametrize("apex", [0.08, 0.2, 0.35])
def test_estimates_recover_the_generating_gait(freq, apex):
    trace = make_trace(freq, apex, max(8.0, 8.0 / freq))
    _, queries = run_and_estimate(trace)
    assert queries, "need at least three steps in the trace"
    for t, f_hat, h_hat in queries:
        assert f_hat == pytest.approx(freq, rel=0.05)
        assert h_hat == pytest.approx(apex, abs=0.01)


def test_single_foot_stepping_counts_singly():
    # only the left foot's samples: cadence is per-foot, half the two-foot rate
    trace = [s for s in make_trace(2.0, 0.15, 8.0) if s.foot is Foot.LEFT]
    _, queries = run_and_estimate(trace)
    assert queries
    late = [f for t, f, _ in queries if t > 4.0]
    for f_hat in late:
        assert f_hat == pytest.approx(1.0, rel=0.05)


def test_estimates_are_zero_before_any_steps():
    est = GaitTracker().estimate(0.0)
    assert est.step_frequency == 0.0
    assert est.step_height == 0.0
    assert est.stale


def test_stop_is_detected_within_the_window():
    trace = make_trace(2.0, 0.15, 4.0)
    tracker = GaitTracker()
    stream(tracker, trace)
    last_t = trace[-1].time
    # hold both feet on the ground
    t = last_t
    while t < last_t + 2.0:
        t += 1.0 / 90.0
        tracker.advance(FootSample(t, Foot.LEFT, 0.0))
        tracker.advance(FootSample(t, Foot.RIGHT, 0.0))
        est = tracker.estimate(t)
        if t - last_t >= STOP_WINDOW + 0.05:
            assert est.stale
            assert est.step_frequency == 0.0
        elif t - last_t <= STOP_WINDOW - 0.05:
            assert not est.stale


@pytest.mark.parametrize("order", ["left block first", "time order"])
def test_staleness_does_not_depend_on_the_order_across_feet(order):
    """The left foot lands at 0.5 s and 1.0 s, the right at 0.7 s. Fed
    either way, 0.65 s after the last landing the stream is not stale."""
    left = {k: 0.0 for k in range(21)} | {7: 0.05, 8: 0.1, 9: 0.05, 17: 0.05, 18: 0.1, 19: 0.05}
    right = {k: 0.0 for k in range(10, 17)} | {11: 0.05, 12: 0.1, 13: 0.05}
    samples = [  # at 20 Hz, the left foot's block first
        FootSample(k / 20.0, foot, ticks[k])
        for foot, ticks in ((Foot.LEFT, left), (Foot.RIGHT, right)) for k in sorted(ticks)
    ]
    if order == "time order":
        samples.sort(key=lambda s: s.time)
    tracker = GaitTracker()
    events = stream(tracker, samples)
    assert sorted(ev.end for ev in events) == [0.5, 0.7, 1.0]
    estimate = tracker.estimate(1.65)
    assert not estimate.stale and estimate.step_frequency > 0.0
    assert tracker.estimate(1.8).stale


def test_resume_after_pause_recovers_quickly():
    rate = 90.0
    first = make_trace(2.0, 0.15, 4.0)
    pause = [
        FootSample(4.0 + k / rate, foot, 0.0)
        for k in range(int(3.0 * rate))
        for foot in (Foot.LEFT, Foot.RIGHT)
    ]
    resumed = [
        FootSample(s.time + 7.0, s.foot, s.height) for s in make_trace(2.0, 0.15, 5.0)
    ]
    tracker = GaitTracker()
    events = stream(tracker, list(first) + pause + resumed)
    resumed_events = [ev for ev in events if ev.end >= 7.0]
    assert len(resumed_events) >= 4
    # the third footfall after the pause arrives quickly and by the end of
    # the resumed segment the cadence estimate is back
    assert resumed_events[2].end - 7.0 < 3.0
    assert tracker.estimate(resumed[-1].time).step_frequency == pytest.approx(2.0, rel=0.05)


@pytest.mark.parametrize("pause, kept", [(0, True), (1, False)])
def test_only_a_footfall_gap_past_resume_gap_restarts_the_cadence(pause, kept):
    """Footfalls at ticks 20, 40 and 265: the last gap is exactly RESUME_GAP,
    a 0.4 Hz cadence sample. One grounded tick more makes it a restart."""
    ticks = BOUNDARY_GAITS["footfall gap of RESUME_GAP"]
    ticks = ticks[:250] + [(0.0, 0.0)] * pause + ticks[250:]
    tracker = GaitTracker()
    *_, last = stream(tracker, as_samples(ticks))
    assert (last.end - 40 / 90.0 == RESUME_GAP) is kept
    frequency = tracker.estimate(last.end).step_frequency
    assert frequency == (pytest.approx(0.4, abs=0.05) if kept else 0.0)


def test_growing_apex_is_seen_before_the_step_completes():
    tracker = GaitTracker()
    # two normal steps, then a much higher swing in progress
    stream(tracker, make_trace(2.0, 0.10, 3.0))
    t0 = 3.0
    dt = 1.0 / 90.0
    baseline = tracker.estimate(t0).step_height
    t = t0
    # left foot launches into a 0.3 m swing and hangs near its apex
    for k in range(1, 40):
        t = t0 + k * dt
        u = min(1.0, k / 30.0)
        tracker.advance(FootSample(t, Foot.LEFT, 0.3 * math.sin(math.pi * 0.5 * u)))
        tracker.advance(FootSample(t, Foot.RIGHT, 0.0))
    grown = tracker.estimate(t).step_height
    assert grown > baseline + 0.05


# ---------------------------------------------------------------------------
# the fast paths against their definitions


def reference_is_stale(tracker, now, stop_window):
    """The staleness definition: every seen foot grounded, and no phase
    transition (a foot's first sample counts as one) within the window."""
    seen = tracks(tracker)
    if not seen:
        return True
    if any(phase(track) != GROUNDED for track in seen):
        return False
    return now - max(track.entered_at for track in seen) >= stop_window


def reference_frequency(tracker, now, events):
    """Cadence as a separate pass over the tracks: the smallest of the
    footfall EMA, each swing's partial bound and the footfall-gap bound.
    The partial bound scales with the distinct feet among the last four of
    the step events the tracker has returned."""
    state = footfall_state(tracker)
    if state.freq_ema is None:
        return 0.0
    active_feet = len({e.foot for e in events[-4:]}) if events else 1
    candidates = [state.freq_ema]
    for track in tracks(tracker):
        if phase(track) == GROUNDED:
            continue
        anchor = track.swing_start if track.valid else track.entered_at
        elapsed = now - anchor
        if elapsed > 0.0:
            partial = SWING_FRACTION / elapsed
            candidates.append(PARTIAL_SLACK * active_feet * partial)
    if state.last_footfall is not None:
        gap = now - state.last_footfall
        if gap > 0.0:
            candidates.append(PARTIAL_SLACK / gap)
    return max(0.0, min(candidates))


def reference_step_height(tracker, now):
    """Step height as a separate pass over the tracks: the apex EMA, blended
    up toward the running apex of each observed swing in progress."""
    apex_ema = footfall_state(tracker).apex_ema
    base = apex_ema if apex_ema is not None else 0.0
    value = base
    for track in tracks(tracker):
        if phase(track) == GROUNDED or not track.valid:
            continue
        if track.running_apex <= base:
            continue
        weight = min(1.0, max(0.0, (now - track.swing_start) / SMOOTHING_TAU))
        value = max(value, base + weight * (track.running_apex - base))
    return value


def reference_estimate(tracker, now, events):
    """(step_frequency, step_height, stale), every float by hex."""
    if reference_is_stale(tracker, now, STOP_WINDOW):
        freq, height, stale = 0.0, 0.0, True
    else:
        freq = reference_frequency(tracker, now, events)
        height = reference_step_height(tracker, now)
        stale = False
    return freq.hex(), height.hex(), stale


def estimate_bits(tracker, now):
    est = tracker.estimate(now)
    assert type(est) is GaitEstimate
    return est.step_frequency.hex(), est.step_height.hex(), est.stale


# a stream is a list of runs: each foot ramps linearly between two heights
# (0 means grounded) for a number of 90 Hz frames
height = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=0.25))
runs = st.lists(
    st.tuples(height, height, height, height, st.integers(min_value=1, max_value=100)),
    min_size=1,
    max_size=8,
)


@settings(max_examples=60, deadline=None)
@given(runs=runs, offsets=st.lists(st.floats(0.0, 3.0), max_size=4), blocks=st.booleans())
def test_estimate_equals_its_parts_and_the_staleness_definition(runs, offsets, blocks):
    """Checked after every sample, at the newest time fed. With blocks, all
    the left foot's samples go in before the right foot's first: feet may
    interleave in any order."""
    tracker = GaitTracker()
    events = []

    def check(now):
        stale = tracker.estimate(now).stale
        assert stale == reference_is_stale(tracker, now, STOP_WINDOW)
        assert estimate_bits(tracker, now) == reference_estimate(tracker, now, events)

    samples = []
    k = 0
    for left_a, left_b, right_a, right_b, n in runs:
        for i in range(n):
            u = i / n
            t = k / 90.0
            samples += [
                FootSample(t, Foot.LEFT, left_a + u * (left_b - left_a)),
                FootSample(t, Foot.RIGHT, right_a + u * (right_b - right_a)),
            ]
            k += 1
    if blocks:
        samples.sort(key=lambda s: s.foot is Foot.RIGHT)
    check(0.0)
    newest = 0.0
    for s in samples:
        events += stream(tracker, [s])
        newest = max(newest, s.time)
        check(newest)
    for offset in offsets:
        check(newest + offset)


# a segment of a stream, sampled at 90 Hz:
#   ("steps", cadence Hz, apex m, stance share, frames): half-sine swings,
#       feet half a cycle apart, so the right foot starts mid-swing
#   ("ramp", left from, left to, right from, right to, frames)
#   ("pause", seconds): both feet grounded, up to past RESUME_GAP
segments = st.lists(
    st.one_of(
        st.tuples(st.just("steps"), st.floats(0.4, 3.5), st.floats(0.0, 0.3),
                  st.floats(0.2, 0.7), st.integers(1, 300)),
        st.tuples(st.just("ramp"), height, height, height, height, st.integers(1, 60)),
        st.tuples(st.just("pause"), st.floats(0.0, 4.0)),
    ),
    min_size=1,
    max_size=6,
)


def segment_heights(segment):
    """(left, right) heights of each frame of one segment."""
    kind, *args = segment
    if kind == "pause":
        return [(0.0, 0.0)] * int(args[0] * 90.0)
    if kind == "ramp":
        left_a, left_b, right_a, right_b, n = args
        return [
            (left_a + i / n * (left_b - left_a), right_a + i / n * (right_b - right_a))
            for i in range(n)
        ]
    cadence, apex, stance, n = args
    return [
        tuple(
            cycle_height((k / 90.0 * cadence / 2.0 + offset) % 1.0, stance, apex)
            for offset in (0.0, 0.5)
        )
        for k in range(n)
    ]


@settings(max_examples=150, deadline=None)
@given(
    segments=segments,
    feet=st.sampled_from(["both", "left", "right"]),
    offsets=st.lists(st.floats(0.0, 4.0), max_size=6),
)
def test_estimate_equals_the_two_pass_reference(segments, feet, offsets):
    """estimate(now) equals the separate frequency, step-height and
    staleness passes bit for bit, on one- and two-foot streams, across
    pauses, and queried inside and past the stop window."""
    tracker = GaitTracker()
    events = []

    def check(now):
        assert estimate_bits(tracker, now) == reference_estimate(tracker, now, events)

    check(0.0)
    emit = [foot for foot in Foot if feet in ("both", foot.name.lower())]
    k = 0
    for segment in segments:
        for left, right in segment_heights(segment):
            t = k / 90.0
            events += stream(tracker, [
                FootSample(t, foot, left if foot is Foot.LEFT else right) for foot in emit
            ])
            check(t)
            k += 1
    last = max(k - 1, 0) / 90.0
    for offset in offsets:
        check(last + offset)


@settings(max_examples=40, deadline=None)
@given(segments=segments, feet=st.sampled_from(["both", "left", "right"]))
@example(
    segments=as_segments(BOUNDARY_GAITS["velocity at +-VELOCITY_DEADBAND"]), feet="both"
)
@example(segments=as_segments(BOUNDARY_GAITS[RESTART]), feet="both")
def test_plain_tuples_track_as_foot_samples(segments, feet):
    """A stream fed as FootSamples and the same stream fed as
    Samples.tuples() give equal step events and equal estimates."""
    emit = [foot for foot in Foot if feet in ("both", foot.name.lower())]
    named_rows = [
        FootSample(k / 90.0, foot, left if foot is Foot.LEFT else right)
        for k, (left, right) in enumerate(
            pair for segment in segments for pair in segment_heights(segment)
        )
        for foot in emit
    ]
    named, plain = GaitTracker(), GaitTracker()
    for s, row in zip(named_rows, Samples.of(named_rows).tuples()):
        assert repr(named.advance(s)) == repr(plain.advance(row))
        assert estimate_bits(named, s.time) == estimate_bits(plain, row[0])


def reference_emas(events):
    """The EMA row after events, recomputed from the StepEvents alone with
    None for none yet: the cadence EMA over footfall intervals (None again
    after a gap past RESUME_GAP; a zero-length interval is no sample), the
    apex EMA, the distinct feet among the last four events and the last
    footfall. Returned as a row: 0.0 for no EMA, NaN for no footfall."""
    freq_ema = apex_ema = last_footfall = None
    for event in events:
        if last_footfall is not None:
            delta = event.end - last_footfall
            if delta > RESUME_GAP:
                freq_ema = None
            elif delta > 0.0:
                freq = 1.0 / delta
                if freq_ema is None:
                    freq_ema = freq
                else:
                    freq_ema += (1.0 - math.exp(-delta / SMOOTHING_TAU)) * (freq - freq_ema)
        if apex_ema is None:
            apex_ema = event.apex_height
        else:
            dt = max(0.0, event.end - last_footfall)
            alpha = 1.0 - math.exp(-dt / SMOOTHING_TAU)
            apex_ema += alpha * (event.apex_height - apex_ema)
        last_footfall = event.end
    active_feet = len({e.foot for e in events[-4:]}) if events else 1
    return (
        0.0 if freq_ema is None else freq_ema,
        0.0 if apex_ema is None else apex_ema,
        active_feet,
        math.nan if last_footfall is None else last_footfall,
    )


@settings(max_examples=60, deadline=None)
@given(segments=segments, blocks=st.booleans())
@example(segments=as_segments(BOUNDARY_GAITS[RESTART]), blocks=False)
@example(segments=as_segments(BOUNDARY_GAITS["footfall gap of RESUME_GAP"]), blocks=False)
def test_the_ema_row_equals_a_reference_over_the_step_events(segments, blocks):
    """After every step event, the tracker's EMA row equals reference_emas
    of the events it has returned, every value by repr. With blocks, all
    the left foot's samples go in before the right foot's first, so
    footfall times may go backwards."""
    samples = [
        FootSample(k / 90.0, foot, h)
        for k, pair in enumerate(p for segment in segments for p in segment_heights(segment))
        for foot, h in zip(Foot, pair)
    ]
    if blocks:
        samples.sort(key=lambda s: s.foot is Foot.RIGHT)
    tracker, events = GaitTracker(), []
    assert list(map(repr, tracker._ema_row)) == list(map(repr, reference_emas(events)))
    for s in samples:
        event = tracker.advance(s)
        if event is not None:
            events.append(event)
            assert list(map(repr, tracker._ema_row)) == list(map(repr, reference_emas(events)))


# ---------------------------------------------------------------------------
# lanes of trackers in lockstep


def lane_heights(lanes):
    """(ticks, 2, lanes) heights: each lane's segments, grounded once done."""
    per_lane = [[h for segment in segments for h in segment_heights(segment)] for segments in lanes]
    ticks = max(map(len, per_lane))
    padded = [heights + [(0.0, 0.0)] * (ticks - len(heights)) for heights in per_lane]
    return np.array(padded).reshape(len(lanes), ticks, 2).transpose(1, 2, 0)


def flicker(k, phase):
    """A height that flickers across GROUND_EPSILON in swings that stay
    below MIN_STEP_HEIGHT."""
    return max(0.0, GROUND_EPSILON + 0.019 * math.sin(2.1 * k + phase))


# a jittery lane: flickers, a stretch of real steps, and flickers again
JITTERY = [
    *as_segments([(flicker(k, 0.0), flicker(k, 1.0)) for k in range(150)]),
    ("steps", 1.8, 0.08, 0.4, 100),
    *as_segments([(flicker(k, 2.0), flicker(k, 0.5)) for k in range(150)]),
]


@settings(max_examples=25, deadline=None)
@given(lanes=st.lists(segments, min_size=1, max_size=4), runs=st.lists(st.integers(1, 60)))
@example(  # many lift-offs and landings per run, in runs of uneven lengths
    lanes=[JITTERY, [("steps", 2.0, 0.12, 0.4, 400)]], runs=[1, 2, 3, 5, 8, 13, 21, 34, 55, 89]
)
@example(  # every threshold met exactly, with runs that split at the deadband switches
    lanes=[as_segments(ticks) for ticks in BOUNDARY_GAITS.values()], runs=[76, 13]
)
@example(  # a swing that plateaus at its apex: the apex time is the first
    lanes=[[("pause", 0.1), ("ramp", 0.1, 0.1, 0.0, 0.0, 20), ("pause", 0.1)]], runs=[7]
)
def test_tracker_lanes_equal_one_tracker_per_lane(lanes, runs):
    """Each lane's step events and its estimate after every tick equal those
    of a GaitTracker fed that lane's samples, bit for bit, however the ticks
    are split into runs; so does the state each run carries to the next."""
    heights = lane_heights(lanes)
    if not heights.size:
        return
    times = [k / 90.0 for k in range(len(heights))]
    trackers = [GaitTracker() for _ in lanes]
    events = [[] for _ in lanes]
    batch = TrackerLanes(len(lanes))
    want, got = [], []
    edges = [0, *np.cumsum(runs).tolist()]
    for a, b in zip(edges, [*edges[1:], len(times)]):
        if a >= min(b, len(times)):
            continue
        for t, tick in zip(times[a:b], heights[a:b]):
            row = []
            for lane, tracker in enumerate(trackers):
                for foot, h in zip(Foot, tick[:, lane].tolist()):
                    ev = tracker.advance(FootSample(t, foot, h))
                    if ev is not None:
                        events[lane].append(ev)
                est = tracker.estimate(t)
                row.append((est.step_frequency.hex(), est.step_height.hex()))
            want.append(row)
        freq, height = batch.advance(times[a:b], heights[a:b])
        got += [
            [(f.hex(), h.hex()) for f, h in zip(f_row, h_row)]
            for f_row, h_row in zip(freq.tolist(), height.tolist())
        ]
        assert carried_states(batch) == [tracker_state(tracker) for tracker in trackers]
    assert got == want
    assert [list(map(repr, e)) for e in batch.events] == [list(map(repr, e)) for e in events]


def carried(value):
    """A carried value as a tracker holds it: a flag, or a number's hex."""
    return value if isinstance(value, bool) else float(value).hex()


def tracker_state(tracker):
    """What a GaitTracker carries to its next sample: each foot's track but
    its time (TrackerLanes keeps one for both feet), the EMA row and the
    recent feet."""
    tracks = [[carried(getattr(track, name)) for name in gait._Swing._fields]
              for track in (tracker._left, tracker._right)]
    return [*tracks, [carried(x) for x in tracker._ema_row], list(tracker._recent_feet)]


def carried_states(batch):
    """tracker_state of each of batch's lanes, read from its (2, lanes)
    state columns and its EMA rows."""
    return [
        [
            *([carried(getattr(batch._state, name)[foot, lane].item()) for name in gait._Swing._fields]
              for foot in (0, 1)),
            [carried(x) for x in batch._emas[:, lane].tolist()],
            list(batch._recent_feet[lane]),
        ]
        for lane in range(len(batch.events))
    ]


def test_tracker_lanes_take_times_as_an_array_or_a_list():
    """An ndarray of times gives the events and carried times a list of
    them gives: floats, not numpy scalars."""
    ticks = BOUNDARY_GAITS["grounded for STOP_WINDOW"]  # footfalls at ticks 20 and 40
    heights = np.repeat(np.array(ticks)[..., None], 2, 2)
    times = np.arange(len(ticks)) / 90.0
    batches = TrackerLanes(2), TrackerLanes(2)
    for batch, run in zip(batches, (times, times.tolist())):
        batch.advance(run[:30], heights[:30])
        batch.advance(run[30:], heights[30:])
    as_array, as_list = ([list(map(repr, e)) for e in batch.events] for batch in batches)
    assert as_array == as_list and len(as_array[0]) == 2
    assert [repr(batch._prev_time) for batch in batches] == [repr(times[-1].item())] * 2


def test_tracker_lanes_carry_no_view_of_a_run():
    """The swing state and EMA rows carried to the next advance are copied
    out of the run's (ticks, 2, lanes) and (ticks, lanes, 4) arrays, so
    they keep neither alive."""
    ticks = BOUNDARY_GAITS["grounded for STOP_WINDOW"]  # footfalls at ticks 20 and 40
    batch = TrackerLanes(3)
    batch.advance([k / 90.0 for k in range(len(ticks))], np.repeat(np.array(ticks)[..., None], 3, 2))
    assert [len(events) for events in batch.events] == [2, 2, 2]
    assert [a.base is None for a in (*batch._state, batch._emas)] == [True] * 9


@pytest.mark.parametrize(
    "lanes, ticks, shape",
    [
        (2, 2, (1, 2, 2)),  # fewer ticks of heights than times
        (3, 1, (1, 2, 1)),  # one lane of heights broadcast to three
        (1, 1, (1, 1, 1)),  # one foot
        (2, 1, (1, 2, 2, 1)),
        (1, 0, (1, 2, 1)),  # heights for no times
        (1, 1, list),  # the right shape as nested lists, not an array
    ],
)
def test_tracker_lanes_reject_heights_of_another_shape(lanes, ticks, shape):
    batch = TrackerLanes(lanes)
    want = (ticks, 2, lanes)
    if shape is list:
        heights, message = np.zeros(want).tolist(), "heights must be an ndarray, got list"
    else:
        heights, message = np.zeros(shape), f"heights have shape {shape}, not {want}"
    with pytest.raises(ValueError) as raised:
        batch.advance([k / 90.0 for k in range(ticks)], heights)
    assert str(raised.value) == message
    assert batch._prev_time is None and batch._state is None


def test_a_tracker_lanes_run_of_no_ticks_changes_nothing():
    """An empty run returns (0, lanes) columns, before and after real ones,
    and the runs around it give what they give without it."""
    ticks = BOUNDARY_GAITS["grounded for STOP_WINDOW"]
    heights = np.repeat(np.array(ticks)[..., None], 3, 2)
    times = [k / 90.0 for k in range(len(ticks))]
    batch, plain = TrackerLanes(3), TrackerLanes(3)
    got = []
    for part in (slice(0, 0), slice(0, 25), slice(25, 25), slice(25, None), slice(0, 0)):
        columns = batch.advance(times[part], heights[part])
        assert [c.shape for c in columns] == [(len(times[part]), 3)] * 2
        got.append(columns)
    want = [plain.advance(times[:25], heights[:25]), plain.advance(times[25:], heights[25:])]
    for columns, expected in zip((got[1], got[3]), want):
        assert [c.tobytes() for c in columns] == [c.tobytes() for c in expected]
    assert [list(map(repr, e)) for e in batch.events] == [list(map(repr, e)) for e in plain.events]


def test_numpy_complex_maximum_is_lexicographic():
    """_swing_scan's running apex is a running np.maximum of complex (swing
    start, height) pairs: it must order them by real part, then by
    imaginary part, and return one of its arguments unchanged."""
    rng = np.random.default_rng(20260607)
    real = rng.integers(0, 4, (2, 20_000)) / 90.0
    imag = np.where(rng.random((2, 20_000)) < 0.2, -np.inf, rng.integers(0, 6, (2, 20_000)) / 50.0)
    pairs = np.empty((2, 20_000), complex)
    pairs.real, pairs.imag = real, imag  # 1j * -inf would have a NaN real part
    a, b = pairs
    got = np.maximum(a, b)
    first = (a.real > b.real) | ((a.real == b.real) & (a.imag >= b.imag))
    assert got.tobytes() == np.where(first, a, b).tobytes()
    best, want = None, []
    for z in a[:500].tolist():
        if best is None or (z.real, z.imag) > (best.real, best.imag):
            best = z
        want.append(best)
    assert np.maximum.accumulate(a[:500]).tolist() == want


@pytest.mark.parametrize(
    "ticks, error",
    [
        ([(0.0, [[0.0], [2.5]])], OutOfRangeHeight),
        ([(0.0, [[0.0], [0.0]]), (0.1, [[math.nan], [0.0]])], OutOfRangeHeight),
        ([(0.0, [[0.0], [0.0]]), (0.2, [[math.inf], [0.0]]), (0.3, [[math.inf], [0.0]])],
         OutOfRangeHeight),
        ([(0.0, [[0.0], [0.0]]), (0.0, [[0.0], [0.0]])], NonMonotonicTime),
        ([(math.nan, [[0.0], [0.0]])], NonMonotonicTime),
    ],
)
@pytest.mark.parametrize("together", [True, False])
def test_tracker_lanes_validate_every_tick(ticks, error, together):
    batch = TrackerLanes(1)
    times, heights = zip(*ticks)
    with pytest.raises(error):
        if together:
            batch.advance(list(times), np.array(heights))
        for t, h in ticks:
            batch.advance([t], np.array([h]))


# ---------------------------------------------------------------------------
# estimator invariants


@st.composite
def estimated_traces(draw):
    """A synth_trace program's samples, streamed through a tracker, and the
    estimate_frames columns of the same samples."""
    program = GaitProgram(
        step_frequency=draw(st.sampled_from([0.0, 0.5, 2.0]) | st.floats(0.0, 4.0)),
        apex_height=draw(st.floats(0.0, 0.35)),
        noise_sd=draw(st.sampled_from([0.0, 0.003, 0.01])),
        seed=draw(st.integers(0, 2**16)),
    )
    trace = synth_trace(program, draw(st.floats(0.1, 5.0)), draw(st.sampled_from([30.0, 90.0])))
    if draw(st.booleans()):  # then both feet stand still past the stop window
        end = trace.time[-1].item()
        trace = Samples.of([*map(FootSample._make, trace.tuples())] + [
            FootSample(end + k / 30.0, foot, 0.0) for k in range(1, 40) for foot in Foot
        ])
    return trace, estimate_frames(trace)


@pytest.mark.parametrize(
    "samples",
    [Samples(np.empty(0), np.empty(0, bool), np.empty(0)), Samples.of([])],
    ids=["Samples", "list"],  # empty columns, and the columns of an empty list of rows
)
def test_estimate_frames_of_an_empty_stream_has_no_frames(samples):
    *columns, events = estimate_frames(samples)
    assert events == []
    assert [column.shape for column in columns] == [(0,)] * len(columns)


def frame_states(trace):
    """The streaming tracker after each frame's samples: (time, tracker)."""
    rows = list(trace.tuples())
    tracker = GaitTracker()
    for i, row in enumerate(rows):
        tracker.advance(row)
        if i + 1 == len(rows) or rows[i + 1][0] != row[0]:
            yield row[0], tracker


@settings(max_examples=40, deadline=None)
@given(case=estimated_traces())
def test_frequency_never_exceeds_an_active_partial_bound_or_the_gap_bound(case):
    trace, frames = case
    for (now, tracker), freq in zip(frame_states(trace), frames.step_frequency.tolist()):
        state = footfall_state(tracker)
        for track in tracks(tracker):
            anchor = track.swing_start if track.valid else track.entered_at
            if phase(track) != GROUNDED and now > anchor:
                partial = SWING_FRACTION / (now - anchor)
                assert freq <= PARTIAL_SLACK * state.active_feet * partial
        if state.last_footfall is not None and now > state.last_footfall:
            assert freq <= PARTIAL_SLACK / (now - state.last_footfall)


@settings(max_examples=40, deadline=None)
@given(case=estimated_traces())
def test_a_stale_frame_has_zero_frequency_and_height(case):
    trace, frames = case
    for (now, tracker), freq, height in zip(
        frame_states(trace), frames.step_frequency.tolist(), frames.step_height.tolist()
    ):
        if tracker.estimate(now).stale:
            assert freq == 0.0 and height == 0.0


def check_step_event(event):
    """What a StepEvent's producer guarantees: the record has no checks."""
    assert type(event) is StepEvent
    assert event.start < event.apex_time < event.end
    assert event.apex_height >= MIN_STEP_HEIGHT


@settings(max_examples=40, deadline=None)
@given(case=estimated_traces())
def test_the_tracker_makes_records_that_hold_their_invariants(case):
    """Every StepEvent GaitTracker.advance and estimate_frames give has
    start < apex_time < end and an apex of at least MIN_STEP_HEIGHT, and
    every estimate(t) is >= 0; a stale one is (0.0, 0.0)."""
    trace, _ = case
    tracker, events = GaitTracker(), []
    for row in trace.tuples():
        event = tracker.advance(row)
        if event is not None:
            events.append(event)
        estimate = tracker.estimate(row[0])
        assert type(estimate) is GaitEstimate
        assert estimate.step_frequency >= 0.0 and estimate.step_height >= 0.0
        if estimate.stale:
            assert estimate[:2] == (0.0, 0.0)
    for event in events + estimate_frames(trace).events:
        check_step_event(event)


@settings(max_examples=25, deadline=None)
@given(cases=st.lists(estimated_traces(), min_size=1, max_size=4),
       runs=st.lists(st.integers(1, 60)))
def test_tracker_lanes_make_records_that_hold_their_invariants(cases, runs):
    """The same for TrackerLanes: each lane steps through a trace's heights,
    grounded once done, at 90 Hz, in runs."""
    ticks = max(len(trace) // 2 for trace, _ in cases)
    heights = np.zeros((ticks, 2, len(cases)))
    for lane, (trace, _) in enumerate(cases):
        heights[:len(trace) // 2, :, lane] = trace.height.reshape(-1, 2)
    times = [k / 90.0 for k in range(ticks)]
    batch = TrackerLanes(len(cases))
    edges = [0, *np.cumsum(runs).tolist()]
    for a, b in zip(edges, [*edges[1:], ticks]):
        freq, height = batch.advance(times[a:b], heights[a:b])
        assert (freq >= 0.0).all() and (height >= 0.0).all()
    for event in (event for events in batch.events for event in events):
        check_step_event(event)


@settings(max_examples=40, deadline=None)
@given(case=estimated_traces())
def test_step_height_stays_within_the_highest_apex_seen(case):
    trace, frames = case
    highest = np.maximum.accumulate(np.maximum(frames.height_left, frames.height_right))
    assert (frames.step_height >= 0.0).all()
    assert (frames.step_height <= highest).all()
