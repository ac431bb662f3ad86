"""Gait tracker: phase machine, step events, cadence/apex estimation.

The streaming tracker is checked against a brute-force offline segmenter
written independently here: scan each foot's samples for maximal runs
above the ground threshold that are bracketed by grounded samples, keep
those whose peak clears the step floor.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wiplab.core import Foot, FootSample, GaitEstimate, NonMonotonicTime, OutOfRangeHeight
from wiplab.gait import (
    GROUND_EPSILON,
    MIN_STEP_HEIGHT,
    PARTIAL_SLACK,
    SMOOTHING_TAU,
    STOP_WINDOW,
    SWING_FRACTION,
    GaitTracker,
    Phase,
    StepEvent,
    TrackerLanes,
    estimate_frames,
)
from wiplab.synth import GaitProgram, cycle_height, synth_trace

EPS = GROUND_EPSILON
MIN_APEX = MIN_STEP_HEIGHT

# Transitions a foot's phase machine may take; anything else is a bug.
LEGAL_TRANSITIONS = frozenset(
    {
        (Phase.GROUNDED, Phase.ASCENDING),
        (Phase.ASCENDING, Phase.DESCENDING),
        (Phase.DESCENDING, Phase.GROUNDED),
        (Phase.DESCENDING, Phase.ASCENDING),  # re-lift mid-descent
        (Phase.ASCENDING, Phase.GROUNDED),    # aborted micro-step
    }
)


def tracks(tracker):
    """The tracker's per-foot tracks, for the feet it has seen."""
    return [track for track in (tracker._left, tracker._right) if track is not None]


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
    return synth_trace(
        GaitProgram(step_frequency=freq, apex_height=apex, noise_sd=noise, seed=seed),
        duration,
        rate,
    )


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


def test_step_event_rejects_bad_ordering():
    with pytest.raises(ValueError):
        StepEvent(foot=Foot.LEFT, start=1.0, apex_time=0.9, end=1.2, apex_height=0.1)
    with pytest.raises(ValueError):
        StepEvent(foot=Foot.LEFT, start=1.0, apex_time=1.1, end=1.2, apex_height=0.0)


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
    assert tracker._left.phase is Phase.ASCENDING


def test_advance_validates_its_stream():
    tracker = GaitTracker()
    tracker.advance(FootSample(0.0, Foot.LEFT, 0.0))
    with pytest.raises(NonMonotonicTime):
        tracker.advance(FootSample(0.0, Foot.LEFT, 0.1))
    with pytest.raises(OutOfRangeHeight):
        tracker.advance(FootSample(1.0, Foot.LEFT, 3.0))


@settings(max_examples=50, deadline=None)
@given(
    heights=st.lists(st.floats(min_value=0.0, max_value=0.4), min_size=2, max_size=60)
)
def test_phase_transitions_stay_legal(heights):
    tracker = GaitTracker()
    seen = []
    for k, h in enumerate(heights):
        tracker.advance(FootSample(k / 90.0, Foot.LEFT, h))
        seen.append(tracker._left.phase)
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
    events = stream(tracker, first + pause + resumed)
    resumed_events = [ev for ev in events if ev.end >= 7.0]
    assert len(resumed_events) >= 4
    # the third footfall after the pause arrives quickly and by the end of
    # the resumed segment the cadence estimate is back
    assert resumed_events[2].end - 7.0 < 3.0
    assert tracker.estimate(resumed[-1].time).step_frequency == pytest.approx(2.0, rel=0.05)


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
    if any(track.phase is not Phase.GROUNDED for track in seen):
        return False
    return now - max(track.entered_at for track in seen) >= stop_window


def reference_frequency(tracker, now, events):
    """Cadence as a separate pass over the tracks: the smallest of the
    footfall EMA, each swing's partial bound and the footfall-gap bound.
    The partial bound scales with the distinct feet among the last four of
    the step events the tracker has returned."""
    if tracker._freq_ema is None:
        return 0.0
    active_feet = len({e.foot for e in events[-4:]}) if events else 1
    candidates = [tracker._freq_ema]
    for track in (tracker._left, tracker._right):
        if track is None or track.phase is Phase.GROUNDED:
            continue
        anchor = track.swing_start if track.swing_valid else track.entered_at
        elapsed = now - anchor
        if elapsed > 0.0:
            partial = SWING_FRACTION / elapsed
            candidates.append(PARTIAL_SLACK * active_feet * partial)
    if tracker._last_footfall is not None:
        gap = now - tracker._last_footfall
        if gap > 0.0:
            candidates.append(PARTIAL_SLACK / gap)
    return max(0.0, min(candidates))


def reference_step_height(tracker, now):
    """Step height as a separate pass over the tracks: the apex EMA, blended
    up toward the running apex of each observed swing in progress."""
    base = tracker._apex_ema if tracker._apex_ema is not None else 0.0
    value = base
    for track in (tracker._left, tracker._right):
        if track is None or track.phase is Phase.GROUNDED or not track.swing_valid:
            continue
        if track.running_apex <= base:
            continue
        weight = min(1.0, max(0.0, (now - track.swing_start) / SMOOTHING_TAU))
        value = max(value, base + weight * (track.running_apex - base))
    return value


def reference_estimate(tracker, now, events):
    """(step_frequency, step_height, as_of, stale), every float by hex."""
    if reference_is_stale(tracker, now, STOP_WINDOW):
        freq, height, stale = 0.0, 0.0, True
    else:
        freq = reference_frequency(tracker, now, events)
        height = reference_step_height(tracker, now)
        stale = False
    return freq.hex(), height.hex(), now.hex(), stale


def estimate_bits(tracker, now):
    est = tracker.estimate(now)
    assert type(est) is GaitEstimate
    return est.step_frequency.hex(), est.step_height.hex(), est.as_of.hex(), est.stale


# a stream is a list of runs: each foot ramps linearly between two heights
# (0 means grounded) for a number of 90 Hz frames
height = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=0.25))
runs = st.lists(
    st.tuples(height, height, height, height, st.integers(min_value=1, max_value=100)),
    min_size=1,
    max_size=8,
)


@settings(max_examples=60, deadline=None)
@given(runs=runs, offsets=st.lists(st.floats(0.0, 3.0), max_size=4))
def test_estimate_equals_its_parts_and_the_staleness_definition(runs, offsets):
    tracker = GaitTracker()
    events = []

    def check(now):
        stale = tracker.is_stale(now)
        assert stale == reference_is_stale(tracker, now, STOP_WINDOW)
        assert estimate_bits(tracker, now) == reference_estimate(tracker, now, events)

    check(0.0)
    k = 0
    for left_a, left_b, right_a, right_b, n in runs:
        for i in range(n):
            u = i / n
            t = k / 90.0
            events += stream(tracker, [
                FootSample(t, Foot.LEFT, left_a + u * (left_b - left_a)),
                FootSample(t, Foot.RIGHT, right_a + u * (right_b - right_a)),
            ])
            check(t)
            k += 1
    for offset in offsets:
        check((k - 1) / 90.0 + offset)


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


# ---------------------------------------------------------------------------
# lanes of trackers in lockstep


def lane_heights(lanes):
    """(ticks, 2, lanes) heights: each lane's segments, grounded once done."""
    per_lane = [[h for segment in segments for h in segment_heights(segment)] for segments in lanes]
    ticks = max(map(len, per_lane))
    padded = [heights + [(0.0, 0.0)] * (ticks - len(heights)) for heights in per_lane]
    return np.array(padded).reshape(len(lanes), ticks, 2).transpose(1, 2, 0)


@settings(max_examples=25, deadline=None)
@given(lanes=st.lists(segments, min_size=1, max_size=4), runs=st.lists(st.integers(1, 60)))
@example(  # a swing that plateaus at its apex: the apex time is the first
    lanes=[[("pause", 0.1), ("ramp", 0.1, 0.1, 0.0, 0.0, 20), ("pause", 0.1)]], runs=[7]
)
def test_tracker_lanes_equal_one_tracker_per_lane(lanes, runs):
    """Each lane's step events and its estimate after every tick equal those
    of a GaitTracker fed that lane's samples, bit for bit, however the ticks
    are split into runs."""
    heights = lane_heights(lanes)
    if not heights.size:
        return
    times = [k / 90.0 for k in range(len(heights))]
    trackers = [GaitTracker() for _ in lanes]
    events = [[] for _ in lanes]
    want = []
    for t, tick in zip(times, heights):
        row = []
        for lane, tracker in enumerate(trackers):
            for foot, h in zip(Foot, tick[:, lane].tolist()):
                ev = tracker.advance(FootSample(t, foot, h))
                if ev is not None:
                    events[lane].append(ev)
            est = tracker.estimate(t)
            row.append((est.step_frequency.hex(), est.step_height.hex()))
        want.append(row)
    batch = TrackerLanes(len(lanes))
    got = []
    edges = [0, *np.cumsum(runs).tolist()]
    for a, b in zip(edges, [*edges[1:], len(times)]):
        if a < min(b, len(times)):
            freq, height = batch.advance(times[a:b], heights[a:b])
            got += [
                [(f.hex(), h.hex()) for f, h in zip(f_row, h_row)]
                for f_row, h_row in zip(freq.tolist(), height.tolist())
            ]
    assert got == want
    assert [list(map(repr, e)) for e in batch.events] == [list(map(repr, e)) for e in events]


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
        end = trace[-1].time
        trace += [FootSample(end + k / 30.0, foot, 0.0) for k in range(1, 40) for foot in Foot]
    return trace, estimate_frames(trace, [])


def frame_states(trace):
    """The streaming tracker after each frame's samples: (time, tracker)."""
    tracker = GaitTracker()
    for i, s in enumerate(trace):
        tracker.advance(s)
        if i + 1 == len(trace) or trace[i + 1].time != s.time:
            yield s.time, tracker


@settings(max_examples=40, deadline=None)
@given(case=estimated_traces())
def test_frequency_never_exceeds_an_active_partial_bound_or_the_gap_bound(case):
    trace, frames = case
    for (now, tracker), freq in zip(frame_states(trace), frames.step_frequency.tolist()):
        for track in tracks(tracker):
            anchor = track.swing_start if track.swing_valid else track.entered_at
            if track.phase is not Phase.GROUNDED and now > anchor:
                partial = SWING_FRACTION / (now - anchor)
                assert freq <= PARTIAL_SLACK * tracker._active_feet * partial
        if tracker._last_footfall is not None and now > tracker._last_footfall:
            assert freq <= PARTIAL_SLACK / (now - tracker._last_footfall)


@settings(max_examples=40, deadline=None)
@given(case=estimated_traces())
def test_a_stale_frame_has_zero_frequency_and_height(case):
    trace, frames = case
    for (now, tracker), freq, height in zip(
        frame_states(trace), frames.step_frequency.tolist(), frames.step_height.tolist()
    ):
        if tracker.is_stale(now):
            assert freq == 0.0 and height == 0.0


@settings(max_examples=40, deadline=None)
@given(case=estimated_traces())
def test_step_height_stays_within_the_highest_apex_seen(case):
    trace, frames = case
    highest = np.maximum.accumulate(np.maximum(frames.height_left, frames.height_right))
    assert (frames.step_height >= 0.0).all()
    assert (frames.step_height <= highest).all()
