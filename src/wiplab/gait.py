"""Per-foot gait phase recognition and real-time cadence and step-height
estimation from foot-height streams.

Each foot runs a three-state machine (grounded / ascending / descending)
held as two flags: aerial, keyed on a ground threshold, and descending,
flipped by a vertical-velocity deadband. Completed steps become
StepEvents; cadence is smoothed from footfall intervals and, between
footfalls, bounded by partial-phase evidence so the estimate decays within
a fraction of a step when the user slows or stops. The footfall state, the
cadence and apex EMAs, the active feet and the latest footfall time, is one
row that _footfall registers each StepEvent into.

Grounded is defined purely by height against GROUND_EPSILON. That keeps
streaming segmentation equivalent to brute-force offline segmentation of
the same samples (contiguous above-threshold regions), which the test
suite exploits as an oracle.

GaitTracker.advance, the live path, steps a foot one (time, foot, height)
sample at a time with validate_sample's predicates inline; _swing_scan, its
array form, gives the same _Swing after every sample at once. The array
paths, estimate_frames over a recorded core.Samples and TrackerLanes over
lanes stepped in lockstep, check their stream first with core.stream_fault.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .core import (
    HEIGHT_CEILING,
    HEIGHT_FLOOR,
    Foot,
    FootSample,
    GaitEstimate,
    NonMonotonicTime,
    Samples,
    _not_a_foot,
    stream_fault,
    validate_sample,
)

# Reading an enum member through its class costs ~0.1 us on CPython 3.11;
# the per-frame paths compare against these constants instead.
_FEET = _LEFT, _RIGHT = Foot.LEFT, Foot.RIGHT
_LEFT_ROW = np.array([[True], [False]])  # TrackerLanes' feet, broadcast over lanes
_INF = math.inf
# estimate() builds its result directly: its values hold GaitEstimate's
# invariants (non-negative, zero frequency when stale) by construction.
_new_estimate = tuple.__new__


@dataclass(frozen=True, slots=True)
class StepEvent:
    """One completed step: lift-off, apex, and re-grounding."""

    foot: Foot
    start: float        # s, last grounded sample before lift-off
    apex_time: float    # s
    end: float          # s, first re-grounded sample
    apex_height: float  # m

    def __post_init__(self) -> None:
        if not (self.start < self.apex_time < self.end):
            raise ValueError("step event must satisfy start < apex_time < end")
        if self.apex_height <= 0.0:
            raise ValueError("step apex must be positive")


# the slot descriptors' setters, in field order
_SET_FOOT, _SET_START, _SET_APEX_TIME, _SET_END, _SET_APEX_HEIGHT = (
    getattr(StepEvent, field.name).__set__ for field in fields(StepEvent)
)


def _step_event(
    foot: Foot, start: float, apex_time: float, end: float, apex_height: float
) -> StepEvent:
    """StepEvent(...) for a completed swing, whose values hold its checks by
    construction, built through the slot descriptors at half the cost."""
    event = object.__new__(StepEvent)
    _SET_FOOT(event, foot)
    _SET_START(event, start)
    _SET_APEX_TIME(event, apex_time)
    _SET_END(event, end)
    _SET_APEX_HEIGHT(event, apex_height)
    return event


# Tracker thresholds and smoothing constants. SWING_FRACTION is the nominal
# share of one per-foot gait cycle spent in the air (0.3 ascending plus 0.3
# descending); it drives the partial-step frequency bound. PARTIAL_SLACK
# tolerates one sample of censoring at the phase boundary so steady gait is
# never dragged below its true cadence.
GROUND_EPSILON = 0.01     # m, grounded iff height <= this
VELOCITY_DEADBAND = 0.05  # m/s, hysteresis between aerial phases
MIN_STEP_HEIGHT = 0.03    # m, smaller apexes are jitter, not steps
SWING_FRACTION = 0.6
SMOOTHING_TAU = 0.5       # s, EMA time constant for cadence and apex
STOP_WINDOW = 0.8         # s without activity means stopped
RESUME_GAP = 2.5          # s, footfall gaps past this are a restart
PARTIAL_SLACK = 1.15


class _Swing(NamedTuple):
    """One foot's GaitTracker.advance state, a _FootTrack without its
    prev_time. The phase is split into aerial (not grounded) and descending.
    _swing_scan returns the state after each row as arrays; a carried-in
    state has no row axis."""

    aerial: np.ndarray
    descending: np.ndarray    # only while aerial
    valid: np.ndarray         # aerial in a swing whose lift-off was seen
    height: np.ndarray        # of the latest sample
    swing_start: np.ndarray   # the last grounded sample's time before lift-off
    running_apex: np.ndarray
    apex_time: np.ndarray
    entered_at: np.ndarray    # time of the latest phase change


# a foot with no sample yet: never aerial, grounded since -inf, so that
# staleness reads the other foot's entry
_UNSEEN = _Swing(False, False, False, 0.0, 0.0, 0.0, 0.0, -_INF)
# the EMA row before any footfall: no cadence EMA, no apex EMA, one active
# foot, no footfall to bound the gap
_NO_FOOTFALL = (0.0, 0.0, 1, np.nan)


def _footfall(row: tuple, recent: deque, event: StepEvent) -> tuple[float, float, int, float]:
    """The EMA row (cadence EMA, apex EMA, active feet, footfall time) after
    event, from the row before it; event's foot joins recent, the feet of
    the last four events. 0.0 is no EMA yet and NaN no footfall yet: a real
    EMA is > 0, and a NaN gap fails every comparison."""
    freq, apex, _, before = row
    recent.append(event.foot)
    delta = event.end - before
    if delta > RESUME_GAP:
        # gait restarted after a pause; the spanning interval is not a
        # cadence sample, so re-seed on the next real one. (Deliberately
        # longer than STOP_WINDOW: slow but continuous gait has footfall
        # gaps well past the stop threshold, and staleness is judged on
        # phase activity.)
        freq = 0.0
    elif delta > 0.0:  # 0 when noise grounds both feet on one tick: no cadence
        alpha = 1.0 - math.exp(-delta / SMOOTHING_TAU)
        freq = 1.0 / delta if freq == 0.0 else freq + alpha * (1.0 / delta - freq)
    if apex == 0.0:
        apex = event.apex_height
    else:
        apex += (1.0 - math.exp(-max(0.0, delta) / SMOOTHING_TAU)) * (event.apex_height - apex)
    # distinct feet among the last four events; Enum hashing runs in Python
    return freq, apex, (_LEFT in recent) + (_RIGHT in recent), event.end


@dataclass(slots=True)
class _FootTrack:
    """_Swing's fields as scalars, and the time of the foot's latest sample:
    -inf before its first, when the rest are _UNSEEN's."""

    aerial: bool
    descending: bool
    valid: bool
    height: float
    swing_start: float
    running_apex: float
    apex_time: float
    entered_at: float
    prev_time: float


class GaitTracker:
    """Single-owner mutable tracker; create one per user session.

    Feed samples through advance() in time order (feet may interleave) and
    query estimate() at any time at or after the newest sample. The
    thresholds and smoothing constants are this module's constants.

    Each foot's state is a _FootTrack: the flags and times _swing_scan
    gives, one sample at a time. The footfall state is the EMA row, which
    _footfall replaces at each step event. estimate() checks staleness
    once per query from the two tracks, so the order across feet does not
    affect it, then derives frequency and step height from the row in one
    pass over the two feet; is_stale() is its stale flag.
    """

    def __init__(self):
        self._left = _FootTrack(*_UNSEEN, -_INF)
        self._right = _FootTrack(*_UNSEEN, -_INF)
        self._recent_feet: deque[Foot] = deque(maxlen=4)  # feet of the last four events
        self._ema_row = _NO_FOOTFALL  # after the latest footfall

    # ------------------------------------------------------------------
    # ingestion

    def advance(self, sample: tuple[float, Foot, float]) -> StepEvent | None:
        """Ingest one (time, foot, height) sample, a FootSample or a plain
        tuple; returns a StepEvent when a step completes. A sample failing
        validate_sample's predicates, checked inline, raises from
        validate_sample, and a foot that is not a Foot member ValueError."""
        t, foot, h = sample
        if foot is _LEFT:
            track = self._left
        elif foot is _RIGHT:
            track = self._right
        else:
            raise _not_a_foot(foot)
        prev = track.prev_time
        if not (0.0 <= prev < t < _INF and HEIGHT_FLOOR <= h <= HEIGHT_CEILING):
            first = prev < 0.0  # an unseen foot's prev_time is -inf
            validate_sample(FootSample._make(sample), None if first else prev)
            if first:
                # a foot first seen in the air has no known lift-off; its
                # swing is discarded
                track.entered_at = track.prev_time = t
                track.height = h
                if h > GROUND_EPSILON:
                    track.aerial, track.running_apex, track.apex_time = True, h, t
                return None
        grounded = h <= GROUND_EPSILON

        event: StepEvent | None = None
        if not track.aerial:
            if grounded:
                # the common case: a standing foot stays standing
                track.prev_time = t
                track.height = h
                return None
            track.aerial = True
            track.swing_start = prev
            track.valid = True
            track.running_apex = h
            track.apex_time = t
        elif grounded:
            track.aerial = track.descending = False
            if track.valid and track.running_apex >= MIN_STEP_HEIGHT:
                event = _step_event(foot, track.swing_start, track.apex_time, t, track.running_apex)
                self._ema_row = _footfall(self._ema_row, self._recent_feet, event)
            track.valid = False
        else:
            if h > track.running_apex:
                track.running_apex = h
                track.apex_time = t
            velocity = (h - track.height) / (t - prev)
            if not (velocity > VELOCITY_DEADBAND if track.descending else velocity < -VELOCITY_DEADBAND):
                track.prev_time = t
                track.height = h
                return None
            track.descending = not track.descending

        # the phase changed
        track.entered_at = t
        track.prev_time = t
        track.height = h
        return event

    # ------------------------------------------------------------------
    # queries

    def is_stale(self, now: float) -> bool:
        """Stopped: estimate(now)'s stale flag."""
        return self.estimate(now).stale

    def estimate(self, now: float) -> GaitEstimate:
        """Cadence and step height at `now`, the two arguments of a speed
        law; both are 0 when stale: both feet grounded, each for STOP_WINDOW
        or more (an unseen foot since -inf), _estimate_columns' rule.

        Cadence: the committed value is an EMA over completed footfall
        intervals. A phase in progress contributes a partial bound
        SWING_FRACTION / elapsed (scaled to cadence by the number of active
        feet), and the gap since the last footfall bounds likewise, so
        slowing decays the estimate before the next footfall confirms it.
        The smallest of these wins; 0 before two footfalls have been seen
        (the row's cadence EMA is 0.0 until then, and no bound is lower).

        Step height: an EMA over completed step apexes, blended upward with
        the running apex of any observed swing in progress, so a user
        stepping higher is seen before the step completes.

        One pass over the two feet gathers both bounds.
        """
        left, right = self._left, self._right
        grounded = not (left.aerial or right.aerial)
        if grounded and now - max(left.entered_at, right.entered_at) >= STOP_WINDOW:
            return _new_estimate(GaitEstimate, (0.0, 0.0, now, True))
        freq, base, active_feet, footfall = self._ema_row
        height = base
        partial_scale = PARTIAL_SLACK * active_feet
        for track in (left, right):
            if not track.aerial:
                continue
            if track.valid:
                # anchor at lift-off when it was observed; the whole-swing
                # budget keeps the bound independent of where the deadband
                # happens to split ascent from descent
                anchor = track.swing_start
                apex = track.running_apex
                if apex > base:
                    weight = (now - anchor) / SMOOTHING_TAU
                    if not weight > 0.0:
                        weight = 0.0
                    elif not weight < 1.0:
                        weight = 1.0
                    blended = base + weight * (apex - base)
                    if blended > height:
                        height = blended
            else:
                anchor = track.entered_at
            # with no cadence EMA (0.0) no positive bound is lower
            elapsed = now - anchor
            if elapsed > 0.0:
                bound = partial_scale * (SWING_FRACTION / elapsed)
                if bound < freq:
                    freq = bound
        gap = now - footfall  # NaN before any footfall
        if gap > 0.0:
            bound = PARTIAL_SLACK / gap
            if bound < freq:
                freq = bound
        if not freq > 0.0:
            freq = 0.0
        return _new_estimate(GaitEstimate, (freq, height, now, False))


# ----------------------------------------------------------------------
# whole-stream estimation for replay


class FrameEstimates(NamedTuple):
    """Per-frame columns of a replayed stream, one frame per distinct sample
    time: what the frame loop reads from its samples and from estimate(t)."""

    time: np.ndarray
    height_left: np.ndarray   # m, 0 where the foot has no sample in the frame
    height_right: np.ndarray
    step_frequency: np.ndarray
    step_height: np.ndarray


def _first_swing(time, height) -> _Swing:
    """The state to scan a foot's first sample (at time, of height) from.
    The scan gives that sample -inf as its previous time, so its velocity
    reads 0 and the scan leaves the state advance() starts a track with."""
    aerial, no = height > GROUND_EPSILON, np.zeros_like(height, bool)
    zero = np.zeros_like(height)
    return _Swing(aerial, no, no, height, zero, zero, zero, np.full_like(zero, time))


def _running_max(first, values: np.ndarray) -> np.ndarray:
    """first, then the running max of first and values down axis 0."""
    return np.maximum.accumulate(np.concatenate(([first], values)), axis=0)


def _swing_scan(now: np.ndarray, before: np.ndarray, heights: np.ndarray, state: _Swing) -> _Swing:
    """GaitTracker.advance's per-foot state after each row of heights, by
    array scans down axis 0 with no loop over rows.

    now holds each row's time and before the foot's previous sample time;
    heights and state broadcast over any trailing axes, and state is the
    one carried in, which stands at row -1. Times are running maxima of
    event times, the descending flip-flop a running max of coded set and
    reset rows, and the running apex, restarted at each lift-off, a running
    numpy complex maximum of (swing start, height): lexicographic, and the
    swing start grows at each lift-off. Every value is a comparison or a
    selected input, so the state is advance()'s, bit for bit, on a stream
    core.stream_fault accepts; the callers check that first.
    """
    col = now.reshape(-1, *(1,) * (heights.ndim - 1))
    before = before.reshape(col.shape)
    airborne = heights > GROUND_EPSILON
    was_aerial = np.concatenate(([state.aerial], airborne[:-1]))
    lift, staying_up = airborne > was_aerial, airborne & was_aerial
    velocity = np.diff(heights, axis=0, prepend=[state.height]) / (col - before)
    # row 0 of the running maxima is the carried-in value, row k + 1 the one after row k
    swing_start = _running_max(state.swing_start, np.where(lift, before, -np.inf))
    # valid: lifted off since last grounded, or still in a carried-in valid swing
    valid = airborne & (state.valid | ~state.aerial | np.logical_or.accumulate(~airborne, axis=0))
    # descending: set by falling, reset by rising or by leaving a staying-aloft
    # stretch; the latest wins, a fall at row r coded 2r + 1 and a reset 2r
    rows = 2 * np.arange(len(heights)).reshape(col.shape)
    code = np.where(staying_up & (velocity < -VELOCITY_DEADBAND), rows + 1, np.where(
        ~staying_up | (velocity > VELOCITY_DEADBAND), rows, np.where(state.descending, -1, -2)
    ))
    descending = (np.maximum.accumulate(code, axis=0) & 1).astype(bool)
    key = np.empty(swing_start.shape, complex)
    key.real, key.imag = swing_start, np.concatenate(
        ([state.running_apex], np.where(airborne, heights, -np.inf))
    )
    apex = np.maximum.accumulate(key, axis=0).imag
    apex_time = _running_max(
        state.apex_time, np.where(lift | (airborne & (heights > apex[:-1])), col, -np.inf)
    )
    changed = (airborne != was_aerial) | (
        descending != np.concatenate(([state.descending], descending[:-1]))
    )
    entered_at = _running_max(state.entered_at, np.where(changed, col, -np.inf))
    return _Swing(
        airborne, descending, valid, heights, swing_start[1:], apex[1:], apex_time[1:],
        entered_at[1:],
    )


def _frame_swings(t: np.ndarray, h: np.ndarray, frame: np.ndarray, n_frames: int) -> _Swing:
    """One foot's state after each of n_frames frames: one _swing_scan over
    its own samples (times t, heights h, frame indices frame), started from
    its first sample, then gathered at its latest sample in each frame."""
    first = _first_swing(t[0], h[0]) if t.size else _UNSEEN
    swing = _swing_scan(t, np.concatenate(([-np.inf], t))[:-1], h, first)
    latest = np.full(n_frames, -1)  # row -1: _UNSEEN, before the first sample
    latest[frame] = np.arange(t.size)  # one sample per foot per frame
    latest = np.maximum.accumulate(latest)
    return _Swing(*(np.append(a, u)[latest] for a, u in zip(swing, _UNSEEN)))


def estimate_frames(samples: Samples, events: list[StepEvent]) -> FrameEstimates:
    """Check time-sorted samples, stream them through one tracker, then
    estimate every frame at once, bit for bit as arrays.

    Of the faults Samples.fault finds, a sample out of time order raises
    NonMonotonicTime (staleness reads the latest grounding time, a running
    max only on sorted input), any other what validate_sample raises. Then
    every sample goes through GaitTracker.advance, a plain tuple, for the
    StepEvents (appended to events) and the EMA row after each; each foot's
    swing state comes from _swing_scan over its own samples.
    """
    t, left, h = samples.time, samples.left, samples.height
    fault = samples.fault()
    if fault is not None:
        i, unsorted, error = fault
        raise error if not unsorted else NonMonotonicTime(
            f"foot {_FEET[not left[i]].value} sample at t={t[i].item()!r} precedes the sample "
            f"before it at t={t[i - 1].item()!r}; replay needs time-sorted samples")

    # _estimate_columns' EMA arguments after each footfall; row 0 is before any
    tracker = GaitTracker()
    advance, emas = tracker.advance, [_NO_FOOTFALL]
    for s in samples.tuples():
        ev = advance(s)
        if ev is not None:
            events.append(ev)
            emas.append(tracker._ema_row)

    starts = np.empty(t.size, bool)
    starts[:1] = True  # an empty stream has no frame
    np.not_equal(t[1:], t[:-1], out=starts[1:])
    frame = np.cumsum(starts) - 1
    now = t[starts]
    n_frames = now.size
    foot_heights = np.zeros((2, n_frames))  # 0 where the foot has no sample
    foot_heights[np.where(left, 0, 1), frame] = h
    feet = [
        _frame_swings(t[idx], h[idx], frame[idx], n_frames)
        for idx in (np.flatnonzero(left), np.flatnonzero(~left))
    ]

    # the EMA row after the last footfall at or before each frame
    emas = np.array(emas).T
    snap = np.searchsorted(np.searchsorted(now, emas[3, 1:]), np.arange(n_frames), side="right")
    step_frequency, step_height = _estimate_columns(now, feet, *np.take(emas, snap, axis=1))
    return FrameEstimates(now, *foot_heights, step_frequency, step_height)


def _estimate_columns(
    now, feet: list[_Swing], ema: np.ndarray, base: np.ndarray, active_feet, footfall: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """What estimate(now) returns, bit for bit, for many queries at once.

    feet holds the left and the right foot's _Swing; now and the rest
    broadcast against their arrays: the cadence EMA (0 for none, which
    bounds the cadence to 0 as a missing one does, since a real EMA is > 0),
    the apex EMA (0 for none), the active feet and the last footfall time
    (NaN for none). The smaller partial bound is the longer elapsed time's,
    as rounding keeps monotone order. entered_at stands in for the latest
    transition: staleness reads it only while both feet are grounded, and
    then each foot's is its grounding time.
    """
    # an aerial foot's time since its anchor, >= 0; 0, no bound, when grounded
    elapsed = [
        np.where(foot.aerial, now - np.where(foot.valid, foot.swing_start, foot.entered_at), 0.0)
        for foot in feet
    ]
    longest = np.maximum(*elapsed)
    partial = np.divide(
        SWING_FRACTION, longest, out=np.full_like(longest, np.inf), where=longest > 0.0
    )
    gap = now - footfall
    gap_bound = np.divide(PARTIAL_SLACK, gap, out=np.full_like(gap, np.inf), where=gap > 0.0)
    freq = np.minimum(np.minimum(ema, PARTIAL_SLACK * active_feet * partial), gap_bound)

    height = base  # a rising foot's blend is >= base
    for foot, since in zip(feet, elapsed):
        rising = foot.valid & (foot.running_apex > base)  # valid feet are aerial
        blended = base + np.minimum(1.0, since / SMOOTHING_TAU) * (foot.running_apex - base)
        height = np.maximum(height, np.where(rising, blended, base))

    left, right = feet
    stale = ~(left.aerial | right.aerial) & (
        now - np.maximum(left.entered_at, right.entered_at) >= STOP_WINDOW
    )
    return np.where(stale, 0.0, freq), np.where(stale, 0.0, height)


# ----------------------------------------------------------------------
# lanes of trackers stepped in lockstep


class TrackerLanes:
    """GaitTrackers for lanes fed in lockstep: at every tick each lane gets
    one left and one right sample at the tick's time.

    Each foot's state is a column of (2, lanes) arrays, row 0 the left
    foot. advance() steps a run of ticks with _swing_scan down the tick
    axis, the scan estimate_frames runs over each foot's samples, with no
    loop over ticks. Each step is registered into its lane's EMA row by
    _footfall, GaitTracker's own registration, so the EMAs stay scalar
    (math.exp), and the rows are forward-filled per lane. A run is checked
    with core.stream_fault first, a tick a row. The state carried between
    runs is copied out of the run's arrays, so it does not keep them alive.
    """

    def __init__(self, lanes: int):
        self._recent_feet = [deque(maxlen=4) for _ in range(lanes)]
        self.events: list[list[StepEvent]] = [[] for _ in range(lanes)]
        self._prev_time: float | None = None
        self._state: _Swing | None = None
        # each lane's EMA row after its latest footfall, a column
        self._emas = np.repeat(np.array(_NO_FOOTFALL)[:, None], lanes, axis=1)

    def advance(self, times: list[float], heights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Ingest ticks at times, heights[k] holding every lane's left and
        right heights, and return each lane's estimate(times[k]) after each
        tick: step frequency and step height as (ticks, lanes) arrays.
        heights must be an ndarray of shape (len(times), 2, lanes), or
        ValueError."""
        lanes = len(self.events)
        if not isinstance(heights, np.ndarray):
            raise ValueError(f"heights must be an ndarray, got {type(heights).__name__}")
        if heights.shape != (len(times), 2, lanes):
            raise ValueError(f"heights have shape {heights.shape}, not {(len(times), 2, lanes)}")
        if not len(times):
            return np.empty((0, lanes)), np.empty((0, lanes))
        prev = self._prev_time
        now = np.array(times)
        before = np.concatenate(([-np.inf if prev is None else prev], now[:-1]))
        fault = stream_fault(now, before, _LEFT_ROW, heights)
        if fault is not None:
            raise fault[2]  # an unsorted tick fails validate_sample too
        if prev is None:  # each foot's first sample starts its track
            self._state = _first_swing(times[0], heights[0])
        swing = _swing_scan(now, before, heights, self._state)
        # a valid swing is aerial, so a valid foot back on the ground landed;
        # landing moves neither its swing start nor its apex
        landed = (
            np.concatenate(([self._state.valid], swing.valid[:-1])) & ~swing.aerial
            & (swing.running_apex >= MIN_STEP_HEIGHT)
        )
        emas = self._footfalls(landed, times, swing)
        self._prev_time = times[-1]
        self._state = _Swing(*(a[-1].copy() for a in swing))
        feet = [_Swing(*(a[:, foot] for a in swing)) for foot in (0, 1)]
        return _estimate_columns(now[:, None], feet, *emas)

    def _footfalls(self, landed, times, swing: _Swing) -> np.ndarray:
        """Register a run's steps in (tick, foot, lane) order, so a lane whose
        feet land on one tick registers the left step first, and return the
        lanes' EMA arguments after each tick: (4, ticks or 1, lanes)."""
        at = np.nonzero(landed)
        if not at[0].size:
            return self._emas[:, None]
        rows, current, recent, events = [], self._emas.T.tolist(), self._recent_feet, self.events
        steps = (*at, swing.swing_start[at], swing.apex_time[at], swing.running_apex[at])
        for k, foot, lane, start, top_time, top in zip(*(a.tolist() for a in steps)):
            event = _step_event(_FEET[foot], start, top_time, times[k], top)
            current[lane] = row = _footfall(current[lane], recent[lane], event)
            events[lane].append(event)
            rows.append(row)
        # columns of table: each lane's carried-in EMAs, then one per step
        lanes = landed.shape[2]
        table = np.concatenate((self._emas, np.array(rows).T), axis=1)
        latest = np.repeat(np.arange(lanes)[None], len(times), axis=0)
        np.maximum.at(latest, (at[0], at[2]), np.arange(lanes, lanes + len(rows)))
        emas = np.take(table, np.maximum.accumulate(latest, axis=0), axis=1)
        self._emas = emas[:, -1].copy()
        return emas
