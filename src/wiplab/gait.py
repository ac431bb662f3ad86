"""Per-foot gait phase recognition and real-time cadence and step-height
estimation from foot-height streams.

Each foot runs a three-state machine (grounded / ascending / descending)
held as two flags: aerial, keyed on a ground threshold, and descending,
flipped by a vertical-velocity deadband. Completed steps become
StepEvents; cadence is smoothed from footfall intervals and, between
footfalls, bounded by partial-phase evidence so the estimate decays within
a fraction of a step when the user slows or stops. The footfall state, the
cadence and apex EMAs, the active feet and the latest footfall time, is one
row that _footfall registers each step into.

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
from dataclasses import dataclass
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
# The one construction path of GaitEstimates and StepEvents: _new(cls, values),
# one C call; the values hold each record's invariants by construction.
_new = tuple.__new__


class StepEvent(NamedTuple):
    """One completed step: lift-off, apex, and re-grounding. The tracker
    gives one only for a swing with start < apex_time < end and an apex of
    at least MIN_STEP_HEIGHT."""

    foot: Foot
    start: float        # s, last grounded sample before lift-off
    apex_time: float    # s
    end: float          # s, first re-grounded sample
    apex_height: float  # m


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
    _swing_scan returns the carried-in state and the state after each
    sample as arrays along a last axis; a carried-in state has no such
    axis."""

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


def _footfall(row: tuple, recent: deque, foot: Foot, end: float, apex_height: float
              ) -> tuple[float, float, int, float]:
    """The EMA row (cadence EMA, apex EMA, active feet, footfall time) after
    a step of foot that landed at end with apex_height, from the row before
    it; foot joins recent, the feet of the last four steps. 0.0 is no EMA
    yet and NaN no footfall yet: a real EMA is > 0, and a NaN gap fails
    every comparison."""
    freq, apex, _, before = row
    recent.append(foot)
    delta = end - before
    # the EMAs' decay over the gap, exp(-max(0, delta) / SMOOTHING_TAU)
    decay = math.exp(-delta / SMOOTHING_TAU) if delta > 0.0 else 1.0
    if delta > RESUME_GAP:
        # gait restarted after a pause; the spanning interval is not a
        # cadence sample, so re-seed on the next real one. (Deliberately
        # longer than STOP_WINDOW: slow but continuous gait has footfall
        # gaps well past the stop threshold, and staleness is judged on
        # phase activity.)
        freq = 0.0
    elif delta > 0.0:  # 0 when noise grounds both feet on one tick: no cadence
        freq = 1.0 / delta if freq == 0.0 else freq + (1.0 - decay) * (1.0 / delta - freq)
    apex = apex_height if apex == 0.0 else apex + (1.0 - decay) * (apex_height - apex)
    # distinct feet among the last four steps; Enum hashing runs in Python
    return freq, apex, (_LEFT in recent) + (_RIGHT in recent), end


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
    pass over the two feet, written out per foot; its stale flag says the
    walker has stopped.
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
                event = _new(StepEvent, (foot, track.swing_start, track.apex_time, t, track.running_apex))
                self._ema_row = _footfall(self._ema_row, self._recent_feet, foot, t, track.running_apex)
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

        The pass over the two feet is written out once per foot, left then
        right, with no loop, tuple or max(): each aerial foot blends its
        apex into the height, then bounds the cadence, with the same
        operations in the same order for both feet.
        """
        left, right = self._left, self._right
        if not (left.aerial or right.aerial):
            entered = left.entered_at  # max(left.entered_at, right.entered_at)
            if right.entered_at > entered:
                entered = right.entered_at
            if now - entered >= STOP_WINDOW:
                return _new(GaitEstimate, (0.0, 0.0, True))
        freq, base, active_feet, footfall = self._ema_row
        height = base
        partial_scale = PARTIAL_SLACK * active_feet
        # A valid swing is anchored at lift-off: the whole-swing budget keeps
        # the bound independent of where the deadband happens to split ascent
        # from descent. A swing with no lift-off seen is anchored at its
        # latest phase change. With no cadence EMA (0.0) no positive bound
        # is lower.
        if left.aerial:
            if left.valid:
                left_elapsed = now - left.swing_start
                if left.running_apex > base:
                    weight = left_elapsed / SMOOTHING_TAU
                    if not weight > 0.0:
                        weight = 0.0
                    elif not weight < 1.0:
                        weight = 1.0
                    height = base + weight * (left.running_apex - base)  # >= base, so the max
            else:
                left_elapsed = now - left.entered_at
            if left_elapsed > 0.0:
                bound = partial_scale * (SWING_FRACTION / left_elapsed)
                if bound < freq:
                    freq = bound
        if right.aerial:
            if right.valid:
                right_elapsed = now - right.swing_start
                if right.running_apex > base:
                    weight = right_elapsed / SMOOTHING_TAU
                    if not weight > 0.0:
                        weight = 0.0
                    elif not weight < 1.0:
                        weight = 1.0
                    blended = base + weight * (right.running_apex - base)
                    if blended > height:
                        height = blended
            else:
                right_elapsed = now - right.entered_at
            if right_elapsed > 0.0:
                bound = partial_scale * (SWING_FRACTION / right_elapsed)
                if bound < freq:
                    freq = bound
        gap = now - footfall  # NaN before any footfall
        if gap > 0.0:
            bound = PARTIAL_SLACK / gap
            if bound < freq:
                freq = bound
        if not freq > 0.0:
            freq = 0.0
        return _new(GaitEstimate, (freq, height, False))


# ----------------------------------------------------------------------
# whole-stream estimation for replay


class FrameEstimates(NamedTuple):
    """Per-frame columns of a replayed stream, one frame per distinct sample
    time: what the frame loop reads from its samples and from estimate(t);
    and the stream's step events, in the order advance() gave them."""

    time: np.ndarray
    height_left: np.ndarray   # m, 0 where the foot has no sample in the frame
    height_right: np.ndarray
    step_frequency: np.ndarray
    step_height: np.ndarray
    events: list[StepEvent]


def _first_swing(time, height) -> _Swing:
    """The state to scan a foot's first sample (at time, of height) from.
    The scan gives that sample -inf as its previous time, so its velocity
    reads 0 and the scan leaves the state advance() starts a track with."""
    aerial, no = height > GROUND_EPSILON, np.zeros_like(height, bool)
    zero = np.zeros_like(height)
    return _Swing(aerial, no, no, height, zero, zero, zero, np.full_like(zero, time))


def _ext(first, rest, shape: tuple) -> np.ndarray:
    """A float array of shape with one more entry along its last axis:
    first at [..., 0], then rest, both broadcast."""
    out = np.empty((*shape[:-1], shape[-1] + 1))
    out[..., 0] = first
    out[..., 1:] = rest
    return out


def _runs(marks: np.ndarray, starts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The runs a forward fill over flat columns repeats: the flat index of
    every column's entry 0, at starts, and of every later entry where marks,
    which starts at entry 1, holds; the length of each run up to the next;
    and the index of each column's first run."""
    marked = np.empty(marks.size + 1, bool)
    marked[1:] = marks
    marked[starts] = True
    at = marked.nonzero()[0]
    lengths = np.empty_like(at)
    np.subtract(at[1:], at[:-1], out=lengths[:-1])
    lengths[-1] = marked.size - at[-1]
    return at, lengths, at.searchsorted(starts)


def _fill(runs: tuple[np.ndarray, np.ndarray, np.ndarray], values: np.ndarray, first) -> np.ndarray:
    """values, one per run of runs, repeated over the run's entries, with
    first's values for each column's first run."""
    _, lengths, firsts = runs
    values[firsts] = np.ravel(first)
    return values.repeat(lengths)


def _swing_scan(now: np.ndarray, prev: float, heights: np.ndarray, state: _Swing) -> _Swing:
    """GaitTracker.advance's per-foot state after each sample of heights,
    with no loop over samples.

    heights holds each foot's samples along its last axis, any leading axes
    being other feet; now holds each sample's time and prev the time of the
    sample before the first (-inf for none). state, the carried-in state,
    broadcasts over the leading axes. Each returned field has one more
    entry along the last axis: [..., 0] is state, [..., k + 1] the state
    after sample k.

    The work runs over the fields' flat entries, so that comparing an entry
    with the one before it is one contiguous pass; each column's entry 0,
    where that comparison spans two columns, takes state's value instead.
    Every field but the running apex is a forward fill, a repeat of the
    values at the entries that move it over the runs of entries up to the
    next: the descending flip-flop's at a landing and at the first of each
    stretch of falls or of rises, and each time's. The running apex,
    restarted at each lift-off, is the one scan: a running numpy complex
    maximum of (the flat index of the swing's lift-off or entry 0, height),
    lexicographic, so it also restarts at each column. Every value is a
    comparison or a selected input, so the state is advance()'s, bit for
    bit, on a stream core.stream_fault accepts; the callers check that
    first.
    """
    n = heights.shape[-1]
    heights = _ext(state.height, heights, heights.shape)
    flat = heights.reshape(-1)
    airborne = flat > GROUND_EPSILON  # entry 0 is state.aerial, its height's
    was_aerial, aerial = airborne[:-1], airborne[1:]
    lift, staying_up = aerial > was_aerial, aerial & was_aerial
    # each entry's time, prev at an entry 0: an entry's foot's sample before
    # it is the entry before, and the one time that spans two columns is
    # not read
    now_at = _ext(prev, now, (*heights.shape[:-1], n)).reshape(-1)
    velocity = (flat[1:] - flat[:-1]) / (now_at[1:] - now_at[:-1])
    # descending: set by falling, reset by rising or landing (a grounded foot
    # stays reset); only the first of a stretch of falls or of rises can flip it
    falls = np.zeros(flat.size, bool)  # by entry, like flat
    fall = np.logical_and(staying_up, velocity < -VELOCITY_DEADBAND, out=falls[1:])
    rise = staying_up & (velocity > VELOCITY_DEADBAND)
    fall[n::n + 1] = rise[n::n + 1] = False  # each later entry 0
    flip = was_aerial > aerial
    flip[1:] |= (fall[1:] > fall[:-1]) | (rise[1:] > rise[:-1])
    flip[0] |= fall[0] | rise[0]
    starts = np.arange(0, flat.size, n + 1)  # each column's entry 0
    flips = _runs(flip, starts)
    descending = _fill(flips, falls[flips[0]], state.descending)
    changes = _runs((aerial != was_aerial) | (descending[1:] != descending[:-1]), starts)
    entered_at = _fill(changes, now_at[changes[0]], state.entered_at)
    # valid: lifted off in the run, or still in a carried-in valid swing
    swing = _runs(lift, starts)
    swing_start = _fill(swing, now_at[swing[0] - 1], state.swing_start)
    valid = airborne & _fill(swing, np.ones(swing[0].size, bool), state.valid)
    key = np.empty(flat.size, complex)
    key.real = swing[0].repeat(swing[1])
    key.imag = np.where(airborne, flat, -np.inf)
    key.imag[::n + 1] = np.ravel(state.running_apex)
    apex = np.maximum.accumulate(key).imag.copy()
    # the apex moves at a lift-off and at each new high of its swing
    moves = _runs(lift | (aerial & (flat[1:] > apex[:-1])), starts)
    apex_time = _fill(moves, now_at[moves[0]], state.apex_time)
    return _Swing(*(a.reshape(heights.shape) for a in (
        airborne, descending, valid, flat, swing_start, apex, apex_time, entered_at)))


def _frame_swings(t: np.ndarray, h: np.ndarray, frame: np.ndarray, n_frames: int) -> _Swing:
    """One foot's state after each of n_frames frames: one _swing_scan over
    its own samples (times t, heights h, frame indices frame), started from
    its first sample, then gathered at its latest sample in each frame."""
    if not t.size:
        return _Swing(*(np.full(n_frames, u) for u in _UNSEEN))
    swing = _swing_scan(t, -np.inf, h, _first_swing(t[0], h[0]))
    for a, unseen in zip(swing, _UNSEEN):
        a[0] = unseen  # entry 0 stands before the first sample
    latest = np.zeros(n_frames, int)
    latest[frame] = np.arange(1, t.size + 1)  # one sample per foot per frame
    latest = np.maximum.accumulate(latest)
    return _Swing(*(a[latest] for a in swing))


def estimate_frames(samples: Samples) -> FrameEstimates:
    """Check time-sorted samples, stream them through one tracker, then
    estimate every frame at once, bit for bit as arrays.

    Of the faults Samples.fault finds, a sample out of time order raises
    NonMonotonicTime (staleness reads the latest grounding time, a running
    max only on sorted input), any other what validate_sample raises. Then
    every sample goes through GaitTracker.advance, a plain tuple, for the
    StepEvents (the result's events) and the EMA row after each; each foot's
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
    advance, emas, events = tracker.advance, [_NO_FOOTFALL], []
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
    feet = _Swing(*map(np.stack, zip(*(
        _frame_swings(t[idx], h[idx], frame[idx], n_frames)
        for idx in (np.flatnonzero(left), np.flatnonzero(~left))
    ))))

    # the EMA row after the last footfall at or before each frame
    emas = np.array(emas).T
    snap = np.searchsorted(np.searchsorted(now, emas[3, 1:]), np.arange(n_frames), side="right")
    step_frequency, step_height = _estimate_columns(now, feet, *np.take(emas, snap, axis=1))
    return FrameEstimates(now, *foot_heights, step_frequency, step_height, events)


def _estimate_columns(
    now, feet: _Swing, ema: np.ndarray, base: np.ndarray, active_feet, footfall: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """What estimate(now) returns, bit for bit, for many queries at once.

    feet's fields stack the left and the right foot's along axis 0; now and
    the rest broadcast against each foot's: the cadence EMA (0 for none,
    which bounds the cadence to 0 as a missing one does, since a real EMA
    is > 0), the apex EMA (0 for none), the active feet and the last
    footfall time (NaN for none). Both feet are one computation up to the
    smaller partial bound, the longer elapsed time's, as rounding keeps
    monotone order, and the higher blend. entered_at stands in for the
    latest transition: staleness reads it only while both feet are
    grounded, and then each foot's is its grounding time.
    """
    # an aerial foot's time since its anchor, >= 0; 0, no bound, when grounded
    elapsed = np.where(feet.aerial, now - np.where(feet.valid, feet.swing_start, feet.entered_at), 0.0)
    longest = np.maximum(elapsed[0], elapsed[1])
    partial = np.divide(
        SWING_FRACTION, longest, out=np.full_like(longest, np.inf), where=longest > 0.0
    )
    gap = now - footfall
    gap_bound = np.divide(PARTIAL_SLACK, gap, out=np.full_like(gap, np.inf), where=gap > 0.0)
    freq = np.minimum(np.minimum(ema, PARTIAL_SLACK * active_feet * partial), gap_bound)

    # a rising foot's blend is >= base, so the higher foot's value is the height
    rising = feet.valid & (feet.running_apex > base)  # valid feet are aerial
    blended = base + np.minimum(1.0, elapsed / SMOOTHING_TAU) * (feet.running_apex - base)
    height = np.where(rising, blended, base)
    height = np.maximum(height[0], height[1])

    (left, right), entered_at = feet.aerial, feet.entered_at
    stale = ~(left | right) & (now - np.maximum(entered_at[0], entered_at[1]) >= STOP_WINDOW)
    return np.where(stale, 0.0, freq), np.where(stale, 0.0, height)


# ----------------------------------------------------------------------
# lanes of trackers stepped in lockstep


class TrackerLanes:
    """GaitTrackers for lanes fed in lockstep: at every tick each lane gets
    one left and one right sample at the tick's time.

    Each foot's state is a column of (2, lanes) arrays, row 0 the left
    foot. advance() steps a run of ticks with _swing_scan along the tick
    axis, last in its (2, lanes, ticks) arrays, the scan estimate_frames
    runs over each foot's samples, with no loop over ticks. Each step is
    registered into its lane's EMA row by _footfall, GaitTracker's own
    registration, so the EMAs stay scalar (math.exp), and the rows are
    forward-filled per lane. A run is checked with core.stream_fault first,
    a tick a row. The state carried between runs is copied out of the run's
    arrays, so it does not keep them alive.
    """

    def __init__(self, lanes: int):
        self._recent_feet = [deque(maxlen=4) for _ in range(lanes)]
        self.events: list[list[StepEvent]] = [[] for _ in range(lanes)]
        self._prev_time: float | None = None
        self._state: _Swing | None = None
        # each lane's EMA row after its latest footfall, a column
        self._emas = np.repeat(np.array(_NO_FOOTFALL)[:, None], lanes, axis=1)

    def advance(self, times, heights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Ingest ticks at times, a sequence or array of floats, heights[k]
        holding every lane's left and right heights, and return each lane's
        estimate(times[k]) after each tick: step frequency and step height
        as (ticks, lanes) arrays. heights must be an ndarray of shape
        (len(times), 2, lanes), or ValueError."""
        lanes = len(self.events)
        if not isinstance(heights, np.ndarray):
            raise ValueError(f"heights must be an ndarray, got {type(heights).__name__}")
        if heights.shape != (len(times), 2, lanes):
            raise ValueError(f"heights have shape {heights.shape}, not {(len(times), 2, lanes)}")
        if not len(times):
            return np.empty((0, lanes)), np.empty((0, lanes))
        prev = self._prev_time
        now = np.array(times, float)
        times = now.tolist()  # the events' and the carried times are floats
        before = np.concatenate(([-np.inf if prev is None else prev], now[:-1]))
        fault = stream_fault(now, before, _LEFT_ROW, heights)
        if fault is not None:
            raise fault[2]  # an unsorted tick fails validate_sample too
        if prev is None:  # each foot's first sample starts its track
            self._state = _first_swing(times[0], heights[0])
        swing = _swing_scan(now, before[0], heights.transpose(1, 2, 0), self._state)
        emas = self._footfalls(swing, times)
        self._prev_time = times[-1]
        self._state = _Swing(*(a[..., -1].copy() for a in swing))
        # entry 0, the carried-in state, is estimated at the first tick and dropped
        freq, height = _estimate_columns(_ext(now[0], now, (lanes, len(now))), swing, *emas)
        return freq[:, 1:].T, height[:, 1:].T

    def _footfalls(self, swing: _Swing, times: list[float]) -> np.ndarray:
        """Register a run's steps in (tick, foot, lane) order, so a lane whose
        feet land on one tick registers the left step first, and return the
        lanes' EMA arguments after each of swing's entries: (4, lanes, ticks
        + 1 or 1)."""
        n, lanes = len(times), len(self.events)
        valid, aerial = swing.valid.reshape(-1), swing.aerial.reshape(-1)
        # a valid swing is aerial, so a valid foot back on the ground landed;
        # landing moves neither its swing start nor its apex
        landed = np.empty(valid.size, bool)
        landed[1:] = valid[:-1] & ~aerial[1:] & (swing.running_apex >= MIN_STEP_HEIGHT).reshape(-1)[1:]
        landed[::n + 1] = False  # entry 0 is carried in
        at = np.flatnonzero(landed.reshape(-1, n + 1).T)  # in (tick, foot, lane) order
        if not at.size:
            return self._emas[..., None]
        entry, column = np.divmod(at, 2 * lanes)
        foot, lane = np.divmod(column, lanes)
        rows, current, recent, events = [], self._emas.T.tolist(), self._recent_feet, self.events
        at = column * (n + 1) + entry
        steps = (entry - 1, foot, lane, *(a.reshape(-1)[at] for a in swing[4:7]))
        for k, side, i, start, top, top_time in zip(*(a.tolist() for a in steps)):
            side, end = _FEET[side], times[k]
            events[i].append(_new(StepEvent, (side, start, top_time, end, top)))
            current[i] = row = _footfall(current[i], recent[i], side, end, top)
            rows += row
        # columns of table: each lane's carried-in EMAs, then one per step
        table = np.concatenate((self._emas, np.fromiter(rows, float, len(rows)).reshape(-1, 4).T), 1)
        # forward-fill each lane's columns over its entries, a run per step
        # from its entry on; the left step of a tick both feet land on runs
        # for no entry
        at = np.concatenate((np.arange(lanes), lane)) * (n + 1)
        at[lanes:] += entry
        order = (2 * at + np.concatenate((np.zeros(lanes, int), foot))).argsort()
        at = at[order]
        lengths = np.empty_like(at)
        lengths[:-1] = at[1:]
        lengths[-1] = lanes * (n + 1)
        emas = np.take(table, order, 1).repeat(lengths - at, 1).reshape(4, lanes, n + 1)
        self._emas = emas[..., -1].copy()
        return emas
