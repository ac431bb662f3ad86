"""Per-foot gait phase recognition and real-time cadence and step-height
estimation from foot-height streams.

Each foot runs a three-state machine (grounded / ascending / descending)
keyed on a ground threshold plus a vertical-velocity deadband. Completed
steps become StepEvents; cadence is smoothed from footfall intervals and,
between footfalls, bounded by partial-phase evidence so the estimate decays
within a fraction of a step when the user slows or stops.

Grounded is defined purely by height against GROUND_EPSILON. That keeps
streaming segmentation equivalent to brute-force offline segmentation of
the same samples (contiguous above-threshold regions), which the test
suite exploits as an oracle.

GaitTracker.advance steps the per-foot machine one sample at a time.
_swing_scan is its one array form: a segmented scan (forward fills and a
running max restarted at each lift-off) that returns a foot's state after
every sample at once. estimate_frames reads a recorded stream as columns
(core.Samples) and runs it over each foot's samples, and TrackerLanes over
lanes stepped in lockstep.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from enum import Enum
from itertools import islice
from typing import NamedTuple, Sequence

import numpy as np

from .core import (
    HEIGHT_CEILING,
    HEIGHT_FLOOR,
    Foot,
    FootSample,
    GaitEstimate,
    NonMonotonicTime,
    Samples,
    validate_sample,
)


class Phase(Enum):
    GROUNDED = "grounded"
    ASCENDING = "ascending"
    DESCENDING = "descending"


# Reading an enum member through its class costs ~0.1 us on CPython 3.11;
# the per-frame paths compare against these constants instead.
_GROUNDED, _ASCENDING, _DESCENDING = Phase.GROUNDED, Phase.ASCENDING, Phase.DESCENDING
_FEET = _LEFT, _RIGHT = Foot.LEFT, Foot.RIGHT
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


@dataclass
class _FootTrack:
    phase: Phase
    entered_at: float
    prev_time: float
    prev_height: float
    # swing bookkeeping; swing_start is the last grounded sample time and is
    # only valid when we actually observed the foot on the ground first
    swing_start: float = 0.0
    swing_valid: bool = False
    running_apex: float = 0.0
    apex_time: float = 0.0


class GaitTracker:
    """Single-owner mutable tracker; create one per user session.

    Feed samples through advance() in time order (feet may interleave) and
    query estimate() at any time at or after the newest sample. The
    thresholds and smoothing constants are this module's constants.

    Staleness is tracked incrementally: a count of feet off the ground is
    kept up to date on every phase transition, so is_stale() is O(1).
    estimate() checks it once per query, then derives frequency and step
    height in one pass over the two feet.
    """

    def __init__(self):
        self._left: _FootTrack | None = None
        self._right: _FootTrack | None = None
        self._airborne = 0  # tracks whose phase is not GROUNDED
        self._recent_feet: deque[Foot] = deque(maxlen=4)  # feet of the last four events
        self._active_feet = 1  # distinct feet among them
        self._last_transition: float | None = None
        self._last_footfall: float | None = None
        self._freq_ema: float | None = None
        self._apex_ema: float | None = None
        self._apex_ema_at: float = 0.0

    # ------------------------------------------------------------------
    # ingestion

    def advance(self, sample: FootSample) -> StepEvent | None:
        """Ingest one sample; returns a StepEvent when a step completes."""
        t, foot, h = sample
        left = foot is _LEFT
        track = self._left if left else self._right
        validate_sample(sample, track.prev_time if track is not None else None)
        grounded = h <= GROUND_EPSILON

        if track is None:
            # A foot first seen in the air has no known lift-off; its current
            # swing is discarded rather than guessed at.
            phase = _GROUNDED if grounded else _ASCENDING
            track = _FootTrack(
                phase=phase,
                entered_at=t,
                prev_time=t,
                prev_height=h,
            )
            if not grounded:
                track.running_apex = h
                track.apex_time = t
                self._airborne += 1
            if left:
                self._left = track
            else:
                self._right = track
            self._last_transition = t if self._last_transition is None else max(
                self._last_transition, t
            )
            return None

        event: StepEvent | None = None
        if track.phase is _GROUNDED:
            if grounded:
                # the common case: a standing foot stays standing
                track.prev_time = t
                track.prev_height = h
                return None
            track.phase = _ASCENDING
            track.swing_start = track.prev_time
            track.swing_valid = True
            track.running_apex = h
            track.apex_time = t
            self._airborne += 1
        elif grounded:
            track.phase = _GROUNDED
            if track.swing_valid and track.running_apex >= MIN_STEP_HEIGHT:
                event = StepEvent(
                    foot=foot,
                    start=track.swing_start,
                    apex_time=track.apex_time,
                    end=t,
                    apex_height=track.running_apex,
                )
                self._register_footfall(event)
            track.swing_valid = False
            self._airborne -= 1
        else:
            if h > track.running_apex:
                track.running_apex = h
                track.apex_time = t
            velocity = (h - track.prev_height) / (t - track.prev_time)
            old = track.phase
            if old is _ASCENDING and velocity < -VELOCITY_DEADBAND:
                track.phase = _DESCENDING
            elif old is _DESCENDING and velocity > VELOCITY_DEADBAND:
                track.phase = _ASCENDING
            else:
                track.prev_time = t
                track.prev_height = h
                return None

        # the phase changed
        track.entered_at = t
        self._last_transition = t
        track.prev_time = t
        track.prev_height = h
        return event

    def _register_footfall(self, event: StepEvent) -> None:
        prev_footfall = self._last_footfall
        self._last_footfall = event.end
        recent = self._recent_feet
        recent.append(event.foot)
        # distinct feet among the last four events; Enum hashing runs in Python
        self._active_feet = (_LEFT in recent) + (_RIGHT in recent)

        if prev_footfall is not None:
            delta = event.end - prev_footfall
            if delta > RESUME_GAP:
                # gait restarted after a pause; the spanning interval is not
                # a cadence sample, so re-seed on the next real one. (Note
                # this is deliberately longer than STOP_WINDOW: slow but
                # continuous gait has footfall gaps well past the stop
                # threshold, and staleness is judged on phase activity.)
                self._freq_ema = None
            elif delta > 0.0:
                # delta == 0 happens when noise grounds both feet on one
                # sample tick; a zero-length interval carries no cadence
                freq = 1.0 / delta
                if self._freq_ema is None:
                    self._freq_ema = freq
                else:
                    alpha = 1.0 - math.exp(-delta / SMOOTHING_TAU)
                    self._freq_ema += alpha * (freq - self._freq_ema)

        if self._apex_ema is None:
            self._apex_ema = event.apex_height
        else:
            dt = max(0.0, event.end - self._apex_ema_at)
            alpha = 1.0 - math.exp(-dt / SMOOTHING_TAU)
            self._apex_ema += alpha * (event.apex_height - self._apex_ema)
        self._apex_ema_at = event.end

    # ------------------------------------------------------------------
    # queries

    def is_stale(self, now: float) -> bool:
        """Stopped: every foot grounded and no phase activity in the window."""
        if self._last_transition is None:
            return True
        if self._airborne:
            return False
        return now - self._last_transition >= STOP_WINDOW

    def estimate(self, now: float) -> GaitEstimate:
        """Cadence and step height at `now`, the structure the speed laws
        consume; both are 0 when stale.

        Cadence: the committed value is an EMA over completed footfall
        intervals. A phase in progress contributes a partial bound
        SWING_FRACTION / elapsed (scaled to cadence by the number of active
        feet), and the gap since the last footfall bounds likewise, so
        slowing decays the estimate before the next footfall confirms it.
        The smallest of these wins; 0 before two footfalls have been seen.

        Step height: an EMA over completed step apexes, blended upward with
        the running apex of any observed swing in progress, so a user
        stepping higher is seen before the step completes.

        One pass over the two feet gathers both bounds.
        """
        if self.is_stale(now):
            return _new_estimate(GaitEstimate, (0.0, 0.0, now, True))
        freq = self._freq_ema
        apex_ema = self._apex_ema
        base = height = apex_ema if apex_ema is not None else 0.0
        partial_scale = PARTIAL_SLACK * self._active_feet
        for track in (self._left, self._right):
            if track is None or track.phase is _GROUNDED:
                continue
            if track.swing_valid:
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
            if freq is not None:
                elapsed = now - anchor
                if elapsed > 0.0:
                    bound = partial_scale * (SWING_FRACTION / elapsed)
                    if bound < freq:
                        freq = bound
        if freq is None:
            freq = 0.0
        else:
            gap = now - self._last_footfall
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


class _Swing(NamedTuple):
    """One foot's GaitTracker.advance state: its _FootTrack, with the phase
    split into aerial (not GROUNDED) and descending. _swing_scan returns
    the state after each row; a carried-in state has no row axis."""

    aerial: np.ndarray
    descending: np.ndarray
    valid: np.ndarray         # swing_valid: aerial in a swing whose lift-off was seen
    height: np.ndarray        # prev_height
    swing_start: np.ndarray
    running_apex: np.ndarray
    apex_time: np.ndarray
    entered_at: np.ndarray


def _first_swing(time, height) -> _Swing:
    """The state to scan a foot's first sample (at time, of height) from.
    The scan gives that sample -inf as its previous time, so its velocity
    reads 0 and the scan leaves the state advance() starts a track with."""
    aerial, no = height > GROUND_EPSILON, np.zeros_like(height, bool)
    zero = np.zeros_like(height)
    return _Swing(aerial, no, no, height, zero, zero, zero, np.full_like(zero, time))


# _estimate_columns' EMA arguments before any footfall: no cadence EMA, no
# apex EMA, one active foot, no footfall to bound the gap
_NO_FOOTFALL = (0.0, 0.0, 1, np.nan)
# a foot with no sample yet: never aerial, grounded since -inf, so that
# staleness reads the other foot's entry
_UNSEEN = _Swing(False, False, False, 0.0, 0.0, 0.0, 0.0, -np.inf)


def _latest(events: np.ndarray, unset) -> np.ndarray:
    """Down axis 0, the row of the latest event at or before each row, and
    unset (a negative row, broadcast per column) before the first."""
    rows = np.arange(len(events)).reshape(-1, *(1,) * (events.ndim - 1))
    return np.maximum.accumulate(np.where(events, rows, unset), axis=0)


def _epoch_max(values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Running max down axis 0, restarted at each row where starts is set
    (row 0 must be one): a doubling scan, exact because max only selects."""
    out, open_ = values.copy(), ~starts
    shift = 1
    while shift < len(out):
        np.copyto(out[shift:], np.maximum(out[shift:], out[:-shift]), where=open_[shift:])
        open_[shift:] = open_[shift:] & open_[:-shift]
        shift *= 2
    return out


def _swing_scan(now: np.ndarray, before: np.ndarray, heights: np.ndarray, state: _Swing) -> _Swing:
    """GaitTracker.advance's per-foot state after each row of heights, by
    array scans down axis 0 with no loop over rows.

    now holds each row's time and before the foot's previous sample time;
    heights and state broadcast over any trailing axes, and state is the
    one carried in, which stands at row -1. Swing validity, the descending
    flip-flop and the apex time are forward fills of event rows; the
    running apex is a running max restarted at each lift-off. Every value
    is a comparison or a selected input, so the state is advance()'s, bit
    for bit, on samples that pass validate_sample.
    """
    col = now.reshape(-1, *(1,) * (heights.ndim - 1))
    before = before.reshape(col.shape)
    airborne = heights > GROUND_EPSILON
    was_aerial = np.concatenate(([state.aerial], airborne[:-1]))
    lift, staying_up = airborne > was_aerial, airborne & was_aerial
    velocity = np.diff(heights, axis=0, prepend=[state.height]) / (col - before)
    # the sample time before the latest lift-off
    swing_start = np.maximum(state.swing_start, np.maximum.accumulate(
        np.where(lift, before, -np.inf), axis=0
    ))
    # valid: lifted off since last grounded. descending: set by falling,
    # reset by rising or by leaving a staying-aloft stretch.
    valid = _latest(lift, np.where(state.valid, -1, -2)) > _latest(~airborne, -2)
    descending = _latest(
        staying_up & (velocity < -VELOCITY_DEADBAND), np.where(state.descending, -1, -2)
    ) > _latest(~staying_up | (velocity > VELOCITY_DEADBAND), -2)
    # row 0 is the carried-in running apex, row k + 1 the one after row k
    apex = _epoch_max(
        np.concatenate(([state.running_apex], np.where(airborne, heights, -np.inf))),
        np.concatenate(([np.ones_like(state.aerial)], lift)),
    )
    last_peak = _latest(lift | (airborne & (heights > apex[:-1])), -1)
    apex_time = np.where(last_peak >= 0, now[last_peak], state.apex_time)
    changed = (airborne != was_aerial) | (
        descending != np.concatenate(([state.descending], descending[:-1]))
    )
    entered_at = np.maximum(state.entered_at, np.maximum.accumulate(
        np.where(changed, col, -np.inf), axis=0
    ))
    return _Swing(
        airborne, descending, valid, heights, swing_start, apex[1:], apex_time, entered_at
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


def estimate_frames(samples: Sequence[FootSample], events: list[StepEvent]) -> FrameEstimates:
    """Stream time-sorted samples through one tracker, then estimate every
    frame at once.

    samples is read as columns (Samples.of; a Samples passes as it is).
    Every sample goes through GaitTracker.advance, in order, so validation,
    segmentation and the StepEvents (appended to events) are the streaming
    tracker's, and the EMA state is snapshotted after each step event. Each
    foot's swing state comes from _swing_scan over that foot's own samples,
    the scan TrackerLanes steps its lanes with. From both, the frequency
    and step height that estimate(t) returns after each frame's samples are
    computed with array operations, bit for bit.

    Raises NonMonotonicTime at the first sample whose time precedes the one
    before it: staleness reads the latest grounding time, which is a running
    max only on sorted input.
    """
    samples = Samples.of(samples)
    tracker = GaitTracker()
    t, left, h = samples.time, samples.left, samples.height
    n = t.size

    backwards = np.flatnonzero(t[1:] < t[:-1])
    stop = int(backwards[0]) + 1 if backwards.size else n
    # _estimate_columns' EMA arguments after each footfall; row 0 is before any
    advance, found, emas = tracker.advance, [], [_NO_FOOTFALL]
    for s in islice(samples, stop):
        ev = advance(s)
        if ev is not None:
            found.append(ev)
            emas.append((tracker._freq_ema or 0.0, tracker._apex_ema, tracker._active_feet, ev.end))
    events.extend(found)
    if stop < n:
        s = samples[stop]
        raise NonMonotonicTime(
            f"foot {s.foot.value} sample at t={s.time!r} precedes the sample "
            f"before it at t={samples[stop - 1].time!r}; replay needs "
            "time-sorted samples"
        )

    starts = np.empty(n, bool)
    starts[0] = True
    np.not_equal(t[1:], t[:-1], out=starts[1:])
    frame = np.cumsum(starts) - 1
    now = t[starts]
    n_frames = now.size
    foot_heights = np.zeros((2, n_frames))  # 0 where the foot has no sample
    foot_heights[np.where(left, 0, 1), frame] = h
    swing = _Swing(*map(np.stack, zip(*(
        _frame_swings(t[idx], h[idx], frame[idx], n_frames)
        for idx in (np.flatnonzero(left), np.flatnonzero(~left))
    ))))

    # the EMA row after the last footfall at or before each frame
    emas = np.array(emas)
    snap = np.searchsorted(np.searchsorted(now, emas[1:, 3]), np.arange(n_frames), side="right")
    step_frequency, step_height = _estimate_columns(now, swing, *emas[snap].T)
    return FrameEstimates(now, *foot_heights, step_frequency, step_height)


def _estimate_columns(
    now, feet: _Swing, ema: np.ndarray, base: np.ndarray, active_feet, footfall: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """What estimate(now) returns, bit for bit, for many queries at once.

    feet holds (2, ...) arrays, row 0 the left foot; now and the rest
    broadcast against one row: the cadence EMA (0 for none, which bounds
    the cadence to 0 as a missing one does, since a real EMA is > 0), the
    apex EMA (0 for none), the active feet and the last footfall time (NaN
    for none). Minima and maxima over feet are exact. entered_at stands in
    for the latest transition: staleness reads it only while both feet are
    grounded, and then each foot's is its grounding time.
    """
    elapsed = now - np.where(feet.valid, feet.swing_start, feet.entered_at)
    bound = feet.aerial & (elapsed > 0.0)
    partial = np.divide(SWING_FRACTION, elapsed, out=np.zeros_like(elapsed), where=bound)
    partial = np.where(bound, PARTIAL_SLACK * active_feet * partial, np.inf)
    freq = np.minimum(ema, np.minimum(partial[0], partial[1]))
    gap = now - footfall
    bound = gap > 0.0
    gap_bound = np.divide(PARTIAL_SLACK, gap, out=np.zeros_like(gap), where=bound)
    freq = np.where(bound, np.minimum(freq, gap_bound), freq)

    rising = feet.valid & (feet.running_apex > base)
    weight = np.minimum(1.0, np.maximum(0.0, elapsed / SMOOTHING_TAU))
    blended = np.where(rising, base + weight * (feet.running_apex - base), -np.inf)
    height = np.maximum(base, np.maximum(blended[0], blended[1]))

    aerial, entered_at = feet.aerial, feet.entered_at
    stale = ~(aerial[0] | aerial[1]) & (
        now - np.maximum(entered_at[0], entered_at[1]) >= STOP_WINDOW
    )
    return np.where(stale, 0.0, np.maximum(0.0, freq)), np.where(stale, 0.0, height)


# ----------------------------------------------------------------------
# lanes of trackers stepped in lockstep


class TrackerLanes:
    """GaitTrackers for lanes fed in lockstep: at every tick each lane gets
    one left and one right sample at the tick's time.

    Each foot's state is a column of (2, lanes) arrays, row 0 the left
    foot. advance() steps a run of ticks with _swing_scan down the tick
    axis, the scan estimate_frames runs over each foot's samples, with no
    loop over ticks. Each step is registered on its lane's own GaitTracker,
    so the EMAs stay scalar (math.exp), and forward-filled per lane. A run
    is checked with validate_sample's predicates; its first failing tick
    raises from validate_sample itself.
    """

    def __init__(self, lanes: int):
        self._trackers = [GaitTracker() for _ in range(lanes)]
        self.events: list[list[StepEvent]] = [[] for _ in range(lanes)]
        self._prev_time: float | None = None
        self._state: _Swing | None = None
        # each lane's _estimate_columns EMA arguments after its latest footfall
        self._emas = np.array([_NO_FOOTFALL] * lanes)

    def advance(self, times: list[float], heights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Ingest ticks at times, heights[k] holding every lane's left and
        right heights, and return each lane's estimate(times[k]) after each
        tick: step frequency and step height as (ticks, lanes) arrays."""
        prev = self._prev_time
        if prev is None:  # each foot's first sample starts its track
            self._state = _first_swing(times[0], heights[0])
        now = np.array(times)
        before = np.concatenate(([-np.inf if prev is None else prev], now[:-1]))
        # validate_sample's predicates for every tick; a stream's first time
        # need only be >= 0. The first failing tick raises from validate_sample.
        in_range = (HEIGHT_FLOOR <= heights) & (heights <= HEIGHT_CEILING)
        floor = np.concatenate(([times[0] if prev is None else prev], now[:-1]))
        fine = (0.0 <= floor) & (before < now) & (now < np.inf)
        fine &= in_range.reshape(len(times), -1).all(axis=1)
        if not fine.all():
            k = int(fine.argmin())
            i = int(in_range[k].argmin())  # 0 when every height is in range
            sample = FootSample(times[k], _FEET[i // heights.shape[2]], heights[k].item(i))
            validate_sample(sample, prev if k == 0 else times[k - 1])
        swing = _swing_scan(now, before, heights, self._state)
        # a valid swing is aerial, so a valid foot back on the ground landed;
        # landing moves neither its swing start nor its apex
        landed = (
            np.concatenate(([self._state.valid], swing.valid[:-1])) & ~swing.aerial
            & (swing.running_apex >= MIN_STEP_HEIGHT)
        )
        emas = self._footfalls(landed, times, swing)
        self._prev_time = times[-1]
        self._state = _Swing(*(a[-1] for a in swing))
        feet = _Swing(*(a.swapaxes(0, 1) for a in swing))
        return _estimate_columns(now[:, None], feet, *emas)

    def _footfalls(self, landed, times, swing: _Swing) -> np.ndarray:
        """Register a run's steps in (tick, foot, lane) order, so a lane whose
        feet land on one tick registers the left step first, and return the
        lanes' EMA arguments after each tick: (4, ticks or 1, lanes)."""
        at = np.nonzero(landed)
        if not at[0].size:
            return self._emas.T[:, None]
        rows = []
        steps = (*at, swing.swing_start[at], swing.apex_time[at], swing.running_apex[at])
        for k, foot, lane, start, top_time, top in zip(*(a.tolist() for a in steps)):
            t = times[k]
            event = StepEvent(_FEET[foot], start, top_time, t, top)
            tracker = self._trackers[lane]
            tracker._register_footfall(event)
            self.events[lane].append(event)
            rows.append((tracker._freq_ema or 0.0, tracker._apex_ema, tracker._active_feet, t))
        # rows of table: each lane's carried-in EMAs, then one per step
        lanes = landed.shape[2]
        table = np.concatenate((self._emas, rows))
        latest = np.repeat(np.arange(lanes)[None], len(times), axis=0)
        np.maximum.at(latest, (at[0], at[2]), np.arange(lanes, lanes + len(rows)))
        emas = table[np.maximum.accumulate(latest, axis=0)]
        self._emas = emas[-1]
        return emas.transpose(2, 0, 1)
