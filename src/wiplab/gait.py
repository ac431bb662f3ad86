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
suite exploits as an oracle. It also lets estimate_frames derive each
foot's swing state for a whole recorded stream from its heights alone.
"""

from __future__ import annotations

import math
import operator
from collections import deque
from dataclasses import dataclass
from enum import Enum
from itertools import islice, repeat
from typing import NamedTuple, Sequence

import numpy as np

from .core import (
    HEIGHT_CEILING,
    HEIGHT_FLOOR,
    Foot,
    FootSample,
    GaitEstimate,
    NonMonotonicTime,
    validate_sample,
)


class Phase(Enum):
    GROUNDED = "grounded"
    ASCENDING = "ascending"
    DESCENDING = "descending"


# Reading an enum member through its class costs ~0.1 us on CPython 3.11;
# the per-frame paths compare against these constants instead.
_GROUNDED, _ASCENDING, _DESCENDING = Phase.GROUNDED, Phase.ASCENDING, Phase.DESCENDING
_LEFT = Foot.LEFT
_FEET = (Foot.LEFT, Foot.RIGHT)
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
        self._recent_feet.append(event.foot)
        self._active_feet = len(set(self._recent_feet))

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


class _FootFrames(NamedTuple):
    """One foot's tracker state after each frame's samples; stacked, each
    field has a leading axis of 2, row 0 the left foot."""

    height: np.ndarray         # the frame's sample height, 0 without one
    aerial: np.ndarray         # phase is not GROUNDED
    valid: np.ndarray          # aerial in a swing whose lift-off was seen
    anchor: np.ndarray         # swing_start when valid, else entered_at
    running_apex: np.ndarray
    grounded_since: np.ndarray  # entered_at while grounded, -inf otherwise


def _foot_frames(
    idx: np.ndarray,
    t: np.ndarray,
    h: np.ndarray,
    aerial: np.ndarray,
    frame: np.ndarray,
    n_frames: int,
    entered: np.ndarray,
) -> _FootFrames:
    """Derive one foot's per-frame tracker state from its heights.

    idx holds the global indices of the foot's samples. Grounded means
    h <= GROUND_EPSILON, so the phase is GROUNDED exactly when the latest
    sample is grounded; a swing is valid once the foot has been seen on the
    ground; swing_start is the last grounded sample time, and the running
    apex is the running max within each aerial run. entered holds the
    tracker's entered_at, read after each sample of a run the foot was first
    seen in: its ascent/descent switches are the velocity machine's.
    """
    if idx.size == 0:
        never = np.zeros(n_frames, bool)
        zero = np.zeros(n_frames)
        return _FootFrames(zero, never, never, zero, zero, np.full(n_frames, -np.inf))
    tx, hx, ax = t[idx], h[idx], aerial[idx]
    gx = ~ax
    m = idx.size
    entry = gx & np.concatenate(([True], ax[:-1]))  # a first sample enters a phase too
    grounded_since = np.maximum.accumulate(np.where(entry, tx, -np.inf))
    anchor = np.maximum.accumulate(np.where(gx, tx, -np.inf))  # swing_start
    first_grounded = int(gx.argmax()) if gx.any() else m
    valid = ax & (np.arange(m) > first_grounded)
    anchor[:first_grounded] = entered[idx[:first_grounded]]

    running_apex = hx.copy()
    edges = np.flatnonzero(np.diff(ax, prepend=False, append=False))
    for a, b in zip(edges[0::2].tolist(), edges[1::2].tolist()):
        np.maximum.accumulate(hx[a:b], out=running_apex[a:b])

    fx = frame[idx]
    height = np.zeros(n_frames)
    height[fx] = hx
    latest = np.full(n_frames, -1)
    latest[fx] = np.arange(m)  # one sample per foot per frame
    latest = np.maximum.accumulate(latest)
    seen = latest >= 0
    j = np.maximum(latest, 0)
    aerial_f = seen & ax[j]
    return _FootFrames(
        height,
        aerial_f,
        seen & valid[j],
        anchor[j],
        running_apex[j],
        np.where(seen & ~aerial_f, grounded_since[j], -np.inf),
    )


def estimate_frames(samples: Sequence[FootSample], events: list[StepEvent]) -> FrameEstimates:
    """Stream time-sorted samples through one tracker, then estimate every
    frame at once.

    Every sample goes through GaitTracker.advance, in order, so validation,
    segmentation and the StepEvents (appended to events) are the streaming
    tracker's. The tracker's EMA state is snapshotted after each step event,
    and each foot's swing state is derived from its heights; from both, the
    frequency and step height that estimate(t) returns after each frame's
    samples are computed with array operations, bit for bit.

    Raises NonMonotonicTime at the first sample whose time precedes the one
    before it: staleness reads the latest grounding time, which is a running
    max only on sorted input.
    """
    tracker = GaitTracker()
    n = len(samples)
    times, feet, heights = zip(*samples)
    t = np.array(times, dtype=float)
    h = np.array(heights, dtype=float)
    left = np.fromiter(map(operator.is_, feet, repeat(_LEFT)), bool, n)
    aerial = h > GROUND_EPSILON
    per_foot = (np.flatnonzero(left), np.flatnonzero(~left))

    backwards = np.flatnonzero(t[1:] < t[:-1])
    stop = int(backwards[0]) + 1 if backwards.size else n
    # samples of a run a foot was first seen in, up to its first grounded one
    first_run = 0
    for idx in per_foot:
        ax = aerial[idx]
        if ax.size and ax[0]:
            first_run = max(first_run, n if ax.all() else int(idx[ax.argmin()]))

    advance, found = tracker.advance, []
    snapshots: list[tuple[float | None, float | None, int]] = []
    entered: list[float] = []
    for s in islice(samples, min(first_run, stop)):
        ev = advance(s)
        if ev is not None:
            found.append(ev)
            snapshots.append((tracker._freq_ema, tracker._apex_ema, tracker._active_feet))
        entered.append((tracker._left if s.foot is _LEFT else tracker._right).entered_at)
    for s in islice(samples, len(entered), stop):
        ev = advance(s)
        if ev is not None:
            found.append(ev)
            snapshots.append((tracker._freq_ema, tracker._apex_ema, tracker._active_feet))
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
    entered_at = np.array(entered)
    feet = _FootFrames(*map(np.array, zip(*(
        _foot_frames(idx, t, h, aerial, frame, n_frames, entered_at) for idx in per_foot
    ))))

    # EMA state after the last footfall at or before each frame; entry 0 is
    # the state before any footfall
    freq_ema, apex_ema, active = zip((None, None, 1), *snapshots)
    footfall = np.array([np.nan] + [ev.end for ev in found])  # NaN: no gap bound
    snap = np.searchsorted(np.searchsorted(now, footfall[1:]), np.arange(n_frames), side="right")
    step_frequency, step_height = _estimate_columns(
        now,
        feet,
        np.array([f or 0.0 for f in freq_ema])[snap],
        np.array([a if a is not None else 0.0 for a in apex_ema])[snap],
        np.array(active)[snap],
        footfall[snap],
    )
    return FrameEstimates(now, feet.height[0], feet.height[1], step_frequency, step_height)


def _estimate_columns(
    now, feet: _FootFrames, ema: np.ndarray, base: np.ndarray, active_feet, footfall: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """What estimate(now) returns, bit for bit, for many queries at once.

    feet holds (2, ...) arrays, row 0 the left foot (height unread); now
    and the rest broadcast against one row: the cadence EMA (0 for none,
    which bounds the cadence to 0 as a missing one does, since a real EMA
    is > 0), the apex EMA (0 for none), the active feet and the last
    footfall time (NaN for none). Minima and maxima over feet are exact.
    """
    elapsed = now - feet.anchor
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

    aerial, grounded_since = feet.aerial, feet.grounded_since
    stale = ~(aerial[0] | aerial[1]) & (
        now - np.maximum(grounded_since[0], grounded_since[1]) >= STOP_WINDOW
    )
    return np.where(stale, 0.0, np.maximum(0.0, freq)), np.where(stale, 0.0, height)


# ----------------------------------------------------------------------
# lanes of trackers stepped in lockstep


class TrackerLanes:
    """GaitTrackers for lanes fed in lockstep: at every tick each lane gets
    one left and one right sample at the tick's time.

    Each foot's state is a column of (2, lanes) arrays, row 0 the left
    foot, and follows GaitTracker.advance's comparisons. What depends only
    on the heights (grounding, velocity, lift-off, swing start) is computed
    for a run of ticks at once, the running apex, the descending flags and
    swing validity step tick by tick, and phase entries follow from both.
    Each step is registered on its lane's own GaitTracker, so the EMAs stay
    scalar. validate_sample checks every tick's time and first bad height.
    """

    def __init__(self, lanes: int):
        self._trackers = [GaitTracker() for _ in range(lanes)]
        self.events: list[list[StepEvent]] = [[] for _ in range(lanes)]
        self._prev_time: float | None = None
        # the state arrays are replaced, never written in place
        self._aerial = self._descending = self._valid = np.zeros((2, lanes), bool)
        self._entered_at = self._prev_height = self._swing_start = np.zeros((2, lanes))
        self._running_apex = self._apex_time = self._swing_start
        # each lane's _estimate_columns EMA arguments after its latest footfall
        self._emas = np.array([[0.0], [0.0], [1.0], [np.nan]]).repeat(lanes, axis=1)

    def advance(self, times: list[float], heights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Ingest ticks at times, heights[k] holding every lane's left and
        right heights, and return each lane's estimate(times[k]) after each
        tick: step frequency and step height as (ticks, lanes) arrays."""
        lanes, prev = heights.shape[2], self._prev_time
        if prev is None:  # each foot's first sample starts its phase
            self._aerial, self._prev_height = heights[0] > GROUND_EPSILON, heights[0]
            self._entered_at = np.full(heights[0].shape, times[0])
        in_range = (HEIGHT_FLOOR <= heights) & (heights <= HEIGHT_CEILING)
        first_bad = in_range.reshape(len(times), -1).argmin(axis=1).tolist()  # 0: none
        tick_before = [prev, *times[:-1]]
        now = np.array(times)[:, None, None]
        before = np.array([-np.inf if prev is None else prev, *times[:-1]])[:, None, None]
        airborne = heights > GROUND_EPSILON
        was_aerial = np.concatenate(([self._aerial], airborne[:-1]))
        lift, staying_up = airborne > was_aerial, airborne & was_aerial
        with np.errstate(invalid="ignore"):  # a non-finite height fails validation below
            velocity = np.diff(heights, axis=0, prepend=[self._prev_height]) / (now - before)
        falling, not_rising = velocity < -VELOCITY_DEADBAND, ~(velocity > VELOCITY_DEADBAND)
        # the sample time before each foot's latest lift-off
        swing_start = np.maximum(self._swing_start, np.maximum.accumulate(
            np.where(lift, before, -np.inf), axis=0
        ))

        desc, valid, running_apex, apex_time = (
            self._descending, self._valid, self._running_apex, self._apex_time
        )
        after = []
        for k, (t, h, bad) in enumerate(zip(times, heights, first_bad)):
            validate_sample(FootSample(t, _FEET[bad // lanes], h.item(bad)), tick_before[k])
            # a valid swing is aerial, so a valid foot back on the ground landed
            landed = valid & ~airborne[k] & (running_apex >= MIN_STEP_HEIGHT)
            if np.count_nonzero(landed):
                self._footfalls(landed, t, swing_start[k], apex_time, running_apex)
            desc = staying_up[k] & np.where(desc, not_rising[k], falling[k])
            peak = lift[k] | (airborne[k] & (h > running_apex))
            running_apex = np.where(peak, h, running_apex)
            apex_time = np.where(peak, t, apex_time)
            valid = lift[k] | (valid & airborne[k])
            after.append((desc, valid, running_apex, self._emas))
        descending, valid_at, apex_at, emas = map(np.array, zip(*after))

        was_descending = np.concatenate(([self._descending], descending[:-1]))
        changed = (airborne != was_aerial) | (descending != was_descending)
        entered_at = np.maximum(self._entered_at, np.maximum.accumulate(
            np.where(changed, now, -np.inf), axis=0
        ))
        self._prev_time, self._prev_height = times[-1], heights[-1]
        self._aerial, self._descending, self._valid = airborne[-1], desc, valid
        self._running_apex, self._apex_time = running_apex, apex_time
        self._swing_start, self._entered_at = swing_start[-1], entered_at[-1]

        # entered_at stands in for grounded_since: staleness reads it only
        # while both feet are grounded, and then the two are equal
        anchor = np.where(valid_at, swing_start, entered_at)
        feet = _FootFrames(*(a.swapaxes(0, 1) for a in (
            heights, airborne, valid_at, anchor, apex_at, entered_at,
        )))
        return _estimate_columns(now[:, :, 0], feet, *emas.swapaxes(0, 1))

    def _footfalls(self, landed, t, swing_start, apex_time, running_apex) -> None:
        # flat order visits every left foot before any right one, so a lane
        # whose feet both land on this tick registers the left step first;
        # the EMA array is copied first, since earlier ticks refer to it
        emas = self._emas = self._emas.copy()
        for i in np.flatnonzero(landed).tolist():
            foot, lane = divmod(i, landed.shape[1])
            event = StepEvent(
                _FEET[foot], swing_start.item(i), apex_time.item(i), t, running_apex.item(i)
            )
            tracker = self._trackers[lane]
            tracker._register_footfall(event)
            self.events[lane].append(event)
            emas[:, lane] = (tracker._freq_ema or 0.0, tracker._apex_ema, tracker._active_feet, t)
