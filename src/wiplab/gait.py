"""Per-foot gait phase recognition and real-time cadence and step-height
estimation from foot-height streams.

Each foot runs a three-state machine (grounded / ascending / descending)
keyed on a ground threshold plus a vertical-velocity deadband. Completed
steps become StepEvents; cadence is smoothed from footfall intervals and,
between footfalls, bounded by partial-phase evidence so the estimate decays
within a fraction of a step when the user slows or stops.

Grounded is defined purely by height against ground_epsilon. That keeps
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

from .core import Foot, FootSample, GaitEstimate, NonMonotonicTime, validate_sample


class Phase(Enum):
    GROUNDED = "grounded"
    ASCENDING = "ascending"
    DESCENDING = "descending"


# Reading an enum member through its class costs ~0.1 us on CPython 3.11;
# the per-frame paths compare against these constants instead.
_GROUNDED, _ASCENDING, _DESCENDING = Phase.GROUNDED, Phase.ASCENDING, Phase.DESCENDING
_LEFT = Foot.LEFT


# Transitions the state machine may take; anything else is a bug.
LEGAL_TRANSITIONS = frozenset(
    {
        (Phase.GROUNDED, Phase.ASCENDING),
        (Phase.ASCENDING, Phase.DESCENDING),
        (Phase.DESCENDING, Phase.GROUNDED),
        (Phase.DESCENDING, Phase.ASCENDING),  # re-lift mid-descent
        (Phase.ASCENDING, Phase.GROUNDED),    # aborted micro-step
    }
)


@dataclass(frozen=True)
class GaitPhase:
    """Public view of one foot's current phase."""

    phase: Phase
    entered_at: float       # s
    height_at_entry: float  # m


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


@dataclass(frozen=True)
class GaitConfig:
    """Thresholds and smoothing constants of the tracker.

    The phase fractions are the nominal share of one per-foot gait cycle
    spent in each phase; they drive the partial-step frequency bound. The
    partial_slack factor tolerates one sample of censoring at the phase
    boundary so steady gait never gets dragged below its true cadence.
    """

    ground_epsilon: float = 0.01     # m, grounded iff height <= this
    velocity_deadband: float = 0.05  # m/s, hysteresis between aerial phases
    min_step_height: float = 0.03    # m, smaller apexes are jitter, not steps
    fraction_grounded: float = 0.4
    fraction_ascending: float = 0.3
    fraction_descending: float = 0.3
    smoothing_tau: float = 0.5       # s, EMA time constant for cadence and apex
    stop_window: float = 0.8         # s without activity means stopped
    resume_gap: float = 2.5          # s, footfall gaps past this are a restart
    partial_slack: float = 1.15
    buffer_len: int = 8              # completed steps kept for estimation

    @property
    def swing_fraction(self) -> float:
        return self.fraction_ascending + self.fraction_descending


@dataclass
class _FootTrack:
    phase: Phase
    entered_at: float
    height_at_entry: float
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
    query the estimators at any time at or after the newest sample.

    Staleness is tracked incrementally: a count of feet off the ground is
    kept up to date on every phase transition, so is_stale() is O(1), and
    estimate() checks it once per query.
    """

    def __init__(self, config: GaitConfig | None = None):
        self.config = config or GaitConfig()
        self._left: _FootTrack | None = None
        self._right: _FootTrack | None = None
        self._airborne = 0  # tracks whose phase is not GROUNDED
        self._events: deque[StepEvent] = deque(maxlen=self.config.buffer_len)
        self._active_feet = 1  # distinct feet among the last four events
        self._last_transition: float | None = None
        self._last_footfall: float | None = None
        self._freq_ema: float | None = None
        self._apex_ema: float | None = None
        self._apex_ema_at: float = 0.0
        self._total_steps: int = 0

    # ------------------------------------------------------------------
    # ingestion

    def advance(self, sample: FootSample) -> StepEvent | None:
        """Ingest one sample; returns a StepEvent when a step completes."""
        left = sample.foot is _LEFT
        track = self._left if left else self._right
        validate_sample(sample, track.prev_time if track is not None else None)
        cfg = self.config
        t, h = sample.time, sample.height
        grounded = h <= cfg.ground_epsilon

        if track is None:
            # A foot first seen in the air has no known lift-off; its current
            # swing is discarded rather than guessed at.
            phase = _GROUNDED if grounded else _ASCENDING
            track = _FootTrack(
                phase=phase,
                entered_at=t,
                height_at_entry=h,
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

        velocity = (h - track.prev_height) / (t - track.prev_time)
        old = track.phase
        new = old
        event: StepEvent | None = None

        if old is _GROUNDED:
            if not grounded:
                new = _ASCENDING
                track.swing_start = track.prev_time
                track.swing_valid = True
                track.running_apex = h
                track.apex_time = t
        else:
            if grounded:
                new = _GROUNDED
                if track.swing_valid and track.running_apex >= cfg.min_step_height:
                    event = StepEvent(
                        foot=sample.foot,
                        start=track.swing_start,
                        apex_time=track.apex_time,
                        end=t,
                        apex_height=track.running_apex,
                    )
                    self._register_footfall(event)
                track.swing_valid = False
            else:
                if h > track.running_apex:
                    track.running_apex = h
                    track.apex_time = t
                if old is _ASCENDING and velocity < -cfg.velocity_deadband:
                    new = _DESCENDING
                elif old is _DESCENDING and velocity > cfg.velocity_deadband:
                    new = _ASCENDING

        if new is not old:
            if old is _GROUNDED:
                self._airborne += 1
            elif new is _GROUNDED:
                self._airborne -= 1
            track.phase = new
            track.entered_at = t
            track.height_at_entry = h
            self._last_transition = t
        track.prev_time = t
        track.prev_height = h
        return event

    def _register_footfall(self, event: StepEvent) -> None:
        cfg = self.config
        prev_footfall = self._last_footfall
        self._last_footfall = event.end
        self._total_steps += 1
        self._events.append(event)
        recent = list(self._events)[-4:]
        self._active_feet = len({e.foot for e in recent})

        if prev_footfall is not None:
            delta = event.end - prev_footfall
            if delta > cfg.resume_gap:
                # gait restarted after a pause; the spanning interval is not
                # a cadence sample, so re-seed on the next real one. (Note
                # this is deliberately longer than stop_window: slow but
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
                    alpha = 1.0 - math.exp(-delta / cfg.smoothing_tau)
                    self._freq_ema += alpha * (freq - self._freq_ema)

        if self._apex_ema is None:
            self._apex_ema = event.apex_height
        else:
            dt = max(0.0, event.end - self._apex_ema_at)
            alpha = 1.0 - math.exp(-dt / cfg.smoothing_tau)
            self._apex_ema += alpha * (event.apex_height - self._apex_ema)
        self._apex_ema_at = event.end

    # ------------------------------------------------------------------
    # queries

    def phase(self, foot: Foot) -> GaitPhase | None:
        track = self._left if foot is _LEFT else self._right
        if track is None:
            return None
        return GaitPhase(track.phase, track.entered_at, track.height_at_entry)

    def events(self) -> tuple[StepEvent, ...]:
        return tuple(self._events)

    @property
    def total_steps(self) -> int:
        return self._total_steps

    def is_stale(self, now: float) -> bool:
        """Stopped: every foot grounded and no phase activity in the window."""
        if self._last_transition is None:
            return True
        if self._airborne:
            return False
        return now - self._last_transition >= self.config.stop_window

    def estimate_frequency(self, now: float) -> float:
        """Footfall cadence over both feet, Hz.

        The committed value is an EMA over completed footfall intervals. A
        phase in progress contributes a partial bound fraction / elapsed
        (scaled to cadence by the number of active feet), and the gap since
        the last footfall bounds likewise, so slowing decays the estimate
        before the next footfall confirms it. Returns 0 when stale or
        before two footfalls have been seen.
        """
        if self.is_stale(now):
            return 0.0
        return self._frequency(now)

    def _frequency(self, now: float) -> float:
        """estimate_frequency() without the stale check."""
        if self._freq_ema is None:
            return 0.0
        cfg = self.config
        candidates = [self._freq_ema]

        active_feet = self._active_feet
        swing_fraction = cfg.swing_fraction
        for track in (self._left, self._right):
            if track is None or track.phase is _GROUNDED:
                continue
            # anchor at lift-off when it was observed; the whole-swing
            # budget keeps the bound independent of where the deadband
            # happens to split ascent from descent
            anchor = track.swing_start if track.swing_valid else track.entered_at
            elapsed = now - anchor
            if elapsed > 0.0:
                partial = swing_fraction / elapsed
                candidates.append(cfg.partial_slack * active_feet * partial)

        if self._last_footfall is not None:
            gap = now - self._last_footfall
            if gap > 0.0:
                candidates.append(cfg.partial_slack / gap)

        return max(0.0, min(candidates))

    def estimate_step_height(self, now: float) -> float:
        """Smoothed apex height, m.

        EMA over completed step apexes, blended upward with the running
        apex of any swing in progress so a user stepping higher is seen
        before the step completes. Returns 0 when stale.
        """
        if self.is_stale(now):
            return 0.0
        return self._step_height(now)

    def _step_height(self, now: float) -> float:
        """estimate_step_height() without the stale check."""
        cfg = self.config
        base = self._apex_ema if self._apex_ema is not None else 0.0
        value = base
        for track in (self._left, self._right):
            if track is None or track.phase is _GROUNDED or not track.swing_valid:
                continue
            if track.running_apex <= base:
                continue
            weight = min(1.0, max(0.0, (now - track.swing_start) / cfg.smoothing_tau))
            value = max(value, base + weight * (track.running_apex - base))
        return value

    def estimate(self, now: float) -> GaitEstimate:
        """Bundle both estimators into the structure the speed laws consume."""
        if self.is_stale(now):
            return GaitEstimate(0.0, 0.0, now, True)
        return GaitEstimate(self._frequency(now), self._step_height(now), now, False)


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
    """One foot's tracker state after each frame's samples."""

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
    h <= ground_epsilon, so the phase is GROUNDED exactly when the latest
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


def estimate_frames(
    samples: Sequence[FootSample],
    config: GaitConfig | None,
    events: list[StepEvent],
) -> FrameEstimates:
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
    tracker = GaitTracker(config)
    cfg = tracker.config
    n = len(samples)
    times, feet, heights = zip(*samples)
    t = np.array(times, dtype=float)
    h = np.array(heights, dtype=float)
    left = np.fromiter(map(operator.is_, feet, repeat(_LEFT)), bool, n)
    aerial = h > cfg.ground_epsilon
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
    feet_f = [_foot_frames(idx, t, h, aerial, frame, n_frames, entered_at) for idx in per_foot]

    # EMA state after the last footfall at or before each frame; entry 0 is
    # the state before any footfall
    freq_ema, apex_ema, active = zip((None, None, 1), *snapshots)
    footfall = np.array([np.nan] + [ev.end for ev in found])  # NaN: no gap bound
    snap = np.searchsorted(np.searchsorted(now, footfall[1:]), np.arange(n_frames), side="right")
    has_freq = np.array([f is not None for f in freq_ema])[snap]
    ema = np.array([f if f is not None else np.inf for f in freq_ema])[snap]
    base = np.array([a if a is not None else 0.0 for a in apex_ema])[snap]
    active_feet = np.array(active)[snap]
    footfall = footfall[snap]

    slack = cfg.partial_slack
    freq = ema
    for foot in feet_f:
        elapsed = now - foot.anchor
        bound = foot.aerial & (elapsed > 0.0)
        partial = np.divide(cfg.swing_fraction, elapsed, out=np.zeros(n_frames), where=bound)
        freq = np.where(bound, np.minimum(freq, slack * active_feet * partial), freq)
    gap = now - footfall
    bound = gap > 0.0
    gap_bound = np.divide(slack, gap, out=np.zeros(n_frames), where=bound)
    freq = np.where(bound, np.minimum(freq, gap_bound), freq)

    value = base
    for foot in feet_f:
        rising = foot.valid & (foot.running_apex > base)
        weight = np.minimum(1.0, np.maximum(0.0, (now - foot.anchor) / cfg.smoothing_tau))
        value = np.where(
            rising, np.maximum(value, base + weight * (foot.running_apex - base)), value
        )

    left_f, right_f = feet_f
    stale = ~(left_f.aerial | right_f.aerial) & (
        now - np.maximum(left_f.grounded_since, right_f.grounded_since) >= cfg.stop_window
    )
    return FrameEstimates(
        now,
        left_f.height,
        right_f.height,
        np.where(has_freq & ~stale, np.maximum(0.0, freq), 0.0),
        np.where(stale, 0.0, value),
    )
