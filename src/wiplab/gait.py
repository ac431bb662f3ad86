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
suite exploits as an oracle.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from enum import Enum

from .core import Foot, FootSample, GaitEstimate, validate_sample


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
