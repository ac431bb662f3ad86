"""Deterministic fixed-timestep simulations of the chasing task, and the
gain-adjustment staircase.

A chase run has three stages. During preparation the target sphere mirrors
the walker's own speed from its start position one circle-lead ahead, first
over a fixed distance and then for a fixed duration. The countdown keeps
mirroring (so the chase starts with zero error), and the timed chase moves
the sphere at constant speed while every metric is collected. Metrics are
computed strictly from frames and step events inside the chase window.

The live loop, run_chase, does each frame's work inline: advance the gait
tracker through the frame's samples, estimate once, evaluate the law built
once per run by speed.law, then integrate. A live frame feeds the next (the
agent re-plans from the chase error), so the loop stays scalar; its
per-frame cost is the agent's samples(), one advance() per sample, one
estimate() and the loop body, and run_chase binds what its loop calls once
per run. Replaying a time-sorted recorded trace advances the same streaming
tracker sample by sample, then computes every frame's estimate, law and
kinematics as arrays in the live loop's operation order, which is what
keeps record/replay reports bit-identical; the DETERMINISM check, the
replay goldens and a property test against a per-frame loop guard that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from enum import Enum
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from . import speed
from .core import (
    DivergedSimulation,
    EmptyWindow,
    Foot,
    FootSample,
    NonTermination,
    WipParams,
    WrongArity,
    require_finite,
)
from .gait import GaitConfig, GaitTracker, StepEvent, estimate_frames
from .synth import MIN_SAMPLE_RATE, chase_policy

REPLAN_INTERVAL = 0.5  # s, how often agents re-plan their gait
DEFAULT_TIMESTEP = 1.0 / 90.0
# Frames one run may have. A run keeps every frame in memory; this is about
# 3 h at 90 Hz, while the default protocol runs 3,000-4,000 frames.
MAX_FRAMES = 1_000_000


class Stage(Enum):
    PREP = "prep"
    COUNTDOWN = "countdown"
    CHASE = "chase"


# Reading an enum member through its class costs ~0.1 us on CPython 3.11;
# the frame loops use these constants instead.
_PREP, _COUNTDOWN, _CHASE = Stage.PREP, Stage.COUNTDOWN, Stage.CHASE
_LEFT = Foot.LEFT


@dataclass(frozen=True)
class ChaseScenario:
    """Geometry and timing of one chasing-task run."""

    target_speed: float          # m/s, sphere speed during the chase
    prep_distance: float = 5.0   # m walked before the timed prep
    prep_duration: float = 10.0  # s
    countdown: float = 3.0       # s
    chase_duration: float = 20.0 # s, the measurement window
    circle_lead: float = 1.0     # m, catch circle ahead of the walker
    timestep: float = DEFAULT_TIMESTEP

    def __post_init__(self) -> None:
        names = [f.name for f in fields(self)]
        require_finite(self, names)
        if self.target_speed < 0.0:
            raise ValueError("target_speed must be >= 0")
        for name in names[1:]:  # the lengths and durations after target_speed
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be > 0")
        if self.timestep > 1.0 / MIN_SAMPLE_RATE:
            raise ValueError(
                f"timestep must be <= 1/{MIN_SAMPLE_RATE:g} s, got {self.timestep!r}"
            )
        frames = self.total_duration / self.timestep
        if frames > MAX_FRAMES:
            raise ValueError(
                f"timestep {self.timestep!r} s over {self.total_duration!r} s gives "
                f"{frames:.4g} frames, more than {MAX_FRAMES}"
            )

    @property
    def prep_walk_time(self) -> float:
        # The walker covers the prep distance at roughly the target speed,
        # so that stage has a deterministic length; a zero target skips it.
        if self.target_speed <= 0.0:
            return 0.0
        return self.prep_distance / self.target_speed

    @property
    def chase_start(self) -> float:
        return self.prep_walk_time + self.prep_duration + self.countdown

    @property
    def total_duration(self) -> float:
        return self.chase_start + self.chase_duration


@dataclass(frozen=True)
class MetricsReport:
    """Per-run summary over the chase window."""

    avg_step_height: float      # m, mean apex of completed steps
    avg_step_frequency: float   # Hz, mean of per-footfall-interval cadences
    avg_target_distance: float  # m, mean |sphere - catch circle center|
    avg_speed: float            # m/s, mean per-frame output speed
    speed_sd: float             # m/s, population SD of per-frame output speed

    def __post_init__(self) -> None:
        for name in (
            "avg_step_height",
            "avg_step_frequency",
            "avg_target_distance",
            "avg_speed",
            "speed_sd",
        ):
            v = getattr(self, name)
            if not math.isfinite(v) or v < 0.0:
                raise ValueError(f"{name} must be finite and >= 0, got {v}")


class FrameRow(NamedTuple):
    time: float
    stage: Stage
    height_left: float
    height_right: float
    est_frequency: float
    est_step_height: float
    raw_speed: float
    output_speed: float
    position: float
    sphere: float
    error: float  # sphere minus catch-circle center; positive means behind


_new_row = tuple.__new__  # a FrameRow without its Python-level __new__


@dataclass
class RunLog:
    """Everything a run produced: per-frame rows, step events, raw samples."""

    scenario: ChaseScenario | None
    rows: list[FrameRow] = field(default_factory=list)
    events: list[StepEvent] = field(default_factory=list)
    samples: list[FootSample] = field(default_factory=list)

    @property
    def window(self) -> tuple[float, float]:
        if self.scenario is None:
            if not self.rows:
                return (0.0, 0.0)
            return (self.rows[0].time, self.rows[-1].time + 1e-9)
        start = self.scenario.chase_start
        return (start, start + self.scenario.chase_duration)


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values)


def _population_sd(values: Sequence[float]) -> float:
    m = _mean(values)
    return math.sqrt(sum((v - m) ** 2 for v in values) / len(values))


def compute_metrics(log: RunLog) -> MetricsReport:
    """Metrics over the chase window only.

    Speed statistics come from per-frame output speeds; step statistics
    come from StepEvents whose re-grounding time falls inside the window.
    Raises EmptyWindow when no frame is in the window.
    """
    start, end = log.window
    rows = [r for r in log.rows if start <= r.time < end]
    if not rows:
        raise EmptyWindow("no frames inside the measurement window")
    speeds = [r.output_speed for r in rows]
    distances = [abs(r.error) for r in rows]

    events = sorted(
        (e for e in log.events if start <= e.end < end), key=lambda e: e.end
    )
    if events:
        avg_height = _mean([e.apex_height for e in events])
    else:
        avg_height = 0.0
    if len(events) >= 2:
        cadences = [
            1.0 / (b.end - a.end) for a, b in zip(events, events[1:]) if b.end > a.end
        ]
        avg_freq = _mean(cadences) if cadences else 0.0
    else:
        avg_freq = 0.0

    return MetricsReport(
        avg_step_height=avg_height,
        avg_step_frequency=avg_freq,
        avg_target_distance=_mean(distances),
        avg_speed=_mean(speeds),
        speed_sd=_population_sd(speeds),
    )


def _stage_bounds(scenario: ChaseScenario) -> tuple[float, float]:
    """Start times of the countdown and of the chase, computed once per run."""
    return scenario.prep_walk_time + scenario.prep_duration, scenario.chase_start


def run_chase(
    scenario: ChaseScenario,
    agent,
    params: WipParams,
    *,
    gait_config: GaitConfig | None = None,
) -> tuple[MetricsReport, RunLog]:
    """Simulate one chasing-task run and compute its metrics.

    The agent must provide command(speed) and samples(now, dt). Each frame
    advances a fresh gait tracker through the frame's samples, appending
    every completed StepEvent to the log, calls estimate(t) once, and feeds
    the estimate to the law speed.law builds for this run; a foot without a
    sample in the frame reads height 0.
    """
    dt = scenario.timestep
    n_frames = int(round(scenario.total_duration / dt))
    replan_every = max(1, int(round(REPLAN_INTERVAL / dt)))
    countdown_start, chase_start = _stage_bounds(scenario)
    circle_lead, target_speed = scenario.circle_lead, scenario.target_speed
    log = RunLog(scenario=scenario)
    tracker = GaitTracker(gait_config)
    advance, estimate, evaluate = tracker.advance, tracker.estimate, speed.law(params)
    command, emit = agent.command, agent.samples
    record, keep_samples, keep_row = log.events.append, log.samples.extend, log.rows.append
    isfinite = math.isfinite

    position = 0.0
    sphere = circle_lead  # starts at the catch-circle center

    command(chase_policy(0.0, target_speed))
    for k in range(n_frames):
        t = k * dt
        error = sphere - (position + circle_lead)
        if k % replan_every == 0:
            command(chase_policy(error, target_speed))

        frame_samples = emit(t, dt)
        height_left = height_right = 0.0
        for s in frame_samples:
            ev = advance(s)
            if ev is not None:
                record(ev)
            if s.foot is _LEFT:
                height_left = s.height
            else:
                height_right = s.height
        f, sh, _, _ = estimate(t)
        raw, out = evaluate(f, sh)
        keep_samples(frame_samples)
        stage = _PREP if t < countdown_start else _COUNTDOWN if t < chase_start else _CHASE
        keep_row(_new_row(FrameRow, (
            t, stage, height_left, height_right, f, sh, raw, out, position, sphere, error,
        )))

        position += out * dt
        sphere += (target_speed if t >= chase_start else out) * dt
        if not (isfinite(position) and isfinite(sphere)):
            raise DivergedSimulation(f"non-finite state at t={t:.3f}")

    return compute_metrics(log), log


def replay_trace(
    samples: Sequence[FootSample],
    params: WipParams,
    scenario: ChaseScenario | None = None,
    *,
    gait_config: GaitConfig | None = None,
) -> tuple[MetricsReport, RunLog]:
    """Replay time-sorted recorded samples, one frame per distinct sample time.

    Every sample goes through the streaming tracker in file order, so step
    events are the live run's; gait.estimate_frames then gives every frame's
    estimate at once, and the law, stages and kinematics are evaluated on
    those arrays with the scalar loop's operation order (the position and
    sphere sums are sequential cumulative sums). Rows, events and reports
    are bit-identical to running the frames one by one as run_chase does;
    the DETERMINISM check, the replay goldens and a property test against a
    per-frame loop guard that. Samples out of time order raise
    NonMonotonicTime.

    With a scenario the chase kinematics are reconstructed exactly as
    run_chase integrates them, so the resulting MetricsReport is
    bit-identical to the recording run's. Without one the whole trace is the
    measurement window, each frame lasts until the next sample time, and the
    target distance is zero.
    """
    if not samples:
        raise EmptyWindow("trace holds no samples")
    log = RunLog(scenario=scenario)
    log.samples = list(samples)
    frames = estimate_frames(log.samples, gait_config, log.events)
    t = frames.time
    n = t.size
    with np.errstate(over="ignore", invalid="ignore"):  # caught as divergence below
        raw, out = speed.law(params)(frames.step_frequency, frames.step_height)
        if scenario is not None:
            dt, circle_lead = scenario.timestep, scenario.circle_lead
            countdown_start, chase_start = _stage_bounds(scenario)
            position = np.cumsum(np.concatenate(([0.0], out * dt)))
            sphere_step = np.where(t >= chase_start, scenario.target_speed, out) * dt
            sphere = np.cumsum(np.concatenate(([circle_lead], sphere_step[:-1])))
            error = (sphere - (position[:-1] + circle_lead)).tolist()
            sphere = sphere.tolist()
            prep, countdown = np.searchsorted(t, (countdown_start, chase_start)).tolist()
            stages = [_PREP] * prep + [_COUNTDOWN] * (countdown - prep) + [_CHASE] * (n - countdown)
        else:
            position = np.cumsum(np.concatenate(([0.0], out * np.diff(t, append=t[-1]))))
            sphere = error = [0.0] * n
            stages = [_CHASE] * n
    diverged = np.flatnonzero(~np.isfinite(position[1:]))
    if diverged.size:
        raise DivergedSimulation(f"non-finite state at t={t[diverged[0]]:.3f}")

    log.rows = list(map(FrameRow._make, zip(
        t.tolist(), stages, frames.height_left.tolist(), frames.height_right.tolist(),
        frames.step_frequency.tolist(), frames.step_height.tolist(), raw.tolist(),
        out.tolist(), position[:-1].tolist(), sphere, error,
    )))
    return compute_metrics(log), log


# ----------------------------------------------------------------------
# the gain-adjustment staircase


class SlopeKind(Enum):
    UPHILL = "uphill"
    DOWNHILL = "downhill"


class SeriesKind(Enum):
    ASCENDING = "ascending"    # gain climbs from a low start
    DESCENDING = "descending"  # gain falls from a high start


# (interval, ascending start, descending start) per slope
STAIRCASE_PRESETS = {
    SlopeKind.UPHILL: (0.07, 0.3, 1.0),
    SlopeKind.DOWNHILL: (0.15, 1.0, 2.5),
}


@dataclass(frozen=True)
class AdjustmentProtocol:
    """One staircase series: judge the gain, step, repeat."""

    slope: SlopeKind
    series: SeriesKind
    initial_gain: float
    interval: float
    judge: Callable[[float], bool]
    max_bouts: int = 100

    @classmethod
    def preset(
        cls,
        slope: SlopeKind,
        series: SeriesKind,
        judge: Callable[[float], bool],
        **overrides,
    ) -> "AdjustmentProtocol":
        interval, asc_start, desc_start = STAIRCASE_PRESETS[slope]
        initial = asc_start if series is SeriesKind.ASCENDING else desc_start
        kwargs = dict(
            slope=slope,
            series=series,
            initial_gain=initial,
            interval=interval,
            judge=judge,
        )
        kwargs.update(overrides)
        return cls(**kwargs)


def make_reference_judge(reference: float, tolerance: float) -> Callable[[float], bool]:
    """Synthetic stand-in for a human judgment: satisfied near a reference."""

    def judge(gain: float) -> bool:
        return abs(gain - reference) <= tolerance

    return judge


def run_adjustment(protocol: AdjustmentProtocol) -> float:
    """Run one staircase series and return the accepted gain.

    Every bout asks the judge about the current gain; gains step by the
    protocol interval in the series direction. Raises NonTermination if the
    judge stays unsatisfied for max_bouts bouts or the gain leaves the
    positive domain.
    """
    direction = 1.0 if protocol.series is SeriesKind.ASCENDING else -1.0
    for k in range(protocol.max_bouts):
        gain = protocol.initial_gain + direction * k * protocol.interval
        if gain <= 0.0:
            raise NonTermination(
                f"staircase left the positive-gain domain after {k} bouts"
            )
        if protocol.judge(gain):
            return gain
    raise NonTermination(f"judge unsatisfied after {protocol.max_bouts} bouts")


def aggregate_adjustments(gains: Iterable[float]) -> float:
    """Mean of exactly four series results (two per direction)."""
    values = list(gains)
    if len(values) != 4:
        raise WrongArity(f"expected 4 adjustment results, got {len(values)}")
    return sum(values) / 4.0
