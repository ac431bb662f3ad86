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
once per run by speed.law, then integrate. Its per-frame cost is the
agent's samples(), one advance() per sample, one estimate() and the loop
body, and run_chase binds what its loop calls once per run. It is the
single-run path: simulate, record and the tests use it.

Independent chases that share a scenario run in lockstep as lanes:
run_chase_lanes keeps every lane's state in numpy arrays and returns the
reports run_chase would, bit for bit. Its exactness rules: each array
operation is the scalar one, elementwise and in the same order (the tests
pin np.sin to math.sin and np.mod(x, 1.0) to x % 1.0); state that steps
from tick to tick is scanned a re-plan interval at a time with sequential
cumulative sums (the gait clock, restarted at each wrap), running maxima
and forward fills (the running apex, swing and descending flags); the EMAs
update per lane at footfalls with math.exp (np.exp differs); each lane
draws its agent's noise only while its SD is positive; the only
reductions are min, max and sequential cumulative sums (replay shares
the kinematics, _integrate), and the reports come from compute_metrics's
own arithmetic, _window_metrics.

Replay reads a time-sorted recorded trace as columns (core.Samples, as
traceio.load_trace returns it). It advances the same streaming tracker
sample by sample for its validation, step events and EMAs, and reads each
foot's swing state from gait's swing scan, the one run_chase_lanes'
trackers step with. It then computes every frame's estimate, law and
kinematics as arrays in the live loop's operation order, and its metrics
from those arrays, which is what keeps record/replay reports
bit-identical; the DETERMINISM check, the replay goldens and a property
test against a per-frame loop guard that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from enum import Enum
from itertools import repeat
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from . import speed
from .core import (
    DivergedSimulation,
    EmptyWindow,
    Foot,
    FootSample,
    NonTermination,
    Samples,
    WipParams,
    WrongArity,
    require_finite,
)
from .gait import GaitTracker, StepEvent, TrackerLanes, estimate_frames
from .synth import MIN_SAMPLE_RATE, WalkerAgent, WalkerLanes, chase_policy

REPLAN_INTERVAL = 0.5  # s, how often agents re-plan their gait
DEFAULT_TIMESTEP = 1.0 / 90.0
# Frames one run may have. A run keeps every frame in memory; this is about
# 3 h at 90 Hz, while the default protocol runs 3,000-4,000 frames.
MAX_FRAMES = 1_000_000
# Fastest target and sample rate a scenario may ask for: far past any walker
# (MAX_STEP_HEIGHT at MAX_FREQUENCY gives ~12 m/s) and any foot tracker.
# Beyond them sums of a chase's positions and speeds can overflow.
MAX_TARGET_SPEED = 100.0  # m/s
MAX_SAMPLE_RATE = 10_000.0  # Hz


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
        if not 0.0 <= self.target_speed <= MAX_TARGET_SPEED:
            raise ValueError(f"target_speed must be in [0, {MAX_TARGET_SPEED:g}] m/s")
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
                f"timestep {self.timestep!r} s over {self.total_duration!r} s (prep_distance"
                " / target_speed + prep_duration + countdown + chase_duration) gives "
                f"{frames:.4g} frames, more than {MAX_FRAMES}"
            )
        if self.timestep < 1.0 / MAX_SAMPLE_RATE:
            raise ValueError(f"timestep must be >= 1/{MAX_SAMPLE_RATE:g} s, got {self.timestep!r}")

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
    samples: Sequence[FootSample] = field(default_factory=list)  # replay: a Samples

    @property
    def window(self) -> tuple[float, float]:
        if self.scenario is None:
            if not self.rows:
                return (0.0, 0.0)
            # the next float: a fixed epsilon vanishes into large times
            return (self.rows[0].time, math.nextafter(self.rows[-1].time, math.inf))
        start = self.scenario.chase_start
        return (start, start + self.scenario.chase_duration)


def _mean(values: Sequence[float]) -> float:
    # np.cumsum adds in order on every Python; from 3.12 on, sum() of floats
    # compensates, which would move a report's bits
    return float(np.cumsum(values)[-1]) / len(values)


def _population_sd(values: np.ndarray) -> float:
    m = _mean(values)
    return math.sqrt(_mean([d ** 2 for d in (values - m).tolist()]))  # float ** is C pow


def compute_metrics(log: RunLog) -> MetricsReport:
    """Metrics over the chase window only.

    Speed statistics come from per-frame output speeds; step statistics
    come from StepEvents whose re-grounding time falls inside the window.
    Raises EmptyWindow when no frame is in the window.
    """
    start, end = log.window
    rows = [r for r in log.rows if start <= r.time < end]
    return _window_metrics(
        [r.output_speed for r in rows], [r.error for r in rows], log.events, start, end
    )


def _window_metrics(
    speeds: Sequence[float], errors: Sequence[float], events: Iterable[StepEvent],
    start: float, end: float,
) -> MetricsReport:
    """compute_metrics' arithmetic: the output speeds and chase errors of the
    frames in the window [start, end), in frame order, and the run's events."""
    if not len(speeds):
        raise EmptyWindow("no frames inside the measurement window")
    speeds, errors = np.asarray(speeds, dtype=float), np.asarray(errors, dtype=float)
    events = sorted((e for e in events if start <= e.end < end), key=lambda e: e.end)
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
        avg_target_distance=_mean(np.abs(errors)),
        avg_speed=_mean(speeds),
        speed_sd=_population_sd(speeds),
    )


def _stage_bounds(scenario: ChaseScenario) -> tuple[float, float]:
    """Start times of the countdown and of the chase, computed once per run."""
    return scenario.prep_walk_time + scenario.prep_duration, scenario.chase_start


def _integrate(scenario: ChaseScenario, now, out, position, sphere) -> tuple[np.ndarray, ...]:
    """run_chase's position and sphere sums down axis 0 for the frames at times
    now, a row per frame start and one after the last, and each frame's error.
    Raises DivergedSimulation at the first frame left non-finite."""
    dt, circle_lead = scenario.timestep, scenario.circle_lead
    chasing = np.reshape(now >= scenario.chase_start, (-1,) + (1,) * (out.ndim - 1))
    with np.errstate(over="ignore", invalid="ignore"):  # caught as divergence below
        sphere_step = np.where(chasing, scenario.target_speed * dt, out * dt)
        position = np.cumsum(np.concatenate(([position], out * dt)), axis=0)
        sphere = np.cumsum(np.concatenate(([sphere], sphere_step)), axis=0)
        error = sphere[:-1] - (position[:-1] + circle_lead)
    finite = (np.isfinite(position[1:]) & np.isfinite(sphere[1:])).reshape(now.size, -1).all(axis=1)
    if not finite.all():
        raise DivergedSimulation(f"non-finite state at t={now[finite.argmin()]:.3f}")
    return position, sphere, error


def run_chase(scenario: ChaseScenario, agent, params: WipParams) -> tuple[MetricsReport, RunLog]:
    """Simulate one chasing-task run and compute its metrics.

    The agent provides command(speed), called once per re-plan from frame 0
    on, and samples(now, dt); a WalkerAgent's noise comes straight from its
    generator. Each frame advances the run's gait tracker through its samples,
    logging each StepEvent, calls estimate(t) once and feeds it to the law
    speed.law builds; a foot with no sample in the frame reads height 0.
    """
    dt = scenario.timestep
    n_frames = int(round(scenario.total_duration / dt))
    replan_every = max(1, int(round(REPLAN_INTERVAL / dt)))
    countdown_start, chase_start = _stage_bounds(scenario)
    circle_lead, target_speed = scenario.circle_lead, scenario.target_speed
    log = RunLog(scenario=scenario)
    tracker = GaitTracker()
    advance, estimate, evaluate = tracker.advance, tracker.estimate, speed.law(params)
    command, emit = agent.command, agent.samples
    record, keep_samples, keep_row = log.events.append, log.samples.extend, log.rows.append
    isfinite = math.isfinite

    position = 0.0
    sphere = circle_lead  # starts at the catch-circle center

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


def run_chase_lanes(
    scenario: ChaseScenario, agents: Sequence[WalkerAgent], params: Sequence[WipParams]
) -> list[MetricsReport]:
    """run_chase for many walkers at once: one report per lane, each equal
    to run_chase(scenario, agents[i], params[i])'s bit for bit.

    The lanes run in lockstep, a re-plan interval at a time, with no Python
    loop over frames: each lane re-plans through its own agent (a
    WalkerAgent), synth.WalkerLanes emits the interval's samples and
    gait.TrackerLanes returns every frame's estimates, each with array
    scans over the interval; then speed.law runs once per distinct params
    on its lanes and position and sphere are cumulative sums, as in
    replay_trace. Python loops run only over lanes at a re-plan, over step
    events and over gait-clock wraps. Only the chase window's speeds and
    errors and the step events are kept. Invalid samples and a diverged
    state raise for the whole batch. Lanes draw noise in blocks straight
    from their agents' generators, so an agent passed twice, or one that
    drew noise sample by sample (in run_chase), raises ValueError.
    """
    lanes = len(agents)
    if lanes == 0 or len(params) != lanes:
        raise ValueError(f"need one params per agent, got {len(params)} for {lanes} agents")
    dt = scenario.timestep
    n_frames = int(round(scenario.total_duration / dt))
    replan_every = max(1, int(round(REPLAN_INTERVAL / dt)))
    _, chase_start = _stage_bounds(scenario)
    end = chase_start + scenario.chase_duration
    circle_lead, target_speed = scenario.circle_lead, scenario.target_speed
    walkers, trackers = WalkerLanes(agents, dt), TrackerLanes(lanes)
    laws = [  # one law per distinct params, with its lanes
        (speed.law(p), [i for i, q in enumerate(params) if q == p]) for p in dict.fromkeys(params)
    ]
    frame_times = np.arange(n_frames) * dt  # k * dt, as run_chase's loop computes it
    in_window = (chase_start <= frame_times) & (frame_times < end)
    # the chase window's speeds and errors, filled an interval at a time
    speeds, errors = np.empty((2, np.count_nonzero(in_window), lanes))
    kept = 0
    position, sphere = np.zeros(lanes), np.full(lanes, circle_lead)
    for first in range(0, n_frames, replan_every):
        walkers.command([
            chase_policy(e, target_speed) for e in (sphere - (position + circle_lead)).tolist()
        ])
        now = frame_times[first:first + replan_every]
        f, sh = trackers.advance(now.tolist(), walkers.samples(now.size))
        out = np.empty_like(f)
        with np.errstate(over="ignore", invalid="ignore"):  # caught as divergence below
            for evaluate, members in laws:
                out[:, members] = evaluate(f[:, members], sh[:, members])[1]
        position, sphere, error = _integrate(scenario, now, out, position, sphere)
        window = in_window[first:first + replan_every]
        done = kept + np.count_nonzero(window)
        speeds[kept:done], errors[kept:done] = out[window], error[window]
        kept = done
        position, sphere = position[-1], sphere[-1]

    return [
        _window_metrics(speeds[:, i], errors[:, i], events, chase_start, end)
        for i, events in enumerate(trackers.events)
    ]


def replay_trace(
    samples: Sequence[FootSample], params: WipParams, scenario: ChaseScenario | None = None
) -> tuple[MetricsReport, RunLog]:
    """Replay time-sorted recorded samples, one frame per distinct sample time.

    samples is read as columns: a Samples as it is, any other sequence of
    FootSamples converted once by Samples.of, and the Samples is the log's.
    Every sample goes through the streaming tracker in file order, so step
    events are the live run's; gait.estimate_frames then gives every frame's
    estimate at once, and the law, stages and kinematics are evaluated on
    those arrays with the scalar loop's operation order (the position and
    sphere sums are sequential cumulative sums), as are the metrics of the
    frames in compute_metrics' window. Rows, events and reports
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
    samples = Samples.of(samples)
    if not len(samples):
        raise EmptyWindow("trace holds no samples")
    log = RunLog(scenario, samples=samples)
    frames = estimate_frames(samples, log.events)
    t = frames.time
    n = t.size
    with np.errstate(over="ignore", invalid="ignore"):  # caught as divergence below
        raw, out = speed.law(params)(frames.step_frequency, frames.step_height)
        if scenario is not None:
            position, sphere, error = _integrate(scenario, t, out, 0.0, scenario.circle_lead)
            prep, countdown = np.searchsorted(t, _stage_bounds(scenario)).tolist()
            stages = [_PREP] * prep + [_COUNTDOWN] * (countdown - prep) + [_CHASE] * (n - countdown)
        else:
            position = np.cumsum(np.concatenate(([0.0], out * np.diff(t, append=t[-1]))))
            sphere, error = np.zeros(n + 1), np.zeros(n)
            stages = [_CHASE] * n
            diverged = np.flatnonzero(~np.isfinite(position[1:]))
            if diverged.size:
                raise DivergedSimulation(f"non-finite state at t={t[diverged[0]]:.3f}")

    log.rows = list(map(_new_row, repeat(FrameRow), zip(
        t.tolist(), stages, frames.height_left.tolist(), frames.height_right.tolist(),
        frames.step_frequency.tolist(), frames.step_height.tolist(), raw.tolist(),
        out.tolist(), position[:-1].tolist(), sphere[:-1].tolist(), error.tolist(),
    )))
    start, end = log.window
    window = (start <= t) & (t < end)  # compute_metrics' window, on the arrays
    return _window_metrics(out[window], error[window], log.events, start, end), log


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
MAX_BOUTS = 100  # judgments one series may take


def make_reference_judge(reference: float, tolerance: float) -> Callable[[float], bool]:
    """Synthetic stand-in for a human judgment: satisfied near a reference."""

    def judge(gain: float) -> bool:
        return abs(gain - reference) <= tolerance

    return judge


def run_adjustment(slope: SlopeKind, series: SeriesKind, judge: Callable[[float], bool]) -> float:
    """Run one staircase series and return the accepted gain.

    The series starts at the slope's STAIRCASE_PRESETS start for its
    direction. Every bout asks the judge about the current gain; gains step
    by the slope's interval in the series direction. Raises NonTermination
    if the judge stays unsatisfied for MAX_BOUTS bouts or the gain leaves
    the positive domain.
    """
    interval, asc_start, desc_start = STAIRCASE_PRESETS[slope]
    if series is SeriesKind.ASCENDING:
        initial, direction = asc_start, 1.0
    else:
        initial, direction = desc_start, -1.0
    for k in range(MAX_BOUTS):
        gain = initial + direction * k * interval
        if gain <= 0.0:
            raise NonTermination(
                f"staircase left the positive-gain domain after {k} bouts"
            )
        if judge(gain):
            return gain
    raise NonTermination(f"judge unsatisfied after {MAX_BOUTS} bouts")


def aggregate_adjustments(gains: Iterable[float]) -> float:
    """Mean of exactly four series results (two per direction)."""
    values = list(gains)
    if len(values) != 4:
        raise WrongArity(f"expected 4 adjustment results, got {len(values)}")
    return sum(values) / 4.0
