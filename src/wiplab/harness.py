"""Deterministic fixed-timestep simulations of the chasing task, and the
gain-adjustment staircase.

A chase run has three stages. During preparation the target sphere mirrors
the walker's own speed from its start position one circle-lead ahead, first
over a fixed distance and then for a fixed duration. The countdown keeps
mirroring (so the chase starts with zero error), and the timed chase moves
the sphere at constant speed while every metric is collected. Metrics are
computed strictly from frames and step events inside the chase window.

The live loop, run_chase, takes a re-plan interval's heights from one
agent samples() call after each command, then does each frame's work
inline: advance the gait tracker through a left then a right (time, foot,
height) tuple, estimate once, then integrate. The law, built once per run
by speed.law, runs only on frames whose estimate changed: between
footfalls most frames repeat the frame before's estimate, and the law is
pure, so such a frame reuses that frame's speeds and position step. Its
per-frame cost is two advance() calls, one estimate() and the loop body,
and run_chase binds what its loop calls once per run. The frame log is
run-length: the loop keeps each interval's heights as the agent's own
list, and logs (time, estimate, law output) only for a frame whose
estimate changed. Its RunLog's Frames and Samples come from one
np.fromiter of the heights and one np.repeat of the changes over their
runs. It is the single-run path: simulate, record and the tests use it.

Independent chases that share a scenario run in lockstep as lanes:
run_chase_lanes keeps every lane's state in numpy arrays and returns the
reports run_chase would, bit for bit. Its exactness rules: each array
operation is the scalar one, elementwise and in the same order (the tests
pin np.sin to math.sin); state that steps from tick to tick is scanned a
re-plan interval at a time with sequential cumulative sums (the gait
clock, restarted at each wrap), forward fills that repeat the values
where a state moves, and a running maximum, which only select; the
EMAs update per lane at footfalls through the streaming tracker's own
registration, gait._footfall, with math.exp (np.exp differs); each lane
draws a fresh agent's noise in blocks, in the agent's order; the only
reductions are min, max and sequential cumulative sums (replay shares
the kinematics, _integrate), and the reports come from compute_metrics's
own arithmetic, _window_metrics, where every statistic is _mean of an array.

Replay takes a time-sorted recorded trace as a core.Samples, as
traceio.load_trace returns it, and reads its columns. It checks the stream
once, advances the same streaming tracker a plain tuple per sample for its
step events and EMAs, and reads each foot's swing state from gait's swing
scan, the one run_chase_lanes' trackers step with. It then computes every frame's
estimate, law and kinematics as arrays in the live loop's operation order:
they are its log's Frames, and compute_metrics of that log is its report,
which is what keeps record/replay reports bit-identical; the DETERMINISM
check, the replay goldens and a property test against a per-frame loop
guard that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import Enum
from itertools import chain
from typing import Callable, Iterable, Sequence

import numpy as np

from . import speed
from .core import (
    DivergedSimulation,
    EmptyWindow,
    Foot,
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
# the frame loop uses these constants instead.
_LEFT, _RIGHT = Foot.LEFT, Foot.RIGHT
_STAGES = np.array(list(Stage), dtype=object)  # _stages' labels, in stage order


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
        for field in fields(self):
            v = getattr(self, field.name)
            if not math.isfinite(v) or v < 0.0:
                raise ValueError(f"{field.name} must be finite and >= 0, got {v}")


@dataclass(slots=True)
class Frames:
    """A run's frames as numpy columns, an entry per frame; stage holds Stages."""

    time: np.ndarray
    stage: np.ndarray
    height_left: np.ndarray
    height_right: np.ndarray
    est_frequency: np.ndarray
    est_step_height: np.ndarray
    raw_speed: np.ndarray
    output_speed: np.ndarray
    position: np.ndarray
    sphere: np.ndarray
    error: np.ndarray  # sphere minus catch-circle center; positive means behind

    def __len__(self) -> int:
        return self.time.size


@dataclass
class RunLog:
    """Everything a run produced: its frames, step events, raw samples."""

    scenario: ChaseScenario | None
    rows: Frames
    events: list[StepEvent]
    samples: Samples

    @property
    def window(self) -> tuple[float, float]:
        if self.scenario is None:
            if not len(self.rows):
                return (0.0, 0.0)
            # the next float: a fixed epsilon vanishes into large times
            return (float(self.rows.time[0]), math.nextafter(float(self.rows.time[-1]), math.inf))
        start = self.scenario.chase_start
        return (start, start + self.scenario.chase_duration)


def _mean(values: Sequence[float]) -> float:
    """The mean of a non-empty sequence, added in order by np.cumsum on every
    Python (sum() of floats compensates from 3.12 on): the one averaging
    rule of the reports, the staircase and the gate's statistics."""
    return float(np.cumsum(values)[-1]) / len(values)


def _population_sd(values: np.ndarray, mean: float) -> float:
    """The population SD of values about mean, their _mean."""
    d = values - mean
    return math.sqrt(_mean(d * d))  # d * d rounds correctly; libm pow(d, 2) need not


def compute_metrics(log: RunLog) -> MetricsReport:
    """Metrics over the chase window only.

    Speed statistics come from the frames' output_speed column; step statistics
    come from StepEvents whose re-grounding time falls inside the window.
    Each is _mean over an array (_window_metrics).
    Raises EmptyWindow when no frame is in the window.
    """
    start, end = log.window
    frames = log.rows
    window = (start <= frames.time) & (frames.time < end)
    speeds, errors = frames.output_speed[window], frames.error[window]
    return _window_metrics(speeds, errors, log.events, start, end)


def _window_metrics(
    speeds: np.ndarray, errors: np.ndarray, events: Iterable[StepEvent], start: float, end: float,
) -> MetricsReport:
    """compute_metrics' arithmetic: the output speeds and chase errors of the
    frames in the window [start, end), in frame order, and the run's events."""
    if not len(speeds):
        raise EmptyWindow("no frames inside the measurement window")
    events = sorted((e for e in events if start <= e.end < end), key=lambda e: e.end)
    gaps = np.diff([e.end for e in events])
    cadences = 1.0 / gaps[gaps > 0.0]  # one per footfall interval of non-zero length
    avg_speed = _mean(speeds)
    return MetricsReport(
        avg_step_height=_mean([e.apex_height for e in events]) if events else 0.0,
        avg_step_frequency=_mean(cadences) if cadences.size else 0.0,
        avg_target_distance=_mean(np.abs(errors)),
        avg_speed=avg_speed,
        speed_sd=_population_sd(speeds, avg_speed),
    )


def _stages(scenario: ChaseScenario | None, t: np.ndarray) -> np.ndarray:
    """The Stage of each frame time: PREP before the countdown, COUNTDOWN
    before the chase, then CHASE; all CHASE without a scenario."""
    if scenario is None:
        return np.full(t.size, Stage.CHASE, dtype=object)
    bounds = scenario.prep_walk_time + scenario.prep_duration, scenario.chase_start
    return _STAGES[np.searchsorted(bounds, t, side="right")]


def _integrate(scenario: ChaseScenario, now, out, position, sphere) -> tuple[np.ndarray, ...]:
    """run_chase's position and sphere sums down axis 0 for the frames at times
    now, a row per frame start and one after the last, and each frame's error.
    Raises DivergedSimulation at the first frame left non-finite; a sum that
    is not finite stays so, so the last row tells whether any is."""
    dt, circle_lead = scenario.timestep, scenario.circle_lead
    chasing = np.reshape(now >= scenario.chase_start, (-1,) + (1,) * (out.ndim - 1))
    sums = np.empty((2, len(out) + 1, *out.shape[1:]))  # position, then sphere
    with np.errstate(over="ignore", invalid="ignore"):  # caught as divergence below
        sums[:, 0] = position, sphere
        np.multiply(out, dt, out=sums[0, 1:])
        sums[1, 1:] = np.where(chasing, scenario.target_speed * dt, sums[0, 1:])
        position, sphere = np.cumsum(sums, axis=1, out=sums)
        error = sphere[:-1] - (position[:-1] + circle_lead)
    if not (np.isfinite(position[-1]) & np.isfinite(sphere[-1])).all():
        finite = (np.isfinite(position[1:]) & np.isfinite(sphere[1:])).all(axis=tuple(range(1, out.ndim)))
        raise DivergedSimulation(f"non-finite state at t={now[finite.argmin()]:.3f}")
    return position, sphere, error


def run_chase(scenario: ChaseScenario, agent, params: WipParams) -> tuple[MetricsReport, RunLog]:
    """Simulate one chasing-task run and compute its metrics.

    The agent provides command(speed), called at the start of each re-plan
    interval, and samples(ticks, dt), the heights of the interval's ticks
    ticks, a left then a right per tick, called once after each command; a
    WalkerAgent's noise comes from a generator of its seed. An agent that
    returns other than 2 * ticks heights raises ValueError. Each frame
    advances the run's gait tracker through a left then a right plain
    tuple, logging each StepEvent, and calls estimate(t) once. The law
    speed.law builds runs only when the estimate differs from the frame
    before's, and only then is the frame's (time, estimate, law output)
    logged; the frames after it until the next change reuse its speeds.
    The log's heights and samples come from one np.fromiter of the
    agent's lists, kept until the run ends (an agent must not change one
    it has returned), its estimate and law columns from one np.repeat of the
    logged changes over their runs, and position, sphere and error from
    _integrate, whose sums the loop repeats to command each interval and
    to check it for divergence.
    """
    dt = scenario.timestep
    n_frames = int(round(scenario.total_duration / dt))
    replan_every = max(1, int(round(REPLAN_INTERVAL / dt)))
    chase_start = scenario.chase_start
    circle_lead, target_speed = scenario.circle_lead, scenario.target_speed
    target_step = target_speed * dt
    intervals: list[Sequence[float]] = []  # each interval's heights, as the agent gave them
    changes: list[float] = []  # (time, estimate, law output) of each frame whose estimate changed, flat
    events: list[StepEvent] = []
    tracker = GaitTracker()
    advance, estimate, evaluate = tracker.advance, tracker.estimate, speed.law(params)
    command, emit = agent.command, agent.samples
    record, keep_heights, keep_change = events.append, intervals.append, changes.extend
    isfinite = math.isfinite
    time = np.arange(n_frames) * dt  # each bit equals the scalar k * dt

    def integrate(frames: int) -> tuple[np.ndarray, ...]:
        """The estimate and law columns of the run's first frames frames,
        each logged change repeated until the next, and their sums;
        _integrate raises on divergence."""
        table = np.fromiter(changes, float, len(changes)).reshape(-1, 5)
        starts = np.searchsorted(time, table[:, 0])  # a change's time is its frame's
        columns = np.repeat(table[:, 1:], np.diff(starts, append=frames), axis=0)
        return columns, *_integrate(scenario, time[:frames], columns[:, 3], 0.0, circle_lead)

    position = 0.0
    sphere = circle_lead  # starts at the catch-circle center
    # the last estimate the law ran on; NaN differs from any, so frame 0 runs it.
    # An estimate's zeros are +0.0, so equal estimates are bit-equal.
    f_was = sh_was = math.nan
    for first in range(0, n_frames, replan_every):
        command(chase_policy(sphere - (position + circle_lead), target_speed))
        ticks = min(replan_every, n_frames - first)
        heights = emit(ticks, dt)
        if len(heights) != 2 * ticks:
            raise ValueError(
                f"agent gave {len(heights)} heights for {ticks} ticks, not {2 * ticks}"
            )
        keep_heights(heights)
        try:
            for t, height_left, height_right in zip(
                time[first:first + ticks].tolist(), heights[0::2], heights[1::2]
            ):
                ev = advance((t, _LEFT, height_left))
                if ev is not None:
                    record(ev)
                ev = advance((t, _RIGHT, height_right))
                if ev is not None:
                    record(ev)
                f, sh, _ = estimate(t)
                if f != f_was or sh != sh_was:
                    raw, out = evaluate(f, sh)
                    f_was, sh_was, step = f, sh, out * dt
                    keep_change((t, f, sh, raw, out))
                position += step
                sphere += target_step if t >= chase_start else step
        finally:  # a non-finite state stays so: it is reported over any later frame's error
            if not (isfinite(position) and isfinite(sphere)):
                integrate(first + ticks)

    columns, position, sphere, error = integrate(n_frames)
    height = np.fromiter(chain.from_iterable(intervals), float, 2 * n_frames)
    samples = Samples(np.repeat(time, 2), np.tile((True, False), n_frames), height)
    frames = Frames(time, _stages(scenario, time), height[0::2], height[1::2], *columns.T,
                    position[:-1], sphere[:-1], error)
    log = RunLog(scenario, frames, events, samples)
    return compute_metrics(log), log


def run_chase_lanes(scenario: ChaseScenario, agents: Sequence[WalkerAgent]) -> list[MetricsReport]:
    """run_chase for many walkers at once: one report per lane, each equal
    to run_chase(scenario, agents[i], agents[i].params)'s bit for bit.

    Each lane's law is its agent's params, the settings it plans its gait
    with. The lanes run in lockstep, a re-plan interval at a time, with no
    Python loop over frames: each lane re-plans with its own agent's plan
    (a WalkerAgent), synth.WalkerLanes emits the interval's samples and
    gait.TrackerLanes returns every frame's estimates, each with array
    scans over the interval; then speed.law runs once per distinct params
    on its lanes and position and sphere are cumulative sums, as in
    replay_trace. Python loops run only over lanes at a re-plan, over step
    events and over gait-clock wraps. Only the chase window's speeds and
    errors and the step events are kept. Invalid samples and a diverged
    state raise for the whole batch. Each lane starts from its agent's
    settings, not its state, and the batch changes no agent: run_chase of
    one afterwards gives that lane's RunLog.
    """
    lanes = len(agents)
    if lanes == 0:
        raise ValueError("need at least one agent")
    params = [agent.params for agent in agents]
    dt = scenario.timestep
    n_frames = int(round(scenario.total_duration / dt))
    replan_every = max(1, int(round(REPLAN_INTERVAL / dt)))
    chase_start = scenario.chase_start
    end = chase_start + scenario.chase_duration
    circle_lead, target_speed = scenario.circle_lead, scenario.target_speed
    walkers, trackers = WalkerLanes(agents, dt), TrackerLanes(lanes)
    laws = []  # one law per distinct params, with its lanes: a slice when adjacent
    for p in dict.fromkeys(params):
        members = [i for i, q in enumerate(params) if q == p]
        adjacent = members[-1] - members[0] == len(members) - 1
        laws.append((speed.law(p), slice(members[0], members[-1] + 1) if adjacent else members))
    frame_times = np.arange(n_frames) * dt  # k * dt, as run_chase's loop computes it
    in_window = (chase_start <= frame_times) & (frame_times < end)
    # the chase window's speeds and errors, filled an interval at a time
    speeds, errors = np.empty((2, lanes, np.count_nonzero(in_window)))  # a lane's in a row
    kept = 0
    position, sphere = np.zeros(lanes), np.full(lanes, circle_lead)
    with np.errstate(over="ignore", invalid="ignore"):  # the laws' overflow is caught as divergence
        for first in range(0, n_frames, replan_every):
            walkers.command([
                chase_policy(e, target_speed) for e in (sphere - (position + circle_lead)).tolist()
            ])
            now = frame_times[first:first + replan_every]
            f, sh = trackers.advance(now, walkers.samples(now.size))
            out = np.empty_like(f)
            for evaluate, members in laws:
                out[:, members] = evaluate(f[:, members], sh[:, members])[1]
            position, sphere, error = _integrate(scenario, now, out, position, sphere)
            window = in_window[first:first + replan_every]
            done = kept + np.count_nonzero(window)
            speeds[:, kept:done], errors[:, kept:done] = out[window].T, error[window].T
            kept = done
            position, sphere = position[-1].copy(), sphere[-1].copy()  # a view keeps the interval

    return [
        _window_metrics(speeds[i], errors[i], events, chase_start, end)
        for i, events in enumerate(trackers.events)
    ]


def replay_trace(
    samples: Samples, params: WipParams, scenario: ChaseScenario | None = None
) -> tuple[MetricsReport, RunLog]:
    """Replay time-sorted recorded samples, one frame per distinct sample time.

    samples is read as columns and is the log's. Every sample goes through
    the streaming tracker in file order, so step events are the live run's;
    gait.estimate_frames then gives every frame's estimate at once, and the
    law, stages and kinematics are evaluated on those arrays with the scalar
    loop's operation order (the position and sphere sums are sequential
    cumulative sums) into the log's Frames; the report is compute_metrics of
    the log. Frames, events and reports are bit-identical to running the
    frames one by one as run_chase does; the DETERMINISM check, the replay
    goldens and a property test against a per-frame loop guard that.
    Samples out of time order raise NonMonotonicTime.

    With a scenario the chase kinematics are reconstructed exactly as
    run_chase integrates them, so the resulting MetricsReport is
    bit-identical to the recording run's. Without one the whole trace is the
    measurement window, each frame lasts until the next sample time, and the
    target distance is zero.
    """
    if not len(samples):
        raise EmptyWindow("trace holds no samples")
    est = estimate_frames(samples)
    t = est.time
    with np.errstate(over="ignore", invalid="ignore"):  # caught as divergence below
        raw, out = speed.law(params)(est.step_frequency, est.step_height)
        if scenario is not None:
            position, sphere, error = _integrate(scenario, t, out, 0.0, scenario.circle_lead)
        else:
            position = np.cumsum(np.concatenate(([0.0], out * np.diff(t, append=t[-1]))))
            sphere, error = np.zeros(t.size + 1), np.zeros(t.size)
            diverged = np.flatnonzero(~np.isfinite(position[1:]))
            if diverged.size:
                raise DivergedSimulation(f"non-finite state at t={t[diverged[0]]:.3f}")

    frames = Frames(t, _stages(scenario, t), est.height_left, est.height_right, est.step_frequency,
                    est.step_height, raw, out, position[:-1], sphere[:-1], error)
    log = RunLog(scenario, frames, est.events, samples)
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
    return _mean(values)
