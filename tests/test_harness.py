"""Simulation harness: chase runs, metrics, replay, staircases."""

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wiplab import harness, speed
from wiplab.core import (
    DivergedSimulation,
    EmptyWindow,
    Foot,
    FootSample,
    NonMonotonicTime,
    NonTermination,
    Samples,
    Variant,
    WipParams,
    WrongArity,
)
from wiplab.gait import GaitTracker, StepEvent
from wiplab.harness import (
    MAX_BOUTS,
    STAIRCASE_PRESETS,
    ChaseScenario,
    MetricsReport,
    RunLog,
    SeriesKind,
    SlopeKind,
    Stage,
    aggregate_adjustments,
    compute_metrics,
    make_reference_judge,
    replay_trace,
    run_adjustment,
    run_chase,
    run_chase_lanes,
)
from wiplab.elastic import ElasticRig, PullDirection
from wiplab.synth import (
    MAX_NOISE_SD,
    MIN_SAMPLE_RATE,
    GaitProgram,
    WalkerAgent,
    synth_trace,
)

from boundary_gaits import BOUNDARY_GAITS, as_samples
from frame_rows import FrameRow, frames_of, rows_of
from half_sine import cycle_height

SHEF = WipParams(variant=Variant.SHEF)


class TestChaseScenario:
    def test_stage_boundaries(self):
        sc = ChaseScenario(target_speed=2.0)
        assert sc.prep_walk_time == pytest.approx(2.5)  # 5 m at 2 m/s
        assert sc.chase_start == pytest.approx(2.5 + 10.0 + 3.0)
        assert sc.total_duration == pytest.approx(sc.chase_start + 20.0)

    def test_zero_target_skips_the_walk_in(self):
        assert ChaseScenario(target_speed=0.0).prep_walk_time == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ChaseScenario(target_speed=-1.0)
        with pytest.raises(ValueError):
            ChaseScenario(target_speed=1.0, chase_duration=0.0)
        with pytest.raises(ValueError):
            ChaseScenario(target_speed=1.0, timestep=0.0)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"target_speed": math.nan},
            {"target_speed": math.inf},
            {"timestep": math.inf},
            {"prep_distance": math.inf},
            {"prep_duration": math.nan},
            {"countdown": math.nan},
            {"chase_duration": math.nan},
            {"circle_lead": math.nan},
        ],
        ids=lambda o: "-".join(f"{k}={v}" for k, v in o.items()),
    )
    def test_non_finite_values_rejected(self, overrides):
        settings = {"target_speed": 1.0, **overrides}
        (name,) = overrides
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            ChaseScenario(**settings)

    def test_timestep_must_sample_at_the_minimum_rate(self):
        ChaseScenario(target_speed=1.5, timestep=1.0 / MIN_SAMPLE_RATE)
        with pytest.raises(ValueError, match="^timestep must be <= 1/30 s, got 0.5$"):
            ChaseScenario(target_speed=1.5, timestep=0.5)

    @pytest.mark.parametrize(
        "settings",
        [
            {"target_speed": 1.5, "timestep": 1e-9},  # 36,333,333,333 frames
            {"target_speed": 1.5, "chase_duration": 1e6},
            {"target_speed": 1e-320},  # the walk-in never ends
        ],
        ids=["timestep", "chase_duration", "target_speed"],
    )
    def test_frame_count_has_a_ceiling(self, settings):
        # construction only: such a run must never start
        with pytest.raises(ValueError, match=r"^timestep .* frames, more than 1000000$"):
            ChaseScenario(**settings)

    @pytest.mark.parametrize(
        "settings, message",
        [
            ({"target_speed": 1e308}, r"^target_speed must be in \[0, 100\] m/s$"),
            ({"target_speed": 1.0, "prep_duration": 0.1, "countdown": 0.1, "chase_duration": 0.1,
              "timestep": 5e-5}, r"^timestep must be >= 1/10000 s, got 5e-05$"),
        ],
        ids=["target_speed", "timestep"],
    )
    def test_targets_and_rates_past_any_walker_are_rejected(self, settings, message):
        # past them a chase's sums overflow: a 1e308 m/s target diverged
        with pytest.raises(ValueError, match=message):
            ChaseScenario(**settings)

    def test_a_long_run_below_the_ceiling_is_accepted(self):
        scenario = ChaseScenario(target_speed=1.5, chase_duration=10_000.0)
        assert scenario.total_duration / scenario.timestep < 1_000_000


def frame(t, speed, error=0.0, stage=Stage.CHASE):
    return FrameRow(
        time=t, stage=stage, height_left=0.0, height_right=0.0,
        est_frequency=0.0, est_step_height=0.0, raw_speed=speed,
        output_speed=speed, position=0.0, sphere=0.0, error=error,
    )


NO_SAMPLES = Samples.of(())


def metrics_of(scenario, rows, events=()):
    return compute_metrics(RunLog(scenario, frames_of(rows), list(events), NO_SAMPLES))


class TestComputeMetrics:
    def test_speed_statistics_match_hand_computation(self):
        rows = [frame(t, v, error=0.5) for t, v in [(0.0, 1.0), (1.0, 2.0), (2.0, 3.0)]]
        report = metrics_of(None, rows)
        assert report.avg_speed == pytest.approx(2.0)
        # population SD of {1, 2, 3} is sqrt(2/3)
        assert report.speed_sd == pytest.approx(0.816496580927726, rel=1e-12)
        assert report.avg_target_distance == pytest.approx(0.5)

    @pytest.mark.parametrize(
        "speeds", [[1.646, 1.481, 1.762], [1.283, 1.474, 1.315], [1.523, 1.632, 1.518]]
    )
    def test_speed_sd_squares_each_deviation_by_multiplying(self, speeds):
        """Each set holds a deviation d for which glibc's pow(d, 2) is one ulp
        off d * d: the SD is the in-order mean of the products, bit for bit."""
        mean = squares = 0.0
        for v in speeds:
            mean += v
        mean /= len(speeds)
        for v in speeds:
            squares += (v - mean) * (v - mean)
        report = metrics_of(None, [frame(float(t), v) for t, v in enumerate(speeds)])
        assert report.speed_sd.hex() == math.sqrt(squares / len(speeds)).hex()

    def test_step_statistics_from_events(self):
        rows = [frame(t, 1.0) for t in (0.0, 1.0, 2.0, 3.0)]
        ends = [0.8, 1.3, 2.1]
        apexes = [0.10, 0.14, 0.12]
        events = [
            StepEvent(foot=Foot.LEFT, start=end - 0.5, apex_time=end - 0.25,
                      end=end, apex_height=apex)
            for end, apex in zip(ends, apexes)
        ]
        report = metrics_of(None, rows, events)
        assert report.avg_step_height == pytest.approx(0.12)
        expected = (1.0 / 0.5 + 1.0 / 0.8) / 2.0
        assert report.avg_step_frequency == pytest.approx(expected)

    def test_fewer_than_two_events_means_zero_cadence(self):
        report = metrics_of(
            None, [frame(0.0, 1.0), frame(1.0, 1.0)],
            [StepEvent(foot=Foot.LEFT, start=0.1, apex_time=0.2, end=0.3, apex_height=0.1)],
        )
        assert report.avg_step_frequency == 0.0
        assert report.avg_step_height == pytest.approx(0.1)

    def test_scenario_less_window_keeps_its_last_frame_at_large_times(self):
        """At t ~ 1e8 one ulp is ~1.5e-8 s, so a fixed 1e-9 s added to the
        last frame's time would end the window on that frame and drop it."""
        rows = [frame(1e8 + k / 90.0, v) for k, v in enumerate((1.0, 2.0, 6.0))]
        assert metrics_of(None, rows).avg_speed == 3.0

    def test_empty_window_raises(self):
        # the one frame is before the chase window
        with pytest.raises(EmptyWindow):
            metrics_of(ChaseScenario(target_speed=1.0), [frame(0.0, 1.0, stage=Stage.PREP)])

    def test_events_outside_the_window_are_ignored(self):
        sc = ChaseScenario(target_speed=1.0)
        t0 = sc.chase_start
        report = metrics_of(sc, [frame(t0 + 1.0, 1.0)], [  # the step ends before the chase starts
            StepEvent(foot=Foot.LEFT, start=1.0, apex_time=1.2, end=1.4, apex_height=0.5)
        ])
        assert report.avg_step_height == 0.0

    def test_report_rejects_non_finite(self):
        with pytest.raises(ValueError):
            MetricsReport(
                avg_step_height=math.nan, avg_step_frequency=0.0,
                avg_target_distance=0.0, avg_speed=0.0, speed_sd=0.0,
            )


class PinnedAgent:
    """An agent whose feet stay on the ground and that remembers the speed it
    was last commanded."""

    def __init__(self):
        self.pinned_speed = 0.0

    def command(self, speed):
        self.pinned_speed = speed

    def samples(self, ticks, dt):
        return [0.0] * (2 * ticks)


@pytest.fixture
def pinned(monkeypatch):
    """A PinnedAgent whose commanded speed is the law's output: a closed-loop
    identity, so a chase run tests the loop's stages and kinematics alone."""
    agent = PinnedAgent()
    monkeypatch.setattr(
        speed, "law", lambda params: lambda f, sh: (agent.pinned_speed, agent.pinned_speed)
    )
    return agent


class TestRunChase:
    def test_pinned_agent_tracks_perfectly(self, pinned):
        sc = ChaseScenario(target_speed=1.5)
        report, log = run_chase(sc, pinned, SHEF)
        assert report.avg_speed == pytest.approx(1.5, abs=1e-12)
        assert report.speed_sd <= 1e-9
        assert report.avg_target_distance <= 1e-9
        assert report.avg_step_height == 0.0  # grounded feet, no steps
        assert log.rows.position[-1] > 0.0

    def test_walker_holds_an_achievable_target(self):
        report, _ = run_chase(ChaseScenario(target_speed=1.5), WalkerAgent(SHEF), SHEF)
        assert report.avg_speed == pytest.approx(1.5, rel=0.05)
        assert report.avg_target_distance < 0.5

    def test_deterministic_given_seed(self):
        sc = ChaseScenario(target_speed=1.2)
        first, _ = run_chase(sc, WalkerAgent(SHEF, noise_sd=0.003, seed=9), SHEF)
        second, _ = run_chase(sc, WalkerAgent(SHEF, noise_sd=0.003, seed=9), SHEF)
        assert first == second

    def test_metrics_come_from_the_chase_window_only(self):
        sc = ChaseScenario(target_speed=1.5)
        report, log = run_chase(sc, WalkerAgent(SHEF, noise_sd=0.002, seed=4), SHEF)
        start, end = log.window
        rows = rows_of(log.rows)
        speeds = [r.output_speed for r in rows if start <= r.time < end]
        assert report.avg_speed == pytest.approx(sum(speeds) / len(speeds), rel=1e-12)
        assert any(r.time < start for r in rows), "log keeps the whole run"

    def test_samples_are_the_rows_heights_as_columns(self):
        sc = ChaseScenario(target_speed=1.5, timestep=1.0 / 60.0)
        _, log = run_chase(sc, WalkerAgent(SHEF, noise_sd=0.003, seed=3), SHEF)
        assert isinstance(log.samples, Samples)
        want = [
            sample for r in rows_of(log.rows) for sample in (
                FootSample(r.time, Foot.LEFT, r.height_left),
                FootSample(r.time, Foot.RIGHT, r.height_right),
            )
        ]
        assert list(map(repr, map(FootSample._make, log.samples.tuples()))) == list(map(repr, want))

    def test_stage_labels_progress(self, pinned):
        sc = ChaseScenario(target_speed=1.0)
        _, log = run_chase(sc, pinned, SHEF)
        stages = log.rows.stage.tolist()
        assert stages[0] is Stage.PREP
        assert stages[-1] is Stage.CHASE
        assert Stage.COUNTDOWN in stages

    @pytest.mark.parametrize(
        "frame, at, clocked", [(100, "1.111", True), (320, "3.556", True), (0, "0.000", False)],
        ids=["mid-interval", "final-interval", "one-logged-run"],
    )
    def test_divergence_names_the_first_non_finite_frame(self, monkeypatch, frame, at, clocked):
        """The law's output turns infinite from one frame on: frame 100 lies
        inside the re-plan interval of frames 90-134, frame 320 inside the
        run's final, partial interval of frames 315-323. In those two each
        frame's step frequency is its time, so every frame's estimate is
        new, and the law stays a pure function of it, as run_chase assumes.
        In the third a standing PinnedAgent's estimate never changes, so the
        one change logged, at frame 0, spans every frame up to the check at
        the end of the first interval."""
        sc = ChaseScenario(
            target_speed=1.0, prep_distance=1.0, prep_duration=1.0, countdown=0.5, chase_duration=1.1
        )
        assert round(sc.total_duration / sc.timestep) == 324
        estimate, law = GaitTracker.estimate, speed.law
        diverges_at = frame * sc.timestep  # the frame's time, as run_chase computes it

        def clocked_estimate(tracker, now):
            return estimate(tracker, now)._replace(step_frequency=now)

        def diverging_law(params):
            evaluate = law(params)

            def diverging(f, sh):
                raw, out = evaluate(f, sh)
                return raw, (math.inf if f >= diverges_at else out)

            return diverging

        agent = PinnedAgent()
        if clocked:
            monkeypatch.setattr(GaitTracker, "estimate", clocked_estimate)
            agent = WalkerAgent(SHEF, noise_sd=0.004, seed=3)
        monkeypatch.setattr(speed, "law", diverging_law)
        with pytest.raises(DivergedSimulation, match=f"^non-finite state at t={at}$"):
            run_chase(sc, agent, SHEF)


    @pytest.mark.parametrize(
        "spare", [-2, -1, 1, -90], ids=["a tick short", "a height short", "a height over", "empty"]
    )
    def test_an_interval_of_the_wrong_length_is_rejected(self, pinned, monkeypatch, spare):
        """zip would silently shorten a run fed too few heights, and drop a
        surplus; run_chase names both counts instead."""
        monkeypatch.setattr(pinned, "samples", lambda ticks, dt: [0.0] * (2 * ticks + spare))
        message = f"^agent gave {90 + spare} heights for 45 ticks, not 90$"
        with pytest.raises(ValueError, match=message):
            run_chase(ChaseScenario(target_speed=1.0), pinned, SHEF)


class TestReplay:
    def test_replay_without_scenario_covers_the_whole_trace(self):
        trace = synth_trace(GaitProgram(2.0, 0.15), 6.0, 90.0)
        report, log = replay_trace(trace, SHEF)
        assert log.samples is trace  # a Samples is the log's as it is
        assert report.avg_target_distance == 0.0
        assert report.avg_speed > 0.5
        assert len(log.rows) == 540

    def test_replay_of_a_recorded_run_is_bit_identical(self):
        sc = ChaseScenario(target_speed=1.5)
        recorded, log = run_chase(sc, WalkerAgent(SHEF, noise_sd=0.003, seed=2), SHEF)
        replayed, _ = replay_trace(log.samples, SHEF, sc)
        assert recorded == replayed

    def test_empty_trace_raises(self):
        with pytest.raises(EmptyWindow):
            replay_trace([], SHEF)

    def test_unsorted_samples_raise_naming_the_first_out_of_order_one(self):
        trace = synth_trace(GaitProgram(2.0, 0.15), 1.0, 90.0)
        late = FootSample(0.5, Foot.RIGHT, 0.0)
        with pytest.raises(NonMonotonicTime, match=r"t=0\.5 precedes .* t=0\.9888"):
            replay_trace(Samples.of(list(trace.tuples()) + [late]), SHEF)
        with pytest.raises(NonMonotonicTime):
            replay_trace(Samples.of(
                [FootSample(0.1, Foot.LEFT, 0.0), FootSample(0.0, Foot.RIGHT, 0.0)]
            ), SHEF)


def frame_step(params, events):
    """One frame of the live loop: advance a tracker through the frame's
    samples, estimate once, evaluate the law."""
    tracker = GaitTracker()
    evaluate = speed.law(params)

    def step(t, samples):
        heights = {Foot.LEFT: 0.0, Foot.RIGHT: 0.0}
        for s in samples:
            ev = tracker.advance(s)
            if ev is not None:
                events.append(ev)
            heights[s.foot] = s.height
        f, sh, _ = tracker.estimate(t)
        raw, out = evaluate(f, sh)
        return heights[Foot.LEFT], heights[Foot.RIGHT], f, sh, raw, out

    return step


def reference_replay(samples, params, scenario=None):
    """replay_trace as a per-frame loop: one frame_step call per distinct
    sample time, with the kinematics integrated frame by frame."""
    rows, events = [], []
    step = frame_step(params, events)
    ticks = []
    for s in samples:
        if ticks and ticks[-1][0] == s.time:
            ticks[-1][1].append(s)
        else:
            ticks.append((s.time, [s]))
    position = sphere = 0.0
    if scenario is not None:
        dt, circle_lead = scenario.timestep, scenario.circle_lead
        countdown_start = scenario.prep_walk_time + scenario.prep_duration
        chase_start = scenario.chase_start
        sphere = circle_lead
    for i, (t, frame_samples) in enumerate(ticks):
        if scenario is not None:
            error = sphere - (position + circle_lead)
            stage = (
                Stage.PREP if t < countdown_start
                else Stage.COUNTDOWN if t < chase_start
                else Stage.CHASE
            )
        else:
            dt = ticks[i + 1][0] - t if i + 1 < len(ticks) else 0.0
            error, stage = 0.0, Stage.CHASE
        height_left, height_right, f, sh, raw, out = step(t, frame_samples)
        rows.append(FrameRow(
            t, stage, height_left, height_right, f, sh, raw, out, position, sphere, error,
        ))
        position += out * dt
        if scenario is not None:
            sphere += (scenario.target_speed if t >= chase_start else out) * dt
    log = RunLog(scenario, frames_of(rows), events, Samples.of(samples))
    return compute_metrics(log), log


def pause_and_resume(trace, gap):
    """Both feet grounded for gap seconds after the trace, then the trace again."""
    end = trace[-1].time
    pause = [
        FootSample(end + k / 90.0, foot, 0.0)
        for k in range(1, int(gap * 90.0))
        for foot in (Foot.LEFT, Foot.RIGHT)
    ]
    resume = end + gap + 1.0 / 90.0
    return list(trace) + pause + [FootSample(resume + s.time, s.foot, s.height) for s in trace]


def hold_a_foot_up(trace, height, duration):
    """After the trace, the left foot hangs at height for duration seconds
    while the right stays grounded; then both stand for a second."""
    end = trace[-1].time
    n = int(duration * 90.0)
    return list(trace) + [
        FootSample(end + k / 90.0, foot, height if k <= n and foot is Foot.LEFT else 0.0)
        for k in range(1, n + 90)
        for foot in (Foot.LEFT, Foot.RIGHT)
    ]


def gait_trace(frequency, apex, stance, offset, noise_sd, seed, duration):
    """synth_trace at 90 Hz for any stance share and phase offset between
    the feet: half-sine swings, the right foot offset into its cycle."""
    rng = np.random.default_rng(seed)
    trace = []
    for k in range(int(round(duration * 90.0))):
        t = k / 90.0
        for foot, start in ((Foot.LEFT, 0.0), (Foot.RIGHT, offset)):
            h = 0.0
            if frequency > 0.0:
                h = cycle_height((t * frequency / 2.0 + start) % 1.0, stance, apex)
            if noise_sd > 0.0:
                h = max(0.0, h + noise_sd * rng.standard_normal())
            trace.append(FootSample(t, foot, h))
    return trace


@st.composite
def replay_cases(draw):
    trace = gait_trace(
        frequency=draw(st.sampled_from([0.0, 0.7, 1.6, 2.4, 3.2])),
        apex=draw(st.floats(0.0, 0.35)),
        stance=draw(st.floats(0.2, 0.7)),
        offset=draw(st.floats(0.0, 1.0)),
        noise_sd=draw(st.sampled_from([0.0, 0.002, 0.006])),
        seed=draw(st.integers(0, 1000)),
        duration=draw(st.floats(0.3, 4.0)),
    )
    shape = draw(st.sampled_from(
        ["whole", "one foot", "decimated", "late start", "pause", "hold"]
    ))
    if shape == "one foot":
        trace = [s for s in trace if s.foot is Foot.LEFT]
    elif shape == "decimated":  # one sample per tick; feet first seen mid-swing
        trace = trace[draw(st.integers(0, 2))::3]
    elif shape == "late start":
        trace = trace[draw(st.integers(0, len(trace) - 1)):]
    elif shape == "pause":  # a zero-cadence stretch longer than resume_gap
        trace = pause_and_resume(trace, draw(st.floats(2.6, 3.5)))
    elif shape == "hold":  # the partial-swing bound takes over the cadence
        trace = hold_a_foot_up(trace, draw(st.floats(0.02, 0.3)), draw(st.floats(0.2, 2.0)))
    params = WipParams(
        variant=draw(st.sampled_from(list(Variant))),
        speed_gain=draw(st.sampled_from([1.0, 1.3])),
    )
    scenario = draw(st.none() | st.builds(
        ChaseScenario,
        target_speed=st.just(0.0) | st.floats(1e-3, 3.0),  # a walk-in under the frame ceiling
        prep_duration=st.floats(0.2, 2.0),
        countdown=st.floats(0.2, 1.0),
        chase_duration=st.floats(0.5, 3.0),
    ))
    return trace, params, scenario


def hovering_foot_trace():
    """The left foot walks on the 90 Hz ticks. The right foot, sampled half
    a tick later, is first seen aloft and sways up, down and up again, past
    VELOCITY_DEADBAND, for 4 s before it first grounds; then it walks
    too. Its first aerial run has no lift-off, so its partial bound is
    anchored at its ascent/descent switches."""
    walk = gait_trace(2.4, 0.12, 0.4, 0.5, 0.0, 0, 6.0)
    return [
        s if s.foot is Foot.LEFT else FootSample(
            s.time + 1 / 180, s.foot,
            0.06 + 0.04 * math.sin(math.pi * s.time) if s.time < 4.0 else s.height,
        )
        for s in walk
    ]


@settings(max_examples=150, deadline=None)
@given(case=replay_cases())
@example(case=(hovering_foot_trace(), SHEF, None))
@example(case=(as_samples(BOUNDARY_GAITS["height at GROUND_EPSILON"]), SHEF, None))
@example(case=(as_samples(BOUNDARY_GAITS["apex at MIN_STEP_HEIGHT"]), SHEF, None))
@example(case=(as_samples(BOUNDARY_GAITS["velocity at +-VELOCITY_DEADBAND"]), SHEF, None))
@example(case=(as_samples(BOUNDARY_GAITS["footfall gap of RESUME_GAP"]), SHEF, None))
@example(case=(as_samples(BOUNDARY_GAITS["grounded for STOP_WINDOW"]), SHEF, None))
@example(case=(
    as_samples(BOUNDARY_GAITS["restart past RESUME_GAP, then both feet land on one tick"]),
    SHEF, None,
))
def test_replay_equals_the_streaming_frame_step(case):
    trace, params, scenario = case
    if not trace:
        return
    try:
        want = reference_replay(trace, params, scenario)
    except EmptyWindow:
        with pytest.raises(EmptyWindow):
            replay_trace(Samples.of(trace), params, scenario)
        return
    report, log = replay_trace(Samples.of(trace), params, scenario)
    want_report, want_log = want
    assert [repr(r) for r in rows_of(log.rows)] == [repr(r) for r in rows_of(want_log.rows)]
    assert [repr(e) for e in log.events] == [repr(e) for e in want_log.events]
    assert repr(report) == repr(want_report)
    assert compute_metrics(log) == report


# ---------------------------------------------------------------------------
# lanes of chases in lockstep

RIGS = {
    "none": None,
    "down:4": ElasticRig(direction=PullDirection.DOWNWARD, band_count=4),
    "up:6": ElasticRig(direction=PullDirection.UPWARD, band_count=6),
}


def lane_walker(variant, noise_sd, seed, rig, gain=1.0):
    params = WipParams(variant=variant, speed_gain=gain)
    return WalkerAgent(params, noise_sd=noise_sd, seed=seed, rig=RIGS[rig]), params


def assert_lanes_equal_run_chase(scenario, lanes):
    """run_chase_lanes' reports equal run_chase's, lane by lane, by repr."""
    want = [repr(run_chase(scenario, *lane_walker(*lane))[0]) for lane in lanes]
    agents = [lane_walker(*lane)[0] for lane in lanes]
    assert list(map(repr, run_chase_lanes(scenario, agents))) == want


@settings(max_examples=30, deadline=None)
@given(
    variant=st.sampled_from(list(Variant)),
    noise_sd=st.floats(0.0, MAX_NOISE_SD),
    seed=st.integers(0, 2**16),
    rig=st.sampled_from(sorted(RIGS)),
    gain=st.sampled_from([1.0, 1.3]),
    target=st.floats(0.3, 3.5),
    timestep=st.floats(1.0 / 200.0, 1.0 / MIN_SAMPLE_RATE),
)
@example(  # shef steps above its apex EMA at a steady cadence EMA: the height alone moves
    variant=Variant.SHEF, noise_sd=0.004, seed=3, rig="up:6", gain=1.0, target=1.5,
    timestep=1.0 / 90.0,
)
@example(variant=Variant.GUD, noise_sd=0.0, seed=0, rig="down:4", gain=1.3, target=2.5,
         timestep=1.0 / MIN_SAMPLE_RATE)
@example(variant=Variant.SHEF, noise_sd=MAX_NOISE_SD, seed=7, rig="none", gain=1.3, target=3.5,
         timestep=1.0 / 200.0)
def test_chase_log_equals_the_per_frame_reference(
    variant, noise_sd, seed, rig, gain, target, timestep
):
    """run_chase logs a frame's estimate and law output only when its
    estimate changed, and repeats them over the run of frames that follow;
    its rows, events and report still equal, by repr, the per-frame loop's
    over its own samples, which estimates and runs the law on every frame."""
    scenario = ChaseScenario(target_speed=target, prep_distance=1.0, prep_duration=1.0,
                             countdown=0.5, chase_duration=2.0, timestep=timestep)
    agent, params = lane_walker(variant, noise_sd, seed, rig, gain)
    report, log = run_chase(scenario, agent, params)
    samples = list(map(FootSample._make, log.samples.tuples()))
    want_report, want_log = reference_replay(samples, params, scenario)
    assert [repr(r) for r in rows_of(log.rows)] == [repr(r) for r in rows_of(want_log.rows)]
    assert [repr(e) for e in log.events] == [repr(e) for e in want_log.events]
    assert repr(report) == repr(want_report)


lane = st.tuples(
    st.sampled_from(list(Variant)),
    st.sampled_from([0.0, 0.002, MAX_NOISE_SD]),  # 0: a lane that never draws
    st.integers(0, 2**16),
    st.sampled_from(sorted(RIGS)),
    st.sampled_from([1.0, 1.3]),
)


@settings(max_examples=40, deadline=None)
@given(
    scenario=st.builds(
        ChaseScenario,
        target_speed=st.sampled_from([0.0, 0.8, 2.5, 3.5]) | st.floats(0.3, 3.5),
        prep_distance=st.floats(0.1, 1.5),
        prep_duration=st.floats(0.1, 1.0),
        countdown=st.floats(0.1, 0.8),
        chase_duration=st.floats(0.1, 2.0),
        timestep=st.sampled_from([1.0 / 90.0, 1.0 / 70.0, 1.0 / 45.0]),
    ),
    lanes=st.lists(lane, min_size=1, max_size=5),
)
@example(  # 999 frames: 22 re-plans and 9 frames, 3 noise blocks and 231 frames
    scenario=ChaseScenario(
        target_speed=1.0, prep_distance=1.0, prep_duration=2.0, countdown=1.0, chase_duration=7.1
    ),
    lanes=[
        (Variant.SHEF, MAX_NOISE_SD, 3, "none", 1.0),
        (Variant.GUD, 0.002, 5, "down:4", 1.3),
        (Variant.SHEF, 0.0, 0, "up:6", 1.0),
        (Variant.GUD, 0.004, 7, "none", 1.0),
    ],
)
def test_each_lane_equals_its_own_chase(scenario, lanes):
    assert_lanes_equal_run_chase(scenario, lanes)


@pytest.mark.parametrize("target", [0.0, 3.5])
def test_a_mixed_batch_equals_its_chases(target):
    """Both laws side by side, with and without noise, rigs pulling either
    way, and gud strained past its cadence cap at 3.5 m/s."""
    lanes = [
        (Variant.GUD, 0.004, 3, "none"),
        (Variant.SHEF, 0.004, 3, "none"),
        (Variant.GUD, 0.0, 0, "down:4"),
        (Variant.SHEF, 0.0, 0, "up:6"),
        (Variant.SHEF, 0.002, 9, "down:4"),
        (Variant.GUD, 0.003, 5, "up:6"),
    ]
    scenario = ChaseScenario(
        target_speed=target, prep_duration=2.0, countdown=1.0, chase_duration=4.0
    )
    assert_lanes_equal_run_chase(scenario, lanes)


def test_lanes_with_no_frame_in_the_window_raise_empty_window():
    scenario = ChaseScenario(
        target_speed=0.0, prep_duration=1e-3, countdown=1e-3, chase_duration=1e-3
    )  # rounds to zero frames
    with pytest.raises(EmptyWindow):
        run_chase(scenario, WalkerAgent(SHEF), SHEF)
    with pytest.raises(EmptyWindow):
        run_chase_lanes(scenario, [WalkerAgent(SHEF)])


def test_a_batch_needs_at_least_one_agent():
    with pytest.raises(ValueError, match="^need at least one agent$"):
        run_chase_lanes(ChaseScenario(target_speed=1.0), [])


SHORT_CHASE = ChaseScenario(target_speed=1.0, prep_duration=0.5, chase_duration=0.5)


def fresh_chase(noise_sd, seed):
    """run_chase of a fresh SHEF agent of these settings: its report and
    its samples' heights."""
    report, log = run_chase(SHORT_CHASE, WalkerAgent(SHEF, noise_sd=noise_sd, seed=seed), SHEF)
    return repr(report), log.samples.height.tobytes()


def test_an_agent_passed_twice_runs_two_fresh_chases():
    """Each lane seeds its own generator from its agent's seed, so two lanes
    of one agent each run a fresh agent's chase."""
    agent = WalkerAgent(SHEF, noise_sd=0.004, seed=1)
    reports = run_chase_lanes(SHORT_CHASE, [agent, agent])
    assert list(map(repr, reports)) == [fresh_chase(0.004, 1)[0]] * 2


def test_an_agent_that_ran_a_noisy_chase_starts_its_lane_fresh():
    """A lane starts from its agent's settings, not from the gait state and
    the half-read noise block a run_chase left in it."""
    used = WalkerAgent(SHEF, noise_sd=0.004, seed=1)
    run_chase(SHORT_CHASE, used, SHEF)
    reports = run_chase_lanes(SHORT_CHASE, [WalkerAgent(SHEF), used])
    assert repr(reports[1]) == fresh_chase(0.004, 1)[0]


@pytest.mark.parametrize("noise_sd,seed", [(0.004, 1), (0.0, 2)], ids=["noisy", "quiet"])
def test_a_batch_leaves_its_agents_as_they_were(noise_sd, seed):
    """After a batch an agent's own run_chase is a fresh agent's: the batch
    reads the agent's settings and changes nothing in it."""
    agents = [WalkerAgent(SHEF, noise_sd=noise_sd, seed=seed), WalkerAgent(SHEF, seed=3)]
    run_chase_lanes(SHORT_CHASE, agents)
    report, log = run_chase(SHORT_CHASE, agents[0], SHEF)
    assert (repr(report), log.samples.height.tobytes()) == fresh_chase(noise_sd, seed)


@pytest.mark.parametrize(
    "seed", [-1, 1.5, None, True, np.random.default_rng(0)],
    ids=["-1", "1.5", "None", "True", "Generator"],
)
def test_an_agent_seed_must_be_an_integer_of_at_least_zero(seed):
    """A lane re-seeds from its agent's seed: a Generator would be shared
    between lanes and None would draw fresh entropy."""
    message = f"^seed must be an integer >= 0, got {re.escape(repr(seed))}$"
    with pytest.raises(ValueError, match=message):
        WalkerAgent(SHEF, seed=seed)


def test_lanes_carry_no_view_of_an_interval(monkeypatch):
    """The position and sphere run_chase_lanes carries from one re-plan
    interval to the next are copied out of the interval's arrays, so they
    keep none of them alive."""
    carried = []
    integrate = harness._integrate

    def spy(scenario, now, out, position, sphere):
        carried.extend((position, sphere))
        return integrate(scenario, now, out, position, sphere)

    monkeypatch.setattr(harness, "_integrate", spy)
    scenario = ChaseScenario(target_speed=1.5, prep_duration=1.0, chase_duration=1.0)
    run_chase_lanes(scenario, [WalkerAgent(SHEF), WalkerAgent(SHEF, seed=1)])
    assert len(carried) > 2
    assert [a.base is None for a in carried] == [True] * len(carried)


class TestStaircase:
    def test_presets_are_registered(self):
        assert set(STAIRCASE_PRESETS) == {SlopeKind.UPHILL, SlopeKind.DOWNHILL}

    @pytest.mark.parametrize(
        "slope,series,expected",
        [
            (SlopeKind.UPHILL, SeriesKind.ASCENDING, 0.65),
            (SlopeKind.UPHILL, SeriesKind.DESCENDING, 0.72),
            (SlopeKind.DOWNHILL, SeriesKind.ASCENDING, 1.30),
            (SlopeKind.DOWNHILL, SeriesKind.DESCENDING, 1.45),
        ],
    )
    def test_landing_points_with_reference_judges(self, slope, series, expected):
        reference = 0.71 if slope is SlopeKind.UPHILL else 1.43
        judge = make_reference_judge(reference, STAIRCASE_PRESETS[slope][0])
        gain = run_adjustment(slope, series, judge)
        assert gain == pytest.approx(expected, abs=1e-12)

    def test_unsatisfiable_judge_raises(self):
        asked = []

        def judge(gain):
            asked.append(gain)
            return False

        with pytest.raises(NonTermination, match=f"after {MAX_BOUTS} bouts"):
            run_adjustment(SlopeKind.DOWNHILL, SeriesKind.ASCENDING, judge)
        assert len(asked) == MAX_BOUTS

    def test_descending_into_zero_raises(self):
        # uphill descends from 1.0 in 0.07 steps: 1.0 - 15 * 0.07 < 0
        with pytest.raises(NonTermination, match="positive-gain domain after 15 bouts"):
            run_adjustment(SlopeKind.UPHILL, SeriesKind.DESCENDING, lambda g: False)

    def test_judge_boundary_is_inclusive(self):
        judge = make_reference_judge(1.0, 0.25)
        assert judge(1.25) and judge(0.75)  # exact binary boundaries
        assert not judge(1.2500001)

    def test_aggregate_requires_four_series(self):
        assert aggregate_adjustments([0.65, 0.72, 0.65, 0.72]) == pytest.approx(0.685)
        with pytest.raises(WrongArity):
            aggregate_adjustments([0.65, 0.72, 0.65])
        with pytest.raises(WrongArity):
            aggregate_adjustments([0.65] * 5)
