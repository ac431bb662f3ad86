"""Synthetic gait generation, gait planning, and the simulated walker."""

import copy
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wiplab import synth
from wiplab.core import (
    HEIGHT_CEILING, Foot, FootSample, InvalidRate, Samples, Variant, WipParams,
)
from wiplab.elastic import MAX_BANDS, ElasticRig, PullDirection
from wiplab.speed import law
from wiplab.synth import (
    COMFORT_BAND,
    MAX_NOISE_SD,
    MAX_STEP_HEIGHT,
    GaitProgram,
    WalkerAgent,
    chase_policy,
    elastic_apex_shift,
    plan_gait,
    synth_trace,
)

from half_sine import cycle_height
from reference_laws import gud_speed

GUD = WipParams(variant=Variant.GUD)
SHEF = WipParams(variant=Variant.SHEF)


def program_speed(program, params):
    """The configured law's raw speed at a program's gait parameters."""
    return law(params)(program.step_frequency, program.apex_height)[0]


def test_cycle_height_profile():
    assert cycle_height(0.0, 0.4, 0.2) == 0.0
    assert cycle_height(0.39, 0.4, 0.2) == 0.0
    assert cycle_height(0.7, 0.4, 0.2) == pytest.approx(0.2)  # mid-swing apex
    # symmetric about the apex
    assert cycle_height(0.55, 0.4, 0.2) == pytest.approx(cycle_height(0.85, 0.4, 0.2))


class TestSynthTrace:
    def test_deterministic_per_seed(self):
        program = GaitProgram(step_frequency=2.0, apex_height=0.15, noise_sd=0.003, seed=7)
        first, second = synth_trace(program, 2.0, 90.0), synth_trace(program, 2.0, 90.0)
        assert list(first.tuples()) == list(second.tuples())

    def test_seed_changes_noise(self):
        a = GaitProgram(step_frequency=2.0, apex_height=0.15, noise_sd=0.003, seed=1)
        b = GaitProgram(step_frequency=2.0, apex_height=0.15, noise_sd=0.003, seed=2)
        assert list(synth_trace(a, 1.0, 90.0).tuples()) != list(synth_trace(b, 1.0, 90.0).tuples())

    def test_returns_samples_columns(self):
        trace = synth_trace(GaitProgram(2.0, 0.15, noise_sd=0.003), 1.0, 90.0)
        assert isinstance(trace, Samples)
        assert trace.time.dtype == trace.height.dtype == float and trace.left.dtype == bool

    def test_grid_and_interleaving(self):
        trace = list(map(FootSample._make, synth_trace(GaitProgram(2.0, 0.15), 1.0, 90.0).tuples()))
        assert len(trace) == 180  # 90 ticks, both feet
        for k in range(90):
            left, right = trace[2 * k], trace[2 * k + 1]
            assert left.foot is Foot.LEFT and right.foot is Foot.RIGHT
            assert left.time == right.time == k / 90.0

    def test_liftoff_count_over_five_seconds(self):
        trace = synth_trace(GaitProgram(2.0, 0.15), 5.0, 90.0)
        lifts = 0
        prev = {}
        for _, foot, height in trace.tuples():
            if foot in prev and prev[foot] == 0.0 and height > 0.0:
                lifts += 1
            prev[foot] = height
        assert lifts == 10  # one per foot per second, minus the leading edge

    def test_noise_never_digs_below_ground(self):
        program = GaitProgram(2.0, 0.1, noise_sd=0.05, seed=3)
        assert all(h >= 0.0 for _, _, h in synth_trace(program, 3.0, 90.0).tuples())

    def test_zero_frequency_is_flat(self):
        trace = synth_trace(GaitProgram(0.0, 0.0), 1.0, 90.0)
        assert all(h == 0.0 for _, _, h in trace.tuples())

    def test_rejects_low_sample_rate(self):
        with pytest.raises(InvalidRate):
            synth_trace(GaitProgram(2.0, 0.1), 1.0, 29.9)

    @pytest.mark.parametrize(
        "kwargs", [dict(step_frequency=-1.0, apex_height=0.1),
                   dict(step_frequency=1.0, apex_height=-0.1),
                   dict(step_frequency=1.0, apex_height=0.1, noise_sd=-0.01)]
    )
    def test_program_validation(self, kwargs):
        with pytest.raises(ValueError):
            GaitProgram(**kwargs)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["step_frequency", "apex_height", "noise_sd"])
    def test_program_rejects_non_finite_values(self, name, value):
        # a NaN apex used to give a trace of NaN heights
        kwargs = dict(step_frequency=1.0, apex_height=0.1, noise_sd=0.0)
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            GaitProgram(**{**kwargs, name: value})


class TestPlanGait:
    def test_zero_target_parks(self):
        program = plan_gait(0.0, SHEF)
        assert program.step_frequency == 0.0
        assert program.apex_height == 0.0

    def test_negative_target_rejected(self):
        with pytest.raises(ValueError):
            plan_gait(-0.1, SHEF)

    @pytest.mark.parametrize("speed", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("params", [GUD, SHEF], ids=["gud", "shef"])
    def test_a_speed_that_is_not_finite_is_rejected_where_it_enters(self, params, speed):
        """A NaN command used to freeze an agent's gait clock, an infinite one
        to stop its noise and plan_gait(inf) to plan a 2.2 Hz gait."""
        message = "target speed must be finite and >= 0"
        with pytest.raises(ValueError, match=message):
            plan_gait(speed, params)
        with pytest.raises(ValueError, match=message):
            WalkerAgent(params, noise_sd=0.004).command(speed)
        lanes = synth.WalkerLanes([WalkerAgent(params), WalkerAgent(params)], 1.0 / 90.0)
        with pytest.raises(ValueError, match=message):
            lanes.command([1.0, speed])

    def test_gud_plans_reference_gait_for_unit_speed(self):
        program = plan_gait(1.0, GUD)
        assert program.step_frequency == pytest.approx(1.57)
        assert program.apex_height == pytest.approx(0.1)

    def test_gud_cadence_saturates(self):
        program = plan_gait(6.0, GUD)
        assert program.step_frequency == pytest.approx(2.2)
        assert program_speed(program, GUD) == pytest.approx(gud_speed(2.2, 1.72))

    def test_shef_keeps_cadence_in_comfort_band(self):
        for target in (0.3, 0.5, 1.0, 2.0, 4.0, 6.0):
            program = plan_gait(target, SHEF)
            lo, hi = COMFORT_BAND
            assert lo <= program.step_frequency <= hi

    def test_shef_apex_saturates(self):
        program = plan_gait(8.0, SHEF)
        assert program.apex_height == pytest.approx(MAX_STEP_HEIGHT)

    @settings(max_examples=60, deadline=None)
    @given(target=st.floats(min_value=0.05, max_value=5.5))
    def test_shef_plan_inverts_exactly_until_the_apex_cap(self, target):
        program = plan_gait(target, SHEF)
        if program.apex_height < MAX_STEP_HEIGHT:
            assert program_speed(program, SHEF) == pytest.approx(target, rel=1e-9)

    @given(target=st.floats(min_value=0.05, max_value=1.9))
    def test_gud_plan_inverts_below_the_cap(self, target):
        # the 2.2 Hz cap binds above (2.2/1.57)^2 = 1.96 m/s at default height
        program = plan_gait(target, GUD)
        assert program_speed(program, GUD) == pytest.approx(target, rel=1e-9)

    def test_variants_separate_when_saturated(self):
        gud_v = program_speed(plan_gait(6.0, GUD), GUD)
        shef_v = program_speed(plan_gait(6.0, SHEF), SHEF)
        assert shef_v / gud_v == pytest.approx(3.0, rel=1e-9)

    def test_taller_user_needs_less_cadence(self):
        short = plan_gait(1.5, WipParams(variant=Variant.GUD, user_height=1.55))
        tall = plan_gait(1.5, WipParams(variant=Variant.GUD, user_height=2.0))
        assert tall.step_frequency < short.step_frequency


class TestChasePolicy:
    def test_on_track_commands_target(self):
        assert chase_policy(0.0, 1.5) == 1.5

    def test_behind_speeds_up(self):
        assert chase_policy(2.0, 1.5) == pytest.approx(2.5)

    def test_far_ahead_clamps_to_zero(self):
        assert chase_policy(-10.0, 1.5) == 0.0


class TestElasticApexShift:
    def test_no_rig_no_shift(self):
        assert elastic_apex_shift(None, 0.15) == 0.0

    def test_downward_rig_lowers_the_apex(self):
        rig = ElasticRig(direction=PullDirection.DOWNWARD, band_count=8)
        assert elastic_apex_shift(rig, 0.15) < 0.0

    def test_upward_rig_raises_the_apex(self):
        rig = ElasticRig(direction=PullDirection.UPWARD, band_count=6)
        assert elastic_apex_shift(rig, 0.15) > 0.0

    def test_more_bands_shift_more(self):
        light = ElasticRig(direction=PullDirection.DOWNWARD, band_count=4)
        heavy = ElasticRig(direction=PullDirection.DOWNWARD, band_count=12)
        assert elastic_apex_shift(heavy, 0.15) < elastic_apex_shift(light, 0.15)


class TestWalkerAgent:
    @pytest.mark.parametrize("noise_sd", [float("nan"), float("inf"), -0.001])
    def test_rejects_a_noise_sd_that_is_not_finite_and_non_negative(self, noise_sd):
        with pytest.raises(ValueError, match="noise_sd must be"):
            WalkerAgent(SHEF, noise_sd=noise_sd)

    def test_rejects_a_noise_sd_above_the_bound(self):
        WalkerAgent(SHEF, noise_sd=synth.MAX_NOISE_SD)
        with pytest.raises(ValueError, match=r"noise_sd must be in \[0, 0.01\] m, got 0.0101"):
            WalkerAgent(SHEF, noise_sd=0.0101)

    def test_the_bounds_keep_samples_under_the_height_ceiling(self):
        """The highest planned apex, the lift of the largest upward rig and
        an 8-sigma draw of the largest strained noise SD stay under the
        ceiling that sample validation enforces."""
        lift = elastic_apex_shift(ElasticRig(PullDirection.UPWARD, MAX_BANDS), 0.0)
        strained_sd = (1.0 + synth.STRAIN_NOISE_GAIN) * synth.MAX_NOISE_SD
        assert MAX_STEP_HEIGHT + lift + 8.0 * strained_sd < HEIGHT_CEILING

    def test_streams_through_the_pipeline(self):
        agent = WalkerAgent(SHEF)
        agent.command(1.5)
        dt = 1.0 / 90.0
        heights = agent.samples(270, dt)
        assert len(heights) == 540 and max(heights) > 0.05  # it actually walks

    @pytest.mark.parametrize("ticks", [-1, 1.0, 2.5, True, False, "3", None])
    def test_rejects_ticks_that_are_not_an_int_of_at_least_zero(self, ticks):
        agent = WalkerAgent(SHEF)
        agent.command(1.5)
        with pytest.raises(ValueError, match=f"ticks must be an integer >= 0, got {ticks!r}"):
            agent.samples(ticks, 1.0 / 90.0)

    @pytest.mark.parametrize("dt", [math.nan, math.inf, -math.inf, 0.0, -0.1])
    def test_rejects_a_dt_that_is_not_finite_and_positive_and_changes_no_state(self, dt):
        agent = WalkerAgent(SHEF, noise_sd=0.004, seed=2)
        agent.command(1.5)
        agent.samples(40, 1.0 / 90.0)
        before = copy.deepcopy(vars(agent))
        for ticks in (0, 3):
            with pytest.raises(ValueError, match=rf"^dt must be finite and > 0, got {dt!r}$"):
                agent.samples(ticks, dt)
        after = dict(vars(agent))
        assert after.pop("_rng").bit_generator.state == before.pop("_rng").bit_generator.state
        assert after == before

    @pytest.mark.parametrize("ticks", [-1, 1.0, 2.5, True, False, "3", None])
    def test_lanes_reject_ticks_that_are_not_an_int_of_at_least_zero(self, ticks):
        """The agent's check, before any state changes."""
        lanes = synth.WalkerLanes([WalkerAgent(SHEF, noise_sd=0.004, seed=2)], 1.0 / 90.0)
        lanes.command([1.5])
        lanes.samples(40)
        before = copy.deepcopy(vars(lanes))
        with pytest.raises(ValueError, match=f"ticks must be an integer >= 0, got {ticks!r}"):
            lanes.samples(ticks)
        after = dict(vars(lanes))
        assert [rng.bit_generator.state for rng in after.pop("_rngs").values()] == [
            rng.bit_generator.state for rng in before.pop("_rngs").values()]
        assert after.keys() == before.keys()
        assert all(np.array_equal(after[k], before[k]) for k in after if k != "_agents")

    @pytest.mark.parametrize("dt", [math.nan, math.inf, -math.inf, 0.0, -0.1])
    def test_lanes_reject_a_dt_that_is_not_finite_and_positive(self, dt):
        """At construction, before any gait clock steps by it (an infinite
        step would never wrap below 1.0)."""
        with pytest.raises(ValueError, match=rf"^dt must be finite and > 0, got {dt!r}$"):
            synth.WalkerLanes([WalkerAgent(SHEF)], dt)

    def test_zero_ticks_emit_nothing_and_change_no_state(self):
        dt = 1.0 / 90.0
        agent, twin = (WalkerAgent(GUD, noise_sd=0.004, seed=2) for _ in range(2))
        for walker in (agent, twin):
            walker.command(4.0)  # strained: a noisy, swinging gait
            walker.samples(50, dt)
        before = copy.deepcopy(vars(agent))
        assert agent.samples(0, dt) == []
        after = dict(vars(agent))
        assert after.pop("_rng").bit_generator.state == before.pop("_rng").bit_generator.state
        assert after == before
        assert agent.samples(200, dt) == twin.samples(200, dt)

    def test_command_zero_parks_the_feet(self):
        agent = WalkerAgent(SHEF)
        agent.command(1.5)
        dt = 1.0 / 90.0
        agent.samples(90, dt)
        agent.command(0.0)
        assert agent.samples(90, dt) == [0.0] * 180

    def test_deterministic_for_seed(self):
        def run(seed):
            agent = WalkerAgent(SHEF, noise_sd=0.004, seed=seed)
            agent.command(2.0)
            dt = 1.0 / 90.0
            return agent.samples(180, dt)

        assert run(5) == run(5)
        assert run(5) != run(6)

    def test_unreachable_command_strains_execution(self):
        agent = WalkerAgent(GUD, noise_sd=0.004)
        agent.command(1.5)
        assert agent._effective_sd == pytest.approx(0.004)
        agent.command(8.0)  # far beyond the cadence cap
        assert agent._effective_sd > 0.004

    def test_noiseless_agent_ignores_strain(self):
        agent = WalkerAgent(GUD, noise_sd=0.0)
        agent.command(8.0)
        assert agent._effective_sd == 0.0

    def test_replanning_keeps_heights_continuous(self):
        agent = WalkerAgent(SHEF)
        dt = 1.0 / 90.0
        heights = []
        for k in range(12):  # replan twice a second, alternating demands
            agent.command(1.0 if k % 2 == 0 else 3.5)
            heights += agent.samples(45, dt)
        # a latched apex changes only at lift-off, so no sample-to-sample jump
        # ever approaches the apex scale
        assert np.abs(np.diff(np.reshape(heights, (-1, 2)), axis=0)).max() < 0.05

    def test_downward_rig_flattens_steps(self):
        def apex_with(rig):
            agent = WalkerAgent(SHEF, rig=rig)
            agent.command(1.5)
            dt = 1.0 / 90.0
            return max(agent.samples(360, dt))

        free = apex_with(None)
        weighted = apex_with(ElasticRig(direction=PullDirection.DOWNWARD, band_count=12))
        assisted = apex_with(ElasticRig(direction=PullDirection.UPWARD, band_count=10))
        assert weighted < free < assisted


def test_block_drawn_noise_equals_scalar_draws():
    """Noisy heights equal the clean heights plus one scalar standard normal
    per noisy sample from an independent generator of the same seed, also
    when the effective SD toggles between zero and non-zero."""
    seed, dt = 21, 1.0 / 90.0
    agent = WalkerAgent(GUD, noise_sd=0.004, seed=seed)
    clean = WalkerAgent(GUD)  # noise never changes the gait state
    rng = np.random.default_rng(seed)
    # (commanded speed, noise SD): the strained command past the cap, the
    # zero command, and two noise-free stretches all change the draws
    plan = [(1.2, 0.004), (1.5, 0.0), (4.0, 0.004), (0.0, 0.003), (2.0, 0.0), (1.0, 0.0035)]
    draws = 0
    for speed, noise_sd in plan:
        agent.noise_sd = noise_sd
        agent.command(speed)
        clean.command(speed)
        sd = agent._effective_sd
        for noisy, expected in zip(agent.samples(200, dt), clean.samples(200, dt), strict=True):
            if sd > 0.0:
                expected = max(0.0, expected + sd * rng.standard_normal())
                draws += 1
            assert noisy == expected
    assert draws > 2 * synth.NOISE_BLOCK  # the stream crossed block boundaries


class PerFootAgent(WalkerAgent):
    """Reference emission: the agent's gait clock run a tick at a time, each
    tick one loop over the feet, each foot's state indexed like FEET, with
    cycle_height's swing and one scalar normal per noisy sample from its own
    generator of the seed."""

    def __init__(self, params, **kwargs):
        super().__init__(params, **kwargs)
        self._scalar_rng = np.random.default_rng(self.seed)

    def samples(self, ticks, dt):
        return [h for _ in range(ticks) for h in self._tick(dt)]

    def _tick(self, dt):
        out = []
        frequency, sd, stance = self._frequency, self._effective_sd, synth.STANCE_FRACTION
        cycle, was_in_stance = self._cycle, self._in_stance
        for i in range(len(synth.FEET)):
            cyc = cycle[i]
            in_stance = frequency <= 0.0 or cyc < stance
            if not in_stance and was_in_stance[i]:
                self._apex[i] = self._pending_apex
            was_in_stance[i] = in_stance
            h = 0.0 if in_stance else cycle_height(cyc, stance, self._apex[i])
            if sd > 0.0:
                h = max(0.0, h + sd * self._scalar_rng.standard_normal())
            out.append(h)
            if frequency > 0.0:
                cycle[i] = (cyc + dt * frequency / 2.0) % 1.0
        return out


def hexes(heights):
    return list(map(float.hex, heights))


@settings(max_examples=80, deadline=None)
@given(
    variant=st.sampled_from(list(Variant)),
    noise_sd=st.sampled_from([0.0, 0.002, 0.004]),
    seed=st.integers(0, 2**16),
    rig=st.sampled_from([None, ElasticRig(direction=PullDirection.DOWNWARD, band_count=4)]),
    rate=st.sampled_from([60.0, 90.0, 120.0]),
    # (commanded speed, ticks until the next command, where to split them);
    # 0 parks the feet, and a run past NOISE_BLOCK // 2 ticks refills the noise
    plan=st.lists(
        st.tuples(st.sampled_from([0.0, 0.3, 1.0, 1.7, 2.5, 4.0]) | st.floats(0.0, 5.0),
                  st.integers(0, 120) | st.integers(synth.NOISE_BLOCK // 2, 2 * synth.NOISE_BLOCK),
                  st.integers(0, 2 * synth.NOISE_BLOCK)),
        min_size=1, max_size=8,
    ),
)
# parked, then 26 ticks of 2.2 Hz at 71.5 Hz put both feet exactly on the stance boundary; the
# next command's apex shows whether they lifted off there
@example(
    variant=Variant.SHEF, noise_sd=0.0, seed=0, rig=None, rate=71.5,
    plan=[(0.0, 1, 0), (4.0, 27, 26), (2.5, 3, 1)],
)
# the runs and their splits cross refills of the noise block, a split one tick after one
@example(
    variant=Variant.GUD, noise_sd=0.004, seed=5, rig=None, rate=90.0,
    plan=[(1.5, synth.NOISE_BLOCK // 2 + 45, synth.NOISE_BLOCK // 2 + 1), (3.0, 600, 100)],
)
def test_samples_equal_the_per_foot_loop(variant, noise_sd, seed, rig, rate, plan):
    """An agent's samples for a run of ticks equal the per-foot loop's, tick
    by tick, and emission is split-invariant: samples(a) + samples(b) equals
    samples(a + b) bit for bit."""
    params = WipParams(variant=variant)
    kwargs = dict(noise_sd=noise_sd, seed=seed, rig=rig)
    agent, split = WalkerAgent(params, **kwargs), WalkerAgent(params, **kwargs)
    reference = PerFootAgent(params, **kwargs)
    dt = 1.0 / rate

    def adopted(walker):
        return walker._frequency, walker._pending_apex, walker._effective_sd

    for speed, ticks, at in plan:
        at %= ticks + 1
        for walker in (agent, split, reference):
            walker.command(speed)
        assert adopted(agent) == adopted(reference)
        got = agent.samples(ticks, dt)
        assert type(got) is list and set(map(type, got)) <= {float}
        assert hexes(got) == hexes(reference.samples(ticks, dt))
        assert hexes(split.samples(at, dt) + split.samples(ticks - at, dt)) == hexes(got)


@pytest.mark.parametrize("speeds", [[2.0], [2.0, 1.0], [2.0, 1.0, 0.0, 1.0]], ids=["1", "2", "4"])
def test_walker_lanes_take_one_speed_per_lane(speeds):
    """A short list would re-plan some lanes only, or broadcast lane 0's plan."""
    batch = synth.WalkerLanes([WalkerAgent(SHEF) for _ in range(3)], 1.0 / 90.0)
    with pytest.raises(ValueError, match="zip"):
        batch.command(speeds)


@settings(max_examples=60, deadline=None)
@given(
    lanes=st.lists(
        st.tuples(
            st.sampled_from(list(Variant)),
            st.sampled_from([0.0, 0.002, MAX_NOISE_SD]),  # 0: a lane that never draws
            st.integers(0, 2**16),
            st.sampled_from([None, ElasticRig(direction=PullDirection.UPWARD, band_count=6)]),
        ),
        min_size=1, max_size=4,
    ),
    rate=st.sampled_from([30.0, 90.0, 500.0]) | st.floats(30.0, 500.0),
    # each run: every lane's commanded speed (0 parks its feet) and its ticks;
    # 200 ticks at 30 Hz wrap a 2.2 Hz gait clock seven times
    runs=st.lists(
        st.tuples(st.lists(st.sampled_from([0.0, 1.0, 4.0]) | st.floats(0.0, 5.0),
                           min_size=4, max_size=4),
                  st.sampled_from([0, 1, 200]) | st.integers(0, 200)),
        min_size=1, max_size=4,
    ),
)
@example(  # a lane draws a run's 602 normals at once; its agent reads them from two blocks
    lanes=[(Variant.SHEF, MAX_NOISE_SD, 3, None), (Variant.GUD, MAX_NOISE_SD, 4, None)],
    rate=90.0,
    runs=[([2.0, 3.5, 0.0, 0.0], synth.NOISE_BLOCK // 2 + 45), ([1.0, 1.0, 0.0, 0.0], 200)],
)
def test_walker_lanes_equal_each_agents_samples(lanes, rate, runs):
    """WalkerLanes steps a run of ticks at once; each lane's heights equal its
    own WalkerAgent's, sample by sample and bit for bit, noise included."""
    def agents():
        return [
            WalkerAgent(WipParams(variant=variant), noise_sd=sd, seed=seed, rig=rig)
            for variant, sd, seed, rig in lanes
        ]

    dt, scalar = 1.0 / rate, agents()
    batch = synth.WalkerLanes(agents(), dt)
    for speeds, ticks in runs:
        speeds = speeds[:len(lanes)]
        batch.command(speeds)
        got = batch.samples(ticks)
        assert got.shape == (ticks, 2, len(lanes))
        for lane, agent, speed in zip(got.transpose(2, 0, 1), scalar, speeds):
            agent.command(speed)
            assert hexes(lane.ravel().tolist()) == hexes(agent.samples(ticks, dt))


def loop_synth_trace(program, duration, sample_rate):
    """synth_trace as one sample at a time: each foot's cycle position, its
    cycle_height, then one scalar normal per noisy sample, left then right."""
    rng = np.random.default_rng(program.seed)
    samples = []
    for k in range(int(round(duration * sample_rate))):
        t = k / sample_rate
        for foot, offset in ((Foot.LEFT, 0.0), (Foot.RIGHT, synth.PHASE_OFFSET)):
            if program.step_frequency <= 0.0:
                h = 0.0
            else:
                cycle = (t * program.step_frequency / 2.0 + offset) % 1.0
                h = cycle_height(cycle, synth.STANCE_FRACTION, program.apex_height)
            if program.noise_sd > 0.0:
                h = max(0.0, h + program.noise_sd * rng.standard_normal())
            samples.append(FootSample(t, foot, h))
    return samples


@settings(max_examples=120, deadline=None)
@given(
    frequency=st.sampled_from([0.0, 0.6, 2.0]) | st.floats(0.0, 5.0),
    apex=st.sampled_from([0.0, 0.3]) | st.floats(0.0, 0.4),
    noise_sd=st.sampled_from([0.0, 0.002, 0.05]),
    seed=st.integers(0, 2**32 - 1),
    duration=st.sampled_from([0.0, 0.01]) | st.floats(0.0, 8.0),
    rate=st.sampled_from([30.0, 90.0, 120.0]) | st.floats(30.0, 500.0),
)
def test_synth_trace_equals_the_sample_loop(frequency, apex, noise_sd, seed, duration, rate):
    program = GaitProgram(frequency, apex, noise_sd, seed)
    got = map(FootSample._make, synth_trace(program, duration, rate).tuples())
    assert list(map(repr, got)) == list(map(repr, loop_synth_trace(program, duration, rate)))


@settings(max_examples=300, deadline=None)
@given(c=st.floats(min_value=0.0, allow_infinity=False) | st.integers(0, 2**60).map(lambda k: k / 8.0))
def test_floor_fraction_equals_mod_one(c):
    """synth_trace wraps its cycle positions, all >= 0, as c - np.floor(c);
    the scalar paths wrap them with % 1.0. For finite c >= 0 both are c's
    exact fractional part."""
    array = np.array([c])
    assert [x.hex() for x in (array - np.floor(array)).tolist()] == [(c % 1.0).hex()]


def test_numpy_sin_and_mod_equal_math_on_the_swing_domain():
    """The array gait paths (synth_trace, synth.WalkerLanes) compute the
    half-sine swing with np.sin; the scalar paths use math.sin and wrap the
    cycle with %. np.sin agrees bit for bit with math.sin on this
    platform's numpy for every argument the swing takes: pi * u with u in
    [0, 1), and np.mod(x, 1.0) with x % 1.0 on cycle positions."""
    rng = np.random.default_rng(20240607)
    u = np.concatenate((np.linspace(0.0, 1.0, 100_001)[:-1], rng.random(200_000)))
    angle = np.pi * u
    assert np.sin(angle).tolist() == [math.sin(a) for a in angle.tolist()]
    # a cycle position plus one tick's phase step, and synth_trace's t * f / 2
    cycle = np.concatenate((u + rng.random(u.size) / 20.0, rng.random(100_000) * 1000.0))
    assert np.mod(cycle, 1.0).tolist() == [c % 1.0 for c in cycle.tolist()]

