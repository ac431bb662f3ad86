"""Synthetic gait generation and simulated walker agents.

Foot trajectories are half-sine swings over a stance/swing cycle, feet half
a cycle apart. Agents invert the speed laws to pick a cadence and apex for
a commanded speed, re-plan at each command while chasing, and degrade
their execution when asked for more than the walker's caps (MAX_FREQUENCY,
MAX_STEP_HEIGHT) can deliver: stepping at the limit is sloppier than
stepping comfortably, which is what makes the frequency-only variant
wobble at high targets. Noise comes from a generator of the agent's seed.

Walkers emit heights a run of ticks at a time, a left then a right per
tick: an agent's samples() as one flat list, WalkerLanes.samples every
lane's as one array. Between re-plans nothing reaches a walker, so
run_chase takes a whole re-plan interval per call. A recorded stream,
such as synth_trace's, is a core.Samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .core import Foot, InvalidRate, Samples, Variant, WipParams, require_finite
from .elastic import ElasticRig, rig_force
from .speed import REF_FREQUENCY, REF_STEP_HEIGHT, REF_USER_HEIGHT, law

FEET = (Foot.LEFT, Foot.RIGHT)  # order of per-foot agent state and of emitted heights
MIN_SAMPLE_RATE = 30.0  # Hz, below this swing segmentation falls apart

# Coupling of rig force into realized step apex, meters per newton of
# upward force (elastic.rig_force's sign).
APEX_FORCE_RESPONSE = 0.002

# How strongly an unachievable command degrades execution noise.
STRAIN_NOISE_GAIN = 3.0

# Behavioral limits of a simulated walker.
MAX_FREQUENCY = 2.2          # Hz
MAX_STEP_HEIGHT = 0.3        # m
COMFORT_BAND = (1.2, 2.2)    # Hz, preferred cadence range

# Gait shape: the share of each per-foot cycle on the ground, and how far
# into its cycle the right foot is when the left starts one.
STANCE_FRACTION = 0.4
PHASE_OFFSET = 0.5

CHASE_GAIN = 0.5  # m/s of commanded speed per m of chase error

# Largest noise SD an agent takes, chosen so its samples stay under
# core.HEIGHT_CEILING (2.0 m). The highest planned apex is MAX_STEP_HEIGHT
# (0.3 m). The largest upward-rig apex shift is elastic.MAX_BANDS (100) bands
# at the full ANCHOR_DISTANCE extension: 100 x APEX_FORCE_RESPONSE x
# (BAND_SLOPE x 39 cm + BAND_INTERCEPT) x KGF_TO_N = 1.009 m. The largest
# strained SD is (1 + STRAIN_NOISE_GAIN) x MAX_NOISE_SD = 0.04 m, so an
# 8-sigma draw adds 0.32 m: 0.3 + 1.009 + 0.32 = 1.63 m.
MAX_NOISE_SD = 0.01  # m

# Standard normals a WalkerAgent, or at least a WalkerLanes lane, draws per block;
# even, so that each of an agent's left/right pairs comes from one block.
NOISE_BLOCK = 512


@dataclass(frozen=True)
class GaitProgram:
    """Parameters of one synthetic gait."""

    step_frequency: float   # Hz, footfall cadence over both feet
    apex_height: float      # m
    noise_sd: float = 0.0   # m, additive Gaussian on every height sample
    seed: int = 0

    def __post_init__(self) -> None:
        require_finite(self, ("step_frequency", "apex_height", "noise_sd"))
        if self.step_frequency < 0.0 or self.apex_height < 0.0 or self.noise_sd < 0.0:
            raise ValueError("gait program values must be >= 0")


def synth_trace(program: GaitProgram, duration: float, sample_rate: float) -> Samples:
    """Closed-form two-foot trace sampled on a regular grid: a Samples with
    a left then a right sample per tick.

    Deterministic for a given program (the seed fixes the noise stream).
    Left starts at cycle position 0, right at PHASE_OFFSET, so the right
    foot typically enters mid-swing at t = 0. Every height is computed as
    an array with WalkerAgent.samples' operations; the noise is one draw of
    two standard normals per tick, left then right.
    """
    if sample_rate < MIN_SAMPLE_RATE:
        raise InvalidRate(f"sample rate {sample_rate} Hz below {MIN_SAMPLE_RATE} Hz")
    n = int(round(duration * sample_rate))
    t = np.arange(n) / sample_rate
    heights = np.zeros((n, 2))  # one row per tick: left, right
    if program.step_frequency > 0.0:
        # per-foot cycle period is 2/f: two alternating feet share the cadence
        cycle = t[:, None] * program.step_frequency / 2.0 + (0.0, PHASE_OFFSET)
        cycle -= np.floor(cycle)  # % 1.0's bits for cycle >= 0, at a fraction of its cost
        u = (cycle - STANCE_FRACTION) / (1.0 - STANCE_FRACTION)
        swing = program.apex_height * np.sin(np.pi * u)
        heights = np.where(cycle < STANCE_FRACTION, 0.0, swing)
    if program.noise_sd > 0.0:
        noise = np.random.default_rng(program.seed).standard_normal(2 * n).reshape(n, 2)
        heights = heights + program.noise_sd * noise
        heights = np.where(heights > 0.0, heights, 0.0)  # max(0.0, h)
    return Samples(np.repeat(t, 2), np.tile((True, False), n), heights.ravel())


def plan_gait(target_speed: float, params: WipParams) -> GaitProgram:
    """Choose cadence and apex that reach target_speed under the caps.

    Inverting the frequency law gives the cadence that would reach the
    target at the reference step height. The frequency-only variant clamps
    that cadence at MAX_FREQUENCY and steps at the reference height. The
    height-scaled variant instead settles on the nearest cadence in
    COMFORT_BAND and makes up the difference with step height, clamped at
    MAX_STEP_HEIGHT.
    """
    return GaitProgram(*_cadence_and_apex(target_speed, params, law(params)))


def _cadence_and_apex(
    target_speed: float, params: WipParams, evaluate: Callable[[float, float], tuple[float, float]]
) -> tuple[float, float]:
    """plan_gait's step frequency and apex height; evaluate is law(params).

    A commanded speed enters here, and must be finite and >= 0. The
    height-scaled plan's base speed is its own law's at REF_STEP_HEIGHT,
    where shef equals the frequency law.
    """
    if not 0.0 <= target_speed < math.inf:
        raise ValueError(f"target speed must be finite and >= 0, got {target_speed!r}")
    if target_speed == 0.0:
        return 0.0, 0.0
    f_solo = REF_FREQUENCY * math.sqrt(target_speed) * (REF_USER_HEIGHT / params.user_height)
    if params.variant is Variant.GUD:
        return min(f_solo, MAX_FREQUENCY), REF_STEP_HEIGHT
    lo, hi = COMFORT_BAND
    f = min(max(f_solo, lo), hi)
    base = evaluate(f, REF_STEP_HEIGHT)[0]
    apex = REF_STEP_HEIGHT * target_speed / base
    return f, min(max(apex, 0.0), MAX_STEP_HEIGHT)


def chase_policy(distance_error: float, target_speed: float) -> float:
    """Commanded speed while chasing: target plus a proportional correction.

    Positive error means the follower is behind. Never commands backwards
    walking; the floor is zero.
    """
    return max(0.0, target_speed + CHASE_GAIN * distance_error)


def elastic_apex_shift(rig: ElasticRig | None, planned_apex: float) -> float:
    """Apex change induced by a rig: downward pull lowers steps, upward
    pull assists them, and no rig (None) changes nothing. Force is
    evaluated at the planned apex height."""
    if rig is None:
        return 0.0
    return APEX_FORCE_RESPONSE * rig_force(rig, planned_apex)


class WalkerAgent:
    """Phase-continuous stepping generator driven by commanded speed: the
    agent protocol run_chase calls, command(speed) at each re-plan and
    samples(ticks, dt) for the heights up to the next.

    Re-planning changes cadence immediately but latches a new apex only at
    each foot's next lift-off, so emitted heights stay continuous within a
    run. When the plan cannot reach the commanded speed the shortfall
    scales the execution noise up (strain): a walker forced against its
    caps steps raggedly, while one inside its comfort zone does not.

    Noise comes from a generator of seed (an int >= 0), made at the first
    noisy draw. samples() pops its normals in order off a reversed list of
    NOISE_BLOCK of them, only while the effective SD is positive, so the
    draws equal one scalar standard_normal() per noisy sample; that keeps
    recorded runs and their goldens exact. A WalkerLanes lane starts from
    the agent's settings (params, noise_sd, seed, rig), not from its state,
    and leaves the agent as it was.
    """

    def __init__(
        self,
        params: WipParams,
        *,
        noise_sd: float = 0.0,
        seed: int = 0,
        rig: ElasticRig | None = None,
    ):
        self.params = params
        self.noise_sd = noise_sd
        require_finite(self, ("noise_sd",))
        if not 0.0 <= noise_sd <= MAX_NOISE_SD:
            raise ValueError(f"noise_sd must be in [0, {MAX_NOISE_SD}] m, got {noise_sd!r}")
        if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
            raise ValueError(f"seed must be an integer >= 0, got {seed!r}")
        self.seed = seed
        self.rig = rig
        self._law = law(params)
        self._unread: list[float] = []  # the current block's unread normals, next one last
        # per-foot state, indexed like FEET
        self._cycle = [0.0, PHASE_OFFSET]
        self._apex = [0.0, 0.0]
        self._in_stance = [True, True]
        self._pending_apex = 0.0
        self._frequency = 0.0
        self._effective_sd = noise_sd

    @cached_property
    def _rng(self) -> np.random.Generator:
        """The noise generator, made from seed at the first noisy draw."""
        return np.random.default_rng(self.seed)

    def _plan(self, speed: float) -> tuple[float, float, float]:
        """command's plan: frequency, the next lift-off's apex, effective noise SD."""
        frequency, apex = _cadence_and_apex(speed, self.params, self._law)
        strain = 0.0
        if speed > 0.0:
            strain = max(0.0, speed - self._law(frequency, apex)[0]) / speed
        sd = self.noise_sd * (1.0 + STRAIN_NOISE_GAIN * strain)
        return frequency, max(0.0, apex + elastic_apex_shift(self.rig, apex)), sd

    def command(self, speed: float) -> None:
        """Re-plan for a commanded speed."""
        self._frequency, self._pending_apex, self._effective_sd = self._plan(speed)
        if self._frequency <= 0.0:
            # feet settle; park both cycles at stance start
            self._cycle = [0.0, 0.0]
            self._in_stance = [True, True]

    def samples(self, ticks: int, dt: float) -> list[float]:
        """The heights of the next ticks ticks, a left then a right per
        tick, advancing the gait clock by dt a tick.

        The gait state lives in locals for the call and is written back
        once, and the two feet are written out rather than looped over. A
        foot stands while its clock is below the stance threshold:
        STANCE_FRACTION, or inf for a parked walker (frequency <= 0), whose
        clocks step by 0.0. A swing height is apex * sin(pi * u), u the
        share of the swing gone; noise is read for the left foot, then the
        right, as a per-foot loop would. Each clock adds its phase step and
        wraps by % 1.0 only once the sum reaches 1.0: a clock starts in
        [0, 1) and its step is >= 0, and % 1.0 leaves a sum in [0, 1) as
        it is, so that is (c + step) % 1.0 bit for bit. Raises ValueError
        unless ticks is an int >= 0 and dt > 0.
        """
        ticks = _ticks(ticks)
        frequency, pending, sd = self._frequency, self._pending_apex, self._effective_sd
        dt = _tick(dt)
        phase_step, stance = 0.0, math.inf
        if frequency > 0.0:
            phase_step, stance = dt * frequency / 2.0, STANCE_FRACTION
        (left, right), (left_apex, right_apex) = self._cycle, self._apex
        left_in_stance, right_in_stance = self._in_stance
        unread = self._unread
        heights: list[float] = []
        emit, sin, pi, swing = heights.append, math.sin, math.pi, 1.0 - STANCE_FRACTION
        for _ in range(ticks):
            if left < stance:
                left_h = 0.0
                left_in_stance = True
            else:
                if left_in_stance:
                    # lift-off: adopt whatever plan is current
                    left_apex = pending
                    left_in_stance = False
                left_h = left_apex * sin(pi * ((left - STANCE_FRACTION) / swing))
            if right < stance:
                right_h = 0.0
                right_in_stance = True
            else:
                if right_in_stance:
                    right_apex = pending
                    right_in_stance = False
                right_h = right_apex * sin(pi * ((right - STANCE_FRACTION) / swing))
            if sd > 0.0:
                if not unread:  # at a pair's first normal, as NOISE_BLOCK is even
                    unread = self._unread = self._rng.standard_normal(NOISE_BLOCK).tolist()[::-1]
                left_h += sd * unread.pop()
                right_h += sd * unread.pop()
                left_h = left_h if left_h > 0.0 else 0.0  # max(0.0, h), also for -0.0 and NaN
                right_h = right_h if right_h > 0.0 else 0.0
            left += phase_step
            if left >= 1.0:
                left %= 1.0
            right += phase_step
            if right >= 1.0:
                right %= 1.0
            emit(left_h)
            emit(right_h)
        self._cycle, self._apex = [left, right], [left_apex, right_apex]
        self._in_stance = [left_in_stance, right_in_stance]
        return heights


def _tick(dt: float) -> float:
    """dt, a tick's length; ValueError unless it is finite and > 0."""
    if not 0.0 < dt < math.inf:  # NaN fails every comparison
        raise ValueError(f"dt must be finite and > 0, got {dt!r}")
    return dt


def _ticks(ticks: int) -> int:
    """ticks, a run's length; ValueError unless it is an int >= 0."""
    if isinstance(ticks, bool) or not isinstance(ticks, int) or ticks < 0:
        raise ValueError(f"ticks must be an integer >= 0, got {ticks!r}")
    return ticks


def _gait_clock(cycle: np.ndarray, step: np.ndarray, ticks: int) -> np.ndarray:
    """The gait clock cycle advanced ticks times by (c + step) % 1.0, as
    ticks + 1 entries along a new last axis; step broadcasts against cycle.
    Between wraps that is a sequential cumulative sum; at a wrap c + step
    lies in [1, 2), where % 1.0 subtracts 1.0 exactly, so each round
    restarts the sum of each column that wraps at its first wrap."""
    clock = np.empty((*cycle.shape, ticks + 1))
    clock[..., 0] = cycle
    clock[..., 1:] = step[..., None]
    clock = clock.reshape(-1, ticks + 1)
    step = clock[:, 1:2].copy()  # each column's
    np.cumsum(clock, axis=1, out=clock)
    entry = np.arange(ticks + 1)
    while True:
        over = clock >= 1.0
        if not over.any():
            return clock.reshape(*cycle.shape, ticks + 1)
        wrap = over.argmax(axis=1)
        wrapped = wrap.nonzero()[0]  # an entry 0 is a cycle < 1
        wrap = wrap[wrapped]
        after = entry >= wrap[:, None]
        restart = np.where(after, step[wrapped], 0.0)
        restart[np.arange(wrapped.size), wrap] = clock[wrapped, wrap] - 1.0
        clock[wrapped] = np.where(after, np.cumsum(restart, axis=1, out=restart), clock[wrapped])


class WalkerLanes:
    """WalkerAgent.samples for lanes of agents stepped in lockstep.

    Each lane starts from its agent's settings, as a fresh WalkerAgent
    of them does, and re-plans with the agent's _plan; the batch changes
    no agent. Each lane's per-foot state is a column of (2, lanes)
    arrays, row 0 the left foot. Between re-plans no plan changes, so
    samples() emits a run of ticks at once with the agent's operations
    as array operations and no loop over ticks: the gait clocks are
    cumulative sums restarted at each wrap, and each foot's apex is a
    run of its old one up to its first lift-off, then one of the plan's.
    A lane whose agent's noise_sd is positive (strain only scales it up)
    draws its noise from its own generator of the agent's seed, a
    left/right pair per tick, in blocks of at least NOISE_BLOCK normals.
    """

    def __init__(self, agents: Sequence[WalkerAgent], dt: float):
        lanes = len(agents)
        self._agents, self._dt = agents, _tick(dt)
        self._cycle = np.repeat([[0.0], [PHASE_OFFSET]], lanes, axis=1)
        self._apex = np.zeros((2, lanes))
        self._in_stance = np.ones((2, lanes), bool)
        self._rngs = {i: np.random.default_rng(a.seed) for i, a in enumerate(agents) if a.noise_sd > 0}
        self._normals = np.empty((2, lanes, 0))  # drawn and not yet read, a tick an entry
        self._adopt([(0.0, 0.0, a.noise_sd) for a in agents])

    def command(self, speeds: Sequence[float]) -> None:
        """Re-plan every lane for its commanded speed (one per lane), as WalkerAgent.command does."""
        self._adopt([agent._plan(speed) for agent, speed in zip(self._agents, speeds, strict=True)])
        # feet settle; park both cycles at stance start
        self._cycle = np.where(self._parked, 0.0, self._cycle)
        self._in_stance = self._in_stance | self._parked

    def _adopt(self, plans: Sequence[tuple[float, float, float]]) -> None:
        """Take up every lane's (frequency, pending apex, effective SD) plan."""
        frequency, self._pending, self._sd = np.array(plans).reshape(-1, 3).T
        self._phase_step = self._dt * frequency / 2.0
        self._parked = frequency <= 0.0

    def samples(self, ticks: int) -> np.ndarray:
        """Every lane's left and right heights for the next ticks ticks, a
        (ticks, 2, lanes) array, advancing the gait clocks by dt a tick.
        Raises ValueError unless ticks is an int >= 0.

        The run's arrays hold each foot's ticks along their last axis, and
        one entry more: the clock after the last tick, whose height is not
        returned."""
        if not _ticks(ticks):
            return np.empty((0, *self._apex.shape))
        clock = _gait_clock(self._cycle, self._phase_step, ticks)
        self._cycle = clock[..., -1].copy()
        stance = self._parked[:, None] | (clock < STANCE_FRACTION)
        # from a foot's first lift-off on, its apex is the current plan's: a
        # run of its old apex, then one of the plan's
        flat = stance.reshape(-1)
        lift = np.empty_like(flat)
        np.greater(flat[:-1], flat[1:], out=lift[1:])
        lift[::ticks + 1] = self._in_stance.reshape(-1) > flat[::ticks + 1]
        lift = lift.reshape(-1, ticks + 1)
        first = np.where(lift.any(axis=1), lift.argmax(axis=1), ticks + 1)
        runs, lengths = np.empty((first.size, 2)), np.empty((first.size, 2), int)
        runs[:, 0], lengths[:, 0] = self._apex.reshape(-1), first
        runs.reshape(2, -1, 2)[..., 1], lengths[:, 1] = self._pending, ticks + 1 - first
        apex = runs.reshape(-1).repeat(lengths.reshape(-1)).reshape(clock.shape)
        self._apex, self._in_stance = apex[..., -2].copy(), stance[..., -2].copy()
        u = (clock - STANCE_FRACTION) / (1.0 - STANCE_FRACTION)
        heights = np.where(stance, 0.0, apex * np.sin(np.pi * u))[..., :-1]
        if self._rngs:
            if self._normals.shape[-1] < ticks:
                fresh = max(NOISE_BLOCK // 2, ticks - self._normals.shape[-1])
                drawn = np.zeros((len(self._agents), fresh, 2))  # a lane with SD 0 adds 0.0 * 0.0
                for lane, rng in self._rngs.items():
                    drawn[lane] = rng.standard_normal(2 * fresh).reshape(fresh, 2)
                self._normals = np.concatenate((self._normals, drawn.transpose(2, 0, 1)), axis=-1)
            noise, self._normals = self._normals[..., :ticks], self._normals[..., ticks:]
            heights = heights + self._sd[:, None] * noise
            heights = np.where(heights > 0.0, heights, 0.0)  # max(0.0, h)
        return heights.transpose(2, 0, 1)
