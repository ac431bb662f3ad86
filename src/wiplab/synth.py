"""Synthetic gait generation and simulated walker agents.

Foot trajectories are half-sine swings over a stance/swing cycle, feet half
a cycle apart. Agents invert the speed laws to pick a cadence and apex for
a commanded speed, re-plan while chasing, and degrade their execution when
asked for more than the walker's caps (MAX_FREQUENCY, MAX_STEP_HEIGHT)
can deliver: stepping at the limit is sloppier than stepping comfortably,
which is what makes the frequency-only variant wobble at high targets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterator

import numpy as np

from .core import Foot, FootSample, InvalidRate, Variant, WipParams, require_finite
from .elastic import ElasticRig, PullDirection, rig_force
from .speed import gud_speed, law

FEET = (Foot.LEFT, Foot.RIGHT)  # order of per-foot agent state and of emitted samples
_LEFT, _RIGHT = FEET
_new_sample = tuple.__new__  # FootSample without its Python-level __new__
MIN_SAMPLE_RATE = 30.0  # Hz, below this swing segmentation falls apart

# Coupling of rig force into realized step apex, meters per newton of net
# downward force.
APEX_FORCE_RESPONSE = 0.002

# How strongly an unachievable command degrades execution noise.
STRAIN_NOISE_GAIN = 3.0

# Behavioral limits of a simulated walker.
MAX_FREQUENCY = 2.2          # Hz
MAX_STEP_HEIGHT = 0.3        # m
COMFORT_BAND = (1.2, 2.2)    # Hz, preferred cadence range

# Standard normals drawn from a generator per block. A Generator's block
# draws equal the same number of scalar draws, so the stream is unchanged.
NOISE_BLOCK = 512


@dataclass(frozen=True)
class GaitProgram:
    """Parameters of one synthetic gait."""

    step_frequency: float   # Hz, footfall cadence over both feet
    apex_height: float      # m
    stance_fraction: float = 0.4   # share of the per-foot cycle on the ground
    phase_offset_between_feet: float = 0.5
    noise_sd: float = 0.0   # m, additive Gaussian on every height sample
    seed: int = 0

    def __post_init__(self) -> None:
        if self.step_frequency < 0.0 or self.apex_height < 0.0 or self.noise_sd < 0.0:
            raise ValueError("gait program values must be >= 0")
        if not 0.0 < self.stance_fraction < 1.0:
            raise ValueError("stance_fraction must be in (0, 1)")


def cycle_height(cycle_pos: float, stance_fraction: float, apex: float) -> float:
    """Foot height at a normalized cycle position in [0, 1).

    Zero through stance, then a half sine over the swing: lifts off at the
    stance boundary, peaks mid-swing, lands at the wrap.
    """
    if cycle_pos < stance_fraction:
        return 0.0
    u = (cycle_pos - stance_fraction) / (1.0 - stance_fraction)
    return apex * math.sin(math.pi * u)


def normal_stream(rng: np.random.Generator) -> Iterator[float]:
    """The generator's standard normals, in draw order, drawn in blocks.

    Nothing is drawn until the first value is taken.
    """
    while True:
        yield from rng.standard_normal(NOISE_BLOCK).tolist()


def synth_trace(program: GaitProgram, duration: float, sample_rate: float) -> list[FootSample]:
    """Closed-form two-foot trace sampled on a regular grid.

    Deterministic for a given program (the seed fixes the noise stream).
    Left starts at cycle position 0, right at the configured offset, so the
    right foot typically enters mid-swing at t = 0.
    """
    if sample_rate < MIN_SAMPLE_RATE:
        raise InvalidRate(f"sample rate {sample_rate} Hz below {MIN_SAMPLE_RATE} Hz")
    noise = normal_stream(np.random.default_rng(program.seed))
    n = int(round(duration * sample_rate))
    samples: list[FootSample] = []
    for k in range(n):
        t = k / sample_rate
        for foot, offset in ((Foot.LEFT, 0.0), (Foot.RIGHT, program.phase_offset_between_feet)):
            if program.step_frequency <= 0.0:
                h = 0.0
            else:
                # per-foot cycle period is 2/f: two alternating feet share the cadence
                cycle = (t * program.step_frequency / 2.0 + offset) % 1.0
                h = cycle_height(cycle, program.stance_fraction, program.apex_height)
            if program.noise_sd > 0.0:
                h = max(0.0, h + program.noise_sd * next(noise))
            samples.append(FootSample(t, foot, h))
    return samples


def plan_gait(target_speed: float, params: WipParams) -> GaitProgram:
    """Choose cadence and apex that reach target_speed under the caps.

    Inverting the frequency law gives the cadence that would reach the
    target at the reference step height. The frequency-only variant clamps
    that cadence at MAX_FREQUENCY and steps at the reference height. The
    height-scaled variant instead settles on the nearest cadence in
    COMFORT_BAND and makes up the difference with step height, clamped at
    MAX_STEP_HEIGHT.
    """
    if target_speed < 0.0:
        raise ValueError("target speed must be >= 0")
    if target_speed == 0.0:
        return GaitProgram(step_frequency=0.0, apex_height=0.0)
    f_solo = (
        params.ref_frequency
        * math.sqrt(target_speed)
        * (params.ref_user_height / params.user_height)
    )
    if params.variant is Variant.GUD:
        f = min(f_solo, MAX_FREQUENCY)
        apex = params.ref_step_height
    else:
        lo, hi = COMFORT_BAND
        f = min(max(f_solo, lo), hi)
        base = gud_speed(
            f,
            params.user_height,
            ref_frequency=params.ref_frequency,
            ref_user_height=params.ref_user_height,
        )
        apex = params.ref_step_height * target_speed / base
        apex = min(max(apex, 0.0), MAX_STEP_HEIGHT)
    return GaitProgram(step_frequency=f, apex_height=apex)


def program_speed(program: GaitProgram, params: WipParams) -> float:
    """Forward-evaluate the configured law on a program's gait parameters."""
    raw, _ = law(params)(program.step_frequency, program.apex_height)
    return raw


def chase_policy(distance_error: float, target_speed: float, *, gain: float = 0.5) -> float:
    """Commanded speed while chasing: target plus a proportional correction.

    Positive error means the follower is behind. Never commands backwards
    walking; the floor is zero.
    """
    return max(0.0, target_speed + gain * distance_error)


def elastic_apex_shift(rig: ElasticRig | None, planned_apex: float) -> float:
    """Apex change induced by a rig: downward pull lowers steps, upward
    pull assists them. Force is evaluated at the planned apex height."""
    if rig is None or rig.direction is PullDirection.NONE:
        return 0.0
    reading = rig_force(rig, planned_apex)
    net_downward = -reading.direction_sign * reading.magnitude
    return -APEX_FORCE_RESPONSE * net_downward


class WalkerAgent:
    """Phase-continuous stepping generator driven by commanded speed.

    Re-planning changes cadence immediately but latches a new apex only at
    each foot's next lift-off, so emitted heights stay continuous within a
    run. When the plan cannot reach the commanded speed the shortfall
    scales the execution noise up (strain): a walker forced against its
    caps steps raggedly, while one inside its comfort zone does not.

    Noise is drawn from the agent's generator in blocks and consumed in
    order, and only while the effective SD is positive, so the sequence of
    draws equals one scalar standard_normal() per noisy sample. That
    equality keeps recorded runs and their goldens exact.
    """

    def __init__(
        self,
        params: WipParams,
        *,
        noise_sd: float = 0.0,
        seed: int = 0,
        rig: ElasticRig | None = None,
        stance_fraction: float = 0.4,
    ):
        self.params = params
        self.noise_sd = noise_sd
        require_finite(self, ("noise_sd",))
        if noise_sd < 0.0:
            raise ValueError("noise_sd must be >= 0")
        self.rig = rig
        self.stance_fraction = stance_fraction
        self._noise = normal_stream(np.random.default_rng(seed))
        # per-foot state, indexed like FEET
        self._cycle = [0.0, 0.5]
        self._apex = [0.0, 0.0]
        self._in_stance = [True, True]
        self._pending_apex = 0.0
        self._frequency = 0.0
        self._effective_sd = noise_sd

    def command(self, speed: float) -> GaitProgram:
        """Re-plan for a commanded speed; returns the adopted program."""
        program = plan_gait(speed, self.params)
        planned_v = program_speed(program, self.params)
        strain = 0.0
        if speed > 0.0:
            strain = max(0.0, speed - planned_v) / speed
        self._effective_sd = self.noise_sd * (1.0 + STRAIN_NOISE_GAIN * strain)
        self._frequency = program.step_frequency
        shift = elastic_apex_shift(self.rig, program.apex_height)
        self._pending_apex = max(0.0, program.apex_height + shift)
        if self._frequency <= 0.0:
            # feet settle; park both cycles at stance start
            self._cycle = [0.0, 0.0]
            self._in_stance = [True, True]
        return replace(program, apex_height=self._pending_apex)

    def samples(self, now: float, dt: float) -> list[FootSample]:
        """Emit both feet at time `now`, then advance the gait clock by dt.

        The two feet are written out rather than looped over; noise is drawn
        for the left foot, then the right, as the per-foot loop drew it.
        """
        frequency, sd, stance = self._frequency, self._effective_sd, self.stance_fraction
        cycle, apex, was_in_stance = self._cycle, self._apex, self._in_stance
        left, right = cycle
        left_stance = frequency <= 0.0 or left < stance
        right_stance = frequency <= 0.0 or right < stance
        if left_stance:
            left_h = 0.0
        else:
            if was_in_stance[0]:
                # lift-off: adopt whatever plan is current
                apex[0] = self._pending_apex
            left_h = cycle_height(left, stance, apex[0])
        if right_stance:
            right_h = 0.0
        else:
            if was_in_stance[1]:
                apex[1] = self._pending_apex
            right_h = cycle_height(right, stance, apex[1])
        was_in_stance[0], was_in_stance[1] = left_stance, right_stance
        if sd > 0.0:
            noise = self._noise
            left_h = max(0.0, left_h + sd * next(noise))
            right_h = max(0.0, right_h + sd * next(noise))
        if frequency > 0.0:
            phase_step = dt * frequency / 2.0
            cycle[0] = (left + phase_step) % 1.0
            cycle[1] = (right + phase_step) % 1.0
        return [
            _new_sample(FootSample, (now, _LEFT, left_h)),
            _new_sample(FootSample, (now, _RIGHT, right_h)),
        ]
