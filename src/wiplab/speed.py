"""Control laws mapping gait estimates to virtual locomotion speed.

Two variants share the same frequency core: the base law squares the
height-normalized cadence, and the height-scaled law multiplies it by the
step height relative to REF_STEP_HEIGHT. A separate gain stage applies the
experiment gain and the natural visual gain.

law() is the one variant dispatch: it binds one WipParams into a function of
(step frequency, step height) once per run. synth.program_speed() and the
simulation loops evaluate the configured law only through it.
"""

from __future__ import annotations

from typing import Callable

from .core import NonPositiveGain, NonPositiveHeight, Variant, WipParams


# The law's reference point (cadence law: Wendt, Whitton & Brooks, "GUD WIP",
# IEEE VR 2010): stepping at REF_FREQUENCY with body height REF_USER_HEIGHT
# (and, under shef, step height REF_STEP_HEIGHT) gives exactly 1 m/s.
REF_FREQUENCY = 1.57    # Hz
REF_USER_HEIGHT = 1.72  # m
REF_STEP_HEIGHT = 0.1   # m


def gud_speed(step_frequency: float, user_height: float) -> float:
    """Virtual speed from cadence and body height alone.

    Normalized so the reference cadence at the reference height gives
    exactly 1 m/s. Quadratic in both factors, so doubling the cadence
    quadruples the speed.
    """
    if user_height <= 0.0:
        raise NonPositiveHeight(f"user height {user_height} must be > 0")
    if step_frequency < 0.0:
        raise ValueError("step frequency must be >= 0")
    scaled = (step_frequency / REF_FREQUENCY) * (user_height / REF_USER_HEIGHT)
    return scaled * scaled


def shef_speed(step_frequency: float, user_height: float, step_height: float) -> float:
    """Height-scaled variant: the base law times step height over reference.

    Identical to gud_speed when step_height equals the reference, which is
    what makes the two variants comparable at the same gait.
    """
    if step_height < 0.0:
        raise ValueError("step height must be >= 0")
    return gud_speed(step_frequency, user_height) * (step_height / REF_STEP_HEIGHT)


def apply_gain(speed: float, gain: float, natural_visual_gain: float = 1.0) -> float:
    """Output stage: speed times the experiment gain times the natural gain."""
    if gain <= 0.0 or natural_visual_gain <= 0.0:
        raise NonPositiveGain("gains must be > 0")
    return speed * gain * natural_visual_gain


def law(params: WipParams) -> Callable[[float, float], tuple[float, float]]:
    """The configured law and gain stage as one function, built once per run.

    The returned function maps a step frequency and a step height, both
    >= 0, to (raw speed, output speed). It performs exactly the operations
    of gud_speed or shef_speed followed by apply_gain, in the same order, so
    every result is bit-identical to theirs; the per-call argument checks
    are left out because WipParams validated the constants and gait
    estimates are non-negative by construction.
    """
    height_ratio = params.user_height / REF_USER_HEIGHT
    gain, natural_gain = params.speed_gain, params.natural_visual_gain

    if params.variant is Variant.GUD:

        def gud(step_frequency: float, step_height: float) -> tuple[float, float]:
            scaled = (step_frequency / REF_FREQUENCY) * height_ratio
            raw = scaled * scaled
            return raw, raw * gain * natural_gain

        return gud

    def shef(step_frequency: float, step_height: float) -> tuple[float, float]:
        scaled = (step_frequency / REF_FREQUENCY) * height_ratio
        raw = scaled * scaled * (step_height / REF_STEP_HEIGHT)
        return raw, raw * gain * natural_gain

    return shef
