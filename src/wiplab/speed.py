"""Control laws mapping gait estimates to virtual locomotion speed.

Two variants share the same frequency core: the base law (gud) squares the
height-normalized cadence, and the height-scaled law (shef) multiplies it by
the step height relative to REF_STEP_HEIGHT. Either law's output speed is
its raw speed times the experiment gain and the natural visual gain.

law() is the one place either formula is written and the one variant
dispatch: it binds one WipParams into a function of (step frequency, step
height) once per run or agent. The walker agents, the simulation loops and
the acceptance gate's law checks evaluate the laws only through it.
"""

from __future__ import annotations

from typing import Callable

from .core import Variant, WipParams


# The law's reference point (cadence law: Wendt, Whitton & Brooks, "GUD WIP",
# IEEE VR 2010): stepping at REF_FREQUENCY with body height REF_USER_HEIGHT
# (and, under shef, step height REF_STEP_HEIGHT) gives exactly 1 m/s.
REF_FREQUENCY = 1.57    # Hz
REF_USER_HEIGHT = 1.72  # m
REF_STEP_HEIGHT = 0.1   # m


def law(params: WipParams) -> Callable[[float, float], tuple[float, float]]:
    """The configured law and its gains as one function, built once per run.

    The returned function maps a step frequency and a step height, both
    >= 0, to (raw speed, output speed). gud's raw speed is the square of
    (step frequency / REF_FREQUENCY) * (user height / REF_USER_HEIGHT), so
    it is quadratic in both and ignores the step height; shef's is that
    times step height / REF_STEP_HEIGHT, so the two agree at the reference
    step height. The output speed is the raw speed times speed_gain times
    natural_visual_gain. The arguments are not checked: WipParams validated
    the constants, and gait estimates are non-negative by construction.
    The function is pure, so equal arguments give bit-equal results:
    run_chase evaluates it only when a frame's estimate changed.
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
