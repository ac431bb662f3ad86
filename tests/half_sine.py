"""The synthetic walkers' foot-height profile, one sample at a time: the
reference that the walkers' inlined and array forms are tested against."""

import math


def cycle_height(cycle_pos: float, stance_fraction: float, apex: float) -> float:
    """Foot height at a normalized cycle position in [0, 1).

    Zero through stance, then a half sine over the swing: lifts off at the
    stance boundary, peaks mid-swing, lands at the wrap.
    """
    if cycle_pos < stance_fraction:
        return 0.0
    u = (cycle_pos - stance_fraction) / (1.0 - stance_fraction)
    return apex * math.sin(math.pi * u)
