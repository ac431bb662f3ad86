"""Foot-height streams that sit exactly on the gait tracker's thresholds.

Each is a list of (left, right) heights, one pair per 90 Hz tick at time
k / 90.0. The lane, replay and GAIT-ORACLE properties take them as
explicit examples, so a threshold comparison flipped between strict and
non-strict fails them on every run, not only when Hypothesis happens to
draw the boundary.
"""

from wiplab.core import Foot, FootSample
from wiplab.gait import GROUND_EPSILON, MIN_STEP_HEIGHT

# Exact in floats on the tick grid: (FALL_TO - 0.05) / (75/90 - 74/90) is
# -0.05 and (RISE_TO - 0.03) / (89/90 - 88/90) is 0.05. Past t = 1 s no
# height pair gives exactly +-0.05 m/s over one tick.
FALL_TO = 0.049444444444444444
RISE_TO = 0.030555555555555558


def _steps(k, landings):
    """A foot's height at tick k: 10-tick swings of 0.1 m, each ending in
    one of the landing ticks."""
    return 0.1 if any(end - 10 <= k < end for end in landings) else 0.0


def _hovering_left(k):
    """First seen aloft, then it falls at exactly -0.05 m/s at tick 75,
    drops clearly at tick 80, rises at exactly 0.05 m/s at tick 89 and
    grounds at tick 120."""
    if k < 75:
        return 0.05
    if k < 80:
        return FALL_TO
    if k < 89:
        return 0.03
    return RISE_TO if k < 120 else 0.0


BOUNDARY_GAITS = {
    # the left foot stands exactly at the ground threshold for five ticks
    "height at GROUND_EPSILON": [(GROUND_EPSILON if 3 <= k < 8 else 0.0, 0.0) for k in range(11)],
    # one left step whose apex is exactly the minimum step height
    "apex at MIN_STEP_HEIGHT": [
        (h, 0.0) for h in (0.0, 0.0, 0.02, MIN_STEP_HEIGHT, 0.02, 0.0, 0.0)
    ],
    # the deadband switches of a foot first seen aloft, whose partial
    # bound is anchored at its phase changes, while the right foot's
    # footfalls every 20 ticks keep a cadence
    "velocity at +-VELOCITY_DEADBAND": [
        (_hovering_left(k), _steps(k, range(20, 121, 20))) for k in range(130)
    ],
    # footfalls at ticks 40 and 265: 265/90 - 40/90 is exactly RESUME_GAP
    "footfall gap of RESUME_GAP": [(0.0, _steps(k, (20, 40, 265))) for k in range(275)],
    # both feet grounded from the footfall at tick 40; 112/90 - 40/90 is
    # exactly STOP_WINDOW
    "grounded for STOP_WINDOW": [(0.0, _steps(k, (20, 40))) for k in range(120)],
    # right footfalls at ticks 20 and 40, then both feet land at tick 300,
    # past RESUME_GAP: the left footfall re-seeds the cadence and the
    # right one, on the same tick, is a zero-length first interval; the
    # right footfall at tick 320 gives the first cadence sample
    "restart past RESUME_GAP, then both feet land on one tick": [
        (_steps(k, (300,)), _steps(k, (20, 40, 300, 320))) for k in range(330)
    ],
}


def as_samples(ticks):
    """A stream's FootSamples in time order, left before right per tick."""
    return [
        FootSample(k / 90.0, foot, h)
        for k, pair in enumerate(ticks)
        for foot, h in zip((Foot.LEFT, Foot.RIGHT), pair)
    ]


def as_feet(ticks):
    """A stream as each foot's list of heights."""
    left, right = zip(*ticks)
    return {"left": list(left), "right": list(right)}


def as_segments(ticks):
    """A stream as test_gait's lane segments: a one-tick ramp per tick."""
    return [("ramp", left, left, right, right, 1) for left, right in ticks]
