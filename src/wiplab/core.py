"""Shared domain types, units, and validation for the locomotion engine.

All quantities are SI: seconds, meters, Hz. Time is a real number rather
than a frame index, so every consumer stays sample-rate independent.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from enum import Enum
from itertools import repeat
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

# Trackers may report slightly negative heights while a foot rests on the
# floor; anything below this is a sensor fault, not noise.
HEIGHT_FLOOR = -0.005  # m
HEIGHT_CEILING = 2.0   # m, no foot gets this high

_INF = float("inf")
# Largest speed_gain and natural_visual_gain. The experiments' gains lie in
# 0.3-2.5 and the natural visual gain is 2.02; far past them a chase's speed
# sums overflow.
MAX_GAIN = 10.0


class WipError(Exception):
    """Base class for engine errors.

    exit_code is the command line's exit status for the error: 3, a runtime
    failure, unless a subclass marks bad input with 2.
    """

    exit_code = 3


class NonMonotonicTime(WipError):
    """Sample time did not advance for its foot."""

    exit_code = 2


class OutOfRangeHeight(WipError):
    """Foot height outside the plausible sensor range."""

    exit_code = 2


class NonPositiveHeight(WipError):
    """User height must be strictly positive."""

    exit_code = 2


class NonPositiveGain(WipError):
    """Speed gains must be strictly positive."""

    exit_code = 2


class NegativeExtension(WipError):
    """Band extension below zero has no meaning."""

    exit_code = 2


class ZeroExtension(WipError):
    """Rig geometry yields no extension, so no target force is attainable."""

    exit_code = 2


class InvalidRate(WipError):
    """Sample rate too low for gait segmentation."""

    exit_code = 2


class DivergedSimulation(WipError):
    """A simulated quantity went non-finite."""


class NonTermination(WipError):
    """Adjustment staircase failed to satisfy its judge within the bout cap."""


class WrongArity(WipError):
    """Aggregation got the wrong number of series."""


class EmptyWindow(WipError):
    """No frames fall inside the measurement window."""


class Foot(Enum):
    LEFT = "L"
    RIGHT = "R"


class Variant(Enum):
    """Which control law converts gait estimates into virtual speed."""

    GUD = "gud"    # frequency-driven
    SHEF = "shef"  # frequency-driven, scaled by step height


class FootSample(NamedTuple):
    """Timestamped vertical height of one foot above the ground plane."""

    time: float    # s
    foot: Foot
    height: float  # m


_new_sample = tuple.__new__  # a FootSample without its Python-level __new__
_FOOT_OF = (Foot.RIGHT, Foot.LEFT)  # by is-left


class Samples:
    """Foot samples held as equal-length columns: time (s), left (True
    for a left-foot sample) and height (m), numpy arrays in stream order.

    It is a sequence of FootSamples: len() and indexing work, and iteration
    builds each FootSample on demand, so streaming callers read it as they
    read a list. The array paths (replay and its frame estimates) read the
    columns directly. Samples.of is the one conversion from any other
    sequence of FootSamples.
    """

    __slots__ = ("time", "left", "height")

    def __init__(self, time: np.ndarray, left: np.ndarray, height: np.ndarray):
        self.time, self.left, self.height = time, left, height

    @classmethod
    def of(cls, samples: Sequence[FootSample]) -> Samples:
        """samples itself when it is a Samples, else its columns."""
        if isinstance(samples, cls):
            return samples
        times, feet, heights = tuple(zip(*samples)) or ((), (), ())
        left = np.fromiter(map(operator.is_, feet, repeat(Foot.LEFT)), bool, len(feet))
        return cls(np.array(times, dtype=float), left, np.array(heights, dtype=float))

    def __len__(self) -> int:
        return len(self.time)

    def __iter__(self) -> Iterator[FootSample]:
        rows = zip(self.time.tolist(), map(_FOOT_OF.__getitem__, self.left.tolist()),
                   self.height.tolist())
        return map(_new_sample, repeat(FootSample), rows)

    def __getitem__(self, index: int) -> FootSample:
        return _new_sample(FootSample, (
            self.time[index].item(), _FOOT_OF[self.left[index].item()], self.height[index].item()
        ))


def validate_sample(sample: FootSample, previous_time_for_foot: float | None) -> FootSample:
    """Check one sample against the stream invariants and return it unchanged.

    ``previous_time_for_foot`` is the time of the last accepted sample for
    the same foot, or None at stream start. Raises NonMonotonicTime when the
    time is negative or not finite, when the previous time is not a finite
    time >= 0, or when the time does not advance past it; raises
    OutOfRangeHeight on a bad height.
    """
    t, prev = sample.time, previous_time_for_foot
    # one chained comparison per sample; NaN fails every comparison
    if not (0.0 <= t < _INF if prev is None else 0.0 <= prev < t < _INF):
        raise NonMonotonicTime(_time_fault(sample, prev))
    if not (HEIGHT_FLOOR <= sample.height <= HEIGHT_CEILING):
        raise OutOfRangeHeight(
            f"height {sample.height!r} m outside [{HEIGHT_FLOOR}, {HEIGHT_CEILING}]"
        )
    return sample


def _time_fault(sample: FootSample, prev: float | None) -> str:
    """Why validate_sample rejected a sample's time."""
    t = sample.time
    if not -_INF < t < _INF:
        return f"sample time {t!r} is not finite"
    if t < 0.0:
        return f"sample time {t!r} precedes stream start"
    if prev is not None and not 0.0 <= prev < _INF:
        return f"previous sample time {prev!r} is not a finite time >= 0"
    return (
        f"foot {sample.foot.value} sample at t={t!r} does not advance "
        f"past t={prev!r}"
    )


def require_finite(owner: object, names: Iterable[str]) -> None:
    """Raise ValueError naming the first of owner's named fields that is NaN
    or infinite. Run settings pass through here once, where they enter."""
    for name in names:
        value = getattr(owner, name)
        if not -_INF < value < _INF:
            raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class WipParams:
    """User constants of the speed laws plus the output gain stage. The
    law's reference point is fixed: speed.REF_FREQUENCY, REF_USER_HEIGHT and
    REF_STEP_HEIGHT."""

    user_height: float = 1.72          # m
    variant: Variant = Variant.SHEF
    speed_gain: float = 1.0            # experiment-controlled multiplier
    natural_visual_gain: float = 1.0   # 2.02 in slope-perception scenarios

    def __post_init__(self) -> None:
        require_finite(self, ("user_height", "speed_gain", "natural_visual_gain"))
        if not 1.0 <= self.user_height <= 2.5:
            raise ValueError(f"user_height {self.user_height} outside [1.0, 2.5] m")
        for name in ("speed_gain", "natural_visual_gain"):
            gain = getattr(self, name)
            if gain <= 0.0:
                raise NonPositiveGain(f"{name} must be > 0, got {gain!r}")
            if gain > MAX_GAIN:
                raise ValueError(f"{name} must be <= {MAX_GAIN:g}, got {gain!r}")


# The per-frame records are NamedTuples: a frozen dataclass pays one
# object.__setattr__ per field, a positional NamedTuple one tuple build.
class _GaitEstimateFields(NamedTuple):
    step_frequency: float  # Hz, footfalls per second over both feet
    step_height: float     # m, smoothed apex height
    as_of: float           # s, query time
    stale: bool = False


class GaitEstimate(_GaitEstimateFields):
    """Instantaneous gait state consumed by the speed laws.

    A stale estimate means no gait activity inside the tracker's stop
    window; staleness forces the frequency to zero so downstream speed is
    zero regardless of history.
    """

    __slots__ = ()

    def __new__(
        cls,
        step_frequency: float,
        step_height: float,
        as_of: float,
        stale: bool = False,
    ) -> "GaitEstimate":
        if step_frequency < 0.0 or step_height < 0.0:
            raise ValueError("gait estimates are non-negative")
        if stale and step_frequency != 0.0:
            step_frequency = 0.0
        return tuple.__new__(cls, (step_frequency, step_height, as_of, stale))
