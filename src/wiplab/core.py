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


_FOOT_OF = np.array([Foot.RIGHT, Foot.LEFT], object)  # by is-left, to gather from


class Samples:
    """Foot samples held as equal-length columns: time (s), left (True
    for a left-foot sample) and height (m), numpy arrays in stream order.

    It is the one form of a stream: synth_trace's, load_trace's and each
    RunLog's, and what replay_trace, estimate_frames, save_trace and
    trace_text take. The array paths read the columns, which fault() checks;
    tuples() is the one row view, plain (time, foot, height) tuples, which
    GaitTracker.advance streams; of() is the one conversion from FootSample
    rows. There is no list equality: compare list(samples.tuples()). Columns
    not 1-D ndarrays of one length, time and height float64 and left bool,
    raise ValueError.
    """

    __slots__ = ("time", "left", "height")

    def __init__(self, time: np.ndarray, left: np.ndarray, height: np.ndarray):
        for name, column, dtype in zip(self.__slots__, (time, left, height), (float, bool, float)):
            if not (isinstance(column, np.ndarray) and column.ndim == 1
                    and column.shape == time.shape and column.dtype == dtype):
                kind = getattr(column, "dtype", type(column).__name__)
                raise ValueError(f"Samples.{name} must be a 1-D {np.dtype(dtype)} ndarray as long "
                                 f"as time, got {kind} of shape {np.shape(column)}")
        self.time, self.left, self.height = time, left, height

    @classmethod
    def of(cls, samples: Sequence[FootSample]) -> Samples:
        """The columns of FootSample rows. A foot that is neither Foot.LEFT
        nor Foot.RIGHT raises ValueError."""
        times, feet, heights = tuple(zip(*samples)) or ((), (), ())
        left = np.fromiter(map(operator.is_, feet, repeat(Foot.LEFT)), bool, len(feet))
        right = np.fromiter(map(operator.is_, feet, repeat(Foot.RIGHT)), bool, len(feet))
        if not (left | right).all():
            raise _not_a_foot(feet[(left | right).argmin()])
        return cls(np.array(times, dtype=float), left, np.array(heights, dtype=float))

    def __len__(self) -> int:
        return len(self.time)

    def tuples(self) -> Iterator[tuple[float, Foot, float]]:
        """The rows as plain (time, foot, height) tuples in stream order, feet by one gather."""
        return zip(self.time.tolist(), _FOOT_OF[self.left.view(np.uint8)].tolist(),
                   self.height.tolist())

    def fault(self) -> tuple[int, bool, WipError | None] | None:
        """stream_fault of the samples, a row each."""
        before = np.full(len(self), -_INF)
        for at in map(np.flatnonzero, (self.left, ~self.left)):
            before[at[1:]] = self.time[at[:-1]]
        return stream_fault(self.time, before, self.left, self.height)


def _in_range(height):
    """Whether a height, or each of an array of them, lies in [HEIGHT_FLOOR,
    HEIGHT_CEILING]; NaN does not."""
    return (HEIGHT_FLOOR <= height) & (height <= HEIGHT_CEILING)


def stream_fault(time: np.ndarray, before: np.ndarray, left: np.ndarray,
                 height: np.ndarray) -> tuple[int, bool, WipError | None] | None:
    """The first sample that breaks the stream contract, or None: its flat
    index into height, whether its row's time precedes the row before, and
    what validate_sample raises for it, if anything. Row k is the samples
    height[k] at time[k], left broadcast against height, whose feet's last
    samples were at before[k] (-inf for none). The fault in a row is its
    first height out of range, else its first sample."""
    if not len(time):
        return None
    unsorted = time[1:] < time[:-1]
    ok = (before < time) & (time < _INF)
    ok[1:] &= ~unsorted
    ok[0] &= 0.0 <= time[0]  # a later row is at or past it, or unsorted
    # every height is in range if the lowest and the highest are; a NaN is neither
    if ok.all() and (not height.size or _in_range(height.min()) & _in_range(height.max())):
        return None
    in_range = _in_range(height).reshape(len(time), -1)
    ok &= in_range.all(axis=1)
    k = int(ok.argmin())
    i = k * in_range.shape[1] + int(in_range[k].argmin())
    foot = _FOOT_OF[int(np.broadcast_to(left, height.shape).flat[i])]
    previous = None if before[k] == -_INF else before[k].item()
    try:
        validate_sample(FootSample(time[k].item(), foot, height.flat[i].item()), previous)
    except WipError as exc:
        return i, k > 0 and bool(unsorted[k - 1]), exc
    return i, True, None


def validate_sample(sample: FootSample, previous_time_for_foot: float | None) -> FootSample:
    """Check one sample against the stream invariants and return it unchanged.

    ``previous_time_for_foot`` is the time of the last accepted sample for
    the same foot, or None at stream start. Raises NonMonotonicTime when the
    time is negative or not finite, when the previous time is not a finite
    time >= 0, or when the time does not advance past it; raises
    OutOfRangeHeight on a bad height, and ValueError on a foot that is
    neither Foot.LEFT nor Foot.RIGHT.
    """
    t, prev = sample.time, previous_time_for_foot
    if sample.foot is not Foot.LEFT and sample.foot is not Foot.RIGHT:
        raise _not_a_foot(sample.foot)
    # one chained comparison per sample; NaN fails every comparison
    if not (0.0 <= t < _INF if prev is None else 0.0 <= prev < t < _INF):
        raise NonMonotonicTime(_time_fault(sample, prev))
    if not (HEIGHT_FLOOR <= sample.height <= HEIGHT_CEILING):
        raise OutOfRangeHeight(f"height {sample.height!r} m outside "
                               f"[{HEIGHT_FLOOR}, {HEIGHT_CEILING}]")
    return sample


def _not_a_foot(foot: object) -> ValueError:
    return ValueError(f"foot {foot!r} is neither Foot.LEFT nor Foot.RIGHT")


def _time_fault(sample: FootSample, prev: float | None) -> str:
    """Why validate_sample rejected a sample's time."""
    t = sample.time
    if not -_INF < t < _INF:
        return f"sample time {t!r} is not finite"
    if t < 0.0:
        return f"sample time {t!r} precedes stream start"
    if prev is not None and not 0.0 <= prev < _INF:
        return f"previous sample time {prev!r} is not a finite time >= 0"
    return f"foot {sample.foot.value} sample at t={t!r} does not advance past t={prev!r}"


def require_finite(owner: object, names: Iterable[str]) -> None:
    """Raise ValueError naming the first of owner's named fields that is NaN
    or infinite. Run settings pass through here once, where they enter."""
    for name in names:
        value = getattr(owner, name)
        if not -_INF < value < _INF:
            raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class WipParams:
    """User constants of the speed laws plus the two output gains. The
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


# A plain NamedTuple, as is gait.StepEvent: the tracker builds one per frame
# with a single tuple.__new__ call, and the type checks nothing.
class GaitEstimate(NamedTuple):
    """Instantaneous gait state at the time GaitTracker.estimate was asked
    about: the (frequency, height) a speed law takes, both >= 0, and the
    stale flag. Stale means no gait activity inside the tracker's stop
    window; both are then 0.0, so downstream speed is zero regardless of
    history."""

    step_frequency: float  # Hz, footfalls per second over both feet
    step_height: float     # m, smoothed apex height
    stale: bool
