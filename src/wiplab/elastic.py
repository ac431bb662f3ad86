"""Passive elastic-band resistance rig: per-band force law and mount geometry.

A rig is a stack of identical bands pulling the foot either downward
(anchored at the ground, taut when the foot rests) or upward (anchored
39 cm above the foot strap, so the band relaxes as the foot rises). The
per-band tension follows a measured affine law in the extension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .core import HEIGHT_CEILING, NegativeExtension, ZeroExtension

KGF_TO_N = 9.81

# Affine tension law, kgf per band as a function of extension in cm.
BAND_SLOPE = 0.011      # kgf / cm
BAND_INTERCEPT = 0.085  # kgf
VALID_EXTENSION_MAX = 25.0  # cm, measured range of the force law
ANCHOR_DISTANCE = 39.0      # cm, upward anchor above the strap at rest
DOWNWARD_CALIBRATION_HEIGHT = 0.156  # m, foot height downward rigs are calibrated at
# Most bands one rig holds; bounds how high an upward rig lifts a simulated
# step (see synth.MAX_NOISE_SD for the height budget).
MAX_BANDS = 100


class PullDirection(Enum):
    UPWARD = "up"
    DOWNWARD = "down"


@dataclass(frozen=True)
class ElasticRig:
    """One band stack: its pull direction and how many bands it holds. No
    rig is None, not an ElasticRig."""

    direction: PullDirection
    band_count: int

    def __post_init__(self) -> None:
        if not 1 <= self.band_count <= MAX_BANDS:
            raise ValueError(f"band_count must be in [1, {MAX_BANDS}], got {self.band_count!r}")


@dataclass(frozen=True)
class ForceReading:
    magnitude: float       # N, always >= 0
    direction_sign: int    # +1 pulling up, -1 pulling down
    extrapolated: bool     # extension beyond the measured law range


def band_force_kgf(extension: float) -> float:
    """Tension of a single band at the given extension (cm), in kgf.

    The law was measured for extensions up to 25 cm; callers flag larger
    extensions via ForceReading.extrapolated rather than erroring here. A
    negative extension raises NegativeExtension, a NaN or +inf one ValueError.
    """
    if extension < 0.0:
        raise NegativeExtension(f"extension {extension} cm is negative")
    if not extension < math.inf:  # NaN fails every comparison
        raise ValueError(f"extension must be finite, got {extension!r} cm")
    return BAND_SLOPE * extension + BAND_INTERCEPT


def _extension_cm(direction: PullDirection, foot_height: float) -> float:
    # Downward bands are taut at the ground hook, so extension tracks the
    # foot height directly. Upward bands start stretched by the anchor
    # distance and relax as the foot rises.
    if direction is PullDirection.DOWNWARD:
        return foot_height * 100.0
    return max(0.0, ANCHOR_DISTANCE - foot_height * 100.0)


def rig_force(rig: ElasticRig, foot_height: float) -> ForceReading:
    """Total force of a band stack on the foot at the given height (m): its
    magnitude, and its sign +1 for an upward rig, -1 for a downward one.
    A negative height raises NegativeExtension, and a NaN one or one above
    core.HEIGHT_CEILING ValueError, as bands_for_target does: a reading
    there could be NaN, infinite or, for an upward rig at +inf, its slack
    force, not the finite magnitude >= 0 a ForceReading holds."""
    if foot_height < 0.0:
        raise NegativeExtension(f"foot height {foot_height} m is negative")
    if not foot_height <= HEIGHT_CEILING:  # NaN fails every comparison
        raise ValueError(
            f"foot height must be finite and <= HEIGHT_CEILING = {HEIGHT_CEILING} m, "
            f"got {foot_height!r}"
        )
    extension = _extension_cm(rig.direction, foot_height)
    magnitude = rig.band_count * band_force_kgf(extension) * KGF_TO_N
    sign = 1 if rig.direction is PullDirection.UPWARD else -1
    return ForceReading(
        magnitude=magnitude,
        direction_sign=sign,
        extrapolated=extension > VALID_EXTENSION_MAX,
    )


def bands_for_target(direction: PullDirection, target_kgf: float, at_foot_height: float) -> int:
    """Smallest band count whose stack meets target_kgf at the given height;
    a count above MAX_BANDS or a height above core.HEIGHT_CEILING raises
    ValueError.

    Upward rigs have zero extension once the foot reaches the anchor, so no
    band count can produce force there; that raises ZeroExtension. A
    downward rig at zero height still sees the intercept tension per band
    because its bands are mounted taut.
    """
    if not 0.0 < target_kgf < math.inf:
        raise ValueError(f"target force must be a finite number > 0 kgf, got {target_kgf!r}")
    if not -math.inf < at_foot_height <= HEIGHT_CEILING:
        raise ValueError(
            f"foot height must be finite and <= HEIGHT_CEILING = {HEIGHT_CEILING} m, "
            f"got {at_foot_height!r}"
        )
    if at_foot_height < 0.0:
        raise NegativeExtension(f"foot height {at_foot_height} m is negative")
    extension = _extension_cm(direction, at_foot_height)
    if direction is PullDirection.UPWARD and extension == 0.0:
        raise ZeroExtension(
            f"upward rig is slack at foot height {at_foot_height} m"
        )
    # a small backoff so exact integer ratios do not round up
    needed = target_kgf / band_force_kgf(extension) - 1e-9
    if needed > MAX_BANDS:
        raise ValueError(f"{target_kgf!r} kgf needs more than MAX_BANDS = {MAX_BANDS} bands")
    return max(1, math.ceil(needed))
