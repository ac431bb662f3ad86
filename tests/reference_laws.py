"""The speed laws and their gain stage as three plain functions: the
independent reference that speed.law's closures are tested against."""

REF_FREQUENCY = 1.57    # Hz
REF_USER_HEIGHT = 1.72  # m
REF_STEP_HEIGHT = 0.1   # m


def gud_speed(step_frequency: float, user_height: float) -> float:
    """Virtual speed from cadence and body height alone.

    Normalized so the reference cadence at the reference height gives
    exactly 1 m/s. Quadratic in both factors, so doubling the cadence
    quadruples the speed.
    """
    scaled = (step_frequency / REF_FREQUENCY) * (user_height / REF_USER_HEIGHT)
    return scaled * scaled


def shef_speed(step_frequency: float, user_height: float, step_height: float) -> float:
    """Height-scaled variant: the base law times step height over reference.

    Identical to gud_speed when step_height equals the reference, which is
    what makes the two variants comparable at the same gait.
    """
    return gud_speed(step_frequency, user_height) * (step_height / REF_STEP_HEIGHT)


def apply_gain(speed: float, gain: float, natural_visual_gain: float) -> float:
    """Output stage: speed times the experiment gain times the natural gain."""
    return speed * gain * natural_visual_gain
