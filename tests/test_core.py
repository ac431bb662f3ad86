"""Validation plumbing: sample invariants, parameter guards, estimates."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wiplab.core import (
    HEIGHT_CEILING,
    HEIGHT_FLOOR,
    Foot,
    FootSample,
    GaitEstimate,
    NonMonotonicTime,
    NonPositiveGain,
    OutOfRangeHeight,
    Variant,
    WipParams,
    validate_sample,
)


def test_validate_sample_accepts_and_returns():
    s = FootSample(time=0.5, foot=Foot.LEFT, height=0.12)
    assert validate_sample(s, 0.4) is s
    assert validate_sample(s, None) is s


def test_validate_sample_rejects_negative_time():
    s = FootSample(time=-0.01, foot=Foot.LEFT, height=0.0)
    with pytest.raises(NonMonotonicTime):
        validate_sample(s, None)


@pytest.mark.parametrize("prev", [0.5, 0.6])
def test_validate_sample_rejects_non_advancing_time(prev):
    s = FootSample(time=0.5, foot=Foot.RIGHT, height=0.0)
    with pytest.raises(NonMonotonicTime):
        validate_sample(s, prev)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("prev", [None, 0.4])
def test_validate_sample_rejects_non_finite_time(t, prev):
    s = FootSample(time=t, foot=Foot.LEFT, height=0.0)
    with pytest.raises(NonMonotonicTime):
        validate_sample(s, prev)


@pytest.mark.parametrize("prev", [math.nan, math.inf, -math.inf, -0.1])
def test_validate_sample_rejects_a_previous_time_no_sample_can_have(prev):
    # a NaN previous time used to switch the monotonicity check off
    s = FootSample(time=0.5, foot=Foot.LEFT, height=0.0)
    with pytest.raises(NonMonotonicTime, match="previous sample time"):
        validate_sample(s, prev)


def test_validate_sample_names_the_non_finite_time():
    with pytest.raises(NonMonotonicTime, match="nan is not finite"):
        validate_sample(FootSample(time=math.nan, foot=Foot.RIGHT, height=0.0), None)


@pytest.mark.parametrize("height", [-0.0051, 2.0001, 5.0, -1.0])
def test_validate_sample_rejects_out_of_range_height(height):
    s = FootSample(time=1.0, foot=Foot.LEFT, height=height)
    with pytest.raises(OutOfRangeHeight):
        validate_sample(s, None)


def test_validate_sample_boundary_heights_ok():
    validate_sample(FootSample(0.0, Foot.LEFT, HEIGHT_FLOOR), None)
    validate_sample(FootSample(0.0, Foot.LEFT, HEIGHT_CEILING), None)


@given(
    t=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    h=st.floats(min_value=HEIGHT_FLOOR, max_value=HEIGHT_CEILING, allow_nan=False),
)
def test_validate_sample_accepts_all_in_range(t, h):
    validate_sample(FootSample(time=t, foot=Foot.RIGHT, height=h), None)


class TestWipParams:
    def test_defaults_are_valid(self):
        p = WipParams()
        assert p.variant is Variant.SHEF
        assert p.user_height == 1.72

    @pytest.mark.parametrize("height", [0.99, 2.51, 0.0, -1.0])
    def test_user_height_range(self, height):
        with pytest.raises(ValueError):
            WipParams(user_height=height)

    @pytest.mark.parametrize("gain", [0.0, -0.5])
    def test_speed_gain_must_be_positive(self, gain):
        with pytest.raises(NonPositiveGain):
            WipParams(speed_gain=gain)

    def test_natural_gain_must_be_positive(self):
        with pytest.raises(NonPositiveGain):
            WipParams(natural_visual_gain=0.0)

    def test_reference_constants_must_be_positive(self):
        with pytest.raises(ValueError):
            WipParams(ref_step_height=0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "name",
        ["user_height", "speed_gain", "natural_visual_gain",
         "ref_frequency", "ref_user_height", "ref_step_height"],
    )
    def test_non_finite_values_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            WipParams(**{name: value})


class TestGaitEstimate:
    def test_negative_values_rejected(self):
        with pytest.raises(ValueError):
            GaitEstimate(step_frequency=-0.1, step_height=0.1, as_of=0.0)
        with pytest.raises(ValueError):
            GaitEstimate(step_frequency=1.0, step_height=-0.1, as_of=0.0)

    def test_stale_forces_zero_frequency(self):
        est = GaitEstimate(step_frequency=2.0, step_height=0.1, as_of=3.0, stale=True)
        assert est.step_frequency == 0.0
        assert est.step_height == 0.1  # height is informational, not zeroed

    def test_fresh_estimate_keeps_frequency(self):
        est = GaitEstimate(step_frequency=2.0, step_height=0.1, as_of=3.0)
        assert est.step_frequency == 2.0
        assert not est.stale


def test_every_public_name_resolves():
    import wiplab

    namespace = {}
    exec("from wiplab import *", namespace)
    for name in wiplab.__all__:
        assert namespace[name] is getattr(wiplab, name)
