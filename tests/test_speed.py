"""Speed laws: anchor values, scaling structure, dispatch, gain stage.

The numeric oracles here were computed by hand from the closed forms
(quadratic in normalized cadence and body height, linear in step height)
and frozen as literals.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wiplab.core import GaitEstimate, NonPositiveGain, NonPositiveHeight, Variant, WipParams
from wiplab.speed import apply_gain, gud_speed, law, shef_speed

frequencies = st.floats(min_value=0.05, max_value=4.0, allow_nan=False)
heights = st.floats(min_value=1.0, max_value=2.5, allow_nan=False)


def test_reference_gait_is_one_meter_per_second():
    assert gud_speed(1.57, 1.72) == pytest.approx(1.0, abs=1e-12)


def test_gud_frozen_values():
    # (2.0/1.57)^2 and ((1.3/1.57)*(1.55/1.72))^2, worked out offline
    assert gud_speed(2.0, 1.72) == pytest.approx(1.6227838857560144, rel=1e-12)
    assert gud_speed(1.3, 1.55) == pytest.approx(0.5567931738899164, rel=1e-12)


def test_shef_frozen_value():
    assert shef_speed(1.8, 1.65, 0.14) == pytest.approx(1.6934981855911402, rel=1e-12)


def test_gud_quadratic_in_frequency():
    assert gud_speed(2.4, 1.72) == pytest.approx(4.0 * gud_speed(1.2, 1.72), rel=1e-12)


def test_gud_quadratic_in_user_height():
    assert gud_speed(1.57, 2.4) == pytest.approx(4.0 * gud_speed(1.57, 1.2), rel=1e-12)


def test_zero_frequency_is_zero_speed():
    assert gud_speed(0.0, 1.72) == 0.0
    assert shef_speed(0.0, 1.72, 0.2) == 0.0


def test_shef_collapses_to_gud_at_reference_step_height():
    for f, h in [(0.8, 1.2), (1.57, 1.72), (2.9, 2.1)]:
        assert shef_speed(f, h, 0.1) == pytest.approx(gud_speed(f, h), rel=1e-13)


def test_shef_doubles_with_step_height():
    # 0.2/0.1 is exactly 2 in binary floating point, so this holds exactly
    assert shef_speed(1.57, 1.72, 0.2) == 2.0 * gud_speed(1.57, 1.72)


def test_shef_zero_step_height_is_zero():
    assert shef_speed(2.0, 1.72, 0.0) == 0.0


@given(f=frequencies, h=heights, sh=st.floats(min_value=0.0, max_value=0.4))
def test_shef_linear_in_step_height(f, h, sh):
    assert shef_speed(f, h, 2.0 * sh) == pytest.approx(
        2.0 * shef_speed(f, h, sh), rel=1e-9, abs=1e-12
    )


@given(f1=frequencies, f2=frequencies, h=heights)
def test_gud_monotone_in_frequency(f1, f2, h):
    lo, hi = sorted((f1, f2))
    assert gud_speed(lo, h) <= gud_speed(hi, h)


def test_gud_rejects_bad_inputs():
    with pytest.raises(NonPositiveHeight):
        gud_speed(1.0, 0.0)
    with pytest.raises(ValueError):
        gud_speed(-0.1, 1.72)


def test_shef_rejects_negative_step_height():
    with pytest.raises(ValueError):
        shef_speed(1.0, 1.72, -0.01)


class TestApplyGain:
    def test_multiplies_both_gains(self):
        assert apply_gain(2.0, 0.5, 2.02) == pytest.approx(2.02)

    def test_default_natural_gain_is_identity(self):
        assert apply_gain(1.3, 1.0) == 1.3

    @pytest.mark.parametrize("gain", [0.0, -1.0])
    def test_rejects_non_positive_gain(self, gain):
        with pytest.raises(NonPositiveGain):
            apply_gain(1.0, gain)
        with pytest.raises(NonPositiveGain):
            apply_gain(1.0, 1.0, gain)


class TestOutputSpeed:
    """law(params) gives (raw speed, output speed) for one estimate."""

    def test_shef_dispatch(self):
        params = WipParams(variant=Variant.SHEF, speed_gain=1.5, natural_visual_gain=2.0)
        raw, out = law(params)(1.8, 0.12)
        assert raw == pytest.approx(shef_speed(1.8, 1.72, 0.12))
        assert out == pytest.approx(raw * 3.0)

    def test_gud_dispatch_ignores_step_height(self):
        evaluate = law(WipParams(variant=Variant.GUD))
        hi, _ = evaluate(1.8, 0.30)
        lo, _ = evaluate(1.8, 0.05)
        assert hi == lo == pytest.approx(gud_speed(1.8, 1.72))

    def test_stale_estimate_short_circuits_to_zero(self):
        est = GaitEstimate(step_frequency=1.8, step_height=0.2, as_of=9.0, stale=True)
        assert est.step_frequency == 0.0
        raw, out = law(WipParams(variant=Variant.SHEF))(est.step_frequency, est.step_height)
        assert raw == 0.0
        assert out == 0.0


def bits(*values):
    return tuple(float.hex(v) for v in values)


positive = st.floats(min_value=1e-3, max_value=10.0)
law_params = st.builds(
    WipParams,
    user_height=heights,
    variant=st.sampled_from(Variant),
    speed_gain=positive,
    natural_visual_gain=positive,
)


@given(
    params=law_params,
    f=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=10.0)),
    sh=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1.0)),
)
def test_law_equals_the_reference_laws_and_gain_stage_bit_for_bit(params, f, sh):
    if params.variant is Variant.GUD:
        raw = gud_speed(f, params.user_height)
    else:
        raw = shef_speed(f, params.user_height, sh)
    out = apply_gain(raw, params.speed_gain, params.natural_visual_gain)
    expected = bits(raw, out)
    assert bits(*law(params)(f, sh)) == expected
    stale = GaitEstimate(f, sh, as_of=1.0, stale=True)
    assert bits(*law(params)(stale.step_frequency, stale.step_height)) == bits(0.0, 0.0)
