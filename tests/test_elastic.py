"""Elastic band model: force law anchors, rig geometry, band calibration."""

import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from wiplab.core import HEIGHT_CEILING, NegativeExtension, ZeroExtension
from wiplab.elastic import (
    ANCHOR_DISTANCE,
    KGF_TO_N,
    MAX_BANDS,
    ElasticRig,
    PullDirection,
    band_force_kgf,
    bands_for_target,
    rig_force,
)
from wiplab.synth import APEX_FORCE_RESPONSE, elastic_apex_shift


def test_band_force_anchors():
    # measured calibration points of a single band
    assert band_force_kgf(0.0) == pytest.approx(0.085, abs=1e-12)
    assert band_force_kgf(25.0) == pytest.approx(0.360, abs=1e-12)
    assert band_force_kgf(15.6) == pytest.approx(0.2566, abs=1e-12)
    assert band_force_kgf(39.0) == pytest.approx(0.514, abs=1e-12)


def test_band_force_rejects_negative_extension():
    with pytest.raises(NegativeExtension):
        band_force_kgf(-0.1)
    with pytest.raises(NegativeExtension):
        band_force_kgf(-math.inf)


@pytest.mark.parametrize("extension", [math.nan, math.inf], ids=["nan", "+inf"])
def test_band_force_rejects_non_finite_extension(extension):
    with pytest.raises(ValueError, match="^extension must be finite, got (nan|inf) cm$"):
        band_force_kgf(extension)


@given(e1=st.floats(min_value=0.0, max_value=40.0), e2=st.floats(min_value=0.0, max_value=40.0))
def test_band_force_monotone_in_extension(e1, e2):
    lo, hi = sorted((e1, e2))
    assert band_force_kgf(lo) <= band_force_kgf(hi)


class TestRigForce:
    def test_downward_rig_at_calibration_height(self):
        rig = ElasticRig(direction=PullDirection.DOWNWARD, band_count=4)
        # 4 * (0.011 * 15.6 + 0.085) kgf in newtons, pulling down
        assert rig_force(rig, 0.156) == pytest.approx(-10.068984, rel=1e-9)

    def test_downward_taut_at_ground(self):
        rig = ElasticRig(direction=PullDirection.DOWNWARD, band_count=12)
        # zero extension still leaves the pre-tension intercept per band
        assert rig_force(rig, 0.0) == pytest.approx(-12 * 0.085 * KGF_TO_N, rel=1e-9)

    def test_upward_rig_at_ground(self):
        rig = ElasticRig(direction=PullDirection.UPWARD, band_count=2)
        # 39 cm, past the 25 cm the law was measured to, on its linear extension
        assert rig_force(rig, 0.0) == pytest.approx(10.08468, rel=1e-9)

    def test_upward_rig_slack_above_anchor(self):
        rig = ElasticRig(direction=PullDirection.UPWARD, band_count=6)
        low = rig_force(rig, 0.39)
        high = rig_force(rig, 0.6)
        assert low == high == pytest.approx(6 * 0.085 * KGF_TO_N)

    @given(
        direction=st.sampled_from(PullDirection),
        band_count=st.integers(1, MAX_BANDS),
        height=st.floats(0.0, HEIGHT_CEILING),
    )
    @example(direction=PullDirection.DOWNWARD, band_count=4, height=0.156)
    @example(direction=PullDirection.UPWARD, band_count=6, height=0.0)
    @example(direction=PullDirection.UPWARD, band_count=MAX_BANDS, height=HEIGHT_CEILING)
    @example(direction=PullDirection.DOWNWARD, band_count=1, height=0.0)
    def test_the_force_is_signed_by_direction(self, direction, band_count, height):
        """An upward rig pulls with a force >= 0 and a downward one <= 0,
        band_count bands of the band law at the mount's extension; the apex
        shift a walker takes from the rig is APEX_FORCE_RESPONSE times it."""
        rig = ElasticRig(direction=direction, band_count=band_count)
        force = rig_force(rig, height)
        if direction is PullDirection.UPWARD:
            assert force >= 0.0
            extension = max(0.0, ANCHOR_DISTANCE - height * 100.0)
        else:
            assert force <= 0.0
            extension = height * 100.0
        assert abs(force) == band_count * band_force_kgf(extension) * KGF_TO_N
        assert elastic_apex_shift(rig, height) == APEX_FORCE_RESPONSE * force

    def test_negative_height_rejected(self):
        rig = ElasticRig(direction=PullDirection.DOWNWARD, band_count=1)
        with pytest.raises(NegativeExtension):
            rig_force(rig, -0.01)

    @pytest.mark.parametrize("rig", [
        ElasticRig(direction=PullDirection.DOWNWARD, band_count=4),
        ElasticRig(direction=PullDirection.UPWARD, band_count=6),
        ElasticRig(direction=PullDirection.DOWNWARD, band_count=MAX_BANDS),
    ], ids=["down:4", "up:6", "down:100"])
    @pytest.mark.parametrize(
        "height", [math.nan, math.inf, 2.0001, 1.7e306], ids=["nan", "+inf", "2.0001", "1.7e306"]
    )
    def test_nan_and_heights_past_the_ceiling_rejected(self, rig, height):
        """A down:4 rig's force would read NaN at NaN and inf at +inf, an
        up:6 rig's its slack 5.0 N at +inf, and a down:100 rig's inf at
        1.7e306 m. Like bands_for_target, rig_force takes heights up to
        HEIGHT_CEILING; -inf stays a NegativeExtension."""
        with pytest.raises(ValueError, match=r"^foot height must be finite and <= HEIGHT_CEILING"):
            rig_force(rig, height)
        with pytest.raises(NegativeExtension):
            rig_force(rig, -math.inf)

    @given(
        h1=st.floats(min_value=0.0, max_value=0.35),
        h2=st.floats(min_value=0.0, max_value=0.35),
        n=st.integers(min_value=1, max_value=12),
    )
    def test_downward_grows_and_upward_shrinks_with_height(self, h1, h2, n):
        lo, hi = sorted((h1, h2))
        down = ElasticRig(direction=PullDirection.DOWNWARD, band_count=n)
        up = ElasticRig(direction=PullDirection.UPWARD, band_count=n)
        assert -rig_force(down, lo) <= -rig_force(down, hi)
        assert rig_force(up, lo) >= rig_force(up, hi)


class TestRigValidation:
    def test_band_count_requires_direction(self):
        """No rig is None: a rig has both fields and at least one band, and
        there is no direction without a pull."""
        assert [d.value for d in PullDirection] == ["up", "down"]
        with pytest.raises(TypeError):
            ElasticRig()
        with pytest.raises(TypeError):
            ElasticRig(band_count=4)
        with pytest.raises(ValueError, match=r"band_count must be in \[1, 100\], got 0"):
            ElasticRig(direction=PullDirection.UPWARD, band_count=0)

    def test_negative_band_count_rejected(self):
        with pytest.raises(ValueError):
            ElasticRig(direction=PullDirection.DOWNWARD, band_count=-1)

    def test_band_count_above_the_bound_rejected(self):
        ElasticRig(direction=PullDirection.UPWARD, band_count=MAX_BANDS)
        with pytest.raises(ValueError, match=r"band_count must be in \[1, 100\], got 101"):
            ElasticRig(direction=PullDirection.UPWARD, band_count=MAX_BANDS + 1)


class TestBandsForTarget:
    def test_downward_calibration_counts(self):
        counts = [
            bands_for_target(PullDirection.DOWNWARD, kgf, 0.156) for kgf in (1.0, 2.0, 3.0)
        ]
        assert counts == [4, 8, 12]

    def test_upward_calibration_counts(self):
        counts = [
            bands_for_target(PullDirection.UPWARD, kgf, 0.0) for kgf in (1.0, 3.0, 5.0)
        ]
        assert counts == [2, 6, 10]

    def test_rejects_non_positive_target(self):
        with pytest.raises(ValueError):
            bands_for_target(PullDirection.DOWNWARD, 0.0, 0.156)

    @pytest.mark.parametrize(
        "target, height, match",
        [
            (math.nan, 0.156, "target force must be a finite number"),
            (math.inf, 0.156, "target force must be a finite number"),
            (1.0, math.nan, "foot height must be finite"),
            (1.0, math.inf, "foot height must be finite"),
            (1.0, 1e300, "foot height must be finite and <= HEIGHT_CEILING"),
            (1.0, 2.0001, "foot height must be finite and <= HEIGHT_CEILING"),
            (26.0, 0.156, "26.0 kgf needs more than MAX_BANDS = 100 bands"),
            (1e308, 0.0, "needs more than MAX_BANDS"),
        ],
    )
    def test_rejects_non_finite_input_and_unbuildable_targets(self, target, height, match):
        with pytest.raises(ValueError, match=match):
            bands_for_target(PullDirection.DOWNWARD, target, height)

    def test_slack_upward_geometry_cannot_reach_target(self):
        with pytest.raises(ZeroExtension):
            bands_for_target(PullDirection.UPWARD, 1.0, 0.39)

    def test_exact_multiple_does_not_over_provision(self):
        per_band = band_force_kgf(15.6)
        assert bands_for_target(PullDirection.DOWNWARD, 3.0 * per_band, 0.156) == 3

    @given(
        target=st.floats(min_value=0.05, max_value=8.0),
        height=st.floats(min_value=0.0, max_value=0.3),
        direction=st.sampled_from([PullDirection.DOWNWARD, PullDirection.UPWARD]),
    )
    def test_count_is_sufficient_and_minimal(self, target, height, direction):
        n = bands_for_target(direction, target, height)
        rig = ElasticRig(direction=direction, band_count=n)
        achieved = abs(rig_force(rig, height)) / KGF_TO_N
        assert achieved >= target - 1e-9
        if n > 1:
            smaller = ElasticRig(direction=direction, band_count=n - 1)
            assert abs(rig_force(smaller, height)) / KGF_TO_N < target + 1e-9
