"""Validation plumbing: sample invariants, parameter guards, and the list
of values a caller can set."""

import dataclasses
import importlib
import inspect
import math
import pkgutil
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wiplab.core import (
    HEIGHT_CEILING,
    HEIGHT_FLOOR,
    Foot,
    FootSample,
    NonMonotonicTime,
    NonPositiveGain,
    OutOfRangeHeight,
    Samples,
    Variant,
    WipError,
    WipParams,
    stream_fault,
    validate_sample,
)
from wiplab.synth import GaitProgram, synth_trace


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


# values that are not Foot members, among them the members' own values
NOT_FEET = ["L", "R", None, 0]


@pytest.mark.parametrize("foot", NOT_FEET)
def test_validate_sample_rejects_a_foot_that_is_not_a_foot_member(foot):
    message = re.escape(f"foot {foot!r} is neither Foot.LEFT nor Foot.RIGHT")
    with pytest.raises(ValueError, match=message):
        validate_sample(FootSample(0.5, foot, 0.0), 0.4)
    with pytest.raises(ValueError, match=message):
        validate_sample(FootSample(math.nan, foot, 0.0), None)  # the foot is checked first


@pytest.mark.parametrize("foot", NOT_FEET)
def test_samples_of_rejects_a_foot_that_is_not_a_foot_member(foot):
    rows = [FootSample(0.0, Foot.LEFT, 0.0), FootSample(0.0, foot, 0.0),
            FootSample(0.0, Foot.RIGHT, 0.0)]
    with pytest.raises(ValueError, match=re.escape(f"foot {foot!r} is neither")):
        Samples.of(rows)


def test_samples_tuples_are_the_rows_as_plain_tuples():
    rows = [
        FootSample(0.0, Foot.LEFT, 0.0), FootSample(0.0, Foot.RIGHT, 0.125),
        FootSample(1 / 90, Foot.LEFT, HEIGHT_FLOOR), FootSample(2 / 90, Foot.RIGHT, 0.3),
    ]
    samples = Samples.of(rows)
    plain = list(samples.tuples())
    assert plain == rows
    assert [type(row) for row in plain] == [tuple] * len(rows)
    assert [repr(x) for row in plain for x in row] == [repr(x) for row in rows for x in row]
    # tuples() is the one row view: a Samples neither iterates nor indexes
    assert not hasattr(samples, "__iter__") and not hasattr(samples, "__getitem__")


THREE_TIMES = np.array([0.0, 1 / 90, 2 / 90])


@pytest.mark.parametrize("columns,fault", [
    ((THREE_TIMES, np.array([True, False]), np.zeros(3)), "left must be a 1-D bool ndarray as "
     "long as time, got bool of shape (2,)"),
    ((THREE_TIMES, np.ones(3, bool), np.zeros(4)), "height must be a 1-D float64 ndarray as "
     "long as time, got float64 of shape (4,)"),
    (([0.0], [True], [0.0]), "time must be a 1-D float64 ndarray as long as time, got list "
     "of shape (1,)"),
    ((THREE_TIMES, np.ones(3, bool), [0.0] * 3), "height must be a 1-D float64 ndarray as "
     "long as time, got list of shape (3,)"),
    ((THREE_TIMES[:, None], np.ones(3, bool), np.zeros(3)), "time must be a 1-D float64 "
     "ndarray as long as time, got float64 of shape (3, 1)"),
    ((np.arange(3), np.ones(3, bool), np.zeros(3)), "time must be a 1-D float64 ndarray as "
     "long as time, got int64 of shape (3,)"),
    ((THREE_TIMES, np.array([1, 0, 1]), np.zeros(3)), "left must be a 1-D bool ndarray as long "
     "as time, got int64 of shape (3,)"),
    ((THREE_TIMES, np.ones(3, bool), np.zeros(3, np.float32)), "height must be a 1-D float64 "
     "ndarray as long as time, got float32 of shape (3,)"),
], ids=["short-left", "long-height", "lists", "list-height", "2-d-time", "int-time",
        "int-left", "float32-height"])
def test_samples_reject_columns_that_are_not_1d_arrays_of_one_length(columns, fault):
    """A short column would be cut by save_trace's zip and break
    replay_trace's indexing, so the constructor refuses it."""
    with pytest.raises(ValueError, match=f"^Samples.{re.escape(fault)}$"):
        Samples(*columns)
    left = np.array([True, False, True])
    samples = Samples(THREE_TIMES, left, np.zeros(3))
    assert samples.time is THREE_TIMES and samples.left is left


# ---------------------------------------------------------------------------
# stream_fault, the array copy of the stream contract

L, R = Foot.LEFT, Foot.RIGHT
NAN, INF = math.nan, math.inf
BELOW_FLOOR = math.nextafter(HEIGHT_FLOOR, -INF)
ABOVE_CEILING = math.nextafter(HEIGHT_CEILING, INF)


def walked_fault(rows):
    """stream_fault's scalar reference: the first row a walk rejects, overall
    time order first, then validate_sample given its foot's previous time,
    as (index, out of order, what validate_sample raised), or None."""
    previous = {}
    for i, (t, foot, h) in enumerate(rows):
        unsorted = i > 0 and t < rows[i - 1][0]
        try:
            validate_sample(FootSample(t, foot, h), previous.get(foot))
        except WipError as exc:
            return i, unsorted, exc
        if unsorted:
            return i, True, None
        previous[foot] = t
    return None


def described(fault):
    if fault is None:
        return None
    i, unsorted, error = fault
    return i, unsorted, type(error), str(error)


@st.composite
def streams(draw):
    """Rows whose times may be NaN, infinite, negative, equal or decreasing,
    and whose heights may sit at or one ulp past the height bounds; sorted
    half the time, so that the later rules are reached."""
    times = st.sampled_from([0.0, -0.0, 0.5, 1.0, -0.25, NAN, INF, -INF]) | st.floats(0.0, 2.0)
    heights = st.sampled_from(
        [0.0, 0.1, HEIGHT_FLOOR, HEIGHT_CEILING, BELOW_FLOOR, ABOVE_CEILING, NAN, INF, -INF]
    ) | st.floats(-0.01, 0.3)
    rows = draw(st.lists(st.tuples(times, st.sampled_from([L, R]), heights), max_size=12))
    if draw(st.booleans()):
        rows.sort(key=lambda row: INF if math.isnan(row[0]) else row[0])
    return rows


@settings(max_examples=300, deadline=None)
@given(rows=streams())
@example(rows=[(0.0, L, HEIGHT_FLOOR), (0.0, R, HEIGHT_CEILING), (0.5, L, 0.1), (0.5, R, 0.0)])
@example(rows=[(0.0, L, 0.0), (-0.0, R, 0.0)])  # -0.0 is a time >= 0, and not before 0.0
@example(rows=[(-0.25, L, 0.0)])  # the first time is below zero
@example(rows=[(0.0, L, 0.0), (NAN, R, 0.0)])  # not finite
@example(rows=[(0.0, L, 0.0), (INF, R, 0.0)])
@example(rows=[(0.0, L, 0.0), (0.0, R, 0.0), (0.0, L, 0.0)])  # a foot's time does not advance
@example(rows=[(0.5, L, 0.0), (0.25, R, 0.0)])  # out of order across the feet
@example(rows=[(0.5, L, 0.0), (0.25, R, 5.0)])  # out of order, with a bad height too
@example(rows=[(0.0, L, 0.0), (0.5, R, BELOW_FLOOR)])  # one ulp under the floor
@example(rows=[(0.0, L, ABOVE_CEILING)])  # one ulp over the ceiling
@example(rows=[(0.0, R, NAN)])
def test_stream_fault_is_the_first_row_a_scalar_walk_rejects(rows):
    samples = Samples.of([FootSample(*row) for row in rows])
    assert described(samples.fault()) == described(walked_fault(rows))


@pytest.mark.parametrize("program", [
    GaitProgram(1.8, 0.14), GaitProgram(2.5, 0.3, noise_sd=0.01, seed=3), GaitProgram(0.0, 0.0),
])
@pytest.mark.parametrize("rate", [30.0, 90.0])
def test_stream_fault_accepts_synth_trace_streams(program, rate):
    assert synth_trace(program, 4.0, rate).fault() is None


def tick_rows(times, heights, before):
    """stream_fault of ticks as TrackerLanes checks them: a row per tick, a
    left and a right height per lane."""
    times = np.array(times)
    before = np.concatenate(([before], times[:-1]))
    return described(stream_fault(times, before, np.array([[True], [False]]), np.array(heights)))


@pytest.mark.parametrize("times, right, before, want", [
    ([0.0, 0.1], 0.0, -INF, None),
    ([0.2, 0.3], 0.0, 0.1, None),
    ([0.0, 0.1], 2.5, -INF, (7, False, OutOfRangeHeight, "height 2.5 m outside [-0.005, 2.0]")),
    ([0.1, 0.2], 0.0, 0.1, (0, False, NonMonotonicTime,
                            "foot L sample at t=0.1 does not advance past t=0.1")),
    # a tick whose time does not advance names its first bad height's sample
    ([0.0, 0.0], 2.5, -INF, (7, False, NonMonotonicTime,
                             "foot R sample at t=0.0 does not advance past t=0.0")),
    ([0.1, 0.0], 2.5, -INF, (7, True, NonMonotonicTime,
                             "foot R sample at t=0.0 does not advance past t=0.1")),
])
def test_tick_rows_fault_at_a_ticks_first_bad_height_else_its_first_sample(times, right, before,
                                                                            want):
    heights = np.zeros((len(times), 2, 2))  # two lanes
    heights[-1, 1, 1] = right  # the last tick's right foot in lane 1
    assert tick_rows(times, heights, before) == want

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
        with pytest.raises(NonPositiveGain, match="^natural_visual_gain must be > 0, got 0.0$"):
            WipParams(natural_visual_gain=0.0)

    @pytest.mark.parametrize("name", ["speed_gain", "natural_visual_gain"])
    def test_gains_are_at_most_ten(self, name):
        # a 1e300 gain made the speed SD's squares overflow
        WipParams(**{name: 10.0})
        with pytest.raises(ValueError, match=f"^{name} must be <= 10, got 1e\\+300$"):
            WipParams(**{name: 1e300})

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["user_height", "speed_gain", "natural_visual_gain"])
    def test_non_finite_values_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            WipParams(**{name: value})


def test_every_public_name_resolves():
    import wiplab

    namespace = {}
    exec("from wiplab import *", namespace)
    for name in wiplab.__all__:
        assert namespace[name] is getattr(wiplab, name)


# Every parameter with a default and every dataclass or NamedTuple field with
# a default in wiplab. A value only tests set belongs in a module constant,
# so a new entry here is a new option, and this list makes it a reviewed one.
SETTABLE_VALUES = {
    "acceptance.run_all.only",
    "cli.main.argv",
    "core.WipParams.natural_visual_gain",
    "core.WipParams.speed_gain",
    "core.WipParams.user_height",
    "core.WipParams.variant",
    "elastic.ElasticRig.band_count",
    "elastic.ElasticRig.direction",
    "harness.ChaseScenario.chase_duration",
    "harness.ChaseScenario.circle_lead",
    "harness.ChaseScenario.countdown",
    "harness.ChaseScenario.prep_distance",
    "harness.ChaseScenario.prep_duration",
    "harness.ChaseScenario.timestep",
    "harness.replay_trace.scenario",
    "synth.GaitProgram.noise_sd",
    "synth.GaitProgram.seed",
    "synth.WalkerAgent.__init__.noise_sd",
    "synth.WalkerAgent.__init__.rig",
    "synth.WalkerAgent.__init__.seed",
    "traceio.TraceHeader.sample_rate_hint",
    "traceio.TraceHeader.scenario",
    "traceio.TraceHeader.user_height",
    "traceio._check_finite.path",
    "traceio.report_document.rows",
    "traceio.save_trace.scenario",
}


def _defaults(owner, func):
    return {
        f"{owner}.{p.name}"
        for p in inspect.signature(func).parameters.values()
        if p.default is not inspect.Parameter.empty
    }


def settable_values():
    """module.function.param, module.Class.method.param and module.Class.field
    for every default a caller of a wiplab module can override."""
    import wiplab

    found = set()
    for info in pkgutil.iter_modules(wiplab.__path__):
        module = importlib.import_module(f"wiplab.{info.name}")
        for name, obj in vars(module).items():
            owner = f"{info.name}.{name}"
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                found |= _defaults(owner, obj)
            elif inspect.isclass(obj):
                if dataclasses.is_dataclass(obj):
                    found |= {
                        f"{owner}.{f.name}" for f in dataclasses.fields(obj)
                        if f.default is not dataclasses.MISSING
                        or f.default_factory is not dataclasses.MISSING
                    }
                if "_field_defaults" in vars(obj):  # a NamedTuple
                    found |= {f"{owner}.{key}" for key in obj._field_defaults}
                for attr, member in vars(obj).items():
                    if dataclasses.is_dataclass(obj) and attr == "__init__":
                        continue  # generated from the fields counted above
                    func = getattr(member, "__func__", member)  # class/static methods
                    if inspect.isfunction(func) and func.__module__ == module.__name__:
                        found |= _defaults(f"{owner}.{attr}", func)
    return found


def test_every_settable_value_is_listed():
    assert settable_values() == SETTABLE_VALUES
