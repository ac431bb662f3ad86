"""Trace file round trips, parse errors, and report serialization."""

import json
import math
import os
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wiplab import traceio
from wiplab.core import MAX_GAIN, DivergedSimulation, Foot, FootSample, Samples, Variant, WipParams
from wiplab.elastic import MAX_BANDS, ElasticRig, PullDirection
from wiplab.harness import ChaseScenario
from wiplab.synth import MAX_NOISE_SD, MIN_SAMPLE_RATE, GaitProgram, WalkerAgent, synth_trace
from wiplab.traceio import (
    RUN_KEYS,
    TraceParseError,
    load_trace,
    params_from_echo,
    parse_rig_spec,
    report_document,
    rig_spec,
    save_report,
    save_trace,
    scenario_echo,
    scenario_from_echo,
)


def write(tmp_path, text, name="t.csv"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


GOOD = "# wip-trace v1\ntime,foot,height\n0.0,L,0.0\n0.0,R,0.0\n0.1,L,0.05\n"


class TestTraceRoundTrip:
    def test_samples_survive_exactly(self, tmp_path):
        trace = synth_trace(GaitProgram(1.8, 0.14, noise_sd=0.002, seed=5), 4.0, 90.0)
        path = str(tmp_path / "walk.csv")
        save_trace(path, trace)
        echo, loaded = load_trace(path)
        assert list(loaded.tuples()) == list(trace.tuples())  # repr() serialization is lossless
        assert type(echo) is dict and echo == {}

    def test_a_recorded_trace_is_parsed_by_columns(self, tmp_path):
        """Both feet share each sample time; the column parse takes such rows,
        and the line walk is left for traces it refuses."""
        trace = synth_trace(GaitProgram(1.8, 0.14, seed=5), 1.0, 90.0)
        path = tmp_path / "walk.csv"
        save_trace(str(path), trace)
        rows = path.read_text(encoding="utf-8").split("\n")
        parsed = traceio._parse_columns(rows[rows.index("time,foot,height") + 1:])
        assert parsed is not None and list(parsed.tuples()) == list(trace.tuples())

    def test_scenario_header_round_trips(self, tmp_path):
        sc = ChaseScenario(target_speed=1.5)
        params = WipParams(variant=Variant.GUD, user_height=1.80, speed_gain=1.2)
        rig = ElasticRig(direction=PullDirection.DOWNWARD, band_count=8)
        echo = scenario_echo(sc, WalkerAgent(params, noise_sd=0.003, seed=7, rig=rig))
        path = str(tmp_path / "run.csv")
        save_trace(path, Samples.of([FootSample(0.0, Foot.LEFT, 0.0)]), scenario=echo)
        loaded, _ = load_trace(path)
        assert loaded == echo
        # the timestep and user_height of the echo also fill the header lines
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().split("\n")
        assert f"# sample_rate_hint: {1.0 / sc.timestep!r}" in lines
        assert "# user_height: 1.8" in lines
        assert params_from_echo(loaded) == params
        assert scenario_from_echo(loaded) == sc
        assert parse_rig_spec(loaded["rig"]) == rig

    @settings(max_examples=60, deadline=None)
    @given(
        params=st.builds(
            WipParams,
            user_height=st.floats(1.0, 2.5),
            variant=st.sampled_from(Variant),
            speed_gain=st.floats(0.0, MAX_GAIN, exclude_min=True),
            natural_visual_gain=st.floats(0.0, MAX_GAIN, exclude_min=True),
        ),
        seed=st.integers(0, 2**63),
        noise_sd=st.floats(0.0, MAX_NOISE_SD),
        rig=st.none() | st.builds(
            ElasticRig, direction=st.sampled_from(PullDirection), band_count=st.integers(1, MAX_BANDS)
        ),
        scenario=st.builds(
            ChaseScenario,
            target_speed=st.just(0.0) | st.floats(0.1, 100.0),
            prep_distance=st.floats(0.1, 10.0),
            prep_duration=st.floats(0.1, 20.0),
            countdown=st.floats(0.1, 5.0),
            chase_duration=st.floats(0.1, 30.0),
            circle_lead=st.floats(0.1, 5.0),
            timestep=st.floats(1.0 / 2000.0, 1.0 / MIN_SAMPLE_RATE),
        ),
    )
    @example(params=WipParams(), seed=0, noise_sd=0.0, rig=None,
             scenario=ChaseScenario(target_speed=1.5))
    def test_an_echo_reads_back_as_its_agent_and_scenario(self, params, seed, noise_sd, rig,
                                                          scenario):
        """scenario_echo takes the law settings, seed, noise_sd and rig from
        the agent that walked the run, so reading the echo back gives them
        and the scenario."""
        echo = scenario_echo(scenario, WalkerAgent(params, noise_sd=noise_sd, seed=seed, rig=rig))
        assert list(echo) == list(RUN_KEYS)
        assert params_from_echo(echo) == params
        assert scenario_from_echo(echo) == scenario
        assert (echo["seed"], echo["noise_sd"], parse_rig_spec(echo["rig"])) == (seed, noise_sd, rig)

    def test_echo_without_target_gives_no_scenario(self):
        assert scenario_from_echo({"variant": "gud"}) is None


class TestParseErrors:
    def test_missing_magic(self, tmp_path):
        path = write(tmp_path, "time,foot,height\n0.0,L,0.0\n")
        with pytest.raises(TraceParseError) as info:
            load_trace(path)
        assert info.value.line == 1

    def test_empty_file(self, tmp_path):
        with pytest.raises(TraceParseError):
            load_trace(write(tmp_path, ""))

    def test_bad_column_line(self, tmp_path):
        path = write(tmp_path, "# wip-trace v1\nt,f,h\n")
        with pytest.raises(TraceParseError, match="column"):
            load_trace(path)

    def test_wrong_field_count(self, tmp_path):
        path = write(tmp_path, GOOD + "0.2,L\n")
        with pytest.raises(TraceParseError, match="3 fields") as info:
            load_trace(path)
        assert info.value.line == 6

    def test_field_counts_are_checked_per_row(self, tmp_path):
        # the surplus of row 6 and the shortfalls of rows 7 and 8 cancel out
        path = write(tmp_path, GOOD + "0.2,L,0.0,0.2,R,0.0\n0.3\nL,0.05\n")
        with pytest.raises(TraceParseError, match="got 6") as info:
            load_trace(path)
        assert info.value.line == 6

    def test_unknown_foot_label(self, tmp_path):
        path = write(tmp_path, GOOD + "0.2,X,0.0\n")
        with pytest.raises(TraceParseError) as info:
            load_trace(path)
        assert info.value.line == 6

    def test_unparseable_number(self, tmp_path):
        path = write(tmp_path, GOOD + "0.2,L,tall\n")
        with pytest.raises(TraceParseError):
            load_trace(path)

    def test_times_must_be_sorted(self, tmp_path):
        path = write(tmp_path, GOOD + "0.05,R,0.0\n")
        with pytest.raises(TraceParseError, match="sorted"):
            load_trace(path)

    def test_per_foot_duplicate_time(self, tmp_path):
        path = write(tmp_path, GOOD + "0.1,L,0.05\n")
        with pytest.raises(TraceParseError) as info:
            load_trace(path)
        assert info.value.line == 6

    def test_out_of_range_height(self, tmp_path):
        path = write(tmp_path, GOOD + "0.2,L,2.5\n")
        with pytest.raises(TraceParseError):
            load_trace(path)

    @pytest.mark.parametrize("time", ["nan", "inf"])
    def test_non_finite_time(self, tmp_path, time):
        path = write(tmp_path, GOOD + f"{time},R,0.0\n0.2,L,0.0\n")
        with pytest.raises(TraceParseError, match="not finite") as info:
            load_trace(path)
        assert info.value.line == 6

    @pytest.mark.parametrize("time", ["nan", "inf"])
    def test_non_finite_time_in_the_last_row(self, tmp_path, time):
        path = write(tmp_path, GOOD + f"{time},R,0.0\n")
        with pytest.raises(TraceParseError, match="not finite") as info:
            load_trace(path)
        assert info.value.line == 6

    def test_malformed_header(self, tmp_path):
        path = write(tmp_path, "# wip-trace v1\n# loose words\ntime,foot,height\n")
        with pytest.raises(TraceParseError) as info:
            load_trace(path)
        assert info.value.line == 2

    def test_unknown_header_keys_are_ignored(self, tmp_path):
        path = write(tmp_path, "# wip-trace v1\n# exporter: v9\n" + GOOD[15:])
        echo, samples = load_trace(path)
        assert len(samples) == 3
        assert echo == {}

    def test_blank_lines_are_skipped(self, tmp_path):
        path = write(tmp_path, GOOD.replace("time,", "\ntime,"))
        _, samples = load_trace(path)
        assert len(samples) == 3

    @pytest.mark.parametrize("line", [
        "# sample_rate_hint: abc",
        "# sample_rate_hint: inf",
        "# sample_rate_hint: 0",
        "# user_height: nan",
        "# user_height: -1.7",
        pytest.param("# user_height: 1" + "0" * 400, id="# user_height: 1000..."),
    ])
    def test_header_numbers_must_be_finite_and_positive(self, tmp_path, line):
        path = write(tmp_path, GOOD.replace("\n", f"\n{line}\n", 1))
        key = line[2:line.index(":")]
        with pytest.raises(TraceParseError, match=f"{key} must be a finite number > 0") as info:
            load_trace(path)
        assert info.value.line == 2

    @pytest.mark.parametrize("value", ["nan", "-nan", "inf", "-inf", "1e400", "-1e400"])
    @pytest.mark.parametrize("key", ["seed", "rig", "bogus"])
    def test_scenario_values_must_not_read_as_non_finite_floats(self, tmp_path, key, value):
        path = write(tmp_path, GOOD.replace("\n", f"\n# scenario.{key}: {value}\n", 1))
        with pytest.raises(TraceParseError, match=f"scenario.{key} must be finite") as info:
            load_trace(path)
        assert info.value.line == 2

    @pytest.mark.parametrize("key,value,rebuild", [
        ("target_speed", "fast", scenario_from_echo),
        ("variant", "sideways", params_from_echo),
    ])
    def test_bad_scenario_values_name_their_key(self, tmp_path, key, value, rebuild):
        echo, _ = load_trace(write(tmp_path, f"# wip-trace v1\n# scenario.{key}: {value}\n"))
        with pytest.raises(ValueError, match=f"^scenario.{key}: "):
            rebuild(echo)


def trace_text(n_rows):
    """A clean trace as lines: two header lines, the column line, and rows
    alternating between the feet, both feet sharing each time."""
    rows = [f"{k // 2 / 90.0!r},{'LR'[k % 2]},{0.1 * (k % 7) / 6!r}" for k in range(n_rows)]
    return ["# wip-trace v1", "# sample_rate_hint: 90.0", "time,foot,height"] + rows


def mutate(lines, kind, row, other):
    """One defect (or harmless variation) at a data row of a trace."""
    at = 3 + row
    time, foot, height = (lines[at].split(",") + ["", ""])[:3]
    if kind == "drop field":
        lines[at] = f"{time},{foot}"
    elif kind == "extra field":
        lines[at] += ",0.0"
    elif kind == "corrupt time":
        lines[at] = f"1.2.3,{foot},{height}"
    elif kind == "corrupt height":
        lines[at] = f"{time},{foot},tall"
    elif kind in ("nan", "inf", "-inf"):
        lines[at] = f"{kind},{foot},{height}"
    elif kind == "unknown foot":
        lines[at] = f"{time},X,{height}"
    elif kind == "padded foot":
        lines[at] = f"{time}, {foot} ,{height}"
    elif kind == "height out of range":
        lines[at] = f"{time},{foot},2.5"
    elif kind == "swap rows":
        b = 3 + other
        lines[at], lines[b] = lines[b], lines[at]
    elif kind == "blank line":
        lines.insert(at, "")
    elif kind == "comment line":
        lines.insert(at, "# scenario.note: 1")
    elif kind == "bare comment":
        lines.insert(at, "# loose words")
    elif kind == "trailing spaces":
        lines[at] += "   "
    elif kind == "header after the rows":
        lines.append("# user_height: 0")
    elif kind == "nul in foot":
        lines[at] = f"{time},{foot}\0,{height}"
    elif kind == "nul in height":
        lines[at] = f"{time},{foot},{height}\0"
    elif kind == "separator around a number":
        lines[at] = f"{time}\x1c,{foot},\x1f{height}"
    elif kind == "underscore digits":
        lines[at] = f"{time},{foot},0.0_1"
    elif kind == "arabic-indic digits":
        lines[at] = f"{time},{foot},\u0660.\u0660\u0665"
    elif kind == "foot LX":
        lines[at] = f"{time},LX,{height}"
    elif kind == "quoted foot":
        lines[at] = f'{time},"{foot}",{height}'
    elif kind == "spaces only":
        lines.insert(at, "   ")
    elif kind == "1e400 height":
        lines[at] = f"{time},{foot},1e400"
    return lines


MUTATIONS = [
    "none", "drop field", "extra field", "corrupt time", "corrupt height", "nan", "inf",
    "-inf", "unknown foot", "padded foot", "height out of range", "swap rows",
    "blank line", "comment line", "bare comment", "trailing spaces",
    "header after the rows", "nul in foot", "nul in height", "separator around a number",
    "underscore digits", "arabic-indic digits", "foot LX", "quoted foot", "spaces only",
    "1e400 height",
]


def outcome(load, path):
    try:
        echo, samples = load(path)
    except TraceParseError as exc:
        return ("error", exc.line, str(exc))
    return (repr(echo), [repr(s) for s in samples.tuples()])


def walk_lines(path):
    with mock.patch.object(traceio, "_parse_columns", return_value=None):
        return load_trace(path)


@settings(max_examples=200, deadline=None)
@given(
    n_rows=st.integers(1, 40),
    defects=st.lists(
        st.tuples(st.sampled_from(MUTATIONS), st.integers(0, 39), st.integers(0, 39)),
        max_size=3,
    ),
    newline=st.sampled_from(["\n", "\r\n"]),
    final_newline=st.booleans(),
)
@example(n_rows=3, defects=[("nul in foot", 1, 0)], newline="\n", final_newline=True)
@example(n_rows=3, defects=[("separator around a number", 1, 0)], newline="\n",
         final_newline=True)
def test_column_parse_agrees_with_the_line_walk(tmp_path_factory, n_rows, defects, newline,
                                                final_newline):
    lines = trace_text(n_rows)
    for kind, row, other in defects:
        lines = mutate(lines, kind, row % n_rows, other % n_rows)
    text = newline.join(lines) + (newline if final_newline else "")
    path = tmp_path_factory.mktemp("fuzz") / "t.csv"
    path.write_bytes(text.encode("utf-8"))
    assert outcome(load_trace, str(path)) == outcome(walk_lines, str(path))
    if all(kind == "none" for kind, _, _ in defects):
        rows = path.read_text(encoding="utf-8").split("\n")[3:]
        assert traceio._parse_columns(rows) is not None


def walked_foot_samples(path):
    """The FootSample list the line walk builds, before it becomes columns."""
    built, to_columns = [], Samples.of

    def keep(samples):
        built.append(list(samples))
        return to_columns(samples)

    with mock.patch.object(traceio, "_parse_columns", return_value=None), \
            mock.patch.object(Samples, "of", keep):
        load_trace(path)
    return built[-1]


@pytest.mark.parametrize("lines", [
    trace_text(1), trace_text(2), trace_text(40),
    trace_text(0)[:3] + [f"{5.0 + k / 90!r},R,{0.02 * k!r}" for k in range(9)],  # one foot, late
], ids=["one row", "two rows", "40 rows", "one foot late"])
def test_samples_agree_with_the_line_walks_foot_samples(tmp_path, lines):
    path = write(tmp_path, "\n".join(lines) + "\n")
    _, samples = load_trace(path)
    walked = walked_foot_samples(path)
    assert isinstance(samples, Samples) and len(samples) == len(walked)
    rows = list(map(FootSample._make, samples.tuples()))
    assert rows == walked
    assert [repr(s) for s in rows] == [repr(s) for s in walked]  # floats, not numpy scalars
    assert list(Samples.of(walked).tuples()) == walked



@settings(max_examples=200, deadline=None)
@given(runs=st.lists(
    st.tuples(
        st.sampled_from([0.0, -0.0, 1.0 / 90.0, 0.5]) | st.floats(),
        st.lists(st.tuples(st.booleans(), st.floats(-0.005, 2.0)), min_size=1, max_size=3),
    ),
    max_size=12,
))
def test_trace_rows_equal_a_row_at_a_time_repr(runs):
    """trace_text writes each run of bit-equal times once as repr and
    repeats it, so a row reads as f"{time!r},{foot},{height!r}" would,
    with -0.0 and 0.0 apart and equal times in runs of any length."""
    rows = [(t, left, h) for t, samples in runs for left, h in samples]
    time, left, height = (np.array(column, dtype) for column, dtype in
                          zip(tuple(zip(*rows)) or ((), (), ()), (float, bool, float)))
    text = traceio.trace_text(Samples(time, left, height), {})
    want = [f"{t!r},{'L' if is_left else 'R'},{h!r}" for t, is_left, h in rows]
    assert text.split("\n")[2:-1] == want


@settings(max_examples=200, deadline=None)
@given(values=st.lists(
    st.floats() | st.sampled_from([-0.0, 5e-324, sys.float_info.max]), min_size=1, max_size=20,
))
def test_every_float_reads_back_bit_identical(tmp_path_factory, values):
    """Each float64 trace_text writes, in either column, reads back through
    load_trace with the bits float() gives its repr: its own bits, or the
    one NaN float("nan") reads for any NaN. The stream check is patched
    out, so times and heights need not hold the contract."""
    time = np.array(values)
    height = time[::-1].copy()
    text = traceio.trace_text(Samples(time, np.arange(len(time)) % 2 == 0, height), {})
    assert traceio._parse_columns(text.split("\n")[2:]) is not None
    path = tmp_path_factory.mktemp("floats") / "t.csv"
    path.write_text(text, encoding="utf-8")
    with mock.patch.object(Samples, "fault", return_value=None):
        _, samples = load_trace(str(path))
    for written, read in ((time, samples.time), (height, samples.height)):
        want = np.where(np.isnan(written), math.nan, written)
        assert np.array_equal(read.view(np.int64), want.view(np.int64))


class TestScalarParsing:
    @pytest.mark.parametrize("value,read", [
        ("'nan'", "nan"), ("7", 7), ("1" + "0" * 400, 10**400),
    ], ids=["quoted nan", "int", "int past the largest float"])
    def test_scenario_values_that_are_not_floats_are_kept(self, tmp_path, value, read):
        text = GOOD.replace("\n", f"\n# scenario.seed: {value}\n", 1)
        echo, _ = load_trace(write(tmp_path, text))
        assert echo == {"seed": read}

    def test_quoted_strings_ints_and_floats(self, tmp_path):
        text = (
            "# wip-trace v1\n"
            "# scenario.variant: 'shef'\n"
            "# scenario.seed: 12\n"
            "# scenario.timestep: 0.011111111111111112\n"
            "time,foot,height\n0.0,L,0.0\n"
        )
        echo, _ = load_trace(write(tmp_path, text))
        assert echo["variant"] == "shef"
        assert echo["seed"] == 12
        assert echo["timestep"] == 0.011111111111111112


class TestRigSpec:
    @pytest.mark.parametrize(
        "rig,expected",
        [
            (None, "none"),
            (ElasticRig(direction=PullDirection.UPWARD, band_count=MAX_BANDS), "up:100"),
            (ElasticRig(direction=PullDirection.DOWNWARD, band_count=4), "down:4"),
            (ElasticRig(direction=PullDirection.UPWARD, band_count=6), "up:6"),
        ],
    )
    def test_render(self, rig, expected):
        assert rig_spec(rig) == expected

    @pytest.mark.parametrize("text", ["down:4", "up:10", "none", " DOWN:4 "])
    def test_round_trip(self, text):
        assert rig_spec(parse_rig_spec(text)) == text.strip().lower()

    @given(
        direction=st.sampled_from(PullDirection),
        band_count=st.integers(1, MAX_BANDS),
    )
    @example(direction=PullDirection.DOWNWARD, band_count=4)
    @example(direction=PullDirection.UPWARD, band_count=6)
    @example(direction=PullDirection.UPWARD, band_count=10)
    @example(direction=PullDirection.DOWNWARD, band_count=MAX_BANDS)
    def test_every_rig_round_trips(self, direction, band_count):
        """Each rig of the domain renders to a spec that parses back to it;
        no rig is None, rendered 'none', and no ElasticRig renders so."""
        rig = ElasticRig(direction=direction, band_count=band_count)
        assert parse_rig_spec(rig_spec(rig)) == rig
        assert rig_spec(rig) != "none"
        assert rig_spec(None) == "none"
        assert parse_rig_spec("none") is None
        for bad in (f"none:{band_count}", f"{direction.value}:0",
                    f"{direction.value}:{MAX_BANDS + 1}"):
            with pytest.raises(ValueError):
                parse_rig_spec(bad)

    @pytest.mark.parametrize("bad", ["down", "down:", "down:0", "left:4", "none:2", "down:x"])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_rig_spec(bad)


class TestReports:
    def test_document_and_save(self, tmp_path):
        doc = report_document("chase", {"target_speed": 1.5}, {"avg_speed": 1.48})
        assert doc["schema_version"] == 1
        path = str(tmp_path / "report.json")
        text = save_report(path, doc)
        with open(path, encoding="utf-8") as fh:
            assert json.load(fh) == doc
        assert '"avg_speed": 1.48' in text

    def test_save_replaces_a_longer_file_and_leaves_no_temporary(self, tmp_path):
        doc = report_document("chase", {}, {"avg_speed": 1.48})
        path = tmp_path / "report.json"
        path.write_bytes(b"x" * 10_000)
        assert save_report(str(path), doc) + "\n" == path.read_text()
        save_trace(str(tmp_path / "walk.csv"), Samples.of([FootSample(0.0, Foot.LEFT, 0.0)]))
        assert sorted(os.listdir(tmp_path)) == ["report.json", "walk.csv"]

    def test_save_without_path_only_returns_text(self):
        text = save_report(None, report_document("bands", {}, {"force": 0.085}))
        assert '"kind": "bands"' in text

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_metrics_refused(self, bad):
        with pytest.raises(DivergedSimulation):
            save_report(None, report_document("chase", {}, {"avg_speed": bad}))

    def test_non_finite_nested_in_rows_refused(self):
        with pytest.raises(DivergedSimulation):
            save_report(None, report_document("chase", {}, {}, rows=[{"t": 0.0, "v": math.nan}]))

    def test_bools_are_not_treated_as_numbers(self):
        text = save_report(None, report_document("bands", {"clipped": True}, {}))
        assert json.loads(text)["scenario"]["clipped"] is True
