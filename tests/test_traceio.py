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
    parse_rig_spec,
    read_run,
    report_document,
    rig_spec,
    save_report,
    save_trace,
    scenario_echo,
)


def write(tmp_path, text, name="t.csv"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


GOOD = "# wip-trace v1\ntime,foot,height\n0.0,L,0.0\n0.0,R,0.0\n0.1,L,0.05\n"
REFUSED = "expected a row of two numbers and a foot L or R"


class TestTraceRoundTrip:
    def test_samples_survive_exactly(self, tmp_path):
        trace = synth_trace(GaitProgram(1.8, 0.14, noise_sd=0.002, seed=5), 4.0, 90.0)
        path = str(tmp_path / "walk.csv")
        save_trace(path, trace)
        echo, loaded = load_trace(path)
        assert list(loaded.tuples()) == list(trace.tuples())  # repr() serialization is lossless
        assert type(echo) is dict and echo == {}

    def test_a_recorded_trace_is_parsed_by_columns(self, tmp_path):
        """Both feet share each sample time; one call of the row reader
        takes all the rows of such a trace."""
        trace = synth_trace(GaitProgram(1.8, 0.14, seed=5), 1.0, 90.0)
        path = tmp_path / "walk.csv"
        save_trace(str(path), trace)
        rows = path.read_text(encoding="utf-8").split("time,foot,height\n")[1]
        parsed = traceio._read_rows(rows.rstrip("\n"))
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
        # the header carries each value once: the format line and a line per echo key
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().split("\n")
        assert lines[:len(echo) + 2] == [
            "# wip-trace v1", *(f"# scenario.{key}: {value!r}" for key, value in echo.items()),
            "time,foot,height",
        ]
        scenario, agent = read_run(loaded)
        assert agent.params == params
        assert scenario == sc
        assert parse_rig_spec(loaded["rig"]) == rig
        assert (agent.seed, agent.noise_sd, agent.rig) == (7, 0.003, rig)

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
        read_scenario, agent = read_run(echo)
        assert agent.params == params
        assert read_scenario == scenario
        assert (echo["seed"], echo["noise_sd"], parse_rig_spec(echo["rig"])) == (seed, noise_sd, rig)
        assert (agent.seed, agent.noise_sd, agent.rig) == (seed, noise_sd, rig)

    def test_echo_without_target_gives_no_scenario(self):
        scenario, agent = read_run({"variant": "gud"})
        assert scenario is None
        assert agent.params == WipParams(variant=Variant.GUD)


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
        with pytest.raises(TraceParseError, match=f"{REFUSED}, got '0.2,L'$") as info:
            load_trace(path)
        assert info.value.line == 6

    def test_field_counts_are_checked_per_row(self, tmp_path):
        # the surplus of row 6 and the shortfalls of rows 7 and 8 cancel out
        path = write(tmp_path, GOOD + "0.2,L,0.0,0.2,R,0.0\n0.3\nL,0.05\n")
        with pytest.raises(TraceParseError, match="got '0.2,L,0.0,0.2,R,0.0'$") as info:
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

    @pytest.mark.parametrize("lines", [
        "# sample_rate_hint: 90.0\n# user_height: 1.72",
        "# sample_rate_hint: abc\n# user_height: nan",
        "# sample_rate_hint: 0\n# user_height: 1" + "0" * 400,
    ], ids=["as written", "not numbers", "out of range"])
    def test_old_hint_lines_are_ignored(self, tmp_path, lines):
        """Older versions wrote sample_rate_hint and user_height lines, copies
        of the echo's timestep and user_height; they are read as any other
        key: value line that is not a scenario.<key> line."""
        text = GOOD.replace("\n", "\n# scenario.user_height: 1.8\n", 1)
        old = write(tmp_path, text.replace("\n", f"\n{lines}\n", 1), "old.csv")
        echo, samples = load_trace(old)
        assert echo == {"user_height": 1.8}
        assert list(samples.tuples()) == list(load_trace(write(tmp_path, text))[1].tuples())

    @pytest.mark.parametrize("value", ["nan", "-nan", "inf", "-inf", "1e400", "-1e400"])
    @pytest.mark.parametrize("key", ["seed", "rig", "bogus"])
    def test_scenario_values_must_not_read_as_non_finite_floats(self, tmp_path, key, value):
        path = write(tmp_path, GOOD.replace("\n", f"\n# scenario.{key}: {value}\n", 1))
        with pytest.raises(TraceParseError, match=f"scenario.{key} must be finite") as info:
            load_trace(path)
        assert info.value.line == 2

    @pytest.mark.parametrize("key,value", [
        ("target_speed", "fast"),
        ("variant", "sideways"),
        ("target_speed", "'1.5'"),
        ("rig", "5"),
        ("rig", "'up:0'"),
    ])
    def test_bad_scenario_values_name_their_key(self, tmp_path, key, value):
        echo, _ = load_trace(write(tmp_path, f"# wip-trace v1\n# scenario.{key}: {value}\n"))
        with pytest.raises(ValueError, match=f"^scenario.{key}: "):
            read_run(echo)

    @pytest.mark.parametrize("among_the_rows", [False, True])
    @pytest.mark.parametrize("key", ["rig", "seed", "bogus"])
    def test_a_repeated_scenario_key_names_both_lines(self, tmp_path, key, among_the_rows):
        """A second scenario.<key> line in the header is refused naming both
        lines, not read over the first; among the rows it is a row that is
        refused."""
        again = f"# scenario.{key}: 2\n"
        text = GOOD.replace("\n", f"\n# scenario.{key}: 1\n# user_height: 1.7\n", 1)
        text = text + again if among_the_rows else text.replace("time,", again + "time,")
        with pytest.raises(TraceParseError) as info:
            load_trace(write(tmp_path, text))
        if among_the_rows:
            assert str(info.value) == f"line 8: {REFUSED}, got {again[:-1]!r}"
        else:
            assert str(info.value) == f"line 4: scenario.{key} repeats line 2"

    @pytest.mark.parametrize("row", [
        "# scenario.note: 1", "", "   ", "0.2, L ,0.0", "0.2,L,0.0_1", "0.2,L,\u0660.\u0665",
    ], ids=["comment", "blank", "spaces only", "padded foot", "underscore", "arabic-indic digit"])
    def test_a_line_between_rows_that_no_writer_writes_is_refused(self, tmp_path, row):
        """No writer spells a row so: between two rows, each is refused
        naming its line."""
        with pytest.raises(TraceParseError) as info:
            load_trace(write(tmp_path, GOOD.replace("\n0.1,", f"\n{row}\n0.1,")))
        assert str(info.value) == f"line 5: {REFUSED}, got {row!r}"


def trace_lines(rows):
    """A clean trace as lines: the format line, a scenario line, the column
    line, then a line per (time, foot, height) row."""
    return (["# wip-trace v1", "# scenario.timestep: 0.011111111111111112", "time,foot,height"]
            + [f"{time!r},{foot},{height!r}" for time, foot, height in rows])


def alternating(n_rows):
    """n_rows rows alternating between the feet, both feet sharing each time."""
    return [(k // 2 / 90.0, "LR"[k % 2], 0.1 * (k % 7) / 6) for k in range(n_rows)]


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


HARMLESS = ("none", "trailing spaces")


def reprs(path):
    """The echo and the rows of the trace at path, by repr."""
    echo, samples = load_trace(str(path))
    return repr(echo), [repr(row) for row in samples.tuples()]


@settings(max_examples=200, deadline=None)
@given(
    n_rows=st.integers(1, 40),
    defects=st.lists(
        st.tuples(st.sampled_from(MUTATIONS), st.integers(0, 39), st.integers(0, 39)),
        max_size=3,
    ),
    newline=st.sampled_from(["\n", "\r\n"]),
    final_newline=st.booleans(),
    blank_lines_at_the_end=st.integers(0, 2),
)
@example(n_rows=3, defects=[("nul in foot", 1, 0)], newline="\n", final_newline=True,
         blank_lines_at_the_end=0)
@example(n_rows=3, defects=[("separator around a number", 1, 0)], newline="\n",
         final_newline=True, blank_lines_at_the_end=0)
@example(n_rows=3, defects=[("trailing spaces", 2, 0)], newline="\n", final_newline=True,
         blank_lines_at_the_end=3)
# spellings no writer produces: a '#' or blank line between rows, a whitespace-only row,
# a padded foot, and '_' or non-ASCII digits in a number
@example(n_rows=3, defects=[("comment line", 1, 0)], newline="\n", final_newline=True,
         blank_lines_at_the_end=0)
@example(n_rows=3, defects=[("blank line", 1, 0)], newline="\n", final_newline=True,
         blank_lines_at_the_end=0)
@example(n_rows=3, defects=[("spaces only", 1, 0)], newline="\n", final_newline=True,
         blank_lines_at_the_end=0)
@example(n_rows=3, defects=[("padded foot", 1, 0)], newline="\n", final_newline=True,
         blank_lines_at_the_end=0)
@example(n_rows=3, defects=[("underscore digits", 1, 0)], newline="\n", final_newline=True,
         blank_lines_at_the_end=0)
@example(n_rows=3, defects=[("arabic-indic digits", 1, 0)], newline="\n", final_newline=True,
         blank_lines_at_the_end=0)
def test_a_trace_loads_as_written_or_names_its_first_edited_row(
        tmp_path_factory, n_rows, defects, newline, final_newline, blank_lines_at_the_end):
    """The trace grammar. Harmless edits (trailing spaces on a row, blank
    lines at the end of the file) load bit-identically to the unedited
    trace. Any other single edit but a swap of rows raises TraceParseError
    naming its line; rows swapped out of time order may be named at a
    later row, and a swap of the feet of one time loads. Whatever the
    edits, an error names the first line the trace goes bad at: cut before
    it, the trace loads. A trace that loads holds the rows its lines spell."""
    folder = tmp_path_factory.mktemp("grammar")
    clean = trace_lines(alternating(n_rows))
    lines = list(clean)
    for kind, row, other in defects:
        lines = mutate(lines, kind, row % n_rows, other % n_rows)
    ending = newline if final_newline or blank_lines_at_the_end else ""
    path, unedited, cut = folder / "edited.csv", folder / "clean.csv", folder / "cut.csv"
    path.write_bytes((newline.join(lines) + ending + newline * blank_lines_at_the_end).encode())
    unedited.write_text("\n".join(clean) + "\n")
    want = reprs(unedited)
    assert want[1] == [repr((t, Foot(foot), h)) for t, foot, h in alternating(n_rows)]
    edited = [line.rstrip(" ") for line in lines]
    if edited == clean:
        assert reprs(path) == want
        return
    first = next(k for k, (a, b) in enumerate(zip(edited + [None], clean + [None])) if a != b)
    harmful = [kind for kind, _, _ in defects if kind not in HARMLESS]
    single = len(harmful) == 1 and harmful[0] != "swap rows"
    try:
        got = reprs(path)
    except TraceParseError as exc:
        assert exc.line > first, (exc, first)
        cut.write_text("\n".join(lines[:exc.line - 1]) + "\n")
        load_trace(str(cut))
        if single:
            assert exc.line == first + 1, (exc, first)
    else:
        assert not single
        spelled = (row.split(",") for row in edited[3:])
        assert got == (want[0], [repr((float(t), Foot(foot), float(h))) for t, foot, h in spelled])


@pytest.mark.parametrize("rows", [
    alternating(1), alternating(2), alternating(40),
    [(5.0 + k / 90, "R", 0.02 * k) for k in range(9)],  # one foot, late
], ids=["one row", "two rows", "40 rows", "one foot late"])
def test_samples_are_the_rows_written(tmp_path, rows):
    _, samples = load_trace(write(tmp_path, "\n".join(trace_lines(rows)) + "\n"))
    want = [FootSample(time, Foot(foot), height) for time, foot, height in rows]
    assert isinstance(samples, Samples)
    got = list(map(FootSample._make, samples.tuples()))
    assert got == want
    assert [repr(s) for s in got] == [repr(s) for s in want]  # floats, not numpy scalars
    assert list(Samples.of(want).tuples()) == want


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
    assert traceio._read_rows(text.split("\n", 2)[2].rstrip("\n")) is not None
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

    @pytest.mark.parametrize("bad", [5, None], ids=repr)
    def test_rejects_a_value_that_is_not_a_text(self, bad):
        """A header or scenario file may hold a rig that is no text; it is a
        ValueError, which the command line reports as bad input."""
        with pytest.raises(ValueError, match=f"rig spec must be a text .*, got {bad!r}$"):
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
