"""Trace file round trips, parse errors, and report serialization."""

import math

import pytest

from wiplab.core import DivergedSimulation, Foot, FootSample, Variant, WipParams
from wiplab.elastic import ElasticRig, PullDirection
from wiplab.harness import ChaseScenario
from wiplab.synth import GaitProgram, synth_trace
from wiplab.traceio import (
    TraceParseError,
    load_report,
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
        save_trace(path, trace, sample_rate_hint=90.0, user_height=1.68)
        header, loaded = load_trace(path)
        assert loaded == trace  # repr() serialization is lossless
        assert header.sample_rate_hint == 90.0
        assert header.user_height == 1.68
        assert header.scenario == {}

    def test_scenario_header_round_trips(self, tmp_path):
        sc = ChaseScenario(target_speed=1.5)
        params = WipParams(variant=Variant.GUD, user_height=1.80, speed_gain=1.2)
        rig = ElasticRig(direction=PullDirection.DOWNWARD, band_count=8)
        echo = scenario_echo(sc, params, seed=7, noise_sd=0.003, rig=rig)
        path = str(tmp_path / "run.csv")
        save_trace(path, [FootSample(0.0, Foot.LEFT, 0.0)], scenario=echo)
        header, _ = load_trace(path)
        assert header.scenario == echo
        assert params_from_echo(header.scenario) == params
        assert scenario_from_echo(header.scenario) == sc
        assert parse_rig_spec(header.scenario["rig"]) == rig

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

    def test_malformed_header(self, tmp_path):
        path = write(tmp_path, "# wip-trace v1\n# loose words\ntime,foot,height\n")
        with pytest.raises(TraceParseError) as info:
            load_trace(path)
        assert info.value.line == 2

    def test_unknown_header_keys_are_ignored(self, tmp_path):
        path = write(tmp_path, "# wip-trace v1\n# exporter: v9\n" + GOOD[15:])
        header, samples = load_trace(path)
        assert len(samples) == 3
        assert header.scenario == {}

    def test_blank_lines_are_skipped(self, tmp_path):
        path = write(tmp_path, GOOD.replace("time,", "\ntime,"))
        _, samples = load_trace(path)
        assert len(samples) == 3


class TestScalarParsing:
    def test_quoted_strings_ints_and_floats(self, tmp_path):
        text = (
            "# wip-trace v1\n"
            "# scenario.variant: 'shef'\n"
            "# scenario.seed: 12\n"
            "# scenario.timestep: 0.011111111111111112\n"
            "time,foot,height\n0.0,L,0.0\n"
        )
        header, _ = load_trace(write(tmp_path, text))
        assert header.scenario["variant"] == "shef"
        assert header.scenario["seed"] == 12
        assert header.scenario["timestep"] == 0.011111111111111112


class TestRigSpec:
    @pytest.mark.parametrize(
        "rig,expected",
        [
            (None, "none"),
            (ElasticRig(direction=PullDirection.NONE, band_count=0), "none"),
            (ElasticRig(direction=PullDirection.DOWNWARD, band_count=4), "down:4"),
            (ElasticRig(direction=PullDirection.UPWARD, band_count=6), "up:6"),
        ],
    )
    def test_render(self, rig, expected):
        assert rig_spec(rig) == expected

    @pytest.mark.parametrize("text", ["down:4", "up:10", "none", " DOWN:4 "])
    def test_round_trip(self, text):
        assert rig_spec(parse_rig_spec(text)) == text.strip().lower().replace("down:4", "down:4")

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
        assert load_report(path) == doc
        assert '"avg_speed": 1.48' in text

    def test_save_without_path_only_returns_text(self):
        text = save_report(None, report_document("bands", {}, {"force": 0.085}))
        assert '"kind": "bands"' in text

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_metrics_refused(self, bad):
        with pytest.raises(DivergedSimulation):
            report_document("chase", {}, {"avg_speed": bad})

    def test_non_finite_nested_in_rows_refused(self):
        with pytest.raises(DivergedSimulation):
            report_document("chase", {}, {}, rows=[{"t": 0.0, "v": math.nan}])

    def test_bools_are_not_treated_as_numbers(self):
        doc = report_document("bands", {"extrapolated": True}, {})
        assert doc["scenario"]["extrapolated"] is True
