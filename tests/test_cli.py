"""Command-line interface: subcommands, exit codes, file outputs."""

import errno
import json
import os
import stat
from itertools import count

import pytest

from wiplab import cli, core, traceio
from wiplab.traceio import TraceParseError, save_trace


def run(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSimulate:
    def test_report_on_stdout(self, capsys):
        code, out, _ = run(
            ["simulate", "--target", "1.5", "--seed", "3", "--noise", "0.002"], capsys
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] == "chase"
        assert doc["schema_version"] == 1
        assert doc["metrics"]["avg_speed"] == pytest.approx(1.5, rel=0.1)
        assert doc["scenario"]["variant"] == "shef"

    def test_out_flag_writes_a_file(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        code, out, err = run(
            ["simulate", "--target", "1.0", "--out", str(out_path)], capsys
        )
        assert code == 0
        assert out == ""
        assert "wrote" in err
        assert json.loads(out_path.read_text())["kind"] == "chase"

    def test_scenario_file_with_flag_override(self, tmp_path, capsys):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({"target_speed": 1.0, "variant": "gud"}))
        code, out, _ = run(
            ["simulate", "--scenario", str(scenario), "--variant", "shef"], capsys
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["scenario"]["variant"] == "shef"  # flag wins over the file
        assert doc["scenario"]["target_speed"] == 1.0

    def test_rate_independence(self, capsys):
        speeds = {}
        for label, dt in [("coarse", 1.0 / 45.0), ("fine", 1.0 / 90.0)]:
            code, out, _ = run(
                ["simulate", "--target", "1.5", "--timestep", repr(dt)], capsys
            )
            assert code == 0
            speeds[label] = json.loads(out)["metrics"]["avg_speed"]
        assert speeds["coarse"] == pytest.approx(speeds["fine"], rel=0.05)

    def test_missing_target_is_an_input_error(self, capsys):
        code, _, err = run(["simulate"], capsys)
        assert code == 2
        assert "target" in err

    def test_unknown_scenario_key(self, tmp_path, capsys):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({"target_speed": 1.0, "warp": 9}))
        code, _, err = run(["simulate", "--scenario", str(scenario)], capsys)
        assert code == 2
        assert "warp" in err

    def test_bad_scenario_json_reports_the_line(self, tmp_path, capsys):
        scenario = tmp_path / "scenario.json"
        scenario.write_text('{"target_speed": 1.0,\n  "variant" "gud"}\n')
        code, _, err = run(["simulate", "--scenario", str(scenario)], capsys)
        assert code == 2
        assert "line 2" in err

    @pytest.mark.parametrize(
        "flags",
        [
            ["--target", "1", "--gain", "nan"],
            ["--target", "1", "--natural-gain", "nan"],
            ["--target", "1", "--gain", "inf"],
            ["--target", "1", "--timestep", "inf"],
            ["--target", "inf"],
            ["--target", "nan"],
            ["--target", "1", "--noise", "nan"],
        ],
        ids=lambda flags: " ".join(flags[-2:]),
    )
    def test_non_finite_setting_is_bad_input(self, flags, capsys):
        code, out, err = run(["simulate", *flags], capsys)
        assert code == 2
        assert out == ""
        assert "must be finite" in err

    def test_a_chase_window_without_a_frame_is_bad_input(self, tmp_path, capsys):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({
            "target_speed": 1.0, "prep_duration": 0.1, "countdown": 0.1, "chase_duration": 1e-3,
        }))
        code, out, err = run(["simulate", "--scenario", str(scenario)], capsys)
        assert (code, out) == (2, "")
        assert "chase_duration 0.001 s holds no frame at timestep" in err

    def test_bad_rig_spec(self, capsys):
        code, _, err = run(["simulate", "--target", "1.0", "--rig", "left:3"], capsys)
        assert code == 2
        assert "rig" in err

    @pytest.mark.parametrize("seed", [1.7, True, "3", -3], ids=repr)
    def test_scenario_seed_must_be_a_non_negative_integer(self, tmp_path, capsys, seed):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({"target_speed": 1.0, "seed": seed}))
        code, out, err = run(["simulate", "--scenario", str(scenario)], capsys)
        assert code == 2
        assert out == ""
        assert f"seed must be an integer >= 0, got {seed!r}" in err

    @pytest.mark.parametrize("key", ["user_height", "variant", "countdown", "noise_sd", "rig"])
    def test_null_scenario_value_is_bad_input_naming_its_key(self, tmp_path, capsys, key):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({"target_speed": 1.0, key: None}))
        code, out, err = run(["simulate", "--scenario", str(scenario)], capsys)
        assert code == 2
        assert out == ""
        assert f"error: scenario.{key}: " in err

    @pytest.mark.parametrize(
        "key,value",
        [
            ("target_speed", True),
            ("countdown", "2"),
            ("noise_sd", "0.1"),
            ("speed_gain", [1.2]),
            ("timestep", {"hz": 90}),
            ("variant", 1),
            ("rig", 4),
            ("target_speed", 10**400),  # a JSON integer no float can hold
            ("noise_sd", 10**400),
        ],
        ids=lambda v: str(v)[:12],
    )
    def test_scenario_value_that_does_not_convert_is_bad_input(
        self, tmp_path, capsys, key, value
    ):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({"target_speed": 1.0, key: value}))
        code, out, err = run(["simulate", "--scenario", str(scenario)], capsys)
        assert code == 2
        assert out == ""
        assert f"error: scenario.{key}: " in err

    def test_negative_seed_flag_is_bad_input(self, capsys):
        code, out, err = run(["simulate", "--target", "1.0", "--seed", "-3"], capsys)
        assert code == 2
        assert out == ""
        assert "seed must be an integer >= 0, got -3" in err

    @pytest.mark.parametrize(
        "flags, name",
        [(["--rig", "up:1000"], "scenario.rig"), (["--noise", "5"], "noise_sd")],
        ids=["rig", "noise"],
    )
    def test_rig_and_noise_past_their_bounds_are_bad_input_naming_them(
        self, flags, name, capsys
    ):
        code, out, err = run(["simulate", "--target", "1", *flags], capsys)
        assert code == 2
        assert out == ""
        assert f"error: {name}" in err

    def test_a_walker_at_the_rig_and_noise_bounds_stays_under_the_ceiling(self, capsys):
        argv = ["simulate", "--target", "0.3", "--variant", "gud", "--rig", "up:100",
                "--noise", "0.01"]
        assert run(argv, capsys)[0] == 0

    def test_timestep_below_the_minimum_sample_rate_is_bad_input(self, capsys):
        code, out, err = run(["simulate", "--target", "1.5", "--timestep", "0.5"], capsys)
        assert code == 2
        assert out == ""
        assert "timestep must be <= 1/30 s" in err


# commands whose only output file is --out; it is written as record's and
# replay's outputs are
REPORT_COMMANDS = {
    "simulate": ["simulate", "--target", "1.0", "--seed", "2"],
    "calibrate-bands": ["calibrate-bands", "--direction", "down"],
}


class TestReportOut:
    @pytest.mark.parametrize("command", REPORT_COMMANDS.values(), ids=REPORT_COMMANDS)
    def test_an_existing_out_file_is_overwritten(self, tmp_path, capsys, command):
        report = tmp_path / "r.json"
        args = [*command, "--out", str(report)]
        assert run(args, capsys)[0] == 0
        want = report.read_bytes()
        report.write_bytes(b"x" * (len(want) + 100))
        assert run(args, capsys)[0] == 0
        assert report.read_bytes() == want

    @pytest.mark.parametrize("command", REPORT_COMMANDS.values(), ids=REPORT_COMMANDS)
    def test_out_may_be_a_device(self, capsys, command):
        code, out, err = run([*command, "--out", os.devnull], capsys)
        assert code == 0 and "error:" not in err and f"wrote {os.devnull}" in err
        assert "{" not in out  # the report went to the device

    @pytest.mark.parametrize("command", REPORT_COMMANDS.values(), ids=REPORT_COMMANDS)
    def test_an_out_path_that_cannot_be_opened_is_bad_input(self, tmp_path, capsys, command):
        code, out, err = run([*command, "--out", str(tmp_path / "no" / "such" / "r.json")], capsys)
        assert code == 2
        assert "error:" in err and "wrote" not in err and "{" not in out
        assert not (tmp_path / "no").exists()


class TestRecordReplay:
    def test_round_trip_is_bit_identical(self, tmp_path, capsys):
        trace = tmp_path / "run.csv"
        report = tmp_path / "recorded.json"
        code, _, _ = run(
            ["record", "--target", "1.5", "--seed", "8", "--noise", "0.003",
             "--trace-out", str(trace), "--out", str(report)],
            capsys,
        )
        assert code == 0
        code, replayed, _ = run(["replay", str(trace)], capsys)
        assert code == 0
        recorded = json.loads(report.read_text())
        assert json.loads(replayed)["metrics"] == recorded["metrics"]

    def test_record_prints_its_report_unless_out_is_given(self, tmp_path, capsys):
        trace, report = tmp_path / "run.csv", tmp_path / "recorded.json"
        args = ["record", "--target", "1.5", "--seed", "8", "--trace-out", str(trace)]
        code, printed, _ = run(args, capsys)
        assert code == 0
        assert run([*args, "--out", str(report)], capsys)[:2] == (0, "")
        assert printed == report.read_text()
        assert json.loads(printed)["kind"] == "chase"

    def test_variant_override_changes_the_outcome(self, tmp_path, capsys):
        trace = tmp_path / "run.csv"
        run(["record", "--target", "1.5", "--trace-out", str(trace)], capsys)
        _, base, _ = run(["replay", str(trace)], capsys)
        _, swapped, _ = run(["replay", str(trace), "--variant", "gud"], capsys)
        assert (
            json.loads(swapped)["metrics"]["avg_speed"]
            != json.loads(base)["metrics"]["avg_speed"]
        )

    def test_frames_out_writes_csv(self, tmp_path, capsys):
        trace = tmp_path / "run.csv"
        frames = tmp_path / "frames.csv"
        run(["record", "--target", "1.0", "--trace-out", str(trace)], capsys)
        code, _, _ = run(
            ["replay", str(trace), "--frames-out", str(frames)], capsys
        )
        assert code == 0
        lines = frames.read_text().splitlines()
        assert lines[0].startswith("time,")
        assert len(lines) > 100

    def test_bad_frames_out_path_writes_no_report(self, tmp_path, capsys):
        trace, report = tmp_path / "run.csv", tmp_path / "r.json"
        run(["record", "--target", "1.0", "--trace-out", str(trace)], capsys)
        code, out, err = run(
            ["replay", str(trace), "--out", str(report), "--frames-out", str(tmp_path)], capsys
        )
        assert (code, out) == (2, "")
        assert "error:" in err and "wrote" not in err
        assert not report.exists()

    def test_bad_out_path_writes_no_frames(self, tmp_path, capsys):
        trace, frames = tmp_path / "run.csv", tmp_path / "frames.csv"
        run(["record", "--target", "1.0", "--trace-out", str(trace)], capsys)
        code, out, err = run(
            ["replay", str(trace), "--out", str(tmp_path), "--frames-out", str(frames)], capsys
        )
        assert (code, out) == (2, "")
        assert "error:" in err and "wrote" not in err
        assert not frames.exists()

    def test_bad_frames_out_path_keeps_an_existing_report_file(self, tmp_path, capsys):
        trace, report = tmp_path / "run.csv", tmp_path / "old.json"
        run(["record", "--target", "1.0", "--trace-out", str(trace)], capsys)
        report.write_bytes(b'{"kept": true}\n')
        code, out, err = run(
            ["replay", str(trace), "--out", str(report),
             "--frames-out", str(tmp_path / "no" / "such" / "f.csv")], capsys
        )
        assert (code, out) == (2, "")
        assert "error:" in err and "wrote" not in err
        assert report.read_bytes() == b'{"kept": true}\n'

    def test_record_with_a_bad_out_path_writes_no_trace(self, tmp_path, capsys):
        trace = tmp_path / "t.csv"
        code, out, err = run(
            ["record", "--target", "1", "--trace-out", str(trace),
             "--out", str(tmp_path / "no" / "such" / "r.json")], capsys
        )
        assert (code, out) == (2, "")
        assert "error:" in err and "wrote" not in err
        assert not trace.exists()

    def test_record_with_a_bad_out_path_keeps_an_existing_trace_file(self, tmp_path, capsys):
        trace = tmp_path / "t.csv"
        trace.write_bytes(b"kept\n")
        code, out, err = run(
            ["record", "--target", "1", "--trace-out", str(trace),
             "--out", str(tmp_path / "no" / "such" / "r.json")], capsys
        )
        assert (code, out) == (2, "")
        assert "error:" in err and "wrote" not in err
        assert trace.read_bytes() == b"kept\n"

    def test_outputs_that_exist_are_overwritten(self, tmp_path, capsys):
        trace, report, frames = tmp_path / "run.csv", tmp_path / "r.json", tmp_path / "f.csv"
        run(["record", "--target", "1.0", "--trace-out", str(trace)], capsys)
        args = ["replay", str(trace), "--out", str(report), "--frames-out", str(frames)]
        assert run(args, capsys)[0] == 0
        want = report.read_bytes(), frames.read_bytes()
        report.write_bytes(b"x" * (len(want[0]) + 100))
        frames.write_bytes(b"y" * (len(want[1]) + 100))
        assert run(args, capsys)[0] == 0
        assert (report.read_bytes(), frames.read_bytes()) == want

    def test_outputs_may_be_devices(self, tmp_path, capsys):
        trace, report = tmp_path / "run.csv", tmp_path / "r.json"
        run(["record", "--target", "1.0", "--trace-out", str(trace)], capsys)
        report.write_bytes(b"x" * 100_000)
        code, _, err = run(
            ["replay", str(trace), "--out", str(report), "--frames-out", os.devnull], capsys
        )
        assert code == 0 and "error:" not in err
        assert json.loads(report.read_text())["kind"] == "replay"

    def test_missing_trace_file(self, capsys):
        code, _, err = run(["replay", "/nonexistent/trace.csv"], capsys)
        assert code == 2
        assert "error:" in err

    def test_malformed_trace(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("# wip-trace v1\ntime,foot,height\n0.0,L,0.0\noops\n")
        code, _, err = run(["replay", str(bad)], capsys)
        assert code == 2
        assert "line 4" in err

    @pytest.mark.parametrize("time", ["nan", "inf"])
    def test_non_finite_sample_time_is_bad_input(self, tmp_path, capsys, time):
        trace = tmp_path / "run.csv"
        run(["record", "--target", "1.0", "--trace-out", str(trace)], capsys)
        lines = trace.read_text().splitlines(keepends=True)
        row = next(i for i, line in enumerate(lines) if line.startswith("1.0,"))
        lines[row] = time + lines[row][lines[row].index(","):]
        trace.write_text("".join(lines))
        code, out, err = run(["replay", str(trace)], capsys)
        assert code == 2
        assert out == ""
        assert f"line {row + 1}" in err

    def test_non_finite_scenario_header_is_bad_input(self, tmp_path, capsys):
        trace = tmp_path / "run.csv"
        run(["record", "--target", "1.0", "--trace-out", str(trace)], capsys)
        text = trace.read_text()
        assert "# scenario.target_speed: 1.0\n" in text
        trace.write_text(text.replace(
            "# scenario.target_speed: 1.0\n", "# scenario.target_speed: nan\n"
        ))
        code, out, err = run(["replay", str(trace)], capsys)
        assert code == 2
        assert out == ""
        assert "target_speed must be finite" in err

    @pytest.mark.parametrize("key,value", [("seed", "nan"), ("rig", "inf"), ("bogus", "1e400")])
    def test_non_finite_scenario_value_is_bad_input_naming_its_line(self, tmp_path, capsys, key,
                                                                     value):
        trace = tmp_path / "run.csv"
        run(["record", "--target", "1.0", "--trace-out", str(trace)], capsys)
        lines = trace.read_text().split("\n")
        lines.insert(2, f"# scenario.{key}: {value}")
        trace.write_text("\n".join(lines))
        code, out, err = run(["replay", str(trace)], capsys)
        assert code == 2
        assert out == ""
        assert f"error: line 3: scenario.{key} must be finite, got '{value}'" in err

    @pytest.mark.parametrize("line", [
        "# sample_rate_hint: abc", "# user_height: nan", "# sample_rate_hint: inf",
        pytest.param("# sample_rate_hint: 1" + "0" * 400, id="# sample_rate_hint: 1000..."),
    ])
    def test_bad_header_number_is_bad_input_naming_its_line(self, tmp_path, capsys, line):
        trace = tmp_path / "run.csv"
        trace.write_text(f"# wip-trace v1\n{line}\ntime,foot,height\n0.0,L,0.0\n")
        code, out, err = run(["replay", str(trace)], capsys)
        assert code == 2
        assert out == ""
        assert f"line 2: {line[2:line.index(':')]} must be a finite number > 0" in err

    @pytest.mark.parametrize("key,value", [
        ("target_speed", "fast"), ("variant", "sideways"), ("target_speed", "1" + "0" * 400),
    ], ids=lambda v: v[:20])
    def test_bad_scenario_header_is_bad_input_naming_its_key(self, tmp_path, capsys, key,
                                                             value):
        trace = tmp_path / "run.csv"
        run(["record", "--target", "1.0", "--trace-out", str(trace)], capsys)
        text = trace.read_text()
        start = text.index(f"# scenario.{key}: ")
        end = text.index("\n", start)
        trace.write_text(text[:start] + f"# scenario.{key}: {value}" + text[end:])
        code, out, err = run(["replay", str(trace)], capsys)
        assert code == 2
        assert out == ""
        assert f"error: scenario.{key}: " in err

    def test_non_finite_gain_override_is_bad_input(self, tmp_path, capsys):
        trace = tmp_path / "run.csv"
        run(["record", "--target", "1.0", "--trace-out", str(trace)], capsys)
        code, out, err = run(["replay", str(trace), "--gain", "nan"], capsys)
        assert code == 2
        assert out == ""
        assert "speed_gain must be finite" in err

    def test_one_frame_trace_at_a_large_time_replays(self, tmp_path, capsys):
        """The scenario-less window ends just past the last frame, even
        where adding a small epsilon to its time changes nothing."""
        trace = tmp_path / "late.csv"
        save_trace(str(trace), core.Samples.of([core.FootSample(1e8, core.Foot.LEFT, 0.0)]))
        code, out, err = run(["replay", str(trace)], capsys)
        assert (code, err) == (0, "")
        assert json.loads(out)["metrics"]["avg_speed"] == 0.0

    def test_empty_trace_is_a_runtime_error(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        save_trace(str(empty), core.Samples.of([]))
        code, _, err = run(["replay", str(empty)], capsys)
        assert code == 3


class _FullDisk:
    """An open file whose every write fails as on a full disk."""

    def __init__(self, fh):
        self.fh = fh

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def __getattr__(self, name):
        return getattr(self.fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.fh.close()


def _full_disk_open(file, *args, **kwargs):
    """open, but a file whose name holds "full.out" fails every write."""
    fh = open(file, *args, **kwargs)
    return _FullDisk(fh) if "full.out" in os.fspath(file) else fh


class TestFailedWrite:
    """A write that fails is a runtime failure, whichever output it hits:
    every output that existed keeps its bytes, and no file is left behind."""

    @pytest.mark.parametrize("disk", ["file", "device"])
    @pytest.mark.parametrize("failing", [0, 1], ids=["first", "second"])
    @pytest.mark.parametrize("command", ["replay", "record"])
    def test_a_failed_write_changes_no_file(self, tmp_path, capsys, monkeypatch, command,
                                            failing, disk):
        trace, kept = tmp_path / "run.csv", tmp_path / "kept.out"
        assert run(["record", "--target", "1.0", "--trace-out", str(trace)], capsys)[0] == 0
        kept.write_bytes(b"kept\n")
        if disk == "device":
            if not os.access("/dev/full", os.W_OK):
                pytest.skip("no writable /dev/full")
            full = "/dev/full"
        else:
            full = str(tmp_path / "full.out")
            (tmp_path / "full.out").write_bytes(b"full\n")
            monkeypatch.setattr(traceio, "open", _full_disk_open, raising=False)
        outputs = [full, str(kept)] if failing == 0 else [str(kept), full]
        if command == "replay":
            args = ["replay", str(trace), "--out", outputs[0], "--frames-out", outputs[1]]
        else:
            args = ["record", "--target", "1.5", "--trace-out", outputs[0], "--out", outputs[1]]
        before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
        code, out, err = run(args, capsys)
        assert (code, out) == (3, "")
        assert f"error: {full}: {os.strerror(errno.ENOSPC)}" in err and "wrote" not in err
        assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before


class TestFailedRename:
    """A rename that fails undoes those that landed before it."""

    @pytest.mark.parametrize("links", [True, False], ids=["linked", "moved aside"])
    @pytest.mark.parametrize("frames_existed", [True, False], ids=["replaced", "new"])
    def test_a_failed_rename_restores_every_output(self, tmp_path, capsys, monkeypatch,
                                                   frames_existed, links):
        """The second rename fails, the frames' or, where the file system
        has no hard links and the old report is moved aside, the report's:
        the report gets its old bytes back, a new frames file is removed,
        and the run exits 3."""
        trace, report, frames = tmp_path / "run.csv", tmp_path / "r.json", tmp_path / "f.csv"
        assert run(["record", "--target", "1.0", "--trace-out", str(trace)], capsys)[0] == 0
        report.write_bytes(b"old report\n")
        if frames_existed:
            frames.write_bytes(b"old frames\n")
        before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
        replace, calls = os.replace, count(1)

        def second_replace_fails(src, dst):
            if next(calls) == 2:
                raise OSError(errno.EIO, os.strerror(errno.EIO))
            replace(src, dst)

        def no_hard_links(src, dst):
            raise OSError(errno.EPERM, os.strerror(errno.EPERM))

        monkeypatch.setattr(os, "replace", second_replace_fails)
        if not links:
            monkeypatch.setattr(os, "link", no_hard_links)
        args = ["replay", str(trace), "--out", str(report), "--frames-out", str(frames)]
        code, out, err = run(args, capsys)
        assert (code, out) == (3, "")
        assert f"error: {frames if links else report}: {os.strerror(errno.EIO)}" in err
        assert "wrote" not in err
        assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before


class TestStagedOutputs:
    """Outputs are written to temporaries that are renamed into place."""

    def test_a_run_leaves_only_its_outputs(self, tmp_path, capsys):
        trace, report, frames = tmp_path / "run.csv", tmp_path / "r.json", tmp_path / "f.csv"
        record = ["record", "--target", "1.0", "--trace-out", str(trace), "--out", str(report)]
        replay = ["replay", str(trace), "--out", str(report), "--frames-out", str(frames)]
        for args in (record, replay, replay):  # the second replay replaces both outputs
            assert run(args, capsys)[0] == 0
        assert sorted(os.listdir(tmp_path)) == ["f.csv", "r.json", "run.csv"]

    def test_a_symlinked_out_stays_a_symlink(self, tmp_path, capsys):
        target, link = tmp_path / "reports" / "r.json", tmp_path / "r.json"
        target.parent.mkdir()
        target.write_bytes(b"old\n")
        link.symlink_to(target)
        code, out, err = run(["simulate", "--target", "1.0", "--out", str(link)], capsys)
        assert (code, out, err) == (0, "", f"wrote {link}\n")
        assert link.is_symlink() and json.loads(target.read_text())["kind"] == "chase"
        assert os.listdir(target.parent) == ["r.json"]

    @pytest.mark.parametrize("mode", [0o600, 0o664])
    def test_a_replaced_file_keeps_its_mode_bits(self, tmp_path, capsys, mode):
        report = tmp_path / "r.json"
        report.write_bytes(b"old\n")
        report.chmod(mode)
        assert run(["simulate", "--target", "1.0", "--out", str(report)], capsys)[0] == 0
        assert stat.S_IMODE(report.stat().st_mode) == mode

    def test_a_new_file_gets_the_mode_bits_of_open(self, tmp_path, capsys):
        report = tmp_path / "r.json"
        umask = os.umask(0o027)
        try:
            assert run(["simulate", "--target", "1.0", "--out", str(report)], capsys)[0] == 0
        finally:
            os.umask(umask)
        assert stat.S_IMODE(report.stat().st_mode) == 0o666 & ~0o027

    @pytest.mark.skipif(os.name != "posix" or os.geteuid() == 0,
                        reason="needs file permissions that apply")
    def test_a_read_only_out_file_is_bad_input(self, tmp_path, capsys):
        report = tmp_path / "r.json"
        report.write_bytes(b"kept\n")
        report.chmod(0o444)
        code, out, err = run(["simulate", "--target", "1.0", "--out", str(report)], capsys)
        assert (code, out) == (2, "") and "error:" in err
        assert report.read_bytes() == b"kept\n" and os.listdir(tmp_path) == ["r.json"]


class TestCalibrateBands:
    def test_table_lists_each_target(self, capsys):
        code, out, _ = run(["calibrate-bands", "--direction", "down"], capsys)
        assert code == 0
        assert "bands" in out
        rows = [l for l in out.splitlines() if l.startswith("down")]
        assert len(rows) == 3

    def test_known_counts_appear(self, capsys):
        _, out, _ = run(
            ["calibrate-bands", "--direction", "up", "--targets", "1,3,5"], capsys
        )
        counts = [
            int(line.split()[3])
            for line in out.splitlines()
            if line.startswith("up")
        ]
        assert counts == [2, 6, 10]

    def test_out_flag(self, tmp_path, capsys):
        path = tmp_path / "bands.json"
        code, _, _ = run(
            ["calibrate-bands", "--direction", "down", "--out", str(path)], capsys
        )
        assert code == 0
        doc = json.loads(path.read_text())
        assert doc["kind"] == "calibration"
        assert [row["bands"] for row in doc["rows"]] == [4, 8, 12]

    def test_bad_targets_string(self, capsys):
        code, _, err = run(
            ["calibrate-bands", "--direction", "down", "--targets", "1,zap"], capsys
        )
        assert code == 2

    def test_zero_force_target(self, capsys):
        code, out, err = run(
            ["calibrate-bands", "--direction", "down", "--targets", "0"], capsys
        )
        assert code == 2
        assert out == ""  # no half-printed table before the error


    @pytest.mark.parametrize(
        "flags",
        [
            ["--direction", "down", "--height", "inf"],
            ["--direction", "down", "--height", "nan"],
            ["--direction", "up", "--targets", "inf"],
            ["--direction", "down", "--targets", "1,nan"],
        ],
        ids=lambda flags: " ".join(flags[-2:]),
    )
    def test_non_finite_input_is_bad_input_naming_its_flag(self, flags, capsys):
        code, out, err = run(["calibrate-bands", *flags], capsys)
        assert code == 2
        assert out == ""
        assert f"error: {flags[-2]} must be" in err

    @pytest.mark.parametrize("height", ["1e300", "2.0001", "-0.1"])
    def test_height_outside_the_sensor_range_is_bad_input_naming_its_flag(self, height, capsys):
        # 1e300 used to print a 301-digit foot height and a band count
        # extrapolated from the 25 cm law
        code, out, err = run(
            ["calibrate-bands", "--direction", "down", "--height", height], capsys
        )
        assert code == 2
        assert out == ""
        assert "error: --height must be a finite number in [0, 2.0] m" in err


class TestAcceptance:
    def test_single_check_passes(self, capsys):
        code, out, _ = run(["acceptance", "--only", "EQ1-ANCHOR"], capsys)
        assert code == 0
        assert "[PASS] EQ1-ANCHOR" in out
        assert "1/1 checks passed" in out

    def test_unknown_check_name_rejected_by_argparse(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["acceptance", "--only", "NOT-A-CHECK"])
        assert info.value.code == 2
        capsys.readouterr()

    def test_missing_config_is_bad_input(self, tmp_path, capsys):
        """Checks are picked with --only alone; a --config FILE is an
        unknown flag, which argparse rejects before any check runs."""
        with pytest.raises(SystemExit) as info:
            cli.main(["acceptance", "--config", str(tmp_path / "nope.json"),
                      "--only", "ELASTIC-ANCHORS"])
        assert info.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "unrecognized arguments: --config" in err

    def test_failing_check_exits_one(self, capsys, monkeypatch):
        from wiplab import acceptance, speed

        true_law = speed.law

        def broken_law(params):
            evaluate = true_law(params)
            return lambda f, sh: tuple(1.001 * v for v in evaluate(f, sh))

        monkeypatch.setattr(speed, "law", broken_law)
        code, out, _ = run(["acceptance", "--only", "EQ1-ANCHOR"], capsys)
        assert code == 1
        assert "[FAIL] EQ1-ANCHOR" in out
        assert "0/1 checks passed" in out


@pytest.mark.parametrize(
    "error, code",
    [
        (TraceParseError("bad", 3), 2),
        *[(getattr(core, name)("bad"), 2) for name in (
            "NonMonotonicTime", "OutOfRangeHeight", "NonPositiveGain",
            "NegativeExtension", "ZeroExtension", "InvalidRate",
        )],
        *[(getattr(core, name)("bad"), 3) for name in (
            "WipError", "DivergedSimulation", "EmptyWindow", "NonTermination", "WrongArity",
        )],
        (ValueError("bad"), 2),
        (OSError("bad"), 2),
    ],
    ids=lambda v: type(v).__name__ if isinstance(v, Exception) else str(v),
)
def test_errors_map_to_their_exit_codes(error, code, capsys, monkeypatch):
    def fail(args):
        raise error

    monkeypatch.setattr(cli, "cmd_calibrate_bands", fail)
    assert cli.main(["calibrate-bands", "--direction", "up"]) == code
    assert capsys.readouterr().err == f"error: {error}\n"


class TestOneFilePerArgument:
    """Two file arguments of one call that resolve to the same path are bad
    input, refused before any file is opened: the files already there keep
    their bytes."""

    def refused(self, args, files, flags, capsys):
        before = {path: path.read_bytes() for path in files}
        code, out, err = run(args, capsys)
        assert (code, out) == (2, "")
        assert f"error: {flags[0]} and {flags[1]} name the same file" in err
        assert "wrote" not in err
        assert {path: path.read_bytes() for path in files} == before

    def test_simulate_scenario_and_out(self, tmp_path, capsys):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({"target_speed": 1.0}))
        args = ["simulate", "--scenario", str(scenario), "--out", str(scenario)]
        self.refused(args, [scenario], ("--scenario", "--out"), capsys)

    def test_record_trace_out_and_out(self, tmp_path, capsys):
        trace = tmp_path / "r.csv"
        assert run(["record", "--target", "1.0", "--trace-out", str(trace)], capsys)[0] == 0
        (tmp_path / "sub").mkdir()
        same = str(tmp_path / "sub" / ".." / "r.csv")  # another spelling of the path
        args = ["record", "--target", "1.5", "--seed", "8", "--trace-out", str(trace),
                "--out", same]
        self.refused(args, [trace], ("--trace-out", "--out"), capsys)
        assert run(["replay", str(trace)], capsys)[0] == 0  # the trace still loads

    @pytest.mark.parametrize("out, frames_out, flags", [
        ("same.txt", "same.txt", ("--out", "--frames-out")),
        ("run.csv", None, ("trace", "--out")),
        (None, "run.csv", ("trace", "--frames-out")),
    ])
    def test_replay_trace_out_and_frames_out(self, tmp_path, capsys, out, frames_out, flags):
        trace, same = tmp_path / "run.csv", tmp_path / "same.txt"
        assert run(["record", "--target", "1.0", "--trace-out", str(trace)], capsys)[0] == 0
        same.write_text("kept\n")
        args = ["replay", str(trace)]
        if out is not None:
            args += ["--out", str(tmp_path / out)]
        if frames_out is not None:
            args += ["--frames-out", str(tmp_path / frames_out)]
        self.refused(args, [trace, same], flags, capsys)


class TestEntryPoint:
    def test_module_is_executable(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "wiplab", "--help"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "simulate" in proc.stdout
