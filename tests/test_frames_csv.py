"""The --frames-out CSV writer against the row-wise writer it replaced.

cli._write_frames formats one column at a time and repr's each distinct
value of a repeating column once. The old writer, one f-string per row, is
kept here as the reference: on hand-written traces, with non-canonical
number tokens, one foot, a late start and with or without a scenario
header, the two must write the same bytes.
"""

import contextlib
import io

from hypothesis import given, settings
from hypothesis import strategies as st

from wiplab import cli
from wiplab.harness import FrameRow, replay_trace
from wiplab.traceio import load_trace, params_from_echo, scenario_from_echo


def reference_frames_csv(rows):
    """The row-wise writer: one f-string of reprs per row."""
    lines = [",".join(FrameRow._fields)]
    for r in rows:
        lines.append(
            f"{r.time!r},{r.stage.value},{r.height_left!r},{r.height_right!r},"
            f"{r.est_frequency!r},{r.est_step_height!r},{r.raw_speed!r},"
            f"{r.output_speed!r},{r.position!r},{r.sphere!r},{r.error!r}"
        )
    return "\n".join(lines) + "\n"


# Hand-written heights: non-canonical spellings, both zeros, the floor.
HEIGHT_TOKENS = [
    "0.10", "1E-1", "+0.05", "5e-02", "0", "0.0", "-0.0", "-0.005", "0.004", "0.12",
    "0.3", "1.5e-1", "0.045000", "2.0", ".2", "+.08",
]
# Spellings of one time that all parse back to it exactly.
TIME_SPELLINGS = [repr, lambda t: "%.17e" % t, lambda t: "%.17E" % t, lambda t: "+" + repr(t)]
# A scenario whose stages all fall inside the first few frames.
SCENARIO_HEADER = [
    "# scenario.variant: 'gud'",
    "# scenario.target_speed: 1.0",
    "# scenario.prep_distance: 0.01",
    "# scenario.prep_duration: 0.01",
    "# scenario.countdown: 0.01",
    "# scenario.chase_duration: 1000.0",
]


@st.composite
def hand_written_traces(draw):
    frames = draw(st.integers(5, 60))
    dt = draw(st.sampled_from([1 / 90, 1 / 60, 0.05, 0.1]))
    start = draw(st.sampled_from([0.0, 0.0, 7.5, 31.0]))  # a late start
    feet = draw(st.sampled_from(["LR", "RL", "L", "R"]))  # one foot or both
    lines = ["# wip-trace v1"]
    if draw(st.booleans()):
        lines += SCENARIO_HEADER
    lines.append("time,foot,height")
    for k in range(frames):
        t = start + k * dt
        for foot in feet:
            spell = draw(st.sampled_from(TIME_SPELLINGS))
            lines.append(f"{spell(t)},{foot},{draw(st.sampled_from(HEIGHT_TOKENS))}")
    return "\n".join(lines) + "\n"


@settings(max_examples=100, deadline=None)
@given(text=hand_written_traces())
def test_column_writer_equals_the_row_writer(tmp_path_factory, text):
    workdir = tmp_path_factory.mktemp("frames")
    trace, frames = workdir / "t.csv", workdir / "frames.csv"
    trace.write_text(text)
    header, samples = load_trace(str(trace))
    _, log = replay_trace(
        samples, params_from_echo(header.scenario), scenario_from_echo(header.scenario)
    )
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(["replay", str(trace), "--frames-out", str(frames)]) == 0
    assert frames.read_bytes() == reference_frames_csv(log.rows).encode()


def test_repeating_column_keeps_the_sign_of_zero():
    column = (0.0, -0.0, 0.1, 0.1, -0.0, 1e-300)
    assert list(cli._column_text("error", column)) == list(map(repr, column))


def test_hand_written_tokens_come_out_canonical(tmp_path):
    trace, frames = tmp_path / "t.csv", tmp_path / "frames.csv"
    trace.write_text("# wip-trace v1\ntime,foot,height\n0.0,L,0.10\n0.0,R,1E-1\n0.10,L,+0.05\n")
    with contextlib.redirect_stderr(io.StringIO()), contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["replay", str(trace), "--frames-out", str(frames)]) == 0
    rows = [line.split(",") for line in frames.read_text().splitlines()[1:]]
    assert [row[:4] for row in rows] == [
        ["0.0", "chase", "0.1", "0.1"], ["0.1", "chase", "0.05", "0.0"],
    ]
