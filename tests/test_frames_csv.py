"""The --frames-out CSV writer against the row-wise writer it replaced.

traceio._write_frames formats one column at a time, each float column with
traceio._float_text, which repr's each run of bit-equal entries once. The
old writer, one f-string per row, is kept here as the reference: on
hand-written traces, with non-canonical number tokens, one foot, a late
start and with or without a scenario header, and on run_chase's frames,
whose columns are strided views of one table, the two must write the same
bytes.
"""

import contextlib
import io
import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wiplab import cli, traceio
from wiplab.core import Variant, WipParams
from wiplab.harness import ChaseScenario, replay_trace, run_chase
from wiplab.synth import WalkerAgent
from wiplab.traceio import load_trace, read_run

from frame_rows import FrameRow, rows_of


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
@given(
    text=hand_written_traces(),
    chase=st.tuples(st.sampled_from(list(Variant)), st.sampled_from([0.0, 0.004]),
                    st.integers(0, 2**16), st.sampled_from([0.5, 1.5, 3.0])),
)
def test_column_writer_equals_the_row_writer(tmp_path_factory, text, chase):
    variant, noise_sd, seed, target = chase
    params = WipParams(variant=variant)
    scenario = ChaseScenario(target_speed=target, prep_duration=0.5, chase_duration=1.5)
    _, chased = run_chase(scenario, WalkerAgent(params, noise_sd=noise_sd, seed=seed), params)
    out = io.StringIO()
    traceio._write_frames(out, chased.rows)
    assert out.getvalue() == reference_frames_csv(rows_of(chased.rows))

    workdir = tmp_path_factory.mktemp("frames")
    trace, frames = workdir / "t.csv", workdir / "frames.csv"
    trace.write_text(text)
    echo, samples = load_trace(str(trace))
    replayed, walker = read_run(echo)
    _, log = replay_trace(samples, walker.params, replayed)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(["replay", str(trace), "--frames-out", str(frames)]) == 0
    assert frames.read_bytes() == reference_frames_csv(rows_of(log.rows)).encode()


EDGE_FLOATS = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324, 2.2e-308, 0.1]


@settings(max_examples=200, deadline=None)
@given(
    runs=st.lists(
        st.tuples(st.sampled_from(EDGE_FLOATS) | st.floats(), st.integers(1, 4)), max_size=16
    ),
    width=st.integers(1, 3),
)
@example(runs=[(0.0, 1), (-0.0, 1), (0.1, 2), (-0.0, 1), (1e-300, 1)], width=1)  # the sign of zero
@example(runs=[], width=2)
def test_float_text_is_the_repr_of_each_entry(runs, width):
    """Each entry's repr, for runs of equal values, both zeros, NaN, the
    infinities and subnormals, and for a column of a table width wide,
    which is strided unless width is 1."""
    table = np.zeros((sum(n for _, n in runs), width))
    table[:, -1] = [value for value, n in runs for _ in range(n)]
    column = table[:, -1]
    assert traceio._float_text(column) == list(map(repr, column.tolist()))


def test_hand_written_tokens_come_out_canonical(tmp_path):
    trace, frames = tmp_path / "t.csv", tmp_path / "frames.csv"
    trace.write_text("# wip-trace v1\ntime,foot,height\n0.0,L,0.10\n0.0,R,1E-1\n0.10,L,+0.05\n")
    with contextlib.redirect_stderr(io.StringIO()), contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["replay", str(trace), "--frames-out", str(frames)]) == 0
    rows = [line.split(",") for line in frames.read_text().splitlines()[1:]]
    assert [row[:4] for row in rows] == [
        ["0.0", "chase", "0.1", "0.1"], ["0.1", "chase", "0.05", "0.0"],
    ]
