"""The tests' reference row type for one frame, and its conversions to and
from harness.Frames columns.

The per-frame reference loops build a FrameRow per frame, as run_chase and
replay_trace did before they kept columns; rows_of reads a run's Frames back
as such rows, so that two runs compare frame by frame, repr for repr.
"""

from dataclasses import fields
from typing import NamedTuple

import numpy as np

from wiplab.harness import Frames, Stage


class FrameRow(NamedTuple):
    time: float
    stage: Stage
    height_left: float
    height_right: float
    est_frequency: float
    est_step_height: float
    raw_speed: float
    output_speed: float
    position: float
    sphere: float
    error: float  # sphere minus catch-circle center; positive means behind


assert FrameRow._fields == tuple(f.name for f in fields(Frames))


def rows_of(frames):
    """frames as FrameRows of Python floats and Stage members, in frame order."""
    columns = (getattr(frames, name).tolist() for name in FrameRow._fields)
    return [FrameRow(*row) for row in zip(*columns)]


def frames_of(rows):
    """The Frames whose rows are rows."""
    columns = list(zip(*rows)) or [()] * len(FrameRow._fields)
    return Frames(*(
        np.array(column, dtype=object if name == "stage" else float)
        for name, column in zip(FrameRow._fields, columns)
    ))
