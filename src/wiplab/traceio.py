"""On-disk formats: foot-sample traces, simulation reports and frame CSVs.

A trace is exactly what trace_text writes: a header of '#'-prefixed lines,
the format line and a scenario.<key> line per echo value, then a column
line and one row per sample. Floats are written with repr() so a load/save
cycle is lossless, and load_trace returns the scenario echo and the samples
as columns (core.Samples), every row read by NumPy's C text reader (see
load_trace). The echo holds each scenario.<key> line once; read_run reads
it back as the run's scenario and walker, as it reads a scenario file and
the run flags. Reports are JSON documents with a schema_version field. The
frames CSV (replay's --frames-out) is a line of harness.Frames field names,
then a line per frame; it is written and never read back. Both text tables
format a float column with _float_text.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import fields
from itertools import islice
from operator import attrgetter
from typing import Any, Callable, Sequence, TextIO

import numpy as np

from .core import (
    DivergedSimulation,
    Foot,
    Samples,
    Variant,
    WipError,
    WipParams,
)
from .elastic import ElasticRig, PullDirection
from .harness import ChaseScenario, Frames
from .synth import WalkerAgent

TRACE_MAGIC = "wip-trace v1"
REPORT_SCHEMA_VERSION = 1


class TraceParseError(WipError):
    """Malformed trace file; carries the offending 1-based line number."""

    exit_code = 2

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


_COLUMNS = "time,foot,height"
_ROW = np.dtype([("time", float), ("foot", "U2"), ("height", float)])
_READER_ONLY = "\0\x1c\x1d\x1e\x1f"  # the reader drops or strips them: a row holding one is refused
_FOOT_VALUE = (Foot.RIGHT.value, Foot.LEFT.value)  # by is-left


def save_trace(path: str, samples: Samples, *, scenario: dict[str, Any] | None = None) -> None:
    """Write samples with a commented header (trace_text). Rows must be
    sorted by time."""
    _write_files([(path, trace_text(samples, scenario or {}))])


def trace_text(samples: Samples, scenario: dict[str, Any]) -> str:
    """The trace file's text: the format line, a scenario.<key> line per
    echo value, the column line, then a row per sample."""
    lines = [f"# {TRACE_MAGIC}"]
    for key, value in scenario.items():
        lines.append(f"# scenario.{key}: {value!r}")
    lines.append(_COLUMNS)
    feet = map(_FOOT_VALUE.__getitem__, samples.left.tolist())
    lines += map(",".join, zip(_float_text(samples.time), feet, _float_text(samples.height)))
    return "\n".join(lines) + "\n"


def _float_text(column: np.ndarray) -> list[str]:
    """The repr of each entry of a 1-D float64 column, which may be strided.
    Each run of bit-equal neighbours is repr'd once: a tick's samples share
    their time, and a frame estimate holds between footfalls. Neighbours
    compare as int64 bits, so 0.0 and -0.0 stay apart."""
    bits = column.view(np.int64)
    new = np.empty(bits.size, bool)
    new[:1] = True
    np.not_equal(bits[1:], bits[:-1], out=new[1:])
    text = np.array(list(map(repr, column[new].tolist())), object)
    return text[new.cumsum() - 1].tolist()


_LINES_PER_WRITE = 512


def _write_frames(fh: TextIO, frames: Frames) -> None:
    """Write frames as CSV to fh: the Frames field names, then a line per
    frame, each float by repr (_float_text) and each stage by its value.
    Each column is formatted on its own, and the lines are joined and
    written a few hundred at a time."""
    names = [f.name for f in fields(Frames)]
    fh.write(",".join(names) + "\n")
    columns = (getattr(frames, name) for name in names)
    # a stage by _value_, as .value is a Python-level property
    texts = (_float_text(c) if c.dtype == float else map(attrgetter("_value_"), c.tolist())
             for c in columns)
    lines = map(",".join, zip(*texts))
    while chunk := list(islice(lines, _LINES_PER_WRITE)):
        fh.write("\n".join(chunk) + "\n")


def _parse_scalar(text: str):
    text = text.strip()
    if text.startswith("'") and text.endswith("'") and len(text) >= 2:
        return text[1:-1]
    for convert in (int, float):
        try:
            return convert(text)
        except ValueError:
            pass
    return text


def _header_line(echo: dict[str, Any], set_at: dict[str, int], line: str, lineno: int) -> bool:
    """Apply one '#' line of the header to the scenario echo; True when it
    is the format line.

    A scenario.<key> line sets echo[key] and set_at[key] to its line; a
    value that reads as a NaN or an infinite float raises, and so does a
    key that an earlier line set, naming both lines. Any other key: value
    line is ignored, for forward compatibility, as are the sample_rate_hint
    and user_height lines that older versions wrote.
    """
    body = line[1:].strip()
    if body == TRACE_MAGIC:
        return True
    if ":" not in body:
        raise TraceParseError(f"malformed header {body!r}", lineno)
    key, _, value = body.partition(":")
    key = key.strip()
    if key.startswith("scenario."):
        number = _parse_scalar(value)
        if isinstance(number, float) and not -math.inf < number < math.inf:
            raise TraceParseError(f"{key} must be finite, got {value.strip()!r}", lineno)
        name = key[len("scenario."):]
        if name in set_at:
            raise TraceParseError(f"{key} repeats line {set_at[name]}", lineno)
        echo[name], set_at[name] = number, lineno
    return False


def load_trace(path: str) -> tuple[dict[str, Any], Samples]:
    """Read a trace as its scenario echo, the dict of its scenario.<key>
    header lines (empty when it has none), and a Samples; raises
    TraceParseError with a line number.

    The header, '#' lines (_header_line) and blank lines, runs to the
    column line. Every line after it is a row, but for the final newline
    and any blank lines at the end, and one _read_rows call reads them all.
    When it refuses them, _first_refused finds the first refused row, and
    Samples.fault checks the rows before it: a stream fault there goes
    first, then the refused row.
    """
    echo, set_at, saw_magic, lineno = {}, {}, False, 0
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.startswith("#"):
                saw_magic = _header_line(echo, set_at, line, lineno) or saw_magic
            elif columns := line.strip():
                if not saw_magic:
                    raise TraceParseError("missing trace format line", lineno)
                if columns != _COLUMNS:
                    raise TraceParseError(f"unexpected column line {columns!r}", lineno)
                break
        text = fh.read().rstrip("\n")  # the rows, row i on line lineno + 1 + i
    if not saw_magic:
        raise TraceParseError("missing trace format line", 1)
    refused = None
    samples = _read_rows(text) if text else Samples.of([])
    if samples is None:
        rows = text.split("\n")
        refused = _first_refused(rows)
        samples = _read_rows("\n".join(rows[:refused])) if refused else Samples.of([])
    fault = samples.fault()
    if fault is not None:
        i, unsorted, error = fault
        t = samples.time
        message = (f"rows not sorted by time ({t[i].item()!r} after {t[i - 1].item()!r})"
                   if unsorted else str(error))
        raise TraceParseError(message, lineno + 1 + i) from error
    if refused is not None:
        raise TraceParseError(f"expected a row of two numbers and a foot L or R, got "
                              f"{rows[refused]!r}", lineno + 1 + refused)
    return echo, samples


def _read_rows(text: str) -> Samples | None:
    """The samples of the rows in text, which has no final newline, read by
    one call of NumPy's C text reader with float()'s strtod; None when it
    refuses a row: a blank row, a row holding any of _READER_ONLY, or one
    that is not two numbers and a foot L or R."""
    rows = text.split("\n")
    if not rows[0] or any(map(text.__contains__, _READER_ONLY)):
        return None  # a blank first row: the reader would warn when no row follows
    try:  # a field count, or an underscore or a non-ASCII digit in a number
        table = np.loadtxt(rows, _ROW, delimiter=",", comments=None, ndmin=1)
    except ValueError:
        return None
    left = table["foot"] == Foot.LEFT.value
    if len(table) != len(rows) or not (left | (table["foot"] == Foot.RIGHT.value)).all():
        return None  # it skipped a blank row, or a foot is neither L nor R
    return Samples(table["time"].copy(), left, table["height"].copy())


_ROWS_PER_BLOCK = 256


def _first_refused(rows: list[str]) -> int:
    """The index of the first row _read_rows refuses, found by the reader
    itself: a block of rows at a time, then a row at a time inside the
    first refused block. Some row must be refused."""
    block = next(b for b in range(0, len(rows), _ROWS_PER_BLOCK)
                 if _read_rows("\n".join(rows[b:b + _ROWS_PER_BLOCK])) is None)
    return next(i for i in range(block, block + _ROWS_PER_BLOCK) if _read_rows(rows[i]) is None)


def _check_finite(obj: Any, path: str) -> None:
    if isinstance(obj, float):  # an int, of any size, is finite
        if not math.isfinite(obj):
            raise DivergedSimulation(f"non-finite value at {path}")
        return
    if isinstance(obj, dict):
        for k, v in obj.items():
            _check_finite(v, f"{path}.{k}")
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            _check_finite(v, f"{path}[{i}]")


def report_document(kind: str, scenario: dict[str, Any], metrics_fields: dict[str, float],
                    rows: list[dict[str, Any]] | None = None) -> dict[str, Any]:
    """Assemble a report document; save_report, which serializes it,
    refuses one that holds a NaN or an infinity."""
    doc: dict[str, Any] = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "kind": kind,
        "scenario": scenario,
        "metrics": metrics_fields,
    }
    if rows is not None:
        doc["rows"] = rows
    return doc


def save_report(path: str | None, document: dict[str, Any]) -> str:
    """Serialize a report; writes to path when given, always returns the
    text. A NaN or infinite number anywhere in it raises
    DivergedSimulation, naming its place."""
    _check_finite(document, "$")
    text = json.dumps(document, indent=2, sort_keys=True)
    if path is not None:
        _write_files([(path, text + "\n")])
    return text


def _write_files(outputs: Sequence[tuple[str, str | Callable[[TextIO], None]]]) -> None:
    """Write each (path, content), content a text or a function that writes
    to the file it is given. Every path is opened before any is written: a
    device in place, any other as a temporary beside its real path, which
    replaces it, keeping its mode bits, once every content is written. A
    failed rename undoes those that landed: a replaced file gets back its
    old content, kept beside it until then, and a new one is removed. A
    failed open raises OSError; a failed write or rename raises WipError."""
    staged: list[tuple[TextIO, str | None, str]] = []  # file, temporary, real path
    try:
        for path, _ in outputs:
            real = os.path.realpath(path)
            if os.path.exists(path) and not os.path.isfile(path):
                staged.append((open(path, "w", encoding="utf-8"), None, real))
                continue
            temp = f"{real}.{os.urandom(4).hex()}.tmp"
            staged.append((open(temp, "x", encoding="utf-8"), temp, real))
            if os.path.exists(real):  # a read-only file fails here, as with open(path, "w")
                open(real, "ab").close()
                os.chmod(temp, os.stat(real).st_mode & 0o7777)
        try:
            for (fh, _, _), (path, content) in zip(staged, outputs):
                with fh:
                    fh.write(content) if isinstance(content, str) else content(fh)
            renaming: list[tuple[str, str]] = []  # temporary, real path
            try:
                for (_, temp, real), (path, _) in zip(staged, outputs):
                    if temp is not None:
                        renaming.append((temp, real))
                        if os.path.exists(real):
                            _keep_content(real, f"{temp}.old")
                        os.replace(temp, real)
            except OSError:
                for temp, real in reversed(renaming):
                    if os.path.exists(f"{temp}.old"):
                        os.replace(f"{temp}.old", real)
                    elif not os.path.exists(temp):  # it landed on no file
                        os.remove(real)
                raise
        except OSError as exc:
            raise WipError(f"{path}: {exc.strerror or exc}") from exc
    except OSError as exc:  # a failed open names its output, not a temporary
        exc.filename = path
        raise
    finally:  # no temporary or kept content is left
        for fh, temp, _ in staged:
            fh.close()
            for leftover in (temp, f"{temp}.old") if temp is not None else ():
                if os.path.exists(leftover):
                    os.remove(leftover)


def _keep_content(real: str, kept: str) -> None:
    """Keep real's content at kept until its replacement has landed: a hard
    link, or where the file system has none, real itself moved aside."""
    try:
        os.link(real, kept)
    except OSError:
        os.replace(real, kept)


# --- scenario echo ---------------------------------------------------------
#
# A recorded trace carries enough header metadata to re-run the exact same
# simulation: the chase scenario geometry, the control-law settings, and the
# agent's noise/seed/rig configuration. Keys are flat "scenario.<name>"
# entries in the file, in the order of RUN_KEYS; a scenario file and the run
# flags use the same keys. scenario_echo writes them and read_run, the one
# reader of run values, reads them back, whatever their source.

PARAMS_KEYS = ("variant", "user_height", "speed_gain", "natural_visual_gain")
SCENARIO_KEYS = tuple(f.name for f in fields(ChaseScenario))
AGENT_KEYS = ("seed", "noise_sd", "rig")
RUN_KEYS = PARAMS_KEYS + SCENARIO_KEYS + AGENT_KEYS


def rig_spec(rig: ElasticRig | None) -> str:
    """Render a rig as the compact form used on the command line, e.g.
    'down:4', and no rig (None) as 'none'."""
    if rig is None:
        return "none"
    return f"{rig.direction.value}:{rig.band_count}"


def parse_rig_spec(text: str) -> ElasticRig | None:
    """Inverse of rig_spec. Returns None for 'none'; raises ValueError for
    any other value that is not a rig spec, a value that is not a text too."""
    if not isinstance(text, str):
        raise ValueError(f"rig spec must be a text such as 'down:4', got {text!r}")
    text = text.strip().lower()
    if text == "none":
        return None
    direction_text, sep, count_text = text.partition(":")
    if not sep:
        raise ValueError(f"rig spec {text!r} must look like 'down:4', 'up:6', or 'none'")
    try:  # ElasticRig holds 1 to MAX_BANDS bands
        return ElasticRig(direction=PullDirection(direction_text), band_count=int(count_text))
    except ValueError as exc:
        raise ValueError(f"bad rig spec {text!r}: {exc}") from exc


def scenario_echo(scenario: ChaseScenario, agent: WalkerAgent) -> dict[str, Any]:
    """Flatten a run configuration into trace-header key/value pairs, in
    RUN_KEYS order: the law settings, seed, noise_sd and rig of the agent
    that walked the run, and the scenario it walked. read_run is its
    inverse."""
    params = agent.params
    echo: dict[str, Any] = {key: getattr(params, key) for key in PARAMS_KEYS}
    echo["variant"] = params.variant.value
    echo.update((key, getattr(scenario, key)) for key in SCENARIO_KEYS)
    echo.update(seed=agent.seed, noise_sd=agent.noise_sd, rig=rig_spec(agent.rig))
    return echo


def _number(value: Any) -> float:
    """A number key's value as a float: an int or a float, never a bool or a text."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


# How read_run reads each key; seed goes as it is, since WalkerAgent checks it.
_READERS: dict[str, Callable[[Any], Any]] = {
    **dict.fromkeys(RUN_KEYS, _number),
    "variant": Variant,
    "rig": parse_rig_spec,
    "seed": lambda seed: seed,
}


def read_run(echo: dict[str, Any]) -> tuple[ChaseScenario | None, WalkerAgent]:
    """Inverse of scenario_echo: the chase scenario, None when echo has no
    target_speed, and the walker, with its law settings, of the RUN_KEYS
    in echo; WipParams, ChaseScenario and WalkerAgent default the rest and
    check every value. A value that does not convert raises ValueError
    naming its scenario.<key>. Other keys, such as the retired
    sphere_radius of older traces, are ignored."""
    run: dict[str, Any] = {}
    for key in RUN_KEYS:
        if key in echo:
            try:
                run[key] = _READERS[key](echo[key])
            except (TypeError, ValueError, OverflowError) as exc:
                raise ValueError(f"scenario.{key}: {exc}") from exc
    params = WipParams(**{key: run[key] for key in PARAMS_KEYS if key in run})
    scenario = None
    if "target_speed" in run:
        scenario = ChaseScenario(**{key: run[key] for key in SCENARIO_KEYS if key in run})
    return scenario, WalkerAgent(params, **{key: run[key] for key in AGENT_KEYS if key in run})
