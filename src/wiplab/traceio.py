"""On-disk formats: foot-sample traces, simulation reports and frame CSVs.

Traces are line-oriented text: '#'-prefixed header lines carrying key:value
metadata, a column line, then one row per sample. Floats are written with
repr() so a load/save cycle is lossless, and load_trace returns the
scenario echo and the samples as columns (core.Samples), read by NumPy's
C text reader (see load_trace). Reports are JSON documents with a
schema_version field. The frames CSV (replay's --frames-out) is a line of
harness.Frames field names, then a line per frame; it is written and never
read back. Both text tables format a float column with _float_text.
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
    FootSample,
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
_READER_ONLY = "\0\x1c\x1d\x1e\x1f"  # NumPy's reader drops or strips them, float() refuses
_FOOT_VALUE = (Foot.RIGHT.value, Foot.LEFT.value)  # by is-left


def save_trace(path: str, samples: Samples, *, scenario: dict[str, Any] | None = None) -> None:
    """Write samples with a commented header (trace_text). Rows must be
    sorted by time."""
    _write_files([(path, trace_text(samples, scenario or {}))])


def trace_text(samples: Samples, scenario: dict[str, Any]) -> str:
    """The trace file's text: the commented header, then a row per sample.

    The header's sample_rate_hint (1 / timestep) and user_height lines come
    from the scenario echo's timestep and user_height, when it has them.
    """
    lines = [f"# {TRACE_MAGIC}"]
    if "timestep" in scenario:
        lines.append(f"# sample_rate_hint: {1.0 / scenario['timestep']!r}")
    if "user_height" in scenario:
        lines.append(f"# user_height: {scenario['user_height']!r}")
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


def _header_line(echo: dict[str, Any], line: str, lineno: int) -> bool:
    """Apply one '#' line to the scenario echo; True when it is the format
    line.

    A scenario.<key> line sets echo[key]; a value that reads as a NaN or
    an infinite float raises. sample_rate_hint and user_height must be
    finite numbers > 0, checked and not kept: the echo holds the timestep
    and user_height they come from. Unknown keys are ignored, for forward compatibility.
    """
    body = line[1:].strip()
    if body == TRACE_MAGIC:
        return True
    if ":" not in body:
        raise TraceParseError(f"malformed header {body!r}", lineno)
    key, _, value = body.partition(":")
    key, number = key.strip(), _parse_scalar(value)
    if key in ("sample_rate_hint", "user_height"):
        try:
            number = float(number)
        except (ValueError, OverflowError):  # an integer past the largest float overflows
            number = math.nan
        if not 0.0 < number < math.inf:
            raise TraceParseError(f"{key} must be a finite number > 0, got {value.strip()!r}",
                                  lineno)
    elif key.startswith("scenario."):
        if isinstance(number, float) and not -math.inf < number < math.inf:
            raise TraceParseError(f"{key} must be finite, got {value.strip()!r}", lineno)
        echo[key[len("scenario."):]] = number
    return False


def load_trace(path: str) -> tuple[dict[str, Any], Samples]:
    """Read a trace as its scenario echo, the dict of its scenario.<key>
    header lines (empty when it has none), and a Samples; raises
    TraceParseError with a line number.

    Rows after the column line go through _parse_columns unless the text
    holds one of _READER_ONLY; else, or when it gives None, the line walk
    reads them in file order up to the first line it cannot, into one
    Samples.of. Then Samples.fault checks the stream; its fault goes first.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = (text := fh.read()).split("\n")
    echo, saw_magic = {}, False
    start = len(lines)  # past the column line, if there is one
    for lineno, line in enumerate(lines, start=1):
        if line.startswith("#"):
            saw_magic = _header_line(echo, line, lineno) or saw_magic
        elif line.strip():
            if not saw_magic:
                raise TraceParseError("missing trace format line", lineno)
            if line.strip() != _COLUMNS:
                raise TraceParseError(f"unexpected column line {line!r}", lineno)
            start = lineno
            break
    if not saw_magic:
        raise TraceParseError("missing trace format line", 1)
    samples = None if any(map(text.__contains__, _READER_ONLY)) else _parse_columns(lines[start:])
    row_lines: Sequence[int] = range(start + 1, len(lines) + 1)
    unread = None
    if samples is None:  # the line walk
        rows, row_lines = [], []
        try:
            for lineno, line in enumerate(lines[start:], start=start + 1):
                if line.startswith("#"):
                    _header_line(echo, line, lineno)
                elif line.strip():
                    rows.append(_row_sample(line))
                    row_lines.append(lineno)
        except (TraceParseError, ValueError) as exc:  # a header, field count or conversion
            unread = exc if isinstance(exc, TraceParseError) else TraceParseError(str(exc), lineno)
        samples = Samples.of(rows)
    fault = samples.fault()
    if fault is not None:
        i, unsorted, error = fault
        t = samples.time
        message = (f"rows not sorted by time ({t[i].item()!r} after {t[i - 1].item()!r})"
                   if unsorted else str(error))
        raise TraceParseError(message, row_lines[i]) from error
    if unread is not None:
        raise unread
    return echo, samples


def _row_sample(line: str) -> FootSample:
    """The sample of one data row of the line walk, or ValueError."""
    parts = line.split(",")
    if len(parts) != 3:
        raise ValueError(f"expected 3 fields, got {len(parts)}")
    return FootSample(float(parts[0]), Foot(parts[1].strip()), float(parts[2]))


def _parse_columns(rows: list[str]) -> Samples | None:
    """The samples of the data rows, which hold none of _READER_ONLY, read by
    one call of NumPy's C text reader with float()'s strtod; None unless
    there are rows, each a data row of two numbers and a foot L or R."""
    if rows and not rows[-1]:
        rows.pop()  # the newline that ends the file
    if not rows:  # the reader would warn
        return None
    try:  # a field count, or an underscore or a non-ASCII digit in a number
        table = np.loadtxt(rows, _ROW, delimiter=",", comments=None, ndmin=1)
    except ValueError:
        return None
    left = table["foot"] == Foot.LEFT.value
    if len(table) != len(rows) or not (left | (table["foot"] == Foot.RIGHT.value)).all():
        return None  # it skipped a blank row, or a foot is neither L nor R
    return Samples(table["time"].copy(), left, table["height"].copy())


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
# entries in the file, in the order of RUN_KEYS; a scenario file uses the
# same keys.

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
    """Inverse of rig_spec. Returns None for 'none'; raises ValueError otherwise."""
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
    that walked the run, and the scenario it walked. params_from_echo,
    scenario_from_echo and parse_rig_spec read them back."""
    params = agent.params
    echo: dict[str, Any] = {key: getattr(params, key) for key in PARAMS_KEYS}
    echo["variant"] = params.variant.value
    echo.update((key, getattr(scenario, key)) for key in SCENARIO_KEYS)
    echo.update(seed=agent.seed, noise_sd=agent.noise_sd, rig=rig_spec(agent.rig))
    return echo


def _from_echo(echo: dict[str, Any], key: str, convert: Callable[[Any], Any]) -> Any:
    """Convert one header value; a failure names its scenario.<key>."""
    try:
        return convert(echo[key])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"scenario.{key}: {exc}") from exc


def params_from_echo(echo: dict[str, Any]) -> WipParams:
    """Rebuild control-law settings from header metadata (defaults fill gaps)."""
    return WipParams(**{
        key: _from_echo(echo, key, Variant if key == "variant" else float)
        for key in PARAMS_KEYS if key in echo
    })


def scenario_from_echo(echo: dict[str, Any]) -> ChaseScenario | None:
    """Rebuild the chase scenario; None when the header has no target_speed.
    Keys that are not ChaseScenario fields, such as the retired
    sphere_radius of older traces, are ignored."""
    if "target_speed" not in echo:
        return None
    return ChaseScenario(**{
        key: _from_echo(echo, key, float) for key in SCENARIO_KEYS if key in echo
    })
