"""On-disk formats: foot-sample traces and simulation reports.

Traces are line-oriented text: '#'-prefixed header lines carrying key:value
metadata, a column line, then one row per sample. Floats are written with
repr() so a load/save cycle is lossless, and load_trace returns the samples
as columns (core.Samples), parsed a column at a time. Reports are JSON
documents with a schema_version field.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from itertools import repeat
from typing import Any, Callable, Sequence

import numpy as np

from .core import (
    HEIGHT_CEILING,
    HEIGHT_FLOOR,
    DivergedSimulation,
    Foot,
    FootSample,
    Samples,
    Variant,
    WipError,
    WipParams,
    validate_sample,
)
from .elastic import ElasticRig, PullDirection
from .harness import ChaseScenario

TRACE_MAGIC = "wip-trace v1"
REPORT_SCHEMA_VERSION = 1


class TraceParseError(WipError):
    """Malformed trace file; carries the offending 1-based line number."""

    exit_code = 2

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass
class TraceHeader:
    sample_rate_hint: float | None = None
    user_height: float | None = None
    scenario: dict[str, Any] = field(default_factory=dict)  # flat echo, may be empty


def save_trace(
    path: str,
    samples: Sequence[FootSample],
    *,
    sample_rate_hint: float | None = None,
    user_height: float | None = None,
    scenario: dict[str, Any] | None = None,
) -> None:
    """Write samples with a commented header. Rows must be sorted by time."""
    lines = [f"# {TRACE_MAGIC}"]
    if sample_rate_hint is not None:
        lines.append(f"# sample_rate_hint: {sample_rate_hint!r}")
    if user_height is not None:
        lines.append(f"# user_height: {user_height!r}")
    for key, value in (scenario or {}).items():
        lines.append(f"# scenario.{key}: {value!r}")
    lines.append("time,foot,height")
    for s in samples:
        lines.append(f"{s.time!r},{s.foot.value},{s.height!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _parse_scalar(text: str):
    text = text.strip()
    if text.startswith("'") and text.endswith("'") and len(text) >= 2:
        return text[1:-1]
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


_COLUMNS = "time,foot,height"
_IS_LEFT = {Foot.LEFT.value: True, Foot.RIGHT.value: False}


def _header_line(header: TraceHeader, line: str, lineno: int) -> bool:
    """Apply one '#' line to header; True when it is the format line.

    sample_rate_hint and user_height must be finite numbers > 0. Unknown
    keys are ignored for forward compatibility.
    """
    body = line[1:].strip()
    if body == TRACE_MAGIC:
        return True
    if ":" not in body:
        raise TraceParseError(f"malformed header {body!r}", lineno)
    key, _, value = body.partition(":")
    key = key.strip()
    if key in ("sample_rate_hint", "user_height"):
        try:
            number = float(_parse_scalar(value))
        except ValueError:
            number = math.nan
        if not 0.0 < number < math.inf:
            raise TraceParseError(
                f"{key} must be a finite number > 0, got {value.strip()!r}", lineno
            )
        setattr(header, key, number)
    elif key.startswith("scenario."):
        header.scenario[key[len("scenario."):]] = _parse_scalar(value)
    return False


def load_trace(path: str) -> tuple[TraceHeader, Samples]:
    """Read a trace; raises TraceParseError with a line number on bad input.

    The samples come back as columns, a Samples, which iterates as
    FootSamples. The rows after the column line are parsed by column when
    that parse accepts them as clean; anything else (a wrong field count, a
    failed conversion or check, blank or '#' lines among the rows) is left
    to the line walk, which checks every line in file order and names the
    offending one.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    header = TraceHeader()
    samples: list[FootSample] = []
    saw_magic = False
    saw_columns = False
    last_time: float | None = None
    last_time_per_foot: dict[Foot, float] = {}
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            saw_magic = _header_line(header, line, lineno) or saw_magic
            continue
        if not saw_magic:
            raise TraceParseError("missing trace format line", lineno)
        if not saw_columns:
            if line.strip() != _COLUMNS:
                raise TraceParseError(f"unexpected column line {line!r}", lineno)
            saw_columns = True
            parsed = _parse_columns(lines[lineno:])
            if parsed is not None:
                return header, parsed
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise TraceParseError(f"expected 3 fields, got {len(parts)}", lineno)
        try:
            t = float(parts[0])
            foot = Foot(parts[1].strip())
            h = float(parts[2])
        except (ValueError, KeyError) as exc:
            raise TraceParseError(str(exc), lineno) from exc
        if last_time is not None and t < last_time:
            raise TraceParseError(
                f"rows not sorted by time ({t!r} after {last_time!r})", lineno
            )
        last_time = t
        sample = FootSample(time=t, foot=foot, height=h)
        try:
            validate_sample(sample, last_time_per_foot.get(foot))
        except WipError as exc:
            raise TraceParseError(str(exc), lineno) from exc
        last_time_per_foot[foot] = t
        samples.append(sample)
    if not saw_magic:
        raise TraceParseError("missing trace format line", 1)
    return header, Samples.of(samples)


def _parse_columns(rows: list[str]) -> Samples | None:
    """The samples of the data rows, parsed one column at a time, or None
    unless every row is a clean sample the line walk would accept."""
    if rows and not rows[-1]:
        rows.pop()  # the newline that ends the file
    if not rows:
        return Samples.of(())
    if set(map(str.count, rows, repeat(","))) != {2}:
        return None
    tokens = ",".join(rows).split(",")
    n = len(rows)
    try:
        t = np.fromiter(map(float, tokens[0::3]), float, n)
        left = np.fromiter(map(_IS_LEFT.__getitem__, tokens[1::3]), bool, n)
        h = np.fromiter(map(float, tokens[2::3]), float, n)
    except (ValueError, KeyError):
        return None
    del tokens

    t_left, t_right = t[left], t[~left]
    clean = (
        0.0 <= t[0]
        and t[-1] < math.inf
        and (t[1:] >= t[:-1]).all()
        and (t_left[1:] > t_left[:-1]).all()
        and (t_right[1:] > t_right[:-1]).all()
        and ((HEIGHT_FLOOR <= h) & (h <= HEIGHT_CEILING)).all()
    )
    return Samples(t, left, h) if clean else None


def _check_finite(obj: Any, path: str = "$") -> None:
    if isinstance(obj, bool):
        return
    if isinstance(obj, (int, float)):
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
    """Assemble a report document; numeric fields must be finite."""
    doc: dict[str, Any] = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "kind": kind,
        "scenario": scenario,
        "metrics": metrics_fields,
    }
    if rows is not None:
        doc["rows"] = rows
    _check_finite(doc)
    return doc


def save_report(path: str | None, document: dict[str, Any]) -> str:
    """Serialize a report; writes to path when given, always returns the text."""
    _check_finite(document)
    text = json.dumps(document, indent=2, sort_keys=True)
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return text


def load_report(path: str) -> dict[str, Any]:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


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
    """Render a rig as the compact form used on the command line, e.g. 'down:4'."""
    if rig is None or rig.direction is PullDirection.NONE:
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
    try:
        direction = PullDirection(direction_text)
        count = int(count_text)
    except ValueError as exc:
        raise ValueError(f"bad rig spec {text!r}: {exc}") from exc
    if direction is PullDirection.NONE or count < 1:
        raise ValueError(f"rig spec {text!r} needs a pull direction and >= 1 band")
    return ElasticRig(direction=direction, band_count=count)


def scenario_echo(
    scenario: ChaseScenario,
    params: WipParams,
    *,
    seed: int | None = None,
    noise_sd: float | None = None,
    rig: ElasticRig | None = None,
) -> dict[str, Any]:
    """Flatten a run configuration into trace-header key/value pairs."""
    echo: dict[str, Any] = {key: getattr(params, key) for key in PARAMS_KEYS}
    echo["variant"] = params.variant.value
    echo.update((key, getattr(scenario, key)) for key in SCENARIO_KEYS)
    if seed is not None:
        echo["seed"] = seed
    if noise_sd is not None:
        echo["noise_sd"] = noise_sd
    echo["rig"] = rig_spec(rig)
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
