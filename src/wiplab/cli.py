"""Command-line interface.

Subcommands:
    simulate         run one chasing-task simulation and report metrics
    record           simulate and also save the foot-sample trace
    replay           feed a saved trace back through the pipeline
    calibrate-bands  band counts needed to hit force targets
    acceptance       run the named acceptance checks

Configuration precedence is flags > scenario file > built-in defaults.
Exit codes: 0 success, 1 failed acceptance check, 2 bad input, 3 runtime
failure (diverged/non-terminating/empty-window runs).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict
from itertools import islice
from operator import attrgetter
from typing import Any, Iterable, TextIO

import numpy as np

from . import acceptance as acceptance_mod
from .core import HEIGHT_CEILING, EmptyWindow, Variant, WipError
from .elastic import ElasticRig, PullDirection, bands_for_target, rig_force
from .harness import FrameRow, MetricsReport, RunLog, replay_trace, run_chase
from .synth import WalkerAgent
from .traceio import (
    PARAMS_KEYS,
    RUN_KEYS,
    _from_echo,
    load_trace,
    params_from_echo,
    parse_rig_spec,
    report_document,
    save_report,
    save_trace,
    scenario_echo,
    scenario_from_echo,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2  # WipError subclasses carry their own exit_code

# A JSON scenario file may set any of RUN_KEYS, and every run flag's dest is
# its key. WipParams and ChaseScenario default their own keys; target_speed
# has no default: it must come from the file or from --target.
RUN_DEFAULTS: dict[str, Any] = {"seed": 0, "noise_sd": 0.0, "rig": "none"}


def _load_scenario_file(path: str) -> dict[str, Any]:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise ValueError(f"{path}: scenario file must be a JSON object")
    unknown = sorted(set(data) - set(RUN_KEYS))
    if unknown:
        raise ValueError(f"{path}: unknown scenario keys: {', '.join(unknown)}")
    for key, value in data.items():
        # seed is checked as an integer >= 0, from the file or the flag, on merge
        kind = str if key in ("variant", "rig") else (int, float)
        if key != "seed" and (isinstance(value, bool) or not isinstance(value, kind)):
            raise ValueError(
                f"scenario.{key}: expected a JSON {'string' if kind is str else 'number'}, "
                f"got {json.dumps(value)}"
            )
    return data


def _merge_run_config(args: argparse.Namespace) -> dict[str, Any]:
    config = dict(RUN_DEFAULTS)
    if args.scenario:
        config.update(_load_scenario_file(args.scenario))
    config.update(
        (key, value) for key in RUN_KEYS if (value := getattr(args, key, None)) is not None
    )
    if config.get("target_speed") is None:
        raise ValueError(
            "no target speed: pass --target or a scenario file with target_speed"
        )
    seed = config["seed"]
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ValueError(f"seed must be an integer >= 0, got {seed!r}")
    return config


def _simulate(args: argparse.Namespace) -> tuple[MetricsReport, RunLog, dict[str, Any]]:
    """Run the chase the flags and scenario file configure; also return its
    echo, the flat key/value record of everything that was run."""
    config = _merge_run_config(args)
    params = params_from_echo(config)
    scenario = scenario_from_echo(config)
    rig = _from_echo(config, "rig", parse_rig_spec)
    noise_sd, seed = _from_echo(config, "noise_sd", float), config["seed"]
    agent = WalkerAgent(params, noise_sd=noise_sd, seed=seed, rig=rig)
    try:
        report, log = run_chase(scenario, agent, params)
    except EmptyWindow as exc:  # the scenario is too short, not the run at fault
        raise ValueError(
            f"chase_duration {scenario.chase_duration!r} s holds no frame at "
            f"timestep {scenario.timestep!r} s"
        ) from exc
    return report, log, scenario_echo(scenario, params, seed=seed, noise_sd=noise_sd, rig=rig)


def _emit_report(out: str | None, document: dict[str, Any]) -> None:
    text = save_report(out, document)
    if out is None:
        print(text)
    else:
        print(f"wrote {out}", file=sys.stderr)


# --frames-out columns that repeat values: estimates hold between footfalls,
# the speeds follow them, and the error holds while the sphere mirrors the
# walker
_REPEATING = ("est_frequency", "est_step_height", "raw_speed", "output_speed", "error")
_LINES_PER_WRITE = 512


def _column_text(name: str, column: tuple) -> Iterable[str]:
    """One frame column as text: floats by repr, a stage by its value. A
    repeating column is repr'd once per distinct value, keyed by its bits
    so that 0.0 and -0.0 stay apart."""
    if name == "stage":
        return map(attrgetter("_value_"), column)  # .value is a Python-level property
    if name not in _REPEATING:
        return map(repr, column)
    distinct, at = np.unique(np.array(column).view(np.int64), return_inverse=True)
    text = np.array(list(map(repr, distinct.view(float).tolist())), dtype=object)
    return text[at].tolist()


def _write_frames(fh: TextIO, rows: list[FrameRow]) -> None:
    """Write rows as CSV to fh: each column is formatted on its own, and the
    lines are joined and written a few hundred at a time."""
    fh.write(",".join(FrameRow._fields) + "\n")
    lines = map(",".join, zip(*map(_column_text, FrameRow._fields, zip(*rows))))
    while chunk := list(islice(lines, _LINES_PER_WRITE)):
        fh.write("\n".join(chunk) + "\n")


def cmd_simulate(args: argparse.Namespace) -> int:
    report, _log, echo = _simulate(args)
    _emit_report(args.out, report_document("chase", echo, asdict(report)))
    return EXIT_OK


def cmd_record(args: argparse.Namespace) -> int:
    report, log, echo = _simulate(args)
    save_trace(
        args.trace_out,
        log.samples,
        sample_rate_hint=1.0 / echo["timestep"],
        user_height=echo["user_height"],
        scenario=echo,
    )
    print(f"wrote {args.trace_out}", file=sys.stderr)
    if args.out is not None:
        _emit_report(args.out, report_document("chase", echo, asdict(report)))
    return EXIT_OK


def _open_outputs(*paths: str | None) -> list[TextIO | None]:
    """Open each given path for writing, None for None, before anything is
    written: when one fails to open, the ones opened before it are removed
    again and the error propagates."""
    opened: list[TextIO | None] = []
    try:
        for path in paths:
            opened.append(None if path is None else open(path, "w", encoding="utf-8"))
    except OSError:
        for fh in filter(None, opened):
            fh.close()
            os.remove(fh.name)
        raise
    return opened


def cmd_replay(args: argparse.Namespace) -> int:
    header, samples = load_trace(args.trace)
    overrides = {key: value for key in PARAMS_KEYS if (value := getattr(args, key)) is not None}
    params = params_from_echo(header.scenario | overrides)
    scenario = scenario_from_echo(header.scenario)
    report, log = replay_trace(samples, params, scenario)
    text = save_report(None, report_document("replay", dict(header.scenario), asdict(report)))
    report_file, frames_file = _open_outputs(args.out, args.frames_out)
    if report_file is None:
        print(text)
    else:
        with report_file:
            report_file.write(text + "\n")
        print(f"wrote {args.out}", file=sys.stderr)
    if frames_file is not None:
        with frames_file:
            _write_frames(frames_file, log.rows)
        print(f"wrote {args.frames_out}", file=sys.stderr)
    return EXIT_OK


def cmd_calibrate_bands(args: argparse.Namespace) -> int:
    direction = PullDirection(args.direction)
    height = args.height
    if height is None:
        height = 0.156 if direction is PullDirection.DOWNWARD else 0.0
    if not 0.0 <= height <= HEIGHT_CEILING:
        raise ValueError(
            f"--height must be a finite number in [0, {HEIGHT_CEILING}] m, got {height!r}"
        )
    try:
        targets = [float(part) for part in args.targets.split(",") if part.strip()]
    except ValueError as exc:
        raise ValueError(f"bad --targets value {args.targets!r}: {exc}") from exc
    if not targets:
        raise ValueError("--targets must list at least one force in kgf")
    if not all(map(math.isfinite, targets)):
        raise ValueError(f"--targets must be finite numbers, got {args.targets!r}")

    rows: list[dict[str, Any]] = []
    for target_kgf in targets:
        count = bands_for_target(direction, target_kgf, height)
        reading = rig_force(ElasticRig(direction=direction, band_count=count), height)
        achieved_kgf = reading.magnitude / 9.81
        rows.append(
            {
                "direction": direction.value,
                "target_kgf": target_kgf,
                "foot_height_m": height,
                "bands": count,
                "achieved_kgf": achieved_kgf,
            }
        )
    print(f"{'direction':<10} {'target_kgf':>10} {'foot_height_m':>14} {'bands':>6} {'achieved_kgf':>13}")
    for row in rows:
        print(
            f"{row['direction']:<10} {row['target_kgf']:>10.3f} "
            f"{row['foot_height_m']:>14.3f} {row['bands']:>6d} "
            f"{row['achieved_kgf']:>13.3f}"
        )
    if args.out is not None:
        scenario = {"direction": direction.value, "foot_height_m": height}
        _emit_report(args.out, report_document("calibration", scenario, {}, rows=rows))
    return EXIT_OK


def _load_acceptance_config(path: str) -> list[str] | None:
    """The check names an acceptance config file selects, None for all."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            config = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(config, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    unknown = sorted(set(config) - {"only"})
    if unknown:
        raise ValueError(f"{path}: unknown config keys: {', '.join(unknown)}")
    if "only" not in config:
        return None
    only = config["only"]
    if not (isinstance(only, list) and only and all(isinstance(name, str) for name in only)):
        raise ValueError(
            f"{path}: only: expected a non-empty list of check names, got {json.dumps(only)}"
        )
    return only


def cmd_acceptance(args: argparse.Namespace) -> int:
    only: list[str] | None = args.only or None
    if args.config is not None:
        from_file = _load_acceptance_config(args.config)
        if only is None:
            only = from_file
    if only is not None:
        unknown = sorted(set(only) - set(acceptance_mod.CHECK_NAMES))
        if unknown:
            raise ValueError(f"unknown check names: {', '.join(unknown)}")

    results = acceptance_mod.run_all(only)
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        print(f"[{status}] {result.name}: {result.detail}")
    failed = sum(1 for r in results if not r.passed)
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return EXIT_OK if failed == 0 else EXIT_CHECK_FAILED


def _add_law_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--variant", choices=[v.value for v in Variant])
    parser.add_argument("--user-height", dest="user_height", type=float, metavar="M")
    parser.add_argument("--gain", dest="speed_gain", type=float, metavar="GAIN",
                        help="speed gain applied to raw speed")
    parser.add_argument("--natural-gain", dest="natural_visual_gain", type=float, metavar="G",
                        help="natural visual gain multiplier")


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scenario", metavar="FILE", help="JSON scenario file")
    _add_law_flags(parser)
    parser.add_argument("--target", dest="target_speed", type=float, metavar="TARGET",
                        help="chase target speed, m/s")
    parser.add_argument("--noise", dest="noise_sd", type=float, metavar="SD",
                        help="height noise SD, m")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--rig", help="elastic rig: none, up:<bands>, or down:<bands>")
    parser.add_argument("--timestep", type=float, metavar="S")
    parser.add_argument("--out", metavar="FILE", help="write the JSON report here")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wiplab",
        description="Walking-in-place locomotion laws and simulation harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one chasing-task simulation")
    _add_run_flags(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("record", help="simulate and save the foot-sample trace")
    _add_run_flags(p)
    p.add_argument("--trace-out", dest="trace_out", required=True, metavar="FILE")
    p.set_defaults(func=cmd_record)

    p = sub.add_parser("replay", help="re-run a saved trace through the pipeline")
    p.add_argument("trace", help="trace file written by record")
    _add_law_flags(p)
    p.add_argument("--out", metavar="FILE")
    p.add_argument("--frames-out", dest="frames_out", metavar="FILE",
                   help="also write per-frame rows as CSV")
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("calibrate-bands", help="band counts for force targets")
    p.add_argument("--direction", required=True, choices=["up", "down"])
    p.add_argument("--targets", default="1,2,3", metavar="KGF[,KGF...]",
                   help="comma-separated force targets in kgf (default 1,2,3)")
    p.add_argument("--height", type=float, metavar="M",
                   help="foot height to calibrate at (default 0.156 down, 0.0 up)")
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(func=cmd_calibrate_bands)

    p = sub.add_parser("acceptance", help="run the acceptance checks")
    p.add_argument("--config", metavar="FILE",
                   help='optional JSON config, e.g. {"only": ["EQ1-ANCHOR"]}')
    p.add_argument("--only", action="append", choices=acceptance_mod.CHECK_NAMES,
                   help="run only this check (repeatable)")
    p.set_defaults(func=cmd_acceptance)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (WipError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", EXIT_BAD_INPUT)


if __name__ == "__main__":
    sys.exit(main())
