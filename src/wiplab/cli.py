"""Command-line interface.

Subcommands:
    simulate         run one chasing-task simulation and report metrics
    record           simulate and also save the foot-sample trace
    replay           feed a saved trace back through the pipeline
    calibrate-bands  band counts needed to hit force targets
    acceptance       run the named acceptance checks

Configuration precedence is flags > scenario file > built-in defaults.
Exit codes: 0 success, 1 failed acceptance check, 2 bad input, 3 runtime
failure (diverged/non-terminating/empty-window runs, failed writes).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict
from functools import cache
from typing import Any, Callable, TextIO

from . import acceptance as acceptance_mod
from .core import HEIGHT_CEILING, EmptyWindow, Variant, WipError
from .elastic import (
    DOWNWARD_CALIBRATION_HEIGHT,
    KGF_TO_N,
    ElasticRig,
    PullDirection,
    bands_for_target,
    rig_force,
)
from .harness import MetricsReport, RunLog, replay_trace, run_chase
from .synth import WalkerAgent
from .traceio import (
    PARAMS_KEYS,
    RUN_KEYS,
    _from_echo,
    _write_files,
    _write_frames,
    load_trace,
    params_from_echo,
    parse_rig_spec,
    report_document,
    save_report,
    scenario_echo,
    scenario_from_echo,
    trace_text,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2  # WipError subclasses carry their own exit_code


def _load_scenario_file(path: str) -> dict[str, Any]:
    """The JSON object in the scenario file at path, which may hold only
    RUN_KEYS, each a string or a number. Errors name the path, a decode
    error its line."""
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
        # seed is checked as an integer >= 0, from the file or the flag, by WalkerAgent
        kind = str if key in ("variant", "rig") else (int, float)
        if key != "seed" and (isinstance(value, bool) or not isinstance(value, kind)):
            raise ValueError(
                f"scenario.{key}: expected a JSON {'string' if kind is str else 'number'}, "
                f"got {json.dumps(value)}"
            )
    return data


def _merge_run_config(args: argparse.Namespace) -> dict[str, Any]:
    """The run keys the scenario file and the flags set, the flags winning.
    A file may set any of RUN_KEYS, and every run flag's dest is its key.
    WipParams, ChaseScenario and WalkerAgent default the keys neither sets;
    target_speed has no default: it must come from the file or --target."""
    config = _load_scenario_file(args.scenario) if args.scenario else {}
    config.update(
        (key, value) for key in RUN_KEYS if (value := getattr(args, key, None)) is not None
    )
    if config.get("target_speed") is None:
        raise ValueError(
            "no target speed: pass --target or a scenario file with target_speed"
        )
    return config


def _simulate(args: argparse.Namespace) -> tuple[MetricsReport, RunLog, dict[str, Any]]:
    """Run the chase the flags and scenario file configure; also return its
    echo, the flat key/value record of everything that was run."""
    config = _merge_run_config(args)
    params = params_from_echo(config)
    scenario = scenario_from_echo(config)
    # only the walker settings the config holds; WalkerAgent defaults the rest
    converters = (("rig", parse_rig_spec), ("noise_sd", float), ("seed", lambda seed: seed))
    agent = WalkerAgent(params, **{
        key: _from_echo(config, key, convert) for key, convert in converters if key in config
    })
    try:
        report, log = run_chase(scenario, agent, params)
    except EmptyWindow as exc:  # the scenario is too short, not the run at fault
        raise ValueError(
            f"chase_duration {scenario.chase_duration!r} s holds no frame at "
            f"timestep {scenario.timestep!r} s"
        ) from exc
    return report, log, scenario_echo(scenario, agent)


def _report_text(kind: str, scenario: dict[str, Any], metrics: dict[str, Any], **extra) -> str:
    return save_report(None, report_document(kind, scenario, metrics, **extra)) + "\n"


def _write_outputs(*outputs: tuple[str | None, str | Callable[[TextIO], None]]) -> None:
    """Write each (path, content) with traceio's writer; after it, a text
    without a path goes to stdout and a function without one is skipped."""
    _write_files([output for output in outputs if output[0] is not None])
    for path, content in outputs:
        if path is not None:
            print(f"wrote {path}", file=sys.stderr)
        elif isinstance(content, str):
            sys.stdout.write(content)


def cmd_simulate(args: argparse.Namespace) -> int:
    report, _log, echo = _simulate(args)
    _write_outputs((args.out, _report_text("chase", echo, asdict(report))))
    return EXIT_OK


def cmd_record(args: argparse.Namespace) -> int:
    report, log, echo = _simulate(args)
    trace = trace_text(log.samples, echo)
    _write_outputs((args.trace_out, trace), (args.out, _report_text("chase", echo, asdict(report))))
    return EXIT_OK


def cmd_replay(args: argparse.Namespace) -> int:
    echo, samples = load_trace(args.trace)
    overrides = {key: value for key in PARAMS_KEYS if (value := getattr(args, key)) is not None}
    params = params_from_echo(echo | overrides)
    scenario = scenario_from_echo(echo)
    report, log = replay_trace(samples, params, scenario)
    _write_outputs(
        (args.out, _report_text("replay", echo, asdict(report))),
        (args.frames_out, lambda fh: _write_frames(fh, log.rows)),
    )
    return EXIT_OK


def cmd_calibrate_bands(args: argparse.Namespace) -> int:
    direction = PullDirection(args.direction)
    height = args.height
    if height is None:
        height = DOWNWARD_CALIBRATION_HEIGHT if direction is PullDirection.DOWNWARD else 0.0
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
        force = rig_force(ElasticRig(direction=direction, band_count=count), height)
        achieved_kgf = abs(force) / KGF_TO_N
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
        _write_outputs((args.out, _report_text("calibration", scenario, {}, rows=rows)))
    return EXIT_OK


def cmd_acceptance(args: argparse.Namespace) -> int:
    results = acceptance_mod.run_all(args.only)  # argparse admits only CHECK_NAMES
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


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command line's parser, built once per process; each subcommand
    runs the cmd_ function of its name."""
    parser = argparse.ArgumentParser(
        prog="wiplab",
        description="Walking-in-place locomotion laws and simulation harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one chasing-task simulation")
    _add_run_flags(p)

    p = sub.add_parser("record", help="simulate and save the foot-sample trace")
    _add_run_flags(p)
    p.add_argument("--trace-out", dest="trace_out", required=True, metavar="FILE")

    p = sub.add_parser("replay", help="re-run a saved trace through the pipeline")
    p.add_argument("trace", help="trace file written by record")
    _add_law_flags(p)
    p.add_argument("--out", metavar="FILE")
    p.add_argument("--frames-out", dest="frames_out", metavar="FILE",
                   help="also write per-frame rows as CSV")

    p = sub.add_parser("calibrate-bands", help="band counts for force targets")
    p.add_argument("--direction", required=True, choices=["up", "down"])
    p.add_argument("--targets", default="1,2,3", metavar="KGF[,KGF...]",
                   help="comma-separated force targets in kgf (default 1,2,3)")
    p.add_argument("--height", type=float, metavar="M", help=(
        f"foot height to calibrate at (default {DOWNWARD_CALIBRATION_HEIGHT} down, 0.0 up)"))
    p.add_argument("--out", metavar="FILE")

    p = sub.add_parser("acceptance", help="run the acceptance checks")
    p.add_argument("--only", action="append", choices=acceptance_mod.CHECK_NAMES,
                   help="run only this check (repeatable)")

    return parser


# The file arguments of each command that reads and writes several, by dest
# and flag: no two of one call may name the same file.
_FILE_ARGS = {
    "simulate": (("scenario", "--scenario"), ("out", "--out")),
    "record": (("scenario", "--scenario"), ("trace_out", "--trace-out"), ("out", "--out")),
    "replay": (("trace", "trace"), ("out", "--out"), ("frames_out", "--frames-out")),
}


def _check_distinct_files(args: argparse.Namespace) -> None:
    """Raise ValueError naming both flags when two of the command's file
    arguments resolve to one path: one output would overwrite the other,
    or the input."""
    seen: dict[str, str] = {}
    for dest, flag in _FILE_ARGS.get(args.command, ()):
        path = getattr(args, dest)
        if path is None:
            continue
        real = os.path.realpath(path)
        if real in seen:
            raise ValueError(f"{seen[real]} and {flag} name the same file: {path}")
        seen[real] = flag


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handler = globals()["cmd_" + args.command.replace("-", "_")]  # looked up per call
    try:
        _check_distinct_files(args)
        return handler(args)
    except (WipError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", EXIT_BAD_INPUT)


if __name__ == "__main__":
    sys.exit(main())
