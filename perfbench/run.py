#!/usr/bin/env python3
"""wiplab benchmark: closed-loop chase sweeps, trace replay and the
acceptance gate, with an optional traced run for per-layer figures.

Run from the repository root:

    python3 perfbench/run.py --workload chase --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload replay --seed 3 --seconds 20 --trace 1
    python3 perfbench/run.py --workload gate --seed 0 --seconds 20 --trace 0 --smoke

The package is imported from ``src/`` next to this directory; nothing is
installed. Each run sets up its inputs (several times, to time set-up),
then runs passes of the workload back to back, one at a time, until
``--seconds`` have elapsed, and checks every pass's outputs after its timer
stopped. ``--trace 0`` reports the end-to-end metrics of BENCHMARK.json;
``--trace 1`` alternates untraced and traced passes and reports its
per-layer metrics. End-to-end times are rescaled to a reference host speed
(calibrate.py); per-layer times are raw. Human-readable lines start with
``#``; the last line of standard output is the JSON result.

Exit status: 0 when every output was correct, 1 when a check failed (the
result is still printed), 2 when the wiplab sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, summarize_pass  # noqa: E402

IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import wiplab, wiplab.cli\n"
    "print(repr(time.perf_counter() - t))\n"
)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="how long the passes run (the last pass completes)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and one pass, for the benchmark's own tests")
    return parser.parse_args(argv)


def import_wiplab(src: Path):
    """Import the package from the checkout; returns (package, seconds)."""
    sys.path.insert(0, str(src))
    t0 = perf_counter()
    import wiplab
    import wiplab.cli  # noqa: F401  (not pulled in by the package itself)
    seconds = perf_counter() - t0
    if Path(wiplab.__file__).resolve().parent != src / "wiplab":
        raise ImportError(f"wiplab imported from {wiplab.__file__}, not {src}")
    return wiplab, seconds


def fresh_import_seconds(src: Path) -> float:
    """Import time of the package in a new interpreter (waited for)."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(src)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_block(args: argparse.Namespace, numpy_version: str) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "platform": platform.platform(),
        "commit": git_commit(ROOT),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
    }


def load_metric_specs() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# passes


class Tally:
    """Operations attempted and failed, with the first few failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def ops(self, ops: list[workloads.Op]) -> None:
        for op in ops:
            self.check(not op.errors, f"{op.label}: {'; '.join(op.errors)}")

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(message)


@dataclass
class Pass:
    traced: bool
    wall: float    # host seconds
    scaled: float  # seconds at the reference host speed (see calibrate.py)
    frames: int
    summary: dict | None


def run_passes(workload, tally: Tally, seconds: float, tracer: Tracer | None) -> list[Pass]:
    """Passes back to back until `seconds` elapse. Without a tracer each pass
    samples the host speed while it runs; with one, every other pass is traced
    and no probe runs."""
    max_passes = workload.size.max_passes
    passes: list[Pass] = []
    began = perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        summary = None
        if tracer is None:
            with calibrate.HostSpeed() as speed:
                t0 = perf_counter()
                ops = workload.run_pass()
                span = perf_counter() - t0
            wall, scaled = speed.split(span)
        else:
            # per-layer figures are raw host times; no probe may run inside a span
            if traced:
                tracer.run_id = len(passes)
                tracer.install()
                first = tracer.mark()
            t0 = perf_counter()
            ops = workload.run_pass()
            wall = scaled = perf_counter() - t0
            if traced:
                last = tracer.mark()
                tracer.uninstall()
                summary = summarize_pass(tracer, first, last)
                for message in workload.check_trace(ops, summary):
                    tally.check(False, f"traced pass: {message}")
        workload.check_pass(ops)
        tally.ops(ops)
        passes.append(Pass(traced, wall, scaled, workload.frames_per_pass(), summary))
        n_traced = sum(1 for p in passes if p.traced)
        n_plain = len(passes) - n_traced
        enough = perf_counter() - began >= seconds or (
            max_passes is not None and n_plain >= max_passes
        )
        if enough and n_plain >= 1 and (tracer is None or n_traced >= 1):
            return passes


# ----------------------------------------------------------------------
# metrics


def end_to_end(passes: list[Pass], setup_s: float, tally: Tally) -> dict[str, float]:
    """End-to-end values; `setup_s` is in host seconds. Set-up is too short
    to sample the host speed well while it runs, so it is rescaled by the
    passes' median factor, sampled seconds later."""
    plain = [p for p in passes if not p.traced]
    return {
        "frames_per_s": statistics.median(p.frames / p.scaled for p in plain),
        "wall_s": statistics.median(p.scaled for p in plain),
        "setup_s": setup_s * statistics.median(p.scaled / p.wall for p in plain),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "success_rate": 1.0 - tally.failed / tally.attempted,
    }


def _percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def per_layer(passes, names: list[str], tally: Tally) -> dict[str, float]:
    """Per-layer values from the traced passes: counts per pass (which must
    repeat exactly), medians of per-pass times, percentiles over all calls."""
    summaries = [p.summary for p in passes if p.traced]
    counts = [
        {name: entry["calls"] for name, entry in s.items() if name != "counters"}
        | s["counters"]
        for s in summaries
    ]
    tally.check(all(c == counts[0] for c in counts),
                "call or event counts differ between traced passes")

    def calls(name: str) -> int:
        return counts[0].get(name, counts[0].get(f"{name}.calls", 0))

    def median_of(name: str, key: str) -> float:
        return statistics.median(s.get(name, {}).get(key, 0.0) for s in summaries)

    def durations(name: str):
        parts = [s[name]["durations"] for s in summaries if name in s]
        return np.concatenate(parts) if parts else np.zeros(0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    plain = statistics.median(p.wall for p in passes if not p.traced)
    traced_wall = statistics.median(p.wall for p in passes if p.traced)
    special = {
        "gait.step_events": lambda: counts[0].get("gait.step_events", 0),
        "gait.is_stale.per_estimate": lambda: ratio(
            calls("gait.is_stale"), calls("gait.estimate")),
        "core.validate_sample.per_sample": lambda: ratio(
            calls("core.validate_sample"), calls("gait.advance")),
        "traceio.load_trace.MB_per_s": lambda: ratio(
            counts[0].get("traceio.load_trace.bytes", 0) / 1e6,
            median_of("traceio.load_trace", "total_s")),
        "trace.untraced_wall_s": lambda: plain,
        "trace.overhead_s": lambda: traced_wall - plain,
        "trace.overhead_pct": lambda: 100.0 * (traced_wall - plain) / plain,
    }
    values = {}
    for metric in names:
        if metric in special:
            values[metric] = special[metric]()
            continue
        span, _, stat = metric.rpartition(".")
        if stat == "calls":
            values[metric] = calls(span)
        elif stat == "self_s":
            values[metric] = median_of(span, "self_s")
        elif stat == "s":
            values[metric] = median_of(span, "total_s")
        elif stat in ("us_p50", "us_p99"):
            values[metric] = 1e6 * _percentile(durations(span), float(stat[4:]))
        else:
            raise ValueError(f"no rule computes per-layer metric {metric!r}")
    return values


# ----------------------------------------------------------------------


def run(args: argparse.Namespace) -> int:
    src = ROOT / "src"
    if not (src / "wiplab" / "__init__.py").is_file():
        print(f"error: no wiplab sources under {src}", file=sys.stderr)
        return 2
    specs = load_metric_specs()
    wiplab, import_s = import_wiplab(src)

    size = workloads.SMOKE if args.smoke else workloads.FULL
    with open(HERE / "golden.json", encoding="utf-8") as fh:
        golden = json.load(fh)
    scratch = ROOT / ".perfbench"
    workdir = scratch / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tally = Tally()
    try:
        workload = workloads.WORKLOADS[args.workload](
            wiplab, args.seed, size, str(workdir), golden
        )
        setups = []
        # set-up time is an end-to-end metric; a traced run needs the inputs once
        for _ in range(1 if args.trace else size.setup_repeats):
            fresh = fresh_import_seconds(src)
            t0 = perf_counter()
            workload.setup()
            setups.append(fresh + perf_counter() - t0)
        tally.ops(workload.setup_ops)
        workload.prepare()

        tracer = Tracer() if args.trace else None
        passes = run_passes(workload, tally, args.seconds, tracer)
        if tracer is not None:
            metric_list = specs["per_layer"]
            values = per_layer(passes, [m["name"] for m in metric_list], tally)
            tracer.save(str(scratch / f"spans-{args.workload}.npz"))
        else:
            metric_list = specs["end_to_end"]
            values = end_to_end(passes, statistics.median(setups), tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print("# machine " + json.dumps(machine_block(args, np.__version__)))
    walls = [p.wall for p in passes if not p.traced]
    print(f"# passes: {len(walls)} untraced, {len(passes) - len(walls)} traced; "
          f"frames per pass {passes[0].frames}; in-process import {import_s:.4f} s; "
          f"set-up median of {len(setups)}: {statistics.median(setups):.4f} host s")
    print(f"# untraced pass host seconds: n={len(walls)}, median {statistics.median(walls):.4f}, "
          f"min {min(walls):.4f}, max {max(walls):.4f}")
    if tracer is None:
        print(f"# host probe time {statistics.median(p.wall / p.scaled for p in passes):.3f} "
              f"x reference (times below are rescaled by it)")
    for m in metric_list:
        print(f"# {m['name']} = {values[m['name']]:.6g} {m['unit']}")
    error_rate = tally.failed / tally.attempted
    print(f"# error_rate = {error_rate:.6g} ({tally.failed} of {tally.attempted} operations)")
    if tracer is not None:
        print(f"# tracing overhead: {values.get('trace.overhead_s', 0.0):+.4f} s per pass "
              f"({values.get('trace.overhead_pct', 0.0):+.1f} %)")
        if tracer.missing:
            print(f"# not traced (absent from wiplab): {', '.join(tracer.missing)}")
    for message in tally.messages:
        print(f"# FAILED {message}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in metric_list},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def main(argv: list[str] | None = None) -> int:
    return run(parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
