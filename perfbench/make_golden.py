#!/usr/bin/env python3
"""Regenerate golden.json from the current wiplab sources.

For each seed in SEEDS it records the metrics digest and step-event count
of every chase run, the digests of every recording and other-law replay,
and the step events of one replay pass. run.py compares its passes on those
seeds against these values. Regenerate only after a deliberate change of
simulated behaviour, never to make a failing check pass:

    python3 perfbench/make_golden.py
"""

from __future__ import annotations

import json
import shutil
import sys

import run
import workloads
from tracing import STEP_EVENTS, Tracer

SEEDS = range(16)


def golden_for_seed(wiplab, seed: int, workdir: str) -> dict:
    chase = workloads.ChaseWorkload(wiplab, seed, workloads.FULL, workdir, {})
    chase.setup()
    chase.prepare()
    chase_ops = chase.run_pass()
    chase.check_pass(chase_ops)

    replay = workloads.ReplayWorkload(wiplab, seed, workloads.FULL, workdir, {})
    replay.setup()
    replay.prepare()
    tracer = Tracer()
    tracer.install()
    try:
        replay_ops = replay.run_pass()
    finally:
        tracer.uninstall()
    replay.check_pass(replay_ops)

    failed = [op for op in replay.setup_ops + chase_ops + replay_ops if op.errors]
    if failed:
        raise SystemExit(f"seed {seed}: {failed[0].label}: {failed[0].errors}")
    return {
        "chase": [
            {"digest": workloads.digest(op.value[0]), "events": op.value[3]}
            for op in chase_ops
        ],
        "replay": [
            {"recorded": same.value, "other": other.value}
            for same, other in zip(replay_ops[::2], replay_ops[1::2])
        ],
        "replay_step_events": tracer.counts[STEP_EVENTS],
    }


def main() -> int:
    wiplab, _ = run.import_wiplab(run.ROOT / "src")
    workdir = run.ROOT / ".perfbench" / "golden-work"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        seeds = {str(seed): golden_for_seed(wiplab, seed, str(workdir)) for seed in SEEDS}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(run.HERE / "golden.json", "w", encoding="utf-8") as fh:
        json.dump({"seeds": seeds}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote golden values for seeds {SEEDS.start}-{SEEDS.stop - 1}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
