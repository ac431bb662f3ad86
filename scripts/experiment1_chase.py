#!/usr/bin/env python3
"""Chasing-task sweep: both control laws across a range of target speeds.

Reproduces the headline comparison: how closely each law lets a simulated
walker hold a commanded pace, and how steady the resulting speed is.

Usage:
    python3 scripts/experiment1_chase.py
    python3 scripts/experiment1_chase.py --noise 0.003 --seeds 5 --out chase.json
"""

import argparse
import json
import sys
from dataclasses import asdict

from wiplab.core import Variant, WipParams
from wiplab.harness import ChaseScenario, _mean, run_chase_lanes
from wiplab.synth import WalkerAgent

SPEEDS = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--noise", type=float, default=0.002,
                        help="height sensor noise SD in metres (default 0.002)")
    parser.add_argument("--seeds", type=int, default=3,
                        help="number of seeds to average over (default 3)")
    parser.add_argument("--user-height", type=float, default=1.72)
    parser.add_argument("--out", metavar="FILE", help="also write results as JSON")
    args = parser.parse_args(argv)
    if args.seeds < 1:
        parser.error(f"--seeds must be at least 1, got {args.seeds}")

    variants = (Variant.GUD, Variant.SHEF)
    try:
        # every variant's seeds side by side, one batch of them per target speed
        agents = [
            WalkerAgent(WipParams(variant=variant, user_height=args.user_height),
                        noise_sd=args.noise, seed=seed)
            for variant in variants for seed in range(args.seeds)
        ]
        if args.out:
            open(args.out, "w").close()  # fail now rather than after the runs
    except (ValueError, OSError) as exc:
        parser.error(str(exc))
    reports = {}
    for target in SPEEDS:
        batch = run_chase_lanes(ChaseScenario(target_speed=target), agents)
        for i, variant in enumerate(variants):
            reports[variant, target] = batch[i * args.seeds : (i + 1) * args.seeds]

    rows = []
    print(f"{'variant':8} {'target':>7} {'avg_speed':>10} {'speed_sd':>9} "
          f"{'distance':>9} {'cadence':>8}")
    for variant in variants:
        for target in SPEEDS:
            runs = reports[variant, target]
            mean = {key: _mean([getattr(r, key) for r in runs]) for key in asdict(runs[0])}
            print(f"{variant.value:8} {target:7.2f} {mean['avg_speed']:10.3f} "
                  f"{mean['speed_sd']:9.3f} {mean['avg_target_distance']:9.3f} "
                  f"{mean['avg_step_frequency']:8.2f}")
            rows.append({"variant": variant.value, "target_speed": target, **mean})
        print()

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"noise_sd": args.noise, "seeds": args.seeds, "rows": rows},
                      fh, indent=2)
        print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
