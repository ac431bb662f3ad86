#!/usr/bin/env python3
"""Elastic-rig sweep: stepping effort under assistive and resistive band loads.

Runs one walker per rig condition at a fixed chase target, all conditions as
one batch of lanes, and reports how the band force shifts the achieved step
height (downward pull lowers it, upward pull raises it) and what that does to
tracking.

Usage:
    python3 scripts/experiment2_elastic.py
    python3 scripts/experiment2_elastic.py --target 1.5 --out elastic.json
"""

import argparse
import json
import sys

from wiplab.core import Variant, WipParams
from wiplab.elastic import ElasticRig, PullDirection, rig_force
from wiplab.harness import ChaseScenario, run_chase_lanes
from wiplab.synth import WalkerAgent
from wiplab.traceio import rig_spec

CONDITIONS = [
    ElasticRig(direction=PullDirection.DOWNWARD, band_count=12),
    ElasticRig(direction=PullDirection.DOWNWARD, band_count=8),
    ElasticRig(direction=PullDirection.DOWNWARD, band_count=4),
    None,
    ElasticRig(direction=PullDirection.UPWARD, band_count=2),
    ElasticRig(direction=PullDirection.UPWARD, band_count=6),
    ElasticRig(direction=PullDirection.UPWARD, band_count=10),
]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--target", type=float, default=1.5,
                        help="chase target speed in m/s (default 1.5)")
    parser.add_argument("--noise", type=float, default=0.002)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", metavar="FILE", help="also write results as JSON")
    args = parser.parse_args(argv)

    params = WipParams(variant=Variant.SHEF)
    try:
        scenario = ChaseScenario(target_speed=args.target)
        agents = [
            WalkerAgent(params, noise_sd=args.noise, seed=args.seed, rig=rig) for rig in CONDITIONS
        ]
        if args.out:
            open(args.out, "w").close()  # fail now rather than after the runs
    except (ValueError, OSError) as exc:
        parser.error(str(exc))
    probe_height = 0.15  # representative mid-swing foot height for the force column

    rows = []
    print(f"{'rig':8} {'force_N':>8} {'step_h':>7} {'cadence':>8} "
          f"{'avg_speed':>10} {'distance':>9}")
    for rig, report in zip(CONDITIONS, run_chase_lanes(scenario, agents)):
        force = rig_force(rig, probe_height) if rig is not None else 0.0
        print(f"{rig_spec(rig):8} {force:8.2f} {report.avg_step_height:7.3f} "
              f"{report.avg_step_frequency:8.2f} {report.avg_speed:10.3f} "
              f"{report.avg_target_distance:9.3f}")
        rows.append({
            "rig": rig_spec(rig),
            "force_at_probe_n": force,
            "avg_step_height": report.avg_step_height,
            "avg_step_frequency": report.avg_step_frequency,
            "avg_speed": report.avg_speed,
            "avg_target_distance": report.avg_target_distance,
        })

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"target_speed": args.target, "probe_height": probe_height,
                       "rows": rows}, fh, indent=2)
        print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
