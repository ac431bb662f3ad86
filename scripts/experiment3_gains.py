#!/usr/bin/env python3
"""Slope-gain adjustment study: staircase series on uphill and downhill ramps.

For each slope the synthetic judge prefers a reference visual gain; two
ascending and two descending staircase series bracket it and the four landing
points are averaged, mirroring the usual adjustment-method bookkeeping.

Usage:
    python3 scripts/experiment3_gains.py
    python3 scripts/experiment3_gains.py --out gains.json
"""

import argparse
import json
import sys

from wiplab.harness import (
    STAIRCASE_PRESETS,
    SeriesKind,
    SlopeKind,
    aggregate_adjustments,
    make_reference_judge,
    run_adjustment,
)

# judge preferences the staircases should converge toward
REFERENCES = {SlopeKind.UPHILL: 0.71, SlopeKind.DOWNHILL: 1.43}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", metavar="FILE", help="also write results as JSON")
    args = parser.parse_args(argv)

    results = {}
    print(f"{'slope':9} {'series':11} {'landing':>8}")
    for slope in (SlopeKind.UPHILL, SlopeKind.DOWNHILL):
        interval = STAIRCASE_PRESETS[slope][0]
        judge = make_reference_judge(REFERENCES[slope], interval)
        landings = []
        for series in (SeriesKind.ASCENDING, SeriesKind.DESCENDING,
                       SeriesKind.ASCENDING, SeriesKind.DESCENDING):
            gain = run_adjustment(slope, series, judge)
            landings.append(gain)
            print(f"{slope.value:9} {series.value:11} {gain:8.3f}")
        mean = aggregate_adjustments(landings)
        print(f"{slope.value:9} {'mean':11} {mean:8.3f}   "
              f"(judge reference {REFERENCES[slope]:.2f})")
        print()
        results[slope.value] = {"landings": landings, "mean": mean,
                                "reference": REFERENCES[slope]}

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"slopes": results}, fh, indent=2)
        print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
