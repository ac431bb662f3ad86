#!/usr/bin/env python3
"""Where the acceptance gate's time goes: each check's wall time, and
STABILITY's split over the lockstep-lane layers.

Each check of ``wiplab acceptance`` runs --rounds times, untimed code
between rounds, and its fastest round is printed. Then STABILITY runs
--rounds more times with the layers below wrapped in timers, installed
from here by rebinding module attributes, so nothing under src/ changes.
A layer's time includes its callees', so ``gait._swing_scan`` is part of
``gait.TrackerLanes.advance``; each is the fastest round's total. A layer
that is not found is printed as absent. The first line names Python,
numpy and nproc, as every timing depends on them.

Usage:
    python3 scripts/gate_profile.py              # 7 rounds, about 10 s
    python3 scripts/gate_profile.py --rounds 1

Exit status: 0 when every check passed in every round, 1 otherwise.
"""

import argparse
import os
import platform
import sys
from time import perf_counter

from wiplab import acceptance

# (module, attribute) of each timed layer; "Class.method" wraps the method
# on its class. The module's own global is rebound, which is what its
# callers look up.
LAYERS = (
    ("gait", "TrackerLanes.advance"),
    ("gait", "stream_fault"),
    ("gait", "_swing_scan"),
    ("gait", "TrackerLanes._footfalls"),
    ("gait", "_estimate_columns"),
    ("synth", "WalkerLanes.samples"),
    ("synth", "_gait_clock"),
    ("harness", "_integrate"),
)


def _owner(module: str, attr: str):
    """(object holding the callable, its name), or None when it is absent."""
    owner = sys.modules.get(f"wiplab.{module}")
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    return (owner, name) if hasattr(owner, name) else None


def _timed(fn, totals: dict, key: str):
    def wrapper(*args, **kwargs):
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            totals[key] += perf_counter() - start
    return wrapper


def stability_split(rounds: int) -> tuple[dict[str, float | None], float, bool]:
    """Each layer's fastest-round total during STABILITY (None if absent),
    the fastest wrapped STABILITY, and whether every round passed."""
    check = dict(acceptance.CHECKS)["STABILITY"]
    found = {f"{m}.{a}": _owner(m, a) for m, a in LAYERS}
    present = {key: at for key, at in found.items() if at}
    originals = {key: getattr(*at) for key, at in present.items()}
    best = {key: None for key in found}
    fastest, passed, totals = float("inf"), True, {}
    try:
        for key, (owner, name) in present.items():
            setattr(owner, name, _timed(originals[key], totals, key))
        for _ in range(rounds):
            totals.update(dict.fromkeys(present, 0.0))
            start = perf_counter()
            passed &= bool(check()[0])
            fastest = min(fastest, perf_counter() - start)
            for key, value in totals.items():
                best[key] = value if best[key] is None else min(best[key], value)
    finally:
        for key, (owner, name) in present.items():
            setattr(owner, name, originals[key])
    return best, fastest, passed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=7, help="rounds per check (default 7)")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error(f"--rounds must be at least 1, got {args.rounds}")

    numpy = sys.modules["numpy"]  # imported by wiplab
    print(f"# python {platform.python_version()}, numpy {numpy.__version__}, "
          f"nproc {os.cpu_count()}, min of {args.rounds} rounds")
    ok, total = True, 0.0
    for name, check in acceptance.CHECKS:
        best = float("inf")
        for _ in range(args.rounds):
            start = perf_counter()
            ok &= bool(check()[0])
            best = min(best, perf_counter() - start)
        total += best
        print(f"{name:18} {1e3 * best:8.1f} ms")
    print(f"{'all checks':18} {1e3 * total:8.1f} ms")

    split, wrapped, passed = stability_split(args.rounds)
    print(f"STABILITY, wrapped: {1e3 * wrapped:.1f} ms")
    for key, value in split.items():
        print(f"  {key:28} " + ("absent" if value is None else f"{1e3 * value:8.1f} ms"))
    return 0 if ok and passed else 1


if __name__ == "__main__":
    sys.exit(main())
