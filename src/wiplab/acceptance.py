"""Executable acceptance gate.

Each named check exercises one end-to-end guarantee of the package:
anchor values of the speed laws, closed-loop speed recovery, variant
separation under a ceiling, elastic-band calibration, staircase
convergence under a synthetic judge of each gain, segmentation against a
brute-force offline oracle, and record/replay determinism. run_all()
executes them in order; the CLI prints one line per check, and the test
suite asserts them one by one.

Checks deliberately reach functions through their modules (e.g.
``speed.law`` at call time) so a monkeypatched implementation is
caught rather than a stale reference. The synthetic walks run as batches
of lanes, with no loop over samples. The steady-state helper behind
ROUND-TRIP and CEILING tracks a check's traces with one
``gait.TrackerLanes.advance`` and evaluates ``speed.law``, looked up at
call time, on each lane's estimates, so a monkeypatched law is caught
there too. GAIT-ORACLE tracks its 100 traces as lanes of one TrackerLanes
and runs the offline oracle once over all of them.
STABILITY runs its 40 chases (20 seeds per law) as one batch of lanes with
``harness.run_chase_lanes``, which looks ``speed.law`` up the same way and
gives each chase the report ``run_chase`` would. DETERMINISM is the gate's
path through the streaming ``GaitTracker``.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import elastic
from . import speed
from .core import Foot, Variant, WipParams
from .elastic import ElasticRig, PullDirection
from .gait import GROUND_EPSILON, MIN_STEP_HEIGHT, TrackerLanes
from .harness import (
    MAX_BOUTS,
    STAIRCASE_PRESETS,
    ChaseScenario,
    SeriesKind,
    SlopeKind,
    _mean,
    aggregate_adjustments,
    make_reference_judge,
    replay_trace,
    run_adjustment,
    run_chase,
    run_chase_lanes,
)
from .synth import GaitProgram, WalkerAgent, plan_gait, synth_trace
from .traceio import (
    load_trace,
    params_from_echo,
    save_trace,
    scenario_echo,
    scenario_from_echo,
)


# The steady-state walk behind ROUND-TRIP and CEILING: seconds walked, the
# settling time before the outputs that are averaged, and the sample rate.
STEADY_DURATION = 14.0
STEADY_SETTLE = 6.0
STEADY_RATE = 90.0


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _steady_mean_speeds(cases: Sequence[tuple[Variant, float]]) -> list[float]:
    """Mean pipeline output of each (variant, target) case at steady state.

    Synthesizes the noise-free gait a capped agent would plan for each
    target, tracks the traces as lanes of one TrackerLanes.advance, evaluates
    each variant's law on its lane's estimates, and averages, in frame order,
    the output speed of the frames at or after the settling time.
    """
    params = [WipParams(variant=variant) for variant, _ in cases]
    traces = [
        synth_trace(plan_gait(target, p), STEADY_DURATION, STEADY_RATE)
        for (_, target), p in zip(cases, params)
    ]
    time = traces[0].time[::2]  # a left then a right sample per tick
    heights = np.stack([trace.height.reshape(-1, 2) for trace in traces], axis=2)
    f, sh = TrackerLanes(len(cases)).advance(time.tolist(), heights)
    settled = time >= STEADY_SETTLE
    return [_mean(speed.law(p)(f[:, i], sh[:, i])[1][settled]) for i, p in enumerate(params)]


def check_eq1_anchor() -> tuple[bool, str]:
    """Reference cadence and body height produce exactly 1 m/s."""
    value = speed.law(WipParams(user_height=1.72, variant=Variant.GUD))(1.57, 0.1)[0]
    err = abs(value - 1.0)
    return err <= 1e-9, f"gud(1.57 Hz, 1.72 m) = {value!r} m/s, |err| = {err:.2e}"


def check_eq2_identity() -> tuple[bool, str]:
    """Height-scaled law collapses to the frequency law at the 0.1 m reference."""
    draws = np.random.default_rng(2024).uniform([0.1, 1.0] * 1000, [4.0, 2.5] * 1000).tolist()
    worst = 0.0
    for f, height in zip(draws[0::2], draws[1::2]):
        base = speed.law(WipParams(user_height=height, variant=Variant.GUD))(f, 0.1)[0]
        shef = speed.law(WipParams(user_height=height, variant=Variant.SHEF))
        worst = max(worst, abs(shef(f, 0.1)[0] - base))
        if shef(f, 0.2)[0] != 2.0 * base:
            return False, f"doubling 0.1->0.2 m not exact at f={f:.3f}, H={height:.3f}"
    return worst <= 1e-12, f"identity max |err| = {worst:.2e} over 1000 draws"


def check_round_trip() -> tuple[bool, str]:
    """Plan a gait for a speed, walk it, re-estimate: within 10 % at steady state."""
    parts: list[str] = []
    ok = True
    targets = (0.5, 1.0, 1.5, 2.5, 3.0)
    means = _steady_mean_speeds([(Variant.SHEF, target) for target in targets])
    for target, mean in zip(targets, means):
        rel = abs(mean - target) / target
        ok = ok and rel <= 0.10
        parts.append(f"{target:.1f}->{mean:.3f} ({100.0 * rel:.1f}%)")
    return ok, "; ".join(parts)


def check_ceiling() -> tuple[bool, str]:
    """With cadence capped at 2.2 Hz, only the height-scaled law reaches 3.5 m/s."""
    gud_at, shef_at, gud_sat, shef_sat = _steady_mean_speeds([
        (Variant.GUD, 3.5), (Variant.SHEF, 3.5), (Variant.GUD, 6.0), (Variant.SHEF, 6.0)
    ])
    ratio = shef_sat / gud_sat
    ok = gud_at <= 2.1 and shef_at >= 3.0 and ratio >= 1.8
    return ok, (
        f"gud@3.5 = {gud_at:.3f} (<= 2.1), shef@3.5 = {shef_at:.3f} (>= 3.0), "
        f"saturated ceiling ratio = {ratio:.2f} (>= 1.8)"
    )


def check_stability() -> tuple[bool, str]:
    """At a 2.5 m/s chase with matched noise, shef speed varies no more than gud."""
    variants = (Variant.GUD, Variant.SHEF)
    params = [WipParams(variant=variant) for variant in variants for _ in range(20)]
    agents = [WalkerAgent(p, noise_sd=0.004, seed=seed % 20) for seed, p in enumerate(params)]
    reports = run_chase_lanes(ChaseScenario(target_speed=2.5), agents, params)
    mean_sd: dict[Variant, float] = {}
    for i, variant in enumerate(variants):
        mean_sd[variant] = _mean([report.speed_sd for report in reports[20 * i : 20 * i + 20]])
    ok = mean_sd[Variant.SHEF] <= mean_sd[Variant.GUD]
    return ok, (
        f"mean speed SD over 20 seeds: shef = {mean_sd[Variant.SHEF]:.3f}"
        f" <= gud = {mean_sd[Variant.GUD]:.3f}"
    )


def check_elastic_anchors() -> tuple[bool, str]:
    """Band force anchors at both calibrated extensions; rig force is monotone."""
    at_zero = elastic.band_force_kgf(0.0)
    at_full = elastic.band_force_kgf(25.0)
    anchors_ok = abs(at_zero - 0.085) <= 1e-9 and abs(at_full - 0.360) <= 1e-9

    heights = [k * 0.01 for k in range(36)]  # 0 .. 0.35 m
    up_rig = ElasticRig(direction=PullDirection.UPWARD, band_count=6)
    down_rig = ElasticRig(direction=PullDirection.DOWNWARD, band_count=4)
    up = [elastic.rig_force(up_rig, h).magnitude for h in heights]
    down = [elastic.rig_force(down_rig, h).magnitude for h in heights]
    up_ok = all(a >= b for a, b in zip(up, up[1:]))
    down_ok = all(a <= b for a, b in zip(down, down[1:]))
    ok = anchors_ok and up_ok and down_ok
    return ok, (
        f"band(0 cm) = {at_zero!r} kgf, band(25 cm) = {at_full!r} kgf; "
        f"upward non-increasing: {up_ok}, downward non-decreasing: {down_ok}"
    )


def check_band_calibration() -> tuple[bool, str]:
    """Band counts needed for the calibrated force targets at both anchor heights."""
    down = [
        elastic.bands_for_target(PullDirection.DOWNWARD, kgf, elastic.DOWNWARD_CALIBRATION_HEIGHT)
        for kgf in (1.0, 2.0, 3.0)
    ]
    up = [
        elastic.bands_for_target(PullDirection.UPWARD, kgf, 0.0)
        for kgf in (1.0, 3.0, 5.0)
    ]
    ok = down == [4, 8, 12] and up == [2, 6, 10]
    return ok, f"downward 1/2/3 kgf -> {down} bands; upward 1/3/5 kgf -> {up} bands"


def check_staircase() -> tuple[bool, str]:
    """Staircase series land on-grid near the reference; 4-series means in band."""
    bands = {SlopeKind.UPHILL: (0.71, 0.07), SlopeKind.DOWNHILL: (1.43, 0.25)}
    ok = True
    parts: list[str] = []
    for slope in (SlopeKind.UPHILL, SlopeKind.DOWNHILL):
        reference, half_band = bands[slope]
        interval, asc_start, desc_start = STAIRCASE_PRESETS[slope]
        judge = make_reference_judge(reference, interval)
        gains: list[float] = []
        for series in (SeriesKind.ASCENDING, SeriesKind.DESCENDING):
            start = asc_start if series is SeriesKind.ASCENDING else desc_start
            direction = 1.0 if series is SeriesKind.ASCENDING else -1.0
            for _ in range(2):
                gain = run_adjustment(slope, series, judge)
                on_grid = any(
                    gain == start + direction * k * interval for k in range(MAX_BOUTS)
                )
                ok = ok and on_grid and abs(gain - reference) <= interval
                gains.append(gain)
        mean = aggregate_adjustments(gains)
        ok = ok and abs(mean - reference) <= half_band
        parts.append(
            f"{slope.value}: landings {sorted(set(gains))}, mean {mean:.3f}"
            f" (ref {reference} +/- {half_band})"
        )
    return ok, "; ".join(parts)


def _offline_segments(
    t: np.ndarray, h: np.ndarray, starts: np.ndarray
) -> list[list[tuple[Foot, float, float, float, float]]]:
    """The offline segmentation of columns of samples laid end to end, a
    lane's left then right foot, lane after lane: t and h hold the times
    and heights in that order when read in C order (t may be a broadcast
    view, read through .flat), column c from starts[c] to starts[c + 1],
    each in time order.

    Per column: contiguous runs of samples above the ground threshold form
    a swing when a grounded sample of the same column precedes and follows
    them and their peak clears the minimum step height. Returns each lane's
    (foot, start, apex_time, end, apex_height) tuples ordered by landing
    time, left first on a tie: start and end are the grounded samples
    around the run, the apex its first highest sample.
    """
    airborne = (h > GROUND_EPSILON).ravel()
    edges = np.flatnonzero(np.diff(airborne, prepend=False, append=False))
    first, stop = edges[0::2], edges[1::2]  # runs [first, stop) above the threshold
    # a run that starts its column or reaches its end, or spans two, is open
    column = np.searchsorted(starts, first, side="right") - 1
    closed = (first > starts[column]) & (stop < starts[column + 1])
    if not closed.any():
        return [[] for _ in range(len(starts) // 2)]
    # the runs' samples, run after run, and where each run begins among them
    length = stop - first
    begins = np.cumsum(length) - length
    up = h[airborne.reshape(h.shape)]
    peak = np.maximum.reduceat(up, begins)
    at_peak = np.flatnonzero(up == np.repeat(peak, length))
    apex = first + at_peak[np.searchsorted(at_peak, begins)] - begins  # the first at its peak
    step = closed & (peak >= MIN_STEP_HEIGHT)
    lane, right = np.divmod(column[step], 2)
    end = t.flat[stop[step]]
    by_landing = np.lexsort((right, end, lane))  # ties: "L" < "R", by foot value
    feet = [Foot.RIGHT if r else Foot.LEFT for r in right[by_landing].tolist()]
    values = (t.flat[first[step] - 1], t.flat[apex[step]], end, peak[step])
    rows = list(zip(feet, *(value[by_landing].tolist() for value in values)))
    cuts = np.cumsum(np.bincount(lane, minlength=len(starts) // 2)).tolist()
    return [rows[a:b] for a, b in zip([0, *cuts], cuts)]


def check_gait_oracle() -> tuple[bool, str]:
    """Streaming segmentation agrees with the offline oracle on 100 traces,
    tracked as lanes of one TrackerLanes, 0.5 s of ticks per advance."""
    heights = np.empty((540, 2, 100))
    for i in range(100):
        program = GaitProgram(
            step_frequency=0.6 + (i % 10) * 0.27,
            apex_height=0.05 + (i % 7) * 0.05,
            noise_sd=(i % 3) * 0.002,
            seed=1000 + i,
        )
        trace = synth_trace(program, 6.0, 90.0)
        heights[:, :, i] = trace.height.reshape(-1, 2)
    times, lanes = trace.time[::2], TrackerLanes(100)
    offline = _offline_segments(  # each lane's left, then right heights
        np.broadcast_to(times, (100, 2, 540)), heights.T, np.arange(0, 201 * 540, 540)
    )
    times = times.tolist()
    for first in range(0, 540, 45):
        lanes.advance(times[first:first + 45], heights[first:first + 45])
    worst_apex = 0.0
    for i, (streamed, segments) in enumerate(zip(lanes.events, offline)):
        if len(streamed) != len(segments):
            return False, (
                f"trace {i}: {len(streamed)} streamed vs {len(segments)} offline steps"
            )
        streamed.sort(key=lambda e: (e.end, e.foot.value))
        for ev, seg in zip(streamed, segments):
            worst_apex = max(worst_apex, abs(ev.apex_height - seg[4]))
    return worst_apex <= 0.005, (
        f"100 traces: step counts equal, apex |err| max = {worst_apex:.4f} m"
    )


def check_determinism() -> tuple[bool, str]:
    """Record a noisy run, save, reload, replay: metrics bit-identical."""
    params = WipParams(variant=Variant.SHEF)
    scenario = ChaseScenario(target_speed=1.5)
    agent = WalkerAgent(params, noise_sd=0.003, seed=11)
    first, log = run_chase(scenario, agent, params)

    echo = scenario_echo(scenario, params, seed=11, noise_sd=0.003, rig=None)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.trace")
        save_trace(path, log.samples, scenario=echo)
        loaded, samples = load_trace(path)
        second, _ = replay_trace(samples, params_from_echo(loaded), scenario_from_echo(loaded))
    ok = first == second
    return ok, (
        "replayed metrics "
        + ("==" if ok else "!=")
        + f" recorded (avg speed {first.avg_speed!r} vs {second.avg_speed!r})"
    )


CHECKS: list[tuple[str, object]] = [
    ("EQ1-ANCHOR", check_eq1_anchor),
    ("EQ2-IDENTITY", check_eq2_identity),
    ("ROUND-TRIP", check_round_trip),
    ("CEILING", check_ceiling),
    ("STABILITY", check_stability),
    ("ELASTIC-ANCHORS", check_elastic_anchors),
    ("BAND-CALIBRATION", check_band_calibration),
    ("STAIRCASE", check_staircase),
    ("GAIT-ORACLE", check_gait_oracle),
    ("DETERMINISM", check_determinism),
]

CHECK_NAMES = [name for name, _ in CHECKS]


def run_all(only: list[str] | None = None) -> list[CheckResult]:
    """Run the acceptance checks (optionally a named subset), never raising."""
    results: list[CheckResult] = []
    for name, fn in CHECKS:
        if only is not None and name not in only:
            continue
        try:
            passed, detail = fn()  # type: ignore[operator]
        except Exception as exc:  # a crashed check is a failed check
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append(CheckResult(name=name, passed=bool(passed), detail=detail))
    return results
