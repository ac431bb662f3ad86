"""Executable acceptance gate.

Each named check exercises one end-to-end guarantee of the package:
anchor values of the speed laws, closed-loop speed recovery, variant
separation under a ceiling, elastic-band calibration, staircase
convergence under a synthetic judge of each gain, segmentation against a
brute-force offline oracle, and record/replay determinism. run_all()
executes them in order; the CLI prints one line per check, and the test
suite asserts them one by one.

Checks deliberately reach functions through their modules (e.g.
``speed.gud_speed`` at call time) so a monkeypatched implementation is
caught rather than a stale reference. The steady-state helper behind
ROUND-TRIP and CEILING estimates every frame of its trace with
``gait.estimate_frames`` and evaluates ``speed.law``, looked up at call
time, on those arrays, so a monkeypatched law is caught there too.
STABILITY runs its 40 chases (20 seeds per law) as one batch of lanes with
``harness.run_chase_lanes``, which looks ``speed.law`` up the same way and
gives each chase the report ``run_chase`` would.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass

import numpy as np

from . import elastic
from . import speed
from .core import Foot, FootSample, Variant, WipParams
from .elastic import ElasticRig, PullDirection
from .gait import GROUND_EPSILON, MIN_STEP_HEIGHT, GaitTracker, estimate_frames
from .harness import (
    MAX_BOUTS,
    STAIRCASE_PRESETS,
    ChaseScenario,
    SeriesKind,
    SlopeKind,
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


def _steady_mean_speed(variant: Variant, target: float) -> float:
    """Mean pipeline output while walking a planned gait at steady state.

    Synthesizes the noise-free gait a capped agent would plan for `target`,
    estimates every frame of it with a fresh tracker, evaluates the law of
    `variant` on those estimates, and averages, in frame order, the output
    speed of the frames at or after the settling time.
    """
    params = WipParams(variant=variant)
    program = plan_gait(target, params)
    frames = estimate_frames(synth_trace(program, STEADY_DURATION, STEADY_RATE), [])
    _, out = speed.law(params)(frames.step_frequency, frames.step_height)
    outputs = out[frames.time >= STEADY_SETTLE].tolist()
    return sum(outputs) / len(outputs)


def check_eq1_anchor() -> tuple[bool, str]:
    """Reference cadence and body height produce exactly 1 m/s."""
    value = speed.gud_speed(1.57, 1.72)
    err = abs(value - 1.0)
    return err <= 1e-9, f"gud(1.57 Hz, 1.72 m) = {value!r} m/s, |err| = {err:.2e}"


def check_eq2_identity() -> tuple[bool, str]:
    """Height-scaled law collapses to the frequency law at the 0.1 m reference."""
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        f = float(rng.uniform(0.1, 4.0))
        height = float(rng.uniform(1.0, 2.5))
        base = speed.gud_speed(f, height)
        worst = max(worst, abs(speed.shef_speed(f, height, 0.1) - base))
        if speed.shef_speed(f, height, 0.2) != 2.0 * base:
            return False, f"doubling 0.1->0.2 m not exact at f={f:.3f}, H={height:.3f}"
    return worst <= 1e-12, f"identity max |err| = {worst:.2e} over 1000 draws"


def check_round_trip() -> tuple[bool, str]:
    """Plan a gait for a speed, walk it, re-estimate: within 10 % at steady state."""
    parts: list[str] = []
    ok = True
    for target in (0.5, 1.0, 1.5, 2.5, 3.0):
        mean = _steady_mean_speed(Variant.SHEF, target)
        rel = abs(mean - target) / target
        ok = ok and rel <= 0.10
        parts.append(f"{target:.1f}->{mean:.3f} ({100.0 * rel:.1f}%)")
    return ok, "; ".join(parts)


def check_ceiling() -> tuple[bool, str]:
    """With cadence capped at 2.2 Hz, only the height-scaled law reaches 3.5 m/s."""
    gud_at = _steady_mean_speed(Variant.GUD, 3.5)
    shef_at = _steady_mean_speed(Variant.SHEF, 3.5)
    gud_sat = _steady_mean_speed(Variant.GUD, 6.0)
    shef_sat = _steady_mean_speed(Variant.SHEF, 6.0)
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
        values = [report.speed_sd for report in reports[20 * i : 20 * i + 20]]
        mean_sd[variant] = sum(values) / len(values)
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
        elastic.bands_for_target(PullDirection.DOWNWARD, kgf, 0.156)
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


def offline_step_segments(samples: list[FootSample]) -> list[tuple[Foot, float, float, float, float]]:
    """Brute-force offline segmentation over a complete trace.

    Per foot: contiguous runs of samples above the ground threshold form a
    swing when they are preceded and followed by a grounded sample and their
    peak clears the minimum step height. Returns (foot, start, apex_time,
    end, apex_height) tuples ordered by landing time.
    """
    by_foot: dict[Foot, list[FootSample]] = {}
    for s in samples:
        by_foot.setdefault(s.foot, []).append(s)
    segments: list[tuple[Foot, float, float, float, float]] = []
    for foot, rows in by_foot.items():
        prev_grounded: float | None = None
        region: list[float] | None = None  # [start, apex_height, apex_time]
        for s in rows:
            if s.height > GROUND_EPSILON:
                if region is None:
                    region = [prev_grounded, s.height, s.time]  # type: ignore[list-item]
                elif s.height > region[1]:
                    region[1], region[2] = s.height, s.time
            else:
                if (
                    region is not None
                    and region[0] is not None
                    and region[1] >= MIN_STEP_HEIGHT
                ):
                    segments.append((foot, region[0], region[2], s.time, region[1]))
                region = None
                prev_grounded = s.time
    return sorted(segments, key=lambda seg: (seg[3], seg[0].value))


def check_gait_oracle() -> tuple[bool, str]:
    """Streaming segmentation agrees with the offline oracle on 100 traces."""
    worst_apex = 0.0
    for i in range(100):
        program = GaitProgram(
            step_frequency=0.6 + (i % 10) * 0.27,
            apex_height=0.05 + (i % 7) * 0.05,
            noise_sd=(i % 3) * 0.002,
            seed=1000 + i,
        )
        trace = synth_trace(program, 6.0, 90.0)
        tracker = GaitTracker()
        streamed = [ev for s in trace if (ev := tracker.advance(s)) is not None]
        offline = offline_step_segments(trace)
        if len(streamed) != len(offline):
            return False, (
                f"trace {i}: {len(streamed)} streamed vs {len(offline)} offline steps"
            )
        streamed.sort(key=lambda e: (e.end, e.foot.value))
        for ev, seg in zip(streamed, offline):
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

    echo = scenario_echo(scenario, params, seed=11, noise_sd=0.003)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.trace")
        save_trace(
            path,
            log.samples,
            sample_rate_hint=1.0 / scenario.timestep,
            user_height=params.user_height,
            scenario=echo,
        )
        header, samples = load_trace(path)
        second, _ = replay_trace(
            samples, params_from_echo(header.scenario), scenario_from_echo(header.scenario)
        )
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
