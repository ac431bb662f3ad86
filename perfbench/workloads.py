"""The three benchmark workloads: input generation, one timed pass, and the
checks of a pass's outputs.

Every workload drives wiplab only through its public API (``run_chase``)
or its command line (``cli.main``), looked up at call time so that a
Tracer's wrappers are the ones called. Inputs come from the benchmark seed
alone; the program receives only the generated inputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from dataclasses import asdict, dataclass, field

# Target speeds of the sweep: inside the comfort band, at it, and past the
# 2.2 Hz cadence cap, where the cadence-only law saturates near 2 m/s.
BASE_SPEEDS = (0.5, 1.5, 2.5, 3.5)
SPEED_JITTER = 0.1        # m/s, uniform either side of each base speed
NOISE_RANGE = (0.003, 0.004)  # m, the noise level of the STABILITY check
RIG_CELLS = {("shef", 1.5), ("gud", 2.5)}  # grid cells walked with a down:4 rig

# Separate input streams so chase and replay never share a run.
CHASE_STREAM = "chase"
REPLAY_STREAM = "replay"

ACCEPTANCE_CHECKS = 10


@dataclass(frozen=True)
class RunSpec:
    """One simulated chase: which law, how fast, how noisy, which rig."""

    variant: str
    target_speed: float
    noise_sd: float
    seed: int
    rig: str


@dataclass(frozen=True)
class Size:
    """How much work one pass does. FULL is the benchmark; SMOKE is a quick
    run of the same code paths for the benchmark's own tests."""

    runs: int
    scenario: dict = field(default_factory=dict)  # ChaseScenario overrides
    setup_repeats: int = 5
    gate_argv: tuple[str, ...] = ("acceptance",)
    gate_checks: int = ACCEPTANCE_CHECKS
    max_passes: int | None = None


FULL = Size(runs=8)
SMOKE = Size(
    runs=2,
    scenario={"prep_duration": 1.0, "countdown": 0.5, "chase_duration": 2.0},
    setup_repeats=1,
    gate_argv=("acceptance", "--only", "EQ1-ANCHOR", "--only", "BAND-CALIBRATION"),
    gate_checks=2,
    max_passes=1,
)


def make_specs(seed: int, stream: str, size: Size) -> list[RunSpec]:
    """The sweep grid for one seed: both laws at every base speed."""
    rng = random.Random(f"{stream}:{seed}")
    specs = []
    for variant in ("gud", "shef"):
        for base in BASE_SPEEDS:
            specs.append(
                RunSpec(
                    variant=variant,
                    target_speed=round(base + rng.uniform(-SPEED_JITTER, SPEED_JITTER), 4),
                    noise_sd=round(rng.uniform(*NOISE_RANGE), 6),
                    seed=rng.randrange(2**31),
                    rig="down:4" if (variant, base) in RIG_CELLS else "none",
                )
            )
    if size.runs < len(specs):
        # keep both laws and a rig cell in a reduced grid
        specs = [s for s in specs if s.rig != "none"][: size.runs]
    return specs


def digest(metrics: dict) -> str:
    """Short content hash of a report's metrics, floats by repr."""
    text = json.dumps(metrics, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass
class Op:
    """One operation of a pass and what the checks found wrong with it."""

    label: str
    errors: list[str] = field(default_factory=list)
    value: object = None


class Workload:
    """Base: set-up makes the inputs, run_pass times nothing itself and only
    executes, check_pass inspects the results after the timer stopped."""

    name = ""

    def __init__(self, wiplab, seed: int, size: Size, workdir: str, golden: dict):
        self.wiplab = wiplab
        self.seed = seed
        self.size = size
        self.workdir = workdir
        self.golden = golden.get("seeds", {}).get(str(seed)) if size is FULL else None
        self.setup_ops: list[Op] = []
        self.first: list[Op] | None = None

    def setup(self) -> None:
        """Generate the inputs. Timed as part of set-up, so repeatable."""

    def prepare(self) -> None:
        """Derive expected outputs from the inputs, after set-up timing."""

    def run_pass(self) -> list[Op]:
        raise NotImplementedError

    def check_pass(self, ops: list[Op]) -> None:
        raise NotImplementedError

    def frames_per_pass(self) -> int:
        raise NotImplementedError

    def check_trace(self, ops: list[Op], summary: dict) -> list[str]:
        """Cross-check a traced pass's counters against the pass outputs."""
        return []


class ChaseWorkload(Workload):
    """Closed-loop run_chase sweep over both laws, 0.5-3.5 m/s, noisy feet."""

    name = "chase"

    def setup(self) -> None:
        self.specs = make_specs(self.seed, CHASE_STREAM, self.size)

    def prepare(self) -> None:
        harness = self.wiplab.harness
        self.expected_frames = []
        for spec in self.specs:
            scenario = harness.ChaseScenario(target_speed=spec.target_speed, **self.size.scenario)
            self.expected_frames.append(int(round(scenario.total_duration / scenario.timestep)))

    def run_pass(self) -> list[Op]:
        wiplab = self.wiplab
        core, harness, synth, traceio = wiplab.core, wiplab.harness, wiplab.synth, wiplab.traceio
        ops = []
        for spec in self.specs:
            op = Op(f"chase {spec.variant} {spec.target_speed} m/s")
            try:
                params = core.WipParams(variant=core.Variant(spec.variant))
                agent = synth.WalkerAgent(
                    params,
                    noise_sd=spec.noise_sd,
                    seed=spec.seed,
                    rig=traceio.parse_rig_spec(spec.rig),
                )
                scenario = harness.ChaseScenario(
                    target_speed=spec.target_speed, **self.size.scenario
                )
                report, log = harness.run_chase(scenario, agent, params)
                op.value = (asdict(report), len(log.rows), len(log.samples), len(log.events))
            except Exception as exc:  # a crashed run is a failed operation
                op.errors.append(f"raised {type(exc).__name__}: {exc}")
            ops.append(op)
        return ops

    def check_pass(self, ops: list[Op]) -> None:
        for i, op in enumerate(ops):
            if op.value is None:
                continue
            metrics, frames, samples, events = op.value
            if frames != self.expected_frames[i]:
                op.errors.append(f"{frames} frames, expected {self.expected_frames[i]}")
            if samples != 2 * frames:
                op.errors.append(f"{samples} samples for {frames} frames")
            if self.golden is not None:
                want = self.golden["chase"][i]
                if digest(metrics) != want["digest"]:
                    op.errors.append("report differs from its golden")
                if events != want["events"]:
                    op.errors.append(f"{events} step events, golden {want['events']}")
            if self.first is not None and self.first[i].value != op.value:
                op.errors.append("report or counts differ from the first pass")
        if self.first is None:
            self.first = ops

    def frames_per_pass(self) -> int:
        return sum(self.expected_frames)

    def check_trace(self, ops: list[Op], summary: dict) -> list[str]:
        if any(op.value is None for op in ops):
            return []
        frames = sum(op.value[1] for op in ops)
        samples = sum(op.value[2] for op in ops)
        events = sum(op.value[3] for op in ops)
        got = (
            summary.get("gait.estimate", {}).get("calls"),
            summary.get("gait.advance", {}).get("calls"),
            summary["counters"].get("gait.step_events"),
        )
        if got != (frames, samples, events):
            return [f"traced estimate/advance/step-event counts {got}, "
                    f"run logs say {(frames, samples, events)}"]
        return []


def _cli(wiplab, argv: list[str]) -> tuple[int, str]:
    """Run one wiplab command in-process; returns (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = wiplab.cli.main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code
    return code, out.getvalue()


def _count_frame_rows(path: str) -> int:
    with open(path, "rb") as fh:
        return sum(1 for _ in fh) - 1  # minus the column line


class ReplayWorkload(Workload):
    """Record traces once, then replay each under its own law and the other."""

    name = "replay"

    def setup(self) -> None:
        self.specs = make_specs(self.seed, REPLAY_STREAM, self.size)
        scenario_file = None
        if self.size.scenario:
            scenario_file = os.path.join(self.workdir, "scenario.json")
            with open(scenario_file, "w", encoding="utf-8") as fh:
                json.dump(self.size.scenario, fh)
        self.setup_ops = []
        for i, spec in enumerate(self.specs):
            op = Op(f"record {spec.variant} {spec.target_speed} m/s")
            argv = [
                "record",
                "--variant", spec.variant,
                "--target", repr(spec.target_speed),
                "--noise", repr(spec.noise_sd),
                "--seed", str(spec.seed),
                "--rig", spec.rig,
                "--trace-out", self._path(i, "trace.csv"),
                "--out", self._path(i, "recorded.json"),
            ]
            if scenario_file is not None:
                argv += ["--scenario", scenario_file]
            code, _ = _cli(self.wiplab, argv)
            if code != 0:
                op.errors.append(f"record exited {code}")
            self.setup_ops.append(op)

    def _path(self, i: int, suffix: str) -> str:
        return os.path.join(self.workdir, f"run{i}.{suffix}")

    def prepare(self) -> None:
        self.recorded = []
        self.samples = []
        for i in range(len(self.specs)):
            with open(self._path(i, "recorded.json"), encoding="utf-8") as fh:
                self.recorded.append(json.load(fh))
            with open(self._path(i, "trace.csv"), "rb") as fh:
                self.samples.append(
                    sum(1 for line in fh if not line.startswith(b"#")) - 1
                )

    def run_pass(self) -> list[Op]:
        ops = []
        for i, spec in enumerate(self.specs):
            other = "shef" if spec.variant == "gud" else "gud"
            trace = self._path(i, "trace.csv")
            for law, argv in (
                (spec.variant, ["replay", trace, "--out", self._path(i, "same.json")]),
                (other, ["replay", trace, "--variant", other, "--out", self._path(i, "other.json"),
                         "--frames-out", self._path(i, "frames.csv")]),
            ):
                op = Op(f"replay run{i} under {law}")
                try:
                    code, _ = _cli(self.wiplab, argv)
                    if code != 0:
                        op.errors.append(f"replay exited {code}")
                except Exception as exc:
                    op.errors.append(f"raised {type(exc).__name__}: {exc}")
                ops.append(op)
        return ops

    def check_pass(self, ops: list[Op]) -> None:
        for i in range(len(self.specs)):
            same, other = ops[2 * i], ops[2 * i + 1]
            if same.errors or other.errors:
                continue
            with open(self._path(i, "same.json"), encoding="utf-8") as fh:
                same_doc = json.load(fh)
            with open(self._path(i, "other.json"), encoding="utf-8") as fh:
                other_doc = json.load(fh)
            recorded = self.recorded[i]
            if (same_doc["metrics"], same_doc["scenario"]) != (
                recorded["metrics"], recorded["scenario"]
            ):
                same.errors.append("replay under the recorded law differs from the recording")
            frames = _count_frame_rows(self._path(i, "frames.csv"))
            if 2 * frames != self.samples[i]:
                other.errors.append(f"{frames} frame rows for {self.samples[i]} samples")
            same.value = digest(same_doc["metrics"])
            other.value = digest(other_doc["metrics"])
            if self.golden is not None:
                want = self.golden["replay"][i]
                if same.value != want["recorded"]:
                    same.errors.append("recording differs from its golden")
                if other.value != want["other"]:
                    other.errors.append("other-law replay differs from its golden")
            if self.first is not None:
                for op, first in ((same, self.first[2 * i]), (other, self.first[2 * i + 1])):
                    if op.value != first.value:
                        op.errors.append("report differs from the first pass")
        if self.first is None:
            self.first = ops

    def frames_per_pass(self) -> int:
        return sum(self.samples)  # two replays of samples / 2 frames each

    def check_trace(self, ops: list[Op], summary: dict) -> list[str]:
        errors = []
        advance = summary.get("gait.advance", {}).get("calls")
        if advance != 2 * sum(self.samples):
            errors.append(f"{advance} traced advance calls for 2 x {sum(self.samples)} samples")
        if self.golden is not None:
            events = summary["counters"].get("gait.step_events")
            if events != self.golden["replay_step_events"]:
                errors.append(f"{events} step events, golden {self.golden['replay_step_events']}")
        return errors


class GateWorkload(Workload):
    """`wiplab acceptance`: all ten checks must pass. The seed does not apply."""

    name = "gate"

    # 90 Hz pipeline frames (GaitTracker.estimate calls) one pass of the gate
    # simulated when this benchmark was defined; the traced run reports the
    # current count as gait.estimate.calls. frames_per_s on this workload is
    # this fixed amount of work divided by the pass time.
    REFERENCE_FRAMES = 158820

    def run_pass(self) -> list[Op]:
        try:
            code, text = _cli(self.wiplab, list(self.size.gate_argv))
        except Exception as exc:
            return [Op("acceptance", [f"raised {type(exc).__name__}: {exc}"])]
        return [Op("acceptance", [], (code, text))]

    def check_pass(self, ops: list[Op]) -> None:
        """Expand the pass into one operation per check line."""
        op = ops[0]
        if op.value is None:
            return
        code, text = op.value
        lines = text.splitlines()
        checks = [line for line in lines if line.startswith("[")]
        expected = self.size.gate_checks
        ops[:] = [
            Op(line.split("]")[1].split(":")[0].strip(),
               [] if line.startswith("[PASS]") else [line])
            for line in checks
        ]
        summary = f"{expected}/{expected} checks passed"
        if code != 0 or len(checks) != expected or not lines or lines[-1] != summary:
            ops.append(Op("acceptance", [f"exit {code}, last line {lines[-1:]!r}"]))

    def frames_per_pass(self) -> int:
        return self.REFERENCE_FRAMES


WORKLOADS = {w.name: w for w in (ChaseWorkload, ReplayWorkload, GateWorkload)}
