#!/usr/bin/env python3
"""Threshold mutants: each flips one comparison against a gait, harness,
synth, elastic or stream-contract threshold, the sign of a downward rig's
force, the bitwise comparison of neighbours in traceio's float text, the
NUL guard before traceio's row reader or its count of the rows it read,
read_run's walker keys, or run_chase's test for a changed estimate and the
search for where each run of its frame log starts, and the focused tests
must fail on it.

Every mutant is one exact edit of the source, such as ``<`` to ``<=``. It
is applied to a temporary copy of src/ and tests/, where pytest runs the
mutant's test files in a subprocess, one mutant at a time, stopping at
the first failure. Hypothesis runs only the explicit @examples there, with
no example database, so a mutant is killed on every run or on none: a
kill that rests on what Hypothesis happens to draw does not count. The
unmutated copy must pass the same tests first.

A mutant that survives needs a listed reason why it is equivalent, that
is, why no input tells it from the source. An unlisted survivor fails the
run, and so does a listed one that is killed.

Usage:
    python3 scripts/mutants.py    # run every mutant, about a minute

Exit status: 0 when every mutant is killed or listed as equivalent and
survives, 1 otherwise, 2 when an edit does not match its module's source
exactly once.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

GAIT_TESTS = ("tests/test_gait.py", "tests/test_harness.py", "tests/test_acceptance.py")
HARNESS_TESTS = ("tests/test_harness.py", "tests/test_golden.py")
TRACEIO_TESTS = ("tests/test_traceio.py", "tests/test_cli.py")
STREAM_TESTS = (*TRACEIO_TESTS, "tests/test_core.py")
SYNTH_TESTS = ("tests/test_synth.py", "tests/test_harness.py")
ORACLE_TESTS = ("tests/test_acceptance.py",)
ELASTIC_TESTS = ("tests/test_elastic.py", "tests/test_traceio.py")

# Loaded by the copy's conftest.py before any test module is imported, so
# every @settings inherits it.
EXPLICIT_ONLY = """\
from hypothesis import Phase, settings

settings.register_profile("explicit-only", phases=[Phase.explicit], database=None)
settings.load_profile("explicit-only")
"""


@dataclass(frozen=True)
class Mutant:
    name: str
    module: str  # under src/wiplab
    old: str     # source text that occurs exactly once in the module
    new: str
    tests: tuple[str, ...]
    equivalent: str = ""  # why no input tells it from the source


MUTANTS = [
    Mutant("gait.advance.grounded", "gait.py",
           "grounded = h <= GROUND_EPSILON", "grounded = h < GROUND_EPSILON", GAIT_TESTS),
    Mutant("gait.start-track.aerial", "gait.py",
           "if h > GROUND_EPSILON:", "if h >= GROUND_EPSILON:", GAIT_TESTS),
    Mutant("gait.advance.time-advances", "gait.py",
           "0.0 <= prev < t < _INF", "0.0 <= prev <= t < _INF", GAIT_TESTS),
    Mutant("gait.advance.height-floor", "gait.py",
           "HEIGHT_FLOOR <= h <= HEIGHT_CEILING", "HEIGHT_FLOOR < h <= HEIGHT_CEILING",
           GAIT_TESTS),
    Mutant("gait.advance.height-ceiling", "gait.py",
           "HEIGHT_FLOOR <= h <= HEIGHT_CEILING", "HEIGHT_FLOOR <= h < HEIGHT_CEILING",
           GAIT_TESTS),
    Mutant("gait.scan.airborne", "gait.py",
           "airborne = flat > GROUND_EPSILON", "airborne = flat >= GROUND_EPSILON", GAIT_TESTS),
    Mutant("gait.first-swing.aerial", "gait.py",
           "aerial, no = height > GROUND_EPSILON", "aerial, no = height >= GROUND_EPSILON",
           GAIT_TESTS,
           equivalent="_swing_scan reads a carried-in state's aerial flag from its height, "
           "as it reads every sample's, so the first sample's flag is never read"),
    Mutant("gait.advance.min-apex", "gait.py",
           "track.running_apex >= MIN_STEP_HEIGHT", "track.running_apex > MIN_STEP_HEIGHT",
           GAIT_TESTS),
    Mutant("gait.lanes.min-apex", "gait.py",
           "(swing.running_apex >= MIN_STEP_HEIGHT)", "(swing.running_apex > MIN_STEP_HEIGHT)",
           GAIT_TESTS),
    Mutant("gait.advance.deadband-fall", "gait.py",
           "else velocity < -VELOCITY_DEADBAND", "else velocity <= -VELOCITY_DEADBAND",
           GAIT_TESTS),
    Mutant("gait.advance.deadband-rise", "gait.py",
           "velocity > VELOCITY_DEADBAND if track.descending",
           "velocity >= VELOCITY_DEADBAND if track.descending", GAIT_TESTS),
    Mutant("gait.scan.deadband-fall", "gait.py",
           "velocity < -VELOCITY_DEADBAND, out=falls", "velocity <= -VELOCITY_DEADBAND, out=falls",
           GAIT_TESTS),
    Mutant("gait.scan.deadband-rise", "gait.py",
           "rise = staying_up & (velocity > VELOCITY_DEADBAND)",
           "rise = staying_up & (velocity >= VELOCITY_DEADBAND)", GAIT_TESTS),
    Mutant("gait.resume-gap", "gait.py",
           "if delta > RESUME_GAP:", "if delta >= RESUME_GAP:", GAIT_TESTS),
    Mutant("gait.footfall.zero-gap", "gait.py",
           "elif delta > 0.0:", "elif delta >= 0.0:", GAIT_TESTS),
    Mutant("gait.estimate.stop-window", "gait.py",
           "if now - entered >= STOP_WINDOW:", "if now - entered > STOP_WINDOW:", GAIT_TESTS),
    Mutant("gait.estimate.left-partial", "gait.py",
           "if left_elapsed > 0.0:", "if left_elapsed >= 0.0:", GAIT_TESTS),
    Mutant("gait.estimate.right-partial", "gait.py",
           "if right_elapsed > 0.0:", "if right_elapsed >= 0.0:", GAIT_TESTS),
    Mutant("gait.columns.stop-window", "gait.py",
           "now - np.maximum(entered_at[0], entered_at[1]) >= STOP_WINDOW",
           "now - np.maximum(entered_at[0], entered_at[1]) > STOP_WINDOW", GAIT_TESTS),
    Mutant("gait.scan.valid-carried", "gait.py",
           "bool), state.valid)", "bool), state.valid & ~state.aerial)", GAIT_TESTS),
    Mutant("gait.columns.partial-bound", "gait.py",
           "where=longest > 0.0", "where=longest >= 0.0", GAIT_TESTS),
    Mutant("synth.lanes.refill", "synth.py",
           "if self._normals.shape[-1] < ticks:", "if self._normals.shape[-1] <= ticks:",
           SYNTH_TESTS,
           equivalent="a lane whose blocks hold exactly one run's normals draws its next "
           "block one run early and appends it, so it reads the same stream"),
    Mutant("synth.plan.finite-speed", "synth.py",
           "0.0 <= target_speed < math.inf", "0.0 <= target_speed <= math.inf", SYNTH_TESTS),
    Mutant("synth.agent.seed-floor", "synth.py",
           "or seed < 0:", "or seed <= 0:", SYNTH_TESTS),
    Mutant("synth.agent.positive-dt", "synth.py",
           "if not 0.0 < dt < math.inf:", "if not 0.0 <= dt < math.inf:", SYNTH_TESTS),
    Mutant("synth.agent.left-stance", "synth.py",
           "if left < stance:", "if left <= stance:", SYNTH_TESTS),
    Mutant("synth.agent.right-stance", "synth.py",
           "if right < stance:", "if right <= stance:", SYNTH_TESTS),
    Mutant("harness.lanes.adjacent-law", "harness.py",
           "adjacent = members[-1] - members[0] == len(members) - 1",
           "adjacent = members[-1] - members[0] >= len(members) - 1", HARNESS_TESTS),
    Mutant("acceptance.oracle.column-start", "acceptance.py",
           "(first > starts[column])", "(first >= starts[column])", ORACLE_TESTS),
    Mutant("acceptance.oracle.column-end", "acceptance.py",
           "(stop < starts[column + 1])", "(stop <= starts[column + 1])", ORACLE_TESTS),
    Mutant("harness.chase.short-interval", "harness.py",
           "if len(heights) != 2 * ticks:", "if len(heights) > 2 * ticks:", HARNESS_TESTS),
    Mutant("harness.chase.long-interval", "harness.py",
           "if len(heights) != 2 * ticks:", "if len(heights) < 2 * ticks:", HARNESS_TESTS),
    Mutant("harness.cadence.zero-gap", "harness.py",
           "gaps[gaps > 0.0]", "gaps[gaps >= 0.0]", HARNESS_TESTS),
    Mutant("harness.chase.law-skip", "harness.py",
           "if f != f_was or sh != sh_was:", "if f != f_was:", HARNESS_TESTS),
    Mutant("harness.chase.run-start", "harness.py",
           "np.searchsorted(time, table[:, 0])", "np.searchsorted(time, table[:, 0], 'right')",
           HARNESS_TESTS),
    Mutant("harness.window.start", "harness.py",
           "(start <= frames.time)", "(start < frames.time)", HARNESS_TESTS),
    Mutant("elastic.rig.band-floor", "elastic.py",
           "1 <= self.band_count", "0 <= self.band_count", ELASTIC_TESTS),
    Mutant("elastic.rig.sign", "elastic.py",
           "UPWARD else -force", "UPWARD else force", ELASTIC_TESTS),
    Mutant("traceio.rows.blank", "traceio.py",
           "if len(table) != len(rows) or not", "if not", TRACEIO_TESTS),
    Mutant("traceio.float-text.bits", "traceio.py",
           "bits = column.view(np.int64)", "bits = column", ("tests/test_frames_csv.py",)),
    Mutant("traceio.columns.nul", "traceio.py",
           '_READER_ONLY = "\\0\\x1c', '_READER_ONLY = "\\x1c', ("tests/test_traceio.py",)),
    Mutant("traceio.read-run.walker-keys", "traceio.py",
           "WalkerAgent(params, **{key: run[key] for key in AGENT_KEYS if key in run})",
           "WalkerAgent(params)", TRACEIO_TESTS),
    Mutant("core.stream.sorted", "core.py",
           "unsorted = time[1:] < time[:-1]", "unsorted = time[1:] <= time[:-1]", STREAM_TESTS),
    Mutant("core.stream.foot-sorted", "core.py",
           "ok = (before < time)", "ok = (before <= time)", STREAM_TESTS),
    Mutant("core.stream.first-time", "core.py",
           "ok[0] &= 0.0 <= time[0]", "ok[0] &= 0.0 < time[0]", STREAM_TESTS),
    Mutant("core.stream.height-floor", "core.py",
           "(HEIGHT_FLOOR <= height)", "(HEIGHT_FLOOR < height)", STREAM_TESTS),
    Mutant("core.stream.height-ceiling", "core.py",
           "(height <= HEIGHT_CEILING)", "(height < HEIGHT_CEILING)", STREAM_TESTS),
]


def mutated_source(mutant: Mutant) -> str:
    """The mutant's module with its edit applied; ValueError unless the
    edit's text occurs exactly once."""
    source = (ROOT / "src" / "wiplab" / mutant.module).read_text(encoding="utf-8")
    count = source.count(mutant.old)
    if count != 1:
        raise ValueError(f"{mutant.name}: {mutant.old!r} occurs {count} times in {mutant.module}")
    return source.replace(mutant.old, mutant.new)


def run_tests(copy: Path, tests: tuple[str, ...]) -> tuple[int, str]:
    """pytest's exit status for tests in the copy, stopping at the first
    failure, and the id of the test that failed ("" for none)."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    done = subprocess.run(command, cwd=copy, env=env, capture_output=True, text=True)
    failed = [
        line[len("FAILED "):].split(" - ")[0]
        for line in done.stdout.splitlines() if line.startswith("FAILED ")
    ]
    return done.returncode, failed[0] if failed else ""


def main() -> int:
    try:
        sources = {m.name: mutated_source(m) for m in MUTANTS}
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", copy)
        (copy / "conftest.py").write_text(EXPLICIT_ONLY, encoding="utf-8")
        if run_tests(copy, tuple(sorted({t for m in MUTANTS for t in m.tests})))[0] != 0:
            print("error: the unmutated copy fails its tests", file=sys.stderr)
            return 1
        for m in MUTANTS:
            target = copy / "src" / "wiplab" / m.module
            original = target.read_text(encoding="utf-8")
            target.write_text(sources[m.name], encoding="utf-8")
            try:
                status, failed = run_tests(copy, m.tests)
            finally:
                target.write_text(original, encoding="utf-8")
            if status not in (0, 1):
                print(f"{m.name}: pytest exited {status}")
                failures += 1
            elif status == 1:
                note = "  (listed as equivalent)" if m.equivalent else ""
                print(f"{m.name}: killed by {failed}{note}")
                failures += bool(m.equivalent)
            elif m.equivalent:
                print(f"{m.name}: survived, equivalent: {m.equivalent}")
            else:
                print(f"{m.name}: SURVIVED")
                failures += 1
    print(f"{len(MUTANTS)} mutants, {failures} not as expected")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
