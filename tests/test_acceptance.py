"""Acceptance gate: every release criterion must hold, one line per check.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-check
pass/fail lines, or ``python3 -m wiplab acceptance`` for the same table
without pytest.
"""

import pytest

from wiplab import acceptance, speed


# Each check's detail line from a passing gate. The gate prints these, so any
# change to the bits a check computes changes `wiplab acceptance`'s output.
GOLDEN_DETAIL = {
    "EQ1-ANCHOR": "gud(1.57 Hz, 1.72 m) = 1.0 m/s, |err| = 0.00e+00",
    "EQ2-IDENTITY": "identity max |err| = 0.00e+00 over 1000 draws",
    "ROUND-TRIP": (
        "0.5->0.500 (0.0%); 1.0->1.000 (0.0%); 1.5->1.500 (0.0%); "
        "2.5->2.496 (0.2%); 3.0->2.996 (0.1%)"
    ),
    "CEILING": (
        "gud@3.5 = 1.966 (<= 2.1), shef@3.5 = 3.502 (>= 3.0), "
        "saturated ceiling ratio = 3.00 (>= 1.8)"
    ),
    "STABILITY": "mean speed SD over 20 seeds: shef = 0.069 <= gud = 1.106",
    "ELASTIC-ANCHORS": (
        "band(0 cm) = 0.085 kgf, band(25 cm) = 0.36 kgf; "
        "upward non-increasing: True, downward non-decreasing: True"
    ),
    "BAND-CALIBRATION": (
        "downward 1/2/3 kgf -> [4, 8, 12] bands; upward 1/3/5 kgf -> [2, 6, 10] bands"
    ),
    "STAIRCASE": (
        "uphill: landings [0.65, 0.72], mean 0.685 (ref 0.71 +/- 0.07); "
        "downhill: landings [1.3, 1.45], mean 1.375 (ref 1.43 +/- 0.25)"
    ),
    "GAIT-ORACLE": "100 traces: step counts equal, apex |err| max = 0.0000 m",
    "DETERMINISM": (
        "replayed metrics == recorded (avg speed 1.5065589356264706 vs 1.5065589356264706)"
    ),
}


@pytest.mark.parametrize("name", acceptance.CHECK_NAMES)
def test_criterion(name):
    results = acceptance.run_all(only=[name])
    assert len(results) == 1
    result = results[0]
    status = "PASS" if result.passed else "FAIL"
    print(f"[{status}] {result.name}: {result.detail}")
    assert result.passed, f"{result.name}: {result.detail}"
    assert result.detail == GOLDEN_DETAIL[name]


def test_gate_catches_a_broken_speed_law(monkeypatch):
    """The checks must actually exercise the law, not a frozen copy of it."""
    true_gud = speed.gud_speed
    monkeypatch.setattr(
        speed, "gud_speed", lambda *a, **kw: true_gud(*a, **kw) * 1.001
    )
    results = acceptance.run_all(only=["EQ1-ANCHOR"])
    assert not results[0].passed


def test_gate_catches_a_broken_law_in_the_frame_step(monkeypatch):
    """ROUND-TRIP evaluates speed.law, looked up at call time, on the frame
    estimates of its steady-state walk."""
    true_law = speed.law

    def broken_law(params):
        evaluate = true_law(params)
        return lambda f, sh: tuple(1.2 * v for v in evaluate(f, sh))

    monkeypatch.setattr(speed, "law", broken_law)
    results = acceptance.run_all(only=["ROUND-TRIP"])
    assert not results[0].passed
