"""Acceptance gate: every release criterion must hold, one line per check.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-check
pass/fail lines, or ``python3 -m wiplab acceptance`` for the same table
without pytest.
"""

import pytest

from wiplab import acceptance, speed


@pytest.mark.parametrize("name", acceptance.CHECK_NAMES)
def test_criterion(name):
    results = acceptance.run_all(only=[name])
    assert len(results) == 1
    result = results[0]
    status = "PASS" if result.passed else "FAIL"
    print(f"[{status}] {result.name}: {result.detail}")
    assert result.passed, f"{result.name}: {result.detail}"


def test_gate_catches_a_broken_speed_law(monkeypatch):
    """The checks must actually exercise the law, not a frozen copy of it."""
    true_gud = speed.gud_speed
    monkeypatch.setattr(
        speed, "gud_speed", lambda *a, **kw: true_gud(*a, **kw) * 1.001
    )
    results = acceptance.run_all(only=["EQ1-ANCHOR"])
    assert not results[0].passed


def test_gate_catches_a_broken_law_in_the_frame_step(monkeypatch):
    """ROUND-TRIP streams its gait through the harness frame step, which
    builds its law from speed.law at the start of every run."""
    true_law = speed.law

    def broken_law(params):
        evaluate = true_law(params)
        return lambda f, sh: tuple(1.2 * v for v in evaluate(f, sh))

    monkeypatch.setattr(speed, "law", broken_law)
    results = acceptance.run_all(only=["ROUND-TRIP"])
    assert not results[0].passed
