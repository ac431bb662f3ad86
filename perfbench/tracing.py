"""Span tracing of wiplab's public callables, installed from outside the package.

A Tracer rebinds the public functions and methods of each wiplab module to
wrappers for as long as it is installed, so nothing under ``src/`` changes.
Span wrappers record one span per call (name, start, end, parent span, run
id) into flat arrays kept in memory; count wrappers only bump a counter.
Per-layer figures are derived from the arrays after the run, and the raw
spans are written once, at the end, by ``Tracer.save``.

Self time of a span is its duration minus the durations of its direct child
spans. Only the spanned callables below are children: a count-only callable
is part of its caller's self time.
"""

from __future__ import annotations

import os
import sys
from array import array
from time import perf_counter

import numpy as np

# (module, attribute) of each callable that gets a span. "Class.method"
# patches the method on the class itself, so every importer sees it.
SPANNED = (
    ("synth", "WalkerAgent.samples"),
    ("synth", "WalkerAgent.command"),
    ("synth", "synth_trace"),
    ("gait", "GaitTracker.advance"),
    ("gait", "GaitTracker.estimate"),
    ("speed", "output_speed"),
    ("harness", "run_chase"),
    ("harness", "replay_trace"),
    ("harness", "compute_metrics"),
    ("harness", "run_slope_bout"),
    ("traceio", "load_trace"),
    ("traceio", "save_report"),
    ("traceio", "save_trace"),
    ("cli", "main"),
)

# Callables that are only counted: they run many times per frame and a span
# each would dominate the traced run's cost.
COUNTED = (
    ("gait", "GaitTracker.is_stale"),
    ("core", "validate_sample"),
    ("elastic", "rig_force"),
)

STEP_EVENTS = "gait.step_events"
LOAD_BYTES = "traceio.load_trace.bytes"


def _resolve(package: str, module: str, attr: str):
    """Return (owner, name, original) for a dotted attribute, or None if gone."""
    mod = sys.modules.get(f"{package}.{module}")
    if mod is None:
        return None
    owner = mod
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = owner.__dict__.get(name) if isinstance(owner, type) else getattr(owner, name, None)
    if not callable(original):
        return None
    return owner, name, original


class Tracer:
    """Spans and counters for one benchmark process."""

    def __init__(self, package: str = "wiplab"):
        self.package = package
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, int] = {STEP_EVENTS: 0, LOAD_BYTES: 0}
        self.run_id = 0  # set by the caller; the benchmark uses the pass number
        self.missing: list[str] = []
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # wrappers

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _span(self, name: str, fn, count_results: str | None = None):
        nid = self._intern(name)
        stack = self._stack
        name_id, parent, run, start, end = self.name_id, self.parent, self.run, self.start, self.end
        counts = self.counts
        tracer = self

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            run.append(tracer.run_id)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                start[idx] = t0
                stack.pop()
            if count_results is not None and result is not None:
                counts[count_results] += 1
            return result

        traced.__wrapped__ = fn
        return traced

    def _counter(self, key: str, fn):
        counts = self.counts
        counts.setdefault(key, 0)

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _bytes_loaded(self, fn):
        counts = self.counts

        def sized(path, *args, **kwargs):
            counts[LOAD_BYTES] += os.path.getsize(path)
            return fn(path, *args, **kwargs)

        sized.__wrapped__ = fn
        return sized

    # ------------------------------------------------------------------
    # installation

    def _rebind(self, owner, name: str, original, replacement) -> None:
        """Point the owner attribute, and every module alias of a function,
        at the replacement."""
        self._undo.append((owner, name, original))
        setattr(owner, name, replacement)
        if isinstance(owner, type):
            return
        prefix = self.package + "."
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == self.package or mod_name.startswith(prefix)):
                continue
            for alias, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, alias, original))
                    setattr(mod, alias, replacement)

    def install(self) -> None:
        self.missing = []
        for module, attr in SPANNED:
            found = _resolve(self.package, module, attr)
            if found is None:
                self.missing.append(f"{module}.{attr}")
                continue
            owner, name, original = found
            label = f"{module}.{name}"
            if label == "gait.advance":
                wrapper = self._span(label, original, count_results=STEP_EVENTS)
            else:
                wrapper = self._span(label, original)
            if label == "traceio.load_trace":
                wrapper = self._bytes_loaded(wrapper)
            self._rebind(owner, name, original, wrapper)
        for module, attr in COUNTED:
            found = _resolve(self.package, module, attr)
            if found is None:
                self.missing.append(f"{module}.{attr}")
                continue
            owner, name, original = found
            self._rebind(owner, name, original, self._counter(f"{module}.{name}.calls", original))
        acceptance = sys.modules.get(f"{self.package}.acceptance")
        checks = getattr(acceptance, "CHECKS", None)
        if checks is None:
            self.missing.append("acceptance.CHECKS")
        else:
            originals = list(checks)
            self._undo.append((checks, "[:]", originals))
            checks[:] = [
                (check, self._span(f"acceptance.{check}", fn)) for check, fn in originals
            ]

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            if name == "[:]":
                owner[:] = original  # type: ignore[index]
            else:
                setattr(owner, name, original)

    # ------------------------------------------------------------------
    # results

    def mark(self) -> tuple[int, dict[str, int]]:
        """Position to diff against after a pass: span count and counters."""
        return len(self.start), dict(self.counts)

    def arrays(self, lo: int = 0, hi: int | None = None) -> dict[str, np.ndarray]:
        """Copies of spans lo..hi with durations and self times. Every span's
        parent must lie in the same range, as it does for a whole pass."""

        def view(arr, dtype):
            return np.frombuffer(arr, dtype=dtype)[lo:hi].copy()

        start, end = view(self.start, np.float64), view(self.end, np.float64)
        parent = view(self.parent, np.int32)
        duration = end - start
        has_parent = parent >= 0
        child_time = np.bincount(
            parent[has_parent] - lo, weights=duration[has_parent], minlength=len(duration)
        )
        return {
            "name_id": view(self.name_id, np.int32),
            "parent": parent,
            "run": view(self.run, np.int32),
            "start": start,
            "end": end,
            "duration": duration,
            "self": duration - child_time,
        }

    def save(self, path: str) -> None:
        """Write every span recorded so far, once, as a numpy archive."""
        spans = self.arrays()
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name_id=spans["name_id"],
            parent=spans["parent"],
            run=spans["run"],
            start=spans["start"],
            end=spans["end"],
        )


def summarize_pass(tracer: Tracer, first: tuple, last: tuple) -> dict[str, dict[str, object]]:
    """Per-name totals for the spans and counters between two marks."""
    (lo, counts_lo), (hi, counts_hi) = first, last
    spans = tracer.arrays(lo, hi)
    out: dict[str, dict[str, object]] = {}
    for nid, name in enumerate(tracer.names):
        sel = spans["name_id"] == nid
        durations = spans["duration"][sel]
        out[name] = {
            "calls": int(sel.sum()),
            "total_s": float(durations.sum()),
            "self_s": float(spans["self"][sel].sum()),
            "durations": durations,
        }
    out["counters"] = {k: v - counts_lo.get(k, 0) for k, v in counts_hi.items()}
    return out
