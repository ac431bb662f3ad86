"""Host-speed sampling that rescales timings to a reference host speed.

The benchmark runs on shared machines whose speed drifts by tens of percent
over minutes as neighbours come and go. The probe is a fixed piece of pure
Python with the same kind of work wiplab does per frame: small frozen
dataclasses, dict lookups, float math and method calls. While a HostSpeed
sampler is active, a timer signal runs the probe every INTERVAL seconds on
the main thread, between bytecodes of whatever is being timed, so the
samples cover the whole timed span. The probe's own time is taken out of
the span, and the rest is reported as host seconds times REFERENCE_S over
the mean probe time: the seconds the work would have taken on a host where
the probe takes REFERENCE_S.

The probe does not touch wiplab, so a change to wiplab moves the rescaled
times exactly as it moves the raw ones.
"""

from __future__ import annotations

import math
import signal
from dataclasses import dataclass
from time import perf_counter

# Mean probe time on the 2-core Xeon VM, Python 3.11, where the benchmark
# was defined, when that host was least loaded.
REFERENCE_S = 0.0015

ITERATIONS = 500
INTERVAL = 0.05  # s between probes; the probe costs about 3 % of the span


@dataclass(frozen=True)
class _Sample:
    time: float
    side: str
    height: float


class _Smoother:
    def __init__(self) -> None:
        self.last: dict[str, float] = {}
        self.ema = 0.0

    def feed(self, sample: _Sample) -> bool:
        previous = self.last.get(sample.side)
        self.last[sample.side] = sample.height
        if previous is None or sample.height <= previous:
            return False
        alpha = 1.0 - math.exp(-(sample.height - previous) / 0.5)
        self.ema += alpha * (sample.height - self.ema)
        return True


def _work() -> int:
    smoother = _Smoother()
    rises = 0
    for k in range(ITERATIONS):
        t = k / 90.0
        for side, offset in (("L", 0.0), ("R", 0.5)):
            phase = (t * 0.9 + offset) % 1.0
            sample = _Sample(t, side, max(0.0, math.sin(math.pi * phase)))
            if smoother.feed(sample):
                rises += 1
    return rises


def probe() -> float:
    """Seconds of one run of the fixed work."""
    t0 = perf_counter()
    _work()
    return perf_counter() - t0


class HostSpeed:
    """Context manager that samples the probe from SIGALRM while active.

    Use one per timed span; the span must run on the main thread.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        self.samples.append(probe())

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self) -> float:
        """Reference over the mean sampled probe time; < 1 on a slower host."""
        samples = self.samples or [probe()]  # a span shorter than INTERVAL
        return REFERENCE_S / (sum(samples) / len(samples))

    def split(self, span: float) -> tuple[float, float]:
        """(host seconds of the span without the probes, the same rescaled)."""
        busy = span - sum(self.samples)
        return busy, busy * self.factor()
