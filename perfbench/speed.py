"""Machine-speed probes, for timings that do not drift with the host's load.

The benchmark shares its host: for tens of seconds at a time the same code
runs up to 1.8x slower, which swamps any bound a change could be held to.
So every timed segment (one `prepare`, or one closed loop with its output
writing) is measured against a probe: a fixed kernel of the kind of work the
program does (tiny numpy arrays through Python calls, eigen-solves, dict and
generator work), using no asynctrig code.  The probe runs just before and
just after the segment and, in untraced passes, every INTERVAL_S inside it
from a timer signal; the time the probes take inside a segment is taken out
of it.  A segment is reported as

    seconds * REFERENCE_S / (median probe time over the segment)

that is, in seconds at the speed where the probe takes REFERENCE_S.  Raw
seconds are printed beside the scaled ones.
"""

import signal
import statistics
from time import perf_counter

import numpy as np

REFERENCE_S = 0.002  # the probe's time on a 2-core Xeon (Sapphire Rapids, KVM guest) when not slowed
INTERVAL_S = 0.25

_rng = np.random.default_rng(20251116)
_S = _rng.normal(size=(4, 4))
_S = _S + _S.T
_M = _rng.normal(size=(4, 4))
_v = _rng.normal(size=4)


def _form(A, x):
    A = np.asarray(A, dtype=float)
    if not np.all(np.isfinite(A)):
        raise ValueError("non-finite probe matrix")
    return float(x @ A @ x), float(np.linalg.eigvalsh(0.5 * (A + A.T))[-1])


def _kernel() -> float:
    """Seconds for one run of the probe's fixed work."""
    t0 = perf_counter()
    acc = []
    for k in range(100):
        q, e = _form(_S + 1e-3 * k * _M, _v)
        acc.append(max(q, e))
        acc.append(float((_M @ _M @ _v)[0]))
    table = {i: 0.5 * i for i in range(600)}
    sum(table[i] for i in range(600) if i % 3)
    return perf_counter() - t0


def _probe() -> float:
    """The least of three kernel runs, so one interrupt does not count."""
    return min(_kernel() for _ in range(3))


class Segment:
    """One timed segment: `with meter.segment() as seg:`, then `seg.scaled`."""

    def __init__(self, meter):
        self._meter = meter
        self.probes = []
        self.seconds = 0.0  # probe-free seconds inside the segment
        self.factor = 1.0

    def __enter__(self):
        self.probes.append(self._meter.probe())
        self._meter._segment = self
        self._start = self._meter.now()
        return self

    def __exit__(self, *exc):
        self.seconds = self._meter.now() - self._start
        self._meter._segment = None
        self.probes.append(self._meter.probe())
        self.factor = REFERENCE_S / statistics.median(self.probes)

    @property
    def scaled(self) -> float:
        return self.seconds * self.factor


class Meter:
    """Probe-free clock and speed-scaled segments; `with meter:` runs the in-segment probes."""

    def __init__(self, sampling: bool = True):
        self.sampling = sampling
        self.stolen = 0.0  # seconds the timer's probes took
        self.probes = []  # every probe time taken
        self._segment = None
        self._busy = False

    def now(self) -> float:
        """perf_counter with the timer's probe time taken out."""
        return perf_counter() - self.stolen

    def probe(self) -> float:
        self._busy = True
        try:
            seconds = _probe()
        finally:
            self._busy = False
        self.probes.append(seconds)
        return seconds

    @property
    def factor(self) -> float:
        """Scale for times taken anywhere between the probes so far."""
        return REFERENCE_S / statistics.median(self.probes)

    def segment(self) -> Segment:
        return Segment(self)

    def _on_timer(self, signum, frame):
        if self._segment is None or self._busy:
            return
        t0 = perf_counter()
        seconds = _probe()
        self._segment.probes.append(seconds)
        self.probes.append(seconds)
        self.stolen += perf_counter() - t0

    def __enter__(self):
        if self.sampling:
            self._previous = signal.signal(signal.SIGALRM, self._on_timer)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        if self.sampling:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous)
