"""Operation times corrected for the speed of a shared host.

On a host whose cores are shared, the same computation can take 30%
longer from one second to the next, and CPU time rises with wall time,
so neither clock alone repeats.  A timer signal interrupts the timed
code every PROBE_INTERVAL_S and runs a fixed probe computation of
pure-Python tuple and integer work, like the program's hot loops.  The
probe's duration tracks the host's current speed.  A timed interval is
then reported as its wall time minus the probes inside it, times
REFERENCE_PROBE_S times the probe rate (probes per second of probing)
while it ran: seconds on a host that runs one probe in
REFERENCE_PROBE_S.

The signal handler runs in the main thread between bytecodes, so the
process stays single-threaded.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

PROBE_INTERVAL_S = 0.1
# Probe duration that defines the reference speed; about the fastest
# probe seen on the 2-vCPU host the bounds were set on.
REFERENCE_PROBE_S = 0.0025

_VECTORS = [tuple((i * 7 + j * 3) % 5 - 2 for j in range(12)) for i in range(16)]


def probe() -> int:
    """A fixed amount of conformal-order style work."""
    hits = 0
    for _ in range(5):
        for u in _VECTORS:
            for v in _VECTORS:
                if all(a * b >= 0 and abs(a) <= abs(b) for a, b in zip(u, v)):
                    hits += 1
    return hits


class HostClock:
    """Wall clock plus the probe samples taken while it runs."""

    def __init__(self, corrected: bool) -> None:
        self.corrected = corrected
        self.starts: list[float] = []
        self.lengths: list[float] = []
        self._previous = None
        self._busy = False

    def _sample(self, *_):
        if self._busy:  # a signal that lands inside a probe is skipped
            return
        self._busy = True
        start = time.perf_counter()
        probe()
        self.starts.append(start)
        self.lengths.append(time.perf_counter() - start)
        self._busy = False

    def start(self) -> None:
        if self.corrected:
            self._sample()
            self._previous = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> None:
        if self.corrected:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._previous)
            self._sample()

    def seconds(self, start: float, end: float) -> float:
        """Probe-free seconds of [start, end) at the reference speed.

        The speed is the mean probe rate inside the interval when it holds
        at least three probes, else the median rate of the three probes on
        either side, which a single probe slowed by preemption cannot move.
        """
        if not self.corrected:
            return end - start
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        if hi - lo >= 3:
            rate = statistics.fmean(1 / t for t in self.lengths[lo:hi])
        else:
            rate = statistics.median(1 / t for t in self.lengths[max(lo - 3, 0) : hi + 3])
        wall = end - start - sum(self.lengths[lo:hi])
        return wall * REFERENCE_PROBE_S * rate
