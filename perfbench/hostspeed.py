"""Host-speed adjustment for times measured on a shared, drifting host.

On a shared 2-vCPU VM (2.0 GHz Xeon) the same pure-Python work ran 1.3 to
1.8 times slower from one minute to the next (other tenants on the host),
which swamps any change worth measuring.  So while a run is
timed, SIGALRM interrupts it every SAMPLE_EVERY_S to time a fixed kernel
that does not touch finsite.  Each measured interval is adjusted to the
kernel's quiet-host time:

    adjusted = (raw - time spent in the sampler) * REFERENCE_S / kernel

where ``kernel`` is the median of the samples taken during the interval
(at least WINDOW of them, reaching back before it when it is short).  The
kernel slows somewhat more than finsite when the host is busy, so adjusted
times run below the quiet-host seconds; they are for comparing runs, and
the raw times are reported beside them.
"""

from __future__ import annotations

import signal
import statistics
import time

SAMPLE_EVERY_S = 0.2
WINDOW = 5
REFERENCE_S = 0.0035  # the kernel on the quiet host (2.0 GHz Xeon vCPU)


def kernel() -> int:
    """Dict, tuple, set and string work of the kind an interpreter does
    for finsite, on data of its own."""
    table: dict = {}
    total = 0
    for i in range(3000):
        key = (i % 97, str(i % 89))
        table[key] = table.get(key, 0) + 1
        small = tuple(sorted({i % 7, i % 5, i % 3}))
        total += len(small) + len([x for x in small if x])
    return total


class HostSpeed:
    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0  # seconds taken by the sampler itself

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        for _ in range(WINDOW):
            self._sample()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return False

    def _sample(self, *_):
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.samples.append(end - start)
        self.spent += time.perf_counter() - start

    def mark(self) -> tuple[int, float]:
        """Call at the start of an interval; pass the result to adjust()."""
        return len(self.samples), self.spent

    def adjust(self, mark: tuple[int, float], raw: float) -> tuple[float, float]:
        """(adjusted, raw) seconds of an interval whose measured time is
        ``raw``, the sampler's own time taken out of both."""
        first, spent = mark
        raw -= self.spent - spent
        window = self.samples[min(first, len(self.samples) - WINDOW):]
        return raw * REFERENCE_S / statistics.median(window), raw

    def median_kernel(self) -> float:
        return statistics.median(self.samples)
