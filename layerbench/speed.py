"""Host-speed probes: how fast the CPU runs Python right now.

The shared host this benchmark was built on runs the same code at two
speeds that differ by about 45%, switching every few seconds to every
few minutes; process CPU time moves with wall time, so the CPU itself
is slower, not just busy elsewhere.  A median over passes cannot remove
a slow phase that covers a whole run.  So while jobs run, a profiling
timer (``ITIMER_PROF``, which counts this process's CPU time) fires
every ``INTERVAL_S`` and the handler times a fixed pure-Python kernel.
A job's time is then rescaled to the reference speed::

    reference seconds = (measured seconds - probe seconds) * mean(REFERENCE_PROBE_S / probe)

over the probes taken while the job ran (widened to the nearest
``MIN_PROBES`` probes for short jobs).  The mean of the speed ratio is
the right average for samples taken uniformly in time, and a probe that
the scheduler interrupted only lowers its own ratio a little.

Report jobs follow the probe one for one: over the passes of 15 runs,
log job time against log speed has slope -0.9 to -1.1 (correlation
0.97 to 1.0) for every job longer than 0.1 s.  CLI start-up does not:
it is process creation, loading numpy's extension modules and
unmarshalling, and across 60 fresh interpreters its slope was -0.58
(correlation 0.89) and it also drifted on its own.  So start-up is
rescaled by a reference start-up of the same kind instead, a fresh
interpreter that imports numpy (``REFERENCE_STARTUP``), timed just
before and just after it::

    reference seconds = measured seconds * REFERENCE_STARTUP_S / reference start-up seconds

Over ten minutes of alternating start-ups, per-minute medians of that
ratio stayed within 1%, where the start-up itself moved by 6%.

The kernel does what elimination and pointwise evaluation spend their
time on: loop bytecode, list indexing and arithmetic on integers wider
than a machine word.
"""

from __future__ import annotations

import bisect
import signal
import sys
from time import perf_counter

INTERVAL_S = 0.02  # process CPU time between probes
KERNEL_STEPS = 400
MIN_PROBES = 8
# The kernel's time on the 2-vCPU Xeon host of the baseline in its
# faster state; it only sets the scale of the reported seconds.
REFERENCE_PROBE_S = 1.6e-4

# A start-up the program does not control, and its time on the same
# host; it only sets the scale of the reported set-up seconds.
REFERENCE_STARTUP = (sys.executable, "-c", "import numpy")
REFERENCE_STARTUP_S = 0.18

_WIDE = (1 << 61) - 1


def kernel(steps: int = KERNEL_STEPS) -> int:
    row = [(_WIDE * (i + 3)) ^ (i << 17) for i in range(16)]
    acc = 1
    for i in range(steps):
        a = row[i & 15]
        acc = (acc * a + row[(i + 5) & 15]) % _WIDE
        row[i & 15] = a + acc
    return acc


class Probe:
    """Times ``kernel`` every ``INTERVAL_S`` of CPU time while installed.

    ``samples`` holds ``(start, seconds)`` pairs on the ``perf_counter``
    clock.
    """

    def __init__(self):
        self.samples = []
        self._previous = None

    def _handler(self, _signum, _frame):
        start = perf_counter()
        kernel()
        self.samples.append((start, perf_counter() - start))

    def install(self) -> None:
        self._previous = signal.signal(signal.SIGPROF, self._handler)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def uninstall(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous or signal.SIG_DFL)

    def probe_seconds(self, start: float, end: float) -> float:
        """Seconds spent in probes that started within ``[start, end)``."""
        return sum(d for t, d in self.samples if start <= t < end)

    def speed(self, start: float, end: float) -> float:
        """Mean of REFERENCE_PROBE_S / probe over the probes in
        ``[start, end)``, widened to the ``MIN_PROBES`` nearest."""
        return speed_of(self.samples, start, end)


def speed_of(samples, start: float, end: float) -> float:
    if not samples:
        raise RuntimeError("no speed probe was taken")
    times = [t for t, _ in samples]
    lo, hi = bisect.bisect_left(times, start), bisect.bisect_left(times, end)
    while hi - lo < min(MIN_PROBES, len(samples)):
        before = start - times[lo - 1] if lo > 0 else float("inf")
        after = times[hi] - end if hi < len(times) else float("inf")
        if before <= after:
            lo -= 1
        else:
            hi += 1
    window = samples[lo:hi]
    return sum(REFERENCE_PROBE_S / d for _, d in window) / len(window)
