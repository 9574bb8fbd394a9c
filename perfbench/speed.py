"""Host-speed probe: call times scaled to a fixed reference speed.

A shared host runs this benchmark at a speed that drifts by up to 2x, in
phases of a second to a minute, so the raw time of a 25-second run moves by
20% or more from run to run whatever the program does.  While set-up and
the calls are timed, SIGALRM runs a fixed loop of Fraction arithmetic (the
program's own kind of work, but none of its code) every period inside the
process and records how long the loop took.  A call's time with the probe
loops taken out, multiplied by the mean of REFERENCE_S / loop time over the
probes that ran during it, is the call's time at the reference speed.  A
change to the program changes the call times but not the loop, so it shows
in full.  The loops take about 2% of a call's time (10% of set-up's), and
are not counted in it.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from fractions import Fraction

PERIOD_S = 0.05
SETUP_PERIOD_S = 0.01  # set-up is short, so it is sampled more often
STEPS = 150
# Loop time at the reference speed; about the median on a 2-vCPU x86-64 VM
# with Python 3.11, so scaled times read close to seconds there.
REFERENCE_S = 0.0010


def reference_loop():
    acc = Fraction(0)
    for i in range(1, STEPS):
        acc = acc * Fraction(3, 4) + Fraction(i, i + 7)
    return acc


class SpeedProbe:
    """Samples the host's speed from start() to stop()."""

    def __init__(self, period=PERIOD_S):
        self.period = period
        self.starts = []  # perf_counter() at each probe's start, ascending
        self.samples = []  # (wall s, CPU s) of each probe loop

    def _tick(self, signum, frame):
        # No collection inside the loop: its cost depends on the program's heap.
        collecting = gc.isenabled()
        gc.disable()
        cpu = time.process_time()
        start = time.perf_counter()
        reference_loop()
        self.samples.append((time.perf_counter() - start, time.process_time() - cpu))
        self.starts.append(start)
        if collecting:
            gc.enable()

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def speed(self):
        """Median host speed over the run, as a multiple of the reference."""
        return statistics.median(REFERENCE_S / wall for wall, _cpu in self.samples)

    def normalise(self, start, wall, cpu):
        """(wall, CPU) seconds at the reference speed of a call timed from ``start``.

        The probes that ran inside the call are taken out of its times and
        give its speed; a call too short to hold one uses the probes just
        before and after it.
        """
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, start + wall)
        inside = self.samples[lo:hi]
        near = inside or self.samples[max(lo - 1, 0) : lo + 1]
        if not near:
            raise ValueError("no speed probe ran during the measurement")
        net_wall = wall - sum(w for w, _c in inside)
        net_cpu = cpu - sum(c for _w, c in inside)
        return (
            net_wall * statistics.mean(REFERENCE_S / w for w, _c in near),
            net_cpu * statistics.mean(REFERENCE_S / c for _w, c in near),
        )
