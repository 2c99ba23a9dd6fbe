"""Host-speed calibration: express measured times at a fixed reference speed.

The benchmark runs on shared virtual machines whose speed for a single
process changes by up to 2x within seconds as other tenants load the
host.
While an interval is timed, a ``SIGALRM`` timer interrupts it every
``PERIOD_S`` of wall time to run a fixed pure-Python kernel (no
``repro`` code) and time it.  The interval's time, minus the time spent
in those probes, is scaled by ``REFERENCE_S / mean probe time``.  A
change to the program moves the interval but not the probes; a change
in host speed moves both in step.
"""

from __future__ import annotations

import math
import random
import signal
import statistics
from time import perf_counter
from typing import Any, Callable

#: Probe time that counts as reference speed.
REFERENCE_S = 0.001
#: Wall time between probes while an interval is timed.
PERIOD_S = 0.05
#: Loop iterations of one probe (about REFERENCE_S on an idle host).
PROBE_STEPS = 1_600

# A 64k-entry table of floats in shuffled order (about 2 MB of objects),
# read at pseudo-random positions so the probe feels cache contention as
# the operations do, not only the core's speed.
_TABLE = [float(i) for i in range(1 << 16)]
random.Random(7).shuffle(_TABLE)


def _step(x: float, i: int) -> float:
    return math.sqrt(x * 0.5 + i) + (i & 7) * 0.125


def kernel(n: int = PROBE_STEPS) -> float:
    """A fixed interpreter-bound loop over calls, float math and table reads."""
    x, j, table = 0.0, 1, _TABLE
    for i in range(n):
        j = (j * 1103515245 + 12345) & 0xFFFF
        x = _step(x + table[j] * 1e-6, i) % 1000.0
    return x


class Scaler:
    """Times calls and scales them to reference host speed."""

    def __init__(self) -> None:
        self._probes: list[float] = []
        #: Wall seconds of the last call, probes included.
        self.last_wall = 0.0
        #: Unscaled seconds of the last call, without probe time.
        self.last_raw = 0.0
        #: The same interval at reference host speed.
        self.last_scaled = 0.0

    def _probe(self, *_: Any) -> None:
        start = perf_counter()
        kernel()
        self._probes.append(perf_counter() - start)

    def run(self, fn: Callable[[], Any]) -> Any:
        """Call ``fn``, probing host speed before, during and after it.

        Sets :attr:`last_raw` and :attr:`last_scaled` even when ``fn``
        raises.
        """
        self._probes = []
        self._probe()
        previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        start = perf_counter()
        try:
            return fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            elapsed = perf_counter() - start
            signal.signal(signal.SIGALRM, previous)
            inside = sum(self._probes[1:])
            self._probe()
            self.last_wall = elapsed
            self.last_raw = elapsed - inside
            self.last_scaled = self.last_raw * REFERENCE_S / statistics.fmean(self._probes)
