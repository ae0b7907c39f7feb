"""Host-speed normalization of the benchmark's wall times.

The benchmark runs on a shared VM whose vCPUs slow down by up to 40 % for
stretches of seconds to minutes, with no steal time reported: another
tenant contends for the same physical cores. Process CPU time slows with
wall time, so neither tells the program's cost apart from the host's state.

:class:`HostSpeed` measures the host's state while the program runs. A
``SIGALRM`` timer interrupts the main thread every :data:`PERIOD` seconds
and times one fixed :func:`probe`: a pure-Python arithmetic loop plus dict
lookups, the same kinds of interpreter work the package does. For a timed
interval, the time spent in probes is subtracted from the wall time, and
the rest is divided by the host factor: the median probe duration in that
interval over :data:`REFERENCE_S`. The result reads as seconds on a host
where one probe takes :data:`REFERENCE_S`.

The probe is benchmark code, so a change to the package cannot speed it up.
It allocates no container objects, so it does not move the package's
garbage-collection schedule or its outputs.
"""

from __future__ import annotations

import signal
import statistics
import time

PERIOD = 0.25  # seconds between probes
# A typical probe duration on the 2-vCPU Xeon VM the benchmark was defined
# on (Python 3.11.7). It only sets the scale of the normalized times.
REFERENCE_S = 0.0025

_TABLE = {(i, i % 13): i for i in range(100_000)}
_KEYS = list(_TABLE)[::11]


def probe() -> int:
    """A fixed unit of interpreter work (about 2 ms on a quiet host)."""
    s = 0
    for i in range(4_000):
        s += i * i % 7
    table = _TABLE
    for key in _KEYS:
        s += table[key]
    return s


class HostSpeed:
    """Times :func:`probe` every :data:`PERIOD` seconds while installed."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._previous = None

    def _sample(self) -> None:
        t0 = time.perf_counter()
        probe()
        self.samples.append(time.perf_counter() - t0)

    def _on_alarm(self, signum, frame) -> None:
        self._sample()

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self, n: int = 5) -> float:
        """Host factor from ``n`` probes taken now, for intervals timed
        without the timer."""
        first = len(self.samples)
        for _ in range(n):
            self._sample()
        return statistics.median(self.samples[first:]) / REFERENCE_S

    def timed(self, fn):
        """Call ``fn`` with the timer installed. Return its result, its wall
        time with the probes taken out and normalized, the raw wall time and
        the host factor."""
        first = len(self.samples)
        t0 = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - t0
        own = sum(self.samples[first:])
        while len(self.samples) - first < 3:  # too short for the timer
            self._sample()
        factor = statistics.median(self.samples[first:]) / REFERENCE_S
        return result, (wall - own) / factor, wall, factor
