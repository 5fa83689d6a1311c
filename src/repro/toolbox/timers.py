"""Fast timers ("Measuring Output", §5).

On real hardware the toolbox wraps a platform-specific cycle counter
(``rdtsc`` on Intel); here the equivalent low-overhead channel is the
``gettime`` syscall.  These helpers are generator sub-routines: call them
with ``yield from`` inside a process.
"""

from __future__ import annotations

from typing import Generator

from repro.sim import syscalls as sc
from repro.sim.syscalls import Syscall


def now() -> Generator:
    """Current simulated time: ``t = yield from timers.now()``."""
    result = yield sc.gettime()
    return result.value


def time_call(syscall: Syscall) -> Generator:
    """Issue a syscall and return ``(value, elapsed_ns)``.

    The kernel stamps every result with its elapsed time, so this needs
    no extra gettime pair — it is the cheapest way to time one operation.
    """
    result = yield syscall
    return result.value, result.elapsed_ns


class Stopwatch:
    """Interval timing across *multiple* operations.

    ::

        watch = Stopwatch()
        yield from watch.start()
        ... arbitrary syscalls ...
        elapsed = yield from watch.stop()

    Unlike :func:`time_call`, the measured interval includes scheduling
    interference from other processes — sometimes that is exactly what an
    ICL wants to observe (e.g. MS Manners-style progress tracking), and
    sometimes it is the noise the statistics modules must reject.
    """

    def __init__(self) -> None:
        self._started_at: int = -1
        self.laps: list = []

    def start(self) -> Generator:
        result = yield sc.gettime()
        self._started_at = result.value
        return result.value

    def stop(self) -> Generator:
        if self._started_at < 0:
            raise RuntimeError("Stopwatch.stop() before start()")
        result = yield sc.gettime()
        elapsed = result.value - self._started_at
        self.laps.append(elapsed)
        self._started_at = -1
        return elapsed

    @property
    def total_ns(self) -> int:
        return sum(self.laps)
