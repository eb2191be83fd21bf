"""Host time normalised to a reference CPU speed.

On a shared machine the throughput of one core drifts by up to 2x over
seconds to minutes while other tenants come and go.  CPU time drifts
with it, so the raw time of one identical simulator call spreads 20-30%
from run to run.  A :class:`HostClock` therefore interrupts the timed
work every ``SEGMENT_S`` (an interval timer) to run a fixed pure-Python
*calibration unit*, and rescales each segment of work by how
fast the units around it ran::

    host_s = sum(segment_cpu_s * REFERENCE_UNIT_S / unit_cpu_s_nearby)

The result reads as "CPU seconds on this machine at its reference
speed".  It moves with the work done, not with the neighbours' load.
Both sides are process CPU time, so waiting for a page-cache miss or for
the scheduler counts in neither.  The unit is the benchmark's own code:
a change to the simulator never changes it.

Standard library only: ``run.py`` starts a clock before importing
anything else, so that set-up time is normalised too.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import Callable, List

#: CPU seconds one :func:`calibration_unit` takes on a quiet core of the
#: reference machine (a 2.0 GHz Intel Xeon vCPU, Python 3.11).
REFERENCE_UNIT_S = 0.00054
#: Seconds of work between two calibration units (each unit costs about
#: 0.55 ms, so about 3% of the timed work).
SEGMENT_S = 0.02
#: Units taken at each end of the timed work.
END_UNITS = 5
#: A segment is rescaled by the median of the units within this many
#: positions of it, so one unit hit by an interrupt does not skew it.
WINDOW = 3


def calibration_unit(n: int = 3000) -> float:
    """A fixed mix of dict updates, float arithmetic and calls."""
    table: dict = {}
    acc = 0.0
    for i in range(n):
        key = i & 255
        table[key] = table.get(key, 0) + i
        acc += (i * 0.5) % 7.0
    return acc + min(table.values())


def normalise(cpu_s: float, units: List[float],
              reference_s: float = REFERENCE_UNIT_S) -> float:
    """``cpu_s`` rescaled by the median of calibration ``units``."""
    return cpu_s * reference_s / statistics.median(units)


class HostClock:
    """Times one stretch of work as a context manager.

    With ``timer`` on, a ``SIGALRM`` interval timer calls :meth:`tick`
    every ``SEGMENT_S`` (main thread only; a CPU-time timer would freeze
    the process CPU clock inside its handler on Linux).  Work whose time
    other code attributes (the traced run) turns it off and is rescaled
    by the units at its two ends.  ``cpu_s`` is the raw CPU time of the
    work without the units; ``host_s`` is the normalised time.
    """

    def __init__(self, timer: bool = True,
                 clock: Callable[[], float] = time.process_time,
                 unit: Callable[[], object] = calibration_unit,
                 reference_s: float = REFERENCE_UNIT_S) -> None:
        self.timer = timer
        self.clock = clock
        self.unit = unit
        self.reference_s = reference_s
        self.units: List[float] = []
        self.segments: List[float] = []
        self._start = 0.0
        self._handler = None
        self._expected_units = 0

    def calibrate(self, count: int = 1) -> None:
        self._expected_units += count
        for _ in range(count):
            t0 = self.clock()
            self.unit()
            self.units.append(self.clock() - t0)

    def __enter__(self) -> "HostClock":
        self.calibrate(END_UNITS)
        self._start = self.clock()
        if self.timer:
            self._handler = signal.signal(signal.SIGALRM, self._on_signal)
            signal.setitimer(signal.ITIMER_REAL, SEGMENT_S, SEGMENT_S)
        return self

    def _on_signal(self, _signum, _frame) -> None:
        if len(self.units) == self._expected_units:  # not inside a unit
            self.tick()

    def tick(self) -> None:
        """Close the current segment and run one unit."""
        self.segments.append(self.clock() - self._start)
        self.calibrate()
        self._start = self.clock()

    def __exit__(self, *exc) -> None:
        if self.timer:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._handler)
        self.segments.append(self.clock() - self._start)
        self.calibrate(END_UNITS)

    @property
    def cpu_s(self) -> float:
        return sum(self.segments)

    @property
    def host_s(self) -> float:
        # Segment i lies between unit END_UNITS - 1 + i and the next one.
        first = END_UNITS - 1
        total = 0.0
        for i, seg in enumerate(self.segments):
            nearby = self.units[max(0, first + i - WINDOW + 1):
                                first + i + 1 + WINDOW]
            total += normalise(seg, nearby, self.reference_s)
        return total
