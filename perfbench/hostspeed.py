"""Host-speed probes: phase times in seconds at a fixed reference speed.

A small shared host drifts in speed by ±20% over tens of seconds and
more, and every piece of CPU work slows with it, so run-to-run spread
of a raw phase time stays near 20% however long the runs are.  The
benchmark therefore interleaves a fixed pure-Python *probe* (pointer
chasing over a 50k-object pool, dict lookups and heap operations —
the kind of work the simulator does) with the simulation: one probe
every :data:`PROBE_EVERY` simulated seconds.  A phase's time is
reported as ``raw host seconds × REFERENCE_S / median probe time``,
which is the time the phase would have taken had the host run probes
at the reference speed.  The probe is the benchmark's own code, so a
change to the program moves the phase time and not the probes.
"""

from __future__ import annotations

import heapq
import statistics
import time
import typing as t

#: Simulated seconds between two probes.
PROBE_EVERY = 2.0
#: Iterations of one probe.
PROBE_ITERATIONS = 1000
#: Objects the probe chases pointers over.
POOL_SIZE = 50_000
#: A typical median probe time, interleaved with the simulation, on a
#: 2-vCPU Intel Xeon container: the speed every reported phase time is
#: scaled to.
REFERENCE_S = 0.0014


class _Cell:
    __slots__ = ("count", "key", "next")

    def __init__(self, index: int) -> None:
        self.count = 0
        self.key = index * 3
        self.next: t.Optional["_Cell"] = None


class HostSpeed:
    """Fixed-work probes and the phase clock built on them."""

    def __init__(self) -> None:
        cells = [_Cell(index) for index in range(POOL_SIZE)]
        for index, cell in enumerate(cells):
            cell.next = cells[(index * 7919 + 1) % POOL_SIZE]
        self._start = cells[0]
        self._table = {index: (index & 7, str(index))
                       for index in range(POOL_SIZE)}
        self.probes: t.List[float] = []

    def probe(self) -> None:
        """Run the fixed probe once and record its host time."""
        started = time.perf_counter()
        cell, table = self._start, self._table
        heap: t.List[t.Tuple[int, int]] = []
        total = 0
        for step in range(PROBE_ITERATIONS):
            cell = cell.next
            cell.count += 1
            total += table[(cell.key + step) % POOL_SIZE][0]
            heapq.heappush(heap, (cell.count & 1023, step))
            if len(heap) > 64:
                heapq.heappop(heap)
        self._start = cell
        self.probes.append(time.perf_counter() - started)

    def scale(self, first_probe: int) -> float:
        """Reference-speed factor of the probes since ``first_probe``."""
        return REFERENCE_S / statistics.median(self.probes[first_probe:])

    def run(self, sim: t.Any, until: t.Any) -> float:
        """``sim.run(until=until)`` in slices of :data:`PROBE_EVERY`
        simulated seconds with a probe before each; returns the host
        seconds spent inside ``sim.run``.

        Each slice stops at whichever fires first, ``until`` or a
        slice timer; the timers touch no program state.
        """
        spent = 0.0
        while not until.processed:
            self.probe()
            stop = sim.any_of([until, sim.timeout(PROBE_EVERY)])
            started = time.perf_counter()
            sim.run(until=stop)
            spent += time.perf_counter() - started
        return spent
