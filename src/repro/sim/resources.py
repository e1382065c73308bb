"""Shared-resource models for the kernel.

Three resources cover everything the reproduction needs:

* :class:`Resource` — a counted semaphore with a FIFO wait queue
  (e.g. a proxy's connection-slot limit).
* :class:`Store` — an unbounded FIFO of items with blocking ``get``
  (e.g. a NIC receive queue feeding a protocol process).
* :class:`ProcessorSharingServer` — an egalitarian processor-sharing
  CPU, the queueing model behind the paper's Figure 7 scalability
  experiment: every in-flight request receives ``capacity / n`` service
  rate, so response time inflates smoothly with load and saturates when
  demand exceeds capacity.
"""

from __future__ import annotations

import typing as t
from collections import deque

from ..errors import SimulationError
from .events import Event, Timeout
from .kernel import Simulator


class Resource:
    """Counted resource with FIFO queueing.

    Usage from a process::

        yield resource.acquire()
        try:
            ...
        finally:
            resource.release()
    """

    def __init__(self, sim: Simulator, capacity: int = 1) -> None:
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self._in_use = 0
        self._waiters: t.Deque[Event] = deque()

    @property
    def in_use(self) -> int:
        """Number of currently-held slots."""
        return self._in_use

    @property
    def queue_length(self) -> int:
        """Number of processes waiting for a slot."""
        return len(self._waiters)

    def acquire(self) -> Event:
        """Return an event that fires once a slot is held."""
        event = Event(self.sim)
        if self._in_use < self.capacity:
            self._in_use += 1
            event.succeed(self)
        else:
            self._waiters.append(event)
        return event

    def release(self) -> None:
        """Release one slot, waking the oldest waiter if any."""
        if self._in_use <= 0:
            raise SimulationError("release() without a matching acquire()")
        if self._waiters:
            waiter = self._waiters.popleft()
            waiter.succeed(self)
        else:
            self._in_use -= 1


class Store:
    """Unbounded FIFO of items with blocking ``get``.

    Every TCP connection keeps one as its inbox, so the queues are
    lists, not deques: an empty deque takes 760 B on CPython 3.11 and
    an empty list 56 B, and these queues hold a handful of entries at
    most, where ``pop(0)`` costs nothing.
    """

    __slots__ = ("sim", "_items", "_getters", "_watchers")

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self._items: t.List[t.Any] = []
        self._getters: t.List[Event] = []
        self._watchers: t.List[Event] = []

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: t.Any) -> None:
        """Deposit ``item``, waking the oldest blocked getter if any."""
        if self._getters:
            self._getters.pop(0).succeed(item)
            return
        self._items.append(item)
        if self._watchers:
            watchers, self._watchers = self._watchers, []
            for watcher in watchers:
                if not watcher.triggered:
                    watcher.succeed(None)

    def watch(self) -> Event:
        """Event that fires once an item is *queued* (without taking it).

        Unlike :meth:`get`, abandoning a watch event loses nothing —
        useful for long-poll patterns that race a timeout against
        item availability.
        """
        event = self.sim.event()
        if self._items:
            event.succeed(None)
        else:
            self._watchers.append(event)
        return event

    def get(self) -> Event:
        """Return an event that fires with the next item."""
        event = Event(self.sim)
        if self._items:
            event.succeed(self._items.pop(0))
        else:
            self._getters.append(event)
        return event

    def fail_getters(self, error: t.Callable[[], BaseException]) -> None:
        """Fail every blocked getter, oldest first, each with a fresh
        ``error()``.  Queued items stay queued."""
        getters = self._getters
        while getters:
            getters.pop(0).fail(error())


class _PsJob:
    __slots__ = ("remaining", "event")

    def __init__(self, demand: float, event: Event) -> None:
        self.remaining = demand
        self.event = event


class ProcessorSharingServer:
    """An M/G/1-PS style CPU: all jobs share ``capacity`` equally.

    ``capacity`` is in work-units per second; a job submitted with
    ``demand`` work-units completes after ``demand * n / capacity``
    seconds when ``n`` jobs are continuously present.  Completion times
    are recomputed on every arrival and departure, which is exact for
    egalitarian processor sharing.

    Every job in service was last drained at the same instant,
    ``_drained_at``, so one drain subtracts one ``capacity / n *
    (now - _drained_at)`` from each; the frozen per-job original,
    ``repro.perf.reference.ReferenceProcessorSharingServer``, computed
    that same float once per job.
    """

    def __init__(self, sim: Simulator, capacity: float = 1.0, name: str = "cpu") -> None:
        if capacity <= 0:
            raise SimulationError(f"capacity must be positive, got {capacity}")
        self.sim = sim
        self.capacity = float(capacity)
        self.name = name
        self._jobs: t.List[_PsJob] = []
        self._wakeup: t.Optional[Timeout] = None
        self._drained_at = 0.0

    @property
    def load(self) -> int:
        """Number of jobs currently in service."""
        return len(self._jobs)

    def submit(self, demand: float) -> Event:
        """Submit a job of ``demand`` work-units; event fires at completion."""
        if demand < 0:
            raise SimulationError(f"negative demand: {demand}")
        event = Event(self.sim)
        if demand == 0:
            event.succeed(None)
            return event
        self._drain()
        self._jobs.append(_PsJob(demand, event))
        self._reschedule()
        return event

    # -- internals ---------------------------------------------------------

    def _drain(self) -> None:
        """Apply service accrued since the last drain to every job."""
        now = self.sim._now
        jobs = self._jobs
        if jobs:
            served = self.capacity / len(jobs) * (now - self._drained_at)
            for job in jobs:
                job.remaining -= served
        self._drained_at = now

    def _reschedule(self) -> None:
        """Re-arm the wakeup timer for the next completion.

        Eager: a submit mostly delays completion, and the superseded
        timer fires and does nothing; a lazy timer saved <4%.
        """
        jobs = self._jobs
        if not jobs:
            self._wakeup = None
            return
        shortest = jobs[0].remaining
        for job in jobs:
            if job.remaining < shortest:
                shortest = job.remaining
        timer = Timeout(self.sim, max(0.0, shortest / (self.capacity / len(jobs))))
        timer._callbacks = self._on_wakeup
        self._wakeup = timer

    def _on_wakeup(self, timer: Event) -> None:
        if self._wakeup is not timer:
            return  # superseded by a later arrival
        self._drain()
        finished = []
        running = []
        for job in self._jobs:
            if job.remaining <= 1e-12:
                finished.append(job)
            else:
                running.append(job)
        self._jobs = running
        self._reschedule()
        for job in finished:
            job.event.succeed(None)
