"""The bounded queueing primitive behind admission control.

:class:`ConcurrencyLimiter` is a counted semaphore with a *bounded*
waiting room, priority-aware shedding, and per-waiter delay caps.
Built on the same event machinery as :mod:`repro.sim.resources`, but
where :class:`repro.sim.resources.Resource` queues forever, the
limiter fails a waiter's event with
:class:`~repro.errors.OverloadError` the moment it decides the work
will not be served in time.

It is deterministic: grant order is (priority band, arrival sequence)
and every decision is driven by simulated time only.
"""

from __future__ import annotations

import typing as t

from ..errors import OverloadError, SimulationError
from ..sim import Event, Simulator


class _Waiter:
    __slots__ = ("priority", "seq", "enqueued_at", "deadline", "event", "timer")

    def __init__(self, priority: int, seq: int, enqueued_at: float,
                 deadline: t.Optional[float], event: Event) -> None:
        self.priority = priority
        self.seq = seq
        self.enqueued_at = enqueued_at
        self.deadline = deadline
        self.event = event
        self.timer: t.Optional[Event] = None


class ConcurrencyLimiter:
    """Counted concurrency limit with a bounded, priority-aware wait queue.

    * ``acquire`` admits immediately when a slot is free; otherwise the
      caller joins a waiting room of at most ``max_waiting`` entries.
      When the room is full, the *worst* waiter — lowest priority
      (highest number), then youngest — is evicted to make space for a
      strictly higher-priority newcomer; otherwise the newcomer itself
      is rejected.  A waiter still queued after ``max_wait`` seconds is
      shed.  Rejection in every case means the acquire event *fails*
      with :class:`~repro.errors.OverloadError`.
    * ``release`` grants the freed slot to the best live waiter
      (lowest priority number, then oldest), skipping any whose
      deadline has already expired.

    The acquire event's value is the queueing delay in seconds, which
    is also appended to :attr:`queue_delays` on every grant.
    """

    def __init__(self, sim: Simulator, capacity: int, max_waiting: int = 0,
                 max_wait: t.Optional[float] = None,
                 name: str = "limiter") -> None:
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        if max_waiting < 0:
            raise SimulationError(f"max_waiting must be >= 0, got {max_waiting}")
        self.sim = sim
        self.capacity = capacity
        self.max_waiting = max_waiting
        self.max_wait = max_wait
        self.name = name
        self._in_use = 0
        self._seq = 0
        self._waiters: t.List[_Waiter] = []
        #: Counters for degradation metrics.
        self.evicted = 0
        self.timed_out = 0
        self.deadline_drops = 0
        #: Queueing delay of every admission, in grant order.
        self.queue_delays: t.List[float] = []

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queue_length(self) -> int:
        return len(self._waiters)

    def acquire(self, priority: int = 0,
                deadline: t.Optional[float] = None) -> Event:
        """Event that fires with the queueing delay once a slot is held.

        Fails with :class:`OverloadError` when the caller is shed —
        rejected outright, evicted by a higher-priority newcomer, or
        still waiting after ``max_wait`` seconds.
        """
        event = self.sim.event()
        if self._in_use < self.capacity:
            self._in_use += 1
            self.queue_delays.append(0.0)
            event.succeed(0.0)
            return event
        if self.max_waiting <= 0:
            event.fail(OverloadError(f"{self.name}: at capacity"))
            return event
        if len(self._waiters) >= self.max_waiting:
            victim = self._worst_waiter()
            if victim is None or victim.priority <= priority:
                event.fail(OverloadError(f"{self.name}: waiting room full"))
                return event
            self._shed(victim, "evicted by higher-priority arrival")
            self.evicted += 1
        self._seq += 1
        waiter = _Waiter(priority, self._seq, self.sim.now, deadline, event)
        self._waiters.append(waiter)
        if self.max_wait is not None:
            waiter.timer = self.sim.schedule(
                self.max_wait, self._on_wait_expired, waiter)
        return event

    def release(self) -> None:
        """Release one slot, granting it to the best live waiter if any."""
        if self._in_use <= 0:
            raise SimulationError("release() without a matching acquire()")
        while self._waiters:
            best = min(self._waiters, key=lambda w: (w.priority, w.seq))
            self._waiters.remove(best)
            if best.deadline is not None and self.sim.now >= best.deadline:
                self.deadline_drops += 1
                self._fail_waiter(best, OverloadError(
                    f"{self.name}: deadline expired while queued"))
                continue
            delay = self.sim.now - best.enqueued_at
            self.queue_delays.append(delay)
            self._fire_waiter(best, delay)
            return
        self._in_use -= 1

    # -- internals ---------------------------------------------------------

    def _worst_waiter(self) -> t.Optional[_Waiter]:
        if not self._waiters:
            return None
        return max(self._waiters, key=lambda w: (w.priority, w.seq))

    def _shed(self, waiter: _Waiter, reason: str) -> None:
        self._waiters.remove(waiter)
        self._fail_waiter(waiter, OverloadError(f"{self.name}: {reason}"))

    def _on_wait_expired(self, waiter: _Waiter) -> None:
        if waiter not in self._waiters:
            return  # already granted or shed
        self.timed_out += 1
        self._shed(waiter, f"queued longer than {self.max_wait:g}s")

    def _fail_waiter(self, waiter: _Waiter, exc: OverloadError) -> None:
        waiter.timer = None
        waiter.event.fail(exc)

    def _fire_waiter(self, waiter: _Waiter, delay: float) -> None:
        waiter.timer = None
        waiter.event.succeed(delay)
