"""Event primitives for the discrete-event kernel.

An :class:`Event` is a one-shot occurrence that processes can wait on.
It moves through three states: *pending* (created, not yet decided),
*triggered* (scheduled to fire), and *processed* (callbacks have run).
Events may succeed with a value or fail with an exception; a process
waiting on a failed event has the exception thrown into its generator.

This mirrors the SimPy event model closely enough that anyone who has
used SimPy can read the scenario code, without pulling in a dependency.
"""

from __future__ import annotations

import typing as t
from heapq import heappush

from ..errors import SimulationError

if t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .kernel import Simulator

#: Priority band for events that must fire before ordinary events at the
#: same timestamp (e.g. interrupts).
PRIORITY_URGENT = 0
#: Default priority band.
PRIORITY_NORMAL = 1


class Event:
    """A one-shot occurrence in simulated time.

    Parameters
    ----------
    sim:
        The owning simulator.  An event can only be waited on by
        processes of the same simulator.
    """

    __slots__ = ("sim", "_callbacks", "_value", "_ok", "_decided", "_processed")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        # Waiter storage is adaptive: None (no waiters), a bare callable
        # (the overwhelmingly common single-waiter case — one process
        # awaiting one event), or a list once a second waiter appears.
        # Most events never pay for a list allocation.
        self._callbacks: t.Union[None, t.Callable[["Event"], None],
                                 t.List[t.Callable[["Event"], None]]] = None
        self._value: t.Any = None
        self._ok: t.Optional[bool] = None
        self._decided = False
        self._processed = False

    @classmethod
    def _prompt(cls, sim: "Simulator", callback: t.Callable[["Event"], None],
                ok: bool = True, value: t.Any = None,
                priority: int = PRIORITY_NORMAL) -> "Event":
        """A pre-decided single-waiter event, scheduled in one step.

        Used by the kernel for process bootstrap and interrupts: one
        allocation and one heap push, consuming exactly one sequence
        number — the same queue footprint as ``Event().succeed()`` plus
        ``add_callback`` took, so event ordering is unchanged.
        """
        event = cls(sim)
        event._decided = True
        event._ok = ok
        event._value = value
        event._callbacks = callback
        seq = sim._seq + 1
        sim._seq = seq
        heappush(sim._queue, (sim._now, priority, seq, event))
        return event

    # -- state inspection ------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once the event has been decided (succeed/fail called)."""
        return self._decided

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self._processed

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only meaningful once triggered."""
        if self._ok is None:
            raise SimulationError("event has not been decided yet")
        return self._ok

    @property
    def value(self) -> t.Any:
        """The success value or failure exception."""
        if not self._decided:
            raise SimulationError("event has not been decided yet")
        return self._value

    # -- state transitions -----------------------------------------------

    def succeed(self, value: t.Any = None) -> "Event":
        """Decide the event successfully and schedule its callbacks."""
        # ``_decide``, inline: every wake-up of a waiting process runs
        # through here.
        if self._decided:
            raise SimulationError(f"{self!r} has already been decided")
        self._decided = True
        self._ok = True
        self._value = value
        sim = self.sim
        seq = sim._seq + 1
        sim._seq = seq
        heappush(sim._queue, (sim._now, PRIORITY_NORMAL, seq, self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Decide the event with a failure and schedule its callbacks."""
        if not isinstance(exception, BaseException):
            raise SimulationError(f"fail() needs an exception, got {exception!r}")
        self._decide(False, exception)
        return self

    def _decide(self, ok: bool, value: t.Any) -> None:
        if self._decided:
            raise SimulationError(f"{self!r} has already been decided")
        self._decided = True
        self._ok = ok
        self._value = value
        sim = self.sim
        seq = sim._seq + 1
        sim._seq = seq
        heappush(sim._queue, (sim._now, PRIORITY_NORMAL, seq, self))

    def _run_callbacks(self) -> None:
        """Invoked by the kernel when the event is popped from the queue."""
        callbacks, self._callbacks = self._callbacks, None
        self._processed = True
        if callbacks is None:
            return
        if type(callbacks) is list:
            for callback in callbacks:
                callback(self)
        else:
            callbacks(self)

    def add_callback(self, callback: t.Callable[["Event"], None]) -> None:
        """Register ``callback(event)`` to run when the event fires.

        If the event has already been processed the callback runs
        immediately, so late subscribers do not deadlock.
        """
        if self._processed:
            callback(self)
            return
        current = self._callbacks
        if current is None:
            self._callbacks = callback
        elif type(current) is list:
            current.append(callback)
        else:
            self._callbacks = [current, callback]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "processed" if self._processed else (
            "triggered" if self._decided else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires after a fixed simulated delay."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: t.Any = None) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        # Event.__init__ inlined: a timeout is created per wait.
        self.sim = sim
        self._callbacks = None
        self._value = value
        self._ok = None
        self._decided = False
        self._processed = False
        self.delay = delay
        seq = sim._seq + 1
        sim._seq = seq
        heappush(sim._queue, (sim._now + delay, PRIORITY_NORMAL, seq, self))

    def _run_callbacks(self) -> None:
        # A timeout is decided at the moment it fires, not at creation,
        # so `triggered` correctly reads False while it is still pending.
        self._decided = True
        self._ok = True
        super()._run_callbacks()


class Call(Event):
    """An event that runs ``fn(*args)`` at an absolute simulated time.

    This is what :meth:`~repro.sim.kernel.Simulator.schedule` and
    :meth:`~repro.sim.kernel.Simulator.schedule_at` return: the call is
    stored on the event itself, so scheduling a packet delivery or a
    protocol timer allocates one event and no closure, and the event
    queues itself in one step.  ``fn`` runs before any callback added
    to the event.
    """

    __slots__ = ("_fn", "_args")

    def __init__(self, sim: "Simulator", when: float,
                 fn: t.Callable[..., t.Any], args: t.Tuple[t.Any, ...]) -> None:
        self.sim = sim
        self._callbacks = None
        self._value = None
        self._ok = None
        self._decided = False
        self._processed = False
        self._fn = fn
        self._args = args
        seq = sim._seq + 1
        sim._seq = seq
        heappush(sim._queue, (when, PRIORITY_NORMAL, seq, self))

    def _run_callbacks(self) -> None:
        self._decided = True
        self._ok = True
        callbacks, self._callbacks = self._callbacks, None
        self._processed = True
        self._fn(*self._args)
        if callbacks is None:
            return
        if type(callbacks) is list:
            for callback in callbacks:
                callback(self)
        else:
            callbacks(self)


class FlowEvent(Timeout):
    """A coarse-grained flow-level event (fluid fast path).

    Where a packet-mode transfer schedules one event per segment hop,
    a fluidized transfer schedules a single ``FlowEvent`` for the
    whole message: ``flow`` identifies the connection 5-tuple and
    ``kind`` the milestone (``"deliver"``, ``"fin"``, ...).  It is
    an ordinary :class:`Timeout` underneath — same ``(time, priority,
    seq)`` ordering, same queue — so flow events interleave
    deterministically with packet events in hybrid runs.
    """

    __slots__ = ("flow", "kind")

    def __init__(self, sim: "Simulator", delay: float, flow: t.Any,
                 kind: str) -> None:
        super().__init__(sim, delay)
        self.flow = flow
        self.kind = kind

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FlowEvent {self.kind!r} flow={self.flow!r} delay={self.delay}>"


class AnyOf(Event):
    """Fires as soon as any child event fires.

    Succeeds with a dict mapping each already-fired child to its value.
    If the first child to fire failed, this event fails with the same
    exception.
    """

    __slots__ = ("events",)

    def __init__(self, sim: "Simulator", events: t.Sequence[Event]) -> None:
        super().__init__(sim)
        self.events = tuple(events)
        if not self.events:
            self.succeed({})
            return
        for event in self.events:
            event.add_callback(self._on_child)

    def _on_child(self, event: Event) -> None:
        if self._decided:
            return
        if not event.ok:
            self.fail(event.value)
            return
        self.succeed(self._collect())

    def _collect(self) -> t.Dict[Event, t.Any]:
        return {
            event: event.value
            for event in self.events
            if event.triggered and event.ok
        }


class AllOf(Event):
    """Fires once every child event has fired.

    Succeeds with a dict mapping every child to its value; fails fast if
    any child fails.
    """

    __slots__ = ("events", "_remaining")

    def __init__(self, sim: "Simulator", events: t.Sequence[Event]) -> None:
        super().__init__(sim)
        self.events = tuple(events)
        self._remaining = len(self.events)
        if self._remaining == 0:
            self.succeed({})
            return
        for event in self.events:
            event.add_callback(self._on_child)

    def _on_child(self, event: Event) -> None:
        if self._decided:
            return
        if not event.ok:
            self.fail(event.value)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed({e: e.value for e in self.events})
