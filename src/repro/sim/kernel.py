"""The discrete-event simulation kernel: clock, queue, and processes.

A :class:`Simulator` owns a priority queue of (time, priority, seq,
event) entries.  :class:`Process` wraps a Python generator; the
generator yields :class:`~repro.sim.events.Event` objects and is resumed
with each event's value once it fires.  A process is itself an event
that succeeds with the generator's return value, so processes compose:

    def child(sim):
        yield sim.timeout(1.0)
        return 42

    def parent(sim):
        value = yield sim.process(child(sim))
        assert value == 42

The kernel is single-threaded and deterministic: ties in time are broken
by priority band, then by insertion order.
"""

from __future__ import annotations

import typing as t
from heapq import heappop

from ..errors import ProcessKilled, SimulationError
from .events import AllOf, AnyOf, Call, Event, FlowEvent, Timeout, PRIORITY_URGENT
from .rng import RngRegistry

ProcessGenerator = t.Generator[Event, t.Any, t.Any]


class Process(Event):
    """A running coroutine process, itself awaitable as an event."""

    __slots__ = ("generator", "_waiting_on", "name")

    def __init__(
        self,
        sim: "Simulator",
        generator: ProcessGenerator,
        name: t.Optional[str] = None,
    ) -> None:
        if not hasattr(generator, "send"):
            raise SimulationError(
                f"process body must be a generator, got {generator!r}; "
                "did you forget to call the generator function?")
        super().__init__(sim)
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._waiting_on: t.Optional[Event] = None
        # Kick-start the generator at the current simulated time.
        Event._prompt(sim, self._resume)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    def interrupt(self, cause: t.Any = None) -> None:
        """Throw :class:`ProcessKilled` into the process.

        The interrupt is delivered as an urgent event at the current
        time, so it wins ties against ordinary events.  Interrupting a
        finished process is a silent no-op, which makes watchdog timers
        safe to leave running.
        """
        if self.triggered:
            return
        Event._prompt(self.sim, self._resume, ok=False,
                      value=ProcessKilled(cause), priority=PRIORITY_URGENT)

    def _resume(self, event: Event) -> None:
        # Runs once per wake-up, so it reads the event's slots, not the
        # ``triggered``/``ok``/``value`` properties: a fired event is
        # always decided.
        if self._decided:
            return  # finished before a stale callback arrived
        self._waiting_on = None
        try:
            if event._ok:
                target = self.generator.send(event._value)
            else:
                target = self.generator.throw(event._value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except ProcessKilled as exc:
            # The process chose not to handle its interrupt; propagate
            # as a failure of the process event.
            self.fail(exc)
            return
        except Exception as exc:
            # An unhandled exception terminates *this process*, failing
            # its event for anyone awaiting it — it must not take the
            # whole simulation down (orphaned processes may fail long
            # after their parents stopped caring).
            self.fail(exc)
            return
        if not isinstance(target, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {target!r}; "
                "processes may only yield Event instances")
        if target.sim is not self.sim:
            raise SimulationError(
                f"process {self.name!r} yielded an event from a different simulator")
        self._waiting_on = target
        # ``target.add_callback(self._resume)``, inline.
        if target._processed:
            self._resume(target)
            return
        current = target._callbacks
        if current is None:
            target._callbacks = self._resume
        elif type(current) is list:
            current.append(self._resume)
        else:
            target._callbacks = [current, self._resume]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Process {self.name!r} alive={self.is_alive}>"


class Simulator:
    """Deterministic single-threaded discrete-event simulator.

    The simulator owns the experiment's :class:`RngRegistry`: every
    stochastic component defaults to a named stream from ``sim.rng``
    (``"link.loss"``, ``"gfw.interference"``, ...), so one ``seed``
    fixes the entire trace.
    """

    def __init__(self, seed: int = 0) -> None:
        self._now = 0.0
        self._queue: t.List[t.Tuple[float, int, int, Event]] = []
        self._seq = 0
        self._running = False
        self.rng = RngRegistry(seed)
        #: Optional fluid-flow registry (see :mod:`repro.perf.fluid`).
        #: ``None`` means pure packet mode; components must treat that
        #: as "no fast path" so packet-mode traces are bit-unchanged.
        self.fluid: t.Optional[t.Any] = None
        #: Optional edge-cache registry (see :mod:`repro.cache`).
        #: ``None`` means no caches are deployed; policy-change hooks
        #: must treat that as "nothing to invalidate".
        self.caches: t.Optional[t.Any] = None

    # -- clock -------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # -- event factories ----------------------------------------------------

    def event(self) -> Event:
        """Create an undecided event owned by this simulator."""
        return Event(self)

    def timeout(self, delay: float, value: t.Any = None) -> Timeout:
        """Create an event that fires ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def flow_event(self, delay: float, flow: t.Any, kind: str) -> FlowEvent:
        """Create a coarse-grained flow event ``delay`` seconds from now."""
        return FlowEvent(self, delay, flow, kind)

    def process(
        self,
        generator: ProcessGenerator,
        name: t.Optional[str] = None,
    ) -> Process:
        """Start a new process running ``generator``."""
        return Process(self, generator, name=name)

    def any_of(self, events: t.Sequence[Event]) -> AnyOf:
        """Event that fires when any of ``events`` fires."""
        return AnyOf(self, events)

    def all_of(self, events: t.Sequence[Event]) -> AllOf:
        """Event that fires when all of ``events`` have fired."""
        return AllOf(self, events)

    # -- scheduling ----------------------------------------------------------

    def schedule(self, delay: float, fn: t.Callable[..., t.Any],
                 *args: t.Any) -> Call:
        """Run ``fn(*args)`` after ``delay`` seconds; returns its timer.

        The timer is one event, queued once at ``now + delay``; ``fn``
        runs before callbacks added to it, and processes may wait on it.
        """
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        return Call(self, self._now + delay, fn, args)

    def schedule_at(self, when: float, fn: t.Callable[..., t.Any],
                    *args: t.Any) -> Call:
        """Run ``fn(*args)`` at the absolute time ``when``; returns its timer.

        The event is queued at exactly ``when``, with no ``now + delay``
        round trip, so a timer re-queued at a deadline computed earlier
        fires at the same float instant.  Ties break like
        :meth:`schedule`: by queueing order.
        """
        if when < self._now:
            raise SimulationError(
                f"schedule_at({when}) is in the past (now={self._now})")
        return Call(self, when, fn, args)

    # -- execution -----------------------------------------------------------

    def step(self) -> float:
        """Process the next scheduled event; returns its timestamp."""
        if not self._queue:
            raise SimulationError("simulation queue is empty")
        when, _priority, _seq, event = heappop(self._queue)
        if when < self._now:
            raise SimulationError("event scheduled in the past")  # pragma: no cover
        self._now = when
        event._run_callbacks()
        return when

    def peek(self) -> float:
        """Timestamp of the next event, or ``float('inf')`` if idle."""
        if not self._queue:
            return float("inf")
        return self._queue[0][0]

    def run(
        self,
        until: t.Union[None, float, Event] = None,
        max_events: t.Optional[int] = None,
    ) -> t.Any:
        """Run the simulation.

        Parameters
        ----------
        until:
            ``None`` runs until the queue drains.  A float runs until
            that simulated time.  An :class:`Event` runs until the event
            fires and returns its value (raising its exception if the
            event failed).
        max_events:
            Safety valve for tests; raise if exceeded.
        """
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run())")
        self._running = True
        try:
            return self._run_inner(until, max_events)
        finally:
            self._running = False

    def _run_inner(
        self,
        until: t.Union[None, float, Event],
        max_events: t.Optional[int],
    ) -> t.Any:
        stop_event: t.Optional[Event] = None
        stop_time: t.Optional[float] = None
        if isinstance(until, Event):
            stop_event = until
        elif until is not None:
            stop_time = float(until)
            if stop_time < self._now:
                raise SimulationError(
                    f"run(until={stop_time}) is in the past (now={self._now})")
        # ``step`` is looked up once per run, not once per event; it
        # stays the one call per event, so wrapping it counts events.
        step = self.step
        queue = self._queue
        processed = 0
        while queue:
            if stop_event is not None and stop_event._processed:
                break
            if stop_time is not None and queue[0][0] > stop_time:
                self._now = stop_time
                break
            step()
            processed += 1
            if max_events is not None and processed > max_events:
                raise SimulationError(f"exceeded max_events={max_events}")
        if stop_event is not None:
            if not stop_event.triggered:
                raise SimulationError(
                    "run() ended before its target event fired (deadlock?)")
            if not stop_event.ok:
                raise stop_event.value
            return stop_event.value
        if stop_time is not None and self._now < stop_time:
            self._now = stop_time
        return None


def _released() -> None:
    """The ``fn`` of a released :class:`LazyTimer`; never called."""


class LazyTimer:
    """A restartable timer that keeps one event queued, not one per arm.

    ``arm(delay)`` sets an absolute deadline, computed as ``now + delay``
    exactly as :meth:`Simulator.schedule` computes a fire time, and
    ``cancel()`` clears it.  An arm whose deadline is at or after the
    queued event's time leaves that event in place; when it fires, it
    re-queues itself at the deadline through
    :meth:`Simulator.schedule_at`.  So ``fn`` runs at exactly the float
    instant the last arm named, as an event queued on every arm would,
    but a timer re-armed on every packet keeps one event queued, not
    one per arm.

    The event that acts may carry a different ``seq`` from the one an
    event queued on every arm would have, so against another event at
    the identical instant the order can move either way:

    - a re-queued event takes a newer ``seq``, so it runs after events
      at that instant queued between the last arm and the re-queue;
    - an arm whose deadline equals the queued event's time keeps that
      event and its older ``seq``, so it runs before events at that
      instant queued between the first arm and the last (every segment
      of one multi-segment send arms the same ``now + rto``).
    """

    __slots__ = ("_sim", "_fn", "_deadline", "_event", "_event_at")

    def __init__(self, sim: Simulator, fn: t.Callable[[], t.Any]) -> None:
        self._sim = sim
        self._fn = fn
        self._deadline: t.Optional[float] = None
        #: The one queued event that may act, and its fire time.
        self._event: t.Optional[Call] = None
        self._event_at = 0.0

    def arm(self, delay: float) -> None:
        """Fire ``fn`` ``delay`` seconds from now, replacing any deadline."""
        sim = self._sim
        deadline = sim._now + delay
        self._deadline = deadline
        if self._event is None or self._event_at > deadline:
            self._event_at = deadline
            self._event = sim.schedule_at(deadline, self._fire)

    def cancel(self) -> None:
        """Clear the deadline; a queued event then fires and does nothing."""
        self._deadline = None

    def release(self) -> None:
        """Cancel for good and drop ``fn``.

        ``fn`` is usually a bound method of the object that holds the
        timer, so the two form a reference cycle; releasing breaks it,
        and the owner is freed by reference counting once nothing else
        holds it.  A queued event still fires and does nothing, and so
        does any later arm.
        """
        self._deadline = None
        self._fn = _released

    def _fire(self) -> None:
        # Act only if the event firing now is the current one.  A
        # ``Call`` is marked processed before it calls us, and the
        # current event is dropped as soon as it fires, so a superseded
        # event finds the current one still queued (or none) and
        # returns; acting would queue a duplicate.
        event = self._event
        if event is None or not event._processed:
            return
        self._event = None
        deadline = self._deadline
        if deadline is None:
            return
        if deadline > self._sim._now:
            self._event_at = deadline
            self._event = self._sim.schedule_at(deadline, self._fire)
            return
        self._deadline = None
        self._fn()
