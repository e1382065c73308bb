"""Unit tests for the discrete-event kernel."""

import pytest

from repro.errors import ProcessKilled, SimulationError
from repro.sim import LazyTimer, Simulator


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_timeout_advances_clock():
    sim = Simulator()
    sim.timeout(2.5)
    sim.run()
    assert sim.now == 2.5


def test_timeout_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.timeout(-1.0)


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    for delay in (3.0, 1.0, 2.0):
        sim.timeout(delay, value=delay).add_callback(
            lambda ev: fired.append(ev.value))
    sim.run()
    assert fired == [1.0, 2.0, 3.0]


def test_simultaneous_events_fire_in_insertion_order():
    sim = Simulator()
    fired = []
    for tag in ("a", "b", "c"):
        sim.timeout(1.0, value=tag).add_callback(
            lambda ev: fired.append(ev.value))
    sim.run()
    assert fired == ["a", "b", "c"]


def test_schedule_passes_args_in_scheduling_order():
    """Same-time calls run in the order scheduled, interleaved with
    plain timeouts exactly as their scheduling order says."""
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "a")
    sim.timeout(1.0, value="t1").add_callback(lambda ev: fired.append(ev.value))
    sim.schedule(1.0, lambda tag, n: fired.append(tag * n), "b", 2)
    sim.schedule(0.5, fired.append, "early")
    sim.timeout(1.0, value="t2").add_callback(lambda ev: fired.append(ev.value))
    sim.schedule(1.0, lambda: fired.append("no-args"))
    sim.run()
    assert fired == ["early", "a", "t1", "bb", "t2", "no-args"]
    assert sim.now == 1.0


def test_schedule_runs_fn_before_callbacks_added_to_its_timer():
    sim = Simulator()
    fired = []
    timer = sim.schedule(2.0, fired.append, "fn")
    assert not timer.triggered
    timer.add_callback(lambda ev: fired.append(("callback", ev.value)))
    sim.run()
    assert fired == ["fn", ("callback", None)]
    assert timer.processed and timer.ok


def test_process_can_wait_on_a_scheduled_call():
    sim = Simulator()
    calls = []

    def body(sim):
        value = yield sim.schedule(1.5, calls.append, sim.now)
        return (sim.now, value)

    assert sim.run(until=sim.process(body(sim))) == (1.5, None)
    assert calls == [0.0]


def test_process_returns_value():
    sim = Simulator()

    def body(sim):
        yield sim.timeout(1.0)
        return 42

    assert sim.run(until=sim.process(body(sim))) == 42
    assert sim.now == 1.0


def test_process_composes():
    sim = Simulator()

    def child(sim):
        yield sim.timeout(2.0)
        return "child-value"

    def parent(sim):
        value = yield sim.process(child(sim))
        return value + "!"

    assert sim.run(until=sim.process(parent(sim))) == "child-value!"


def test_process_requires_generator():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.process(lambda: None)  # type: ignore[arg-type]


def test_process_yielding_non_event_raises():
    sim = Simulator()

    def bad(sim):
        yield 123

    sim.process(bad(sim))
    with pytest.raises(SimulationError):
        sim.run()


def test_event_succeed_value_propagates():
    sim = Simulator()
    gate = sim.event()

    def waiter(sim):
        value = yield gate
        return value

    proc = sim.process(waiter(sim))
    sim.schedule(5.0, lambda: gate.succeed("hello"))
    assert sim.run(until=proc) == "hello"
    assert sim.now == 5.0


def test_event_fail_raises_in_process():
    sim = Simulator()
    gate = sim.event()

    class Boom(Exception):
        pass

    def waiter(sim):
        try:
            yield gate
        except Boom:
            return "caught"

    proc = sim.process(waiter(sim))
    sim.schedule(1.0, lambda: gate.fail(Boom()))
    assert sim.run(until=proc) == "caught"


def test_event_double_decide_rejected():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_event_fail_requires_exception():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.event().fail("not an exception")  # type: ignore[arg-type]


def test_late_callback_on_processed_event_runs_immediately():
    sim = Simulator()
    ev = sim.timeout(1.0, value="x")
    sim.run()
    seen = []
    ev.add_callback(lambda e: seen.append(e.value))
    assert seen == ["x"]


def test_interrupt_delivers_process_killed():
    sim = Simulator()

    def sleeper(sim):
        try:
            yield sim.timeout(100.0)
        except ProcessKilled as exc:
            return ("interrupted", exc.cause)

    proc = sim.process(sleeper(sim))
    sim.schedule(1.0, lambda: proc.interrupt("deadline"))
    assert sim.run(until=proc) == ("interrupted", "deadline")
    assert sim.now == 1.0


def test_interrupt_finished_process_is_noop():
    sim = Simulator()

    def quick(sim):
        yield sim.timeout(0.5)

    proc = sim.process(quick(sim))
    sim.run(until=proc)
    proc.interrupt("too late")  # must not raise
    sim.run()


def test_unhandled_interrupt_fails_process():
    sim = Simulator()

    def sleeper(sim):
        yield sim.timeout(100.0)

    proc = sim.process(sleeper(sim))
    sim.schedule(1.0, lambda: proc.interrupt())
    with pytest.raises(ProcessKilled):
        sim.run(until=proc)


def test_any_of_fires_on_first():
    sim = Simulator()

    def body(sim):
        first = sim.timeout(1.0, value="fast")
        second = sim.timeout(5.0, value="slow")
        result = yield sim.any_of([first, second])
        return list(result.values())

    assert sim.run(until=sim.process(body(sim))) == ["fast"]
    assert sim.now == 1.0


def test_all_of_waits_for_all():
    sim = Simulator()

    def body(sim):
        events = [sim.timeout(d, value=d) for d in (1.0, 3.0, 2.0)]
        result = yield sim.all_of(events)
        return sorted(result.values())

    assert sim.run(until=sim.process(body(sim))) == [1.0, 2.0, 3.0]
    assert sim.now == 3.0


def test_empty_any_of_and_all_of_fire_immediately():
    sim = Simulator()

    def body(sim):
        a = yield sim.any_of([])
        b = yield sim.all_of([])
        return (a, b)

    assert sim.run(until=sim.process(body(sim))) == ({}, {})


def test_run_until_time_stops_clock_there():
    sim = Simulator()
    sim.timeout(10.0)
    sim.run(until=4.0)
    assert sim.now == 4.0
    sim.run()
    assert sim.now == 10.0


def test_run_until_past_time_rejected():
    sim = Simulator()
    sim.timeout(10.0)
    sim.run(until=5.0)
    with pytest.raises(SimulationError):
        sim.run(until=1.0)


def test_run_until_event_deadlock_detected():
    sim = Simulator()
    gate = sim.event()  # nobody will ever succeed it
    with pytest.raises(SimulationError):
        sim.run(until=gate)


def test_max_events_safety_valve():
    sim = Simulator()

    def forever(sim):
        while True:
            yield sim.timeout(1.0)

    sim.process(forever(sim))
    with pytest.raises(SimulationError):
        sim.run(max_events=50)


def test_step_and_peek():
    sim = Simulator()
    sim.timeout(2.0)
    assert sim.peek() == 2.0
    assert sim.step() == 2.0
    assert sim.peek() == float("inf")
    with pytest.raises(SimulationError):
        sim.step()


# -- absolute-time scheduling and lazy timers --------------------------------


def _advance_to(sim, when):
    sim.schedule_at(when, lambda: None)
    sim.run()
    assert sim.now == when


def test_schedule_at_runs_at_exactly_the_float_given():
    """No ``now + (when - now)`` round trip: at now=0.3 a delay of
    0.9 - 0.3 lands on 0.9000000000000001, schedule_at(0.9) on 0.9."""
    sim = Simulator()
    _advance_to(sim, 0.3)
    fired = []
    sim.schedule_at(0.9, lambda: fired.append(("at", sim.now)))
    sim.schedule(0.9 - 0.3, lambda: fired.append(("delay", sim.now)))
    sim.run()
    assert fired == [("at", 0.9), ("delay", 0.3 + (0.9 - 0.3))]
    assert 0.3 + (0.9 - 0.3) != 0.9


def test_schedule_at_ties_with_schedule_in_queueing_order():
    sim = Simulator()
    fired = []
    sim.schedule_at(1.0, fired.append, "a")
    sim.schedule(1.0, fired.append, "b")
    sim.timeout(1.0, value="c").add_callback(lambda ev: fired.append(ev.value))
    sim.schedule_at(1.0, fired.append, "d")
    sim.schedule_at(0.5, fired.append, "early")
    sim.run()
    assert fired == ["early", "a", "b", "c", "d"]


def test_schedule_at_rejects_a_past_time_and_accepts_now():
    sim = Simulator()
    _advance_to(sim, 2.0)
    with pytest.raises(SimulationError):
        sim.schedule_at(1.999, lambda: None)
    fired = []
    sim.schedule_at(2.0, fired.append, "now")
    sim.run()
    assert fired == ["now"]


def test_schedule_and_schedule_at_consume_one_seq_each():
    sim = Simulator()
    before = sim._seq
    sim.schedule_at(5.0, lambda: None)
    assert sim._seq == before + 1
    sim.schedule(5.0, lambda: None)
    assert sim._seq == before + 2
    with pytest.raises(SimulationError):
        sim.schedule(-1.0, lambda: None)
    assert sim._seq == before + 2


def test_seq_counts_every_event_taken_or_still_queued():
    """``_seq`` is the number of events ever queued: every push,
    whichever kind of event makes it, takes exactly one."""
    sim = Simulator()
    timer = LazyTimer(sim, lambda: None)

    def worker(sim, n):
        for i in range(n):
            yield sim.timeout(0.25 * i)
            timer.arm(1.0)
            done = sim.event()
            sim.schedule(0.1, done.succeed, i)
            yield sim.any_of([done, sim.timeout(0.2)])
            yield sim.all_of([sim.timeout(0.05), sim.schedule_at(sim.now + 0.05, int)])

    def victim(sim):
        yield sim.timeout(100.0)

    sim.process(worker(sim, 20))
    sim.process(worker(sim, 7))
    doomed = sim.process(victim(sim))
    sim.schedule(1.0, doomed.interrupt, "stop")
    steps = 0
    while sim.peek() <= 3.0:
        sim.step()
        steps += 1
    assert steps > 50 and sim._queue
    assert sim._seq == steps + len(sim._queue)
    while sim._queue:
        sim.step()
        steps += 1
    assert sim._seq == steps


def test_lazy_timer_fires_once_at_the_last_deadline():
    sim = Simulator()
    fired = []
    timer = LazyTimer(sim, lambda: fired.append(sim.now))
    for i in range(50):
        sim.schedule_at(0.01 * i, timer.arm, 1.0)
    sim.run()
    # The eager design would queue 50 timer events; the lazy one queues
    # one at 1.0, re-queues it once at 1.49 and fires where the last
    # arm said.
    assert fired == [0.01 * 49 + 1.0]
    assert sim._seq == 50 + 2


def test_lazy_timer_earlier_deadline_supersedes_the_queued_event():
    sim = Simulator()
    fired = []
    timer = LazyTimer(sim, lambda: fired.append(sim.now))
    timer.arm(5.0)
    sim.schedule_at(1.0, timer.arm, 0.5)   # deadline 1.5 < 5.0
    sim.run()
    assert fired == [1.5]
    assert sim.now == 5.0  # the superseded event still fires, idly


def test_lazy_timer_cancel_and_rearm():
    sim = Simulator()
    fired = []
    timer = LazyTimer(sim, lambda: fired.append(sim.now))
    timer.arm(1.0)
    sim.schedule_at(0.5, timer.cancel)
    sim.run()
    assert fired == []
    timer.arm(1.0)
    sim.schedule_at(1.5, timer.cancel)
    sim.schedule_at(1.75, timer.arm, 1.0)
    sim.run()
    assert fired == [2.75]


def test_lazy_timer_superseded_event_queues_no_duplicate():
    """A superseded event that fires must not re-queue: here it fires
    while the deadline is still ahead, and would queue a second event
    at the same deadline."""
    sim = Simulator()
    fired = []
    timer = LazyTimer(sim, lambda: fired.append(sim.now))
    timer.arm(4.0)                          # event A at 4.0
    sim.schedule_at(1.0, timer.arm, 1.0)    # event B at 2.0 supersedes A
    sim.schedule_at(1.5, timer.arm, 3.0)    # deadline 4.5; B stays queued
    sim.run()
    assert fired == [4.5]
    # Two scheduled arms, A, B and B's re-queue at 4.5; a duplicate
    # queued by A at 4.0 would make six.
    assert sim._seq == 5


def test_lazy_timer_can_rearm_from_its_own_callback():
    sim = Simulator()
    fired = []

    def tick():
        fired.append(sim.now)
        if len(fired) < 3:
            timer.arm(0.5)

    timer = LazyTimer(sim, tick)
    timer.arm(0.5)
    sim.run()
    assert fired == [0.5, 1.0, 1.5]


def test_lazy_timer_refuses_a_negative_delay_and_queues_nothing():
    sim = Simulator()
    _advance_to(sim, 2.0)
    timer = LazyTimer(sim, lambda: None)
    before = sim._seq
    with pytest.raises(SimulationError):
        timer.arm(-1.0)
    assert sim._seq == before
    # Also while an event is queued: the earlier deadline would need a
    # new one.
    timer.arm(1.0)
    with pytest.raises(SimulationError):
        timer.arm(-1.0)
    assert sim._seq == before + 1
