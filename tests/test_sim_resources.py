"""Unit tests for Resource, Store, and ProcessorSharingServer."""

import pytest

from repro.errors import SimulationError
from repro.sim import ProcessorSharingServer, Resource, Simulator, Store


# -- Resource ---------------------------------------------------------------

def test_resource_capacity_validation():
    sim = Simulator()
    with pytest.raises(SimulationError):
        Resource(sim, capacity=0)


def test_resource_serializes_holders():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    order = []

    def worker(sim, tag, hold):
        yield res.acquire()
        order.append((tag, sim.now))
        yield sim.timeout(hold)
        res.release()

    sim.process(worker(sim, "a", 2.0))
    sim.process(worker(sim, "b", 1.0))
    sim.run()
    assert order == [("a", 0.0), ("b", 2.0)]


def test_resource_parallel_capacity():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    starts = []

    def worker(sim, tag):
        yield res.acquire()
        starts.append((tag, sim.now))
        yield sim.timeout(1.0)
        res.release()

    for tag in "abc":
        sim.process(worker(sim, tag))
    sim.run()
    assert starts == [("a", 0.0), ("b", 0.0), ("c", 1.0)]


def test_resource_release_without_acquire():
    sim = Simulator()
    res = Resource(sim)
    with pytest.raises(SimulationError):
        res.release()


def test_resource_counters():
    sim = Simulator()
    res = Resource(sim, capacity=1)

    def holder(sim):
        yield res.acquire()
        yield sim.timeout(5.0)
        res.release()

    def waiter(sim):
        yield res.acquire()
        res.release()

    sim.process(holder(sim))
    sim.process(waiter(sim))
    sim.run(until=1.0)
    assert res.in_use == 1
    assert res.queue_length == 1
    sim.run()
    assert res.in_use == 0


# -- Store --------------------------------------------------------------------

def test_store_get_blocks_until_put():
    sim = Simulator()
    store = Store(sim)

    def consumer(sim):
        item = yield store.get()
        return (item, sim.now)

    proc = sim.process(consumer(sim))
    sim.schedule(3.0, lambda: store.put("pkt"))
    assert sim.run(until=proc) == ("pkt", 3.0)


def test_store_preserves_fifo_order():
    sim = Simulator()
    store = Store(sim)
    store.put(1)
    store.put(2)
    got = []

    def consumer(sim):
        for _ in range(2):
            item = yield store.get()
            got.append(item)

    sim.run(until=sim.process(consumer(sim)))
    assert got == [1, 2]


def test_store_len():
    sim = Simulator()
    store = Store(sim)
    assert len(store) == 0
    store.put("x")
    assert len(store) == 1


class Closed(Exception):
    pass


def _blocked_getters(sim, store, count):
    """Start ``count`` processes blocked on ``store.get()``; each appends
    ``(tag, item or error)`` to the returned list when it wakes."""
    woke = []

    def getter(sim, tag):
        try:
            item = yield store.get()
        except Closed as error:
            item = error
        woke.append((tag, item))

    for tag in range(count):
        sim.process(getter(sim, tag))
    sim.run()
    assert woke == []
    return woke


def test_store_blocked_getters_wake_in_fifo_order_on_puts():
    sim = Simulator()
    store = Store(sim)
    woke = _blocked_getters(sim, store, 2)
    store.put("first")
    store.put("second")
    sim.run()
    assert woke == [(0, "first"), (1, "second")]
    assert len(store) == 0


def test_store_fail_getters_fails_each_in_fifo_order_with_its_own_error():
    sim = Simulator()
    store = Store(sim)
    woke = _blocked_getters(sim, store, 3)
    store.fail_getters(lambda: Closed("inbox closed"))
    sim.run()
    assert [tag for tag, _error in woke] == [0, 1, 2]
    assert all(isinstance(error, Closed) for _tag, error in woke)
    assert len({id(error) for _tag, error in woke}) == 3
    # Nobody waits any more: the next item is queued, not handed over.
    store.put("late")
    sim.run()
    assert len(woke) == 3 and len(store) == 1


def test_store_fail_getters_leaves_queued_items():
    sim = Simulator()
    store = Store(sim)
    store.put("a")
    store.put("b")
    store.fail_getters(lambda: Closed("inbox closed"))
    assert len(store) == 2
    assert [store.get().value for _ in range(2)] == ["a", "b"]


def test_store_fail_getters_takes_one_seq_per_getter():
    sim = Simulator()
    store = Store(sim)
    getters = [store.get() for _ in range(3)]
    before = sim._seq
    store.fail_getters(lambda: Closed("inbox closed"))
    assert sim._seq == before + 3
    assert all(getter.triggered and not getter.ok for getter in getters)
    store.fail_getters(lambda: Closed("inbox closed"))
    assert sim._seq == before + 3


# -- ProcessorSharingServer ----------------------------------------------------

def test_ps_single_job_runs_at_full_rate():
    sim = Simulator()
    cpu = ProcessorSharingServer(sim, capacity=2.0)

    def body(sim):
        yield cpu.submit(4.0)
        return sim.now

    assert sim.run(until=sim.process(body(sim))) == pytest.approx(2.0)


def test_ps_two_jobs_share_equally():
    sim = Simulator()
    cpu = ProcessorSharingServer(sim, capacity=1.0)
    finish = {}

    def body(sim, tag, demand):
        yield cpu.submit(demand)
        finish[tag] = sim.now

    sim.process(body(sim, "a", 1.0))
    sim.process(body(sim, "b", 1.0))
    sim.run()
    # Two equal jobs at capacity 1 each see rate 1/2 -> both finish at 2.
    assert finish["a"] == pytest.approx(2.0)
    assert finish["b"] == pytest.approx(2.0)


def test_ps_late_arrival_slows_first_job():
    sim = Simulator()
    cpu = ProcessorSharingServer(sim, capacity=1.0)
    finish = {}

    def first(sim):
        yield cpu.submit(2.0)
        finish["first"] = sim.now

    def second(sim):
        yield sim.timeout(1.0)
        yield cpu.submit(0.5)
        finish["second"] = sim.now

    sim.process(first(sim))
    sim.process(second(sim))
    sim.run()
    # First runs alone for 1s (1 unit done). Then sharing at rate 1/2:
    # second (0.5 demand) finishes after 1s more at t=2; first's remaining
    # 1.0 - 0.5 = 0.5 then runs alone, finishing at 2.5.
    assert finish["second"] == pytest.approx(2.0)
    assert finish["first"] == pytest.approx(2.5)


def test_ps_zero_demand_completes_immediately():
    sim = Simulator()
    cpu = ProcessorSharingServer(sim)

    def body(sim):
        yield cpu.submit(0.0)
        return sim.now

    assert sim.run(until=sim.process(body(sim))) == 0.0


def test_ps_negative_demand_rejected():
    sim = Simulator()
    cpu = ProcessorSharingServer(sim)
    with pytest.raises(SimulationError):
        cpu.submit(-1.0)


def test_ps_response_time_grows_with_load():
    """Mean response time must increase monotonically with concurrency —
    the mechanism behind the paper's Figure 7."""
    def mean_response(n_jobs):
        sim = Simulator()
        cpu = ProcessorSharingServer(sim, capacity=10.0)
        finish = []

        def body(sim):
            yield cpu.submit(1.0)
            finish.append(sim.now)

        for _ in range(n_jobs):
            sim.process(body(sim))
        sim.run()
        return sum(finish) / len(finish)

    r1, r4, r16 = mean_response(1), mean_response(4), mean_response(16)
    assert r1 < r4 < r16
