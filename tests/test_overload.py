"""repro.overload: admission control, deadlines, shedding.

Three tiers of coverage:

* unit — the concurrency limiter and the admission controller in
  isolation (capacity, rejection, priority-aware eviction, wait-timer
  shedding, sticky sources);
* integration — the domestic proxy under a tiny cap: sheds are fast
  and explicit, released sessions free capacity, sticky sources
  survive, and the admit/shed counters balance against the decision
  log;
* composition — the ``overload_storm`` script drives a flash crowd into
  the proxy while the remote VM crashes: the excess is shed, the
  failover breaker opens and recovers, and the client's sessions come
  back once the storm passes.  Seed-robustness is asserted on the full
  admit/shed decision log.
"""

import dataclasses
from collections import Counter

import pytest

from repro.cache import CacheConfig
from repro.core.whitelist import scholar_whitelist
from repro.errors import ConfigurationError, OverloadError, SimulationError
from repro.faults import RetryPolicy, overload_storm
from repro.http import Browser
from repro.measure import Testbed, availability
from repro.measure.scenarios import prepare, run_overload_point
from repro.overload import (
    PRIORITY_BULK,
    PRIORITY_INTERACTIVE,
    AdmissionController,
    ConcurrencyLimiter,
    Deadline,
    OverloadConfig,
)
from repro.sim import RngRegistry, Simulator


# -- concurrency limiter -----------------------------------------------------------


class TestConcurrencyLimiter:
    def test_acquire_without_waiting_room_fails_fast(self):
        sim = Simulator(seed=0)
        limiter = ConcurrencyLimiter(sim, capacity=1, max_waiting=0)
        first = limiter.acquire()
        assert first.triggered and first.value == 0.0
        second = limiter.acquire()
        assert second.triggered and not second.ok
        assert isinstance(second.value, OverloadError)

    def test_release_grants_to_waiter_and_records_delay(self):
        sim = Simulator(seed=0)
        limiter = ConcurrencyLimiter(sim, capacity=1, max_waiting=2,
                                     max_wait=60.0)
        limiter.acquire()
        waiting = limiter.acquire()
        sim.schedule(1.5, limiter.release)
        sim.run(until=1.5)
        assert waiting.triggered and waiting.value == 1.5
        assert limiter.queue_delays == [0.0, 1.5]
        assert limiter.in_use == 1  # the slot changed hands, not count

    def test_grant_order_is_priority_then_arrival(self):
        sim = Simulator(seed=0)
        limiter = ConcurrencyLimiter(sim, capacity=1, max_waiting=3,
                                     max_wait=60.0)
        limiter.acquire()
        bulk = limiter.acquire(priority=PRIORITY_BULK)
        interactive = limiter.acquire(priority=PRIORITY_INTERACTIVE)
        limiter.release()
        assert interactive.triggered and not bulk.triggered

    def test_full_room_evicts_the_worst_for_a_better_newcomer(self):
        sim = Simulator(seed=0)
        limiter = ConcurrencyLimiter(sim, capacity=1, max_waiting=1,
                                     max_wait=60.0)
        limiter.acquire()
        bulk = limiter.acquire(priority=PRIORITY_BULK)
        interactive = limiter.acquire(priority=PRIORITY_INTERACTIVE)
        assert bulk.triggered and not bulk.ok  # evicted
        assert isinstance(bulk.value, OverloadError)
        assert not interactive.triggered  # queued in the freed spot
        assert limiter.evicted == 1

    def test_equal_priority_newcomer_is_rejected_not_swapped(self):
        sim = Simulator(seed=0)
        limiter = ConcurrencyLimiter(sim, capacity=1, max_waiting=1,
                                     max_wait=60.0)
        limiter.acquire()
        first = limiter.acquire(priority=PRIORITY_BULK)
        second = limiter.acquire(priority=PRIORITY_BULK)
        assert not first.triggered  # the incumbent keeps its place
        assert second.triggered and not second.ok
        assert isinstance(second.value, OverloadError)

    def test_waiter_is_shed_after_max_wait(self):
        sim = Simulator(seed=0)
        limiter = ConcurrencyLimiter(sim, capacity=1, max_waiting=2,
                                     max_wait=2.0)
        limiter.acquire()
        waiting = limiter.acquire()
        sim.run(until=2.0)
        assert waiting.triggered and not waiting.ok
        assert isinstance(waiting.value, OverloadError)
        assert limiter.timed_out == 1

    def test_expired_deadline_is_skipped_at_grant_time(self):
        sim = Simulator(seed=0)
        limiter = ConcurrencyLimiter(sim, capacity=1, max_waiting=2,
                                     max_wait=60.0)
        limiter.acquire()
        doomed = limiter.acquire(deadline=1.0)
        patient = limiter.acquire(deadline=100.0)
        sim.schedule(5.0, limiter.release)
        sim.run(until=5.0)
        assert doomed.triggered and not doomed.ok
        assert isinstance(doomed.value, OverloadError)
        assert patient.triggered and patient.value == 5.0
        assert limiter.deadline_drops == 1

    def test_release_without_acquire_raises(self):
        with pytest.raises(SimulationError):
            ConcurrencyLimiter(Simulator(seed=0), capacity=1).release()


# -- config validation -------------------------------------------------------------


class TestOverloadConfig:
    def test_defaults_are_valid(self):
        config = OverloadConfig()
        assert (config.max_sessions, config.max_waiting,
                config.queue_delay_threshold) == (128, 0, None)

    def test_the_static_cap_is_the_only_policy(self):
        names = [field.name for field in dataclasses.fields(OverloadConfig)]
        assert names == ["max_sessions", "max_waiting",
                         "queue_delay_threshold"]

    @pytest.mark.parametrize("kwargs", [
        {"max_sessions": 0},
        {"max_waiting": -1},
        {"max_waiting": 8},  # waiting room without a delay threshold
        {"queue_delay_threshold": 0.0},
    ])
    def test_bad_knobs_raise_configuration_error(self, kwargs):
        with pytest.raises(ConfigurationError):
            OverloadConfig(**kwargs)


# -- admission controller ----------------------------------------------------------


def _drive(sim, generator):
    """Run an admission generator to completion, returning its value."""
    outcome = {}

    def wrapper():
        try:
            outcome["value"] = yield from generator
        except OverloadError as exc:
            outcome["error"] = exc

    process = sim.process(wrapper(), name="admit")
    sim.run(until=process)
    return outcome


class TestAdmissionController:
    def _controller(self, sim, **kwargs):
        defaults = dict(max_sessions=2)
        defaults.update(kwargs)
        return AdmissionController(sim, OverloadConfig(**defaults))

    def test_sticky_source_is_always_admitted(self):
        sim = Simulator(seed=0)
        admission = self._controller(sim, max_sessions=1)
        assert _drive(sim, admission.admit("alice"))["value"] == 0.0
        # The cap is full, but alice already holds a session.
        assert _drive(sim, admission.admit("alice"))["value"] == 0.0
        assert [d[2] for d in admission.decisions] == ["admit", "admit-sticky"]
        # A new source is shed at the same occupancy.
        assert "error" in _drive(sim, admission.admit("bob"))
        assert admission.decisions[-1][2] == "shed"

    def test_release_frees_the_slot_for_a_new_source(self):
        sim = Simulator(seed=0)
        admission = self._controller(sim, max_sessions=1)
        _drive(sim, admission.admit("alice"))
        admission.release("alice")
        assert "value" in _drive(sim, admission.admit("bob"))

    def test_sticky_sessions_release_one_by_one(self):
        sim = Simulator(seed=0)
        admission = self._controller(sim, max_sessions=1)
        _drive(sim, admission.admit("alice"))
        _drive(sim, admission.admit("alice"))
        admission.release("alice")
        assert admission.in_use == 1  # still holds the slot
        admission.release("alice")
        assert admission.in_use == 0

    def test_release_without_admit_raises(self):
        admission = self._controller(Simulator(seed=0))
        with pytest.raises(ConfigurationError):
            admission.release("ghost")

    def test_bulk_newcomer_waits_for_a_freed_slot(self):
        # No share of the cap is held back for interactive traffic: a
        # bulk newcomer at the cap queues and takes the next free slot.
        sim = Simulator(seed=0)
        admission = self._controller(sim, max_sessions=1, max_waiting=1,
                                     queue_delay_threshold=5.0)
        _drive(sim, admission.admit("a", PRIORITY_INTERACTIVE))
        sim.schedule(1.0, admission.release, "a")
        assert _drive(sim, admission.admit("b", PRIORITY_BULK)) == {
            "value": 1.0}

    def test_record_expired_is_logged_not_shed(self):
        sim = Simulator(seed=0)
        admission = self._controller(sim)
        admission.record_expired("alice", PRIORITY_INTERACTIVE)
        assert admission.deadline_drops == 1
        assert admission.shed == 0
        # Logged, but never offered: offered = admitted + shed holds.
        assert admission.offered == 0
        assert admission.decisions[-1][2] == "expired"


# -- whitelist priorities (the admission signal) -----------------------------------


class TestWhitelistPriority:
    def test_scholar_is_interactive_and_cdn_is_bulk(self):
        wl = scholar_whitelist()
        assert wl.priority_of("scholar.google.com") == PRIORITY_INTERACTIVE
        assert wl.priority_of("fonts.gstatic.com") == PRIORITY_BULK
        assert wl.priority_of("www.googleapis.com") == PRIORITY_BULK

    def test_unknown_hosts_default_to_bulk(self):
        assert scholar_whitelist().priority_of("evil.example") == PRIORITY_BULK


# -- deadlines ---------------------------------------------------------------------


class TestDeadline:
    def test_remaining_and_expiry(self):
        deadline = Deadline(10.0)
        assert deadline.remaining(4.0) == 6.0
        assert not deadline.expired(9.999)
        assert deadline.expired(10.0)

    def test_clamp_bounds_a_timeout_by_the_budget(self):
        deadline = Deadline(10.0)
        assert deadline.clamp(20.0, now=4.0) == 6.0
        assert deadline.clamp(2.0, now=4.0) == 2.0
        assert deadline.clamp(None, now=4.0) == 6.0
        # An expired deadline still yields a positive (tiny) timeout.
        assert deadline.clamp(5.0, now=11.0) > 0.0


# -- retry budget ------------------------------------------------------------------


class TestRetryBudget:
    def test_budget_stops_the_schedule_early(self):
        clock = [0.0]
        policy = RetryPolicy(attempts=6, base=1.0, multiplier=2.0,
                             cap=8.0, jitter=0.0, budget=2.5)
        delays = []
        for delay in policy.delays(clock=lambda: clock[0]):
            delays.append(delay)
            clock[0] += delay
        # 0.0, then 1.0 (t=1.0); the next nominal 2.0 would land at 3.0
        # past the 2.5 budget, so the iterator stops.
        assert delays == [0.0, 1.0]

    def test_deadline_bounds_like_a_budget(self):
        clock = [0.0]
        policy = RetryPolicy(attempts=6, base=1.0, multiplier=2.0,
                             cap=8.0, jitter=0.0)
        delays = list(policy.delays(clock=lambda: clock[0], deadline=0.5))
        assert delays == [0.0]  # even the first backoff would overrun

    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError):
            RetryPolicy(budget=0.0)

    def test_stopping_early_consumes_no_randomness(self):
        rng = RngRegistry(3).stream("resilience.sc-domestic")
        untouched = RngRegistry(3).stream("resilience.sc-domestic")
        policy = RetryPolicy(attempts=6, base=4.0, jitter=0.25, rng=rng,
                             budget=1.0)
        assert list(policy.delays(clock=lambda: 0.0)) == [0.0]
        assert rng.random() == untouched.random()

    def test_without_a_clock_the_budget_is_inert(self):
        policy = RetryPolicy(attempts=4, base=1.0, multiplier=2.0,
                             cap=8.0, jitter=0.0, budget=0.001)
        assert list(policy.delays()) == [0.0, 1.0, 2.0, 4.0]


# -- browser total deadline --------------------------------------------------------


class TestBrowserTotalDeadline:
    def _dead_world(self):
        """ScholarCloud with its only remote VM crashed: loads must fail."""
        world = prepare("scholarcloud", seed=0)
        world.testbed.transport_of(world.testbed.remote_vm).crash()
        return world

    def test_total_deadline_caps_the_retry_spend(self):
        unbounded = self._dead_world()
        browser = Browser(unbounded.testbed.sim,
                          unbounded.method.connector(),
                          name="no-deadline", retries=2, read_timeout=10.0)
        start = unbounded.testbed.sim.now
        result = unbounded.testbed.run_process(
            browser.load(unbounded.testbed.scholar_page))
        unbounded_spend = unbounded.testbed.sim.now - start
        assert not result.succeeded

        bounded = self._dead_world()
        browser = Browser(bounded.testbed.sim, bounded.method.connector(),
                          name="deadline", retries=2, read_timeout=10.0,
                          total_deadline=5.0)
        start = bounded.testbed.sim.now
        result = bounded.testbed.run_process(
            browser.load(bounded.testbed.scholar_page))
        bounded_spend = bounded.testbed.sim.now - start
        assert not result.succeeded
        assert bounded_spend < unbounded_spend

    def test_deadline_does_not_change_a_healthy_load(self):
        world = prepare("scholarcloud", seed=0)
        browser = Browser(world.testbed.sim, world.method.connector(),
                          name="deadline-ok", total_deadline=30.0)
        result = world.testbed.run_process(
            browser.load(world.testbed.scholar_page))
        assert result.succeeded and result.error is None


# -- end-to-end shedding through the proxies ---------------------------------------


def _open_stream(world, connector):
    return world.testbed.run_process(
        connector.open("scholar.google.com", 443, use_tls=False))


class TestProxyShedding:
    def test_second_source_is_shed_at_the_cap_and_admitted_after_release(self):
        config = OverloadConfig(max_sessions=1)
        world = prepare("scholarcloud", seed=0, overload=config,
                        extra_clients=1)
        testbed = world.testbed
        first = world.method.connector()
        second = testbed.run_process(
            world.method.attach_client(testbed.extra_clients[0]))

        held = _open_stream(world, first)
        with pytest.raises(OverloadError):
            _open_stream(world, second)
        admission = world.method.domestic.admission
        assert admission.shed == 1 and admission.admitted == 1

        # Sticky: the admitted source can open more streams at the cap.
        extra = _open_stream(world, first)
        assert admission.decisions[-1][2] == "admit-sticky"
        extra.close()

        # Releasing every session frees the slot for the shed source.
        held.close()
        testbed.sim.run(until=testbed.sim.now + 5.0)
        assert admission.in_use == 0
        assert _open_stream(world, second) is not None

    def test_shed_reply_is_not_retried_by_the_connector(self):
        config = OverloadConfig(max_sessions=1)
        world = prepare("scholarcloud", seed=0, overload=config,
                        extra_clients=1)
        testbed = world.testbed
        _open_stream(world, world.method.connector())
        second = testbed.run_process(
            world.method.attach_client(testbed.extra_clients[0]))
        before = testbed.sim.now
        with pytest.raises(OverloadError):
            _open_stream(world, second)
        # A shed is a decision, not a transient: no backoff was slept.
        assert testbed.sim.now - before < 1.0
        assert second.sheds_seen == 1


# -- seed robustness of shed decisions ---------------------------------------------


_SMALL_CONFIG = OverloadConfig(max_sessions=4, max_waiting=2,
                               queue_delay_threshold=2.0)


def _decision_log(seed):
    result = run_overload_point("scholarcloud", clients=10, cycles=1,
                                seed=seed, overload=_SMALL_CONFIG)
    return result


class TestShedSeedRobustness:
    def test_same_seed_identical_decisions_and_counters(self):
        first, second = _decision_log(0), _decision_log(0)
        assert first.decisions == second.decisions
        assert first.decisions  # the tiny cap definitely shed someone
        assert (first.report.offered, first.report.shed) == \
               (second.report.offered, second.report.shed)
        assert first.client_sheds == second.client_sheds

    def test_different_seed_different_decisions(self):
        assert _decision_log(0).decisions != _decision_log(7).decisions


# -- admission accounting ----------------------------------------------------------


#: The ``query-bursts`` and ``overload-pdf`` golden scenarios of
#: tests/test_golden_fingerprints.py: both offer more sources than the
#: six-session cap, so each run both admits and sheds.
_ACCOUNTING_POINTS = {
    "query-bursts": dict(clients=10, workload="query-bursts",
                         cache=CacheConfig(capacity_bytes=150_000),
                         corpus_size=12),
    "overload-pdf": dict(clients=8, mode="hybrid", workload="pdf",
                         total_deadline=6.0),
}


@pytest.mark.parametrize("name", sorted(_ACCOUNTING_POINTS))
def test_admission_counters_balance_the_decision_log(name):
    result = run_overload_point(
        cycles=2, seed=5,
        overload=OverloadConfig(max_sessions=6, max_waiting=2,
                                queue_delay_threshold=1.0),
        **_ACCOUNTING_POINTS[name])
    report = result.report
    outcomes = Counter(decision[2] for decision in result.decisions)
    assert report.shed > 0
    assert report.offered == report.admitted + report.shed
    # Expired requests are logged without being offered.
    assert len(result.decisions) == report.offered + report.deadline_drops
    assert outcomes["admit"] + outcomes["admit-sticky"] == report.admitted
    assert outcomes["shed"] == report.shed
    # One queue delay per slot grant; sticky admissions take no slot.
    assert len(report.queue_delays) == outcomes["admit"]


# -- overload composed with faults (the acceptance scenario) -----------------------


class TestOverloadStormComposition:
    def test_storm_sheds_the_flood_and_recovers_from_the_crash(self):
        config = OverloadConfig(max_sessions=6)
        world = prepare("scholarcloud", seed=0, overload=config,
                        remote_replicas=1, extra_clients=24)
        testbed = world.testbed
        script = overload_storm(testbed.rng.stream("faults.schedule"),
                                clients=24)
        injector = script.install(testbed)
        browser = Browser(testbed.sim, world.method.connector(),
                          name="storm-client", retries=1, read_timeout=20.0)
        samples = []

        def driver(sim):
            for _ in range(12):
                result = yield sim.process(browser.load(testbed.scholar_page))
                samples.append((round(result.started_at, 6),
                                result.succeeded))
                yield sim.timeout(25.0)

        testbed.run_process(driver(testbed.sim), name="storm-driver")

        # The flash crowd was shed, not queued: admission refused the
        # spike's excess sources while serving the established client.
        admission = world.method.domestic.admission
        assert admission.shed > 0
        kinds = {entry[1] for entry in injector.timeline}
        assert {"load-spike", "proxy-crash", "link-degrade"} <= kinds

        # The crash mid-storm opened the primary's breaker and the
        # pool failed over — overload did not mask the fault handling.
        pool = world.method.domestic.pool
        from repro.faults import CircuitBreaker
        transitions = pool.breakers[pool.primary].transitions
        assert any(new == CircuitBreaker.OPEN for _, _, new in transitions)
        assert pool.failovers > 0

        # Goodput recovers once the storm passes: the driver's last
        # loads (storm long over) succeed, and overall availability
        # stays high because sticky admission protected the client.
        assert all(ok for _, ok in samples[-3:])
        report = availability(samples)
        assert report.success_rate >= 0.75

    def test_storm_timeline_is_seed_stable(self):
        def timeline(seed):
            testbed = Testbed(seed=seed, remote_replicas=1, extra_clients=4)
            script = overload_storm(testbed.rng.stream("faults.schedule"),
                                    clients=4)
            injector = script.install(testbed)
            testbed.sim.run(until=300.0)
            return injector.timeline

        assert timeline(0) == timeline(0)
        assert timeline(0) != timeline(5)
