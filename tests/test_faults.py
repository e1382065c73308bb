"""repro.faults: retry/backoff, circuit breaker, failover, fault scripts.

Seed-robustness is the point of this suite: identical seeds must yield
byte-identical backoff sequences, breaker transition traces, and fault
timelines — and the failover machinery must absorb a killed remote
proxy without the client ever seeing an error.
"""

import math

import pytest

from repro.errors import (
    FaultError,
    MeasurementError,
    MiddlewareError,
)
from repro.faults import (
    CircuitBreaker,
    Endpoint,
    FailoverPool,
    FaultEvent,
    FaultInjector,
    FaultSchedule,
    RetryPolicy,
    standard_fault_script,
)
from repro.measure import Testbed, availability
from repro.measure.scenarios import prepare
from repro.net import IPv4Address
from repro.sim import RngRegistry, Simulator
from repro.transport import TcpConnection


# -- retry policy ------------------------------------------------------------------


class TestRetryPolicy:
    def test_first_attempt_has_no_delay(self):
        delays = list(RetryPolicy(attempts=4, jitter=0.0).delays())
        assert delays[0] == 0.0

    def test_unjittered_schedule_is_capped_exponential(self):
        policy = RetryPolicy(attempts=6, base=1.0, multiplier=4.0,
                             cap=8.0, jitter=0.0)
        assert list(policy.delays()) == [0.0, 1.0, 4.0, 8.0, 8.0, 8.0]

    def test_same_seed_same_backoff_sequence(self):
        def sequence(seed):
            rng = RngRegistry(seed).stream("resilience.sc-domestic")
            return list(RetryPolicy(attempts=6, rng=rng).delays())

        assert sequence(11) == sequence(11)
        assert sequence(11) != sequence(12)

    def test_jitter_stays_within_band(self):
        rng = RngRegistry(0).stream("resilience.sc-domestic")
        policy = RetryPolicy(attempts=8, base=0.5, cap=8.0,
                             jitter=0.25, rng=rng)
        nominal = [0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 8.0, 8.0]
        for delay, expected in zip(policy.delays(), nominal):
            assert expected * 0.75 <= delay <= expected * 1.25

    def test_success_path_consumes_no_randomness(self):
        rng = RngRegistry(5).stream("resilience.sc-client")
        untouched = RngRegistry(5).stream("resilience.sc-client")
        delays = RetryPolicy(attempts=4, rng=rng).delays()
        assert next(delays) == 0.0  # a first-try success stops here
        assert rng.random() == untouched.random()

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            RetryPolicy(attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=-0.1)


# -- circuit breaker ---------------------------------------------------------------


def _canonical_breaker_trace():
    sim = Simulator(seed=0)
    breaker = CircuitBreaker(sim, failure_threshold=2, reset_timeout=10.0)
    breaker.record_failure()
    breaker.record_failure()          # threshold reached -> OPEN at t=0
    assert not breaker.allow()        # inside the reset window
    sim.run(until=10.0)
    assert breaker.allow()            # window elapsed -> HALF_OPEN trial
    breaker.record_success()          # trial passed -> CLOSED
    return list(breaker.transitions)


class TestCircuitBreaker:
    def test_canonical_closed_open_halfopen_closed_trace(self):
        assert _canonical_breaker_trace() == [
            (0.0, CircuitBreaker.CLOSED, CircuitBreaker.OPEN),
            (10.0, CircuitBreaker.OPEN, CircuitBreaker.HALF_OPEN),
            (10.0, CircuitBreaker.HALF_OPEN, CircuitBreaker.CLOSED),
        ]

    def test_trace_is_deterministic_across_runs(self):
        assert _canonical_breaker_trace() == _canonical_breaker_trace()

    def test_failed_half_open_trial_reopens(self):
        sim = Simulator(seed=0)
        breaker = CircuitBreaker(sim, failure_threshold=1, reset_timeout=5.0)
        breaker.record_failure()
        sim.run(until=5.0)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.opened_at == 5.0

    def test_success_resets_the_consecutive_count(self):
        sim = Simulator(seed=0)
        breaker = CircuitBreaker(sim, failure_threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED


class TestHalfOpenSingleTrial:
    def test_only_one_caller_wins_the_half_open_trial(self):
        sim = Simulator(seed=0)
        breaker = CircuitBreaker(sim, failure_threshold=1, reset_timeout=5.0)
        breaker.record_failure()
        sim.run(until=5.0)
        assert breaker.allow()          # the single trial
        assert breaker.state == CircuitBreaker.HALF_OPEN
        # The rest of the herd is refused while the trial is in flight.
        assert not breaker.allow()
        assert not breaker.allow()

    def test_failed_trial_frees_the_slot_for_the_next_window(self):
        sim = Simulator(seed=0)
        breaker = CircuitBreaker(sim, failure_threshold=1, reset_timeout=5.0)
        breaker.record_failure()
        sim.run(until=5.0)
        assert breaker.allow()
        breaker.record_failure()        # trial lost -> back to OPEN
        assert breaker.state == CircuitBreaker.OPEN
        sim.run(until=10.0)
        assert breaker.allow()          # next window gets its own trial

    def test_successful_trial_admits_everyone_again(self):
        sim = Simulator(seed=0)
        breaker = CircuitBreaker(sim, failure_threshold=1, reset_timeout=5.0)
        breaker.record_failure()
        sim.run(until=5.0)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.allow() and breaker.allow()


# -- failover pool -----------------------------------------------------------------


def _pool(sim, count=2):
    endpoints = [Endpoint(IPv4Address(f"10.0.0.{i + 1}"), 9000, f"remote-{i + 1}")
                 for i in range(count)]
    return FailoverPool(sim, endpoints, failure_threshold=2, reset_timeout=20.0)


class TestFailoverPool:
    def test_needs_at_least_one_endpoint(self):
        with pytest.raises(ValueError):
            FailoverPool(Simulator(seed=0), [])

    def test_prefers_the_healthy_primary(self):
        pool = _pool(Simulator(seed=0))
        assert pool.pick() is pool.primary
        assert pool.failovers == 0

    def test_open_primary_fails_over_and_counts(self):
        pool = _pool(Simulator(seed=0))
        pool.record_failure(pool.primary)
        pool.record_failure(pool.primary)
        picked = pool.pick()
        assert picked is pool.endpoints[1]
        assert pool.failovers == 1

    def test_primary_is_retried_after_the_reset_window(self):
        sim = Simulator(seed=0)
        pool = _pool(sim)
        pool.record_failure(pool.primary)
        pool.record_failure(pool.primary)
        assert pool.pick() is pool.endpoints[1]
        sim.run(until=20.0)
        assert pool.pick() is pool.primary  # HALF_OPEN trial
        state = pool.breakers[pool.primary].state
        assert state == CircuitBreaker.HALF_OPEN

    def test_all_open_yields_none(self):
        pool = _pool(Simulator(seed=0))
        for endpoint in pool.endpoints:
            pool.record_failure(endpoint)
            pool.record_failure(endpoint)
        assert pool.pick() is None

    def test_repeated_picks_of_the_same_endpoint_are_not_failovers(self):
        pool = _pool(Simulator(seed=0))
        for _ in range(5):
            assert pool.pick() is pool.primary
        assert pool.failovers == 0

    def test_failovers_count_endpoint_changes_not_picks(self):
        sim = Simulator(seed=0)
        pool = _pool(sim)
        pool.record_failure(pool.primary)
        pool.record_failure(pool.primary)
        # Several dials ride on the replica; that is ONE failover.
        for _ in range(4):
            assert pool.pick() is pool.endpoints[1]
        assert pool.failovers == 1
        # Fail-back to the recovered primary is the second change.
        sim.run(until=20.0)
        assert pool.pick() is pool.primary
        assert pool.failovers == 2

    def test_endpoint_label_is_not_identity(self):
        bare = Endpoint(IPv4Address("10.0.0.1"), 9000)
        labelled = Endpoint(IPv4Address("10.0.0.1"), 9000, "remote-1")
        assert bare == labelled
        assert hash(bare) == hash(labelled)
        pool = _pool(Simulator(seed=0))
        # A router handing back its own labelled copy must hit the
        # pool's breaker for the same (address, port).
        pool.record_success(bare)
        assert pool.breakers[labelled].state == CircuitBreaker.CLOSED


# -- staggered health checks -------------------------------------------------------


class TestStaggeredHealthChecks:
    @staticmethod
    def _world(seed):
        testbed = Testbed(seed=seed)
        transport = testbed.transport_of(testbed.client)
        # Dead endpoints: nothing listens there, so every probe fails
        # and each breaker opens on its own staggered schedule.
        endpoints = [Endpoint(IPv4Address(f"203.0.113.{i + 1}"), 9999,
                              f"dead-{i + 1}") for i in range(2)]
        pool = FailoverPool(testbed.sim, endpoints, failure_threshold=2,
                            reset_timeout=500.0)
        pool.start_health_checks(transport, interval=15.0, timeout=2.0)
        return testbed, pool

    def _open_times(self, seed):
        testbed, pool = self._world(seed)
        testbed.sim.run(until=80.0)
        times = {}
        for endpoint, breaker in pool.breakers.items():
            opened = [at for at, _old, new in breaker.transitions
                      if new == CircuitBreaker.OPEN]
            assert opened, f"{endpoint} never opened"
            times[str(endpoint)] = opened[0]
        return times

    def test_probe_phases_are_staggered(self):
        times = self._open_times(seed=0)
        assert len(set(times.values())) == len(times)

    def test_stagger_is_seed_deterministic(self):
        assert self._open_times(seed=7) == self._open_times(seed=7)

    def test_offsets_come_from_the_registered_stream(self):
        # Passing the registered stream explicitly must reproduce the
        # default behaviour exactly — proof the default draws from
        # ``failover.health`` and nowhere else.
        default_times = self._open_times(seed=9)

        testbed = Testbed(seed=9)
        transport = testbed.transport_of(testbed.client)
        endpoints = [Endpoint(IPv4Address(f"203.0.113.{i + 1}"), 9999,
                              f"dead-{i + 1}") for i in range(2)]
        pool = FailoverPool(testbed.sim, endpoints, failure_threshold=2,
                            reset_timeout=500.0)
        pool.start_health_checks(
            transport, interval=15.0, timeout=2.0,
            rng=testbed.sim.rng.stream("failover.health"))
        testbed.sim.run(until=80.0)
        explicit_times = {
            str(endpoint): [at for at, _old, new in breaker.transitions
                            if new == CircuitBreaker.OPEN][0]
            for endpoint, breaker in pool.breakers.items()}
        assert explicit_times == default_times


# -- fault schedule validation -----------------------------------------------------


class TestFaultSchedule:
    def test_rejects_events_in_the_past(self):
        with pytest.raises(FaultError):
            FaultSchedule().link_down("border", at=-1.0, duration=5.0)

    def test_gfw_policy_duration_requires_a_revert(self):
        with pytest.raises(FaultError):
            FaultSchedule().gfw_policy(1.0, "burst", lambda gfw: None,
                                       duration=30.0)

    def test_unknown_kind_is_rejected_at_apply_time(self):
        testbed = Testbed(seed=0)
        injector = FaultInjector(testbed, FaultSchedule())
        with pytest.raises(FaultError):
            injector._apply(FaultEvent(0.0, "meteor-strike", "border"))


# -- seed robustness of the fault timeline -----------------------------------------


def _timeline(seed):
    testbed = Testbed(seed=seed, remote_replicas=1)
    script = standard_fault_script(testbed.rng.stream("faults.schedule"))
    injector = script.install(testbed)
    testbed.sim.run(until=650.0)
    return injector.timeline


class TestTimelineDeterminism:
    def test_same_seed_byte_identical_timeline(self):
        first, second = _timeline(0), _timeline(0)
        assert first == second
        assert first  # the standard script is not empty

    def test_different_seed_different_timeline(self):
        assert _timeline(0) != _timeline(7)

    def test_faults_apply_and_revert_in_time_order(self):
        timeline = _timeline(0)
        times = [entry[0] for entry in timeline]
        assert times == sorted(times)
        phases = {entry[3] for entry in timeline}
        assert phases == {"apply", "revert"}

    def test_gfw_escalation_lands_in_the_policy_log(self):
        testbed = Testbed(seed=0)
        script = standard_fault_script(testbed.rng.stream("faults.schedule"))
        script.install(testbed)
        testbed.sim.run(until=650.0)
        labels = [label for _, label in testbed.gfw.policy_log]
        assert "escalation" in labels
        assert "ip-block-burst" in labels
        assert "ip-block-burst:revert" in labels


# -- failover absorption (the acceptance scenario) ---------------------------------


def _resilient_browser(world):
    """The fault-experiment browser: one transport retry per object."""
    from repro.http import Browser
    return Browser(world.testbed.sim, world.method.connector(),
                   name="resilient", retries=1)


class TestFailoverAbsorption:
    def test_killed_primary_remote_is_absorbed_by_the_replica(self):
        world = prepare("scholarcloud", seed=0, remote_replicas=1)
        testbed = world.testbed
        browser = _resilient_browser(world)
        before = testbed.run_process(browser.load(testbed.scholar_page))
        assert before.succeeded
        # Kill the primary remote VM, permanently (no restore).
        testbed.transport_of(testbed.remote_vm).crash()
        after = testbed.run_process(browser.load(testbed.scholar_page))
        assert after.succeeded
        assert after.error is None
        domestic = world.method.domestic
        assert domestic.pool.failovers > 0
        assert domestic.dials_failed == 0

    def test_crash_via_fault_schedule_matches_direct_crash(self):
        world = prepare("scholarcloud", seed=0, remote_replicas=1)
        testbed = world.testbed
        browser = _resilient_browser(world)
        schedule = FaultSchedule()
        schedule.proxy_crash("remote-vm", at=testbed.sim.now + 1.0,
                             downtime=120.0)
        injector = schedule.install(testbed)
        testbed.sim.run(until=testbed.sim.now + 5.0)
        result = testbed.run_process(browser.load(testbed.scholar_page))
        assert result.succeeded and result.error is None
        assert world.method.domestic.pool.failovers > 0
        assert injector.timeline[0][1:] == ("proxy-crash", "remote-vm", "apply")


# -- close-on-error ----------------------------------------------------------------


class TestCloseOnError:
    def test_refused_open_leaves_no_established_connections(self):
        world = prepare("scholarcloud", seed=0)
        testbed = world.testbed
        connector = world.method.connector()
        with pytest.raises(MiddlewareError):
            testbed.run_process(
                connector.open("evil.example", 443, use_tls=True))
        testbed.sim.run(until=testbed.sim.now + 5.0)
        client_transport = testbed.transport_of(testbed.client)
        states = [conn.state
                  for conn in client_transport._connections.values()]
        assert TcpConnection.ESTABLISHED not in states


# -- the availability metric -------------------------------------------------------


class TestAvailabilityMetric:
    def test_empty_series(self):
        result = availability([])
        assert result.attempts == 0
        assert result.success_rate == 0.0
        assert result.worst_time_to_recovery == 0.0

    def test_all_successes(self):
        result = availability([(0.0, True), (30.0, True), (60.0, True)])
        assert result.success_rate == 1.0
        assert result.recoveries == 0
        assert "worst TTR -" in str(result)

    def test_recovery_time_spans_the_whole_outage(self):
        result = availability(
            [(0.0, True), (30.0, False), (60.0, False), (90.0, True)])
        assert result.successes == 2
        assert result.recoveries == 1
        assert result.worst_time_to_recovery == 60.0

    def test_series_ending_down_never_recovers(self):
        result = availability([(0.0, True), (30.0, False)])
        assert math.isinf(result.worst_time_to_recovery)
        assert "never" in str(result)

    def test_out_of_order_samples_raise(self):
        with pytest.raises(MeasurementError):
            availability([(10.0, True), (5.0, False)])
