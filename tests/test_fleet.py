"""repro.fleet: rendezvous routing, membership, chaos, and reports.

The properties that make a fleet a fleet: the session->PoP assignment
is a pure function of (key, membership) — identical across runs, seeds,
and worker processes; evicting one of M pops remaps only the sessions
that lived on it; and the failure detector's evict/reinstate trace is
seed-deterministic.
"""

import pytest

from repro.errors import FaultError, MeasurementError
from repro.faults import Endpoint
from repro.fleet import (
    ACTIVE,
    DOWN,
    FailureDetector,
    FleetSchedule,
    FleetTestbed,
    ProxyFleet,
    SessionRouter,
    aggregate_fleet,
    default_fleet_regions,
    region_by_name,
    region_gfw_config,
    region_policy,
    run_fleet_region_point,
)
from repro.measure import availability_over_time, merge_series
from repro.net import IPv4Address
from repro.sim import Simulator


def _endpoints(count=3):
    return [Endpoint(IPv4Address(f"47.88.1.{100 + j}"), 443,
                     name=f"pop-{j + 1}")
            for j in range(count)]


def _router(count=3, seed=0):
    return SessionRouter(Simulator(seed=seed), _endpoints(count))


def _keys(count):
    return [f"59.66.10.{11 + k}" for k in range(count)]


# -- rendezvous weights ------------------------------------------------------------


class TestRendezvousWeights:
    def test_weight_is_a_pure_function(self):
        endpoint = _endpoints(1)[0]
        assert (SessionRouter.weight("59.66.10.11", endpoint)
                == SessionRouter.weight("59.66.10.11", endpoint))

    def test_weight_is_stable_across_processes(self):
        # blake2b is unsalted, unlike builtin hash(): this exact value
        # must come out of every interpreter on every machine, which is
        # what lets parallel sweep workers agree on the assignment.
        endpoint = Endpoint(IPv4Address("47.88.1.100"), 443, name="pop-1")
        assert SessionRouter.weight("59.66.10.11",
                                    endpoint) == 12929590679812331767

    def test_rank_orders_all_endpoints(self):
        router = _router(4)
        ranked = router.rank("59.66.10.11")
        assert sorted(str(e) for e in ranked) == sorted(
            str(e) for e in router.endpoints)
        weights = [SessionRouter.weight("59.66.10.11", e) for e in ranked]
        assert weights == sorted(weights, reverse=True)

    def test_label_does_not_affect_identity_or_weight(self):
        bare = Endpoint(IPv4Address("47.88.1.100"), 443)
        labelled = Endpoint(IPv4Address("47.88.1.100"), 443, name="pop-1")
        assert bare == labelled
        assert hash(bare) == hash(labelled)
        assert (SessionRouter.weight("key", bare)
                == SessionRouter.weight("key", labelled))


# -- sticky routing ----------------------------------------------------------------


class TestStickyRouting:
    def test_route_picks_the_top_ranked_active_endpoint(self):
        router = _router()
        key = "59.66.10.11"
        assert router.route(key) == router.rank(key)[0]

    def test_binding_is_sticky(self):
        router = _router()
        key = "59.66.10.11"
        first = router.route(key)
        router.bind(key, first)
        for _ in range(3):
            assert router.route(key) == first

    def test_allow_veto_falls_to_second_choice(self):
        router = _router()
        key = "59.66.10.11"
        first, second = router.rank(key)[:2]
        assert router.route(key, allow=lambda e: e != first) == second

    def test_needs_at_least_one_endpoint(self):
        with pytest.raises(FaultError):
            SessionRouter(Simulator(seed=0), [])


# -- eviction remaps only its own sessions -----------------------------------------


class TestEviction:
    def test_evict_remaps_only_the_lost_pops_sessions(self):
        router = _router(3)
        keys = _keys(120)
        for key in keys:
            router.bind(key, router.route(key))
        victim = router.endpoints[1]
        on_victim = set(router.sessions_on(victim))
        before = {key: router.route(key) for key in keys
                  if key not in on_victim}

        displaced = router.evict(victim)

        assert set(displaced) == on_victim
        # With 3 pops, rendezvous spreads ~1/3 per pop; the displaced
        # share must be that fraction, not "most of the fleet".
        assert 0.15 < len(displaced) / len(keys) < 0.55
        # Nobody else moves: every surviving session's route is
        # exactly what it was before the eviction.
        for key, endpoint in before.items():
            assert router.route(key) == endpoint

    def test_displaced_rebind_counts_as_remap(self):
        router = _router(3)
        keys = _keys(30)
        for key in keys:
            router.bind(key, router.route(key))
        victim = router.endpoints[0]
        displaced = router.evict(victim)
        assert displaced
        for key in displaced:
            router.bind(key, router.route(key))
        assert router.remaps == len(displaced)
        assert len(router.churn) == len(displaced)
        # Survivors rebinding to their sticky pop is not churn.
        survivor = next(k for k in keys if k not in displaced)
        router.bind(survivor, router.route(survivor))
        assert router.remaps == len(displaced)

    def test_reinstate_causes_no_flap_back(self):
        router = _router(3)
        keys = _keys(30)
        for key in keys:
            router.bind(key, router.route(key))
        victim = router.endpoints[0]
        displaced = router.evict(victim)
        for key in displaced:
            router.bind(key, router.route(key))
        remaps_after_failover = router.remaps
        router.reinstate(victim)
        # Every session that failed over stays put; no second migration.
        for key in displaced:
            assert router.route(key) != victim
        assert router.remaps == remaps_after_failover
        assert router.status[victim] == ACTIVE
        assert router.reinstatements == 1

    def test_evict_unknown_endpoint_raises(self):
        router = _router(2)
        with pytest.raises(FaultError):
            router.evict(Endpoint(IPv4Address("10.9.9.9"), 1, name="ghost"))


# -- failure detector (end to end) -------------------------------------------------


def _detector_world(seed=0, pops=2):
    testbed = FleetTestbed(seed=seed, regions=default_fleet_regions(1),
                           pops=pops)
    fleet = ProxyFleet(testbed, detector_interval=5.0, detector_timeout=2.0)
    testbed.run_process(fleet.launch(), name="launch")
    return testbed, fleet


class TestFailureDetector:
    def test_dead_pop_is_evicted_then_reinstated(self):
        testbed, fleet = _detector_world()
        victim = testbed.pops[0]
        transport = testbed.transport_of(victim)
        snapshot = transport.crash()
        testbed.sim.run(until=60.0)
        endpoint = next(candidate for candidate in fleet.endpoints
                        if candidate.name == victim.name)
        assert fleet.router.status[endpoint] == DOWN
        assert fleet.router.evictions == 1
        transport.restore(snapshot)
        testbed.sim.run(until=120.0)
        assert fleet.router.status[endpoint] == ACTIVE
        assert fleet.router.reinstatements == 1

    def test_detector_trace_is_seed_deterministic(self):
        def trace(seed):
            testbed, fleet = _detector_world(seed=seed)
            victim = testbed.pops[0]
            testbed.transport_of(victim).crash()
            testbed.sim.run(until=60.0)
            assert fleet.detector is not None
            return list(fleet.detector.log), list(fleet.router.events)

        assert trace(4) == trace(4)

    def test_healthy_fleet_stays_fully_active(self):
        testbed, fleet = _detector_world()
        testbed.sim.run(until=45.0)
        assert all(status == ACTIVE
                   for status in fleet.router.status.values())
        assert fleet.detector is not None
        assert fleet.detector.probes_sent > 0
        assert all(verdict == "ok"
                   for _, _, verdict in fleet.detector.log)


# -- reinstatement hysteresis ------------------------------------------------------


class TestReinstatementHysteresis:
    def test_flapping_probes_never_reinstate(self):
        # One healthy probe between failures must not re-admit a pop a
        # flapping path is about to kill again: reinstatement requires
        # reinstate_threshold *consecutive* ok verdicts.
        sim = Simulator(seed=0)
        router = SessionRouter(sim, _endpoints(1))
        detector = FailureDetector(sim, router, transport=object(),
                                   suspicion_threshold=2,
                                   reinstate_threshold=2)
        endpoint = router.endpoints[0]
        detector._on_failure(endpoint)
        detector._on_failure(endpoint)
        assert router.status[endpoint] == DOWN
        for _ in range(3):  # flap: ok, fail, ok, fail, ...
            detector._on_success(endpoint)
            assert router.status[endpoint] == DOWN
            detector._on_failure(endpoint)
        assert router.reinstatements == 0
        detector._on_success(endpoint)
        detector._on_success(endpoint)
        assert router.status[endpoint] == ACTIVE
        assert router.reinstatements == 1

    def test_thresholds_must_be_positive(self):
        sim = Simulator(seed=0)
        router = SessionRouter(sim, _endpoints(1))
        with pytest.raises(FaultError):
            FailureDetector(sim, router, transport=object(),
                            reinstate_threshold=0)
        with pytest.raises(FaultError):
            FailureDetector(sim, router, transport=object(),
                            suspicion_threshold=0)


# -- end-to-end: same-seed assignment ----------------------------------------------


def _small_point(**overrides):
    kwargs = dict(region="beijing", pops=3, clients=4, cycles=1, seed=3,
                  mode="packet")
    kwargs.update(overrides)
    return run_fleet_region_point(**kwargs)


class TestFleetPoints:
    def test_same_seed_same_assignment_and_samples(self):
        first = _small_point()
        second = _small_point()
        assert first.assignment_digest == second.assignment_digest
        assert first.samples == second.samples
        assert first.completed == second.completed

    def test_assignment_is_independent_of_seed(self):
        # The rendezvous map is a function of (key, membership) only:
        # reseeding reshuffles timing, never placement.
        assert (_small_point(seed=3).assignment_digest
                == _small_point(seed=4).assignment_digest)

    def test_all_loads_succeed_on_a_healthy_fleet(self):
        result = _small_point(clients=4, cycles=2)
        assert result.failed == 0
        assert result.completed == 4 * 2  # sampled loads: clients x cycles
        assert result.failovers == 0
        assert result.remaps == 0


# -- regional divergence -----------------------------------------------------------


class TestRegionalDivergence:
    def test_catalogue_has_divergent_policies(self):
        beijing = region_policy(region_by_name("beijing"))
        chengdu = region_policy(region_by_name("chengdu"))
        assert chengdu.keyword_hit("bridge-distribution notes")
        assert not beijing.keyword_hit("bridge-distribution notes")

    def test_interference_scale_raises_regional_rates(self):
        beijing = region_policy(region_by_name("beijing"))
        shanghai = region_policy(region_by_name("shanghai"))
        for label, rate in beijing.class_interference.items():
            assert shanghai.interference_for(label) >= rate

    def test_gfw_config_tracks_the_region(self):
        spec = region_by_name("guangzhou")
        config = region_gfw_config(spec)
        assert config.inside_name == "border-cn-guangzhou"
        assert config.active_probing is spec.active_probing
        assert config.reset_penalty_seconds == spec.reset_penalty_seconds

    def test_unknown_region_raises(self):
        with pytest.raises(MeasurementError):
            region_by_name("atlantis")

    def test_testbed_builds_one_distinct_gfw_per_region(self):
        testbed = FleetTestbed(seed=0, regions=default_fleet_regions(2))
        gfws = [region.gfw for region in testbed.regions]
        assert all(gfw is not None for gfw in gfws)
        assert len({id(gfw) for gfw in gfws}) == len(gfws)
        assert sorted(gfw.name for gfw in gfws) == [
            "gfw-beijing", "gfw-shanghai"]


# -- chaos schedule ----------------------------------------------------------------


class TestFleetSchedule:
    def test_pop_blackout_requires_positive_downtime(self):
        with pytest.raises(FaultError):
            FleetSchedule().pop_blackout("pop-1", at=10.0, downtime=0.0)

    def test_regional_escalation_requires_a_knob(self):
        with pytest.raises(FaultError):
            FleetSchedule().regional_escalation("beijing", at=10.0,
                                                duration=30.0)

    def test_escalation_applies_and_reverts_on_the_regions_gfw(self):
        testbed = FleetTestbed(seed=0, regions=default_fleet_regions(2))
        schedule = FleetSchedule()
        schedule.regional_escalation("shanghai", at=10.0, duration=20.0,
                                     keywords=("ephemeral-kw",),
                                     interference_scale=2.0)
        schedule.install(testbed)
        shanghai = testbed.region("shanghai")
        assert shanghai.gfw is not None
        baseline = dict(shanghai.policy.class_interference)
        testbed.sim.run(until=15.0)
        assert shanghai.policy.keyword_hit("ephemeral-kw probe")
        # The *other* region's firewall is untouched — divergence is
        # per-instance, not global state.
        beijing = testbed.region("beijing")
        assert not beijing.policy.keyword_hit("ephemeral-kw probe")
        testbed.sim.run(until=40.0)
        assert not shanghai.policy.keyword_hit("ephemeral-kw probe")
        assert dict(shanghai.policy.class_interference) == baseline
        labels = [label for _, label in shanghai.gfw.policy_log]
        assert "escalation:shanghai" in labels
        assert "escalation:shanghai:revert" in labels


# -- availability series and fleet report ------------------------------------------


class TestAvailabilitySeries:
    def test_bucketing_folds_samples_into_windows(self):
        series = availability_over_time(
            [(5.0, True), (25.0, False), (35.0, True)], bucket=30.0)
        assert series.attempts == (2, 1)
        assert series.successes == (1, 1)
        assert series.rates == (0.5, 1.0)

    def test_empty_buckets_render_as_gaps(self):
        series = availability_over_time([(65.0, True)], bucket=30.0)
        assert series.rates == (None, None, 1.0)
        assert "-" in str(series)

    def test_horizon_pads_for_alignment(self):
        series = availability_over_time([(5.0, True)], bucket=30.0,
                                        horizon=89.0)
        assert len(series.attempts) == 3

    def test_merge_sums_aligned_regions(self):
        first = availability_over_time([(5.0, True), (35.0, False)],
                                       bucket=30.0)
        second = availability_over_time([(6.0, True), (36.0, True)],
                                        bucket=30.0)
        merged = merge_series([first, second])
        assert merged.attempts == (2, 2)
        assert merged.successes == (2, 1)

    def test_bad_bucket_raises(self):
        with pytest.raises(MeasurementError):
            availability_over_time([(0.0, True)], bucket=0.0)


class TestFleetReport:
    def test_blackout_campaign_dips_and_recovers(self):
        result = run_fleet_region_point(
            "beijing", pops=3, clients=12, cycles=3, seed=1,
            mode="packet", blackout_pop="pop-2", blackout_at=90.0,
            blackout_downtime=60.0)
        report = aggregate_fleet([result], bucket=60.0)
        assert result.evictions == 1
        assert result.reinstatements == 1
        assert result.remaps > 0
        assert report.recovered()
        # Bounded disruption: the router absorbs the blackout, so the
        # fleet-wide dip stays within 10 availability points.
        assert report.availability_dip() <= 0.10
        rendered = report.render()
        assert "fleet availability report" in rendered
        assert "beijing" in rendered
        assert "evict" in rendered

    def test_campaign_timeline_is_recorded(self):
        result = run_fleet_region_point(
            "beijing", pops=2, clients=2, cycles=1, seed=0,
            mode="packet", blackout_pop="pop-1", blackout_at=30.0,
            blackout_downtime=30.0)
        assert (30.0, "pop-blackout", "pop-1", "apply") in result.timeline
        assert (60.0, "pop-blackout", "pop-1", "revert") in result.timeline
