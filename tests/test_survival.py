"""repro.fleet.survival + repro.fleet.verifier: session survivability.

The properties this file pins: the region health score degrades on a
blackout but not on interference alone; every error path in
repro.fleet closes what it opened (the leak rule); the coordinator
migrates a session at most ``migration_budget`` times and resumes it
at the byte offset it had reached — including when the *target*
region blacks out too — and never flaps it back when the old region
returns; and the SurvivalVerifier machine-checks every headline claim
of the escalation-to-blackout campaign instead of trusting a
hand-read plot.
"""

from pathlib import Path

import pytest

from repro.analysis import Analyzer, Severity, parse_config
from repro.errors import MeasurementError
from repro.fleet import (
    DOWN,
    FleetSchedule,
    FleetTestbed,
    ProxyFleet,
    SurvivalCoordinator,
    SurvivalEvent,
    SurvivalSession,
    SurvivalVerifier,
    default_fleet_regions,
    run_survival_campaign,
    survival_document,
)
from repro.measure import region_health

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src" / "repro"
PYPROJECT = REPO_ROOT / "pyproject.toml"


# -- region health -----------------------------------------------------------------


class TestRegionHealth:
    def test_quiet_region_scores_fully_healthy(self):
        health = region_health("beijing")
        assert health.score == 1.0
        assert not health.degraded()

    def test_blackout_signature_is_degraded(self):
        # Border down: every transpacific breaker open, no traffic
        # making it out — the exact fingerprint the coordinator drains on.
        health = region_health("beijing", breakers_open=3, breakers_total=3)
        assert health.breaker_open_fraction == 1.0
        assert health.score < 0.5
        assert health.degraded()

    def test_interference_alone_does_not_drain_a_region(self):
        health = region_health("beijing", interference_drops=50,
                               packets_seen=100)
        assert not health.degraded()

    def test_negative_counters_raise(self):
        with pytest.raises(MeasurementError):
            region_health("beijing", packets_seen=-1)


# -- leak discipline -------------------------------------------------------------


def test_fleet_close_paths_satisfy_the_leak_rule():
    # Survival sessions, the failure detector's probes and the fleet's
    # dials open connections across regions; pyproject extends the
    # leak-on-error-path scope over repro.fleet so every error path
    # provably closes them.
    analyzer = Analyzer(config=parse_config(PYPROJECT))
    findings = analyzer.analyze_paths([SRC / "fleet"])
    leaks = [f for f in findings if f.rule == "leak-on-error-path"
             and f.severity is Severity.ERROR]
    assert leaks == [], "\n".join(f.format() for f in leaks)


# -- the chunked survival document -------------------------------------------------


class TestSurvivalDocument:
    def test_chunks_tile_the_document(self):
        page = survival_document(total_bytes=100, chunk_size=30)
        assert [obj.size for obj in page.objects] == [30, 30, 30, 10]
        assert [obj.path for obj in page.objects] == [
            f"/survival/corpus.pdf?chunk={i}" for i in range(4)]
        assert not any(obj.cacheable for obj in page.objects)

    def test_sizes_must_be_positive(self):
        with pytest.raises(MeasurementError):
            survival_document(total_bytes=0)
        with pytest.raises(MeasurementError):
            survival_document(chunk_size=0)


# -- the verifier over synthetic logs ----------------------------------------------


def _log(*rows):
    return [SurvivalEvent(time, kind, session, region, tuple(detail))
            for time, kind, session, region, detail in rows]


_REGIONS = ["beijing", "shanghai"]


class TestSurvivalVerifier:
    def test_clean_migrated_session_passes_every_invariant(self):
        events = _log(
            (0.0, "session-start", "s1", "beijing", ("beijing", 20)),
            (1.0, "chunk", "s1", "beijing", (0, 10)),
            (2.0, "region-degraded", "", "beijing", (0.4,)),
            (3.0, "migrate", "s1", "shanghai", ("beijing", "shanghai", 10)),
            (3.5, "resume", "s1", "shanghai", (10, "beijing")),
            (4.0, "chunk", "s1", "shanghai", (10, 10)),
            (5.0, "session-complete", "s1", "shanghai", (20,)),
            (60.0, "region-recovered", "", "beijing", (0.9,)))
        report = SurvivalVerifier(migration_budget=3).verify(events, _REGIONS)
        assert report.passed
        assert report.sessions == 1
        assert report.completed == 1
        assert report.migrations == 1
        assert report.lost == 0

    def test_loss_with_a_healthy_region_up_is_a_violation(self):
        events = _log(
            (0.0, "session-start", "s1", "beijing", ("beijing", 20)),
            (1.0, "region-degraded", "", "beijing", (0.4,)),
            (9.0, "session-lost", "s1", "beijing", ("deadline", 0)))
        report = SurvivalVerifier().verify(events, _REGIONS)
        verdict = report.invariant("no-session-lost-while-healthy")
        assert not verdict.passed
        assert "shanghai" in verdict.violations[0]

    def test_loss_during_a_total_outage_is_tolerated(self):
        events = _log(
            (0.0, "session-start", "s1", "beijing", ("beijing", 20)),
            (1.0, "region-degraded", "", "beijing", (0.4,)),
            (2.0, "region-degraded", "", "shanghai", (0.3,)),
            (9.0, "session-lost", "s1", "beijing", ("deadline", 0)))
        report = SurvivalVerifier().verify(events, _REGIONS)
        assert report.invariant("no-session-lost-while-healthy").passed

    def test_duplicate_delivery_after_resume_is_caught(self):
        events = _log(
            (0.0, "session-start", "s1", "beijing", ("beijing", 20)),
            (1.0, "chunk", "s1", "beijing", (0, 10)),
            (2.0, "chunk", "s1", "beijing", (0, 10)),  # replayed chunk
            (3.0, "chunk", "s1", "beijing", (10, 10)),
            (4.0, "session-complete", "s1", "beijing", (20,)))
        verdict = (SurvivalVerifier().verify(events, _REGIONS)
                   .invariant("no-duplicate-delivery"))
        assert not verdict.passed
        assert "duplicate" in verdict.violations[0]

    def test_gap_in_delivery_is_caught(self):
        events = _log(
            (0.0, "session-start", "s1", "beijing", ("beijing", 30)),
            (1.0, "chunk", "s1", "beijing", (0, 10)),
            (2.0, "chunk", "s1", "beijing", (20, 10)),  # skipped 10..20
            (3.0, "session-complete", "s1", "beijing", (30,)))
        verdict = (SurvivalVerifier().verify(events, _REGIONS)
                   .invariant("no-duplicate-delivery"))
        assert not verdict.passed
        assert "gap" in verdict.violations[0]

    def test_short_completion_is_caught(self):
        events = _log(
            (0.0, "session-start", "s1", "beijing", ("beijing", 100)),
            (1.0, "chunk", "s1", "beijing", (0, 10)),
            (2.0, "session-complete", "s1", "beijing", (10,)))
        verdict = (SurvivalVerifier().verify(events, _REGIONS)
                   .invariant("no-duplicate-delivery"))
        assert not verdict.passed
        assert "10 of 100" in verdict.violations[0]

    def test_migration_budget_is_enforced(self):
        events = _log(
            (0.0, "session-start", "s1", "beijing", ("beijing", 10)),
            (1.0, "migrate", "s1", "shanghai", ("beijing", "shanghai", 0)),
            (2.0, "migrate", "s1", "beijing", ("shanghai", "beijing", 0)),
            (3.0, "chunk", "s1", "beijing", (0, 10)),
            (4.0, "session-complete", "s1", "beijing", (10,)))
        assert (SurvivalVerifier(migration_budget=2)
                .verify(events, _REGIONS).passed)
        verdict = (SurvivalVerifier(migration_budget=1)
                   .verify(events, _REGIONS)
                   .invariant("migrations-within-budget"))
        assert not verdict.passed

    @pytest.mark.parametrize("session, why", [
        ("s2", "without a session-start"),
        ("s1", "after its terminal event"),
    ])
    def test_unmatched_terminal_event_is_a_violation(self, session, why):
        # Exactly one terminal event per started session: a completion
        # for a session that never started, or a second one for a
        # session that already ended, is neither an outcome nor clean.
        events = _log(
            (0.0, "session-start", "s1", "beijing", ("beijing", 10)),
            (1.0, "chunk", "s1", "beijing", (0, 10)),
            (2.0, "session-complete", "s1", "beijing", (10,)),
            (3.0, "session-complete", session, "beijing", (10,)))
        report = SurvivalVerifier().verify(events, _REGIONS)
        verdict = report.invariant("no-session-unresolved")
        assert not verdict.passed
        assert verdict.violations == (
            f"t=3 {session}: session-complete {why}",)
        assert report.completed == 1

    def test_hung_session_is_a_violation(self):
        events = _log(
            (0.0, "session-start", "s1", "beijing", ("beijing", 10)),
            (1.0, "chunk", "s1", "beijing", (0, 10)))
        verdict = (SurvivalVerifier().verify(events, _REGIONS)
                   .invariant("no-session-unresolved"))
        assert not verdict.passed
        assert "s1" in verdict.violations[0]

    def test_unrecovered_availability_fails(self):
        # One bucket of successes, then only losses to the end: the dip
        # is 100 points and the series never climbs back.
        events = _log(
            (0.0, "session-start", "s1", "beijing", ("beijing", 10)),
            (1.0, "chunk", "s1", "beijing", (0, 10)),
            (2.0, "session-complete", "s1", "beijing", (10,)),
            (3.0, "region-degraded", "", "beijing", (0.4,)),
            (4.0, "region-degraded", "", "shanghai", (0.3,)),
            (50.0, "session-start", "s2", "beijing", ("beijing", 10)),
            (70.0, "session-lost", "s2", "beijing", ("deadline", 0)))
        report = SurvivalVerifier(bucket=30.0).verify(events, _REGIONS)
        verdict = report.invariant("availability-dip-bounded")
        assert not verdict.passed
        assert report.dip == 1.0
        assert not report.recovering

    def test_out_of_order_log_raises(self):
        events = _log(
            (5.0, "session-start", "s1", "beijing", ("beijing", 10)),
            (1.0, "chunk", "s1", "beijing", (0, 10)))
        with pytest.raises(MeasurementError):
            SurvivalVerifier().verify(events, _REGIONS)

    def test_render_lists_every_verdict(self):
        events = _log(
            (0.0, "session-start", "s1", "beijing", ("beijing", 10)),
            (1.0, "chunk", "s1", "beijing", (0, 10)),
            (2.0, "session-complete", "s1", "beijing", (10,)))
        rendered = SurvivalVerifier().verify(events, _REGIONS).render()
        assert "survival verifier report" in rendered
        assert rendered.count("[PASS]") == 5
        assert "verdict: PASS" in rendered

    def test_bad_thresholds_raise(self):
        with pytest.raises(MeasurementError):
            SurvivalVerifier(migration_budget=-1)
        with pytest.raises(MeasurementError):
            SurvivalVerifier(dip_ceiling=1.5)


# -- coordinator placement: budgets, double escalation, no flap-back ---------------


def _coordinator_world(seed=0, regions=3, **coordinator_kwargs):
    testbed = FleetTestbed(seed=seed, regions=default_fleet_regions(regions),
                           pops=2, clients_per_region=1,
                           domestic_backbone=True)
    fleet = ProxyFleet(testbed)
    testbed.run_process(fleet.launch(), name="launch")
    return testbed, fleet, SurvivalCoordinator(fleet, **coordinator_kwargs)


class TestCoordinatorPlacement:
    def test_unbound_session_enters_at_its_healthy_home(self):
        _, _, coordinator = _coordinator_world()
        assert coordinator.place("s1", "shanghai", None, 0) == "shanghai"
        assert coordinator.migrations == 0

    def test_unknown_home_region_raises(self):
        _, _, coordinator = _coordinator_world()
        with pytest.raises(MeasurementError):
            coordinator.place("s1", "atlantis", None, 0)

    def test_migration_spends_budget_then_pins(self):
        _, _, coordinator = _coordinator_world(migration_budget=1)
        coordinator.bind("s1", "beijing")
        coordinator.entry_router.evict(coordinator.entries["beijing"])
        first = coordinator.place("s1", "beijing", "beijing", 512)
        assert first in ("shanghai", "guangzhou")
        assert coordinator.migrations_of("s1") == 1
        coordinator.bind("s1", first)
        # The target degrades too, but the budget is spent: the session
        # is pinned where it is instead of thrashing.
        coordinator.entry_router.evict(coordinator.entries[first])
        assert coordinator.place("s1", "beijing", first, 1024) == first
        assert coordinator.migrations_of("s1") == 1
        kinds = [event.kind for event in coordinator.events]
        assert kinds.count("migrate") == 1
        assert kinds.count("migrate-denied") == 1

    def test_no_healthy_region_places_nowhere(self):
        _, _, coordinator = _coordinator_world(regions=2)
        for entry in coordinator.entries.values():
            coordinator.entry_router.evict(entry)
        assert coordinator.place("s1", "beijing", "beijing", 0) is None
        assert coordinator.migrations == 0

    def test_migrated_session_stays_when_its_home_recovers(self):
        # A bound session stays put while its region is healthy; the
        # region degrading displaces it (one migration), and the region
        # coming back must not flap it home again.
        _, _, coordinator = _coordinator_world()
        entry = coordinator.entries["beijing"]
        coordinator.bind("s1", "beijing")
        assert coordinator.place("s1", "beijing", "beijing", 256) == "beijing"
        assert coordinator.migrations == 0
        coordinator.entry_router.evict(entry)
        assert coordinator.entry_router.status[entry] == DOWN
        moved = coordinator.place("s1", "beijing", "beijing", 256)
        assert moved != "beijing"
        assert coordinator.migrations_of("s1") == 1
        coordinator.bind("s1", moved)
        coordinator.entry_router.reinstate(entry)
        assert coordinator.place("s1", "beijing", moved, 512) == moved
        assert coordinator.migrations_of("s1") == 1


# -- end to end: a session outlives two regional escalations -----------------------


def _double_blackout(regions, load_deadline):
    """One beijing session; beijing goes dark at t=15, then the region
    the session migrates to goes dark at t=120, both for 600 s."""
    testbed = FleetTestbed(seed=1, regions=default_fleet_regions(regions),
                           pops=2, clients_per_region=1,
                           domestic_backbone=True)
    sim = testbed.sim
    fleet = ProxyFleet(testbed)
    testbed.run_process(fleet.launch(), name="launch")
    page = survival_document(total_bytes=40 * 2048, chunk_size=2048)
    testbed.scholar_server.add_page(page)
    coordinator = SurvivalCoordinator(fleet)
    coordinator.start()

    # The session's first fallback is a pure function of its key, so
    # the schedule can black out the *target* region after the move.
    fallback = next(
        entry.name for entry in coordinator.entry_router.rank("edge-1")
        if entry.name != "beijing")
    schedule = FleetSchedule()
    schedule.region_blackout("beijing", at=15.0, downtime=600.0)
    schedule.region_blackout(fallback, at=120.0, downtime=600.0)
    schedule.install(testbed)

    session = SurvivalSession(
        coordinator, host=testbed.region("beijing").extra_clients[0],
        home="beijing", key="edge-1", page=page, chunk_size=2048,
        load_deadline=load_deadline, chunk_interval=3.0)
    sim.run(until=sim.process(session.run(), name="edge-session"))
    return testbed, coordinator, session, fallback


class TestSessionSurvivesEscalations:
    def test_checkpoint_resume_after_the_target_region_escalates(self):
        testbed, coordinator, session, fallback = _double_blackout(
            regions=3, load_deadline=600.0)
        page = session.page

        assert session.completed and not session.lost
        assert coordinator.migrations_of("edge-1") == 2
        migrations = [event for event in coordinator.events
                      if event.kind == "migrate"]
        assert [event.detail[:2] for event in migrations] == [
            ("beijing", fallback),
            (fallback, session.region)]
        resumes = [event for event in coordinator.events
                   if event.kind == "resume"]
        offsets = [event.detail[0] for event in resumes]
        # Both resumes continued from a real mid-file checkpoint.
        assert len(offsets) == 2
        assert 0 < offsets[0] < offsets[1] < page.total_bytes()
        report = SurvivalVerifier(
            migration_budget=coordinator.migration_budget).verify(
            coordinator.events, [r.name for r in testbed.regions],
            horizon=testbed.sim.now)
        assert report.passed, report.render()

    def test_a_lost_session_is_charged_to_the_region_it_died_in(self):
        # Two regions: after the fallback goes dark too, no healthy
        # region is left and the session runs out its deadline there.
        _, coordinator, session, fallback = _double_blackout(
            regions=2, load_deadline=300.0)
        assert session.lost and session.region == fallback
        mine = [event for event in coordinator.events
                if event.session == "edge-1"]
        moved = next(index for index, event in enumerate(mine)
                     if event.kind == "resume")
        assert {event.region for event in mine[moved:]
                if event.kind in ("chunk", "fetch-error")} == {fallback}
        assert [event.region for event in mine
                if event.kind == "session-lost"] == [fallback]


# -- the longitudinal escalation-to-blackout campaign ------------------------------


def _small_campaign(seed=0):
    return run_survival_campaign(
        regions=("beijing", "shanghai"), pops=2, clients_per_region=2,
        cycles=2, seed=seed)


@pytest.fixture(scope="module")
def small_campaign():
    return _small_campaign()


class TestSurvivalCampaign:
    def test_every_session_survives_the_blackout(self, small_campaign):
        result = small_campaign
        assert result.lost == 0
        assert result.completed == 2 * 2 * 2  # regions x clients x cycles
        assert result.migrations > 0

    def test_sessions_resume_from_mid_file_checkpoints(self, small_campaign):
        resumes = [event for event in small_campaign.events
                   if event.kind == "resume"]
        assert resumes
        assert all(event.detail[0] > 0 for event in resumes)

    def test_victim_degrades_and_recovers(self, small_campaign):
        kinds = [(event.kind, event.region)
                 for event in small_campaign.events]
        degraded = kinds.index(("region-degraded", "beijing"))
        recovered = kinds.index(("region-recovered", "beijing"))
        assert degraded < recovered

    def test_verifier_certifies_the_campaign(self, small_campaign):
        report = SurvivalVerifier().verify_campaign(small_campaign)
        assert report.passed, report.render()
        assert report.sessions == 8
        assert report.dip <= 0.15

    def test_campaign_is_byte_identical_per_seed(self, small_campaign):
        again = _small_campaign()
        assert again.event_digest == small_campaign.event_digest
        assert again.events == small_campaign.events
        assert again.health_log == small_campaign.health_log
        assert again.entry_events == small_campaign.entry_events

    def test_victim_must_be_a_campaign_region(self):
        with pytest.raises(MeasurementError):
            run_survival_campaign(regions=("beijing",), victim="shanghai")
