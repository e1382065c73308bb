"""Session survivability: resumable downloads that migrate regions.

The fleet's chaos campaigns showed *what* a regional escalation does to
availability; this module is the machinery that lets sessions live
through one.  Two pieces:

* :class:`SurvivalCoordinator` — scores every region each sampling
  interval via :func:`~repro.measure.metrics.region_health` (firewall
  interference rate + transpacific breaker state) and, when a whole
  region degrades, moves its sessions to healthy regions by rendezvous
  re-assignment over an entry :class:`~repro.fleet.router.SessionRouter`
  — bounded by a per-session migration budget so routing can never
  thrash a session across the country indefinitely.
* :class:`SurvivalSession` — one client's resumable chunked download:
  dials its placed region's front door once per attempt, keeps the
  byte offset of every chunk delivered, and on failure asks the
  coordinator where to go next; a migrated session resumes at that
  offset instead of re-downloading from byte zero.

Every decision draws from registered rng streams (``survival.retry``,
``survival.offsets``) and simulated time only, so a campaign's full
event log is a pure function of the seed — which is what lets
:class:`~repro.fleet.verifier.SurvivalVerifier` machine-check
invariants over it.
"""

from __future__ import annotations

import hashlib
import typing as t
from dataclasses import dataclass

from ..errors import (
    HttpError,
    MeasurementError,
    MiddlewareError,
    OverloadError,
    TransportError,
)
from ..faults import CircuitBreaker, Endpoint, RetryPolicy
from ..http import HttpRequest, Page, PageObject
from ..http.client import fetch
from ..measure.metrics import RegionHealth, region_health
from ..net import IPv4Address
from ..overload import Deadline
from ..sim import Simulator
from .router import ACTIVE, SessionRouter
from .testbed import SCHOLAR_HOST, FleetTestbed, Region

if t.TYPE_CHECKING:  # pragma: no cover
    from .proxy import ProxyFleet

#: Default chunk size of the resumable survival document.
CHUNK_SIZE = 24576
#: Default path the chunked corpus document is served under.
SURVIVAL_DOC_PATH = "/survival/corpus.pdf"
#: Seconds between coordinator health samples of every region.
HEALTH_INTERVAL = 10.0
#: Consecutive healthy samples before a degraded region is reinstated
#: (the coordinator-level mirror of the failure detector's hysteresis).
RECOVER_AFTER = 2
#: Cross-region migrations one session may spend before it must ride
#: out the outage where it is.
MIGRATION_BUDGET = 3
#: Per-chunk read timeout: a transfer stalled longer than this aborts
#: the connection and re-plans from the last delivered chunk.
CHUNK_READ_TIMEOUT = 15.0
#: Default per-load deadline budget.
LOAD_DEADLINE = 240.0

#: The escalation-to-blackout campaign's timeline: the victim region
#: escalates at ``ESCALATE_AT`` and its border goes down at
#: ``BLACKOUT_AT`` for ``BLACKOUT_DOWNTIME`` seconds.
ESCALATE_AT = 40.0
BLACKOUT_AT = 70.0
BLACKOUT_DOWNTIME = 150.0
#: Seconds between one campaign client's downloads; also the spread of
#: the clients' start offsets.
CYCLE_INTERVAL = 45.0
#: Size of the campaign's corpus document.
CAMPAIGN_BYTES = 32 * CHUNK_SIZE
#: Seconds between a campaign download's chunk fetches.
CAMPAIGN_CHUNK_INTERVAL = 2.0


@dataclass(frozen=True)
class SurvivalEvent:
    """One entry of a survival campaign's machine-checkable event log.

    ``kind`` is one of: ``session-start`` ``chunk`` ``fetch-error``
    ``resume`` ``migrate`` ``migrate-denied`` ``session-complete``
    ``session-lost`` ``region-degraded`` ``region-recovered``.
    """

    time: float
    kind: str
    session: str
    region: str
    detail: t.Tuple[t.Any, ...] = ()


def survival_document(total_bytes: int = 8 * CHUNK_SIZE,
                      chunk_size: int = CHUNK_SIZE,
                      path: str = SURVIVAL_DOC_PATH,
                      host: str = SCHOLAR_HOST) -> Page:
    """A chunked corpus document: one PageObject per resumable chunk.

    Chunk ``k`` is served at ``{path}?chunk={k}``; all chunks are
    ``chunk_size`` bytes except a possibly-shorter last one.  The
    message-level transport delivers a chunk atomically or not at all,
    which makes the chunk the checkpoint quantum: resumption restarts
    at a chunk boundary, never mid-chunk.
    """
    if total_bytes <= 0 or chunk_size <= 0:
        raise MeasurementError("survival document needs positive sizes")
    objects: t.List[PageObject] = []
    offset = 0
    index = 0
    while offset < total_bytes:
        size = min(chunk_size, total_bytes - offset)
        objects.append(PageObject(f"{path}?chunk={index}", size,
                                  cacheable=False))
        offset += size
        index += 1
    return Page(host=host, path=path, document_size=0, objects=objects,
                document_cacheable=False, records_account=False,
                parse_time=0.0)


# -- the coordinator -------------------------------------------------------------


class SurvivalCoordinator:
    """Region-health scoring, migration to healthy regions, budgets.

    Holds an *entry* :class:`SessionRouter` whose endpoints are the
    regions' domestic front doors (not the PoPs — the fleet router
    already covers those).  A degraded region is evicted from the entry
    membership: its sessions are displaced and re-land, sticky, on
    whichever healthy region rendezvous hashing assigns them.  Recovery
    needs ``RECOVER_AFTER`` consecutive healthy samples — the same
    hysteresis argument as the failure detector's reinstatement
    threshold.
    """

    def __init__(self, fleet: "ProxyFleet",
                 migration_budget: int = MIGRATION_BUDGET) -> None:
        if not fleet.launched:
            raise MeasurementError(
                "SurvivalCoordinator needs a launched ProxyFleet")
        if migration_budget < 0:
            raise MeasurementError(
                f"migration budget must be >= 0, got {migration_budget}")
        self.fleet = fleet
        self.testbed: FleetTestbed = fleet.testbed
        self.sim = self.testbed.sim
        self.migration_budget = migration_budget
        from .proxy import DOMESTIC_PROXY_PORT  # local: avoid core import dance
        self.entries: t.Dict[str, Endpoint] = {
            region.name: Endpoint(IPv4Address(str(region.domestic_vm.address)),
                                  DOMESTIC_PROXY_PORT, name=region.name)
            for region in self.testbed.regions}
        self.entry_router = SessionRouter(
            self.sim, list(self.entries.values()),
            name="survival-entry")
        self.retry_rng = self.sim.rng.stream("survival.retry")
        #: The machine-checkable campaign log (SurvivalVerifier input).
        self.events: t.List[SurvivalEvent] = []
        #: (time, region, score) — every health sample, in order.
        self.health_log: t.List[t.Tuple[float, str, float]] = []
        self.migrations = 0
        # Per-session migration record: queried post-campaign via
        # migrations_of(), so it survives session end by contract —
        # one int per session, durable output like the event log.
        self._migrations_by_session: t.Dict[str, int] = {}  # reprolint: disable=unbounded-cache-field
        self._degraded: t.Dict[str, bool] = {
            name: False for name in self.entries}
        # Health trackers: key space = the fleet's region set, fixed
        # at construction — one entry per region, updated in place.
        self._healthy_streak: t.Dict[str, int] = {}  # reprolint: disable=unbounded-cache-field
        self._last_gfw: t.Dict[str, t.Tuple[int, int]] = {}  # reprolint: disable=unbounded-cache-field
        self._monitor: t.Optional[t.Any] = None

    # -- event log ---------------------------------------------------------------

    def record(self, kind: str, session: str = "", region: str = "",
               detail: t.Sequence[t.Any] = ()) -> None:
        self.events.append(SurvivalEvent(round(self.sim.now, 9), kind,
                                         session, region, tuple(detail)))

    # -- health monitoring -------------------------------------------------------

    def start(self):
        """Start the per-interval health monitor (idempotent)."""
        if self._monitor is None:
            self._monitor = self.sim.process(self._monitor_loop(),
                                             name="survival-health")
        return self._monitor

    def _sample(self, region: Region) -> RegionHealth:
        """One interval-delta health sample of ``region``."""
        drops_total = region.gfw.stats.interference_drops
        seen_total = region.gfw.stats.packets_seen
        prev_drops, prev_seen = self._last_gfw.get(region.name, (0, 0))
        self._last_gfw[region.name] = (drops_total, seen_total)
        breakers = self.fleet.domestics[region.name].pool.breakers
        open_count = sum(1 for breaker in breakers.values()
                         if breaker.state != CircuitBreaker.CLOSED)
        return region_health(
            region.name, interference_drops=drops_total - prev_drops,
            packets_seen=seen_total - prev_seen,
            breakers_open=open_count, breakers_total=len(breakers))

    def _monitor_loop(self):
        while True:
            yield self.sim.timeout(HEALTH_INTERVAL)
            for region in self.testbed.regions:
                health = self._sample(region)
                score = round(health.score, 6)
                self.health_log.append(
                    (round(self.sim.now, 9), region.name, score))
                entry = self.entries[region.name]
                if health.degraded():
                    self._healthy_streak[region.name] = 0
                    if not self._degraded[region.name]:
                        self._degraded[region.name] = True
                        self.record("region-degraded", region=region.name,
                                    detail=(score,))
                        # Displace the region's entry bindings; each
                        # session re-lands on a healthy region by
                        # rendezvous.
                        self.entry_router.evict(entry)
                else:
                    streak = self._healthy_streak.get(region.name, 0) + 1
                    self._healthy_streak[region.name] = streak
                    if (self._degraded[region.name]
                            and streak >= RECOVER_AFTER):
                        self._degraded[region.name] = False
                        self.record("region-recovered", region=region.name,
                                    detail=(score,))
                        self.entry_router.reinstate(entry)

    # -- placement ---------------------------------------------------------------

    def migrations_of(self, session: str) -> int:
        return self._migrations_by_session.get(session, 0)

    def place(self, key: str, home: str, current: t.Optional[str],
              offset: int) -> t.Optional[str]:
        """Which region's front door the session should dial now.

        Sticky-binding-first via the entry router; an unbound session
        enters at its home region while that is healthy.  A proposed
        move away from ``current`` is a *migration* and spends budget;
        past the budget the session is pinned where it is (recorded as
        ``migrate-denied``) rather than allowed to thrash.  Returns
        None when no healthy region exists at all.
        """
        if home not in self.entries:
            raise MeasurementError(f"unknown home region {home!r}")
        proposed: t.Optional[str] = None
        home_entry = self.entries[home]
        if (self.entry_router.binding(key) is None
                and self.entry_router.status.get(home_entry) == ACTIVE):
            proposed = home
        else:
            entry = self.entry_router.route(key)
            proposed = None if entry is None else entry.name
        if proposed is None:
            return None
        if current is not None and proposed != current:
            if self.migrations_of(key) >= self.migration_budget:
                self.record("migrate-denied", session=key, region=current,
                            detail=(proposed, self.migration_budget))
                return current
            self._migrations_by_session[key] = self.migrations_of(key) + 1
            self.migrations += 1
            self.record("migrate", session=key, region=proposed,
                        detail=(current, proposed, offset))
        return proposed

    def bind(self, key: str, region: str) -> None:
        self.entry_router.bind(key, self.entries[region])


# -- the session -----------------------------------------------------------------


class SurvivalSession:
    """One resumable chunked download that survives regional failure."""

    def __init__(self, coordinator: SurvivalCoordinator, host, home: str,
                 key: str, page: Page,
                 chunk_size: int = CHUNK_SIZE,
                 load_deadline: float = LOAD_DEADLINE,
                 chunk_interval: float = 0.0) -> None:
        """``chunk_interval`` paces the download (seconds between chunk
        fetches), modelling a long-lived streaming read rather than a
        bulk pull — the session shape a mid-campaign blackout actually
        catches in flight."""
        self.coordinator = coordinator
        self.sim = coordinator.sim
        self.host = host
        self.home = home
        self.key = key
        self.page = page
        self.chunks: t.List[PageObject] = list(page.objects)
        self.total_bytes = sum(chunk.size for chunk in self.chunks)
        self.chunk_size = chunk_size
        self.load_deadline = load_deadline
        self.chunk_interval = chunk_interval
        #: Each reconnect round runs this policy once.
        self.retry = RetryPolicy(
            attempts=4, base=1.0, cap=8.0, jitter=0.1,
            rng=coordinator.retry_rng, budget=load_deadline)
        #: Bytes delivered so far, always a chunk boundary: a resumed
        #: transfer continues here, so no byte is delivered twice.
        self.offset = 0
        self.completed = False
        self.lost = False
        #: Region the last successful stream ran through.
        self.region: t.Optional[str] = None
        # Key space = the fleet's region set; the session itself is
        # short-lived (one download), so this never outlives a load.
        self._connectors: t.Dict[str, t.Any] = {}  # reprolint: disable=unbounded-cache-field

    # -- plumbing ----------------------------------------------------------------

    def _connector(self, region: str):
        connector = self._connectors.get(region)
        if connector is None:
            # attempts=1: the *session* owns retry; the stock
            # connector-level retry loop would nest storms under ours.
            connector = self.coordinator.fleet.connector(
                region, host=self.host, retry=RetryPolicy(attempts=1))
            self._connectors[region] = connector
        return connector

    def _pull_chunks(self, stream, region: str, deadline: Deadline):
        """Generator: fetch chunks until done, error, or stall.

        Advances :attr:`offset` past every chunk delivered and returns
        whether this connection delivered at least one.
        """
        sim = self.sim
        coordinator = self.coordinator
        progressed = False
        while self.offset < self.total_bytes:
            if progressed and self.chunk_interval > 0.0:
                yield sim.timeout(
                    deadline.clamp(self.chunk_interval, sim.now))
                if deadline.expired(sim.now):
                    return progressed
            chunk = self.chunks[self.offset // self.chunk_size]
            request = HttpRequest(self.page.host, chunk.path)
            task = sim.process(fetch(stream, request),
                               name=f"survival-fetch:{self.key}")
            timer = sim.timeout(deadline.clamp(CHUNK_READ_TIMEOUT, sim.now))
            try:
                yield sim.any_of([task, timer])
            except (TransportError, HttpError, MiddlewareError) as exc:
                coordinator.record("fetch-error", session=self.key,
                                   region=region,
                                   detail=(exc.__class__.__name__,))
                return progressed
            if not task.triggered:
                # Stalled mid-chunk: abort the read, keep the offset.
                task.interrupt("chunk-read-timeout")
                coordinator.record("fetch-error", session=self.key,
                                   region=region, detail=("chunk-timeout",))
                return progressed
            response = task.value
            if response.status != 200:
                coordinator.record("fetch-error", session=self.key,
                                   region=region,
                                   detail=(f"http-{response.status}",))
                return progressed
            size = response.body_size
            coordinator.record("chunk", session=self.key, region=region,
                               detail=(self.offset, size))
            self.offset += size
            progressed = True
        return progressed

    # -- the lifecycle -----------------------------------------------------------

    def run(self):
        """Generator: download to completion, migrating as needed."""
        sim = self.sim
        coordinator = self.coordinator
        deadline = Deadline(sim.now + self.load_deadline)
        coordinator.record("session-start", session=self.key,
                           region=self.home,
                           detail=(self.home, self.total_bytes))
        while self.offset < self.total_bytes:
            if deadline.expired(sim.now):
                return self._lose("deadline")
            progressed = False
            for delay in self.retry.delays(clock=lambda: sim.now,
                                           deadline=deadline.at):
                if delay > 0.0:
                    yield sim.timeout(delay)
                target = coordinator.place(self.key, self.home, self.region,
                                           self.offset)
                if target is None:
                    continue  # no healthy region this instant; back off
                migrating = self.region is not None and target != self.region
                try:
                    # One TLS open through the target's front door.
                    stream = yield from self._connector(target).open_once(
                        self.page.host, 443, True, deadline)
                except (TransportError, MiddlewareError,
                        OverloadError) as exc:
                    coordinator.record("fetch-error", session=self.key,
                                       region=target,
                                       detail=(exc.__class__.__name__,))
                    continue
                if migrating:
                    coordinator.record("resume", session=self.key,
                                       region=target,
                                       detail=(self.offset, self.region))
                self.region = target
                coordinator.bind(self.key, target)
                try:
                    progressed = yield from self._pull_chunks(
                        stream, target, deadline)
                except GeneratorExit:
                    return False  # finalized, not failed: send nothing
                except BaseException:
                    stream.close()
                    raise
                stream.close()
                if progressed or self.offset >= self.total_bytes:
                    break
            if self.offset >= self.total_bytes:
                break
            if deadline.expired(sim.now):
                return self._lose("deadline")
            if not progressed:
                # This round's budget is spent without a byte moved.
                # Pause before the next round: a region mid-outage gets
                # a quiet period, not a hot retry loop.
                yield sim.timeout(deadline.clamp(self.retry.cap, sim.now))
        coordinator.record("session-complete", session=self.key,
                           region=(self.region if self.region is not None
                                   else self.home),
                           detail=(self.offset,))
        self.completed = True
        return True

    def _lose(self, reason: str) -> bool:
        # Charged where the session died: the last region that served
        # it, or its home if it never connected.
        self.coordinator.record("session-lost", session=self.key,
                                region=(self.region if self.region is not None
                                        else self.home),
                                detail=(reason, self.offset))
        self.lost = True
        return False


# -- the longitudinal campaign ---------------------------------------------------


@dataclass(frozen=True)
class SurvivalCampaignResult:
    """Everything one escalation-to-blackout campaign run produced."""

    regions: t.Tuple[str, ...]
    victim: str
    pops: int
    clients_per_region: int
    cycles: int
    seed: int
    total_bytes: int
    chunk_size: int
    migration_budget: int
    duration: float
    events: t.Tuple[SurvivalEvent, ...]
    health_log: t.Tuple[t.Tuple[float, str, float], ...]
    entry_events: t.Tuple[t.Tuple[float, str, str], ...]
    migrations: int
    completed: int
    lost: int
    event_digest: str

    def samples(self) -> t.List[t.Tuple[float, bool]]:
        """(time, ok) per finished load — availability-series input."""
        return [(event.time, event.kind == "session-complete")
                for event in self.events
                if event.kind in ("session-complete", "session-lost")]


def _digest_events(events: t.Sequence[SurvivalEvent]) -> str:
    hasher = hashlib.blake2b(digest_size=16)
    for event in events:
        hasher.update(repr((event.time, event.kind, event.session,
                            event.region, event.detail)).encode())
    return hasher.hexdigest()


def run_survival_campaign(
    regions: t.Sequence[str] = ("beijing", "shanghai", "guangzhou"),
    pops: int = 3,
    clients_per_region: int = 4,
    cycles: int = 3,
    seed: int = 0,
    victim: str = "beijing",
) -> SurvivalCampaignResult:
    """The longitudinal escalation-to-blackout survival campaign.

    One region (the ``victim``) escalates at ``ESCALATE_AT`` and goes
    fully dark — border link down — at ``BLACKOUT_AT`` for
    ``BLACKOUT_DOWNTIME`` seconds.  The timeline drops the border while
    nearly every client's first paced download is still in flight,
    which is the hard case: delivered bytes exist and must survive the
    move.  Every client runs ``cycles`` downloads; sessions caught by
    the blackout must migrate over the domestic backbone to a healthy
    region, resume at their offset, and finish there.  The returned
    event log is the :class:`~repro.fleet.verifier.SurvivalVerifier`'s
    input; per seed it is byte-identical across runs (``event_digest``).
    """
    from .chaos import FleetSchedule
    from .proxy import ProxyFleet
    from .regions import region_by_name
    if victim not in regions:
        raise MeasurementError(
            f"victim {victim!r} not among regions {tuple(regions)}")
    testbed = FleetTestbed(
        seed=seed,
        regions=tuple(region_by_name(name) for name in regions), pops=pops,
        clients_per_region=clients_per_region, domestic_backbone=True)
    sim = testbed.sim
    fleet = ProxyFleet(testbed)
    testbed.run_process(fleet.launch(), name="survival-launch")
    page = survival_document(total_bytes=CAMPAIGN_BYTES)
    testbed.scholar_server.add_page(page)
    coordinator = SurvivalCoordinator(fleet)
    coordinator.start()

    schedule = FleetSchedule()
    schedule.regional_escalation(
        victim, at=ESCALATE_AT,
        duration=BLACKOUT_AT + BLACKOUT_DOWNTIME - ESCALATE_AT,
        keywords=("survival-escalation",), interference_scale=4.0)
    schedule.region_blackout(victim, at=BLACKOUT_AT,
                             downtime=BLACKOUT_DOWNTIME)
    schedule.install(testbed)

    sessions: t.List[SurvivalSession] = []

    def client_loop(host, home: str, offset: float):
        yield sim.timeout(offset)
        for cycle in range(cycles):
            if cycle:
                yield sim.timeout(CYCLE_INTERVAL)
            session = SurvivalSession(
                coordinator, host=host, home=home,
                key=f"{host.address}#c{cycle}", page=page,
                chunk_interval=CAMPAIGN_CHUNK_INTERVAL)
            sessions.append(session)
            yield sim.process(session.run(),
                              name=f"survival-session:{session.key}")

    offsets = testbed.rng.stream("survival.offsets")
    processes = []
    for region in testbed.regions:
        for index, host in enumerate(region.extra_clients):
            offset = offsets.uniform(0.0, CYCLE_INTERVAL)
            processes.append(sim.process(
                client_loop(host, region.name, offset),
                name=f"survival-client:{region.name}:{index}"))
    sim.run(until=sim.all_of(processes))
    # Run past the blackout's end so the victim's recovery lands in the
    # log (region-recovered needs RECOVER_AFTER consecutive healthy
    # samples after the border link returns).
    horizon = max(sim.now, BLACKOUT_AT + BLACKOUT_DOWNTIME
                  + HEALTH_INTERVAL * (RECOVER_AFTER + 2))
    sim.run(until=horizon)

    events = tuple(coordinator.events)
    return SurvivalCampaignResult(
        regions=tuple(regions), victim=victim, pops=pops,
        clients_per_region=clients_per_region, cycles=cycles, seed=seed,
        total_bytes=CAMPAIGN_BYTES, chunk_size=CHUNK_SIZE,
        migration_budget=coordinator.migration_budget,
        duration=round(sim.now, 9),
        events=events,
        health_log=tuple(coordinator.health_log),
        entry_events=tuple(coordinator.entry_router.events),
        migrations=coordinator.migrations,
        completed=sum(1 for session in sessions if session.completed),
        lost=sum(1 for session in sessions if session.lost),
        event_digest=_digest_events(events))
