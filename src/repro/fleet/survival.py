"""Session survivability: checkpoints, migration, health-scaled retry.

The fleet's chaos campaigns showed *what* a regional escalation does to
availability; this module is the machinery that lets sessions live
through one.  Three pieces, layered bottom-up:

* :class:`ResumeToken` — a compact, deterministic checkpoint of an
  in-flight chunked fetch (method, blinding epoch, byte offset,
  remaining deadline budget).  A migrated session *resumes* from its
  token instead of re-downloading from byte zero.
* :class:`SurvivalCoordinator` — scores every region each sampling
  interval via :func:`~repro.measure.metrics.region_health` (admission
  shed rate + firewall interference rate + transpacific breaker state)
  and, when a whole region degrades, drains its sessions to healthy
  regions by rendezvous re-assignment over an entry
  :class:`~repro.fleet.router.SessionRouter` — bounded by a per-session
  migration budget so routing can never thrash a session across the
  country indefinitely.
* :class:`SurvivalSession` — one client's resumable chunked download:
  dials its home region's front door once per attempt, checkpoints
  after every chunk, and on failure asks the coordinator where to go
  next, scaling its retry budget by the observed health of its home
  region (a degraded region gets *fewer* retries, never a storm).

Every decision draws from registered rng streams (``survival.retry``,
``survival.offsets``) and simulated time only, so a campaign's full
event log is a pure function of the seed — which is what lets
:class:`~repro.fleet.verifier.SurvivalVerifier` machine-check
invariants over it.
"""

from __future__ import annotations

import hashlib
import typing as t
from dataclasses import dataclass, replace

from ..errors import (
    HttpError,
    MeasurementError,
    MiddlewareError,
    OverloadError,
    TransportError,
)
from ..faults import CircuitBreaker, Endpoint, FailoverPool, RetryPolicy
from ..http import HttpRequest, Page, PageObject
from ..http.client import fetch
from ..measure.metrics import (
    HEALTH_DEGRADED_BELOW,
    RegionHealth,
    region_health,
)
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
#: the connection and re-plans from the checkpoint.
CHUNK_READ_TIMEOUT = 15.0
#: Default per-load deadline budget.
LOAD_DEADLINE = 240.0

#: Wire tag of a serialized resume token.
RESUME_TOKEN_TAG = "survival-resume"


# -- checkpointing ---------------------------------------------------------------


@dataclass(frozen=True)
class ResumeToken:
    """Checkpoint of an in-flight chunked fetch.

    Deliberately compact and value-typed: everything a *different*
    region's front door needs to continue the transfer — no object
    references, so the token survives serialization across the
    migration boundary byte-identically (``to_wire``/``from_wire``
    round-trip exactly).  ``offset`` counts bytes fully delivered;
    resumption continues from the next chunk boundary, so a token can
    never re-deliver bytes (the verifier's no-duplicate invariant).
    """

    session: str
    method: str
    host: str
    path: str
    #: Blinding epoch the session last spoke — the blinded-query state;
    #: a resume under a rotated codec must renegotiate, not replay.
    epoch: int
    total_bytes: int
    offset: int
    #: Deadline budget left at checkpoint time (seconds).
    deadline_remaining: float
    checkpointed_at: float

    def advanced(self, nbytes: int, now: float, deadline: Deadline,
                 epoch: t.Optional[int] = None) -> "ResumeToken":
        """The successor token after ``nbytes`` more bytes delivered."""
        if nbytes <= 0:
            raise MeasurementError(
                f"checkpoint must advance, got {nbytes} bytes")
        return replace(
            self,
            epoch=self.epoch if epoch is None else epoch,
            offset=self.offset + nbytes,
            deadline_remaining=round(deadline.remaining(now), 9),
            checkpointed_at=round(now, 9))

    @property
    def complete(self) -> bool:
        return self.offset >= self.total_bytes

    def to_wire(self) -> t.Tuple:
        return (RESUME_TOKEN_TAG, self.session, self.method, self.host,
                self.path, self.epoch, self.total_bytes, self.offset,
                self.deadline_remaining, self.checkpointed_at)

    @classmethod
    def from_wire(cls, wire: t.Sequence) -> "ResumeToken":
        if (not isinstance(wire, tuple) or len(wire) != 10
                or wire[0] != RESUME_TOKEN_TAG):
            raise MeasurementError(f"not a resume token: {wire!r}")
        return cls(session=wire[1], method=wire[2], host=wire[3],
                   path=wire[4], epoch=wire[5], total_bytes=wire[6],
                   offset=wire[7], deadline_remaining=wire[8],
                   checkpointed_at=wire[9])


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
    """Region-health scoring, drain-to-healthy migration, budgets.

    Holds an *entry* :class:`SessionRouter` whose endpoints are the
    regions' domestic front doors (not the PoPs — the fleet router
    already covers those).  A region scoring below ``degraded_below``
    is evicted from the entry membership: its sessions are displaced
    and re-land, sticky, on whichever healthy region rendezvous hashing
    assigns them.  Recovery needs ``recover_after``
    consecutive healthy samples — the same hysteresis argument as the
    failure detector's reinstatement threshold.
    """

    def __init__(self, fleet: "ProxyFleet",
                 interval: float = HEALTH_INTERVAL,
                 degraded_below: float = HEALTH_DEGRADED_BELOW,
                 recover_after: int = RECOVER_AFTER,
                 migration_budget: int = MIGRATION_BUDGET) -> None:
        if not fleet.launched:
            raise MeasurementError(
                "SurvivalCoordinator needs a launched ProxyFleet")
        if recover_after < 1:
            raise MeasurementError(
                f"recover_after must be >= 1, got {recover_after}")
        if migration_budget < 0:
            raise MeasurementError(
                f"migration budget must be >= 0, got {migration_budget}")
        self.fleet = fleet
        self.testbed: FleetTestbed = fleet.testbed
        self.sim = self.testbed.sim
        self.interval = interval
        self.degraded_below = degraded_below
        self.recover_after = recover_after
        self.migration_budget = migration_budget
        from .proxy import DOMESTIC_PROXY_PORT  # local: avoid core import dance
        self.entries: t.Dict[str, Endpoint] = {
            region.name: Endpoint(IPv4Address(str(region.domestic_vm.address)),
                                  DOMESTIC_PROXY_PORT, name=region.name)
            for region in self.testbed.regions}
        self.entry_router = SessionRouter(
            self.sim, list(self.entries.values()),
            name="survival-entry")
        #: Breaker-guarded probes of the regional front doors (used to
        #: pre-flight a migration target before committing a session).
        self.entry_pool = FailoverPool(self.sim, list(self.entries.values()))
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
        self._last_score: t.Dict[str, float] = {}  # reprolint: disable=unbounded-cache-field
        self._last_gfw: t.Dict[str, t.Tuple[int, int]] = {}  # reprolint: disable=unbounded-cache-field
        self._last_admission: t.Dict[str, t.Tuple[int, int]] = {}  # reprolint: disable=unbounded-cache-field
        self._checkpoints: t.Dict[str, ResumeToken] = {}
        self._monitor: t.Optional[t.Any] = None

    # -- event log ---------------------------------------------------------------

    def record(self, kind: str, session: str = "", region: str = "",
               detail: t.Sequence[t.Any] = ()) -> None:
        self.events.append(SurvivalEvent(round(self.sim.now, 9), kind,
                                         session, region, tuple(detail)))

    # -- checkpoints -------------------------------------------------------------

    def checkpoint(self, token: ResumeToken) -> None:
        """Durably record a session's latest resume token."""
        self._checkpoints[token.session] = token

    def resume_token(self, session: str) -> t.Optional[ResumeToken]:
        return self._checkpoints.get(session)

    def forget(self, key: str) -> None:
        """A session ended: drop its resume checkpoint.

        Session keys are unique per (client, cycle) and never reused,
        so the checkpoint table would otherwise hold a dead
        :class:`ResumeToken` per session for the whole campaign.  The
        migration record (:meth:`migrations_of`) deliberately survives
        — it is part of the campaign's queryable output, like the
        event log.
        """
        self._checkpoints.pop(key, None)

    # -- health monitoring -------------------------------------------------------

    def start(self):
        """Start the per-interval health monitor (idempotent)."""
        if self._monitor is None:
            self._monitor = self.sim.process(self._monitor_loop(),
                                             name="survival-health")
        return self._monitor

    def _sample(self, region: Region) -> RegionHealth:
        """One interval-delta health sample of ``region``."""
        domestic = self.fleet.domestics[region.name]
        shed = offered = 0
        if domestic.admission is not None:
            shed_total = domestic.admission.shed
            offered_total = domestic.admission.offered
            prev_shed, prev_offered = self._last_admission.get(
                region.name, (0, 0))
            shed, offered = shed_total - prev_shed, offered_total - prev_offered
            self._last_admission[region.name] = (shed_total, offered_total)
        drops = seen = 0
        if region.gfw is not None:
            drops_total = region.gfw.stats.interference_drops
            seen_total = region.gfw.stats.packets_seen
            prev_drops, prev_seen = self._last_gfw.get(region.name, (0, 0))
            drops, seen = drops_total - prev_drops, seen_total - prev_seen
            self._last_gfw[region.name] = (drops_total, seen_total)
        breakers = domestic.pool.breakers
        open_count = sum(1 for breaker in breakers.values()
                         if breaker.state != CircuitBreaker.CLOSED)
        return region_health(
            region.name, shed=shed, offered=offered,
            interference_drops=drops, packets_seen=seen,
            breakers_open=open_count, breakers_total=len(breakers))

    def _monitor_loop(self):
        while True:
            yield self.sim.timeout(self.interval)
            for region in self.testbed.regions:
                health = self._sample(region)
                score = round(health.score, 6)
                self._last_score[region.name] = score
                self.health_log.append(
                    (round(self.sim.now, 9), region.name, score))
                entry = self.entries[region.name]
                if health.degraded(self.degraded_below):
                    self._healthy_streak[region.name] = 0
                    if not self._degraded[region.name]:
                        self._degraded[region.name] = True
                        self.record("region-degraded", region=region.name,
                                    detail=(score,))
                        # Drain-to-healthy: displace the region's entry
                        # bindings; each session re-lands by rendezvous.
                        self.entry_router.evict(entry)
                else:
                    streak = self._healthy_streak.get(region.name, 0) + 1
                    self._healthy_streak[region.name] = streak
                    if (self._degraded[region.name]
                            and streak >= self.recover_after):
                        self._degraded[region.name] = False
                        self.record("region-recovered", region=region.name,
                                    detail=(score,))
                        self.entry_router.reinstate(entry)

    def latest_score(self, region: str) -> float:
        """Most recent health score of ``region`` (1.0 before any sample)."""
        return self._last_score.get(region, 1.0)

    def degraded(self, region: str) -> bool:
        return self._degraded.get(region, False)

    def healthy_regions(self) -> t.List[str]:
        return [name for name in self.entries if not self._degraded[name]]

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

    def release(self, key: str) -> None:
        self.entry_router.release(key)


# -- the session -----------------------------------------------------------------


class SurvivalSession:
    """One resumable chunked download that survives regional failure."""

    def __init__(self, coordinator: SurvivalCoordinator, host, home: str,
                 key: str, page: Page,
                 chunk_size: int = CHUNK_SIZE,
                 load_deadline: float = LOAD_DEADLINE,
                 read_timeout: float = CHUNK_READ_TIMEOUT,
                 chunk_interval: float = 0.0,
                 retry: t.Optional[RetryPolicy] = None) -> None:
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
        self.read_timeout = read_timeout
        self.chunk_interval = chunk_interval
        #: Base retry policy; each reconnect round runs it scaled by
        #: the home region's observed health score.
        self.retry = retry if retry is not None else RetryPolicy(
            attempts=4, base=1.0, cap=8.0, jitter=0.1,
            rng=coordinator.retry_rng, budget=load_deadline)
        self.token: t.Optional[ResumeToken] = None
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

    def _retry_scale(self) -> float:
        """Health-scaled retry factor: degraded home, smaller budget."""
        return max(0.25, min(1.0, self.coordinator.latest_score(self.home)))

    def _open_stream(self, target: str, deadline: Deadline, migrating: bool):
        """Generator: one TLS open through ``target``'s front door."""
        coordinator = self.coordinator
        if migrating:
            # Pre-flight the migration target: one breaker-guarded
            # probe, clamped to this session's remaining deadline.
            transport = coordinator.testbed.transport_of(self.host)
            alive = yield from coordinator.entry_pool.probe(
                transport, coordinator.entries[target], deadline=deadline)
            if not alive:
                raise TransportError(
                    f"survival: {target} front door failed pre-flight")
        return (yield from self._connector(target).open_once(
            self.page.host, 443, True, deadline))

    def _pull_chunks(self, stream, token: ResumeToken, region: str,
                     deadline: Deadline):
        """Generator: fetch chunks until done, error, or stall.

        Returns ``(token, progressed)`` — the latest checkpoint and
        whether this connection delivered at least one chunk.
        """
        sim = self.sim
        coordinator = self.coordinator
        progressed = False
        while token.offset < self.total_bytes:
            if progressed and self.chunk_interval > 0.0:
                yield sim.timeout(
                    deadline.clamp(self.chunk_interval, sim.now))
                if deadline.expired(sim.now):
                    return token, progressed
            index = token.offset // self.chunk_size
            chunk = self.chunks[index]
            request = HttpRequest(self.page.host, chunk.path)
            task = sim.process(fetch(stream, request),
                               name=f"survival-fetch:{self.key}")
            timer = sim.timeout(deadline.clamp(self.read_timeout, sim.now))
            try:
                yield sim.any_of([task, timer])
            except (TransportError, HttpError, MiddlewareError) as exc:
                coordinator.record("fetch-error", session=self.key,
                                   region=region,
                                   detail=(exc.__class__.__name__,))
                return token, progressed
            if not task.triggered:
                # Stalled mid-chunk: abort the read, keep the checkpoint.
                task.interrupt("chunk-read-timeout")
                coordinator.record("fetch-error", session=self.key,
                                   region=region, detail=("chunk-timeout",))
                return token, progressed
            response = task.value
            if response.status != 200:
                coordinator.record("fetch-error", session=self.key,
                                   region=region,
                                   detail=(f"http-{response.status}",))
                return token, progressed
            size = response.body_size
            coordinator.record("chunk", session=self.key, region=region,
                               detail=(token.offset, size))
            token = token.advanced(size, now=sim.now, deadline=deadline,
                                   epoch=coordinator.fleet.agility.epoch)
            self.token = token
            coordinator.checkpoint(token)
            progressed = True
        return token, progressed

    # -- the lifecycle -----------------------------------------------------------

    def run(self):
        """Generator: download to completion, migrating as needed."""
        sim = self.sim
        coordinator = self.coordinator
        deadline = Deadline(sim.now + self.load_deadline)
        token = ResumeToken(
            session=self.key, method="scholarcloud", host=self.page.host,
            path=self.page.path, epoch=coordinator.fleet.agility.epoch,
            total_bytes=self.total_bytes, offset=0,
            deadline_remaining=round(self.load_deadline, 9),
            checkpointed_at=round(sim.now, 9))
        self.token = token
        coordinator.checkpoint(token)
        coordinator.record("session-start", session=self.key,
                           region=self.home,
                           detail=(self.home, self.total_bytes))
        current: t.Optional[str] = None
        while token.offset < self.total_bytes:
            if deadline.expired(sim.now):
                return self._lose(token, "deadline")
            scale = self._retry_scale()
            policy = self.retry.scaled(scale)
            progressed = False
            for delay in policy.delays(clock=lambda: sim.now,
                                       deadline=deadline.at):
                if delay > 0.0:
                    yield sim.timeout(delay)
                target = coordinator.place(self.key, self.home, current,
                                           token.offset)
                if target is None:
                    continue  # no healthy region this instant; back off
                migrating = current is not None and target != current
                try:
                    stream = yield from self._open_stream(target, deadline,
                                                          migrating)
                except (TransportError, MiddlewareError,
                        OverloadError) as exc:
                    coordinator.record("fetch-error", session=self.key,
                                       region=target,
                                       detail=(exc.__class__.__name__,))
                    continue
                if migrating:
                    # Resume from the durable checkpoint, not from any
                    # in-memory transfer state of the dead connection.
                    resumed = coordinator.resume_token(self.key)
                    if resumed is not None:
                        token = resumed
                    coordinator.record("resume", session=self.key,
                                       region=target,
                                       detail=(token.offset, current))
                current = target
                self.region = target
                coordinator.bind(self.key, target)
                try:
                    token, progressed = yield from self._pull_chunks(
                        stream, token, target, deadline)
                finally:
                    stream.close()
                    coordinator.release(self.key)
                if progressed or token.offset >= self.total_bytes:
                    break
            if token.offset >= self.total_bytes:
                break
            if deadline.expired(sim.now):
                return self._lose(token, "deadline")
            if not progressed:
                # This round's (health-scaled) budget is spent without a
                # byte moved.  Pause before the next round: a region
                # mid-outage gets a quiet period, not a hot retry loop.
                yield sim.timeout(deadline.clamp(policy.cap, sim.now))
        coordinator.record("session-complete", session=self.key,
                           region=current if current is not None else self.home,
                           detail=(token.offset,))
        coordinator.forget(self.key)
        self.completed = True
        return True

    def _lose(self, token: ResumeToken, reason: str) -> bool:
        self.coordinator.record("session-lost", session=self.key,
                                region=self.home,
                                detail=(reason, token.offset))
        self.coordinator.forget(self.key)
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
    escalate_at: float = 40.0,
    blackout_at: float = 70.0,
    blackout_downtime: float = 150.0,
    interval: float = 45.0,
    total_bytes: int = 32 * CHUNK_SIZE,
    chunk_size: int = CHUNK_SIZE,
    chunk_interval: float = 2.0,
    load_deadline: float = LOAD_DEADLINE,
    migration_budget: int = MIGRATION_BUDGET,
) -> SurvivalCampaignResult:
    """The longitudinal escalation-to-blackout survival campaign.

    One region (the ``victim``) escalates at ``escalate_at`` and goes
    fully dark — border link down — at ``blackout_at`` for
    ``blackout_downtime`` seconds.  The default timeline drops the
    border while nearly every client's first paced download is still
    in flight, which is the hard case: checkpointed state exists and
    must survive the move.  Every client runs ``cycles`` downloads;
    sessions
    caught by the blackout must checkpoint, migrate over the domestic
    backbone to a healthy region, and finish there.  The returned
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
    page = survival_document(total_bytes=total_bytes, chunk_size=chunk_size)
    testbed.scholar_server.add_page(page)
    coordinator = SurvivalCoordinator(
        fleet, migration_budget=migration_budget)
    coordinator.start()

    schedule = FleetSchedule()
    schedule.regional_escalation(
        victim, at=escalate_at,
        duration=blackout_at + blackout_downtime - escalate_at,
        keywords=("survival-escalation",), interference_scale=4.0)
    schedule.region_blackout(victim, at=blackout_at,
                             downtime=blackout_downtime)
    schedule.install(testbed)

    sessions: t.List[SurvivalSession] = []

    def client_loop(host, home: str, offset: float):
        yield sim.timeout(offset)
        for cycle in range(cycles):
            if cycle:
                yield sim.timeout(interval)
            session = SurvivalSession(
                coordinator, host=host, home=home,
                key=f"{host.address}#c{cycle}", page=page,
                chunk_size=chunk_size, load_deadline=load_deadline,
                chunk_interval=chunk_interval)
            sessions.append(session)
            yield sim.process(session.run(),
                              name=f"survival-session:{session.key}")

    offsets = testbed.rng.stream("survival.offsets")
    processes = []
    for region in testbed.regions:
        for index, host in enumerate(region.extra_clients):
            offset = offsets.uniform(0.0, interval)
            processes.append(sim.process(
                client_loop(host, region.name, offset),
                name=f"survival-client:{region.name}:{index}"))
    sim.run(until=sim.all_of(processes))
    # Run past the blackout's end so the victim's recovery lands in the
    # log (region-recovered needs recover_after consecutive healthy
    # samples after the border link returns).
    horizon = max(sim.now, blackout_at + blackout_downtime
                  + coordinator.interval * (coordinator.recover_after + 2))
    sim.run(until=horizon)

    events = tuple(coordinator.events)
    return SurvivalCampaignResult(
        regions=tuple(regions), victim=victim, pops=pops,
        clients_per_region=clients_per_region, cycles=cycles, seed=seed,
        total_bytes=total_bytes, chunk_size=chunk_size,
        migration_budget=migration_budget,
        duration=round(sim.now, 9),
        events=events,
        health_log=tuple(coordinator.health_log),
        entry_events=tuple(coordinator.entry_router.events),
        migrations=coordinator.migrations,
        completed=sum(1 for session in sessions if session.completed),
        lost=sum(1 for session in sessions if session.lost),
        event_digest=_digest_events(events))
