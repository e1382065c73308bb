"""Load plans and the closed-loop clients of the ScholarCloud benchmark.

A *plan* is every input one run feeds the program: client start
offsets, each client's page sequence, the query corpus and the Zipf
draws.  It comes from the benchmark's own ``random.Random`` seeded by
``--seed``; the program only receives the generated pages and the
testbed seed.

An *episode* builds one world from a plan and drives it in two timed
phases:

* set-up: world construction, deployment, and every client's warm-up
  load (the first visit, which fills DNS, TLS-ticket and browser
  caches);
* measured: every client's measured loads, closed loop — a client
  waits for its page to finish, then thinks before the next one.

The program is configured only through public constructors and
deployment limits: ``Testbed(fluid=...)``, ``ScholarCloud(overload=...,
cache=...)``, ``CacheConfig()`` and the ``OverloadConfig`` capacity and
queue limits.
"""

from __future__ import annotations

import bisect
import gc
import hashlib
import random
import time
import typing as t
from dataclasses import dataclass

from repro.cache import CacheConfig
from repro.core import ScholarCloud
from repro.http import Browser, Page, PageObject, google_scholar_home, scholar_pdf
from repro.measure import Testbed
from repro.overload import OverloadConfig

from hostspeed import HostSpeed

#: Client warm-up loads start uniformly over this many simulated
#: seconds (Figure 7's arrival spread).
ARRIVAL_SPREAD = 60.0
#: Client ``i`` starts its measured loads at ``MEASURE_START +
#: offset_i``, after every warm-up has finished.
MEASURE_START = 120.0
#: Think time between result pages inside one scraper burst.
BURST_THINK = 1.0
#: Longest scraper burst, in result pages.
MAX_BURST = 4
#: Zipf exponent of query popularity.
ZIPF_S = 1.1

_WORDS = (
    "censorship", "firewall", "dns", "poisoning", "probing", "traffic",
    "fronting", "tls", "fingerprint", "proxy", "bridge", "decoy",
    "routing", "shadowsocks", "tor", "vpn", "measurement", "middleware",
    "latency", "scholar", "citation", "keyword", "filtering", "blinding",
)


@dataclass(frozen=True)
class Spec:
    """Shape and size of one workload."""

    #: Simulation mode handed to ``Testbed(fluid=...)``.
    mode: str
    clients: int
    #: Measured cycles per client (a cycle is one page, or one burst).
    cycles: int
    #: ``home``, ``pdf`` or ``queries``.
    page: str
    #: Think time before each page (each burst, for queries), in
    #: simulated seconds.
    think: float
    #: Deploy the default edge cache (``CacheConfig()``).
    cache: bool = False
    #: Admission limits ``(max_sessions, max_waiting, queue_delay)``;
    #: None deploys no admission control.
    admission: t.Optional[t.Tuple[int, int, float]] = None
    #: Distinct result pages in the query corpus.
    corpus: int = 0
    #: Typical measured-phase time at the reference host speed; sets
    #: how many episodes fill a run's ``--seconds``.
    measured_s: float = 3.0


# A 20 s think lets a client reuse its pooled connections for some loads
# and not others, so PLTs fall into well-separated clusters with p50
# and p95 each inside one; at 60 s, home-hybrid's p95 sat on a cluster
# edge and jumped between 1.5 s and 2.0 s from seed to seed.  Paper
# downloads keep the paper's 60 s spacing.
SPECS: t.Dict[str, Spec] = {
    "home-hybrid": Spec(mode="hybrid", clients=60, cycles=14, page="home",
                        think=20.0, measured_s=2.6),
    "pdf-hybrid": Spec(mode="hybrid", clients=130, cycles=6, page="pdf",
                       think=60.0, measured_s=3.0),
    "queries-cache": Spec(mode="packet", clients=60, cycles=5,
                          page="queries", think=20.0, cache=True,
                          admission=(54, 8, 1.0), corpus=5000,
                          measured_s=3.2),
}


@dataclass(frozen=True)
class Plan:
    """Every generated input of one run."""

    seed: int
    spec: Spec
    #: Warm-up start offset per client, in simulated seconds.
    offsets: t.Tuple[float, ...]
    #: Per client: ``(think_before, page_index)`` per measured load.
    steps: t.Tuple[t.Tuple[t.Tuple[float, int], ...], ...]
    #: Pages the origin serves; index 0 is the warm-up page.
    pages: t.Tuple[Page, ...]

    @property
    def loads(self) -> int:
        return sum(len(client) for client in self.steps)

    def distinct_pages(self) -> t.List[Page]:
        """The pages the measured loads actually request."""
        used = sorted({index for client in self.steps for _, index in client})
        return [self.pages[index] for index in used]


def _query_corpus(rng: random.Random, size: int) -> t.List[Page]:
    """``size`` distinct result pages with generated queries and sizes."""
    pages = []
    for rank in range(size):
        words = "+".join(rng.sample(_WORDS, 3))
        pages.append(Page(
            host="scholar.google.com",
            path=f"/scholar?q={words}&start={rank}",
            document_size=rng.randint(40_000, 56_000),
            objects=[PageObject("/scholar.css", 3600),
                     PageObject("/scholar.js", 4100)],
            document_cacheable=True,
            records_account=False,
            parse_time=0.05,
        ))
    return pages


def _zipf_cdf(size: int, s: float) -> t.List[float]:
    weights = [1.0 / (rank + 1) ** s for rank in range(size)]
    total = sum(weights)
    cdf, running = [], 0.0
    for weight in weights:
        running += weight / total
        cdf.append(running)
    cdf[-1] = 1.0
    return cdf


def make_plan(workload: str, seed: int) -> Plan:
    """The deterministic plan of ``workload`` under ``seed``."""
    spec = SPECS[workload]
    rng = random.Random(f"perfbench:{workload}:{seed}")
    # Client i starts uniformly inside the i-th equal slot of the
    # arrival spread: offsets are uniform over the spread, but no seed
    # piles clients into one burst.
    offsets = tuple(_stratified(rng, spec.clients, ARRIVAL_SPREAD,
                                shuffle=False))
    home = google_scholar_home()
    if spec.page != "queries":
        pages = [home if spec.page == "home" else scholar_pdf()]
        steps = tuple(((spec.think, 0),) * spec.cycles
                      for _ in range(spec.clients))
        return Plan(seed, spec, offsets, steps, tuple(pages))
    corpus = _query_corpus(rng, spec.corpus)
    # Burst lengths and query ranks are inverse-CDF draws from
    # stratified uniforms (burst lengths per client), so every seed's
    # plan, and every client's share of it, follows the Zipf shape
    # closely; the seed decides which client asks for what, and when.
    burst_cdf = _zipf_cdf(MAX_BURST, 2.0)
    bursts = [bisect.bisect_left(burst_cdf, u) + 1
              for _ in range(spec.clients)
              for u in _stratified(rng, spec.cycles, 1.0, shuffle=True)]
    rank_cdf = _zipf_cdf(len(corpus), ZIPF_S)
    ranks = iter([bisect.bisect_left(rank_cdf, u) for u in _stratified(
        rng, sum(bursts), 1.0, shuffle=True)])
    lengths = iter(bursts)
    steps = []
    for _ in range(spec.clients):
        client = []
        for _ in range(spec.cycles):
            for position in range(next(lengths)):
                think = spec.think if position == 0 else BURST_THINK
                client.append((think, 1 + next(ranks)))
        steps.append(tuple(client))
    return Plan(seed, spec, offsets, tuple(steps), tuple([home] + corpus))


def _stratified(rng: random.Random, count: int, span: float,
                shuffle: bool) -> t.List[float]:
    """``count`` draws, one uniform inside each equal slot of
    ``[0, span)``; shuffled into random order when asked."""
    draws = [(index + rng.random()) * span / count for index in range(count)]
    if shuffle:
        rng.shuffle(draws)
    return draws


def check_plan(plan: Plan) -> t.List[str]:
    """Reasons the plan cannot reach the paths its workload exists for."""
    spec = plan.spec
    problems = []
    if spec.cache:
        capacity = CacheConfig().capacity_bytes
        distinct = sum(page.document_size for page in plan.distinct_pages()
                       if page.document_cacheable)
        if distinct <= capacity:
            problems.append(
                f"distinct result pages total {distinct} B, not above the "
                f"{capacity} B cache capacity: eviction cannot run")
    if spec.admission is not None and spec.clients <= spec.admission[0]:
        problems.append(
            f"{spec.clients} clients do not outnumber the admission limit "
            f"of {spec.admission[0]} sessions: nothing can be shed")
    return problems


#: Public counters of the program, read before and after the measured
#: phase: ``name -> (attribute path from the world, reduction)``.  A
#: component the workload does not deploy (``None`` on the path) reads
#: as 0; a counter that no longer exists reads as None.
COUNTERS: t.Dict[str, t.Tuple[str, t.Optional[t.Callable]]] = {
    "net.drops": ("testbed.net.links", lambda links: sum(
        sum(link.packets_dropped.values()) for link in links)),
    "gfw.packets": ("testbed.gfw.stats.packets_seen", None),
    "gfw.interference_drops": ("testbed.gfw.stats.interference_drops", None),
    "perf.fluid.transfers": ("testbed.fluid.stats.transfers", None),
    "perf.fluid.bytes": ("testbed.fluid.stats.fluid_bytes", None),
    "perf.fluid.fallbacks": ("testbed.fluid.stats.fallbacks",
                             lambda reasons: sum(reasons.values())),
    "perf.fluid.fallback.small-message": (
        "testbed.fluid.stats.fallbacks",
        lambda reasons: reasons.get("small-message", 0)),
    "core.streams": ("system.domestic.streams_served", None),
    "core.dials_failed": ("system.domestic.dials_failed", None),
    "cache.hits": ("system.cache.hits", None),
    "cache.misses": ("system.cache.misses", None),
    "cache.insertions": ("system.cache.insertions", None),
    "cache.evictions": ("system.cache.evictions", None),
    "overload.offered": ("system.domestic.admission.offered", None),
    "overload.shed": ("system.domestic.admission.shed", None),
    "overload.decisions": ("system.domestic.admission.decisions", len),
}


def read_counters(world: "World") -> t.Dict[str, t.Optional[float]]:
    values: t.Dict[str, t.Optional[float]] = {}
    for name, (path, reduce) in COUNTERS.items():
        value: t.Any = world
        try:
            for attribute in path.split("."):
                if value is None:
                    break
                value = getattr(value, attribute)
            values[name] = (0 if value is None
                            else reduce(value) if reduce else value)
        except (AttributeError, KeyError, TypeError):
            values[name] = None
    return values


def _admission(world: "World") -> t.Any:
    """The domestic proxy's admission controller, if any."""
    return getattr(world.system.domestic, "admission", None)


@dataclass
class Outcome:
    """What the simulated system did in one episode's measured phase."""

    attempted: int
    succeeded: int
    failed: int
    shed: int
    #: Objects fetched by the measured loads.
    objects: int
    #: PLT of every successful measured load, sorted.
    plts: t.List[float]
    #: Border-link bytes, both directions, during the measured phase.
    border_bytes: int
    warmups_failed: int
    #: Measured loads recorded per client, in client order.
    per_client: t.List[int]

    @property
    def unexpected_failures(self) -> int:
        """Failed measured loads that were not admission sheds."""
        return self.failed - self.shed

    def digest(self) -> str:
        """Witness of every simulated metric, for same-seed comparison."""
        h = hashlib.blake2b(digest_size=12)
        h.update(repr((self.attempted, self.succeeded, self.failed, self.shed,
                       self.objects, self.border_bytes,
                       self.warmups_failed)).encode())
        for plt in self.plts:
            h.update(repr(plt).encode())
        return h.hexdigest()


@dataclass
class Episode:
    #: Phase times in seconds at the reference host speed.
    setup_s: float
    wall_s: float
    #: The same phases in raw host seconds.
    setup_host_s: float
    wall_host_s: float
    outcome: Outcome
    #: Public counters at the start and end of the measured phase.
    before: t.Dict[str, t.Optional[float]]
    after: t.Dict[str, t.Optional[float]]
    #: Admission queue delays granted during the measured phase.
    queue_delays: t.List[float]

    def delta(self, name: str) -> t.Optional[float]:
        if self.before.get(name) is None or self.after.get(name) is None:
            return None
        return self.after[name] - self.before[name]


class World:
    """One testbed with ScholarCloud deployed and the plan's clients."""

    def __init__(self, plan: Plan) -> None:
        spec = plan.spec
        self.plan = plan
        self.testbed = Testbed(seed=plan.seed, extra_clients=spec.clients,
                               fluid=spec.mode)
        for page in plan.pages:
            self.testbed.scholar_server.add_page(page)
        overload = None
        if spec.admission is not None:
            sessions, waiting, delay = spec.admission
            overload = OverloadConfig(max_sessions=sessions,
                                      max_waiting=waiting,
                                      queue_delay_threshold=delay)
        self.system = ScholarCloud(
            self.testbed, overload=overload,
            cache=CacheConfig() if spec.cache else None)
        self.testbed.run_process(self.system.deploy(), name="deploy")
        #: ``(client, succeeded, error, plt, objects)`` per measured load.
        self.results: t.List[t.Tuple[int, bool, t.Optional[str], float, int]] = []
        self.warmups_failed = 0
        sim = self.testbed.sim
        self.warmed: t.List[t.Any] = []
        self.clients: t.List[t.Any] = []
        for index, host in enumerate(self.testbed.extra_clients):
            warmed = sim.event()
            self.warmed.append(warmed)
            self.clients.append(sim.process(
                self._client(sim, host, index, warmed), name=f"load-{index}"))

    def _client(self, sim, host, index: int, warmed):
        plan = self.plan
        connector = yield from self.system.attach_client(host)
        browser = Browser(sim, connector, name=f"browser-{host.name}")
        offset = plan.offsets[index]
        yield sim.timeout(offset)
        result = yield sim.process(browser.load(plan.pages[0]))
        if not result.succeeded:
            self.warmups_failed += 1
        warmed.succeed()
        start = MEASURE_START + offset
        if sim.now < start:
            yield sim.timeout(start - sim.now)
        for think, page_index in plan.steps[index]:
            yield sim.timeout(think)
            result = yield sim.process(browser.load(plan.pages[page_index]))
            self.results.append((index, result.succeeded, result.error,
                                 result.plt, result.objects_fetched))

    def warm_up(self, speed: HostSpeed) -> float:
        """Run until every warm-up load is done and the measured phase
        is due; returns the host seconds spent."""
        sim = self.testbed.sim
        spent = speed.run(sim, sim.all_of(self.warmed))
        if sim.now < MEASURE_START:
            started = time.perf_counter()
            sim.run(until=MEASURE_START)
            spent += time.perf_counter() - started
        return spent

    def measure(self, speed: HostSpeed) -> float:
        """Run every client to completion; returns the host seconds."""
        sim = self.testbed.sim
        return speed.run(sim, sim.all_of(self.clients))

    def border_bytes(self) -> int:
        return sum(self.testbed.border_link.bytes_sent.values())

    def outcome(self, border_before: int) -> Outcome:
        results = self.results
        plts = sorted(plt for _, ok, _, plt, _ in results if ok)
        shed = sum(1 for _, ok, error, _, _ in results
                   if not ok and error is not None
                   and error.startswith("OverloadError"))
        per_client = [0] * self.plan.spec.clients
        for client, *_ in results:
            per_client[client] += 1
        return Outcome(
            attempted=len(results), succeeded=len(plts),
            failed=sum(1 for _, ok, *_ in results if not ok), shed=shed,
            objects=sum(objects for *_, objects in results), plts=plts,
            border_bytes=self.border_bytes() - border_before,
            warmups_failed=self.warmups_failed, per_client=per_client)


def run_episode(plan: Plan, speed: HostSpeed,
                tracer: t.Any = None) -> Episode:
    """Build, warm up and measure one world; returns both phase times
    in seconds at the reference host speed (see :mod:`hostspeed`).

    With a ``tracer``, its records are reset when the measured phase
    starts, so they cover that phase only.
    """
    gc.collect()
    first_probe = len(speed.probes)
    speed.probe()
    started = time.perf_counter()
    world = World(plan)
    setup_host_s = time.perf_counter() - started + world.warm_up(speed)
    setup_scale = speed.scale(first_probe)
    before = read_counters(world)
    border_before = world.border_bytes()
    admission = _admission(world)
    granted = 0 if admission is None else len(admission.queue_delays)
    gc.collect()
    if tracer is not None:
        tracer.reset()
    first_probe = len(speed.probes)
    wall_host_s = world.measure(speed)
    wall_scale = speed.scale(first_probe)
    queue_delays = ([] if admission is None
                    else list(admission.queue_delays[granted:]))
    return Episode(setup_host_s * setup_scale, wall_host_s * wall_scale,
                   setup_host_s, wall_host_s, world.outcome(border_before),
                   before, read_counters(world), queue_delays)
