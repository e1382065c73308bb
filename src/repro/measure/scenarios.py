"""Canonical experiment scenarios — one per figure of the paper.

Each function builds a fresh :class:`Testbed`, installs one access
method, and reproduces the corresponding measurement of §4.2/4.3:
60 s-spaced page loads of the Google Scholar home page from a client
at Tsinghua, against the Aliyun VM in San Mateo.

The benches in ``benchmarks/`` call these functions and print the
same rows/series the paper reports.
"""

from __future__ import annotations

import typing as t
from dataclasses import dataclass

from ..core import ScholarCloud
from ..errors import MeasurementError
from ..http import Browser
from ..middleware import (
    DirectMethod,
    NativeVpn,
    OpenVpn,
    ShadowsocksMethod,
    TorMethod,
)
from ..cache import CacheConfig
from ..faults import FaultSchedule, standard_fault_script
from ..overload import OverloadConfig
from .metrics import (
    Availability,
    CacheReport,
    OverloadReport,
    Summary,
    availability,
    loss_rate,
    summarize,
)
from .load import MEASUREMENT_INTERVAL, drive_clients, install_workload
from .testbed import ECHO_PORT, SCHOLAR_HOST, Testbed

#: Methods measured in the paper's Figures 5–7.
METHOD_NAMES = ("native-vpn", "openvpn", "tor", "shadowsocks", "scholarcloud")


def build_method(testbed: Testbed, name: str,
                 overload: t.Optional[OverloadConfig] = None,
                 cache: t.Optional[CacheConfig] = None):
    """Instantiate (but not set up) an access method by name."""
    factories = {
        "direct": DirectMethod,
        "native-vpn": NativeVpn,
        "openvpn": OpenVpn,
        "tor": TorMethod,
        "shadowsocks": ShadowsocksMethod,
        "scholarcloud": ScholarCloud,
    }
    factory = factories.get(name)
    if factory is None:
        raise MeasurementError(f"unknown access method {name!r}")
    if name == "scholarcloud":
        return ScholarCloud(testbed, overload=overload, cache=cache)
    if overload is not None:
        raise MeasurementError(
            f"{name} has no overload-protection layer to configure")
    if cache is not None:
        raise MeasurementError(
            f"{name} has no edge-cache layer to configure")
    return factory(testbed)


@dataclass
class MethodWorld:
    """A testbed with one access method installed and set up."""

    testbed: Testbed
    method: t.Any
    browser: Browser
    setup_time: float


def prepare(name: str, seed: int = 0,
            overload: t.Optional[OverloadConfig] = None,
            cache: t.Optional[CacheConfig] = None,
            **testbed_kwargs) -> MethodWorld:
    """Fresh testbed + method, set up and ready to measure."""
    testbed = Testbed(seed=seed, **testbed_kwargs)
    method = build_method(testbed, name, overload=overload, cache=cache)
    started = testbed.sim.now
    testbed.run_process(method.setup(), name=f"setup:{name}")
    setup_time = testbed.sim.now - started
    browser = testbed.browser(connector=method.connector())
    return MethodWorld(testbed, method, browser, setup_time)


# -- Figure 5a: page load time ---------------------------------------------------------

@dataclass
class PltResult:
    method: str
    #: First-time PLT including method bootstrap (the paper's framing
    #: for Tor: "connection setup ... involves interactions with
    #: multiple bridges and relays").
    first_time: float
    subsequent: Summary
    errors: int = 0


def run_plt_experiment(method: str, samples: int = 20,
                       seed: int = 0) -> PltResult:
    """First-time and subsequent PLTs, 60 s apart (Figure 5a)."""
    world = prepare(method, seed=seed)
    testbed, browser = world.testbed, world.browser
    first = testbed.run_process(browser.load(testbed.scholar_page))
    first_time = world.setup_time + first.plt
    subsequent: t.List[float] = []
    errors = 0 if first.succeeded else 1
    for _ in range(samples):
        testbed.sim.run(until=testbed.sim.now + MEASUREMENT_INTERVAL)
        result = testbed.run_process(browser.load(testbed.scholar_page))
        if result.succeeded:
            subsequent.append(result.plt)
        else:
            errors += 1
    if not subsequent:
        raise MeasurementError(f"{method}: every load failed")
    return PltResult(method, first_time, summarize(subsequent), errors)


# -- Figure 5b: round-trip time -----------------------------------------------------------

def run_rtt_experiment(method: str, probes: int = 20,
                       seed: int = 0) -> Summary:
    """Application-level echo RTT to the Scholar origin (Figure 5b).

    A 64-byte request/response on an established stream through the
    method's full path — the network-level efficiency measure that the
    paper correlates with PLT.
    """
    world = prepare(method, seed=seed)
    testbed = world.testbed
    connector = world.method.connector()
    rtts: t.List[float] = []

    def probe_process(sim):
        stream = yield from connector.open(SCHOLAR_HOST, ECHO_PORT,
                                           use_tls=False)
        for _ in range(probes):
            started = sim.now
            stream.send_message(64, meta=("ping", started))
            reply = yield stream.recv_message()
            if reply is None:
                break
            rtts.append(sim.now - started)
            yield sim.timeout(1.0)
        stream.close()

    testbed.run_process(probe_process(testbed.sim), name=f"rtt:{method}")
    if not rtts:
        raise MeasurementError(f"{method}: no RTT samples")
    return summarize(rtts)


# -- Figure 5c: packet loss rate -------------------------------------------------------------

@dataclass
class PlrResult:
    method: str
    sent: int
    dropped: int

    @property
    def rate(self) -> float:
        return loss_rate(self.dropped, self.sent)


def run_plr_experiment(method: str, loads: int = 15, seed: int = 0) -> PlrResult:
    """Packet loss on the border link during page loads (Figure 5c)."""
    world = prepare(method, seed=seed)
    testbed, browser = world.testbed, world.browser
    link = testbed.border_link
    base_sent = sum(link.packets_sent.values())
    base_dropped = sum(link.packets_dropped.values())
    for _ in range(loads):
        testbed.run_process(browser.load(testbed.scholar_page))
        testbed.sim.run(until=testbed.sim.now + MEASUREMENT_INTERVAL)
    sent = sum(link.packets_sent.values()) - base_sent
    dropped = sum(link.packets_dropped.values()) - base_dropped
    return PlrResult(method, sent, dropped)


def run_us_baseline_plr(loads: int = 15, seed: int = 0) -> PlrResult:
    """The paper's control: the same methods from the US stay <0.1%.

    Modeled as direct access with the GFW absent — the loss that
    remains is pure path noise.
    """
    testbed = Testbed(seed=seed, gfw_enabled=False)
    browser = testbed.browser()
    link = testbed.border_link
    for _ in range(loads):
        testbed.run_process(browser.load(testbed.scholar_page))
        testbed.sim.run(until=testbed.sim.now + MEASUREMENT_INTERVAL)
    return PlrResult("us-baseline",
                     sum(link.packets_sent.values()),
                     sum(link.packets_dropped.values()))


# -- Figure 6a: traffic -------------------------------------------------------------------------

@dataclass
class TrafficResult:
    method: str
    #: Bytes on the client access link over one 60 s measurement cycle
    #: containing one page load.
    cycle_bytes: int
    connections: int


def run_traffic_experiment(method: str, seed: int = 0) -> TrafficResult:
    """Client access-link bytes per measurement cycle (Figure 6a).

    Includes everything the method makes the client emit: tunnel
    headers, handshakes, keepalives — and, for full-tunnel native VPN,
    the re-routed background domestic traffic.
    """
    world = prepare(method, seed=seed)
    testbed, browser = world.testbed, world.browser
    testbed.start_background_traffic()
    if isinstance(world.method, NativeVpn):
        world.method.start_keepalives()
    # Settle into steady state, then measure one cycle containing a
    # cold page access (the paper measures a full visit's traffic).
    testbed.sim.run(until=testbed.sim.now + MEASUREMENT_INTERVAL)
    browser.clear_caches()
    capture = testbed.capture_client_link()
    start = testbed.sim.now
    result = testbed.run_process(browser.load(testbed.scholar_page))
    testbed.sim.run(until=start + MEASUREMENT_INTERVAL)
    return TrafficResult(method, capture.bytes_total(), result.connections_opened)


def run_direct_us_traffic(seed: int = 0) -> TrafficResult:
    """The dotted 19 KB line: a direct access with no GFW.

    Measured identically to the method cycles (same background noise,
    same cold access) so the difference is purely method overhead.
    """
    testbed = Testbed(seed=seed, gfw_enabled=False)
    browser = testbed.browser()
    testbed.start_background_traffic()
    testbed.sim.run(until=testbed.sim.now + MEASUREMENT_INTERVAL)
    capture = testbed.capture_client_link()
    start = testbed.sim.now
    result = testbed.run_process(browser.load(testbed.scholar_page))
    testbed.sim.run(until=start + MEASUREMENT_INTERVAL)
    return TrafficResult("direct-us", capture.bytes_total(),
                         result.connections_opened)


# -- Fault matrix: availability under a scripted fault timeline ------------------------

@dataclass
class AvailabilityResult:
    """One method's session availability under a fault script."""

    method: str
    availability: Availability
    #: Raw ``(started_at, succeeded)`` session samples.
    samples: t.List[t.Tuple[float, bool]]
    #: The injector's applied/reverted fault timeline.
    timeline: t.List[t.Tuple[float, str, str, str]]
    #: ScholarCloud only: transpacific failovers and exhausted dials.
    failovers: int = 0
    dials_failed: int = 0


def run_fault_experiment(method: str, attempts: int = 18, seed: int = 0,
                         script: t.Optional[FaultSchedule] = None
                         ) -> AvailabilityResult:
    """Repeated page-load sessions, 30 s apart, while a fault script runs.

    Every method faces the same timeline (same seed → byte-identical
    faults); the browser is configured with one transport retry and a
    20 s response deadline so transient failures are absorbed rather
    than stalled through, and the testbed carries one standby remote
    VM for methods that can use it (ScholarCloud's failover pool).
    """
    world = prepare(method, seed=seed, remote_replicas=1)
    testbed = world.testbed
    browser = Browser(testbed.sim, world.method.connector(),
                      name=f"fault-{method}", retries=1, read_timeout=20.0)
    if script is None:
        script = standard_fault_script(testbed.rng.stream("faults.schedule"))
    injector = script.install(testbed)
    samples: t.List[t.Tuple[float, bool]] = []

    def driver(sim):
        for _ in range(attempts):
            result = yield sim.process(browser.load(testbed.scholar_page))
            samples.append((round(result.started_at, 6), result.succeeded))
            yield sim.timeout(30.0)

    testbed.run_process(driver(testbed.sim), name=f"faults:{method}")
    failovers = dials_failed = 0
    domestic = getattr(world.method, "domestic", None)
    if domestic is not None:
        failovers = domestic.pool.failovers
        dials_failed = domestic.dials_failed
    return AvailabilityResult(
        method=method,
        availability=availability(samples),
        samples=samples,
        timeline=list(injector.timeline),
        failovers=failovers,
        dials_failed=dials_failed,
    )


# -- Figure 7: scalability --------------------------------------------------------------------------

def run_scalability_point(method: str, clients: int, cycles: int = 3,
                          seed: int = 0) -> Summary:
    """Mean PLT with ``clients`` concurrent browsers (one Figure 7 point).

    The PLT summary of :func:`run_overload_point` with every knob off,
    in packet mode.
    """
    plt = run_overload_point(method, clients=clients, cycles=cycles,
                             seed=seed).plt
    if plt is None:
        raise MeasurementError(f"{method}: no scalability samples")
    return plt


# -- Overload: the Figure 7 sweep past its knee -----------------------------------------------

@dataclass
class OverloadResult:
    """One overload experiment point (Figure 7 extended past 180)."""

    method: str
    clients: int
    #: Measured (non-warm-up) loads that succeeded / failed.
    completed: int
    failed: int
    #: Failed loads whose error was an admission shed.
    client_sheds: int
    #: PLT summary of the successful loads (None if none succeeded).
    plt: t.Optional[Summary]
    #: Server-side degradation counters (admission + queue delays).
    report: OverloadReport
    #: The admission controller's full decision log, for
    #: seed-robustness assertions (empty with overload off).
    decisions: t.List[t.Tuple[float, str, str, int]]
    #: Edge-cache report (None when the method has no cache deployed).
    cache: t.Optional[CacheReport] = None
    #: Total bytes that crossed the transpacific border link (both
    #: directions) over the whole run, cache or no cache.
    transpacific_bytes: int = 0

    @property
    def goodput(self) -> float:
        return self.report.goodput

    @property
    def shed_rate(self) -> float:
        return self.report.shed_rate


def _summary(samples: t.List[float]) -> t.Optional[Summary]:
    return summarize(samples) if samples else None


def run_overload_point(method: str = "scholarcloud", clients: int = 60,
                       cycles: int = 3, seed: int = 0,
                       overload: t.Optional[OverloadConfig] = None,
                       total_deadline: t.Optional[float] = None,
                       mode: str = "packet",
                       workload: str = "home",
                       cache: t.Optional[CacheConfig] = None,
                       corpus_size: t.Optional[int] = None,
                       ) -> OverloadResult:
    """One extended-Figure-7 point, optionally with overload and cache
    knobs on.

    With every knob off (``overload``, ``total_deadline`` and ``cache``
    None, ``mode="packet"``, ``workload="home"``) this is the Figure 7
    point; :func:`run_scalability_point` returns its PLT summary.
    ``mode`` selects the simulation mode (see :mod:`repro.perf.fluid`);
    ``workload`` names what each client loads (see
    :data:`repro.measure.load.WORKLOADS`), and ``corpus_size`` sizes
    the query workloads' corpus.  The result's ``cache`` is the edge
    :class:`~repro.measure.metrics.CacheReport` (PLT split into hit
    and miss loads) when a cache is deployed.
    """
    world = prepare(method, seed=seed, overload=overload, cache=cache,
                    extra_clients=clients, fluid=mode)
    testbed = world.testbed
    records = drive_clients(
        testbed.sim, testbed.extra_clients[:clients],
        world.method.attach_client,
        install_workload(testbed, workload, corpus_size), cycles,
        testbed.rng.stream("scalability-offsets"), "load",
        total_deadline=total_deadline)

    loaded = [record for record in records if record.succeeded]
    client_sheds = sum(1 for record in records if record.error is not None
                       and record.error.startswith("OverloadError"))
    offered = admitted = shed = deadline_drops = 0
    queue_delays: t.Tuple[float, ...] = ()
    decisions: t.List[t.Tuple[float, str, str, int]] = []
    domestic = getattr(world.method, "domestic", None)
    if domestic is not None:
        # domestic.deadline_drops mirrors admission.record_expired, so
        # one counter covers both (no double counting).
        deadline_drops = domestic.deadline_drops
        if domestic.admission is not None:
            admission = domestic.admission
            offered = admission.offered
            admitted = admission.admitted
            shed = admission.shed
            queue_delays = tuple(admission.queue_delays)
            decisions = list(admission.decisions)
    cache_report: t.Optional[CacheReport] = None
    edge_cache = getattr(world.method, "cache", None)
    if edge_cache is not None:
        cache_report = edge_cache.report(
            plt_hit=_summary([r.plt for r in loaded if r.from_cache]),
            plt_miss=_summary([r.plt for r in loaded if not r.from_cache]))
    report = OverloadReport(
        offered=offered, admitted=admitted, shed=shed,
        deadline_drops=deadline_drops, completed=len(loaded),
        duration=testbed.sim.now, queue_delays=queue_delays)
    return OverloadResult(
        method=method, clients=clients, completed=len(loaded),
        failed=len(records) - len(loaded), client_sheds=client_sheds,
        plt=_summary([record.plt for record in loaded]),
        report=report, decisions=decisions, cache=cache_report,
        transpacific_bytes=sum(testbed.border_link.bytes_sent.values()))
