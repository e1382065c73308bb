"""Cross-commit golden fingerprints of short seeded simulations.

Each scenario runs a few simulated minutes at one seed and hashes what
the simulation did: every PLT sample at full precision (or the load's
error), the border link's per-direction byte, packet and drop counters,
the firewall's :class:`~repro.gfw.GfwStats`, and every trace record
(time, category and fields).  The first eight expected digests were
recorded before the packet hot path was reworked (in-place forwarding,
direct timer callbacks, address-keyed demux, stub default routes),
``edge-passthrough`` and ``fleet-blackout-cache`` before the domestic
proxy's serving paths were merged into one, and ``query-bursts``,
``overload-pdf`` and ``scalability-shadowsocks`` before the Figure 7,
overload, repeated-query and fleet-region client loops were folded into
one load driver, and ``other-methods`` before the options, counters
and functions no caller used were deleted; any change that alters a
single simulated event, drop or timing changes a digest.  Eleven were
recorded again when connections began to end with their sessions (the
origin closes on the client's EOF, the close runs back through every
relay hop, and a Tor exit sends no END for a stream the client
ended); ``censorship``, ``edge-passthrough`` and ``faults-tor`` did
not move.

``packet_id`` is left out everywhere: it comes from a process-global
counter, so it already differs between two same-seed runs in one
process, and no result depends on it.

The scenarios reach the code the benchmark workloads never do: VPN
tunnels and NAT, Tor, the survey's other methods (a public web proxy
and a hosts-file pin), a fault script (brownout, proxy crash, policy
escalation, IP-block burst, DNS-poison burst), the firewall's DNS and
RST injection, keyword penalties, active probing, ICMP and UDP, the
fluid fast path, the edge cache with admission control, the edge
cache handing a non-HTTP stream to the relay, and a fleet region whose
session router fails sessions over from a blacked-out PoP.  The last
four digest the harness's returned result, every field included.
"""

from __future__ import annotations

import dataclasses
import hashlib
import typing as t

import pytest

from repro.cache import CacheConfig, ZipfSampler, query_corpus
from repro.dns.records import DnsRecord
from repro.dns.resolver import _CacheEntry
from repro.errors import ReproError
from repro.faults import standard_fault_script
from repro.fleet.sweep import run_fleet_region_point
from repro.http import Browser, scholar_pdf
from repro.measure.scenarios import (
    METHOD_NAMES,
    prepare,
    run_overload_point,
    run_scalability_point,
)
from repro.measure.testbed import (
    CONTROL_SITE_ADDR,
    ECHO_PORT,
    REMOTE_VM_ADDR,
    SCHOLAR_ADDR,
    SCHOLAR_HOST,
    Testbed,
)
from repro.middleware import HostsFileMethod, NativeVpn, PublicWebProxy
from repro.net import OPAQUE_STREAM, WireFeatures
from repro.overload import OverloadConfig

SEED = 5

#: blake2b-96 digests recorded on the code before the reworks above.
EXPECTED: t.Dict[str, str] = {
    "cache-admission": "c511535d122f6874e3ac277b",
    "censorship": "10bd2b0a397473d47367aea9",
    "edge-passthrough": "046d5b148e68deac68f7726a",
    "faults-native-vpn": "8b59f42a06627dfd004d47c9",
    "faults-openvpn": "c2ac78f2de8cde415474b035",
    "faults-scholarcloud": "8146869dafe1547f0a301249",
    "faults-shadowsocks": "7f3806a94c0b23c69b7308ba",
    "faults-tor": "a21d3056ca7090042ed2fd73",
    "fleet-blackout-cache": "d4adc4052ba0ebba844b6c88",
    "hybrid-pdf": "2230cb2e8ea36a70bb672e6f",
    "other-methods": "dc9a1bebbc06e5667de513ee",
    "overload-pdf": "29d6a882f58054c8a2e6778b",
    "query-bursts": "994e3e68587dcfb8b3b2d8a7",
    "scalability-shadowsocks": "8b5d60f07889b012ee17333c",
}


def _outcome(result) -> t.Any:
    return result.plt if result.succeeded else result.error


def border_and_trace(testbed) -> t.List[t.Any]:
    """The border link's per-direction counters and every trace record."""
    link = testbed.border_link
    border = [(name, link.bytes_sent[name], link.packets_sent[name],
               link.packets_dropped[name]) for name in sorted(link.bytes_sent)]
    trace = [(record.time, record.category,
              sorted((key, value) for key, value in record.fields.items()
                     if key != "packet_id"))
             for record in testbed.trace.records]
    return [border, trace]


def fingerprint(testbed, plts: t.Sequence[t.Any],
                extra: t.Sequence[t.Any] = ()) -> str:
    """Digest of one finished scenario (``packet_id`` excluded)."""
    border, trace = border_and_trace(testbed)
    parts = [list(plts), border,
             sorted(dataclasses.asdict(testbed.gfw.stats).items()),
             trace, list(extra)]
    return hashlib.blake2b(repr(parts).encode(), digest_size=12).hexdigest()


def run_clients(world, pages: t.Callable[[t.Any], t.List[t.Any]],
                clients: int, cycles: int) -> t.List[t.Any]:
    """Closed-loop clients: warm up on the home page, then ``cycles``
    rounds of ``pages(rng)`` 60 s apart; returns each measured load's
    outcome in completion order."""
    testbed = world.testbed
    sim = testbed.sim
    rng = testbed.rng.stream("golden.workload")
    outcomes: t.List[t.Any] = []

    def client(index, host, offset):
        connector = yield from world.method.attach_client(host)
        browser = Browser(sim, connector, name=f"browser-{host.name}")
        yield sim.timeout(offset)
        yield sim.process(browser.load(testbed.scholar_page))
        for _ in range(cycles):
            yield sim.timeout(60.0)
            for page in pages(rng):
                result = yield sim.process(browser.load(page))
                outcomes.append((index, _outcome(result)))

    processes = [sim.process(client(index, host, 2.0 * index))
                 for index, host in enumerate(testbed.extra_clients[:clients])]
    sim.run(until=sim.all_of(processes))
    return outcomes


# -- scenarios -----------------------------------------------------------------------------

def method_under_faults(method: str) -> str:
    """One method's page loads, with background traffic (and native
    VPN keepalives) under the standard fault script."""
    world = prepare(method, seed=SEED, remote_replicas=1)
    testbed = world.testbed
    testbed.start_background_traffic()
    if isinstance(world.method, NativeVpn):
        world.method.start_keepalives()
    browser = Browser(testbed.sim, world.method.connector(),
                      name=f"golden-{method}", retries=1, read_timeout=20.0)
    injector = standard_fault_script(
        testbed.rng.stream("faults.schedule")).install(testbed)
    plts: t.List[t.Any] = []

    def driver(sim):
        for _ in range(18):
            result = yield sim.process(browser.load(testbed.scholar_page))
            plts.append(_outcome(result))
            yield sim.timeout(30.0)

    testbed.run_process(driver(testbed.sim))
    return fingerprint(testbed, plts, [injector.timeline])


def censorship() -> str:
    """Direct access meeting every firewall weapon in turn."""
    world = prepare("direct", seed=SEED)
    testbed = world.testbed
    testbed.gfw_config.active_probing = True
    sim = testbed.sim
    transport = testbed.transport_of(testbed.client)
    outcomes: t.List[t.Any] = []

    # A Shadowsocks-looking server on the remote VM that swallows
    # probes, so the prober confirms it and the IP gets blocked.
    def acceptor(conn):
        def server(sim, conn):
            while (yield conn.recv_message()) is not None:
                pass
        sim.process(server(sim, conn))
    testbed.transport_of(testbed.remote_vm).listen_tcp(8388, acceptor)
    testbed.transport_of(testbed.control_site).listen_udp(
        9000, lambda payload, size, src, sport: testbed.transport_of(
            testbed.control_site).send_udp(src, sport, payload, size))
    transport.listen_udp(9001, lambda *args: outcomes.append(("udp", sim.now)))

    def attempt(generator):
        try:
            return (yield from generator)
        except ReproError as exc:
            return type(exc).__name__

    def keyword(sim):
        conn = yield transport.connect_tcp(CONTROL_SITE_ADDR, 80)
        conn.send_message(200, meta="query", features=WireFeatures(
            protocol_tag="plain-http", plaintext="search falun news"))
        return (yield conn.recv_message())

    def dial(sim, address, port):
        conn = yield transport.connect_tcp(address, port, timeout=20.0)
        conn.close()
        return conn.state

    def shadowsocks_like(sim):
        conn = yield transport.connect_tcp(REMOTE_VM_ADDR, 8388,
                                           features=OPAQUE_STREAM)
        conn.send_message(83, meta="ss-request", features=WireFeatures(
            protocol_tag="unknown-stream", entropy=8.0, length_signature=83))
        for _ in range(5):
            conn.send_message(600, meta="data", features=OPAQUE_STREAM)
            yield sim.timeout(0.2)
        yield sim.timeout(60.0)
        conn.close()
        return "sent"

    def body(sim):
        browser = world.browser
        # DNS poisoning blackholes the first load.
        outcomes.append(_outcome((yield sim.process(
            browser.load(testbed.scholar_page)))))
        # A hosts-file bypass meets the SNI reset.
        testbed.resolver.cache["scholar.google.com"] = _CacheEntry(
            (DnsRecord("scholar.google.com", "A", SCHOLAR_ADDR, 1e9),),
            1e9, "NOERROR")
        outcomes.append(_outcome((yield sim.process(
            browser.load(testbed.scholar_page)))))
        # A keyword hit resets the flow and opens a penalty window ...
        outcomes.append((yield from attempt(keyword(sim))))
        outcomes.append((yield from attempt(dial(sim, CONTROL_SITE_ADDR, 80))))
        # ... which expires.
        yield sim.timeout(120.0)
        outcomes.append(_outcome((yield sim.process(
            browser.load(testbed.control_page)))))
        outcomes.append((yield transport.ping(CONTROL_SITE_ADDR)))
        transport.send_udp(CONTROL_SITE_ADDR, 9000, "hello", 64, sport=9001)
        yield sim.timeout(1.0)
        # A Shadowsocks-shaped flow draws an active probe.
        outcomes.append((yield from attempt(shadowsocks_like(sim))))
        outcomes.append((yield from attempt(dial(sim, REMOTE_VM_ADDR, 8388))))

    testbed.run_process(body(sim))
    return fingerprint(testbed, outcomes,
                       [[(result.address, result.confirmed)
                         for result in testbed.prober.results]])


def hybrid_pdf() -> str:
    """ScholarCloud in hybrid mode: pdf downloads on the fluid path."""
    world = prepare("scholarcloud", seed=SEED, extra_clients=6, fluid="hybrid")
    page = scholar_pdf()
    world.testbed.scholar_server.add_page(page)
    outcomes = run_clients(world, lambda rng: [page], clients=6, cycles=2)
    stats = world.testbed.fluid.stats
    return fingerprint(world.testbed, outcomes,
                       [sorted(dataclasses.asdict(stats).items())])


def cache_and_admission() -> str:
    """ScholarCloud with a small edge cache (it evicts) and an admission
    limit below the client count (it sheds), under Zipf query bursts."""
    world = prepare(
        "scholarcloud", seed=SEED, extra_clients=10,
        cache=CacheConfig(capacity_bytes=150_000),
        overload=OverloadConfig(max_sessions=6, max_waiting=2,
                                queue_delay_threshold=1.0))
    corpus = query_corpus(12)
    for page in corpus:
        world.testbed.scholar_server.add_page(page)
    sampler = ZipfSampler(len(corpus))

    def burst(rng):
        return [corpus[sampler.sample(rng)]
                for _ in range(sampler.burst_length(rng))]

    outcomes = run_clients(world, burst, clients=10, cycles=2)
    domestic = world.method.domestic
    admission = domestic.admission
    report = world.method.cache.report()
    return fingerprint(world.testbed, outcomes, [
        list(admission.decisions), admission.offered, admission.shed,
        domestic.deadline_drops, dataclasses.astuple(report)])


def edge_passthrough() -> str:
    """ScholarCloud with the edge cache and admission control: a
    plaintext echo stream, which the edge hands to the relay with its
    first frame already read, then one page load through the cache."""
    world = prepare("scholarcloud", seed=SEED, cache=CacheConfig(),
                    overload=OverloadConfig(max_sessions=2),
                    remote_replicas=1)
    testbed = world.testbed
    connector = world.method.connector()
    outcomes: t.List[t.Any] = []

    def body(sim):
        stream = yield from connector.open(SCHOLAR_HOST, ECHO_PORT,
                                           use_tls=False)
        for _ in range(6):
            started = sim.now
            stream.send(64, meta=("ping", started))
            reply = yield stream.recv()
            outcomes.append(None if reply is None else sim.now - started)
            yield sim.timeout(1.0)
        stream.close()
        outcomes.append(_outcome((yield sim.process(
            world.browser.load(testbed.scholar_page)))))

    testbed.run_process(body(testbed.sim))
    domestic = world.method.domestic
    admission = domestic.admission
    return fingerprint(testbed, outcomes, [
        domestic.streams_served, domestic.dials_failed,
        list(admission.decisions),
        dataclasses.astuple(world.method.cache.report())])


def other_methods() -> str:
    """The survey's other methods, three loads each: the public web
    proxy under the firewall (its cleartext hostname draws a reset),
    then a hosts-file pin (the SNI filter resets it); and the web proxy
    relaying whole loads on a testbed without a firewall, whose
    outcomes, border counters, trace and fetch count are extras."""
    def load_through(testbed, methods) -> t.List[t.Any]:
        outcomes: t.List[t.Any] = []

        def body(sim):
            for method in methods:
                yield from method.setup()
                browser = Browser(sim, method.connector(),
                                  name=f"golden-{method.name}")
                for _ in range(3):
                    result = yield sim.process(
                        browser.load(testbed.scholar_page))
                    outcomes.append((method.name, _outcome(result)))
                    yield sim.timeout(60.0)

        testbed.run_process(body(testbed.sim))
        return outcomes

    censored = Testbed(seed=SEED)
    outcomes = load_through(censored, [PublicWebProxy(censored),
                                       HostsFileMethod(censored)])
    uncensored = Testbed(seed=SEED, gfw_enabled=False)
    web_proxy = PublicWebProxy(uncensored)
    relayed = load_through(uncensored, [web_proxy])
    return fingerprint(censored, outcomes, [
        relayed, *border_and_trace(uncensored), web_proxy.fetches])


def result_digest(result) -> str:
    """Digest of a returned result dataclass, every field included."""
    return hashlib.blake2b(repr(dataclasses.astuple(result)).encode(),
                           digest_size=12).hexdigest()


def fleet_blackout_cache() -> str:
    """A fleet region with edge caches over the session router: one
    PoP blacks out mid-sweep, so sessions fail over and remap."""
    return result_digest(run_fleet_region_point(
        "beijing", pops=2, clients=12, cycles=2, seed=SEED, mode="packet",
        workload="queries", cache=CacheConfig(), blackout_pop="pop-1",
        blackout_at=70.0, blackout_downtime=60.0))


def query_bursts() -> str:
    """Scraper bursts through a small edge cache (it evicts) behind an
    admission limit below the client count (it sheds); each query is
    drawn at the instant its load starts."""
    return result_digest(run_overload_point(
        clients=10, cycles=2, seed=SEED, workload="query-bursts",
        cache=CacheConfig(capacity_bytes=150_000),
        overload=OverloadConfig(max_sessions=6, max_waiting=2,
                                queue_delay_threshold=1.0),
        corpus_size=12))


def overload_pdf() -> str:
    """Hybrid-mode pdf loads past an admission limit, under a total
    load deadline that some loads run out of."""
    return result_digest(run_overload_point(
        clients=8, cycles=2, seed=SEED, mode="hybrid", workload="pdf",
        overload=OverloadConfig(max_sessions=6, max_waiting=2,
                                queue_delay_threshold=1.0),
        total_deadline=6.0))


def scalability_shadowsocks() -> str:
    """A Figure 7 point for Shadowsocks, whose client attachment opens
    an ss-local session (it yields, unlike ScholarCloud's)."""
    return result_digest(run_scalability_point(
        "shadowsocks", clients=4, cycles=2, seed=SEED))


SCENARIOS: t.Dict[str, t.Callable[[], str]] = {
    **{f"faults-{method}": (lambda method=method: method_under_faults(method))
       for method in METHOD_NAMES},
    "censorship": censorship,
    "hybrid-pdf": hybrid_pdf,
    "other-methods": other_methods,
    "cache-admission": cache_and_admission,
    "edge-passthrough": edge_passthrough,
    "fleet-blackout-cache": fleet_blackout_cache,
    "overload-pdf": overload_pdf,
    "query-bursts": query_bursts,
    "scalability-shadowsocks": scalability_shadowsocks,
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_simulation_matches_recorded_fingerprint(name):
    assert SCENARIOS[name]() == EXPECTED[name]


if __name__ == "__main__":  # print the current digests
    for scenario in sorted(SCENARIOS):
        print(f"    {scenario!r}: {SCENARIOS[scenario]()!r},")
