"""Tests for zones, authoritative servers, and resolvers."""

import pytest

from repro.dns import (
    AuthoritativeServer,
    DnsQuery,
    DnsResponse,
    RecursiveResolver,
    StubResolver,
    Zone,
)
from repro.errors import NameResolutionError
from repro.net import Network
from repro.sim import Simulator
from repro.transport import install_transport
from repro.units import Mbps, ms


def test_zone_covers():
    zone = Zone("google.com")
    assert zone.covers("scholar.google.com")
    assert zone.covers("google.com")
    assert not zone.covers("notgoogle.com")


def test_a_record_address_rejects_cname():
    record = Zone("x.com").add("a.x.com", "CNAME", "b.x.com")
    from repro.errors import DnsError
    with pytest.raises(DnsError):
        record.address()


def build_dns_world():
    """client -- resolver -- authority, all on fast links."""
    sim = Simulator()
    net = Network(sim)
    client = net.add_host("client", address="10.0.0.1")
    resolver_host = net.add_host("resolver", address="10.0.0.53")
    authority_host = net.add_host("authority", address="203.0.113.53")
    net.connect(client, resolver_host, latency=ms(2), bandwidth=Mbps(100))
    net.connect(resolver_host, authority_host, latency=ms(80), bandwidth=Mbps(100))
    net.build_routes()
    for host in (client, resolver_host, authority_host):
        install_transport(sim, host)
    zone = Zone("google.com")
    zone.add_a("scholar.google.com", "203.0.113.80", ttl=300)
    AuthoritativeServer(sim, authority_host, [zone])
    recursive = RecursiveResolver(sim, resolver_host)
    recursive.add_authority("google.com", "203.0.113.53")
    stub = StubResolver(sim, client, upstream="10.0.0.53")
    return sim, stub, recursive


def test_end_to_end_resolution():
    sim, stub, _recursive = build_dns_world()

    def body(sim):
        address = yield stub.resolve("scholar.google.com")
        return str(address)

    assert sim.run(until=sim.process(body(sim))) == "203.0.113.80"


def test_stub_cache_hit_is_instant():
    sim, stub, _recursive = build_dns_world()

    def body(sim):
        yield stub.resolve("scholar.google.com")
        first_done = sim.now
        yield stub.resolve("scholar.google.com")
        return (first_done, sim.now)

    first_done, second_done = sim.run(until=sim.process(body(sim)))
    assert second_done == first_done  # cache answer takes zero time
    assert stub.cache_hits == 1


def test_cache_expires_after_ttl():
    sim, stub, recursive = build_dns_world()

    def body(sim):
        yield stub.resolve("scholar.google.com")
        yield sim.timeout(400)  # past the 300s TTL
        yield stub.resolve("scholar.google.com")
        return stub.queries_sent

    assert sim.run(until=sim.process(body(sim))) == 2


def test_nxdomain():
    sim, stub, _recursive = build_dns_world()

    def body(sim):
        yield stub.resolve("no-such-host.google.com")

    with pytest.raises(NameResolutionError):
        sim.run(until=sim.process(body(sim)))


def test_unknown_suffix_nxdomain():
    sim, stub, _recursive = build_dns_world()

    def body(sim):
        yield stub.resolve("example.org")

    with pytest.raises(NameResolutionError):
        sim.run(until=sim.process(body(sim)))


def test_resolution_timeout_with_dead_authority():
    """If every query is eaten, the stub retries then fails."""
    from repro.net import Verdict
    from repro.net.middlebox import Middlebox

    sim = Simulator()
    from repro.net import Network
    net = Network(sim)
    client = net.add_host("client", address="10.0.0.1")
    resolver_host = net.add_host("resolver", address="10.0.0.53")
    link = net.connect(client, resolver_host, latency=ms(2), bandwidth=Mbps(100))
    net.build_routes()
    install_transport(sim, client)
    install_transport(sim, resolver_host)

    class EatDns(Middlebox):
        name = "eat-dns"

        def process(self, packet, direction, link):
            return Verdict.DROP if packet.protocol == "udp" else Verdict.PASS

    link.add_middlebox(EatDns())
    stub = StubResolver(sim, client, upstream="10.0.0.53")

    def body(sim):
        yield stub.resolve("scholar.google.com")

    with pytest.raises(NameResolutionError):
        sim.run(until=sim.process(body(sim)))
    assert stub.queries_sent == 3  # the full retry schedule


def test_first_response_wins_poisoning_vulnerability():
    """A forged answer injected ahead of the real one is accepted."""
    sim, stub, _recursive = build_dns_world()

    # Deliver a forged response directly to the stub's pending query by
    # sniffing the query id off the wire — emulating an on-path racer.
    from repro.net.middlebox import Middlebox
    from repro.net import Verdict, Packet

    class Racer(Middlebox):
        name = "racer"

        def process(self, packet, direction, link):
            payload = packet.payload
            query = getattr(payload, "payload", None)
            if isinstance(query, DnsQuery) and direction.sender == "client":
                from repro.dns.records import DnsRecord
                forged = DnsResponse(
                    query.query_id, query.name,
                    (DnsRecord(query.name, "A", "8.8.8.8", 300),),
                    forged=True)
                from repro.transport.sockets import Datagram
                reply = Packet(
                    src=packet.dst, dst=packet.src, protocol="udp",
                    payload=Datagram(53, query.query_id and payload.sport,
                                     forged, 90),
                    size=118)
                link.inject(reply, toward=link.a if link.a.name == "client" else link.b)
            return Verdict.PASS

    # Attach to the client-resolver link.
    client_link = [l for l in stub.host.links][0]
    client_link.add_middlebox(Racer())

    def body(sim):
        address = yield stub.resolve("scholar.google.com")
        return str(address)

    assert sim.run(until=sim.process(body(sim))) == "8.8.8.8"
