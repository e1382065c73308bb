"""Tests for links, nodes, routing, and the topology builder."""

import pytest

from repro.errors import NetworkError, RoutingError
from repro.net import IPv4Address, Network, Packet, PacketCapture, WireFeatures
from repro.sim import Simulator
from repro.units import Mbps, ms


def build_line():
    """client -- r1 -- r2 -- server, with distinct latencies."""
    sim = Simulator()
    net = Network(sim)
    client = net.add_host("client", address="10.0.0.1")
    r1 = net.add_router("r1", address="10.0.0.254")
    r2 = net.add_router("r2", address="198.51.100.254")
    server = net.add_host("server", address="203.0.113.1")
    net.connect(client, r1, latency=ms(1), bandwidth=Mbps(100))
    net.connect(r1, r2, latency=ms(40), bandwidth=Mbps(100))
    net.connect(r2, server, latency=ms(2), bandwidth=Mbps(100))
    net.build_routes()
    return sim, net, client, server


def test_duplicate_node_name_rejected():
    sim = Simulator()
    net = Network(sim)
    net.add_host("a", address="10.0.0.1")
    with pytest.raises(NetworkError):
        net.add_host("a", address="10.0.0.2")


def test_link_between():
    _sim, net, client, _ = build_line()
    link = net.link_between("client", "r1")
    assert link.peer_of(client).name == "r1"
    with pytest.raises(NetworkError):
        net.link_between("client", "server")


def test_no_route_raises():
    sim = Simulator()
    net = Network(sim)
    host = net.add_host("lonely", address="10.9.9.9")
    with pytest.raises(RoutingError):
        host.route_for(net.add_host("other", address="10.9.9.8").address)


def test_end_to_end_delivery_and_latency():
    sim, _net, client, server = build_line()
    received = []
    server.deliver = lambda packet: received.append((sim.now, packet))
    packet = Packet(src=client.address, dst=server.address,
                    protocol="udp", payload="x", size=100)
    client.send(packet)
    sim.run()
    assert len(received) == 1
    arrival, got = received[0]
    assert got.payload == "x"
    # 3 hops of propagation plus 3 serializations of 100B at 100 Mbps.
    expected = ms(1 + 40 + 2) + 3 * (100 / Mbps(100))
    assert arrival == pytest.approx(expected, rel=1e-6)


def test_routing_prefers_low_latency_path():
    sim = Simulator()
    net = Network(sim)
    a = net.add_host("a", address="10.0.0.1")
    b = net.add_host("b", address="10.0.0.2")
    slow = net.add_router("slow", address="10.0.1.1")
    fast = net.add_router("fast", address="10.0.1.2")
    net.connect(a, slow, latency=ms(100), bandwidth=Mbps(100))
    net.connect(slow, b, latency=ms(100), bandwidth=Mbps(100))
    net.connect(a, fast, latency=ms(5), bandwidth=Mbps(100))
    net.connect(fast, b, latency=ms(5), bandwidth=Mbps(100))
    net.build_routes()
    assert a.route_for(b.address).peer_of(a) is fast


def test_link_loss_drops_packets():
    sim = Simulator()
    net = Network(sim)
    a = net.add_host("a", address="10.0.0.1")
    b = net.add_host("b", address="10.0.0.2")
    link = net.connect(a, b, latency=ms(1), bandwidth=Mbps(100), loss=1.0 - 1e-12)
    net.build_routes()
    received = []
    b.deliver = lambda packet: received.append(packet)
    for _ in range(20):
        a.send(Packet(src=a.address, dst=b.address,
                      protocol="udp", payload=None, size=100))
    sim.run()
    assert received == []
    assert link.packets_dropped["a"] == 20


def test_serialization_queues_fifo():
    """Two back-to-back packets serialize one after the other."""
    sim = Simulator()
    net = Network(sim)
    a = net.add_host("a", address="10.0.0.1")
    b = net.add_host("b", address="10.0.0.2")
    net.connect(a, b, latency=0.0, bandwidth=1000.0)  # 1000 B/s
    net.build_routes()
    arrivals = []
    b.deliver = lambda packet: arrivals.append(sim.now)
    for _ in range(2):
        a.send(Packet(src=a.address, dst=b.address,
                      protocol="udp", payload=None, size=500))
    sim.run()
    assert arrivals == [pytest.approx(0.5), pytest.approx(1.0)]


def test_ttl_expiry_drops_packet():
    sim, _net, client, server = build_line()
    received = []
    server.deliver = lambda packet: received.append(packet)
    client.send(Packet(src=client.address, dst=server.address,
                       protocol="udp", payload=None, size=64, ttl=1))
    sim.run()
    assert received == []


def test_a_transit_packet_arriving_with_ttl_zero_is_dropped_there():
    sim, net, client, server = build_line()
    received = []
    server.deliver = lambda packet: received.append(packet)
    packet = Packet(src=client.address, dst=server.address,
                    protocol="udp", payload=None, size=64, ttl=0)
    client.send(packet)
    sim.run()
    assert received == []
    assert packet.ttl == 0  # r1 dropped it before lowering the ttl
    assert net.link_between("r1", "r2").packets_sent == {"r1": 0, "r2": 0}


def test_a_transit_packet_with_no_route_is_dropped_and_recorded():
    sim, net, client, _server = build_line()
    unknown = IPv4Address("192.0.2.77")
    packet = Packet(src=client.address, dst=unknown, protocol="udp",
                    payload=None, size=64, ttl=10)
    client.send(packet)  # the stub's default route leads to r1
    sim.run()
    records = net.trace.select("node.no-route")
    assert [(r["node"], r["dst"]) for r in records] == [("r1", "192.0.2.77")]
    assert packet.ttl == 9
    assert net.link_between("r1", "r2").packets_sent == {"r1": 0, "r2": 0}


def test_forwarding_moves_the_same_packet_object():
    """Routers lower the TTL in place; the id survives every hop."""
    sim, _net, client, server = build_line()
    received = []
    server.deliver = lambda packet: received.append(packet)
    packet = Packet(src=client.address, dst=server.address,
                    protocol="udp", payload=None, size=64, ttl=10)
    packet_id = packet.packet_id
    client.send(packet)
    sim.run()
    assert len(received) == 1
    assert received[0] is packet
    assert packet.ttl == 10 - 2  # r1 and r2
    assert packet.packet_id == packet_id


def test_transmit_from_a_node_off_the_link_raises():
    _sim, net, client, server = build_line()
    link = net.link_between("r1", "r2")
    with pytest.raises(NetworkError):
        link.transmit(Packet(src=client.address, dst=server.address,
                             protocol="udp", payload=None, size=64), client)
    assert link.packets_sent == {"r1": 0, "r2": 0}


def test_stub_routes_every_destination_over_its_one_link():
    _sim, net, client, server = build_line()
    for stub in (client, server):
        (only,) = stub.links
        for node in net.nodes.values():
            for address in node.addresses:
                assert stub.route_for(address) is only
        assert stub.route_for(IPv4Address("192.0.2.77")) is only


def test_packet_capture_records_flows():
    sim, net, client, server = build_line()
    capture = PacketCapture(sim).attach(net.link_between("client", "r1"))
    server.deliver = lambda packet: None
    client.send(Packet(src=client.address, dst=server.address,
                       protocol="udp", payload=None, size=64,
                       features=WireFeatures(protocol_tag="plain-http"),
                       flow=("udp", "10.0.0.1", 1000, "203.0.113.1", 53)))
    sim.run()
    assert len(capture.packets) == 1
    assert capture.packets[0].protocol_tag == "plain-http"
    assert capture.bytes_total() == 64


def test_encapsulation_roundtrip():
    sim, _net, client, server = build_line()
    inner = Packet(src=client.address, dst=server.address,
                   protocol="tcp", payload="segment", size=140)
    outer = inner.encapsulate(
        src=client.address, dst=server.address, protocol="gre",
        overhead=48, features=WireFeatures(protocol_tag="pptp-gre"))
    assert outer.size == 188
    assert outer.is_tunneled
    assert outer.inner() is inner
    assert not inner.is_tunneled
    with pytest.raises(TypeError):
        inner.inner()


def _sample_packet():
    return Packet(src=IPv4Address("10.0.0.1"), dst=IPv4Address("203.0.113.1"),
                  protocol="tcp", payload=("segment", 7), size=140,
                  features=WireFeatures(protocol_tag="tls", entropy=7.9),
                  flow=("tcp", "10.0.0.1", 49152, "203.0.113.1", 443),
                  ttl=9)


FIELDS = ("src", "dst", "protocol", "payload", "size", "features", "ttl",
          "flow")


def test_packet_copy_keeps_every_field_and_takes_a_fresh_id():
    packet = _sample_packet()
    clone = packet.copy()
    assert clone is not packet
    assert clone.packet_id > packet.packet_id
    for name in FIELDS:
        assert getattr(clone, name) is getattr(packet, name), name
    moved = packet.copy(dst=IPv4Address("198.51.100.7"), payload="inner")
    assert moved.dst == IPv4Address("198.51.100.7")
    assert moved.payload == "inner"
    for name in FIELDS:
        if name not in ("dst", "payload"):
            assert getattr(moved, name) is getattr(packet, name), name
    assert len({packet.packet_id, clone.packet_id, moved.packet_id}) == 3
    with pytest.raises(TypeError):
        packet.copy(_link=None)


def test_packets_compare_by_field_and_stay_unhashable():
    packet = _sample_packet()
    same = packet.copy(packet_id=packet.packet_id)
    assert same is not packet and same == packet
    assert packet.copy() != packet  # a fresh id differs
    assert same.copy(packet_id=packet.packet_id, ttl=8) != packet
    assert packet != "packet"
    with pytest.raises(TypeError):
        hash(packet)
