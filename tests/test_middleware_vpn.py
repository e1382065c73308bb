"""Tests for the VPN middleware (native PPTP/L2TP and OpenVPN)."""

import pytest

from repro.errors import TunnelError
from repro.measure import Testbed
from repro.middleware.vpn import NativeVpn, OpenVpn
from repro.middleware.vpn.nat import NatTable
from repro.net import IPv4Address, Packet
from repro.transport.tcp import Segment


def vpn_world(cls=NativeVpn, **kwargs):
    testbed = Testbed()
    method = cls(testbed, **kwargs)
    testbed.run_process(method.setup())
    return testbed, method


# -- NAT ------------------------------------------------------------------------

def test_nat_tcp_roundtrip():
    nat = NatTable(IPv4Address("47.88.1.100"))
    inner = Packet(
        src=IPv4Address("59.66.1.10"), dst=IPv4Address("172.217.194.80"),
        protocol="tcp",
        payload=Segment(50000, 443, seq=0, ack=0, flags=frozenset({"SYN"})),
        size=52)
    out = nat.outbound(inner)
    assert str(out.src) == "47.88.1.100"
    nat_port = out.payload.sport
    assert nat_port != 50000

    reply = Packet(
        src=IPv4Address("172.217.194.80"), dst=IPv4Address("47.88.1.100"),
        protocol="tcp",
        payload=Segment(443, nat_port, seq=0, ack=1,
                        flags=frozenset({"SYN", "ACK"})),
        size=52)
    restored = nat.inbound(reply)
    assert str(restored.dst) == "59.66.1.10"
    assert restored.payload.dport == 50000


def test_nat_rewrites_only_the_port_of_a_tcp_segment():
    """Every other segment field survives the rewrite both ways, and
    each rewritten packet takes a fresh id."""
    nat = NatTable(IPv4Address("47.88.1.100"))
    ends = ((1_500, "request"),)
    inner = Packet(
        src=IPv4Address("59.66.1.10"), dst=IPv4Address("172.217.194.80"),
        protocol="tcp",
        payload=Segment(50000, 443, 1_000, 7, frozenset({"ACK"}), 500, ends),
        size=540)
    out = nat.outbound(inner)
    nat_port = out.payload.sport
    assert out.payload == Segment(nat_port, 443, 1_000, 7,
                                  frozenset({"ACK"}), 500, ends)
    assert out.packet_id != inner.packet_id
    assert (out.dst, out.size, out.ttl) == (inner.dst, inner.size, inner.ttl)

    reply = Packet(
        src=IPv4Address("172.217.194.80"), dst=IPv4Address("47.88.1.100"),
        protocol="tcp",
        payload=Segment(443, nat_port, 7, 1_500, frozenset({"ACK"}), 300,
                        ((307, "response"),)),
        size=340)
    restored = nat.inbound(reply)
    assert restored.payload == Segment(443, 50000, 7, 1_500,
                                       frozenset({"ACK"}), 300,
                                       ((307, "response"),))
    assert restored.payload != reply.payload
    assert restored.packet_id != reply.packet_id
    assert (restored.src, restored.size) == (reply.src, reply.size)


def test_nat_reuses_mapping_per_flow():
    nat = NatTable(IPv4Address("47.88.1.100"))
    inner = Packet(
        src=IPv4Address("59.66.1.10"), dst=IPv4Address("172.217.194.80"),
        protocol="tcp",
        payload=Segment(50000, 443, seq=0, ack=0, flags=frozenset()),
        size=52)
    first = nat.outbound(inner)
    second = nat.outbound(inner)
    assert first.payload.sport == second.payload.sport
    assert nat.translations() == 1


def test_nat_unmapped_reply_returns_none():
    nat = NatTable(IPv4Address("47.88.1.100"))
    stray = Packet(
        src=IPv4Address("1.2.3.4"), dst=IPv4Address("47.88.1.100"),
        protocol="tcp",
        payload=Segment(80, 44444, seq=0, ack=0, flags=frozenset()),
        size=52)
    assert nat.inbound(stray) is None


# -- native VPN -------------------------------------------------------------------

def test_native_vpn_reaches_blocked_scholar():
    testbed, method = vpn_world()
    browser = testbed.browser(connector=method.connector())
    result = testbed.run_process(browser.load(testbed.scholar_page))
    assert result.succeeded, result.error


def test_native_vpn_connector_requires_setup():
    testbed = Testbed()
    with pytest.raises(TunnelError):
        NativeVpn(testbed).connector()


def test_native_vpn_tunnel_hides_sni_from_gfw():
    testbed, method = vpn_world()
    browser = testbed.browser(connector=method.connector())
    testbed.run_process(browser.load(testbed.scholar_page))
    # No SNI resets: the GFW only ever saw GRE framing.
    assert testbed.gfw.stats.sni_resets == 0
    assert testbed.gfw.stats.flows_labeled.get("vpn-pptp", 0) >= 1


def test_native_vpn_full_tunnel_carries_domestic_traffic():
    """Domestic accesses detour through San Mateo — the paper's usability
    complaint about native VPN."""
    testbed, method = vpn_world()
    direct_rtt_world = Testbed()

    def measure(tb, connector):
        b = tb.browser(connector=connector)
        return tb.run_process(b.load(tb.domestic_page))

    detoured = measure(testbed, method.connector())
    direct = measure(direct_rtt_world, direct_rtt_world.direct_connector())
    assert detoured.succeeded and direct.succeeded
    assert detoured.plt > direct.plt * 3


def test_l2tp_flavor():
    testbed, method = vpn_world(flavor="l2tp")
    browser = testbed.browser(connector=method.connector())
    result = testbed.run_process(browser.load(testbed.scholar_page))
    assert result.succeeded
    assert testbed.gfw.stats.flows_labeled.get("vpn-l2tp", 0) >= 1


def test_unknown_flavor_rejected():
    with pytest.raises(TunnelError):
        NativeVpn(Testbed(), flavor="wireguard")


def test_vpn_blocked_when_policy_targets_vpn_class():
    """Footnote 2: during 2012-2015 the GFW blocked VPNs extensively."""
    testbed = Testbed()
    testbed.policy.set_interference("vpn-pptp", 0.5)
    method = NativeVpn(testbed)
    testbed.run_process(method.setup())
    browser = testbed.browser(connector=method.connector())
    result = testbed.run_process(browser.load(testbed.scholar_page))
    # Severe interference: the load crawls or dies outright.
    assert (not result.succeeded) or result.plt > 5.0


# -- OpenVPN -------------------------------------------------------------------------

def test_openvpn_reaches_blocked_scholar():
    testbed, method = vpn_world(OpenVpn)
    browser = testbed.browser(connector=method.connector())
    result = testbed.run_process(browser.load(testbed.scholar_page))
    assert result.succeeded, result.error


def test_openvpn_handshake_costs_time():
    _testbed, method = vpn_world(OpenVpn)
    assert method.handshake_time > 0.5  # TLS over a ~190 ms RTT


def test_openvpn_split_tunnel_leaves_domestic_traffic_alone():
    testbed, method = vpn_world(OpenVpn)
    assert method.client is not None
    browser = testbed.browser(connector=testbed.direct_connector())
    before = method.client.packets_tunneled
    result = testbed.run_process(browser.load(testbed.domestic_page))
    assert result.succeeded
    assert method.client.packets_tunneled == before


def test_openvpn_connector_requires_setup():
    with pytest.raises(TunnelError):
        OpenVpn(Testbed()).connector()


def test_vpn_multi_client_attachment():
    testbed = Testbed(extra_clients=2)
    method = NativeVpn(testbed)
    testbed.run_process(method.setup())

    def attach_and_load(sim, host):
        connector = yield from method.attach_client(host)
        from repro.http import Browser
        browser = Browser(sim, connector)
        result = yield sim.process(browser.load(testbed.scholar_page))
        return result

    for host in testbed.extra_clients:
        result = testbed.run_process(attach_and_load(testbed.sim, host))
        assert result.succeeded, result.error
