"""Tests for the Great Firewall: poisoning, resets, DPI, probing."""

import pytest

from repro.dns.records import DnsRecord
from repro.dns.resolver import _CacheEntry
from repro.errors import ConnectionReset, ConnectionTimeout
from repro.gfw import (
    BlockPolicy,
    GfwConfig,
    MeekClassifier,
    ShadowsocksClassifier,
    default_china_policy,
)
from repro.gfw import flow_table
from repro.gfw.flow_table import (RECENT_TIMES_MAX, FlowState, FlowTable,
                                  canonical_flow)
from repro.measure import Testbed
from repro.net import OPAQUE_STREAM, WireFeatures


def prime_true_address(testbed):
    """Emulate a hosts-file entry with the genuine Scholar address."""
    testbed.resolver.cache["scholar.google.com"] = _CacheEntry(
        (DnsRecord("scholar.google.com", "A", "172.217.194.80", 1e9),),
        1e9, "NOERROR")


# -- policy ------------------------------------------------------------------

def test_policy_domain_matching():
    policy = default_china_policy()
    assert policy.domain_blocked("scholar.google.com")
    assert policy.domain_blocked("google.com")
    assert not policy.domain_blocked("notgoogle.com")
    assert not policy.domain_blocked(None)


def test_policy_unblock():
    policy = default_china_policy()
    policy.unblock_domain("google.com")
    assert not policy.domain_blocked("scholar.google.com")


def test_policy_keyword_hit():
    policy = default_china_policy()
    assert policy.keyword_hit("a page about FALUN practice") == "falun"
    assert policy.keyword_hit("weather in beijing") is None
    assert policy.keyword_hit("") is None


# -- flow table ------------------------------------------------------------------

def test_canonical_flow_is_direction_independent():
    forward = ("tcp", "1.1.1.1", 1000, "2.2.2.2", 80)
    reverse = ("tcp", "2.2.2.2", 80, "1.1.1.1", 1000)
    assert canonical_flow(forward) == canonical_flow(reverse)
    assert canonical_flow(None) is None


def test_flow_table_accumulates_and_penalizes():
    table = FlowTable()
    flow = ("tcp", "1.1.1.1", 1000, "2.2.2.2", 80)
    state = table.observe(flow, 100, now=1.0)
    table.observe(flow, 200, now=2.0)
    assert state.packets == 2 and state.bytes == 300
    assert not table.penalized("1.1.1.1", "2.2.2.2", now=1.0)
    table.penalize("1.1.1.1", "2.2.2.2", until=10.0)
    assert table.penalized("1.1.1.1", "2.2.2.2", now=5.0)
    assert table.penalized("2.2.2.2", "1.1.1.1", now=5.0)
    assert not table.penalized("1.1.1.1", "3.3.3.3", now=5.0)
    assert not table.penalized("1.1.1.1", "2.2.2.2", now=11.0)


def test_flow_state_is_slotted_and_samples_no_times_until_asked():
    state = FlowState(key=("tcp", "a", 1, "b", 2), first_seen=3.0)
    assert not hasattr(state, "__dict__")
    assert (state.key, state.first_seen, state.packets, state.bytes,
            state.label, state.confidence, state.probed,
            state.last_seen) == (("tcp", "a", 1, "b", 2), 3.0, 0, 0, None,
                                 0.0, False, 0.0)
    assert list(state.recent_times) == [] and -1.0 not in state.recent_times
    state.record_time(-1.0)
    for sample in range(100):
        state.record_time(float(sample))
    assert len(state.recent_times) == RECENT_TIMES_MAX
    assert list(state.recent_times)[-1] == 99.0


def test_both_directions_of_a_flow_reach_one_state():
    table = FlowTable()
    forward = ("tcp", "1.1.1.1", 1000, "2.2.2.2", 80)
    reverse = ("tcp", "2.2.2.2", 80, "1.1.1.1", 1000)
    state = table.observe(forward, 100, now=1.0)
    assert table.get(reverse) is state  # not yet seen in this direction
    assert table.observe(reverse, 40, now=2.0) is state
    assert table.observe_bulk(forward, 3, 4000, now=3.0) is state
    assert (state.packets, state.bytes, state.last_seen) == (5, 4140, 3.0)
    assert table.get(forward) is table.get(reverse) is state
    assert state.key == canonical_flow(forward) and len(table) == 1
    assert table.observe(None, 100, now=4.0) is None
    assert table.get(None) is None


def test_eviction_rebuilds_the_direction_index(monkeypatch):
    monkeypatch.setattr(flow_table, "MAX_FLOWS", 3)
    table = FlowTable()
    idle = ("tcp", "1.1.1.1", 1000, "2.2.2.2", 80)
    busy = ("tcp", "1.1.1.1", 1001, "2.2.2.2", 80)
    table.observe(idle, 100, now=0.0)
    table.observe(("tcp", "2.2.2.2", 80, "1.1.1.1", 1000), 100, now=0.0)
    table.observe(busy, 100, now=0.0)
    table.observe(("tcp", "3.3.3.3", 5, "2.2.2.2", 80), 100, now=0.0)
    table.observe(busy, 100, now=200.0)
    fresh = table.observe(("tcp", "4.4.4.4", 6, "2.2.2.2", 80), 100,
                          now=200.0)
    assert set(table._flows.values()) == {table.get(busy), fresh}
    assert set(table._index) == {busy, ("tcp", "4.4.4.4", 6, "2.2.2.2", 80)}
    assert set(table._index.values()) == set(table._flows.values())
    # An evicted flow starts again from nothing.
    again = table.observe(idle, 100, now=201.0)
    assert again.packets == 1 and again.first_seen == 201.0


# -- end-to-end blocking -------------------------------------------------------------

def test_dns_poisoning_blackholes_direct_access():
    testbed = Testbed()
    result = testbed.run_process(testbed.browser().load(testbed.scholar_page))
    assert not result.succeeded
    assert "Timeout" in result.error or "Reset" in result.error
    assert testbed.gfw.stats.dns_injections >= 1


def test_sni_reset_kills_hosts_file_bypass():
    testbed = Testbed()
    prime_true_address(testbed)
    result = testbed.run_process(testbed.browser().load(testbed.scholar_page))
    assert not result.succeeded
    assert testbed.gfw.stats.sni_resets >= 1


def test_control_site_unaffected():
    testbed = Testbed()
    result = testbed.run_process(testbed.browser().load(testbed.control_page))
    assert result.succeeded, result.error


def test_gfw_disabled_restores_scholar_access():
    testbed = Testbed(gfw_enabled=False)
    result = testbed.run_process(testbed.browser().load(testbed.scholar_page))
    assert result.succeeded, result.error


def test_ip_blocking_blackholes_even_good_dns():
    testbed = Testbed()
    testbed.policy.unblock_domain("google.com")  # DNS now resolves truly
    testbed.policy.block_ip("172.217.194.80")

    result = testbed.run_process(testbed.browser().load(testbed.scholar_page))
    assert not result.succeeded
    assert testbed.gfw.stats.ip_blocked > 0


def test_keyword_filter_resets_and_penalizes():
    testbed = Testbed()

    def body(sim):
        transport = testbed.transport_of(testbed.client)
        conn = yield transport.connect_tcp("93.184.216.34", 80)
        conn.send_message(
            200, meta="query",
            features=WireFeatures(protocol_tag="plain-http",
                                  plaintext="search falun news"))
        yield conn.recv_message()

    with pytest.raises(ConnectionReset):
        testbed.run_process(body(testbed.sim))
    assert testbed.gfw.stats.keyword_resets == 1

    # Within the penalty window even innocent traffic between the pair dies.
    def body2(sim):
        transport = testbed.transport_of(testbed.client)
        conn = yield transport.connect_tcp("93.184.216.34", 80, timeout=20.0)
        return conn

    with pytest.raises((ConnectionReset, ConnectionTimeout)):
        testbed.run_process(body2(testbed.sim))


def test_keyword_penalty_expires():
    testbed = Testbed()

    def trigger(sim):
        transport = testbed.transport_of(testbed.client)
        conn = yield transport.connect_tcp("93.184.216.34", 80)
        try:
            conn.send_message(
                200, meta="query",
                features=WireFeatures(protocol_tag="plain-http",
                                      plaintext="falun"))
            yield conn.recv_message()
        except ConnectionReset:
            pass
        yield sim.timeout(120.0)  # outlive the 90 s penalty
        conn2 = yield transport.connect_tcp("93.184.216.34", 80, timeout=20.0)
        return conn2.state

    assert testbed.run_process(trigger(testbed.sim)) == "ESTABLISHED"


# -- DPI classifiers ----------------------------------------------------------------------

def make_state():
    return FlowState(key=("tcp", "a", 1, "b", 2), first_seen=0.0)


def test_shadowsocks_classifier_needs_all_three_features():
    classifier = ShadowsocksClassifier()
    policy = BlockPolicy()

    class FakePacket:
        def __init__(self, features):
            self.features = features

    ss_like = WireFeatures(protocol_tag="unknown-stream", entropy=8.0,
                           length_signature=83)
    assert classifier.classify(FakePacket(ss_like), make_state(), policy) \
        == ("shadowsocks", 0.75)

    no_signature = WireFeatures(protocol_tag="unknown-stream", entropy=8.0,
                                length_signature=None)
    assert classifier.classify(FakePacket(no_signature), make_state(), policy) is None

    low_entropy = WireFeatures(protocol_tag="unknown-stream", entropy=4.0,
                               length_signature=83)
    assert classifier.classify(FakePacket(low_entropy), make_state(), policy) is None

    framed = WireFeatures(protocol_tag="tls", entropy=8.0, length_signature=83)
    assert classifier.classify(FakePacket(framed), make_state(), policy) is None


def test_meek_classifier_requires_front_and_cadence():
    classifier = MeekClassifier(min_polls=3)
    policy = BlockPolicy()
    state = make_state()

    class FakePacket:
        def __init__(self, features, size=300):
            self.features = features
            self.size = size

    hello = WireFeatures(protocol_tag="tls", handshake=True,
                         sni="cdn.azureedge.example")
    assert classifier.classify(FakePacket(hello), state, policy) is None
    poll = WireFeatures(protocol_tag="tls", entropy=7.9)
    results = [classifier.classify(FakePacket(poll), state, policy)
               for _ in range(4)]
    assert ("tor-meek", 0.9) in results

    # Without the front-domain handshake, cadence alone is not enough.
    fresh = make_state()
    assert all(
        classifier.classify(FakePacket(poll), fresh, policy) is None
        for _ in range(6))


def test_the_firewall_labels_a_polling_flow_and_samples_only_it():
    """Through ``GreatFirewall.process``: a flow whose handshake names a
    meek front is labelled ``tor-meek`` once it has polled, and a TLS
    flow to any other name records no timestamp, so it holds no deque."""
    from repro.gfw.firewall import GreatFirewall
    from repro.net import IPv4Address, Packet
    from repro.sim import Simulator

    gfw = GreatFirewall(Simulator(seed=0), BlockPolicy(),
                        config=GfwConfig(dns_poisoning=False))

    def send(flow, size, **features):
        gfw.process(Packet(src=IPv4Address("10.0.0.1"),
                           dst=IPv4Address("47.88.1.100"), protocol="tcp",
                           payload=None, size=size,
                           features=WireFeatures(protocol_tag="tls",
                                                 **features),
                           flow=flow), None, None)

    meek = ("tcp", "10.0.0.1", 40000, "47.88.1.100", 443)
    plain = ("tcp", "10.0.0.1", 40001, "47.88.1.100", 443)
    for flow, sni in ((meek, "cdn.azureedge.example"), (plain, "cdn.example")):
        send(flow, 300, handshake=True, sni=sni)
        for _ in range(4):
            send(flow, 300, entropy=7.9)
    meek_state, plain_state = gfw.flows.get(meek), gfw.flows.get(plain)
    assert meek_state.label == "tor-meek"
    assert -1.0 in meek_state.recent_times
    assert plain_state.label is None and plain_state.recent_times == ()


def test_interference_drops_scale_with_label():
    """Flows labeled tor-meek lose far more packets than unlabeled ones."""
    testbed = Testbed()
    transport = testbed.transport_of(testbed.client)
    meek_features = WireFeatures(protocol_tag="tls", entropy=7.9)

    def body(sim):
        conn = yield transport.connect_tcp(
            "47.88.1.100", 443,
            features=WireFeatures(protocol_tag="tls", handshake=True,
                                  sni="cdn.azureedge.example"))
        for _ in range(200):
            conn.send_message(400, meta="poll", features=meek_features)
            yield sim.timeout(0.1)
        yield sim.timeout(5.0)
        return conn

    testbed.transport_of(testbed.remote_vm).listen_tcp(443, lambda c: None)
    testbed.run_process(body(testbed.sim))
    assert testbed.gfw.stats.flows_labeled.get("tor-meek", 0) >= 1
    assert testbed.gfw.stats.interference_drops > 0


# -- active probing ----------------------------------------------------------------------------

def probe_world(personality):
    """A testbed with a server that hangs / answers / resets on garbage."""
    testbed = Testbed(gfw_config=GfwConfig(inside_name="border-cn",
                                           active_probing=True))
    transport = testbed.transport_of(testbed.remote_vm)

    def acceptor(conn):
        def server(sim, conn):
            while True:
                meta = yield conn.recv_message()
                if meta is None:
                    return
                if personality == "hang":
                    continue  # classic Shadowsocks: swallow garbage forever
                if personality == "http":
                    conn.send_message(400, meta=("http-400",))
                elif personality == "rst":
                    conn.abort()
                    return
        testbed.sim.process(server(testbed.sim, conn))
    transport.listen_tcp(8388, acceptor)
    return testbed


def drive_ss_like_flow(testbed):
    """Send a Shadowsocks-shaped flow to trigger suspicion."""
    transport = testbed.transport_of(testbed.client)

    def body(sim):
        conn = yield transport.connect_tcp("47.88.1.100", 8388,
                                           features=OPAQUE_STREAM)
        first = WireFeatures(protocol_tag="unknown-stream", entropy=8.0,
                             length_signature=83)
        conn.send_message(83, meta="ss-request", features=first)
        for _ in range(5):
            conn.send_message(600, meta="data", features=OPAQUE_STREAM)
            yield sim.timeout(0.2)
        yield sim.timeout(60.0)  # leave room for the probe

    testbed.run_process(body(testbed.sim))


def test_active_probe_confirms_and_blocks_hanging_proxy():
    testbed = probe_world("hang")
    drive_ss_like_flow(testbed)
    assert testbed.gfw.stats.probes_dispatched == 1
    assert testbed.prober.results and testbed.prober.results[0].confirmed
    from repro.net import IPv4Address
    assert testbed.policy.ip_blocked(IPv4Address("47.88.1.100"))


def test_active_probe_spares_http_like_server():
    testbed = probe_world("http")
    drive_ss_like_flow(testbed)
    assert testbed.gfw.stats.probes_dispatched == 1
    assert testbed.prober.results and not testbed.prober.results[0].confirmed
    from repro.net import IPv4Address
    assert not testbed.policy.ip_blocked(IPv4Address("47.88.1.100"))


def test_probing_disabled_by_default():
    testbed = probe_world("hang")
    testbed.gfw_config.active_probing = False
    drive_ss_like_flow(testbed)
    assert testbed.gfw.stats.probes_dispatched == 0
