"""End-to-end tests of the ScholarCloud system against the GFW."""

import gc
import inspect

import pytest

from repro.core import ScholarCloud, evaluate_deployment, UserPopulation
from repro.errors import ConfigurationError, MiddlewareError
from repro.measure import Testbed
from repro.measure.load import drive_clients, install_workload
from repro.measure.scenarios import prepare
from repro.transport import TcpConnection


def sc_world(**kwargs):
    testbed = Testbed(**kwargs)
    system = ScholarCloud(testbed)
    testbed.run_process(system.deploy())
    return testbed, system


def test_scholarcloud_reaches_blocked_scholar():
    testbed, system = sc_world()
    browser = testbed.browser(connector=system.connector())
    result = testbed.run_process(browser.load(testbed.scholar_page))
    assert result.succeeded, result.error


def _connections(testbed):
    """Every connection in any transport table of ``testbed``."""
    return {conn for node in testbed.net.nodes.values()
            if getattr(node, "transport", None) is not None
            for conn in node.transport._connections.values()}


def _suspended_relays(sim):
    """Suspended ``relay`` generators reading a channel of ``sim``."""
    return [obj for obj in gc.get_objects()
            if inspect.isgenerator(obj) and obj.__name__ == "relay"
            and obj.gi_frame is not None
            and getattr(obj.gi_frame.f_locals.get("source"), "sim", None) is sim]


def test_a_closed_session_leaves_no_connection_and_no_relay():
    """Once the browser closes its pooled streams, the close travels
    from the browser to the origin and back through every hop: no
    connection of the session stays in any transport table, and no
    relay stays suspended."""
    testbed, system = sc_world()
    before = _connections(testbed)
    browser = testbed.browser(connector=system.connector())
    result = testbed.run_process(browser.load(testbed.scholar_page))
    assert result.succeeded, result.error
    assert _connections(testbed) - before
    assert _suspended_relays(testbed.sim)
    browser.clear_caches()
    testbed.sim.run(until=testbed.sim.now + 60.0)
    assert _connections(testbed) == before
    assert _suspended_relays(testbed.sim) == []


def _live_connections_after(cycles, clients=10):
    """Connections in the transport tables after a Figure 7
    ScholarCloud point of ``cycles`` measured loads per client."""
    world = prepare("scholarcloud", extra_clients=clients)
    testbed = world.testbed
    drive_clients(testbed.sim, testbed.extra_clients[:clients],
                  world.method.attach_client,
                  install_workload(testbed, "home"), cycles,
                  testbed.rng.stream("scalability-offsets"), "load")
    return len(_connections(testbed))


def test_live_connections_stay_flat_over_figure7_cycles():
    """Each client keeps its pooled streams; every stream it retires
    is closed end to end, so more cycles leave no more connections."""
    assert _live_connections_after(1) == _live_connections_after(3)


def test_connector_requires_deploy():
    with pytest.raises(MiddlewareError):
        ScholarCloud(Testbed()).connector()


def test_blinded_flows_stay_unclassified():
    testbed, system = sc_world()
    browser = testbed.browser(connector=system.connector())
    for _ in range(3):
        testbed.run_process(browser.load(testbed.scholar_page))
        testbed.sim.run(until=testbed.sim.now + 60)
    labeled = testbed.gfw.stats.flows_labeled
    assert "shadowsocks" not in labeled
    assert "tor-meek" not in labeled
    assert testbed.gfw.stats.sni_resets == 0


def test_non_whitelisted_host_refused_by_domestic_proxy():
    testbed, system = sc_world()

    def body(sim):
        connector = system.connector()
        stream = yield from connector.open("www.blocked.example", 443, True)
        return stream

    with pytest.raises(MiddlewareError):
        testbed.run_process(body(testbed.sim))
    assert system.domestic.refused == 1


def test_pac_routing_sends_only_whitelist_through_proxy():
    testbed, system = sc_world()
    browser = testbed.browser()  # direct by default
    system.apply_pac(browser)
    scholar = testbed.run_process(browser.load(testbed.scholar_page))
    control = testbed.run_process(browser.load(testbed.control_page))
    assert scholar.succeeded and control.succeeded
    # The domestic proxy only ever saw whitelisted streams.
    assert system.domestic.streams_served > 0
    assert system.domestic.refused == 0


def test_remote_proxy_survives_active_probing():
    """Blinding's probe resistance: garbage gets an HTTP decoy."""
    from repro.gfw import GfwConfig
    testbed = Testbed(gfw_config=GfwConfig(inside_name="border-cn",
                                           active_probing=True))
    system = ScholarCloud(testbed)
    testbed.run_process(system.deploy())
    browser = testbed.browser(connector=system.connector())
    testbed.run_process(browser.load(testbed.scholar_page))
    testbed.sim.run(until=testbed.sim.now + 120)
    from repro.net import IPv4Address
    assert not testbed.policy.ip_blocked(
        IPv4Address(str(testbed.remote_vm.address)))


def test_blinding_rotation_mid_flight_keeps_working():
    """§3: 'we can change our blinding mechanism at any time'."""
    testbed, system = sc_world()
    browser = testbed.browser(connector=system.connector())
    first = testbed.run_process(browser.load(testbed.scholar_page))
    epoch = system.rotate_blinding()
    assert epoch == 1
    testbed.sim.run(until=testbed.sim.now + 60)
    second = testbed.run_process(browser.load(testbed.scholar_page))
    assert first.succeeded and second.succeeded


def test_an_open_stream_keeps_its_codec_across_a_rotation():
    """A relayed stream pins the codec it opened with; the next stream
    opened after a rotation uses the new one.

    Frames keep the old codec's padded size in both directions, yet
    carry the current epoch, so the remote (which accepts only that
    one) keeps relaying.
    """
    from repro.measure import ECHO_PORT, SCHOLAR_HOST
    from repro.net import IP_HEADER, TCP_HEADER

    testbed, system = sc_world()
    capture = testbed.capture_border()
    connector = system.connector()
    old = system.agility.codec
    times = {}
    replies = []

    def ping(sim, stream, tags):
        for tag in tags:
            stream.send_message(64, meta=("ping", tag))
            replies.append((yield stream.recv_message()))
            yield sim.timeout(1.0)

    def body(sim):
        stream = yield from connector.open(SCHOLAR_HOST, ECHO_PORT,
                                           use_tls=False)
        yield from ping(sim, stream, range(2))
        times["rotated"] = sim.now
        system.rotate_blinding()
        yield from ping(sim, stream, range(2, 5))
        times["reopened"] = sim.now
        fresh = yield from connector.open(SCHOLAR_HOST, ECHO_PORT,
                                          use_tls=False)
        yield from ping(sim, fresh, [5])
        # The fresh stream's dial and open are behind it now.
        times["fresh"] = sim.now
        yield from ping(sim, fresh, [6])
        stream.close()
        fresh.close()

    testbed.run_process(body(testbed.sim))
    assert replies == [("echo", ("ping", i)) for i in range(7)]
    new = system.agility.codec
    # A length whose padding differs between the two epochs.
    assert old.pad_length(64) != new.pad_length(64)

    domestic = str(testbed.domestic_vm.address)

    def frame_sizes(since, until):
        """Blinded payload sizes crossing the border, by direction."""
        sizes = {"up": set(), "down": set()}
        for packet in capture.packets:
            payload = packet.size - IP_HEADER - TCP_HEADER
            if packet.protocol == "tcp" and payload > 0 \
                    and since < packet.time < until:
                sizes["up" if packet.src == domestic else "down"].add(payload)
        return sizes

    pinned = 64 + 4 + old.pad_length(64)
    assert frame_sizes(times["rotated"], times["reopened"]) == \
        {"up": {pinned}, "down": {pinned}}
    rotated = 64 + 4 + new.pad_length(64)
    assert frame_sizes(times["fresh"], float("inf")) == \
        {"up": {rotated}, "down": {rotated}}


def test_arms_race_new_classifier_defeated_by_rotation():
    """If the GFW learns the current blinded signature, rotating the
    codec (new padding profile) stales the classifier."""
    from repro.gfw import Classifier

    testbed, system = sc_world()

    class LearnedBlindClassifier(Classifier):
        """A GFW update keying on the epoch-0 padding profile."""
        name = "learned-blinded"

        def __init__(self, learned_jitter):
            self.learned_jitter = learned_jitter

        def classify(self, packet, state, policy):
            features = packet.features
            if (features.protocol_tag == "unclassified"
                    and getattr(packet.payload, "dport", None) == 443):
                # Matches only the learned padding generation.
                if system.agility.codec.jitter == self.learned_jitter:
                    return ("learned-blinded", 0.8)
            return None

    learned = LearnedBlindClassifier(system.agility.codec.jitter)
    testbed.gfw.classifiers.append(learned)
    testbed.policy.set_interference("learned-blinded", 0.30)

    browser = testbed.browser(connector=system.connector())
    slow = testbed.run_process(browser.load(testbed.scholar_page))
    system.rotate_blinding()  # operator response: new epoch
    testbed.sim.run(until=testbed.sim.now + 60)
    fast = testbed.run_process(browser.load(testbed.scholar_page))
    assert fast.succeeded
    # After rotation the classifier no longer matches, so no (new)
    # interference applies.
    assert fast.plt < max(slow.plt, 5.0)


def test_icp_registration_through_policy_stack():
    from repro.policy import RegulatoryEnvironment
    testbed, system = sc_world()
    environment = RegulatoryEnvironment(testbed.sim)
    number = system.register_icp(environment.registry)
    assert number.startswith("ICP-")
    registration = environment.registry.lookup(number)
    assert "scholar.google.com" in registration.whitelist
    # Approval lands after the review period.
    testbed.sim.run(until=testbed.sim.now + 40 * 86400)
    assert environment.registry.is_registered("scholar.thucloud.com")


# -- deployment economics ---------------------------------------------------------------

def test_deployment_matches_paper_cost():
    report = evaluate_deployment()
    assert report.daily_cost_usd == pytest.approx(2.2)
    assert report.sustainable
    assert report.cost_per_daily_user_usd < 0.01  # ~0.3 cents/user/day


def test_deployment_detects_overload():
    heavy = UserPopulation(registered=100_000, daily_active=50_000,
                           loads_per_user=40)
    report = evaluate_deployment(population=heavy)
    assert not report.sustainable


def test_deployment_validation():
    with pytest.raises(ConfigurationError):
        evaluate_deployment(vms=())
    with pytest.raises(ConfigurationError):
        evaluate_deployment(population=UserPopulation(daily_active=0))


def test_a_finalized_stream_open_closes_nothing(monkeypatch):
    """A stream open still waiting for the proxy's answer when its
    simulation ends is closed when its generator is freed, often by the
    cyclic collector during a later run.  It must then close nothing:
    the FIN would be queued on a simulator that has stopped, with a
    packet id taken from whatever runs next."""
    closes = []
    close = TcpConnection.close

    def counting_close(conn):
        closes.append(conn)
        close(conn)

    monkeypatch.setattr(TcpConnection, "close", counting_close)
    testbed, system = sc_world()
    # The domestic proxy restarts as a listener that never answers, so
    # the open waits for its ``sc-ready`` with the connection open.
    domestic = testbed.transport_of(testbed.domestic_vm)
    domestic.crash()
    domestic.listen_tcp(system.domestic_port, lambda conn: None)
    opening = system.connector().open_once("scholar.google.com", 443, True)
    sim = testbed.sim
    sim.process(opening)
    sim.run(until=sim.now + 5.0)
    (conn,) = [conn for conn in
               testbed.transport_of(testbed.client)._connections.values()
               if conn.remote_port == system.domestic_port]
    assert conn.state == "ESTABLISHED"
    seq = sim._seq
    opening.close()
    assert closes == []
    assert sim._seq == seq
    assert conn.state == "ESTABLISHED"
