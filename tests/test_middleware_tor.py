"""Tests for Tor: cells, relays, meek, circuit, and GFW interaction."""

import pytest

from repro.errors import MiddlewareError
from repro.measure import Testbed
from repro.measure.testbed import SCHOLAR_HOST
from repro.middleware.tor import TorMethod, cells_for, wire_bytes
from repro.middleware.tor.cells import CELL_PAYLOAD, CELL_SIZE


def tor_world(**kwargs):
    testbed = Testbed()
    method = TorMethod(testbed, **kwargs)
    testbed.run_process(method.setup())
    return testbed, method


# -- cell arithmetic -------------------------------------------------------------

def test_cells_for_boundaries():
    assert cells_for(0) == 1
    assert cells_for(1) == 1
    assert cells_for(CELL_PAYLOAD) == 1
    assert cells_for(CELL_PAYLOAD + 1) == 2


def test_wire_bytes_are_cell_padded():
    assert wire_bytes(1) == CELL_SIZE
    assert wire_bytes(CELL_PAYLOAD * 3) == 3 * CELL_SIZE
    # Padding is the overhead source: always >= payload.
    assert wire_bytes(100) > 100


# -- bootstrap & page loads -----------------------------------------------------------

def test_tor_bootstraps_and_loads_scholar():
    testbed, method = tor_world()
    assert method.connected
    assert method.bootstrap_time > 2.0  # directory + 3 sequential hops
    browser = testbed.browser(connector=method.connector())
    result = testbed.run_process(browser.load(testbed.scholar_page))
    assert result.succeeded, result.error


def test_tor_connector_requires_bootstrap():
    with pytest.raises(MiddlewareError):
        TorMethod(Testbed()).connector()


def test_tor_first_time_plt_dominates_subsequent():
    testbed, method = tor_world()
    browser = testbed.browser(connector=method.connector())
    first = testbed.run_process(browser.load(testbed.scholar_page))
    testbed.sim.run(until=testbed.sim.now + 60)
    second = testbed.run_process(browser.load(testbed.scholar_page))
    first_total = method.bootstrap_time + first.plt
    assert first_total > 2 * second.plt  # the paper reports 5.4x


def test_gfw_classifies_meek_and_interferes():
    testbed, method = tor_world()
    browser = testbed.browser(connector=method.connector())
    for _ in range(3):
        testbed.run_process(browser.load(testbed.scholar_page))
        testbed.sim.run(until=testbed.sim.now + 60)
    assert testbed.gfw.stats.flows_labeled.get("tor-meek", 0) >= 1
    assert testbed.gfw.stats.interference_drops > 0


def test_tor_resolves_at_exit_bypassing_poisoning():
    """Tor never does client-side DNS, so poisoning can't touch it."""
    testbed, method = tor_world()
    injections_before = testbed.gfw.poisoner.injections
    browser = testbed.browser(connector=method.connector())
    result = testbed.run_process(browser.load(testbed.scholar_page))
    assert result.succeeded
    # The only injection candidates were the meek front lookup
    # (unblocked domain), so no new injections fired for scholar.
    assert testbed.gfw.poisoner.injections == injections_before


def test_tor_stream_refused_for_unreachable_target():
    testbed, method = tor_world()

    def body(sim):
        connector = method.connector()
        stream = yield from connector.open("no-such-host.example", 80,
                                           use_tls=False)
        return stream

    with pytest.raises(MiddlewareError):
        testbed.run_process(body(testbed.sim))


def test_tor_has_no_scalability_attachment():
    """The paper excludes Tor from Figure 7: no bridge control."""
    testbed, method = tor_world()
    with pytest.raises(NotImplementedError):
        list(method.attach_client(testbed.client))


def test_meek_polls_are_counted():
    testbed, method = tor_world()
    assert method.meek is not None
    polls_after_bootstrap = method.meek.polls_sent
    assert polls_after_bootstrap > 0
    browser = testbed.browser(connector=method.connector())
    testbed.run_process(browser.load(testbed.scholar_page))
    assert method.meek.polls_sent > polls_after_bootstrap


# -- how the relayed legs end -------------------------------------------------

def test_exit_stream_reads_the_reply_then_eof():
    """A target that replies once and closes: the exit relays the reply
    as a DATA cell and the close as the stream's END."""
    testbed, method = tor_world()

    def reply_once(conn):
        conn.send_message(100, meta="hello")
        conn.close()

    testbed.transport_of(testbed.scholar_origin).listen_tcp(7000, reply_once)

    def body(sim):
        channel = yield from method.open_stream(SCHOLAR_HOST, 7000)
        reply = yield channel.recv_message()
        end = yield channel.recv_message()
        return reply, end

    assert testbed.run_process(body(testbed.sim)) == ("hello", None)


def test_a_stream_the_client_ended_gets_no_end_back():
    """The client's END closes the exit's target connection, and the
    target closes in answer; the exit sends no END back for that
    stream, since the client already ended it."""
    testbed, method = tor_world()
    sim = testbed.sim
    target_closed = []

    def close_on_eof(conn):
        def serve(sim):
            while (yield conn.recv_message()) is not None:
                pass
            conn.close()
            target_closed.append(conn)
        sim.process(serve(sim))

    testbed.transport_of(testbed.scholar_origin).listen_tcp(7000, close_on_eof)
    ends = []
    end_stream = method._end_stream

    def record_end(payload):
        ends.append(payload.get("stream"))
        end_stream(payload)

    method._end_stream = record_end

    def body(sim):
        channel = yield from method.open_stream(SCHOLAR_HOST, 7000)
        channel.send_message(100, meta="hello")
        yield sim.timeout(5.0)
        channel.close()
        return channel.stream_id

    stream_id = testbed.run_process(body(sim))
    sim.run(until=sim.now + 30.0)
    assert target_closed
    assert stream_id not in ends


def test_backward_leg_end_closes_the_client_link():
    """The middle relay closes its client link: the bridge's backward
    leg sees EOF and closes the bridge's own client link."""
    testbed, method = tor_world()
    (bridge_circuit,) = method.network.bridge._circuits.values()
    (middle_circuit,) = method.network.middle._circuits.values()
    assert bridge_circuit.upstream.state == "ESTABLISHED"
    middle_circuit.upstream.close()
    testbed.sim.run(until=testbed.sim.now + 5.0)
    assert bridge_circuit.upstream.state == "CLOSED"


def test_meek_front_keeps_answering_polls_after_the_bridge_leg_ends():
    """The bridge leg's EOF reaches the front's queue as a sentinel,
    which a poll skips rather than sends."""
    testbed, method = tor_world()
    (bridge_circuit,) = method.network.bridge._circuits.values()
    bridge_circuit.upstream.close()  # the front's bridge leg gets EOF
    polls = method.meek.polls_sent
    testbed.sim.run(until=testbed.sim.now + 30.0)
    # Each poll waits for its answer, so a second poll means the first
    # was answered.
    assert method.meek.polls_sent >= polls + 2
    assert method.meek.state == "ESTABLISHED"
