"""Tests for the TCP model: handshake, transfer, loss recovery, reset."""

import gc
import tracemalloc

import pytest

from repro.errors import (ConnectionReset, ConnectionTimeout, SimulationError,
                          TransportError)
from repro.middleware.base import Inbox
from repro.net import IPv4Address, MSS, Network, Packet, Verdict, WireFeatures
from repro.net.middlebox import Middlebox
from repro.perf.fluid import PathHop, PathModel
from repro.sim import Simulator
from repro.sim.events import Call
from repro.transport import TcpConnection, install_transport
from repro.transport.tcp import (ACK_FLAGS, ACK_SIZE, RST_FLAGS, SYN_ACK_FLAGS,
                                 Segment)
from repro.units import Mbps, ms


def two_hosts(loss=0.0, latency=ms(50)):
    sim = Simulator()
    net = Network(sim)
    a = net.add_host("a", address="10.0.0.1")
    b = net.add_host("b", address="203.0.113.1")
    link = net.connect(a, b, latency=latency, bandwidth=Mbps(100), loss=loss)
    net.build_routes()
    ta = install_transport(sim, a)
    tb = install_transport(sim, b)
    return sim, net, ta, tb, link


def echo_acceptor(sim):
    """Accept connections and echo back every message meta."""
    def acceptor(conn):
        def server(sim, conn):
            while True:
                meta = yield conn.recv_message()
                if meta is None:
                    return
                conn.send_message(100, meta=("echo", meta))
        sim.process(server(sim, conn), name="echo-server")
    return acceptor


def test_connect_takes_one_rtt():
    sim, _net, ta, tb, _link = two_hosts()
    tb.listen_tcp(80, lambda conn: None)

    def client(sim):
        conn = yield ta.connect_tcp("203.0.113.1", 80)
        return (sim.now, conn.state)

    when, state = sim.run(until=sim.process(client(sim)))
    assert state == "ESTABLISHED"
    assert when == pytest.approx(2 * ms(50), rel=0.01)


def test_connect_refused_when_no_listener():
    sim, _net, ta, _tb, _link = two_hosts()

    def client(sim):
        yield ta.connect_tcp("203.0.113.1", 81)

    with pytest.raises(ConnectionReset):
        sim.run(until=sim.process(client(sim)))


class Blackhole(Middlebox):
    name = "blackhole"

    def process(self, packet, direction, link):
        return Verdict.DROP


def test_connect_timeout_on_blackhole():
    sim, _net, ta, _tb, link = two_hosts()
    link.add_middlebox(Blackhole())

    def client(sim):
        yield ta.connect_tcp("203.0.113.1", 80, timeout=5.0)

    with pytest.raises(ConnectionTimeout):
        sim.run(until=sim.process(client(sim)))


def test_message_roundtrip():
    sim, _net, ta, tb, _link = two_hosts()
    tb.listen_tcp(80, echo_acceptor(sim))

    def client(sim):
        conn = yield ta.connect_tcp("203.0.113.1", 80)
        conn.send_message(500, meta="hello")
        reply = yield conn.recv_message()
        return reply

    assert sim.run(until=sim.process(client(sim))) == ("echo", "hello")


def test_large_transfer_is_complete_and_ordered():
    sim, _net, ta, tb, _link = two_hosts()
    got = []

    def acceptor(conn):
        def server(sim, conn):
            while True:
                meta = yield conn.recv_message()
                if meta is None:
                    return
                got.append(meta)
        sim.process(server(sim, conn))
    tb.listen_tcp(80, acceptor)

    def client(sim):
        conn = yield ta.connect_tcp("203.0.113.1", 80)
        for i in range(10):
            conn.send_message(50_000, meta=i)
        # Wait for everything to flush.
        yield sim.timeout(30.0)

    sim.run(until=sim.process(client(sim)))
    assert got == list(range(10))


def test_send_state_stays_bounded_over_many_messages():
    """Acknowledged message boundaries are dropped, so a long-lived
    connection's send state follows its window, not its history."""
    sim, _net, ta, tb, _link = two_hosts(loss=0.01)
    got = []

    def acceptor(conn):
        def server(sim, conn):
            while True:
                meta = yield conn.recv_message()
                if meta is None:
                    return
                got.append(meta)
        sim.process(server(sim, conn))
    tb.listen_tcp(80, acceptor)
    features = WireFeatures(protocol_tag="tls", entropy=7.9)

    def client(sim):
        conn = yield ta.connect_tcp("203.0.113.1", 80)
        buffer = conn._send_buffer
        for burst in range(100):
            for i in range(100):
                conn.send_message(700, meta=burst * 100 + i, features=features)
            yield sim.timeout(1.0)
            assert all(offset > conn._snd_una
                       for offset, _meta in buffer._boundaries)
        yield sim.timeout(30.0)
        return conn

    conn = sim.run(until=sim.process(client(sim)))
    assert got == list(range(10_000))
    assert conn.retransmissions > 0
    assert len(conn._send_buffer._boundaries) <= len(conn._in_flight)
    assert len(conn._send_buffer._features) <= len(conn._in_flight)


def _open_and_close(sim, ta, count):
    """Open ``count`` connections that each send one message and close
    in order; return the bytes tracemalloc holds once all are done."""
    def client(sim):
        conn = yield ta.connect_tcp("203.0.113.1", 80)
        conn.send_message(100, meta="hello")
        conn.close()

    for _ in range(count):
        sim.process(client(sim))
    sim.run()
    gc.collect()
    return tracemalloc.get_traced_memory()[0]


def test_orderly_closed_connections_stay_compact():
    """A closed connection the application still holds (here, the
    server's ``eofs``) keeps little, and a pooled one as little, so
    what one keeps is paid per live session.  The bound sits between the
    3.6-3.7 KB a closed pair kept on CPython 3.9-3.12 with slotted
    connections and list-backed inboxes, while the transport kept both
    halves, and the 7.5-9.4 KB it kept with instance dicts and deques;
    now that the transport forgets them, only the held server half
    remains (about 1.5 KB on CPython 3.11)."""
    pairs = 200
    sim, _net, ta, tb, _link = two_hosts()
    eofs = []

    def server(sim, conn):
        while (yield conn.recv_message()) is not None:
            pass
        eofs.append(conn)
        conn.close()

    tb.listen_tcp(80, lambda conn: sim.process(server(sim, conn)))
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        # One pair first, so one-time allocations stay out of the delta.
        before = _open_and_close(sim, ta, 1)
        after = _open_and_close(sim, ta, pairs)
    finally:
        if not was_tracing:
            tracemalloc.stop()
    assert len(eofs) == pairs + 1
    assert all(conn.state == "CLOSED" and conn._fin_acked for conn in eofs)
    assert (after - before) / pairs < 5000


def test_per_connection_state_has_no_instance_dict():
    sim, _net, ta, tb, link = two_hosts()
    tb.listen_tcp(80, lambda conn: None)

    def client(sim):
        return (yield ta.connect_tcp("203.0.113.1", 80))

    conn = sim.run(until=sim.process(client(sim)))
    hop = PathHop(link, ta.host, tb.host)
    path = PathModel((hop,), latency=ms(50), bottleneck_bw=Mbps(100),
                     firewalls=())
    # What every segment and hop builds: the sent data's in-flight
    # entries and segments, and the packets queued as arrival events,
    # which carry their receiver and link in declared slots.
    conn.send_message(3 * MSS, meta="data")
    entry = next(iter(conn._in_flight.values()))
    packets = [event for _when, _priority, _seq, event in sim._queue
               if isinstance(event, Packet)]
    assert packets and all(packet._link is link for packet in packets)
    assert {"_receiver", "_link"} <= set(Packet.__slots__)
    # A proxied stream holds its relay's Inbox for its whole life.
    for instance in (conn, conn._send_buffer, conn._inbox, Inbox(sim), hop,
                     path, entry, entry.segment, packets[0]):
        assert not hasattr(instance, "__dict__"), type(instance).__name__


def _in_flight_without_acks(segments):
    """A connection with ``segments`` full segments in flight, sent at
    0.1 s, and a link that drops everything from then on, so only the
    ACKs a test hands to ``_process_ack`` arrive."""
    sim, _net, ta, tb, link = two_hosts()
    tb.listen_tcp(80, lambda conn: None)

    def client(sim):
        return (yield ta.connect_tcp("203.0.113.1", 80))

    conn = sim.run(until=sim.process(client(sim)))
    link.add_middlebox(Blackhole())
    conn.send_message(segments * MSS, meta="data")
    assert list(conn._in_flight) == [i * MSS for i in range(segments)]
    return sim, conn


def test_a_cumulative_ack_pops_exactly_the_segments_it_covers():
    """Three covered segments, the second retransmitted: all three
    leave, the RTT sample comes only from segments sent once (Karn's
    rule), and the window grows once per covered segment."""
    sim, conn = _in_flight_without_acks(5)
    sent_at = sim.now
    sim.run(until=sent_at + 0.05)
    conn._transmit_range(MSS, MSS, retransmission=True)
    sim.run(until=sent_at + 0.25)
    srtt, rttvar, cwnd = conn._srtt, conn._rttvar, conn._cwnd
    assert conn._in_flight[MSS].retransmitted

    conn._process_ack(3 * MSS)

    assert list(conn._in_flight) == [3 * MSS, 4 * MSS]
    assert conn._snd_una == 3 * MSS
    assert conn._cwnd == cwnd + 3.0  # slow start: one per segment
    sample = sim.now - sent_at  # 0.25 s; the retransmission's is 0.2 s
    assert conn._rttvar == 0.75 * rttvar + 0.25 * abs(srtt - sample)
    assert conn._srtt == 0.875 * srtt + 0.125 * sample


def test_an_ack_ending_inside_a_segment_leaves_it_in_flight():
    sim, conn = _in_flight_without_acks(3)
    sim.run(until=sim.now + 0.05)

    conn._process_ack(MSS + 100)

    assert list(conn._in_flight) == [MSS, 2 * MSS]
    assert conn._snd_una == MSS + 100


class _Spy(Middlebox):
    """Records every data segment and drops the ones it is told to, once."""

    name = "spy"

    def __init__(self, drop_once=()):
        self.data = []
        self.drop_once = set(drop_once)

    def process(self, packet, direction, link):
        segment = packet.payload
        if segment.length > 0:
            self.data.append(segment)
            if segment.seq in self.drop_once:
                self.drop_once.discard(segment.seq)
                return Verdict.DROP
        return Verdict.PASS


def _receive_all(sim, tb, got):
    """Listen on port 80 and record ``(bytes received, meta)`` for every
    message delivered."""
    def server(sim, conn):
        while True:
            meta = yield conn.recv_message()
            if meta is None:
                return
            got.append((conn.bytes_received, meta))
    tb.listen_tcp(80, lambda conn: sim.process(server(sim, conn)))


def test_messages_ending_in_one_segment_are_delivered_in_order():
    sim, _net, ta, tb, link = two_hosts()
    spy = _Spy()
    link.add_middlebox(spy)
    got = []
    _receive_all(sim, tb, got)
    connected = ta.connect_tcp("203.0.113.1", 80)
    (conn,) = ta._connections.values()
    # Queued before the handshake ends, so they leave as one segment.
    for meta in ("a", "b", "c"):
        conn.send_message(100, meta=meta)
    sim.run(until=connected)
    sim.run(until=sim.now + 1.0)

    assert [len(segment.message_ends) for segment in spy.data] == [3]
    assert got == [(300, "a"), (300, "b"), (300, "c")]


def test_a_message_spanning_segments_is_delivered_once_with_its_last_byte():
    """The middle segment is lost once, so the last one waits out of
    order; the message is delivered once the hole is filled."""
    sim, _net, ta, tb, link = two_hosts()
    spy = _Spy(drop_once={MSS})
    link.add_middlebox(spy)
    got = []
    _receive_all(sim, tb, got)

    def client(sim):
        conn = yield ta.connect_tcp("203.0.113.1", 80)
        conn.send_message(3 * MSS - 100, meta="spans")
        yield sim.timeout(5.0)

    sim.run(until=sim.process(client(sim)))
    assert [segment.seq for segment in spy.data] == [0, MSS, 2 * MSS, MSS]
    assert [segment.message_ends for segment in spy.data[:3]] == [
        (), (), ((3 * MSS - 100, "spans"),)]
    assert got == [(3 * MSS - 100, "spans")]


def test_transfer_survives_heavy_loss():
    """20% random loss: the transfer completes via retransmission."""
    sim, _net, ta, tb, _link = two_hosts(loss=0.20)
    got = []

    def acceptor(conn):
        def server(sim, conn):
            meta = yield conn.recv_message()
            got.append((sim.now, meta))
        sim.process(server(sim, conn))
    tb.listen_tcp(80, acceptor)

    def client(sim):
        conn = yield ta.connect_tcp("203.0.113.1", 80)
        conn.send_message(100_000, meta="bulk")
        yield sim.timeout(300.0)
        return conn.retransmissions

    retransmissions = sim.run(until=sim.process(client(sim)))
    assert got and got[0][1] == "bulk"
    assert retransmissions > 0


def _retransmission_instants(sim, host):
    """Record ``sim.now`` each time ``host`` resends a data segment."""
    sent = set()
    instants = []

    def hook(packet):
        segment = packet.payload
        if segment.length > 0:
            if segment.seq in sent:
                instants.append(sim.now)
            sent.add(segment.seq)
        return packet
    host.outbound_hooks.append(hook)
    return instants


def _queued_timers(sim):
    """Queued calls (packets in flight queue themselves): here, the TCP
    timers (the SYN timer, RTO and delayed ACK) and the test's link
    flaps."""
    return sum(1 for *_key, event in sim._queue if isinstance(event, Call))


def _bulk_transfer(size, loss=0.0, flap=None):
    """One ``size``-byte message over one link; step the run by hand
    and return what the timer tests read."""
    sim, _net, ta, tb, link = two_hosts(loss=loss)
    instants = _retransmission_instants(sim, ta.host)
    got = []

    def acceptor(conn):
        def server(sim, conn):
            meta = yield conn.recv_message()
            got.append((sim.now, meta))
        sim.process(server(sim, conn))
    tb.listen_tcp(80, acceptor)

    def client(sim):
        conn = yield ta.connect_tcp("203.0.113.1", 80)
        conn.send_message(size, meta="bulk")
        yield sim.timeout(120.0)
        return conn

    if flap is not None:
        down, up = flap
        sim.schedule(down, link.set_up, False)
        sim.schedule(up, link.set_up, True)
    done = sim.process(client(sim))
    steps = peak_timers = 0
    while not done.processed:
        sim.step()
        steps += 1
        peak_timers = max(peak_timers, _queued_timers(sim))
    return sim, done.value, got, instants, steps, peak_timers


def test_rto_and_delayed_ack_keep_a_bounded_number_of_events_queued():
    """A 1 MB transfer over a 1%-loss link re-arms its RTO on every
    segment and ACK; one queued event per timer chases the deadline
    instead of one event per arm (an eager timer queued up to 104)."""
    sim, conn, got, _instants, steps, peak_timers = _bulk_transfer(
        1_000_000, loss=0.01)
    assert got and got[0][1] == "bulk"
    assert conn.retransmissions > 0
    # Client RTO + server delayed ACK, a superseded event or two, and
    # the SYN timer until it fires idly at 1 s.
    assert peak_timers <= 5
    assert sim._seq == steps + len(sim._queue)


# Retransmission instants recorded with an RTO and a delayed-ACK event
# queued on every arm; the lazy timers must fire at the same floats.
FLAP_INSTANTS = [
    0.7084243200000007, 1.1084243200000006, 1.9084243200000006,
    3.5084243200000005, 6.708424320000001, 7.0485475200000005,
    7.38867072,
]
LOSS_INSTANTS = [
    0.4023011200000002, 1.2053267200000002, 1.6480995199999977,
    3.3322307199999965, 3.5329571199999963,
]


def test_retransmissions_fire_at_the_recorded_instants():
    """The link goes down 0.5 s into a 200 KB transfer and comes back
    at 6 s: the RTO backs off 0.4, 0.8, 1.6, 3.2 s while every arm
    moves the deadline, then recovers.  Separately, a 1 MB transfer on
    a 1%-loss link."""
    _sim, conn, got, instants, _steps, _peak = _bulk_transfer(
        200_000, flap=(0.5, 6.0))
    assert got == [(7.43878912, "bulk")]
    assert instants == FLAP_INSTANTS
    assert conn.retransmissions == len(FLAP_INSTANTS)

    _sim, conn, got, instants, _steps, _peak = _bulk_transfer(
        1_000_000, loss=0.01)
    assert got == [(3.683552319999996, "bulk")]
    assert instants == LOSS_INSTANTS
    assert conn.retransmissions == len(LOSS_INSTANTS)


def test_loss_inflates_completion_time():
    """The same transfer takes longer on a lossy path — the PLT mechanism."""
    def completion_time(loss):
        sim, _net, ta, tb, _link = two_hosts(loss=loss)
        done = []

        def acceptor(conn):
            def server(sim, conn):
                yield conn.recv_message()
                done.append(sim.now)
            sim.process(server(sim, conn))
        tb.listen_tcp(80, acceptor)

        def client(sim):
            conn = yield ta.connect_tcp("203.0.113.1", 80)
            conn.send_message(200_000, meta="page")
            yield sim.timeout(300.0)

        sim.run(until=sim.process(client(sim)))
        assert done
        return done[0]

    assert completion_time(0.0) < completion_time(0.08)


class _TcpFlags(Middlebox):
    """Records ``(sender, flags)`` of every TCP packet on its link."""

    name = "tcp-flags"

    def __init__(self):
        self.seen = []

    def process(self, packet, direction, link):
        if packet.protocol == "tcp":
            self.seen.append((direction.sender, packet.payload.flags))
        return Verdict.PASS


def test_a_syn_to_a_listener_opens_a_connection_that_then_carries_data():
    sim, _net, ta, tb, _link = two_hosts()
    tb.listen_tcp(80, echo_acceptor(sim))

    def client(sim):
        conn = yield ta.connect_tcp("203.0.113.1", 80)
        conn.send_message(100, meta="hello")
        return (yield conn.recv_message())

    assert sim.run(until=sim.process(client(sim))) == ("echo", "hello")
    (server,) = tb._connections.values()
    assert server.state == "ESTABLISHED" and server.local_port == 80


def test_a_stray_segment_draws_exactly_one_rst_and_a_stray_rst_none():
    sim, net, _ta, tb, link = two_hosts()
    tb.listen_tcp(80, lambda conn: pytest.fail("a stray was accepted"))
    spy = _TcpFlags()
    link.add_middlebox(spy)
    a = net.node("a")
    # Non-SYN segments for a connection b never had, one to the
    # listening port: b answers the ACK and the SYN-ACK with one RST
    # each, and the RST it sends to a draws nothing back.
    for flags in (ACK_FLAGS, SYN_ACK_FLAGS, RST_FLAGS):
        a.send(Packet(src=a.address, dst=tb.host.address, protocol="tcp",
                      payload=Segment(40000, 80, 7, 9, flags), size=ACK_SIZE))
        sim.run()
    assert spy.seen == [("a", ACK_FLAGS), ("b", RST_FLAGS),
                        ("a", SYN_ACK_FLAGS), ("b", RST_FLAGS),
                        ("a", RST_FLAGS)]
    assert not tb._connections


def test_rst_injection_resets_connection():
    """A forged on-path RST (the GFW's signature move) kills the flow."""
    from repro.net import Packet
    from repro.transport.tcp import Segment, ACK_SIZE

    sim, net, ta, tb, link = two_hosts()
    tb.listen_tcp(80, echo_acceptor(sim))

    class RstInjector(Middlebox):
        name = "rst-injector"

        def __init__(self):
            self.armed = False

        def process(self, packet, direction, link):
            if self.armed and packet.protocol == "tcp" and packet.payload.length > 0:
                seg = packet.payload
                rst = Segment(seg.dport, seg.sport, seq=0, ack=0,
                              flags=frozenset({"RST"}))
                forged = Packet(src=packet.dst, dst=packet.src, protocol="tcp",
                                payload=rst, size=ACK_SIZE, flow=packet.flow)
                link.inject(forged, toward=net.node("a"))
                self.armed = False
            return Verdict.PASS

    injector = RstInjector()
    link.add_middlebox(injector)

    def client(sim):
        conn = yield ta.connect_tcp("203.0.113.1", 80)
        injector.armed = True
        conn.send_message(500, meta="probe-me")
        yield conn.recv_message()

    with pytest.raises(ConnectionReset):
        sim.run(until=sim.process(client(sim)))


def test_send_on_reset_connection_raises():
    sim, _net, ta, tb, _link = two_hosts()
    tb.listen_tcp(80, echo_acceptor(sim))

    def client(sim):
        conn = yield ta.connect_tcp("203.0.113.1", 80)
        conn._enter_reset(local=False)
        conn.send_message(10, meta="x")

    with pytest.raises(ConnectionReset):
        sim.run(until=sim.process(client(sim)))


def test_invalid_message_length_rejected():
    sim, _net, ta, tb, _link = two_hosts()
    tb.listen_tcp(80, echo_acceptor(sim))

    def client(sim):
        conn = yield ta.connect_tcp("203.0.113.1", 80)
        conn.send_message(0, meta="empty")

    with pytest.raises(TransportError):
        sim.run(until=sim.process(client(sim)))


def test_close_delivers_eof():
    sim, _net, ta, tb, _link = two_hosts()
    eof_seen = []

    def acceptor(conn):
        def server(sim, conn):
            meta = yield conn.recv_message()
            assert meta == "only"
            second = yield conn.recv_message()
            eof_seen.append(second)
        sim.process(server(sim, conn))
    tb.listen_tcp(80, acceptor)

    def client(sim):
        conn = yield ta.connect_tcp("203.0.113.1", 80)
        conn.send_message(100, meta="only")
        yield sim.timeout(1.0)
        conn.close()
        yield sim.timeout(1.0)

    sim.run(until=sim.process(client(sim)))
    assert eof_seen == [None]


def test_byte_accounting():
    sim, _net, ta, tb, _link = two_hosts()
    tb.listen_tcp(80, echo_acceptor(sim))

    def client(sim):
        conn = yield ta.connect_tcp("203.0.113.1", 80)
        conn.send_message(5000, meta="m")
        yield conn.recv_message()
        return conn

    conn = sim.run(until=sim.process(client(sim)))
    # At least payload + headers went out; ACKs also count.
    assert conn.bytes_sent > 5000
    assert conn.bytes_received == 100


def test_ping_measures_path_rtt():
    sim, _net, ta, _tb, _link = two_hosts(latency=ms(80))

    def client(sim):
        rtt = yield ta.ping("203.0.113.1")
        return rtt

    rtt = sim.run(until=sim.process(client(sim)))
    assert rtt == pytest.approx(2 * ms(80), rel=0.01)


def test_udp_datagram_delivery():
    sim, _net, ta, tb, _link = two_hosts()
    got = []
    tb.listen_udp(53, lambda payload, length, src, sport: got.append(
        (payload, length, str(src))))
    ta.send_udp("203.0.113.1", 53, payload={"q": "scholar"}, length=64)
    sim.run()
    assert got == [({"q": "scholar"}, 64, "10.0.0.1")]


def test_udp_duplicate_bind_rejected():
    sim, _net, _ta, tb, _link = two_hosts()
    tb.listen_udp(53, lambda *a: None)
    with pytest.raises(TransportError):
        tb.listen_udp(53, lambda *a: None)


def test_tcp_duplicate_listen_rejected():
    sim, _net, _ta, tb, _link = two_hosts()
    tb.listen_tcp(80, lambda conn: None)
    with pytest.raises(TransportError):
        tb.listen_tcp(80, lambda conn: None)


# -- connection lifetime ----------------------------------------------------------


def _connections_of(sim):
    """Every ``TcpConnection`` of ``sim`` that the collector tracks."""
    return [obj for obj in gc.get_objects()
            if isinstance(obj, TcpConnection) and obj.sim is sim]


def _drain_then_close(sim, conn):
    """Read to EOF, then close our half."""
    while (yield conn.recv_message()) is not None:
        pass
    conn.close()


def _orderly_close(sim, ta, tb, link):
    tb.listen_tcp(80, lambda conn: sim.process(_drain_then_close(sim, conn)))

    def client(sim):
        conn = yield ta.connect_tcp("203.0.113.1", 80)
        conn.send_message(5000, meta="hello")
        yield sim.timeout(1.0)
        conn.close()
        assert (yield conn.recv_message()) is None
    sim.process(client(sim))


def _fin_give_up(sim, ta, tb, link):
    def server(sim, conn):
        yield conn.recv_message()
        link.set_up(False)  # neither FIN will ever be acked
        conn.close()
    tb.listen_tcp(80, lambda conn: sim.process(server(sim, conn)))

    def client(sim):
        conn = yield ta.connect_tcp("203.0.113.1", 80)
        conn.send_message(100, meta="hello")
        yield sim.timeout(1.0)
        conn.close()
    sim.process(client(sim))


def _reset(sim, ta, tb, link):
    def server(sim, conn):
        with pytest.raises(ConnectionReset):
            while (yield conn.recv_message()) is not None:
                pass
    tb.listen_tcp(80, lambda conn: sim.process(server(sim, conn)))

    def client(sim):
        conn = yield ta.connect_tcp("203.0.113.1", 80)
        conn.send_message(100, meta="hello")
        yield sim.timeout(1.0)
        conn.abort()
    sim.process(client(sim))


def _failed_connect(timeout):
    def scenario(sim, ta, tb, link):
        link.set_up(False)

        def client(sim):
            with pytest.raises(ConnectionTimeout):
                yield ta.connect_tcp("203.0.113.1", 80, timeout=timeout)
        sim.process(client(sim))
    return scenario


@pytest.mark.parametrize("scenario", [
    _orderly_close, _fin_give_up, _reset,
    _failed_connect(timeout=5.0),     # the connect deadline fires
    _failed_connect(timeout=None),    # the SYN retries run out
], ids=["orderly-close", "fin-give-up", "reset", "connect-deadline",
        "syn-retries"])
def test_a_finished_session_leaves_no_connection_behind(scenario):
    """Every path that ends a connection makes its transport forget it,
    and a forgotten connection holds no reference cycle: with the
    cyclic collector off, none is left once the queued timers fired."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        sim, _net, ta, tb, link = two_hosts()
        scenario(sim, ta, tb, link)
        sim.run()
        assert not ta._connections and not tb._connections
        assert _connections_of(sim) == []
    finally:
        if enabled:
            gc.enable()


def test_a_late_syn_ack_after_a_failed_connect_is_refused():
    """The connect deadline fires before the SYN-ACK arrives: the
    client has forgotten the connection, so the SYN-ACK draws a RST and
    the server's half is reset rather than left in SYN_RCVD."""
    sim, _net, ta, tb, _link = two_hosts()
    accepted = []
    tb.listen_tcp(80, accepted.append)

    def client(sim):
        with pytest.raises(ConnectionTimeout):
            yield ta.connect_tcp("203.0.113.1", 80, timeout=0.06)

    sim.process(client(sim))
    sim.run(until=0.07)
    (server_half,) = tb._connections.values()
    assert server_half.state == "SYN_RCVD" and not ta._connections
    sim.run(until=1.0)
    assert server_half.state == "RESET"
    assert not tb._connections and not accepted


def test_a_lost_last_ack_ends_only_the_closing_connection():
    """The last ACK of a close is dropped, so the peer's retransmitted
    FIN reaches an end that was already forgotten.  The RST it draws
    ends only that closing connection: another connection between the
    same hosts carries on, and no reader is left waiting."""
    sim, _net, ta, tb, link = two_hosts()
    readers = []

    def server(sim, conn):
        readers.append(conn)
        while True:
            meta = yield conn.recv_message()
            if meta is None:
                conn.close()
                return
            conn.send_message(100, meta=("echo", meta))
    tb.listen_tcp(80, lambda conn: sim.process(server(sim, conn)))

    class DropLastAck(Middlebox):
        """Drop the first pure ACK ``a`` sends after ``b``'s FIN."""
        name = "drop-last-ack"
        port = None
        armed = False
        dropped = 0

        def process(self, packet, direction, link):
            segment = packet.payload
            if segment.sport == self.port or segment.dport == self.port:
                if direction.sender == "b" and "FIN" in segment.flags:
                    self.armed = True
                elif (self.armed and direction.sender == "a"
                      and segment.flags == frozenset({"ACK"})):
                    self.armed = False
                    self.dropped += 1
                    return Verdict.DROP
            return Verdict.PASS

    dropper = DropLastAck()
    link.add_middlebox(dropper)

    def client(sim):
        keeper = yield ta.connect_tcp("203.0.113.1", 80)
        closer = yield ta.connect_tcp("203.0.113.1", 80)
        dropper.port = closer.local_port
        closer.send_message(100, meta="bye")
        assert (yield closer.recv_message()) == ("echo", "bye")
        closer.close()
        assert (yield closer.recv_message()) is None
        yield sim.timeout(30.0)
        keeper.send_message(100, meta="still here")
        return closer, keeper, (yield keeper.recv_message())

    closer, keeper, reply = sim.run(until=sim.process(client(sim)))
    assert dropper.dropped == 1
    assert reply == ("echo", "still here")
    assert keeper.state == "ESTABLISHED"
    server_keeper, server_closer = readers
    assert server_keeper.state == "ESTABLISHED"
    assert server_closer.state == "RESET"
    assert closer.state == "CLOSED"
    assert list(ta._connections.values()) == [keeper]
    assert list(tb._connections.values()) == [server_keeper]
    assert not closer._inbox._getters and not server_closer._inbox._getters


# -- connect deadlines and addresses -----------------------------------------------

@pytest.mark.parametrize("timeout", [5.0, 30.0])
def test_a_connect_established_within_a_second_queues_no_deadline(timeout):
    """A connect deadline longer than the first SYN timer is queued only
    if that timer finds the connect still in SYN_SENT, so a connect
    established in one 100 ms round trip takes exactly the events of a
    connect with no deadline, and the run ends with the idle SYN timer."""
    def run(deadline):
        sim, _net, ta, tb, _link = two_hosts()
        tb.listen_tcp(80, lambda conn: None)

        def client(sim):
            conn = yield ta.connect_tcp("203.0.113.1", 80, timeout=deadline)
            return conn.state

        assert sim.run(until=sim.process(client(sim))) == "ESTABLISHED"
        assert all(when <= 1.0 for when, _priority, _seq, _event in sim._queue)
        sim.run()
        return sim._seq, sim.now

    without_deadline = run(None)
    assert without_deadline[1] == 1.0
    assert run(timeout) == without_deadline


class _DropSynAcks(Middlebox):
    name = "drop-syn-acks"

    def process(self, packet, direction, link):
        if packet.payload.flags == SYN_ACK_FLAGS:
            return Verdict.DROP
        return Verdict.PASS


@pytest.mark.parametrize("timeout", [0.5, 1.0, 2.9, 5.0, 30.0])
def test_a_connect_whose_syn_acks_are_lost_fails_at_its_exact_deadline(timeout):
    """Every SYN reaches the listener and every SYN-ACK is dropped: the
    connect fails with ConnectionTimeout at the float ``t0 + timeout``,
    whether its deadline was queued at the connect (0.5 s, and 1 s, the
    first SYN timer's own instant) or by the first SYN timer (2.9 s, 5 s,
    30 s), and the client forgets the connection.  With ``t0`` = 0.3,
    ``(t0 + 1) + 1.9`` is not the float ``t0 + 2.9``."""
    sim, _net, ta, tb, link = two_hosts()
    tb.listen_tcp(80, lambda conn: pytest.fail("a SYN-ACK got through"))
    link.add_middlebox(_DropSynAcks())
    t0 = 0.3
    failed = []

    def client(sim):
        yield sim.timeout(t0)
        with pytest.raises(ConnectionTimeout, match="timed out"):
            yield ta.connect_tcp("203.0.113.1", 80, timeout=timeout)
        failed.append(sim.now)

    sim.run(until=sim.process(client(sim)))
    assert failed == [t0 + timeout]
    assert not ta._connections


def test_a_negative_connect_timeout_is_refused():
    sim, _net, ta, tb, _link = two_hosts()
    tb.listen_tcp(80, lambda conn: None)
    with pytest.raises(SimulationError):
        ta.connect_tcp("203.0.113.1", 80, timeout=-1.0)


def test_connect_keeps_the_address_object_it_is_given():
    sim, _net, ta, tb, _link = two_hosts()
    tb.listen_tcp(80, lambda conn: None)
    remote = IPv4Address("203.0.113.1")

    def client(sim):
        return (yield ta.connect_tcp(remote, 80))

    conn = sim.run(until=sim.process(client(sim)))
    assert conn.remote_addr is remote
    assert conn.flow == ("tcp", "10.0.0.1", conn.local_port, "203.0.113.1", 80)
    assert conn.flow[3] is str(remote)
