"""Tests for the simplified TLS layer."""

import pytest

from repro.errors import TransportError
from repro.net import Network
from repro.sim import Simulator
from repro.transport import TlsSession, install_transport
from repro.units import Mbps, ms


def tls_pair(latency=ms(50)):
    sim = Simulator()
    net = Network(sim)
    a = net.add_host("a", address="10.0.0.1")
    b = net.add_host("b", address="203.0.113.1")
    net.connect(a, b, latency=latency, bandwidth=Mbps(100))
    net.build_routes()
    return sim, install_transport(sim, a), install_transport(sim, b)


def run_handshake(sim, ta, tb, resumed=False, sni="scholar.google.com"):
    server_sessions = []

    def acceptor(conn):
        session = TlsSession(conn)

        def server(sim):
            yield from session.server_handshake()
            server_sessions.append(session)
            meta = yield session.recv_message()
            session.send_message(2000, meta=("response", meta))
        sim.process(server(sim))
    tb.listen_tcp(443, acceptor)

    def client(sim):
        conn = yield ta.connect_tcp("203.0.113.1", 443)
        session = TlsSession(conn, sni=sni)
        connect_done = sim.now
        yield from session.client_handshake(resumed=resumed)
        handshake_done = sim.now
        session.send_message(300, meta="GET /")
        reply = yield session.recv_message()
        return (connect_done, handshake_done, reply, session)

    result = sim.run(until=sim.process(client(sim)))
    return result, server_sessions


def test_full_handshake_round_trips_and_data():
    sim, ta, tb = tls_pair(latency=ms(50))
    (connected, done, reply, _session), server_sessions = run_handshake(sim, ta, tb)
    assert reply == ("response", "GET /")
    # Full handshake needs 2 extra RTTs beyond connect (0.1s per RTT).
    assert done - connected == pytest.approx(0.2, rel=0.15)
    assert server_sessions[0].sni == "scholar.google.com"


def test_resumed_handshake_is_faster():
    sim_full, ta, tb = tls_pair()
    (c_full, d_full, _r, _s), _ = run_handshake(sim_full, ta, tb, resumed=False)
    sim_res, ta2, tb2 = tls_pair()
    (c_res, d_res, _r2, _s2), _ = run_handshake(sim_res, ta2, tb2, resumed=True)
    assert (d_res - c_res) < (d_full - c_full)


def test_send_before_handshake_rejected():
    sim, ta, tb = tls_pair()
    tb.listen_tcp(443, lambda conn: None)

    def client(sim):
        conn = yield ta.connect_tcp("203.0.113.1", 443)
        TlsSession(conn).send_message(100)

    with pytest.raises(TransportError):
        sim.run(until=sim.process(client(sim)))


def test_client_hello_exposes_sni_on_wire():
    """The GFW's SNI filter depends on this observable."""
    from repro.net import PacketCapture
    sim = Simulator()
    net = Network(sim)
    a = net.add_host("a", address="10.0.0.1")
    b = net.add_host("b", address="203.0.113.1")
    link = net.connect(a, b, latency=ms(10), bandwidth=Mbps(100))
    net.build_routes()
    ta, tb = install_transport(sim, a), install_transport(sim, b)
    capture = PacketCapture(sim).attach(link)

    def acceptor(conn):
        session = TlsSession(conn)

        def server(sim):
            yield from session.server_handshake()
        sim.process(server(sim))
    tb.listen_tcp(443, acceptor)

    def client(sim):
        conn = yield ta.connect_tcp("203.0.113.1", 443)
        session = TlsSession(conn, sni="scholar.google.com")
        yield from session.client_handshake()

    sim.run(until=sim.process(client(sim)))
    # Find ClientHello among captured packets by its SNI-bearing features.
    hello_seen = any(
        p.protocol_tag == "tls" for p in capture.packets)
    assert hello_seen
