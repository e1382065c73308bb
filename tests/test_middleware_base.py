"""Tests for the shared middleware plumbing (relay framing, channels)."""

import pytest

from repro.errors import MiddlewareError, TransportError
from repro.http import HttpRequest, HttpResponse, fetch
from repro.measure import Testbed
from repro.measure.scenarios import prepare
from repro.measure.testbed import SCHOLAR_HOST
from repro.middleware import (
    PublicWebProxy,
    estimate_meta_length,
    relay,
    unwrap_forward,
    wrap_forward,
)
from repro.middleware.base import RELAY_END, RelayedChannel
from repro.net import Network, OPAQUE_STREAM
from repro.sim import Simulator
from repro.transport import MessageChannel, install_transport
from repro.units import Mbps, ms


def test_forward_framing_roundtrip():
    frame = wrap_forward(1234, {"k": "v"})
    length, meta = unwrap_forward(frame)
    assert length == 1234 and meta == {"k": "v"}


def test_unwrap_rejects_garbage():
    with pytest.raises(MiddlewareError):
        unwrap_forward(("not", "a", "frame", "at-all"))
    with pytest.raises(MiddlewareError):
        unwrap_forward("junk")


def test_estimate_meta_length_for_http_and_tls():
    request = HttpRequest("scholar.google.com", "/")
    assert estimate_meta_length(request) == request.size()
    response = HttpResponse(200, "/", 4800)
    assert estimate_meta_length(response) == response.size()
    # TLS handshake metas map onto the transport's constants.
    from repro.transport import tls
    assert estimate_meta_length(("tls", "client-hello", None, False)) == \
        tls.CLIENT_HELLO
    assert estimate_meta_length(("tls", "server-hello")) == \
        tls.SERVER_HELLO_WITH_CERT
    # TLS-app wrapping adds record overhead.
    assert estimate_meta_length(("tls-app", response)) == \
        response.size() + tls.RECORD_OVERHEAD
    # Unknown metas get a conservative default, not a crash.
    assert estimate_meta_length(object()) == 600


def relayed_pair():
    """A RelayedChannel over a live TcpConnection pair."""
    sim = Simulator()
    net = Network(sim)
    a = net.add_host("a", address="10.0.0.1")
    b = net.add_host("b", address="10.0.0.2")
    net.connect(a, b, latency=ms(5), bandwidth=Mbps(100))
    net.build_routes()
    ta, tb = install_transport(sim, a), install_transport(sim, b)
    server_conns = []
    tb.listen_tcp(9, lambda conn: server_conns.append(conn))
    return sim, ta, server_conns


def test_relayed_channel_wraps_and_unwraps():
    sim, ta, server_conns = relayed_pair()

    def body(sim):
        conn = yield ta.connect_tcp("10.0.0.2", 9)
        channel = RelayedChannel(sim, conn, overhead=16,
                                 features=OPAQUE_STREAM)
        channel.send_message(100, meta="hello")
        # (the server's accept fires one half-RTT after the client's.)
        yield sim.timeout(0.05)
        # The server sees the framed version...
        framed = yield server_conns[0].recv_message()
        assert unwrap_forward(framed) == (100, "hello")
        # ...and replies in kind; the channel unwraps for the app.
        server_conns[0].send_message(50, meta=wrap_forward(50, "world"))
        reply = yield channel.recv_message()
        return reply

    assert sim.run(until=sim.process(body(sim))) == "world"


def test_relayed_channel_drops_junk_frames():
    sim, ta, server_conns = relayed_pair()

    def body(sim):
        conn = yield ta.connect_tcp("10.0.0.2", 9)
        channel = RelayedChannel(sim, conn, overhead=0, features=None)
        channel.send_message(10, meta="x")
        yield sim.timeout(0.05)
        server_conns[0].send_message(10, meta="unframed-junk")
        server_conns[0].send_message(20, meta=wrap_forward(20, "good"))
        reply = yield channel.recv_message()
        return reply

    assert sim.run(until=sim.process(body(sim))) == "good"


def test_relayed_channel_read_after_reset_gets_eof():
    """The peer resets while no reader waits: the next read gets EOF
    rather than waiting forever."""
    sim, ta, server_conns = relayed_pair()

    def body(sim):
        conn = yield ta.connect_tcp("10.0.0.2", 9)
        channel = RelayedChannel(sim, conn, overhead=0, features=None)
        channel.send_message(10, meta="x")
        yield sim.timeout(0.05)
        server_conns[0].abort()
        yield sim.timeout(0.05)  # the RST has landed; nobody was reading
        assert conn.state == "RESET"
        read = channel.recv_message()
        yield sim.any_of([read, sim.timeout(5.0)])
        return read.triggered and read.ok and read.value is None

    assert sim.run(until=sim.process(body(sim)))


def test_relayed_channel_state_follows_its_connection():
    sim, ta, server_conns = relayed_pair()

    def body(sim):
        conn = yield ta.connect_tcp("10.0.0.2", 9)
        channel = RelayedChannel(sim, conn, overhead=0, features=None)
        assert channel.state == "ESTABLISHED"
        channel.send_message(64, meta="ping")
        yield sim.timeout(0.05)
        framed = yield server_conns[0].recv_message()
        assert unwrap_forward(framed)[1] == "ping"
        channel.close()
        return channel.state, conn.state

    assert sim.run(until=sim.process(body(sim))) == ("CLOSED", "CLOSED")


@pytest.mark.parametrize("method", ["native-vpn", "openvpn", "tor",
                                    "shadowsocks", "scholarcloud",
                                    "web-proxy"])
def test_every_connector_opens_a_message_channel(method):
    """What a connector opens is the channel the browser reads: up when
    opened, carrying a fetch, and down once closed."""
    if method == "web-proxy":
        # The keyword filter resets the proxy's cleartext CONNECT.
        testbed = Testbed(seed=0, gfw_enabled=False)
        access = PublicWebProxy(testbed)
        testbed.run_process(access.setup())
    else:
        world = prepare(method, seed=0)
        testbed, access = world.testbed, world.method
    connector = access.connector()
    request = HttpRequest(SCHOLAR_HOST, testbed.scholar_page.path,
                          scheme="https")

    def body(sim):
        channel = yield from connector.open(SCHOLAR_HOST, 443, True)
        assert isinstance(channel, MessageChannel)
        opened = channel.state
        response = yield from fetch(channel, request)
        channel.close()
        return opened, response.status, channel.state

    opened, status, closed = testbed.run_process(body(testbed.sim))
    assert (opened, status) == ("ESTABLISHED", 200)
    assert closed != "ESTABLISHED"


class ScriptedChannel:
    """An in-memory channel: receives a script, records sends and closes."""

    def __init__(self, sim, name, log, script=(), send_error=False):
        self.sim = sim
        self.name = name
        self.log = log
        self.script = list(script)
        self.send_error = send_error
        self.sent = []

    def send_message(self, length, meta=None, features=None):
        if self.send_error:
            raise TransportError(f"{self.name}: reset")
        self.sent.append((length, meta))

    def recv_message(self):
        event = self.sim.event()
        item = self.script.pop(0)
        if isinstance(item, Exception):
            return event.fail(item)
        return event.succeed(item)

    def close(self):
        self.log.append(f"{self.name} closed")


@pytest.mark.parametrize("script, send_error, sent, closed", [
    # EOF, or a receive error, closes the sink only.
    (["ab", "cde", None], False,
     [(2, ("ab", 1.0)), (3, ("cde", 2.0))], ["sink closed"]),
    (["ab", TransportError("reset")], False,
     [(2, ("ab", 1.0))], ["sink closed"]),
    # A send error closes the source only.
    (["ab", "cde"], True, [], ["source closed"]),
    # The end marker closes the sink, then the source.
    (["ab", "end", "cde"], False,
     [(2, ("ab", 1.0))], ["sink closed", "source closed"]),
    # A dropped frame is neither charged nor sent.
    (["junk", "ab", None], False, [(2, ("ab", 1.0))], ["sink closed"]),
], ids=["eof", "recv-error", "send-error", "end-marker", "dropped-frame"])
def test_relay_frame_order_and_close_rules(script, send_error, sent, closed):
    sim = Simulator()
    log = []
    source = ScriptedChannel(sim, "source", log, script=script)
    sink = ScriptedChannel(sim, "sink", log, send_error=send_error)

    def decode(message):
        if message == "end":
            return RELAY_END
        if message == "junk":
            return None
        return len(message), message

    def encode(length, meta):
        # The clock moves only while a charge is waited for, so a frame
        # stamped 1.0 s per charge was encoded after its charge.
        return length, (meta, sim.now), None

    sim.run(until=sim.process(relay(source, sink, decode, encode,
                                    lambda length: sim.timeout(1.0))))
    assert sink.sent == sent
    assert log == closed
