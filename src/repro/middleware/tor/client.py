"""The Tor client: network install, circuit construction, connector.

:class:`TorNetwork` adds the volunteer infrastructure to a testbed
(CDN front, bridge, middle, exit — the client cannot choose or control
these, which is the paper's §4.3 reason for excluding Tor from the
scalability experiment).  :class:`TorMethod` is the access method: it
bootstraps over meek (directory fetch, then a 3-hop circuit built one
EXTEND at a time) and exposes a connector whose streams ride the
circuit as RELAY cells.
"""

from __future__ import annotations

import itertools
import typing as t

from ...dns import StubResolver
from ...errors import MiddlewareError, TransportError
from ...http.client import Connector
from ...net import WireFeatures
from ...sim import Event, Store
from ...transport import MessageChannel, TlsSession
from ...units import ms, Mbps, KB
from ..base import AccessMethod
from . import cells
from .meek import CdnFront, MeekChannel
from .relay import TorRelay

#: Front domain (member of repro.gfw.dpi.KNOWN_MEEK_FRONTS).
FRONT_DOMAIN = "cdn.azureedge.example"
#: Consensus + microdescriptors fetched by a fresh client at
#: bootstrap (Tor Browser downloads several hundred KB).
DIRECTORY_BYTES = KB(150)

_stream_ids = itertools.count(1)
_circuit_ids = itertools.count(100)


class TorNetwork:
    """The volunteer relay infrastructure, installed into a testbed."""

    def __init__(self, testbed) -> None:
        from ...measure.testbed import GOOGLE_DNS_ADDR
        from ...transport import install_transport
        self.testbed = testbed
        net = testbed.net
        sim = testbed.sim

        self.front_host = net.add_host("cdn-front", address="13.32.1.50")
        self.bridge_host = net.add_host("tor-bridge", address="104.131.1.10")
        self.middle_host = net.add_host("tor-middle", address="171.25.193.9")
        self.exit_host = net.add_host("tor-exit", address="176.10.104.240")
        net.connect(self.front_host, testbed.us_core, latency=ms(4),
                    bandwidth=Mbps(1000))
        net.connect(self.bridge_host, testbed.us_core, latency=ms(6),
                    bandwidth=Mbps(100))
        net.connect(self.middle_host, testbed.us_core, latency=ms(12),
                    bandwidth=Mbps(50), loss=0.001)
        net.connect(self.exit_host, testbed.us_core, latency=ms(10),
                    bandwidth=Mbps(50), loss=0.001)
        net.build_routes()
        for host in (self.front_host, self.bridge_host, self.middle_host,
                     self.exit_host):
            install_transport(sim, host)

        testbed.misc_zone.add_a(FRONT_DOMAIN, "13.32.1.50")

        exit_resolver = StubResolver(sim, self.exit_host,
                                     upstream=GOOGLE_DNS_ADDR)
        self.bridge = TorRelay(sim, self.bridge_host, name="bridge")
        self.middle = TorRelay(sim, self.middle_host, name="middle")
        self.exit = TorRelay(sim, self.exit_host, resolver=exit_resolver,
                             name="exit")
        self.front = CdnFront(sim, self.front_host,
                              bridge_addr=self.bridge_host.address,
                              front_domain=FRONT_DOMAIN)


class _TorStreamChannel(MessageChannel):
    """One application stream multiplexed over the circuit."""

    def __init__(self, method: "TorMethod", stream_id: int) -> None:
        self.sim = method.testbed.sim
        self.method = method
        self.stream_id = stream_id
        self.inbox = Store(self.sim)
        self.open = True

    def send_message(self, length: int, meta: t.Any = None,
                     features: t.Optional[WireFeatures] = None) -> None:
        if not self.open:
            raise MiddlewareError("tor stream is closed")
        self.method._send_cell(cells.DATA, {
            "stream": self.stream_id, "length": length, "meta": meta})

    def recv_message(self) -> Event:
        return self.inbox.get()

    def close(self) -> None:
        if self.open:
            self.open = False
            self.method._send_cell(cells.END, {"stream": self.stream_id})
            self.method._streams.pop(self.stream_id, None)

    @property
    def state(self) -> str:
        return "ESTABLISHED" if self.open else "CLOSED"


class TorConnector(Connector):
    """Browser-facing connector that opens streams over the circuit."""

    name = "tor"

    def __init__(self, method: "TorMethod") -> None:
        self.method = method
        self.session_tickets: t.Set[str] = set()

    def open(self, hostname: str, port: int, use_tls: bool):
        channel = yield from self.method.open_stream(hostname, port)
        if not use_tls:
            return channel
        session = TlsSession(channel, sni=hostname)
        yield from session.client_handshake(
            resumed=hostname in self.session_tickets)
        self.session_tickets.add(hostname)
        return session


class TorMethod(AccessMethod):
    """Tor over meek, as measured in the paper (Tor Browser 6.5)."""

    name = "tor"
    display_name = "Tor"
    requires_client_software = True

    def __init__(self, testbed) -> None:
        super().__init__(testbed)
        self.network: t.Optional[TorNetwork] = None
        self.meek: t.Optional[MeekChannel] = None
        self.circuit_id: t.Optional[int] = None
        self._streams: t.Dict[int, _TorStreamChannel] = {}
        # Key space = the control-protocol command vocabulary (a few
        # fixed strings); the per-command waiter lists are popped.
        self._control_waiters: t.Dict[str, t.List[Event]] = {}  # reprolint: disable=unbounded-cache-field
        self._connected_waiters: t.Dict[int, Event] = {}
        self.bootstrap_time: float = 0.0
        self.connected = False

    # -- lifecycle ---------------------------------------------------------------------

    def install_network(self) -> TorNetwork:
        if self.network is None:
            self.network = TorNetwork(self.testbed)
        return self.network

    def setup(self):
        """Bootstrap: meek TLS, directory fetch, 3-hop circuit build."""
        testbed = self.testbed
        started = testbed.sim.now
        self.install_network()

        # 1. HTTPS to the CDN front (looks like ordinary web traffic,
        #    except for the cadence the GFW has learned to spot).
        address = yield testbed.resolver.resolve(FRONT_DOMAIN)
        transport = testbed.transport_of(testbed.client)
        conn = yield transport.connect_tcp(
            address, 443,
            features=WireFeatures(protocol_tag="tls", sni=FRONT_DOMAIN,
                                  entropy=7.9),
            timeout=60.0)
        try:
            tls = TlsSession(conn, sni=FRONT_DOMAIN)
            yield from tls.client_handshake()
            self.meek = MeekChannel(testbed.sim, tls)
            testbed.sim.process(self._demux_loop(), name="tor-demux")

            # 2. Circuit: CREATE to the bridge, EXTEND twice.
            self.circuit_id = next(_circuit_ids)
            self.meek.send_message(
                cells.CELL_SIZE,
                meta=cells.make_cell(self.circuit_id, cells.CREATE))
            yield self._wait_control(cells.CREATED)
            network = self.network
            assert network is not None
            for next_hop in (network.middle_host.address,
                             network.exit_host.address):
                self.meek.send_message(
                    cells.CELL_SIZE,
                    meta=cells.make_cell(self.circuit_id, cells.EXTEND,
                                         {"next": str(next_hop), "length": 84}))
                yield self._wait_control(cells.EXTENDED)

            # 3. Directory fetch (microdescriptor consensus) through the
            #    fresh circuit — the bulk of Tor's first-time cost.
            directory = yield from self.open_stream(
                "directory.torproject.internal", 80, internal=True)
            try:
                directory.send_message(300, meta=("dir-request",))
                reply = yield directory.recv_message()
                if not (isinstance(reply, tuple)
                        and reply[0] == "dir-response"):
                    raise MiddlewareError(
                        f"directory fetch failed: {reply!r}")
            except GeneratorExit:
                return  # finalized, not failed: send nothing
            except BaseException:
                # The stream table must not keep a dead directory
                # stream; the outer handler only cleans up the channel.
                directory.close()
                raise
            directory.close()
        except GeneratorExit:
            return  # finalized, not failed: send nothing
        except BaseException:
            # A failed bootstrap must not strand the meek connection.
            if self.meek is not None:
                self.meek.close()
            conn.close()
            raise

        self.bootstrap_time = testbed.sim.now - started
        self.connected = True

    def connector(self) -> TorConnector:
        if not self.connected:
            raise MiddlewareError("tor is not bootstrapped; run setup() first")
        return TorConnector(self)

    # -- streams ----------------------------------------------------------------------------

    def open_stream(self, hostname: str, port: int, internal: bool = False):
        """Generator: BEGIN a stream, wait for CONNECTED."""
        stream_id = next(_stream_ids)
        channel = _TorStreamChannel(self, stream_id)
        self._streams[stream_id] = channel
        waiter = self.testbed.sim.event()
        self._connected_waiters[stream_id] = waiter
        self._send_cell(cells.BEGIN, {"stream": stream_id, "host": hostname,
                                      "port": port, "internal": internal,
                                      "length": 64})
        yield waiter
        return channel

    def _send_cell(self, command: str, payload: t.Dict[str, t.Any]) -> None:
        if self.meek is None or self.circuit_id is None:
            raise MiddlewareError("tor transport is not up")
        length = int(payload.get("length", 0))
        self.meek.send_message(
            cells.wire_bytes(length),
            meta=cells.make_cell(self.circuit_id, command, payload))

    # -- inbound cell demux --------------------------------------------------------------------

    def _demux_loop(self):
        meek = self.meek
        assert meek is not None
        while True:
            try:
                message = yield meek.recv_message()
            except (MiddlewareError, TransportError) as exc:
                self._fail_everything(exc)
                return
            if message is None:
                self._fail_everything(MiddlewareError("circuit closed"))
                return
            if not cells.is_cell(message):
                continue
            _tag, _cid, command, payload = message
            if command in (cells.CREATED, cells.EXTENDED):
                self._resolve_control(command)
            elif command == cells.CONNECTED:
                waiter = self._connected_waiters.pop(payload["stream"], None)
                if waiter is not None and not waiter.triggered:
                    waiter.succeed(None)
            elif command == cells.DATA:
                stream = self._streams.get(payload["stream"])
                if stream is not None:
                    # Bounded by Tor's own flow: the circuit delivers
                    # what the exit relayed for one paced TCP stream.
                    stream.inbox.put(payload["meta"])  # reprolint: disable=unbounded-queue
            elif command == cells.END:
                self._end_stream(payload)

    def _end_stream(self, payload: t.Dict[str, t.Any]) -> None:
        stream_id = payload.get("stream")
        waiter = self._connected_waiters.pop(stream_id, None)
        if waiter is not None and not waiter.triggered:
            waiter.fail(MiddlewareError(
                f"tor stream {stream_id} refused: {payload.get('reason')}"))
        stream = self._streams.pop(stream_id, None)
        if stream is not None:
            stream.open = False
            stream.inbox.put(None)

    def _wait_control(self, command: str) -> Event:
        waiter = self.testbed.sim.event()
        self._control_waiters.setdefault(command, []).append(waiter)
        return waiter

    def _resolve_control(self, command: str) -> None:
        waiters = self._control_waiters.get(command) or []
        if waiters:
            waiter = waiters.pop(0)
            if not waiter.triggered:
                waiter.succeed(None)

    def _fail_everything(self, exc: Exception) -> None:
        for waiters in self._control_waiters.values():
            for waiter in waiters:
                if not waiter.triggered:
                    waiter.fail(MiddlewareError(str(exc)))
        for waiter in self._connected_waiters.values():
            if not waiter.triggered:
                waiter.fail(MiddlewareError(str(exc)))
        self.connected = False
