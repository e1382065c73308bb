"""Client-side channels and connectors.

The browser's view of one open connection is a
:class:`~repro.transport.MessageChannel`: send a message, await a
reply, close.  A :class:`Connector` knows how to open a channel to a
named origin — directly (:class:`DirectConnector`) or through some
circumvention middleware (each access method in
``repro.middleware``/``repro.core`` ships its own connector).  The
browser is agnostic: it speaks to whatever channel it is handed, so
every access method is measured by identical browser logic.
"""

from __future__ import annotations

import typing as t

from ..dns import StubResolver
from ..errors import HttpError
from ..net import WireFeatures
from ..sim import Event, Simulator
from ..transport import MessageChannel, TcpConnection, TlsSession, TransportLayer
from .messages import HttpRequest


class PlainHttpChannel(MessageChannel):
    """Plain HTTP over a TcpConnection: each request's URL is on the
    wire in the clear, where the keyword filter reads it."""

    def __init__(self, conn: TcpConnection, hostname: str) -> None:
        self.conn = conn
        self.hostname = hostname

    def send_message(self, length: int, meta: t.Any = None,
                     features: t.Optional[WireFeatures] = None) -> None:
        plaintext = self.hostname
        if isinstance(meta, HttpRequest):
            plaintext = meta.url
        self.conn.send_message(
            length, meta=meta,
            features=WireFeatures(protocol_tag="plain-http",
                                  plaintext=plaintext, entropy=4.5))

    def recv_message(self) -> Event:
        return self.conn.recv_message()

    def close(self) -> None:
        self.conn.close()

    @property
    def state(self) -> str:
        return self.conn.state


class Connector:
    """Opens channels toward named origins."""

    #: Human-readable name used in reports.
    name = "abstract"
    #: Whether :meth:`open` accepts a ``deadline`` keyword (an
    #: :class:`~repro.overload.Deadline`) and propagates it on the wire.
    #: Browsers only pass one when the connector opts in, so legacy
    #: connectors keep their exact signatures.
    supports_deadline = False

    def open(self, hostname: str, port: int, use_tls: bool):
        """Generator process returning a
        :class:`~repro.transport.MessageChannel`."""
        raise NotImplementedError
        yield  # pragma: no cover


class DirectConnector(Connector):
    """Resolve with the local stub resolver and connect directly."""

    name = "direct"

    def __init__(self, sim: Simulator, transport: TransportLayer,
                 resolver: StubResolver) -> None:
        self.sim = sim
        self.transport = transport
        self.resolver = resolver
        #: Hosts we already hold a TLS session ticket for (resumption).
        self.session_tickets: t.Set[str] = set()
        self.connections_opened = 0

    def open(self, hostname: str, port: int, use_tls: bool):
        address = yield self.resolver.resolve(hostname)
        features = (
            WireFeatures(protocol_tag="tls", sni=hostname, entropy=7.9)
            if use_tls else
            WireFeatures(protocol_tag="plain-http", plaintext=hostname,
                         entropy=4.5))
        conn = yield self.transport.connect_tcp(
            address, port, features=features, timeout=30.0)
        self.connections_opened += 1
        if not use_tls:
            return PlainHttpChannel(conn, hostname)
        session = TlsSession(conn, sni=hostname)
        yield from session.client_handshake(
            resumed=hostname in self.session_tickets)
        self.session_tickets.add(hostname)
        return session


def fetch(channel: MessageChannel, request: HttpRequest):
    """Generator: one request/response exchange on ``channel``."""
    channel.send_message(request.size(), meta=request)
    response = yield channel.recv_message()
    if response is None:
        raise HttpError(f"{request.url}: connection closed before response")
    return response
