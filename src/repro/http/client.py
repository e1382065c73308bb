"""Client-side streams and connectors.

A :class:`Stream` is the browser's view of one open connection: send a
message, await a reply, close.  A :class:`Connector` knows how to
produce a stream to a named origin — directly (:class:`DirectConnector`)
or through some circumvention middleware (each access method in
``repro.middleware``/``repro.core`` ships its own connector).  The
browser is agnostic: it speaks to whatever stream it is handed, so
every access method is measured by identical browser logic.
"""

from __future__ import annotations

import typing as t

from ..dns import StubResolver
from ..errors import HttpError
from ..net import WireFeatures
from ..sim import Event, Simulator
from ..transport import TcpConnection, TlsSession, TransportLayer
from .messages import HttpRequest


class Stream:
    """Duplex message stream; concrete transports subclass this."""

    def send(self, length: int, meta: t.Any) -> None:
        raise NotImplementedError

    def recv(self) -> Event:
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError

    @property
    def alive(self) -> bool:
        return True


class TcpStream(Stream):
    """Plain-HTTP stream over a TcpConnection; payloads are visible."""

    def __init__(self, conn: TcpConnection, hostname: str) -> None:
        self.conn = conn
        self.hostname = hostname

    def send(self, length: int, meta: t.Any) -> None:
        plaintext = self.hostname
        if isinstance(meta, HttpRequest):
            plaintext = meta.url
        self.conn.send_message(
            length, meta=meta,
            features=WireFeatures(protocol_tag="plain-http",
                                  plaintext=plaintext, entropy=4.5))

    def recv(self) -> Event:
        return self.conn.recv_message()

    def close(self) -> None:
        self.conn.close()

    @property
    def alive(self) -> bool:
        return self.conn.state == TcpConnection.ESTABLISHED


class TlsStream(Stream):
    """HTTPS stream over an established TlsSession."""

    def __init__(self, session: TlsSession) -> None:
        self.session = session

    def send(self, length: int, meta: t.Any) -> None:
        self.session.send(length, meta=meta)

    def recv(self) -> Event:
        return self.session.recv()

    def close(self) -> None:
        self.session.conn.close()

    @property
    def alive(self) -> bool:
        return self.session.conn.state == TcpConnection.ESTABLISHED


class Connector:
    """Produces streams toward named origins."""

    #: Human-readable name used in reports.
    name = "abstract"
    #: Whether :meth:`open` accepts a ``deadline`` keyword (an
    #: :class:`~repro.overload.Deadline`) and propagates it on the wire.
    #: Browsers only pass one when the connector opts in, so legacy
    #: connectors keep their exact signatures.
    supports_deadline = False

    def open(self, hostname: str, port: int, use_tls: bool):
        """Generator process returning a :class:`Stream`."""
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
            return TcpStream(conn, hostname)
        session = TlsSession(conn, sni=hostname)
        resumed = hostname in self.session_tickets
        try:
            yield from session.client_handshake(resumed=resumed)
        except GeneratorExit:
            return None  # finalized, not failed: send nothing
        except BaseException:
            conn.close()  # a failed handshake must not strand the dial
            raise
        self.session_tickets.add(hostname)
        return TlsStream(session)


def fetch(stream: Stream, request: HttpRequest):
    """Generator: one request/response exchange on ``stream``."""
    stream.send(request.size(), meta=request)
    response = yield stream.recv()
    if response is None:
        raise HttpError(f"{request.url}: connection closed before response")
    return response
