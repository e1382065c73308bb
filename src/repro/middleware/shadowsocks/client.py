"""``ss-local`` and the Shadowsocks access method.

The local proxy runs *on the client laptop* (the paper's Figure 2d:
"Proxy Client"), so browser↔ss-local hops are in-process; what crosses
the network — and the GFW — is the encrypted client↔server stream.

The measured costs the paper attributes to Shadowsocks come from here:

* :meth:`SsLocal.ensure_session` opens the extra auth connection
  (TCP 1) whenever the 10 s keep-alive has lapsed — i.e. on every
  page load of the 60 s-spaced methodology;
* every browser connection becomes a fresh encrypted stream whose
  first frame carries the length signature DPI looks for.
"""

from __future__ import annotations

import typing as t

from ...errors import MiddlewareError
from ...http.client import Connector, TlsStream
from ...transport import TlsSession
from ..base import AccessMethod, ChannelStream, RelayedChannel
from .protocol import (
    DEFAULT_KEEPALIVE,
    SS_PORT,
    auth_features,
    data_features,
    first_frame_features,
)
from .server import SsServer


class SsLocal:
    """The local proxy half of the Shadowsocks pair."""

    def __init__(self, testbed, server_addr, password: str = "scholar-tunnel",
                 port: int = SS_PORT,
                 keepalive: float = DEFAULT_KEEPALIVE,
                 host=None) -> None:
        self.testbed = testbed
        self.host = host if host is not None else testbed.client
        self.server_addr = server_addr
        self.password = password
        self.port = port
        self.keepalive = keepalive
        self._last_auth_activity: t.Optional[float] = None
        self.auth_rounds = 0

    # -- session (TCP 1) -----------------------------------------------------------

    def session_alive(self) -> bool:
        return (self._last_auth_activity is not None
                and (self.testbed.sim.now - self._last_auth_activity)
                <= self.keepalive)

    def ensure_session(self):
        """Generator: run the TCP 1 auth exchange if the keep-alive lapsed."""
        if self.session_alive():
            return
        transport = self.testbed.transport_of(self.host)
        conn = yield transport.connect_tcp(
            self.server_addr, self.port, features=auth_features(),
            timeout=30.0)
        try:
            yield from self._auth_on(conn)
        except GeneratorExit:
            return  # finalized, not failed: send nothing
        except BaseException:
            conn.close()  # failed auth must not strand the dial
            raise
        self.auth_rounds += 1
        # The session connection idles server-side as the keep-alive
        # anchor; we don't need to hold it here.

    def _auth_on(self, conn):
        """The challenge–response user/password exchange (2 round trips)."""
        from ...crypto import hmac_sha256
        conn.send_message(60, meta=("ss-auth", "user"),
                          features=auth_features())
        challenge = yield conn.recv_message()
        if not (isinstance(challenge, tuple)
                and challenge[0] == "ss-auth-challenge"):
            raise MiddlewareError(f"shadowsocks auth failed: {challenge!r}")
        proof = hmac_sha256(self.password.encode(), challenge[1])
        conn.send_message(52, meta=("ss-auth-response", proof),
                          features=auth_features())
        reply = yield conn.recv_message()
        if reply != ("ss-auth-ok",):
            raise MiddlewareError(f"shadowsocks auth rejected: {reply!r}")
        self._last_auth_activity = self.testbed.sim.now

    def touch(self) -> None:
        self._last_auth_activity = self.testbed.sim.now

    # -- data streams -----------------------------------------------------------------

    def open_stream(self, hostname: str, port: int):
        """Generator: open one encrypted relay stream (TCP 3).

        Per the paper's source-code analysis, the auth procedure is
        re-initialized for any connection that has not carried a
        request within the keep-alive window — so every fresh data
        connection runs the exchange before its relay request.
        """
        yield from self.ensure_session()
        transport = self.testbed.transport_of(self.host)
        conn = yield transport.connect_tcp(
            self.server_addr, self.port, features=data_features(),
            timeout=30.0)
        try:
            yield from self._auth_on(conn)
            frame_features = first_frame_features(self.password, hostname, port)
            frame_length = frame_features.length_signature or 38
            conn.send_message(frame_length, meta=("ss-connect", hostname, port),
                              features=frame_features)
            ready = yield conn.recv_message()
            if ready != ("ss-ready",):
                raise MiddlewareError(f"shadowsocks relay refused: {ready!r}")
        except GeneratorExit:
            return None  # finalized, not failed: send nothing
        except BaseException:
            conn.close()  # failed relay open must not strand the dial
            raise
        self.touch()
        return RelayedChannel(self.testbed.sim, conn, overhead=0,
                              features=data_features(), name="ss")


class SsConnector(Connector):
    """Browser connector backed by ss-local."""

    name = "shadowsocks"

    def __init__(self, local: SsLocal) -> None:
        self.local = local
        self.session_tickets: t.Set[str] = set()

    def open(self, hostname: str, port: int, use_tls: bool):
        channel = yield from self.local.open_stream(hostname, port)
        if not use_tls:
            return ChannelStream(channel)
        session = TlsSession(channel, sni=hostname)
        resumed = hostname in self.session_tickets
        try:
            yield from session.client_handshake(resumed=resumed)
        except GeneratorExit:
            return None  # finalized, not failed: send nothing
        except BaseException:
            channel.close()  # a failed handshake must not strand the relay
            raise
        self.session_tickets.add(hostname)
        return TlsStream(session)


class ShadowsocksMethod(AccessMethod):
    """The full pair: ss-server on the VM, ss-local on the laptop."""

    name = "shadowsocks"
    display_name = "Shadowsocks"
    requires_client_software = True

    def __init__(self, testbed, password: str = "scholar-tunnel",
                 keepalive: float = DEFAULT_KEEPALIVE) -> None:
        super().__init__(testbed)
        self.password = password
        self.keepalive = keepalive
        self.server: t.Optional[SsServer] = None
        self.local: t.Optional[SsLocal] = None
        self.connected = False

    def setup(self):
        from ...dns import StubResolver
        from ...measure.testbed import GOOGLE_DNS_ADDR
        testbed = self.testbed
        if self.server is None:
            resolver = StubResolver(testbed.sim, testbed.remote_vm,
                                    upstream=GOOGLE_DNS_ADDR)
            self.server = SsServer(
                testbed.sim, testbed.remote_vm, resolver,
                cpu=testbed.remote_cpu, password=self.password,
                keepalive=self.keepalive)
        self.local = SsLocal(testbed, testbed.remote_vm.address,
                             password=self.password,
                             keepalive=self.keepalive)
        # First-session auth so the method is usable immediately.
        yield from self.local.ensure_session()
        self.connected = True

    def connector(self) -> SsConnector:
        if not self.connected or self.local is None:
            raise MiddlewareError("shadowsocks is not set up")
        return SsConnector(self.local)

    def attach_client(self, host):
        """Generator: a dedicated ss-local on another client machine."""
        if self.server is None:
            raise MiddlewareError("shadowsocks server is not deployed")
        local = SsLocal(self.testbed, self.testbed.remote_vm.address,
                        password=self.password, keepalive=self.keepalive,
                        host=host)
        yield from local.ensure_session()
        return SsConnector(local)
