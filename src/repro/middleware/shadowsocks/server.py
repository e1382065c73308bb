"""The Shadowsocks server (``ss-server``) on the rented US VM.

Behavioural details that drive the paper's measurements:

* **Per-session authentication** (the paper's TCP 1): a data stream is
  only relayed for clients holding a live authenticated session; the
  session expires after the 10 s keep-alive, forcing re-auth on every
  60 s-spaced page load.
* **Hang-on-garbage**: bytes that don't decrypt to a valid request are
  swallowed silently and the connection is left open — the classic
  Shadowsocks probe-resistance choice that, ironically, became the
  GFW's active-probing fingerprint.
* **CPU accounting**: each auth and relayed byte consumes work on the
  shared single-core VM (:attr:`Testbed.remote_cpu`), which is what
  bends Shadowsocks' curve past 60 concurrent clients in Figure 7.
"""

from __future__ import annotations

import functools
import typing as t

from ...dns import StubResolver
from ...errors import NameResolutionError, TransportError
from ...sim import Event, ProcessorSharingServer, Simulator
from ...transport import TcpConnection, TransportLayer
from ..base import (cpu_charge, decode_forward, decode_raw, encode_raw,
                    forward_encoder, relay)
from .protocol import DEFAULT_KEEPALIVE, SS_PORT, data_features

#: Server CPU work per auth: multi-user deployments of the era
#: verified passwords with key-stretching hashes — ~100 ms of CPU on
#: the single-core VM.  Re-run on every fresh connection (keep-alive
#: reinitialization), this is what bends Shadowsocks' curve past 60
#: concurrent clients in Figure 7 and stretches its PLT.
AUTH_DEMAND = 0.1
CONNECT_DEMAND = 0.004
PER_BYTE_DEMAND = 4e-7


class SsServer:
    """ss-server with the paper's session-auth variant."""

    def __init__(
        self,
        sim: Simulator,
        host,
        resolver: StubResolver,
        cpu: ProcessorSharingServer,
        password: str = "scholar-tunnel",
        port: int = SS_PORT,
        keepalive: float = DEFAULT_KEEPALIVE,
    ) -> None:
        self.sim = sim
        self.host = host
        self.resolver = resolver
        self.cpu = cpu
        self.password = password
        self.port = port
        self.keepalive = keepalive
        #: client address -> last authenticated-activity time
        self._sessions: t.Dict[str, float] = {}
        self.auths = 0
        # Relay callables, shared by every stream.
        self._charge = cpu_charge(cpu, PER_BYTE_DEMAND)
        self._encode_client = forward_encoder(data_features())
        transport = t.cast(TransportLayer, host.transport)
        transport.listen_tcp(port, self._accept)

    # -- session management ---------------------------------------------------------

    def session_alive(self, client: str) -> bool:
        last = self._sessions.get(client)
        return last is not None and (self.sim.now - last) <= self.keepalive

    def _touch(self, client: str) -> None:
        # Prune sessions already past the keepalive window on the way
        # in: ``session_alive`` treats them as dead either way, so this
        # only bounds the table, it never changes an answer.
        now = self.sim.now
        for stale in [key for key, last in self._sessions.items()
                      if now - last > self.keepalive]:
            del self._sessions[stale]
        self._sessions[client] = now

    def _charge_client_frame(self, client: str, length: int) -> Event:
        """A relayed client frame is session activity, then CPU work."""
        self._touch(client)
        return self._charge(length)

    # -- connection handling -----------------------------------------------------------

    def _accept(self, conn: TcpConnection) -> None:
        self.sim.process(self._serve(conn), name="ss-server")

    def _serve(self, conn: TcpConnection):
        """Unified per-connection state machine.

        The paper's source-code reading (§4.3) found that the auth
        procedure re-initializes whenever a connection has carried no
        request for 10 s — so every *new* connection must run the
        auth exchange before it can relay, and the dedicated session
        connection (Figure 4's TCP 1) anchors the HTTP session.
        """
        client = str(conn.remote_addr)
        conn_authed = False
        while True:
            try:
                first = yield conn.recv_message()
            except TransportError:
                return
            if first is None:
                return
            if isinstance(first, tuple) and first[0] == "ss-auth":
                ok = yield from self._handle_auth(conn, client, first)
                if not ok:
                    return  # hang already consumed the connection
                conn_authed = True
                continue
            if isinstance(first, tuple) and first[0] == "ss-connect":
                if not (conn_authed and self.session_alive(client)):
                    # Unauthenticated relay attempt: hang, like garbage.
                    while (yield conn.recv_message()) is not None:
                        pass
                    return
                yield from self._handle_relay(conn, client, first)
                return
            # Garbage (active probe, scanner): swallow and hang. Never
            # answer, never reset — the fingerprintable Shadowsocks tell.
            while (yield conn.recv_message()) is not None:
                pass
            return

    def _handle_auth(self, conn: TcpConnection, client: str, frame: t.Any):
        """Challenge–response user/password auth (2 round trips).

        The server issues a nonce; the client must answer with
        ``HMAC-SHA256(password, nonce)`` — replay-proof, and verified
        with bcrypt-grade CPU cost on this single-core VM.
        """
        from ...crypto import hmac_sha256
        nonce = f"{client}:{self.sim.now}".encode()
        conn.send_message(36, meta=("ss-auth-challenge", nonce),
                          features=data_features())
        try:
            response = yield conn.recv_message()
        except TransportError:
            return False
        expected = hmac_sha256(self.password.encode(), nonce)
        if not (isinstance(response, tuple) and response[0] == "ss-auth-response"
                and response[1] == expected):
            # Wrong credentials are swallowed silently.
            while (yield conn.recv_message()) is not None:
                pass
            return False
        yield self.cpu.submit(AUTH_DEMAND)
        self.auths += 1
        self._touch(client)
        conn.send_message(20, meta=("ss-auth-ok",), features=data_features())
        return True

    def _handle_relay(self, conn: TcpConnection, client: str, frame: t.Any):
        _tag, host, port = frame
        yield self.cpu.submit(CONNECT_DEMAND)
        transport = t.cast(TransportLayer, self.host.transport)
        try:
            address = yield self.resolver.resolve(host)
            target = yield transport.connect_tcp(address, port, timeout=30.0)
        except (NameResolutionError, TransportError):
            conn.close()
            return
        self._touch(client)
        try:
            conn.send_message(20, meta=("ss-ready",),
                              features=data_features())
        except TransportError:
            # The client vanished between dial and ready-ack; the
            # freshly-dialed target must not outlive the relay.
            target.close()
            conn.close()
            return
        self.sim.process(
            relay(conn, target, decode_forward, encode_raw,
                  functools.partial(self._charge_client_frame, client)),
            name="ss-up")
        self.sim.process(
            relay(target, conn, decode_raw, self._encode_client,
                  self._charge), name="ss-down")
