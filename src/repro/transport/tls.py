"""A simplified TLS 1.2 layer over a :class:`TcpConnection`.

Models exactly what matters for this reproduction:

* handshake round trips (2-RTT full, 1-RTT abbreviated/resumed) and
  handshake byte volumes — these feed page-load time;
* the cleartext ClientHello SNI — the observable the GFW's SNI filter
  keys on;
* per-record byte overhead — this feeds the Figure 6a traffic
  accounting;
* ciphertext wire features (high entropy, ``tls`` framing) — what DPI
  sees for HTTPS flows.

No actual key exchange is performed here; real cryptography lives in
``repro.crypto`` and is used by the protocols that need real bytes
(Shadowsocks framing, ScholarCloud blinding, the asyncio proxies).
"""

from __future__ import annotations

import functools
import typing as t

from ..errors import TransportError
from ..net import WireFeatures
from ..sim import Event
from .tcp import TcpConnection

#: Per-record overhead: 5-byte header + ~24 bytes MAC/padding (CBC-era).
RECORD_OVERHEAD = 29
#: Handshake message sizes, bytes (typical 2017-era RSA/ECDHE exchange).
CLIENT_HELLO = 289
SERVER_HELLO_WITH_CERT = 2100
CLIENT_KEY_EXCHANGE_FINISHED = 126
SERVER_FINISHED = 51
ABBREVIATED_SERVER_HELLO = 110


def record_length(length: int) -> int:
    """Wire length of ``length`` application bytes: one
    :data:`RECORD_OVERHEAD` per record of up to 16 KiB, and at least one
    record."""
    return length + max(1, (length + 16383) // 16384) * RECORD_OVERHEAD


@functools.lru_cache(maxsize=256)
def handshake_features(sni: t.Optional[str]) -> WireFeatures:
    """Wire features of a ClientHello: parseable TLS, SNI in the clear.

    One shared value per SNI: ``WireFeatures`` is frozen, and nothing
    compares features by identity.
    """
    return WireFeatures(
        protocol_tag="tls", sni=sni, entropy=5.5, handshake=True,
        length_signature=CLIENT_HELLO)


#: Wire features of every TLS application record: opaque but framed.
#: Like the handshake constants below, one shared value.
APP_FEATURES = WireFeatures(protocol_tag="tls", sni=None, entropy=7.95)
#: Wire features of the client's key exchange and Finished, and of the
#: server's Finished.
FINISHED_FEATURES = WireFeatures(protocol_tag="tls", handshake=True,
                                 entropy=7.0)
#: Wire features of a ServerHello, full (with the certificate) or
#: abbreviated.
SERVER_HELLO_FEATURES = WireFeatures(protocol_tag="tls", handshake=True,
                                     entropy=6.0)


def app_features() -> WireFeatures:
    """Wire features of TLS application records: opaque but framed."""
    return APP_FEATURES


class TlsSession:
    """One side of a TLS session bound to an established connection."""

    def __init__(self, conn: TcpConnection, sni: t.Optional[str] = None) -> None:
        self.conn = conn
        self.sni = sni
        self.established = False

    # -- handshakes (generator processes) ------------------------------------------

    def client_handshake(self, resumed: bool = False):
        """Run the client side; yields inside a simulation process."""
        self.conn.send_message(
            CLIENT_HELLO, meta=("tls", "client-hello", self.sni, resumed),
            features=handshake_features(self.sni))
        reply = yield self.conn.recv_message()
        if not (isinstance(reply, tuple) and reply[0] == "tls"):
            raise TransportError(f"unexpected TLS handshake reply: {reply!r}")
        if resumed:
            # Abbreviated: ServerHello+Finished came in one flight; we
            # answer with Finished and may immediately send data.
            self.conn.send_message(
                CLIENT_KEY_EXCHANGE_FINISHED, meta=("tls", "client-finished"),
                features=FINISHED_FEATURES)
            self.established = True
            return self
        self.conn.send_message(
            CLIENT_KEY_EXCHANGE_FINISHED, meta=("tls", "client-finished"),
            features=FINISHED_FEATURES)
        finished = yield self.conn.recv_message()
        if not (isinstance(finished, tuple) and finished[:2] == ("tls", "server-finished")):
            raise TransportError(f"unexpected TLS finished message: {finished!r}")
        self.established = True
        return self

    def server_handshake(self):
        """Run the server side; yields inside a simulation process."""
        hello = yield self.conn.recv_message()
        if not (isinstance(hello, tuple) and hello[:2] == ("tls", "client-hello")):
            raise TransportError(f"expected ClientHello, got {hello!r}")
        self.sni = hello[2]
        if hello[3]:
            self.conn.send_message(
                ABBREVIATED_SERVER_HELLO,
                meta=("tls", "server-hello-abbreviated"),
                features=SERVER_HELLO_FEATURES)
            finished = yield self.conn.recv_message()
            if not (isinstance(finished, tuple) and finished[1] == "client-finished"):
                raise TransportError(f"expected Finished, got {finished!r}")
            self.established = True
            return self
        self.conn.send_message(
            SERVER_HELLO_WITH_CERT, meta=("tls", "server-hello"),
            features=SERVER_HELLO_FEATURES)
        finished = yield self.conn.recv_message()
        if not (isinstance(finished, tuple) and finished[1] == "client-finished"):
            raise TransportError(f"expected Finished, got {finished!r}")
        self.conn.send_message(
            SERVER_FINISHED, meta=("tls", "server-finished"),
            features=FINISHED_FEATURES)
        self.established = True
        return self

    # -- application data -------------------------------------------------------------

    def send(self, length: int, meta: t.Any = None) -> None:
        """Send ``length`` application bytes inside TLS records."""
        if not self.established:
            raise TransportError("TLS session not established")
        self.conn.send_message(record_length(length), meta=("tls-app", meta),
                               features=APP_FEATURES)

    def recv(self):
        """Event firing with the peer's application meta (unwrapped)."""
        inner = self.conn.recv_message()
        unwrapped = Event(self.conn.sim)

        def on_message(event):
            if not event.ok:
                unwrapped.fail(event.value)
                return
            value = event.value
            if value is None:  # EOF
                unwrapped.succeed(None)
            elif isinstance(value, tuple) and value[0] == "tls-app":
                unwrapped.succeed(value[1])
            else:
                unwrapped.fail(TransportError(f"non-TLS data on TLS session: {value!r}"))
        inner.add_callback(on_message)
        return unwrapped

    # -- message channel: a TLS leg can be either end of a relay ----------------------

    def send_message(self, length: int, meta: t.Any = None,
                     features: t.Optional[WireFeatures] = None) -> None:
        """:meth:`send`; records always carry the TLS app features."""
        self.send(length, meta)

    def recv_message(self):
        return self.recv()

    def close(self) -> None:
        self.conn.close()
