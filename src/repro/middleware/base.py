"""Shared machinery for access-method middleware.

Every access method ultimately hands the browser a
:class:`~repro.http.client.Stream`.  Proxied methods build those
streams out of *message channels* — anything with ``send_message`` /
``recv_message`` (a :class:`~repro.transport.TcpConnection`, or a
:class:`RelayedChannel` riding across a proxy chain).  TLS-in-tunnel
works because :class:`~repro.transport.TlsSession` only needs the
channel interface.

Relay framing: proxies forward application messages wrapped as
``("fwd", length, meta)`` so every hop knows how many bytes to put on
its wire; each hop chooses its own wire features, which is how tunnel
legs control what the GFW can see.  Every hop that reads a channel and
forwards what it reads (the proxy hops, Tor's relays, the meek front
and each client-side inbox) moves its frames with one loop,
:func:`relay`, and names only its frame formats: a decoder for what it
receives and an encoder for what it sends.  Where frames end in a
queue for a reader, the sink is an :class:`Inbox`.
"""

from __future__ import annotations

import typing as t

from ..errors import MiddlewareError, TransportError
from ..http.client import Connector, Stream
from ..net import WireFeatures
from ..sim import Event, ProcessorSharingServer, Simulator, Store
from ..transport import tls as tls_sizes

if t.TYPE_CHECKING:  # pragma: no cover
    from ..measure.testbed import Testbed

#: Framing label for relayed application messages.
FWD = "fwd"


def wrap_forward(length: int, meta: t.Any) -> t.Tuple[str, int, t.Any]:
    return (FWD, length, meta)


def unwrap_forward(message: t.Any) -> t.Tuple[int, t.Any]:
    if not (isinstance(message, tuple) and len(message) == 3
            and message[0] == FWD):
        raise MiddlewareError(f"malformed relay frame: {message!r}")
    return message[1], message[2]


class MessageChannel:
    """Duck-typed protocol: what a relayed endpoint looks like."""

    sim: Simulator

    def send_message(self, length: int, meta: t.Any = None,
                     features: t.Optional[WireFeatures] = None) -> None:
        raise NotImplementedError

    def recv_message(self) -> Event:
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError


class RelayedChannel(MessageChannel):
    """Client-side endpoint of a proxied stream.

    ``send_message`` wraps the payload in relay framing and pushes it
    down the underlying channel with ``overhead`` extra bytes and the
    tunnel's wire features.  A :func:`relay`, started with the channel,
    unwraps incoming frames into an :class:`Inbox`, so EOF and a failed
    underlying channel both reach the reader as one None.
    """

    def __init__(self, sim: Simulator, underlying: MessageChannel,
                 overhead: int, features: t.Optional[WireFeatures],
                 name: str = "relay") -> None:
        self.sim = sim
        self.underlying = underlying
        self.overhead = overhead
        self.features = features
        self._inbox = Inbox(sim)
        self._closed = False
        sim.process(relay(underlying, self._inbox, decode_forward, encode_raw),
                    name=f"{name}-pump")

    # -- MessageChannel ----------------------------------------------------------

    def send_message(self, length: int, meta: t.Any = None,
                     features: t.Optional[WireFeatures] = None) -> None:
        # Inner features are deliberately ignored: on the tunneled leg
        # the wire shows only the tunnel's own features.
        self.underlying.send_message(
            length + self.overhead, meta=wrap_forward(length, meta),
            features=self.features)

    def recv_message(self) -> Event:
        return self._inbox.get()

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self.underlying.close()

    # -- state, mirroring TcpConnection enough for TlsStream.alive -------------------

    @property
    def state(self) -> str:
        return getattr(self.underlying, "state", "ESTABLISHED")


class ChannelStream(Stream):
    """Adapt any MessageChannel to the browser's Stream interface."""

    def __init__(self, channel: MessageChannel) -> None:
        self.channel = channel

    def send(self, length: int, meta: t.Any) -> None:
        self.channel.send_message(length, meta)

    def recv(self) -> Event:
        return self.channel.recv_message()

    def close(self) -> None:
        self.channel.close()

    @property
    def alive(self) -> bool:
        return getattr(self.channel, "state", "ESTABLISHED") == "ESTABLISHED"


def estimate_meta_length(meta: t.Any) -> int:
    """Byte length of an application message meta.

    Proxies relaying *inbound* traffic (target → client) see only the
    meta, not the wire length, so they need to reconstruct it.  Exact
    for this reproduction's workloads: HTTP messages expose
    ``.size()``, TLS handshake metas map onto the constants in
    :mod:`repro.transport.tls`, TLS app records add record overhead.
    """
    size = getattr(meta, "size", None)
    if callable(size):
        return int(size())
    if isinstance(meta, tuple) and meta:
        if meta[0] == "tls-app":
            return estimate_meta_length(meta[1]) + tls_sizes.RECORD_OVERHEAD
        if meta[0] == "tls" and len(meta) >= 2:
            by_name = {
                "client-hello": tls_sizes.CLIENT_HELLO,
                "server-hello": tls_sizes.SERVER_HELLO_WITH_CERT,
                "server-hello-abbreviated": tls_sizes.ABBREVIATED_SERVER_HELLO,
                "client-finished": tls_sizes.CLIENT_KEY_EXCHANGE_FINISHED,
                "server-finished": tls_sizes.SERVER_FINISHED,
            }
            return by_name.get(meta[1], 300)
        if meta[0] == "echo":
            return 64
    return 600


#: What a relay's ``decode`` returns to end the relay: the sink closes,
#: then the source.
RELAY_END = object()

#: A relayed message: its application length and meta.
Frame = t.Tuple[int, t.Any]
#: ``decode(message)``: a :data:`Frame`, None to drop the message, or
#: :data:`RELAY_END`.
Decoder = t.Callable[[t.Any], t.Any]
#: ``encode(length, meta)``: the ``(length, meta, features)`` to send.
Encoder = t.Callable[[int, t.Any],
                     t.Tuple[int, t.Any, t.Optional[WireFeatures]]]


def decode_forward(message: t.Any) -> t.Optional[Frame]:
    """A forward-framed message's frame; None drops a malformed one."""
    try:
        return unwrap_forward(message)
    except MiddlewareError:
        return None


def decode_raw(message: t.Any) -> Frame:
    """An unframed application meta, sized by :func:`estimate_meta_length`."""
    return estimate_meta_length(message), message


def encode_raw(length: int, meta: t.Any) -> t.Tuple[int, t.Any, None]:
    """Send the payload unframed, with the sink's own wire features."""
    return length, meta, None


def encode_frame(length: int, meta: t.Any) -> t.Tuple[int, Frame, None]:
    """Send the whole frame as the meta, for an :class:`Inbox` whose
    reader needs each frame's length as well."""
    return length, (length, meta), None


def forward_encoder(features: t.Optional[WireFeatures]) -> Encoder:
    """An encoder that forward-frames each payload and sends it with
    ``features``."""
    def encode(length: int, meta: t.Any):
        return length, wrap_forward(length, meta), features
    return encode


def cpu_charge(cpu: ProcessorSharingServer,
               per_byte: float) -> t.Callable[[int], Event]:
    """A relay charge: ``per_byte`` of ``cpu`` work per relayed byte."""
    def charge(length: int) -> Event:
        return cpu.submit(per_byte * length)
    return charge


def relay(source: MessageChannel, sink: MessageChannel, decode: Decoder,
          encode: Encoder,
          charge: t.Optional[t.Callable[[int], Event]] = None):
    """Generator: relay frames from ``source`` to ``sink`` until one side
    ends.  Every hop runs one per direction it forwards, and a reader's
    :class:`Inbox` is filled by one.

    Per frame: receive, decode, wait for ``charge(length)`` (the hop's
    CPU work, if it models any), encode, send.  EOF or a receive error
    closes the sink; a send error closes the source; :data:`RELAY_END`
    closes the sink, then the source.
    """
    while True:
        try:
            message = yield source.recv_message()
        except TransportError:
            message = None
        if message is None:
            sink.close()
            return
        frame = decode(message)
        if frame is None:
            continue
        if frame is RELAY_END:
            sink.close()
            source.close()
            return
        if charge is not None:
            yield charge(frame[0])
        try:
            sink.send_message(*encode(*frame))
        except TransportError:
            source.close()
            return


class Inbox(Store):
    """A :class:`~repro.sim.Store` that is a relay's sink.

    ``send_message`` queues each frame's meta and ``close`` queues the
    EOF sentinel None; readers take both with :meth:`Store.get`.  The
    queue has no bound of its own because each inbox is paced by its
    sender: it mirrors one TCP stream whose sender waits on ACKs, one
    meek poll interval of bridge cells, or one edge request/response
    at a time.  Capping it would change the calibrated Figure 4-6 wire
    traces.
    """

    __slots__ = ()

    def send_message(self, length: int, meta: t.Any = None,
                     features: t.Optional[WireFeatures] = None) -> None:
        self.put(meta)

    def close(self) -> None:
        self.put(None)


class AccessMethod:
    """One way of reaching Google Scholar, drivable by the harness."""

    #: Machine-readable identifier (figure keys use these).
    name = "abstract"
    #: Name as printed in the paper's figures.
    display_name = "Abstract"
    #: True if client software beyond the browser must run (Figure 6b).
    requires_client_software = False

    def __init__(self, testbed: "Testbed") -> None:
        self.testbed = testbed

    def setup(self):
        """Generator process: prepare the method (tunnels, circuits…)."""
        return
        yield  # pragma: no cover

    def connector(self) -> Connector:
        """The connector the browser should use."""
        raise NotImplementedError

    def attach_client(self, host):
        """Generator: provision ``host`` and return a Connector for it.

        Used by the Figure 7 scalability experiment to drive many
        concurrent clients through one server-side deployment.  Tor
        does not implement this — the paper excludes Tor from the
        scalability study because the bridge infrastructure is not
        under the experimenter's control.
        """
        raise NotImplementedError(
            f"{self.display_name} does not support multi-client attachment")
        yield  # pragma: no cover
