"""Packet and wire-feature model.

Packets are layered: an outer :class:`Packet` may carry a transport
segment or, for tunnels, a whole inner packet.  DPI in the GFW never
reads simulation object internals directly — it reads the packet's
:class:`WireFeatures`, the set of properties genuinely observable on
the wire (visible protocol framing, SNI, payload entropy, exposed
plaintext).  Every protocol implementation is responsible for setting
features that honestly describe the bytes it would emit, which is what
makes censorship outcomes emerge from wire format rather than from a
lookup table.
"""

from __future__ import annotations

import itertools
import typing as t
from dataclasses import dataclass

from .addresses import IPv4Address

#: Bytes of IPv4 header on every packet.
IP_HEADER = 20
#: Bytes of TCP header (no options).
TCP_HEADER = 20
#: Bytes of UDP header.
UDP_HEADER = 8
#: Maximum TCP segment payload (Ethernet MTU minus headers).
MSS = 1460

_packet_ids = itertools.count(1)


@dataclass(frozen=True)
class WireFeatures:
    """DPI-observable properties of a packet's payload bytes.

    Attributes
    ----------
    protocol_tag:
        The framing an on-path observer can parse from the first bytes:
        ``"plain-http"``, ``"tls"``, ``"pptp-gre"``, ``"l2tp-udp"``,
        ``"openvpn"``, ``"unknown-stream"`` (e.g. Shadowsocks, whose
        point is precisely to show no parseable framing), etc.
    sni:
        Server name visible in a TLS ClientHello or HTTP Host header;
        ``None`` when absent or encrypted.
    entropy:
        Estimated payload entropy in bits per byte.  Modern ciphertext
        sits near 8.0; text near 4–5; the byte-mapped blinding stream
        also sits near 8.0 but carries no recognizable framing *and*
        fails ciphersuite-shaped length/packet-structure tests.
    plaintext:
        Any plaintext an observer can read (for keyword filtering).
    handshake:
        True for packets that are part of a protocol handshake — the
        packets DPI fingerprinting keys on.
    length_signature:
        A coarse bucket of payload length used by traffic classifiers
        (Shadowsocks' fixed-size auth frames are a classic giveaway).
    """

    protocol_tag: str = "plain"
    sni: t.Optional[str] = None
    entropy: float = 4.0
    plaintext: str = ""
    handshake: bool = False
    length_signature: t.Optional[int] = None

    def blinded(self) -> "WireFeatures":
        """Features after passing through a blinding codec.

        Blinding re-encodes the bytes: framing disappears, plaintext
        disappears, SNI disappears, entropy stays high but the byte
        distribution no longer matches any known cipher suite's
        record structure.
        """
        return WireFeatures(
            protocol_tag="unclassified",
            sni=None,
            entropy=7.9,
            plaintext="",
            handshake=False,
            length_signature=None,
        )


#: Features of pure ciphertext with no visible framing (Shadowsocks).
OPAQUE_STREAM = WireFeatures(protocol_tag="unknown-stream", entropy=8.0)


#: Wire features of a packet built without any, shared by all of them
#: (``WireFeatures`` is frozen).
DEFAULT_FEATURES = WireFeatures()
#: A packet's fields: what ``==`` compares and what :meth:`Packet.copy`
#: may change.
_FIELDS = ("src", "dst", "protocol", "payload", "size", "features", "ttl",
           "packet_id", "flow")


class Packet:
    """A packet on the simulated wire.

    ``payload`` is a transport segment (``repro.transport``) or an
    inner :class:`Packet` when tunnel-encapsulated.  ``size`` is the
    full on-wire size in bytes including all headers.  ``flow`` is the
    identifier of the application flow this packet belongs to, as seen
    at the outermost layer; the transport fills it in.  Every packet
    takes a fresh ``packet_id``.

    A packet on a link is its own arrival event: ``Link.transmit``
    stores the receiving node and the link as ``_receiver`` and
    ``_link`` and queues the packet, and the simulator's
    :meth:`_run_callbacks` hands it over.  Neither is a field, so
    ``copy`` and ``==`` ignore them.  ``==`` compares the fields, as a
    dataclass's does, so a packet is unhashable; it is slotted, since
    every hop of every segment builds or moves one.
    """

    __slots__ = _FIELDS + ("_receiver", "_link")

    def __init__(self, src: IPv4Address, dst: IPv4Address, protocol: str,
                 payload: t.Any, size: int,
                 features: WireFeatures = DEFAULT_FEATURES,
                 flow: t.Optional[t.Tuple[t.Any, ...]] = None,
                 ttl: int = 64) -> None:
        self.src = src
        self.dst = dst
        self.protocol = protocol  # "tcp", "udp", "icmp", "gre"
        self.payload = payload
        self.size = size
        self.features = features
        self.flow = flow
        self.ttl = ttl
        self.packet_id = next(_packet_ids)

    def encapsulate(
        self,
        src: IPv4Address,
        dst: IPv4Address,
        protocol: str,
        overhead: int,
        features: WireFeatures,
    ) -> "Packet":
        """Wrap this packet inside a tunnel packet."""
        return Packet(src, dst, protocol, self, self.size + overhead,
                      features, ("tunnel", str(src), str(dst), protocol))

    @property
    def is_tunneled(self) -> bool:
        """True if the payload is itself a packet."""
        return isinstance(self.payload, Packet)

    def inner(self) -> "Packet":
        """The encapsulated packet; raises if not tunneled."""
        if not self.is_tunneled:
            raise TypeError("packet is not tunnel-encapsulated")
        return t.cast(Packet, self.payload)

    def copy(self, **changes: t.Any) -> "Packet":
        """A shallow copy with ``changes`` applied and a fresh id."""
        clone = Packet(self.src, self.dst, self.protocol, self.payload,
                       self.size, self.features, self.flow, self.ttl)
        for name, value in changes.items():
            if name not in _FIELDS:
                raise TypeError(f"Packet has no field {name!r}")
            setattr(clone, name, value)
        return clone

    def _fields(self) -> t.Tuple[t.Any, ...]:
        return (self.src, self.dst, self.protocol, self.payload, self.size,
                self.features, self.ttl, self.packet_id, self.flow)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == t.cast(Packet, other)._fields()

    __hash__ = None  # type: ignore[assignment]

    def _run_callbacks(self) -> None:
        """Arrive: called by ``Simulator.step`` when the packet is popped."""
        self._receiver.receive(self, self._link)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Packet #{self.packet_id} {self.src}->{self.dst} "
                f"{self.protocol} {self.size}B {self.features.protocol_tag}>")
