"""Deep packet inspection: traffic classifiers.

Each classifier inspects one packet's wire features plus the
accumulated :class:`~repro.gfw.flow_table.FlowState` and may assign the
flow a label.  Labels map to interference policies in the
:class:`~repro.gfw.blocklist.BlockPolicy`.

The classifiers implement the publicly documented detection vectors:

* **SNI filtering** — TLS ClientHellos name their destination in
  cleartext; blocked domains are reset (how HTTPS Google dies).
* **HTTP Host/URL filtering** — plain HTTP names its destination too.
* **Protocol fingerprinting** — PPTP/L2TP/OpenVPN framing is trivially
  recognizable (and, post-2015, tolerated).
* **Meek detection** — domain-fronted TLS to a known CDN front plus
  the transport's telltale polling cadence (Ensafi et al. 2015).
* **Shadowsocks detection** — a TCP stream with no parseable framing,
  near-uniform byte entropy from the very first packet, and the
  characteristic small first-frame length (IV ‖ encrypted address).
  ScholarCloud's blinded streams defeat exactly these last two
  features: blinding destroys framing *and* pads away the length
  signature, leaving nothing for this classifier to key on.
"""

from __future__ import annotations

import typing as t

from ..net import Packet
from .blocklist import BlockPolicy
from .flow_table import FlowState

#: A classification: (label, confidence in [0,1]).
Classification = t.Tuple[str, float]

#: CDN domains commonly used as meek fronts, per the Tor bridge DB.
KNOWN_MEEK_FRONTS = frozenset({
    "ajax.aliyun.example",          # stand-ins for the real CDN fronts
    "cdn.azureedge.example",
    "d111111abcdef8.cloudfront.example",
    "www.google.com",               # meek-google (killed in 2016)
})

#: First-frame length window of a Shadowsocks request:
#: 16-byte IV plus the encrypted SOCKS-style address block.
SS_FIRST_FRAME_RANGE = (17, 120)
#: Shannon entropy (bits/byte) above which a first frame reads as
#: ciphertext.
SS_ENTROPY_THRESHOLD = 7.5


class Classifier:
    """Base class: inspect a packet, maybe return a classification."""

    name = "classifier"

    #: Wire-protocol tags this classifier can possibly fire on (it must
    #: return ``None`` with no side effects for every other tag).  The
    #: firewall uses this to dispatch each packet to only the relevant
    #: classifiers instead of running the whole chain; ``None`` means
    #: "inspect every packet" and is the safe default for classifiers
    #: that do not declare their tags.
    match_tags: t.Optional[t.FrozenSet[str]] = None

    def classify(self, packet: Packet, state: FlowState,
                 policy: BlockPolicy) -> t.Optional[Classification]:
        raise NotImplementedError


class SniClassifier(Classifier):
    """Reset TLS flows whose ClientHello names a blocked domain."""

    name = "sni"
    match_tags = frozenset({"tls"})

    def classify(self, packet, state, policy):
        features = packet.features
        if features.protocol_tag != "tls" or not features.handshake:
            return None
        if policy.domain_blocked(features.sni):
            return ("blocked-sni", 1.0)
        return None


class HttpHostClassifier(Classifier):
    """Reset plain-HTTP flows whose URL names a blocked domain."""

    name = "http-host"
    match_tags = frozenset({"plain-http"})

    def classify(self, packet, state, policy):
        features = packet.features
        if features.protocol_tag != "plain-http" or not features.plaintext:
            return None
        # URL filtering: the Host header / request line is cleartext.
        hostname = features.plaintext.split("://")[-1].split("/")[0]
        if policy.domain_blocked(hostname):
            return ("blocked-sni", 1.0)  # same reset treatment
        return None


class VpnProtocolClassifier(Classifier):
    """Recognize (and by 2017 policy, tolerate) VPN framing."""

    name = "vpn"

    _TAGS = {
        "pptp-gre": "vpn-pptp",
        "l2tp-udp": "vpn-l2tp",
        "openvpn": "vpn-openvpn",
    }
    match_tags = frozenset(_TAGS)

    def classify(self, packet, state, policy):
        label = self._TAGS.get(packet.features.protocol_tag)
        if label is not None:
            return (label, 1.0)
        return None


class TorTlsClassifier(Classifier):
    """Bare Tor's distinctive TLS fingerprint (no pluggable transport)."""

    name = "tor-tls"
    match_tags = frozenset({"tor-tls"})

    def classify(self, packet, state, policy):
        if packet.features.protocol_tag == "tor-tls":
            return ("tor-tls", 0.95)
        return None


class MeekClassifier(Classifier):
    """Domain-fronted meek: known front + HTTP-polling cadence.

    meek tunnels Tor cells in HTTPS POSTs to a CDN front and polls the
    bridge on a short timer even when idle.  We require both signals:
    the front SNI (on the handshake) and at least ``min_polls`` small
    upstream packets whose spacing variance is poll-like.
    """

    name = "meek"
    match_tags = frozenset({"tls"})

    def __init__(self, min_polls: int = 4) -> None:
        self.min_polls = min_polls

    def classify(self, packet, state, policy):
        features = packet.features
        if features.protocol_tag != "tls":
            return None
        if features.handshake and features.sni in KNOWN_MEEK_FRONTS:
            # Remember the front; cadence confirms later.
            state.record_time(-1.0)  # sentinel: front seen
            return None
        if -1.0 not in state.recent_times:
            return None
        if 0 < packet.size <= 600:  # small upstream poll/POST
            state.record_time(state.last_seen)
            polls = [ts for ts in state.recent_times if ts >= 0]
            if len(polls) >= self.min_polls:
                return ("tor-meek", 0.9)
        return None


class ShadowsocksClassifier(Classifier):
    """No framing + first-packet ciphertext + SS-shaped first frame."""

    name = "shadowsocks"
    match_tags = frozenset({"unknown-stream"})

    def classify(self, packet, state, policy):
        features = packet.features
        if features.protocol_tag != "unknown-stream":
            return None
        if features.entropy < SS_ENTROPY_THRESHOLD:
            return None
        signature = features.length_signature
        if signature is None:
            return None
        low, high = SS_FIRST_FRAME_RANGE
        if low <= signature <= high:
            return ("shadowsocks", 0.75)
        return None


def default_classifiers() -> t.List[Classifier]:
    """The 2017-era classifier pipeline, in evaluation order."""
    return [
        SniClassifier(),
        HttpHostClassifier(),
        VpnProtocolClassifier(),
        TorTlsClassifier(),
        MeekClassifier(),
        ShadowsocksClassifier(),
    ]
