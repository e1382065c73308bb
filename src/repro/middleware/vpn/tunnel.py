"""Packet-level VPN tunneling: client and server hook machinery.

A VPN here is what it really is: IP-in-something encapsulation.  The
client host grows an outbound hook that wraps matching packets and
re-targets them at the VPN server; the server decapsulates, NATs, and
forwards.  Replies reverse the path.  Because the *outer* packet is all
the GFW can parse, the inner flow (destination, SNI, everything) is
invisible — which is precisely why VPNs beat DNS poisoning and SNI
resets.
"""

from __future__ import annotations

import typing as t

from ...net import Host, IPv4Address, Packet, Prefix, WireFeatures
from ...sim import Simulator
from .nat import NatTable

#: Selector deciding which outbound packets enter the tunnel.
RouteSelector = t.Callable[[Packet], bool]


class VpnTunnelServer:
    """Server-side decapsulation + NAT on a simulated host."""

    def __init__(self, sim: Simulator, host: Host, protocol: str,
                 overhead: int, features: WireFeatures) -> None:
        self.sim = sim
        self.host = host
        self.protocol = protocol
        self.overhead = overhead
        self.features = features
        self.nat = NatTable(host.address)
        #: client address -> active (so multiple clients can attach)
        self.clients: t.Set[str] = set()
        host.inbound_hooks.append(self._hook)

    def attach_client(self, client_addr: IPv4Address) -> None:
        self.clients.add(str(client_addr))

    def _hook(self, packet: Packet) -> t.Optional[Packet]:
        # Tunneled packet from a client: decapsulate, NAT, forward.
        if (packet.protocol == self.protocol and packet.is_tunneled
                and packet.dst == self.host.address
                and str(packet.src) in self.clients):
            inner = packet.inner()
            translated = self.nat.outbound(inner)
            if translated is None:
                return None
            self.host.send(translated)
            return None
        # Reply from the open Internet matching a NAT entry: wrap it
        # back toward the client.
        if packet.dst == self.host.address and not packet.is_tunneled:
            restored = self.nat.inbound(packet)
            if restored is not None:
                wrapped = restored.encapsulate(
                    src=self.host.address, dst=restored.dst,
                    protocol=self.protocol, overhead=self.overhead,
                    features=self.features)
                self.host.send(wrapped)
                return None
        return packet


class VpnTunnelClient:
    """Client-side encapsulation hooks."""

    def __init__(self, sim: Simulator, host: Host,
                 server_addr: IPv4Address, protocol: str, overhead: int,
                 features: WireFeatures, selector: RouteSelector) -> None:
        self.sim = sim
        self.host = host
        self.server_addr = server_addr
        self.protocol = protocol
        self.overhead = overhead
        self.features = features
        self.selector = selector
        self.packets_tunneled = 0
        host.outbound_hooks.append(self._outbound)
        host.inbound_hooks.append(self._inbound)

    def _outbound(self, packet: Packet) -> t.Optional[Packet]:
        if packet.is_tunneled or packet.dst == self.server_addr:
            return packet  # never re-wrap tunnel traffic
        if not self.selector(packet):
            return packet
        self.packets_tunneled += 1
        return packet.encapsulate(
            src=self.host.address, dst=self.server_addr,
            protocol=self.protocol, overhead=self.overhead,
            features=self.features)

    def _inbound(self, packet: Packet) -> t.Optional[Packet]:
        if (packet.protocol == self.protocol and packet.is_tunneled
                and packet.src == self.server_addr):
            return packet.inner()
        return packet


def full_tunnel_selector(local_prefixes: t.Sequence[Prefix]) -> RouteSelector:
    """Route everything except campus-local traffic (native VPN)."""

    def selector(packet: Packet) -> bool:
        return not any(packet.dst in prefix for prefix in local_prefixes)
    return selector


def split_tunnel_selector(routed_prefixes: t.Sequence[Prefix]) -> RouteSelector:
    """Route only configured prefixes (OpenVPN with explicit routes)."""

    def selector(packet: Packet) -> bool:
        return any(packet.dst in prefix for prefix in routed_prefixes)
    return selector
