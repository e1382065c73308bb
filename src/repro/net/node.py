"""Nodes: hosts and routers.

A :class:`Node` owns addresses and link attachments and forwards
packets via a next-hop routing table.  :class:`Host` additionally
carries a transport layer (installed by ``repro.transport``) and
packet hooks, the extension point used by VPN tunnels and NAT.
"""

from __future__ import annotations

import typing as t

from ..errors import NetworkError, RoutingError
from ..sim import Simulator, TraceLog
from .addresses import IPv4Address
from .link import Link
from .packet import Packet

#: An outbound hook receives a packet about to leave the node and
#: returns a replacement packet, or None to consume it (the hook takes
#: over delivery, e.g. tunnel encapsulation that re-sends).
PacketHook = t.Callable[[Packet], t.Optional[Packet]]


class Node:
    """A network element with addresses, links, and a routing table."""

    def __init__(self, sim: Simulator, name: str,
                 trace: t.Optional[TraceLog] = None) -> None:
        self.sim = sim
        self.name = name
        self.trace = trace
        self.addresses: t.List[IPv4Address] = []
        # Both tables key on ``IPv4Address.value``, so a hop's lookups
        # hash an int in C rather than call ``IPv4Address.__hash__``.
        self._owned: t.Set[int] = set()
        self.links: t.List[Link] = []
        # Next-hop routing: exact destination -> link, and an optional
        # default link.
        self._host_routes: t.Dict[int, Link] = {}
        self._default_route: t.Optional[Link] = None
        self.outbound_hooks: t.List[PacketHook] = []
        self.inbound_hooks: t.List[PacketHook] = []

    # -- configuration --------------------------------------------------------

    def add_address(self, address: t.Union[str, IPv4Address]) -> IPv4Address:
        addr = IPv4Address(address)
        self.addresses.append(addr)
        self._owned.add(addr.value)
        return addr

    @property
    def address(self) -> IPv4Address:
        """The node's primary address."""
        if not self.addresses:
            raise NetworkError(f"{self.name} has no address")
        return self.addresses[0]

    def _attach(self, link: Link) -> None:
        self.links.append(link)

    def add_host_route(self, destination: t.Union[str, IPv4Address], link: Link) -> None:
        self._host_routes[IPv4Address(destination).value] = link

    def set_default_route(self, link: Link) -> None:
        self._default_route = link

    def clear_routes(self) -> None:
        self._host_routes.clear()
        self._default_route = None

    def route_for(self, destination: IPv4Address) -> Link:
        """Host route, else the default route; raises :class:`RoutingError`."""
        link = self._host_routes.get(destination.value)
        if link is not None:
            return link
        if self._default_route is not None:
            return self._default_route
        raise RoutingError(f"{self.name}: no route to {destination}")

    # -- data path -------------------------------------------------------------

    def owns(self, address: IPv4Address) -> bool:
        return address.value in self._owned

    def send(self, packet: Packet) -> None:
        """Originate or forward ``packet`` out of this node."""
        if self.outbound_hooks:
            for hook in self.outbound_hooks:
                replacement = hook(packet)
                if replacement is None:
                    return
                packet = replacement
        # ``route_for``, inline: this runs once per segment sent.
        link = self._host_routes.get(packet.dst.value)
        if link is None:
            link = self._default_route
            if link is None:
                raise RoutingError(f"{self.name}: no route to {packet.dst}")
        link.transmit(packet, self)

    def receive(self, packet: Packet, link: Link) -> None:
        """Called by a link when a packet arrives: deliver it here, or
        forward it toward its destination.

        A transit packet moves on as the same object, its ``ttl``
        lowered in place.  That is safe because a packet object is on
        only one link at a time: every sender builds a fresh
        :class:`Packet`, and tunnels, NAT and GFW injections build new
        ones rather than re-sending one they hold.  The arrival event
        relies on the same rule: ``Link.transmit`` queues the packet
        itself, with the receiver and link stored on it, so one object
        can be queued for only one arrival at a time.
        """
        if self.inbound_hooks:
            for hook in self.inbound_hooks:
                replacement = hook(packet)
                if replacement is None:
                    return
                packet = replacement
        dst = packet.dst.value
        if dst in self._owned:
            self.deliver(packet)
            return
        if packet.ttl <= 0:
            return  # silently drop expired packets
        packet.ttl -= 1
        # ``route_for``, inline: this runs once per router hop.
        out = self._host_routes.get(dst)
        if out is None:
            out = self._default_route
            if out is None:
                if self.trace is not None:
                    self.trace.emit("node.no-route", node=self.name,
                                    dst=str(packet.dst))
                return
        out.transmit(packet, self)

    def deliver(self, packet: Packet) -> None:
        """Packet addressed to this node; routers drop silently."""

    def __repr__(self) -> str:  # pragma: no cover
        addr = str(self.addresses[0]) if self.addresses else "-"
        return f"<{type(self).__name__} {self.name} {addr}>"


class Router(Node):
    """A pure forwarding element."""


class Host(Node):
    """An end host: packets addressed to it are handed to its transport.

    The transport layer is installed by ``repro.transport.sockets`` —
    keeping the dependency one-directional (transport imports net).
    """

    def __init__(self, sim: Simulator, name: str,
                 trace: t.Optional[TraceLog] = None) -> None:
        super().__init__(sim, name, trace)
        self.transport: t.Optional[t.Any] = None

    def deliver(self, packet: Packet) -> None:
        if isinstance(packet.payload, Packet):  # ``packet.is_tunneled``
            # Tunnel endpoints register inbound hooks; an encapsulated
            # packet reaching deliver() means no hook claimed it.
            if self.trace is not None:
                self.trace.emit("host.unclaimed-tunnel", node=self.name,
                                packet_id=packet.packet_id)
            return
        if self.transport is None:
            if self.trace is not None:
                self.trace.emit("host.no-transport", node=self.name,
                                packet_id=packet.packet_id)
            return
        self.transport.demux(packet)
