"""Network substrate: addresses, packets, links, nodes, topology.

Assemble a topology with :class:`Network`, then install transports on
hosts via ``repro.transport``::

    from repro.sim import Simulator
    from repro.net import Network
    from repro.units import ms, Mbps

    sim = Simulator()
    net = Network(sim)
    client = net.add_host("client", address="10.0.0.1")
    server = net.add_host("server", address="203.0.113.1")
    net.connect(client, server, latency=ms(50), bandwidth=Mbps(100))
    net.build_routes()
"""

from .addresses import IPv4Address, Prefix
from .link import Direction, Link
from .middlebox import Middlebox, Verdict
from .node import Host, Node, Router
from .packet import (
    IP_HEADER,
    MSS,
    OPAQUE_STREAM,
    TCP_HEADER,
    UDP_HEADER,
    Packet,
    WireFeatures,
)
from .pcap import CapturedPacket, PacketCapture
from .topology import Network

__all__ = [
    "CapturedPacket",
    "Direction",
    "Host",
    "IP_HEADER",
    "IPv4Address",
    "Link",
    "MSS",
    "Middlebox",
    "Network",
    "Node",
    "OPAQUE_STREAM",
    "Packet",
    "PacketCapture",
    "Prefix",
    "Router",
    "TCP_HEADER",
    "UDP_HEADER",
    "Verdict",
    "WireFeatures",
]
