"""Authoritative DNS server over simulated UDP."""

from __future__ import annotations

import typing as t

from ..net import Host, IPv4Address
from ..sim import Simulator
from ..transport import TransportLayer
from .message import DnsQuery, DnsResponse, RESPONSE_SIZE
from .records import Zone

DNS_PORT = 53


class AuthoritativeServer:
    """Serves one or more zones on UDP port 53 of its host."""

    def __init__(self, sim: Simulator, host: Host, zones: t.Iterable[Zone]) -> None:
        self.sim = sim
        self.host = host
        self.zones = list(zones)
        transport = t.cast(TransportLayer, host.transport)
        transport.listen_udp(DNS_PORT, self._on_query)

    def _on_query(self, payload: t.Any, length: int,
                  src: IPv4Address, sport: int) -> None:
        if not isinstance(payload, DnsQuery):
            return
        response = self._answer(payload)
        transport = t.cast(TransportLayer, self.host.transport)
        transport.send_udp(
            src, sport, payload=response, length=RESPONSE_SIZE,
            sport=DNS_PORT, features=response.features())

    def _answer(self, query: DnsQuery) -> DnsResponse:
        # Most-specific zone wins (a delegated child zone shadows its
        # parent), exactly like real zone cuts.
        covering = sorted((z for z in self.zones if z.covers(query.name)),
                          key=lambda z: -len(z.origin))
        for zone in covering:
            records = tuple(zone.lookup(query.name))
            if records:
                return DnsResponse(query.query_id, query.name, records)
        return DnsResponse(query.query_id, query.name, (), rcode="NXDOMAIN")
