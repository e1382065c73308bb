"""Stub and recursive resolvers with caches.

The resolution chain mirrors a campus setup: the client's
:class:`StubResolver` asks the campus :class:`RecursiveResolver`, which
asks the authoritative servers — and, when the authority sits outside
the border, the recursive query crosses the GFW, where the DNS poisoner
races the genuine answer.  Resolvers accept the *first* response whose
query id matches, which is the vulnerability DNS injection exploits.
"""

from __future__ import annotations

import typing as t

from ..errors import NameResolutionError
from ..net import Host, IPv4Address
from ..sim import Event, Simulator
from .message import DnsQuery, DnsResponse, QUERY_SIZE
from .records import DnsRecord
from .server import DNS_PORT

#: Stub resolver retry schedule (seconds between retries).
RETRY_INTERVALS = (1.0, 2.0, 4.0)


class _CacheEntry:
    __slots__ = ("records", "expires", "rcode")

    def __init__(self, records: t.Tuple[DnsRecord, ...], expires: float, rcode: str) -> None:
        self.records = records
        self.expires = expires
        self.rcode = rcode


class _ResolverCore:
    """Shared query/cache machinery for stub and recursive resolvers."""

    def __init__(self, sim: Simulator, host: Host, upstream: IPv4Address,
                 client_port: int) -> None:
        self.sim = sim
        self.host = host
        self.upstream = upstream
        self.cache: t.Dict[str, _CacheEntry] = {}
        self._pending: t.Dict[int, Event] = {}
        self._port = client_port
        host.transport.listen_udp(client_port, self._on_response)
        self.queries_sent = 0
        self.cache_hits = 0

    def cached(self, name: str) -> t.Optional[_CacheEntry]:
        name = name.lower().rstrip(".")
        entry = self.cache.get(name)
        if entry is None:
            return None
        if entry.expires < self.sim.now:
            del self.cache[name]
            return None
        return entry

    def resolve(self, name: str,
                upstream: t.Optional[IPv4Address] = None) -> Event:
        """Event that fires with an :class:`IPv4Address` for ``name``.

        Fails with :class:`NameResolutionError` on NXDOMAIN or timeout.
        """
        name = name.lower().rstrip(".")
        result = self.sim.event()
        entry = self.cached(name)
        if entry is not None:
            self.cache_hits += 1
            self._finish(result, name, entry.records, entry.rcode)
            return result
        self.sim.process(
            self._query_process(name, result, upstream or self.upstream),
            name=f"dns:{name}")
        return result

    def _query_process(self, name: str, result: Event, upstream: IPv4Address):
        last_error: t.Optional[Exception] = None
        for interval in RETRY_INTERVALS:
            query = DnsQuery(name)
            waiter = self.sim.event()
            self._pending[query.query_id] = waiter
            self.queries_sent += 1
            self.host.transport.send_udp(
                upstream, DNS_PORT, payload=query, length=QUERY_SIZE,
                sport=self._port, features=query.features())
            outcome = yield self.sim.any_of([waiter, self.sim.timeout(interval)])
            self._pending.pop(query.query_id, None)
            responses = [v for v in outcome.values() if isinstance(v, DnsResponse)]
            if responses:
                response = responses[0]
                self._cache_and_finish(result, name, response)
                return
            last_error = NameResolutionError(f"{name}: DNS query timed out")
        result.fail(last_error or NameResolutionError(f"{name}: resolution failed"))

    def _cache_and_finish(self, result: Event, name: str, response: DnsResponse) -> None:
        ttl = min((r.ttl for r in response.records), default=60.0)
        self.cache[name] = _CacheEntry(response.records, self.sim.now + ttl,
                                       response.rcode)
        self._finish(result, name, response.records, response.rcode)

    def _finish(self, result: Event, name: str,
                records: t.Tuple[DnsRecord, ...], rcode: str) -> None:
        if rcode != "NOERROR":
            result.fail(NameResolutionError(f"{name}: {rcode}"))
            return
        a_records = [r for r in records if r.rtype == "A"]
        if not a_records:
            result.fail(NameResolutionError(f"{name}: no A records"))
            return
        result.succeed(a_records[0].address())

    def _on_response(self, payload: t.Any, length: int,
                     src: IPv4Address, sport: int) -> None:
        if not isinstance(payload, DnsResponse):
            return
        waiter = self._pending.pop(payload.query_id, None)
        if waiter is not None and not waiter.triggered:
            # First matching answer wins — forged answers that arrive
            # early are accepted, which is exactly how DNS poisoning
            # defeats stub resolvers.
            waiter.succeed(payload)


class StubResolver(_ResolverCore):
    """Client-side resolver: cache + retries against one upstream.

    ``port`` must differ between multiple resolvers on one host (a VPN
    method installs its own tunnel-side resolver next to the system
    one, exactly as a real VPN client rewrites resolv.conf).
    """

    def __init__(self, sim: Simulator, host: Host,
                 upstream: t.Union[str, IPv4Address], port: int = 5353) -> None:
        super().__init__(sim, host, IPv4Address(upstream), client_port=port)


class RecursiveResolver(_ResolverCore):
    """Campus recursive resolver: answers stubs, queries authorities.

    Resolution strategy is simplified: one configured authoritative
    address per suffix, consulted directly (no root/TLD walk) — the
    paper's mechanisms need the border crossing, not the full
    delegation tree.
    """

    def __init__(self, sim: Simulator, host: Host) -> None:
        # ``upstream`` is unused for the recursive resolver; it picks
        # the authority per query.  Use a placeholder address.
        super().__init__(sim, host, IPv4Address("0.0.0.0"), client_port=5354)
        self._authorities: t.List[t.Tuple[str, IPv4Address]] = []
        host.transport.listen_udp(DNS_PORT, self._on_client_query)

    def add_authority(self, suffix: str, address: t.Union[str, IPv4Address]) -> None:
        """Route queries for ``*.suffix`` to the authority at ``address``."""
        self._authorities.append((suffix.lower().rstrip("."), IPv4Address(address)))
        # Longest suffix first.
        self._authorities.sort(key=lambda pair: -len(pair[0]))

    def authority_for(self, name: str) -> t.Optional[IPv4Address]:
        name = name.lower().rstrip(".")
        for suffix, address in self._authorities:
            if name == suffix or name.endswith("." + suffix):
                return address
        return None

    def _on_client_query(self, payload: t.Any, length: int,
                         src: IPv4Address, sport: int) -> None:
        if not isinstance(payload, DnsQuery):
            return
        self.sim.process(self._serve(payload, src, sport),
                         name=f"recurse:{payload.name}")

    def _serve(self, query: DnsQuery, src: IPv4Address, sport: int):
        from .message import RESPONSE_SIZE
        authority = self.authority_for(query.name)
        if authority is None:
            response = DnsResponse(query.query_id, query.name, (), rcode="NXDOMAIN")
        else:
            result = self.resolve(query.name, upstream=authority)
            entry_records: t.Tuple[DnsRecord, ...] = ()
            rcode = "NOERROR"
            try:
                yield result
            except NameResolutionError:
                rcode = "NXDOMAIN"
            else:
                cached = self.cached(query.name)
                if cached is not None:
                    entry_records = cached.records
            response = DnsResponse(query.query_id, query.name,
                                   entry_records, rcode=rcode)
        self.host.transport.send_udp(
            src, sport, payload=response, length=RESPONSE_SIZE,
            sport=DNS_PORT, features=response.features())
