"""The deterministic edge response cache.

A bounded, TTL'd, LRU response cache clocked off *simulated* time —
no wall clock, no ambient randomness, so a cached sweep replays
byte-identically under one seed.  The proxies key entries by
``(method, canonical request, blinding epoch)``: the epoch in the key
makes blinding-table rotation structurally coherent (a rotated proxy
*cannot* address a stale entry), and explicit invalidation hooks purge
eagerly on rotation and on audited GFW policy changes so stale bytes
do not even linger until TTL.

Sizing is in bytes with a high/low watermark: inserts that push the
cache past ``capacity_bytes`` evict least-recently-used entries until
occupancy falls to ``low_watermark * capacity_bytes``, so eviction
runs in deterministic batches instead of thrashing one entry per
insert at the boundary.
"""

from __future__ import annotations

import hashlib
import typing as t
from collections import OrderedDict
from dataclasses import dataclass

if t.TYPE_CHECKING:  # pragma: no cover
    from ..measure.metrics import CacheReport, Summary


@dataclass(frozen=True)
class CacheConfig:
    """Knobs for one edge cache (all conservative defaults).

    ``ttl``
        Seconds a response stays fresh, measured on the sim clock.
    ``capacity_bytes`` / ``low_watermark``
        Byte budget and the occupancy fraction eviction drains to.
    """

    ttl: float = 120.0
    capacity_bytes: int = 8 * 1024 * 1024
    low_watermark: float = 0.75

    def __post_init__(self) -> None:
        if self.ttl <= 0:
            raise ValueError("cache ttl must be positive")
        if self.capacity_bytes <= 0:
            raise ValueError("cache capacity_bytes must be positive")
        if not 0.0 < self.low_watermark <= 1.0:
            raise ValueError("cache low_watermark must be in (0, 1]")


@dataclass
class _Entry:
    """One cached response plus its accounting metadata."""

    response: t.Any
    #: Wire length of the response frame as forwarded to the browser.
    wire_length: int
    #: Bytes this entry charges against ``capacity_bytes``.
    charged_bytes: int
    #: Transpacific bytes one hit avoids (blinded request + response).
    avoided_bytes: int
    #: Sim time after which the entry is stale.
    expires_at: float
    #: Blinding epoch the entry was inserted under (defense in depth:
    #: the epoch is already part of the key).
    epoch: int


def canonical_key(request: t.Any, port: int) -> t.Tuple:
    """The canonical request key: ``(method, host, port, scheme, path,
    first_visit)``.

    ``first_visit`` is part of the identity because the origin's
    response *differs* on it (first visits trigger the account-record
    side channel); everything else that matters to this reproduction's
    responses is host + path.
    """
    return ("GET", request.host, port, request.scheme, request.path,
            bool(request.first_visit))


class ResponseCache:
    """Deterministic LRU-with-TTL response cache for one domestic proxy."""

    def __init__(self, sim, config: CacheConfig, agility,
                 name: str = "edge") -> None:
        self.sim = sim
        self.config = config
        self.agility = agility
        self.name = name
        #: LRU order: oldest first.  Bounded by the watermark eviction
        #: in ``_make_room`` (insert never returns with occupancy above
        #: ``capacity_bytes``).
        self._entries: "OrderedDict[t.Tuple, _Entry]" = OrderedDict()
        self.bytes_in_cache = 0
        self.hits = 0
        self.misses = 0
        self.insertions = 0
        self.evictions = 0
        self.expirations = 0
        self.invalidations = 0
        self.bytes_served = 0
        self.transpacific_bytes_avoided = 0
        #: Streaming digest of every hit/miss/insert/evict/invalidate,
        #: in event order — O(1) memory, byte-comparable across runs
        #: for the determinism tests.
        self._digest = hashlib.blake2b(digest_size=16)

    # -- key helpers -----------------------------------------------------------

    def _full_key(self, key: t.Tuple) -> t.Tuple:
        return key + (self.agility.epoch,)

    def _note(self, op: str, key: t.Tuple) -> None:
        self._digest.update(
            f"{op}|{key!r}|{self.sim.now:.9f}\n".encode("utf-8"))

    @property
    def event_digest(self) -> str:
        """Hex digest of the hit/miss/evict/invalidate event stream."""
        return self._digest.hexdigest()

    @property
    def entries(self) -> int:
        return len(self._entries)

    # -- lookup / insert -------------------------------------------------------

    def lookup(self, key: t.Tuple) -> t.Optional[t.Any]:
        """The cached response for ``key`` at the current epoch, or None.

        A hit refreshes LRU recency and books the served/avoided byte
        counters; an expired entry is removed and counted as a miss.
        """
        full = self._full_key(key)
        entry = self._entries.get(full)
        if entry is not None and entry.expires_at < self.sim.now:
            self._drop(full, entry)
            self.expirations += 1
            self._note("expire", full)
            entry = None
        if entry is None:
            self.misses += 1
            self._note("miss", full)
            return None
        if entry.epoch != self.agility.epoch:  # pragma: no cover - keyed out
            raise AssertionError(
                f"{self.name}: stale-epoch entry addressed: {full!r}")
        self._entries.move_to_end(full)
        self.hits += 1
        self.bytes_served += entry.wire_length
        self.transpacific_bytes_avoided += entry.avoided_bytes
        self._note("hit", full)
        return entry.response

    def wire_length_of(self, key: t.Tuple) -> int:
        """Wire length recorded for a cached entry (0 when absent)."""
        entry = self._entries.get(self._full_key(key))
        return 0 if entry is None else entry.wire_length

    def insert(self, key: t.Tuple, response: t.Any, wire_length: int,
               avoided_bytes: int) -> bool:
        """Cache ``response``; False if it alone exceeds the capacity."""
        charged = max(1, wire_length)
        if charged > self.config.capacity_bytes:
            return False
        full = self._full_key(key)
        previous = self._entries.pop(full, None)
        if previous is not None:
            self.bytes_in_cache -= previous.charged_bytes
        self._make_room(charged)
        # Bounded: _make_room just drained occupancy below the low
        # watermark, so this insert stays within capacity_bytes.
        self._entries[full] = _Entry(
            response=response, wire_length=wire_length,
            charged_bytes=charged, avoided_bytes=avoided_bytes,
            expires_at=self.sim.now + self.config.ttl,
            epoch=self.agility.epoch)
        self.bytes_in_cache += charged
        self.insertions += 1
        self._note("insert", full)
        return True

    def _make_room(self, incoming: int) -> None:
        """Watermark eviction: drain LRU-first until the insert fits
        and occupancy is at or below the low watermark."""
        if self.bytes_in_cache + incoming <= self.config.capacity_bytes:
            return
        target = int(self.config.low_watermark * self.config.capacity_bytes)
        target = min(target, self.config.capacity_bytes - incoming)
        while self._entries and self.bytes_in_cache > target:
            full, entry = self._entries.popitem(last=False)
            self.bytes_in_cache -= entry.charged_bytes
            self.evictions += 1
            self._note("evict", full)

    def _drop(self, full: t.Tuple, entry: _Entry) -> None:
        del self._entries[full]
        self.bytes_in_cache -= entry.charged_bytes

    # -- coherence -------------------------------------------------------------

    def invalidate_all(self, reason: str) -> int:
        """Purge everything (blinding rotation, GFW policy change)."""
        dropped = len(self._entries)
        self._entries.clear()
        self.bytes_in_cache = 0
        self.invalidations += dropped
        self._note(f"invalidate:{reason}", ("*",))
        return dropped

    def on_policy_change(self, label: str) -> None:
        """An audited GFW policy escalation may change what is
        reachable; cached responses fetched under the old policy must
        not mask it."""
        self.invalidate_all(f"policy:{label}")

    # -- reporting -------------------------------------------------------------

    def report(self, plt_hit: "t.Optional[Summary]" = None,
               plt_miss: "t.Optional[Summary]" = None) -> "CacheReport":
        from ..measure.metrics import CacheReport
        return CacheReport(
            hits=self.hits, misses=self.misses,
            insertions=self.insertions, evictions=self.evictions,
            expirations=self.expirations, invalidations=self.invalidations,
            entries=len(self._entries), bytes_in_cache=self.bytes_in_cache,
            bytes_served=self.bytes_served,
            transpacific_bytes_avoided=self.transpacific_bytes_avoided,
            plt_hit=plt_hit, plt_miss=plt_miss,
            event_digest=self.event_digest)


class CacheRegistry:
    """Every live edge cache in one sim, for broadcast invalidation.

    Installed on the simulator as ``sim.caches`` (mirroring
    ``sim.fluid``); the GFW's audited ``apply_policy`` path notifies it
    so escalations invalidate coherently across every region's edge.
    """

    def __init__(self, sim) -> None:
        self.sim = sim
        self._caches: t.List[ResponseCache] = []

    def install(self) -> "CacheRegistry":
        self.sim.caches = self
        return self

    def register(self, cache: ResponseCache) -> ResponseCache:
        self._caches.append(cache)
        return cache

    def __iter__(self) -> t.Iterator[ResponseCache]:
        return iter(self._caches)

    def on_policy_change(self, label: str) -> None:
        for cache in self._caches:
            cache.on_policy_change(label)

    def invalidate_all(self, reason: str) -> int:
        return sum(cache.invalidate_all(reason) for cache in self._caches)
