"""Edge cache & content-delivery layer for the proxy pair.

A deterministic, bounded, TTL'd response cache wired into the domestic
proxy, keyed by ``(method, canonical request, blinding epoch)`` so
blinding rotation and GFW policy escalations invalidate coherently.
Everything is opt-in: with no :class:`CacheConfig` the proxies are
event-for-event identical to the uncached system.
"""

from .store import CacheConfig, CacheRegistry, ResponseCache, canonical_key
from .workload import (
    DEFAULT_CORPUS,
    DEFAULT_ZIPF_S,
    ZipfSampler,
    query_corpus,
    scholar_query_page,
)

__all__ = [
    "CacheConfig",
    "CacheRegistry",
    "ResponseCache",
    "canonical_key",
    "DEFAULT_CORPUS",
    "DEFAULT_ZIPF_S",
    "ZipfSampler",
    "query_corpus",
    "scholar_query_page",
]
