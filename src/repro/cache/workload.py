"""The repeated-query Scholar workload.

Real Scholar traffic is not a uniform page fetch: query popularity is
heavy-tailed (a few hot queries dominate), and scraper-shaped clients
(ROADMAP item 4b, modeled on the citation-crawl scrapers in the
related repos) page through several result sets back-to-back.  This
module builds the deterministic query corpus and the Zipf sampler that
the ``queries`` and ``query-bursts`` workloads of
:mod:`repro.measure.load` drive through the edge cache.

Query-result documents are marked proxy-cacheable: the same query
returns the same result page within the cache TTL, which is precisely
the content-delivery bet the edge cache makes (ROADMAP item 3).
"""

from __future__ import annotations

import typing as t

from ..http.page import Page, PageObject

#: Default corpus size (distinct queries clients draw from).
DEFAULT_CORPUS = 24
#: Zipf exponent of query popularity; ~1.1 matches measured web queries.
DEFAULT_ZIPF_S = 1.1
#: Scraper burst cap: one client loads at most this many result pages
#: back-to-back per measurement cycle.
MAX_BURST = 4

#: Topics seeding the deterministic query corpus (cycled with an index
#: suffix past their count).
_TOPICS = (
    "internet+censorship", "great+firewall", "dns+poisoning",
    "active+probing", "traffic+analysis", "domain+fronting",
    "tls+fingerprinting", "proxy+detection", "bridge+distribution",
    "decoy+routing", "meek+transport", "shadowsocks",
)


def scholar_query_page(rank: int) -> Page:
    """The result page of the rank-``rank`` most popular query.

    Sizes follow :func:`~repro.http.page.google_scholar_results`
    (48 KB document, shared static assets) with a small deterministic
    per-rank spread so ranks are distinguishable in byte accounting.
    ``document_cacheable=True`` is the edge-cache contract: result
    pages may be served from the proxy within the TTL.
    """
    topic = _TOPICS[rank % len(_TOPICS)]
    suffix = "" if rank < len(_TOPICS) else f"+{rank // len(_TOPICS)}"
    return Page(
        host="scholar.google.com",
        path=f"/scholar?q={topic}{suffix}&rank={rank}",
        document_size=48_000 + 250 * (rank % 7),
        objects=[
            PageObject("/scholar.css", 3600),
            PageObject("/scholar.js", 4100),
        ],
        document_cacheable=True,
        records_account=False,
        parse_time=0.05,
    )


def query_corpus(size: int = DEFAULT_CORPUS) -> t.List[Page]:
    """The ``size`` distinct query-result pages, hottest first."""
    return [scholar_query_page(rank) for rank in range(size)]


class ZipfSampler:
    """Deterministic Zipf(:data:`DEFAULT_ZIPF_S`) rank sampler over
    ``size`` items.

    Draws come from an injected named RNG stream (the caller owns the
    stream; see the rng manifest), via inverse-CDF lookup on the
    precomputed mass table — no state beyond the table, so samples are
    a pure function of the stream's draw sequence.
    """

    def __init__(self, size: int) -> None:
        if size < 1:
            raise ValueError("corpus size must be >= 1")
        weights = [1.0 / (rank + 1) ** DEFAULT_ZIPF_S for rank in range(size)]
        total = sum(weights)
        self._cdf: t.List[float] = []
        running = 0.0
        for weight in weights:
            running += weight / total
            self._cdf.append(running)
        self._cdf[-1] = 1.0

    def sample(self, rng) -> int:
        """Draw one rank in ``[0, size)`` using ``rng.uniform``."""
        draw = rng.uniform(0.0, 1.0)
        for rank, edge in enumerate(self._cdf):
            if draw <= edge:
                return rank
        return len(self._cdf) - 1  # pragma: no cover - cdf[-1] == 1.0

    def burst_length(self, rng) -> int:
        """Scraper burst size in ``[1, MAX_BURST]``, heavy-tailed.

        Reuses the Zipf shape over burst sizes so most sessions load
        one page and a minority page through several result sets.
        """
        weights = [1.0 / (k ** 2) for k in range(1, MAX_BURST + 1)]
        total = sum(weights)
        draw = rng.uniform(0.0, 1.0)
        running = 0.0
        for index, weight in enumerate(weights):
            running += weight / total
            if draw <= running:
                return index + 1
        return MAX_BURST
