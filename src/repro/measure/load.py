"""The closed-loop load driver and its workload registry.

The paper loads Google Scholar once every 60 s per client (§4.2), and
Figure 7 runs up to 180 such clients at once.  :func:`drive_clients`
is that loop, shared by the Figure 7, overload and query-burst points
(:mod:`repro.measure.scenarios`) and a fleet region
(:mod:`repro.fleet.sweep`); :func:`install_workload` picks what the
clients load, by name.
"""

from __future__ import annotations

import typing as t
from dataclasses import dataclass

from ..cache import DEFAULT_CORPUS, ZipfSampler, query_corpus
from ..errors import MeasurementError
from ..http import Browser, Page, scholar_pdf

#: Interval between measurements (§4.2: one access per 60 s).
MEASUREMENT_INTERVAL = 60.0
#: Scraper think time after each query of a burst.
BURST_PAUSE = 1.0


@dataclass(frozen=True)
class Workload:
    """What each client loads.

    ``warmup`` is loaded once before measuring; ``cycle()`` returns
    one cycle's pages, and ``pause`` seconds follow each of those
    loads (none when zero).  A query workload's ``cycle()`` is a
    generator, so each page is drawn at the instant its load starts,
    as a scraper picks its next query only after the last returned:
    drawing a burst up front would reorder the RNG draws against the
    simulation and change every trace.
    """

    warmup: Page
    cycle: t.Callable[[], t.Iterable[Page]]
    pause: float = 0.0


@dataclass(frozen=True)
class LoadRecord:
    """One measured (non-warm-up) page load."""

    client: int
    finished: float
    succeeded: bool
    error: t.Optional[str]
    plt: float
    from_cache: bool


def _home(testbed, corpus_size: t.Optional[int]) -> Workload:
    page = testbed.scholar_page
    return Workload(page, lambda: (page,))


def _pdf(testbed, corpus_size: t.Optional[int]) -> Workload:
    page = scholar_pdf()
    testbed.scholar_server.add_page(page)
    return Workload(page, lambda: (page,))


def _query_corpus(testbed, corpus_size: t.Optional[int]):
    """Add the query corpus to the origin; return it, its Zipf sampler
    and the ``cache.zipf`` stream."""
    corpus = query_corpus(DEFAULT_CORPUS if corpus_size is None
                          else corpus_size)
    for page in corpus:
        testbed.scholar_server.add_page(page)
    return corpus, ZipfSampler(len(corpus)), testbed.rng.stream("cache.zipf")


def _queries(testbed, corpus_size: t.Optional[int]) -> Workload:
    corpus, sampler, rng = _query_corpus(testbed, corpus_size)

    def cycle() -> t.Iterator[Page]:
        yield corpus[sampler.sample(rng)]

    return Workload(testbed.scholar_page, cycle)


def _query_bursts(testbed, corpus_size: t.Optional[int]) -> Workload:
    corpus, sampler, rng = _query_corpus(testbed, corpus_size)

    def cycle() -> t.Iterator[Page]:
        for _ in range(sampler.burst_length(rng)):
            yield corpus[sampler.sample(rng)]

    return Workload(testbed.scholar_page, cycle, pause=BURST_PAUSE)


#: Workload name -> installer.  ``home``: the 19 KB Scholar home page;
#: ``pdf``: a 1.2 MB paper download (also the warm-up); ``queries``:
#: one Zipf-drawn result page per cycle; ``query-bursts``: a scraper
#: burst of 1-4 result pages, each followed by a 1 s pause.
WORKLOADS: t.Dict[str, t.Callable[..., Workload]] = {
    "home": _home,
    "pdf": _pdf,
    "queries": _queries,
    "query-bursts": _query_bursts,
}


def install_workload(testbed, name: str,
                     corpus_size: t.Optional[int] = None) -> Workload:
    """Add workload ``name``'s pages to the testbed's Scholar origin.

    The query workloads warm up on the home page and draw from the
    ``cache.zipf`` stream over ``corpus_size`` result pages (default
    :data:`~repro.cache.DEFAULT_CORPUS`).
    """
    install = WORKLOADS.get(name)
    if install is None:
        raise MeasurementError(f"unknown workload {name!r}")
    return install(testbed, corpus_size)


def drive_clients(sim, hosts: t.Sequence[t.Any],
                  attach: t.Callable[[t.Any], t.Generator],
                  workload: Workload, cycles: int, offsets,
                  prefix: str,
                  total_deadline: t.Optional[float] = None,
                  ) -> t.List[LoadRecord]:
    """Run one client per host to completion; return every measured
    load in completion order.

    ``attach(host)`` is a generator returning the host's connector;
    ``offsets`` is the RNG stream for the start offsets, one drawn per
    host in host order; client ``i`` runs as process ``{prefix}-{i}``.
    """
    records: t.List[LoadRecord] = []

    def client(index, host, offset):
        connector = yield from attach(host)
        browser = Browser(sim, connector, name=f"browser-{host.name}",
                          total_deadline=total_deadline)
        yield sim.timeout(offset)
        # Warm-up: populate pools, caches and session tickets.
        yield sim.process(browser.load(workload.warmup))
        for _ in range(cycles):
            yield sim.timeout(MEASUREMENT_INTERVAL)
            for page in workload.cycle():
                result = yield sim.process(browser.load(page))
                records.append(LoadRecord(
                    index, sim.now, result.succeeded, result.error,
                    result.plt, result.all_from_cache))
                if workload.pause:
                    yield sim.timeout(workload.pause)

    processes = []
    for index, host in enumerate(hosts):
        offset = offsets.uniform(0, MEASUREMENT_INTERVAL)
        processes.append(sim.process(client(index, host, offset),
                                     name=f"{prefix}-{index}"))
    sim.run(until=sim.all_of(processes))
    return records
