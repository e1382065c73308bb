"""Edge response cache: store contracts and world-level coherence.

Three families of guarantees for :mod:`repro.cache`:

* **Store mechanics** — TTL expiry at exact sim-time boundaries,
  LRU-with-watermark eviction order, byte accounting, and the
  epoch-in-the-key design that makes a rotated proxy structurally
  unable to address a stale entry.
* **Coherence** — blinding rotation and audited GFW policy changes
  purge every registered tier before the next load can hit.
* **Determinism & equivalence** — same-seed cached sweeps replay with
  byte-identical event digests across ≥3 seeds; with the knob off the
  world builds no cache machinery at all and the measurement harness
  is event-for-event reproducible.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.cache import (
    CacheConfig,
    CacheRegistry,
    ResponseCache,
    ZipfSampler,
    canonical_key,
    query_corpus,
    scholar_query_page,
)
from repro.core.blinding import BlindingAgility
from repro.core.domestic_proxy import _EdgeUpstream
from repro.http import HttpRequest
from repro.measure.scenarios import prepare, run_overload_point
from repro.measure.testbed import ECHO_PORT, SCHOLAR_HOST
from repro.overload import OverloadConfig
from repro.transport import TcpConnection

SEEDS = (0, 1, 2)


# -- store mechanics ---------------------------------------------------------------


class _Clock:
    """Minimal simulator stand-in: the store only reads ``now``."""

    def __init__(self) -> None:
        self.now = 0.0


def _key(path: str) -> tuple:
    return ("GET", "scholar.google.com", 443, "https", path, False)


def _store(ttl: float = 10.0, capacity: int = 1000,
           low: float = 0.5) -> tuple:
    clock = _Clock()
    agility = BlindingAgility()
    cache = ResponseCache(
        clock, CacheConfig(ttl=ttl, capacity_bytes=capacity,
                           low_watermark=low), agility)
    return clock, agility, cache


def test_config_validation():
    with pytest.raises(ValueError):
        CacheConfig(ttl=0.0)
    with pytest.raises(ValueError):
        CacheConfig(capacity_bytes=0)
    with pytest.raises(ValueError):
        CacheConfig(low_watermark=0.0)
    with pytest.raises(ValueError):
        CacheConfig(low_watermark=1.5)


def test_canonical_key_includes_first_visit():
    class _Req:
        host = "scholar.google.com"
        scheme = "https"
        path = "/scholar?q=x"
        first_visit = False

    first = _Req()
    first.first_visit = True
    assert canonical_key(_Req(), 443) != canonical_key(first, 443)
    assert canonical_key(_Req(), 443)[0] == "GET"


def test_hit_miss_and_byte_accounting():
    _clock, _agility, cache = _store()
    assert cache.lookup(_key("/a")) is None
    assert cache.misses == 1
    assert cache.insert(_key("/a"), "resp-a", wire_length=200,
                        avoided_bytes=240)
    assert cache.bytes_in_cache == 200
    assert cache.lookup(_key("/a")) == "resp-a"
    assert cache.hits == 1
    assert cache.bytes_served == 200
    assert cache.transpacific_bytes_avoided == 240
    assert cache.wire_length_of(_key("/a")) == 200
    assert cache.wire_length_of(_key("/b")) == 0


def test_ttl_expiry_at_exact_sim_time_boundary():
    """An entry is fresh *through* ``insert_time + ttl`` and stale on
    the first instant after — the boundary itself still serves."""
    clock, _agility, cache = _store(ttl=10.0)
    clock.now = 5.0
    cache.insert(_key("/a"), "resp-a", wire_length=100, avoided_bytes=100)
    clock.now = 15.0  # exactly insert + ttl: still fresh
    assert cache.lookup(_key("/a")) == "resp-a"
    assert cache.expirations == 0
    clock.now = 15.0 + 1e-9  # first representable instant after
    assert cache.lookup(_key("/a")) is None
    assert cache.expirations == 1
    assert cache.misses == 1  # the expired lookup also counts as a miss
    assert cache.entries == 0 and cache.bytes_in_cache == 0


def test_watermark_eviction_is_lru_first_and_drains_to_low_mark():
    _clock, _agility, cache = _store(capacity=1000, low=0.5)
    for path in ("/a", "/b", "/c"):
        assert cache.insert(_key(path), f"resp{path}", wire_length=300,
                            avoided_bytes=0)
    assert cache.lookup(_key("/b")) is not None  # refresh B: order A, C, B
    cache.insert(_key("/d"), "resp/d", wire_length=300, avoided_bytes=0)
    # 900 + 300 > 1000 -> drain LRU-first to the 500-byte low mark:
    # A (oldest) goes, then C; the refreshed B survives.
    assert cache.evictions == 2
    assert cache.bytes_in_cache == 600
    assert cache.lookup(_key("/a")) is None
    assert cache.lookup(_key("/c")) is None
    assert cache.lookup(_key("/b")) is not None
    assert cache.lookup(_key("/d")) is not None


def test_reinsert_replaces_without_double_charging():
    _clock, _agility, cache = _store()
    cache.insert(_key("/a"), "v1", wire_length=400, avoided_bytes=0)
    cache.insert(_key("/a"), "v2", wire_length=250, avoided_bytes=0)
    assert cache.entries == 1
    assert cache.bytes_in_cache == 250
    assert cache.lookup(_key("/a")) == "v2"


def test_oversize_insert_is_rejected():
    _clock, _agility, cache = _store(capacity=1000)
    assert not cache.insert(_key("/big"), "huge", wire_length=1001,
                            avoided_bytes=0)
    assert cache.entries == 0 and cache.insertions == 0


def test_epoch_rotation_makes_old_entries_unaddressable():
    """The epoch is part of the key: after ``rotate()`` the same
    request misses even *before* any explicit invalidation runs."""
    _clock, agility, cache = _store()
    cache.insert(_key("/a"), "epoch0", wire_length=100, avoided_bytes=0)
    assert cache.lookup(_key("/a")) == "epoch0"
    agility.rotate()
    assert cache.lookup(_key("/a")) is None  # new epoch -> new key
    dropped = cache.invalidate_all("blinding-rotation")
    assert dropped == 1
    assert cache.invalidations == 1
    assert cache.entries == 0 and cache.bytes_in_cache == 0


def test_registry_broadcasts_policy_invalidation():
    clock = _Clock()
    registry = CacheRegistry(clock)
    agility = BlindingAgility()
    tiers = [registry.register(ResponseCache(clock, CacheConfig(), agility,
                                             name=f"tier-{i}"))
             for i in range(2)]
    for tier in tiers:
        tier.insert(_key("/a"), "resp", wire_length=100, avoided_bytes=0)
    registry.on_policy_change("reset-escalation")
    for tier in tiers:
        assert tier.entries == 0
        assert tier.invalidations == 1


def test_event_digest_replays_identical_sequences():
    """The digest is a pure function of the (op, key, time) stream."""
    def drive(cache, clock, extra=False):
        cache.lookup(_key("/a"))
        cache.insert(_key("/a"), "r", wire_length=100, avoided_bytes=0)
        clock.now = 3.0
        cache.lookup(_key("/a"))
        if extra:
            cache.lookup(_key("/b"))
        return cache.event_digest

    runs = []
    for _ in range(2):
        clock, _agility, cache = _store()
        runs.append(drive(cache, clock))
    assert runs[0] == runs[1]
    clock, _agility, cache = _store()
    assert drive(cache, clock, extra=True) != runs[0]


def test_zipf_sampler_is_deterministic_and_head_heavy():
    class _Rng:
        def __init__(self):
            self.state = 0.0

        def uniform(self, lo, hi):
            self.state = (self.state + 0.137) % 1.0
            return lo + (hi - lo) * self.state

    sampler = ZipfSampler(24)
    draws = [sampler.sample(_Rng()) for _ in range(3)]
    assert draws[0] == draws[1] == draws[2]
    rng = _Rng()
    counts = [0] * 24
    for _ in range(200):
        counts[sampler.sample(rng)] += 1
    assert counts[0] > counts[-1]  # rank 0 dominates the tail
    assert 1 <= sampler.burst_length(_Rng()) <= 4


# -- world-level coherence ---------------------------------------------------------


def _cached_world(seed=0, **cache_kwargs):
    world = prepare("scholarcloud", seed=seed,
                    cache=CacheConfig(**cache_kwargs))
    page = scholar_query_page(0)
    world.testbed.scholar_server.add_page(page)
    return world, page


def _load_seq(world, page, steps):
    """Drive ``browser.load(page)`` with callables interleaved.

    ``steps`` is a list whose entries are either ``"load"`` (run one
    page load) or a zero-argument callable invoked between loads.
    Returns the PageLoadResults in order.
    """
    results = []

    def driver(sim):
        for step in steps:
            if step == "load":
                results.append((yield sim.process(world.browser.load(page))))
            else:
                step()

    world.testbed.run_process(driver(world.testbed.sim), name="cache-driver")
    return results


def test_revisit_is_served_by_the_edge():
    """First-visit and revisit responses key separately (the account
    side channel differs), so one browser's third load is its first
    hit: visit 1 fills the first-visit slot, visit 2 the revisit slot,
    visit 3 hits it."""
    world, page = _cached_world()
    results = _load_seq(world, page, ["load", "load", "load"])
    assert all(r.succeeded for r in results)
    assert not results[0].all_from_cache
    assert not results[1].all_from_cache
    assert results[2].all_from_cache
    cache = world.method.cache
    assert cache is not None
    assert cache.hits >= 1
    assert cache.transpacific_bytes_avoided > 0
    assert results[2].plt < results[1].plt  # no transpacific leg


def test_blinding_rotation_mid_run_never_serves_stale():
    world, page = _cached_world()
    results = _load_seq(world, page,
                        ["load", "load", "load",
                         world.method.rotate_blinding, "load", "load"])
    cache = world.method.cache
    assert results[2].all_from_cache  # warm before rotation
    # Rotation purged eagerly AND moved the epoch in the key: the
    # next load refetches through the new codec, then re-caches.
    assert cache.invalidations >= 1
    assert results[3].succeeded and not results[3].all_from_cache
    assert results[4].succeeded and results[4].all_from_cache


def test_gfw_policy_change_invalidates_every_tier():
    world, page = _cached_world()
    gfw = world.testbed.gfw
    escalate = lambda: gfw.apply_policy(lambda g: None, label="drill")
    results = _load_seq(world, page,
                        ["load", "load", "load", escalate, "load"])
    assert results[2].all_from_cache
    assert not results[3].all_from_cache  # refetched under the new policy
    tiers = list(world.testbed.sim.caches)
    assert tiers == [world.method.cache]  # the edge is the only tier
    assert all(tier.invalidations >= 1 for tier in tiers)


def test_hit_path_honors_a_deadline_the_miss_path_cannot():
    """Deadline propagation x cache hits: a budget far too tight for a
    transpacific fetch is ample for an edge hit on the same page."""
    world, page = _cached_world()
    testbed = world.testbed
    cold_page = scholar_query_page(1)
    testbed.scholar_server.add_page(cold_page)
    outcomes = []

    def driver(sim):
        for _ in range(3):  # warm: edge holds the revisit document
            yield sim.process(world.browser.load(page))
        world.browser.total_deadline = 0.2
        outcomes.append((yield sim.process(world.browser.load(page))))
        outcomes.append((yield sim.process(world.browser.load(cold_page))))

    testbed.run_process(driver(testbed.sim), name="deadline-driver")
    warm, cold = outcomes
    assert warm.succeeded and warm.all_from_cache
    assert warm.plt <= 0.2
    assert not cold.succeeded  # the transpacific leg blows the budget


def test_admission_slot_spans_the_edge_to_relay_handoff():
    """A plaintext echo stream through a cached proxy is handed from
    the edge to the relay: it holds its one admission slot while open,
    frees it once closed, and a later page load gets the slot."""
    world = prepare("scholarcloud", seed=0, cache=CacheConfig(),
                    overload=OverloadConfig(max_sessions=1))
    testbed = world.testbed
    admission = world.method.domestic.admission
    connector = world.method.connector()
    seen = {}

    def driver(sim):
        stream = yield from connector.open(SCHOLAR_HOST, ECHO_PORT,
                                           use_tls=False)
        stream.send_message(64, meta=("ping", sim.now))
        seen["reply"] = yield stream.recv_message()
        seen["open"] = admission.in_use
        stream.close()
        yield sim.timeout(5.0)
        seen["closed"] = admission.in_use
        seen["load"] = yield sim.process(
            world.browser.load(testbed.scholar_page))

    testbed.run_process(driver(testbed.sim), name="handoff-driver")
    assert seen["reply"] is not None
    assert seen["open"] == 1
    assert seen["closed"] == 0
    assert seen["load"].succeeded


def test_a_finalized_edge_loop_sends_and_releases_nothing(monkeypatch):
    """An edge loop still suspended when its simulation ends is closed
    when its generator is freed, often by the cyclic collector during
    a later run.  It must then close no connection and free no
    admission slot: a FIN would be queued at an instant the collector
    picked, on a simulator that has stopped, with a packet id taken
    from whatever runs next."""
    closes = []
    close = TcpConnection.close

    def counting_close(conn):
        closes.append(conn)
        close(conn)

    monkeypatch.setattr(TcpConnection, "close", counting_close)
    world = prepare("scholarcloud", seed=0, cache=CacheConfig(),
                    overload=OverloadConfig(max_sessions=8))
    page = scholar_query_page(0)
    world.testbed.scholar_server.add_page(page)
    _load_seq(world, page, ["load"])
    loops = [weakref.ref(obj) for obj in gc.get_objects()
             if getattr(obj, "__name__", None) == "_serve_edge"
             and getattr(obj, "gi_frame", None) is not None]
    assert loops  # the browser's pooled streams keep their loops waiting
    sim = world.testbed.sim
    admission = world.method.domestic.admission
    held, seq = admission.in_use, sim._seq
    assert held > 0
    closes.clear()
    # The simulation is over: drop the world.  The simulator is kept
    # to read its counter, so its queue and cache registry, which
    # would keep the loops alive, go too.
    del world
    sim._queue.clear()
    sim.caches = None
    gc.collect()
    assert all(loop() is None for loop in loops)  # every loop finalized
    assert closes == []
    assert sim._seq == seq
    assert admission.in_use == held


def test_edge_fetch_returns_none_when_the_remote_leg_ends(monkeypatch):
    """The origin hangs up after reading a miss: the edge leg reads EOF
    during ``fetch``, which returns None, and the edge closes the
    browser stream."""
    world = prepare("scholarcloud", seed=0, cache=CacheConfig())
    testbed = world.testbed

    def hang_up(conn):
        def serve(sim):
            yield conn.recv_message()
            conn.close()
        testbed.sim.process(serve(testbed.sim), name="hang-up")

    testbed.transport_of(testbed.scholar_origin).listen_tcp(8081, hang_up)
    fetched = []
    fetch = _EdgeUpstream.fetch

    def recorded_fetch(self, request, wrapped):
        result = yield from fetch(self, request, wrapped)
        fetched.append(result)
        return result

    monkeypatch.setattr(_EdgeUpstream, "fetch", recorded_fetch)
    connector = world.method.connector()

    def driver(sim):
        stream = yield from connector.open(SCHOLAR_HOST, 8081,
                                           use_tls=False)
        request = HttpRequest(SCHOLAR_HOST, "/hang-up")
        stream.send_message(request.size(), meta=request)
        return (yield stream.recv_message())

    reply = testbed.run_process(driver(testbed.sim), name="eof-driver")
    assert fetched == [None]
    assert reply is None


# -- determinism & equivalence -----------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_same_seed_cached_runs_are_byte_identical(seed):
    """Two same-seed cached sweeps replay the exact hit/miss/evict
    event stream (blake2b digest over (op, key, time)) and move the
    same transpacific byte count."""
    runs = [run_overload_point(clients=4, cycles=1, seed=seed,
                               workload="query-bursts", corpus_size=6,
                               cache=CacheConfig())
            for _ in range(2)]
    first, second = runs
    assert first.cache is not None and first.cache.hits > 0
    assert first.cache.event_digest == second.cache.event_digest
    assert first.cache.hits == second.cache.hits
    assert first.cache.misses == second.cache.misses
    assert first.transpacific_bytes == second.transpacific_bytes
    assert first.plt.mean == second.plt.mean


def test_knobs_off_builds_no_cache_machinery():
    world = prepare("scholarcloud", seed=0)
    assert world.method.cache is None
    assert getattr(world.testbed.sim, "caches", None) is None
    result = run_overload_point(clients=2, cycles=1, seed=0,
                                workload="query-bursts", corpus_size=4)
    assert result.cache is None


@pytest.mark.parametrize("seed", SEEDS)
def test_knobs_off_load_trace_is_event_for_event_identical(seed):
    """``cache=None`` must leave the uncached proxy path untouched:
    the default-argument world and the explicit ``cache=None`` world
    produce byte-identical load traces (PLTs to the nanosecond)."""
    signatures = []
    for spelling in ({}, {"cache": None}):
        world = prepare("scholarcloud", seed=seed, **spelling)
        page = scholar_query_page(0)
        world.testbed.scholar_server.add_page(page)
        results = _load_seq(world, page, ["load", "load"])
        signatures.append(
            [(r.succeeded, r.error, round(r.plt, 9)) for r in results])
        assert not any(r.all_from_cache for r in results)
    assert signatures[0] == signatures[1]


def test_uncached_fig7_harness_is_reproducible():
    """The fig-7 overload harness (which never takes a cache) replays
    identically now that the proxies carry the optional cache hooks."""
    runs = [run_overload_point(clients=3, cycles=1, seed=0)
            for _ in range(2)]
    assert runs[0].plt.mean == runs[1].plt.mean
    assert runs[0].decisions == runs[1].decisions
    assert runs[0].transpacific_bytes == runs[1].transpacific_bytes
    assert runs[0].completed == runs[1].completed


@pytest.mark.parametrize("seed", SEEDS)
def test_cache_reduces_transpacific_bytes_and_plt(seed):
    """The content-delivery bet, at test scale: caching on moves
    strictly fewer transpacific bytes and serves hits faster than
    misses, for every seed."""
    off = run_overload_point(clients=4, cycles=1, seed=seed,
                             workload="query-bursts", corpus_size=6)
    on = run_overload_point(clients=4, cycles=1, seed=seed,
                            workload="query-bursts", corpus_size=6,
                            cache=CacheConfig())
    assert on.transpacific_bytes < off.transpacific_bytes
    report = on.cache
    assert report.hit_rate > 0.0
    assert report.transpacific_bytes_avoided > 0
    if report.plt_hit is not None and report.plt_miss is not None:
        assert report.plt_hit.p50 < report.plt_miss.p50


def test_hybrid_mode_serves_cache_hits():
    result = run_overload_point(clients=4, cycles=1, seed=0,
                                workload="query-bursts", corpus_size=6,
                                cache=CacheConfig(), mode="hybrid")
    assert result.cache.hits > 0
    assert result.completed > 0
