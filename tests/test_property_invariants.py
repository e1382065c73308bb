"""Hypothesis property tests on core data structures and invariants."""

from collections import OrderedDict

from hypothesis import given, settings, strategies as st

from repro.cache import CacheConfig, ResponseCache
from repro.core.blinding import BlindingAgility
from repro.crypto import AES, CfbCipher, CtrCipher, shannon_entropy
from repro.faults import Endpoint
from repro.fleet import SessionRouter
from repro.gfw.flow_table import canonical_flow
from repro.measure import percentile, summarize
from repro.net import IPv4Address, Prefix
from repro.sim import ProcessorSharingServer, Simulator, Store


# -- crypto round trips ----------------------------------------------------------

@given(st.binary(min_size=16, max_size=16), st.binary(min_size=16, max_size=16))
@settings(max_examples=30)
def test_aes_block_roundtrip(key, block):
    cipher = AES(key)
    assert cipher.decrypt_block(cipher.encrypt_block(block)) == block


@given(st.binary(max_size=512), st.binary(min_size=32, max_size=32),
       st.binary(min_size=16, max_size=16))
@settings(max_examples=30)
def test_cfb_roundtrip_any_length(data, key, iv):
    assert CfbCipher(key, iv).decrypt(CfbCipher(key, iv).encrypt(data)) == data


@given(st.binary(max_size=512), st.binary(min_size=16, max_size=16),
       st.binary(min_size=16, max_size=16))
@settings(max_examples=30)
def test_ctr_is_an_involution(data, key, nonce):
    once = CtrCipher(key, nonce).process(data)
    assert CtrCipher(key, nonce).process(once) == data


@given(st.binary(min_size=1, max_size=4096))
@settings(max_examples=50)
def test_entropy_bounds_hold(data):
    entropy = shannon_entropy(data)
    assert 0.0 <= entropy <= 8.0


# -- addresses --------------------------------------------------------------------

@given(st.integers(0, 2**32 - 1))
def test_address_int_str_roundtrip(value):
    address = IPv4Address(value)
    assert int(IPv4Address(str(address))) == value


@given(st.integers(0, 2**32 - 1), st.integers(0, 32))
def test_prefix_contains_its_network(value, length):
    prefix = Prefix(f"{IPv4Address(value)}/{length}")
    assert prefix.network in prefix


@given(st.integers(0, 2**32 - 1), st.integers(1, 31))
def test_prefix_membership_is_mask_consistent(value, length):
    prefix = Prefix(f"{IPv4Address(value)}/{length}")
    inside = IPv4Address(int(prefix.network) | (1 << (31 - length) >> 5))
    # Any address sharing the top `length` bits is inside.
    mask = (0xFFFFFFFF << (32 - length)) & 0xFFFFFFFF
    assert (int(inside) & mask) == int(prefix.network)
    assert inside in prefix


# -- flow table ----------------------------------------------------------------------

@given(st.tuples(st.just("tcp"),
                 st.ip_addresses(v=4).map(str), st.integers(1, 65535),
                 st.ip_addresses(v=4).map(str), st.integers(1, 65535)))
def test_canonical_flow_symmetric(flow):
    proto, src, sport, dst, dport = flow
    reverse = (proto, dst, dport, src, sport)
    assert canonical_flow(flow) == canonical_flow(reverse)


# -- statistics -------------------------------------------------------------------------

@given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False), min_size=1, max_size=200))
def test_summary_invariants(values):
    summary = summarize(values)
    assert summary.minimum <= summary.p50 <= summary.maximum
    assert summary.minimum <= summary.mean <= summary.maximum
    assert summary.count == len(values)
    assert summary.stdev >= 0


@given(st.lists(st.floats(min_value=0, max_value=1e6, allow_nan=False),
                min_size=1, max_size=100),
       st.floats(min_value=0, max_value=1))
def test_percentile_is_bounded(values, fraction):
    ordered = sorted(values)
    result = percentile(ordered, fraction)
    assert ordered[0] <= result <= ordered[-1]


# -- processor sharing ----------------------------------------------------------------------

@given(st.lists(st.floats(min_value=0.01, max_value=5.0), min_size=1,
                max_size=10))
@settings(max_examples=30, deadline=None)
def test_ps_conservation(demands):
    """Every job is submitted at t = 0, so the CPU stays busy until the
    last one finishes, at total demand / capacity (work conservation);
    and every job finishes."""
    sim = Simulator()
    cpu = ProcessorSharingServer(sim, capacity=2.0)
    finished = []

    def job(sim, demand):
        yield cpu.submit(demand)
        finished.append(sim.now)

    for demand in demands:
        sim.process(job(sim, demand))
    sim.run()
    assert len(finished) == len(demands)
    assert abs(max(finished) - sum(demands) / 2.0) < 1e-6
    # No job can finish before its solo service time.
    assert min(finished) >= min(demands) / 2.0 - 1e-9


@given(st.lists(st.integers(0, 1000), max_size=50))
@settings(max_examples=30, deadline=None)
def test_store_fifo_order(items):
    sim = Simulator()
    store = Store(sim)
    received = []

    def consumer(sim):
        for _ in range(len(items)):
            value = yield store.get()
            received.append(value)

    process = sim.process(consumer(sim))
    for item in items:
        store.put(item)
    sim.run()
    assert received == list(items)


# -- rendezvous eviction --------------------------------------------------------------

@given(st.integers(2, 6), st.data(),
       st.lists(st.text(min_size=1, max_size=12), min_size=1, max_size=40,
                unique=True))
@settings(max_examples=50, deadline=None)
def test_rendezvous_eviction_moves_only_the_victims_keys(count, data, keys):
    endpoints = [Endpoint(IPv4Address(f"47.88.1.{100 + j}"), 443,
                          name=f"pop-{j + 1}") for j in range(count)]
    router = SessionRouter(Simulator(seed=0), endpoints)
    for key in keys:
        router.bind(key, router.route(key))
    before = {key: router.route(key) for key in keys}
    victim = endpoints[data.draw(st.integers(0, count - 1))]

    displaced = router.evict(victim)

    assert set(displaced) == {key for key in keys if before[key] == victim}
    for key in keys:
        if key in displaced:
            assert router.route(key) == router.rank(key)[1]
        else:
            assert router.route(key) == before[key]


# -- response cache eviction ------------------------------------------------------------

class _Clock:
    now = 0.0


#: (insert?, key index, size): mostly inserts of a few hundred bytes
#: into a cache that holds a handful, so most runs evict.
_CACHE_OPS = st.lists(
    st.tuples(st.sampled_from([True, True, False]), st.integers(0, 4),
              st.integers(1, 400)),
    min_size=1, max_size=60)


@given(_CACHE_OPS, st.integers(100, 1200),
       st.floats(min_value=0.05, max_value=1.0))
@settings(max_examples=100, deadline=None)
def test_cache_eviction_matches_an_lru_model(ops, capacity, low):
    """Inserts and lookups against an OrderedDict model (oldest first):
    evictions run LRU-first, a hit refreshes recency, occupancy never
    exceeds the capacity, and an insert that evicts drains the others
    to the low watermark."""
    config = CacheConfig(ttl=1e9, capacity_bytes=capacity, low_watermark=low)
    cache = ResponseCache(_Clock(), config, BlindingAgility())
    model: "OrderedDict[tuple, int]" = OrderedDict()

    def key(index):
        return ("GET", "scholar.google.com", 443, "https", f"/q{index}",
                False)

    for is_insert, index, size in ops:
        if not is_insert:
            hit = cache.lookup(key(index)) is not None
            assert hit == (key(index) in model)
            if hit:
                model.move_to_end(key(index))
            continue
        evictions = cache.evictions
        stored = cache.insert(key(index), "response", wire_length=size,
                              avoided_bytes=0)
        assert stored == (size <= capacity)
        if not stored:
            continue
        model.pop(key(index), None)
        target = min(int(low * capacity), capacity - size)
        evicted = 0
        if sum(model.values()) + size > capacity:
            while model and sum(model.values()) > target:
                model.popitem(last=False)
                evicted += 1
        model[key(index)] = size
        assert cache.evictions - evictions == evicted
        assert cache.bytes_in_cache <= capacity
        if evicted:
            assert cache.bytes_in_cache - size <= target
        for probe in range(5):
            assert cache.wire_length_of(key(probe)) == model.get(key(probe),
                                                                 0)
