"""Golden-equivalence suite for the repro.perf hot-path rewrites.

Every optimized path must be byte-identical to the frozen reference
implementation it replaced (``repro.perf.reference``), on seeded
corpora that cover block boundaries, chunked streaming, and both sides
of internal fast-path thresholds.  The parallel sweep runner must
return exactly what the serial runner returns, in the same order.
"""

import hashlib
import random

import pytest

from repro.core.blinding import ByteMapCodec
from repro.crypto.aes import AES
from repro.crypto.modes import CfbCipher, CtrCipher
from repro.gfw.blocklist import BlockPolicy
from repro.gfw.dpi import default_classifiers
from repro.measure.scenarios import run_scalability_point
from repro.net import IPv4Address, Packet, WireFeatures
from repro.perf.reference import (
    ReferenceCfbCipher,
    ReferenceCtrCipher,
    ReferenceProcessorSharingServer,
    byte_map_decode_reference,
    byte_map_encode_reference,
    byte_map_inverse_reference,
    domain_blocked_reference,
    keyword_hit_reference,
    patched_reference_paths,
    reference_encrypt_block,
)
from repro.perf.runner import (
    merge_by_label,
    run_points,
    scalability_points,
    serial_map,
)
from repro.sim import ProcessorSharingServer, Simulator

#: Lengths that straddle block sizes and the empty/one-byte edges.
LENGTHS = (0, 1, 15, 16, 17, 255, 256, 257, 1023, 1024, 1025, 4096, 5000)


def corpus(length: int, seed: int) -> bytes:
    rng = random.Random(seed)
    return bytes(rng.randrange(256) for _ in range(length))


# -- codecs --------------------------------------------------------------------


def test_byte_map_inverse_matches_reference():
    codec = ByteMapCodec(b"equivalence")
    assert codec._inverse == byte_map_inverse_reference(codec._forward)


@pytest.mark.parametrize("length", LENGTHS)
def test_byte_map_codec_matches_reference(length):
    codec = ByteMapCodec(b"equivalence")
    data = corpus(length, seed=length)
    encoded = codec.encode(data)
    assert encoded == byte_map_encode_reference(codec._forward, data)
    assert codec.decode(encoded) == data
    assert codec.decode(encoded) == byte_map_decode_reference(
        codec._inverse, encoded)


# -- AES and stream modes -------------------------------------------------------


@pytest.mark.parametrize("key_len", (16, 24, 32))
def test_aes_block_matches_reference(key_len):
    rng = random.Random(key_len)
    for trial in range(25):
        key = bytes(rng.randrange(256) for _ in range(key_len))
        block = bytes(rng.randrange(256) for _ in range(16))
        aes = AES(key)
        assert aes.encrypt_block(block) == reference_encrypt_block(aes, block)


def chunked(data: bytes, seed: int):
    """Split into adversarial chunk sizes (1..37 bytes)."""
    rng = random.Random(seed)
    position = 0
    while position < len(data):
        size = rng.randrange(1, 38)
        yield data[position:position + size]
        position += size


@pytest.mark.parametrize("mode, seed", [("cfb", 1), ("ctr", 2)],
                         ids=["cfb", "ctr"])
def test_stream_modes_match_reference_across_chunks(mode, seed):
    rng = random.Random(seed)
    key = bytes(rng.randrange(256) for _ in range(32))
    iv = bytes(rng.randrange(256) for _ in range(16))
    data = corpus(2000, seed=77)
    if mode == "cfb":
        fast, slow = CfbCipher(key, iv), ReferenceCfbCipher(key, iv)
        fast_out = b"".join(fast.encrypt(c) for c in chunked(data, 5))
        slow_out = b"".join(slow.encrypt(c) for c in chunked(data, 5))
        assert fast_out == slow_out
        assert CfbCipher(key, iv).decrypt(fast_out) == data
    else:
        fast, slow = CtrCipher(key, iv), ReferenceCtrCipher(key, iv)
        fast_out = b"".join(fast.process(c) for c in chunked(data, 5))
        slow_out = b"".join(slow.process(c) for c in chunked(data, 5))
        assert fast_out == slow_out
        assert CtrCipher(key, iv).process(fast_out) == data


def test_ctr_counter_wrap_matches_reference():
    key = bytes(range(32))
    nonce = b"\xff" * 16  # next block wraps the 128-bit counter
    data = corpus(64, seed=3)
    assert CtrCipher(key, nonce).process(data) == \
        ReferenceCtrCipher(key, nonce).process(data)


# -- processor-sharing CPU ------------------------------------------------------


def _ps_run(make_cpu, jobs, reads):
    """Submit ``(at, demand)`` jobs to ``make_cpu(sim)`` and read
    ``load`` at each instant of ``reads``; returns the completion
    instants in completion order, the readings, and the number of
    events queued."""
    sim = Simulator()
    cpu = make_cpu(sim)
    done = []
    readings = []

    def submit(index, demand):
        cpu.submit(demand).add_callback(
            lambda _event: done.append((index, sim.now)))

    def read():
        readings.append(cpu.load)

    for index, (at, demand) in enumerate(jobs):
        sim.schedule_at(at, submit, index, demand)
    for at in reads:
        sim.schedule_at(at, read)
    sim.run()
    readings.append(cpu.load)
    return done, readings, sim._seq


def _ps_stream(seed: int):
    """Arrivals on a coarse grid (so many share an instant), zero
    demands, and repeated demands (so jobs finish together)."""
    rng = random.Random(seed)
    jobs = []
    for _ in range(300):
        at = rng.randrange(40) * 0.125 if rng.random() < 0.6 \
            else rng.uniform(0.0, 5.0)
        demand = rng.choice((0.0, 0.01, 0.05, 0.1, rng.uniform(0.0, 0.2)))
        jobs.append((at, demand))
    reads = [rng.uniform(0.0, 6.0) for _ in range(25)] + [1.0, 2.5]
    return jobs, reads


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("capacity", (0.5, 1.0, 3.0))
def test_processor_sharing_matches_reference(seed, capacity):
    jobs, reads = _ps_stream(seed)
    live = _ps_run(lambda sim: ProcessorSharingServer(
        sim, capacity=capacity, name="cpu"), jobs, reads)
    frozen = _ps_run(lambda sim: ReferenceProcessorSharingServer(
        sim, capacity=capacity, name="cpu"), jobs, reads)
    assert len(live[0]) == len(jobs)
    # Equal floats, not approximately equal: a completion instant that
    # moved by one ulp could reorder same-instant events downstream.
    assert live == frozen


def test_processor_sharing_matches_reference_on_simultaneous_finishes():
    # Three equal jobs that arrive at one instant finish together; two
    # pairs arrive while they run, and zero-demand jobs come in between.
    jobs = [(0.0, 0.3), (0.0, 0.3), (0.0, 0.0), (0.0, 0.3),
            (0.9, 0.1), (0.9, 0.0), (0.5, 0.2), (0.5, 0.2)]
    reads = [0.0, 0.45, 0.9, 1.2]
    live = _ps_run(ProcessorSharingServer, jobs, reads)
    assert live == _ps_run(ReferenceProcessorSharingServer, jobs, reads)
    instants = [at for index, at in live[0] if index in (0, 1, 3)]
    assert instants[0] == instants[1] == instants[2]


# -- block-policy lookups -------------------------------------------------------


def test_domain_blocked_matches_reference():
    policy = BlockPolicy()
    for suffix in ("google.com", "gstatic.com", "scholar.google.com",
                   "example.org"):
        policy.block_domain(suffix)
    names = [None, "", "google.com", "scholar.google.com", "GOOGLE.COM.",
             "notgoogle.com", "google.com.cn", "a.b.c.example.org",
             "org", "com", "deep.scholar.google.com", "xgoogle.com"]
    for name in names:
        assert policy.domain_blocked(name) == domain_blocked_reference(
            policy._domain_suffixes, name), name
    policy.unblock_domain("google.com")
    assert not policy.domain_blocked("google.com")
    assert policy.domain_blocked("scholar.google.com")  # still blocked


def test_keyword_hit_matches_reference_semantics():
    policy = BlockPolicy()
    for keyword in ("falun", "tiananmen-incident", "tiananmen"):
        policy.block_keyword(keyword)
    texts = ["", "nothing here", "FALUN gong", "the tiananmen-incident files",
             "tiananmen", "xfalunx and tiananmen"]
    for text in texts:
        fast = policy.keyword_hit(text)
        slow = keyword_hit_reference(policy._keywords, text)
        # The reference returned an arbitrary set-order keyword; the
        # optimized path fixes leftmost-longest.  Hit/no-hit must agree
        # and any hit must be a real keyword present in the text.
        assert (fast is None) == (slow is None), text
        if fast is not None:
            assert fast in policy._keywords
            assert fast in text.lower()
    # Leftmost-longest is deterministic: overlapping keywords resolve
    # to the longer one.
    assert policy.keyword_hit("the tiananmen-incident") == "tiananmen-incident"
    # Mutation invalidates the compiled pattern.
    policy.block_keyword("incident-files")
    assert policy.keyword_hit("about incident-files") == "incident-files"


# -- DPI dispatch ---------------------------------------------------------------


def make_packet(tag: str, **features) -> Packet:
    return Packet(src=IPv4Address("10.0.0.1"), dst=IPv4Address("172.16.0.9"),
                  protocol="tcp", payload=None, size=800,
                  features=WireFeatures(protocol_tag=tag, **features),
                  flow=("tcp", "10.0.0.1", 40000, "172.16.0.9", 443))


def test_classifiers_ignore_foreign_tags():
    """The match_tags contract: None, no side effects, for other tags."""
    from repro.gfw.flow_table import FlowState

    tags = ("tls", "plain-http", "pptp-gre", "l2tp-udp", "openvpn",
            "tor-tls", "unknown-stream", "unclassified", "dns")
    policy = BlockPolicy()
    policy.block_domain("google.com")
    for classifier in default_classifiers():
        assert classifier.match_tags is not None  # all six declare tags
        for tag in tags:
            if tag in classifier.match_tags:
                continue
            state = FlowState(key=("k",), first_seen=0.0)
            before = (state.label, state.confidence, list(state.recent_times))
            result = classifier.classify(make_packet(tag), state, policy)
            assert result is None, (classifier.name, tag)
            after = (state.label, state.confidence, list(state.recent_times))
            assert before == after, (classifier.name, tag)


def test_firewall_dispatch_matches_full_chain():
    """Same labels with tag dispatch as with the full classifier chain."""
    from repro.gfw.blocklist import default_china_policy
    from repro.gfw.firewall import GfwConfig, GreatFirewall
    from repro.sim import Simulator

    probes = [
        make_packet("tls", sni="www.google.com", handshake=True),
        make_packet("tls", sni="cdn.example", handshake=True),
        make_packet("unknown-stream", entropy=8.0, length_signature=50),
        make_packet("unclassified", entropy=7.9),
        make_packet("openvpn", handshake=True),
        make_packet("tor-tls", handshake=True),
    ]

    def labels_for(packet):
        gfw = GreatFirewall(Simulator(seed=0), default_china_policy(),
                            config=GfwConfig(dns_poisoning=False))
        matched = gfw._classifiers_for(packet.features.protocol_tag)
        from repro.gfw.flow_table import FlowState
        outcomes = []
        for classifier in matched:
            state = FlowState(key=("k",), first_seen=0.0)
            outcomes.append((classifier.name,
                             classifier.classify(packet, state, gfw.policy)))
        full = []
        for classifier in gfw.classifiers:
            state = FlowState(key=("k",), first_seen=0.0)
            full.append((classifier.name,
                         classifier.classify(packet, state, gfw.policy)))
        return outcomes, full

    for packet in probes:
        dispatched, full = labels_for(packet)
        # Dispatch drops only classifiers that returned None in the
        # full chain; every firing classifier survives, in chain order.
        fired_dispatched = [o for o in dispatched if o[1] is not None]
        fired_full = [o for o in full if o[1] is not None]
        assert fired_dispatched == fired_full, packet.features.protocol_tag


def test_firewall_dispatch_sees_appended_classifiers():
    """The arms-race idiom — appending to gfw.classifiers — still works."""
    from repro.gfw.blocklist import default_china_policy
    from repro.gfw.dpi import Classifier
    from repro.gfw.firewall import GfwConfig, GreatFirewall
    from repro.sim import Simulator

    class Sting(Classifier):
        name = "sting"
        match_tags = None  # inspects every packet

        def classify(self, packet, state, policy):
            return ("stung", 1.0)

    gfw = GreatFirewall(Simulator(seed=0), default_china_policy(),
                        config=GfwConfig(dns_poisoning=False))
    assert gfw._classifiers_for("unclassified") == []
    gfw.classifiers.append(Sting())  # direct mutation, no apply_policy
    matched = gfw._classifiers_for("unclassified")
    assert [c.name for c in matched] == ["sting"]


# -- parallel runner ------------------------------------------------------------


def small_points():
    return scalability_points(("native-vpn", "scholarcloud"), (4,),
                              cycles=1, seed=0)


def test_parallel_runner_identical_to_serial():
    points = small_points()
    serial = serial_map(points)
    parallel = run_points(points, workers=2)  # forces the pool even on 1 CPU
    assert parallel == serial
    merged = merge_by_label(points, parallel)
    assert set(merged) == {("native-vpn", 4, 0), ("scholarcloud", 4, 0)}


def test_runner_rejects_duplicate_labels():
    from repro.errors import MeasurementError

    points = small_points()
    with pytest.raises(MeasurementError):
        run_points([points[0], points[0]])


# -- whole-simulation equivalence ----------------------------------------------


def summary_fingerprint(summary) -> str:
    return hashlib.sha256(repr(summary).encode()).hexdigest()


def test_fig7_point_identical_on_reference_paths():
    """Optimized and reference paths produce the same simulation."""
    optimized = run_scalability_point("shadowsocks", clients=4, cycles=1,
                                      seed=2)
    with patched_reference_paths():
        reference = run_scalability_point("shadowsocks", clients=4, cycles=1,
                                          seed=2)
    assert optimized == reference
    assert summary_fingerprint(optimized) == summary_fingerprint(reference)


def test_fig7_point_deterministic_across_runs():
    first = run_scalability_point("scholarcloud", clients=4, cycles=1, seed=5)
    second = run_scalability_point("scholarcloud", clients=4, cycles=1, seed=5)
    assert first == second

