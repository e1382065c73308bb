"""Performance gates: the fast paths that no simulation output shows.

Every fast path is byte-identical to the seed code it replaced
(``tests/test_perf_equivalence.py``), so a rewrite that quietly goes
slow again changes no digest, golden or table.  Two gates catch that:

* the byte-map codec and AES block encryption each run at least
  **5x** faster than their frozen references in
  :mod:`repro.perf.reference`.  Both sides are timed in one run on one
  machine, best of 3, so the ratio holds on any hardware; a per-byte
  loop or list-based rounds read about 1x.
* on a multicore host the parallel runner beats the serial one on a
  Figure 7 sweep whose points are long enough that pool start-up does
  not decide the result.

End-to-end speed is measured on the perfbench workloads and recorded in
``BENCH_perf.json`` by ``benchmarks/perf_record.py``.
"""

import os
import random
import time

import pytest

from repro.core.blinding import ByteMapCodec
from repro.crypto.aes import AES
from repro.perf.reference import (
    byte_map_decode_reference,
    byte_map_encode_reference,
    reference_encrypt_block,
)
from repro.perf.runner import run_points, scalability_points, serial_map

RATIO_FLOOR = 5.0
CODEC_BYTES = 64 * 1024
AES_BLOCKS = 200


def best_time(function, repeat=3):
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        function()
        best = min(best, time.perf_counter() - start)
    return best


def corpus(size, seed):
    return random.Random(seed).randbytes(size)


def byte_map_paths():
    codec = ByteMapCodec(b"gate-secret")
    data = corpus(CODEC_BYTES, seed=1)
    return (lambda: codec.decode(codec.encode(data)),
            lambda: byte_map_decode_reference(
                codec._inverse, byte_map_encode_reference(codec._forward, data)))


def aes_block_paths():
    aes = AES(corpus(32, seed=3))
    block = corpus(16, seed=4)

    def fast():
        for _ in range(AES_BLOCKS):
            aes.encrypt_block(block)

    def reference():
        for _ in range(AES_BLOCKS):
            reference_encrypt_block(aes, block)

    return fast, reference


@pytest.mark.parametrize("name, paths", [
    ("byte-map-codec", byte_map_paths),
    ("aes-block", aes_block_paths),
])
def test_fast_path_at_least_5x_its_reference(emit, name, paths):
    fast, reference = paths()
    fast_s = best_time(fast)
    reference_s = best_time(reference)
    speedup = reference_s / fast_s
    emit(f"perf_gate_{name}",
         f"{name}: reference {reference_s * 1e3:.2f} ms, "
         f"optimized {fast_s * 1e3:.2f} ms, speedup {speedup:.1f}x")
    assert speedup >= RATIO_FLOOR, (
        f"{name} speedup {speedup:.1f}x below the {RATIO_FLOOR:.0f}x gate")


@pytest.mark.skipif((os.cpu_count() or 1) < 2,
                    reason="parallel wall-clock win needs >1 CPU")
def test_parallel_beats_serial_on_multicore(emit):
    # 60-client points take 0.7-1.7 s each, so the pool's start-up
    # cannot decide the result the way it did for 0.1-0.3 s 5-client
    # points.  Points are dispatched in order, so they are listed
    # longest first: shadowsocks and scholarcloud take about 1.7 s each
    # and the two VPNs about 0.75 s (2 vCPUs), so each of two workers
    # runs one long point and then one short one.
    points = scalability_points(("shadowsocks", "scholarcloud",
                                 "native-vpn", "openvpn"),
                                (60,), cycles=1, seed=0)
    serial_s = best_time(lambda: serial_map(points), repeat=1)
    parallel_s = best_time(lambda: run_points(points, workers=2), repeat=1)
    speedup = serial_s / parallel_s
    emit("perf_gate_parallel",
         f"fig7 4-point 60-client sweep: serial {serial_s:.2f} s, "
         f"parallel(2) {parallel_s:.2f} s, speedup {speedup:.2f}x")
    assert speedup > 1.15, (
        f"parallel runner no faster than serial on {os.cpu_count()} CPUs")
