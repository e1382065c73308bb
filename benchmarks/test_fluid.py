"""Fluid-mode gates: the scale the flow-level fast path claims, asserted.

Two hard floors:

* the fig7-style bulk (PDF) overload cell runs at least **20x** faster
  in hybrid mode than packet mode (20.0-25.6x on 2 vCPUs, each mode
  timed by its best of three interleaved runs), with every pooled
  aggregate inside its declared tolerance band;
* a **2,000-client** hybrid sweep completes outright — the scale that
  motivated the fast path — and beats a conservatively *linear*
  extrapolation of measured packet-mode cost by at least 20x (packet
  cost grows superlinearly with clients, so the real win is larger).
"""

import time

from repro.http import scholar_pdf
from repro.measure.scenarios import run_overload_point
from repro.perf.fluid import aggregate_overload, band_failures

SPEEDUP_FLOOR = 20.0
SWEEP_CLIENTS = 2000
PACKET_PROBE_CLIENTS = 100
FIG7_CLIENTS = 6
FIG7_SEEDS = (0, 1, 2)
#: Runs of the fig7 cell per mode; each mode is timed by its best run,
#: so host noise on the short hybrid side does not swing the ratio.
TIMED_RUNS = 3


def timed_pdf_cells():
    """The fig7-style bulk cell at every seed in packet and hybrid mode:
    per mode, the first run's results and the best wall time of
    :data:`TIMED_RUNS` runs.  The modes take turns, so a drift in host
    speed reaches each alike."""
    results = {}
    best_s = {"packet": float("inf"), "hybrid": float("inf")}
    for _ in range(TIMED_RUNS):
        for mode in best_s:
            start = time.perf_counter()
            run = [run_overload_point(clients=FIG7_CLIENTS, cycles=1,
                                      seed=seed, mode=mode, workload="pdf")
                   for seed in FIG7_SEEDS]
            best_s[mode] = min(best_s[mode], time.perf_counter() - start)
            results.setdefault(mode, run)
    return results, best_s


def test_fluid_fig7_speedup_and_bands(emit):
    results, best_s = timed_pdf_cells()
    packet, hybrid = results["packet"], results["hybrid"]
    packet_s, hybrid_s = best_s["packet"], best_s["hybrid"]
    bytes_per_load = scholar_pdf().total_bytes()
    failures = band_failures(aggregate_overload(packet, bytes_per_load),
                             aggregate_overload(hybrid, bytes_per_load))
    speedup = packet_s / hybrid_s
    emit("fluid_gate_fig7",
         f"fluid fig7 cell ({FIG7_CLIENTS} clients x {len(FIG7_SEEDS)} seeds, "
         f"pdf, best of {TIMED_RUNS}): packet {packet_s:.2f} s, "
         f"hybrid {hybrid_s:.2f} s, speedup {speedup:.1f}x, "
         f"band failures: {failures or 'none'}")
    assert failures == [], failures
    assert speedup >= SPEEDUP_FLOOR, (
        f"hybrid speedup {speedup:.1f}x below the {SPEEDUP_FLOOR:.0f}x gate")


def test_hybrid_unlocks_2000_client_sweep(emit):
    """The acceptance scale: 2,000 clients, bulk workload, one seed.

    Packet mode is timed at a 100-client probe and extrapolated
    *linearly* to 2,000 clients — a deliberate underestimate (packet
    event count grows superlinearly: more concurrent flows, longer
    queues, more retransmissions) — and hybrid must still clear the
    20x floor against it.
    """
    start = time.perf_counter()
    packet_probe = run_overload_point(clients=PACKET_PROBE_CLIENTS, cycles=1,
                                      seed=0, mode="packet", workload="pdf")
    packet_probe_s = time.perf_counter() - start

    start = time.perf_counter()
    hybrid = run_overload_point(clients=SWEEP_CLIENTS, cycles=1,
                                seed=0, mode="hybrid", workload="pdf")
    hybrid_s = time.perf_counter() - start

    total = hybrid.completed + hybrid.failed
    availability = hybrid.completed / total if total else 0.0
    packet_estimate_s = packet_probe_s * (SWEEP_CLIENTS / PACKET_PROBE_CLIENTS)
    implied = packet_estimate_s / hybrid_s
    emit("fluid_gate_2000",
         f"hybrid {SWEEP_CLIENTS}-client pdf sweep: {hybrid_s:.1f} s wall, "
         f"{hybrid.completed}/{total} loads completed "
         f"(availability {availability:.3f}); packet probe "
         f"({PACKET_PROBE_CLIENTS} clients) {packet_probe_s:.1f} s -> "
         f"linear estimate {packet_estimate_s:.0f} s, implied speedup "
         f">={implied:.1f}x")
    assert total == SWEEP_CLIENTS
    # 2,000 un-throttled bulk clients sit far past the saturation knee
    # (the remote CPU alone is oversubscribed), so partial failure is
    # the system's honest answer — measured 0.508.  The floor catches a
    # *model* collapse; availability parity with packet mode is checked
    # at feasible scales by the tolerance-band gates.
    assert availability >= 0.5, (
        f"availability {availability:.3f} collapsed at {SWEEP_CLIENTS} clients")
    assert implied >= SPEEDUP_FLOOR, (
        f"implied speedup {implied:.1f}x below the {SPEEDUP_FLOOR:.0f}x gate "
        f"(and the true packet cost is superlinear)")
    # The probe itself stayed healthy — this compares like against like.
    assert packet_probe.completed + packet_probe.failed == PACKET_PROBE_CLIENTS
