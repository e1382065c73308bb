"""Fleet gates: PoP-count goodput scaling and bounded blackout dips.

Four acceptance properties for the multi-region fleet:

* **Goodput scales with PoP count.**  Under the CPU-bound PDF workload
  a single PoP saturates and sheds load; adding PoPs raises goodput
  and absorbs the failures, because rendezvous hashing spreads
  sessions ~evenly across the membership.
* **A mid-sweep PoP blackout is a bounded, recovering dip** — the
  failure detector evicts the dead PoP, its sessions fail over to
  their rendezvous second choice, and reinstatement follows the
  restart; availability dips by at most 10 points and ends back at
  its pre-fault level, seed-deterministically across 3 seeds.
* **The fleet report grid**: all 4 divergent regions x 250 clients
  with the blackout campaign running mid-sweep in every region,
  fanned over the parallel runner; the rendered availability report
  lands in ``benchmarks/results/fleet_report.txt``.
* **The headline scale** (skipped under ``REPRO_FAST``): 4 regions x
  2,500 hybrid-mode clients = 10,000 concurrent sessions.  The
  blackout grid stays at 250 clients/region on purpose — a PoP crash
  de-fluidizes every flow back to packet level, which is exactly
  right for fidelity and exactly wrong for simulating 10k packet-mode
  clients in CI.

``fleet_report.txt``, ``fleet_blackout.txt`` and
``fleet_pops_scaling.txt`` are deterministic (wall time goes to stdout
only), and the CI ``fleet`` job fails if a run changes them.
"""

import os
import time

import pytest

from repro.fleet import (
    aggregate_fleet,
    fleet_sweep,
    run_fleet_region_point,
)

FAST = bool(os.environ.get("REPRO_FAST"))

FLEET_REGIONS = ("beijing", "shanghai", "guangzhou", "chengdu")
#: Clients per region on the blackout report grid.
GRID_CLIENTS = 250
#: Clients per region in the headline sweep (x 4 regions = 10,000).
HEADLINE_CLIENTS = 2500
#: The blackout must not cost more than 10 availability points.
DIP_CEILING = 0.10
SCALING_CLIENTS = 600
CAMPAIGN_SEEDS = (0, 1, 2)


def _campaign(seed, clients=GRID_CLIENTS):
    return run_fleet_region_point(
        "beijing", pops=4, clients=clients, cycles=2, seed=seed,
        mode="hybrid", workload="pdf", blackout_pop="pop-2",
        blackout_at=90.0, blackout_downtime=60.0)


def test_goodput_scales_with_pop_count(emit):
    results = {
        pops: run_fleet_region_point(
            "beijing", pops=pops, clients=SCALING_CLIENTS, cycles=1,
            seed=0, mode="hybrid", workload="pdf")
        for pops in (1, 2, 4)
    }
    lines = [f"fleet goodput vs PoP count ({SCALING_CLIENTS} clients, "
             f"pdf workload, hybrid mode)"]
    for pops, result in results.items():
        lines.append(
            f"  pops={pops}: goodput {result.goodput:.3f} loads/s, "
            f"{result.completed}/{result.attempts} completed")
    emit("fleet_pops_scaling", "\n".join(lines))

    assert results[1].goodput < results[2].goodput <= results[4].goodput
    assert results[4].goodput >= results[1].goodput * 1.2, (
        f"goodput {results[1].goodput:.3f} -> {results[4].goodput:.3f} "
        f"gained less than 20% from 1 -> 4 PoPs")
    # The single PoP sheds load at this level; four absorb all of it.
    assert results[1].failed > 0
    assert results[4].failed == 0


def test_blackout_dip_is_bounded_and_recovers_across_seeds(emit):
    lines = [f"blackout campaign (pop-2 down 90s-150s, {GRID_CLIENTS} "
             f"clients, 4 PoPs, pdf/hybrid)"]
    for seed in CAMPAIGN_SEEDS:
        result = _campaign(seed)
        report = aggregate_fleet([result], bucket=60.0)
        dip = report.availability_dip()
        lines.append(
            f"  seed {seed}: dip {100 * dip:.1f}pt, "
            f"recovered={report.recovered()}, remaps={result.remaps}, "
            f"evictions={result.evictions}")
        assert result.evictions == 1
        assert result.reinstatements == 1
        assert result.remaps > 0, "blackout displaced nobody"
        assert dip <= DIP_CEILING, (
            f"seed {seed}: availability dipped {100 * dip:.1f}pt "
            f"(> {100 * DIP_CEILING:.0f}pt ceiling)")
        assert report.recovered(), f"seed {seed}: never recovered"
    emit("fleet_blackout", "\n".join(lines))

    # Same seed, same campaign — byte-identical samples and assignment.
    first, second = _campaign(CAMPAIGN_SEEDS[0]), _campaign(CAMPAIGN_SEEDS[0])
    assert first.samples == second.samples
    assert first.assignment_digest == second.assignment_digest
    assert first.events == second.events


def test_fleet_blackout_report(emit):
    """The CI artifact: all 4 regions, blackout mid-sweep in each."""
    sessions = len(FLEET_REGIONS) * GRID_CLIENTS
    start = time.perf_counter()
    report, results = fleet_sweep(
        FLEET_REGIONS, pops=4, clients=GRID_CLIENTS, cycles=2,
        seed=0, mode="hybrid", workload="pdf", blackout_pop="pop-2",
        blackout_at=90.0, blackout_downtime=60.0, bucket=60.0)
    print(f"fleet blackout grid ran in {time.perf_counter() - start:.1f} s "
          f"wall")

    summary = (
        f"fleet blackout grid: {len(FLEET_REGIONS)} regions x "
        f"{GRID_CLIENTS} clients = {sessions} concurrent sessions "
        f"(hybrid/pdf), mid-sweep pop-2 blackout in every region\n"
        f"fleet dip {100 * report.availability_dip():.1f}pt, "
        f"recovered={report.recovered()}\n\n")
    emit("fleet_report", summary + report.render())

    total_attempts = sum(result.attempts for result in results)
    assert total_attempts == sessions * 2  # cycles=2 measured loads each
    # Every region's detector caught its blackout and its restart.
    assert report.evictions == len(FLEET_REGIONS)
    assert report.reinstatements == len(FLEET_REGIONS)
    assert report.availability_dip() <= DIP_CEILING
    assert report.recovered()
    assert report.total_remaps > 0


@pytest.mark.skipif(FAST, reason="full 10k-session sweep; REPRO_FAST trims "
                                 "CI to the 1,000-session blackout grid")
def test_headline_10k_sessions(emit):
    """4 regions x 2,500 clients: the ROADMAP scale target, healthy."""
    sessions = len(FLEET_REGIONS) * HEADLINE_CLIENTS
    start = time.perf_counter()
    report, results = fleet_sweep(
        FLEET_REGIONS, pops=4, clients=HEADLINE_CLIENTS, cycles=2,
        seed=0, mode="hybrid", workload="pdf", bucket=60.0)
    wall = time.perf_counter() - start

    total_attempts = sum(result.attempts for result in results)
    completed = sum(result.completed for result in results)
    availability = completed / total_attempts
    emit("fleet_10k",
         f"headline fleet sweep: {len(FLEET_REGIONS)} regions x "
         f"{HEADLINE_CLIENTS} clients = {sessions} concurrent sessions "
         f"(hybrid/pdf, no faults), {wall:.1f} s wall\n"
         f"{completed}/{total_attempts} loads completed "
         f"(availability {availability:.3f})\n\n" + report.render())

    assert total_attempts == sessions * 2
    # 2,500 bulk clients per region run the PoP CPUs at saturation;
    # partial shedding is honest, collapse is not.
    assert availability >= 0.90, (
        f"availability {availability:.3f} collapsed at {sessions} sessions")
    assert report.recovered()
