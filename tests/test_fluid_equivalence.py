"""Fluid-mode equivalence: the contract of ``repro.perf.fluid``.

Three families of guarantees, mirroring ``tests/test_perf_equivalence.py``
for the earlier hot-path optimizations:

* **Packet mode is bit-unchanged.**  With no registry installed — or a
  registry whose thresholds never fire — every observable (PLTs,
  admission decisions, GFW logs) is byte-identical to the plain packet
  simulation.
* **Hybrid aggregates stay inside the declared tolerance bands**
  (``TOLERANCE_BANDS``), pooled across seeds.
* **Every de-fluidization trigger works mid-flow** — GFW policy
  escalation, link fault, deadline expiry, overload shed, reset — and
  the scripted event hooks (``policy_log``, admission decision
  verdicts) stay byte-identical between modes, across ≥3 seeds.
"""

from __future__ import annotations

import pytest

from repro.http import scholar_pdf
from repro.http.browser import Browser
from repro.measure.scenarios import prepare, run_overload_point
from repro.overload import OverloadConfig
from repro.perf.fluid import (
    MODES,
    TOLERANCE_BANDS,
    aggregate_overload,
    band_failures,
    install_fluid,
)
from repro.sim import Simulator

SEEDS = (0, 1, 2)


def _pdf_world(mode, seed, **testbed_kwargs):
    """A ScholarCloud world with the bulk PDF page installed."""
    world = prepare("scholarcloud", seed=seed, fluid=mode, **testbed_kwargs)
    page = scholar_pdf()
    world.testbed.scholar_server.add_page(page)
    return world, page


def _load_pdfs(world, page, loads=2, total_deadline=None, gap=1.0):
    """Drive ``loads`` sequential PDF fetches; return PageLoadResults."""
    testbed = world.testbed
    browser = Browser(testbed.sim, world.method.connector(),
                      name="fluid-test", total_deadline=total_deadline)
    results = []

    def driver(sim):
        for _ in range(loads):
            result = yield sim.process(browser.load(page))
            results.append(result)
            yield sim.timeout(gap)

    testbed.run_process(driver(testbed.sim), name="fluid-test-driver")
    return results


def _signature(results):
    """The byte-comparable observable of a load sequence."""
    return [(r.succeeded, r.error, round(r.plt, 9)) for r in results]


# -- mode plumbing -----------------------------------------------------------------


def test_mode_axis():
    assert MODES == ("packet", "hybrid")
    assert install_fluid(Simulator(), "packet") is None
    sim = Simulator()
    registry = install_fluid(sim, "hybrid")
    assert registry is not None and sim.fluid is registry
    for unknown in ("fluid", "warp"):
        with pytest.raises(ValueError):
            install_fluid(Simulator(), unknown)


def test_packet_mode_installs_no_registry():
    world, _ = _pdf_world("packet", seed=0)
    assert world.testbed.fluid is None
    assert world.testbed.sim.fluid is None


# -- packet mode bit-unchanged -----------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_dormant_registry_is_byte_identical_to_packet(seed, monkeypatch):
    """A registry that never fluidizes must not perturb the trace.

    This exercises every hook on the packet path (send_message, close,
    reject, link/policy notifications) with a live
    registry whose threshold no message can meet — the strongest
    packet-safety test available without a second interpreter.
    """
    world, page = _pdf_world("packet", seed=seed)
    baseline = _signature(_load_pdfs(world, page))

    monkeypatch.setattr("repro.perf.fluid.MIN_MESSAGE_BYTES", 10**9)
    world2, page2 = _pdf_world("hybrid", seed=seed)
    results = _load_pdfs(world2, page2)
    assert _signature(results) == baseline
    registry = world2.testbed.fluid
    assert registry is not None
    assert registry.stats.transfers == 0
    assert registry.stats.fallbacks.get("small-message", 0) > 0


def test_same_seed_hybrid_is_deterministic():
    first = run_overload_point(clients=3, cycles=1, seed=0,
                               mode="hybrid", workload="pdf")
    second = run_overload_point(clients=3, cycles=1, seed=0,
                                mode="hybrid", workload="pdf")
    assert first.plt.mean == second.plt.mean
    assert first.completed == second.completed
    assert first.decisions == second.decisions


# -- hybrid tolerance bands --------------------------------------------------------


def test_hybrid_aggregates_within_declared_bands():
    """Pooled across seeds, hybrid lands inside every tolerance band."""
    bytes_per_load = scholar_pdf().total_bytes()
    packet, hybrid = [], []
    for seed in SEEDS:
        packet.append(run_overload_point(clients=4, cycles=1, seed=seed,
                                         mode="packet", workload="pdf"))
        hybrid.append(run_overload_point(clients=4, cycles=1, seed=seed,
                                         mode="hybrid", workload="pdf"))
    packet_agg = aggregate_overload(packet, bytes_per_load)
    hybrid_agg = aggregate_overload(hybrid, bytes_per_load)
    failures = band_failures(packet_agg, hybrid_agg)
    assert failures == [], failures
    # And the fast path actually engaged — this was not a trivial pass.
    assert hybrid_agg["availability"] == packet_agg["availability"] == 1.0


def test_band_failures_flags_out_of_band_metrics():
    reference = {"goodput": 100.0, "plt": 2.0,
                 "shed_rate": 0.0, "availability": 1.0}
    candidate = dict(reference, plt=2.0 * (1 + TOLERANCE_BANDS["plt"]) + 0.1,
                     shed_rate=TOLERANCE_BANDS["shed_rate"] + 0.05)
    failures = band_failures(reference, candidate)
    assert len(failures) == 2
    assert any(f.startswith("plt:") for f in failures)
    assert any(f.startswith("shed_rate:") for f in failures)


# -- de-fluidization transitions ---------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_policy_escalation_defluidizes_mid_flow(seed):
    """``apply_policy`` mid-transfer bumps the epoch; the flow drops to
    packets, re-qualifies, and the scripted policy log is byte-identical
    between modes."""
    logs = {}
    signatures = {}
    for mode in ("packet", "hybrid"):
        world, page = _pdf_world(mode, seed=seed)
        gfw = world.testbed.gfw
        # Fires while the first PDF response is in flight.
        world.testbed.sim.schedule_at(2.0, gfw.apply_policy, lambda g: None,
                                      "escalation-drill")
        signatures[mode] = [r.succeeded for r in _load_pdfs(world, page)]
        logs[mode] = list(gfw.policy_log)
        if mode == "hybrid":
            stats = world.testbed.fluid.stats
            assert stats.defluidized.get("policy:escalation-drill", 0) >= 1
            assert stats.transfers >= 1  # it re-qualified and re-fluidized
    assert logs["hybrid"] == logs["packet"] == [(2.0, "escalation-drill")]
    assert signatures["hybrid"] == signatures["packet"]


@pytest.mark.parametrize("seed", SEEDS)
def test_link_fault_defluidizes_mid_flow(seed):
    """Fault injection on a path link forces re-qualification; both
    modes survive the same scripted degradation with the same outcomes."""
    signatures = {}
    for mode in ("packet", "hybrid"):
        world, page = _pdf_world(mode, seed=seed)
        link = world.testbed.border_link

        def fault(sim):
            yield sim.timeout(2.0)
            link.set_conditions(loss=0.02)
            yield sim.timeout(1.0)
            link.set_conditions(loss=0.004)

        world.testbed.run_process(fault(world.testbed.sim), name="fault")
        signatures[mode] = [r.succeeded for r in _load_pdfs(world, page)]
        if mode == "hybrid":
            stats = world.testbed.fluid.stats
            assert stats.defluidized.get("link:border", 0) >= 2
    assert signatures["hybrid"] == signatures["packet"]


@pytest.mark.parametrize("seed", SEEDS)
def test_deadline_expiry_defluidizes_mid_flow(seed):
    """A session whose deadline expires while queued behind an admitted
    bulk (fluidized) transfer is rejected through the de-fluidization
    hook; both modes report the same success/failure shape."""
    config = OverloadConfig(max_sessions=1, max_waiting=4,
                            queue_delay_threshold=30.0)
    signatures = {}
    for mode in ("packet", "hybrid"):
        world, page = _pdf_world(mode, seed=seed, overload=config,
                                 extra_clients=1)
        testbed = world.testbed
        outcomes = []

        def one_a(sim):
            browser = Browser(sim, world.method.connector(), name="a")
            result = yield sim.process(browser.load(page))
            outcomes.append(("a", result.succeeded))

        def one_b(sim):
            # A second *source host*: admission stickiness is per
            # source, so "b" genuinely queues behind "a"'s slot and its
            # deadline expires in line.
            connector = yield from world.method.attach_client(
                testbed.extra_clients[0])
            browser = Browser(sim, connector, name="b", total_deadline=2.0)
            yield sim.timeout(0.5)
            result = yield sim.process(browser.load(page))
            outcomes.append(("b", result.succeeded))

        def driver(sim):
            yield sim.all_of([sim.process(one_a(sim)),
                              sim.process(one_b(sim))])

        testbed.run_process(driver(testbed.sim), name="deadline-drill")
        verdicts = [d[2] for d in world.method.domestic.admission.decisions]
        signatures[mode] = (sorted(outcomes), verdicts)
        if mode == "hybrid":
            stats = testbed.fluid.stats
            assert stats.transfers >= 1  # "a" genuinely fluidized
            # The expiring session left through the reject hook — the
            # deadline-aware limiter sheds a waiter whose deadline
            # cannot be met, so the reason is "shed" or (when it slips
            # past the limiter) "expired"; both de-fluidize.
            assert (stats.defluidized.get("expired", 0)
                    + stats.defluidized.get("shed", 0)) >= 1
    assert signatures["hybrid"] == signatures["packet"]
    outcomes_packet, _ = signatures["packet"]
    assert dict(outcomes_packet)["b"] is False  # the deadline bit


@pytest.mark.parametrize("seed", SEEDS)
def test_overload_shed_defluidizes_and_matches_verdicts(seed):
    """A tiny admission cap sheds sessions under the PDF load; the
    admission verdict sequence is identical between modes and the shed
    path runs the de-fluidization hook."""
    config = OverloadConfig(max_sessions=2, max_waiting=0)
    rows = {}
    for mode in ("packet", "hybrid"):
        rows[mode] = run_overload_point(clients=6, cycles=1, seed=seed,
                                        mode=mode, workload="pdf",
                                        overload=config)
    packet, hybrid = rows["packet"], rows["hybrid"]
    assert [d[2] for d in packet.decisions] == [d[2] for d in hybrid.decisions]
    assert packet.client_sheds == hybrid.client_sheds
    assert packet.client_sheds > 0  # the cap genuinely shed someone


def test_path_latency_adds_the_hops_left_to_right():
    """The fluid path's latency is ``(0.1 + 0.2) + 0.3``, not the
    correctly rounded 0.6 that CPython 3.12's ``sum`` returns, so
    delivery times and digests do not depend on the interpreter."""
    from repro.net import Network
    from repro.perf.fluid import FluidRegistry
    from repro.sim import Simulator
    from repro.transport import install_transport
    from repro.units import Mbps

    sim = Simulator()
    net = Network(sim)
    client = net.add_host("client", address="10.0.0.1")
    r1 = net.add_router("r1", address="10.0.0.254")
    r2 = net.add_router("r2", address="198.51.100.254")
    server = net.add_host("server", address="203.0.113.1")
    for a, b, latency in ((client, r1, 0.1), (r1, r2, 0.2), (r2, server, 0.3)):
        net.connect(a, b, latency=latency, bandwidth=Mbps(100))
    net.build_routes()
    transport = install_transport(sim, client)
    install_transport(sim, server).listen_tcp(80, lambda conn: None)
    conn = sim.run(until=transport.connect_tcp("203.0.113.1", 80))

    _peer, path = FluidRegistry(sim)._trace_path(conn)
    assert path.latency == (0.1 + 0.2) + 0.3 != 0.6
