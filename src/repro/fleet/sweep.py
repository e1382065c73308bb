"""Fleet sweeps: per-region simulations fanned over the parallel runner.

The headline experiment scales to 10,000 concurrent sessions by
combining both scaling axes this repo has built:

* *across* regions — each region is a hermetic single-region
  :class:`~repro.fleet.testbed.FleetTestbed` (all M PoPs, one border),
  so regions fan out over :func:`repro.perf.runner.run_points` worker
  processes exactly like Figure 7 cells;
* *within* a region — the sim runs in hybrid fluid mode
  (:mod:`repro.perf.fluid`), which collapses steady-state bulk
  transfer into flow-level updates and makes thousands of concurrent
  clients per region tractable.

Every point is a pure function of its arguments (region name, PoP
count, client count, seed, fault script), so the merged fleet report
is byte-identical serial or parallel, and identical across reruns —
including the rendezvous session->PoP assignment digest, which a test
pins across processes.
"""

from __future__ import annotations

import hashlib
import typing as t
from dataclasses import dataclass

from ..cache import CacheConfig
from ..errors import MeasurementError
from ..measure.load import drive_clients, install_workload
from ..measure.metrics import CacheReport, availability_over_time
from ..perf.runner import SweepPoint, run_points
from .chaos import FleetSchedule
from .proxy import ProxyFleet
from .regions import region_by_name
from .report import FleetReport, RegionReport
from .testbed import FleetTestbed

#: Availability bucket width used by fleet reports.
REPORT_BUCKET = 30.0


@dataclass(frozen=True)
class FleetRegionResult:
    """One region's campaign outcome (one sweep cell)."""

    region: str
    pops: int
    clients: int
    seed: int
    mode: str
    completed: int
    failed: int
    duration: float
    #: (time, succeeded) per measured load, in completion order.
    samples: t.Tuple[t.Tuple[float, bool], ...]
    failovers: int
    remaps: int
    evictions: int
    reinstatements: int
    #: Router membership events: (time, verb, endpoint).
    events: t.Tuple[t.Tuple[float, str, str], ...]
    #: blake2b digest of the final session->PoP assignment.
    assignment_digest: str
    #: Fault injector timeline, when a campaign ran.
    timeline: t.Tuple[t.Tuple[float, str, str, str], ...] = ()
    #: Always zero; kept because recorded fleet digests hash every field.
    migrations: int = 0
    sessions_lost: int = 0
    #: This region's edge-cache report (None when run cacheless).
    cache: t.Optional[CacheReport] = None

    @property
    def attempts(self) -> int:
        return self.completed + self.failed

    @property
    def goodput(self) -> float:
        return self.completed / self.duration if self.duration else 0.0


def _assignment_digest(assignment: t.Dict[str, str]) -> str:
    digest = hashlib.blake2b(digest_size=16)
    for key, pop in sorted(assignment.items()):
        digest.update(f"{key}->{pop};".encode())
    return digest.hexdigest()


def run_fleet_region_point(
    region: str,
    pops: int = 3,
    clients: int = 50,
    cycles: int = 2,
    seed: int = 0,
    mode: str = "hybrid",
    workload: str = "home",
    blackout_pop: t.Optional[str] = None,
    blackout_at: float = 90.0,
    blackout_downtime: float = 60.0,
    cache: t.Optional[CacheConfig] = None,
) -> FleetRegionResult:
    """One region's campaign: ``clients`` sessions against M PoPs.

    ``workload`` names what each client loads (see
    :data:`repro.measure.load.WORKLOADS`): ``"pdf"`` makes the PoP
    CPUs the bottleneck — the regime where goodput scales with PoP
    count — and ``"queries"`` is the workload an edge ``cache`` pays
    off on.  With ``blackout_pop`` set, that PoP
    blacks out mid-sweep for ``blackout_downtime`` seconds — the
    detector evicts it, its sessions fail over (rendezvous
    re-ranking), and reinstatement follows its restart.  Hermetic and
    picklable: safe as a :class:`~repro.perf.runner.SweepPoint`
    function.
    """
    if clients < 1:
        raise MeasurementError(f"fleet point needs clients >= 1, got {clients}")
    spec = region_by_name(region)
    testbed = FleetTestbed(seed=seed, regions=[spec], pops=pops,
                           clients_per_region=clients, fluid=mode)
    fleet = ProxyFleet(testbed, cache=cache)
    testbed.run_process(fleet.launch(), name="fleet-launch")
    if blackout_pop is not None:
        schedule = FleetSchedule()
        schedule.pop_blackout(blackout_pop, at=blackout_at,
                              downtime=blackout_downtime)
        injector = schedule.install(testbed)
    else:
        injector = None

    def attach(host):
        return fleet.connector(region, host=host)
        yield  # pragma: no cover - attachment is configuration-only

    records = drive_clients(
        testbed.sim, testbed.region(region).extra_clients[:clients], attach,
        install_workload(testbed, workload), cycles,
        testbed.rng.stream("fleet.offsets"), "fleet-load")
    samples = tuple((record.finished, record.succeeded) for record in records)

    router = fleet.router
    assert router is not None
    completed = sum(1 for _, succeeded in samples if succeeded)
    edge_cache = fleet.caches.get(region)
    return FleetRegionResult(
        region=region, pops=pops, clients=clients, seed=seed, mode=mode,
        completed=completed, failed=len(samples) - completed,
        duration=testbed.sim.now, samples=samples,
        # One proxy binds through this router, so each remap is one of
        # its sessions failing over to another PoP.
        failovers=router.remaps, remaps=router.remaps,
        evictions=router.evictions, reinstatements=router.reinstatements,
        events=tuple(router.events),
        assignment_digest=_assignment_digest(router.assignment()),
        timeline=tuple(injector.timeline) if injector is not None else (),
        cache=edge_cache.report() if edge_cache is not None else None)


# -- sweep grids ---------------------------------------------------------------


def fleet_points(
    regions: t.Sequence[str],
    pops: int = 3,
    clients: int = 50,
    cycles: int = 2,
    seed: int = 0,
    mode: str = "hybrid",
    workload: str = "home",
    blackout_pop: t.Optional[str] = None,
    blackout_at: float = 90.0,
    blackout_downtime: float = 60.0,
    cache: t.Optional[CacheConfig] = None,
) -> t.List[SweepPoint]:
    """One sweep point per region (the fleet fan-out grid).

    A non-default ``workload`` (and a non-None ``cache``) is folded
    into the label so mixed grids stay uniquely keyed.
    """
    def label_for(region: str) -> t.Tuple:
        label: t.Tuple = (region, int(pops), int(clients), int(seed), mode)
        if workload != "home":
            label = label + (workload,)
        if cache is not None:
            label = label + ("cache",)
        return label

    return [
        SweepPoint(
            label=label_for(region),
            function=run_fleet_region_point,
            kwargs={"region": region, "pops": int(pops),
                    "clients": int(clients), "cycles": cycles, "seed": seed,
                    "mode": mode, "workload": workload,
                    "blackout_pop": blackout_pop,
                    "blackout_at": blackout_at,
                    "blackout_downtime": blackout_downtime,
                    "cache": cache})
        for region in regions
    ]


def aggregate_fleet(results: t.Sequence[FleetRegionResult],
                    bucket: float = REPORT_BUCKET) -> FleetReport:
    """Fold per-region results into one fleet availability report."""
    if not results:
        raise MeasurementError("cannot aggregate zero fleet results")
    horizon = max(result.duration for result in results)
    regions = tuple(
        RegionReport(
            region=result.region,
            series=availability_over_time(list(result.samples), bucket,
                                          horizon=horizon),
            completed=result.completed, failed=result.failed,
            failovers=result.failovers, remaps=result.remaps,
            cache_lookups=(result.cache.lookups
                           if result.cache is not None else 0),
            cache_hits=(result.cache.hits
                        if result.cache is not None else 0),
            transpacific_bytes_avoided=(
                result.cache.transpacific_bytes_avoided
                if result.cache is not None else 0))
        for result in results)
    events = tuple(sorted(
        (event for result in results for event in result.events)))
    return FleetReport(
        regions=regions, events=events,
        evictions=sum(result.evictions for result in results),
        reinstatements=sum(result.reinstatements for result in results))


def fleet_sweep(
    regions: t.Sequence[str],
    pops: int = 3,
    clients: int = 50,
    cycles: int = 2,
    seed: int = 0,
    mode: str = "hybrid",
    workload: str = "home",
    blackout_pop: t.Optional[str] = None,
    blackout_at: float = 90.0,
    blackout_downtime: float = 60.0,
    bucket: float = REPORT_BUCKET,
    cache: t.Optional[CacheConfig] = None,
) -> t.Tuple[FleetReport, t.List[FleetRegionResult]]:
    """Run the fleet campaign; returns ``(report, per-region results)``.

    ``regions x clients`` is the concurrent-session scale: the headline
    configuration (4 regions x 2,500 clients, ``mode="hybrid"``)
    simulates 10,000 concurrent sessions.  Regions run as parallel
    points (one worker per CPU), and the results are byte-identical to
    a serial run.
    """
    points = fleet_points(regions, pops=pops, clients=clients, cycles=cycles,
                          seed=seed, mode=mode, workload=workload,
                          blackout_pop=blackout_pop,
                          blackout_at=blackout_at,
                          blackout_downtime=blackout_downtime,
                          cache=cache)
    results = run_points(points)
    return aggregate_fleet(results, bucket=bucket), list(results)
