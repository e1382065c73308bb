"""The multi-region fleet testbed.

Generalizes the canonical single-vantage :class:`~repro.measure.testbed.
Testbed` to N domestic regions and M remote PoPs inside one simulation:

* each region (a :class:`~repro.fleet.regions.RegionSpec`) gets its own
  client population, domestic VM, campus router, and — crucially — its
  own border link carrying its *own* :class:`~repro.gfw.GreatFirewall`
  instance with that region's divergent policy;
* the US side is shared: one backbone, M PoP hosts (each a failover
  target for every region), the Scholar origin + DNS, and a
  ``fleet-control`` ops host the failure detector probes from (an ops
  vantage outside every firewall, so a regional escalation can never
  masquerade as a PoP death).

Every region's firewall draws interference from its own
``gfw.interference:<region>`` stream, so one region's draws never
perturb another's — the fleet-wide trace is the deterministic merge of
per-region traces.
"""

from __future__ import annotations

import typing as t
from dataclasses import dataclass, field

from ..dns import AuthoritativeServer, Zone
from ..errors import MeasurementError
from ..gfw import ActiveProber, BlockPolicy, GreatFirewall
from ..http import WebServer, google_scholar_home
from ..net import Host, Link, Network
from ..sim import ProcessorSharingServer, Simulator, TraceLog
from ..transport import TransportLayer, install_transport
from ..units import Mbps, ms
from .regions import RegionSpec, default_fleet_regions, region_gfw_config, region_policy

#: Shared US-side addresses (PoP j lives at ``47.88.1.{100+j}``).
SCHOLAR_ADDR = "172.217.194.80"
GOOGLE_DNS_ADDR = "172.217.194.53"
CONTROL_ADDR = "198.32.3.10"
POP_ADDR_BASE = 100

SCHOLAR_HOST = "scholar.google.com"


@dataclass
class Region:
    """One assembled domestic region inside the fleet testbed."""

    spec: RegionSpec
    client: Host
    extra_clients: t.List[Host]
    campus: t.Any
    domestic_vm: Host
    border_cn: t.Any
    border_link: Link
    policy: BlockPolicy
    domestic_cpu: ProcessorSharingServer
    prober_host: t.Optional[Host] = None
    #: All browser machines, canonical client first.
    clients: t.List[Host] = field(default_factory=list)
    #: Attached once transports exist (its active prober dials).
    gfw: GreatFirewall = field(init=False)

    @property
    def name(self) -> str:
        return self.spec.name


class FleetTestbed:
    """N regions x M PoPs in one deterministic simulation."""

    #: Not a pytest test class, despite the name.
    __test__ = False

    def __init__(
        self,
        seed: int = 0,
        regions: t.Optional[t.Sequence[RegionSpec]] = None,
        pops: int = 3,
        clients_per_region: int = 0,
        fluid: t.Optional[t.Any] = None,
        domestic_backbone: bool = False,
    ) -> None:
        """``domestic_backbone`` (default off) links every region's
        campus router through a shared ``cn-backbone`` router — inland
        inter-province paths that never cross a border firewall.  It is
        what lets a client in an escalated/blacked-out region re-enter
        the service through another region's domestic proxy (survival
        migration).  Opt-in because extra links change the
        latency-weighted route tables globally: single-purpose fleets
        keep their historical byte-identical traces."""
        if pops < 1:
            raise MeasurementError(f"fleet needs at least one PoP, got {pops}")
        specs = tuple(regions) if regions is not None else default_fleet_regions()
        if not specs:
            raise MeasurementError("fleet needs at least one region")
        names = [spec.name for spec in specs]
        if len(set(names)) != len(names):
            raise MeasurementError(f"duplicate region names: {names}")
        self.sim = Simulator(seed=seed)
        self.fluid = None
        if fluid is not None:
            from ..perf.fluid import install_fluid
            self.fluid = install_fluid(self.sim, fluid)
        self.rng = self.sim.rng
        self.trace = TraceLog(self.sim)
        self.net = Network(self.sim, rng=self.rng, trace=self.trace)
        net = self.net

        # -- shared US side ----------------------------------------------------
        self.border_us = net.add_router("border-us", address="198.32.1.1")
        self.us_core = net.add_router("us-core", address="198.32.2.1")
        net.connect(self.border_us, self.us_core, latency=ms(5),
                    bandwidth=Mbps(1000))
        self.scholar_origin = net.add_host("scholar-origin", address=SCHOLAR_ADDR)
        self.google_dns = net.add_host("google-dns", address=GOOGLE_DNS_ADDR)
        self.control = net.add_host("fleet-control", address=CONTROL_ADDR)
        net.connect(self.us_core, self.scholar_origin, latency=ms(2),
                    bandwidth=Mbps(1000))
        net.connect(self.us_core, self.google_dns, latency=ms(2),
                    bandwidth=Mbps(1000))
        net.connect(self.us_core, self.control, latency=ms(1),
                    bandwidth=Mbps(1000))

        self.pops: t.List[Host] = []
        self.pop_cpus: t.List[ProcessorSharingServer] = []
        for index in range(pops):
            pop = net.add_host(f"pop-{index + 1}",
                               address=f"47.88.1.{POP_ADDR_BASE + index}")
            net.connect(pop, self.us_core, latency=ms(2), bandwidth=Mbps(100),
                        loss=0.0002)
            self.pops.append(pop)
            self.pop_cpus.append(ProcessorSharingServer(
                self.sim, capacity=1.0, name=f"{pop.name}-cpu"))

        # -- regions -----------------------------------------------------------
        self.regions: t.List[Region] = []
        for index, spec in enumerate(specs):
            self.regions.append(self._build_region(index, spec,
                                                   clients_per_region))

        # -- optional domestic backbone (no firewall on inland links) ----------
        self.backbone = None
        if domestic_backbone and len(self.regions) > 1:
            self.backbone = net.add_router("cn-backbone", address="59.250.0.1")
            for region in self.regions:
                net.connect(region.campus, self.backbone, latency=ms(12),
                            bandwidth=Mbps(1000), loss=0.0002,
                            name=f"backbone-{region.name}")

        net.build_routes()

        # -- transports --------------------------------------------------------
        hosts: t.List[Host] = [self.scholar_origin, self.google_dns,
                               self.control] + self.pops
        for region in self.regions:
            hosts.append(region.domestic_vm)
            hosts.extend(region.clients)
            if region.prober_host is not None:
                hosts.append(region.prober_host)
        for host in hosts:
            install_transport(self.sim, host)

        # -- DNS + origin ------------------------------------------------------
        google_zone = Zone("google.com")
        google_zone.add_a(SCHOLAR_HOST, SCHOLAR_ADDR)
        google_zone.add_a("www.google.com", SCHOLAR_ADDR)
        AuthoritativeServer(self.sim, self.google_dns, [google_zone])
        self.scholar_server = WebServer(self.sim, self.scholar_origin)
        self.scholar_page = google_scholar_home()
        self.scholar_server.add_page(self.scholar_page)

        # -- per-region firewalls (built late: probers need transports) --------
        for region in self.regions:
            self._attach_gfw(region)

        #: Compatibility with single-region tooling (FaultInjector's
        #: dns-poison handler, default ScConnector host): region 0.
        self.client = self.regions[0].client
        self.policy = self.regions[0].policy

    # -- construction helpers --------------------------------------------------

    def _build_region(self, index: int, spec: RegionSpec,
                      clients_per_region: int) -> Region:
        net = self.net
        base = 66 + index
        client = net.add_host(f"client-{spec.name}", address=f"59.{base}.1.10")
        campus = net.add_router(f"campus-{spec.name}", address=f"59.{base}.1.1")
        domestic_vm = net.add_host(f"domestic-vm-{spec.name}",
                                   address=f"59.{base}.2.100")
        border_cn = net.add_router(f"border-cn-{spec.name}",
                                   address=f"202.112.{index + 1}.1")
        net.connect(client, campus, latency=ms(1), bandwidth=Mbps(100),
                    loss=0.0002)
        net.connect(domestic_vm, campus, latency=ms(1), bandwidth=Mbps(100),
                    loss=0.0002)
        net.connect(campus, border_cn, latency=ms(6), bandwidth=Mbps(1000),
                    loss=0.0002)
        border_link = net.connect(
            border_cn, self.border_us, latency=spec.pacific_one_way,
            bandwidth=Mbps(1000), loss=spec.border_loss,
            name=f"border-{spec.name}")
        extra_clients: t.List[Host] = []
        for extra in range(clients_per_region):
            host = net.add_host(
                f"client-{spec.name}-{extra}",
                address=f"59.{base}.{10 + extra // 200}.{extra % 200 + 11}")
            net.connect(host, campus, latency=ms(1), bandwidth=Mbps(100),
                        loss=0.0002)
            extra_clients.append(host)
        prober_host = None
        if spec.active_probing:
            prober_host = net.add_host(f"prober-{spec.name}",
                                       address=f"202.112.{index + 1}.99")
            net.connect(prober_host, border_cn, latency=ms(2),
                        bandwidth=Mbps(100))
        region = Region(
            spec=spec, client=client, extra_clients=extra_clients,
            campus=campus, domestic_vm=domestic_vm, border_cn=border_cn,
            border_link=border_link, policy=region_policy(spec),
            domestic_cpu=ProcessorSharingServer(
                self.sim, capacity=1.0, name=f"domestic-{spec.name}-cpu"),
            prober_host=prober_host)
        region.clients = [client] + extra_clients
        return region

    def _attach_gfw(self, region: Region) -> None:
        spec = region.spec
        prober = None
        if region.prober_host is not None:
            prober = ActiveProber(
                self.sim, t.cast(TransportLayer, region.prober_host.transport))
        region.gfw = GreatFirewall(
            self.sim, region.policy, region_gfw_config(spec),
            rng=self.rng.stream(f"gfw.interference:{spec.name}"),
            trace=self.trace, prober=prober, name=f"gfw-{spec.name}")
        region.border_link.add_middlebox(region.gfw)

    # -- conveniences ----------------------------------------------------------

    def region(self, name: str) -> Region:
        for region in self.regions:
            if region.name == name:
                return region
        raise MeasurementError(
            f"no region {name!r}; have {[r.name for r in self.regions]}")

    def transport_of(self, host: Host) -> TransportLayer:
        return t.cast(TransportLayer, host.transport)

    def run_process(self, generator, name: t.Optional[str] = None):
        """Run one process to completion and return its value."""
        return self.sim.run(until=self.sim.process(generator, name=name))
