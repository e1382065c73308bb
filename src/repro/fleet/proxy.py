"""ProxyFleet: the split-proxy service deployed fleet-wide.

One :class:`~repro.core.remote_proxy.RemoteProxy` per PoP, one
:class:`~repro.core.domestic_proxy.DomesticProxy` per region — every
region's proxy holds the *same* M remote endpoints in its failover
pool, and all of them share one :class:`~repro.fleet.router.
SessionRouter`, so a session keeps its rendezvous-assigned PoP whichever
way its region's breakers are leaning, and evicting a PoP remaps only
that PoP's sessions fleet-wide.

Membership is driven by a :class:`~repro.fleet.router.FailureDetector`
probing from the ``fleet-control`` ops host (outside every region's
firewall); nothing else changes it.
"""

from __future__ import annotations

import typing as t

from ..cache import CacheConfig, CacheRegistry, ResponseCache
from ..core import (
    BlindingAgility,
    DOMESTIC_PROXY_PORT,
    DomesticProxy,
    REMOTE_PROXY_PORT,
    RemoteProxy,
    ScConnector,
    scholar_whitelist,
)
from ..dns import StubResolver
from ..errors import MeasurementError
from ..faults import Endpoint, RetryPolicy
from ..net import IPv4Address
from .router import FailureDetector, SessionRouter
from .testbed import GOOGLE_DNS_ADDR, FleetTestbed, Region


class RegionEntrypoint:
    """Duck-types :class:`~repro.core.ScholarCloud` for :class:`ScConnector`.

    A connector only needs the simulator/rng/transport plumbing plus
    *which* domestic proxy to dial; this shim points it at one region's.
    """

    name = "scholarcloud"

    def __init__(self, testbed: FleetTestbed, region: Region) -> None:
        self.testbed = testbed
        self.region = region
        self.domestic_addr = region.domestic_vm.address
        self.domestic_port = DOMESTIC_PROXY_PORT


class ProxyFleet:
    """The whole deployed service: M PoPs, N regional front doors."""

    def __init__(
        self,
        testbed: FleetTestbed,
        secret: bytes = b"scholarcloud-2016",
        detector_interval: float = 10.0,
        detector_timeout: float = 3.0,
        cache: t.Optional[CacheConfig] = None,
    ) -> None:
        """``cache`` deploys one edge :class:`~repro.cache.ResponseCache`
        per regional front door — None, the default, keeps the fleet
        cacheless and byte-identical to the historical traces."""
        self.testbed = testbed
        self.whitelist = scholar_whitelist()
        self.agility = BlindingAgility(secret)
        self.detector_interval = detector_interval
        self.detector_timeout = detector_timeout
        self.cache_config = cache
        #: Per-region edge caches, keyed like :attr:`domestics`.
        #: Key space = the testbed's region set, fixed at launch().
        self.caches: t.Dict[str, ResponseCache] = {}  # reprolint: disable=unbounded-cache-field
        self.remotes: t.List[RemoteProxy] = []
        #: Key space = the testbed's region set, fixed at launch().
        self.domestics: t.Dict[str, DomesticProxy] = {}  # reprolint: disable=unbounded-cache-field
        self.router: t.Optional[SessionRouter] = None
        self.detector: t.Optional[FailureDetector] = None
        self.endpoints: t.List[Endpoint] = []
        self.launched = False

    # -- stand-up ---------------------------------------------------------------

    def launch(self):
        """Generator: stand up every PoP and regional front door."""
        testbed = self.testbed
        sim = testbed.sim
        if not self.launched:
            registry: t.Optional[CacheRegistry] = None
            if self.cache_config is not None:
                registry = getattr(sim, "caches", None)
                if registry is None:
                    registry = CacheRegistry(sim).install()
            for pop, cpu in zip(testbed.pops, testbed.pop_cpus):
                resolver = StubResolver(sim, pop, upstream=GOOGLE_DNS_ADDR,
                                        port=5362)
                self.remotes.append(RemoteProxy(
                    sim, pop, resolver, cpu=cpu, agility=self.agility))
            self.endpoints = [
                Endpoint(IPv4Address(pop.address), REMOTE_PROXY_PORT,
                         name=pop.name)
                for pop in testbed.pops]
            self.router = SessionRouter(sim, self.endpoints)
            self.detector = FailureDetector(
                sim, self.router, testbed.transport_of(testbed.control),
                interval=self.detector_interval,
                timeout=self.detector_timeout)
            self.detector.start()
            for region in testbed.regions:
                edge: t.Optional[ResponseCache] = None
                if registry is not None:
                    edge = registry.register(ResponseCache(
                        sim, self.cache_config, self.agility,
                        name=f"edge-{region.name}"))
                    self.caches[region.name] = edge
                self.domestics[region.name] = DomesticProxy(
                    sim, region.domestic_vm,
                    remote_addrs=[str(e.address) for e in self.endpoints],
                    whitelist=self.whitelist, agility=self.agility,
                    cpu=region.domestic_cpu, router=self.router, cache=edge)
            self.launched = True
        return
        yield  # pragma: no cover - launch is currently synchronous

    # -- browser integration ----------------------------------------------------

    def connector(self, region: str, host=None,
                  retry: t.Optional[RetryPolicy] = None) -> ScConnector:
        """A browser connector dialing ``region``'s domestic proxy.

        ``retry`` overrides the connector's default dial retry policy —
        survival sessions pass ``attempts=1`` so their own retry loop
        is the only one running.
        """
        if not self.launched:
            raise MeasurementError("ProxyFleet is not launched; run launch()")
        region_obj = self.testbed.region(region)
        return ScConnector(
            RegionEntrypoint(self.testbed, region_obj),
            host=host if host is not None else region_obj.client,
            retry=retry)

    # -- observability ----------------------------------------------------------

    def failovers(self) -> t.Dict[str, int]:
        """Per-region endpoint-change counts (the fixed semantics)."""
        return {name: proxy.pool.failovers
                for name, proxy in sorted(self.domestics.items())}
