"""Government agencies: MIIT, TCA, MPS, MSS (§2).

The paper's central observation is that China's censorship is
*bilateral*: the GFW does aggressive technical blocking; the agencies
do slow, evidence-based regulation — and the two are not synchronized.
This module models the regulation side:

* :class:`MIIT` owns the registry and legislation;
* :class:`TCA` processes registrations (wrapped by the registry's
  review delay);
* :class:`SecurityMinistry` (MPS/MSS) runs *investigations*: slow,
  manual discovery of unregistered services, followed by legal
  shutdowns — unlike the GFW, a shutdown kills the service entirely,
  not just the packets.

Shutdowns are conservative: a service whose domains are registered and
whose visible whitelist matches its registration survives; an
unregistered proxy found by an investigation is shut down (and the
responsible person is in trouble).  Registered VPNs post-2015 are
tolerated; unregistered ones are fair game — footnote 2 of the paper.
"""

from __future__ import annotations

import typing as t
from dataclasses import dataclass, field

from ..sim import Simulator
from ..units import DAY
from .icp import APPROVED, IcpRegistry


@dataclass(frozen=True)
class ServiceListing:
    """A publicly observable Internet service inside China."""

    name: str
    domain: str
    #: What the service actually does, observable on investigation.
    kind: str  # "web", "proxy", "vpn"
    #: Hook invoked by a legal shutdown (unregisters listeners etc.).
    shutdown: t.Callable[[], None] = lambda: None


@dataclass
class Investigation:
    """One MPS/MSS case file."""

    target: ServiceListing
    opened_at: float
    closed_at: t.Optional[float] = None
    outcome: t.Optional[str] = None
    evidence: t.List[str] = field(default_factory=list)


class MIIT:
    """Ministry of Industry and Information Technology."""

    def __init__(self, registry: IcpRegistry) -> None:
        self.registry = registry
        #: Current legislation flags; the VPN rule changed in 2015/2017.
        self.registered_vpn_legal = True


class TCA:
    """City-level Telecommunication Administration: intake window."""

    def __init__(self, registry: IcpRegistry) -> None:
        self.registry = registry

    def file_registration(self, **kwargs) -> str:
        registration = self.registry.submit(**kwargs)
        return registration.number


class SecurityMinistry:
    """MPS/MSS: investigations and legal shutdowns."""

    def __init__(self, sim: Simulator, registry: IcpRegistry,
                 investigation_days: float = 45.0) -> None:
        self.sim = sim
        self.registry = registry
        self.rng = sim.rng.stream("mps")
        self.investigation_days = investigation_days
        self.services: t.List[ServiceListing] = []
        self.investigations: t.List[Investigation] = []
        self.shutdowns: t.List[str] = []

    def observe_service(self, listing: ServiceListing) -> None:
        """A service becomes visible (user reports, scanning, press)."""
        self.services.append(listing)

    def open_investigation(self, listing: ServiceListing) -> Investigation:
        case = Investigation(target=listing, opened_at=self.sim.now)
        self.investigations.append(case)
        self.sim.process(self._investigate(case), name=f"mps:{listing.domain}")
        return case

    def sweep(self) -> t.List[Investigation]:
        """Open investigations into every observed proxy/VPN service."""
        opened = []
        for listing in self.services:
            if listing.kind in ("proxy", "vpn"):
                opened.append(self.open_investigation(listing))
        return opened

    def _investigate(self, case: Investigation):
        # Evidence collection takes time — regulation cannot be
        # automated the way packet filtering can (§2).
        duration = self.investigation_days * (0.6 + 0.8 * self.rng.random())
        yield self.sim.timeout(duration * DAY)
        listing = case.target
        registration = self.registry.registration_for_domain(listing.domain)
        case.closed_at = self.sim.now
        if registration is not None and registration.status == APPROVED:
            case.evidence.append("registered ICP with visible whitelist")
            case.outcome = "no-action"
            return
        case.evidence.append("no ICP registration found in MIIT database")
        case.outcome = "shutdown"
        self.shutdowns.append(listing.domain)
        listing.shutdown()


class RegulatoryEnvironment:
    """The four agencies wired together over one registry."""

    def __init__(self, sim: Simulator, review_days: float = 30.0,
                 investigation_days: float = 45.0) -> None:
        self.sim = sim
        self.registry = IcpRegistry(sim, review_days=review_days)
        self.miit = MIIT(self.registry)
        self.tca = TCA(self.registry)
        self.security = SecurityMinistry(
            sim, self.registry, investigation_days=investigation_days)

    def legalize(self, **registration_kwargs) -> str:
        """File and (after the review delay elapses) hold a valid ICP."""
        return self.tca.file_registration(**registration_kwargs)
