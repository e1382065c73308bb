"""ICP registration: the non-technical half of §2.

Any provider of public Internet content in China must register with
the local Telecommunication Administration; MIIT keeps the central
database.  Registration is a manual, weeks-long review of the company,
the responsible person, and the service documentation — modeled here
as a simulated-time review delay with document completeness checks.
"""

from __future__ import annotations

import itertools
import typing as t
from dataclasses import dataclass, field

from ..errors import RegistrationError
from ..sim import Simulator
from ..units import DAY

#: Registration states.
SUBMITTED = "submitted"
UNDER_REVIEW = "under-review"
APPROVED = "approved"
REJECTED = "rejected"
REVOKED = "revoked"

#: Documents the TCA requires (§3 "Service legalization").
REQUIRED_DOCUMENTS = frozenset({
    "legal-representative-biometric",
    "service-documentation",
    "usage-video",
    "user-guide",
})

_serials = itertools.count(15_063_437)  # first issue = the paper's number


@dataclass
class IcpRegistration:
    """One registration record in the MIIT database."""

    number: str
    company: str
    service_name: str
    service_type: str
    domains: t.Tuple[str, ...]
    whitelist: t.Tuple[str, ...]
    responsible_person: str
    documents: t.FrozenSet[str]
    submitted_at: float
    status: str = SUBMITTED
    decided_at: t.Optional[float] = None
    history: t.List[t.Tuple[float, str]] = field(default_factory=list)

    def record(self, now: float, event: str) -> None:
        self.history.append((now, event))


class IcpRegistry:
    """The MIIT central database plus the TCA review workflow."""

    def __init__(self, sim: Simulator, review_days: float = 30.0) -> None:
        self.sim = sim
        self.review_days = review_days
        self._by_number: t.Dict[str, IcpRegistration] = {}
        self._by_domain: t.Dict[str, IcpRegistration] = {}

    def submit(
        self,
        company: str,
        service_name: str,
        service_type: str,
        domains: t.Sequence[str],
        whitelist: t.Sequence[str] = (),
        responsible_person: str = "legal representative",
        documents: t.Iterable[str] = REQUIRED_DOCUMENTS,
    ) -> IcpRegistration:
        """File a registration; review completes after ``review_days``."""
        documents = frozenset(documents)
        missing = REQUIRED_DOCUMENTS - documents
        if missing:
            raise RegistrationError(
                f"registration incomplete; missing documents: {sorted(missing)}")
        if not domains:
            raise RegistrationError("a registration needs at least one domain")
        for domain in domains:
            if domain in self._by_domain:
                raise RegistrationError(f"{domain} is already registered")
        registration = IcpRegistration(
            number=f"ICP-{next(_serials)}",
            company=company,
            service_name=service_name,
            service_type=service_type,
            domains=tuple(domains),
            whitelist=tuple(whitelist),
            responsible_person=responsible_person,
            documents=documents,
            submitted_at=self.sim.now,
        )
        registration.record(self.sim.now, "submitted")
        self._by_number[registration.number] = registration
        for domain in domains:
            self._by_domain[domain] = registration
        registration.status = UNDER_REVIEW
        self.sim.schedule(self.review_days * DAY, self._decide, registration)
        return registration

    def _decide(self, registration: IcpRegistration) -> None:
        if registration.status != UNDER_REVIEW:
            return
        registration.status = APPROVED
        registration.decided_at = self.sim.now
        registration.record(self.sim.now, "approved")

    # -- queries --------------------------------------------------------------------

    def lookup(self, number: str) -> IcpRegistration:
        found = self._by_number.get(number)
        if found is None:
            raise RegistrationError(f"no such registration: {number}")
        return found

    def registration_for_domain(self, domain: str) -> t.Optional[IcpRegistration]:
        return self._by_domain.get(domain)

    def is_registered(self, domain: str) -> bool:
        registration = self._by_domain.get(domain)
        return registration is not None and registration.status == APPROVED

    def revoke(self, number: str, reason: str) -> None:
        """MPS/MSS shutdown decision for a registered service."""
        registration = self.lookup(number)
        registration.status = REVOKED
        registration.record(self.sim.now, f"revoked: {reason}")
