"""The visible service whitelist (§3 "Service legalization").

ScholarCloud only ever diverts traffic for domains on this list; the
list is inspectable by government agencies, who may demand removals.
Everything else flows to the Internet untouched — the property that
makes the service registrable rather than a circumvention tool.
"""

from __future__ import annotations

import typing as t
from dataclasses import dataclass

from ..errors import PolicyError


#: Default admission-priority band for whitelisted services (matches
#: ``repro.overload.PRIORITY_BULK``; lower numbers are shed last).
DEFAULT_PRIORITY = 1


@dataclass(frozen=True)
class WhitelistEntry:
    """One whitelisted service."""

    domain: str
    description: str
    added_at: float = 0.0
    #: Overload-shedding band: 0 = interactive (shed last), higher =
    #: bulk.  Only consulted when admission control is enabled.
    priority: int = DEFAULT_PRIORITY


class Whitelist:
    """Suffix-matched domain whitelist with an audit trail."""

    def __init__(self) -> None:
        self._entries: t.Dict[str, WhitelistEntry] = {}
        self.audit_log: t.List[t.Tuple[float, str, str]] = []

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> t.Iterator[WhitelistEntry]:
        return iter(self._entries.values())

    def add(self, domain: str, description: str, now: float = 0.0,
            priority: int = DEFAULT_PRIORITY) -> WhitelistEntry:
        domain = domain.lower().rstrip(".")
        if not domain or "." not in domain:
            raise PolicyError(f"not a valid service domain: {domain!r}")
        entry = WhitelistEntry(domain, description, added_at=now,
                               priority=priority)
        self._entries[domain] = entry
        self.audit_log.append((now, "add", domain))
        return entry

    def remove(self, domain: str, now: float = 0.0) -> None:
        """Regulator-requested removal (§3: "alter the whitelist on demand")."""
        domain = domain.lower().rstrip(".")
        if domain not in self._entries:
            raise PolicyError(f"{domain} is not on the whitelist")
        del self._entries[domain]
        self.audit_log.append((now, "remove", domain))

    def allows(self, hostname: t.Optional[str]) -> bool:
        if not hostname:
            return False
        hostname = hostname.lower().rstrip(".")
        return any(hostname == domain or hostname.endswith("." + domain)
                   for domain in self._entries)

    def priority_of(self, hostname: t.Optional[str]) -> int:
        """Admission priority of ``hostname`` (best matching entry).

        Unmatched hostnames get the bulk band — they should never reach
        admission at all (the whitelist refuses them first), so the
        conservative answer is "shed first".
        """
        if not hostname:
            return DEFAULT_PRIORITY
        hostname = hostname.lower().rstrip(".")
        matches = [entry.priority for domain, entry in self._entries.items()
                   if hostname == domain or hostname.endswith("." + domain)]
        return min(matches, default=DEFAULT_PRIORITY)

    def domains(self) -> t.List[str]:
        """The visible list, as shown to regulators and users."""
        return sorted(self._entries)


def scholar_whitelist() -> Whitelist:
    """The deployed whitelist: legal, incidentally-blocked services."""
    wl = Whitelist()
    wl.add("scholar.google.com", "Google Scholar — academic search",
           priority=0)
    wl.add("googleapis.com", "Google static APIs used by Scholar pages")
    wl.add("gstatic.com", "Google static content CDN")
    return wl
