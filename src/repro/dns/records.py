"""DNS records and zones."""

from __future__ import annotations

import typing as t
from dataclasses import dataclass

from ..errors import DnsError
from ..net import IPv4Address


@dataclass(frozen=True)
class DnsRecord:
    """A single resource record."""

    name: str
    rtype: str  # record type, e.g. "A"
    value: str  # dotted quad for an A record
    ttl: float = 300.0

    def address(self) -> IPv4Address:
        if self.rtype != "A":
            raise DnsError(f"{self.name}: not an A record")
        return IPv4Address(self.value)


class Zone:
    """An authoritative zone: name -> records."""

    def __init__(self, origin: str) -> None:
        self.origin = origin.lower().rstrip(".")
        self._records: t.Dict[str, t.List[DnsRecord]] = {}

    def add(self, name: str, rtype: str, value: str, ttl: float = 300.0) -> DnsRecord:
        record = DnsRecord(name.lower().rstrip("."), rtype.upper(), value, ttl)
        self._records.setdefault(record.name, []).append(record)
        return record

    def add_a(self, name: str, address: t.Union[str, IPv4Address], ttl: float = 300.0) -> DnsRecord:
        return self.add(name, "A", str(IPv4Address(address)), ttl)

    def lookup(self, name: str) -> t.List[DnsRecord]:
        """Records for ``name``."""
        return list(self._records.get(name.lower().rstrip("."), ()))

    def covers(self, name: str) -> bool:
        name = name.lower().rstrip(".")
        return name == self.origin or name.endswith("." + self.origin)
