"""IPv4 addresses and prefixes.

The simulator uses real dotted-quad IPv4 semantics (int-backed) so that
the GFW's IP blocklist and the VPNs' routed prefixes behave as they do
in the wild.
"""

from __future__ import annotations

import typing as t

from ..errors import AddressError


class IPv4Address:
    """An immutable IPv4 address.

    ``value`` is the address as a 32-bit integer; tables on the packet
    path key on it directly.  Nothing changes an address after
    ``__init__``, so its dotted text is built on the first ``str()``
    and kept.
    """

    __slots__ = ("value", "_text")

    def __init__(self, address: t.Union[str, int, "IPv4Address"]) -> None:
        self._text: t.Optional[str] = None
        if isinstance(address, IPv4Address):
            self.value = address.value
            return
        if isinstance(address, int):
            if not 0 <= address <= 0xFFFFFFFF:
                raise AddressError(f"address out of range: {address}")
            self.value = address
            return
        if isinstance(address, str):
            self.value = self._parse(address)
            return
        raise AddressError(f"cannot build an address from {address!r}")

    @staticmethod
    def _parse(text: str) -> int:
        parts = text.split(".")
        if len(parts) != 4:
            raise AddressError(f"malformed IPv4 address: {text!r}")
        value = 0
        for part in parts:
            if not part.isdigit():
                raise AddressError(f"malformed IPv4 address: {text!r}")
            octet = int(part)
            if octet > 255:
                raise AddressError(f"octet out of range in {text!r}")
            value = (value << 8) | octet
        return value

    def __int__(self) -> int:
        return self.value

    def __str__(self) -> str:
        text = self._text
        if text is None:
            v = self.value
            text = self._text = (
                f"{(v >> 24) & 255}.{(v >> 16) & 255}.{(v >> 8) & 255}.{v & 255}")
        return text

    def __repr__(self) -> str:
        return f"IPv4Address({str(self)!r})"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, IPv4Address):
            return self.value == other.value
        if isinstance(other, str):
            try:
                return self.value == IPv4Address(other).value
            except AddressError:
                return False
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.value)

    def __lt__(self, other: "IPv4Address") -> bool:
        return self.value < other.value


class Prefix:
    """A CIDR prefix such as ``203.0.113.0/24``."""

    __slots__ = ("network", "length", "_mask")

    def __init__(self, cidr: str) -> None:
        try:
            base, _, length_text = cidr.partition("/")
            if not length_text:
                raise AddressError(f"missing prefix length in {cidr!r}")
            self.length = int(length_text)
        except ValueError as exc:
            raise AddressError(f"malformed CIDR {cidr!r}") from exc
        if not 0 <= self.length <= 32:
            raise AddressError(f"prefix length out of range in {cidr!r}")
        self._mask = (0xFFFFFFFF << (32 - self.length)) & 0xFFFFFFFF
        self.network = IPv4Address(int(IPv4Address(base)) & self._mask)

    def __contains__(self, address: t.Union[str, IPv4Address]) -> bool:
        return (int(IPv4Address(address)) & self._mask) == int(self.network)

    def __str__(self) -> str:
        return f"{self.network}/{self.length}"

    def __repr__(self) -> str:
        return f"Prefix({str(self)!r})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Prefix):
            return NotImplemented
        return self.network == other.network and self.length == other.length

    def __hash__(self) -> int:
        return hash((self.network, self.length))
