"""Block policy: the GFW's domain, IP, and keyword lists.

The policy is mutable at runtime — the paper stresses that both the
GFW's behaviour and government policy evolve over time, and the
arms-race example exercises exactly that.

Lookups are on the firewall's per-packet path, so they are precompiled:
domain blocking walks the queried name's suffixes against a set (O(#
labels), not O(# blocked suffixes)), and keyword scanning runs one
compiled alternation instead of one ``in`` scan per keyword.  Mutators
invalidate the compiled forms, keeping the mutable-policy contract.
"""

from __future__ import annotations

import re
import typing as t

from ..net import IPv4Address


class BlockPolicy:
    """What the GFW considers blockable."""

    def __init__(self) -> None:
        self._domain_suffixes: t.Set[str] = set()
        self._ip_exact: t.Set[IPv4Address] = set()
        self._keywords: t.Set[str] = set()
        self._keyword_pattern: t.Optional[t.Pattern[str]] = None
        #: Per-traffic-class interference loss rates (0 disables).
        #: Key space = the DPI classifier label vocabulary (a handful
        #: of fixed strings), set by operator policy, not by traffic.
        self.class_interference: t.Dict[str, float] = {}  # reprolint: disable=unbounded-cache-field
        #: Traffic classes answered with forged RSTs instead of loss.
        self.rst_classes: t.Set[str] = set()

    # -- domains -----------------------------------------------------------------

    def block_domain(self, suffix: str) -> None:
        self._domain_suffixes.add(suffix.lower().rstrip("."))

    def unblock_domain(self, suffix: str) -> None:
        self._domain_suffixes.discard(suffix.lower().rstrip("."))

    def domain_blocked(self, name: t.Optional[str]) -> bool:
        if not name:
            return False
        suffixes = self._domain_suffixes
        if not suffixes:
            return False
        name = name.lower().rstrip(".")
        # Walk the name's own suffixes (scholar.google.com → google.com
        # → com): membership tests against the set cost O(# labels)
        # however long the blocklist grows.
        while True:
            if name in suffixes:
                return True
            dot = name.find(".")
            if dot < 0:
                return False
            name = name[dot + 1:]

    # -- IPs ----------------------------------------------------------------------

    def block_ip(self, address: t.Union[str, IPv4Address]) -> None:
        self._ip_exact.add(IPv4Address(address))

    def unblock_ip(self, address: t.Union[str, IPv4Address]) -> None:
        self._ip_exact.discard(IPv4Address(address))

    def ip_blocked(self, address: IPv4Address) -> bool:
        return address in self._ip_exact

    # -- keywords --------------------------------------------------------------------

    def block_keyword(self, keyword: str) -> None:
        self._keywords.add(keyword.lower())
        self._keyword_pattern = None

    def unblock_keyword(self, keyword: str) -> None:
        self._keywords.discard(keyword.lower())
        self._keyword_pattern = None

    def keyword_hit(self, plaintext: str) -> t.Optional[str]:
        if not plaintext or not self._keywords:
            return None
        pattern = self._keyword_pattern
        if pattern is None:
            # Longest-first alternation: the leftmost, longest keyword
            # wins, a deterministic rule independent of set iteration
            # order.
            pattern = re.compile("|".join(
                re.escape(k) for k in sorted(self._keywords,
                                             key=lambda k: (-len(k), k))))
            self._keyword_pattern = pattern
        match = pattern.search(plaintext.lower())
        return match.group(0) if match is not None else None

    # -- interference ---------------------------------------------------------------------

    def interference_for(self, label: str) -> float:
        return self.class_interference.get(label, 0.0)

    def set_interference(self, label: str, loss_rate: float) -> None:
        self.class_interference[label] = loss_rate


def default_china_policy() -> BlockPolicy:
    """The 2017-era policy the paper's measurements ran under.

    * ``google.com`` (and thus Google Scholar) is domain-blocked: DNS
      poisoning plus TLS-SNI resets — the "collateral damage" the paper
      describes.
    * Flows classified as Tor-meek suffer heavy interference (the paper
      measures 4.4% loss); Shadowsocks-shaped flows get milder
      interference (0.77% total including ~0.2% path loss).
    * Registered VPN protocols (PPTP/L2TP/OpenVPN) are recognized but
      tolerated — the post-2015 legal position described in §1.
    """
    policy = BlockPolicy()
    for domain in ("google.com", "googleapis.com", "gstatic.com",
                   "youtube.com", "facebook.com", "twitter.com"):
        policy.block_domain(domain)
    policy.block_keyword("falun")
    policy.block_keyword("tiananmen-incident")
    # Flow-class interference: extra loss injected on top of the ~0.2%
    # transpacific path loss, calibrated to the paper's Figure 5c.
    policy.set_interference("tor-meek", 0.042)
    policy.set_interference("shadowsocks", 0.0055)
    policy.set_interference("tor-tls", 0.30)  # bare Tor is near-unusable
    policy.rst_classes.add("blocked-sni")
    return policy
