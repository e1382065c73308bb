"""Proxy auto-config: generation and evaluation.

The *only* client-side configuration ScholarCloud requires is pointing
the browser at a PAC URL (§3).  This module generates a real PAC file
(JavaScript text, usable by an actual browser against the realnet
proxies) and provides a Python evaluator with the same semantics for
the simulated browser's routing hook.
"""

from __future__ import annotations

from ..errors import ConfigurationError
from ..http import parse_url
from .whitelist import Whitelist

#: PAC decision strings.
DIRECT = "DIRECT"


def proxy_decision(host: str, port: int) -> str:
    return f"PROXY {host}:{port}"


class PacFile:
    """A generated PAC policy: whitelist domains -> proxy, rest direct."""

    def __init__(self, whitelist: Whitelist, proxy_host: str,
                 proxy_port: int) -> None:
        if not proxy_host:
            raise ConfigurationError("PAC needs a proxy host")
        if not 0 < proxy_port < 65536:
            raise ConfigurationError(f"bad proxy port: {proxy_port}")
        self.whitelist = whitelist
        self.proxy_host = proxy_host
        self.proxy_port = proxy_port

    # -- evaluation (simulator side) --------------------------------------------------

    def evaluate(self, url: str) -> str:
        """FindProxyForURL semantics for a full URL."""
        _scheme, host, _path = parse_url(url)
        return self.evaluate_host(host)

    def evaluate_host(self, host: str) -> str:
        if self.whitelist.allows(host):
            return proxy_decision(self.proxy_host, self.proxy_port)
        return DIRECT

    # -- generation (real browsers / realnet) --------------------------------------------

    def render(self) -> str:
        """Emit the PAC JavaScript a real browser would consume."""
        conditions = " ||\n        ".join(
            f'dnsDomainIs(host, "{domain}") || host === "{domain}"'
            for domain in self.whitelist.domains()
        ) or "false"
        return (
            "// ScholarCloud proxy auto-config.\n"
            "// Only whitelisted (legal, incidentally-blocked) services\n"
            "// are diverted; everything else is DIRECT.\n"
            "function FindProxyForURL(url, host) {\n"
            f"    if ({conditions}) {{\n"
            f'        return "PROXY {self.proxy_host}:{self.proxy_port}";\n'
            "    }\n"
            '    return "DIRECT";\n'
            "}\n"
        )
