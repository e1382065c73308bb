"""Access-method middleware: VPNs, Tor, Shadowsocks, plus shared plumbing.

ScholarCloud itself lives in :mod:`repro.core`; the common
:class:`AccessMethod` interface is defined here.
"""

from .base import (
    AccessMethod,
    RelayedChannel,
    estimate_meta_length,
    relay,
    unwrap_forward,
    wrap_forward,
)
from .direct import DirectMethod
from .othermethods import HostsFileMethod, PublicWebProxy, WEB_PROXY_PORT
from .shadowsocks import ShadowsocksMethod
from .tor import TorMethod
from .vpn import NativeVpn, OpenVpn

__all__ = [
    "AccessMethod",
    "DirectMethod",
    "HostsFileMethod",
    "NativeVpn",
    "OpenVpn",
    "PublicWebProxy",
    "RelayedChannel",
    "ShadowsocksMethod",
    "TorMethod",
    "WEB_PROXY_PORT",
    "estimate_meta_length",
    "relay",
    "unwrap_forward",
    "wrap_forward",
]
