"""Live loopback deployment: real sockets, real crypto, 127.0.0.1 only."""

from .framing import FramedStream, MAX_FRAME
from .scholar_origin import ScholarOrigin
from .shadowsocks_live import SsLiveLocal, SsLiveServer, socks5_fetch
from .split_proxy import DomesticProxyServer, RemoteProxyServer, fetch_via_proxy

__all__ = [
    "DomesticProxyServer",
    "FramedStream",
    "MAX_FRAME",
    "RemoteProxyServer",
    "ScholarOrigin",
    "SsLiveLocal",
    "SsLiveServer",
    "fetch_via_proxy",
    "socks5_fetch",
]
