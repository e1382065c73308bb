"""The survey's "other methods" (34% of bypassers, §4.1).

Two representatives:

* :class:`HostsFileMethod` — editing ``/etc/hosts`` with a known-good
  Google IP to sidestep DNS poisoning.  It worked for a while in the
  early 2010s; by the paper's measurement era the GFW's SNI filter
  resets those flows anyway, which this implementation demonstrates.
* :class:`PublicWebProxy` — a Free-Gate-style public web gateway: an
  unencrypted HTTP service outside the wall that fetches pages on the
  user's behalf.  Trivially detectable (the target URL travels in
  cleartext), so the GFW's URL keyword filter kills it the moment the
  blocked domain appears on the wire — and its well-known domain is
  itself a blocking target.
"""

from __future__ import annotations

import typing as t

from ..dns import StubResolver
from ..dns.records import DnsRecord
from ..dns.resolver import _CacheEntry
from ..errors import MiddlewareError
from ..http.client import Connector, DirectConnector
from ..net import WireFeatures
from .base import (AccessMethod, RelayedChannel, decode_forward, decode_raw,
                   encode_raw, forward_encoder, relay)

#: Port the public web proxy listens on.
WEB_PROXY_PORT = 8000


class HostsFileMethod(AccessMethod):
    """Pin scholar.google.com to a believed-good IP in the hosts file."""

    name = "hosts-file"
    display_name = "hosts-file editing"
    requires_client_software = False

    def __init__(self, testbed, pinned_address: t.Optional[str] = None) -> None:
        super().__init__(testbed)
        from ..measure.testbed import SCHOLAR_ADDR
        self.pinned_address = pinned_address or SCHOLAR_ADDR
        self.installed = False

    def setup(self):
        """Install the pin: an eternal cache entry in the stub resolver,
        which is exactly what a hosts-file entry is to the OS."""
        resolver: StubResolver = self.testbed.resolver
        for hostname in ("scholar.google.com", "www.google.com"):
            resolver.cache[hostname] = _CacheEntry(
                (DnsRecord(hostname, "A", self.pinned_address, ttl=1e12),),
                expires=float("inf"), rcode="NOERROR")
        self.installed = True
        return
        yield  # pragma: no cover

    def connector(self) -> DirectConnector:
        if not self.installed:
            raise MiddlewareError("hosts-file pin not installed; run setup()")
        return self.testbed.direct_connector()


class WebProxyConnector(Connector):
    """Connector that tunnels requests through the public gateway.

    The fatal flaw is visible right here: the target hostname rides in
    *cleartext* in the proxy request, so the GFW's URL filter sees it.
    """

    name = "web-proxy"

    def __init__(self, method: "PublicWebProxy") -> None:
        self.method = method

    def open(self, hostname: str, port: int, use_tls: bool):
        testbed = self.method.testbed
        transport = testbed.transport_of(testbed.client)
        conn = yield transport.connect_tcp(
            self.method.gateway_addr, WEB_PROXY_PORT,
            features=WireFeatures(protocol_tag="plain-http",
                                  plaintext=f"GET http://{hostname}/",
                                  entropy=4.2),
            timeout=30.0)
        try:
            conn.send_message(
                64, meta=("wp-connect", hostname, port),
                features=WireFeatures(protocol_tag="plain-http",
                                      plaintext=f"CONNECT {hostname}",
                                      entropy=4.2))
            reply = yield conn.recv_message()
            if reply != ("wp-ready",):
                raise MiddlewareError(
                    f"web proxy refused {hostname}: {reply!r}")
        except GeneratorExit:
            return None  # finalized, not failed: send nothing
        except BaseException:
            conn.close()  # a refused or dead gateway must not strand the dial
            raise
        # Web proxies terminate TLS at the gateway: the browser speaks
        # plain HTTP to the proxy regardless of the target scheme.
        return RelayedChannel(
            testbed.sim, conn, overhead=24,
            features=WireFeatures(protocol_tag="plain-http",
                                  plaintext=hostname, entropy=4.5),
            name="web-proxy")


class PublicWebProxy(AccessMethod):
    """A Free-Gate-style public web gateway outside the wall."""

    name = "web-proxy"
    display_name = "public web proxy"
    requires_client_software = False

    def __init__(self, testbed) -> None:
        super().__init__(testbed)
        self.gateway_addr = None
        self.deployed = False
        self.fetches = 0
        # Replies carry the page content in cleartext too.
        self._encode_page = forward_encoder(WireFeatures(
            protocol_tag="plain-http", plaintext="proxied page content",
            entropy=4.8))

    def setup(self):
        from ..measure.testbed import GOOGLE_DNS_ADDR
        testbed = self.testbed
        self.gateway_addr = testbed.remote_vm.address
        transport = testbed.transport_of(testbed.remote_vm)
        if WEB_PROXY_PORT not in transport._tcp_listeners:
            resolver = StubResolver(testbed.sim, testbed.remote_vm,
                                    upstream=GOOGLE_DNS_ADDR, port=5363)
            transport.listen_tcp(
                WEB_PROXY_PORT,
                lambda conn: testbed.sim.process(
                    self._serve(conn, resolver), name="web-proxy"))
        self.deployed = True
        return
        yield  # pragma: no cover

    def connector(self) -> WebProxyConnector:
        if not self.deployed:
            raise MiddlewareError("web proxy is not deployed; run setup()")
        return WebProxyConnector(self)

    def _serve(self, conn, resolver: StubResolver):
        from ..errors import NameResolutionError, TransportError
        try:
            first = yield conn.recv_message()
        except TransportError:
            return
        if not (isinstance(first, tuple) and first[0] == "wp-connect"):
            conn.close()
            return
        _tag, hostname, port = first
        transport = self.testbed.transport_of(self.testbed.remote_vm)
        from ..transport import TlsSession
        try:
            address = yield resolver.resolve(hostname)
            # The gateway terminates TLS itself (as 2000s-era CGI
            # proxies did) and hands the user plaintext.
            target = yield transport.connect_tcp(address, 443, timeout=30.0)
            session = TlsSession(target, sni=hostname)
            yield from session.client_handshake()
        except (NameResolutionError, TransportError):
            conn.close()
            return
        self.fetches += 1
        conn.send_message(16, meta=("wp-ready",))
        # The gateway models no CPU, so its relays charge nothing.
        sim = self.testbed.sim
        sim.process(relay(conn, session, decode_forward, encode_raw),
                    name="wp-up")
        sim.process(relay(session, conn, decode_raw, self._encode_page),
                    name="wp-down")
