"""OpenVPN: layer-3 tunnel with a TLS control channel and split routes.

The paper's §4.2 uses the layer-3 implementation with Easy-RSA PKI.
Differences from native VPN that matter to the measurements:

* a **TLS control-channel handshake** on session start (certificate
  exchange — the setup cost);
* **split tunneling** via pushed routes: only configured prefixes
  enter the tunnel, so background domestic traffic stays out — which
  is why OpenVPN adds the least traffic in Figure 6a;
* recognizable ``openvpn`` wire framing (its fixed opcode header),
  recognized-and-tolerated exactly like native VPN.
"""

from __future__ import annotations

import typing as t

from ...dns import StubResolver
from ...errors import TunnelError
from ...http import DirectConnector
from ...net import Prefix, WireFeatures
from ..base import AccessMethod
from .tunnel import VpnTunnelClient, VpnTunnelServer, split_tunnel_selector

#: Per-packet overhead: outer IP+UDP+OpenVPN header+HMAC+padding.
OPENVPN_OVERHEAD = 69
#: Control channel port (OpenVPN default).
OPENVPN_PORT = 1194

#: Prefixes pushed by the server ("route" directives): Google's blocks
#: plus the resolver used through the tunnel.
DEFAULT_ROUTED_PREFIXES = (
    Prefix("172.217.0.0/16"),
    Prefix("93.184.216.0/24"),
)


def openvpn_features() -> WireFeatures:
    return WireFeatures(protocol_tag="openvpn", entropy=7.9)


class OpenVpn(AccessMethod):
    """OpenVPN layer-3 with split routes."""

    name = "openvpn"
    display_name = "OpenVPN"
    requires_client_software = True

    def __init__(self, testbed) -> None:
        super().__init__(testbed)
        self.server: t.Optional[VpnTunnelServer] = None
        self.client: t.Optional[VpnTunnelClient] = None
        self._resolver: t.Optional[StubResolver] = None
        self.connected = False
        self.handshake_time: float = 0.0

    def setup(self):
        """TLS control handshake, then bring up the data tunnel."""
        from ...transport import TlsSession
        testbed = self.testbed
        server_host = testbed.remote_vm
        server_transport = testbed.transport_of(server_host)
        if OPENVPN_PORT not in server_transport._tcp_listeners:
            server_transport.listen_tcp(OPENVPN_PORT, self._accept_control)

        started = testbed.sim.now
        client_transport = testbed.transport_of(testbed.client)
        control = yield client_transport.connect_tcp(
            server_host.address, OPENVPN_PORT,
            features=openvpn_features(), timeout=30.0)
        try:
            session = TlsSession(control, sni=None)
            yield from session.client_handshake()
            session.send_message(120, meta=("openvpn", "push-request"))
            pushed = yield session.recv_message()
            if not (isinstance(pushed, tuple) and pushed[0] == "openvpn"):
                raise TunnelError(f"OpenVPN push failed: {pushed!r}")
        except GeneratorExit:
            return  # finalized, not failed: send nothing
        except BaseException:
            control.close()  # a failed handshake must not strand the dial
            raise
        self.handshake_time = testbed.sim.now - started

        self.server = VpnTunnelServer(
            testbed.sim, server_host, "udp", OPENVPN_OVERHEAD,
            openvpn_features())
        self.server.attach_client(testbed.client.address)
        # Route DNS through the tunnel too (the pushed dhcp-option DNS).
        from ...measure.testbed import GOOGLE_DNS_ADDR
        prefixes = [*DEFAULT_ROUTED_PREFIXES, Prefix(f"{GOOGLE_DNS_ADDR}/32")]
        self.client = VpnTunnelClient(
            testbed.sim, testbed.client, server_host.address,
            "udp", OPENVPN_OVERHEAD, openvpn_features(),
            selector=split_tunnel_selector(prefixes))
        self.connected = True

    def connector(self) -> DirectConnector:
        if not self.connected:
            raise TunnelError("OpenVPN is not connected; run setup() first")
        if self._resolver is None:
            from ...measure.testbed import GOOGLE_DNS_ADDR
            self._resolver = StubResolver(
                self.testbed.sim, self.testbed.client,
                upstream=GOOGLE_DNS_ADDR, port=5361)
        return DirectConnector(self.testbed.sim,
                               self.testbed.transport_of(self.testbed.client),
                               self._resolver)

    def attach_client(self, host):
        """Generator: a new OpenVPN client session from another machine."""
        from ...transport import TlsSession
        from ...dns import StubResolver
        from ...measure.testbed import GOOGLE_DNS_ADDR
        if self.server is None:
            raise TunnelError("OpenVPN server is not up; run setup() first")
        testbed = self.testbed
        transport = testbed.transport_of(host)
        control = yield transport.connect_tcp(
            testbed.remote_vm.address, OPENVPN_PORT,
            features=openvpn_features(), timeout=30.0)
        try:
            session = TlsSession(control, sni=None)
            yield from session.client_handshake()
            session.send_message(120, meta=("openvpn", "push-request"))
            yield session.recv_message()
        except GeneratorExit:
            return None  # finalized, not failed: send nothing
        except BaseException:
            control.close()  # a failed handshake must not strand the dial
            raise
        self.server.attach_client(host.address)
        prefixes = [*DEFAULT_ROUTED_PREFIXES, Prefix(f"{GOOGLE_DNS_ADDR}/32")]
        VpnTunnelClient(
            testbed.sim, host, testbed.remote_vm.address,
            "udp", OPENVPN_OVERHEAD, openvpn_features(),
            selector=split_tunnel_selector(prefixes))
        resolver = StubResolver(testbed.sim, host,
                                upstream=GOOGLE_DNS_ADDR, port=5361)
        return DirectConnector(testbed.sim, transport, resolver)

    def _accept_control(self, conn) -> None:
        from ...transport import TlsSession
        sim = self.testbed.sim

        def control_server(sim):
            session = TlsSession(conn)
            yield from session.server_handshake()
            while True:
                message = yield session.recv_message()
                if message is None:
                    return
                if message == ("openvpn", "push-request"):
                    session.send_message(
                        240, meta=("openvpn", "push-reply",
                                   tuple(str(p) for p in DEFAULT_ROUTED_PREFIXES)))
        sim.process(control_server(sim), name="openvpn-control")
