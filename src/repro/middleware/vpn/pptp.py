"""Native VPN: PPTP (with L2TP as a variant), the paper's most-used method.

PPTP rides GRE (protocol 47) with MPPE payload encryption; its framing
is unmistakable to DPI (``pptp-gre``), but post-2015 policy tolerates
registered VPNs, so recognition does not mean interference.  The
defining property measured by the paper is **full-tunnel routing**:
every non-local packet — including background domestic traffic and
periodic LCP keepalives — crosses the Pacific, which is why native VPN
adds the most traffic overhead (Figure 6a) and degrades domestic
access.
"""

from __future__ import annotations

import typing as t

from ...dns import StubResolver
from ...errors import TunnelError
from ...http import DirectConnector
from ...net import Prefix, WireFeatures
from ..base import AccessMethod
from .tunnel import VpnTunnelClient, VpnTunnelServer, full_tunnel_selector

#: GRE + PPP + MPPE per-packet overhead (outer IP header included).
PPTP_OVERHEAD = 48
#: L2TP/IPsec per-packet overhead.
L2TP_OVERHEAD = 74
#: PPTP control port.
PPTP_CONTROL_PORT = 1723
#: LCP echo keepalive cadence and size.
KEEPALIVE_INTERVAL = 1.0
KEEPALIVE_SIZE = 60

#: Campus prefixes excluded from the full tunnel (local segment only).
LOCAL_PREFIXES = (Prefix("59.66.1.0/24"),)


def pptp_features() -> WireFeatures:
    return WireFeatures(protocol_tag="pptp-gre", entropy=7.8)


def l2tp_features() -> WireFeatures:
    return WireFeatures(protocol_tag="l2tp-udp", entropy=7.9)


class NativeVpn(AccessMethod):
    """PPTP full-tunnel VPN, as shipped in every 2017 OS."""

    name = "native-vpn"
    display_name = "Native VPN"
    requires_client_software = False  # built into the OS

    def __init__(self, testbed, flavor: str = "pptp") -> None:
        super().__init__(testbed)
        if flavor not in ("pptp", "l2tp"):
            raise TunnelError(f"unknown native VPN flavor: {flavor}")
        self.flavor = flavor
        self.overhead = PPTP_OVERHEAD if flavor == "pptp" else L2TP_OVERHEAD
        self.protocol = "gre" if flavor == "pptp" else "udp"
        self.features = pptp_features() if flavor == "pptp" else l2tp_features()
        self.server: t.Optional[VpnTunnelServer] = None
        self.client: t.Optional[VpnTunnelClient] = None
        self._resolver: t.Optional[StubResolver] = None
        self._keepalive_on = False
        self.connected = False

    # -- lifecycle ----------------------------------------------------------------

    def setup(self):
        """Dial the control channel, then bring the tunnel up."""
        testbed = self.testbed
        server_host = testbed.remote_vm
        server_transport = testbed.transport_of(server_host)
        if PPTP_CONTROL_PORT not in server_transport._tcp_listeners:
            server_transport.listen_tcp(PPTP_CONTROL_PORT, self._accept_control)

        client_transport = testbed.transport_of(testbed.client)
        control = yield client_transport.connect_tcp(
            server_host.address, PPTP_CONTROL_PORT,
            features=WireFeatures(protocol_tag="pptp-gre", handshake=True,
                                  entropy=3.0),
            timeout=30.0)
        try:
            control.send_message(156, meta=("pptp", "start-control-request"))
            reply = yield control.recv_message()
            if reply != ("pptp", "start-control-reply"):
                raise TunnelError(f"PPTP control setup failed: {reply!r}")
            control.send_message(168, meta=("pptp", "outgoing-call-request"))
            reply = yield control.recv_message()
            if reply != ("pptp", "outgoing-call-reply"):
                raise TunnelError(f"PPTP call setup failed: {reply!r}")
        except GeneratorExit:
            return  # finalized, not failed: send nothing
        except BaseException:
            control.close()  # a failed call setup must not strand the dial
            raise

        self.server = VpnTunnelServer(
            testbed.sim, server_host, self.protocol, self.overhead,
            self.features)
        self.server.attach_client(testbed.client.address)
        self.client = VpnTunnelClient(
            testbed.sim, testbed.client, server_host.address,
            self.protocol, self.overhead, self.features,
            selector=full_tunnel_selector(LOCAL_PREFIXES))
        self.connected = True

    def connector(self) -> DirectConnector:
        if not self.connected:
            raise TunnelError("native VPN tunnel is not up; run setup() first")
        return DirectConnector(self.testbed.sim,
                               self.testbed.transport_of(self.testbed.client),
                               self._vpn_resolver())

    def attach_client(self, host):
        """Generator: dial the same VPN server from another machine."""
        from ...dns import StubResolver
        from ...measure.testbed import GOOGLE_DNS_ADDR
        if self.server is None:
            raise TunnelError("VPN server is not up; run setup() first")
        testbed = self.testbed
        transport = testbed.transport_of(host)
        control = yield transport.connect_tcp(
            testbed.remote_vm.address, PPTP_CONTROL_PORT,
            features=WireFeatures(protocol_tag="pptp-gre", handshake=True,
                                  entropy=3.0),
            timeout=30.0)
        try:
            control.send_message(156, meta=("pptp", "start-control-request"))
            yield control.recv_message()
        except GeneratorExit:
            return None  # finalized, not failed: send nothing
        except BaseException:
            control.close()  # a failed call setup must not strand the dial
            raise
        self.server.attach_client(host.address)
        VpnTunnelClient(
            testbed.sim, host, testbed.remote_vm.address,
            self.protocol, self.overhead, self.features,
            selector=full_tunnel_selector(LOCAL_PREFIXES))
        resolver = StubResolver(testbed.sim, host,
                                upstream=GOOGLE_DNS_ADDR, port=5360)
        return DirectConnector(testbed.sim, transport, resolver)

    # -- internals ---------------------------------------------------------------------

    def _accept_control(self, conn) -> None:
        sim = self.testbed.sim

        def control_server(sim, conn):
            while True:
                message = yield conn.recv_message()
                if message is None:
                    return
                if message == ("pptp", "start-control-request"):
                    conn.send_message(156, meta=("pptp", "start-control-reply"))
                elif message == ("pptp", "outgoing-call-request"):
                    conn.send_message(32, meta=("pptp", "outgoing-call-reply"))
        sim.process(control_server(sim, conn), name="pptp-control")

    def _vpn_resolver(self) -> StubResolver:
        if self._resolver is None:
            from ...measure.testbed import GOOGLE_DNS_ADDR
            self._resolver = StubResolver(
                self.testbed.sim, self.testbed.client,
                upstream=GOOGLE_DNS_ADDR, port=5360)
        return self._resolver

    def start_keepalives(self) -> None:
        """LCP echo request/reply — constant background tunnel chatter.

        Requests travel through the tunnel and the server echoes each
        one back, so every keepalive costs two tunneled packets; at a
        1 s cadence this is the steady drip that makes native VPN the
        heaviest method in Figure 6a.
        """
        if self._keepalive_on:
            return
        self._keepalive_on = True
        client_transport = self.testbed.transport_of(self.testbed.client)
        server_transport = self.testbed.transport_of(self.testbed.remote_vm)
        server_addr = self.testbed.remote_vm.address
        if 5999 not in server_transport._udp_handlers:
            def echo_reply(payload, length, src, sport):
                server_transport.send_udp(src, sport,
                                          payload=("lcp", "echo-reply"),
                                          length=KEEPALIVE_SIZE, sport=5999)
            server_transport.listen_udp(5999, echo_reply)

        def keepalive(sim):
            while True:
                client_transport.send_udp(server_addr, 5999,
                                          payload=("lcp", "echo"),
                                          length=KEEPALIVE_SIZE, sport=5998)
                yield sim.timeout(KEEPALIVE_INTERVAL)
        self.testbed.sim.process(keepalive(self.testbed.sim),
                                 name="lcp-keepalive")
