"""The canonical measurement testbed.

Rebuilds the paper's §4.2 setup in simulation:

* a client laptop at Tsinghua University, inside CERNET;
* the campus recursive resolver;
* the CERNET backbone and the China–US border link — with the
  :class:`~repro.gfw.GreatFirewall` attached to it;
* the Aliyun ECS VM in San Mateo (remote endpoint for every method);
* a second VM inside the campus (ScholarCloud's domestic proxy);
* the Google Scholar origin + authoritative DNS, and a non-blocked
  US control site (for the paper's Amazon-style baseline).

Link latencies are calibrated to a ≈190 ms Beijing↔San-Mateo RTT and
≈0.2% baseline transpacific loss, the anchors reported in §4.3.
"""

from __future__ import annotations

import typing as t

from ..dns import AuthoritativeServer, RecursiveResolver, StubResolver, Zone
from ..gfw import ActiveProber, GfwConfig, GreatFirewall, default_china_policy
from ..http import Browser, DirectConnector, Page, WebServer, google_scholar_home
from ..net import Host, Link, Network, PacketCapture
from ..sim import ProcessorSharingServer, Simulator, TraceLog
from ..transport import TransportLayer, install_transport
from ..units import Mbps, ms

#: Well-known testbed addresses.
CLIENT_ADDR = "59.66.1.10"
CAMPUS_DNS_ADDR = "59.66.1.53"
DOMESTIC_VM_ADDR = "59.66.2.100"
PROBER_ADDR = "202.112.99.99"
REMOTE_VM_ADDR = "47.88.1.100"
SCHOLAR_ADDR = "172.217.194.80"
GOOGLE_DNS_ADDR = "172.217.194.53"
CONTROL_SITE_ADDR = "93.184.216.34"

DOMESTIC_SITE_ADDR = "59.66.3.50"
CN_DNS_ADDR = "59.66.1.54"

#: Hostnames.
SCHOLAR_HOST = "scholar.google.com"
CONTROL_HOST = "www.uscontrol.example"
REMOTE_VM_HOST = "vm.scholarcloud.example"
DOMESTIC_HOST = "www.tsinghua.example"

#: TCP port of the plain echo service used for RTT probes.
ECHO_PORT = 7


class Testbed:
    """One assembled world: topology, DNS, GFW, origin, client."""

    #: Not a pytest test class, despite the name.
    __test__ = False

    def __init__(
        self,
        seed: int = 0,
        gfw_config: t.Optional[GfwConfig] = None,
        extra_clients: int = 0,
        gfw_enabled: bool = True,
        remote_replicas: int = 0,
        fluid: t.Optional[str] = None,
    ) -> None:
        """``fluid`` is a mode string from
        :data:`~repro.perf.fluid.MODES`; None, like ``"packet"``, keeps
        the simulation purely packet-level."""
        self.sim = Simulator(seed=seed)
        self.fluid = None
        if fluid is not None:
            from ..perf.fluid import install_fluid
            self.fluid = install_fluid(self.sim, fluid)
        self.rng = self.sim.rng
        self.trace = TraceLog(self.sim)
        self.net = Network(self.sim, rng=self.rng, trace=self.trace)
        net = self.net

        # -- China side -------------------------------------------------------
        self.client = net.add_host("client", address=CLIENT_ADDR)
        self.campus = net.add_router("campus", address="59.66.1.1")
        self.campus_dns = net.add_host("campus-dns", address=CAMPUS_DNS_ADDR)
        self.domestic_vm = net.add_host("domestic-vm", address=DOMESTIC_VM_ADDR)
        self.cernet = net.add_router("cernet", address="101.4.0.1")
        self.border_cn = net.add_router("border-cn", address="202.112.1.1")
        self.prober_host = net.add_host("prober", address=PROBER_ADDR)

        self.domestic_site = net.add_host("domestic-site", address=DOMESTIC_SITE_ADDR)
        self.cn_dns = net.add_host("cn-dns", address=CN_DNS_ADDR)

        # -- US side ----------------------------------------------------------
        self.border_us = net.add_router("border-us", address="198.32.1.1")
        self.us_core = net.add_router("us-core", address="198.32.2.1")
        self.remote_vm = net.add_host("remote-vm", address=REMOTE_VM_ADDR)
        self.scholar_origin = net.add_host("scholar-origin", address=SCHOLAR_ADDR)
        self.google_dns = net.add_host("google-dns", address=GOOGLE_DNS_ADDR)
        self.control_site = net.add_host("control-site", address=CONTROL_SITE_ADDR)

        # -- links --------------------------------------------------------------
        net.connect(self.client, self.campus, latency=ms(1), bandwidth=Mbps(100),
                    loss=0.0002)
        net.connect(self.campus_dns, self.campus, latency=ms(1), bandwidth=Mbps(100))
        net.connect(self.domestic_vm, self.campus, latency=ms(1), bandwidth=Mbps(100),
                    loss=0.0002)
        net.connect(self.domestic_site, self.campus, latency=ms(2),
                    bandwidth=Mbps(1000))
        net.connect(self.cn_dns, self.campus, latency=ms(1), bandwidth=Mbps(100))
        net.connect(self.campus, self.cernet, latency=ms(4), bandwidth=Mbps(1000),
                    loss=0.0002)
        net.connect(self.cernet, self.border_cn, latency=ms(6), bandwidth=Mbps(1000))
        net.connect(self.prober_host, self.border_cn, latency=ms(2),
                    bandwidth=Mbps(100))
        self.border_link: Link = net.connect(
            self.border_cn, self.border_us, latency=ms(75),
            bandwidth=Mbps(1000), loss=0.002, name="border")
        net.connect(self.border_us, self.us_core, latency=ms(5), bandwidth=Mbps(1000))
        net.connect(self.us_core, self.remote_vm, latency=ms(2), bandwidth=Mbps(100),
                    loss=0.0002)

        # -- replica remote VMs (failover targets; none by default) ---------------
        self.remote_vms: t.List[Host] = [self.remote_vm]
        for index in range(remote_replicas):
            replica = net.add_host(f"remote-vm-{index + 2}",
                                   address=f"47.88.1.{101 + index}")
            net.connect(replica, self.us_core, latency=ms(2),
                        bandwidth=Mbps(100), loss=0.0002)
            self.remote_vms.append(replica)
        net.connect(self.us_core, self.scholar_origin, latency=ms(2),
                    bandwidth=Mbps(1000))
        net.connect(self.us_core, self.google_dns, latency=ms(2), bandwidth=Mbps(1000))
        net.connect(self.us_core, self.control_site, latency=ms(2),
                    bandwidth=Mbps(1000))

        # -- extra client population (Figure 7) -----------------------------------
        self.extra_clients: t.List[Host] = []
        for index in range(extra_clients):
            extra = net.add_host(f"client-{index}",
                                 address=f"59.66.{10 + index // 200}.{index % 200 + 11}")
            net.connect(extra, self.campus, latency=ms(1), bandwidth=Mbps(100),
                        loss=0.0002)
            self.extra_clients.append(extra)

        net.build_routes()

        # -- transports -------------------------------------------------------------
        for host in [self.client, self.campus_dns, self.domestic_vm,
                     self.prober_host, self.scholar_origin,
                     self.google_dns, self.control_site, self.domestic_site,
                     self.cn_dns] + self.remote_vms + self.extra_clients:
            install_transport(self.sim, host)

        # -- DNS ----------------------------------------------------------------------
        google_zone = Zone("google.com")
        google_zone.add_a(SCHOLAR_HOST, SCHOLAR_ADDR)
        google_zone.add_a("www.google.com", SCHOLAR_ADDR)
        misc_zone = Zone("example")
        misc_zone.add_a(CONTROL_HOST, CONTROL_SITE_ADDR)
        misc_zone.add_a(REMOTE_VM_HOST, REMOTE_VM_ADDR)
        self.misc_zone = misc_zone
        domestic_zone = Zone("tsinghua.example")
        domestic_zone.add_a(DOMESTIC_HOST, DOMESTIC_SITE_ADDR)
        # google-dns stands in for a globally-knowledgeable resolver
        # (what a VPN-provided 8.8.8.8 would answer), so it carries the
        # domestic zone as well.
        AuthoritativeServer(self.sim, self.google_dns,
                            [google_zone, misc_zone, domestic_zone])
        AuthoritativeServer(self.sim, self.cn_dns, [domestic_zone])
        self.recursive = RecursiveResolver(self.sim, self.campus_dns)
        self.recursive.add_authority("google.com", GOOGLE_DNS_ADDR)
        self.recursive.add_authority("example", GOOGLE_DNS_ADDR)
        self.recursive.add_authority("tsinghua.example", CN_DNS_ADDR)
        self.resolver = StubResolver(self.sim, self.client,
                                     upstream=CAMPUS_DNS_ADDR)

        # -- origins ---------------------------------------------------------------------
        self.scholar_server = WebServer(self.sim, self.scholar_origin)
        self.scholar_page: Page = google_scholar_home()
        self.scholar_server.add_page(self.scholar_page)
        self.control_server = WebServer(self.sim, self.control_site)
        from ..http import plain_site_page
        self.control_page = plain_site_page(CONTROL_HOST)
        self.control_server.add_page(self.control_page)
        self.domestic_server = WebServer(self.sim, self.domestic_site,
                                         https_only=False)
        self.domestic_page = plain_site_page(DOMESTIC_HOST)
        self.domestic_server.add_page(self.domestic_page)

        # -- shared server resources + echo services ------------------------------------
        # The single-core Aliyun ECS VM: every server-side middleware
        # component submits its CPU demand here (Figure 7's bottleneck).
        self.remote_cpu = ProcessorSharingServer(self.sim, capacity=1.0,
                                                 name="remote-vm-cpu")
        self.remote_cpus: t.List[ProcessorSharingServer] = [self.remote_cpu]
        for replica in self.remote_vms[1:]:
            self.remote_cpus.append(ProcessorSharingServer(
                self.sim, capacity=1.0, name=f"{replica.name}-cpu"))
        self.domestic_cpu = ProcessorSharingServer(self.sim, capacity=1.0,
                                                   name="domestic-vm-cpu")
        _install_echo(self.sim, self.transport_of(self.scholar_origin))
        _install_echo(self.sim, self.transport_of(self.control_site))

        # -- the GFW ------------------------------------------------------------------------
        self.policy = default_china_policy()
        self.gfw_config = gfw_config or GfwConfig(inside_name="border-cn")
        self.prober = ActiveProber(
            self.sim, t.cast(TransportLayer, self.prober_host.transport))
        self.gfw: t.Optional[GreatFirewall] = None
        if gfw_enabled:
            self.gfw = GreatFirewall(
                self.sim, self.policy, self.gfw_config,
                rng=self.rng.stream("gfw.interference"), trace=self.trace,
                prober=self.prober)
            self.border_link.add_middlebox(self.gfw)

    # -- conveniences -----------------------------------------------------------------------

    def transport_of(self, host: Host) -> TransportLayer:
        return t.cast(TransportLayer, host.transport)

    def direct_connector(self, host: t.Optional[Host] = None) -> DirectConnector:
        client = host or self.client
        return DirectConnector(self.sim, self.transport_of(client),
                               self.resolver)

    def browser(self, connector=None, host: t.Optional[Host] = None) -> Browser:
        if connector is None:
            connector = self.direct_connector(host)
        return Browser(self.sim, connector)

    def capture_client_link(self) -> PacketCapture:
        return PacketCapture(self.sim).attach(
            self.net.link_between("client", "campus"))

    def capture_border(self) -> PacketCapture:
        return PacketCapture(self.sim).attach(self.border_link)

    def run_process(self, generator, name: t.Optional[str] = None):
        """Run one process to completion and return its value."""
        return self.sim.run(until=self.sim.process(generator, name=name))

    def start_background_traffic(self) -> None:
        """A light domestic flow from the client (IM heartbeats etc.):
        a 120-byte UDP datagram every 2 s.

        Native VPN's full-tunnel routing drags this traffic through the
        tunnel too — the paper's explanation for why it adds the most
        traffic overhead in Figure 6a.
        """
        transport = self.transport_of(self.client)

        def heartbeat(sim):
            while True:
                transport.send_udp(DOMESTIC_SITE_ADDR, 5005,
                                   payload="heartbeat", length=120)
                yield sim.timeout(2.0)

        self.transport_of(self.domestic_site).listen_udp(
            5005, lambda *args: None)
        self.sim.process(heartbeat(self.sim), name="background-traffic")


def _install_echo(sim: Simulator, transport: TransportLayer) -> None:
    """TCP echo service on port 7, used by the RTT probes (Figure 5b)."""

    def acceptor(conn):
        def server(sim, conn):
            while True:
                meta = yield conn.recv_message()
                if meta is None:
                    return
                conn.send_message(64, meta=("echo", meta))
        sim.process(server(sim, conn), name="echo")
    transport.listen_tcp(ECHO_PORT, acceptor)
