"""The ScholarCloud system: deployment, connector, and PAC routing.

Ties together the split proxies, the blinding agility, the whitelist,
PAC generation, and ICP legalization — the paper's §3 in one object::

    sc = ScholarCloud(testbed)
    testbed.run_process(sc.deploy())
    browser = testbed.browser(connector=sc.connector())
    sc.apply_pac(browser)   # PAC-style routing: whitelist → proxy
"""

from __future__ import annotations

import functools
import typing as t

from ..cache import CacheConfig, CacheRegistry, ResponseCache
from ..dns import StubResolver
from ..errors import MiddlewareError, OverloadError, TransportError
from ..faults import RetryPolicy
from ..overload import Deadline, OverloadConfig
from ..http.client import Connector, DirectConnector, TlsStream
from ..middleware.base import AccessMethod, ChannelStream, RelayedChannel
from ..net import WireFeatures
from ..transport import TlsSession
from .blinding import BlindingAgility
from .domestic_proxy import DOMESTIC_PROXY_PORT, DomesticProxy
from .pac import PacFile
from .remote_proxy import RemoteProxy
from .whitelist import scholar_whitelist

#: The deployed service's ICP registration number (from the paper).
ICP_NUMBER = "ICP-15063437"


@functools.lru_cache(maxsize=256)
def _connect_features(hostname: str, port: int) -> WireFeatures:
    """Wire features of the CONNECT preamble that opens a stream to
    ``hostname:port``; one shared value per target, since
    ``WireFeatures`` is frozen."""
    return WireFeatures(protocol_tag="plain-http",
                        plaintext=f"CONNECT {hostname}:{port}", entropy=4.5)


class ScConnector(Connector):
    """Browser connector that speaks the domestic-proxy protocol."""

    name = "scholarcloud"
    supports_deadline = True

    def __init__(self, system: "ScholarCloud", host=None,
                 retry: t.Optional[RetryPolicy] = None) -> None:
        self.system = system
        self.host = host if host is not None else system.testbed.client
        self.session_tickets: t.Set[str] = set()
        self.retry = retry if retry is not None else RetryPolicy(
            attempts=3, base=0.25, cap=2.0,
            rng=system.testbed.rng.stream("resilience.sc-client"))
        #: Opens shed by the proxy's admission control.
        self.sheds_seen = 0

    def open(self, hostname: str, port: int, use_tls: bool,
             deadline: t.Optional[Deadline] = None):
        """Dial with retry/backoff; a whitelist refusal is permanent.

        A shed (:class:`OverloadError`) is also permanent *for this
        open*: retrying into an overloaded proxy is how overload turns
        into a retry storm, so the error propagates to the caller
        immediately.  With a ``deadline``, retries stop once the next
        attempt could not finish in time.
        """
        sim = self.system.testbed.sim
        if deadline is None:
            attempt_delays = self.retry.delays()
        else:
            attempt_delays = self.retry.delays(clock=lambda: sim.now,
                                               deadline=deadline.at)
        last_error: t.Optional[TransportError] = None
        for delay in attempt_delays:
            if delay > 0.0:
                yield sim.timeout(delay)
            try:
                return (yield from self.open_once(hostname, port, use_tls,
                                                  deadline))
            except OverloadError:
                self.sheds_seen += 1
                raise
            except TransportError as exc:
                last_error = exc
        raise MiddlewareError(
            f"ScholarCloud: {hostname} unreachable after "
            f"{self.retry.attempts} attempts: {last_error}")

    def open_once(self, hostname: str, port: int, use_tls: bool,
                  deadline: t.Optional[Deadline] = None):
        """Generator: a single dial attempt (no retry loop).

        Public so callers that manage their own retry — the survival
        layer makes one of these per health-scaled retry attempt — can
        compose attempts without double-retrying.
        """
        testbed = self.system.testbed
        transport = testbed.transport_of(self.host)
        sim = testbed.sim
        dial_timeout = (30.0 if deadline is None
                        else deadline.clamp(30.0, sim.now))
        conn = yield transport.connect_tcp(
            self.system.domestic_addr, self.system.domestic_port,
            features=_connect_features(hostname, port),
            timeout=dial_timeout)
        try:
            connect_meta: t.Tuple = ("sc-connect", hostname, port)
            if deadline is not None:
                connect_meta = connect_meta + (deadline.at,)
            conn.send_message(48, meta=connect_meta)
            reply = yield conn.recv_message()
            if reply is None:
                raise TransportError(
                    f"ScholarCloud: proxy closed while opening {hostname}")
            if (isinstance(reply, tuple) and len(reply) == 2
                    and reply[0] == "sc-overload"):
                raise OverloadError(
                    f"ScholarCloud shed {hostname}: {reply[1]}")
            if reply != ("sc-ready",):
                raise MiddlewareError(
                    f"ScholarCloud refused {hostname}: {reply!r}")
            channel = RelayedChannel(testbed.sim, conn, overhead=4,
                                     features=None, name="sc-client")
            if not use_tls:
                return ChannelStream(channel)
            session = TlsSession(channel, sni=hostname)
            resumed = hostname in self.session_tickets
            yield from session.client_handshake(resumed=resumed)
        except GeneratorExit:
            return None  # finalized, not failed: send nothing
        except BaseException:
            # Close-on-error: a failed open must not strand the dial.
            conn.close()
            raise
        self.session_tickets.add(hostname)
        return TlsStream(session)


class ScholarCloud(AccessMethod):
    """The deployed system (scholar.thucloud.com, launched Jan 2016)."""

    name = "scholarcloud"
    display_name = "ScholarCloud"
    requires_client_software = False  # one browser PAC setting

    def __init__(self, testbed, secret: bytes = b"scholarcloud-2016",
                 overload: t.Optional[OverloadConfig] = None,
                 cache: t.Optional[CacheConfig] = None) -> None:
        super().__init__(testbed)
        self.whitelist = scholar_whitelist()
        #: Session admission at the domestic proxy (None = off, the
        #: calibrated paper configuration).
        self.overload = overload
        #: Edge-cache knobs (None = no caches, the calibrated paper
        #: configuration; see :mod:`repro.cache`).
        self.cache_config = cache
        #: Edge cache at the domestic proxy, built by :meth:`deploy`.
        self.cache: t.Optional[ResponseCache] = None
        self.agility = BlindingAgility(secret)
        self.domestic: t.Optional[DomesticProxy] = None
        self.remote: t.Optional[RemoteProxy] = None
        #: All deployed remote proxies (primary first, then replicas).
        self.remotes: t.List[RemoteProxy] = []
        self.pac: t.Optional[PacFile] = None
        self.icp_number: t.Optional[str] = None
        self.deployed = False

    # -- deployment -------------------------------------------------------------------

    @property
    def domestic_addr(self):
        return self.testbed.domestic_vm.address

    @property
    def domestic_port(self) -> int:
        return DOMESTIC_PROXY_PORT

    def deploy(self):
        """Generator: stand up the proxies and generate the PAC.

        One remote proxy is deployed per remote VM the testbed offers
        (``Testbed(remote_replicas=N)``); the domestic proxy's failover
        pool is handed every address, primary first.
        """
        from ..measure.testbed import GOOGLE_DNS_ADDR
        testbed = self.testbed
        if not self.remotes:
            remote_vms = getattr(testbed, "remote_vms", [testbed.remote_vm])
            remote_cpus = getattr(testbed, "remote_cpus", [testbed.remote_cpu])
            for vm, cpu in zip(remote_vms, remote_cpus):
                resolver = StubResolver(testbed.sim, vm,
                                        upstream=GOOGLE_DNS_ADDR, port=5362)
                self.remotes.append(RemoteProxy(
                    testbed.sim, vm, resolver, cpu=cpu, agility=self.agility))
            self.remote = self.remotes[0]
        if self.domestic is None:
            if self.cache_config is not None and self.cache is None:
                registry = getattr(testbed.sim, "caches", None)
                if registry is None:
                    registry = CacheRegistry(testbed.sim).install()
                self.cache = registry.register(ResponseCache(
                    testbed.sim, self.cache_config, self.agility,
                    name="sc-edge"))
            self.domestic = DomesticProxy(
                testbed.sim, testbed.domestic_vm,
                remote_addrs=[proxy.host.address for proxy in self.remotes],
                whitelist=self.whitelist, agility=self.agility,
                cpu=testbed.domestic_cpu, overload=self.overload,
                cache=self.cache)
        self.pac = PacFile(self.whitelist, str(self.domestic_addr),
                           self.domestic_port)
        self.deployed = True
        return
        yield  # pragma: no cover - deploy is currently synchronous

    #: AccessMethod interface: setup == deploy.
    setup = deploy

    def register_icp(self, registry) -> str:
        """File the ICP registration (see :mod:`repro.policy`)."""
        registration = registry.submit(
            company="ScholarCloud Network Technology Co.",
            service_name="ScholarCloud",
            service_type="web-proxy for whitelisted academic services",
            domains=("scholar.thucloud.com",),
            whitelist=self.whitelist.domains(),
        )
        self.icp_number = registration.number
        return registration.number

    # -- browser integration ------------------------------------------------------------

    def connector(self) -> ScConnector:
        if not self.deployed:
            raise MiddlewareError("ScholarCloud is not deployed; run deploy()")
        return ScConnector(self)

    def attach_client(self, host):
        """Generator: another browser machine — just the PAC, no state."""
        if not self.deployed:
            raise MiddlewareError("ScholarCloud is not deployed")
        return ScConnector(self, host=host)
        yield  # pragma: no cover - attachment is configuration-only

    def apply_pac(self, browser) -> None:
        """Install PAC routing: whitelist → proxy, everything else direct."""
        if self.pac is None:
            raise MiddlewareError("deploy() before applying the PAC")
        testbed = self.testbed
        direct_connector = DirectConnector(
            testbed.sim, testbed.transport_of(testbed.client),
            testbed.resolver)
        proxied = self.connector()
        pac = self.pac

        def route(url: str) -> Connector:
            if pac.evaluate(url).startswith("PROXY"):
                return proxied
            return direct_connector

        browser.route = route

    def rotate_blinding(self) -> int:
        """Arms-race response: both proxies jump to a fresh codec epoch."""
        self.agility.rotate()
        fluid = getattr(self.testbed.sim, "fluid", None)
        if fluid is not None:
            # Blinded legs calibrated under the old codec epoch must
            # re-prove themselves against the GFW at packet level.
            fluid.defluidize_all("blinding-rotation")
        if self.cache is not None:
            # Entries are keyed by epoch, so stale hits are impossible
            # even without this purge — but dead bytes must not pin the
            # watermark either, so old-epoch entries are dropped eagerly.
            self.cache.invalidate_all("blinding-rotation")
        return self.agility.epoch
