"""ScholarCloud's domestic proxy (inside the wall).

The logically-centralized replacement for Shadowsocks' per-client
local proxies (§3 "Split-proxy architecture and configuration
automation"): browsers reach it via one PAC setting; it enforces the
visible whitelist, and blinds traffic toward the remote proxy.  One
transpacific connection is dialed per user stream — like Shadowsocks'
data connection, but with no per-session authentication round trip in
front of it (the paper's explanation for ScholarCloud's shorter PLT).

The transpacific leg is also where ScholarCloud's availability story
lives: the dial goes through a :class:`~repro.faults.FailoverPool` of
remote proxies, each guarded by a circuit breaker, with retry/backoff
on top — so a crashed or IP-blocked remote is absorbed server-side
while the browser's already-acknowledged stream simply queues.
"""

from __future__ import annotations

import typing as t
from dataclasses import replace

from ..cache import ResponseCache, canonical_key
from ..errors import OverloadError, TransportError
from ..faults import Endpoint, FailoverPool, RetryPolicy
from ..http.messages import HttpRequest, HttpResponse
from ..net import IPv4Address
from ..overload import AdmissionController, Deadline, OverloadConfig, deadline_from_wire
from ..sim import ProcessorSharingServer, Simulator
from ..transport import TcpConnection, TransportLayer
from ..transport import tls as tls_sizes
from ..middleware.base import (RELAY_END, Decoder, Inbox, cpu_charge,
                               decode_forward, encode_frame, forward_encoder,
                               relay, wrap_forward)
from .blinding import BlindingAgility, blind_wrap
from .remote_proxy import REMOTE_PROXY_PORT
from .whitelist import Whitelist

#: Port the domestic proxy serves browsers on.
DOMESTIC_PROXY_PORT = 8080
#: CPU work per stream and per relayed byte on the domestic VM.
CONNECT_DEMAND = 0.002
PER_BYTE_DEMAND = 2.5e-7
#: Transpacific dial timeout.  Much shorter than a browser's 30 s: the
#: proxy would rather fail fast and try a replica than leave the user's
#: (already-acknowledged) stream hanging on one dead endpoint.
DIAL_TIMEOUT = 5.0
#: Cadence/timeout of the failover pool's health probes (only started
#: when there is more than one remote to choose between).
HEALTH_CHECK_INTERVAL = 15.0
HEALTH_CHECK_TIMEOUT = 3.0


def _remote_leg_decoder(agility: BlindingAgility) -> Decoder:
    """Decoder for what a remote proxy sends back: it drops the
    pipelined open's ``sc-ready`` ack and ends the stream on
    ``sc-error``."""
    def decode(message: t.Any) -> t.Any:
        frame = agility.unwrap(message)
        if frame is None or frame[1] == ("sc-ready",):
            return None
        if frame[1] == ("sc-error",):
            return RELAY_END
        return frame
    return decode


class DomesticProxy:
    """The inside-the-wall half of the split proxy."""

    def __init__(
        self,
        sim: Simulator,
        host,
        whitelist: Whitelist,
        agility: BlindingAgility,
        cpu: ProcessorSharingServer,
        remote_addrs: t.Sequence[t.Union[str, IPv4Address]],
        port: int = DOMESTIC_PROXY_PORT,
        remote_port: int = REMOTE_PROXY_PORT,
        overload: t.Optional[OverloadConfig] = None,
        router: t.Optional[t.Any] = None,
        cache: t.Optional[ResponseCache] = None,
    ) -> None:
        """``remote_addrs`` fill the failover pool, primary first.

        ``router`` (a :class:`~repro.fleet.router.SessionRouter`)
        layers sticky fleet-wide session->PoP assignment over the
        failover pool: the router proposes which endpoint a session
        should dial, the pool's per-endpoint breakers still veto."""
        self.sim = sim
        self.host = host
        self.whitelist = whitelist
        self.agility = agility
        self.cpu = cpu
        self.port = port
        self.remote_port = remote_port
        self.pool = FailoverPool(
            sim,
            [Endpoint(IPv4Address(address), remote_port)
             for address in remote_addrs])
        self.retry = RetryPolicy(
            attempts=4, base=0.5, cap=4.0,
            rng=sim.rng.stream("resilience.sc-domestic"))
        self.router = router
        #: Optional edge response cache (see :mod:`repro.cache`).  None
        #: — the default — keeps the historical pure-relay behaviour
        #: event-for-event identical.
        self.cache = cache
        #: TLS session tickets the *proxy* holds with origins; the edge
        #: path runs the origin handshake itself (the browser's
        #: handshake terminates here).  Bounded by the whitelist: at
        #: most one entry per reachable hostname.
        self._edge_tickets: t.Set[str] = set()
        self.streams_served = 0
        self.refused = 0
        self.dials_failed = 0
        self.deadline_drops = 0
        # Relay callables, shared by every stream.
        self._charge = cpu_charge(cpu, PER_BYTE_DEMAND)
        self._decode_remote = _remote_leg_decoder(agility)
        self._encode_browser = forward_encoder(None)
        #: Session admission (None = historical unbounded behaviour).
        self.admission: t.Optional[AdmissionController] = None
        if overload is not None:
            self.admission = AdmissionController(sim, overload,
                                                 name="sc-domestic")
        transport = t.cast(TransportLayer, host.transport)
        transport.listen_tcp(port, self._accept)
        # With replicas available, probe them so a dead primary's
        # breaker opens (and later half-opens) off the request path.
        if len(self.pool.endpoints) > 1:
            self.pool.start_health_checks(
                transport, interval=HEALTH_CHECK_INTERVAL,
                timeout=HEALTH_CHECK_TIMEOUT,
                features=self.agility.codec.features())

    # -- browser-side handling ---------------------------------------------------------

    def _accept(self, conn: TcpConnection) -> None:
        self.sim.process(self._serve(conn), name="sc-domestic")

    def _serve(self, conn: TcpConnection):
        """One browser stream: parse ``sc-connect``, check the
        whitelist and deadline, admit, acknowledge — then serve from
        the edge cache (when deployed) and relay whatever it cannot."""
        try:
            first = yield conn.recv_message()
        except TransportError:
            return
        if not (isinstance(first, tuple) and len(first) in (3, 4)
                and first[0] == "sc-connect"):
            conn.close()
            return
        hostname, target_port = first[1], first[2]
        deadline = deadline_from_wire(first[3] if len(first) == 4 else None)
        if not self.whitelist.allows(hostname):
            # §3: traffic for non-whitelisted services is not touched;
            # a direct proxy request for one is refused outright.
            self.refused += 1
            conn.send_message(32, meta=("sc-refused", hostname))
            conn.close()
            return
        priority = self.whitelist.priority_of(hostname)
        source = str(conn.remote_addr)
        if deadline is not None and deadline.expired(self.sim.now):
            # The browser already gave up; answering would be pure waste.
            self.deadline_drops += 1
            if self.admission is not None:
                self.admission.record_expired(source, priority)
            self._reject(conn, "expired")
            return
        session: t.Optional[str] = None
        if self.admission is not None:
            try:
                yield from self.admission.admit(source, priority,
                                                deadline=deadline)
            except OverloadError:
                self._reject(conn, "shed")
                return
            session = source
        yield self.cpu.submit(CONNECT_DEMAND)
        # Optimistic pipelining: acknowledge the browser immediately
        # and queue its frames while the transpacific leg dials, so a
        # stream open costs one Pacific round trip less than a naive
        # connect-then-confirm design.
        self.streams_served += 1
        try:
            conn.send_message(16, meta=("sc-ready",))
        except TransportError:
            conn.close()
            self._release(session)
            return
        handoff: t.Optional[t.Tuple[int, t.Any]] = None
        if self.cache is not None:
            # The edge loop serves the stream to its end, or hands the
            # relay a non-HTTP frame it has already read; the slot is
            # released here either way.
            try:
                handoff = yield from self._serve_edge(
                    conn, hostname, target_port, deadline, source)
            except GeneratorExit:
                # Finalized, not failed (see ``_serve_edge``): end here
                # and keep the slot, since releasing it could wake a
                # waiter on a simulator that has stopped.
                return
            except BaseException:
                self._release(session)
                raise
            if handoff is None:
                self._release(session)
                return
        remote = yield from self._open_remote(hostname, target_port,
                                              deadline, source, handoff)
        if remote is None:
            conn.close()
            self._release(session)
            return
        # Browser frames keep the codec current now for the stream's life.
        up = self.sim.process(
            relay(conn, remote, decode_forward, self.agility.encoder,
                  self._charge), name="scd-up")
        self.sim.process(
            relay(remote, conn, self._decode_remote, self._encode_browser,
                  self._charge), name="scd-down")
        if session is not None:
            # The session's slot frees when the browser-facing relay is
            # done — the moment the browser connection delivers EOF or
            # fails.  Not both relays: the remote-facing one can linger
            # on a half-closed transpacific conn whose peer only FINs
            # back once the whole relay chain unwinds, and admission
            # counts browser connections, not transpacific ones.
            up.add_callback(
                lambda _event, s=session: self.admission.release(s))

    def _reject(self, conn: TcpConnection, reason: str) -> None:
        """Fast 503-style rejection: tell the browser, then hang up."""
        fluid = getattr(self.sim, "fluid", None)
        if fluid is not None:
            # A shed/expired session must not ride the fast path out:
            # the rejection and teardown happen at packet level.
            fluid.defluidize(conn, reason)
        try:
            conn.send_message(32, meta=("sc-overload", reason))
        except TransportError:
            pass
        conn.close()

    def _release(self, session: t.Optional[str]) -> None:
        if session is not None:
            assert self.admission is not None
            self.admission.release(session)

    # -- transpacific dialing -----------------------------------------------------------------

    def _pick_endpoint(self, session_key: str) -> t.Optional[Endpoint]:
        """Next endpoint to try: router-assigned if routed, else pool order."""
        if self.router is not None:
            return self.router.route(session_key, allow=self._breaker_allows)
        return self.pool.pick()

    def _breaker_allows(self, endpoint: Endpoint) -> bool:
        breaker = self.pool.breakers.get(endpoint)
        return True if breaker is None else breaker.allow()

    def _dial_remote(self, deadline: t.Optional[Deadline], session_key: str):
        """Open a blinded connection to a healthy remote proxy.

        Retries with capped jittered backoff; each attempt asks the
        session router (when one is wired) for the sticky/rendezvous
        endpoint, falling back to failover-pool priority order — in
        both cases only endpoints whose breaker admits traffic.
        Returns None only once every attempt across every admissible
        endpoint has failed — or, with a request deadline, once the
        next attempt could not finish in time.
        """
        transport = t.cast(TransportLayer, self.host.transport)
        if deadline is None:
            attempt_delays = self.retry.delays()
        else:
            attempt_delays = self.retry.delays(
                clock=lambda: self.sim.now, deadline=deadline.at)
        dialed_timeout = DIAL_TIMEOUT
        for delay in attempt_delays:
            if delay > 0.0:
                yield self.sim.timeout(delay)
            endpoint = self._pick_endpoint(session_key)
            if endpoint is None:
                continue  # every breaker open; back off and re-ask
            if deadline is not None:
                dialed_timeout = deadline.clamp(DIAL_TIMEOUT, self.sim.now)
            try:
                conn = yield transport.connect_tcp(
                    endpoint.address, endpoint.port,
                    features=self.agility.codec.features(),
                    timeout=dialed_timeout)
            except TransportError:
                self.pool.record_failure(endpoint)
                continue
            self.pool.record_success(endpoint)
            if self.router is not None:
                self.router.bind(session_key, endpoint)
            return conn
        self.dials_failed += 1
        return None

    def _open_remote(self, hostname: str, target_port: int,
                     deadline: t.Optional[Deadline], source: str,
                     first: t.Optional[t.Tuple[int, t.Any]] = None):
        """Generator: dial a remote proxy and pipeline ``sc-open`` on it,
        followed by ``first`` — a browser frame already read — if given.

        Returns the blinded connection, or None once dialing (or the
        open) failed.
        """
        remote = yield from self._dial_remote(deadline, source)
        if remote is None:
            return None
        encode = self.agility.encoder
        open_meta: t.Tuple = ("sc-open", hostname, target_port)
        if deadline is not None:
            open_meta = open_meta + (deadline.at,)
        if first is not None:
            yield self.cpu.submit(PER_BYTE_DEMAND * first[0])
        try:
            remote.send_message(
                24 + encode.codec.pad_length(24),
                meta=blind_wrap(self.agility.epoch, 24, open_meta),
                features=encode.features)
            if first is not None:
                remote.send_message(*encode(*first))
        except TransportError:
            remote.close()
            return None
        return remote

    # -- edge-cache serving ---------------------------------------------------------------------

    def _serve_edge(self, conn: TcpConnection, hostname: str,
                    target_port: int, deadline: t.Optional[Deadline],
                    source: str):
        """Terminate an acknowledged browser stream here and serve it
        from the cache.

        The browser speaks exactly what it would toward an origin — an
        optional modeled TLS handshake, then HTTP message frames — so
        this loop answers the handshake itself, serves hits straight
        from :attr:`cache` without ever dialing transpacific, and only
        opens the blinded leg on the first miss.  Returns None once the
        stream is over, or — for non-HTTP plaintext such as echo
        probes, which the edge cannot help — the already-read
        ``(length, meta)`` frame, leaving ``conn`` open for the relay
        to take over.
        """
        cache = self.cache
        assert cache is not None
        upstream: t.Optional[_EdgeUpstream] = None
        handoff: t.Optional[t.Tuple[int, t.Any]] = None
        tls_on = False           # the browser ran its handshake with us
        pending_full = False     # full handshake: we owe a server-finished
        finalized = False        # closed by its finalizer, not the model
        try:
            while True:
                try:
                    message = yield conn.recv_message()
                except TransportError:
                    return
                if message is None:
                    return
                frame = decode_forward(message)
                if frame is None:
                    continue  # malformed browser frame: skip, keep serving
                length, meta = frame
                wrapped = (isinstance(meta, tuple) and len(meta) == 2
                           and meta[0] == "tls-app"
                           and isinstance(meta[1], HttpRequest))
                if isinstance(meta, tuple) and meta and meta[0] == "tls":
                    yield self.cpu.submit(PER_BYTE_DEMAND * length)
                    if meta[1] == "client-hello":
                        tls_on = True
                        resumed = bool(meta[3]) if len(meta) >= 4 else False
                        pending_full = not resumed
                        if resumed:
                            reply_len = tls_sizes.ABBREVIATED_SERVER_HELLO
                            reply: t.Tuple = ("tls", "server-hello-abbreviated")
                        else:
                            reply_len = tls_sizes.SERVER_HELLO_WITH_CERT
                            reply = ("tls", "server-hello")
                        if not self._edge_send(conn, reply_len, reply):
                            return
                    elif meta[1] == "client-finished" and pending_full:
                        pending_full = False
                        if not self._edge_send(
                                conn, tls_sizes.SERVER_FINISHED,
                                ("tls", "server-finished")):
                            return
                    # A resumed client-finished needs no reply.
                    continue
                if wrapped or isinstance(meta, HttpRequest):
                    request: HttpRequest = meta[1] if wrapped else meta
                    yield self.cpu.submit(PER_BYTE_DEMAND * length)
                    key = canonical_key(request, target_port)
                    cached = cache.lookup(key)
                    if cached is not None:
                        out_len = cache.wire_length_of(key)
                        response = replace(cached, from_cache=True)
                        out_meta: t.Any = (("tls-app", response) if wrapped
                                           else response)
                        # Mark for the fluid layer: this stream is
                        # locally terminated, so its plaintext CONNECT
                        # features no longer gate the fast path.
                        conn.cache_served = True
                        yield self.cpu.submit(PER_BYTE_DEMAND * out_len)
                        if not self._edge_send(conn, out_len, out_meta):
                            return
                        continue
                    if upstream is None:
                        remote = yield from self._open_remote(
                            hostname, target_port, deadline, source)
                        if remote is None:
                            return
                        upstream = _EdgeUpstream(self, remote)
                        if tls_on:
                            ok = yield from upstream.origin_handshake(hostname)
                            if not ok:
                                return
                    fetched = yield from upstream.fetch(request, wrapped)
                    if fetched is None:
                        return
                    response, out_len = fetched
                    out_meta = ("tls-app", response) if wrapped else response
                    if not self._edge_send(conn, out_len, out_meta):
                        return
                    if (response.status == 200 and response.cacheable
                            and not response.record_account):
                        cache.insert(
                            key, response, out_len,
                            avoided_bytes=self._transpacific_cost(length,
                                                                  out_len))
                    continue
                if tls_on:
                    # Unknown payload inside a locally-terminated TLS
                    # session: nothing sane to relay.  Drop the stream.
                    return
                # Pre-TLS non-HTTP plaintext: hand the stream, with this
                # frame, to the relay.  A miss leg opened earlier is not
                # part of that; the relay dials its own.
                handoff = (length, meta)
                return handoff
        except GeneratorExit:
            # A loop still suspended when its simulation ended is closed
            # when the generator is freed, often by the cyclic collector
            # long after: a FIN sent then would land at an instant the
            # collector picked and take a packet id from a later run.
            finalized = True
            raise
        finally:
            # Browser first, then the upstream; the caller releases the
            # admission slot last.
            if not finalized:
                if handoff is None:
                    conn.close()
                if upstream is not None:
                    upstream.close()

    def _edge_send(self, conn: TcpConnection, length: int,
                   meta: t.Any) -> bool:
        """Send one forward-framed message to the browser; False on error."""
        try:
            conn.send_message(length, meta=wrap_forward(length, meta))
        except TransportError:
            return False
        return True

    def _transpacific_cost(self, request_length: int,
                           response_length: int) -> int:
        """Blinded transpacific bytes one future hit keeps off the
        border link: the padded request and response frames."""
        encode = self.agility.encoder
        return encode.length(request_length) + encode.length(response_length)


class _EdgeUpstream:
    """Domestic-side handle on one lazily-dialed blinded upstream leg.

    Used only by the edge-cache path: misses flow through here toward
    the remote proxy (and on to the origin) over the usual blinded
    framing.  The proxy runs the origin TLS handshake itself — the
    browser's handshake already terminated at the edge — and replays
    one request/response at a time, which keeps the inbox bounded (the
    per-connection serve loop is strictly sequential).
    """

    def __init__(self, proxy: DomesticProxy, remote: TcpConnection) -> None:
        self.proxy = proxy
        self.remote = remote
        self.origin_ready = False
        self._inbox = Inbox(proxy.sim)
        proxy.sim.process(
            relay(remote, self._inbox, proxy._decode_remote, encode_frame),
            name="scd-edge-up")

    def close(self) -> None:
        self.remote.close()

    def send(self, length: int, meta: t.Any) -> None:
        """Blind-wrap and send one frame toward the remote proxy."""
        self.remote.send_message(*self.proxy.agility.encoder(length, meta))

    def recv(self):
        """Generator: next ``(length, meta)`` frame; ``(0, None)`` at EOF."""
        frame = yield self._inbox.get()
        return (0, None) if frame is None else frame

    def origin_handshake(self, hostname: str):
        """Generator: the proxy-side TLS client handshake with the
        origin, run through the relay.  Resumption uses the proxy's own
        ticket set.  Returns True once established."""
        if self.origin_ready:
            return True
        proxy = self.proxy
        resumed = hostname in proxy._edge_tickets
        yield proxy.cpu.submit(PER_BYTE_DEMAND * tls_sizes.CLIENT_HELLO)
        try:
            self.send(tls_sizes.CLIENT_HELLO,
                      ("tls", "client-hello", hostname, resumed))
        except TransportError:
            return False
        length, meta = yield from self.recv()
        if not (isinstance(meta, tuple) and meta and meta[0] == "tls"):
            return False
        yield proxy.cpu.submit(PER_BYTE_DEMAND * length)
        yield proxy.cpu.submit(
            PER_BYTE_DEMAND * tls_sizes.CLIENT_KEY_EXCHANGE_FINISHED)
        try:
            self.send(tls_sizes.CLIENT_KEY_EXCHANGE_FINISHED,
                      ("tls", "client-finished"))
        except TransportError:
            return False
        if not resumed:
            length, meta = yield from self.recv()
            if not (isinstance(meta, tuple) and len(meta) >= 2
                    and meta[0] == "tls" and meta[1] == "server-finished"):
                return False
            yield proxy.cpu.submit(PER_BYTE_DEMAND * length)
        proxy._edge_tickets.add(hostname)
        self.origin_ready = True
        return True

    def fetch(self, request: HttpRequest, wrapped: bool):
        """Generator: one origin round trip.

        Returns ``(response, wire_length)`` — the length the response
        occupies on the browser leg — or None on a dead upstream.
        """
        if wrapped:
            length = tls_sizes.record_length(request.size())
            meta: t.Any = ("tls-app", request)
        else:
            length = request.size()
            meta = request
        try:
            self.send(length, meta)
        except TransportError:
            return None
        proxy = self.proxy
        while True:
            rlength, rmeta = yield from self.recv()
            if rmeta is None:
                return None
            yield proxy.cpu.submit(PER_BYTE_DEMAND * rlength)
            if wrapped:
                if (isinstance(rmeta, tuple) and len(rmeta) == 2
                        and rmeta[0] == "tls-app"
                        and isinstance(rmeta[1], HttpResponse)):
                    return rmeta[1], rlength
            elif isinstance(rmeta, HttpResponse):
                return rmeta, rlength
            # Stray frame (late handshake ack, keepalive noise): skip.
