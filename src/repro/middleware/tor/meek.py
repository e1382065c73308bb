"""meek: domain-fronted HTTPS transport (Fifield et al., PETS 2015).

The client speaks ordinary HTTPS to a CDN *front* domain; the CDN
forwards request bodies to the actual Tor bridge.  Tor cells ride as
HTTP POST bodies, and the client polls even when idle so downstream
cells have a channel back.  Both properties are what the paper pays
for: polling adds latency to every cell, and by 2017 the GFW's DPI
classified exactly this cadence-plus-front combination (the 4.4% loss
measured in Figure 5c).
"""

from __future__ import annotations

import itertools
import typing as t

from ...errors import MiddlewareError, TransportError
from ...net import Host, WireFeatures
from ...sim import Event, Simulator, Store
from ...transport import (MessageChannel, TcpConnection, TlsSession,
                          TransportLayer)
from ..base import Frame, Inbox, encode_frame, relay
from .cells import CELL_SIZE
from .relay import OR_PORT, _payload_length, relay_link_features

#: HTTP overhead per meek POST / response.
POST_OVERHEAD = 160
RESPONSE_OVERHEAD = 80
#: Client poll cadence while idle.  meek's real poller backs off when
#: idle but polls aggressively (~100 ms) while traffic is flowing.
POLL_INTERVAL = 0.08
#: Longest the front holds a POST's response waiting for bridge data.
MAX_HOLD = 0.35

_session_ids = itertools.count(1)


class CdnFront:
    """The CDN edge: terminates client TLS, forwards bodies to bridges."""

    def __init__(self, sim: Simulator, host: Host, bridge_addr,
                 front_domain: str) -> None:
        self.sim = sim
        self.host = host
        self.bridge_addr = bridge_addr
        self.front_domain = front_domain
        # Key space = one long-lived session id per meek client; the
        # bridge leg survives the client's polling, so dropping state
        # between polls would sever the tunnel.
        self._sessions: t.Dict[int, t.Dict[str, t.Any]] = {}  # reprolint: disable=unbounded-cache-field
        transport = t.cast(TransportLayer, host.transport)
        transport.listen_tcp(443, self._accept)

    def _accept(self, conn: TcpConnection) -> None:
        self.sim.process(self._serve(conn), name="cdn-front")

    def _serve(self, conn: TcpConnection):
        session = TlsSession(conn)
        try:
            yield from session.server_handshake()
            while True:
                message = yield session.recv_message()
                if message is None:
                    return
                if not (isinstance(message, tuple) and message[0] == "meek-post"):
                    continue
                _tag, session_id, batch = message
                state = yield from self._session_state(session_id)
                if state is None:
                    session.send_message(
                        RESPONSE_OVERHEAD,
                        meta=("meek-resp", "bridge-unreachable", ()))
                    continue
                for length, meta in batch:
                    state["bridge"].send_message(length, meta=meta,
                                                 features=relay_link_features())
                # Long-poll: hold the response briefly so a reply that
                # is already in flight from the bridge rides this POST
                # instead of waiting out the client's next poll (the
                # meek-server turnaround behaviour).
                queued: Inbox = state["queue"]
                if not len(queued):
                    yield self.sim.any_of(
                        [queued.watch(), self.sim.timeout(MAX_HOLD)])
                downstream = []
                total = 0
                while len(queued):
                    item = yield queued.get()
                    if item is None:
                        continue  # the bridge leg ended: nothing to carry
                    downstream.append(item)
                    total += item[0]
                session.send_message(RESPONSE_OVERHEAD + total,
                                     meta=("meek-resp", "ok", tuple(downstream)))
        except TransportError:
            return

    def _session_state(self, session_id: int):
        state = self._sessions.get(session_id)
        if state is not None:
            return state
        transport = t.cast(TransportLayer, self.host.transport)
        try:
            bridge = yield transport.connect_tcp(
                self.bridge_addr, OR_PORT, features=relay_link_features(),
                timeout=20.0)
        except TransportError:
            return None
        state = {"bridge": bridge, "queue": Inbox(self.sim)}
        self._sessions[session_id] = state
        # Bridge cells queue until the client's next poll drains them.
        self.sim.process(
            relay(bridge, state["queue"], _bridge_frame, encode_frame),
            name="front-bridge-pump")
        return state


def _bridge_frame(message: t.Any) -> Frame:
    """A bridge cell's frame, sized for its meek response: at least
    one cell."""
    length = CELL_SIZE
    if isinstance(message, tuple) and len(message) == 4:
        length = max(CELL_SIZE, _payload_length(message[3]))
    return length, message


class MeekChannel(MessageChannel):
    """Client side: a cell channel tunneled through HTTPS polling."""

    def __init__(self, sim: Simulator, tls: TlsSession) -> None:
        self.sim = sim
        self.tls = tls
        self.session_id = next(_session_ids)
        self._outbound: t.List[t.Tuple[int, t.Any]] = []
        self._inbox = Store(sim)
        self._kick = sim.event()
        self._closed = False
        self.polls_sent = 0
        sim.process(self._poll_loop(), name="meek-poll")

    # -- MessageChannel ------------------------------------------------------------

    def send_message(self, length: int, meta: t.Any = None,
                     features: t.Optional[WireFeatures] = None) -> None:
        if self._closed:
            raise MiddlewareError("meek channel is closed")
        self._outbound.append((length, meta))
        if not self._kick.triggered:
            self._kick.succeed(None)

    def recv_message(self) -> Event:
        return self._inbox.get()

    def close(self) -> None:
        self._closed = True
        if not self._kick.triggered:
            self._kick.succeed(None)

    @property
    def state(self) -> str:
        return "CLOSED" if self._closed else "ESTABLISHED"

    # -- polling ---------------------------------------------------------------------

    def _poll_loop(self):
        # meek's poller: aggressive while traffic flows, exponential
        # backoff (up to ~5 s) while idle — otherwise the idle channel
        # would cost hundreds of empty POSTs a minute.
        interval = POLL_INTERVAL
        while not self._closed:
            if not self._outbound:
                # Idle: wait for data or the poll timer, whichever first.
                self._kick = self.sim.event()
                yield self.sim.any_of(
                    [self._kick, self.sim.timeout(interval)])
                if self._closed:
                    return
            if self._outbound:
                interval = POLL_INTERVAL  # traffic: reset cadence
            else:
                interval = min(interval * 1.7, 5.0)
            batch, self._outbound = self._outbound, []
            body = sum(length for length, _meta in batch)
            self.polls_sent += 1
            try:
                self.tls.send_message(
                    POST_OVERHEAD + body,
                    meta=("meek-post", self.session_id, tuple(batch)))
                response = yield self.tls.recv_message()
            except TransportError as exc:
                self._fail(exc)
                return
            if response is None:
                self._fail(MiddlewareError("meek front closed the channel"))
                return
            if not (isinstance(response, tuple) and response[0] == "meek-resp"):
                continue
            _tag, status, downstream = response
            if status != "ok":
                self._fail(MiddlewareError(f"meek bridge failure: {status}"))
                return
            if downstream:
                interval = POLL_INTERVAL  # downstream flowing: stay hot
            for _length, cell in downstream:
                self._inbox.put(cell)

    def _fail(self, exc: Exception) -> None:
        self._closed = True
        self._inbox.fail_getters(
            lambda: MiddlewareError(f"meek transport failed: {exc}"))
