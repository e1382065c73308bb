"""ScholarCloud's remote proxy (outside the wall).

Accepts blinded streams from the domestic proxy, opens target
connections, and pumps traffic.  Two properties matter:

* **Epoch discipline** — frames carry the blinding epoch; a mismatch
  (stale codec after a rotation) is treated exactly like garbage.
* **Probe resistance** — garbage, scanners, and GFW active probes get
  a decoy HTTP error, indistinguishable from a boring web server
  (contrast with Shadowsocks' hang-on-garbage tell).
"""

from __future__ import annotations

import typing as t

from ..dns import StubResolver
from ..errors import NameResolutionError, TransportError
from ..overload import deadline_from_wire
from ..sim import ProcessorSharingServer, Simulator
from ..transport import TcpConnection, TransportLayer
from ..middleware.base import cpu_charge, decode_raw, encode_raw, relay
from .blinding import BlindingAgility, blind_wrap

#: Port the remote proxy listens on (looks like HTTPS).
REMOTE_PROXY_PORT = 443
#: CPU work per stream open and per relayed byte (lighter than
#: Shadowsocks: no per-session auth machinery).
CONNECT_DEMAND = 0.003
PER_BYTE_DEMAND = 3e-7


class RemoteProxy:
    """The outside-the-wall half of the split proxy."""

    def __init__(
        self,
        sim: Simulator,
        host,
        resolver: StubResolver,
        cpu: ProcessorSharingServer,
        agility: BlindingAgility,
        port: int = REMOTE_PROXY_PORT,
    ) -> None:
        self.sim = sim
        self.host = host
        self.resolver = resolver
        self.cpu = cpu
        self.agility = agility
        self.port = port
        self.deadline_drops = 0
        # Relay callables, shared by every stream.
        self._decode = agility.unwrap
        self._charge = cpu_charge(cpu, PER_BYTE_DEMAND)
        transport = t.cast(TransportLayer, host.transport)
        transport.listen_tcp(port, self._accept)

    def _accept(self, conn: TcpConnection) -> None:
        self.sim.process(self._serve(conn), name="sc-remote")

    def _serve(self, conn: TcpConnection):
        try:
            first = yield conn.recv_message()
        except TransportError:
            return
        opened = self.agility.unwrap(first)
        if opened is None or not (isinstance(opened[1], tuple)
                                  and len(opened[1]) in (3, 4)
                                  and opened[1][0] == "sc-open"):
            # Garbage, probe, or stale epoch: answer like a web server.
            try:
                conn.send_message(480, meta=("http-400", "Bad Request"))
            except TransportError:
                pass
            conn.close()
            return
        hostname, target_port = opened[1][1], opened[1][2]
        deadline = deadline_from_wire(
            opened[1][3] if len(opened[1]) == 4 else None)
        if deadline is not None and deadline.expired(self.sim.now):
            # Nobody is waiting for this answer any more; don't spend
            # CPU or a target dial on it.
            self.deadline_drops += 1
            fluid = getattr(self.sim, "fluid", None)
            if fluid is not None:
                # The error answer and teardown stay at packet level.
                fluid.defluidize(conn, "expired")
            self._send_error(conn)
            conn.close()
            return
        yield self.cpu.submit(CONNECT_DEMAND)
        transport = t.cast(TransportLayer, self.host.transport)
        dial_timeout = (30.0 if deadline is None
                        else deadline.clamp(30.0, self.sim.now))
        target: t.Optional[TcpConnection] = None
        try:
            address = yield self.resolver.resolve(hostname)
            target = yield transport.connect_tcp(address, target_port,
                                                 timeout=dial_timeout)
        except (NameResolutionError, TransportError):
            self._send_error(conn)
            conn.close()
            return
        try:
            conn.send_message(
                24, meta=blind_wrap(self.agility.epoch, 16, ("sc-ready",)),
                features=self.agility.codec.features())
        except TransportError:
            # The domestic side vanished between open and ack: the
            # target dial must not leak.
            target.close()
            conn.close()
            return
        # Replies keep the codec current at the open for the stream's life.
        self.sim.process(relay(conn, target, self._decode, encode_raw,
                               self._charge), name="sc-up")
        self.sim.process(relay(target, conn, decode_raw, self.agility.encoder,
                               self._charge), name="sc-down")

    def _send_error(self, conn: TcpConnection) -> None:
        """Best-effort ``sc-error`` ack; the peer may already be gone."""
        try:
            conn.send_message(
                24, meta=blind_wrap(self.agility.epoch, 16, ("sc-error",)),
                features=self.agility.codec.features())
        except TransportError:
            pass
