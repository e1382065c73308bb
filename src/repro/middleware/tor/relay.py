"""Tor relay nodes: circuit switching and exit behaviour.

Each relay accepts per-circuit TCP connections from its predecessor,
handles CREATE/EXTEND, and forwards RELAY cells in both directions: it
reads cells from the client direction itself, and a :func:`relay`
carries each circuit's cells back.  The exit relay additionally
resolves target names (Tor resolves at the exit — which is how Tor
sidesteps DNS poisoning) and opens the real target connections, whose
replies a relay wraps into DATA cells.
"""

from __future__ import annotations

import typing as t

from ...dns import StubResolver
from ...errors import MiddlewareError, NameResolutionError, TransportError
from ...net import Host, IPv4Address, WireFeatures
from ...sim import Simulator
from ...transport import TcpConnection, TransportLayer
from ..base import Frame, decode_raw, encode_raw, relay
from . import cells
from .cells import CELL_SIZE

#: Port relays listen on (OR port).
OR_PORT = 9001


def relay_link_features() -> WireFeatures:
    """Relay-to-relay TLS with Tor's distinctive fingerprint."""
    return WireFeatures(protocol_tag="tor-tls", entropy=7.95)


class _Circuit:
    """Relay-side state for one circuit hop."""

    __slots__ = ("circuit_id", "upstream", "downstream", "streams")

    def __init__(self, circuit_id: int, upstream: TcpConnection) -> None:
        self.circuit_id = circuit_id
        self.upstream = upstream                       # toward the client
        self.downstream: t.Optional[TcpConnection] = None  # toward the exit
        self.streams: t.Dict[int, TcpConnection] = {}  # exit only

    def reply(self, command: str, payload: t.Any = None) -> None:
        """Send one cell back toward the client; a dead link drops it."""
        try:
            self.upstream.send_message(
                cells.wire_bytes(_payload_length(payload)),
                meta=cells.make_cell(self.circuit_id, command, payload),
                features=relay_link_features())
        except TransportError:
            pass


class _ExitStream:
    """Relay sink for one exit stream: each target message leaves as a
    DATA cell toward the client, and the stream's end as its END cell,
    unless the client ended the stream first."""

    __slots__ = ("circuit", "stream_id")

    def __init__(self, circuit: _Circuit, stream_id: int) -> None:
        self.circuit = circuit
        self.stream_id = stream_id

    def send_message(self, length: int, meta: t.Any = None,
                     features: t.Optional[WireFeatures] = None) -> None:
        self.circuit.reply(cells.DATA, {"stream": self.stream_id,
                                        "length": length, "meta": meta})

    def close(self) -> None:
        # A client END removes the stream before it closes the target,
        # and a stream the client ended needs no END back.
        if self.stream_id in self.circuit.streams:
            self.circuit.reply(cells.END, {"stream": self.stream_id,
                                           "reason": "closed"})


class TorRelay:
    """A middle/exit-capable relay running on a simulated host."""

    def __init__(self, sim: Simulator, host: Host,
                 resolver: t.Optional[StubResolver] = None,
                 name: t.Optional[str] = None) -> None:
        self.sim = sim
        self.host = host
        self.name = name or host.name
        self.resolver = resolver
        self._circuits: t.Dict[t.Tuple[int, int], _Circuit] = {}
        transport = t.cast(TransportLayer, host.transport)
        transport.listen_tcp(OR_PORT, self._accept)

    @property
    def address(self) -> IPv4Address:
        return self.host.address

    # -- inbound connection handling -------------------------------------------------

    def _accept(self, conn: TcpConnection) -> None:
        self.sim.process(self._serve_upstream(conn),
                         name=f"{self.name}-upstream")

    def _serve_upstream(self, conn: TcpConnection):
        """Handle cells arriving from the client direction."""
        try:
            while True:
                try:
                    message = yield conn.recv_message()
                except TransportError:
                    return
                if message is None:
                    return
                if not cells.is_cell(message):
                    continue  # garbage (e.g. a GFW probe): swallow silently
                _tag, circuit_id, command, payload = message
                key = (id(conn), circuit_id)
                circuit = self._circuits.get(key)
                if command == cells.CREATE:
                    self._circuits[key] = _Circuit(circuit_id, conn)
                    conn.send_message(
                        CELL_SIZE,
                        meta=cells.make_cell(circuit_id, cells.CREATED),
                        features=relay_link_features())
                    continue
                if circuit is None:
                    continue
                if command == cells.EXTEND:
                    yield from self._extend(circuit, payload)
                elif command in (cells.BEGIN, cells.DATA, cells.END):
                    if circuit.downstream is not None:
                        circuit.downstream.send_message(
                            cells.wire_bytes(_payload_length(payload)),
                            meta=message, features=relay_link_features())
                    else:
                        yield from self._exit_handle(circuit, command, payload)
        finally:
            # The client link is gone; its circuits can never carry
            # another cell.  Dropping their entries also prevents a
            # recycled id(conn) from colliding with a dead circuit.
            for key in [key for key in self._circuits
                        if key[0] == id(conn)]:
                del self._circuits[key]

    def _extend(self, circuit: _Circuit, payload: t.Any):
        """EXTEND: splice in a connection to the next relay."""
        next_addr = payload["next"]
        transport = t.cast(TransportLayer, self.host.transport)
        try:
            downstream = yield transport.connect_tcp(
                next_addr, OR_PORT, features=relay_link_features(),
                timeout=30.0)
        except TransportError:
            circuit.reply(cells.END, {"reason": "extend-failed"})
            return
        try:
            downstream.send_message(
                CELL_SIZE,
                meta=cells.make_cell(circuit.circuit_id, cells.CREATE),
                features=relay_link_features())
            created = yield downstream.recv_message()
        except TransportError:
            downstream.close()
            circuit.reply(cells.END, {"reason": "extend-failed"})
            return
        if not (cells.is_cell(created) and created[2] == cells.CREATED):
            downstream.close()
            circuit.reply(cells.END, {"reason": "create-failed"})
            return
        circuit.downstream = downstream
        self.sim.process(
            relay(downstream, circuit.upstream, _decode_cell, _encode_cell),
            name=f"{self.name}-backward")
        circuit.reply(cells.EXTENDED)

    # -- exit-node duties ----------------------------------------------------------------

    def _exit_handle(self, circuit: _Circuit, command: str, payload: t.Any):
        if command == cells.BEGIN:
            if payload.get("internal"):
                # Directory stream served by the relay itself.
                circuit.streams[payload["stream"]] = "internal"  # type: ignore[assignment]
                circuit.reply(cells.CONNECTED, {"stream": payload["stream"]})
                return
            yield from self._exit_begin(circuit, payload)
        elif command == cells.DATA:
            stream_conn = circuit.streams.get(payload["stream"])
            if stream_conn == "internal":
                self._serve_directory(circuit, payload)
            elif stream_conn is not None:
                stream_conn.send_message(payload["length"],
                                         meta=payload["meta"])
        elif command == cells.END:
            stream_conn = circuit.streams.pop(payload.get("stream"), None)
            if stream_conn is not None and stream_conn != "internal":
                stream_conn.close()

    def _serve_directory(self, circuit: _Circuit, payload: t.Any) -> None:
        """Answer a directory request with the consensus blob."""
        from .client import DIRECTORY_BYTES
        circuit.reply(cells.DATA,
                      {"stream": payload["stream"], "length": DIRECTORY_BYTES,
                       "meta": ("dir-response", DIRECTORY_BYTES)})

    def _exit_begin(self, circuit: _Circuit, payload: t.Any):
        if self.resolver is None:
            raise MiddlewareError(f"{self.name} is not exit-capable (no resolver)")
        stream_id = payload["stream"]
        host, port = payload["host"], payload["port"]
        transport = t.cast(TransportLayer, self.host.transport)
        try:
            address = yield self.resolver.resolve(host)
            target = yield transport.connect_tcp(address, port, timeout=30.0)
        except (NameResolutionError, TransportError) as exc:
            circuit.reply(cells.END, {"stream": stream_id, "reason": str(exc)})
            return
        circuit.streams[stream_id] = target
        self.sim.process(
            relay(target, _ExitStream(circuit, stream_id), decode_raw,
                  encode_raw),
            name=f"{self.name}-stream-{stream_id}")
        circuit.reply(cells.CONNECTED, {"stream": stream_id})


def _payload_length(payload: t.Any) -> int:
    if isinstance(payload, dict):
        return int(payload.get("length", 0))
    return 0


def _decode_cell(message: t.Any) -> t.Optional[Frame]:
    """A cell's frame, sized by its payload; None drops anything else."""
    if not cells.is_cell(message):
        return None
    return _payload_length(message[3]), message


def _encode_cell(length: int,
                 cell: t.Any) -> t.Tuple[int, t.Any, WireFeatures]:
    """Send a cell padded to whole cells, with Tor's link features."""
    return cells.wire_bytes(length), cell, relay_link_features()
