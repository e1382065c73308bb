"""Point-to-point links with latency, bandwidth, loss, and middleboxes.

Each direction of a link serializes packets FIFO at the configured
bandwidth, then applies propagation latency.  Random loss models path
noise; middleboxes (the GFW) apply targeted interference on top.
"""

from __future__ import annotations

import random
import typing as t
from dataclasses import dataclass
from heapq import heappush

from ..errors import NetworkError
from ..sim import Simulator, TraceLog
from ..sim.events import PRIORITY_NORMAL
from .middlebox import Middlebox, Verdict
from .packet import Packet

if t.TYPE_CHECKING:  # pragma: no cover
    from .node import Node


@dataclass(frozen=True)
class Direction:
    """One direction of a link, identified by its endpoints."""

    sender: str
    receiver: str

    def __str__(self) -> str:
        return f"{self.sender}->{self.receiver}"


class Link:
    """Full-duplex point-to-point link between two nodes."""

    def __init__(
        self,
        sim: Simulator,
        a: "Node",
        b: "Node",
        latency: float,
        bandwidth: float,
        loss: float = 0.0,
        rng: t.Optional[random.Random] = None,
        name: t.Optional[str] = None,
        trace: t.Optional[TraceLog] = None,
    ) -> None:
        """
        Parameters
        ----------
        latency:
            One-way propagation delay in seconds.
        bandwidth:
            Capacity in bytes per second (see :func:`repro.units.Mbps`).
        loss:
            Per-packet random loss probability in [0, 1).
        """
        if latency < 0:
            raise NetworkError(f"negative latency: {latency}")
        if bandwidth <= 0:
            raise NetworkError(f"bandwidth must be positive: {bandwidth}")
        if not 0.0 <= loss < 1.0:
            raise NetworkError(f"loss must be in [0,1): {loss}")
        self.sim = sim
        self.a = a
        self.b = b
        self.latency = latency
        self.bandwidth = bandwidth
        self.loss = loss
        self.rng = rng if rng is not None else sim.rng.stream("link.loss")
        self.name = name or f"{a.name}<->{b.name}"
        self.trace = trace
        #: Administrative state; a downed link drops every packet.
        self.up = True
        self.middleboxes: t.List[Middlebox] = []
        # Per-direction FIFO serialization horizon.
        self._busy_until: t.Dict[str, float] = {a.name: 0.0, b.name: 0.0}
        # Byte counters per direction, for overhead accounting.
        self.bytes_sent: t.Dict[str, int] = {a.name: 0, b.name: 0}
        self.packets_sent: t.Dict[str, int] = {a.name: 0, b.name: 0}
        self.packets_dropped: t.Dict[str, int] = {a.name: 0, b.name: 0}
        # Sender -> (receiver, direction, sender's name), built once per
        # direction.
        self._ends: t.Dict["Node", t.Tuple["Node", Direction, str]] = {
            a: (b, Direction(a.name, b.name), a.name),
            b: (a, Direction(b.name, a.name), b.name),
        }
        a._attach(self)
        b._attach(self)

    def peer_of(self, node: "Node") -> "Node":
        """The node at the other end of the link."""
        if node is self.a:
            return self.b
        if node is self.b:
            return self.a
        raise NetworkError(f"{node.name} is not attached to {self.name}")

    def add_middlebox(self, middlebox: Middlebox) -> None:
        """Attach an inspector to this link (both directions)."""
        self.middleboxes.append(middlebox)

    # -- fault injection -----------------------------------------------------

    def set_up(self, up: bool) -> None:
        """Flap the link; packets in flight are unaffected, new ones drop."""
        self.up = up
        self._notify_fluid()
        if self.trace is not None:
            self.trace.emit("link.admin", link=self.name,
                            state="up" if up else "down")

    def set_conditions(self, loss: float) -> None:
        """Audited mid-sim change of loss (degradation)."""
        if not 0.0 <= loss < 1.0:
            raise NetworkError(f"loss must be in [0,1): {loss}")
        self.loss = loss
        self._notify_fluid()
        if self.trace is not None:
            self.trace.emit("link.conditions", link=self.name,
                            loss=self.loss, latency=self.latency)

    def _notify_fluid(self) -> None:
        """Fault injection invalidates fluid calibration snapshots."""
        fluid = getattr(self.sim, "fluid", None)
        if fluid is not None:
            fluid.on_link_change(self)

    # -- data path -----------------------------------------------------------

    def transmit(self, packet: Packet, sender: "Node") -> None:
        """Send ``packet`` from ``sender`` toward the other endpoint.

        A delivered packet is serialized FIFO behind the direction's
        earlier packets, then propagates for ``latency``.  The packet is
        its own arrival event: it is queued with ``receiver`` and this
        link stored on it, and when the simulator pops it,
        :meth:`Packet._run_callbacks` calls ``receiver.receive``.
        """
        end = self._ends.get(sender)
        if end is None:
            raise NetworkError(f"{sender.name} is not attached to {self.name}")
        receiver, direction, name = end
        size = packet.size
        self.bytes_sent[name] += size
        self.packets_sent[name] += 1

        if not self.up:
            self._record_drop(packet, direction, reason="link-down")
            return

        if self.middleboxes:
            for middlebox in self.middleboxes:
                verdict = middlebox.process(packet, direction, self)
                if verdict is Verdict.DROP:
                    self._record_drop(packet, direction,
                                      reason=middlebox.name)
                    return

        if self.loss and self.rng.random() < self.loss:
            self._record_drop(packet, direction, reason="path-loss")
            return

        sim = self.sim
        now = sim._now
        serialization = size / self.bandwidth
        busy_until = self._busy_until
        start = busy_until[name]
        if start < now:
            start = now
        busy_until[name] = start + serialization
        arrival_delay = (start - now) + serialization + self.latency
        # ``now + arrival_delay`` is the float ``Simulator.schedule``
        # would compute, and it is never in the past, so the packet is
        # queued without ``schedule``'s checks, taking one ``seq`` as a
        # queued call would.
        packet._receiver = receiver
        packet._link = self
        seq = sim._seq + 1
        sim._seq = seq
        heappush(sim._queue, (now + arrival_delay, PRIORITY_NORMAL, seq, packet))

    def inject(self, packet: Packet, toward: "Node") -> None:
        """Middlebox API: deliver a forged packet toward ``toward``.

        Injected packets race the genuine ones, as real GFW RSTs do; we
        model the injection point as on-path, so only the remaining
        propagation (half the link latency) applies.
        """
        if toward not in (self.a, self.b):
            raise NetworkError(f"{toward.name} is not attached to {self.name}")
        delay = self.latency / 2.0
        self.sim.schedule(delay, toward.receive, packet, self)
        if self.trace is not None:
            self.trace.emit(
                "link.inject", link=self.name, toward=toward.name,
                packet_id=packet.packet_id, protocol=packet.protocol)

    def _record_drop(self, packet: Packet, direction: Direction, reason: str) -> None:
        self.packets_dropped[direction.sender] += 1
        if self.trace is not None:
            self.trace.emit(
                "link.drop", link=self.name, direction=str(direction),
                packet_id=packet.packet_id, reason=reason,
                flow=packet.flow, protocol=packet.protocol)
