"""Fluid-flow fast path: analytic steady-state transfers (hybrid mode).

Packet-level simulation prices every relayed byte at one event per
segment per hop, which caps the Figure 7 sweep at a few hundred
clients.  This module adds a *fluid* abstraction: once a connection is
established, has an RTT estimate, and every firewall on its path has
classified (or provably given up classifying) its flow, a large
application message collapses into **one** :class:`~repro.sim.FlowEvent`
— its delivery time computed analytically from the calibrated
:class:`~repro.net.Link` parameters (latency, bandwidth, loss,
FIFO-contention horizons) and the sender's congestion state.

The contract, enforced by ``tests/test_fluid_equivalence.py``:

* **Packet mode is bit-unchanged.**  Every hook in the packet path is
  gated on ``sim.fluid is not None``; with no registry installed the
  event trace is byte-identical to the seed implementation.
* **Hybrid aggregates stay in tolerance.**  Goodput, PLT, shed rate,
  and availability land within the declared bands of packet mode
  (see ``TOLERANCE_BANDS``).
* **Event hooks de-fluidize.**  A GFW policy change
  (:meth:`~repro.gfw.GreatFirewall.apply_policy`), an active-probe
  confirmation, fault injection on a link, a connection reset, an
  overload shed, or a deadline expiry drops affected connections back
  to packet level; they re-qualify only after
  :data:`REQUALIFY_PACKETS` packet-mode segments.

Eligibility is deliberately conservative: anything the DPI pipeline
still needs per-packet visibility for — plaintext (keyword filter),
handshakes (fingerprinting), meek-candidate flows (polling-cadence
detector), unprobed shadowsocks suspects (active-probe dispatch),
flows whose label maps to RSTs — stays on the packet path.
"""

from __future__ import annotations

import typing as t
from dataclasses import dataclass, field

from ..errors import RoutingError
from ..gfw.firewall import GreatFirewall
from ..net import IP_HEADER, MSS, TCP_HEADER
from ..sim import Simulator
from ..transport.tcp import ACK_SIZE, TcpConnection

if t.TYPE_CHECKING:  # pragma: no cover
    from ..net.link import Link
    from ..net.node import Node

#: Segment header overhead on the wire.
_HEADER = IP_HEADER + TCP_HEADER

#: The supported simulation modes (the ``mode`` argument of the harnesses).
MODES = ("packet", "hybrid")

#: A firewall-crossing flow must have shown this many packets to the
#: GFW before it counts as classified-and-steady.
MIN_FLOW_PACKETS = 12
#: Packet-mode segments a de-fluidized connection must send before it
#: may re-qualify.
REQUALIFY_PACKETS = 4
#: Route-walk guard.
MAX_HOPS = 16
#: Only messages at least this large fluidize; small control messages
#: stay on the packet path (they are cheap there and the DPI
#: classifiers key on them).
MIN_MESSAGE_BYTES = 2 * MSS

#: Declared tolerance bands for hybrid-vs-packet aggregate metrics,
#: as relative error (or absolute, where noted).  These are the bands
#: the equivalence tests and the CI gate hold the fluid model to.
TOLERANCE_BANDS: t.Dict[str, float] = {
    "goodput": 0.15,        # relative: completed loads per second
    "plt": 0.35,            # relative: median page-load time
    "shed_rate": 0.10,      # absolute: fraction of sessions shed
    "availability": 0.10,   # absolute: success rate
}


def aggregate_overload(results: t.Sequence[t.Any],
                       bytes_per_load: int) -> t.Dict[str, float]:
    """Pool overload-point rows into the tolerance-gated aggregates.

    ``results`` are :class:`~repro.measure.scenarios.OverloadResult`
    rows (any mix of seeds/levels); ``bytes_per_load`` is the page
    weight of the workload, used to turn completed loads into goodput
    (bytes per simulated second).
    """
    completed = sum(r.completed for r in results)
    failed = sum(r.failed for r in results)
    sheds = sum(r.client_sheds for r in results)
    total = completed + failed
    plt_num = sum(r.plt.mean * r.plt.count for r in results if r.plt.count)
    plt_den = sum(r.plt.count for r in results)
    duration = sum(r.report.duration for r in results)
    return {
        "goodput": (completed * bytes_per_load / duration) if duration else 0.0,
        "plt": (plt_num / plt_den) if plt_den else 0.0,
        "shed_rate": (sheds / total) if total else 0.0,
        "availability": (completed / total) if total else 0.0,
    }


def band_failures(reference: t.Mapping[str, float],
                  candidate: t.Mapping[str, float]) -> t.List[str]:
    """Tolerance check: candidate aggregates vs the packet reference,
    within :data:`TOLERANCE_BANDS`.

    ``goodput`` and ``plt`` are held to *relative* error, ``shed_rate``
    and ``availability`` (already fractions) to *absolute* error.
    Returns human-readable failure strings; empty means in-band.
    """
    failures = []
    for metric, band in TOLERANCE_BANDS.items():
        ref = reference[metric]
        new = candidate[metric]
        if metric in ("goodput", "plt"):
            deviation = abs(new - ref) / ref if ref else (0.0 if not new else
                                                         float("inf"))
            kind = "relative"
        else:
            deviation = abs(new - ref)
            kind = "absolute"
        if deviation > band:
            failures.append(
                f"{metric}: {new:.4g} vs packet {ref:.4g} "
                f"({kind} deviation {deviation:.2%} > band {band:.0%})")
    return failures


def install_fluid(sim: Simulator, mode: str) -> t.Optional["FluidRegistry"]:
    """Install on ``sim`` the registry that ``mode``, one of
    :data:`MODES`, asks for; ``"packet"`` installs nothing and returns
    None."""
    if mode == "packet":
        return None
    if mode == "hybrid":
        return FluidRegistry(sim).install()
    raise ValueError(f"unknown simulation mode {mode!r}; pick one of {MODES}")


@dataclass(frozen=True)
class PathHop:
    """One directed link traversal on a connection's forward path."""

    # Hand-written: ``dataclass(slots=True)`` needs Python 3.10.
    __slots__ = ("link", "sender", "receiver")

    link: "Link"
    sender: "Node"
    receiver: "Node"


@dataclass(frozen=True)
class PathModel:
    """Calibration snapshot of a connection's forward path."""

    __slots__ = ("hops", "latency", "bottleneck_bw", "firewalls")

    hops: t.Tuple[PathHop, ...]
    latency: float          # summed one-way propagation delay
    bottleneck_bw: float    # min link bandwidth, bytes/second
    firewalls: t.Tuple[t.Tuple[GreatFirewall, PathHop], ...]


@dataclass
class FluidStats:
    """Observability counters for the registry."""

    transfers: int = 0
    fluid_bytes: int = 0
    #: Deliveries dropped because the receiver was reset in flight.
    dropped_deliveries: int = 0
    #: Inspectable-content waivers granted to edge-cache hit streams.
    cache_hit_waivers: int = 0
    #: Ineligibility reasons -> count (messages that fell back).
    fallbacks: t.Dict[str, int] = field(default_factory=dict)
    #: De-fluidization reasons -> count.
    defluidized: t.Dict[str, int] = field(default_factory=dict)


class FluidRegistry:
    """Per-simulation owner of the fluid fast path.

    Install with :meth:`install` (or pass ``fluid=`` to
    :class:`~repro.measure.testbed.Testbed`); the packet path consults
    ``sim.fluid`` on every ``send_message``.
    """

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.rng = sim.rng.stream("fluid.loss")
        self.stats = FluidStats()
        #: Bumped on any world change (policy, fault, probe).  A
        #: connection whose cached epoch is stale must re-qualify
        #: through the packet path.
        self.epoch = 0

    def install(self) -> "FluidRegistry":
        self.sim.fluid = self
        return self

    # -- de-fluidization hooks ------------------------------------------------

    def defluidize(self, conn: TcpConnection, reason: str) -> None:
        """Force ``conn`` back to packet level until it re-qualifies."""
        conn._fluid_block = conn.packets_sent + REQUALIFY_PACKETS
        conn._fluid_path = None
        conn._fluid_peer = None
        self._count(self.stats.defluidized, reason)

    def defluidize_all(self, reason: str) -> None:
        """World changed: every fluidized connection must re-qualify.

        Lazy by design — the epoch bump invalidates cached paths and
        imposes the re-qualification window at each connection's next
        send, so no global connection registry is needed.
        """
        self.epoch += 1
        self._count(self.stats.defluidized, reason)

    def on_policy_change(self, label: str = "policy-change") -> None:
        """GFW ``apply_policy`` / probe-confirm hook."""
        self.defluidize_all(f"policy:{label}")

    def on_link_change(self, link: "Link") -> None:
        """Fault-injection hook (``set_up`` / ``set_conditions``)."""
        self.defluidize_all(f"link:{link.name}")

    def on_reset(self, conn: TcpConnection) -> None:
        """RST (genuine or GFW-injected) tore the connection down."""
        self.defluidize(conn, "reset")

    # -- the fast path --------------------------------------------------------

    def try_transfer(self, conn: TcpConnection, length: int, meta: t.Any,
                     features: t.Any) -> bool:
        """Attempt to carry one application message as a flow event.

        Returns True if the transfer was absorbed (the caller must not
        run the packet path), False to fall back — with *no* state
        mutated, so the fallback is always safe.
        """
        if length < MIN_MESSAGE_BYTES:
            # ``_fallback``, inline: most messages offered stop here.
            fallbacks = self.stats.fallbacks
            fallbacks["small-message"] = fallbacks.get("small-message", 0) + 1
            return False
        if conn.state != TcpConnection.ESTABLISHED or conn._srtt is None:
            return self._fallback("not-steady")
        if (conn._in_flight or conn._snd_nxt != conn._send_buffer.length
                or conn._snd_una != conn._snd_nxt):
            return self._fallback("sender-busy")
        if conn.packets_sent < conn._fluid_block:
            return self._fallback("requalifying")
        if conn._fluid_epoch is None:
            conn._fluid_epoch = self.epoch
        elif conn._fluid_epoch != self.epoch:
            # Policy/fault landed since this connection last fluidized:
            # drop to packets and re-prove steady state.
            conn._fluid_epoch = self.epoch
            self.defluidize(conn, "epoch-change")
            return self._fallback("epoch-change")
        wire = features if features is not None else conn.features
        if wire.plaintext or wire.handshake:
            if not conn.cache_served:
                # Keyword filtering / DPI fingerprinting need these packets.
                return self._fallback("inspectable")
            # Edge-cache hit stream: the only inspectable content on
            # this leg is the constant CONNECT preamble, which already
            # crossed at packet level before the first hit could be
            # served — steady-state hit frames add nothing for the
            # keyword filter to see.
            self.stats.cache_hit_waivers += 1
        peer, path = self._resolve_path(conn)
        if path is None or peer is None:
            return self._fallback("no-path")
        if peer.state == TcpConnection.RESET:
            return self._fallback("peer-reset")
        if peer._ooo:
            return self._fallback("peer-reassembling")
        if peer._rcv_nxt + conn._fluid_pending != conn._snd_una:
            return self._fallback("peer-lagging")
        for hop in path.hops:
            if not hop.link.up:
                return self._fallback("link-down")
        for gfw, _hop in path.firewalls:
            if not self._gfw_allows(gfw, conn):
                return self._fallback("gfw-visibility")
        self._transfer(conn, peer, path, length, meta)
        return True

    # -- eligibility internals ------------------------------------------------

    def _fallback(self, reason: str) -> bool:
        self._count(self.stats.fallbacks, reason)
        return False

    @staticmethod
    def _count(counters: t.Dict[str, int], key: str) -> None:
        counters[key] = counters.get(key, 0) + 1

    def _gfw_allows(self, gfw: GreatFirewall, conn: TcpConnection) -> bool:
        """True once ``gfw`` no longer needs per-packet visibility."""
        now = self.sim.now
        if gfw.config.ip_blocking and (
                gfw.policy.ip_blocked(conn.local_addr)
                or gfw.policy.ip_blocked(conn.remote_addr)):
            return False
        if gfw.config.keyword_filtering and gfw.flows.penalized(
                conn.local_addr, conn.remote_addr, now):
            return False
        if not gfw.config.dpi:
            return True
        state = gfw.flows.get(conn.flow)
        if state is None or state.packets < MIN_FLOW_PACKETS:
            return False
        if state.label is None and -1.0 in state.recent_times:
            # Meek candidate: the polling-cadence detector needs
            # per-packet timing to fire.
            return False
        if state.label is not None:
            if state.label in gfw.policy.rst_classes:
                return False
            if (state.label == "shadowsocks" and gfw.config.active_probing
                    and not state.probed):
                return False
        return True

    def _resolve_path(
        self, conn: TcpConnection,
    ) -> t.Tuple[t.Optional[TcpConnection], t.Optional[PathModel]]:
        if conn._fluid_path is not None:
            return conn._fluid_peer, conn._fluid_path
        resolved = self._trace_path(conn)
        if resolved is None:
            return None, None
        peer, path = resolved
        conn._fluid_peer = peer
        conn._fluid_path = path
        return peer, path

    def _trace_path(
        self, conn: TcpConnection,
    ) -> t.Optional[t.Tuple[TcpConnection, PathModel]]:
        """Walk the routing tables from sender host to destination.

        Returns None (permanently ineligible until the next epoch) when
        the path is hooked (VPN/NAT encapsulation), unroutable, carries
        an unrecognized middlebox, or the peer connection cannot be
        resolved.
        """
        node: "Node" = conn.transport.host
        dst = conn.remote_addr
        if node.outbound_hooks:
            return None
        hops: t.List[PathHop] = []
        # Added left to right: CPython 3.12's ``sum`` compensates float
        # rounding, so it would make delivery times, and the digests,
        # depend on the interpreter version.
        latency = 0.0
        for _ in range(MAX_HOPS):
            if node.owns(dst):
                break
            try:
                link = node.route_for(dst)
            except RoutingError:
                return None
            receiver = link.peer_of(node)
            if receiver.inbound_hooks:
                return None
            hops.append(PathHop(link, node, receiver))
            latency += link.latency
            node = receiver
        else:
            return None
        if not hops:
            return None
        transport = getattr(node, "transport", None)
        if transport is None:
            return None
        peer = transport._connections.get(
            (conn.remote_port, conn.local_addr, conn.local_port))
        if peer is None:
            return None
        firewalls: t.List[t.Tuple[GreatFirewall, PathHop]] = []
        for hop in hops:
            for middlebox in hop.link.middleboxes:
                if isinstance(middlebox, GreatFirewall):
                    firewalls.append((middlebox, hop))
                else:
                    # Unknown inspector: keep its traffic packet-level.
                    return None
        path = PathModel(
            hops=tuple(hops),
            latency=latency,
            bottleneck_bw=min(hop.link.bandwidth for hop in hops),
            firewalls=tuple(firewalls),
        )
        return peer, path

    # -- the analytic transfer model -----------------------------------------

    def _transfer(self, conn: TcpConnection, peer: TcpConnection,
                  path: PathModel, length: int, meta: t.Any) -> None:
        sim = self.sim
        now = sim.now
        segments = -(-length // MSS)
        wire_bytes = length + segments * _HEADER
        rtt = conn._srtt if conn._srtt else 2.0 * path.latency

        # One deterministic loss draw per lossy source, in path order:
        # expected count plus a single uniform rounding draw, so the
        # retransmission tally matches packet mode in distribution.
        retrans = 0
        for hop in path.hops:
            if hop.link.loss:
                lost = int(segments * hop.link.loss + self.rng.random())
                if lost:
                    retrans += lost
                    hop.link.packets_dropped[hop.sender.name] += lost
        for gfw, hop in path.firewalls:
            state = gfw.flows.get(conn.flow)
            label = state.label if state is not None else None
            if label is None:
                continue
            rate = gfw.policy.interference_for(label)
            if rate > 0:
                lost = int(segments * rate + self.rng.random())
                if lost:
                    retrans += lost
                    gfw.stats.interference_drops += lost
                    hop.link.packets_dropped[hop.sender.name] += lost

        # Window-limited rounds from the sender's live congestion
        # state, with the drawn loss events spread evenly through the
        # transfer — each costs a fast-retransmit halving mid-flight,
        # the same drag packet mode shows from duplicate-ACK recovery.
        w = max(conn._cwnd, 1.0)
        ssthresh = conn._ssthresh
        loss_every = segments // (retrans + 1) if retrans else 0
        next_loss = loss_every
        sent = 0
        rounds = 0
        while sent < segments:
            sent += max(int(w), 1)
            rounds += 1
            if retrans and sent >= next_loss:
                ssthresh = max(w / 2.0, 2.0)
                w = ssthresh
                next_loss += loss_every
            elif w < ssthresh:
                w = min(w * 2.0, ssthresh)   # slow start
            else:
                w += 1.0                     # congestion avoidance
        if retrans:
            conn._ssthresh = ssthresh

        # FIFO contention: reserve the burst on every hop's horizon so
        # concurrent fluid flows queue behind each other exactly as
        # packet bursts would.
        depart = now
        for hop in path.hops:
            busy = hop.link._busy_until
            start = max(depart, busy[hop.sender.name])
            busy[hop.sender.name] = start + wire_bytes / hop.link.bandwidth
            depart = start + hop.link.latency
        queue_delay = max(0.0, depart - path.latency - now)

        # A grossly inflated RTT estimate (the legacy of a packet-level
        # RTO episode before fluidization) must not price every round:
        # under ACK clocking the estimator converges back to the path
        # RTT with gain 1/8 per sample, so only the first ~8 rounds pay
        # the stale excess.  Healthy estimates (< 2x the propagation
        # RTT — normal queueing) keep the plain per-round charge that
        # the tolerance bands were calibrated against.
        base_rtt = 2.0 * path.latency
        round_time = (rounds - 1) * rtt
        if rounds > 1 and rtt > 2.0 * base_rtt:
            excess = rtt - base_rtt
            geom = (1.0 - 0.875 ** (rounds - 1)) / 0.125
            round_time = (rounds - 1) * base_rtt + excess * geom
            conn._srtt = base_rtt + excess * 0.875 ** (rounds - 1)

        transfer = max(round_time, wire_bytes / path.bottleneck_bw)
        delay = queue_delay + transfer + path.latency
        deliver_at = max(now + delay, conn._fluid_horizon)
        conn._fluid_horizon = deliver_at
        conn._fluid_pending += length

        # Sender-side accounting, as if the packet path had run.
        total_packets = segments + retrans
        sent_bytes = wire_bytes + retrans * (MSS + _HEADER)
        conn._send_buffer.skip(length)
        conn._snd_nxt = conn._snd_una = conn._send_buffer.length
        conn.packets_sent += total_packets
        conn.bytes_sent += sent_bytes
        conn.retransmissions += retrans
        conn._cwnd = w

        # Path and firewall accounting (data direction + delayed ACKs
        # coming back).
        acks = (total_packets + 1) // 2
        for hop in path.hops:
            hop.link.packets_sent[hop.sender.name] += total_packets
            hop.link.bytes_sent[hop.sender.name] += sent_bytes
            hop.link.packets_sent[hop.receiver.name] += acks
            hop.link.bytes_sent[hop.receiver.name] += acks * ACK_SIZE
        for gfw, _hop in path.firewalls:
            gfw.stats.packets_seen += total_packets + acks
            gfw.flows.observe_bulk(conn.flow, total_packets + acks,
                                   sent_bytes + acks * ACK_SIZE, now)
        peer.packets_sent += acks
        peer.bytes_sent += acks * ACK_SIZE

        self.stats.transfers += 1
        self.stats.fluid_bytes += length

        event = sim.flow_event(deliver_at - now, conn.flow, "deliver")
        event.add_callback(
            lambda _event: self._deliver(conn, peer, length, meta))

    def _deliver(self, conn: TcpConnection, peer: TcpConnection,
                 length: int, meta: t.Any) -> None:
        conn._fluid_pending -= length
        if peer.state == TcpConnection.RESET:
            self.stats.dropped_deliveries += 1
            return
        peer.bytes_received += length
        peer._rcv_nxt += length
        peer._inbox.put(meta)
        # A de-fluidized sender may have packet-mode segments parked
        # out-of-order behind this delivery; admit them now.
        filled = False
        while peer._rcv_nxt in peer._ooo:
            peer._admit(peer._ooo.pop(peer._rcv_nxt))
            filled = True
        if filled:
            peer._send_ack()
